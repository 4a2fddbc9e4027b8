//! The per-broker pieces the static network, the simulator and the live
//! broker share: the routing step and one broker's table.

use tps_pattern::TreePattern;
use tps_routing::{
    step, BrokerLinks, BrokerNetwork, BrokerTopology, ForwardingMode, RoutingTable, StepCounters,
    TableMode,
};
use tps_xml::XmlTree;

/// Broker 0 of a 5-broker binary tree: link 0 leads to {1, 3, 4}, link 1
/// to {2}.
fn links() -> BrokerLinks {
    BrokerLinks::new(&BrokerTopology::balanced_tree(5, 2), 0)
}

fn doc() -> XmlTree {
    XmlTree::parse("<media><CD/></media>").unwrap()
}

fn patterns(texts: &[&str]) -> Vec<TreePattern> {
    texts
        .iter()
        .map(|t| TreePattern::parse(t).unwrap())
        .collect()
}

#[test]
fn flooding_forwards_everywhere_but_back_and_counts_spurious_links() {
    let view = [(0usize, 0), (1, 3), (2, 2)].into_iter();
    let interest = [true, true, false];
    let outcome = step(&doc(), None, &links(), view.clone(), None, |c| interest[c]);
    assert_eq!(outcome.local, vec![0]);
    assert_eq!(outcome.forwards, vec![(0, 1), (1, 2)]);
    assert_eq!(
        outcome.counters,
        StepCounters {
            match_operations: 1,
            deliveries: 1,
            link_messages: 2,
            spurious_link_messages: 1,
        }
    );
    let back = step(&doc(), Some(1), &links(), view, None, |c| interest[c]);
    assert_eq!(back.forwards, vec![(1, 2)]);
}

#[test]
fn tables_charge_first_hit_cost_and_the_oracle_is_asked_lazily() {
    let table = RoutingTable::build(
        &[
            patterns(&["//book", "//CD", "//DVD"]),
            patterns(&["//book"]),
        ],
        TableMode::Exact,
    );
    // Three consumers behind link 0, all interested: the spurious test
    // stops at the first.
    let view = [(0usize, 1), (1, 3), (2, 4)].into_iter();
    let mut asked = Vec::new();
    let outcome = step(&doc(), None, &links(), view, Some(&table), |c| {
        asked.push(c);
        true
    });
    assert_eq!(outcome.forwards, vec![(0, 1)]);
    assert_eq!(asked, vec![0]);
    // Link 0 hits on its second entry, link 1 misses after one.
    assert_eq!(outcome.counters.match_operations, 3);
    assert_eq!(outcome.counters.spurious_link_messages, 0);
}

#[test]
fn link_masks_put_every_other_broker_behind_exactly_one_link() {
    for topology in [
        BrokerTopology::single(),
        BrokerTopology::chain(6),
        BrokerTopology::star(7),
        BrokerTopology::balanced_tree(13, 3),
        BrokerTopology::random_tree(12, 99),
    ] {
        for broker in topology.brokers() {
            let masks = topology.link_masks(broker);
            assert_eq!(masks.len(), topology.neighbours(broker).len());
            for other in topology.brokers() {
                let links = masks.iter().filter(|mask| mask[other]).count();
                let expected = usize::from(other != broker);
                assert_eq!(links, expected, "{other} behind {broker} in {topology:?}");
            }
        }
    }
}

#[test]
fn table_for_builds_the_same_table_as_build_tables() {
    let subscriptions = patterns(&["//CD", "//composer", "//book", "/media/CD", "//author"]);
    for topology in [
        BrokerTopology::chain(5),
        BrokerTopology::star(6),
        BrokerTopology::balanced_tree(13, 3),
        BrokerTopology::random_tree(9, 4),
    ] {
        let mut network = BrokerNetwork::new(topology.clone());
        for (i, pattern) in subscriptions.iter().enumerate() {
            network.attach((i * 7) % topology.broker_count(), "c", pattern.clone());
        }
        for mode in ForwardingMode::all() {
            let ForwardingMode::Table(mode) = mode else {
                continue;
            };
            let tables = network.build_tables(mode);
            for broker in topology.brokers() {
                assert_eq!(network.table_for(broker, mode), tables[broker]);
            }
        }
    }
}
