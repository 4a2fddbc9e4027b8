//! The per-broker routing step: what one broker does with one document.
//!
//! This is the paper's routing model for one broker visit: filter the
//! document against the local subscriptions, consult one table entry per
//! outgoing link, never send it back where it came from, and count the
//! cost as match operations plus link messages. The static
//! [`crate::BrokerNetwork`], `tps-sim` and `tps-net` all drive [`step`];
//! they differ only in where interest comes from.

use tps_xml::XmlTree;

use crate::table::RoutingTable;
use crate::topology::{BrokerId, BrokerTopology};

/// One broker's links: its neighbours and, per link, which brokers sit
/// behind it.
#[derive(Debug, Clone)]
pub struct BrokerLinks {
    /// The broker these links belong to.
    pub broker: BrokerId,
    /// Its neighbours, in link order.
    pub neighbours: Vec<BrokerId>,
    /// `behind[link][b]`: whether broker `b` sits behind link `link`
    /// ([`BrokerTopology::link_masks`]).
    pub behind: Vec<Vec<bool>>,
}

impl BrokerLinks {
    /// The links of `broker` in `topology`.
    pub fn new(topology: &BrokerTopology, broker: BrokerId) -> Self {
        Self {
            broker,
            neighbours: topology.neighbours(broker).to_vec(),
            behind: topology.link_masks(broker),
        }
    }

    /// The links of every broker of `topology`, indexed by broker id.
    pub fn all(topology: &BrokerTopology) -> Vec<Self> {
        topology.brokers().map(|b| Self::new(topology, b)).collect()
    }
}

/// The counters one broker visit adds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepCounters {
    /// Local filtering (one per local consumer) plus table lookups
    /// (first-hit cost per consulted link).
    pub match_operations: usize,
    /// Local consumers the document matched.
    pub deliveries: usize,
    /// Forwards over overlay links.
    pub link_messages: usize,
    /// Forwards towards links with no interested consumer behind them.
    pub spurious_link_messages: usize,
}

/// What one broker decided for one document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepOutcome<C> {
    /// Local consumers the document matched, in view order.
    pub local: Vec<C>,
    /// The chosen `(link index, neighbour)` pairs, in link order.
    pub forwards: Vec<(usize, BrokerId)>,
    /// The counters this visit adds.
    pub counters: StepCounters,
}

/// Route `document` one step at `links.broker`, having arrived from
/// `from` (`None` at the publishing broker).
///
/// `view` lists every consumer the broker knows with the broker it is
/// attached to; those attached to `links.broker` are the local consumers.
/// `table` is the broker's routing table, `None` for flooding.
/// `interested` is the interest oracle. It is asked about each local
/// consumer once, and about consumers behind a chosen link until the
/// first one says yes, so it may be a lazy matcher. Its answers feed
/// deliveries and the spurious-forward count; they never change which
/// links are chosen.
pub fn step<C: Copy>(
    document: &XmlTree,
    from: Option<BrokerId>,
    links: &BrokerLinks,
    view: impl Iterator<Item = (C, BrokerId)> + Clone,
    table: Option<&RoutingTable>,
    mut interested: impl FnMut(C) -> bool,
) -> StepOutcome<C> {
    let mut counters = StepCounters::default();
    let mut local = Vec::new();
    for (consumer, _) in view.clone().filter(|&(_, at)| at == links.broker) {
        counters.match_operations += 1;
        if interested(consumer) {
            counters.deliveries += 1;
            local.push(consumer);
        }
    }
    let mut forwards = Vec::new();
    for (link, &neighbour) in links.neighbours.iter().enumerate() {
        if Some(neighbour) == from {
            continue;
        }
        if let Some(table) = table {
            let (hit, cost) = table.link(link).matches(document);
            counters.match_operations += cost;
            if !hit {
                continue;
            }
        }
        counters.link_messages += 1;
        let behind = &links.behind[link];
        if !view
            .clone()
            .any(|(consumer, at)| behind[at] && interested(consumer))
        {
            counters.spurious_link_messages += 1;
        }
        forwards.push((link, neighbour));
    }
    StepOutcome {
        local,
        forwards,
        counters,
    }
}
