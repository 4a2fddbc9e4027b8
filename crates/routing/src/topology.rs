//! Broker overlay topologies.
//!
//! Content-based publish/subscribe systems of the paper's era (XNet and its
//! relatives) organise brokers in an acyclic overlay — a tree — so that
//! reverse-path forwarding needs no duplicate suppression. This module
//! provides the topology substrate for the multi-broker simulation in
//! [`crate::network`]: balanced trees, chains, stars and randomly grown
//! trees, plus the path/adjacency queries the routing tables need.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Identifier of a broker within a [`BrokerTopology`].
pub type BrokerId = usize;

/// An undirected, connected, acyclic broker overlay (a tree).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrokerTopology {
    /// Adjacency lists, indexed by broker id.
    neighbours: Vec<Vec<BrokerId>>,
}

impl BrokerTopology {
    /// A single broker with no links.
    pub fn single() -> Self {
        Self {
            neighbours: vec![Vec::new()],
        }
    }

    /// A chain `0 - 1 - ... - n-1`.
    pub fn chain(broker_count: usize) -> Self {
        let mut topology = Self::with_brokers(broker_count);
        for i in 1..broker_count {
            topology.link(i - 1, i);
        }
        topology
    }

    /// A star with broker 0 at the centre.
    pub fn star(broker_count: usize) -> Self {
        let mut topology = Self::with_brokers(broker_count);
        for i in 1..broker_count {
            topology.link(0, i);
        }
        topology
    }

    /// A balanced tree rooted at broker 0 in which every broker has at most
    /// `fanout` children.
    pub fn balanced_tree(broker_count: usize, fanout: usize) -> Self {
        let fanout = fanout.max(1);
        let mut topology = Self::with_brokers(broker_count);
        for i in 1..broker_count {
            topology.link((i - 1) / fanout, i);
        }
        topology
    }

    /// A random tree grown by attaching each new broker to a uniformly
    /// chosen existing broker.
    pub fn random_tree(broker_count: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut topology = Self::with_brokers(broker_count);
        for i in 1..broker_count {
            let parent = rng.gen_range(0..i);
            topology.link(parent, i);
        }
        topology
    }

    fn with_brokers(broker_count: usize) -> Self {
        Self {
            neighbours: vec![Vec::new(); broker_count.max(1)],
        }
    }

    fn link(&mut self, a: BrokerId, b: BrokerId) {
        self.neighbours[a].push(b);
        self.neighbours[b].push(a);
    }

    /// Number of brokers.
    pub fn broker_count(&self) -> usize {
        self.neighbours.len()
    }

    /// Number of (undirected) links.
    pub fn link_count(&self) -> usize {
        self.neighbours.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// The neighbours of a broker.
    pub fn neighbours(&self, broker: BrokerId) -> &[BrokerId] {
        &self.neighbours[broker]
    }

    /// All broker ids.
    pub fn brokers(&self) -> impl Iterator<Item = BrokerId> {
        0..self.broker_count()
    }

    /// Whether the overlay is connected and acyclic (a tree). Always true
    /// for topologies built by the constructors of this type.
    pub fn is_tree(&self) -> bool {
        self.link_count() + 1 == self.broker_count()
            && self.reachable_from(0).len() == self.broker_count()
    }

    /// The brokers reachable from `start` (including `start`).
    pub fn reachable_from(&self, start: BrokerId) -> Vec<BrokerId> {
        let mut seen = vec![false; self.broker_count()];
        let mut queue = std::collections::VecDeque::from([start]);
        seen[start] = true;
        let mut order = Vec::new();
        while let Some(current) = queue.pop_front() {
            order.push(current);
            for &next in self.neighbours(current) {
                if !seen[next] {
                    seen[next] = true;
                    queue.push_back(next);
                }
            }
        }
        order
    }

    /// The unique path between two brokers (inclusive of both endpoints).
    pub fn path(&self, from: BrokerId, to: BrokerId) -> Vec<BrokerId> {
        if from == to {
            return vec![from];
        }
        let mut parent: Vec<Option<BrokerId>> = vec![None; self.broker_count()];
        let mut seen = vec![false; self.broker_count()];
        let mut queue = std::collections::VecDeque::from([from]);
        seen[from] = true;
        while let Some(current) = queue.pop_front() {
            if current == to {
                break;
            }
            for &next in self.neighbours(current) {
                if !seen[next] {
                    seen[next] = true;
                    parent[next] = Some(current);
                    queue.push_back(next);
                }
            }
        }
        if !seen[to] {
            return Vec::new();
        }
        let mut path = vec![to];
        let mut current = to;
        while let Some(prev) = parent[current] {
            path.push(prev);
            current = prev;
        }
        path.reverse();
        path
    }

    /// Number of links on the path between two brokers (0 for the same
    /// broker, `usize::MAX` if unreachable).
    pub fn distance(&self, from: BrokerId, to: BrokerId) -> usize {
        let path = self.path(from, to);
        if path.is_empty() {
            usize::MAX
        } else {
            path.len() - 1
        }
    }

    /// Which brokers sit behind each link of `broker`: `link_masks(b)[i][x]`
    /// is true when broker `x` is reachable from `neighbours(b)[i]` without
    /// crossing `b`. Routing tables and spurious-forward accounting are
    /// both defined over these sets.
    pub fn link_masks(&self, broker: BrokerId) -> Vec<Vec<bool>> {
        self.neighbours(broker)
            .iter()
            .map(|&next| {
                let mut behind = vec![false; self.broker_count()];
                behind[next] = true;
                let mut stack = vec![next];
                while let Some(current) = stack.pop() {
                    for &n in self.neighbours(current) {
                        if n != broker && !behind[n] {
                            behind[n] = true;
                            stack.push(n);
                        }
                    }
                }
                behind
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_build_trees_of_the_requested_size() {
        for topology in [
            BrokerTopology::single(),
            BrokerTopology::chain(6),
            BrokerTopology::star(7),
            BrokerTopology::balanced_tree(10, 3),
            BrokerTopology::random_tree(12, 99),
        ] {
            assert!(topology.is_tree(), "{topology:?} is not a tree");
            assert_eq!(topology.link_count() + 1, topology.broker_count());
        }
        assert_eq!(BrokerTopology::chain(6).broker_count(), 6);
        assert_eq!(BrokerTopology::star(7).link_count(), 6);
    }

    #[test]
    fn zero_broker_requests_fall_back_to_a_single_broker() {
        assert_eq!(BrokerTopology::chain(0).broker_count(), 1);
        assert_eq!(BrokerTopology::balanced_tree(0, 2).broker_count(), 1);
    }

    #[test]
    fn chain_paths_and_distances() {
        let chain = BrokerTopology::chain(5);
        assert_eq!(chain.path(0, 4), vec![0, 1, 2, 3, 4]);
        assert_eq!(chain.distance(0, 4), 4);
        assert_eq!(chain.distance(2, 2), 0);
        assert_eq!(chain.path(3, 1), vec![3, 2, 1]);
    }

    #[test]
    fn star_centre_has_all_links() {
        let star = BrokerTopology::star(5);
        assert_eq!(star.neighbours(0).len(), 4);
        assert_eq!(star.distance(1, 2), 2);
    }

    #[test]
    fn balanced_tree_has_bounded_fanout() {
        let tree = BrokerTopology::balanced_tree(15, 2);
        // The root has 2 children; internal brokers have a parent plus at
        // most 2 children.
        assert!(tree.brokers().all(|b| tree.neighbours(b).len() <= 3));
        assert_eq!(tree.neighbours(0).len(), 2);
    }

    #[test]
    fn random_tree_is_deterministic_per_seed() {
        assert_eq!(
            BrokerTopology::random_tree(20, 7),
            BrokerTopology::random_tree(20, 7)
        );
        assert_ne!(
            BrokerTopology::random_tree(20, 7),
            BrokerTopology::random_tree(20, 8)
        );
    }

    #[test]
    fn link_partitions_split_the_tree() {
        let masks = BrokerTopology::chain(5).link_masks(2);
        let sides: Vec<Vec<BrokerId>> = masks
            .iter()
            .map(|mask| (0..5).filter(|&b| mask[b]).collect())
            .collect();
        // Neighbours of 2 are [1, 3], in link order.
        assert_eq!(sides, vec![vec![0, 1], vec![3, 4]]);
    }

    #[test]
    fn reachability_covers_the_whole_tree() {
        let tree = BrokerTopology::balanced_tree(9, 2);
        assert_eq!(tree.reachable_from(4).len(), 9);
    }
}
