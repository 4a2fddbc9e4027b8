//! Per-link routing tables and the subscription summarisation modes a broker
//! can apply to them.
//!
//! A broker in a tree overlay keeps, for every link, a summary of the
//! subscriptions that live behind that link. On receiving a document it
//! forwards the document over a link if the link's summary matches. The
//! summarisation mode trades table size and matching cost against routing
//! accuracy — exactly the trade-off the paper's introduction discusses when
//! it contrasts per-subscription filtering and subscription aggregation with
//! similarity-driven communities:
//!
//! * [`TableMode::Exact`] — keep every subscription (largest table, exact
//!   forwarding),
//! * [`TableMode::ContainmentPruned`] — drop subscriptions contained in
//!   another subscription of the same link (smaller table, still exact),
//! * [`TableMode::Aggregated`] — replace each link's subscriptions by their
//!   least-upper-bound aggregate (one entry per link, may over-forward).

use tps_pattern::containment::ContainmentOracle;
use tps_pattern::{aggregate, containment, TreePattern};
use tps_xml::XmlTree;

use crate::named_enum;

/// The silent oracle: syntactic containment only.
fn no_oracle(_: &TreePattern, _: &TreePattern) -> Option<bool> {
    None
}

/// How a link's subscription set is summarised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableMode {
    /// Keep every subscription behind the link.
    Exact,
    /// Keep only subscriptions not contained in another kept subscription.
    ContainmentPruned,
    /// Keep a single aggregated pattern per link.
    Aggregated,
}

// Declaration order is increasing compression, which is the order `all()`
// reports.
named_enum!(TableMode {
    Exact => "exact",
    ContainmentPruned => "containment-pruned",
    Aggregated => "aggregated",
});

/// The summary of the subscriptions behind one link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSummary {
    patterns: Vec<TreePattern>,
    mode: TableMode,
    input_count: usize,
}

impl LinkSummary {
    /// Summarise `subscriptions` according to `mode`.
    pub fn build(subscriptions: &[TreePattern], mode: TableMode) -> Self {
        Self::summarise(subscriptions, mode, subscriptions.len())
    }

    /// Compact `subscriptions` first — drop entries covered by another
    /// entry of the same link, with the oracle extending the syntactic
    /// containment test — then summarise the compacted set with `mode`.
    ///
    /// Compacting within one link is delivery-preserving: a covering
    /// subscription behind the same link forwards every document the
    /// dropped entry would have, and local delivery always filters per
    /// consumer. With the silent oracle this is sound for every document;
    /// a DTD oracle is sound on conforming streams only.
    pub fn build_compacted(
        subscriptions: &[TreePattern],
        mode: TableMode,
        oracle: &ContainmentOracle<'_>,
    ) -> Self {
        let compacted = prune_contained_with(subscriptions, oracle);
        Self::summarise(&compacted, mode, subscriptions.len())
    }

    fn summarise(subscriptions: &[TreePattern], mode: TableMode, input_count: usize) -> Self {
        let patterns = match mode {
            TableMode::Exact => subscriptions.to_vec(),
            TableMode::ContainmentPruned => prune_contained(subscriptions),
            TableMode::Aggregated => {
                if subscriptions.is_empty() {
                    Vec::new()
                } else {
                    vec![aggregate::aggregate_all(subscriptions.iter())]
                }
            }
        };
        Self {
            patterns,
            mode,
            input_count,
        }
    }

    /// The summarisation mode.
    pub fn mode(&self) -> TableMode {
        self.mode
    }

    /// Number of patterns kept for this link.
    pub fn entry_count(&self) -> usize {
        self.patterns.len()
    }

    /// Number of subscriptions offered for this link before summarisation
    /// or compaction.
    pub fn input_count(&self) -> usize {
        self.input_count
    }

    /// Total number of pattern nodes kept for this link (a size proxy).
    pub fn node_count(&self) -> usize {
        self.patterns.iter().map(TreePattern::node_count).sum()
    }

    /// The kept patterns.
    pub fn patterns(&self) -> &[TreePattern] {
        &self.patterns
    }

    /// Whether the link is interested in `document`. Also reports the number
    /// of pattern matches evaluated (for cost accounting): matching stops at
    /// the first hit.
    pub fn matches(&self, document: &XmlTree) -> (bool, usize) {
        let mut evaluated = 0usize;
        for pattern in &self.patterns {
            evaluated += 1;
            if pattern.matches(document) {
                return (true, evaluated);
            }
        }
        (false, evaluated)
    }
}

/// Drop every subscription that is contained in another kept subscription
/// (`p ⊑ q` means any document matching `p` also matches `q`, so `p` is
/// redundant for forwarding decisions).
pub fn prune_contained(subscriptions: &[TreePattern]) -> Vec<TreePattern> {
    prune_contained_with(subscriptions, &no_oracle)
}

/// [`prune_contained`] with a containment oracle extending the syntactic
/// test (e.g. DTD expansion reasoning from `tps-analyze`): the oracle may
/// prove additional containments, never fewer, so the pruned set is a
/// subset of the syntactic one.
pub fn prune_contained_with(
    subscriptions: &[TreePattern],
    oracle: &ContainmentOracle<'_>,
) -> Vec<TreePattern> {
    let mut kept: Vec<TreePattern> = Vec::new();
    'candidates: for (i, candidate) in subscriptions.iter().enumerate() {
        for (j, other) in subscriptions.iter().enumerate() {
            if i == j {
                continue;
            }
            let candidate_contained = containment::contains_with(other, candidate, oracle);
            let other_contained = containment::contains_with(candidate, other, oracle);
            if candidate_contained && !other_contained {
                // Strictly contained in something else: redundant.
                continue 'candidates;
            }
            if candidate_contained && other_contained && j < i {
                // Equivalent patterns: keep only the first occurrence.
                continue 'candidates;
            }
        }
        kept.push(candidate.clone());
    }
    kept
}

/// The routing table of one broker: one [`LinkSummary`] per link, plus the
/// broker's local subscriptions (kept exact — local deliveries are always
/// filtered per consumer).
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingTable {
    links: Vec<LinkSummary>,
    mode: TableMode,
}

impl RoutingTable {
    /// Build a routing table from the subscription sets behind each link.
    pub fn build(per_link_subscriptions: &[Vec<TreePattern>], mode: TableMode) -> Self {
        Self {
            links: per_link_subscriptions
                .iter()
                .map(|subscriptions| LinkSummary::build(subscriptions, mode))
                .collect(),
            mode,
        }
    }

    /// Build a routing table over per-link subscription sets compacted with
    /// [`LinkSummary::build_compacted`] (oracle-extended containment
    /// pruning before mode summarisation).
    pub fn build_compacted(
        per_link_subscriptions: &[Vec<TreePattern>],
        mode: TableMode,
        oracle: &ContainmentOracle<'_>,
    ) -> Self {
        Self {
            links: per_link_subscriptions
                .iter()
                .map(|subscriptions| LinkSummary::build_compacted(subscriptions, mode, oracle))
                .collect(),
            mode,
        }
    }

    /// The summarisation mode of the table.
    pub fn mode(&self) -> TableMode {
        self.mode
    }

    /// Number of links the table covers.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The summary for one link.
    pub fn link(&self, index: usize) -> &LinkSummary {
        &self.links[index]
    }

    /// Total number of table entries across all links.
    pub fn entry_count(&self) -> usize {
        self.links.iter().map(LinkSummary::entry_count).sum()
    }

    /// Total number of pattern nodes across all links (a size proxy).
    pub fn node_count(&self) -> usize {
        self.links.iter().map(LinkSummary::node_count).sum()
    }

    /// Total number of subscriptions offered across all links before
    /// summarisation or compaction.
    pub fn input_count(&self) -> usize {
        self.links.iter().map(LinkSummary::input_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patterns(texts: &[&str]) -> Vec<TreePattern> {
        texts
            .iter()
            .map(|s| TreePattern::parse(s).unwrap())
            .collect()
    }

    fn doc(xml: &str) -> XmlTree {
        XmlTree::parse(xml).unwrap()
    }

    #[test]
    fn exact_mode_keeps_everything() {
        let subs = patterns(&["//CD", "//CD/title", "//book"]);
        let summary = LinkSummary::build(&subs, TableMode::Exact);
        assert_eq!(summary.entry_count(), 3);
        assert_eq!(summary.mode(), TableMode::Exact);
    }

    #[test]
    fn containment_pruning_drops_redundant_subscriptions() {
        // //CD/title and /media/CD are both contained in //CD.
        let subs = patterns(&["//CD", "//CD/title", "/media/CD", "//book"]);
        let pruned = prune_contained(&subs);
        let rendered: Vec<String> = pruned.iter().map(|p| p.to_string()).collect();
        assert!(rendered.contains(&"//CD".to_string()));
        assert!(rendered.contains(&"//book".to_string()));
        assert_eq!(pruned.len(), 2, "kept {rendered:?}");
    }

    #[test]
    fn containment_pruning_keeps_one_of_equivalent_patterns() {
        let subs = patterns(&["//CD", "//CD"]);
        assert_eq!(prune_contained(&subs).len(), 1);
    }

    #[test]
    fn oracle_extended_pruning_drops_entries_the_syntactic_test_keeps() {
        // A toy oracle proving that `/media/CD` covers `//disc` — something
        // the homomorphism test can never see.
        let oracle = |p: &TreePattern, q: &TreePattern| -> Option<bool> {
            (p.to_string() == "/media/CD" && q.to_string() == "//disc").then_some(true)
        };
        let subs = patterns(&["/media/CD", "//disc", "//book"]);
        assert_eq!(prune_contained(&subs).len(), 3);
        let pruned = prune_contained_with(&subs, &oracle);
        let rendered: Vec<String> = pruned.iter().map(|p| p.to_string()).collect();
        assert_eq!(rendered, vec!["/media/CD", "//book"]);
    }

    #[test]
    fn compacted_summaries_record_input_counts() {
        let subs = patterns(&["//CD", "//CD/title", "/media/CD", "//book"]);
        let summary = LinkSummary::build_compacted(&subs, TableMode::Exact, &super::no_oracle);
        assert_eq!(summary.input_count(), 4);
        assert_eq!(summary.entry_count(), 2);
        // Compaction before Exact summarisation equals ContainmentPruned.
        let pruned = LinkSummary::build(&subs, TableMode::ContainmentPruned);
        assert_eq!(summary.entry_count(), pruned.entry_count());
        assert_eq!(pruned.input_count(), 4);
        let exact = LinkSummary::build(&subs, TableMode::Exact);
        assert_eq!(exact.input_count(), exact.entry_count());
    }

    #[test]
    fn pruned_summary_forwards_exactly_like_the_exact_one() {
        let subs = patterns(&["//CD", "//CD/title", "/media/CD", "//book/author"]);
        let exact = LinkSummary::build(&subs, TableMode::Exact);
        let pruned = LinkSummary::build(&subs, TableMode::ContainmentPruned);
        assert!(pruned.entry_count() < exact.entry_count());
        for xml in [
            "<media><CD><title>T</title></CD></media>",
            "<media><book><author>A</author></book></media>",
            "<media><book><title>T</title></book></media>",
            "<journal><article/></journal>",
        ] {
            let document = doc(xml);
            assert_eq!(
                exact.matches(&document).0,
                pruned.matches(&document).0,
                "disagreement on {xml}"
            );
        }
    }

    #[test]
    fn aggregated_summary_has_one_entry_and_never_misses() {
        let subs = patterns(&["//CD/title", "//CD/composer"]);
        let aggregated = LinkSummary::build(&subs, TableMode::Aggregated);
        assert_eq!(aggregated.entry_count(), 1);
        let exact = LinkSummary::build(&subs, TableMode::Exact);
        for xml in [
            "<media><CD><title>T</title></CD></media>",
            "<media><CD><composer>C</composer></CD></media>",
            "<media><CD><year>1781</year></CD></media>",
            "<media><book/></media>",
        ] {
            let document = doc(xml);
            let (exact_hit, _) = exact.matches(&document);
            let (aggregated_hit, _) = aggregated.matches(&document);
            assert!(
                !exact_hit || aggregated_hit,
                "aggregate missed a document the members match: {xml}"
            );
        }
    }

    #[test]
    fn empty_link_matches_nothing() {
        for mode in TableMode::all() {
            let summary = LinkSummary::build(&[], mode);
            assert_eq!(summary.entry_count(), 0);
            assert!(!summary.matches(&doc("<a/>")).0);
        }
    }

    #[test]
    fn routing_table_reports_forward_links_and_cost() {
        let table = RoutingTable::build(
            &[
                patterns(&["//CD"]),
                patterns(&["//book"]),
                patterns(&["//magazine"]),
            ],
            TableMode::Exact,
        );
        let document = doc("<media><CD/><book/></media>");
        let decisions: Vec<(bool, usize)> =
            (0..3).map(|i| table.link(i).matches(&document)).collect();
        assert_eq!(decisions, vec![(true, 1), (true, 1), (false, 1)]);
        assert_eq!(table.link_count(), 3);
        assert_eq!(table.entry_count(), 3);
        assert!(table.node_count() >= 3);
    }

    #[test]
    fn match_cost_stops_at_the_first_hit_per_link() {
        let summary = LinkSummary::build(
            &patterns(&["//CD", "//CD/title", "//CD/composer"]),
            TableMode::Exact,
        );
        let (hit, cost) = summary.matches(&doc("<media><CD><title>T</title></CD></media>"));
        assert!(hit);
        assert_eq!(cost, 1);
    }

    #[test]
    fn table_mode_names_are_stable() {
        assert_eq!(TableMode::Exact.name(), "exact");
        assert_eq!(TableMode::ContainmentPruned.name(), "containment-pruned");
        assert_eq!(TableMode::Aggregated.name(), "aggregated");
    }
}
