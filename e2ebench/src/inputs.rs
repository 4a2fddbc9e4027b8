//! Workload definitions and the inputs generated for them from a seed.
//!
//! The program under test only ever sees what this module generates: the
//! subscriptions, the probe, the churn patterns and the document pool. Each
//! published document is a pool document with a unique `seq` attribute on
//! its root element, so every delivery can be matched to its due time.
//! Both XML front ends discard attributes, so stamping changes no routing
//! decision (checked by [`crate::mesh::check_stamping`]).

use std::collections::{BTreeMap, VecDeque};

use tps_net::OverlayConfig;
use tps_pattern::TreePattern;
use tps_routing::{BrokerId, BrokerTopology, ForwardingMode, TableMode};
use tps_workload::{DocGenConfig, DocumentGenerator, Dtd, XPathGenConfig, XPathGenerator};

/// Brokers in the overlay (a balanced tree of fanout 3: root, three inner
/// brokers, nine leaves).
pub const BROKERS: usize = 13;
const FANOUT: usize = 3;

/// Subscriber id of the probe (far above every background id).
pub const PROBE_ID: u64 = 1 << 40;

/// Which DTD a workload's documents and patterns come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DtdKind {
    /// The synthetic NITF-scale DTD (~750-byte documents).
    Nitf,
    /// The paper's media DTD (~236-byte documents, the smallest).
    Media,
}

/// One named workload. Every workload runs the same phases; the sizes
/// decide which layer dominates.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Document and pattern DTD.
    pub dtd: DtdKind,
    /// Background subscriptions, homed round-robin over the brokers.
    pub subscriptions: usize,
    /// How brokers forward documents.
    pub forwarding: ForwardingMode,
    /// Open-loop publication rate of the latency phase (documents/s).
    pub rate: f64,
    /// A churn operation after every this many publications (latency and
    /// saturation phases); `None` for churn-free publishing.
    pub churn_every: Option<usize>,
    /// Documents per saturation burst.
    pub burst: usize,
    /// Overlay set-ups per run (the median is reported).
    pub setups: usize,
}

/// The workloads, in `BENCHMARK.json` order.
pub fn specs() -> Vec<Spec> {
    vec![
        // Per-subscription matching dominates: every broker matches its
        // local subscriptions and re-matches the ones behind every chosen
        // link. Tables are built once, during set-up.
        Spec {
            name: "publish_heavy",
            dtd: DtdKind::Nitf,
            subscriptions: 2000,
            forwarding: ForwardingMode::Table(TableMode::Exact),
            rate: 300.0,
            churn_every: None,
            burst: 1500,
            setups: 3,
        },
        // Every churn operation makes every broker rebuild all of its
        // tables on its next document; the control path runs beside the
        // publish path.
        Spec {
            name: "churn_mixed",
            dtd: DtdKind::Nitf,
            subscriptions: 200,
            forwarding: ForwardingMode::Table(TableMode::Exact),
            rate: 200.0,
            churn_every: Some(20),
            burst: 1500,
            setups: 5,
        },
        // Bare forwarding of the smallest documents: codec, per-hop parse,
        // socket hops and thread hand-offs dominate; matching and tables
        // are near zero.
        Spec {
            name: "flood_small",
            dtd: DtdKind::Media,
            subscriptions: BROKERS,
            forwarding: ForwardingMode::Flooding,
            rate: 3000.0,
            churn_every: None,
            burst: 12000,
            setups: 5,
        },
    ]
}

/// One subscription.
#[derive(Debug, Clone)]
pub struct Sub {
    /// Subscriber id.
    pub id: u64,
    /// Home broker.
    pub home: BrokerId,
    /// The pattern.
    pub pattern: TreePattern,
    /// The pattern's text as sent on the wire.
    pub text: String,
}

impl Sub {
    fn new(id: u64, home: BrokerId, pattern: TreePattern) -> Self {
        let text = pattern.to_string();
        Self {
            id,
            home,
            pattern,
            text,
        }
    }
}

/// Everything a run feeds the program, generated from the seed.
#[derive(Debug)]
pub struct Inputs {
    /// The workload.
    pub spec: Spec,
    /// Root element name of the DTD (the stamped element).
    pub root: String,
    /// Background subscriptions installed during set-up.
    pub subs: Vec<Sub>,
    /// The probe: the DTD root as pattern (matches every document), homed
    /// on a leaf at maximum distance from broker 0.
    pub probe: Sub,
    /// Unstamped pool documents.
    pub pool: Vec<String>,
    /// Patterns for subscriptions the churn and control phases add.
    churn_patterns: Vec<TreePattern>,
    /// The similarity job's patterns: the subscriptions, then further
    /// patterns from the same generator.
    pub similarity_patterns: Vec<TreePattern>,
    /// The similarity job's document stream: the pool, then further
    /// documents from the same generator.
    pub similarity_docs: Vec<String>,
}

/// Patterns the similarity job registers and documents it folds into its
/// synopsis, the same on every workload so the job does not swing with a
/// workload's subscription count.
const SIMILARITY_PATTERNS: usize = 600;
const SIMILARITY_DOCS: usize = 1000;

/// SplitMix64: independent sub-seeds from one `--seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Distinct documents the published stream cycles through (the first of
/// the similarity job's documents).
pub const POOL: usize = 500;

/// Upper bound on churn and control operations one run can send.
const CHURN_PATTERNS: usize = 4096;

impl Inputs {
    /// Generate the inputs of `spec` from `seed`.
    pub fn generate(spec: &Spec, seed: u64) -> Self {
        let dtd = match spec.dtd {
            DtdKind::Nitf => Dtd::nitf_like(),
            DtdKind::Media => Dtd::media(),
        };
        let root = dtd.element_name(dtd.root()).to_string();
        let mut patterns =
            XPathGenerator::new(&dtd, XPathGenConfig::default().with_seed(mix(seed, 1)));
        let subs: Vec<Sub> = (0..spec.subscriptions)
            .map(|i| Sub::new(i as u64, i % BROKERS, patterns.generate()))
            .collect();
        let churn_patterns = patterns.generate_many(CHURN_PATTERNS);
        let similarity_patterns = subs
            .iter()
            .map(|sub: &Sub| sub.pattern.clone())
            .chain(patterns.generate_many(SIMILARITY_PATTERNS.saturating_sub(subs.len())))
            .take(SIMILARITY_PATTERNS)
            .collect();
        let topology = topology();
        // invariant: the topology has brokers, so a farthest one exists.
        let probe_home = (0..BROKERS)
            .max_by_key(|&b| (topology.distance(0, b), b))
            .expect("the overlay has brokers");
        // invariant: a bare root step always parses.
        let probe_pattern = TreePattern::parse(&format!("/{root}")).expect("root pattern parses");
        let similarity_docs: Vec<String> =
            DocumentGenerator::new(&dtd, DocGenConfig::default().with_seed(mix(seed, 2)))
                .generate_many(POOL.max(SIMILARITY_DOCS))
                .iter()
                .map(|doc| doc.to_xml())
                .collect();
        let pool = similarity_docs[..POOL].to_vec();
        Self {
            spec: spec.clone(),
            root,
            subs,
            probe: Sub::new(PROBE_ID, probe_home, probe_pattern),
            pool,
            churn_patterns,
            similarity_patterns,
            similarity_docs,
        }
    }

    /// The published bytes of sequence number `seq`.
    pub fn document(&self, seq: u64) -> Vec<u8> {
        stamp(&self.pool[self.pool_index(seq)], &self.root, seq)
    }

    /// Which pool document sequence number `seq` publishes.
    pub fn pool_index(&self, seq: u64) -> usize {
        (seq % self.pool.len() as u64) as usize
    }

    /// The overlay every broker of this workload runs with.
    pub fn overlay_config(&self) -> OverlayConfig {
        OverlayConfig {
            topology: topology(),
            forwarding: self.spec.forwarding,
            ..OverlayConfig::default()
        }
    }

    /// The subscription view after set-up: background subscriptions and
    /// the probe.
    pub fn initial_view(&self) -> View {
        let mut view = View::default();
        for sub in self.subs.iter().chain(std::iter::once(&self.probe)) {
            view.live.insert(sub.id, sub.clone());
            if sub.id != PROBE_ID {
                view.order.push_back(sub.id);
            }
        }
        view.next_id = self.subs.len() as u64;
        view
    }
}

/// The overlay topology.
pub fn topology() -> BrokerTopology {
    BrokerTopology::balanced_tree(BROKERS, FANOUT)
}

/// Insert ` seq="N"` after the root element's name.
///
/// # Panics
///
/// Panics if `document` does not start with `<root`.
pub fn stamp(document: &str, root: &str, seq: u64) -> Vec<u8> {
    let open = format!("<{root}");
    assert!(
        document.starts_with(&open),
        "generated documents start with their root element"
    );
    let mut out = Vec::with_capacity(document.len() + 24);
    out.extend_from_slice(open.as_bytes());
    out.extend_from_slice(format!(" seq=\"{seq}\"").as_bytes());
    out.extend_from_slice(&document.as_bytes()[open.len()..]);
    out
}

/// The `seq` stamp of a published document.
pub fn parse_seq(document: &[u8]) -> Option<u64> {
    const KEY: &[u8] = b" seq=\"";
    let start = document.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let digits = &document[start..];
    let end = digits.iter().position(|&b| b == b'"')?;
    std::str::from_utf8(&digits[..end]).ok()?.parse().ok()
}

/// One operation the producer sends at broker 0.
#[derive(Debug, Clone)]
pub enum Op {
    /// Publish the document of this sequence number.
    Publish(u64),
    /// Add a subscription.
    Subscribe(Sub),
    /// Remove a subscription.
    Unsubscribe(u64),
}

/// The overlay-wide subscription view the churn operations move through.
/// Churn alternates subscribe and unsubscribe (oldest first), so the view
/// size stays constant.
#[derive(Debug, Clone, Default)]
pub struct View {
    /// Live subscriptions by id.
    pub live: BTreeMap<u64, Sub>,
    order: VecDeque<u64>,
    next_id: u64,
    churned: usize,
}

impl View {
    /// The next churn operation, applied to the view.
    pub fn churn(&mut self, inputs: &Inputs) -> Op {
        let subscribe = self.churned.is_multiple_of(2) || self.order.is_empty();
        self.churned += 1;
        if subscribe {
            let id = self.next_id;
            self.next_id += 1;
            let pattern = inputs.churn_patterns[(id as usize) % CHURN_PATTERNS].clone();
            let sub = Sub::new(id, id as usize % BROKERS, pattern);
            self.live.insert(id, sub.clone());
            self.order.push_back(id);
            Op::Subscribe(sub)
        } else {
            // invariant: checked non-empty above.
            let id = self.order.pop_front().expect("a live subscription");
            self.live.remove(&id);
            Op::Unsubscribe(id)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_round_trip_and_keep_the_document_well_formed() {
        let doc = "<media><CD>v1</CD></media>";
        let stamped = stamp(doc, "media", 42);
        assert_eq!(stamped, b"<media seq=\"42\"><CD>v1</CD></media>");
        assert_eq!(parse_seq(&stamped), Some(42));
        assert_eq!(parse_seq(doc.as_bytes()), None);
        let tree = tps_xml::XmlTree::parse(std::str::from_utf8(&stamped).unwrap()).unwrap();
        assert_eq!(tree.to_xml(), doc, "the front end discards the stamp");
    }

    #[test]
    fn same_seed_same_inputs() {
        for spec in specs() {
            let a = Inputs::generate(&spec, 9);
            let b = Inputs::generate(&spec, 9);
            assert_eq!(a.pool, b.pool);
            assert_eq!(
                a.subs.iter().map(|s| &s.text).collect::<Vec<_>>(),
                b.subs.iter().map(|s| &s.text).collect::<Vec<_>>()
            );
            assert_ne!(a.pool, Inputs::generate(&spec, 10).pool);
        }
    }

    #[test]
    fn probe_sits_on_a_farthest_leaf() {
        let spec = specs().remove(2);
        let inputs = Inputs::generate(&spec, 1);
        assert_eq!(topology().distance(0, inputs.probe.home), 2);
        assert_eq!(inputs.probe.text, "/media");
    }

    #[test]
    fn churn_keeps_the_view_size_constant() {
        let spec = specs().remove(1);
        let inputs = Inputs::generate(&spec, 3);
        let mut view = inputs.initial_view();
        let size = view.live.len();
        for _ in 0..10 {
            view.churn(&inputs);
        }
        assert_eq!(view.live.len(), size);
        assert!(view.live.contains_key(&PROBE_ID));
        assert!(!view.live.contains_key(&0), "the oldest left first");
    }
}
