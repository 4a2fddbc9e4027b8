//! The in-process reference: one `BrokerCore` per broker, hand-cranked to
//! quiescence after every publication, and the static
//! `BrokerNetwork::route_stream` evaluation. The live overlay's settled
//! counters are checked against both.

use std::ops::AddAssign;
use std::time::{Duration, Instant};

use tps_net::{BrokerCore, BrokerStats};
use tps_routing::{BrokerId, BrokerNetwork, NetworkStats};
use tps_xml::XmlTree;

use crate::inputs::{stamp, topology, Inputs, Sub};

/// Overlay-wide routing counters, the shape the live, mesh and static
/// runs all reduce to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Documents published.
    pub documents: u64,
    /// Local deliveries.
    pub deliveries: u64,
    /// Documents sent over overlay links.
    pub link_messages: u64,
    /// Link messages no consumer behind the link wanted.
    pub spurious_link_messages: u64,
    /// Pattern and table match operations.
    pub match_operations: u64,
}

impl Counters {
    /// Sum of per-broker counters.
    pub fn of(stats: &[BrokerStats]) -> Self {
        let mut total = Counters::default();
        for s in stats {
            total += Counters {
                documents: s.documents,
                deliveries: s.deliveries,
                link_messages: s.link_messages,
                spurious_link_messages: s.spurious_link_messages,
                match_operations: s.match_operations,
            };
        }
        total
    }

    /// The static evaluation's counters.
    fn of_static(stats: &NetworkStats) -> Self {
        Counters {
            documents: stats.documents as u64,
            deliveries: stats.deliveries as u64,
            link_messages: stats.link_messages as u64,
            spurious_link_messages: stats.spurious_link_messages as u64,
            match_operations: stats.match_operations as u64,
        }
    }

    fn scaled(self, n: u64) -> Self {
        Counters {
            documents: self.documents * n,
            deliveries: self.deliveries * n,
            link_messages: self.link_messages * n,
            spurious_link_messages: self.spurious_link_messages * n,
            match_operations: self.match_operations * n,
        }
    }
}

impl AddAssign for Counters {
    fn add_assign(&mut self, other: Self) {
        self.documents += other.documents;
        self.deliveries += other.deliveries;
        self.link_messages += other.link_messages;
        self.spurious_link_messages += other.spurious_link_messages;
        self.match_operations += other.match_operations;
    }
}

impl std::ops::Sub for Counters {
    type Output = Counters;
    fn sub(self, other: Self) -> Self {
        Counters {
            documents: self.documents - other.documents,
            deliveries: self.deliveries - other.deliveries,
            link_messages: self.link_messages - other.link_messages,
            spurious_link_messages: self.spurious_link_messages - other.spurious_link_messages,
            match_operations: self.match_operations - other.match_operations,
        }
    }
}

/// One broker visit of a document, as the crank loop saw it.
#[derive(Debug, Clone, Copy)]
pub struct Visit {
    /// The broker visited.
    pub at: BrokerId,
    /// The broker it came from (`None` at the publisher).
    pub from: Option<BrokerId>,
    /// Time spent in the `BrokerCore` call.
    pub core: Duration,
    /// Forwards the call chose.
    pub forwards: usize,
}

/// One `BrokerCore` per broker, all with the same view.
pub struct Mesh {
    /// The cores, indexed by broker id.
    pub cores: Vec<BrokerCore>,
}

impl Mesh {
    /// Cores with the view of `subs`.
    pub fn new(inputs: &Inputs, subs: &[&Sub]) -> Self {
        let config = inputs.overlay_config();
        let mut mesh = Mesh {
            cores: (0..config.topology.broker_count())
                .map(|id| BrokerCore::new(id, &config))
                .collect(),
        };
        for sub in subs {
            mesh.subscribe(sub, |_| {});
        }
        mesh
    }

    /// Install a subscription at every core (the converged flood), timing
    /// each call.
    pub fn subscribe(&mut self, sub: &Sub, mut timed: impl FnMut(Duration)) {
        for core in &mut self.cores {
            let start = Instant::now();
            // invariant: generated patterns parse and ids are unique.
            core.subscribe(sub.id, sub.home as u32, &sub.text)
                .expect("generated subscriptions install");
            timed(start.elapsed());
        }
    }

    /// Remove a subscription at every core, timing each call.
    pub fn unsubscribe(&mut self, id: u64, mut timed: impl FnMut(Duration)) {
        for core in &mut self.cores {
            let start = Instant::now();
            core.unsubscribe(id);
            timed(start.elapsed());
        }
    }

    /// Publish at broker 0 and crank every forward to quiescence, in the
    /// order `core_mesh_matches_the_static_network_counter_for_counter`
    /// does. `visit` sees each broker visit after its core call.
    pub fn publish(&mut self, bytes: &[u8], mut visit: impl FnMut(Visit)) {
        let start = Instant::now();
        // invariant: generated documents are well formed.
        let outcome = self.cores[0]
            .publish(bytes)
            .expect("generated documents parse");
        let core = start.elapsed();
        let mut pending: Vec<(BrokerId, BrokerId)> =
            outcome.forwards.iter().map(|&to| (0, to)).collect();
        visit(Visit {
            at: 0,
            from: None,
            core,
            forwards: outcome.forwards.len(),
        });
        while let Some((from, at)) = pending.pop() {
            let start = Instant::now();
            let outcome = self.cores[at].forward_in(from, bytes);
            let core = start.elapsed();
            let Some(outcome) = outcome else { continue };
            pending.extend(outcome.forwards.iter().map(|&to| (at, to)));
            visit(Visit {
                at,
                from: Some(from),
                core,
                forwards: outcome.forwards.len(),
            });
        }
    }

    /// Overlay-wide counters.
    pub fn counters(&mut self) -> Counters {
        let stats: Vec<BrokerStats> = self.cores.iter_mut().map(BrokerCore::stats).collect();
        Counters::of(&stats)
    }
}

/// Per-pool-document counters of a churn-free view, each document routed
/// on its own through a mesh whose tables were built beforehand.
fn per_document_counters(inputs: &Inputs, documents: &[Vec<u8>]) -> Vec<Counters> {
    let view = inputs.initial_view();
    let subs: Vec<&Sub> = view.live.values().collect();
    let mut mesh = Mesh::new(inputs, &subs);
    // Build every table first, as the live set-up does, so no document's
    // counters depend on its position.
    warm(&mut mesh, inputs);
    documents
        .iter()
        .map(|doc| {
            let before = mesh.counters();
            mesh.publish(doc, |_| {});
            mesh.counters() - before
        })
        .collect()
}

/// Make every core build its table, as the live set-up's warm publication
/// at every broker does.
pub fn warm(mesh: &mut Mesh, inputs: &Inputs) {
    let doc = stamp(&inputs.pool[0], &inputs.root, u64::MAX);
    for core in &mut mesh.cores {
        let _ = core.forward_in(usize::MAX, &doc);
    }
}

/// Stamped and unstamped copies of the pool give identical counters in the
/// mesh (both front ends discard attributes). Returns the per-document
/// counters of the unstamped pool.
pub fn check_stamping(inputs: &Inputs) -> Result<Vec<Counters>, String> {
    let plain: Vec<Vec<u8>> = inputs.pool.iter().map(|d| d.as_bytes().to_vec()).collect();
    let stamped: Vec<Vec<u8>> = (0..inputs.pool.len() as u64)
        .map(|seq| inputs.document(seq))
        .collect();
    let a = per_document_counters(inputs, &plain);
    let b = per_document_counters(inputs, &stamped);
    if a == b {
        Ok(a)
    } else {
        Err("stamped and unstamped pool documents route differently in the mesh".to_string())
    }
}

/// The mesh's per-document counters must sum to the static evaluation of
/// the same view and documents.
pub fn check_static(inputs: &Inputs, per_doc: &[Counters]) -> Result<(), String> {
    let mut network = BrokerNetwork::new(topology());
    for sub in inputs.initial_view().live.values() {
        network.attach(sub.home, "bench", sub.pattern.clone());
    }
    let docs: Vec<XmlTree> = inputs
        .pool
        .iter()
        // invariant: generated documents are well formed.
        .map(|d| XmlTree::parse(d).expect("generated documents parse"))
        .collect();
    let expected = Counters::of_static(&network.route_stream(0, &docs, inputs.spec.forwarding));
    let mut mesh = Counters::default();
    for c in per_doc {
        mesh += *c;
    }
    if mesh == expected {
        Ok(())
    } else {
        Err(format!("mesh {mesh:?} != static {expected:?}"))
    }
}

/// Expected overlay counters for a publication multiset: `multiplicity[k]`
/// publications of pool document `k`.
pub fn expected_counters(per_doc: &[Counters], multiplicity: &[u64]) -> Counters {
    let mut total = Counters::default();
    for (c, &n) in per_doc.iter().zip(multiplicity) {
        total += c.scaled(n);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{specs, Spec};

    #[test]
    fn stamping_is_invisible_and_the_mesh_matches_the_static_network() {
        for spec in specs() {
            let spec = Spec {
                subscriptions: spec.subscriptions.min(40),
                ..spec
            };
            let inputs = Inputs::generate(&spec, 5);
            let per_doc = check_stamping(&inputs).unwrap();
            check_static(&inputs, &per_doc).unwrap();
            let total = expected_counters(&per_doc, &vec![2; per_doc.len()]);
            assert_eq!(total.documents, 2 * per_doc.len() as u64, "{}", spec.name);
            assert!(
                total.deliveries >= total.documents,
                "the probe matches every document"
            );
        }
    }
}
