//! The traced run: the measured run's operation log replayed through the
//! in-process `BrokerCore` mesh, with a span around every call into a
//! layer's public functions.
//!
//! The cores are opaque, so each layer's share is measured by calling the
//! layer's own public function on the same input right after the core call
//! (`XmlTree::parse`, `Synopsis::ingest_bytes_as`, `TreePattern::matches`,
//! `RoutingTable::link(i).matches`, `BrokerNetwork::build_tables`,
//! `OnlineLeader::insert_estimated`, `Message::encode`/`decode`). What the
//! core span holds beyond those calls is reported as unexplained. An
//! untraced replay of the same log gives the tracing overhead and the
//! in-process time along the probe's path.

use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::{Duration, Instant};

use tps_cluster::{LeaderConfig, LshConfig, OnlineLeader};
use tps_core::CandidateIndex;
use tps_net::{FrameLimits, Message};
use tps_pattern::TreePattern;
use tps_routing::{
    BrokerNetwork, CommunityClustering, CommunityConfig, ForwardingMode, RoutingTable,
};
use tps_synopsis::{IngestTarget, Synopsis, SynopsisConfig};
use tps_xml::XmlTree;

use crate::inputs::{topology, Inputs, Op, Sub, PROBE_ID};
use crate::mesh::{warm, Mesh, Visit};
use crate::report::Metric;
use crate::similarity::{self, THRESHOLD};

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u64>,
    request: u64,
}

/// Spans kept in memory (the first [`KEPT_SPANS`]) and written out when
/// the run ends; every span, kept or not, adds to the per-name self-time
/// totals.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    next_id: u64,
    /// Open spans: id -> (name, start, time covered by children so far).
    open: BTreeMap<u64, (&'static str, Instant, u64)>,
    totals: BTreeMap<&'static str, (u64, f64)>,
}

/// Spans written to the trace file; a long replay records millions.
const KEPT_SPANS: usize = 250_000;

impl Tracer {
    /// An empty trace.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            next_id: 0,
            open: BTreeMap::new(),
            totals: BTreeMap::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn keep(&mut self, span: Span) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        if self.spans.len() < KEPT_SPANS {
            self.spans.push(span);
        }
        id
    }

    /// Record a finished leaf span.
    fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let duration = end.saturating_duration_since(start).as_nanos() as u64;
        if let Some(open) = parent.and_then(|p| self.open.get_mut(&p)) {
            open.2 += duration;
        }
        let total = self.totals.entry(name).or_default();
        total.0 += 1;
        total.1 += duration as f64;
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        self.keep(span)
    }

    /// Record a leaf span that started at `start` and ends now; returns
    /// its duration in ns.
    fn close_at(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
    ) -> f64 {
        let end = Instant::now();
        self.record(name, parent, request, start, end);
        (end - start).as_nanos() as f64
    }

    /// Time `f` as a leaf span.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, request, start, Instant::now());
        out
    }

    /// Open a parent span; [`Tracer::close`] ends it.
    fn open(&mut self, name: &'static str, request: u64) -> u64 {
        let now = Instant::now();
        let at = self.ns(now);
        let id = self.keep(Span {
            name,
            start_ns: at,
            end_ns: at,
            parent: None,
            request,
        });
        self.open.insert(id, (name, now, 0));
        id
    }

    /// End a parent span. Its self time is its duration minus the time its
    /// child spans cover.
    fn close(&mut self, id: u64) {
        let Some((name, start, covered)) = self.open.remove(&id) else {
            return;
        };
        let end = Instant::now();
        let duration = end.saturating_duration_since(start).as_nanos() as u64;
        let total = self.totals.entry(name).or_default();
        total.0 += 1;
        total.1 += duration.saturating_sub(covered) as f64;
        let end_ns = self.ns(end);
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end_ns;
        }
    }

    /// Per span name: (count, total self time in ns).
    fn self_times(&self) -> BTreeMap<&'static str, (u64, f64)> {
        self.totals.clone()
    }

    /// Spans recorded, and spans kept for the trace file.
    pub fn counts(&self) -> (u64, usize) {
        (self.next_id, self.spans.len())
    }

    /// Write the kept spans as tab-separated lines: id, name, start ns,
    /// end ns, parent id (or `-`), request id.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}",
                span.name, span.start_ns, span.end_ns, span.request
            )?;
        }
        out.flush()
    }
}

/// What the untraced replay measured.
pub struct Untraced {
    /// Total time in `BrokerCore` publish/forward calls.
    pub core: Duration,
    /// Per document: core time at the brokers on the probe's path.
    pub path_us: Vec<f64>,
}

/// Replay `log` through a mesh timing only the core calls.
pub fn replay_untraced(inputs: &Inputs, log: &[Op]) -> Untraced {
    let mut mesh = start_mesh(inputs);
    let on_path = probe_path(inputs);
    let mut core = Duration::ZERO;
    let mut path_us = Vec::new();
    for op in log {
        match op {
            Op::Publish(seq) => {
                let bytes = inputs.document(*seq);
                let mut path = Duration::ZERO;
                mesh.publish(&bytes, |visit| {
                    core += visit.core;
                    if on_path[visit.at] {
                        path += visit.core;
                    }
                });
                path_us.push(path.as_secs_f64() * 1e6);
            }
            Op::Subscribe(sub) => mesh.subscribe(sub, |_| {}),
            Op::Unsubscribe(id) => mesh.unsubscribe(*id, |_| {}),
        }
    }
    Untraced { core, path_us }
}

fn start_mesh(inputs: &Inputs) -> Mesh {
    let view = inputs.initial_view();
    let subs: Vec<&Sub> = view.live.values().collect();
    let mut mesh = Mesh::new(inputs, &subs);
    warm(&mut mesh, inputs);
    mesh
}

fn probe_path(inputs: &Inputs) -> Vec<bool> {
    let topology = topology();
    let mut on_path = vec![false; topology.broker_count()];
    for b in topology.path(0, inputs.probe.home) {
        on_path[b] = true;
    }
    on_path
}

/// Shadow state for the component calls: the view, each broker's own
/// table, broker 0's synopsis and community leader.
struct Shadow<'a> {
    inputs: &'a Inputs,
    view: BTreeMap<u64, Sub>,
    tables: Vec<Option<RoutingTable>>,
    stale: Vec<bool>,
    synopsis: Synopsis,
    leader: OnlineLeader,
    slots: BTreeMap<u64, u32>,
    on_path: Vec<bool>,
    limits: FrameLimits,
    counts: Counts,
}

/// Work counted at the layer boundaries.
#[derive(Default)]
struct Counts {
    docs: u64,
    match_ops: u64,
    match_hits: u64,
    lookups: u64,
    lookups_chosen: u64,
    frames: u64,
    frame_bytes: u64,
    path_component_ns: f64,
    path_codec_ns: f64,
}

impl<'a> Shadow<'a> {
    fn new(inputs: &'a Inputs, mesh: &Mesh) -> Self {
        let mut leader = OnlineLeader::new(LshConfig::default(), LeaderConfig::default());
        let view = inputs.initial_view().live;
        let slots = view
            .values()
            .map(|sub| (sub.id, leader.insert_estimated(&sub.pattern)))
            .collect();
        Self {
            inputs,
            view,
            tables: vec![None; mesh.cores.len()],
            stale: vec![true; mesh.cores.len()],
            synopsis: Synopsis::new(SynopsisConfig::hashes(256)),
            leader,
            slots,
            on_path: probe_path(inputs),
            limits: FrameLimits::default(),
            counts: Counts::default(),
        }
    }

    /// The component calls of one broker visit.
    fn visit(&mut self, tracer: &mut Tracer, doc_span: u64, seq: u64, bytes: &[u8], visit: Visit) {
        let parent = Some(doc_span);
        let on_path = self.on_path[visit.at];
        // Component time on the probe's path: every layer call at a path
        // broker, and the codec of the frames that carry the document
        // along it (publish, one forward per hop, the probe's push).
        let mut visit_ns = 0.0;
        let mut codec_ns = 0.0;
        if visit.from.is_none() {
            let doc = self.synopsis.next_doc_id();
            let start = Instant::now();
            // invariant: generated documents are well formed.
            self.synopsis
                .ingest_bytes_as(bytes, doc)
                .expect("document scans");
            visit_ns += tracer.close_at("synopsis.ingest", parent, seq, start);
            codec_ns += self.codec(
                tracer,
                parent,
                seq,
                &Message::Publish {
                    document: bytes.to_vec(),
                },
            );
            self.codec(tracer, parent, seq, &Message::Ack);
        }
        // invariant: the core accepted these bytes.
        let text = std::str::from_utf8(bytes).expect("UTF-8 document");
        let start = Instant::now();
        let tree = XmlTree::parse(text).expect("parses");
        visit_ns += tracer.close_at("xml.parse", parent, seq, start);
        if let ForwardingMode::Table(mode) = self.inputs.spec.forwarding {
            if self.stale[visit.at] {
                let start = Instant::now();
                let mut network = BrokerNetwork::new(topology());
                for sub in self.view.values() {
                    network.attach(sub.home, "bench", sub.pattern.clone());
                }
                let table = network.build_tables(mode).swap_remove(visit.at);
                visit_ns += tracer.close_at("routing.rebuild", parent, seq, start);
                self.tables[visit.at] = Some(table);
                self.stale[visit.at] = false;
            }
        }
        let local: Vec<&TreePattern> = self
            .view
            .values()
            .filter(|sub| sub.home == visit.at)
            .map(|sub| &sub.pattern)
            .collect();
        let start = Instant::now();
        let hits = local.iter().filter(|p| p.matches(&tree)).count();
        visit_ns += tracer.close_at("pattern.match", parent, seq, start);
        self.counts.match_ops += local.len() as u64;
        self.counts.match_hits += hits as u64;
        if let Some(table) = &self.tables[visit.at] {
            let links: Vec<usize> = topology()
                .neighbours(visit.at)
                .iter()
                .enumerate()
                .filter(|&(_, &n)| Some(n) != visit.from)
                .map(|(i, _)| i)
                .collect();
            let start = Instant::now();
            let chosen = links
                .iter()
                .filter(|&&i| table.link(i).matches(&tree).0)
                .count();
            visit_ns += tracer.close_at("routing.lookup", parent, seq, start);
            self.counts.lookups += links.len() as u64;
            self.counts.lookups_chosen += chosen as u64;
        }
        let at_probe = visit.at == self.inputs.probe.home;
        for k in 0..visit.forwards {
            let forward = Message::Forward {
                from: visit.at as u32,
                documents: vec![bytes.to_vec()],
            };
            let ns = self.codec(tracer, parent, seq, &forward);
            if k == 0 && on_path && !at_probe {
                codec_ns += ns;
            }
        }
        if at_probe {
            let push = Message::Deliver {
                subscriber: PROBE_ID,
                document: bytes.to_vec(),
            };
            codec_ns += self.codec(tracer, parent, seq, &push);
        }
        if on_path {
            self.counts.path_component_ns += visit_ns + codec_ns;
            self.counts.path_codec_ns += codec_ns;
        }
    }

    /// Encode and decode one frame; returns the nanoseconds both took.
    fn codec(
        &mut self,
        tracer: &mut Tracer,
        parent: Option<u64>,
        seq: u64,
        message: &Message,
    ) -> f64 {
        let start = Instant::now();
        let encoded = message.encode();
        let mut ns = tracer.close_at("net.codec.encode", parent, seq, start);
        let start = Instant::now();
        // invariant: a frame this codec encoded decodes.
        Message::decode(&encoded, &self.limits).expect("round trip");
        ns += tracer.close_at("net.codec.decode", parent, seq, start);
        self.counts.frames += 1;
        self.counts.frame_bytes += encoded.len() as u64 + 4;
        ns
    }

    fn subscribe(&mut self, tracer: &mut Tracer, sub: &Sub) {
        let slot = tracer.time("cluster.leader", None, sub.id, || {
            self.leader.insert_estimated(&sub.pattern)
        });
        self.slots.insert(sub.id, slot);
        self.view.insert(sub.id, sub.clone());
        self.stale.fill(true);
    }

    fn unsubscribe(&mut self, tracer: &mut Tracer, id: u64) {
        if let Some(slot) = self.slots.remove(&id) {
            tracer.time("cluster.leader", None, id, || {
                self.leader.remove_estimated(slot)
            });
        }
        self.view.remove(&id);
        self.stale.fill(true);
    }
}

/// What the traced replay and traced similarity job measured.
pub struct Layers {
    /// Per-layer metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Mean self time of the layers along the probe's path (µs per doc).
    pub path_layers_us: f64,
    /// Mean codec time of the frames along the probe's path (µs per doc).
    pub path_codec_us: f64,
    /// Traced core time, for the overhead ratio.
    pub traced_core: Duration,
}

/// Replay `log` with spans around every layer call, then run the similarity
/// job traced.
pub fn replay_traced(inputs: &Inputs, log: &[Op], tracer: &mut Tracer) -> Layers {
    let mut mesh = start_mesh(inputs);
    let before = mesh.counters();
    let mut shadow = Shadow::new(inputs, &mesh);
    let mut traced_core = Duration::ZERO;
    for op in log {
        match op {
            Op::Publish(seq) => {
                let seq = *seq;
                let bytes = inputs.document(seq);
                let doc_span = tracer.open("doc", seq);
                mesh.publish(&bytes, |visit| {
                    let end = Instant::now();
                    let name = if visit.from.is_none() {
                        "net.core.publish"
                    } else {
                        "net.core.forward_in"
                    };
                    tracer.record(name, Some(doc_span), seq, end - visit.core, end);
                    traced_core += visit.core;
                    shadow.visit(tracer, doc_span, seq, &bytes, visit);
                });
                tracer.close(doc_span);
                shadow.counts.docs += 1;
            }
            Op::Subscribe(sub) => {
                let span = tracer.open("churn", sub.id);
                mesh.subscribe(sub, |d| {
                    let end = Instant::now();
                    tracer.record("net.core.subscribe", Some(span), sub.id, end - d, end);
                });
                tracer.close(span);
                shadow.subscribe(tracer, sub);
            }
            Op::Unsubscribe(id) => {
                let span = tracer.open("churn", *id);
                mesh.unsubscribe(*id, |d| {
                    let end = Instant::now();
                    tracer.record("net.core.unsubscribe", Some(span), *id, end - d, end);
                });
                tracer.close(span);
                shadow.unsubscribe(tracer, *id);
            }
        }
    }
    let routed = mesh.counters() - before;
    let table_nodes: u64 = mesh.cores.iter_mut().map(|c| c.stats().table_nodes).sum();
    let counts = &shadow.counts;
    let totals = tracer.self_times();
    let total_us = |name: &str| totals.get(name).map_or(0.0, |t| t.1 / 1e3);
    let count = |name: &str| totals.get(name).map_or(0, |t| t.0) as f64;
    let per = |x: f64, n: f64| if n > 0.0 { x / n } else { 0.0 };
    let docs = counts.docs as f64;
    let core_us = total_us("net.core.publish") + total_us("net.core.forward_in");
    let components_us = total_us("synopsis.ingest")
        + total_us("xml.parse")
        + total_us("pattern.match")
        + total_us("routing.lookup")
        + total_us("routing.rebuild");
    let frames = counts.frames as f64;
    // Broker 0 is on the probe's path, so every document visits it.
    let path_layers_us = per(counts.path_component_ns / 1e3, docs);
    let path_codec_us = per(counts.path_codec_ns / 1e3, docs);

    let mut metrics = vec![
        m(
            "xml.parse.us_per_doc",
            per(total_us("xml.parse"), docs),
            "us",
        ),
        m(
            "xml.parse.visits_per_doc",
            per(count("xml.parse"), docs),
            "count",
        ),
        m(
            "synopsis.ingest.us_per_doc",
            per(total_us("synopsis.ingest"), docs),
            "us",
        ),
        m(
            "pattern.match.ops_per_doc",
            per(counts.match_ops as f64, docs),
            "count",
        ),
        m(
            "pattern.match.ns_per_op",
            per(total_us("pattern.match") * 1e3, counts.match_ops as f64),
            "ns",
        ),
        m(
            "pattern.match.useful_ratio",
            per(counts.match_hits as f64, counts.match_ops as f64),
            "ratio",
        ),
        m(
            "routing.lookup.ops_per_doc",
            per(counts.lookups as f64, docs),
            "count",
        ),
        m(
            "routing.lookup.us_per_doc",
            per(total_us("routing.lookup"), docs),
            "us",
        ),
        m(
            "routing.lookup.forward_ratio",
            per(counts.lookups_chosen as f64, counts.lookups as f64),
            "ratio",
        ),
        m(
            "routing.spurious_ratio",
            per(
                routed.spurious_link_messages as f64,
                routed.link_messages as f64,
            ),
            "ratio",
        ),
        m("routing.rebuild.count", count("routing.rebuild"), "count"),
        m(
            "routing.rebuild.ms",
            total_us("routing.rebuild") / 1e3,
            "ms",
        ),
        m("routing.table_nodes", table_nodes as f64, "count"),
        m(
            "cluster.leader.us_per_op",
            per(total_us("cluster.leader"), count("cluster.leader")),
            "us",
        ),
        m(
            "net.core.publish.us",
            per(total_us("net.core.publish"), count("net.core.publish")),
            "us",
        ),
        m(
            "net.core.forward_in.us_per_doc",
            per(total_us("net.core.forward_in"), docs),
            "us",
        ),
        m(
            "net.core.subscribe.us",
            per(total_us("net.core.subscribe"), count("net.core.subscribe")),
            "us",
        ),
        m(
            "net.core.unsubscribe.us",
            per(
                total_us("net.core.unsubscribe"),
                count("net.core.unsubscribe"),
            ),
            "us",
        ),
        m(
            "net.core.unexplained.us_per_doc",
            per(core_us - components_us, docs),
            "us",
        ),
        m(
            "net.codec.encode.ns_per_frame",
            per(total_us("net.codec.encode") * 1e3, frames),
            "ns",
        ),
        m(
            "net.codec.decode.ns_per_frame",
            per(total_us("net.codec.decode") * 1e3, frames),
            "ns",
        ),
        m(
            "net.codec.bytes_per_doc",
            per(counts.frame_bytes as f64, docs),
            "bytes",
        ),
    ];
    metrics.extend(similarity_traced(inputs, tracer));
    Layers {
        metrics,
        path_layers_us,
        path_codec_us,
        traced_core,
    }
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The similarity job with a span around every call: per-pattern
/// registration, the candidate index, each candidate pair's similarity,
/// and the community grouping.
fn similarity_traced(inputs: &Inputs, tracer: &mut Tracer) -> Vec<Metric> {
    let synopsis = tracer.time("similarity.ingest", None, 0, || {
        similarity::ingest(&inputs.similarity_docs)
    });
    let mut engine = tps_core::SimilarityEngine::from_synopsis(synopsis);
    let ids: Vec<_> = inputs
        .similarity_patterns
        .iter()
        .enumerate()
        .map(|(i, p)| tracer.time("core.register", None, i as u64, || engine.register(p)))
        .collect();
    let candidates = tracer.time("core.index", None, 0, || {
        let mut index = CandidateIndex::new(LshConfig::default());
        for &id in &ids {
            index.insert(engine.pattern(id));
        }
        index.candidate_pairs()
    });
    let metric = engine.default_metric();
    let mut useful = 0u64;
    for (k, &(a, b)) in candidates.iter().enumerate() {
        let (p, q) = (ids[a as usize], ids[b as usize]);
        let s = tracer.time("core.sel", None, k as u64, || {
            if metric.is_symmetric() {
                engine.similarity(p, q, metric)
            } else {
                (engine.similarity(p, q, metric) + engine.similarity(q, p, metric)) / 2.0
            }
        });
        useful += u64::from(s >= THRESHOLD);
    }
    let cache = engine.cache_stats();
    tracer.time("cluster.communities", None, 0, || {
        CommunityClustering::cluster_indexed(
            &engine,
            &ids,
            CommunityConfig::default(),
            LshConfig::default(),
        )
    });
    let totals = tracer.self_times();
    let total_us = |name: &str| totals.get(name).map_or(0.0, |t| t.1 / 1e3);
    let per = |x: f64, n: f64| if n > 0.0 { x / n } else { 0.0 };
    let pairs = candidates.len() as f64;
    let hits = (cache.marginal_hits + cache.joint_hits) as f64;
    let lookups = hits + (cache.marginal_misses + cache.joint_misses) as f64;
    vec![
        m(
            "cluster.communities.s",
            total_us("cluster.communities") / 1e6,
            "s",
        ),
        m(
            "core.register.us_per_pattern",
            per(total_us("core.register"), ids.len() as f64),
            "us",
        ),
        m("core.index.candidate_pairs", pairs, "count"),
        m("core.index.ms", total_us("core.index") / 1e3, "ms"),
        m("core.sel.joint_evals", cache.joint_misses as f64, "count"),
        m(
            "core.sel.marginal_evals",
            cache.marginal_misses as f64,
            "count",
        ),
        m("core.sel.memo_hit_ratio", per(hits, lookups), "ratio"),
        m(
            "core.sel.us_per_pair",
            per(total_us("core.sel"), pairs),
            "us",
        ),
        m("core.useful_pair_ratio", per(useful as f64, pairs), "ratio"),
    ]
}

/// Brokers on the probe's path, for the breakdown line.
pub fn path_length(inputs: &Inputs) -> usize {
    topology().path(0, inputs.probe.home).len()
}
