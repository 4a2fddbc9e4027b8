//! The measured run: a live 13-broker `LocalOverlay` over TCP loopback,
//! driven open-loop from this process.
//!
//! While the clock runs there are two client connections: the producer at
//! broker 0 (this thread sends every publication and churn operation at its
//! due time; a reader thread timestamps the replies) and the probe
//! subscriber on a farthest leaf (a thread reading its `Deliver` pushes). Background subscriptions go through a set-up
//! connection that is closed before timing starts.

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tps_net::codec::{read_frame, write_frame, SyncConsumer};
use tps_net::transport::Stream;
use tps_net::{BrokerClient, FrameLimits, LocalOverlay, Message, Transport};

use crate::inputs::{parse_seq, Inputs, Op, View, BROKERS};
use crate::mesh::Counters;
use crate::report::Ops;

/// How long any convergence barrier or reply may take before the run
/// counts it as failed.
const TIMEOUT: Duration = Duration::from_secs(30);
/// Saturation documents allowed in flight, below the brokers' queue depth
/// (1024), so a burst cannot make the overlay drop forwards or pushes.
const IN_FLIGHT: u64 = 512;
/// Saturation bursts per run (the median is reported); the latency phase
/// is split between them.
const BURSTS: usize = 5;
/// Control-phase operations of a churn-free workload and their open-loop
/// rate (operations/s).
const CONTROL_OPS: u32 = 200;
const CONTROL_RATE: f64 = 400.0;
/// Sequence numbers of the set-up's warm publications (one per broker).
const WARM_SEQ: u64 = 1 << 50;

/// What the measured run observed.
#[derive(Debug, Default)]
pub struct LiveRun {
    /// Seconds of each overlay set-up.
    pub setup_s: Vec<f64>,
    /// Publish latency, due time to Ack at broker 0 (µs).
    pub publish_us: Vec<f64>,
    /// Delivery latency, due time to the probe's `Deliver` (µs).
    pub deliver_us: Vec<f64>,
    /// Churn operation latency, due time to Ack (µs).
    pub churn_us: Vec<f64>,
    /// Generator lateness: send time minus due time (µs).
    pub lag_us: Vec<f64>,
    /// Documents per second of each saturation burst.
    pub saturation: Vec<f64>,
    /// Counter deltas over the publishing phases (latency and bursts).
    pub counters: Counters,
    /// Forwards dropped anywhere in the overlay.
    pub dropped: u64,
    /// Operations attempted and failed.
    pub ops: Ops,
    /// Checks that failed.
    pub mismatches: Vec<String>,
    /// Every operation the producer sent, in order.
    pub log: Vec<Op>,
    /// Whether the probe backlog grew during the latency phase.
    pub backlog_grew: bool,
}

/// Run the workload live.
pub fn run(inputs: &Inputs, seconds: f64) -> io::Result<LiveRun> {
    let spec = &inputs.spec;
    let mut run = LiveRun::default();
    let mut view = inputs.initial_view();

    // Set up several times and keep the last overlay.
    let mut kept = None;
    for i in 0..spec.setups.max(1) {
        let start = Instant::now();
        let (overlay, probe) = set_up(inputs)?;
        run.setup_s.push(start.elapsed().as_secs_f64());
        if i + 1 < spec.setups {
            drop(probe);
            overlay.shutdown()?;
        } else {
            kept = Some((overlay, probe));
        }
    }
    // invariant: the loop ran at least once and kept its last overlay.
    let (overlay, mut probe_client) = kept.expect("at least one set-up");
    drain_warm(&mut probe_client)?;
    let settled = overlay.quiesce(TIMEOUT)?;
    let base = Counters::of(&settled);

    let mut producer = Producer::connect(&overlay)?;
    let probe = Probe::spawn(probe_client);
    let mut seq = 0u64;
    let mut due_of: BTreeMap<u64, Instant> = BTreeMap::new();
    let mut latency_seqs = Vec::new();
    let mut burst_ranges = Vec::new();

    // The latency phase is split between the saturation bursts, so the
    // repeated bursts sample the machine at different times.
    let per_part = ((spec.rate * seconds / (BURSTS - 1) as f64).round() as u64).max(1);
    for part in 0..BURSTS {
        // Saturation: a back-to-back burst of the workload's operation mix,
        // with at most `IN_FLIGHT` documents not yet at the probe so the
        // bounded broker queues never have to drop.
        overlay.quiesce(TIMEOUT)?;
        let first = seq;
        let ops = schedule(inputs, &mut view, &mut seq, spec.burst as u64);
        let start = Instant::now();
        for op in ops {
            if let Op::Publish(s) = op {
                while s - probe.received() >= IN_FLIGHT {
                    std::thread::sleep(Duration::from_micros(20));
                }
                due_of.insert(s, start);
            }
            producer.send(&op, Kind::Burst, start, inputs, &mut run)?;
        }
        producer.settle();
        probe.wait_for(seq, TIMEOUT);
        burst_ranges.push((first, seq, start));
        if part + 1 == BURSTS {
            break;
        }

        // Latency: open loop at the workload's rate.
        overlay.quiesce(TIMEOUT)?;
        let ops = schedule(inputs, &mut view, &mut seq, per_part);
        let interval = Duration::from_secs_f64(1.0 / spec.rate);
        let start = Instant::now() + Duration::from_millis(5);
        let mut published = 0u32;
        let mut backlog = Vec::with_capacity(per_part as usize);
        for op in ops {
            let due = start + interval * published;
            sleep_until(due);
            run.lag_us
                .push(micros(Instant::now().saturating_duration_since(due)));
            let kind = match op {
                Op::Publish(s) => {
                    published += 1;
                    due_of.insert(s, due);
                    latency_seqs.push(s);
                    backlog.push(s + 1 - probe.received());
                    Kind::Publish
                }
                _ => Kind::Churn,
            };
            producer.send(&op, kind, due, inputs, &mut run)?;
        }
        producer.settle();
        probe.wait_for(seq, TIMEOUT);
        run.backlog_grew |= backlog_grew(&backlog);
    }
    let stats = overlay.quiesce(TIMEOUT)?;
    run.counters = Counters::of(&stats) - base;
    run.dropped = stats.iter().map(|s| s.forwards_dropped).sum();

    // Control phase of churn-free workloads: subscribe/unsubscribe
    // round trips with no publication in between.
    if spec.churn_every.is_none() {
        let interval = Duration::from_secs_f64(1.0 / CONTROL_RATE);
        let start = Instant::now() + Duration::from_millis(5);
        for i in 0..CONTROL_OPS {
            let due = start + interval * i;
            sleep_until(due);
            let op = view.churn(inputs);
            producer.send(&op, Kind::Churn, due, inputs, &mut run)?;
        }
    }
    (run.publish_us, run.churn_us) = producer.finish(&mut run);

    let arrivals = probe.stop();
    check_probe(&arrivals, seq, &due_of, &mut run);
    run.deliver_us = latency_seqs
        .iter()
        .filter_map(|s| {
            Some(micros(
                arrivals.get(s)?.saturating_duration_since(due_of[s]),
            ))
        })
        .collect();
    for (first, end, start) in burst_ranges {
        let last = (first..end).filter_map(|s| arrivals.get(&s)).max();
        if let Some(last) = last {
            let elapsed = last.saturating_duration_since(start).as_secs_f64();
            run.saturation.push((end - first) as f64 / elapsed);
        }
    }
    check_views(&overlay, &view, &mut run)?;
    overlay.shutdown()?;
    run.ops.fail("forwards_dropped", run.dropped);
    Ok(run)
}

/// The next `publications` operations: publications, with a churn
/// operation after every `churn_every` of them.
fn schedule(inputs: &Inputs, view: &mut View, seq: &mut u64, publications: u64) -> Vec<Op> {
    let mut ops = Vec::new();
    for _ in 0..publications {
        ops.push(Op::Publish(*seq));
        *seq += 1;
        if let Some(every) = inputs.spec.churn_every {
            if seq.is_multiple_of(every as u64) {
                ops.push(view.churn(inputs));
            }
        }
    }
    ops
}

/// Spawn the overlay, install every subscription and the probe, and make
/// every broker build its table with one publication each; returns once
/// the overlay is quiescent.
fn set_up(inputs: &Inputs) -> io::Result<(LocalOverlay, BrokerClient)> {
    let overlay = LocalOverlay::spawn(inputs.overlay_config(), Transport::Tcp)?;
    {
        let mut setup = overlay.client(0)?;
        for sub in &inputs.subs {
            setup
                .subscribe(sub.id, sub.home as u32, &sub.text)
                .map_err(io::Error::other)?;
        }
    }
    let mut probe = overlay.client(inputs.probe.home)?;
    probe
        .subscribe(
            inputs.probe.id,
            inputs.probe.home as u32,
            &inputs.probe.text,
        )
        .map_err(io::Error::other)?;
    overlay.await_consumers(inputs.subs.len() as u64 + 1, TIMEOUT)?;
    for broker in 0..BROKERS {
        let doc = crate::inputs::stamp(&inputs.pool[0], &inputs.root, WARM_SEQ + broker as u64);
        overlay
            .client(broker)?
            .publish(&doc)
            .map_err(io::Error::other)?;
    }
    overlay.quiesce(TIMEOUT)?;
    Ok((overlay, probe))
}

/// The probe matches every document, so it receives every warm
/// publication; consume them before the clock starts.
fn drain_warm(probe: &mut BrokerClient) -> io::Result<()> {
    let mut warm = 0;
    while warm < BROKERS {
        match probe.recv_delivery(TIMEOUT).map_err(io::Error::other)? {
            Some((_, doc)) if parse_seq(&doc).is_some_and(|s| s >= WARM_SEQ) => warm += 1,
            Some(_) => return Err(io::Error::other("unexpected delivery during set-up")),
            None => return Err(io::Error::other("warm publication never reached the probe")),
        }
    }
    Ok(())
}

/// A backlog grows when the probe's lag behind the producer in the last
/// quarter of the latency phase is well above its lag in the first.
fn backlog_grew(backlog: &[u64]) -> bool {
    let quarter = backlog.len() / 4;
    if quarter == 0 {
        return false;
    }
    let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len() as f64;
    let first = mean(&backlog[..quarter]);
    let last = mean(&backlog[backlog.len() - quarter..]);
    last > 2.0 * first + 16.0
}

fn check_probe(
    arrivals: &BTreeMap<u64, Instant>,
    sent: u64,
    due_of: &BTreeMap<u64, Instant>,
    run: &mut LiveRun,
) {
    let missing = (0..sent).filter(|s| !arrivals.contains_key(s)).count() as u64;
    let unexpected = arrivals.keys().filter(|s| !due_of.contains_key(s)).count() as u64;
    run.ops.fail("probe_missing", missing);
    run.ops.fail("probe_unexpected", unexpected);
    if missing + unexpected > 0 {
        run.mismatches.push(format!(
            "probe: {missing} sequence numbers missing, {unexpected} unexpected"
        ));
    }
}

/// Every broker's view must equal the view the churn operations produced
/// (polled briefly: the last control floods may still be in flight).
fn check_views(overlay: &LocalOverlay, view: &View, run: &mut LiveRun) -> io::Result<()> {
    let expected: Vec<SyncConsumer> = view
        .live
        .values()
        .map(|sub| SyncConsumer {
            subscriber: sub.id,
            broker: sub.home as u32,
            pattern: sub.text.clone(),
        })
        .collect();
    let deadline = Instant::now() + TIMEOUT;
    for broker in 0..BROKERS {
        loop {
            let got = overlay
                .client(broker)?
                .sync_state()
                .map_err(io::Error::other)?;
            if got == expected {
                break;
            }
            if Instant::now() >= deadline {
                run.mismatches.push(format!(
                    "broker {broker}: view of {} subscriptions != expected {}",
                    got.len(),
                    expected.len()
                ));
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    Ok(())
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// What a reply will be attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A latency-phase publication.
    Publish,
    /// A churn or control operation.
    Churn,
    /// A saturation-burst operation (its reply is not timed).
    Burst,
}

/// Replies the reader thread collected.
#[derive(Debug, Default)]
struct Replies {
    publish_us: Vec<f64>,
    churn_us: Vec<f64>,
    errors: u64,
    timeouts: u64,
}

/// The producer connection at broker 0. This thread sends each request
/// at its due time; a reader thread blocks on the replies (which come in
/// request order) and timestamps each as it arrives. A socket read timeout
/// is rounded to the kernel tick, so one thread could not do both without
/// adding milliseconds of lateness.
struct Producer {
    stream: Stream,
    requests: Sender<(Kind, Instant)>,
    sent: u64,
    answered: Arc<AtomicU64>,
    reader: JoinHandle<Replies>,
}

impl Producer {
    fn connect(overlay: &LocalOverlay) -> io::Result<Self> {
        let addr = overlay
            .addr(0)
            .ok_or_else(|| io::Error::other("broker 0 is down"))?;
        let stream = Stream::connect(&addr)?;
        let mut read_half = stream.try_clone()?;
        read_half.set_read_timeout(Some(TIMEOUT))?;
        let limits = overlay.config().limits;
        let (requests, pending) = channel::<(Kind, Instant)>();
        let answered = Arc::new(AtomicU64::new(0));
        let reader = {
            let answered = Arc::clone(&answered);
            std::thread::spawn(move || read_replies(&mut read_half, &limits, &pending, &answered))
        };
        Ok(Self {
            stream,
            requests,
            sent: 0,
            answered,
            reader,
        })
    }

    /// Send one operation due at `due`, recording it in the log.
    fn send(
        &mut self,
        op: &Op,
        kind: Kind,
        due: Instant,
        inputs: &Inputs,
        run: &mut LiveRun,
    ) -> io::Result<()> {
        let message = match op {
            Op::Publish(seq) => Message::Publish {
                document: inputs.document(*seq),
            },
            Op::Subscribe(sub) => Message::Subscribe {
                subscriber: sub.id,
                broker: sub.home as u32,
                pattern: sub.text.clone(),
            },
            Op::Unsubscribe(id) => Message::Unsubscribe { subscriber: *id },
        };
        // The reader learns of the request before its reply can exist.
        self.requests
            .send((kind, due))
            .map_err(|_| io::Error::other("the reply reader stopped"))?;
        write_frame(&mut self.stream, &message)?;
        self.sent += 1;
        run.ops.attempt(1);
        run.log.push(op.clone());
        Ok(())
    }

    /// Wait until every request sent so far is answered.
    fn settle(&self) {
        let deadline = Instant::now() + TIMEOUT;
        while self.answered.load(Ordering::SeqCst) < self.sent && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Close the request stream and collect the replies.
    fn finish(self, run: &mut LiveRun) -> (Vec<f64>, Vec<f64>) {
        self.settle();
        drop(self.requests);
        let _ = self.stream.shutdown();
        // A panicking reader loses its replies; they count as timed out.
        let replies = self.reader.join().unwrap_or_else(|_| Replies {
            timeouts: self.sent,
            ..Replies::default()
        });
        run.ops.fail("error_reply", replies.errors);
        run.ops.fail("reply_timeout", replies.timeouts);
        (replies.publish_us, replies.churn_us)
    }
}

fn read_replies(
    stream: &mut Stream,
    limits: &FrameLimits,
    pending: &Receiver<(Kind, Instant)>,
    answered: &AtomicU64,
) -> Replies {
    let mut replies = Replies::default();
    while let Ok((kind, due)) = pending.recv() {
        let ok = loop {
            match read_frame(stream, limits) {
                Ok(Some(Message::Ack)) => break Some(true),
                Ok(Some(Message::Error { .. })) => break Some(false),
                // Churn subscriptions homed at broker 0 attach their push
                // channel to this connection; those pushes are not replies.
                Ok(Some(Message::Deliver { .. })) => {}
                Ok(Some(_)) | Ok(None) | Err(_) => break None,
            }
        };
        let now = Instant::now();
        let Some(ok) = ok else {
            replies.timeouts += 1 + pending.try_iter().count() as u64;
            break;
        };
        answered.fetch_add(1, Ordering::SeqCst);
        if !ok {
            replies.errors += 1;
        }
        let latency = micros(now.saturating_duration_since(due));
        match kind {
            Kind::Publish => replies.publish_us.push(latency),
            Kind::Churn => replies.churn_us.push(latency),
            Kind::Burst => {}
        }
    }
    replies
}

/// The probe subscriber's reader thread.
struct Probe {
    stop: Arc<AtomicBool>,
    received: Arc<AtomicU64>,
    arrivals: Receiver<(u64, Instant)>,
    thread: JoinHandle<()>,
}

impl Probe {
    fn spawn(mut client: BrokerClient) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let received = Arc::new(AtomicU64::new(0));
        let (tx, arrivals) = channel();
        let thread = {
            let stop = Arc::clone(&stop);
            let received = Arc::clone(&received);
            std::thread::spawn(move || loop {
                match client.recv_delivery(Duration::from_millis(20)) {
                    Ok(Some((_, document))) => {
                        let now = Instant::now();
                        let seq = parse_seq(&document).unwrap_or(u64::MAX);
                        if tx.send((seq, now)).is_err() {
                            break;
                        }
                        received.fetch_add(1, Ordering::SeqCst);
                    }
                    Ok(None) if stop.load(Ordering::SeqCst) => break,
                    Ok(None) => {}
                    Err(_) => break,
                }
            })
        };
        Self {
            stop,
            received,
            arrivals,
            thread,
        }
    }

    fn received(&self) -> u64 {
        self.received.load(Ordering::SeqCst)
    }

    /// Wait until `total` deliveries arrived (or the timeout passed).
    fn wait_for(&self, total: u64, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        while self.received() < total && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Stop the thread and return the first arrival of every sequence
    /// number; duplicates are kept under `u64::MAX - n` so the check sees
    /// them as unexpected.
    fn stop(self) -> BTreeMap<u64, Instant> {
        self.stop.store(true, Ordering::SeqCst);
        // A panicking probe thread only loses arrivals, which the probe
        // check then reports as missing.
        let _ = self.thread.join();
        let mut arrivals = BTreeMap::new();
        let mut duplicates = 0;
        for (seq, at) in self.arrivals.try_iter() {
            if arrivals.insert(seq, at).is_some() {
                duplicates += 1;
                arrivals.insert(u64::MAX - duplicates, at);
            }
        }
        arrivals
    }
}
