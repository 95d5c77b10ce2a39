//! The traced simulator run: the benchmark drives the workload's replicas
//! through `NodeHost` with its own `Transport` and a single-queue event loop
//! built from `bamboo_sim`'s `EventQueue`, `LatencyModel` and `NicModel` —
//! the extension point `bamboo_core::runtime` documents for new backends.
//!
//! Every call into a layer is wrapped in a span of the benchmark's own
//! making; nothing inside the program is instrumented. The loop follows the
//! runner's model (per-replica busy server, verify-once fan-out, NIC and
//! propagation delay, 1 ms workload ticks on the runner's RNG streams) but
//! not its window barriers, so its totals are close to the runner's without
//! being identical; both are printed.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use bamboo_core::{
    Arrival, FaultTrigger, NodeHost, OpenLoopWorkload, ReplicaEvent, ReplicaOptions, StepReport,
    StorageFault, Transport, Workload,
};
use bamboo_forest::Snapshot;
use bamboo_net::{FrameDecoder, FrameKind};
use bamboo_sim::{EventQueue, LatencyModel, NicModel, SimRng, Topology};
use bamboo_types::wire::{decode_message, encode_message};
use bamboo_types::{
    Authenticator, ClientRequest, Message, NodeId, SharedMessage, SimDuration, SimTime,
    VerifiedMessage, View,
};

use crate::sim::SimSpec;

/// RNG stream label of the runner's workload generator (see
/// `bamboo_core::runner`); replica `r` uses stream `r`.
const WORKLOAD_STREAM: u64 = u64::MAX;
/// The runner's workload tick.
const TICK: SimDuration = SimDuration(1_000_000);
/// Client id the latency model uses for the client side of a link.
const CLIENT_SIDE: NodeId = NodeId(u64::MAX);

/// Accumulated wall time and call count per span name.
#[derive(Default)]
pub struct Spans {
    totals: BTreeMap<&'static str, (Duration, u64)>,
}

impl Spans {
    /// Runs `f` inside the span `name`, counting `items` units of work.
    pub fn time<R>(&mut self, name: &'static str, items: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = f();
        self.add(name, start.elapsed(), items);
        result
    }

    /// Books `elapsed` and `items` under `name`.
    pub fn add(&mut self, name: &'static str, elapsed: Duration, items: u64) {
        let entry = self.totals.entry(name).or_default();
        entry.0 += elapsed;
        entry.1 += items;
    }

    /// Mean time per unit of work under `name`, in `unit` seconds (1e-9 for
    /// ns, 1e-6 for µs, 1e-3 for ms); 0 when nothing was recorded.
    pub fn per_item(&self, name: &str, unit: f64) -> f64 {
        match self.totals.get(name) {
            Some(&(total, items)) if items > 0 => total.as_secs_f64() / unit / items as f64,
            _ => 0.0,
        }
    }

    /// Units of work recorded under `name`.
    pub fn items(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |&(_, items)| items)
    }

    /// Every span, for printing.
    pub fn iter(&self) -> impl Iterator<Item = (&&'static str, &(Duration, u64))> {
        self.totals.iter()
    }
}

/// The latency model the runner builds for a configuration without a custom
/// topology.
pub fn latency_model(spec: &SimSpec) -> LatencyModel {
    let c = &spec.config;
    LatencyModel::with_topology(Topology::uniform(c.link_latency_mean, c.link_latency_std))
        .with_extra_delay(c.extra_delay, c.extra_delay_jitter)
}

/// The runner's client generator: open-loop arrivals in 1 ms ticks, grouped
/// per replica in ascending order, each batch delayed by one client-link
/// sample from the same RNG stream. Reproducing it exactly gives an issued
/// count computed apart from the runner.
pub struct Generator {
    workload: OpenLoopWorkload,
    rng: SimRng,
    latency: LatencyModel,
    arrivals: Vec<Arrival>,
    buckets: Vec<Vec<ClientRequest>>,
    latest: Vec<SimTime>,
}

impl Generator {
    /// A generator for `spec`; `signing` off generates the same arrivals
    /// without the signatures (signing draws nothing from the RNG).
    pub fn new(spec: &SimSpec, signing: bool) -> Self {
        let c = &spec.config;
        let mut workload = OpenLoopWorkload::new(spec.rate(), c.payload_size, c.nodes);
        if let Some(clients) = c.client_population {
            workload = workload.with_population(clients);
        }
        Self {
            workload: workload.with_signing(signing && c.signed_requests),
            rng: SimRng::new(c.seed).derive(WORKLOAD_STREAM),
            latency: latency_model(spec),
            arrivals: Vec::new(),
            buckets: vec![Vec::new(); c.nodes],
            latest: vec![SimTime::ZERO; c.nodes],
        }
    }

    /// Generates the tick starting at `now`, appending `(replica, deliver_at,
    /// requests)` batches to `out`.
    pub fn tick(
        &mut self,
        now: SimTime,
        spans: &mut Spans,
        out: &mut Vec<(NodeId, SimTime, Vec<ClientRequest>)>,
    ) {
        self.arrivals.clear();
        let start = Instant::now();
        self.workload
            .arrivals(now, now + TICK, &mut self.rng, &mut self.arrivals);
        spans.add(
            "workload.arrivals",
            start.elapsed(),
            self.arrivals.len() as u64,
        );
        for arrival in self.arrivals.drain(..) {
            let index = arrival.replica.index();
            let issued = arrival.issued_at;
            if self.buckets[index].is_empty() || issued > self.latest[index] {
                self.latest[index] = issued;
            }
            self.buckets[index].push(arrival.into_request());
        }
        for index in 0..self.buckets.len() {
            if self.buckets[index].is_empty() {
                continue;
            }
            let replica = NodeId(index as u64);
            let delay = spans
                .time("latency.sample", 1, || {
                    self.latency
                        .sample(&mut self.rng, CLIENT_SIDE, replica, now)
                })
                .unwrap_or(SimDuration::ZERO);
            out.push((
                replica,
                self.latest[index] + delay,
                std::mem::take(&mut self.buckets[index]),
            ));
        }
    }

    /// Transactions generated so far.
    pub fn issued(&self) -> u64 {
        self.workload.total_issued()
    }
}

/// Transactions the runner issues over one run of `spec`, counted by
/// replaying its generator without signatures.
pub fn issued_by_runner(spec: &SimSpec) -> u64 {
    let mut generator = Generator::new(spec, false);
    let mut spans = Spans::default();
    let mut batches = Vec::new();
    let end = SimTime::ZERO + spec.runtime();
    let mut now = SimTime::ZERO;
    while now <= end {
        generator.tick(now, &mut spans, &mut batches);
        batches.clear();
        now += TICK;
    }
    generator.issued()
}

/// The benchmark's own `Transport`: it records effects and does nothing
/// else, so the time a span around a host call measures is the host's own.
#[derive(Default)]
struct Effects {
    sends: Vec<(Option<NodeId>, Message)>,
    timers: Vec<(View, SimTime)>,
    proposals: Vec<(View, SimTime)>,
    sync_timers: Vec<SimTime>,
}

impl Transport for Effects {
    fn unicast(&mut self, to: NodeId, message: Message) {
        self.sends.push((Some(to), message));
    }
    fn broadcast(&mut self, message: Message) {
        self.sends.push((None, message));
    }
    fn arm_timer(&mut self, view: View, deadline: SimTime) {
        self.timers.push((view, deadline));
    }
    fn schedule_proposal(&mut self, view: View, at: SimTime) {
        self.proposals.push((view, at));
    }
    fn arm_sync_timer(&mut self, deadline: SimTime) {
        self.sync_timers.push(deadline);
    }
}

enum Ev {
    Tick,
    Client(NodeId, Vec<ClientRequest>),
    Deliver(NodeId, VerifiedMessage),
    Timer(NodeId, View),
    Propose(NodeId, View),
    Sync(NodeId),
    Crash(NodeId),
    Recover(NodeId, Option<StorageFault>),
}

/// Totals of one traced run, printed beside the untraced runner's.
#[derive(Default)]
pub struct Totals {
    /// Events popped, workload ticks included.
    pub events: u64,
    /// Transactions issued by the generator.
    pub issued: u64,
    /// Transactions committed at the observer.
    pub committed: u64,
    /// Transactions in client batches that reached a crashed replica and
    /// were dropped.
    pub lost_to_crashed: u64,
    /// Messages that failed ingress verification.
    pub forged: u64,
    /// Admission and client-signature refusals.
    pub refused: u64,
    /// Framed bytes that would cross the network, every recipient counted.
    pub framed_bytes: u64,
    /// Size of the last snapshot image encoded.
    pub snapshot_bytes: u64,
    /// Whether every pair of replicas agrees on its common committed prefix
    /// and no replica counted a conflicting commit.
    pub safe: bool,
    /// Wall time of the whole traced loop.
    pub wall: Duration,
}

/// The traced loop's state; spans are kept apart so they accumulate across
/// rounds.
struct Engine<'a> {
    spec: &'a SimSpec,
    hosts: Vec<NodeHost>,
    rngs: Vec<SimRng>,
    busy: Vec<SimTime>,
    crashed: Vec<bool>,
    latency: LatencyModel,
    nic: NicModel,
    auth: Authenticator,
    queue: EventQueue<Ev>,
    decoder: FrameDecoder,
    effects: Effects,
    observer: NodeId,
    next_checkpoint: u64,
    totals: Totals,
    /// Submit→commit latency of each transaction committed at the observer.
    latencies_ms: Vec<f64>,
}

impl Engine<'_> {
    fn schedule(&mut self, spans: &mut Spans, at: SimTime, ev: Ev) {
        let queue = &mut self.queue;
        spans.time("queue.op", 1, || queue.schedule(at, ev));
    }

    /// Maps one step's effects onto the loop: the busy server advances,
    /// observer commits are booked, timers go on the queue, and each unique
    /// envelope is encoded, framed, decoded and verified once before it is
    /// fanned out to its recipients.
    fn absorb(&mut self, spans: &mut Spans, node: NodeId, start: SimTime, report: StepReport) {
        let finish = start + report.cpu;
        self.busy[node.index()] = finish;
        if node == self.observer && !report.committed.is_empty() {
            for block in &report.committed {
                for tx in &block.payload {
                    self.totals.committed += 1;
                    self.latencies_ms
                        .push(finish.since(tx.issued_at).as_millis_f64());
                }
            }
            let replica = self.hosts[node.index()].replica();
            if replica.ledger().len() as u64 >= self.next_checkpoint {
                self.next_checkpoint += self.spec.config.checkpoint_interval.unwrap_or(u64::MAX);
                let image = spans.time("snapshot.encode", 1, || {
                    Snapshot::encode(replica.forest(), replica.ledger())
                });
                self.totals.snapshot_bytes = image.len() as u64;
            }
        }
        let mut effects = std::mem::take(&mut self.effects);
        for (view, at) in effects.timers.drain(..) {
            self.schedule(spans, at, Ev::Timer(node, view));
        }
        for (view, at) in effects.proposals.drain(..) {
            self.schedule(spans, at, Ev::Propose(node, view));
        }
        for at in effects.sync_timers.drain(..) {
            self.schedule(spans, at, Ev::Sync(node));
        }
        for (to, message) in effects.sends.drain(..) {
            let encoded = spans.time("wire.encode", 1, || encode_message(&message));
            let framed = bamboo_net::frame::encode_frame(FrameKind::Msg, &encoded);
            let decoder = &mut self.decoder;
            let frame = spans.time("frame.decode", 1, || {
                decoder.push(&framed);
                decoder.next_frame()
            });
            let decoded_ok = match frame {
                Ok(Some(frame)) => spans
                    .time("wire.decode", 1, || decode_message(&frame.payload))
                    .is_ok(),
                _ => false,
            };
            if !decoded_ok {
                self.totals.forged += 1;
                continue;
            }
            let shared: SharedMessage = SharedMessage::new(message);
            let nic_delay = self.nic.transfer(shared.wire_size());
            let auth = &mut self.auth;
            let verdict = spans.time("auth.verify", 1, || auth.authenticate_shared(node, shared));
            let Ok(token) = verdict else {
                self.totals.forged += 1;
                continue;
            };
            let recipients: Vec<NodeId> = match to {
                Some(to) => vec![to],
                None => (0..self.hosts.len() as u64)
                    .map(NodeId)
                    .filter(|&to| to != node)
                    .collect(),
            };
            for to in recipients {
                let rng = &mut self.rngs[node.index()];
                let latency = &self.latency;
                let delay = spans.time("latency.sample", 1, || {
                    latency.sample(rng, node, to, finish)
                });
                if let Some(delay) = delay {
                    self.totals.framed_bytes += framed.len() as u64;
                    self.schedule(
                        spans,
                        finish + nic_delay + delay,
                        Ev::Deliver(to, token.clone()),
                    );
                }
            }
        }
        self.effects = effects;
    }
}

/// Runs `spec` once through the traced loop, adding to `spans`. Returns the
/// loop's totals, the observer's latencies and the final hosts.
pub fn run(spec: &SimSpec, spans: &mut Spans) -> (Totals, Vec<f64>, Vec<NodeHost>) {
    let started = Instant::now();
    let config = &spec.config;
    let nodes = config.nodes;
    let seed_rng = SimRng::new(config.seed);
    let mut auth = Authenticator::for_nodes(nodes);
    auth.set_signed_clients(config.signed_requests);
    let mut engine = Engine {
        spec,
        hosts: (0..nodes as u64)
            .map(|i| {
                NodeHost::new(
                    NodeId(i),
                    spec.protocol,
                    config.clone(),
                    ReplicaOptions::default(),
                )
            })
            .collect(),
        rngs: (0..nodes as u64).map(|i| seed_rng.derive(i)).collect(),
        busy: vec![SimTime::ZERO; nodes],
        crashed: vec![false; nodes],
        latency: latency_model(spec),
        nic: NicModel::new(config.bandwidth_bytes_per_sec),
        auth,
        queue: EventQueue::new(),
        decoder: FrameDecoder::new(),
        effects: Effects::default(),
        observer: NodeId(nodes as u64 - 1),
        next_checkpoint: config.checkpoint_interval.unwrap_or(u64::MAX),
        totals: Totals::default(),
        latencies_ms: Vec::new(),
    };
    let mut generator = Generator::new(spec, true);
    let mut batches = Vec::new();
    let end = SimTime::ZERO + spec.runtime();

    engine.schedule(spans, SimTime::ZERO, Ev::Tick);
    for fault in &spec.faults {
        if let FaultTrigger::At(at) = fault.crash {
            engine.schedule(spans, at, Ev::Crash(fault.node));
        }
        if let Some(FaultTrigger::At(at)) = fault.recover {
            engine.schedule(spans, at, Ev::Recover(fault.node, fault.storage_fault));
        }
    }
    for i in 0..nodes {
        let node = NodeId(i as u64);
        let report = engine.hosts[i].start(SimTime::ZERO, &mut engine.effects);
        engine.absorb(spans, node, SimTime::ZERO, report);
    }

    loop {
        let queue = &mut engine.queue;
        let Some((now, ev)) =
            spans.time("queue.op", 1, || queue.pop_if_before(end + SimDuration(1)))
        else {
            break;
        };
        engine.totals.events += 1;
        // Each event runs at its time or when its replica's CPU frees up.
        let (node, step) = match ev {
            Ev::Tick => {
                generator.tick(now, spans, &mut batches);
                for (to, at, requests) in batches.drain(..) {
                    engine.schedule(spans, at, Ev::Client(to, requests));
                }
                if now + TICK <= end {
                    engine.schedule(spans, now + TICK, Ev::Tick);
                }
                continue;
            }
            Ev::Crash(node) => {
                engine.crashed[node.index()] = true;
                continue;
            }
            Ev::Recover(node, fault) => {
                engine.crashed[node.index()] = false;
                engine.busy[node.index()] = now;
                let host = &mut engine.hosts[node.index()];
                let effects = &mut engine.effects;
                let report = spans.time("storage.restart", 1, || {
                    host.restart_durable(now, fault, effects)
                });
                engine.absorb(spans, node, now, report);
                continue;
            }
            Ev::Client(node, requests) => {
                if engine.crashed[node.index()] {
                    // The runner drops batches sent to a crashed replica;
                    // so does this loop, and it counts them.
                    engine.totals.lost_to_crashed += requests.len() as u64;
                    continue;
                }
                (node, Step::Client(requests))
            }
            Ev::Deliver(node, token) => (node, Step::Message(token)),
            Ev::Timer(node, view) => (node, Step::Event(ReplicaEvent::TimerFired { view })),
            Ev::Propose(node, view) => (node, Step::Event(ReplicaEvent::ProposeNow { view })),
            Ev::Sync(node) => (node, Step::Event(ReplicaEvent::SyncTimer)),
        };
        if engine.crashed[node.index()] {
            continue;
        }
        let start = now.max(engine.busy[node.index()]);
        let host = &mut engine.hosts[node.index()];
        let effects = &mut engine.effects;
        let report = match step {
            Step::Client(requests) => {
                let count = requests.len() as u64;
                spans.time("edge.client_batch", count, || {
                    host.handle_client_batch(requests, start, effects)
                })
            }
            Step::Message(token) => spans.time("replica.handle_verified", 1, || {
                host.handle_verified(token, start, effects)
            }),
            Step::Event(event) => spans.time("replica.handle_timer", 1, || {
                host.handle(event, start, effects)
            }),
        };
        engine.absorb(spans, node, start, report);
    }

    engine.totals.issued = generator.issued();
    engine.totals.refused = engine
        .hosts
        .iter()
        .map(|h| h.replica().mempool_stats().rejected + h.client_auth_rejections())
        .sum();
    let replicas: Vec<_> = engine.hosts.iter().map(NodeHost::replica).collect();
    engine.totals.safe = replicas.iter().all(|r| r.safety_violations() == 0)
        && replicas
            .windows(2)
            .all(|pair| pair[0].ledger().consistent_with(pair[1].ledger()));
    if config.checkpoint_interval.is_none() {
        // No checkpoint fired: time one image of the observer's final state,
        // what the first checkpoint would cost.
        let replica = engine.hosts[engine.observer.index()].replica();
        let image = spans.time("snapshot.encode", 1, || {
            Snapshot::encode(replica.forest(), replica.ledger())
        });
        engine.totals.snapshot_bytes = image.len() as u64;
    }
    engine.totals.wall = started.elapsed();
    (engine.totals, engine.latencies_ms, engine.hosts)
}

enum Step {
    Client(Vec<ClientRequest>),
    Message(VerifiedMessage),
    Event(ReplicaEvent),
}

/// Wall time to compute the chain fingerprint of every prefix of `ledger`,
/// the work the TCP status oracle does for one replica's chain.
pub fn fingerprint_history(ledger: &bamboo_forest::Ledger) -> Duration {
    let start = Instant::now();
    for len in 0..=ledger.len() {
        std::hint::black_box(ledger.chain_fingerprint_prefix(len));
    }
    start.elapsed()
}
