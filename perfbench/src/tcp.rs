//! `tcp_hs_n4`: four HotStuff replicas in one process, talking over loopback
//! TCP through `TcpCluster`, driven by an open-loop generator.
//!
//! One benchmark thread does everything the clients and the observer do. It
//! submits transactions on a Poisson schedule drawn from `--seed` and polls
//! the cluster's commit floor — the fewest transactions any replica has
//! committed — between sends. All replicas commit the same chain, so the
//! floor reaching `k + 1` means the `k`-th transaction of that chain has
//! committed everywhere; that instant, on the benchmark's own clock, is the
//! transaction's commit time. Each transaction is timed from when it was due,
//! not from when it was sent, so a stalled generator shows as latency and as
//! `loadgen.lag_ms`. The replicas' own clocks are never read: each node and
//! the cluster start their own `Instant`, several ms apart.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use bamboo_core::NodeHost;
use bamboo_forest::Snapshot;
use bamboo_net::frame::encode_frame;
use bamboo_net::{FrameDecoder, FrameKind, TcpCluster};
use bamboo_sim::SimRng;
use bamboo_types::wire::{decode_message, encode_message};
use bamboo_types::{Authenticator, Config, Message, NodeId, ProtocolKind, SimDuration, TxId};

use crate::host;
use crate::layers::Layers;
use crate::report::Report;
use crate::sim::SimSpec;
use crate::stats::{self, Accounting};
use crate::trace::{self, Spans};

/// Replicas in the cluster.
const NODES: usize = 4;
/// Offered load, transactions per second.
const RATE: f64 = 1_000.0;
/// Length of one round's open-loop schedule. Each round runs a fresh
/// cluster, so every round sees the same chain lengths.
const WINDOW: Duration = Duration::from_secs(2);
/// How long a round waits after its window for the stragglers to commit;
/// what is still uncommitted then has failed.
const DRAIN: Duration = Duration::from_secs(10);
/// Longest wait for the warm-up transaction before the round is abandoned.
const SETUP_LIMIT: Duration = Duration::from_secs(20);
/// Longest sleep between two polls of the commit floor.
const POLL: Duration = Duration::from_micros(500);
/// Payload bytes per transaction.
const PAYLOAD: usize = 16;
/// The client id `TcpCluster::submit_round_robin` signs its requests as.
const CLIENT: NodeId = NodeId(999);

/// The cluster configuration.
fn config(seed: u64) -> Config {
    Config::builder()
        .nodes(NODES)
        .block_size(100)
        .payload_size(PAYLOAD)
        .timeout(SimDuration::from_millis(100))
        .runtime(SimDuration::from_nanos(WINDOW.as_nanos() as u64))
        .arrival_rate(RATE)
        .seed(seed)
        .build()
        .expect("valid tcp_hs_n4 configuration")
}

/// The simulator twin of the socket cluster: the same protocol, size, load
/// and window in the simulator. It gives the engine-speed metrics on this
/// workload and a modeled latency to set beside the measured one.
fn twin(seed: u64) -> SimSpec {
    let config = config(seed);
    SimSpec {
        protocol: ProtocolKind::HotStuff,
        round_runtime: config.runtime,
        config,
        faults: Vec::new(),
    }
}

/// The open-loop schedule of one round: due offsets from the schedule start,
/// Poisson at [`RATE`], all inside [`WINDOW`].
fn schedule(rng: &mut SimRng) -> Vec<Duration> {
    let mut due = Vec::new();
    let mut at = 0.0;
    loop {
        at += rng.exponential(RATE);
        if at >= WINDOW.as_secs_f64() {
            return due;
        }
        due.push(Duration::from_secs_f64(at));
    }
}

/// What one socket round measured and returned.
struct Round {
    /// Spawn until the warm-up transaction committed at every replica.
    setup: Duration,
    /// Submit→commit latency of each scheduled transaction that committed,
    /// in ms, from its due time.
    latencies_ms: Vec<f64>,
    /// How late each send ran behind its due time, in ms.
    lag_ms: Vec<f64>,
    /// Scheduled transactions committed by the end of the window.
    committed_in_window: u64,
    /// Longest span without a floor increase inside the window, in ms.
    outage_ms: f64,
    /// Process CPU from the schedule start until the cluster was shut down.
    cpu: Duration,
    /// CPU time the hypervisor stole over the same span.
    stolen: Duration,
    /// Operations of the round.
    accounting: Accounting,
    /// The final hosts.
    hosts: Vec<NodeHost>,
    /// Network counters: bytes sent, reconnects, frames dropped.
    bytes_sent: u64,
    reconnects: u64,
    dropped: u64,
    /// Timeout view changes summed over replicas.
    timeout_views: u64,
    /// Wall time of the benchmark's calls into the cluster, by call.
    calls: CallTimes,
}

/// Wall time spent inside each `TcpCluster` call the benchmark makes.
#[derive(Default)]
struct CallTimes {
    spawn: Duration,
    submit: (Duration, u64),
    floor: (Duration, u64),
    shutdown: Duration,
}

/// Polls the floor, recording every increase with its time since `origin`.
fn poll(
    cluster: &TcpCluster,
    origin: Instant,
    floors: &mut Vec<(f64, u64)>,
    calls: &mut CallTimes,
) -> u64 {
    let start = Instant::now();
    let floor = cluster.committed_txs_floor();
    calls.floor.0 += start.elapsed();
    calls.floor.1 += 1;
    if floors.last().is_none_or(|&(_, last)| floor > last) {
        floors.push((origin.elapsed().as_secs_f64(), floor));
    }
    floor
}

/// Runs one round: spawn, warm up, the open-loop window, drain, shut down,
/// and the output checks on the returned ledgers.
fn round(seed: u64, due: &[Duration], out: &mut Report) -> Option<Round> {
    let mut calls = CallTimes::default();
    let spawned = Instant::now();
    let mut cluster = match TcpCluster::spawn(ProtocolKind::HotStuff, config(seed)) {
        Ok(cluster) => cluster,
        Err(error) => {
            out.check(false, || format!("cluster failed to spawn: {error}"));
            return None;
        }
    };
    calls.spawn = spawned.elapsed();
    // Set-up ends when the system has taken work: one warm-up transaction
    // (sequence 0) committed at every replica.
    let mut warmup = Vec::new();
    cluster.submit_round_robin(1, PAYLOAD);
    while poll(&cluster, spawned, &mut warmup, &mut calls) < 1 {
        if spawned.elapsed() > SETUP_LIMIT {
            out.check(false, || {
                "the warm-up transaction never committed".to_string()
            });
            let _ = cluster.shutdown();
            return None;
        }
        std::thread::sleep(POLL);
    }
    let setup = spawned.elapsed();

    let cpu_start = host::process_cpu();
    let steal_start = host::steal();
    let origin = Instant::now();
    let mut floors: Vec<(f64, u64)> = Vec::new();
    let mut lag_ms = Vec::with_capacity(due.len());
    let mut sent = 0;
    loop {
        let now = origin.elapsed();
        let ready = due[sent..].iter().take_while(|&&d| d <= now).count();
        if ready > 0 {
            let start = Instant::now();
            cluster.submit_round_robin(ready as u64, PAYLOAD);
            calls.submit.0 += start.elapsed();
            calls.submit.1 += ready as u64;
            let at = origin.elapsed();
            lag_ms.extend(
                due[sent..sent + ready]
                    .iter()
                    .map(|&d| (at - d).as_secs_f64() * 1000.0),
            );
            sent += ready;
        }
        poll(&cluster, origin, &mut floors, &mut calls);
        let now = origin.elapsed();
        if sent == due.len() && now >= WINDOW {
            break;
        }
        let next = due.get(sent).copied().unwrap_or(WINDOW);
        std::thread::sleep(next.saturating_sub(now).min(POLL));
    }
    // Drain: every scheduled transaction plus the warm-up one.
    let total = due.len() as u64 + 1;
    let drain_end = origin.elapsed() + DRAIN;
    while poll(&cluster, origin, &mut floors, &mut calls) < total && origin.elapsed() < drain_end {
        std::thread::sleep(POLL);
    }
    let start = Instant::now();
    let (report, hosts) = cluster.shutdown_with_hosts();
    calls.shutdown = start.elapsed();
    let cpu = host::process_cpu().saturating_sub(cpu_start);
    let stolen = host::steal().saturating_sub(steal_start);

    let hosts: Vec<NodeHost> = hosts.into_iter().flatten().collect();
    out.check(hosts.len() == NODES, || {
        format!("{} of {NODES} replicas came back", hosts.len())
    });
    out.check(report.cluster.safety_violations == 0, || {
        format!("{} safety violations", report.cluster.safety_violations)
    });
    let order = check_ledgers(&hosts, total, out)?;

    // Commit instant of the transaction at chain position k: the first
    // floor sample above k. The warm-up transaction is sequence 0.
    let window_s = WINDOW.as_secs_f64();
    let mut latencies_ms = Vec::with_capacity(due.len());
    let mut committed = 0;
    let mut committed_in_window = 0;
    let mut sample = 0;
    for (position, &seq) in order.iter().enumerate() {
        while sample < floors.len() && floors[sample].1 <= position as u64 {
            sample += 1;
        }
        if seq == 0 {
            continue;
        }
        let Some(&(at, _)) = floors.get(sample) else {
            break;
        };
        let due_s = due[seq as usize - 1].as_secs_f64();
        latencies_ms.push((at - due_s) * 1000.0);
        committed += 1;
        if at <= window_s {
            committed_in_window += 1;
        }
    }
    // Gaps between commits of scheduled transactions inside the window.
    let increases: Vec<f64> = floors
        .iter()
        .filter(|&&(at, floor)| floor > 1 && at <= window_s)
        .map(|&(at, _)| at)
        .collect();
    let scheduled = due.len() as u64;
    Some(Round {
        setup,
        latencies_ms,
        lag_ms,
        committed_in_window,
        outage_ms: stats::longest_gap(&increases).unwrap_or(window_s) * 1000.0,
        cpu,
        stolen,
        accounting: Accounting {
            attempted: scheduled,
            committed: committed_in_window,
            failed: scheduled - committed.min(scheduled),
        },
        bytes_sent: report.total_bytes_sent(),
        reconnects: report.total_reconnects(),
        dropped: report.total_dropped(),
        timeout_views: report.cluster.timeout_view_changes,
        hosts,
        calls,
    })
}

/// Checks the committed ledgers directly, by block id and transaction id:
/// every replica committed the same blocks in the same order, every
/// committed transaction is one this benchmark submitted (its id derived
/// from client and sequence as the program does), none twice, and the
/// transaction order is the same everywhere. Returns the committed order of
/// sequence numbers of the longest ledger.
fn check_ledgers(hosts: &[NodeHost], total: u64, out: &mut Report) -> Option<Vec<u64>> {
    let chains: Vec<Vec<(u64, bamboo_types::BlockId)>> = hosts
        .iter()
        .map(|host| {
            host.replica()
                .ledger()
                .iter()
                .map(|committed| (committed.block.view.as_u64(), committed.block.id))
                .collect()
        })
        .collect();
    let longest = (0..hosts.len()).max_by_key(|&i| chains[i].len())?;
    for (i, chain) in chains.iter().enumerate() {
        let agree = chain.iter().zip(&chains[longest]).all(|(a, b)| a == b);
        out.check(agree, || format!("replica {i} committed different blocks"));
    }
    let mut orders = Vec::with_capacity(hosts.len());
    for (i, host) in hosts.iter().enumerate() {
        let mut seen = HashSet::new();
        let mut order = Vec::new();
        for committed in host.replica().ledger().iter() {
            for tx in &committed.block.payload {
                let ours =
                    tx.client == CLIENT && tx.seq < total && tx.id == TxId::derive(CLIENT, tx.seq);
                out.check(ours, || {
                    format!("replica {i} committed a transaction nobody submitted")
                });
                out.check(seen.insert(tx.seq), || {
                    format!("replica {i} committed sequence {} twice", tx.seq)
                });
                order.push(tx.seq);
            }
        }
        orders.push(order);
    }
    for (i, order) in orders.iter().enumerate() {
        let same = order.iter().zip(&orders[longest]).all(|(a, b)| a == b);
        out.check(same, || {
            format!("replica {i} committed transactions in another order")
        });
    }
    Some(orders.swap_remove(longest))
}

/// The untraced run: rounds of a fresh cluster until the window is over,
/// each followed by its simulator twin at one and two shards. Wall-clock
/// metrics are medians over rounds.
pub fn run(seed: u64, seconds: u64, out: &mut Report) {
    let twin = twin(seed);
    let reference = twin.runner(1).run();
    let mut rng = SimRng::new(seed);
    let window = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut rounds = Vec::new();
    let mut speed1 = Vec::new();
    let mut speed2 = Vec::new();
    while rounds.is_empty() || started.elapsed() < window {
        let due = schedule(&mut rng);
        let Some(round) = round(seed, &due, out) else {
            return;
        };
        out.accounting.add(round.accounting);
        rounds.push(round);
        let twin_secs = twin.runtime().as_secs_f64();
        let (runner1, runner2) = (twin.runner(1), twin.runner(2));
        let (one, busy1) = host::unstolen(|| runner1.run());
        let (two, busy2) = host::unstolen(|| runner2.run());
        speed1.extend(busy1.map(|d| twin_secs / d.as_secs_f64()));
        speed2.extend(busy2.map(|d| twin_secs / d.as_secs_f64()));
        out.check(
            one.ledger_fingerprint == reference.ledger_fingerprint
                && two.ledger_fingerprint == reference.ledger_fingerprint,
            || "the simulator twin diverged across runs or shard counts".to_string(),
        );
    }
    let n = rounds.len();
    let per_round = |f: &dyn Fn(&Round) -> f64| -> f64 {
        let values: Vec<f64> = rounds.iter().map(f).collect();
        stats::median(&values).unwrap_or(f64::NAN)
    };
    let window_s = WINDOW.as_secs_f64();
    let samples: usize = rounds.iter().map(|r| r.latencies_ms.len()).sum();
    let p50 = per_round(&|r| stats::quantile(&r.latencies_ms, 0.5).unwrap_or(f64::NAN));
    let p99 = per_round(&|r| stats::quantile(&r.latencies_ms, 0.99).unwrap_or(f64::NAN));
    out.metric(
        "goodput_tps",
        "tx/s",
        per_round(&|r| r.committed_in_window as f64 / window_s),
        n,
    );
    out.metric("commit_p50_ms", "ms", p50, samples);
    out.metric("commit_p99_ms", "ms", p99, samples);
    out.metric("outage_ms", "ms", per_round(&|r| r.outage_ms), n);
    out.metric(
        "sim_s_per_wall_s",
        "s/s",
        stats::median(&speed1).unwrap_or(f64::NAN),
        n,
    );
    out.metric(
        "sim_s_per_wall_s_2shard",
        "s/s",
        stats::median(&speed2).unwrap_or(f64::NAN),
        n,
    );
    out.metric(
        "cpu_ms_per_ktx",
        "ms",
        per_round(&|r| r.cpu.as_secs_f64() * 1000.0 / (r.latencies_ms.len() as f64 / 1000.0)),
        n,
    );
    out.metric("setup_s", "s", per_round(&|r| r.setup.as_secs_f64()), n);
    out.metric("peak_rss_mb", "MiB", host::peak_rss_mb(), 1);
    out.note(format!(
        "tcp_hs_n4: {n} rounds of {window_s} s at {RATE} tx/s; generator lag p99 {:.3} ms; \
         simulator twin p50 {:.3} ms p99 {:.3} ms",
        per_round(&|r| stats::quantile(&r.lag_ms, 0.99).unwrap_or(f64::NAN)),
        reference.client_latency.p50_ms,
        reference.client_latency.p99_ms
    ));
    // Per-round detail: the stolen CPU time is what sets the latency on a
    // shared host.
    for (i, r) in rounds.iter().enumerate() {
        out.note(format!(
            "round {i}: p50 {:.2} ms, p99 {:.2} ms, outage {:.2} ms, setup {:.4} s, \
             cpu {:.2} s, stolen {:.2} s",
            stats::quantile(&r.latencies_ms, 0.5).unwrap_or(f64::NAN),
            stats::quantile(&r.latencies_ms, 0.99).unwrap_or(f64::NAN),
            r.outage_ms,
            r.setup.as_secs_f64(),
            r.cpu.as_secs_f64(),
            r.stolen.as_secs_f64()
        ));
    }
}

/// The traced run: the same socket rounds with the benchmark's calls into
/// `TcpCluster` timed, then the last round's committed chain replayed
/// through the wire codec, the framing, the authenticator and the status
/// oracle's fingerprint history; the simulator twin, untraced and through
/// the traced loop, gives the engine, replica and edge layers.
pub fn traced(seed: u64, seconds: u64, out: &mut Report) {
    let mut rng = SimRng::new(seed);
    let window = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || started.elapsed() < window {
        let due = schedule(&mut rng);
        let Some(round) = round(seed, &due, out) else {
            return;
        };
        out.accounting.add(round.accounting);
        rounds.push(round);
    }

    let twin = twin(seed);
    let start = Instant::now();
    let reference = twin.runner(1).run();
    let wall = start.elapsed().as_secs_f64();
    let mut layers = Layers::default();
    layers.add_report(&reference, wall);
    let mut spans = Spans::default();
    let (totals, _, _) = trace::run(&twin, &mut spans);
    out.check(totals.safe, || {
        "the twin's traced replicas disagree".to_string()
    });
    layers.add_spans(&spans, &totals);

    // What the sockets themselves measured overrides the twin's figures.
    let last = rounds.last().expect("at least one round");
    let committed: usize = rounds.iter().map(|r| r.latencies_ms.len()).sum();
    let lag: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.lag_ms.iter().copied())
        .collect();
    layers.set(
        "net.bytes_per_tx",
        rounds.iter().map(|r| r.bytes_sent).sum::<u64>() as f64 / committed.max(1) as f64,
        committed,
    );
    layers.set(
        "net.reconnects",
        rounds.iter().map(|r| r.reconnects).sum::<u64>() as f64,
        rounds.len(),
    );
    layers.set(
        "net.dropped_frames",
        rounds.iter().map(|r| r.dropped).sum::<u64>() as f64,
        rounds.len(),
    );
    layers.set(
        "loadgen.lag_ms",
        stats::quantile(&lag, 0.99).unwrap_or(f64::NAN),
        lag.len(),
    );
    layers.set("replica.timeout_views", last.timeout_views as f64, 1);
    let host = last
        .hosts
        .iter()
        .max_by_key(|h| h.replica().ledger().len())
        .expect("replicas came back");
    let ledger = host.replica().ledger();
    layers.set(
        "replica.txs_per_block",
        ledger.committed_txs() as f64 / ledger.len().max(1) as f64,
        ledger.len(),
    );
    let history = trace::fingerprint_history(ledger);
    layers.set(
        "ledger.fingerprint_history_ms",
        history.as_secs_f64() * 1000.0,
        ledger.len() + 1,
    );
    let mut replay = Spans::default();
    let image = replay.time("snapshot.encode", 1, || {
        Snapshot::encode(host.replica().forest(), ledger)
    });
    layers.set(
        "snapshot.encode_ms",
        replay.per_item("snapshot.encode", 1e-3),
        1,
    );
    layers.set("snapshot.last_bytes", image.len() as f64, 1);
    let mut auth = Authenticator::for_nodes(NODES);
    let mut decoder = FrameDecoder::new();
    let mut replayed = 0;
    for committed in ledger.iter() {
        let message = Message::Proposal(committed.block.clone());
        let encoded = replay.time("wire.encode", 1, || encode_message(&message));
        let framed = encode_frame(FrameKind::Msg, &encoded);
        let frame = replay.time("frame.decode", 1, || {
            decoder.push(&framed);
            decoder.next_frame()
        });
        let Ok(Some(frame)) = frame else {
            out.check(false, || "a replayed frame failed to decode".to_string());
            break;
        };
        let decoded = replay.time("wire.decode", 1, || decode_message(&frame.payload));
        let Ok(decoded) = decoded else {
            out.check(false, || "a replayed block failed to decode".to_string());
            break;
        };
        out.check(decoded == message, || {
            "a replayed block changed in the codec".to_string()
        });
        let verdict = replay.time("auth.verify", 1, || {
            auth.authenticate(committed.block.proposer, decoded)
        });
        out.check(verdict.is_ok(), || {
            "a committed block failed verification".to_string()
        });
        replayed += 1;
    }
    for (metric, span) in [
        ("wire.encode_us_per_msg", "wire.encode"),
        ("wire.decode_us_per_msg", "wire.decode"),
        ("frame.decode_us_per_frame", "frame.decode"),
        ("auth.us_per_msg", "auth.verify"),
    ] {
        layers.set(metric, replay.per_item(span, 1e-6), replayed);
    }
    layers.emit(out);

    out.note(format!(
        "socket rounds: {} of {} s; last round committed {} blocks, {} txs at every replica",
        rounds.len(),
        WINDOW.as_secs_f64(),
        ledger.len(),
        ledger.committed_txs()
    ));
    out.note(format!(
        "simulator twin: untraced {} events, {} committed; traced loop {} events, {} committed",
        reference.events_processed, reference.committed_txs, totals.events, totals.committed
    ));
    let calls = &last.calls;
    out.note(format!(
        "TcpCluster calls (last round): spawn {:.3} ms, submit {:.3} us per tx over {}, \
         committed_txs_floor {:.3} us per call over {}, shutdown_with_hosts {:.3} ms",
        calls.spawn.as_secs_f64() * 1e3,
        calls.submit.0.as_secs_f64() * 1e6 / calls.submit.1.max(1) as f64,
        calls.submit.1,
        calls.floor.0.as_secs_f64() * 1e6 / calls.floor.1.max(1) as f64,
        calls.floor.1,
        calls.shutdown.as_secs_f64() * 1e3
    ));
}
