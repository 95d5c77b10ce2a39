//! The three simulator workloads, run untraced through `SimRunner`.
//!
//! A run repeats one input — the workload built from `--seed` — in rounds
//! until the measurement window is over. Every round sets the engine up
//! several times, runs it once at one shard and once at two, and checks
//! both reports against the first. The simulated metrics (goodput, latency,
//! outage) are exact and identical in every round, so they are read once;
//! the wall-clock metrics are medians over rounds.

use std::time::{Duration, Instant};

use bamboo_core::{FaultTrigger, NodeFault, RunOptions, RunReport, SimRunner, StorageFault};
use bamboo_types::{Config, NodeId, ProtocolKind, SimDuration, SimTime};

use crate::host;
use crate::layers::Layers;
use crate::report::Report;
use crate::stats::{self, Accounting};
use crate::trace::{self, Spans};

/// Engine set-ups timed per round; `setup_s` is the median over all of them.
const SETUPS_PER_ROUND: usize = 5;

/// Width of the committed-throughput buckets the outage is read from
/// (10 µs: a 1 s run keeps 100 000 of them).
pub const OUTAGE_BUCKET: SimDuration = SimDuration(10_000);

/// One simulator workload: a protocol, a configuration and a fault schedule.
#[derive(Clone)]
pub struct SimSpec {
    /// Protocol every replica runs.
    pub protocol: ProtocolKind,
    /// The Table-I configuration, seeded from `--seed`.
    pub config: Config,
    /// Scheduled durable restarts (empty for fault-free workloads).
    pub faults: Vec<NodeFault>,
    /// Simulated length of a timed round: the whole run, or the first part
    /// of it where a whole run takes much longer than the others' rounds.
    pub round_runtime: SimDuration,
}

impl SimSpec {
    /// Run options for `threads` engine shards.
    pub fn options(&self, threads: usize) -> RunOptions {
        RunOptions {
            node_faults: self.faults.clone(),
            series_bucket: OUTAGE_BUCKET,
            threads,
            ..RunOptions::default()
        }
    }

    /// Builds a runner for the whole run at `threads` shards.
    pub fn runner(&self, threads: usize) -> SimRunner {
        SimRunner::new(self.config.clone(), self.protocol, self.options(threads))
    }

    /// Builds a runner for one timed round at `threads` shards. The engine
    /// reads the runtime only to know when to stop, so a shorter round runs
    /// the first part of the same execution.
    pub fn round_runner(&self, threads: usize) -> SimRunner {
        let mut config = self.config.clone();
        config.runtime = self.round_runtime;
        SimRunner::new(config, self.protocol, self.options(threads))
    }

    /// Simulated length of one run.
    pub fn runtime(&self) -> SimDuration {
        self.config.runtime
    }

    /// Offered load in transactions per second.
    pub fn rate(&self) -> f64 {
        self.config
            .arrival_rate
            .expect("every workload offers open-loop load")
    }
}

/// The simulator workload named `name`, with inputs derived from `seed`.
pub fn spec(name: &str, seed: u64) -> Option<SimSpec> {
    let base = Config::builder().seed(seed);
    let spec = match name {
        // The engine and the n = 64 vote fan-out: an unsigned load far
        // below capacity, so neither the edge nor the mempool works hard.
        "sim_hs_n64" => SimSpec {
            protocol: ProtocolKind::HotStuff,
            config: base
                .nodes(64)
                .block_size(400)
                .payload_size(128)
                .timeout(SimDuration::from_millis(100))
                .runtime(SimDuration::from_millis(1000))
                .arrival_rate(20_000.0)
                .build()
                .expect("valid sim_hs_n64 configuration"),
            faults: Vec::new(),
            round_runtime: SimDuration::from_millis(250),
        },
        // The client edge: a million signed clients into sharded mempools,
        // at about half the rate where goodput stops tracking offered load,
        // so nothing is refused.
        "sim_signed_ingress" => SimSpec {
            protocol: ProtocolKind::TwoChainHotStuff,
            config: base
                .nodes(8)
                .block_size(400)
                .payload_size(32)
                .timeout(SimDuration::from_millis(100))
                .runtime(SimDuration::from_millis(500))
                .client_population(1_000_000)
                .signed_requests(true)
                .mempool_shards(8)
                .arrival_rate(150_000.0)
                .build()
                .expect("valid sim_signed_ingress configuration"),
            faults: Vec::new(),
            round_runtime: SimDuration::from_millis(250),
        },
        // Storage and recovery: checkpoints, the durable segment log, and two
        // durable restarts, the second through a dropped fsync batch.
        "sim_durable_restart" => {
            let restart = |node: u64, crash_ms: u64, recover_ms: u64, fault| NodeFault {
                node: NodeId(node),
                crash: FaultTrigger::At(SimTime::ZERO + SimDuration::from_millis(crash_ms)),
                recover: Some(FaultTrigger::At(
                    SimTime::ZERO + SimDuration::from_millis(recover_ms),
                )),
                amnesia: false,
                durable: true,
                storage_fault: fault,
            };
            SimSpec {
                protocol: ProtocolKind::HotStuff,
                config: base
                    .nodes(8)
                    .block_size(100)
                    .payload_size(32)
                    .timeout(SimDuration::from_millis(50))
                    .runtime(SimDuration::from_millis(1200))
                    .checkpoint_interval(32)
                    .durable_log(true)
                    .fsync_interval(8)
                    .arrival_rate(8_000.0)
                    .build()
                    .expect("valid sim_durable_restart configuration"),
                faults: vec![
                    restart(1, 200, 500, None),
                    restart(2, 600, 900, Some(StorageFault::DropFsync { index: 4 })),
                ],
                round_runtime: SimDuration::from_millis(1200),
            }
        }
        _ => return None,
    };
    Some(spec)
}

/// The operations of one simulator run: every issued transaction is
/// attempted; admission and client-signature refusals failed; the rest that
/// did not commit were still in flight (or, where a replica was down, lost
/// with the batch that carried them — see the README).
pub fn accounting(report: &RunReport) -> Accounting {
    Accounting {
        attempted: report.committed_txs + report.pending_txs,
        committed: report.committed_txs,
        failed: report.mempool.rejected + report.client_auth_rejections,
    }
}

/// The longest span without a commit at the observer, in simulated ms, read
/// from the 10 µs committed-throughput series after a warm-up of the first
/// tenth of the run: the gaps while the pipeline first fills say nothing
/// about service (`None` with under two non-empty buckets).
pub fn outage_ms(report: &RunReport, runtime: SimDuration) -> Option<f64> {
    let warm = runtime.as_millis_f64() / 10.0;
    let busy: Vec<f64> = report
        .throughput_series
        .iter()
        .filter(|sample| sample.tx_per_sec > 0.0)
        .map(|sample| sample.at.as_millis_f64())
        .filter(|&at| at >= warm)
        .collect();
    stats::longest_gap(&busy)
}

/// Output checks every simulator report must pass.
pub fn check_report(name: &str, spec: &SimSpec, run: &RunReport, out: &mut Report) {
    out.check(run.safety_violations == 0, || {
        format!("{} safety violations", run.safety_violations)
    });
    let a = accounting(run);
    out.check(a.failed == 0, || {
        format!(
            "{} refusals ({} at admission, {} at the client-signature check)",
            a.failed, run.mempool.rejected, run.client_auth_rejections
        )
    });
    out.check(run.rejected_messages == 0, || {
        format!(
            "{} replica messages failed verification",
            run.rejected_messages
        )
    });
    // Committed plus pending equals what the client generator issued,
    // counted apart by replaying the generator, and the generator kept to
    // the offered rate (within five standard deviations of a Poisson count).
    let issued = trace::issued_by_runner(spec);
    out.check(a.attempted == issued, || {
        format!(
            "{} committed + {} pending, but {issued} issued",
            run.committed_txs, run.pending_txs
        )
    });
    let offered = spec.rate() * spec.runtime().as_secs_f64();
    out.check(
        (issued as f64 - offered).abs() < 5.0 * offered.sqrt(),
        || format!("{issued} issued at {offered:.0} offered"),
    );
    // Goodput is the offered rate less what is still in flight at the end:
    // about one commit latency's worth of arrivals, plus, where a replica
    // was down, the batches lost with it.
    out.check(a.committed as f64 >= 0.85 * a.attempted as f64, || {
        format!(
            "{name}: only {} of {} issued committed",
            a.committed, a.attempted
        )
    });
    if !spec.faults.is_empty() {
        let r = &run.recovery;
        out.check(r.durable_restarts == spec.faults.len() as u64, || {
            format!(
                "{} durable restarts counted, {} scheduled",
                r.durable_restarts,
                spec.faults.len()
            )
        });
        out.check(r.recovered_caught_up, || {
            "a restarted replica did not catch up with the honest chain".to_string()
        });
        out.check(r.records_replayed > 0, || {
            "no log record was replayed".to_string()
        });
    }
}

/// Two reports of the same input describe the same execution.
fn same_execution(a: &RunReport, b: &RunReport) -> bool {
    a.ledger_fingerprint == b.ledger_fingerprint
        && a.committed_txs == b.committed_txs
        && a.pending_txs == b.pending_txs
        && a.events_processed == b.events_processed
        && a.committed_blocks == b.committed_blocks
}

/// Wall-clock figures of one timed round. Run times exclude what the
/// hypervisor stole meanwhile (`None`: the round was stolen outright).
struct Round {
    setup: Vec<f64>,
    one_shard: Option<Duration>,
    two_shards: Option<Duration>,
    report: RunReport,
}

/// One timed round: several set-ups, then one run at one shard and one at
/// two.
fn round(spec: &SimSpec, out: &mut Report) -> Round {
    let mut setup = Vec::with_capacity(SETUPS_PER_ROUND);
    let mut runner = None;
    for _ in 0..SETUPS_PER_ROUND {
        let (built, busy) = host::unstolen(|| spec.round_runner(1));
        setup.extend(busy.map(|d| d.as_secs_f64()));
        runner = Some(built);
    }
    let runner = runner.expect("at least one set-up per round");
    let (report, one_shard) = host::unstolen(|| runner.run());
    let two_runner = spec.round_runner(2);
    let (two, two_shards) = host::unstolen(|| two_runner.run());
    out.check(same_execution(&two, &report), || {
        format!(
            "two shards disagree with one: fingerprint {} vs {}, {} vs {} committed",
            two.ledger_fingerprint,
            report.ledger_fingerprint,
            two.committed_txs,
            report.committed_txs
        )
    });
    Round {
        setup,
        one_shard,
        two_shards,
        report,
    }
}

/// The untraced run: every end-to-end metric.
pub fn run(name: &str, spec: &SimSpec, seconds: u64, out: &mut Report) {
    // The whole run is not timed. It gives the simulated metrics, which are
    // exact, and it faults the allocator's pages in and warms the caches
    // before the timed rounds.
    let reference = spec.runner(1).run();
    // The high-water mark of the one-shard whole run: the timed two-shard
    // rounds add per-thread allocator arenas whose growth depends on thread
    // timing, not on the workload.
    let peak_rss_mb = host::peak_rss_mb();
    check_report(name, spec, &reference, out);
    out.accounting.add(accounting(&reference));

    let window = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.is_empty() || started.elapsed() < window {
        let round = round(spec, out);
        if let Some(first) = rounds.first() {
            out.check(same_execution(&round.report, &first.report), || {
                "a repeated round diverged from the first".to_string()
            });
        }
        out.accounting.add(accounting(&round.report));
        rounds.push(round);
    }

    let n = rounds.len();
    let round_secs = spec.round_runtime.as_secs_f64();
    let speed = |busy: &dyn Fn(&Round) -> Option<Duration>| -> Vec<f64> {
        rounds
            .iter()
            .filter_map(busy)
            .map(|d| round_secs / d.as_secs_f64())
            .collect()
    };
    let speed1 = speed(&|r| r.one_shard);
    let speed2 = speed(&|r| r.two_shards);
    // The one-shard engine runs on this thread alone, so its unstolen run
    // time is its CPU time.
    let ktx = rounds[0].report.committed_txs as f64 / 1000.0;
    let cpu: Vec<f64> = speed1
        .iter()
        .map(|s| round_secs / s * 1000.0 / ktx)
        .collect();
    let setup: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.setup.iter().copied())
        .collect();
    let latency = reference.client_latency;

    out.metric(
        "goodput_tps",
        "tx/s",
        reference.throughput_tx_per_sec,
        reference.committed_txs as usize,
    );
    out.metric(
        "commit_p50_ms",
        "ms",
        latency.p50_ms,
        latency.count as usize,
    );
    out.metric(
        "commit_p99_ms",
        "ms",
        latency.p99_ms,
        latency.count as usize,
    );
    out.metric(
        "outage_ms",
        "ms",
        outage_ms(&reference, spec.runtime()).unwrap_or(f64::NAN),
        reference.throughput_series.len(),
    );
    let median = |values: &[f64]| stats::median(values).unwrap_or(f64::NAN);
    out.metric("sim_s_per_wall_s", "s/s", median(&speed1), speed1.len());
    // Two shards meet at a barrier every window, so interference on either
    // CPU stalls both, and more of it escapes the steal counter: the
    // fastest quarter of rounds, not the middle, tracks the engine.
    let fast_quarter = stats::quantile(&speed2, 0.75).unwrap_or(f64::NAN);
    out.metric("sim_s_per_wall_s_2shard", "s/s", fast_quarter, speed2.len());
    out.metric("cpu_ms_per_ktx", "ms", median(&cpu), cpu.len());
    out.metric(
        "setup_s",
        "s",
        stats::median(&setup).unwrap_or(f64::NAN),
        setup.len(),
    );
    out.metric("peak_rss_mb", "MiB", peak_rss_mb, 1);
    out.note(format!(
        "{name}: whole run of {} simulated s: {} committed, {} pending of {} issued, {} events, \
         fingerprint {}; then {n} timed rounds of {round_secs} simulated s at one and two shards",
        spec.runtime().as_secs_f64(),
        reference.committed_txs,
        reference.pending_txs,
        reference.committed_txs + reference.pending_txs,
        reference.events_processed,
        reference.ledger_fingerprint
    ));
    out.note(format!("per-round one-shard s/s {speed1:.3?}"));
    out.note(format!("per-round two-shard s/s {speed2:.3?}"));
}

/// The traced run: the exact counters of one untraced run, then whole runs
/// of the benchmark's own traced loop until the window is over.
pub fn traced(name: &str, spec: &SimSpec, seconds: u64, out: &mut Report) {
    let start = Instant::now();
    let reference = spec.runner(1).run();
    let wall = start.elapsed().as_secs_f64();
    check_report(name, spec, &reference, out);
    let mut layers = Layers::default();
    layers.add_report(&reference, wall);

    let mut spans = Spans::default();
    let window = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut runs = 0;
    let (totals, latencies, hosts) = loop {
        let (totals, latencies, hosts) = trace::run(spec, &mut spans);
        runs += 1;
        out.check(totals.safe, || {
            "the traced loop's replicas disagree".to_string()
        });
        out.check(totals.forged == 0, || {
            format!("{} envelopes failed to decode or verify", totals.forged)
        });
        out.check(totals.refused == 0, || {
            format!("{} transactions refused in the traced loop", totals.refused)
        });
        out.check(totals.issued == accounting(&reference).attempted, || {
            format!(
                "the traced loop issued {}, the runner {}",
                totals.issued,
                accounting(&reference).attempted
            )
        });
        out.accounting.add(Accounting {
            attempted: totals.issued,
            committed: totals.committed,
            failed: totals.refused,
        });
        if started.elapsed() >= window {
            break (totals, latencies, hosts);
        }
    };
    layers.add_spans(&spans, &totals);
    let observer = hosts.last().expect("at least one replica").replica();
    let history = trace::fingerprint_history(observer.ledger());
    layers.set(
        "ledger.fingerprint_history_ms",
        history.as_secs_f64() * 1000.0,
        observer.ledger().len() + 1,
    );
    // No sockets in the simulator: nothing reconnects, drops or lags.
    layers.set("net.reconnects", 0.0, 1);
    layers.set("net.dropped_frames", 0.0, 1);
    layers.set("loadgen.lag_ms", 0.0, 1);
    layers.emit(out);

    let p50 = stats::quantile(&latencies, 0.5).unwrap_or(f64::NAN);
    out.note(format!(
        "untraced runner: {} events, {} committed, {} pending of {} issued, p50 {:.3} ms, {:.3} s wall",
        reference.events_processed,
        reference.committed_txs,
        reference.pending_txs,
        accounting(&reference).attempted,
        reference.client_latency.p50_ms,
        wall
    ));
    out.note(format!(
        "traced loop ({runs} runs, last shown): {} events, {} committed of {} issued, p50 {p50:.3} ms, \
         {} txs lost in batches sent to crashed replicas, {:.3} s wall",
        totals.events,
        totals.committed,
        totals.issued,
        totals.lost_to_crashed,
        totals.wall.as_secs_f64()
    ));
    for (span, (total, items)) in spans.iter() {
        out.note(format!(
            "span {span:<26} {:>10.3} ms over {items} items",
            total.as_secs_f64() * 1000.0
        ));
    }
}
