//! The per-layer metrics a traced run prints, in `BENCHMARK.json` order.

use std::collections::BTreeMap;

use bamboo_core::RunReport;

use crate::report::Report;
use crate::trace::{Spans, Totals};

/// Every per-layer metric with its unit. A traced run prints all of them on
/// every workload; a layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("runner.events", "count"),
    ("runner.events_per_s", "1/s"),
    ("runner.queue_peak", "count"),
    ("queue.ns_per_op", "ns"),
    ("latency.ns_per_sample", "ns"),
    ("replica.us_per_msg", "us"),
    ("replica.msgs_per_block", "count"),
    ("replica.txs_per_block", "count"),
    ("replica.bytes_per_tx", "B"),
    ("replica.timeout_views", "count"),
    ("auth.us_per_msg", "us"),
    ("workload.us_per_tx", "us"),
    ("edge.us_per_request", "us"),
    ("mempool.requeued", "count"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.last_bytes", "B"),
    ("storage.restart_ms", "ms"),
    ("storage.records_replayed", "count"),
    ("storage.log_replay_ms", "ms"),
    ("recovery.sync_bytes", "B"),
    ("recovery.catch_up_ms", "ms"),
    ("net.bytes_per_tx", "B"),
    ("wire.encode_us_per_msg", "us"),
    ("wire.decode_us_per_msg", "us"),
    ("frame.decode_us_per_frame", "us"),
    ("net.reconnects", "count"),
    ("net.dropped_frames", "count"),
    ("ledger.fingerprint_history_ms", "ms"),
    ("loadgen.lag_ms", "ms"),
];

/// Per-layer values collected by a traced run, each with its sample count.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl Layers {
    /// Sets `name` (which must be one of [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "unknown layer metric {name}"
        );
        self.values.insert(name, (value, samples));
    }

    /// The exact counters of an untraced runner report, plus the runner's
    /// event rate over `wall` seconds.
    pub fn add_report(&mut self, report: &RunReport, wall: f64) {
        let blocks = report.committed_blocks.max(1) as f64;
        let txs = report.committed_txs.max(1) as f64;
        let r = &report.recovery;
        self.set("runner.events", report.events_processed as f64, 1);
        self.set(
            "runner.events_per_s",
            report.events_processed as f64 / wall,
            1,
        );
        self.set("runner.queue_peak", report.queue_peak_len as f64, 1);
        self.set(
            "replica.msgs_per_block",
            report.messages_sent as f64 / blocks,
            report.committed_blocks as usize,
        );
        self.set(
            "replica.txs_per_block",
            report.committed_txs as f64 / blocks,
            report.committed_blocks as usize,
        );
        self.set(
            "replica.bytes_per_tx",
            report.bytes_sent as f64 / txs,
            report.committed_txs as usize,
        );
        self.set(
            "replica.timeout_views",
            report.timeout_view_changes as f64,
            1,
        );
        self.set("mempool.requeued", report.mempool.requeued as f64, 1);
        self.set("storage.records_replayed", r.records_replayed as f64, 1);
        self.set(
            "storage.log_replay_ms",
            r.log_replay_ms,
            r.durable_restarts as usize,
        );
        self.set("recovery.sync_bytes", r.sync_bytes as f64, 1);
        self.set(
            "recovery.catch_up_ms",
            r.recovery_time_ms,
            r.durable_restarts as usize,
        );
    }

    /// The timed calls of the traced simulator loop.
    pub fn add_spans(&mut self, spans: &Spans, totals: &Totals) {
        let per = |name: &str, unit: f64| (spans.per_item(name, unit), spans.items(name) as usize);
        let mut put =
            |metric: &'static str, (value, samples): (f64, usize)| self.set(metric, value, samples);
        put("queue.ns_per_op", per("queue.op", 1e-9));
        put("latency.ns_per_sample", per("latency.sample", 1e-9));
        put("replica.us_per_msg", per("replica.handle_verified", 1e-6));
        put("auth.us_per_msg", per("auth.verify", 1e-6));
        put("workload.us_per_tx", per("workload.arrivals", 1e-6));
        put("edge.us_per_request", per("edge.client_batch", 1e-6));
        put("snapshot.encode_ms", per("snapshot.encode", 1e-3));
        put("storage.restart_ms", per("storage.restart", 1e-3));
        put("wire.encode_us_per_msg", per("wire.encode", 1e-6));
        put("wire.decode_us_per_msg", per("wire.decode", 1e-6));
        put("frame.decode_us_per_frame", per("frame.decode", 1e-6));
        self.set("snapshot.last_bytes", totals.snapshot_bytes as f64, 1);
        self.set(
            "net.bytes_per_tx",
            totals.framed_bytes as f64 / totals.committed.max(1) as f64,
            totals.committed as usize,
        );
    }

    /// Prints every per-layer metric into `out`; a missing one is a fault of
    /// the benchmark and makes the run incorrect.
    pub fn emit(&self, out: &mut Report) {
        for (name, unit) in PER_LAYER {
            match self.values.get(name) {
                Some(&(value, samples)) => out.metric(name, unit, value, samples),
                None => {
                    out.check(false, || {
                        format!("per-layer metric {name} was not measured")
                    });
                    out.metric(name, unit, f64::NAN, 0);
                }
            }
        }
    }
}
