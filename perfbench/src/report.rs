//! The result of one benchmark run and how it is printed.

use std::fmt::Write as _;

use crate::stats::Accounting;

/// One named metric with its unit and the number of samples behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
    /// How many samples (rounds, latencies, calls) the value rests on.
    pub samples: usize,
}

/// Everything one run found: its metrics, its operation counts, the output
/// checks that failed, and free-form lines worth printing beside them.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    /// Operations attempted, committed and failed over the whole run.
    pub accounting: Accounting,
    errors: Vec<String>,
    notes: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// Records an output check; `what` describes the failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Records a line printed beside the metrics.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Whether every output check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
            && self.metrics.iter().all(|m| m.value.is_finite())
            && self.accounting.in_flight().is_some()
            && self.accounting.attempted > 0
    }

    /// The human-readable lines: notes, metrics with units and sample counts,
    /// operation counts and failed checks.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{:<34} {:>16.4} {:<8} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        let a = self.accounting;
        let _ = writeln!(
            out,
            "operations: attempted {} committed {} failed {} in_flight {}",
            a.attempted,
            a.committed,
            a.failed,
            a.in_flight()
                .map_or_else(|| "inconsistent".to_string(), |n| n.to_string())
        );
        for error in &self.errors {
            let _ = writeln!(out, "CHECK FAILED: {error}");
        }
        out
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and the
    /// metrics as `{"value", "unit"}` objects.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            // `{}` prints the shortest representation that round-trips, so
            // no digit of the measurement is lost. Non-finite values are not
            // JSON; they make the run incorrect and print as null.
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.accounting.attempted,
            self.accounting.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut report = Report {
            accounting: Accounting {
                attempted: 10,
                committed: 9,
                failed: 1,
            },
            ..Report::default()
        };
        report.metric("latency_ms", "ms", 1.25, 3);
        report.metric("setup_s", "s", 0.5, 5);
        assert_eq!(
            report.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn failed_checks_and_bad_values_make_the_run_incorrect() {
        let mut report = Report::default();
        report.accounting.attempted = 1;
        report.accounting.committed = 1;
        assert!(report.correct());
        report.metric("x", "ms", f64::NAN, 1);
        assert!(!report.correct());
        assert!(report.json().contains("\"value\": null"));

        let mut report = Report::default();
        report.accounting.attempted = 1;
        report.check(false, || "ledgers differ".to_string());
        assert!(!report.correct());
        assert!(report.human().contains("CHECK FAILED: ledgers differ"));
    }
}
