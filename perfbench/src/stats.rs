//! Estimators and operation accounting shared by every workload.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by the nearest-rank rule on a
/// sorted copy: the smallest sample with at least `q · n` samples at or
/// below it. `None` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of `samples` (the mean of the two middle values for an even
/// count), `None` for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// The longest gap between consecutive entries of an ascending sequence of
/// event times, `None` with fewer than two events.
pub fn longest_gap(times: &[f64]) -> Option<f64> {
    times
        .windows(2)
        .map(|pair| pair[1] - pair[0])
        .max_by(|a, b| a.total_cmp(b))
}

/// The operations of one run: every operation attempted either committed,
/// failed (refused at admission or at the client-signature check, or still
/// uncommitted after the drain period where a workload has one), or was
/// still in flight when the measurement window closed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Accounting {
    /// Operations issued.
    pub attempted: u64,
    /// Operations that committed.
    pub committed: u64,
    /// Operations refused or lost for good.
    pub failed: u64,
}

impl Accounting {
    /// Operations neither committed nor failed when the window closed.
    /// `None` if the counts are inconsistent (more resolved than issued).
    pub fn in_flight(&self) -> Option<u64> {
        self.attempted.checked_sub(self.committed + self.failed)
    }

    /// Adds another round's counts.
    pub fn add(&mut self, other: Accounting) {
        self.attempted += other.attempted;
        self.committed += other.committed;
        self.failed += other.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_follow_the_nearest_rank_rule() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.5), Some(50.0));
        assert_eq!(quantile(&samples, 0.99), Some(99.0));
        assert_eq!(quantile(&samples, 1.0), Some(100.0));
        assert_eq!(quantile(&samples, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn longest_gap_finds_the_widest_stall() {
        assert_eq!(longest_gap(&[0.0, 1.0, 1.5, 9.0, 9.5]), Some(7.5));
        assert_eq!(longest_gap(&[3.0]), None);
    }

    #[test]
    fn accounting_balances_in_flight() {
        let mut total = Accounting::default();
        total.add(Accounting {
            attempted: 10,
            committed: 7,
            failed: 1,
        });
        total.add(Accounting {
            attempted: 5,
            committed: 5,
            failed: 0,
        });
        assert_eq!(total.in_flight(), Some(2));
        let broken = Accounting {
            attempted: 1,
            committed: 2,
            failed: 0,
        };
        assert_eq!(broken.in_flight(), None);
    }
}
