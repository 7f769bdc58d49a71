//! Summary statistics shared by every workload: nearest-rank percentiles,
//! the tail-percentile rule, open-loop lag accounting, the error-rate
//! denominator, and the metric-name charset.

/// Percentile rungs a tail may be reported at, lowest first.
pub const TAIL_LADDER: [f64; 5] = [50.0, 75.0, 90.0, 99.0, 99.9];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p`% of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of the `p`-th percentile among `n > 0` samples,
/// in integer arithmetic so that e.g. p99.9 of 10 000 is exactly rank 9 990.
fn rank(n: usize, p: f64) -> usize {
    let milli = (p * 1000.0).round() as usize;
    (milli * n).div_ceil(100_000).clamp(1, n)
}

/// Samples strictly after the nearest-rank `p`-th percentile's position.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The tail rule: the highest rung of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it. Below 20 samples no rung
/// qualifies and the rule falls back to the median. Each workload fixes its
/// tails by applying this rule to its planned sample counts, so the reported
/// percentile does not change from run to run.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= TAIL_MIN_BEYOND)
        .unwrap_or(TAIL_LADDER[0])
}

/// One latency series: its samples in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Series {
    samples: Vec<f64>,
}

impl Series {
    pub fn push(&mut self, ms: f64) {
        self.samples.push(ms);
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut s = self.samples.clone();
        s.sort_by(f64::total_cmp);
        s
    }

    /// The median, or `None` without samples.
    pub fn p50(&self) -> Option<f64> {
        (!self.samples.is_empty()).then(|| percentile(&self.sorted(), 50.0))
    }

    /// The `p`-th percentile, or `None` without samples.
    pub fn at(&self, p: f64) -> Option<f64> {
        (!self.samples.is_empty()).then(|| percentile(&self.sorted(), p))
    }

    pub fn mean(&self) -> Option<f64> {
        (!self.samples.is_empty())
            .then(|| self.samples.iter().sum::<f64>() / self.samples.len() as f64)
    }
}

/// Open-loop timing of one scheduled operation, all offsets in
/// milliseconds from the start of the schedule. Latency counts from when the
/// operation was *due*, so a stall also charges the operations queued
/// behind it; lag is how late the generator actually sent it.
#[derive(Debug, Clone, Copy)]
pub struct Scheduled {
    pub due_ms: f64,
    pub sent_ms: f64,
    pub done_ms: f64,
}

impl Scheduled {
    pub fn latency_ms(&self) -> f64 {
        self.done_ms - self.due_ms
    }

    pub fn lag_ms(&self) -> f64 {
        (self.sent_ms - self.due_ms).max(0.0)
    }
}

/// Operation outcomes of a run. Every attempted operation — read, write,
/// read-your-write probe, durability check — counts once in the
/// denominator; failures, refusals, timeouts and wrong answers count once in
/// the numerator.
#[derive(Debug, Default, Clone, Copy)]
pub struct Outcomes {
    pub attempted: u64,
    pub failed: u64,
}

impl Outcomes {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, other: Outcomes) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Whether `name` is a legal metric or workload name: it starts with a
/// letter or digit and has at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: at most 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // 20 samples: only the median leaves 10 beyond it
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(200), 90.0);
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        // too few samples for any rung: fall back to the median
        assert_eq!(tail_percentile(5), 50.0);
        for n in [40, 100, 200, 999, 1000, 10_000] {
            let p = tail_percentile(n);
            assert!(beyond(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
            let higher = TAIL_LADDER.iter().find(|&&q| q > p);
            if let Some(&q) = higher {
                assert!(beyond(n, q) < TAIL_MIN_BEYOND, "n={n} skipped rung {q}");
            }
        }
    }

    #[test]
    fn beyond_counts_samples_after_the_rank() {
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(100, 99.0), 1);
        assert_eq!(beyond(20, 50.0), 10);
        assert_eq!(beyond(1, 50.0), 0);
        assert_eq!(beyond(0, 50.0), 0);
    }

    #[test]
    fn lag_and_latency_count_from_the_due_time() {
        // due at 100 ms, the generator was 30 ms late, the op took 5 ms
        let op = Scheduled {
            due_ms: 100.0,
            sent_ms: 130.0,
            done_ms: 135.0,
        };
        assert_eq!(op.lag_ms(), 30.0);
        assert_eq!(op.latency_ms(), 35.0);
        // sent a hair early by a coarse clock: lag never goes negative
        let early = Scheduled {
            due_ms: 100.0,
            sent_ms: 99.9,
            done_ms: 101.0,
        };
        assert_eq!(early.lag_ms(), 0.0);
        assert_eq!(early.latency_ms(), 1.0);
    }

    #[test]
    fn error_rate_counts_every_attempt_once() {
        let mut reads = Outcomes::default();
        for ok in [true, true, false, true] {
            reads.record(ok);
        }
        let mut writes = Outcomes::default();
        writes.record(true);
        writes.record(false);
        let mut all = reads;
        all.merge(writes);
        assert_eq!((all.attempted, all.failed), (6, 2));
        assert!((all.error_rate() - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(Outcomes::default().error_rate(), 0.0);
    }

    #[test]
    fn metric_name_charset() {
        for ok in [
            "read_p50_ms",
            "exec.drain_ms.parallel",
            "setup_s",
            "9lives",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "ü", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "MB", "bytes"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "milliseconds_per_op", "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
