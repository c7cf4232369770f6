//! Statistics helpers: medians and quartiles over repeated measurements,
//! nearest-rank percentiles over latency samples, the rule that picks the
//! highest percentile a sample count can support, and the visibility-lag
//! bookkeeping of the open-loop serving windows.

/// The percentiles a latency report may quote, lowest first.
pub const PERCENTILES: [f64; 5] = [0.50, 0.90, 0.99, 0.999, 0.9999];

/// Samples that must lie strictly beyond a percentile before it is quoted.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Quartiles `(q1, q2, q3)` by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so the spreads printed here match
/// the ones an outside check computes; `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        // j is 1-based rank of the lower neighbour, clamped to the data.
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile distance as a share of the median (0 when the median
/// is 0); `None` below two values.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    Some(if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2.abs() })
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p·n` samples at or below it; `None` when empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Samples strictly beyond the nearest-rank `p` percentile of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    n - rank
}

/// The highest of [`PERCENTILES`] that has at least
/// [`MIN_SAMPLES_BEYOND`] samples beyond it, so a tail figure always
/// rests on ten or more observations; `None` below the median's need.
pub fn highest_reportable(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|&p| reportable(n, p))
}

/// Whether the `p` percentile of `n` samples may be quoted.
pub fn reportable(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_SAMPLES_BEYOND
}

/// A latency sample set: collects, then summarizes by nearest rank.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<u64>,
    sorted: bool,
}

impl Samples {
    /// An empty set with room for `n` samples.
    pub fn with_capacity(n: usize) -> Samples {
        Samples {
            values: Vec::with_capacity(n),
            sorted: true,
        }
    }

    /// Add one sample.
    pub fn push(&mut self, v: u64) {
        self.values.push(v);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.values.iter().sum()
    }

    /// Nearest-rank percentile (0 when empty).
    pub fn pct(&mut self, p: f64) -> u64 {
        if !self.sorted {
            self.values.sort_unstable();
            self.sorted = true;
        }
        percentile(&self.values, p).unwrap_or(0)
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.values.iter().copied().max().unwrap_or(0)
    }
}

/// Visibility-lag bookkeeping for an open-loop ingest phase.
///
/// Each ingested event is registered with the time it was due. When a
/// reader observes a published snapshot covering `n` events, every event
/// before position `n` became visible at that moment, so each one not yet
/// marked gets its lag: observation time minus due time. Positions are
/// relative to the first event of the phase.
#[derive(Debug, Clone, Default)]
pub struct LagTracker {
    due_ns: Vec<u64>,
    lag_ns: Vec<u64>,
}

impl LagTracker {
    /// An empty tracker with room for `n` events.
    pub fn with_capacity(n: usize) -> LagTracker {
        LagTracker {
            due_ns: Vec::with_capacity(n),
            lag_ns: Vec::with_capacity(n),
        }
    }

    /// Register the next event's due time (ns since the phase start).
    pub fn push_due(&mut self, due_ns: u64) {
        self.due_ns.push(due_ns);
    }

    /// Events whose lag is known (a prefix of the registered ones).
    pub fn visible(&self) -> usize {
        self.lag_ns.len()
    }

    /// A reader saw the first `n` events at `now_ns`. Positions already
    /// marked keep their earlier (smaller) lag; positions not yet
    /// registered are ignored.
    pub fn observe(&mut self, n: usize, now_ns: u64) {
        let n = n.min(self.due_ns.len());
        for i in self.lag_ns.len()..n {
            self.lag_ns.push(now_ns.saturating_sub(self.due_ns[i]));
        }
    }

    /// Lags of the events due before `end_ns`, or `None` if any of them
    /// was never seen (due times are registered in ascending order).
    pub fn lags_due_before(&self, end_ns: u64) -> Option<Samples> {
        let n = self.due_ns.partition_point(|&d| d < end_ns);
        let lags = self.lag_ns.get(..n)?;
        let mut s = Samples::with_capacity(n);
        for &v in lags {
            s.push(v);
        }
        Some(s)
    }

    /// How much the lag rose over the phase: the median lag of the last
    /// quarter of visible events minus that of the first quarter (0 below
    /// eight visible events).
    pub fn lag_rise_ns(&self) -> f64 {
        let n = self.lag_ns.len();
        if n < 8 {
            return 0.0;
        }
        let quarter = n / 4;
        let med = |s: &[u64]| {
            let mut v = s.to_vec();
            v.sort_unstable();
            v[v.len() / 2] as f64
        };
        med(&self.lag_ns[n - quarter..]) - med(&self.lag_ns[..quarter])
    }
}

/// True when the backlog grows: the median over windows of the lag rise
/// within each window exceeds `slack_ns` (one publication period is the
/// natural slack). A growing backlog means the offered rate was not
/// sustained, so the open-loop figures are invalid. A stall that lifts the
/// lag in a few windows does not move the median.
pub fn backlog_grows(rises_ns: &[f64], slack_ns: f64) -> bool {
    median(rises_ns).is_some_and(|m| m > slack_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), Some((1.25, 2.5, 3.75)));
        // Two values extrapolate past the ends: [1, 2] -> [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = relative_spread(&v).unwrap_or(f64::NAN);
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[5.0; 10]), Some(0.0));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        // 19 samples: the median leaves 9 beyond, not enough.
        assert_eq!(highest_reportable(19), None);
        assert_eq!(highest_reportable(20), Some(0.50));
        // p90 needs 100 samples (rank 90, 10 beyond).
        assert_eq!(highest_reportable(99), Some(0.50));
        assert_eq!(highest_reportable(100), Some(0.90));
        // p99 needs 1000, p99.9 needs 10000.
        assert_eq!(highest_reportable(999), Some(0.90));
        assert_eq!(highest_reportable(1000), Some(0.99));
        assert_eq!(highest_reportable(10_000), Some(0.999));
        assert_eq!(highest_reportable(100_000), Some(0.9999));
        assert!(reportable(1000, 0.99));
        assert!(!reportable(999, 0.99));
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn samples_summary() {
        let mut s = Samples::with_capacity(4);
        for v in [30, 10, 40, 20] {
            s.push(v);
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.sum(), 100);
        assert_eq!(s.pct(0.5), 20);
        assert_eq!(s.max(), 40);
        s.push(5);
        assert_eq!(s.pct(0.0), 5, "re-sorts after a push");
    }

    #[test]
    fn lag_marks_each_event_once_at_first_sight() {
        let mut t = LagTracker::with_capacity(8);
        for due in [0, 10, 20, 30] {
            t.push_due(due);
        }
        let lags = |t: &LagTracker, end| {
            let mut s = t.lags_due_before(end).unwrap_or_default();
            (s.len(), s.sum(), s.pct(0.0), s.max())
        };
        // A snapshot covering 2 events is seen at t=25: lags 25 and 15.
        t.observe(2, 25);
        assert_eq!(lags(&t, 20), (2, 40, 15, 25));
        assert_eq!(t.visible(), 2);
        // Events due at 20 and 30 are not seen yet.
        assert!(t.lags_due_before(21).is_none());
        // Seeing the same cut later changes nothing.
        t.observe(2, 90);
        assert_eq!(lags(&t, 20), (2, 40, 15, 25));
        // A cut beyond the registered events is clamped: lags 20 and 10.
        t.observe(9, 40);
        assert_eq!(lags(&t, 40), (4, 70, 10, 25));
        // An event observed before its due time (cannot happen with a
        // monotone clock, but must not underflow).
        t.push_due(100);
        t.observe(5, 50);
        assert_eq!(lags(&t, 101).1, 70);
        assert_eq!(t.visible(), 5);
    }

    #[test]
    fn backlog_detection() {
        // Sawtooth lag with a fixed period: no rise.
        let mut steady = LagTracker::with_capacity(400);
        for i in 0..400u64 {
            steady.push_due(i * 10);
        }
        for cut in (40..=400).step_by(40) {
            steady.observe(cut, (cut as u64 - 1) * 10 + 5);
        }
        assert!(steady.lag_rise_ns().abs() < 400.0);
        // Visibility falling further behind every publication: rising.
        let mut growing = LagTracker::with_capacity(400);
        for i in 0..400u64 {
            growing.push_due(i * 10);
        }
        for (k, cut) in (40..=400).step_by(40).enumerate() {
            growing.observe(cut, (cut as u64 - 1) * 10 + 5 + k as u64 * 300);
        }
        assert!(growing.lag_rise_ns() > 400.0);
        assert_eq!(LagTracker::default().lag_rise_ns(), 0.0);
        // The run-level rule takes the median over windows: one stalled
        // window does not flag it, a rise in most windows does.
        assert!(!backlog_grows(&[0.0, 10.0, 900.0, -5.0, 3.0], 400.0));
        assert!(backlog_grows(&[500.0, 600.0, 0.0, 700.0, 450.0], 400.0));
        assert!(!backlog_grows(&[], 400.0));
    }
}
