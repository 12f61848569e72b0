//! Order statistics for the benchmark's reported numbers.
//!
//! Timings are reported as a median plus the highest percentile that
//! still leaves at least [`MIN_BEYOND`] samples above it, so a tail
//! figure is never read off a handful of outliers.

use std::time::{Duration, Instant};

/// Samples a reported tail percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs` (any order).
/// `None` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median of `xs`, `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// Samples strictly above the `p`-th percentile's rank in a sample of
/// `n` (the ones a `p`-th percentile "leaves beyond it").
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

/// The highest of `candidates` (percentiles, e.g. `[99.0, 95.0, 90.0]`)
/// that leaves at least [`MIN_BEYOND`] of `n` samples beyond it.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| beyond(n, p) >= MIN_BEYOND)
        .fold(None, |best: Option<f64>, p| {
            Some(best.map_or(p, |b| b.max(p)))
        })
}

/// One open-loop request: when it was due, when the generator actually
/// sent it, and when (if ever) a successful reply arrived.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    /// Scheduled send time.
    pub due: Instant,
    /// Actual send time (never before `due`).
    pub sent: Instant,
    /// Reply time, `None` for a failed request.
    pub done: Option<Instant>,
}

impl Sent {
    /// Latency as the user sees it: from the due time, so a stalled
    /// generator or server charges every request queued behind it.
    /// A failed request counts as missing every limit.
    pub fn latency(&self) -> Duration {
        match self.done {
            Some(done) => done.duration_since(self.due),
            None => Duration::MAX,
        }
    }

    /// How late the generator sent the request.
    pub fn lateness(&self) -> Duration {
        self.sent.duration_since(self.due)
    }
}

/// Latencies in milliseconds (failures as `+inf`, so they sort last and
/// push every percentile they reach past any limit).
pub fn latencies_ms(sent: &[Sent]) -> Vec<f64> {
    sent.iter()
        .map(|s| match s.done {
            Some(_) => s.latency().as_secs_f64() * 1e3,
            None => f64::INFINITY,
        })
        .collect()
}

/// Whether `new` is worse than `base` by more than the share `bound`
/// of `base`, for a metric where lower (or higher) is better.
pub fn regressed(base: f64, new: f64, bound: f64, lower_is_better: bool) -> bool {
    let worse_by = if lower_is_better {
        new - base
    } else {
        base - new
    };
    worse_by > bound * base.abs()
}

/// Interquartile distance as a share of the median: the spread the
/// acceptance check compares against a metric's bound. Quartiles use
/// the "exclusive" method (Python's `statistics.quantiles(xs, n=4)`),
/// so the figure matches that check exactly. `None` below 2 samples.
pub fn spread(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    let quartile = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((quartile(3) - quartile(1)) / median(xs)?.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        let cands = [99.0, 95.0, 90.0, 75.0];
        // 1000 samples: p99 leaves exactly 10 beyond it.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(highest_supported(1000, &cands), Some(99.0));
        // 999 samples: p99 leaves 9, so p95 (49 beyond) is the highest.
        assert_eq!(highest_supported(999, &cands), Some(95.0));
        assert_eq!(highest_supported(200, &cands), Some(95.0));
        assert_eq!(highest_supported(199, &cands), Some(90.0));
        assert_eq!(highest_supported(40, &cands), Some(75.0));
        assert_eq!(highest_supported(39, &cands), None);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let due = Instant::now();
        // The generator ran 30 ms late and the server took 20 ms: the
        // user waited 50 ms, not the 20 ms a send-time clock would show.
        let s = Sent {
            due,
            sent: due + Duration::from_millis(30),
            done: Some(due + Duration::from_millis(50)),
        };
        assert_eq!(s.latency(), Duration::from_millis(50));
        assert_eq!(s.lateness(), Duration::from_millis(30));
        let failed = Sent { done: None, ..s };
        assert_eq!(failed.latency(), Duration::MAX);
        let ms = latencies_ms(&[s, failed]);
        assert!((ms[0] - 50.0).abs() < 1e-9);
        assert!(ms[1].is_infinite());
        // A failure lands in the tail, past any finite limit.
        assert!(quantile(&ms, 0.99).unwrap() > 1e9);
    }

    #[test]
    fn bound_comparison_respects_direction() {
        // Lower is better: 10% worse passes a 0.1 bound only up to it.
        assert!(!regressed(100.0, 110.0, 0.1, true));
        assert!(regressed(100.0, 110.1, 0.1, true));
        assert!(!regressed(100.0, 50.0, 0.1, true));
        // Higher is better: a drop is the regression.
        assert!(!regressed(0.95, 0.91, 0.05, false));
        assert!(regressed(0.95, 0.90, 0.05, false));
        assert!(!regressed(0.95, 0.99, 0.05, false));
    }

    #[test]
    fn spread_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs).unwrap() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([8, 9, 10, 11, 12], n=4) == [8.5, 10.0, 11.5]
        let ys = [12.0, 8.0, 10.0, 11.0, 9.0];
        assert!((spread(&ys).unwrap() - 0.3).abs() < 1e-12);
        assert_eq!(spread(&[1.0]), None);
    }
}
