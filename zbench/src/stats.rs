//! Exact order statistics over kept samples.
//!
//! Every latency sample is kept; quantiles are taken by nearest rank over
//! the sorted samples, never from bucketed histograms.

/// The value at percentile `p` (0 < p ≤ 100) by nearest rank: the
/// smallest sample such that at least `p`% of samples are ≤ it.
/// `sorted` must be ascending and non-empty.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    sorted[rank(p, n).clamp(1, n) - 1]
}

/// The 1-based nearest rank `⌈p·n/100⌉`, immune to the rounding of
/// decimal percentiles such as 99.9 in binary floating point.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0) - 1e-9).ceil() as usize
}

/// Percentiles a report may quote, lowest first.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest percentile of [`LADDER`] with at least ten samples beyond
/// its rank, or `None` when even the median lacks them.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n.saturating_sub(rank(p, n)) >= 10)
}

/// A latency distribution summarised for the report.
#[derive(Debug, Clone)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    /// Highest supported percentile and its value.
    pub top: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        if s.is_empty() {
            return Summary {
                n: 0,
                min: 0.0,
                p50: 0.0,
                p90: 0.0,
                p99: 0.0,
                top: None,
            };
        }
        Summary {
            n: s.len(),
            min: s[0],
            p50: nearest_rank(&s, 50.0),
            p90: nearest_rank(&s, 90.0),
            p99: nearest_rank(&s, 99.0),
            top: highest_supported(s.len()).map(|p| (p, nearest_rank(&s, p))),
        }
    }

    /// One human-readable line: median, p99, and the supported tail.
    pub fn describe(&self, unit: &str) -> String {
        let top = match self.top {
            Some((p, v)) => format!("highest supported p{p} = {v:.4} {unit}"),
            None => "no percentile has 10 samples beyond it".into(),
        };
        format!(
            "min {:.4} {unit}, p50 {:.4} {unit}, p90 {:.4} {unit}, p99 {:.4} {unit} (n = {}; {top})",
            self.min,
            self.p50, self.p90, self.p99, self.n
        )
    }
}

/// Median of a sample by nearest rank (the lower middle for even counts).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).p50
}

/// The set-up time a run reports: the 10th percentile, by nearest rank, of
/// its timed set-ups. A set-up takes milliseconds, while a shared host
/// slows down in phases that last longer than many set-ups, so a run's
/// median set-up moves with the phase it happened to land in; its low
/// tail is the set-up's own cost.
pub fn setup_time(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    nearest_rank(&s, 10.0)
}

/// Every latency sample of a high-rate workload, kept at 1 µs resolution
/// as a count per microsecond (a counting sort), so memory stays fixed
/// however many ops a run completes and peak RSS does not track
/// throughput. Samples of a second or more are kept as they are.
pub struct Micros {
    counts: Vec<u32>,
    over: Vec<f64>,
    n: usize,
}

const MICROS_RANGE: usize = 1_000_000;

impl Micros {
    pub fn new() -> Micros {
        Micros {
            counts: vec![0; MICROS_RANGE],
            over: Vec::new(),
            n: 0,
        }
    }

    pub fn push_ms(&mut self, ms: f64) {
        let us = (ms * 1e3).round();
        if us >= 0.0 && (us as usize) < MICROS_RANGE {
            self.counts[us as usize] += 1;
        } else {
            self.over.push(ms);
        }
        self.n += 1;
    }

    /// The sample of 1-based rank `r`, in ms.
    fn at_rank(&self, r: usize) -> f64 {
        let mut seen = 0;
        for (us, &c) in self.counts.iter().enumerate() {
            seen += c as usize;
            if seen >= r {
                return us as f64 / 1e3;
            }
        }
        let mut over = self.over.clone();
        over.sort_by(f64::total_cmp);
        over[r - seen - 1]
    }

    pub fn summary(&self) -> Summary {
        let n = self.n;
        if n == 0 {
            return Summary::of(&[]);
        }
        let at = |p: f64| self.at_rank(rank(p, n).clamp(1, n));
        Summary {
            n,
            min: self.at_rank(1),
            p50: at(50.0),
            p90: at(90.0),
            p99: at(99.0),
            top: highest_supported(n).map(|p| (p, at(p))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_ranks() {
        // n = 10: p50 → rank 5, p90 → rank 9, p99 → rank ceil(9.9) = 10.
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), 5.0);
        assert_eq!(nearest_rank(&s, 90.0), 9.0);
        assert_eq!(nearest_rank(&s, 99.0), 10.0);
        assert_eq!(nearest_rank(&s, 100.0), 10.0);
        // p10 → rank 1; a tiny p still picks the first sample.
        assert_eq!(nearest_rank(&s, 10.0), 1.0);
        assert_eq!(nearest_rank(&s, 0.1), 1.0);
        // n = 4: p25 → rank 1, p50 → rank 2, p75 → rank 3.
        let s = [3.0, 7.0, 8.0, 20.0];
        assert_eq!(nearest_rank(&s, 25.0), 3.0);
        assert_eq!(nearest_rank(&s, 50.0), 7.0);
        assert_eq!(nearest_rank(&s, 75.0), 8.0);
        // n = 1000: p99 → rank 990, p99.9 → rank 999.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 99.0), 990.0);
        assert_eq!(nearest_rank(&s, 99.9), 999.0);
        // Set-up time: n = 41 unsorted → p10 is rank ceil(4.1) = 5.
        let s: Vec<f64> = (1..=41).rev().map(f64::from).collect();
        assert_eq!(setup_time(&s), 5.0);
    }

    #[test]
    fn summary_sorts_and_reports_supported_tail() {
        let s: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let sum = Summary::of(&s);
        assert_eq!(sum.n, 1000);
        assert_eq!(sum.p50, 500.0);
        assert_eq!(sum.p90, 900.0);
        assert_eq!(sum.p99, 990.0);
        // p99 leaves 10 samples beyond rank 990; p99.9 leaves only 1.
        assert_eq!(sum.top, Some((99.0, 990.0)));
        assert_eq!(highest_supported(9), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(100_000), Some(99.99));
    }

    #[test]
    fn micros_agrees_with_sorted_samples_at_microsecond_resolution() {
        let mut x = 7u64;
        let mut samples = Vec::new();
        let mut log = Micros::new();
        for _ in 0..5000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Whole microseconds from 0.001 ms to ~3 s, some beyond the range.
            let ms = ((x >> 33) % 3_000_000) as f64 / 1e3;
            samples.push(ms);
            log.push_ms(ms);
        }
        let (a, b) = (Summary::of(&samples), log.summary());
        assert_eq!(a.n, b.n);
        for (u, v) in [
            (a.min, b.min),
            (a.p50, b.p50),
            (a.p90, b.p90),
            (a.p99, b.p99),
        ] {
            assert!((u - v).abs() < 1e-9, "{u} vs {v}");
        }
        assert_eq!(a.top, b.top);
    }
}
