//! Summary statistics: percentiles of raw samples, the tail rule, and
//! percentiles read off the servers' log₂-bucketed histograms.

use cso_obs::Histogram;

/// Percentiles the tail metric may report, lowest first.
pub const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// A tail percentile must leave at least this many samples above it, so
/// one slow epoch cannot be the whole figure.
pub const MIN_BEYOND_TAIL: f64 = 10.0;

/// The `p`-th percentile (`p` in `[0, 100]`) of `samples`, linearly
/// interpolated between the two closest ranks. `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `samples` (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The tail percentile to report over `n` samples: `preferred` when it
/// leaves at least [`MIN_BEYOND_TAIL`] samples above it, else the highest
/// ladder percentile that does. `None` below 20 samples, where not even
/// the median qualifies. A fixed preference keeps runs comparable: the
/// plain ladder rule would switch percentile between two runs whose
/// epoch counts straddle a threshold.
pub fn tail_percentile(n: usize, preferred: f64) -> Option<f64> {
    // The epsilon absorbs rounding in `100 − p` (99.9 is not exact).
    let leaves_enough = |p: f64| n as f64 * (100.0 - p) / 100.0 + 1e-6 >= MIN_BEYOND_TAIL;
    if leaves_enough(preferred) {
        return Some(preferred);
    }
    TAIL_LADDER.iter().rev().copied().find(|&p| leaves_enough(p))
}

/// The `p`-th percentile (`p` in `[0, 100]`) of a log₂-bucketed
/// histogram, interpolated linearly inside the bucket that holds the
/// rank. The server's own estimate reports the bucket's upper bound, which
/// reads the same power of two on every run; interpolation keeps the
/// figure sensitive to where inside the octave the mass sits.
pub fn histogram_percentile(h: &Histogram, p: f64) -> Option<f64> {
    if h.count == 0 {
        return None;
    }
    let rank = (p.clamp(0.0, 100.0) / 100.0) * h.count as f64;
    let mut seen = 0u64;
    for (b, &c) in h.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if (seen + c) as f64 >= rank {
            if b == 0 {
                return Some(0.0);
            }
            let low = (1u64 << (b - 1)) as f64;
            let high = low * 2.0;
            let within = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
            return Some(low + (high - low) * within);
        }
        seen += c;
    }
    Some(h.max as f64)
}

/// Total length covered by the union of `[start, end)` intervals.
pub fn union_len<'a>(intervals: impl IntoIterator<Item = &'a (u64, u64)>) -> u64 {
    let mut sorted: Vec<(u64, u64)> = intervals.into_iter().copied().collect();
    sorted.sort_unstable();
    let (mut total, mut reach) = (0, 0);
    for (start, end) in sorted {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(4.0));
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn union_counts_overlaps_once() {
        assert_eq!(union_len(&[]), 0);
        assert_eq!(union_len(&[(5, 10), (0, 3), (2, 4), (8, 12), (20, 20)]), 4 + 7);
        assert_eq!(union_len(&[(0, 10), (2, 3)]), 10);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let ladder = |n| tail_percentile(n, 99.9);
        assert_eq!(ladder(19), None);
        assert_eq!(ladder(20), Some(50.0));
        assert_eq!(ladder(39), Some(50.0));
        assert_eq!(ladder(40), Some(75.0));
        assert_eq!(ladder(99), Some(75.0));
        assert_eq!(ladder(100), Some(90.0));
        assert_eq!(ladder(200), Some(95.0));
        assert_eq!(ladder(1000), Some(99.0));
        assert_eq!(ladder(10_000), Some(99.9));
        for n in 20..3000 {
            for preferred in TAIL_LADDER {
                let p = tail_percentile(n, preferred).unwrap();
                let beyond = n - (n as f64 * p / 100.0).round() as usize;
                assert!(beyond >= MIN_BEYOND_TAIL as usize, "n = {n}, p = {p}");
                assert!(p <= preferred);
            }
        }
        // The preference holds on both sides of a ladder threshold.
        assert_eq!(tail_percentile(99, 75.0), Some(75.0));
        assert_eq!(tail_percentile(101, 75.0), Some(75.0));
        assert_eq!(tail_percentile(30, 75.0), Some(50.0));
    }

    #[test]
    fn histogram_percentile_stays_inside_the_bucket() {
        let mut h = Histogram::default();
        for v in [100, 110, 120, 130, 1000] {
            h.record(v);
        }
        // Four of five observations sit in [64, 128) ∪ [128, 256).
        let p50 = histogram_percentile(&h, 50.0).unwrap();
        assert!((64.0..=256.0).contains(&p50), "p50 = {p50}");
        let p100 = histogram_percentile(&h, 100.0).unwrap();
        assert!((512.0..=1024.0).contains(&p100), "p100 = {p100}");
        assert_eq!(histogram_percentile(&Histogram::default(), 50.0), None);
    }
}
