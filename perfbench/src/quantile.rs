//! Exact order statistics over raw host-time samples.
//!
//! Host times never go through the log2-bucketed `LatencyHistogram`:
//! its interpolated buckets are fine for simulated latencies but would
//! blur a 10% wall-clock change into the same bucket.

/// The `p`-th percentile (0–100) of `samples` by the nearest-rank rule:
/// the smallest sample with at least `p`% of the samples at or below it.
/// Returns 0 for an empty sample set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// The median (nearest-rank 50th percentile) of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// `num / den`, or 0 when `den` is 0 (a layer the workload never ran).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snacknoc_noc::LatencyHistogram;

    #[test]
    fn nearest_rank_percentiles_are_exact_samples() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 90.0), 90.0);
        assert_eq!(percentile(&samples, 99.0), 99.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn histogram_percentiles_use_the_0_to_100_scale() {
        let mut h = LatencyHistogram::new();
        for latency in 1..=1_000u64 {
            h.record(latency);
        }
        let (p50, p99) = (h.percentile(50.0), h.percentile(99.0));
        assert!(p50 > 0, "p50 = {p50}");
        assert!(p99 >= p50, "p99 = {p99} < p50 = {p50}");
        assert!((256..1_024).contains(&p50), "p50 = {p50}");
        assert!(p99 >= 512, "p99 = {p99}");
        // Passing a fraction asks for the 0.99th percentile: the lowest
        // bucket, far below the true p99 of 990.
        assert!(h.percentile(0.99) < 16);
    }
}
