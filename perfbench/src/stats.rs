//! Order statistics used by every workload: medians, nearest-rank
//! quantiles, interquartile means, and the tail quantile that still has
//! at least [`MIN_BEYOND`] samples past it.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail quantiles tried from the highest down by [`tail_quantile`].
const TAIL_LADDER: [f64; 5] = [0.99, 0.95, 0.9, 0.75, 0.5];

/// Nearest-rank quantile `q` in `[0, 1]` of `samples` (NaN-free).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    sorted[rank(sorted.len(), q)]
}

/// Zero-based index of the nearest-rank `q` quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The median (the lower middle sample for an even count).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Mean of the middle half of `samples`: the values left after dropping
/// the lowest and the highest quarter (`⌊n/4⌋` each). Unlike the median it
/// moves smoothly when two values near the middle trade places, so a set
/// with a gap in its middle does not flip between the two sides of it.
pub fn interquartile_mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "interquartile mean of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Number of the `n` samples strictly beyond the nearest-rank `q` quantile
/// (counting by rank, so ties do not shrink it).
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q) - 1
}

/// The highest quantile of the ladder p99, p95, p90, p75, p50 that keeps at
/// least [`MIN_BEYOND`] of `n` samples beyond it; p50 when none does.
pub fn tail_quantile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&q| beyond(n, q) >= MIN_BEYOND)
        .unwrap_or(0.5)
}

/// The smallest sample: on a shared machine noise only ever adds time, so
/// the best of several repetitions is the steadiest estimate.
pub fn best(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "best of no samples");
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Each operation's best latency, where `samples` holds whole passes in
/// operation order (sample `i` belongs to operation `i % ops`). Every pass
/// repeats the same operations, so taking each one's best drops noise
/// that hit a single repetition.
pub fn op_bests(samples: &[f64], ops: usize) -> Vec<f64> {
    assert!(
        ops > 0 && samples.len().is_multiple_of(ops),
        "samples are whole passes"
    );
    (0..ops)
        .map(|op| {
            best(
                &samples
                    .iter()
                    .skip(op)
                    .step_by(ops)
                    .copied()
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// Interquartile mean over the operations of each one's best latency (see
/// [`op_bests`] and [`interquartile_mean`]).
pub fn iqm_of_op_bests(samples: &[f64], ops: usize) -> f64 {
    interquartile_mean(&op_bests(samples, ops))
}

/// Sum over the operations of each one's best latency (see [`op_bests`]):
/// the time of a pass run when the machine was quiet for every operation.
pub fn sum_of_op_bests(samples: &[f64], ops: usize) -> f64 {
    op_bests(samples, ops).iter().sum()
}

/// Geometric mean of positive ratios.
pub fn geomean(ratios: &[f64]) -> f64 {
    assert!(!ratios.is_empty(), "geometric mean of no ratios");
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 0.9), 90.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
    }

    #[test]
    fn beyond_counts_samples_past_the_rank() {
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(1, 0.5), 0);
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(999), 0.95);
        assert_eq!(tail_quantile(200), 0.95);
        assert_eq!(tail_quantile(199), 0.9);
        assert_eq!(tail_quantile(54), 0.75);
        assert_eq!(tail_quantile(5), 0.5);
        for n in 1..3000 {
            let q = tail_quantile(n);
            assert!(q == 0.5 || beyond(n, q) >= MIN_BEYOND, "n={n} q={q}");
        }
    }

    #[test]
    fn op_bests_ignore_slow_repetitions() {
        // Three passes over ops a, b, c; op b is slow twice.
        let samples = [1.0, 50.0, 3.0, 1.0, 40.0, 3.0, 1.0, 2.0, 3.0];
        assert_eq!(iqm_of_op_bests(&samples, 3), 2.0);
        assert_eq!(iqm_of_op_bests(&[9.0, 4.0], 1), 4.0);
        assert_eq!(op_bests(&samples, 3), vec![1.0, 2.0, 3.0]);
        assert_eq!(sum_of_op_bests(&samples, 3), 6.0);
        assert_eq!(best(&[3.0, 1.5, 2.0]), 1.5);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(&[7.5]), 7.5);
        assert_eq!(interquartile_mean(&[1.0, 3.0]), 2.0);
        // n = 8: the lowest two and the highest two are dropped.
        assert_eq!(
            interquartile_mean(&[100.0, 1.0, 4.0, 5.0, 6.0, 7.0, 0.0, 50.0]),
            5.5
        );
        // A set with a gap in its middle: when the value just below the
        // gap grows past the one just above it, the median jumps across
        // the gap while the interquartile mean moves by the growth alone.
        let a = [10.0, 11.0, 20.0, 40.0, 41.0, 42.0];
        let b = [10.0, 11.0, 41.0, 40.0, 41.0, 42.0];
        assert_eq!(median(&a), 20.0);
        assert_eq!(median(&b), 40.0);
        let growth = (interquartile_mean(&b) - interquartile_mean(&a)) * 4.0;
        assert!((growth - 21.0).abs() < 1e-12, "{growth}");
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }
}
