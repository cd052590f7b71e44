//! Order statistics over per-op samples.
//!
//! Every timing the benchmark reports is a median or a percentile over
//! many short ops, and every per-op throughput is the median of per-op
//! rates. On a host whose speed drifts, a whole-run total swings with
//! whichever slow or fast stretch the run lands in; order statistics over
//! many short ops move far less.

/// Samples a reported percentile must leave beyond it (above it from the
/// 50th up, below it under the 50th), so that the value is a property of
/// the workload rather than of one or two outliers.
pub const MIN_TAIL: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; an even count averages the two middle samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        None
    } else if n % 2 == 1 {
        Some(v[n / 2])
    } else {
        Some((v[n / 2 - 1] + v[n / 2]) / 2.0)
    }
}

/// The 1-based nearest rank of the `pct`-th percentile among `n` samples.
fn rank(pct: usize, n: usize) -> usize {
    (pct * n).div_ceil(100).max(1)
}

/// Whether the `pct`-th percentile of `n` samples leaves [`MIN_TAIL`]
/// beyond it.
fn keeps_tail(pct: usize, n: usize) -> bool {
    let r = rank(pct, n);
    if pct >= 50 {
        n >= r + MIN_TAIL
    } else {
        r > MIN_TAIL
    }
}

/// The nearest-rank `pct`-th percentile (1..=99) of `samples`, or `None`
/// unless at least [`MIN_TAIL`] samples lie beyond it.
pub fn percentile(samples: &[f64], pct: usize) -> Option<f64> {
    assert!((1..100).contains(&pct), "percentile {pct} outside 1..=99");
    let v = sorted(samples);
    keeps_tail(pct, v.len()).then(|| v[rank(pct, v.len()) - 1])
}

/// The fewest samples for which [`percentile`] reports `pct`.
pub fn min_samples(pct: usize) -> usize {
    (1..)
        .find(|&n| keeps_tail(pct, n))
        .expect("some sample count leaves the tail")
}

/// Throughput as the median of per-op rates `work[i] / seconds[i]`.
/// Total work over total time would weight each op by its duration, and
/// so by whichever host stretch it ran in.
pub fn median_rate(work: &[f64], seconds: &[f64]) -> Option<f64> {
    assert_eq!(work.len(), seconds.len(), "one duration per op");
    let rates: Vec<f64> = work.iter().zip(seconds).map(|(w, s)| w / s).collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&v, 90).unwrap();
        assert_eq!(p90, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > p90).count(), MIN_TAIL);
        // One sample fewer would leave only nine above the 90th percentile.
        assert_eq!(percentile(&v[..99], 90), None);
        assert_eq!(min_samples(90), 100);
        assert_eq!(min_samples(50), 20);
        assert_eq!(percentile(&v[..20], 50), Some(10.0));
        assert_eq!(percentile(&v[..19], 50), None);
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn low_percentiles_keep_ten_samples_below() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        let p10 = percentile(&v, 10).unwrap();
        assert_eq!(p10, 11.0);
        assert_eq!(v.iter().filter(|&&x| x < p10).count(), MIN_TAIL);
        // At 100 samples the 10th percentile is the 10th: nine below it.
        assert_eq!(percentile(&v[..100], 10), None);
        assert_eq!(min_samples(10), 101);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile(&v, 90), Some(180.0));
        assert_eq!(percentile(&v, 50), Some(100.0));
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn throughput_is_the_median_of_per_op_rates() {
        // Three ops at 100 items/s and one op stalled tenfold.
        let work = [100.0, 100.0, 100.0, 100.0];
        let seconds = [1.0, 1.0, 1.0, 10.0];
        assert_eq!(median_rate(&work, &seconds), Some(100.0));
        // Total over total lets the one stalled op drag the figure down.
        let total = work.iter().sum::<f64>() / seconds.iter().sum::<f64>();
        assert!((total - 400.0 / 13.0).abs() < 1e-12);
        // Rates are per op: twice the work in the same time is twice the rate.
        assert_eq!(
            median_rate(&[50.0, 200.0, 100.0], &[1.0, 1.0, 1.0]),
            Some(100.0)
        );
    }
}
