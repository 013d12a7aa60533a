//! Order statistics for latency samples: nearest-rank percentiles and
//! the rule that a percentile is only reported when at least ten
//! samples lie beyond it.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The percentiles this benchmark ever reports, ascending.
pub const LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Nearest-rank index (1-based) of percentile `p` in `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps products like 99.9 * 10_000 / 100, which land a
    // few ulps above an integer, from rounding up to the next rank.
    (((p * n as f64 / 100.0) - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// How many of `n` samples lie strictly beyond percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest percentile of [`LADDER`] that `n` samples support, or
/// `None` when even the median has fewer than [`MIN_BEYOND`] beyond it.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| samples_beyond(n, *p) >= MIN_BEYOND)
}

/// Nearest-rank percentile `p` (0 < p <= 100) of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Sorts `values` ascending (total order; NaN sorts last).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median by the midpoint rule (mean of the two middle samples when the
/// count is even), as Python's `statistics.median`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The smallest of `values` (infinity for none): the undisturbed time of
/// something measured whole, several times over.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The time each unit of a repeated section takes when the host leaves
/// the program alone: the fastest of the unit's samples, one sample per
/// pass. `None` when there is no pass or the passes differ in length.
///
/// The units of a section (the batches of a training call, the requests
/// of a replay) do the same work in every pass, so a unit's samples
/// differ only by what else ran. On a shared host that is not noise
/// around a centre: the processor alternates between two speeds some
/// 1.7 times apart, in stretches of a fraction of a second to seconds,
/// and a mean or a median over such samples measures the share of slow
/// stretches the run happened to meet. The disturbance only ever adds
/// time, so the fastest sample is the one nearest the program's own cost,
/// and with a handful of passes nearly every unit meets a fast stretch
/// once.
pub fn undisturbed(passes: &[&[f64]]) -> Option<Vec<f64>> {
    let (first, rest) = passes.split_first()?;
    if rest.iter().any(|p| p.len() != first.len()) {
        return None;
    }
    let mut best = first.to_vec();
    for pass in rest {
        for (b, x) in best.iter_mut().zip(pass.iter()) {
            *b = b.min(*x);
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_named_sample() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        // Ranks round up: the 90th percentile of 7 samples is the 7th.
        assert_eq!(percentile(&ramp(7), 90.0), 7.0);
        assert_eq!(percentile(&[42.0], 99.9), 42.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p90 of 100 samples leaves exactly ten beyond; 99 leaves nine.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(99), Some(50.0));
        // ~390 ingest samples support p90, not p99 (3 beyond).
        assert_eq!(samples_beyond(390, 99.0), 3);
        assert_eq!(highest_supported(390), Some(90.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(999), Some(90.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        // The median itself needs 20 samples.
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(0), None);
    }

    #[test]
    fn undisturbed_takes_each_units_fastest_pass() {
        let a = [2.0, 9.0, 4.0];
        let b = [3.0, 5.0, 4.5];
        let c = [2.5, 6.0, 3.5];
        assert_eq!(undisturbed(&[&a, &b, &c]), Some(vec![2.0, 5.0, 3.5]));
        assert_eq!(undisturbed(&[&a]), Some(a.to_vec()));
        assert_eq!(undisturbed(&[&a, &b[..2]]), None);
        assert_eq!(undisturbed(&[]), None);
        assert_eq!(fastest(&b), 3.0);
    }

    #[test]
    fn median_uses_the_midpoint_rule() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }
}
