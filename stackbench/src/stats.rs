//! Order statistics used by the benchmark and by the `repeat` tool.

/// The median as Python's `statistics.median` computes it: the middle value,
/// or the mean of the two middle values of an even-sized sample.
///
/// Returns `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The nearest-rank `pct` percentile: the smallest sample value with at least
/// `pct` percent of the sample at or below it.
///
/// Returns `None` for an empty sample or a `pct` outside `(0, 100]`.
pub fn nearest_rank(values: &[f64], pct: f64) -> Option<f64> {
    if values.is_empty() || !(pct > 0.0 && pct <= 100.0) {
        return None;
    }
    let sorted = sorted(values);
    Some(sorted[rank(sorted.len(), pct) - 1])
}

/// The 1-based nearest rank of `pct` in a sample of `n` values.
fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// How many samples of `n` lie strictly beyond the nearest-rank `pct`
/// percentile's rank. A percentile is worth reporting as a tail only when at
/// least ten samples lie beyond it.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, pct)
}

/// The three quartile cut points as Python's `statistics.quantiles(values,
/// n=4)` computes them with its default `exclusive` method.
///
/// Returns `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    // Exact integer arithmetic as in CPython; `delta` may be negative when
    // the clamp pulls `j` above `i·m/n`.
    let n = 4i64;
    let m = ld as i64 + 1;
    let mut cuts = [0.0; 3];
    for (i, cut) in (1..n).zip(cuts.iter_mut()) {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * n) as f64;
        let (lo, hi) = (data[j as usize - 1], data[j as usize]);
        *cut = (lo * (n as f64 - delta) + hi * delta) / n as f64;
    }
    Some(cuts)
}

/// The inter-quartile distance as a share of the median, the steadiness
/// figure every end-to-end metric's bound is compared against.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sort oracle: the value at index `ceil(p·n/100) − 1` of the sorted
    /// sample, found by counting rather than by the shared `rank` helper.
    fn oracle(values: &[f64], pct: f64) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        sorted
            .iter()
            .copied()
            .find(|candidate| {
                let at_or_below = sorted.iter().filter(|v| *v <= candidate).count();
                at_or_below as f64 * 100.0 >= pct * sorted.len() as f64
            })
            .expect("the maximum always qualifies")
    }

    #[test]
    fn nearest_rank_matches_the_sort_oracle() {
        let mut state = 0x5eed_u64;
        for n in 1..60 {
            let values: Vec<f64> = (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) % 1000) as f64
                })
                .collect();
            for pct in [1.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
                assert_eq!(
                    nearest_rank(&values, pct),
                    Some(oracle(&values, pct)),
                    "n={n} p={pct}"
                );
            }
        }
    }

    #[test]
    fn nearest_rank_rejects_empty_and_out_of_range() {
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&[1.0], 0.0), None);
        assert_eq!(nearest_rank(&[1.0], 101.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(20, 50.0), 10);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(relative_spread(&values), Some((8.25 - 2.75) / 5.5));
    }
}
