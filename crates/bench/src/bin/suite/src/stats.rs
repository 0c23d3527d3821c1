//! Order statistics over timing samples.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count); `None` when
/// empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The nearest-rank `p`-th percentile (`0 < p < 1`), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it: a tail percentile is
/// only reported where at least ten runs are slower.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    let rank = (p * v.len() as f64).ceil() as usize;
    (rank >= 1 && v.len() - rank >= MIN_BEYOND).then(|| v[rank - 1])
}

/// First quartile, median and third quartile by the "exclusive" method
/// of Python's `statistics.quantiles(values, n=4)`, so spreads read the
/// same as in any script that checks them; `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return v.first().map(|&x| (x, x, x));
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// The interquartile distance as a share of the median (0 for a zero
/// median).
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    Some(if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2.abs() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(
            tail_percentile(&forty, 0.75),
            Some(30.0),
            "n = 40 gives p75"
        );
        assert_eq!(tail_percentile(&forty, 0.5), Some(20.0));
        assert_eq!(tail_percentile(&forty, 0.9), None, "only 4 beyond p90");
        assert_eq!(
            tail_percentile(&forty[..39], 0.75),
            None,
            "9 beyond p75 at n = 39"
        );
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0, 7.0)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert!((spread(&ten).unwrap() - 1.0).abs() < 1e-12);
    }
}
