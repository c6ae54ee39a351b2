//! Order statistics used by the benchmark: nearest-rank percentiles for
//! per-run latencies, and medians and quartiles for run-to-run spread.

/// Nearest-rank percentile (`p` in `0..=100`) of `values`; `None` when
/// empty. The value returned is always one of the samples.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Median: the middle sample, or the mean of the two middle samples.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// First and third quartiles by the same method as Python's
/// `statistics.quantiles(values, n=4)` (the default, "exclusive" method).
/// A single sample is its own quartiles; `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    match len {
        0 => None,
        1 => Some((v[0], v[0])),
        _ => {
            let cut = |i: usize| {
                let m = len + 1;
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some((cut(1), cut(3)))
        }
    }
}

/// Interquartile distance as a share of the median (the spread the
/// benchmark's bounds are judged against); `None` for a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let med = median(values)?;
    let (q1, q3) = quartiles(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0), "input order is irrelevant");
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    /// Expected values are `statistics.quantiles(data, n=4)` from Python.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)), "two samples extrapolate");
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), Some((1.25, 3.75)));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some((1.5, 4.5)));
        let (q1, q3) = quartiles(&[0.9, 1.3, 1.1, 1.0, 1.2, 5.0, 1.05]).unwrap();
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 1.3).abs() < 1e-12);
        assert_eq!(quartiles(&[2.5]), Some((2.5, 2.5)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), Some(5.5 / 5.5));
        assert_eq!(spread(&[2.0, 2.0, 2.0]), Some(0.0));
        assert_eq!(spread(&[0.0, 0.0]), None);
    }
}
