//! Order statistics the report is built on. Kept tiny and tested: a median
//! that silently picks the wrong element would lie in every metric.

/// Linear-interpolated quantile of an already sorted slice (`q` in 0..=1).
/// Empty input gives NaN so a missing sample can never pass as a number.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

pub fn percentile(values: &[f64], p: f64) -> f64 {
    quantile_sorted(&sorted(values), p / 100.0)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method: positions `(n+1)·k/4`), because the
/// driver judges run-to-run spread with exactly that function.
pub fn quartiles_exclusive(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        let only = s.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let at = |k: usize| {
        let pos = (n + 1) as f64 * k as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median — the spread the driver
/// compares with a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles_exclusive(values);
    (q3 - q1) / median(values)
}

/// Durations between consecutive instants, in seconds.
pub fn deltas_s(stamps: &[std::time::Instant]) -> Vec<f64> {
    stamps
        .windows(2)
        .map(|w| w[1].duration_since(w[0]).as_secs_f64())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_interpolates_and_clamps() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 51.0);
        assert_eq!(percentile(&v, 99.0), 100.0);
        assert_eq!(percentile(&v, 100.0), 101.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
    }

    /// Values checked against `statistics.quantiles(v, n=4)` in CPython.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        let (q1, q3) = quartiles_exclusive(&v);
        assert!((q1 - 2.75).abs() < 1e-12, "{q1}");
        assert!((q3 - 8.25).abs() < 1e-12, "{q3}");
        let (q1, q3) = quartiles_exclusive(&[10.0, 30.0, 20.0]);
        assert_eq!((q1, q3), (10.0, 30.0));
        let (q1, q3) = quartiles_exclusive(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn deltas_are_pairwise() {
        let t0 = std::time::Instant::now();
        let t1 = t0 + std::time::Duration::from_millis(10);
        let t2 = t1 + std::time::Duration::from_millis(30);
        let d = deltas_s(&[t0, t1, t2]);
        assert!((d[0] - 0.010).abs() < 1e-9 && (d[1] - 0.030).abs() < 1e-9);
        assert!(deltas_s(&[t0]).is_empty());
    }
}
