//! Order statistics over repeated trials: median, quartiles, min/max, n.
//!
//! Quartiles use the "exclusive" method of Python's
//! `statistics.quantiles(values, n=4)`, so printed quartiles match those
//! computed from the same values in Python.

/// Summary of one metric over repeated trials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Middle value (mean of the two middle values for even `n`).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// Number of values.
    pub n: usize,
}

impl Summary {
    /// Summarize `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return None;
        }
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        let (q1, q3) = quartiles(&v);
        Some(Summary {
            median,
            q1,
            q3,
            min: v[0],
            max: v[n - 1],
            n,
        })
    }
}

/// First and third quartile of sorted, non-empty `v` (Python's exclusive
/// method: positions `i·(n+1)/4`, interpolated between the two nearest
/// values, extrapolated from the outermost pair near the ends).
fn quartiles(v: &[f64]) -> (f64, f64) {
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let m = n + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// The highest whole percentile that still has at least `beyond` values
/// above it (nearest-rank), with its value: the tail statistic that stays
/// meaningful for the sample size. `None` when fewer than `beyond + 1`
/// values exist.
pub fn tail_percentile(values: &[f64], beyond: usize) -> Option<(u32, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (1..=99u32).rev().find_map(|p| {
        let rank = (p as usize * n).div_ceil(100).max(1);
        (rank <= n && n - rank >= beyond).then(|| (p, v[rank - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_count_matches_python_quantiles() {
        // statistics.quantiles([1..=9], n=4) == [2.5, 5.0, 7.5]
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.5, 5.0, 7.5));
        assert_eq!((s.min, s.max, s.n), (1.0, 9.0, 9));
    }

    #[test]
    fn even_count_matches_python_quantiles() {
        // statistics.quantiles([4, 1, 3, 2, 6, 5], n=4) == [1.75, 3.5, 5.25]
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 6.0, 5.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.75, 3.5, 5.25));
    }

    #[test]
    fn tiny_samples_extrapolate_like_python() {
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let one = Summary::of(&[7.0]).unwrap();
        assert_eq!((one.q1, one.median, one.q3, one.n), (7.0, 7.0, 7.0, 1));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn tail_keeps_ten_values_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 10), Some((90, 90.0)));
        let w: Vec<f64> = (1..=384).map(f64::from).collect();
        // p97: rank 373, 11 values beyond; p98 would leave only 7.
        assert_eq!(tail_percentile(&w, 10), Some((97, 373.0)));
        assert_eq!(tail_percentile(&v[..10], 10), None);
    }
}
