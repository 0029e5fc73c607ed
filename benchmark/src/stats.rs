//! Order statistics over small sample sets.

use crate::json::Json;

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller has taken at least one sample.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Smallest of `values` (infinity for none).
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Largest of `values` (negative infinity for none).
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// First and third quartile, computed like Python's `statistics.quantiles(values, n=4)`
/// (the "exclusive" method) so spreads match the ones the acceptance driver computes.
/// Fewer than two samples have no spread: both quartiles are the sample itself.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    let len = data.len();
    assert!(len > 0, "quartiles of no samples");
    if len < 2 {
        return (data[0], data[0]);
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median — the spread the acceptance rule uses.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// The highest percentile that still has ten samples beyond it, as `(percentile, value)`.
/// `None` with ten samples or fewer — there is no such percentile, report the maximum instead.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let n = data.len();
    if n <= 10 {
        return None;
    }
    let index = n - 11;
    Some((100.0 * (index + 1) as f64 / n as f64, data[index]))
}

/// Summary of one metric's samples, as written to `bench.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
    /// See [`tail_percentile`].
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes a non-empty sample set.
    pub fn of(values: &[f64]) -> Summary {
        let data = sorted(values);
        let (q1, q3) = quartiles(values);
        Summary {
            n: data.len(),
            min: data[0],
            q1,
            median: median(values),
            q3,
            max: data[data.len() - 1],
            tail: tail_percentile(values),
        }
    }

    /// JSON form.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("n", Json::Num(self.n as f64)),
            ("min", Json::Num(self.min)),
            ("q1", Json::Num(self.q1)),
            ("median", Json::Num(self.median)),
            ("q3", Json::Num(self.q3)),
            ("max", Json::Num(self.max)),
        ];
        if let Some((pct, value)) = self.tail {
            members.push(("tail_percentile", Json::Num(pct)));
            members.push(("tail_value", Json::Num(value)));
        }
        Json::obj(members)
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!((min(&[3.0, 1.0, 2.0]), max(&[3.0, 1.0, 2.0])), (1.0, 3.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]), (15.0, 45.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail_percentile(&ten), None);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let (pct, value) = tail_percentile(&eleven).unwrap();
        assert_eq!(value, 1.0);
        assert!((pct - 100.0 / 11.0).abs() < 1e-9);
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred), Some((90.0, 90.0)));
    }

    #[test]
    fn summary_orders_its_fields() {
        let s = Summary::of(&[4.0, 2.0, 8.0, 6.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (4, 2.0, 5.0, 8.0));
        assert!(s.q1 <= s.median && s.median <= s.q3);
        assert_eq!(s.to_json().get("median").and_then(Json::as_f64), Some(5.0));
    }
}
