//! The rule two sample sets of one metric are compared by.

use crate::catalog::Better;
use crate::stats::{max, median, min, spread};

/// Outcome of comparing a candidate's samples against a baseline's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate's median is no worse than the baseline's by more than the bound.
    Ok,
    /// The candidate's median is worse by more than the bound.
    Worse,
    /// The medians are within the bound, but a sample set spreads wider than the bound and
    /// the two sets overlap, so "no worse" is not established.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much `candidate`'s median is worse than `baseline`'s, as a share of the baseline's
/// median (negative when it is better).
pub fn relative_worsening(baseline: &[f64], candidate: &[f64], better: Better) -> f64 {
    let (a, b) = (median(baseline), median(candidate));
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Compares `candidate` against `baseline` for a metric that may worsen by `bound` (a share of
/// the baseline's median) or by `floor` (in the metric's unit), whichever is more.
pub fn judge(
    baseline: &[f64],
    candidate: &[f64],
    better: Better,
    bound: f64,
    floor: f64,
) -> Verdict {
    let worsening = relative_worsening(baseline, candidate, better);
    if worsening > bound && worsening * median(baseline) > floor {
        return Verdict::Worse;
    }
    let noisy = spread(baseline).max(spread(candidate)) > bound;
    let every_run_better = match better {
        Better::Lower => max(candidate) < min(baseline),
        Better::Higher => min(candidate) > max(baseline),
    };
    if noisy && !every_run_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_the_bound_is_ok_and_beyond_it_is_worse() {
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(
            judge(
                &base,
                &[1.05, 1.04, 1.06, 1.05, 1.05],
                Better::Lower,
                0.10,
                0.0
            ),
            Verdict::Ok
        );
        assert_eq!(
            judge(
                &base,
                &[1.15, 1.14, 1.16, 1.15, 1.15],
                Better::Lower,
                0.10,
                0.0
            ),
            Verdict::Worse
        );
        assert_eq!(
            judge(
                &base,
                &[0.80, 0.81, 0.79, 0.80, 0.80],
                Better::Lower,
                0.10,
                0.0
            ),
            Verdict::Ok
        );
        // Direction flips for a higher-is-better metric.
        assert_eq!(
            judge(
                &base,
                &[0.80, 0.81, 0.79, 0.80, 0.80],
                Better::Higher,
                0.10,
                0.0
            ),
            Verdict::Worse
        );
        assert!((relative_worsening(&[2.0], &[2.5], Better::Lower) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn the_floor_forgives_a_large_share_of_a_tiny_value() {
        // 2 ms -> 3 ms is +50 %, but 1 ms; 100 ms -> 150 ms is +50 % and 50 ms.
        let (bound, floor) = (0.25, 0.010);
        assert_eq!(
            judge(&[0.002; 3], &[0.003; 3], Better::Lower, bound, floor),
            Verdict::Ok
        );
        assert_eq!(
            judge(&[0.100; 3], &[0.150; 3], Better::Lower, bound, floor),
            Verdict::Worse
        );
    }

    #[test]
    fn a_wide_overlapping_spread_is_unresolved_unless_every_run_is_better() {
        let noisy = [1.0, 1.4, 0.7, 1.2, 0.9];
        assert_eq!(
            judge(&noisy, &[1.0, 1.3, 0.8, 1.1, 0.9], Better::Lower, 0.10, 0.0),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &[0.5, 0.6, 0.4, 0.5, 0.5], Better::Lower, 0.10, 0.0),
            Verdict::Ok
        );
    }
}
