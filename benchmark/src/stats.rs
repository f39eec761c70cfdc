//! Order statistics and the regression-bound rule the benchmark applies to
//! its own numbers.

/// Median of `v` (mean of the middle pair for even lengths). Panics on an
/// empty slice: every caller measures at least once.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(v, n=4)` (the "exclusive" method) — the rule the
/// acceptance procedure is written against. Needs at least two samples.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    assert!(v.len() >= 2, "quartiles need two samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let (ld, n) = (s.len(), 4usize);
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *q = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
    }
    out
}

/// Run-to-run spread: the distance between the first and third quartile as
/// a share of the median.
pub fn iqr_spread(v: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(v);
    (q3 - q1) / median(v).abs()
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How much worse `new` is than `base`, as a share of `base`, in the
/// metric's own direction (negative = improved).
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    }
}

/// The verdict on one (workload, metric) pair.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Moved by no more than the bound, either way.
    Within,
    /// Worse by more than the bound.
    Worse,
    /// The measurement's own spread exceeds the bound: the comparison
    /// cannot tell "unchanged" from "regressed", and must not claim either.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within bound",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Apply a metric's direction and bound. `spread` is the wider of the two
/// sides' run-to-run spreads (0 for simulated metrics, which repeat
/// exactly).
pub fn classify(base: f64, new: f64, better: Better, bound: f64, spread: f64) -> Verdict {
    if spread > bound {
        return Verdict::Unresolved;
    }
    let w = worsening(base, new, better);
    if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(
            quartiles(&[10.0, 20.0, 30.0, 40.0, 50.0]),
            [15.0, 30.0, 45.0]
        );
        assert!((iqr_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bound_logic_respects_direction() {
        use Better::*;
        // Lower is better: +10 % is worse, −10 % is better, ±4 % is within.
        assert_eq!(classify(100.0, 110.0, Lower, 0.05, 0.0), Verdict::Worse);
        assert_eq!(classify(100.0, 90.0, Lower, 0.05, 0.0), Verdict::Better);
        assert_eq!(classify(100.0, 104.0, Lower, 0.05, 0.0), Verdict::Within);
        assert_eq!(classify(100.0, 96.0, Lower, 0.05, 0.0), Verdict::Within);
        // Higher is better: the signs flip.
        assert_eq!(classify(100.0, 90.0, Higher, 0.05, 0.0), Verdict::Worse);
        assert_eq!(classify(100.0, 110.0, Higher, 0.05, 0.0), Verdict::Better);
        // Exactly at the bound is still within it.
        assert_eq!(classify(100.0, 105.0, Lower, 0.05, 0.0), Verdict::Within);
    }

    #[test]
    fn spread_wider_than_bound_is_unresolved_not_unchanged() {
        assert_eq!(
            classify(100.0, 100.0, Better::Lower, 0.05, 0.08),
            Verdict::Unresolved
        );
        assert_eq!(
            classify(100.0, 150.0, Better::Lower, 0.05, 0.08),
            Verdict::Unresolved
        );
    }
}
