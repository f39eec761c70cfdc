//! Property test for the streaming log-bucketed [`Histogram`]: bucketed
//! percentiles track exact ones. The histogram documents a worst-case
//! relative error of 2⁻⁵ = 3.125 %: any percentile it reports is the
//! lower edge of the bucket containing the exact [`Samples::percentile`]
//! answer, so `hist ≤ exact` and `exact − hist ≤ RELATIVE_ERROR · exact`
//! (+1 for integer truncation at tiny values).

use proptest::prelude::*;

use palladium_simnet::{Histogram, Nanos, Samples};

/// Sample values spanning the exact region (< 64), the log-bucketed
/// mid-range, and large outliers — mixed magnitudes are where bucket
/// error would show.
fn value_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        3 => 0u64..64,
        5 => 64u64..100_000,
        3 => 100_000u64..10_000_000_000,
        1 => any::<u64>(),
    ]
}

const PERCENTILES: [f64; 7] = [0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0];

/// The histogram's documented bound: 32 sub-buckets per power of two.
const RELATIVE_ERROR: f64 = 1.0 / 32.0;

/// Bucketed percentiles must sit at or just below the exact sort-based
/// answer, within the documented one-sided relative-error bound.
fn check_against_exact(values: &[u64]) -> Result<(), TestCaseError> {
    let mut hist = Histogram::new();
    let mut exact = Samples::new();
    for &v in values {
        hist.record(Nanos(v));
        exact.record(Nanos(v));
    }
    for p in PERCENTILES {
        let h = hist.percentile(p).as_nanos();
        let e = exact.percentile(p).as_nanos();
        // One-sided: the histogram reports the bucket's lower edge.
        prop_assert!(h <= e, "p{}: hist {} above exact {}", p, h, e);
        let bound = (e as f64 * RELATIVE_ERROR).floor() as u64 + 1;
        prop_assert!(
            e - h <= bound,
            "p{}: hist {} vs exact {} exceeds the {}% bound",
            p,
            h,
            e,
            RELATIVE_ERROR * 100.0
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn percentiles_track_exact_within_documented_error(
        values in proptest::collection::vec(value_strategy(), 1..500),
    ) {
        check_against_exact(&values)?;
    }
}
