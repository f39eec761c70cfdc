//! Property tests for the exact [`Samples`] recorder against an oracle
//! that shares none of its code: a plain `Vec<u64>`, sorted per query.
//!
//! `prop_histogram.rs` uses `Samples` as its exact reference, so it cannot
//! check `Samples` itself. Here random scripts interleave records, bursts,
//! queries and merges; values cover the whole `u64` range (≥ 2⁶³
//! included), all-equal and all-distinct streams, and bursts long enough
//! to cross the 32 768-sample raw fallback. Every query compares `len`,
//! `mean`, `max` and each percentile (the 0th is the minimum); a second property merges
//! split parts in permuted order and must report what the whole does.

use proptest::prelude::*;

use palladium_simnet::{Nanos, Samples};

const PERCENTILES: [f64; 6] = [0.0, 0.1, 50.0, 99.0, 99.9, 100.0];

/// How a burst draws its values.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// One value, over and over.
    Equal(u64),
    /// Every value different, across the full range.
    Distinct,
    /// This many distinct values, spread over the full range.
    Few(u64),
}

/// `n` values of `shape` from a splitmix64 stream seeded by `seed`.
fn burst(shape: Shape, n: usize, seed: u64) -> Vec<u64> {
    let mut x = seed;
    let mut next = move || {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..n)
        .map(|_| match shape {
            Shape::Equal(v) => v,
            Shape::Distinct => next(),
            // Multiplying by an odd constant spreads `0..k` over the range.
            Shape::Few(k) => (next() % k).wrapping_mul(0xD6E8_FEB8_6659_FD93),
        })
        .collect()
}

#[derive(Clone, Debug)]
enum Op {
    Record(u64),
    Burst(Shape, usize, u64),
    Query,
    /// Merge in a set recorded separately from a burst.
    Merge(Shape, usize, u64),
}

fn value() -> impl Strategy<Value = u64> {
    prop_oneof![
        2 => 0u64..64,
        2 => 64u64..100_000,
        1 => (1u64 << 63)..u64::MAX,
        1 => Just(u64::MAX),
        2 => any::<u64>(),
    ]
}

fn shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        value().prop_map(Shape::Equal),
        Just(Shape::Distinct),
        (1u64..4_000).prop_map(Shape::Few),
    ]
}

/// Mostly short bursts; some long enough to reach the raw fallback alone.
fn size() -> impl Strategy<Value = usize> {
    prop_oneof![4 => 0usize..3_000, 1 => 33_000usize..45_000]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => value().prop_map(Op::Record),
        2 => (shape(), size(), any::<u64>()).prop_map(|(s, n, seed)| Op::Burst(s, n, seed)),
        3 => Just(Op::Query),
        1 => (shape(), size(), any::<u64>()).prop_map(|(s, n, seed)| Op::Merge(s, n, seed)),
    ]
}

fn recorded(values: &[u64]) -> Samples {
    let mut s = Samples::new();
    for &v in values {
        s.record(Nanos(v));
    }
    s
}

/// Every query of `s` must answer as the sorted `oracle` does.
fn check(s: &mut Samples, oracle: &[u64]) -> Result<(), TestCaseError> {
    let mut sorted = oracle.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    prop_assert_eq!(s.len(), n);
    let sum: u128 = sorted.iter().map(|&v| v as u128).sum();
    let mean = if n == 0 { 0 } else { (sum / n as u128) as u64 };
    prop_assert_eq!(s.mean(), Nanos(mean));
    prop_assert_eq!(s.max(), Nanos(sorted.last().copied().unwrap_or(0)));
    for p in PERCENTILES {
        let want = if n == 0 {
            0
        } else {
            sorted[(((p / 100.0) * (n as f64 - 1.0)).round() as usize).min(n - 1)]
        };
        prop_assert_eq!(s.percentile(p), Nanos(want), "p{} of {}", p, n);
    }
    Ok(())
}

fn run_script(ops: Vec<Op>) -> Result<(), TestCaseError> {
    let mut s = Samples::new();
    let mut oracle: Vec<u64> = Vec::new();
    for op in ops {
        match op {
            Op::Record(v) => {
                s.record(Nanos(v));
                oracle.push(v);
            }
            Op::Burst(shape, n, seed) => {
                for v in burst(shape, n, seed) {
                    s.record(Nanos(v));
                    oracle.push(v);
                }
            }
            Op::Query => check(&mut s, &oracle)?,
            Op::Merge(shape, n, seed) => {
                let values = burst(shape, n, seed);
                s.merge(recorded(&values));
                oracle.extend(values);
            }
        }
    }
    check(&mut s, &oracle)
}

/// Record `values` whole and as permuted split parts (each queried once,
/// so some parts have folded their tails and others have not); both must
/// answer as the oracle does.
fn check_merge(
    values: &[u64],
    cuts: &[usize],
    swap_seed: usize,
    queried: &[bool],
) -> Result<(), TestCaseError> {
    let mut cuts: Vec<usize> = cuts.iter().map(|&c| c % (values.len() + 1)).collect();
    cuts.sort_unstable();
    let mut parts: Vec<Samples> = Vec::new();
    let mut start = 0;
    for &c in cuts.iter().chain(std::iter::once(&values.len())) {
        let mut part = recorded(&values[start..c]);
        if queried.get(parts.len()).copied().unwrap_or(false) {
            part.p99();
        }
        parts.push(part);
        start = c;
    }
    let n = parts.len();
    for i in 0..n {
        parts.swap(i, (i + swap_seed) % n);
    }
    let mut merged = Samples::new();
    for part in parts {
        merged.merge(part);
    }
    check(&mut merged, values)?;
    check(&mut recorded(values), values)
}

fn stream() -> impl Strategy<Value = Vec<u64>> {
    (collection::vec((shape(), size(), any::<u64>()), 1..4)).prop_map(|bursts| {
        bursts
            .into_iter()
            .flat_map(|(s, n, seed)| burst(s, n, seed))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn scripts_answer_as_a_sorted_vector(ops in collection::vec(op(), 1..24)) {
        run_script(ops)?;
    }

    #[test]
    fn merge_is_order_and_split_invariant(
        values in stream(),
        cuts in collection::vec(0usize..100_000, 0..6),
        swap_seed in 0usize..1_000,
        queried in collection::vec(any::<bool>(), 0..7),
    ) {
        check_merge(&values, &cuts, swap_seed, &queried)?;
    }
}

#[test]
fn every_u64_is_representable() {
    let extremes = [0, 1, (1 << 63) - 1, 1 << 63, u64::MAX - 1, u64::MAX];
    let mut values = Vec::new();
    for (i, &v) in extremes.iter().enumerate() {
        values.extend(std::iter::repeat_n(v, i + 1));
    }
    check(&mut recorded(&values), &values).unwrap();
}

#[test]
fn all_equal_and_all_distinct_streams_cross_the_fallback() {
    // The query at 33 000 finds the all-distinct stream's tail unfolded
    // past the decision point, so the query itself turns the set raw.
    let checkpoints = [1_000, 20_000, 33_000, 50_000, 80_000];
    for shape in [Shape::Equal(u64::MAX), Shape::Distinct, Shape::Few(1_000)] {
        let values = burst(shape, 80_000, 11);
        let mut s = Samples::new();
        for (i, &v) in values.iter().enumerate() {
            s.record(Nanos(v));
            if checkpoints.contains(&(i + 1)) {
                check(&mut s, &values[..=i]).unwrap();
            }
        }
    }
}
