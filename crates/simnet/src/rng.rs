//! Seeded randomness for deterministic simulations.
//!
//! Every stochastic decision in the workspace (fault injection, payload
//! jitter, client think times) draws from a [`SimRng`] seeded by the
//! experiment configuration — never from global or OS entropy — so each run
//! is exactly reproducible.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::time::Nanos;

/// A deterministic random source for one simulation run.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
}

impl SimRng {
    /// Construct from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// A *stateless* named sub-stream of `seed`: the stream for
    /// `(seed, stream)` is the same no matter who constructs it, when, or
    /// how many sibling streams exist. This is what makes per-entity
    /// randomness partition-invariant — e.g. one fault stream per fabric
    /// node, keyed by the **global** node id, draws the same verdict
    /// sequence whether one simulation shard owns all nodes or each node
    /// lives on its own shard. (A child seeded by a draw from its parent
    /// would depend on construction order.) The seed mix is splitmix64,
    /// whose avalanche keeps consecutive stream ids decorrelated.
    pub fn stream(seed: u64, stream: u64) -> SimRng {
        let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        SimRng::seed_from(z ^ (z >> 31))
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.gen::<f64>() < p
        }
    }

    /// Uniform integer in `[lo, hi)`. Panics if the range is empty.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        self.inner.gen_range(lo..hi)
    }

    /// A span jittered uniformly within `±frac` of `base` — models service
    /// time variation without losing determinism.
    pub fn jitter(&mut self, base: Nanos, frac: f64) -> Nanos {
        if frac <= 0.0 || base.is_zero() {
            return base;
        }
        let f = 1.0 + (self.unit() * 2.0 - 1.0) * frac;
        base.scale(f.max(0.0))
    }

    /// Exponentially distributed span with the given mean — used for open
    /// Poisson arrivals where the paper's workloads need them.
    pub fn exponential(&mut self, mean: Nanos) -> Nanos {
        if mean.is_zero() {
            return Nanos::ZERO;
        }
        let u: f64 = self.unit().max(1e-12);
        mean.scale(-u.ln())
    }

    /// Pick a uniformly random index below `n`. Panics when `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot pick from an empty set");
        self.inner.gen_range(0..n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(42);
        let mut b = SimRng::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.range(0, 1_000_000), b.range(0, 1_000_000));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..64).filter(|_| a.range(0, 1 << 30) == b.range(0, 1 << 30)).count();
        assert!(same < 4, "streams should diverge");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from(7);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = SimRng::seed_from(123);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "got {hits}");
    }

    #[test]
    fn jitter_bounds() {
        let mut r = SimRng::seed_from(5);
        let base = Nanos(1_000);
        for _ in 0..1_000 {
            let v = r.jitter(base, 0.1);
            assert!(v >= Nanos(900) && v <= Nanos(1_100), "{v:?}");
        }
        // No jitter requested -> exact.
        assert_eq!(r.jitter(base, 0.0), base);
    }

    #[test]
    fn exponential_mean_close() {
        let mut r = SimRng::seed_from(99);
        let mean = Nanos(10_000);
        let n = 20_000u64;
        let total: u64 = (0..n).map(|_| r.exponential(mean).as_nanos()).sum();
        let m = total as f64 / n as f64;
        assert!((m - 10_000.0).abs() < 500.0, "empirical mean {m}");
    }

    #[test]
    fn named_streams_are_stateless_and_independent() {
        // Same (seed, stream) → identical draws, regardless of what other
        // streams were constructed in between.
        let mut a = SimRng::stream(42, 7);
        let _noise = SimRng::stream(42, 3);
        let mut b = SimRng::stream(42, 7);
        for _ in 0..100 {
            assert_eq!(a.range(0, 1 << 30), b.range(0, 1 << 30));
        }
        // Adjacent stream ids decorrelate.
        let mut c = SimRng::stream(42, 8);
        let mut d = SimRng::stream(42, 7);
        let same = (0..64).filter(|_| c.range(0, 1 << 30) == d.range(0, 1 << 30)).count();
        assert!(same < 4, "adjacent streams should diverge");
    }
}
