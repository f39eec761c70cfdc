//! Property tests for the open-loop traffic generator
//! (`workloads::openloop`, re-exporting `palladium_simnet::openloop`).
//!
//! Three contracts, each over randomized shapes no hand-written pin would
//! cover:
//!
//! 1. **Poisson mean** — the empirical inter-arrival mean tracks `1/rate`
//!    within a statistical bound at any rate and seed.
//! 2. **Zipf shape** — the population sampler covers the population and
//!    draws its head decile far more often than its tail decile.
//! 3. **Statelessness** — every arrival is a pure function of
//!    `(seed, seq)`: regenerating the stream reproduces identical bytes.
//!    This is the property that makes open-loop overload runs shard-count-
//!    and execution-mode-invariant (`prop_shard.rs` pins it through the
//!    kernel; the overload golden end-to-end).

use proptest::prelude::*;

use palladium_simnet::Nanos;
use palladium_workloads::openloop::{ArrivalProcess, OpenLoop, OpenLoopConfig, ZipfSampler};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The law of large numbers with generous slack: 4000 exponential
    // gaps put the sample mean within ±10% of 1/rate with overwhelming
    // probability (σ/√n ≈ 1.6% of the mean).
    #[test]
    fn poisson_interarrival_mean_tracks_the_rate(
        rps in 5_000.0f64..2_000_000.0,
        seed in any::<u64>(),
    ) {
        let cfg = OpenLoopConfig::poisson(rps, 100);
        let mut gen = OpenLoop::new(&cfg, seed);
        let n = 4_000u64;
        let mut last = Nanos::ZERO;
        for _ in 0..n {
            last = gen.next_arrival().at;
        }
        let mean = last.as_nanos() as f64 / n as f64;
        let want = 1e9 / rps;
        prop_assert!(
            (mean - want).abs() < 0.10 * want,
            "empirical mean gap {mean:.0} ns vs expected {want:.0} ns"
        );
    }

    // The sampler covers the population and is Zipf-shaped: the head
    // ranks dominate an equally-sized tail slice. (Per-rank decay reads
    // the sampler's private table; its unit test checks it.)
    #[test]
    fn zipf_rank_frequency_decays_head_first(
        population in 16u64..20_000,
        seed in any::<u64>(),
    ) {
        let z = ZipfSampler::new(population);
        prop_assert_eq!(z.len(), population);
        // Empirical head vs tail: count draws landing in the first 10%
        // of ranks vs the last 10% — the head must win by a wide margin.
        let cfg = OpenLoopConfig::poisson(1e6, population);
        let mut gen = OpenLoop::new(&cfg, seed);
        let decile = (population / 10).max(1);
        let (mut head, mut tail) = (0u64, 0u64);
        for _ in 0..3_000 {
            let id = gen.next_arrival().fn_id;
            prop_assert!(id < population, "sampled id out of range");
            if id < decile {
                head += 1;
            } else if id >= population - decile {
                tail += 1;
            }
        }
        prop_assert!(
            head > 2 * tail,
            "Zipf head decile ({head}) must dominate the tail decile ({tail})"
        );
    }

    // Statelessness: a fresh generator replays the identical arrival
    // sequence.
    #[test]
    fn arrival_streams_are_stateless_and_replayable(
        rps in 5_000.0f64..500_000.0,
        population in 1u64..10_000,
        seed in any::<u64>(),
    ) {
        let cfg = OpenLoopConfig::poisson(rps, population);
        let mut a = OpenLoop::new(&cfg, seed);
        let mut b = OpenLoop::new(&cfg, seed);
        for _ in 0..256 {
            prop_assert_eq!(a.next_arrival(), b.next_arrival());
        }
    }

    // The flash crowd stays inside its configured envelope: the
    // instantaneous rate never exceeds the peak nor undercuts the base, at
    // any phase.
    #[test]
    fn shaped_processes_respect_their_rate_envelope(
        base in 5_000.0f64..100_000.0,
        mult in 1.5f64..8.0,
        at in 0u64..10_000_000,
    ) {
        let flash = ArrivalProcess::FlashCrowd {
            base_rps: base,
            peak_rps: base * mult,
            start: Nanos(1_000_000),
            ramp: Nanos(500_000),
            hold: Nanos(2_000_000),
            decay: Nanos(1_000_000),
        };
        let r = flash.rate_at(Nanos(at));
        prop_assert!(r >= base - 1e-6 && r <= base * mult + 1e-6, "flash rate {r} escapes envelope");
    }
}
