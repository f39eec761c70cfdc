//! Open-loop overload presets over the sharded Fig 16 cluster.
//!
//! The generator itself ([`OpenLoop`], [`ArrivalProcess`], [`ZipfSampler`])
//! lives in `palladium_simnet::openloop` — below the core driver, so the
//! ingress can consume it — and is re-exported here as the workload-facing
//! surface. This module adds the *scenario* layer: named overload regimes
//! over the Online Boutique cluster that `slo_smoke`, `alloc_smoke` and the
//! test suite all share, so the load sweep, the allocation gate and the
//! golden snapshots exercise byte-identical configurations — on the same
//! base cluster as the chaos catalogue ([`crate::chaos::base_cfg`]; an
//! open-loop run ignores its client count).
//!
//! Calibration anchor: the closed-loop 4-pair HomeQuery cluster completes
//! ~290 requests in 4 ms (~72 k rps) with 32 clients in flight. The sweep
//! grid brackets that; the flash crowd peaks past it; the metastable
//! scenario sits just under it so the transient crash — not the offered
//! load — is what tips the cluster over.

pub use palladium_simnet::openloop::{
    Arrival, ArrivalProcess, OpenLoop, OpenLoopConfig, ZipfSampler,
};

use palladium_core::autoscaler::AutoscalerConfig;
use palladium_core::driver::cluster_sharded::{
    AutoscalePolicy, ClusterShardedConfig, OverloadConfig,
};
use palladium_simnet::{Nanos, ScenarioScript};

use crate::chaos::base_cfg;

/// Zipf function population: every pair serves a long tail of functions
/// behind a few hot ones.
pub const OVERLOAD_POPULATION: u64 = 10_000;

/// End-to-end deadline propagated with every request (~4–5× the loaded
/// closed-loop p50, so healthy service meets it with queueing headroom).
pub const OVERLOAD_DEADLINE: Nanos = Nanos::from_millis(2);

/// The offered-load grid `slo_smoke` walks (requests/sec), bracketing the
/// ~72 k rps closed-loop saturation point; each point runs
/// [`poisson_overload`].
pub const SWEEP_RPS: [f64; 7] =
    [20_000.0, 40_000.0, 60_000.0, 80_000.0, 100_000.0, 140_000.0, 200_000.0];

/// What a `load_sweep` row of `BENCH_slo.json` pins, after its
/// `offered_rps` (columns of `ClusterShardedReport::metrics`).
pub const SWEEP_COLS: [&str; 7] =
    ["offered", "admitted", "goodput", "late", "shed_admission", "shed_deadline", "p99_ns"];

/// What an overload scenario row of `BENCH_slo.json` pins.
pub const SLO_COLS: [&str; 21] = [
    "p50_ns", "p99_ns", "p999_ns", "completed", "offered", "admitted", "goodput", "late",
    "recovery_goodput", "retries", "retry_exhausted", "shed_admission", "shed_deadline",
    "shed_breaker", "breaker_opens", "scale_ups", "scale_downs", "rejoin_bills", "lease_hits",
    "ramp_p99_ns", "rnr_naks",
];

/// The three overload scenarios `BENCH_slo.json` pins, by name, in file
/// order.
pub fn slo_scenarios() -> [(&'static str, ClusterShardedConfig); 3] {
    [
        ("flash_autoscale", flash_autoscale()),
        ("metastable_budgeted", metastable(true)),
        ("metastable_unbounded", metastable(false)),
    ]
}

/// Steady Poisson arrivals at `rps` under the budgeted-degradation
/// defaults — one point of the goodput-vs-offered-load sweep.
pub fn poisson_overload(rps: f64) -> ClusterShardedConfig {
    base_cfg().overload(OverloadConfig::new(
        OpenLoopConfig::poisson(rps, OVERLOAD_POPULATION),
        OVERLOAD_DEADLINE,
    ))
}

/// A flash crowd over a cluster serving from 2 of its 4 pairs: base load
/// fits the active half, the surge does not, and the autoscaler must
/// activate the spare pairs — each activation paying the costed rejoin
/// bill, the first claiming the single pre-leased warm worker at a
/// quarter of it (rFaaS-style).
pub fn flash_autoscale() -> ClusterShardedConfig {
    let traffic = OpenLoopConfig {
        process: ArrivalProcess::FlashCrowd {
            base_rps: 15_000.0,
            peak_rps: 70_000.0,
            start: Nanos::from_micros(1_500),
            ramp: Nanos::from_micros(500),
            hold: Nanos::from_millis(2),
            decay: Nanos::from_millis(1),
        },
        population: OVERLOAD_POPULATION,
    };
    base_cfg().duration_ms(6).overload(
        OverloadConfig::new(traffic, OVERLOAD_DEADLINE).autoscale(AutoscalePolicy {
            initial_pairs: 2,
            scaler: AutoscalerConfig {
                eval_interval: Nanos::from_micros(100),
                cooldown: Nanos::from_micros(200),
                ..AutoscalerConfig::default()
            },
            target_inflight_per_pair: 16,
            warm_leases: 1,
            lease_fraction: 0.25,
        }),
    )
}

/// The metastable-failure scenario: sustained Poisson load at the
/// cluster's open-loop saturation point plus a *transient* rack crash
/// (both pairs of one half, 1.5 ms). At saturation the post-recovery
/// drain rate is ~zero, so whatever backlog the outage accumulates
/// persists; once its queueing delay exceeds the 1 ms deadline, every
/// completion is late and goodput stays collapsed long after the fault
/// cleared — the metastable signature. With `budgeted = true` the
/// admission machinery sheds the stale backlog (oldest-first +
/// deadline-infeasible) and goodput recovers; with `budgeted = false`
/// (the pre-budget unbounded-retry configuration) it does not — the
/// honest negative control.
pub fn metastable(budgeted: bool) -> ClusterShardedConfig {
    let traffic = OpenLoopConfig::poisson(110_000.0, OVERLOAD_POPULATION);
    let mut ov = OverloadConfig::new(traffic, Nanos::from_millis(1));
    if !budgeted {
        ov = ov.unbounded_legacy();
    }
    base_cfg()
        .duration_ms(8)
        .chaos(
            ScenarioScript::new()
                .domain("left", &[2, 3, 4, 5])
                .crash_domain("left", Nanos::from_micros(1_500), Nanos::from_millis(3)),
        )
        .overload(ov)
}
