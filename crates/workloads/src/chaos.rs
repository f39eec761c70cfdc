//! The chaos-scenario catalogue over the sharded Fig 16 cluster.
//!
//! One definition of the base cluster every golden snapshot and SLO row
//! runs on, and of the five scripted fault scenarios (scripts are
//! `palladium_simnet::chaos` ops; the cluster driver compiles them). The
//! chaos golden (`tests/chaos_cluster.rs`), the fault-free golden
//! (`tests/cluster_sharded.rs`), `slo_smoke` and the overload presets in
//! [`crate::openloop`] all import from here, so a golden line and the
//! `BENCH_slo.json` row of the same name are the same simulation.

use palladium_core::driver::cluster_sharded::ClusterShardedConfig;
use palladium_core::system::SystemKind;
use palladium_simnet::{Nanos, ScenarioScript};

use crate::boutique::{sharded_config, ChainKind};

/// Worker pairs of the base cluster.
pub const PAIRS: usize = 4;

/// The base cluster: Palladium (DNE) serving HomeQuery on [`PAIRS`] worker
/// pairs, 8 closed-loop clients per pair, 1 ms warm-up + 4 ms measured.
pub fn base_cfg() -> ClusterShardedConfig {
    sharded_config(SystemKind::PalladiumDne, ChainKind::HomeQuery, PAIRS)
        .clients(8 * PAIRS)
        .warmup_ms(1)
        .duration_ms(4)
}

/// Crash pair 1's first worker mid-run; the health plane must suspect
/// it, abandon the in-flight requests, and re-route to survivors until
/// heartbeats resume.
pub fn crash_failover() -> ScenarioScript {
    ScenarioScript::new().crash(2, Nanos::from_micros(1_500), Nanos::from_millis(3))
}

/// Flap two workers' links with stochastic drop windows: go-back-N
/// absorbs the losses (rto/fault_drops count them), no failover fires.
pub fn link_flap() -> ScenarioScript {
    ScenarioScript::new()
        .flap(5, 0.05, Nanos::from_millis(1), Nanos::from_micros(2_500))
        .flap(1, 0.02, Nanos::from_micros(1_800), Nanos::from_micros(3_200))
}

/// One worker computes 8× slower for 2 ms: no losses, but the latency
/// tail must move.
pub fn straggler() -> ScenarioScript {
    ScenarioScript::new().straggle(6, 8.0, Nanos::from_millis(1), Nanos::from_millis(3))
}

/// A correlated fault: pair 1's rack (both workers, nodes 2 and 3) goes
/// down as one domain op. Both workers must be suspected, both must pay
/// the costed rejoin after the window, and the time-to-recovery
/// histogram must land in the report.
pub fn rack_crash_rejoin() -> ScenarioScript {
    ScenarioScript::new()
        .domain("rack1", &[2, 3])
        .crash_domain("rack1", Nanos::from_micros(1_500), Nanos::from_millis(3))
}

/// A gray partial partition on the directed link 4 → 5 (pair 2's
/// intra-pair chain traffic): 5% drop plus up to 200 µs inflation per
/// frame — structurally invisible to the heartbeat plane, since
/// heartbeats travel worker → ingress and never cross this link. Pure
/// heartbeat detection sees nothing; the differential EWMA (pair 2's
/// chain ping-pongs 4 ↔ 5, so its end-to-end latency inflates well past
/// `enter ×` the healthy pairs') must demote the pair.
pub fn gray_partition() -> ScenarioScript {
    ScenarioScript::new().gray_link(
        4,
        5,
        0.05,
        Nanos::from_micros(200),
        Nanos::from_millis(1),
        Nanos::from_micros(4_500),
    )
}

/// The five scenarios by name, in golden and `BENCH_slo.json` order; each
/// runs as `base_cfg().chaos(script)`.
pub fn scenarios() -> [(&'static str, ScenarioScript); 5] {
    [
        ("crash_failover", crash_failover()),
        ("link_flap", link_flap()),
        ("straggler", straggler()),
        ("rack_crash_rejoin", rack_crash_rejoin()),
        ("gray_partition", gray_partition()),
    ]
}

/// What a chaos row of `BENCH_slo.json` pins (columns of
/// `ClusterShardedReport::metrics`).
pub const SLO_COLS: [&str; 17] = [
    "p50_ns", "p99_ns", "p999_ns", "completed", "fault_drops", "crash_drops", "rto", "rnr_naks",
    "suspected", "recovered", "inflight_lost", "reroutes", "rejoins", "ttr_p50_ns", "ttr_p99_ns",
    "gray_demoted", "gray_reroutes",
];
