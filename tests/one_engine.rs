//! Differential test for the one cluster engine: `ChainSim` (one shard,
//! the fabric delivering its own frames, a single window) and
//! `ClusterShardedSim` (frames through the mailboxes, 653 ns windows) are
//! two ways into the same state machine and must agree field for field on
//! this pinned, unjittered configuration — this is the only test that pins
//! the two fabric delivery modes against each other end to end. They do
//! not agree on every configuration: with the benchmark's ±1 % drawn
//! execution costs at its full horizon, `boutique_closed` seed 3 reads
//! 73 701.4 rps (direct) vs 73 670 rps (mailboxes).

use palladium_core::driver::chain::{ChainReport, ChainSim, ChainSimConfig};
use palladium_core::driver::cluster_sharded::{ClusterShardedConfig, ClusterShardedSim};
use palladium_core::system::SystemKind;
use palladium_simnet::Execution;

mod common;
use common::golden_app;

const CLIENTS: usize = 12;
const WARMUP_MS: u64 = 5;
const DURATION_MS: u64 = 15;

/// Every `ChainReport` field, floats hex-exact, stations included.
fn fields(r: &ChainReport) -> String {
    format!(
        "rps={:016x}/{:016x} mean={}/{} p99={} completed={} sw={}/{} dma={} cpu={:016x} dpu={:016x} stations={:?}",
        r.rps.to_bits(),
        r.load.rps.to_bits(),
        r.mean_latency.as_nanos(),
        r.load.mean_latency.as_nanos(),
        r.load.p99_latency.as_nanos(),
        r.load.completed,
        r.software_copy_bytes,
        r.software_copy_ops,
        r.rnic_dma_bytes,
        r.cpu_util_pct.to_bits(),
        r.dpu_util_pct.to_bits(),
        r.stations
    )
}

fn facade(system: SystemKind) -> (String, u64) {
    let cfg = ChainSimConfig::new(system, golden_app(), 0)
        .clients(CLIENTS)
        .warmup_ms(WARMUP_MS)
        .duration_ms(DURATION_MS);
    let (r, events) = ChainSim::new(cfg).run_counted();
    assert!(r.load.completed > 0, "{system:?} must complete requests");
    (fields(&r), events)
}

fn sharded(system: SystemKind) -> ClusterShardedSim {
    ClusterShardedSim::new(
        ClusterShardedConfig::new(system, golden_app(), 1)
            .clients(CLIENTS)
            .warmup_ms(WARMUP_MS)
            .duration_ms(DURATION_MS),
    )
}

#[test]
fn direct_and_mailbox_fabrics_agree_on_palladium() {
    for system in [SystemKind::PalladiumDne, SystemKind::PalladiumCne] {
        let want = facade(system);
        let sim = sharded(system);
        for shards in [1usize, 3] {
            for execution in [Execution::Sequential, Execution::Threads] {
                let r = sim.run(shards, execution);
                assert_eq!(
                    (fields(&r.chain), r.events),
                    want,
                    "{system:?} at {shards} shards / {execution:?} diverged from ChainSim"
                );
            }
        }
    }
}

#[test]
fn a_baseline_runs_on_the_sharded_engine_at_one_shard() {
    let baselines =
        [SystemKind::Spright, SystemKind::FuyaoF, SystemKind::FuyaoK, SystemKind::NightCore];
    for system in baselines {
        let r = sharded(system).run(1, Execution::Sequential);
        assert_eq!((fields(&r.chain), r.events), facade(system), "{system:?}");
    }
}

#[test]
#[should_panic(expected = "does not shard")]
fn a_baseline_rejects_a_second_shard() {
    sharded(SystemKind::Spright).run(2, Execution::Sequential);
}
