//! Golden-trace pin for the sharded multi-node chain workload.
//!
//! Counterpart of `golden_traces.rs` (which pins the serial drivers —
//! untouched by the sharding work): the multi-node driver's report is
//! compared byte-for-byte against a checked-in snapshot at **every** shard
//! count and execution mode. One snapshot serves all of them because the
//! sharded runner is deterministic in the strong sense (see
//! `palladium_simnet::shard`): `--shards 1` and every parallel run must
//! reproduce the identical bytes, so a future change that breaks either
//! the kernel's ordering contract or the shard merge shows up here as a
//! diff.
//!
//! To regenerate after an *intentional* workload change:
//! `GOLDEN_REGEN=1 cargo test -q --test sharded_chain` and commit the
//! updated snapshot together with the change that explains it. The
//! runner's critical-path model (`WORK_MODEL` below) is pinned in the same
//! test; a change that moves `events` or `messages` moves it too.

use palladium_core::driver::multinode::{MultiNodeConfig, MultiNodeReport, MultiNodeSim};
use palladium_simnet::{Execution, Nanos};

mod common;
use common::assert_golden;

fn golden_cfg() -> MultiNodeConfig {
    let mut cfg = MultiNodeConfig::scaled(16);
    cfg.clients_per_node = 4;
    cfg.warmup = Nanos::from_millis(2);
    cfg.duration = Nanos::from_millis(8);
    cfg
}

/// Hex-exact rendering (no shortest-repr float ambiguity), mirroring
/// `golden_traces.rs`.
fn trace(r: &MultiNodeReport) -> String {
    format!(
        "multinode/16n4c: rps={:016x} mean={} p99={} completed={} events={} messages={}\n",
        r.load.rps.to_bits(),
        r.load.mean_latency.as_nanos(),
        r.load.p99_latency.as_nanos(),
        r.load.completed,
        r.events,
        r.messages
    )
}

/// The shard runner's critical-path model of the golden configuration, as
/// in `cluster_sharded.rs`: `Σ work` is the snapshot's `events + messages`
/// at every shard count and `WORK_MODEL` holds `(shards,
/// critical_path_work)` — machine- and mode-independent integers, so the
/// modeled scaling `Σ work ÷ critical_path_work` (1.00× / 1.94× / 3.66× /
/// 6.86×) is gated by equality.
const TOTAL_WORK: u64 = 405_335 + 135_109;
const WORK_MODEL: [(usize, u64); 4] = [(1, 540_444), (2, 278_749), (4, 147_633), (8, 78_826)];

#[test]
fn every_shard_count_reproduces_the_snapshot() {
    let sim = MultiNodeSim::new(golden_cfg());
    let serial = trace(&sim.run(1, Execution::Sequential));

    assert_golden("multinode_golden.txt", &serial);

    for (shards, critical_path_work) in WORK_MODEL {
        for execution in [Execution::Sequential, Execution::Threads] {
            let r = sim.run(shards, execution);
            assert_eq!(
                trace(&r),
                serial,
                "{shards} shards / {execution:?} diverged from the serial bytes"
            );
            assert_eq!(
                (r.work.iter().sum::<u64>(), r.critical_path_work),
                (TOTAL_WORK, critical_path_work),
                "{shards} shards / {execution:?}: the work model moved"
            );
        }
    }
}
