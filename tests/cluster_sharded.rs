//! Golden-trace pin for the sharded Fig 16 cluster.
//!
//! Counterpart of `sharded_chain.rs`, one level up the fidelity ladder:
//! not the synthetic multi-node traffic pattern but the full Palladium
//! data plane — pools, RC state machines, DNE scheduling, the ingress
//! gateway — replicated over four worker pairs and partitioned across
//! shards with one `RdmaNet` instance each. One snapshot serves every
//! shard count and execution mode because the sharded cluster driver is
//! deterministic in the strong sense (see
//! `palladium_core::driver::cluster_sharded`): a diff here means either
//! the kernel's ordering contract, the per-shard fabric egress, or the
//! canonical wiring order broke.
//!
//! To regenerate after an *intentional* change:
//! `GOLDEN_REGEN=1 cargo test -q --test cluster_sharded` and commit the
//! updated snapshot together with the change that explains it. The
//! runner's critical-path model (`WORK_MODEL` below) is pinned in the same
//! test; a change that moves `events` or `messages` moves it too.

use palladium_core::driver::cluster_sharded::{ClusterShardedReport, ClusterShardedSim};
use palladium_simnet::Execution;
use palladium_workloads::chaos::{base_cfg as golden_cfg, SLO_COLS};

mod common;
use common::{assert_golden, assert_in_slo_file};

/// Hex-exact rendering of the two floats (no shortest-repr ambiguity),
/// mirroring `golden_traces.rs`; the integers between and after them are
/// column lists.
fn trace(r: &ClusterShardedReport) -> String {
    let (rps, dpu) = (r.chain.load.rps.to_bits(), r.chain.dpu_util_pct.to_bits());
    let kv = |cols: &[&str]| r.kv_line(cols).unwrap();
    let results = kv(&["mean_ns", "exact_p99_ns", "completed", "sw_bytes", "dma_bytes"]);
    let counts = kv(&["events", "messages"]);
    format!("cluster_sharded/4p: rps={rps:016x} {results} dpu={dpu:016x} {counts}\n")
}

/// The shard runner's critical-path model of the golden configuration, in
/// its own work units (events processed + frames delivered): `Σ work` is the
/// snapshot's `events + messages` at every shard count, and `WORK_MODEL`
/// holds `(shards, critical_path_work)`. Integers that depend on neither
/// the machine nor the execution mode, so the parallel scaling the model
/// predicts — `Σ work ÷ critical_path_work`, 1.00× / 1.49× / 2.09× /
/// 2.73× — is gated by equality.
const TOTAL_WORK: u64 = 53_015 + 8_739;
const WORK_MODEL: [(usize, u64); 4] = [(1, 61_754), (2, 41_400), (4, 29_532), (8, 22_606)];

#[test]
fn every_shard_count_reproduces_the_snapshot() {
    let sim = ClusterShardedSim::new(golden_cfg());
    let serial_report = sim.run(1, Execution::Sequential);
    assert!(
        serial_report.chain.load.completed > 0,
        "the golden configuration must complete requests"
    );
    let serial = trace(&serial_report);

    assert_golden("cluster_sharded_golden.txt", &serial);
    // The same run is the fault-free row of the committed SLO file.
    let slo_row = serial_report.json_row("\"scenario\": \"fault_free\"", &SLO_COLS).unwrap();
    assert_in_slo_file(&slo_row);

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

#[test]
fn fault_free_receive_queues_never_run_dry() {
    // Long enough (200 ms) for replenishment that lags the engine to
    // drain the 512-entry RQs: the core thread must keep them stocked, so
    // no send ever meets an empty RQ and sits out the 100 µs RNR back-off
    // — the tail stays on the median — and an engine op costs one event.
    let cfg = golden_cfg().warmup_ms(20).duration_ms(200);
    let r = ClusterShardedSim::new(cfg).run(1, Execution::Sequential);
    let completed = r.chain.load.completed;
    assert!(completed > 10_000, "closed loop saturates: {completed}");
    assert_eq!(r.chaos.rnr_naks, 0, "a send found its receiver's RQ empty");
    assert_eq!(r.chaos.shed_pool, 0, "a request was dropped on pool exhaustion");
    assert_eq!(r.chaos.shed_qp, 0, "a request was dropped on an errored QP");
    assert!(
        r.p99.as_nanos() * 100 <= r.p50.as_nanos() * 105,
        "p99 {} vs p50 {}: a tail this far off the median is a stall",
        r.p99,
        r.p50
    );
    let per_req = r.events as f64 / completed as f64;
    assert!(per_req <= 165.0, "{per_req:.1} events per request");
}

#[test]
#[should_panic(expected = "at least one pool buffer")]
fn a_config_assembled_through_its_fields_is_still_validated() {
    // Every field is public, so the builders cannot be where the checks
    // live: a zero-buffer pool must be refused before the run, not found
    // empty mid-run.
    let mut cfg = golden_cfg();
    cfg.pool_bufs = 0;
    let _ = ClusterShardedSim::new(cfg);
}

#[test]
fn mailboxes_report_their_high_water_marks() {
    // Every channel of a parallel run reports its largest single-window
    // delivery.
    let sim = ClusterShardedSim::new(golden_cfg());
    let r = sim.run(4, Execution::Threads);
    assert_eq!(r.channels.len(), 4 * 4, "one stats row per shard pair");
    assert!(r.messages > 0, "the cluster exchanges cross-shard frames");
    assert!(
        r.channels.iter().any(|c| c.high_water > 0),
        "some channel carried traffic"
    );
}
