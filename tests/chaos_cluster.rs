//! Chaos-scenario pins for the sharded Fig 16 cluster.
//!
//! The fault-free golden (`cluster_sharded.rs`) proves the healthy data
//! plane is shard-count-invariant. This suite proves the same for the
//! *unhealthy* one: scripted crash/flap/straggler scenarios — verdicts
//! drawn from per-node fault streams, partitions applied as
//! deterministic down-windows, failover driven by the heartbeat plane —
//! must produce byte-identical reports at 1/2/4/8 shards under both
//! execution modes. A diff here means fault verdicts leaked onto a
//! shard-dependent RNG, the down table diverged between fabric
//! instances, or the health plane observed shard-dependent timing.
//!
//! Every row is a closed-loop run, and the run's fold asserts the ingress's
//! request ledger, `issued == completed + lost + live_at_end` (a request
//! lost to suspicion ends as lost, and its client re-issues), in debug
//! builds such as `cargo test`'s: every row here checks it.
//!
//! To regenerate after an *intentional* change:
//! `GOLDEN_REGEN=1 cargo test -q --test chaos_cluster` and commit the
//! updated snapshot together with the change that explains it.
#![recursion_limit = "512"]

use proptest::prelude::*;

use palladium_core::driver::cluster_sharded::{ClusterShardedReport, ClusterShardedSim};
use palladium_core::system::SystemKind;
use palladium_simnet::{Execution, FaultPlan, Nanos, ScenarioOp, ScenarioScript};
use palladium_workloads::boutique::{sharded_config, ChainKind};
use palladium_workloads::chaos::{
    base_cfg, crash_failover, gray_partition, link_flap, rack_crash_rejoin, scenarios, straggler,
    SLO_COLS,
};

mod common;
use common::{assert_golden, assert_in_slo_file};

/// What a golden line pins after its hex-exact `rps` (no shortest-repr
/// float ambiguity): the fault-free trace extended with histogram tails
/// and the chaos accounting.
const GOLDEN_COLS: [&str; 30] = [
    "mean_ns", "p50_ns", "p99_ns", "p999_ns", "completed", "sw_bytes", "dma_bytes", "events",
    "messages", "fault_drops", "crash_drops", "corrupt", "rto", "rnr_naks", "suspected",
    "recovered", "inflight_lost", "reroutes", "shed_qp", "shed_pool", "shed_admission",
    "shed_deadline", "shed_breaker", "rejoins", "rejoins_aborted", "ttr_p50_ns", "ttr_p99_ns",
    "gray_demoted", "gray_restored", "gray_reroutes",
];

fn trace(name: &str, r: &ClusterShardedReport) -> String {
    let rps = r.chain.load.rps.to_bits();
    format!("chaos/{name}: rps={rps:016x} {}\n", r.kv_line(&GOLDEN_COLS).unwrap())
}

#[test]
fn chaos_scenarios_reproduce_the_snapshot_at_every_shard_count() {
    let (mut sims, mut serial, mut slo_rows) = (Vec::new(), String::new(), Vec::new());
    for (name, script) in scenarios() {
        let sim = ClusterShardedSim::new(base_cfg().chaos(script));
        let r = sim.run(1, Execution::Sequential);
        assert!(r.chain.load.completed > 0, "{name}: cluster must survive the scenario");
        let one = trace(name, &r);
        serial.push_str(&one);
        slo_rows.push(r.json_row(&format!("\"scenario\": \"{name}\""), &SLO_COLS).unwrap());
        sims.push((name, sim, one));
    }
    assert_golden("chaos_cluster_golden.txt", &serial);
    // The same runs are rows of the committed SLO file.
    slo_rows.iter().for_each(|row| assert_in_slo_file(row));

    for (name, sim, one) in &sims {
        for shards in [2usize, 4, 8] {
            for execution in [Execution::Sequential, Execution::Threads] {
                let got = trace(name, &sim.run(shards, execution));
                assert_eq!(
                    &got, one,
                    "{name}: {shards} shards / {execution:?} diverged from the serial bytes"
                );
            }
        }
    }
}

#[test]
fn crash_triggers_detection_failover_and_recovery() {
    let r = ClusterShardedSim::new(base_cfg().chaos(crash_failover())).run(1, Execution::Sequential);
    let c = &r.chaos;
    assert!(c.crash_drops > 0, "the partition must eat frames: {c:?}");
    assert!(c.suspected > 0, "missed heartbeats must raise suspicion: {c:?}");
    assert!(c.inflight_lost > 0, "suspicion must abandon in-flight requests: {c:?}");
    assert!(c.reroutes > 0, "issues during the outage must re-route: {c:?}");
    assert!(c.recovered > 0, "heartbeats resume after the window: {c:?}");
    assert_eq!(c.fault_drops, 0, "a pure partition draws no stochastic verdicts");
}

#[test]
fn flap_drops_are_absorbed_by_the_transport() {
    let faulty = ClusterShardedSim::new(base_cfg().chaos(link_flap())).run(1, Execution::Sequential);
    let c = &faulty.chaos;
    assert!(c.fault_drops > 0, "flap windows must drop frames: {c:?}");
    assert!(c.rto > 0, "dropped frames must cost retransmission timeouts: {c:?}");
    assert_eq!(c.crash_drops, 0, "no partitions in this scenario");
    assert!(
        faulty.chain.load.completed > 0,
        "go-back-N must still complete requests through the flaps"
    );
}

#[test]
fn straggler_moves_the_latency_tail() {
    let healthy = ClusterShardedSim::new(base_cfg()).run(1, Execution::Sequential);
    let slow = ClusterShardedSim::new(base_cfg().chaos(straggler())).run(1, Execution::Sequential);
    assert_eq!(slow.chaos.fault_drops + slow.chaos.crash_drops, 0, "stragglers lose nothing");
    assert!(
        slow.p99 > healthy.p99,
        "an 8× straggler must stretch p99 ({} vs {})",
        slow.p99.as_nanos(),
        healthy.p99.as_nanos()
    );
    assert!(
        slow.chain.load.completed > 0,
        "the cluster keeps completing through the straggle window"
    );
}

/// A rack-scoped crash takes out both workers of pair 1 at once, and
/// recovery is *costed*: the pair re-enters routing only after paying
/// QP re-establishment + MR re-registration + pool re-sync, so the
/// time-to-recovery histogram must be non-zero and both rejoins must
/// complete within the run.
#[test]
fn rack_crash_pays_a_costed_rejoin() {
    let r = ClusterShardedSim::new(base_cfg().chaos(rack_crash_rejoin()))
        .run(1, Execution::Sequential);
    let c = &r.chaos;
    assert!(c.suspected >= 2, "both rack members must be suspected: {c:?}");
    assert!(c.recovered >= 2, "heartbeats resume after the window: {c:?}");
    assert_eq!(c.rejoins, 2, "both workers must complete the costed rejoin: {c:?}");
    assert_eq!(c.rejoins_aborted, 0, "a single clean outage aborts nothing: {c:?}");
    assert!(!c.ttr_p50.is_zero(), "recovery must take measurable time: {c:?}");
    assert!(c.ttr_p99 >= c.ttr_p50, "histogram tails are ordered: {c:?}");
    // Detection alone takes three heartbeat periods; the paid rejoin makes
    // TTR strictly larger than the ~774 µs default control-plane cost.
    assert!(
        c.ttr_p50 > Nanos::from_micros(700),
        "TTR must include the control-plane cost: {c:?}"
    );
    assert!(r.chain.load.completed > 0, "survivors keep serving");
}

/// Doubling the configured control-plane costs must move the measured
/// time-to-recovery: TTR is an output of the cost model, not a constant.
#[test]
fn time_to_recovery_scales_with_rejoin_costs() {
    use palladium_core::connpool::RejoinCosts;
    let cfg = || base_cfg().duration_ms(7).chaos(rack_crash_rejoin());
    let base = ClusterShardedSim::new(cfg()).run(1, Execution::Sequential);
    let mut pricey = cfg();
    pricey.rejoin = RejoinCosts {
        qp_setup: Nanos::from_micros(100),
        mr_register: Nanos::from_micros(200),
        resync_ns_per_kib: 64,
    };
    let pricey = ClusterShardedSim::new(pricey).run(1, Execution::Sequential);
    assert_eq!(base.chaos.rejoins, 2, "{:?}", base.chaos);
    assert_eq!(pricey.chaos.rejoins, 2, "{:?}", pricey.chaos);
    assert!(
        pricey.chaos.ttr_p50 > base.chaos.ttr_p50,
        "4× control-plane costs must raise TTR ({} vs {})",
        pricey.chaos.ttr_p50.as_nanos(),
        base.chaos.ttr_p50.as_nanos()
    );
}

/// The gray link drops/delays pair 2's chain traffic but never touches
/// heartbeats (they travel worker → ingress, not 4 → 5): pure heartbeat
/// detection must stay silent while the differential EWMA demotes the
/// pair and deflects its traffic.
#[test]
fn gray_partition_is_caught_by_ewma_not_heartbeats() {
    let r = ClusterShardedSim::new(base_cfg().chaos(gray_partition()))
        .run(1, Execution::Sequential);
    let c = &r.chaos;
    assert_eq!(c.suspected, 0, "gray faults sit below the heartbeat threshold: {c:?}");
    assert_eq!(c.reroutes, 0, "no crash failover without suspicion: {c:?}");
    assert!(c.fault_drops > 0, "the gray link must actually drop frames: {c:?}");
    assert!(c.gray_demoted > 0, "the EWMA comparison must demote pair 2: {c:?}");
    assert!(
        c.gray_reroutes > 0,
        "probation must deflect the pair's traffic: {c:?}"
    );
    assert!(r.chain.load.completed > 0, "the cluster keeps serving through it");
}

/// Repeated outage cycles on one worker, the second crash landing
/// mid-rejoin: the stale rejoin completion must be voided (epoch
/// machinery), counted as aborted, and the final recovery must still
/// complete cleanly.
#[test]
fn crash_mid_rejoin_aborts_and_recovers() {
    let script = ScenarioScript::new()
        .crash(2, Nanos::from_millis(1), Nanos::from_millis(2))
        .crash(2, Nanos::from_micros(2_200), Nanos::from_micros(3_500));
    let r = ClusterShardedSim::new(base_cfg().chaos(script)).run(1, Execution::Sequential);
    let c = &r.chaos;
    assert_eq!(c.suspected, 2, "each outage is one suspicion: {c:?}");
    assert_eq!(c.recovered, 2, "heartbeats resume after each window: {c:?}");
    assert_eq!(c.rejoins_aborted, 1, "the mid-rejoin crash voids one rejoin: {c:?}");
    assert_eq!(c.rejoins, 1, "only the final recovery completes: {c:?}");
    assert!(!c.ttr_p50.is_zero(), "{c:?}");
}

/// Satellite regression: the per-node fault streams make stochastic
/// drop *counters* — not just aggregate shapes — identical at 1 and 4
/// shards. Before the rework the verdict RNG advanced per-net, so
/// re-sharding reshuffled every coin flip.
#[test]
fn drop_counters_are_shard_count_invariant() {
    let sim = ClusterShardedSim::new(base_cfg().chaos(link_flap()));
    let one = sim.run(1, Execution::Sequential);
    let four = sim.run(4, Execution::Sequential);
    assert!(one.chaos.fault_drops > 0, "scenario must exercise the fault path");
    assert_eq!(
        one.chaos, four.chaos,
        "fault/health counters diverged between 1 and 4 shards"
    );
}

/// A scripted fault storm, proptest-shaped: random crash windows, flap
/// probabilities and straggle factors over a smaller (2-pair) cluster
/// must stay byte-identical between 1 and 4 shards. Drives scenario
/// shapes no hand-written pin would think of.
fn storm_strategy() -> impl Strategy<Value = ScenarioScript> {
    let crash = (0usize..4, 200_000u64..1_200_000, 200_000u64..1_500_000).prop_map(
        |(node, from, len)| ScenarioOp::Crash { node, from: Nanos(from), until: Nanos(from + len) },
    );
    let flap = (0usize..4, 0.01f64..0.2, 100_000u64..1_000_000, 200_000u64..1_500_000)
        .prop_map(|(node, drop, from, len)| ScenarioOp::Flap {
            node,
            drop,
            from: Nanos(from),
            until: Nanos(from + len),
        });
    let corrupt = (0usize..4, 0.005f64..0.05).prop_map(|(node, p)| ScenarioOp::Storm {
        node,
        plan: FaultPlan { corrupt_chance: p, ..FaultPlan::NONE },
    });
    let straggle = (0usize..5, 2.0f64..12.0, 100_000u64..1_000_000, 200_000u64..1_500_000)
        .prop_map(|(node, factor, from, len)| ScenarioOp::Straggle {
            node,
            factor,
            from: Nanos(from),
            until: Nanos(from + len),
        });
    let gray = (0usize..5, 1usize..5, 0.01f64..0.1, 0u64..20_000, 100_000u64..1_000_000, 200_000u64..1_500_000)
        .prop_map(|(src, off, drop, delay, from, len)| ScenarioOp::Gray {
            node: (src + off) % 5,
            src,
            drop,
            delay: Nanos(delay),
            from: Nanos(from),
            until: Nanos(from + len),
        });
    proptest::collection::vec(prop_oneof![crash, flap, corrupt, straggle, gray], 1..4)
        .prop_map(|ops| ops.into_iter().fold(ScenarioScript::new(), ScenarioScript::op))
}

fn check_storm(script: ScenarioScript) -> Result<(), TestCaseError> {
    let cfg = sharded_config(SystemKind::PalladiumDne, ChainKind::HomeQuery, 2)
        .clients(8)
        .warmup_ms(0)
        .duration_ms(2)
        .chaos(script);
    let sim = ClusterShardedSim::new(cfg);
    let one = trace("storm", &sim.run(1, Execution::Sequential));
    for (shards, execution) in [(4usize, Execution::Sequential), (4, Execution::Threads)] {
        let got = trace("storm", &sim.run(shards, execution));
        prop_assert_eq!(
            &got,
            &one,
            "storm diverged at {} shards / {:?}",
            shards,
            execution
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn fault_storms_are_shard_count_invariant(script in storm_strategy()) {
        check_storm(script)?;
    }
}

/// Satellite: a domain-scoped crash compiles to *exactly* the member
/// nodes' down tables — byte-identical to the equivalent per-node ops,
/// member order preserved — and touches no other node.
fn check_domain_compile(
    members: Vec<usize>,
    from: Nanos,
    until: Nanos,
) -> Result<(), TestCaseError> {
    let domain = ScenarioScript::new()
        .domain("d", &members)
        .crash_domain("d", from, until)
        .compile(9);
    let mut manual = ScenarioScript::new();
    for &m in &members {
        manual = manual.crash(m, from, until);
    }
    prop_assert_eq!(&domain, &manual.compile(9), "domain != per-node ops");
    for n in 0..9 {
        let hit = domain.down[n] == vec![(from, until)];
        let miss = domain.down[n].is_empty();
        prop_assert!(
            if members.contains(&n) { hit } else { miss },
            "node {}'s down table is wrong: {:?}",
            n,
            domain.down[n]
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn domain_crash_compiles_to_member_down_tables(
        raw in proptest::collection::vec(0usize..8, 1..6),
        from in 0u64..2_000_000,
        len in 1u64..2_000_000,
    ) {
        // Deduplicate (the domain builder rejects duplicate members)
        // while preserving first-occurrence order.
        let mut members = Vec::new();
        for m in raw {
            if !members.contains(&m) {
                members.push(m);
            }
        }
        check_domain_compile(members, Nanos(from), Nanos(from + len))?;
    }
}
