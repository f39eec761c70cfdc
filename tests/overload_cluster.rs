//! Overload-regime pins for the sharded Fig 16 cluster.
//!
//! PR 10 makes overload a *survivable, measured* regime: open-loop
//! arrivals (so offered load decouples from completions), admission
//! control with deadline-aware shedding, per-request retry budgets, a
//! per-pair circuit breaker, and costed autoscaler scale-out. This suite
//! pins three things:
//!
//! 1. **Invariance** — every overload scenario (steady Poisson below and
//!    past saturation, the flash-crowd scale-out, both metastable
//!    controls) is byte-identical at 1/2/4/8 shards under both execution
//!    modes, via a golden snapshot like the chaos suite's.
//! 2. **Degradation shape** — past saturation the cluster sheds honestly
//!    (every drop path attributed) while goodput stays near its peak
//!    instead of collapsing.
//! 3. **The metastable contrast** — under a transient rack crash at
//!    saturation, the budgeted configuration recovers goodput and the
//!    legacy unbounded-retry configuration does not.
//!
//! To regenerate after an *intentional* change:
//! `GOLDEN_REGEN=1 cargo test -q --test overload_cluster` and commit the
//! updated snapshot together with the change that explains it.
#![recursion_limit = "512"]

use palladium_core::driver::cluster_sharded::{
    ClusterShardedConfig, ClusterShardedReport, ClusterShardedSim,
};
use palladium_simnet::Execution;
use palladium_workloads::openloop::{
    flash_autoscale, metastable, poisson_overload, slo_scenarios, SLO_COLS, SWEEP_COLS,
};

mod common;
use common::{assert_golden, assert_in_slo_file};

/// What a golden line pins: the overload view of a run, all integers.
const GOLDEN_COLS: [&str; 29] = [
    "offered", "admitted", "goodput", "late", "recovery_goodput", "retries", "retry_exhausted",
    "shed_qp", "shed_pool", "shed_admission", "shed_deadline", "shed_breaker", "breaker_opens",
    "breaker_closes", "scale_ups", "scale_downs", "rejoin_bills", "lease_hits", "ramp_p99_ns",
    "p50_ns", "p99_ns", "p999_ns", "completed", "events", "messages", "suspected", "reroutes",
    "rejoins", "rnr_naks",
];

/// A golden line, once the run's open-loop ledger is checked.
fn trace(name: &str, r: &ClusterShardedReport) -> String {
    checked(name, r);
    format!("overload/{name}: {}\n", r.kv_line(&GOLDEN_COLS).unwrap())
}

/// Panic unless `r`'s open-loop ledger balances
/// (`offered == goodput + late + retry_exhausted + live_at_end`).
fn checked(name: &str, r: &ClusterShardedReport) {
    if let Err(e) = r.overload.check() {
        panic!("{name}: {e}");
    }
}

/// `cfg` on one shard, its ledger checked.
fn run1(cfg: ClusterShardedConfig) -> ClusterShardedReport {
    let r = ClusterShardedSim::new(cfg).run(1, Execution::Sequential);
    checked("one-shard run", &r);
    r
}

/// The golden's scenarios, each with the lead cell and columns of its
/// `BENCH_slo.json` row: two points of the load sweep, then the three SLO
/// scenarios.
fn scenarios() -> Vec<(&'static str, ClusterShardedConfig, String, &'static [&'static str])> {
    let point = |name, rps: f64| {
        (name, poisson_overload(rps), format!("\"offered_rps\": {rps}"), &SWEEP_COLS[..])
    };
    let slo = slo_scenarios()
        .map(|(name, cfg)| (name, cfg, format!("\"scenario\": \"{name}\""), &SLO_COLS[..]));
    let points = [point("poisson_60k", 60_000.0), point("poisson_140k", 140_000.0)];
    points.into_iter().chain(slo).collect()
}

#[test]
fn overload_scenarios_reproduce_the_snapshot_at_every_shard_count() {
    let (mut sims, mut serial, mut slo_rows) = (Vec::new(), String::new(), Vec::new());
    for (name, cfg, slo_lead, slo_cols) in scenarios() {
        let sim = ClusterShardedSim::new(cfg);
        let r = sim.run(1, Execution::Sequential);
        assert!(r.overload.goodput > 0, "{name}: overload must not kill the cluster");
        let one = trace(name, &r);
        serial.push_str(&one);
        slo_rows.push(r.json_row(&slo_lead, slo_cols).unwrap());
        sims.push((name, sim, one));
    }
    assert_golden("overload_cluster_golden.txt", &serial);
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

/// Past saturation the admission machinery sheds honestly — queue
/// overflow, stale-queue eviction and deadline-infeasible drops are all
/// attributed, retry budgets exhaust visibly — and goodput stays near
/// the peak instead of collapsing (the no-congestion-collapse claim the
/// `slo_smoke` load sweep pins on the full grid).
#[test]
fn saturation_sheds_honestly_without_collapsing_goodput() {
    let near = run1(poisson_overload(100_000.0));
    let over = run1(poisson_overload(200_000.0));
    let o = &over.overload;
    assert!(o.offered > near.overload.offered, "open loop: offered load is not throttled");
    assert!(o.offered > o.admitted, "past saturation some arrivals must be refused");
    assert!(
        over.chaos.shed_admission > 0 && over.chaos.shed_deadline > 0,
        "both admission shed paths must fire and be attributed: {:?}",
        over.chaos
    );
    assert!(o.retries > 0, "shed requests must ride the backoff machinery");
    assert!(
        o.retry_exhausted > 0,
        "budget exhaustion is an honest, counted client-visible failure"
    );
    assert!(
        2 * o.goodput >= near.overload.goodput,
        "goodput at 2x saturation must stay >= half the near-knee goodput \
         ({} vs {})",
        o.goodput,
        near.overload.goodput
    );
}

/// Satellite regression for the once-silent shed at the ingress pool:
/// with the pool sized to leave only a couple of TX buffers beyond the
/// receive-queue priming (`INITIAL_RQ`), exhaustion must fire and be
/// *attributed* (`shed_pool`), while the cluster keeps serving.
#[test]
fn pool_exhaustion_is_attributed_not_silent() {
    let mut cfg = poisson_overload(140_000.0);
    cfg.pool_bufs = 514;
    let r = run1(cfg);
    assert!(
        r.chaos.shed_pool > 0,
        "a 2-spare-buffer pool must exhaust under overload: {:?}",
        r.chaos
    );
    assert!(r.overload.goodput > 0, "pool sheds must not kill the cluster");
    let healthy = run1(poisson_overload(140_000.0));
    assert_eq!(healthy.chaos.shed_pool, 0, "the default pool never exhausts");
}

/// The flash crowd over a half-active cluster must trigger costed
/// scale-out: the autoscaler activates the spare pairs, the first
/// activation claims the pre-leased warm worker at a fraction of the
/// bill, later ones pay the full rejoin cost, and the surge-window p99
/// is recorded. After the decay the scaler releases capacity again.
#[test]
fn flash_crowd_pays_costed_scale_out() {
    let r = run1(flash_autoscale());
    let o = &r.overload;
    assert!(o.scale_ups >= 1, "the surge must activate spare pairs: {o:?}");
    assert!(o.lease_hits >= 1, "the first activation claims the warm lease: {o:?}");
    assert!(o.rejoin_bills >= 1, "further activations pay the full bill: {o:?}");
    assert!(o.scale_downs >= 1, "the decay must release capacity: {o:?}");
    assert!(!o.ramp_p99.is_zero(), "the surge-window tail must be measured: {o:?}");
    assert!(o.goodput > 0, "the cluster serves through the ramp: {o:?}");
}

/// The headline robustness contrast. A transient rack crash at
/// saturation: the budgeted configuration sheds the stale backlog and
/// *recovers* — within-deadline completions resume in the last quarter
/// of the run — while the legacy unbounded-retry configuration keeps
/// serving a queue whose delay exceeds every deadline: completions
/// continue (late), goodput does not. Same fault, same offered load.
#[test]
fn budgets_recover_from_the_transient_crash_unbounded_retries_do_not() {
    let good = run1(metastable(true));
    let bad = run1(metastable(false));
    let (g, b) = (&good.overload, &bad.overload);
    assert_eq!(g.offered, b.offered, "identical offered load by construction");
    assert!(
        g.recovery_goodput > 0,
        "budgeted: goodput must recover after the fault clears: {g:?}"
    );
    assert_eq!(
        b.recovery_goodput, 0,
        "unbounded: the backlog outlives the fault — the metastable signature: {b:?}"
    );
    assert!(
        g.goodput > b.goodput,
        "budgets must beat the retry storm on goodput ({} vs {})",
        g.goodput,
        b.goodput
    );
    assert!(
        b.late > b.goodput,
        "unbounded keeps serving, but mostly worthless (late) work: {b:?}"
    );
    assert!(g.retry_exhausted > 0, "budget exhaustion is visible, not hidden: {g:?}");
    assert_eq!(b.retry_exhausted, 0, "the unbounded config never gives up: {b:?}");
    assert!(g.breaker_opens > 0, "pair loss must trip the breaker: {g:?}");
    assert_eq!(b.breaker_opens, 0, "the legacy config has no breaker: {b:?}");
}

/// The breaker composes with deadlines: while it sheds at the source the
/// drops are attributed to `shed_breaker`/`shed_deadline`, never lost.
#[test]
fn every_drop_path_is_attributed() {
    let r = run1(metastable(true));
    let c = &r.chaos;
    let o = &r.overload;
    let dropped = c.shed_qp
        + c.shed_pool
        + c.shed_admission
        + c.shed_deadline
        + c.shed_breaker
        + c.inflight_lost;
    assert!(dropped > 0, "the scenario must exercise the drop paths: {c:?}");
    // Conservation: every in-window completion is classified exactly once
    // — as goodput (within deadline) or as late. A gap here means a drop
    // path went back to being silent.
    assert_eq!(
        o.goodput + o.late,
        r.chain.load.completed,
        "every completion must be classified as goodput or late: {o:?}"
    );
}

/// Deterministic replay: the same sim object runs the same scenario to
/// the same bytes twice (no hidden state leaks between runs).
#[test]
fn overload_runs_are_replayable() {
    let sim = ClusterShardedSim::new(metastable(true));
    let a = trace("replay", &sim.run(2, Execution::Sequential));
    let b = trace("replay", &sim.run(2, Execution::Sequential));
    assert_eq!(a, b, "re-running the same sim must reproduce the bytes");
}
