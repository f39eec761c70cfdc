//! `slo_smoke` — tail-latency SLO and goodput gates for the chaos and
//! overload scenarios.
//!
//! The chaos plane (scripted crashes, link flaps, stragglers on the
//! sharded Fig 16 cluster — see `palladium_simnet::chaos`) exists to
//! answer one question: *how much tail latency does each fault class
//! cost, and does failover keep the cluster serving?* The overload plane
//! (open-loop arrivals, admission control, retry budgets, costed
//! autoscale — see `palladium_workloads::openloop`) answers the sequel:
//! *what happens when the offered load itself is the fault?* This binary
//! pins both. It runs a fault-free baseline plus the five chaos
//! scenarios and the three overload scenarios, reads p50/p99/p99.9 off
//! the streaming latency histogram, and writes `BENCH_slo.json` — the
//! committed copy is the per-scenario SLO the CI bench-smoke job diffs
//! against.
//!
//! Unlike events/sec these numbers are *simulated* latencies: fully
//! deterministic, identical on every machine and at every shard count
//! (the chaos and overload goldens pin the bytes). A drift here is a
//! modeling change, never runner noise — the CI diff only warns
//! (mirroring the events/sec step) so intentional model changes can land
//! with a regenerated JSON, but any drift deserves a look.
//!
//! Hard in-binary gates (machine-independent, always enforced):
//! - every scenario keeps completing requests (failover liveness);
//! - the crash scenario detects, fails over and recovers;
//! - the rack-crash scenario suspects the whole domain and both members
//!   complete the *costed* rejoin with non-zero time-to-recovery;
//! - the gray-partition scenario is caught by the differential EWMA
//!   (demotion + deflection) while heartbeat suspicion stays at zero;
//! - no chaos scenario sheds requests (the chaos-raised retry budget and
//!   the default pool sizing hold);
//! - the flash crowd triggers costed scale-out (warm lease + full rejoin
//!   bill) with a measured surge-window tail;
//! - the budgeted metastable config recovers goodput after the transient
//!   crash while the legacy unbounded config stays collapsed.
//!
//! With `--load-sweep` it additionally walks the offered-load grid
//! (`SWEEP_RPS`), locates the knee of the goodput-vs-offered-load curve
//! (the smallest rate whose goodput is within 10% of the peak), gates
//! goodput at 2x-the-knee offered load staying >= 50% of the peak (no
//! congestion collapse), and writes the curve + knee into the JSON.
//!
//! Usage: `cargo run --release -p palladium-bench --bin slo_smoke --
//! [--load-sweep] [--out PATH]` (default `BENCH_slo.json`).

use palladium_core::driver::cluster_sharded::{
    ClusterShardedConfig, ClusterShardedReport, ClusterShardedSim,
};
use palladium_core::system::SystemKind;
use palladium_simnet::{Execution, Nanos, ScenarioScript};
use palladium_workloads::boutique::{sharded_config, ChainKind};
use palladium_workloads::openloop::{flash_autoscale, metastable, poisson_overload, SWEEP_RPS};

const PAIRS: usize = 4;

fn base_cfg() -> ClusterShardedConfig {
    sharded_config(SystemKind::PalladiumDne, ChainKind::HomeQuery, PAIRS)
        .clients(8 * PAIRS)
        .warmup_ms(1)
        .duration_ms(4)
}

/// The chaos-scenario catalogue, mirroring `tests/chaos_cluster.rs` (the
/// golden pins the bytes; this binary pins the SLO view of them).
fn scenarios() -> Vec<(&'static str, Option<ScenarioScript>)> {
    vec![
        ("fault_free", None),
        (
            "crash_failover",
            Some(ScenarioScript::new().crash(2, Nanos::from_micros(1_500), Nanos::from_millis(3))),
        ),
        (
            "link_flap",
            Some(
                ScenarioScript::new()
                    .flap(5, 0.05, Nanos::from_millis(1), Nanos::from_micros(2_500))
                    .flap(1, 0.02, Nanos::from_micros(1_800), Nanos::from_micros(3_200)),
            ),
        ),
        (
            "straggler",
            Some(ScenarioScript::new().straggle(
                6,
                8.0,
                Nanos::from_millis(1),
                Nanos::from_millis(3),
            )),
        ),
        (
            "rack_crash_rejoin",
            Some(
                ScenarioScript::new()
                    .domain("rack1", &[2, 3])
                    .crash_domain("rack1", Nanos::from_micros(1_500), Nanos::from_millis(3)),
            ),
        ),
        (
            "gray_partition",
            Some(ScenarioScript::new().gray_link(
                4,
                5,
                0.05,
                Nanos::from_micros(200),
                Nanos::from_millis(1),
                Nanos::from_micros(4_500),
            )),
        ),
    ]
}

/// The overload-scenario catalogue, mirroring `tests/overload_cluster.rs`
/// (the overload golden pins the bytes; this binary pins the gates).
fn overload_scenarios() -> Vec<(&'static str, ClusterShardedConfig)> {
    vec![
        ("flash_autoscale", flash_autoscale()),
        ("metastable_budgeted", metastable(true)),
        ("metastable_unbounded", metastable(false)),
    ]
}

fn gate(name: &str, r: &ClusterShardedReport) -> bool {
    let mut ok = true;
    if r.chain.load.completed == 0 {
        eprintln!("FAIL: {name}: cluster completed zero requests — liveness lost");
        ok = false;
    }
    let shed = r.chaos.shed_qp + r.chaos.shed_pool;
    if shed > 0 {
        eprintln!(
            "FAIL: {name}: {shed} requests shed (qp={} pool={}) — a QP exhausted the \
             chaos-raised retry budget or the ingress pool ran dry",
            r.chaos.shed_qp, r.chaos.shed_pool
        );
        ok = false;
    }
    if name == "crash_failover" {
        let c = &r.chaos;
        if c.suspected == 0 || c.reroutes == 0 || c.recovered == 0 {
            eprintln!(
                "FAIL: {name}: detection/failover/recovery incomplete \
                 (suspected={} reroutes={} recovered={})",
                c.suspected, c.reroutes, c.recovered
            );
            ok = false;
        }
    }
    if name == "rack_crash_rejoin" {
        let c = &r.chaos;
        // The correlated crash must suspect the whole domain, and
        // recovery must be *costed*: both members complete the paid
        // rejoin with a non-zero time-to-recovery.
        if c.suspected < 2 || c.rejoins < 2 || c.ttr_p50.is_zero() {
            eprintln!(
                "FAIL: {name}: costed rejoin incomplete \
                 (suspected={} rejoins={} ttr_p50={})",
                c.suspected,
                c.rejoins,
                c.ttr_p50.as_nanos()
            );
            ok = false;
        }
    }
    if name == "gray_partition" {
        let c = &r.chaos;
        // Gray faults sit below the heartbeat threshold: detection must
        // come from the differential EWMA (demotion + deflection), never
        // from suspicion.
        if c.suspected != 0 || c.gray_demoted == 0 || c.gray_reroutes == 0 {
            eprintln!(
                "FAIL: {name}: EWMA detection incomplete or heartbeats fired \
                 (suspected={} gray_demoted={} gray_reroutes={})",
                c.suspected, c.gray_demoted, c.gray_reroutes
            );
            ok = false;
        }
    }
    ok
}

fn overload_gate(name: &str, r: &ClusterShardedReport) -> bool {
    let o = &r.overload;
    let mut ok = true;
    if o.goodput == 0 {
        eprintln!("FAIL: {name}: zero goodput — overload killed the cluster");
        ok = false;
    }
    match name {
        // The surge must trigger *costed* elasticity: spare pairs
        // activate, the first claims the warm lease, later ones pay the
        // full rejoin bill, and the surge-window tail is measured.
        "flash_autoscale"
            if o.scale_ups < 1
                || o.lease_hits < 1
                || o.rejoin_bills < 1
                || o.ramp_p99.is_zero() =>
        {
            eprintln!(
                "FAIL: {name}: costed scale-out incomplete (scale_ups={} lease_hits={} \
                 rejoin_bills={} ramp_p99={})",
                o.scale_ups,
                o.lease_hits,
                o.rejoin_bills,
                o.ramp_p99.as_nanos()
            );
            ok = false;
        }
        // Budgets + breaker + backlog shedding turn the transient crash
        // back into a transient: goodput must recover in the last
        // quarter of the run, with the machinery visibly engaged.
        "metastable_budgeted"
            if o.recovery_goodput == 0 || o.retry_exhausted == 0 || o.breaker_opens == 0 =>
        {
            eprintln!(
                "FAIL: {name}: budgeted config failed to recover \
                 (recovery_goodput={} retry_exhausted={} breaker_opens={})",
                o.recovery_goodput, o.retry_exhausted, o.breaker_opens
            );
            ok = false;
        }
        // The negative control must stay collapsed — if unbounded
        // retries also recover, the scenario no longer demonstrates the
        // metastable failure the budgets exist to prevent.
        "metastable_unbounded" if o.recovery_goodput != 0 => {
            eprintln!(
                "FAIL: {name}: the unbounded control recovered (recovery_goodput={}) — \
                 the metastable scenario lost its teeth",
                o.recovery_goodput
            );
            ok = false;
        }
        _ => {}
    }
    ok
}

/// Walk the offered-load grid, locate the knee of the goodput curve, and
/// gate against congestion collapse. Returns (ok, json rows, knee rps).
fn load_sweep() -> (bool, Vec<String>, f64) {
    println!("slo_smoke: goodput-vs-offered-load sweep ({} points)", SWEEP_RPS.len());
    let mut points = Vec::new();
    let mut rows = Vec::new();
    for &rps in SWEEP_RPS.iter() {
        let r = ClusterShardedSim::new(poisson_overload(rps)).run(2, Execution::Sequential);
        let o = &r.overload;
        println!(
            "  {:>9.0} rps offered: offered={:>5} admitted={:>5} goodput={:>4} late={:>3} \
             shed_admission={:>5} shed_deadline={:>5} p99={:>8} ns",
            rps,
            o.offered,
            o.admitted,
            o.goodput,
            o.late,
            r.chaos.shed_admission,
            r.chaos.shed_deadline,
            r.p99.as_nanos()
        );
        rows.push(format!(
            "    {{\"offered_rps\": {rps}, \"offered\": {}, \"admitted\": {}, \"goodput\": {}, \
             \"late\": {}, \"shed_admission\": {}, \"shed_deadline\": {}, \"p99_ns\": {}}}",
            o.offered,
            o.admitted,
            o.goodput,
            o.late,
            r.chaos.shed_admission,
            r.chaos.shed_deadline,
            r.p99.as_nanos()
        ));
        points.push((rps, o.goodput));
    }
    let peak = points.iter().map(|&(_, g)| g).max().unwrap_or(0);
    // The knee: the smallest offered rate whose goodput is already within
    // 10% of the peak — beyond it, extra offered load buys nothing but
    // shedding work.
    let knee = points
        .iter()
        .find(|&&(_, g)| 10 * g >= 9 * peak)
        .map(|&(rps, _)| rps)
        .unwrap_or(0.0);
    let (top_rps, top_goodput) = *points.last().expect("sweep grid is non-empty");
    let mut ok = true;
    if knee == 0.0 || peak == 0 {
        eprintln!("FAIL: load sweep found no knee — goodput never approached a peak");
        ok = false;
    }
    if top_rps < 2.0 * knee {
        eprintln!(
            "FAIL: sweep grid tops out at {top_rps} rps, under 2x the knee ({knee} rps) — \
             the collapse gate needs deeper overload coverage"
        );
        ok = false;
    }
    // The no-congestion-collapse claim: past 2x the knee, admission
    // control + deadline shedding keep goodput >= half the peak instead
    // of letting retry/queueing work starve real service.
    if 2 * top_goodput < peak {
        eprintln!(
            "FAIL: goodput collapsed past saturation ({top_goodput} at {top_rps} rps vs \
             peak {peak}) — the shedding machinery is not protecting service"
        );
        ok = false;
    }
    println!(
        "  knee={knee:.0} rps (goodput peak {peak}); goodput at {top_rps:.0} rps = {top_goodput}"
    );
    (ok, rows, knee)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_slo.json".to_string());
    let sweep = args.iter().any(|a| a == "--load-sweep");

    let mut rows: Vec<String> = Vec::new();
    let mut all_ok = true;
    println!("slo_smoke: chaos tail-latency gates (4-pair sharded cluster, 5 ms horizon)");
    for (name, script) in scenarios() {
        let mut cfg = base_cfg();
        if let Some(s) = script {
            cfg = cfg.chaos(s);
        }
        // 2 shards: covers the mailbox path too; the chaos golden proves
        // every shard count reports the same bytes, so the SLO numbers
        // are shard-count-free.
        let r = ClusterShardedSim::new(cfg).run(2, Execution::Sequential);
        all_ok &= gate(name, &r);
        println!(
            "  {name:>19}: p50={:>7} ns  p99={:>8} ns  p99.9={:>8} ns  completed={:>4}  \
             drops={} crash={} rto={} rnr_naks={} suspected={} reroutes={} lost={} \
             rejoins={} ttr_p50={} gray_demoted={} gray_reroutes={}",
            r.p50.as_nanos(),
            r.p99.as_nanos(),
            r.p999.as_nanos(),
            r.chain.load.completed,
            r.chaos.fault_drops,
            r.chaos.crash_drops,
            r.chaos.rto,
            r.chaos.rnr_naks,
            r.chaos.suspected,
            r.chaos.reroutes,
            r.chaos.inflight_lost,
            r.chaos.rejoins,
            r.chaos.ttr_p50.as_nanos(),
            r.chaos.gray_demoted,
            r.chaos.gray_reroutes
        );
        rows.push(format!(
            "    {{\"scenario\": \"{name}\", \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \
             \"completed\": {}, \"fault_drops\": {}, \"crash_drops\": {}, \"rto\": {}, \
             \"rnr_naks\": {}, \"suspected\": {}, \"recovered\": {}, \"inflight_lost\": {}, \
             \"reroutes\": {}, \"rejoins\": {}, \"ttr_p50_ns\": {}, \"ttr_p99_ns\": {}, \
             \"gray_demoted\": {}, \"gray_reroutes\": {}}}",
            r.p50.as_nanos(),
            r.p99.as_nanos(),
            r.p999.as_nanos(),
            r.chain.load.completed,
            r.chaos.fault_drops,
            r.chaos.crash_drops,
            r.chaos.rto,
            r.chaos.rnr_naks,
            r.chaos.suspected,
            r.chaos.recovered,
            r.chaos.inflight_lost,
            r.chaos.reroutes,
            r.chaos.rejoins,
            r.chaos.ttr_p50.as_nanos(),
            r.chaos.ttr_p99.as_nanos(),
            r.chaos.gray_demoted,
            r.chaos.gray_reroutes
        ));
    }

    println!("slo_smoke: overload goodput gates (open-loop arrivals, budgeted degradation)");
    for (name, cfg) in overload_scenarios() {
        let r = ClusterShardedSim::new(cfg).run(2, Execution::Sequential);
        all_ok &= overload_gate(name, &r);
        let o = &r.overload;
        println!(
            "  {name:>19}: p50={:>7} ns  p99={:>8} ns  p99.9={:>8} ns  offered={:>4}  \
             goodput={:>3} late={} recovery={} exhausted={} breaker_opens={} \
             scale_ups={} lease_hits={} rejoin_bills={} ramp_p99={} rnr_naks={}",
            r.p50.as_nanos(),
            r.p99.as_nanos(),
            r.p999.as_nanos(),
            o.offered,
            o.goodput,
            o.late,
            o.recovery_goodput,
            o.retry_exhausted,
            o.breaker_opens,
            o.scale_ups,
            o.lease_hits,
            o.rejoin_bills,
            o.ramp_p99.as_nanos(),
            r.chaos.rnr_naks
        );
        rows.push(format!(
            "    {{\"scenario\": \"{name}\", \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \
             \"completed\": {}, \"offered\": {}, \"admitted\": {}, \"goodput\": {}, \
             \"late\": {}, \"recovery_goodput\": {}, \"retries\": {}, \"retry_exhausted\": {}, \
             \"shed_admission\": {}, \"shed_deadline\": {}, \"shed_breaker\": {}, \
             \"breaker_opens\": {}, \"scale_ups\": {}, \"scale_downs\": {}, \
             \"rejoin_bills\": {}, \"lease_hits\": {}, \"ramp_p99_ns\": {}, \
             \"rnr_naks\": {}}}",
            r.p50.as_nanos(),
            r.p99.as_nanos(),
            r.p999.as_nanos(),
            r.chain.load.completed,
            o.offered,
            o.admitted,
            o.goodput,
            o.late,
            o.recovery_goodput,
            o.retries,
            o.retry_exhausted,
            r.chaos.shed_admission,
            r.chaos.shed_deadline,
            r.chaos.shed_breaker,
            o.breaker_opens,
            o.scale_ups,
            o.scale_downs,
            o.rejoin_bills,
            o.lease_hits,
            o.ramp_p99.as_nanos(),
            r.chaos.rnr_naks
        ));
    }

    let mut sweep_section = String::new();
    if sweep {
        let (ok, sweep_rows, knee) = load_sweep();
        all_ok &= ok;
        sweep_section = format!(
            ",\n  \"knee_rps\": {knee},\n  \"load_sweep\": [\n{}\n  ]",
            sweep_rows.join(",\n")
        );
    }

    let mut json = String::from(
        "{\n  \"comment\": \"chaos + overload scenario SLOs; simulated (deterministic) \
         nanoseconds, regenerate with slo_smoke --load-sweep on intentional model changes\",\n  \
         \"scenarios\": [\n",
    );
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  ]");
    json.push_str(&sweep_section);
    json.push_str("\n}\n");
    std::fs::write(&out_path, &json).expect("write slo json");
    println!("wrote {out_path}");

    if !all_ok {
        std::process::exit(1);
    }
}
