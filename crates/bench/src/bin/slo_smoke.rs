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
//! committed copy is the per-scenario SLO the CI bench-smoke job (and, row
//! by row, `cargo test`) compares against.
//!
//! These numbers are *simulated* latencies: fully deterministic, identical
//! on every machine and at every shard count (the chaos and overload
//! goldens pin the same runs — the `palladium_workloads` catalogue — byte
//! for byte). A drift here is a modeling change, never runner noise, so CI
//! gates the file with `cmp`: an intentional model change lands with its
//! regenerated JSON.
//!
//! Hard in-binary gates (machine-independent, always enforced; the arms of
//! `gate` say what each scenario must demonstrate): every scenario keeps
//! completing requests, no chaos scenario sheds any, every overload
//! scenario keeps non-zero goodput, every open-loop run's ledger balances
//! (`OverloadReport::check`), and the offered-load grid (`load_sweep`) has
//! a knee past which goodput does not collapse.
//!
//! Usage: `cargo run --release -p palladium-bench --bin slo_smoke --
//! [--out PATH]` (default `BENCH_slo.json`).

use std::process::ExitCode;

use palladium_bench::out_path_arg;
use palladium_core::driver::cluster_sharded::{
    ClusterShardedConfig, ClusterShardedReport, ClusterShardedSim,
};
use palladium_simnet::Execution;
use palladium_workloads::{chaos, openloop};

/// 2 shards: covers the mailbox path too; the goldens prove every shard
/// count reports the same bytes, so the SLO numbers are shard-count-free.
fn run(cfg: ClusterShardedConfig) -> ClusterShardedReport {
    ClusterShardedSim::new(cfg).run(2, Execution::Sequential)
}

/// Print `cols` of `r` as `key=value` cells under `label`, and return them
/// as the JSON row that opens with the member `lead`.
fn row(label: &str, lead: &str, r: &ClusterShardedReport, cols: &[&str]) -> String {
    let cells = r.kv_line(cols).expect("catalogue columns are metrics");
    println!("  {label:>20}: {cells}");
    format!("    {}", r.json_row(lead, cols).expect("catalogue columns are metrics"))
}

/// Report `failures` of `name`'s gate; true when there are none.
fn passed(name: &str, failures: &[String]) -> bool {
    for f in failures {
        eprintln!("FAIL: {name}: {f}");
    }
    failures.is_empty()
}

/// A scenario's gate: the cluster stays alive through it, and what the
/// scenario exists to demonstrate did happen.
fn gate(name: &str, r: &ClusterShardedReport) -> bool {
    let (c, o) = (&r.chaos, &r.overload);
    let open_loop = o.offered > 0;
    let mut failures = Vec::new();
    if r.chain.load.completed == 0 {
        failures.push("cluster completed zero requests — liveness lost".to_string());
    }
    if open_loop && o.goodput == 0 {
        failures.push("zero goodput — overload killed the cluster".to_string());
    }
    if let Err(e) = o.check() {
        failures.push(format!("open-loop ledger: {e}"));
    }
    if !open_loop && c.shed_qp + c.shed_pool > 0 {
        failures.push(format!(
            "requests shed — a QP exhausted the chaos-raised retry budget or the ingress \
             pool ran dry: {c:?}"
        ));
    }
    let undemonstrated = match name {
        "crash_failover" if c.suspected == 0 || c.reroutes == 0 || c.recovered == 0 => {
            "detection/failover/recovery incomplete"
        }
        // The correlated crash must suspect the whole domain, and recovery
        // must be *costed*: both members complete the paid rejoin with a
        // non-zero time-to-recovery.
        "rack_crash_rejoin" if c.suspected < 2 || c.rejoins < 2 || c.ttr_p50.is_zero() => {
            "costed rejoin incomplete"
        }
        // Gray faults sit below the heartbeat threshold: detection must
        // come from the differential EWMA (demotion + deflection), never
        // from suspicion.
        "gray_partition" if c.suspected != 0 || c.gray_demoted == 0 || c.gray_reroutes == 0 => {
            "EWMA detection incomplete or heartbeats fired"
        }
        // The surge must trigger *costed* elasticity: spare pairs
        // activate, the first claims the warm lease, later ones pay the
        // full rejoin bill, and the surge-window tail is measured.
        "flash_autoscale"
            if o.scale_ups < 1
                || o.lease_hits < 1
                || o.rejoin_bills < 1
                || o.ramp_p99.is_zero() =>
        {
            "costed scale-out incomplete"
        }
        // Budgets + breaker + backlog shedding turn the transient crash
        // back into a transient: goodput must recover in the last
        // quarter of the run, with the machinery visibly engaged.
        "metastable_budgeted"
            if o.recovery_goodput == 0 || o.retry_exhausted == 0 || o.breaker_opens == 0 =>
        {
            "budgeted config failed to recover"
        }
        // The negative control must stay collapsed — if unbounded
        // retries also recover, the scenario no longer demonstrates the
        // metastable failure the budgets exist to prevent.
        "metastable_unbounded" if o.recovery_goodput != 0 => {
            "the unbounded control recovered — the metastable scenario lost its teeth"
        }
        _ => "",
    };
    if !undemonstrated.is_empty() {
        failures.push(format!("{undemonstrated}: {c:?} {o:?}"));
    }
    passed(name, &failures)
}

/// Walk the offered-load grid, locate the knee of the goodput curve, and
/// gate against congestion collapse. Returns (ok, json rows, knee rps).
fn load_sweep() -> (bool, Vec<String>, f64) {
    let mut points = Vec::new();
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for rps in openloop::SWEEP_RPS {
        let r = run(openloop::poisson_overload(rps));
        let lead = format!("\"offered_rps\": {rps}");
        rows.push(row(&format!("{rps} rps offered"), &lead, &r, &openloop::SWEEP_COLS));
        points.push((rps, r.overload.goodput));
        if let Err(e) = r.overload.check() {
            failures.push(format!("{rps} rps: open-loop ledger: {e}"));
        }
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
    if knee == 0.0 || peak == 0 {
        failures.push("found no knee — goodput never approached a peak".to_string());
    }
    if top_rps < 2.0 * knee {
        failures.push(format!(
            "grid tops out at {top_rps} rps, under 2x the knee ({knee} rps) — the collapse \
             gate needs deeper overload coverage"
        ));
    }
    // The no-congestion-collapse claim: past 2x the knee, admission
    // control + deadline shedding keep goodput >= half the peak instead
    // of letting retry/queueing work starve real service.
    if 2 * top_goodput < peak {
        failures.push(format!(
            "goodput collapsed past saturation ({top_goodput} at {top_rps} rps vs peak \
             {peak}) — the shedding machinery is not protecting service"
        ));
    }
    println!("  knee={knee} rps (goodput peak {peak}); goodput at {top_rps} rps = {top_goodput}");
    (passed("load sweep", &failures), rows, knee)
}

fn main() -> ExitCode {
    let out_path = match out_path_arg("slo_smoke", "BENCH_slo.json") {
        Ok(path) => path,
        Err(code) => return code,
    };

    let mut rows: Vec<String> = Vec::new();
    let mut all_ok = true;
    println!("slo_smoke: chaos tail-latency and overload goodput gates (4-pair sharded cluster)");
    let (chaos_cols, overload_cols) = (&chaos::SLO_COLS[..], &openloop::SLO_COLS[..]);
    let fault_free = ("fault_free", chaos::base_cfg(), chaos_cols);
    let faulty = chaos::scenarios().map(|(n, script)| (n, chaos::base_cfg().chaos(script), chaos_cols));
    let overloaded = openloop::slo_scenarios().map(|(n, cfg)| (n, cfg, overload_cols));
    for (name, cfg, cols) in std::iter::once(fault_free).chain(faulty).chain(overloaded) {
        let r = run(cfg);
        all_ok &= gate(name, &r);
        rows.push(row(name, &format!("\"scenario\": \"{name}\""), &r, cols));
    }
    println!("slo_smoke: goodput-vs-offered-load sweep");
    let (sweep_ok, sweep_rows, knee) = load_sweep();
    all_ok &= sweep_ok;

    let json = format!(
        "{{\n  \"comment\": \"chaos + overload scenario SLOs; simulated (deterministic) \
         nanoseconds, regenerate with slo_smoke on intentional model changes\",\n  \
         \"scenarios\": [\n{}\n  ],\n  \"knee_rps\": {knee},\n  \"load_sweep\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
        sweep_rows.join(",\n")
    );
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("slo_smoke: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
