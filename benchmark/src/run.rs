//! One invocation: one workload, one process, one thread.
//!
//! With `--trace 0` it measures the end-to-end metrics: the set-up cost
//! (median of several constructions + zero-horizon runs), then the fixed
//! horizon repeated for `--seconds` of host time (median rep wall time,
//! peak RSS, the simulated report). With `--trace 1` it runs the horizon
//! inside spans (once to warm up, once with the allocation counter read
//! around it), then the layer probes, and reports the per-layer metrics.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::json::Value;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes::{self, ProbePlan};
use crate::stats::{iqr_spread, median};
use crate::trace::{self, now, Tracer};
use crate::workloads::{Horizon, RunOut, SimOut, Workload};

/// Constructions + zero-horizon runs the set-up median is taken over.
const SETUP_REPS: usize = 101;
/// Fewest measured reps: the second one proves the first repeats exactly.
const MIN_REPS: usize = 2;
/// Fewest latency samples a full-horizon run may report: p99.9 then has 40
/// samples beyond it.
const MIN_SAMPLES: u64 = 40_000;

#[derive(Clone, Copy, Debug)]
pub struct Invocation {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// What one invocation found.
pub struct Outcome {
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; empty means correct.
    pub problems: Vec<String>,
    /// Plain fields next to the metrics (sample count, events, reps, …).
    pub details: Vec<(&'static str, Value)>,
    /// Spans of a traced invocation.
    pub spans: Option<Value>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|&(name, value, unit)| {
            (
                name,
                Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))]),
            )
        });
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
        .to_line()
    }

    /// Everything else `all` records about the invocation.
    pub fn details_line(&self) -> String {
        let problems = Value::Arr(self.problems.iter().map(Value::str).collect());
        let mut fields: Vec<(&str, Value)> = self.details.clone();
        fields.push(("problems", problems));
        Value::obj(fields).to_line()
    }
}

/// Checks on one run's simulated output that hold on every commit.
fn check_output(w: Workload, sim: &SimOut, smoke: bool, problems: &mut Vec<String>) {
    if sim.failed != 0 {
        problems.push(format!(
            "{} of {} operations failed; this workload has none by design",
            sim.failed, sim.attempted
        ));
    }
    if w.is_palladium() && sim.copy_bytes != 0 {
        problems.push(format!(
            "{} software-copied bytes on the zero-copy data plane",
            sim.copy_bytes
        ));
    }
    if !w.is_palladium() && sim.copy_bytes == 0 {
        problems.push("the FUYAO baseline reported no receiver-side copy".into());
    }
    if w == Workload::Openloop80k && sim.goodput + sim.late != sim.completed {
        problems.push(format!(
            "goodput {} + late {} != completed {}",
            sim.goodput, sim.late, sim.completed
        ));
    }
    if !smoke && sim.completed < MIN_SAMPLES {
        problems.push(format!(
            "{} latency samples, fewer than {MIN_SAMPLES}",
            sim.completed
        ));
    }
}

fn us(n: palladium_simnet::Nanos) -> f64 {
    n.as_nanos() as f64 / 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn run(inv: Invocation) -> Result<Outcome, String> {
    if inv.trace {
        traced(inv)
    } else {
        untraced(inv)
    }
}

fn horizon(inv: Invocation) -> Horizon {
    if inv.smoke {
        Horizon::Smoke
    } else {
        Horizon::Full
    }
}

fn untraced(inv: Invocation) -> Result<Outcome, String> {
    let w = inv.workload;
    let mut problems = Vec::new();

    let setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = now();
            black_box(w.run(inv.seed, Horizon::Zero));
            t.elapsed().as_secs_f64()
        })
        .collect();

    let budget = Duration::from_secs_f64(inv.seconds);
    let started = now();
    let mut walls = Vec::new();
    // The first rep's output, and the peak RSS right after it: how many
    // reps fit in the budget depends on the host's speed, and what the
    // allocator keeps between reps must not leak into a memory metric.
    let mut first: Option<(SimOut, u64)> = None;
    while walls.len() < MIN_REPS || started.elapsed() < budget {
        let t = now();
        let out = w.run(inv.seed, horizon(inv));
        walls.push(t.elapsed().as_secs_f64());
        match &first {
            None => first = Some((out.sim, trace::peak_rss_bytes()?)),
            Some((f, _)) if *f != out.sim => problems.push(format!(
                "rep {} differs from rep 1: {:?} vs {f:?}",
                walls.len(),
                out.sim
            )),
            Some(_) => {}
        }
    }
    let (sim, peak_rss) = first.expect("at least MIN_REPS reps ran");
    check_output(w, &sim, inv.smoke, &mut problems);

    let value = |name: &str| -> Result<f64, String> {
        Ok(match name {
            "setup_s" => median(&setup),
            "run_wall_s" => median(&walls),
            "peak_rss_mb" => peak_rss as f64 / (1024.0 * 1024.0),
            "sim_throughput_rps" => sim.throughput_rps,
            "sim_mean_us" => us(sim.mean),
            "sim_p99_us" => us(sim.p99),
            other => return Err(format!("end-to-end metric {other} has no source")),
        })
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| value(m.name).map(|v| (m.name, v, m.unit)))
        .collect::<Result<Vec<_>, _>>()?;
    for (name, v, _) in &metrics {
        if !(v.is_finite() && *v > 0.0) {
            problems.push(format!("{name} = {v}: end-to-end metrics are never 0"));
        }
    }

    Ok(Outcome {
        metrics,
        attempted: sim.attempted,
        failed: sim.failed,
        problems,
        details: vec![
            (
                "rep_wall_s",
                Value::Arr(walls.iter().map(|w| Value::Num(*w)).collect()),
            ),
            ("sim_samples", Value::Num(sim.completed as f64)),
            ("events", Value::Num(sim.events as f64)),
            (
                "spread",
                Value::obj([
                    ("setup_s", Value::Num(iqr_spread(&setup))),
                    ("run_wall_s", Value::Num(iqr_spread(&walls))),
                ]),
            ),
        ],
        spans: None,
    })
}

/// What the `workload` span of a traced invocation hands back.
struct TracedRun {
    out: RunOut,
    /// The warm-up rep reported exactly the same simulated output.
    repeats: bool,
    /// The same horizon at one shard, run only for `boutique_shard4`.
    reference: Option<RunOut>,
    allocs: u64,
    rss_growth: u64,
}

fn traced(inv: Invocation) -> Result<Outcome, String> {
    let w = inv.workload;
    let mut problems = Vec::new();
    let mut tracer = Tracer::new();

    let run = tracer.span("workload", |t| -> Result<TracedRun, String> {
        t.span("setup", |_| black_box(w.run(inv.seed, Horizon::Zero)));
        // The first run of a process pays for faulting its heap in: it
        // gives the memory growth, and the second, warm like the untraced
        // median, gives the time and the allocation count.
        let rss_before = trace::current_rss_bytes()?;
        let warm = t.span("warmup_run", |_| w.run(inv.seed, horizon(inv)));
        let rss_growth = trace::peak_rss_bytes()?.saturating_sub(rss_before);
        let allocs_before = trace::allocations();
        let out = t.span("run", |_| w.run(inv.seed, horizon(inv)));
        let allocs = trace::allocations() - allocs_before;
        let reference = (w == Workload::BoutiqueShard4).then(|| {
            t.span("reference_run", |_| {
                Workload::BoutiqueClosed.run(inv.seed, horizon(inv))
            })
        });
        Ok(TracedRun {
            repeats: warm.sim == out.sim,
            out,
            reference,
            allocs,
            rss_growth,
        })
    })?;
    let sim = &run.out.sim;
    check_output(w, sim, inv.smoke, &mut problems);
    if !run.repeats {
        problems.push("the traced rep's simulated output differs from its warm-up rep's".into());
    }
    if let Some(one) = &run.reference {
        let (a, b) = (one.sim.user_visible(), sim.user_visible());
        if a != b {
            problems.push(format!(
                "4 shards changed the simulated result: {b:?} vs {a:?} at 1 shard"
            ));
        }
    }

    let plan = if inv.smoke {
        ProbePlan {
            batches: 1,
            batch: Duration::from_millis(5),
        }
    } else {
        ProbePlan {
            batches: 5,
            batch: Duration::from_secs_f64(inv.seconds / 100.0),
        }
    };
    let probed = tracer.span("layers", |t| probes::run_all(inv.seed, plan, t))?;

    let values = tracer.span("fold", |t| {
        let wall_s = t.seconds_of("run").expect("the run span was recorded");
        // `fold` is the last span and is already in the list.
        fold_layers(&run, wall_s, &probed, t.spans().len())
    });
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            values
                .iter()
                .find(|(name, _)| *name == m.name)
                .map(|(_, v)| (m.name, *v, m.unit))
                .ok_or_else(|| format!("per-layer metric {} has no source", m.name))
        })
        .collect::<Result<Vec<_>, _>>()?;

    Ok(Outcome {
        metrics,
        attempted: sim.attempted,
        failed: sim.failed,
        problems,
        details: vec![
            ("sim_samples", Value::Num(sim.completed as f64)),
            ("events", Value::Num(sim.events as f64)),
        ],
        spans: Some(tracer.to_json(w.name())),
    })
}

/// Every per-layer value of a traced invocation, by name.
fn fold_layers(
    run: &TracedRun,
    wall_s: f64,
    probed: &[(&'static str, f64)],
    spans: usize,
) -> Vec<(&'static str, f64)> {
    let (sim, wall_ns) = (&run.out.sim, wall_s * 1e9);
    let (events, completed, windows) =
        (sim.events as f64, sim.completed as f64, sim.windows as f64);
    let busy = run.out.busy_ns as f64;
    // Shard-runner ratios against the 1-shard reference; a 1-shard run is
    // its own reference, and the serial engine has no shard runner (0).
    let base_busy = run.reference.as_ref().map_or(busy, |r| r.busy_ns as f64);
    let probe = |name: &str| {
        probed
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let hold = probe("simnet.queue.hold_ns_per_op.p64");
    let share = |ops: f64, ns: f64| 100.0 * ops * ns / wall_ns;
    // The fabric probe schedules through its own event queue; net that out
    // so queue and fabric shares do not count the same pops twice. A send
    // is two frames (data + ACK).
    let fabric_ns =
        (probe("rdma.net.send_ns_per_msg") - probe("rdma.net.events_per_msg") * hold).max(0.0);
    let queue_share = share(events, hold);
    let fabric_share = share(sim.fabric_frames as f64 / 2.0, fabric_ns);
    let ingress_share = share(sim.gateway_legs as f64, probe("core.ingress.submit_ns"));

    #[rustfmt::skip] // one row per line
    let mut v = vec![
        ("sim_p50_us", us(sim.p50)),
        ("sim_p999_us", us(sim.p999)),
        ("sim_cpu_cores", sim.cpu_cores),
        ("sim_dpu_cores", sim.dpu_cores),
        ("sim_copy_bytes_per_req", ratio(sim.copy_bytes as f64, completed)),
        ("failed_frac", ratio(sim.failed as f64, sim.attempted as f64)),
        ("simnet.harness.events_per_s", events / wall_s),
        ("simnet.harness.events_per_req", ratio(events, completed)),
        ("simnet.harness.rss_bytes_per_req", ratio(run.rss_growth as f64, completed)),
        ("simnet.harness.allocs_per_event", ratio(run.allocs as f64, events)),
        ("simnet.shard.windows", windows),
        ("simnet.shard.events_per_window", ratio(events, windows)),
        ("simnet.shard.messages", sim.mailbox_messages as f64),
        ("simnet.shard.spilled", sim.spilled as f64),
        ("simnet.shard.mailbox_high_water", sim.mailbox_high_water as f64),
        ("simnet.shard.overhead_ns_per_window", ratio((wall_ns - busy).max(0.0), windows)),
        ("simnet.shard.busy_inflation", ratio(busy, base_busy)),
        ("simnet.shard.critical_path_speedup", ratio(base_busy, run.out.critical_path_ns as f64)),
        ("rdma.net.frames_per_req", ratio(sim.fabric_frames as f64, completed)),
        ("rdma.net.dma_bytes_per_req", ratio(sim.dma_bytes as f64, completed)),
        ("core.ingress.shed_admission", sim.shed_admission as f64),
        ("core.ingress.shed_deadline", sim.shed_deadline as f64),
        ("core.ingress.shed_breaker", sim.shed_breaker as f64),
        ("core.ingress.breaker_opens", sim.breaker_opens as f64),
        ("core.ingress.late", sim.late as f64),
        ("core.ingress.admitted_frac", ratio(sim.admitted as f64, sim.offered as f64)),
        ("core.retry.retries", sim.retries as f64),
        ("core.retry.retry_exhausted", sim.retry_exhausted as f64),
        ("core.retry.useful_frac", ratio(sim.goodput as f64, (sim.offered + sim.retries) as f64)),
        ("simnet.queue.est_share_pct", queue_share),
        ("rdma.net.est_share_pct", fabric_share),
        ("core.ingress.est_share_pct", ingress_share),
        ("core.driver.residual_share_pct", 100.0 - queue_share - fabric_share - ingress_share),
        ("trace.run_wall_s", wall_s),
        ("trace.spans", spans as f64),
    ];
    v.extend_from_slice(probed);
    v
}

/// Where a traced invocation's spans go: `<dir>/trace-<workload>.json`.
pub fn spans_path(dir: &Path, workload: Workload) -> PathBuf {
    dir.join(format!("trace-{}.json", workload.name()))
}

pub fn write_spans(dir: &Path, workload: Workload, spans: &Value) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = spans_path(dir, workload);
    std::fs::write(&path, spans.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn smoke(workload: Workload, trace: bool) -> Outcome {
        run(Invocation {
            workload,
            seed: 2,
            seconds: 0.0,
            trace,
            smoke: true,
        })
        .expect("runs")
    }

    #[test]
    fn untraced_smoke_reports_every_end_to_end_metric() {
        let o = smoke(Workload::BoutiqueClosed, false);
        assert!(o.correct(), "{:?}", o.problems);
        let line = json::parse(&o.result_line()).unwrap();
        let keys: Vec<_> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let got: Vec<_> = line
            .get("metrics")
            .unwrap()
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let want: Vec<_> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(got, want);
        assert!(!o.result_line().contains('\n'));
    }

    #[test]
    fn traced_smoke_reports_every_per_layer_metric_and_spans() {
        let o = smoke(Workload::BoutiqueShard4, true);
        assert!(o.correct(), "{:?}", o.problems);
        let got: Vec<_> = o.metrics.iter().map(|m| m.0).collect();
        let want: Vec<_> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(got, want);
        let spans = o.spans.expect("a traced run records spans");
        let names: Vec<_> = spans
            .as_arr()
            .unwrap()
            .iter()
            .map(|s| s.get("name").unwrap().as_str().unwrap())
            .collect();
        for want in [
            "workload",
            "setup",
            "warmup_run",
            "run",
            "reference_run",
            "layers",
            "fold",
            "core.dne.tx_ns_per_wr",
        ] {
            assert!(names.contains(&want), "no {want} span in {names:?}");
        }
        let count = o.metrics.iter().find(|m| m.0 == "trace.spans").unwrap().1;
        assert_eq!(count as usize, names.len());
    }

    #[test]
    fn a_failed_check_makes_the_result_incorrect() {
        let mut problems = Vec::new();
        let sim = SimOut {
            attempted: 10,
            failed: 1,
            completed: 9,
            copy_bytes: 64,
            ..SimOut::default()
        };
        check_output(Workload::BoutiqueClosed, &sim, true, &mut problems);
        assert_eq!(problems.len(), 2, "{problems:?}");
        check_output(
            Workload::BoutiqueClosed,
            &SimOut::default(),
            false,
            &mut problems,
        );
        assert!(problems.last().unwrap().contains("latency samples"));
    }
}
