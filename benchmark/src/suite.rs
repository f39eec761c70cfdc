//! The multi-run commands. Each spawns this executable once per
//! invocation, one after another, so every workload's peak RSS is its own
//! and never more than one thread runs.
//!
//! * `all` — every workload, untraced then traced; prints every metric,
//!   checks outputs, writes `results.json` and `trace.json`.
//! * `compare A.json B.json` — applies each end-to-end metric's direction
//!   and bound to two `results.json` files.
//! * `repeat` — the acceptance procedure: N seeds per workload, twice;
//!   quartile spread of each metric against its bound, and the second
//!   pass's median against the first's.

use std::path::Path;
use std::process::Command;

use crate::json::{self, Value};
use crate::metrics::{EndToEnd, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::run::{spans_path, Invocation};
use crate::stats::{classify, iqr_spread, median, worsening, Verdict};
use crate::workloads::Workload;

/// Where `results.json` and the traces go unless `--out` says otherwise,
/// relative to the directory the command is documented to run from (the
/// repo root).
pub const DEFAULT_OUT_DIR: &str = "benchmark/out";

/// Prefix of the line an invocation prints before its result line.
pub const DETAILS_PREFIX: &str = "#details ";

const UNVALIDATED: &str =
    "model unvalidated: the repo holds no reference results from the paper's \
hardware, so no error-vs-paper figure is reported";

/// One finished child invocation.
struct Child {
    result: Value,
    details: Value,
}

impl Child {
    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }

    fn correct(&self) -> bool {
        self.result.get("correct").and_then(Value::as_bool) == Some(true)
    }
}

/// Run one invocation in a child process and parse what it printed.
fn spawn(inv: Invocation, out_dir: &Path) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", inv.workload.name()])
        .args(["--seed", &inv.seed.to_string()])
        .args(["--seconds", &inv.seconds.to_string()])
        .args(["--trace", if inv.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out_dir);
    if inv.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child; stderr passes through.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {}: {e}", inv.workload.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty());
    let details = stdout.lines().find_map(|l| l.strip_prefix(DETAILS_PREFIX));
    match (last, details) {
        (Some(last), Some(details)) => Ok(Child {
            result: json::parse(last)?,
            details: json::parse(details)?,
        }),
        _ => Err(format!(
            "{} (trace {}) printed no result; exit {}",
            inv.workload.name(),
            inv.trace as u8,
            out.status
        )),
    }
}

fn host() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")?
                    .split(':')
                    .nth(1)
                    .map(|m| m.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    Value::obj([
        ("nproc", Value::Num(nproc as f64)),
        ("cpu", Value::Str(cpu)),
    ])
}

fn write(path: &Path, v: &Value) -> Result<(), String> {
    std::fs::write(path, v.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn print_metrics(c: &Child) {
    for (name, m) in c
        .result
        .get("metrics")
        .and_then(Value::as_obj)
        .unwrap_or(&[])
    {
        let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        println!("  {name:<42} {value:>18.6} {unit}");
    }
}

/// `all`: returns whether every output check held.
pub fn all(seed: u64, smoke: bool, out_dir: &Path) -> Result<bool, String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let seconds = if smoke { 0.0 } else { RUN_SECONDS as f64 };
    println!("{UNVALIDATED}");
    println!("sim_* and counts: simulated domain (exact per seed); *_s, *_mb, *_ns*: host domain (medians)");

    let mut ok = true;
    let mut rows = Vec::new();
    let mut spans = Vec::new();
    let mut closed: Option<(Child, Child)> = None;
    for w in Workload::ALL {
        let inv = Invocation {
            workload: w,
            seed,
            seconds,
            trace: false,
            smoke,
        };
        let plain = spawn(inv, out_dir)?;
        let traced = spawn(Invocation { trace: true, ..inv }, out_dir)?;
        println!(
            "\n== {} (seed {seed}{}) ==",
            w.name(),
            if smoke { ", smoke" } else { "" }
        );
        print_metrics(&plain);
        print_metrics(&traced);
        let overhead = match (
            traced.metric("trace.run_wall_s"),
            plain.metric("run_wall_s"),
        ) {
            (Some(t), Some(u)) => 100.0 * (t / u - 1.0),
            _ => f64::NAN,
        };
        println!("  {:<42} {overhead:>18.6} %", "trace_overhead_pct");

        let mut problems = Vec::new();
        for c in [&plain, &traced] {
            let found = c
                .details
                .get("problems")
                .and_then(Value::as_arr)
                .unwrap_or(&[]);
            problems.extend(found.iter().filter_map(Value::as_str).map(String::from));
            if !c.correct() && found.is_empty() {
                problems.push("the invocation reported incorrect output".into());
            }
        }
        // Sharding is invisible to the user: every simulated quantity of
        // boutique_shard4 equals boutique_closed's.
        if let (Workload::BoutiqueShard4, Some((p1, t1))) = (w, &closed) {
            let same = |a: &Child, b: &Child, name: &str| a.metric(name) == b.metric(name);
            let sim = |n: &&str| n.starts_with("sim_");
            for name in END_TO_END.iter().map(|m| m.name).filter(sim) {
                if !same(p1, &plain, name) {
                    problems.push(format!("{name} differs from boutique_closed"));
                }
            }
            for name in PER_LAYER.iter().map(|m| m.name).filter(sim) {
                if !same(t1, &traced, name) {
                    problems.push(format!("{name} differs from boutique_closed"));
                }
            }
            if p1.details.get("events") != plain.details.get("events") {
                problems.push("events differ from boutique_closed".into());
            }
        }
        for p in &problems {
            println!("  CHECK FAILED: {p}");
        }
        ok &= problems.is_empty();

        let trace_file = spans_path(out_dir, w);
        let text = std::fs::read_to_string(&trace_file)
            .map_err(|e| format!("{}: {e}", trace_file.display()))?;
        spans.extend(rebased(json::parse(&text)?, spans.len()));

        // End-to-end rows carry their in-run spread; per-layer rows name
        // their direction and what they are expected to move.
        let spread = plain.details.get("spread");
        let end_to_end = annotated(plain.result.get("metrics"), |name| {
            let s = spread.and_then(|s| s.get(name));
            s.map(|s| ("spread", s.clone())).into_iter().collect()
        });
        let per_layer = annotated(traced.result.get("metrics"), |name| {
            let row = PER_LAYER.iter().find(|row| row.name == name);
            row.map_or(Vec::new(), |row| {
                vec![
                    ("better", Value::str(row.better.as_str())),
                    ("moves", Value::str(row.moves)),
                ]
            })
        });
        let field = |c: &Child, key: &str| c.details.get(key).cloned().unwrap_or(Value::Null);
        rows.push((
            w.name(),
            Value::obj([
                ("correct", Value::Bool(problems.is_empty())),
                (
                    "attempted",
                    plain
                        .result
                        .get("attempted")
                        .cloned()
                        .unwrap_or(Value::Null),
                ),
                (
                    "failed",
                    plain.result.get("failed").cloned().unwrap_or(Value::Null),
                ),
                ("sim_samples", field(&plain, "sim_samples")),
                ("events", field(&plain, "events")),
                ("rep_wall_s", field(&plain, "rep_wall_s")),
                ("end_to_end", end_to_end),
                ("per_layer", per_layer),
                ("trace_overhead_pct", Value::Num(overhead)),
                (
                    "problems",
                    Value::Arr(problems.iter().map(Value::str).collect()),
                ),
            ]),
        ));
        if w == Workload::BoutiqueClosed {
            closed = Some((plain, traced));
        }
    }

    let results = Value::obj([
        ("schema", Value::Num(1.0)),
        ("seed", Value::Num(seed as f64)),
        ("smoke", Value::Bool(smoke)),
        ("run_seconds", Value::Num(seconds)),
        ("host", host()),
        ("model", Value::str(UNVALIDATED)),
        ("workloads", Value::obj(rows)),
    ]);
    write(&out_dir.join("results.json"), &results)?;
    write(&out_dir.join("trace.json"), &Value::Arr(spans))?;
    println!(
        "\nwrote {0}/results.json and {0}/trace.json",
        out_dir.display()
    );
    println!(
        "{}",
        if ok {
            "all output checks passed"
        } else {
            "OUTPUT CHECKS FAILED"
        }
    );
    Ok(ok)
}

/// A result line's `metrics` object with `extra(name)` fields appended to
/// each metric.
fn annotated(metrics: Option<&Value>, extra: impl Fn(&str) -> Vec<(&'static str, Value)>) -> Value {
    let rows = metrics.and_then(Value::as_obj).unwrap_or(&[]);
    Value::obj(rows.iter().map(|(name, m)| {
        let mut m = m.as_obj().unwrap_or(&[]).to_vec();
        m.extend(extra(name).into_iter().map(|(k, v)| (k.to_string(), v)));
        (name.clone(), Value::Obj(m))
    }))
}

/// A workload's spans with `parent` re-indexed for a merged list in which
/// they start at `base`.
fn rebased(spans: Value, base: usize) -> Vec<Value> {
    let Value::Arr(spans) = spans else {
        return Vec::new();
    };
    spans
        .into_iter()
        .map(|span| match span {
            Value::Obj(fields) => Value::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| match (k.as_str(), &v) {
                        ("parent", Value::Num(p)) => (k, Value::Num(p + base as f64)),
                        _ => (k, v),
                    })
                    .collect(),
            ),
            other => other,
        })
        .collect()
}

fn load_results(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if !comparable(&v) {
        return Err(format!(
            "{}: smoke numbers (or not a results file) are not comparable",
            path.display()
        ));
    }
    Ok(v)
}

/// Only full-horizon results carry numbers worth comparing.
fn comparable(results: &Value) -> bool {
    results.get("smoke").and_then(Value::as_bool) == Some(false)
}

/// One row of `compare`: the verdict on a (workload, metric) pair.
fn verdict_of(m: &EndToEnd, a: &Value, b: &Value) -> Option<(f64, f64, Verdict)> {
    let value = |v: &Value| v.get("value").and_then(Value::as_f64);
    let spread = |v: &Value| v.get("spread").and_then(Value::as_f64).unwrap_or(0.0);
    let (base, new) = (value(a)?, value(b)?);
    Some((
        base,
        new,
        classify(base, new, m.better, m.bound, spread(a).max(spread(b))),
    ))
}

/// `compare`: returns whether B is acceptable against A.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load_results(a_path)?, load_results(b_path)?);
    if a.get("seed") != b.get("seed") {
        return Err(
            "the two files were measured at different seeds; simulated values differ by seed"
                .into(),
        );
    }
    let mut ok = true;
    println!(
        "{:<18} {:<20} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    for w in Workload::ALL {
        let row = |v: &Value| v.get("workloads").and_then(|ws| ws.get(w.name())).cloned();
        let (Some(ra), Some(rb)) = (row(&a), row(&b)) else {
            println!("{:<18} missing from one file", w.name());
            ok = false;
            continue;
        };
        for m in END_TO_END {
            let pick = |r: &Value| r.get("end_to_end").and_then(|e| e.get(m.name)).cloned();
            let Some((base, new, verdict)) = pick(&ra)
                .zip(pick(&rb))
                .and_then(|(x, y)| verdict_of(m, &x, &y))
            else {
                println!("{:<18} {:<20} missing from one file", w.name(), m.name);
                ok = false;
                continue;
            };
            let change = 100.0 * worsening(base, new, m.better);
            println!(
                "{:<18} {:<20} {base:>16.6} {new:>16.6} {change:>+8.2}% {:>6.1}%  {}",
                w.name(),
                m.name,
                100.0 * m.bound,
                verdict.as_str()
            );
            ok &= verdict != Verdict::Worse;
        }
        let failed = |r: &Value| {
            r.get("failed")
                .and_then(Value::as_f64)
                .unwrap_or(f64::INFINITY)
        };
        if failed(&rb) > failed(&ra) {
            println!(
                "{:<18} more operations failed: {} -> {}",
                w.name(),
                failed(&ra),
                failed(&rb)
            );
            ok = false;
        }
    }
    println!("(change is in each metric's worse direction; unresolved = run-to-run spread wider than the bound)");
    Ok(ok)
}

/// `repeat`: returns whether the benchmark is steady enough for its own
/// bounds.
pub fn repeat(
    runs: usize,
    seed: u64,
    workloads: &[Workload],
    out_dir: &Path,
) -> Result<bool, String> {
    if runs < 2 {
        return Err("repeat needs at least 2 runs per pass to take quartiles".into());
    }
    let seconds = RUN_SECONDS as f64;
    let mut ok = true;
    println!(
        "{:<18} {:<20} {:>14} {:>8} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "iqr A", "median B", "iqr B", "B vs A", "bound"
    );
    for &w in workloads {
        // passes[pass][metric] = one value per seed
        let mut passes = vec![vec![Vec::new(); END_TO_END.len()]; 2];
        for (pass, values) in passes.iter_mut().enumerate() {
            for k in 0..runs {
                let seed = seed + (pass * runs + k) as u64;
                let inv = Invocation {
                    workload: w,
                    seed,
                    seconds,
                    trace: false,
                    smoke: false,
                };
                let c = spawn(inv, out_dir)?;
                if !c.correct() {
                    println!(
                        "{:<18} seed {seed}: output checks failed: {}",
                        w.name(),
                        c.details.to_line()
                    );
                    ok = false;
                }
                for (m, v) in END_TO_END.iter().zip(values.iter_mut()) {
                    v.push(
                        c.metric(m.name)
                            .ok_or_else(|| format!("{} printed no {}", w.name(), m.name))?,
                    );
                }
            }
        }
        for (i, m) in END_TO_END.iter().enumerate() {
            let (a, b) = (&passes[0][i], &passes[1][i]);
            let (spread_a, spread_b) = (iqr_spread(a), iqr_spread(b));
            let drift = worsening(median(a), median(b), m.better);
            // Set-up is exempt from the spread rule, not from the drift rule.
            let spread = if m.name == "setup_s" {
                0.0
            } else {
                spread_a.max(spread_b)
            };
            let verdict = if spread > m.bound {
                "TOO NOISY"
            } else if drift > m.bound {
                "DRIFTED"
            } else if spread > m.bound / 3.0 {
                "within bound"
            } else {
                "steady"
            };
            ok &= spread <= m.bound && drift <= m.bound;
            println!(
                "{:<18} {:<20} {:>14.6} {:>7.2}% {:>14.6} {:>7.2}% {:>+7.2}% {:>5.1}%  {verdict}",
                w.name(),
                m.name,
                median(a),
                100.0 * spread_a,
                median(b),
                100.0 * spread_b,
                100.0 * drift,
                100.0 * m.bound
            );
        }
    }
    println!(
        "(iqr = quartile distance ÷ median over {runs} seeds; steady = below a third of the bound)"
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(value: f64, spread: Option<f64>) -> Value {
        let mut m = vec![("value", Value::Num(value)), ("unit", Value::str("s"))];
        if let Some(s) = spread {
            m.push(("spread", Value::Num(s)));
        }
        Value::obj(m)
    }

    #[test]
    fn compare_rows_apply_direction_bound_and_spread() {
        use crate::stats::Better::{Higher, Lower};
        let wall = &EndToEnd {
            name: "wall",
            unit: "s",
            better: Lower,
            bound: 0.1,
        };
        let rps = &EndToEnd {
            name: "rps",
            unit: "req/s",
            better: Higher,
            bound: 0.03,
        };
        let v = |m, a, b| verdict_of(m, &a, &b).unwrap().2;
        assert_eq!(
            v(wall, metric(2.0, Some(0.01)), metric(2.5, Some(0.01))),
            Verdict::Worse
        );
        assert_eq!(
            v(wall, metric(2.0, Some(0.01)), metric(2.05, Some(0.01))),
            Verdict::Within
        );
        assert_eq!(
            v(wall, metric(2.0, Some(0.01)), metric(1.5, None)),
            Verdict::Better
        );
        assert_eq!(
            v(wall, metric(2.0, Some(0.12)), metric(2.0, Some(0.01))),
            Verdict::Unresolved
        );
        assert_eq!(
            v(rps, metric(70e3, None), metric(60e3, None)),
            Verdict::Worse
        );
        assert_eq!(
            v(rps, metric(70e3, None), metric(80e3, None)),
            Verdict::Better
        );
        assert!(verdict_of(wall, &Value::Null, &metric(1.0, None)).is_none());
    }

    #[test]
    fn merged_spans_keep_pointing_at_their_parents() {
        let spans = Value::Arr(vec![
            Value::obj([("name", Value::str("workload")), ("parent", Value::Null)]),
            Value::obj([("name", Value::str("run")), ("parent", Value::Num(0.0))]),
        ]);
        let merged = rebased(spans, 16);
        assert_eq!(merged[0].get("parent"), Some(&Value::Null));
        assert_eq!(merged[1].get("parent"), Some(&Value::Num(16.0)));
        assert_eq!(merged[1].get("name").and_then(Value::as_str), Some("run"));
    }

    #[test]
    fn smoke_results_are_refused() {
        assert!(!comparable(&Value::obj([("smoke", Value::Bool(true))])));
        assert!(!comparable(&Value::obj::<&str>([])));
        assert!(comparable(&Value::obj([("smoke", Value::Bool(false))])));
    }
}
