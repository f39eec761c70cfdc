//! The repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! palladium-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
//! palladium-benchmark all     [--seed N] [--smoke] [--out DIR]
//! palladium-benchmark compare A.json B.json
//! palladium-benchmark repeat  [--runs N] [--seed N] [--workload NAME] [--out DIR]
//! ```
//!
//! The first form is what `BENCHMARK.json`'s `command` runs: one workload in
//! one process on one thread, its last stdout line the result object.

mod json;
mod metrics;
mod probes;
mod run;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use run::Invocation;
use workloads::Workload;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Command-line options; which ones matter depends on the subcommand.
struct Options {
    positional: Vec<String>,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: usize,
    out: PathBuf,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut o = Options {
        positional: Vec::new(),
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        runs: 10,
        out: PathBuf::from(suite::DEFAULT_OUT_DIR),
    };
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{a} needs {what}"));
        match a.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = || Workload::ALL.map(Workload::name).join(", ");
                o.workload = Some(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload {name}; one of {}", known()))?,
                );
            }
            "--seed" => {
                o.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                o.seconds = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&o.seconds) {
                    return Err("--seconds must be between 0 and 3600".into());
                }
            }
            "--trace" => {
                o.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--runs" => {
                o.runs = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--out" => o.out = PathBuf::from(value("a directory")?),
            "--smoke" => o.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => o.positional.push(a),
        }
    }
    Ok(o)
}

/// Returns whether everything checked out.
fn dispatch(o: Options) -> Result<bool, String> {
    let command: Vec<&str> = o.positional.iter().map(String::as_str).collect();
    match command.as_slice() {
        [] => {
            let workload = o
                .workload
                .ok_or("give --workload NAME, or one of: all, compare, repeat")?;
            let seconds = if o.smoke { 0.0 } else { o.seconds };
            let outcome = run::run(Invocation {
                workload,
                seed: o.seed,
                seconds,
                trace: o.trace,
                smoke: o.smoke,
            })?;
            if let Some(spans) = &outcome.spans {
                // The result line matters more than the trace file: say
                // so and go on if the directory cannot be written.
                if let Err(e) = run::write_spans(&o.out, workload, spans) {
                    eprintln!("warning: trace not written: {e}");
                }
            }
            for p in &outcome.problems {
                eprintln!("CHECK FAILED ({}): {p}", workload.name());
            }
            println!("{}{}", suite::DETAILS_PREFIX, outcome.details_line());
            println!("{}", outcome.result_line());
            Ok(outcome.correct())
        }
        ["all"] => suite::all(o.seed, o.smoke, &o.out),
        ["compare", a, b] => suite::compare(a.as_ref(), b.as_ref()),
        ["repeat"] => {
            let workloads = o.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
            suite::repeat(o.runs, o.seed, &workloads, &o.out)
        }
        other => Err(format!(
            "unknown command {other:?}; one of: all, compare A.json B.json, repeat"
        )),
    }
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)).and_then(dispatch) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn driver_arguments_parse() {
        let o = parse(&[
            "--workload",
            "multinode32",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(o.workload, Some(Workload::Multinode32));
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.smoke),
            (7, 10.0, true, false)
        );
        assert!(o.positional.is_empty());
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--trace", "2"],
            &["--seconds", "-1"],
            &["--seconds", "1e9"],
            &["--frobnicate"],
            &["--seed"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        assert!(
            dispatch(parse(&[]).unwrap()).is_err(),
            "no workload and no command"
        );
        assert!(dispatch(parse(&["compare", "only-one.json"]).unwrap()).is_err());
    }
}
