//! # palladium-bench — harnesses regenerating every table and figure
//!
//! Each `fig*`/`table*` binary reruns one experiment of the paper's §4 and
//! prints the same rows/series the paper plots. Each artefact — its runs,
//! title with the paper's quoted values, headers and rows — is defined
//! once, in [`experiments`], as a list of [`Table`]s; the binaries and the
//! `all_experiments` runner only print them, so `all_experiments` prints
//! exactly what the nine per-artefact binaries print, in README order.
//!
//! Absolute numbers come from the calibrated simulation (the constants in
//! `RdmaConfig`, `CostModel` and the substrates' cost tables). Every
//! number the paper quotes is one row of [`LEDGER`], beside the artefacts,
//! with the verdict (below, in or above the paper's band) the model gives
//! at each load point. The `paper_check` binary checks them at full scale
//! and writes `EXPERIMENTS.md`; `tests/figure_shapes.rs` checks them at a
//! reduced [`Scale`].

// No library crate in the workspace uses `unsafe`: every crate root
// forbids it, and `cargo test` checks that each one does.
#![forbid(unsafe_code)]

use std::process::ExitCode;

pub mod experiments;

pub use experiments::*;

/// The command line of the binaries that write a committed file
/// (`BENCH_*.json`, `EXPERIMENTS.md`): `[--out PATH]` (else
/// `default`) and `--help`. Anything else — an unknown flag, `--out` with
/// no value — prints the usage line and is `Err(FAILURE)`; the caller
/// returns the code.
pub fn out_path_arg(bin: &str, default: &str) -> Result<String, ExitCode> {
    let usage = format!("usage: {bin} [--out PATH]");
    let mut out_path = default.to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let problem = match arg.as_str() {
            "--out" => match args.next() {
                Some(path) => {
                    out_path = path;
                    continue;
                }
                None => "`--out` needs a path".to_string(),
            },
            "--help" | "-h" => {
                println!("{usage}");
                return Err(ExitCode::SUCCESS);
            }
            other => format!("unknown argument `{other}`"),
        };
        eprintln!("{bin}: {problem}\n{usage}");
        return Err(ExitCode::FAILURE);
    }
    Ok(out_path)
}
