//! # palladium-bench — harnesses regenerating every table and figure
//!
//! Each `fig*`/`table*` binary reruns one experiment of the paper's §4 and
//! prints the same rows/series the paper plots. The shared logic lives in
//! [`experiments`] so the binaries, the `all_experiments` runner and the
//! integration tests all execute the same code.
//!
//! Absolute numbers come from the calibrated simulation (the constants in
//! `RdmaConfig`, `CostModel` and the substrates' cost tables); nothing yet
//! records paper-versus-measured per artefact (ROADMAP item 1). The
//! *shapes* — who wins, by what factor, where the crossovers sit — are
//! asserted by the test suite.

// No library crate in the workspace uses `unsafe`: every crate root
// forbids it, and `cargo test` checks that each one does.
#![forbid(unsafe_code)]

use std::process::ExitCode;

pub mod experiments;

pub use experiments::*;

/// The command line of the `BENCH_*.json` writers: `[--out PATH]` (else
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

/// Render a simple aligned table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{:>w$}", h, w = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("{}", line.join("  "));
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn print_table_does_not_panic() {
        super::print_table(
            "t",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["33".into(), "4".into()]],
        );
    }
}
