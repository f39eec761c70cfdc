//! `paper_check` — every number the paper quotes, against the model.
//!
//! Runs each artefact whose title or figure quotes a paper number (Figs 9,
//! 11–13, 15, 16 and Table 2) at full scale, computes every point of the
//! ledger (`palladium_bench::LEDGER`) from the tables' own values, and
//! writes `EXPERIMENTS.md`: paper value, model value, error, class and
//! verdict per point, then the count of ratio points in tolerance. On
//! stdout it prints the bottleneck of every Fig 16 / Table 2 system ×
//! chain twice, walked and measured (`BoutiqueSweep::bottlenecks`), then
//! that count. Exits non-zero when a point's verdict is not the one the
//! ledger declares, when a quote's words are missing from the title it
//! cites, when a closed-loop sweep of Fig 11 (2), Fig 13 or Fig 16 reads
//! less throughput with more clients (`throughput_drops`), or when a
//! saturated run's measured bottleneck is a walked station other than the
//! walk's (`BoutiqueSweep::bottleneck_mismatches`); the file is written
//! either way, so its diff shows what moved.
//!
//! Usage: `cargo run --release -p palladium-bench --bin paper_check --
//! [--out PATH]` (default `EXPERIMENTS.md`).

use std::process::ExitCode;

use palladium_bench::{
    check, ledger_markdown, out_path_arg, quoted_artefacts, throughput_drops, BoutiqueSweep, Scale,
    FIG16_CLIENTS,
};

fn main() -> ExitCode {
    let out_path = match out_path_arg("paper_check", "EXPERIMENTS.md") {
        Ok(path) => path,
        Err(code) => return code,
    };
    let boutique = BoutiqueSweep::run(&FIG16_CLIENTS, Scale::FULL);
    let tables = quoted_artefacts(&boutique);
    let outcomes = match check(&tables) {
        Ok(outcomes) => outcomes,
        Err(e) => {
            eprintln!("paper_check: {e}");
            return ExitCode::FAILURE;
        }
    };
    let md = ledger_markdown(&outcomes);
    if let Err(e) = std::fs::write(&out_path, &md) {
        eprintln!("paper_check: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    for line in boutique.bottlenecks() {
        println!("{line}");
    }
    print!("{}", md.lines().last().map(|l| format!("{l}\n")).unwrap_or_default());
    let mut ok = true;
    for o in &outcomes {
        let declared = o.point.declared;
        if o.verdict != declared {
            eprintln!(
                "paper_check: {} @ {}: model {:.4} is {:?}, the ledger declares {declared:?}",
                o.quote.id, o.point.at, o.model, o.verdict
            );
            ok = false;
        }
    }
    for mismatch in boutique.bottleneck_mismatches() {
        eprintln!("paper_check: the measured bottleneck is not the walked one: {mismatch}");
        ok = false;
    }
    match throughput_drops(&tables, Scale::FULL) {
        Ok(drops) => {
            for drop in &drops {
                eprintln!("paper_check: closed-loop throughput falls: {drop}");
            }
            ok &= drops.is_empty();
        }
        Err(e) => {
            eprintln!("paper_check: {e}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
