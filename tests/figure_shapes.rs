//! The paper ledger at reduced scale. Every artefact the ledger reads runs
//! at [`REDUCED`] scale (Figs 11 and 15 take none) through the same
//! functions the figure binaries print, and every ledger point must give
//! the verdict the ledger declares, the same one `paper_check` holds the
//! full-scale run to. Figs 9, 11, 12 and 13 have a test each over their own
//! ledger rows; one test covers the whole ledger. Beside them, the
//! closed-loop monotonicity check `paper_check` runs at full scale (Figs
//! 11 (2), 13 and 16), and the orderings no quoted number implies.

use std::sync::OnceLock;

use palladium_bench::{
    check, quoted_artefacts, throughput_drops, BoutiqueSweep, CellRef, Scale, Table, FIG16_CLIENTS,
};

/// The scale every quoted artefact runs at here: 0.12 of full, with each
/// Fig 16 run's window floored by its own longest request
/// (`boutique_window_ms`; NightCore's runs stay at full scale).
const REDUCED: Scale = Scale(0.12);

/// One reduced-scale run of every quoted artefact, shared by the tests.
fn tables() -> &'static [Table] {
    static TABLES: OnceLock<Vec<Table>> = OnceLock::new();
    TABLES.get_or_init(|| quoted_artefacts(&BoutiqueSweep::run(&FIG16_CLIENTS, REDUCED)))
}

/// Asserts that every ledger point whose id starts with `prefix` gives its
/// declared verdict, and that there is at least one.
fn assert_verdicts_hold(prefix: &str) {
    let outcomes = check(tables()).expect("every ledger point reads a finite value");
    let ours: Vec<_> = outcomes.iter().filter(|o| o.quote.id.starts_with(prefix)).collect();
    assert!(!ours.is_empty(), "no ledger row starts with {prefix:?}");
    let moved: Vec<String> = ours
        .iter()
        .filter(|o| o.verdict != o.point.declared)
        .map(|o| {
            format!(
                "{} @ {}: model {:.4} is {:?}, declared {:?}",
                o.quote.id,
                o.point.at,
                o.model,
                o.verdict,
                o.point.declared
            )
        })
        .collect();
    assert!(moved.is_empty(), "verdicts moved:\n{}", moved.join("\n"));
}

#[test]
fn ledger_verdicts_hold_at_reduced_scale() {
    assert_verdicts_hold("");
}

#[test]
fn fig09_shape_comch_e_is_the_practical_choice() {
    assert_verdicts_hold("fig09.");
}

#[test]
fn fig11_shape_offpath_wins_under_load() {
    assert_verdicts_hold("fig11.");
}

#[test]
fn fig12_shape_two_sided_fastest() {
    assert_verdicts_hold("fig12.");
}

#[test]
fn fig13_shape_early_conversion_wins() {
    assert_verdicts_hold("fig13.");
}

#[test]
fn closed_loop_throughput_does_not_fall_with_clients() {
    let drops = throughput_drops(tables(), REDUCED).expect("every sweep reads");
    assert!(drops.is_empty(), "throughput falls:\n{}", drops.join("\n"));
}

#[test]
fn orderings_no_quote_implies() {
    let read = |table, row, col| CellRef { table, row, col }.read(tables()).unwrap();
    // Fig 9, one function: Comch-P < Comch-E < TCP on latency.
    let lat = |channel| read("Fig 9 —", channel, "RT latency (ms)");
    let (p, e, t) = (lat(&["ComchP", "1"]), lat(&["ComchE", "1"]), lat(&["Tcp", "1"]));
    assert!(p < e && e < t, "Comch-P {p} < Comch-E {e} < TCP {t}");
    // Fig 9, 60 functions: Comch-E sustains its rate, Comch-P falls below it.
    let rps = |channel| read("Fig 9 —", channel, "RPS (x1M)");
    let (e60, p60) = (rps(&["ComchE", "60"]), rps(&["ComchP", "60"]));
    assert!(e60 > p60, "Comch-E {e60} > Comch-P {p60} at 60 fns");
    // Fig 12, 4 KB: a cache-hot receiver copy beats a cold one.
    let best = read("Fig 12 —", &["4096"], "OWRC-B µs");
    let worst = read("Fig 12 —", &["4096"], "OWRC-W µs");
    assert!(best < worst, "OWRC-B {best} < OWRC-W {worst}");
    // Fig 16, Product Query at 40 clients: the CNE still beats SPRIGHT.
    let rps = |system| read("Fig 16 — Product Query RPS", system, "c=40");
    let (cne, spright) = (rps(&["Palladium (CNE)"]), rps(&["SPRIGHT"]));
    assert!(cne > spright, "CNE {cne} > SPRIGHT {spright}");
}
