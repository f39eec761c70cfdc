//! Every figure and table binary's output, back to back in README order:
//! Figs 9, 11–16, then Tables 1 and 2. One boutique sweep at
//! `FIG16_CLIENTS` serves both Fig 16 and Table 2.
use palladium_bench::*;

fn main() {
    let s = Scale::FULL;
    let boutique = BoutiqueSweep::run(&FIG16_CLIENTS, s);
    for tables in [
        fig09(s),
        fig11(),
        fig12(s),
        fig13(s),
        fig14(),
        fig15(),
        boutique.fig16(),
        table1(),
        boutique.table2(),
    ] {
        print(&tables);
    }
}
