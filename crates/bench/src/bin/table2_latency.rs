//! Table 2: average latency (ms) of the Online Boutique chains.
use palladium_bench::{print_table, BoutiqueSweep, Scale, TABLE2_CLIENTS};

fn main() {
    print_table(
        "Table 2 — mean latency (ms); columns: Home{20,60,80} ViewCart{20,60,80} \
         Product{20,60,80} (paper: DNE 1.12/2.55/3.19 ... NightCore 10.77/32.4/42.8)",
        &[
            "system",
            "H20", "H60", "H80",
            "V20", "V60", "V80",
            "P20", "P60", "P80",
        ],
        &BoutiqueSweep::run(&TABLE2_CLIENTS, Scale::FULL).table2(),
    );
}
