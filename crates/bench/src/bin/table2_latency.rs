//! Table 2: average latency (ms) of the Online Boutique chains.
use palladium_bench::{print, BoutiqueSweep, Scale, TABLE2_CLIENTS};

fn main() {
    print(&BoutiqueSweep::run(&TABLE2_CLIENTS, Scale::FULL).table2());
}
