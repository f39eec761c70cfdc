//! Fig 16: Online Boutique — RPS and CPU/DPU utilization for three chains
//! across six data planes.
use palladium_bench::{print, BoutiqueSweep, Scale, FIG16_CLIENTS};

fn main() {
    print(&BoutiqueSweep::run(&FIG16_CLIENTS, Scale::FULL).fig16());
}
