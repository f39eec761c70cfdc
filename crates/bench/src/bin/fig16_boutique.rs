//! Fig 16: Online Boutique — RPS and CPU/DPU utilization for three chains
//! across six data planes.
use palladium_bench::{print_table, BoutiqueSweep, Scale, FIG16_CLIENTS};
use palladium_workloads::boutique::ChainKind;

fn main() {
    let sweep = BoutiqueSweep::run(&FIG16_CLIENTS, Scale::FULL);
    for chain in ChainKind::ALL {
        print_table(
            &format!(
                "Fig 16 — {} RPS x1K (paper: DNE 5.1-20.9x NightCore, \
                 2.1-4.1x FUYAO-F, 2.4-4.1x SPRIGHT, 1.3-1.8x CNE)",
                chain.label()
            ),
            &["system", "c=1", "c=20", "c=40", "c=60", "c=80"],
            &sweep.fig16_rps(chain),
        );
        print_table(
            &format!("Fig 16 — {} CPU/DPU utilization %% (cpu/dpu)", chain.label()),
            &["system", "c=20", "c=60", "c=80"],
            &sweep.fig16_util(chain),
        );
    }
}
