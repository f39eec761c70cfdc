//! Run every figure and table harness back to back (README §“Regenerating
//! the paper's figures”).
use palladium_bench::*;
use palladium_core::dwrr::SchedPolicy;
use palladium_core::system::IngressKind;
use palladium_workloads::boutique::ChainKind;

fn main() {
    let s = Scale::FULL;
    print_table(
        "Fig 9",
        &["channel", "#functions", "RT latency (ms)", "RPS (x1M)"],
        &fig09(s),
    );
    print_table(
        "Fig 11 (1)",
        &["payload", "off RPS (K)", "on RPS (K)", "off lat (µs)", "on lat (µs)"],
        &fig11_payload(s),
    );
    print_table(
        "Fig 11 (2)",
        &["#conns", "off RPS (K)", "on RPS (K)", "off lat (µs)", "on lat (µs)"],
        &fig11_concurrency(s),
    );
    print_table(
        "Fig 12",
        &["msg", "2s µs", "2s MB/s", "OB µs", "OB MB/s", "OW µs", "OW MB/s", "OD µs", "OD MB/s"],
        &fig12(s),
    );
    print_table(
        "Fig 13",
        &["ingress", "#clients", "latency (ms)", "RPS (K)"],
        &fig13(s),
    );
    for kind in [IngressKind::KernelDeferred, IngressKind::FStackDeferred, IngressKind::Palladium] {
        let r = fig14(kind, 0.1);
        println!(
            "\nFig 14 {kind:?}: ups={} downs={} disconnected={}",
            r.scale_ups, r.scale_downs, r.disconnected
        );
    }
    print_table("Fig 15 FCFS", &["t", "T1", "T2", "T3"], &fig15(SchedPolicy::Fcfs, 0.05));
    print_table("Fig 15 DWRR", &["t", "T1", "T2", "T3"], &fig15(SchedPolicy::Dwrr, 0.05));
    let boutique = BoutiqueSweep::run(&FIG16_CLIENTS, s);
    for chain in ChainKind::ALL {
        print_table(
            &format!("Fig 16 {} RPS (K)", chain.label()),
            &["system", "c=1", "c=20", "c=40", "c=60", "c=80"],
            &boutique.fig16_rps(chain),
        );
    }
    print_table(
        "Table 1",
        &["system", "mt", "zc", "dpu", "noproto"],
        &table1(),
    );
    print_table(
        "Table 2 (ms)",
        &["system", "H20", "H60", "H80", "V20", "V60", "V80", "P20", "P60", "P80"],
        &boutique.table2(),
    );
}
