//! Fig 15: multi-tenant RDMA fairness — FCFS vs DWRR per-tenant RPS series.
use palladium_bench::{fig15, print};

fn main() {
    print(&fig15());
}
