//! End-to-end integration: a request traverses ingress → RDMA fabric →
//! DNE → function chain → back, and the zero-copy invariant holds on the
//! worker data plane — while every baseline pays real software copies.

use palladium::core::driver::chain::ChainSim;
use palladium::core::system::SystemKind;
use palladium::workloads::boutique::{self, ChainKind};

fn run(system: SystemKind, chain: ChainKind, clients: usize) -> palladium::core::driver::chain::ChainReport {
    ChainSim::new(
        boutique::config(system, chain)
            .clients(clients)
            .warmup_ms(30)
            .duration_ms(120),
    )
    .run()
}

#[test]
fn palladium_dne_is_zero_copy_on_every_chain() {
    for chain in ChainKind::ALL {
        let r = run(SystemKind::PalladiumDne, chain, 20);
        assert!(r.load.completed > 100, "{}: {}", chain.label(), r.load.completed);
        assert_eq!(
            r.software_copy_bytes,
            0,
            "{} must move zero bytes in software on workers",
            chain.label()
        );
        assert!(r.rnic_dma_bytes > 0, "payloads moved by RNIC DMA");
    }
}

#[test]
fn palladium_cne_is_zero_copy_too() {
    let r = run(SystemKind::PalladiumCne, ChainKind::ViewCart, 20);
    assert!(r.load.completed > 100);
    assert_eq!(r.software_copy_bytes, 0);
}

#[test]
fn every_baseline_pays_software_copies() {
    for system in [
        SystemKind::Spright,
        SystemKind::FuyaoF,
        SystemKind::FuyaoK,
        SystemKind::NightCore,
    ] {
        let r = run(system, ChainKind::HomeQuery, 20);
        assert!(r.load.completed > 20, "{}: {}", system.label(), r.load.completed);
        assert!(
            r.software_copy_bytes > 0,
            "{} is not a zero-copy design",
            system.label()
        );
        // FUYAO's one-sided write is an RNIC DMA on both ends; SPRIGHT and
        // NightCore ride no RDMA between workers.
        let one_sided = matches!(system, SystemKind::FuyaoF | SystemKind::FuyaoK);
        assert_eq!(
            r.rnic_dma_bytes > 0,
            one_sided,
            "{}: {} RNIC DMA bytes",
            system.label(),
            r.rnic_dma_bytes
        );
    }
}

#[test]
fn dpu_utilization_matches_paper_accounting() {
    // Palladium DNE: two busy-polled DPU cores -> ≈200% DPU, no worker CPU
    // for the engines; CNE: the inverse.
    let dne = run(SystemKind::PalladiumDne, ChainKind::HomeQuery, 20);
    assert!(dne.dpu_util_pct >= 200.0);
    let cne = run(SystemKind::PalladiumCne, ChainKind::HomeQuery, 20);
    assert_eq!(cne.dpu_util_pct, 0.0);
    assert!(cne.cpu_util_pct > 0.0);
    // FUYAO pins polling cores on both workers.
    let fuyao = run(SystemKind::FuyaoF, ChainKind::HomeQuery, 20);
    assert!(fuyao.cpu_util_pct >= 200.0, "pollers pin cores: {}", fuyao.cpu_util_pct);
}
