//! Reproducibility: identical configurations produce byte-identical
//! results across all drivers (the DES determinism guarantee).

use palladium::core::driver::chain::ChainSim;
use palladium::core::driver::echo::{EchoConfig, EchoSim, Primitive};
use palladium::core::system::SystemKind;
use palladium::workloads::boutique::{self, ChainKind};

#[test]
fn chain_sim_is_deterministic_across_systems() {
    for system in [SystemKind::PalladiumDne, SystemKind::FuyaoF, SystemKind::Spright] {
        let run = || {
            ChainSim::new(
                boutique::config(system, ChainKind::HomeQuery)
                    .clients(12)
                    .warmup_ms(20)
                    .duration_ms(60),
            )
            .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.load.completed, b.load.completed, "{}", system.label());
        assert_eq!(a.mean_latency, b.mean_latency);
        assert_eq!(a.software_copy_bytes, b.software_copy_bytes);
    }
}

#[test]
fn echo_sim_is_deterministic() {
    let cfg = EchoConfig::new(2048).connections(8);
    let a = EchoSim::new(cfg).run_primitive(Primitive::Owdl);
    let b = EchoSim::new(cfg).run_primitive(Primitive::Owdl);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.mean_latency, b.mean_latency);
}
