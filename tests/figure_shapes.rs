//! The headline comparative claims of every figure, asserted end-to-end at
//! reduced scale (the `fig*`/`table*` binaries print the full-scale numbers).

use palladium::core::driver::chain::ChainSim;
use palladium::core::driver::channel::{ChannelSim, ChannelSimConfig};
use palladium::core::driver::echo::{EchoConfig, EchoSim, PathMode, Primitive};
use palladium::core::driver::ingress_sweep::{IngressSim, IngressSimConfig};
use palladium::core::system::{IngressKind, SystemKind};
use palladium::ipc::ChannelKind;
use palladium::simnet::Nanos;
use palladium::workloads::boutique::{self, ChainKind};

#[test]
fn fig09_shape_comch_e_is_the_practical_choice() {
    let run = |kind, fns| {
        let mut cfg = ChannelSimConfig::new(kind, fns);
        cfg.duration = Nanos::from_millis(30);
        cfg.warmup = Nanos::from_millis(5);
        ChannelSim::new(cfg).run()
    };
    // Low concurrency: P < E < TCP on latency.
    let p1 = run(ChannelKind::ComchP, 1);
    let e1 = run(ChannelKind::ComchE, 1);
    let t1 = run(ChannelKind::Tcp, 1);
    assert!(p1.mean_latency < e1.mean_latency && e1.mean_latency < t1.mean_latency);
    // High concurrency: E sustains, P collapses below E.
    let p60 = run(ChannelKind::ComchP, 60);
    let e60 = run(ChannelKind::ComchE, 60);
    assert!(e60.rps > p60.rps, "Comch-E {} > Comch-P {}", e60.rps, p60.rps);
}

#[test]
fn fig11_shape_offpath_wins_under_load() {
    let mut cfg = EchoConfig::new(1024).connections(40);
    cfg.duration = Nanos::from_millis(25);
    cfg.warmup = Nanos::from_millis(5);
    let off = EchoSim::new(cfg).run_path_mode(PathMode::OffPath);
    let on = EchoSim::new(cfg).run_path_mode(PathMode::OnPath);
    assert!(off.rps > on.rps * 1.1);
}

#[test]
fn fig12_shape_two_sided_fastest() {
    let mut cfg = EchoConfig::new(4096);
    cfg.duration = Nanos::from_millis(25);
    cfg.warmup = Nanos::from_millis(5);
    let sim = EchoSim::new(cfg);
    let ts = sim.run_primitive(Primitive::TwoSided).mean_latency;
    let ob = sim.run_primitive(Primitive::OwrcBest).mean_latency;
    let ow = sim.run_primitive(Primitive::OwrcWorst).mean_latency;
    let od = sim.run_primitive(Primitive::Owdl).mean_latency;
    assert!(ts < ob && ob < ow && ow < od, "{ts} {ob} {ow} {od}");
}

#[test]
fn fig13_shape_early_conversion_wins() {
    let run = |kind| {
        let mut cfg = IngressSimConfig::fig13(kind, 60);
        cfg.duration = Nanos::from_millis(120);
        cfg.warmup = Nanos::from_millis(30);
        IngressSim::new(cfg).sweep()
    };
    let p = run(IngressKind::Palladium);
    let f = run(IngressKind::FStackDeferred);
    let k = run(IngressKind::KernelDeferred);
    assert!(p.rps > f.rps * 2.0, "paper: 3.2x");
    assert!(p.rps > k.rps * 5.0, "paper: 11.4x");
}

#[test]
fn fig16_shape_system_ordering() {
    let run = |system| {
        ChainSim::new(
            boutique::config(system, ChainKind::ProductQuery)
                .clients(40)
                .warmup_ms(30)
                .duration_ms(120),
        )
        .run()
    };
    let dne = run(SystemKind::PalladiumDne);
    let cne = run(SystemKind::PalladiumCne);
    let spright = run(SystemKind::Spright);
    let nightcore = run(SystemKind::NightCore);
    assert!(dne.rps >= cne.rps * 0.95, "DNE ≥ CNE at 40 clients");
    assert!(cne.rps > spright.rps, "both Palladium variants beat SPRIGHT");
    assert!(
        dne.rps / nightcore.rps > 3.0,
        "paper: 5.1-20.9x over NightCore; got {:.1}x",
        dne.rps / nightcore.rps
    );
}
