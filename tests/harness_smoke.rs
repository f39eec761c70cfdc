//! Smoke tests: every driver in the workspace runs a short window through
//! the shared `palladium_simnet::Harness` trampoline and produces a
//! well-formed report.
//!
//! The invariants asserted here are the [`LoadReport`] contract the
//! drivers share: work completed (`completed > 0`, `rps > 0`), latency
//! statistics are coherent (`p99 >= mean > 0`), and the rate is consistent
//! with the completion count over the measurement window.

use palladium::core::driver::chain::{ChainSim, ChainSimConfig};
use palladium::core::driver::channel::{ChannelSim, ChannelSimConfig};
use palladium::core::driver::echo::{EchoConfig, EchoSim, PathMode, Primitive};
use palladium::core::driver::fairness::{FairnessSim, FairnessSimConfig};
use palladium::core::driver::ingress_sweep::{IngressSim, IngressSimConfig};
use palladium::core::driver::LoadReport;
use palladium::core::dwrr::SchedPolicy;
use palladium::core::system::{IngressKind, SystemKind};
use palladium::ipc::ChannelKind;
use palladium::simnet::Nanos;
use palladium::workloads::{boutique, ChainKind};

/// The shared report contract.
fn assert_load_report(name: &str, r: &LoadReport, duration: Nanos) {
    assert!(r.completed > 0, "{name}: no requests completed");
    assert!(r.rps > 0.0, "{name}: rps must be positive");
    assert!(
        r.mean_latency > Nanos::ZERO,
        "{name}: mean latency must be positive"
    );
    assert!(
        r.p99_latency >= r.mean_latency,
        "{name}: p99 {} < mean {}",
        r.p99_latency,
        r.mean_latency
    );
    // rps is defined as completed / duration.
    let expect = r.completed as f64 / duration.as_secs_f64();
    assert!(
        (r.rps - expect).abs() < 1e-6 * expect.max(1.0),
        "{name}: rps {} inconsistent with completed {} over {duration}",
        r.rps,
        r.completed
    );
}

#[test]
fn channel_driver_smoke() {
    for kind in [ChannelKind::ComchE, ChannelKind::ComchP, ChannelKind::Tcp] {
        let mut cfg = ChannelSimConfig::new(kind, 8);
        cfg.duration = Nanos::from_millis(10);
        cfg.warmup = Nanos::from_millis(2);
        let r = ChannelSim::new(cfg).run();
        assert_load_report(&format!("channel/{kind:?}"), &r, cfg.duration);
    }
}

#[test]
fn ingress_sweep_driver_smoke() {
    for kind in [
        IngressKind::Palladium,
        IngressKind::FStackDeferred,
        IngressKind::KernelDeferred,
    ] {
        let mut cfg = IngressSimConfig::fig13(kind, 8);
        cfg.duration = Nanos::from_millis(20);
        cfg.warmup = Nanos::from_millis(5);
        let r = IngressSim::new(cfg).sweep();
        assert_load_report(&format!("ingress/{kind:?}"), &r, cfg.duration);
    }
}

#[test]
fn fairness_driver_smoke() {
    // Fairness reports per-tenant series rather than a LoadReport; assert
    // its own invariants: every tenant completes work and the series
    // carries positive rates.
    let report = FairnessSim::new(FairnessSimConfig::paper(SchedPolicy::Dwrr, 0.005)).run();
    assert_eq!(report.series.len(), 3);
    assert_eq!(report.totals.len(), 3);
    for (tenant, total) in &report.totals {
        assert!(*total > 0, "tenant {tenant:?} completed nothing");
    }
    for (tenant, series) in &report.series {
        assert!(
            series.iter().any(|&(_, rps)| rps > 0.0),
            "tenant {tenant:?} has an all-zero series"
        );
    }
}

#[test]
fn chain_driver_smoke() {
    for system in [SystemKind::PalladiumDne, SystemKind::Spright] {
        let cfg = boutique::config(system, ChainKind::HomeQuery)
            .clients(8)
            .warmup_ms(10)
            .duration_ms(40);
        let duration = cfg.duration;
        let r = ChainSim::new(cfg).run();
        assert_load_report(&format!("chain/{system:?}"), &r.load, duration);
        assert_eq!(r.rps, r.load.rps, "chain aliases must agree");
    }
}

#[test]
fn baselines_echo_driver_smoke() {
    let cfg = EchoConfig {
        duration: Nanos::from_millis(10),
        warmup: Nanos::from_millis(2),
        ..EchoConfig::new(1024)
    };
    let sim = EchoSim::new(cfg);
    for prim in Primitive::ALL {
        let r = sim.run_primitive(prim);
        assert_load_report(&format!("echo/{prim:?}"), &r, cfg.duration);
    }
    for mode in [PathMode::OffPath, PathMode::OnPath] {
        let r = sim.run_path_mode(mode);
        assert_load_report(&format!("echo/{mode:?}"), &r, cfg.duration);
    }
}

#[test]
fn chain_sim_config_smoke() {
    // The ChainSimConfig builder used above is re-exported through the
    // facade; keep its surface stable.
    let cfg = ChainSimConfig::new(
        SystemKind::PalladiumDne,
        boutique::app(),
        0,
    );
    assert!(cfg.clients > 0);
}
