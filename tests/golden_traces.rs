//! Golden-trace determinism tests for the DES kernel.
//!
//! Every driver runs with a fixed seed and its report is compared
//! byte-for-byte against the checked-in snapshot in
//! `tests/golden/simcore_golden.txt`. Any change to event ordering, RNG
//! consumption or table iteration anywhere in the stack shows up here as a
//! diff — which is how kernel changes are shown to preserve behaviour.
//!
//! To regenerate after an *intentional* simulation change:
//! `GOLDEN_REGEN=1 cargo test -q --test golden_traces` and commit the
//! updated snapshot together with the change that explains it.

use palladium_core::driver::chain::{ChainSim, ChainSimConfig};
use palladium_core::driver::channel::{ChannelSim, ChannelSimConfig};
use palladium_core::driver::echo::{EchoConfig, EchoSim, PathMode, Primitive};
use palladium_core::driver::fairness::{FairnessSim, FairnessSimConfig};
use palladium_core::driver::ingress_sweep::{IngressSim, IngressSimConfig};
use palladium_core::dwrr::SchedPolicy;
use palladium_core::system::{IngressKind, SystemKind};
use palladium_ipc::ChannelKind;
use palladium_simnet::{LoadReport, Nanos};

mod common;
use common::{assert_golden, golden_app};

/// Hex-exact rendering of an `f64` (no shortest-repr ambiguity).
fn f(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn load_line(tag: &str, r: &LoadReport) -> String {
    format!(
        "{tag}: rps={} mean={} p99={} completed={}",
        f(r.rps),
        r.mean_latency.as_nanos(),
        r.p99_latency.as_nanos(),
        r.completed
    )
}

fn golden_trace() -> String {
    let mut out = String::new();

    // Chain driver, every inter-node data plane.
    for sys in [
        SystemKind::PalladiumDne,
        SystemKind::PalladiumCne,
        SystemKind::Spright,
        SystemKind::FuyaoF,
        SystemKind::FuyaoK,
        SystemKind::NightCore,
    ] {
        let r = ChainSim::new(
            ChainSimConfig::new(sys, golden_app(), 0)
                .clients(12)
                .warmup_ms(30)
                .duration_ms(90),
        )
        .run();
        out.push_str(&load_line(&format!("chain/{sys:?}"), &r.load));
        out.push_str(&format!(
            " sw_bytes={} sw_ops={} dma_bytes={} cpu={} dpu={}\n",
            r.software_copy_bytes,
            r.software_copy_ops,
            r.rnic_dma_bytes,
            f(r.cpu_util_pct),
            f(r.dpu_util_pct)
        ));
    }

    // Ingress sweep, all three designs.
    for kind in [
        IngressKind::Palladium,
        IngressKind::FStackDeferred,
        IngressKind::KernelDeferred,
    ] {
        let r = IngressSim::new(IngressSimConfig::fig13(kind, 24)).sweep();
        out.push_str(&load_line(&format!("ingress/{kind:?}"), &r));
        out.push('\n');
    }

    // Fairness driver, both scheduling policies at a small time scale.
    for policy in [SchedPolicy::Dwrr, SchedPolicy::Fcfs] {
        let r = FairnessSim::new(FairnessSimConfig::paper(policy, 0.02)).run();
        out.push_str(&format!("fairness/{policy:?}: totals="));
        for (t, n) in &r.totals {
            out.push_str(&format!("{}:{} ", t.raw(), n));
        }
        out.push_str("series=");
        for (t, s) in &r.series {
            let sum: f64 = s.iter().map(|&(_, rps)| rps).sum();
            out.push_str(&format!("{}:{}@{} ", t.raw(), f(sum), s.len()));
        }
        out.push('\n');
    }

    // Channel driver (Fig 9), every descriptor channel.
    for kind in [ChannelKind::ComchE, ChannelKind::ComchP, ChannelKind::Tcp] {
        let mut cfg = ChannelSimConfig::new(kind, 8);
        cfg.duration = Nanos::from_millis(10);
        cfg.warmup = Nanos::from_millis(2);
        let r = ChannelSim::new(cfg).run();
        out.push_str(&load_line(&format!("channel/{kind:?}"), &r));
        out.push('\n');
    }

    // Echo driver: Fig 11's path modes and Fig 12's primitives, contended.
    let echo = EchoSim::new(EchoConfig {
        duration: Nanos::from_millis(10),
        warmup: Nanos::from_millis(2),
        ..EchoConfig::new(1024).connections(8)
    });
    for mode in [PathMode::OffPath, PathMode::OnPath] {
        out.push_str(&load_line(&format!("echo/{mode:?}"), &echo.run_path_mode(mode)));
        out.push('\n');
    }
    for prim in Primitive::ALL {
        out.push_str(&load_line(&format!("echo/{prim:?}"), &echo.run_primitive(prim)));
        out.push('\n');
    }

    // Ingress autoscaling (Fig 14), all three designs, compressed 200x.
    for kind in [
        IngressKind::Palladium,
        IngressKind::FStackDeferred,
        IngressKind::KernelDeferred,
    ] {
        let r = IngressSim::scaling_run(kind, 0.005, 12);
        out.push_str(&format!(
            "scaling/{kind:?}: ups={} downs={}",
            r.scale_ups, r.scale_downs
        ));
        for (name, series) in [("cores", &r.cores_series), ("rps", &r.rps_series)] {
            let sum: f64 = series.iter().map(|&(_, v)| v).sum();
            out.push_str(&format!(" {name}={}@{}", f(sum), series.len()));
        }
        out.push('\n');
    }

    out
}

#[test]
fn reports_match_checked_in_snapshot() {
    assert_golden("simcore_golden.txt", &golden_trace());
}
