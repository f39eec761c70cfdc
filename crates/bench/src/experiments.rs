//! The experiment implementations shared by every harness binary.
//!
//! Each function runs one paper artefact and returns printable rows; the
//! binaries add the table headers. `Scale` shrinks virtual durations so
//! tests can run the identical code quickly.

use palladium_core::driver::chain::{ChainReport, ChainSim};
use palladium_core::driver::channel::{ChannelSim, ChannelSimConfig};
use palladium_core::driver::echo::{EchoConfig, EchoSim, PathMode, Primitive};
use palladium_core::driver::fairness::{FairnessSim, FairnessSimConfig};
use palladium_core::driver::ingress_sweep::{IngressSim, IngressSimConfig, ScalingReport};
use palladium_core::dwrr::SchedPolicy;
use palladium_core::system::{IngressKind, SystemKind};
use palladium_ipc::ChannelKind;
use palladium_simnet::Nanos;
use palladium_workloads::boutique::{self, ChainKind};

/// How much virtual time an experiment runs for (1.0 = harness default).
#[derive(Clone, Copy, Debug)]
pub struct Scale(pub f64);

impl Scale {
    /// Full harness runs.
    pub const FULL: Scale = Scale(1.0);

    fn ms(&self, base: u64) -> Nanos {
        Nanos::from_nanos((base as f64 * self.0 * 1e6).max(1e6) as u64)
    }
}

/// Fig 9: channel kind × function count → (RT latency, RPS).
pub fn fig09(scale: Scale) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for kind in [ChannelKind::ComchE, ChannelKind::ComchP, ChannelKind::Tcp] {
        for fns in [1usize, 20, 40, 60, 80, 100] {
            let mut cfg = ChannelSimConfig::new(kind, fns);
            cfg.duration = scale.ms(120);
            cfg.warmup = scale.ms(20);
            let r = ChannelSim::new(cfg).run();
            rows.push(vec![
                format!("{kind:?}"),
                fns.to_string(),
                format!("{:.3}", r.mean_latency.as_millis_f64()),
                format!("{:.3}", r.rps / 1e6),
            ]);
        }
    }
    rows
}

/// Fig 11 (1): payload sweep at one connection, off-path vs on-path.
pub fn fig11_payload(scale: Scale) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for payload in [1u32, 1024, 2048, 4096, 6144, 8192] {
        let mut cfg = EchoConfig::new(payload);
        cfg.duration = scale.ms(60);
        cfg.warmup = scale.ms(10);
        let off = EchoSim::new(cfg).run_path_mode(PathMode::OffPath);
        let on = EchoSim::new(cfg).run_path_mode(PathMode::OnPath);
        rows.push(vec![
            payload.to_string(),
            format!("{:.1}", off.rps / 1e3),
            format!("{:.1}", on.rps / 1e3),
            format!("{:.2}", off.mean_latency.as_micros_f64()),
            format!("{:.2}", on.mean_latency.as_micros_f64()),
        ]);
    }
    rows
}

/// Fig 11 (2): concurrency sweep at 1 KB payload.
pub fn fig11_concurrency(scale: Scale) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for conns in [1usize, 10, 20, 30, 40, 50] {
        let mut cfg = EchoConfig::new(1024).connections(conns);
        cfg.duration = scale.ms(60);
        cfg.warmup = scale.ms(10);
        let off = EchoSim::new(cfg).run_path_mode(PathMode::OffPath);
        let on = EchoSim::new(cfg).run_path_mode(PathMode::OnPath);
        rows.push(vec![
            conns.to_string(),
            format!("{:.1}", off.rps / 1e3),
            format!("{:.1}", on.rps / 1e3),
            format!("{:.2}", off.mean_latency.as_micros_f64()),
            format!("{:.2}", on.mean_latency.as_micros_f64()),
        ]);
    }
    rows
}

/// Fig 12: primitive × message size → (E2E latency µs, BW MB/s).
pub fn fig12(scale: Scale) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for size in [1u32, 1024, 2048, 4096, 6144, 8192] {
        let mut cfg = EchoConfig::new(size);
        cfg.duration = scale.ms(60);
        cfg.warmup = scale.ms(10);
        let mut row = vec![size.to_string()];
        for prim in Primitive::ALL {
            let r = EchoSim::new(cfg).run_primitive(prim);
            row.push(format!("{:.1}", r.mean_latency.as_micros_f64()));
            row.push(format!("{:.0}", r.rps * size.max(1) as f64 / 1e6));
        }
        rows.push(row);
    }
    rows
}

/// Fig 13: ingress design × clients → (E2E latency ms, RPS ×1K).
pub fn fig13(scale: Scale) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for kind in [
        IngressKind::KernelDeferred,
        IngressKind::FStackDeferred,
        IngressKind::Palladium,
    ] {
        for clients in [1usize, 20, 40, 60, 80, 100] {
            let mut cfg = IngressSimConfig::fig13(kind, clients);
            cfg.duration = scale.ms(400);
            cfg.warmup = scale.ms(100);
            let r = IngressSim::new(cfg).sweep();
            rows.push(vec![
                label_of(kind).to_string(),
                clients.to_string(),
                format!("{:.3}", r.mean_latency.as_millis_f64()),
                format!("{:.1}", r.rps / 1e3),
            ]);
        }
    }
    rows
}

fn label_of(kind: IngressKind) -> &'static str {
    match kind {
        IngressKind::Palladium => "Palladium",
        IngressKind::FStackDeferred => "F-Ingress",
        IngressKind::KernelDeferred => "K-Ingress",
    }
}

/// Fig 14: the autoscaling time series for one ingress design.
pub fn fig14(kind: IngressKind, time_scale: f64) -> ScalingReport {
    IngressSim::scaling_run(kind, time_scale, 24)
}

/// Fig 15: per-tenant RPS time series under FCFS or DWRR.
pub fn fig15(policy: SchedPolicy, time_scale: f64) -> Vec<Vec<String>> {
    let report = FairnessSim::new(FairnessSimConfig::paper(policy, time_scale)).run();
    let mut rows = Vec::new();
    let n = report.series[0].1.len();
    for i in 0..n {
        let (end, _) = report.series[0].1[i];
        let mut row = vec![format!("{:.1}", end.as_secs_f64() / time_scale)];
        for (_, series) in &report.series {
            row.push(format!("{:.1}", series[i].1 / 1e3));
        }
        rows.push(row);
    }
    rows
}

/// One Fig 16 / Table 2 cluster run.
pub fn boutique_run(
    system: SystemKind,
    chain: ChainKind,
    clients: usize,
    scale: Scale,
) -> ChainReport {
    let cfg = boutique::config(system, chain)
        .clients(clients)
        .warmup_ms(scale.ms(60).as_nanos() / 1_000_000)
        .duration_ms(scale.ms(240).as_nanos() / 1_000_000);
    ChainSim::new(cfg).run()
}

/// Client counts of Fig 16's RPS panels.
pub const FIG16_CLIENTS: [usize; 5] = [1, 20, 40, 60, 80];

/// Client counts of Fig 16's utilization panels and of Table 2.
pub const TABLE2_CLIENTS: [usize; 3] = [20, 60, 80];

/// The Fig 16 / Table 2 cluster runs: every system × chain at each of a
/// set of client counts, each configuration run once and read by every
/// table that shows it.
pub struct BoutiqueSweep {
    clients: Vec<usize>,
    /// In `SystemKind::ALL` × `ChainKind::ALL` × `clients` order.
    runs: Vec<ChainReport>,
}

impl BoutiqueSweep {
    /// Run every system and chain at each of `clients`.
    pub fn run(clients: &[usize], scale: Scale) -> Self {
        let mut runs = Vec::new();
        for system in SystemKind::ALL {
            for chain in ChainKind::ALL {
                for &c in clients {
                    runs.push(boutique_run(system, chain, c, scale));
                }
            }
        }
        BoutiqueSweep { clients: clients.to_vec(), runs }
    }

    /// The run of `system` on `chain` at `clients`.
    fn get(&self, system: SystemKind, chain: ChainKind, clients: usize) -> &ChainReport {
        let s = SystemKind::ALL.iter().position(|&k| k == system).expect("system swept");
        let k = ChainKind::ALL.iter().position(|&k| k == chain).expect("chain swept");
        let c = self.clients.iter().position(|&n| n == clients).expect("client count swept");
        &self.runs[(s * ChainKind::ALL.len() + k) * self.clients.len() + c]
    }

    /// One row per system: its label, then `cell` of its run on each of
    /// `chains` at each of `clients`.
    fn rows(
        &self,
        chains: &[ChainKind],
        clients: &[usize],
        cell: impl Fn(&ChainReport) -> String,
    ) -> Vec<Vec<String>> {
        SystemKind::ALL
            .iter()
            .map(|&system| {
                let mut row = vec![system.label().to_string()];
                for &chain in chains {
                    row.extend(clients.iter().map(|&c| cell(self.get(system, chain, c))));
                }
                row
            })
            .collect()
    }

    /// Fig 16 (1)-(3): RPS rows for one chain at [`FIG16_CLIENTS`].
    pub fn fig16_rps(&self, chain: ChainKind) -> Vec<Vec<String>> {
        self.rows(&[chain], &FIG16_CLIENTS, |r| format!("{:.1}", r.rps / 1e3))
    }

    /// Fig 16 (4)-(6): CPU/DPU utilization rows for one chain at
    /// [`TABLE2_CLIENTS`].
    pub fn fig16_util(&self, chain: ChainKind) -> Vec<Vec<String>> {
        self.rows(&[chain], &TABLE2_CLIENTS, |r| {
            format!("{:.0}/{:.0}", r.cpu_util_pct, r.dpu_util_pct)
        })
    }

    /// Table 2: mean latency (ms) of every chain at [`TABLE2_CLIENTS`].
    pub fn table2(&self) -> Vec<Vec<String>> {
        self.rows(&ChainKind::ALL, &TABLE2_CLIENTS, |r| {
            format!("{:.2}", r.mean_latency.as_millis_f64())
        })
    }
}

/// Table 1: the capability matrix.
pub fn table1() -> Vec<Vec<String>> {
    let mark = |b: bool| if b { "Y" } else { "x" }.to_string();
    [
        SystemKind::NightCore,
        SystemKind::Spright,
        SystemKind::FuyaoF,
        SystemKind::PalladiumDne,
    ]
    .iter()
    .map(|s| {
        let c = s.capabilities();
        vec![
            s.label().to_string(),
            mark(c.multi_tenancy),
            mark(c.distributed_zero_copy),
            mark(c.dpu_offloading),
            mark(c.eliminates_proto_in_cluster),
        ]
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Scale = Scale(0.12);

    #[test]
    fn fig09_rows_shape() {
        let rows = fig09(TINY);
        assert_eq!(rows.len(), 3 * 6);
        assert!(rows.iter().all(|r| r.len() == 4));
    }

    #[test]
    fn fig12_rows_shape() {
        let rows = fig12(TINY);
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0].len(), 1 + 2 * 4);
    }

    #[test]
    fn table1_matches_paper() {
        let rows = table1();
        // Palladium: all capabilities; NightCore: none.
        assert_eq!(rows[3][1..], ["Y", "Y", "Y", "Y"].map(String::from));
        assert_eq!(rows[0][1..], ["x", "x", "x", "x"].map(String::from));
    }

    #[test]
    fn boutique_quick_run_sane() {
        let r = boutique_run(SystemKind::PalladiumDne, ChainKind::HomeQuery, 20, TINY);
        assert!(r.rps > 1_000.0, "rps {}", r.rps);
        assert_eq!(r.software_copy_bytes, 0);
    }
}
