//! Fig 16 / Table 2 driver: the full multi-node serverless cluster running
//! function chains on any of the six evaluated data planes.
//!
//! Topology (the paper's §4.3 testbed): two worker nodes carrying the
//! functions (hotspots on one, the rest on the other), an ingress node at
//! the cluster edge, and closed-loop external clients. Node 0 and node 1
//! are the workers; node 2 is the ingress.
//!
//! This module owns the *what*: the application topology ([`AppSpec`],
//! [`ChainSpec`]), the run configuration and the public report. The *how*
//! is the one cluster engine in [`super::cluster_sharded`]: [`ChainSim`] is
//! that engine at one worker pair on one shard, with the fabric delivering
//! its own frames so the run is a single serial event loop.

use palladium_membuf::FnId;
use palladium_simnet::Nanos;

use super::cluster_sharded::{ClusterShardedConfig, ClusterShardedSim};
use super::LoadReport;

/// The pseudo function id addressing the ingress gateway in routing tables.
pub const INGRESS_FN: FnId = FnId(0xFFFF);

/// One deployed function.
#[derive(Clone, Debug)]
pub struct FnSpec {
    /// Function id.
    pub id: FnId,
    /// Human-readable name.
    pub name: &'static str,
    /// Worker node index (0 or 1) the placement policy chose.
    pub node: usize,
    /// Execution cost per invocation (host-core time).
    pub exec: Nanos,
}

/// One data exchange in a chain.
#[derive(Clone, Copy, Debug)]
pub struct HopSpec {
    /// Producing function.
    pub from: FnId,
    /// Consuming function.
    pub to: FnId,
    /// Payload bytes.
    pub bytes: u32,
}

/// A function chain (one request type).
#[derive(Clone, Debug)]
pub struct ChainSpec {
    /// Chain name ("Home Query", ...).
    pub name: &'static str,
    /// Entry function (receives the client request).
    pub entry: FnId,
    /// The data exchanges, in order. After the final hop executes, its `to`
    /// function sends the response back to the ingress.
    pub hops: Vec<HopSpec>,
    /// Client request payload bytes.
    pub req_bytes: u32,
    /// Response payload bytes.
    pub resp_bytes: u32,
}

/// An application: functions plus chains.
#[derive(Clone, Debug)]
pub struct AppSpec {
    /// Deployed functions.
    pub functions: Vec<FnSpec>,
    /// Request chains.
    pub chains: Vec<ChainSpec>,
}

/// Configuration of one Fig 16 cluster run.
#[derive(Clone, Debug)]
pub struct ChainSimConfig {
    /// Data plane under test.
    pub system: crate::system::SystemKind,
    /// The application.
    pub app: AppSpec,
    /// Which chain the clients exercise.
    pub chain_idx: usize,
    /// Closed-loop clients.
    pub clients: usize,
    /// Measurement window.
    pub duration: Nanos,
    /// Warm-up excluded from statistics.
    pub warmup: Nanos,
    /// Fabric/randomness seed.
    pub seed: u64,
}

impl ChainSimConfig {
    /// A run of `system` over `app`'s chain `chain_idx`.
    pub fn new(system: crate::system::SystemKind, app: AppSpec, chain_idx: usize) -> Self {
        ChainSimConfig {
            system,
            app,
            chain_idx,
            clients: 20,
            duration: Nanos::from_millis(300),
            warmup: Nanos::from_millis(60),
            seed: 42,
        }
    }

    /// Set the client count.
    pub fn clients(mut self, n: usize) -> Self {
        self.clients = n;
        self
    }

    /// Set the measurement window in milliseconds.
    pub fn duration_ms(mut self, ms: u64) -> Self {
        self.duration = Nanos::from_millis(ms);
        self
    }

    /// Set the warm-up in milliseconds.
    pub fn warmup_ms(mut self, ms: u64) -> Self {
        self.warmup = Nanos::from_millis(ms);
        self
    }
}

/// The cluster run's report.
#[derive(Clone, Debug, Default)]
pub struct ChainReport {
    /// Throughput and latency details.
    pub load: LoadReport,
    /// Completed requests per second (alias of `load.rps`).
    pub rps: f64,
    /// Mean end-to-end latency.
    pub mean_latency: Nanos,
    /// Software copy bytes on the *worker* data plane (zero for Palladium).
    pub software_copy_bytes: u64,
    /// Software copy operations on the worker data plane.
    pub software_copy_ops: u64,
    /// RNIC DMA bytes moved on the workers.
    pub rnic_dma_bytes: u64,
    /// Worker-side data-plane CPU utilization in percent of one core
    /// (engines, pollers, worker TCP processing — not function execution).
    pub cpu_util_pct: f64,
    /// DPU utilization in percent of one core (busy-polling DNE cores count
    /// 100 % each, §4.3.1).
    pub dpu_util_pct: f64,
    /// Every queueing station on the run's nodes, in global node order
    /// (a station no request reached reads zero).
    pub stations: Vec<Station>,
}

/// One queueing station of a cluster run: a FIFO server, or a bank of
/// identical ones, with the work booked on it over the whole run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Station {
    /// What serves here: `"fn cores"`, `"dne worker"`, `"dne core thread"`,
    /// `"host engine"`, `"ingress"`, `"rnic egress"` or `"rnic rx"`.
    pub name: &'static str,
    /// Global node index.
    pub node: usize,
    /// Servers at the station.
    pub cores: usize,
    /// Service time booked on its servers, warm-up and work past the
    /// horizon included.
    pub busy: Nanos,
    /// How long past the horizon its servers stay booked, summed.
    pub backlog: Nanos,
}

/// The Fig 16 simulation.
pub struct ChainSim {
    cfg: ChainSimConfig,
}

impl ChainSim {
    /// Build a cluster run.
    pub fn new(cfg: ChainSimConfig) -> Self {
        ChainSim { cfg }
    }

    /// Run the cluster and report.
    pub fn run(self) -> ChainReport {
        self.run_counted().0
    }

    /// Run the cluster, also returning the number of simulation events
    /// processed (heap pops + inline-drained effects) — the denominator of
    /// the `simcore_throughput` events/sec benchmark.
    pub fn run_counted(self) -> (ChainReport, u64) {
        let ChainSimConfig { system, app, chain_idx, clients, duration, warmup, seed } = self.cfg;
        let AppSpec { functions, mut chains } = app;
        let app = AppSpec { functions, chains: vec![chains.swap_remove(chain_idx)] };
        let mut cfg = ClusterShardedConfig::new(system, app, 1).clients(clients);
        cfg.duration = duration;
        cfg.warmup = warmup;
        cfg.seed = seed;
        let report = ClusterShardedSim::new(cfg).run_direct();
        // A closed-loop client whose request vanished never re-issues.
        debug_assert_eq!(
            report.chaos.shed_pool + report.chaos.shed_qp,
            0,
            "a fault-free closed-loop run shed requests"
        );
        (report.chain, report.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemKind;

    /// A small test app: 4 functions, hotspots (A, D) on node 0, the rest
    /// on node 1; one chain with 5 hops (2 local, 3 remote).
    fn test_app() -> AppSpec {
        let us = Nanos::from_micros;
        AppSpec {
            functions: vec![
                FnSpec { id: FnId(1), name: "A", node: 0, exec: us(15) },
                FnSpec { id: FnId(2), name: "B", node: 1, exec: us(10) },
                FnSpec { id: FnId(3), name: "C", node: 1, exec: us(10) },
                FnSpec { id: FnId(4), name: "D", node: 0, exec: us(12) },
            ],
            chains: vec![ChainSpec {
                name: "test-chain",
                entry: FnId(1),
                hops: vec![
                    HopSpec { from: FnId(1), to: FnId(2), bytes: 512 },
                    HopSpec { from: FnId(2), to: FnId(3), bytes: 1024 },
                    HopSpec { from: FnId(3), to: FnId(2), bytes: 256 },
                    HopSpec { from: FnId(2), to: FnId(4), bytes: 512 },
                    HopSpec { from: FnId(4), to: FnId(1), bytes: 256 },
                ],
                req_bytes: 256,
                resp_bytes: 512,
            }],
        }
    }

    fn run(system: SystemKind, clients: usize) -> ChainReport {
        ChainSim::new(
            ChainSimConfig::new(system, test_app(), 0)
                .clients(clients)
                .warmup_ms(40)
                .duration_ms(160),
        )
        .run()
    }

    #[test]
    fn palladium_dne_completes_requests_zero_copy() {
        let r = run(SystemKind::PalladiumDne, 10);
        assert!(r.load.completed > 100, "completed {}", r.load.completed);
        assert_eq!(
            r.software_copy_bytes, 0,
            "palladium worker data plane must be zero-copy"
        );
        assert!(r.rnic_dma_bytes > 0, "data moved by RNIC DMA");
        assert!(r.dpu_util_pct >= 200.0, "two busy-polled DPU cores");
    }

    #[test]
    fn cne_completes_requests_zero_copy_on_cpu() {
        let r = run(SystemKind::PalladiumCne, 10);
        assert!(r.load.completed > 100);
        assert_eq!(r.software_copy_bytes, 0);
        assert_eq!(r.dpu_util_pct, 0.0, "CNE uses no DPU");
        assert!(r.cpu_util_pct > 0.0, "CNE burns host cores");
    }

    #[test]
    fn baselines_complete_and_copy() {
        for sys in [SystemKind::Spright, SystemKind::FuyaoF, SystemKind::NightCore] {
            let r = run(sys, 10);
            assert!(r.load.completed > 50, "{sys:?} completed {}", r.load.completed);
            assert!(
                r.software_copy_bytes > 0,
                "{sys:?} must pay software copies"
            );
        }
    }

    #[test]
    fn palladium_beats_baselines_at_load() {
        let dne = run(SystemKind::PalladiumDne, 40);
        let spright = run(SystemKind::Spright, 40);
        let nightcore = run(SystemKind::NightCore, 40);
        let fuyao = run(SystemKind::FuyaoF, 40);
        assert!(
            dne.rps > spright.rps,
            "DNE {:.0} vs SPRIGHT {:.0}",
            dne.rps,
            spright.rps
        );
        assert!(
            dne.rps > fuyao.rps,
            "DNE {:.0} vs FUYAO-F {:.0}",
            dne.rps,
            fuyao.rps
        );
        assert!(
            dne.rps / nightcore.rps > 3.0,
            "DNE {:.0} vs NightCore {:.0}",
            dne.rps,
            nightcore.rps
        );
    }

    #[test]
    fn dne_beats_cne_under_load() {
        let dne = run(SystemKind::PalladiumDne, 60);
        let cne = run(SystemKind::PalladiumCne, 60);
        assert!(
            dne.rps >= cne.rps,
            "DNE {:.0} vs CNE {:.0} at 60 clients",
            dne.rps,
            cne.rps
        );
    }

    #[test]
    fn latency_rises_with_clients() {
        let low = run(SystemKind::PalladiumDne, 4);
        let high = run(SystemKind::PalladiumDne, 60);
        assert!(high.mean_latency > low.mean_latency);
        assert!(high.rps > low.rps, "more clients, more throughput until saturation");
    }

    #[test]
    fn deterministic_runs() {
        let a = run(SystemKind::PalladiumDne, 10);
        let b = run(SystemKind::PalladiumDne, 10);
        assert_eq!(a.load.completed, b.load.completed);
        assert_eq!(a.mean_latency, b.mean_latency);
    }
}
