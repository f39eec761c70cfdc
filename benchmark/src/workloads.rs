//! The five workloads. Each is one fixed simulated horizon driven through a
//! driver's public `run`; the benchmark repeats it for `--seconds` of host
//! time. Horizon constants are part of the benchmark: the same on every
//! commit, so `sim_*` values and counts compare exactly across commits at
//! one seed.
//!
//! Inputs come from `--seed`: it is every driver's `cfg.seed` (open-loop
//! arrival gaps and Zipf ranks, multinode's per-node service jitter) and it
//! draws every function's execution cost within ±1 % of its nominal value
//! (±0.25 % for multinode's single cost) — the paper's chain shape and
//! hotspot placement, re-sampled per seed, so a held-out seed re-samples
//! every workload rather than only the open-loop one.

use palladium_core::driver::chain::{AppSpec, ChainSim};
use palladium_core::driver::cluster_sharded::{
    ClusterShardedConfig, ClusterShardedReport, ClusterShardedSim,
};
use palladium_core::driver::multinode::{MultiNodeConfig, MultiNodeSim};
use palladium_core::system::SystemKind;
use palladium_simnet::{Execution, Nanos, SimRng};
use palladium_workloads::boutique::{self, ChainKind};
use palladium_workloads::openloop;

/// Offered rate of the open-loop workload: 0.8× the ~100 k rps knee of the
/// 4-pair cluster, the highest grid point at which no request is shed,
/// retried or late on any seed tried (the contract wants workloads on
/// which no operation fails; the 2× overload regime stays pinned by
/// `BENCH_slo.json` and `tests/overload_cluster.rs`).
const OPENLOOP_RPS: f64 = 80_000.0;

/// `SimRng` stream id of the execution-cost draw.
const EXEC_STREAM: u64 = 0x6265_6e63_685f_6578;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    BoutiqueClosed,
    BoutiqueShard4,
    Openloop80k,
    Multinode32,
    BaselineFuyao,
}

/// How much simulated time one run covers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Horizon {
    /// The benchmark's fixed horizon.
    Full,
    /// Every horizon ÷ 50, for schema checks.
    Smoke,
    /// No simulated time at all: construction plus everything `run` builds
    /// before the first event (pools, QPs, MRs, routes) — the set-up cost.
    Zero,
}

/// Everything a run reports in the simulated domain. Deterministic for a
/// given seed: reps of one invocation must compare equal.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct SimOut {
    pub events: u64,
    /// Completions inside the measurement window (the latency sample count).
    pub completed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub throughput_rps: f64,
    pub mean: Nanos,
    pub p99: Nanos,
    /// Histogram percentiles; `ZERO` where the driver's report has none.
    pub p50: Nanos,
    pub p999: Nanos,
    pub cpu_cores: f64,
    pub dpu_cores: f64,
    pub copy_bytes: u64,
    pub dma_bytes: u64,
    /// `RdmaNet` frames between nodes (a two-sided send is a data frame
    /// plus its ACK); 0 where the fabric is not on the path or the driver
    /// does not report it.
    pub fabric_frames: u64,
    /// Messages through the shard runner's mailboxes.
    pub mailbox_messages: u64,
    /// Ingress-gateway legs served: an inbound and an outbound one per
    /// request; 0 where the driver has no gateway.
    pub gateway_legs: u64,
    pub windows: u64,
    pub spilled: u64,
    pub mailbox_high_water: u64,
    pub offered: u64,
    pub admitted: u64,
    pub goodput: u64,
    pub late: u64,
    pub retries: u64,
    pub retry_exhausted: u64,
    pub shed_admission: u64,
    pub shed_deadline: u64,
    pub shed_breaker: u64,
    pub breaker_opens: u64,
}

impl SimOut {
    /// The fields a user of the simulated system sees — what must not
    /// depend on the shard count.
    pub fn user_visible(&self) -> impl PartialEq + std::fmt::Debug {
        (
            (self.events, self.completed, self.attempted, self.failed),
            (
                self.throughput_rps,
                self.mean,
                self.p50,
                self.p99,
                self.p999,
            ),
            (
                self.cpu_cores,
                self.dpu_cores,
                self.copy_bytes,
                self.dma_bytes,
            ),
        )
    }
}

/// One run: the simulated report plus the shard runner's host-time busy
/// accounting (zero on the serial engine).
#[derive(Clone, Debug, Default)]
pub struct RunOut {
    pub sim: SimOut,
    pub busy_ns: u64,
    pub critical_path_ns: u64,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::BoutiqueClosed,
        Workload::BoutiqueShard4,
        Workload::Openloop80k,
        Workload::Multinode32,
        Workload::BaselineFuyao,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BoutiqueClosed => "boutique_closed",
            Workload::BoutiqueShard4 => "boutique_shard4",
            Workload::Openloop80k => "openloop_80k",
            Workload::Multinode32 => "multinode32",
            Workload::BaselineFuyao => "baseline_fuyao",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs on the Palladium data plane: software copies must be exactly 0.
    pub fn is_palladium(self) -> bool {
        self != Workload::BaselineFuyao
    }

    /// `(warm-up ms, measured ms)` of simulated time.
    fn horizon_ms(self, h: Horizon) -> (u64, u64) {
        let (warmup, duration) = match self {
            Workload::BoutiqueClosed | Workload::BoutiqueShard4 => (70, 700),
            Workload::Openloop80k => (50, 600),
            Workload::Multinode32 => (40, 200),
            Workload::BaselineFuyao => (1200, 6000),
        };
        match h {
            Horizon::Full => (warmup, duration),
            Horizon::Smoke => (warmup / 50, duration / 50),
            Horizon::Zero => (0, 0),
        }
    }

    /// Run the workload once.
    pub fn run(self, seed: u64, h: Horizon) -> RunOut {
        let (warmup, duration) = self.horizon_ms(h);
        match self {
            Workload::BoutiqueClosed | Workload::BoutiqueShard4 => {
                let cfg =
                    boutique::sharded_config(SystemKind::PalladiumDne, ChainKind::HomeQuery, 4)
                        .clients(32);
                let shards = if self == Workload::BoutiqueShard4 {
                    4
                } else {
                    1
                };
                run_sharded(cfg, seed, warmup, duration, shards)
            }
            Workload::Openloop80k => run_sharded(
                openloop::poisson_overload(OPENLOOP_RPS),
                seed,
                warmup,
                duration,
                1,
            ),
            Workload::Multinode32 => {
                let mut cfg = MultiNodeConfig::scaled(32)
                    .warmup_ms(warmup)
                    .duration_ms(duration);
                cfg.seed = seed;
                // One cost drives every hop here, so a quarter of the
                // boutique's ±1 % moves the results about as much as its
                // ten independent draws do.
                cfg.exec = SimRng::stream(seed, EXEC_STREAM).jitter(cfg.exec, 0.0025);
                // Sequential, not Threads: with two hardware threads a spin
                // barrier measures the OS scheduler, not the simulator.
                let r = MultiNodeSim::new(cfg).run(1, Execution::Sequential);
                RunOut {
                    sim: SimOut {
                        events: r.events,
                        completed: r.load.completed,
                        attempted: r.load.completed,
                        throughput_rps: r.load.rps,
                        mean: r.load.mean_latency,
                        p99: r.load.p99_latency,
                        // This driver charges the fabric's cost model
                        // (`RdmaConfig::one_way`) per hop; it never steps
                        // an `RdmaNet`.
                        mailbox_messages: r.messages,
                        windows: r.windows,
                        spilled: r.spilled,
                        ..SimOut::default()
                    },
                    busy_ns: r.busy_ns.iter().sum(),
                    critical_path_ns: r.critical_path_ns,
                }
            }
            Workload::BaselineFuyao => {
                let mut cfg = boutique::config(SystemKind::FuyaoF, ChainKind::HomeQuery)
                    .clients(60)
                    .warmup_ms(warmup)
                    .duration_ms(duration);
                cfg.seed = seed;
                draw_exec_costs(&mut cfg.app, seed);
                let (r, events) = ChainSim::new(cfg).run_counted();
                RunOut {
                    sim: SimOut {
                        events,
                        completed: r.load.completed,
                        attempted: r.load.completed,
                        throughput_rps: r.rps,
                        mean: r.mean_latency,
                        p99: r.load.p99_latency,
                        cpu_cores: r.cpu_util_pct / 100.0,
                        dpu_cores: r.dpu_util_pct / 100.0,
                        copy_bytes: r.software_copy_bytes,
                        dma_bytes: r.rnic_dma_bytes,
                        gateway_legs: 2 * r.load.completed,
                        ..SimOut::default()
                    },
                    ..RunOut::default()
                }
            }
        }
    }
}

/// Draw each function's execution cost within ±1 % of its nominal value.
fn draw_exec_costs(app: &mut AppSpec, seed: u64) {
    let mut rng = SimRng::stream(seed, EXEC_STREAM);
    for f in &mut app.functions {
        f.exec = rng.jitter(f.exec, 0.01);
    }
}

fn run_sharded(
    cfg: ClusterShardedConfig,
    seed: u64,
    warmup_ms: u64,
    duration_ms: u64,
    shards: usize,
) -> RunOut {
    let mut cfg = cfg.warmup_ms(warmup_ms).duration_ms(duration_ms);
    cfg.seed = seed;
    draw_exec_costs(&mut cfg.app, seed);
    let open_loop = cfg.overload.is_some();
    let secs = cfg.duration.as_secs_f64();
    let r: ClusterShardedReport = ClusterShardedSim::new(cfg).run(shards, Execution::Sequential);
    let (c, o) = (&r.chaos, &r.overload);
    let completed = r.chain.load.completed;
    let (attempted, failed, throughput_rps) = if open_loop {
        // A completion past its deadline and a request that ran out of
        // retries both miss the latency limit: they are the failures.
        (
            o.offered,
            o.late + o.retry_exhausted,
            o.goodput as f64 / secs,
        )
    } else {
        let lost = c.shed_qp
            + c.shed_pool
            + c.shed_admission
            + c.shed_deadline
            + c.shed_breaker
            + c.inflight_lost;
        (completed + lost, lost, r.chain.rps)
    };
    RunOut {
        sim: SimOut {
            events: r.events,
            completed,
            attempted,
            failed,
            throughput_rps,
            mean: r.chain.mean_latency,
            p99: r.chain.load.p99_latency,
            p50: r.p50,
            p999: r.p999,
            cpu_cores: r.chain.cpu_util_pct / 100.0,
            dpu_cores: r.chain.dpu_util_pct / 100.0,
            copy_bytes: r.chain.software_copy_bytes,
            dma_bytes: r.chain.rnic_dma_bytes,
            fabric_frames: r.messages,
            mailbox_messages: r.messages,
            gateway_legs: 2 * attempted,
            windows: r.windows,
            spilled: r.spilled,
            mailbox_high_water: r.channels.iter().map(|c| c.high_water).max().unwrap_or(0),
            offered: o.offered,
            admitted: o.admitted,
            goodput: o.goodput,
            late: o.late,
            retries: o.retries,
            retry_exhausted: o.retry_exhausted,
            shed_admission: c.shed_admission,
            shed_deadline: c.shed_deadline,
            shed_breaker: c.shed_breaker,
            breaker_opens: o.breaker_opens,
        },
        busy_ns: r.busy_ns.iter().sum(),
        critical_path_ns: r.critical_path_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn smoke_runs_repeat_exactly_and_follow_the_seed() {
        for w in Workload::ALL {
            let a = w.run(3, Horizon::Smoke).sim;
            assert_eq!(a, w.run(3, Horizon::Smoke).sim, "{}", w.name());
            assert_ne!(
                a,
                w.run(4, Horizon::Smoke).sim,
                "{}: seed is not an input",
                w.name()
            );
            assert!(a.completed > 0 && a.failed == 0, "{}: {a:?}", w.name());
            assert_eq!(a.copy_bytes == 0, w.is_palladium(), "{}", w.name());
        }
    }

    #[test]
    fn shard_count_is_invisible_to_the_user() {
        let one = Workload::BoutiqueClosed.run(1, Horizon::Smoke).sim;
        let four = Workload::BoutiqueShard4.run(1, Horizon::Smoke).sim;
        assert_eq!(one.user_visible(), four.user_visible());
    }

    #[test]
    fn zero_horizon_only_sets_up() {
        for w in Workload::ALL {
            assert_eq!(w.run(1, Horizon::Zero).sim.completed, 0, "{}", w.name());
        }
    }
}
