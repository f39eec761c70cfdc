//! The cluster engine behind Fig 16 / Table 2 / Fig 14: `pairs`
//! worker-node pairs plus one ingress node running function chains on any
//! of the six evaluated data planes, on the conservative sharded kernel
//! ([`palladium_simnet::shard`]) with one [`RdmaNet`] fabric instance
//! **per shard**.
//!
//! [`ClusterShard`] is the only cluster state machine in the workspace.
//! Everything on the request path is the real machinery built here:
//! requests allocate real buffers from per-node pools, payload bytes
//! really carry the request id end-to-end, ownership really moves by
//! token passing, inter-node hops run the full RC state machine in
//! [`RdmaNet`], the DNE really schedules with DWRR and replenishes its
//! RBR, and every software copy lands on a per-node [`CopyMeter`] — the
//! zero-copy claims are asserted, not assumed. The declarative
//! [`SystemSpec`] selects what differs between systems — the inter-node
//! primitive, the ingress design, the engine location — and nothing else
//! does: Palladium's two-sided-RDMA arms live in this file, the
//! baselines' TCP / one-sided-write / host-engine arms in [`baselines`].
//!
//! Two ways in. [`super::chain::ChainSim`] (Fig 16, Table 2: one pair,
//! any system) runs one shard with the fabric delivering its own frames
//! — a plain serial event loop. [`ClusterShardedSim::run`] splits the
//! cluster along [`Partition`] node-block boundaries so the paper's
//! headline workload (the boutique application, Fig 16, and the scaling
//! sweep, Fig 14) parallelizes across cores:
//!
//! * **Per-shard `RdmaNet` ownership.** Each shard owns the RNICs, CQs
//!   and QP state of its contiguous node block
//!   ([`RdmaNet::with_span`]). QP state machines are per-node, so the
//!   only shared fabric state — frames in flight — becomes explicit:
//!   in sharded-egress mode every inter-node frame (data *and*
//!   ACK/NAK, same-span destinations included) leaves `transmit` as a
//!   fully-timed [`Packet`] that this driver routes through the
//!   deterministic SPSC mailboxes.
//! * **Frame-level lookahead.** Window barriers are sized to
//!   [`RdmaConfig::frame_lookahead`] — the control-frame floor
//!   (~652 ns at default calibration), *not* the WR-level
//!   [`RdmaConfig::lookahead`] (~3.1 µs): ACKs cross shards too, and
//!   they bypass the doorbell and TX/RX pipelines.
//! * **Shard-count invariance.** The discipline from
//!   [`super::multinode`]: all inter-node traffic rides the [`Outbox`]
//!   keyed by global source node id, local events stay node-local, no
//!   randomness is drawn on the steady path (faults stay disabled),
//!   and reports fold in global node order. One shard therefore
//!   reproduces the exact bytes of every sharded run
//!   (`tests/cluster_sharded.rs` pins 1/2/4/8 shards × both execution
//!   modes against a golden trace), and the serial event loop
//!   reproduces them too (`tests/one_engine.rs`). Only two-sided RDMA
//!   shards: the baselines' inter-node legs are local events, so they
//!   run at one shard.
//!
//! # Topology and request-state distribution
//!
//! Pair `p` owns global nodes `2p` (hotspots) and `2p+1` (the rest);
//! the ingress node sits at global index `2·pairs`. Function ids are
//! remapped per pair (`id + 16·p`), so routing tables stay a dense id →
//! node lookup; request `r` runs pair `r % pairs`'s chain. Clients, the
//! gateway and the latency statistics live on the shard owning the
//! ingress node.
//!
//! Consecutive hops of one request execute on different shards, so no
//! central table can hold its chain position. The hop index travels
//! **in the payload** instead: the 8-byte little-endian prefix packs the
//! request id in the low 40 bits, the next hop index in the next 8, and
//! the worker pair running the request in the high 16
//! ([`word_of`]/[`unword`]), so each node derives the chain position
//! from the bytes it received. Carrying the pair in the word is what
//! lets the ingress *re-route* a request to a surviving replica under
//! chaos: the chosen pair travels with the bytes instead of being
//! re-derived as `req % pairs` at every hop.
//!
//! # Chaos scenarios, health detection and failover
//!
//! With [`ClusterShardedConfig::chaos`] set, the run replays a
//! [`ScenarioScript`] (node crashes as deterministic partition windows,
//! link flaps/storms as per-node [`palladium_simnet::FaultTimeline`]s,
//! stragglers as cost multipliers) and turns on the health plane: every
//! worker sends [`Packet`] heartbeats to the ingress each
//! `heartbeat_period`, the ingress suspects a worker after
//! `heartbeat_k` silent periods, sheds that pair's in-flight requests
//! (counted honestly as `inflight_lost`) and re-issues their clients
//! against a surviving pair. Fault verdicts draw from per-node
//! [`palladium_simnet::SimRng::stream`]s keyed by global node id, and
//! every shard holds identical scenario tables, so a chaos run is
//! byte-identical at every shard count and execution mode
//! (`tests/chaos_cluster.rs` pins it). With `chaos` unset no heartbeat
//! or health-check events are ever scheduled and the event schedule is
//! exactly the fault-free one — the pre-chaos golden traces hold.
//!
//! # Costed rejoin and gray-failure detection
//!
//! Recovery is not free. When a suspected worker's heartbeats resume,
//! [`HealthMonitor`] moves it to **Rejoining** — still out of the
//! routing set — and the ingress schedules [`Ev::RejoinDone`] after the
//! configured [`RejoinCosts`]: serialized per-QP re-establishment
//! (Swift's control-plane bottleneck), one MR/pool re-registration, and
//! a state re-sync transfer proportional to the worker's pool bytes.
//! Only the paid-up completion re-admits the pair; a worker that goes
//! silent again mid-rejoin aborts the pending completion (a per-worker
//! epoch voids the stale event) and counts as `rejoins_aborted`. The
//! QPs themselves persist across the outage — go-back-N redelivers once
//! the partition lifts (dense per-RNIC QP tables are what keep QPN
//! wiring shard-count invariant) — so the rejoin models the
//! *control-plane time* of re-establishment, mirroring
//! [`crate::connpool::ConnPool::warm_up_costed`]. Time-to-recovery
//! (suspicion → paid re-admission) lands in a [`Histogram`]
//! (`ttr_p50`/`ttr_p99` in [`ChaosReport`]).
//!
//! Gray faults (low-rate directed drop/latency inflation, compiled into
//! per-link [`palladium_simnet::FaultTimeline`]s) sit *below* the
//! heartbeat-miss threshold: probes still arrive, so the monitor never
//! suspects anyone. Detection is differential instead
//! ([`GrayPolicy`]): the ingress keeps a per-pair EWMA of end-to-end
//! latency (lost in-flights charge a loss penalty), and each health
//! sweep compares pairs against the *best* pair's EWMA — a pair whose
//! score exceeds `enter ×` the baseline moves to probation (routing
//! deflects to healthy pairs, counted as `gray_reroutes`), readmitted
//! with hysteresis at `exit ×` once probe traffic — every
//! `probe_every`-th preferred request is still admitted — pulls the
//! EWMA back down. All scores update in ingress event order, so
//! detection is byte-identical at every shard count too.

use bytes::Bytes;

use palladium_ipc::{ChannelCosts, ChannelKind, SkMsgCosts};
use palladium_membuf::{
    BufDesc, BufToken, CopyMeter, FnId, MmapExporter, MoveKind, NodeId, Owner, PayloadCache,
    PoolId, Region, TenantId, UnifiedPool,
};
use palladium_rdma::{
    Cqe, CqeKind, Packet, RdmaConfig, RdmaEvent, RdmaNet, RdmaOutput, RqEntry, Step, WorkRequest,
    WrId,
};
use std::collections::VecDeque;

use palladium_simnet::{
    run_sharded, Arrival, ChannelStats, CompiledScenario, Effects, Execution, HealthMonitor,
    Histogram, IdTable, Nanos, OpenLoop, OpenLoopConfig, Outbox, PageTable, Partition, RunStats,
    ScenarioScript, ServerBank, ShardConfig, ShardEngine, SimRng, Slab, Suspicion, WorkerState,
};

use super::chain::{AppSpec, ChainReport, ChainSpec, INGRESS_FN};
use super::LoadReport;
use baselines::{Hop, HostEv, HostPlane};
use crate::autoscaler::{Autoscaler, AutoscalerConfig, ScaleAction};
use crate::config::{CostModel, EngineLocation};
use crate::connpool::{ConnPool, ConnPoolConfig, RejoinCosts};
use crate::dne::{pack_imm, Dne, DneEffect};
use crate::ingress::{IngressConfig, IngressGateway, Leg};
use crate::routing::{Coordinator, DeployEvent};
use crate::system::{IngressKind, InterNode, SystemKind, SystemSpec};

mod baselines;

const TENANT: TenantId = TenantId(1);
const POOL_BUFS: u32 = 4096;
const BUF_SIZE: u32 = 8192;
const INITIAL_RQ: u64 = 512;

/// Stream-id salt for per-request retry-backoff jitter draws: the draw for
/// `(request, attempt)` is stateless, so backoff schedules are byte-identical
/// at every shard count and execution mode.
const RETRY_STREAM: u64 = 0x6265_6F66_6672;

/// Every `N`-th deadline-infeasible request is admitted anyway. The
/// feasibility estimate only re-learns from completions, so shedding on
/// it unconditionally lets an outage-poisoned EWMA starve the cluster
/// forever — a metastable trap of the admission controller's own making.
/// The probe keeps samples flowing so the estimate can recover.
const DL_PROBE_EVERY: u64 = 8; // "beoffr"

/// Transport retry budget under chaos *without* an overload retry policy —
/// the legacy "undying" configuration: the QP never suicides, go-back-N
/// redelivers once a partition lifts, and failover belongs to the health
/// plane alone.
const UNDYING_RETRY: u32 = 100_000;

/// Payload word layout: request id (low 40 bits), hop index (8 bits),
/// worker pair (high 16 bits) — see the module docs on request-state
/// distribution and failover.
const REQ_BITS: u32 = 40;
const REQ_MASK: u64 = (1 << REQ_BITS) - 1;
const HOP_BITS: u32 = 8;
const HOP_MASK: u64 = (1 << HOP_BITS) - 1;

/// Pack `(req, hop, pair)` into the 8-byte payload prefix word.
fn word_of(req: u64, hop: usize, pair: usize) -> u64 {
    debug_assert!(req <= REQ_MASK, "request id overflows the payload word");
    debug_assert!((hop as u64) <= HOP_MASK, "hop index overflows the payload word");
    debug_assert!(pair < (1 << 16), "pair index overflows the payload word");
    req | ((hop as u64) << REQ_BITS) | ((pair as u64) << (REQ_BITS + HOP_BITS))
}

/// Unpack `(req, hop, pair)` from a payload's 8-byte little-endian prefix.
fn unword(data: &[u8]) -> (u64, usize, usize) {
    let mut b = [0u8; 8];
    b.copy_from_slice(&data[..8]);
    let w = u64::from_le_bytes(b);
    (
        w & REQ_MASK,
        ((w >> REQ_BITS) & HOP_MASK) as usize,
        (w >> (REQ_BITS + HOP_BITS)) as usize,
    )
}

/// Configuration of one sharded cluster run.
#[derive(Clone, Debug)]
pub struct ClusterShardedConfig {
    /// Data plane under test. Only the Palladium variants (two-sided
    /// RDMA) run at more than one shard.
    pub system: SystemKind,
    /// The application: `chains[p]` is worker pair `p`'s chain, function
    /// nodes are **global** node indices (see
    /// `palladium_workloads::boutique::sharded_app`).
    pub app: AppSpec,
    /// Worker-node pairs; the cluster has `2·pairs + 1` nodes.
    pub pairs: usize,
    /// Closed-loop clients (all entering at the ingress).
    pub clients: usize,
    /// Measurement window.
    pub duration: Nanos,
    /// Warm-up excluded from statistics.
    pub warmup: Nanos,
    /// Fabric seed (only drawn by fault injection, which this driver
    /// keeps disabled — see the module docs on invariance).
    pub seed: u64,
    /// Windows batched per barrier. The default window is
    /// `frame_lookahead / stride`, keeping the effective barrier spacing
    /// `window × stride` at (or under) the frame lookahead — sound at
    /// any stride.
    pub stride: u64,
    /// Explicit window width override in nanoseconds. Must satisfy
    /// `window × stride ≤ frame_lookahead` (asserted at run); narrower
    /// windows are always sound, and pinning the window while varying
    /// the stride is how the striding win is measured (same grid, fewer
    /// barriers).
    pub window_ns: Option<u64>,
    /// Chaos scenario replayed by the run (see the module docs). `None`
    /// keeps the event schedule exactly fault-free: no heartbeats, no
    /// health checks, no fault tables.
    pub chaos: Option<ScenarioScript>,
    /// Worker → ingress heartbeat probe period (chaos runs only).
    pub heartbeat_period: Nanos,
    /// Silent heartbeat periods before the ingress suspects a worker.
    pub heartbeat_k: u64,
    /// Control-plane cost model paid by a recovering worker before it
    /// re-enters the routing set (chaos runs only).
    pub rejoin: RejoinCosts,
    /// Differential gray-failure detection policy (chaos runs only).
    pub gray: GrayPolicy,
    /// Buffers per node pool. The default matches the historical constant;
    /// shrinking it is how the pool-exhaustion shed path is tested.
    pub pool_bufs: u32,
    /// Open-loop overload regime (see [`OverloadConfig`]). `None` keeps the
    /// classic closed-loop drivers byte-for-byte: no arrival events, no
    /// admission queue, no retry budgets, no autoscaler.
    pub overload: Option<OverloadConfig>,
}

/// The overload regime: open-loop arrivals plus the degradation machinery
/// that keeps overload survivable — ingress admission control with
/// deadline-aware shedding, per-request retry budgets, a per-pair circuit
/// breaker, and (optionally) costed autoscaler scale-out.
///
/// Every stochastic draw (arrival gaps, population ranks, retry jitter)
/// comes from stateless [`SimRng::stream`]s keyed by sequence numbers, and
/// every decision executes in ingress event order, so overload runs are
/// byte-identical at every shard count and execution mode like everything
/// else in this driver.
#[derive(Clone, Debug)]
pub struct OverloadConfig {
    /// The open-loop arrival profile and Zipf function population.
    pub traffic: OpenLoopConfig,
    /// End-to-end deadline propagated with each request; completions past
    /// it are *measured* as `late` (not goodput) regardless of policy.
    pub deadline: Nanos,
    /// Bounded admission queue capacity (requests waiting at the ingress).
    pub queue_cap: usize,
    /// Maximum admitted-but-unfinished requests (the concurrency window
    /// that keeps the data plane out of its own congestion collapse).
    pub inflight_cap: u64,
    /// Queued requests older than this are shed oldest-first — serving a
    /// request that already waited this long only makes every later one
    /// later.
    pub queue_delay_max: Nanos,
    /// Initial service-latency estimate seeding the deadline-feasibility
    /// EWMA (updated from admission→completion samples).
    pub est_latency: Nanos,
    /// Whether the admission/retry machinery *acts* on deadlines (sheds
    /// infeasible requests). The unbounded-legacy negative control turns
    /// this off: deadlines are still measured, never enforced.
    pub shed_on_deadline: bool,
    /// Per-request retry budget and backoff shape.
    pub retry: RetryPolicy,
    /// Per-pair circuit breaker.
    pub breaker: BreakerPolicy,
    /// Costed autoscaler scale-out; `None` serves with all pairs active.
    pub autoscale: Option<AutoscalePolicy>,
}

impl OverloadConfig {
    /// Budgeted-degradation defaults over the given traffic and deadline.
    pub fn new(traffic: OpenLoopConfig, deadline: Nanos) -> Self {
        OverloadConfig {
            traffic,
            deadline,
            queue_cap: 512,
            inflight_cap: 64,
            queue_delay_max: Nanos::from_micros(500),
            est_latency: Nanos::from_micros(500),
            shed_on_deadline: true,
            retry: RetryPolicy::budgeted(),
            breaker: BreakerPolicy::default(),
            autoscale: None,
        }
    }

    /// Tune the admission bound: queue capacity, in-flight window, and the
    /// oldest-first queue-delay threshold.
    pub fn admission(mut self, queue_cap: usize, inflight_cap: u64, queue_delay_max: Nanos) -> Self {
        self.queue_cap = queue_cap;
        self.inflight_cap = inflight_cap;
        self.queue_delay_max = queue_delay_max;
        self
    }

    /// Set the retry policy.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Set the circuit-breaker policy.
    pub fn breaker(mut self, policy: BreakerPolicy) -> Self {
        self.breaker = policy;
        self
    }

    /// Enable costed autoscaler scale-out.
    pub fn autoscale(mut self, policy: AutoscalePolicy) -> Self {
        self.autoscale = Some(policy);
        self
    }

    /// The honest negative control: the pre-budget configuration with an
    /// effectively unbounded queue, undying retries with near-zero backoff,
    /// no breaker, and no deadline enforcement (deadlines are still
    /// *measured*, so goodput reads honestly). Under a transient fault at
    /// sustained load this is the classic metastable recipe — the backlog
    /// and retry storm outlive the fault.
    pub fn unbounded_legacy(mut self) -> Self {
        self.queue_cap = 1 << 20;
        self.queue_delay_max = Nanos::from_secs(3600);
        self.shed_on_deadline = false;
        self.retry = RetryPolicy::unbounded();
        self.breaker = BreakerPolicy::disabled();
        self
    }
}

/// Per-request retry budget with deterministic exponential backoff +
/// jitter. Budget exhaustion is an honest client-visible failure
/// (`retry_exhausted` in [`OverloadReport`]), not an infinite loop.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries allowed after the first attempt.
    pub budget: u32,
    /// Backoff before retry `k` is `base × 2^(k-1)`, capped.
    pub backoff_base: Nanos,
    /// Backoff ceiling.
    pub backoff_cap: Nanos,
    /// Uniform jitter fraction (±) applied to each backoff — deterministic
    /// per `(request, attempt)` via a stateless stream.
    pub jitter_frac: f64,
    /// Transport-level (QP) retry budget under chaos. `None` keeps the
    /// legacy undying transport ([`UNDYING_RETRY`]); `Some(n)` makes the
    /// transport give up honestly after `n` RTOs, handing failure to the
    /// client-level budget above.
    pub transport_retry: Option<u32>,
}

impl RetryPolicy {
    /// The budgeted configuration: 3 retries, 50 µs base doubling to an
    /// 800 µs cap, ±25% jitter, transport retries bounded.
    pub fn budgeted() -> Self {
        RetryPolicy {
            budget: 3,
            backoff_base: Nanos::from_micros(50),
            backoff_cap: Nanos::from_micros(800),
            jitter_frac: 0.25,
            transport_retry: Some(64),
        }
    }

    /// The legacy storm: effectively infinite retries with a near-zero
    /// fixed backoff and an undying transport.
    pub fn unbounded() -> Self {
        RetryPolicy {
            budget: u32::MAX,
            backoff_base: Nanos::from_micros(5),
            backoff_cap: Nanos::from_micros(5),
            jitter_frac: 0.2,
            transport_retry: None,
        }
    }
}

/// Per-pair circuit breaker: after `open_after` consecutive transport/loss
/// failures the pair is shed *at the source* for `cooldown`; the first
/// admission after the cooldown is the half-open probe — success closes
/// the breaker, failure re-arms it. Composes with the health plane and the
/// gray/probation states: the breaker reacts to failures the EWMA detector
/// is too slow for (a demoted pair keeps losing in-flights).
#[derive(Clone, Copy, Debug)]
pub struct BreakerPolicy {
    /// Consecutive failures that open the breaker.
    pub open_after: u32,
    /// How long an open breaker sheds before allowing a half-open probe.
    pub cooldown: Nanos,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            open_after: 8,
            cooldown: Nanos::from_micros(200),
        }
    }
}

impl BreakerPolicy {
    /// A breaker that never opens (the legacy control).
    pub fn disabled() -> Self {
        BreakerPolicy {
            open_after: u32::MAX,
            cooldown: Nanos::ZERO,
        }
    }
}

/// Costed elastic scale-out: the run starts serving from `initial_pairs`
/// and the [`Autoscaler`] activates further (fully wired but idle) pairs
/// when the backlog-derived utilization crosses its thresholds. Each
/// activation pays the full [`RejoinCosts`] bill before serving — or, while
/// pre-leased warm workers remain, an rFaaS-style `lease_fraction` of it.
#[derive(Clone, Copy, Debug)]
pub struct AutoscalePolicy {
    /// Pairs active at t = 0 (the rest are spares awaiting activation).
    pub initial_pairs: usize,
    /// The hysteresis policy. `min_workers`/`max_workers` are overridden to
    /// `initial_pairs`/total pairs by the driver; set `eval_interval` and
    /// `cooldown` to the cadence the scenario needs.
    pub scaler: AutoscalerConfig,
    /// In-flight + queued requests one active pair is expected to absorb;
    /// utilization fed to the scaler is `backlog / (active × target)`.
    pub target_inflight_per_pair: u64,
    /// Pre-leased warm workers that activate at `lease_fraction` of the
    /// full rejoin bill.
    pub warm_leases: u32,
    /// Fraction of the rejoin bill a leased activation pays.
    pub lease_fraction: f64,
}

/// Differential gray-failure detection: per-pair EWMA latency scores,
/// compared against the best pair (not an absolute timeout — a gray
/// link inflates latency *relative to its peers* while heartbeats still
/// arrive). Degraded pairs move to a probation routing weight and are
/// readmitted with hysteresis.
#[derive(Clone, Copy, Debug)]
pub struct GrayPolicy {
    /// EWMA smoothing factor for per-pair latency scores.
    pub alpha: f64,
    /// Demote a pair to probation when its EWMA exceeds `enter ×` the
    /// best pair's EWMA.
    pub enter: f64,
    /// Restore a probationary pair when its EWMA falls back under
    /// `exit ×` the best pair's EWMA (must be `< enter` for hysteresis).
    pub exit: f64,
    /// Minimum completed samples before a pair participates in the
    /// comparison (both as baseline and as demotion candidate).
    pub min_samples: u64,
    /// On probation, every `probe_every`-th preferred request is still
    /// admitted so the EWMA can observe recovery.
    pub probe_every: u64,
    /// Latency charged to a pair's EWMA for each in-flight request
    /// abandoned on it (losses must hurt the score, not just vanish).
    pub loss_penalty: Nanos,
}

impl Default for GrayPolicy {
    fn default() -> Self {
        GrayPolicy {
            alpha: 0.125,
            enter: 2.0,
            exit: 1.4,
            min_samples: 16,
            probe_every: 8,
            loss_penalty: Nanos::from_millis(10),
        }
    }
}

impl ClusterShardedConfig {
    /// A run of `system` over `app` with `pairs` worker pairs.
    pub fn new(system: SystemKind, app: AppSpec, pairs: usize) -> Self {
        assert!(pairs >= 1, "need at least one worker pair");
        assert_eq!(app.chains.len(), pairs, "one chain replica per pair");
        ClusterShardedConfig {
            system,
            app,
            pairs,
            clients: 16 * pairs,
            duration: Nanos::from_millis(120),
            warmup: Nanos::from_millis(30),
            seed: 42,
            stride: 1,
            window_ns: None,
            chaos: None,
            heartbeat_period: Nanos::from_micros(50),
            heartbeat_k: 3,
            rejoin: RejoinCosts::default(),
            gray: GrayPolicy::default(),
            pool_bufs: POOL_BUFS,
            overload: None,
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

    /// Batch `stride` windows per barrier (see [`ClusterShardedConfig::stride`]).
    pub fn stride(mut self, stride: u64) -> Self {
        assert!(stride >= 1, "stride must be at least one window");
        self.stride = stride;
        self
    }

    /// Pin the window width (see [`ClusterShardedConfig::window_ns`]).
    pub fn window_ns(mut self, ns: u64) -> Self {
        self.window_ns = Some(ns);
        self
    }

    /// Replay `script` during the run (turns on the health plane).
    pub fn chaos(mut self, script: ScenarioScript) -> Self {
        self.chaos = Some(script);
        self
    }

    /// Tune the health plane: probe period and missed-period threshold.
    pub fn heartbeat(mut self, period: Nanos, k: u64) -> Self {
        assert!(!period.is_zero() && k > 0, "degenerate heartbeat config");
        self.heartbeat_period = period;
        self.heartbeat_k = k;
        self
    }

    /// Set the rejoin cost model (see [`RejoinCosts`]).
    pub fn rejoin(mut self, costs: RejoinCosts) -> Self {
        self.rejoin = costs;
        self
    }

    /// Set the gray-failure detection policy (see [`GrayPolicy`]).
    pub fn gray(mut self, policy: GrayPolicy) -> Self {
        assert!(policy.exit < policy.enter, "hysteresis requires exit < enter");
        assert!(policy.probe_every > 0, "probation needs probe traffic");
        self.gray = policy;
        self
    }

    /// Set the per-node pool size in buffers.
    pub fn pool_bufs(mut self, bufs: u32) -> Self {
        assert!(bufs >= 1, "need at least one pool buffer");
        self.pool_bufs = bufs;
        self
    }

    /// Drive the run open-loop under `overload` (see [`OverloadConfig`]).
    /// Replaces the closed-loop clients entirely.
    pub fn overload(mut self, overload: OverloadConfig) -> Self {
        assert!(overload.inflight_cap >= 1, "need a non-empty in-flight window");
        assert!(overload.traffic.population >= 1, "need a function population");
        self.overload = Some(overload);
        self
    }

    /// The window width a run of this configuration uses.
    pub fn window(&self) -> Nanos {
        let frame_la = RdmaConfig::default().frame_lookahead();
        let w = match self.window_ns {
            Some(ns) => Nanos(ns),
            None => Nanos(frame_la.as_nanos() / self.stride),
        };
        assert!(!w.is_zero(), "stride exceeds the frame lookahead");
        assert!(
            w.as_nanos() * self.stride <= frame_la.as_nanos(),
            "window {w} × stride {} exceeds the frame lookahead {frame_la}",
            self.stride
        );
        w
    }
}

/// The report of one cluster run: the Fig 16 [`ChainReport`] plus the
/// sharding counters.
#[derive(Clone, Debug)]
pub struct ClusterShardedReport {
    /// The Fig 16 quantities (rps, latency, copies, utilization).
    pub chain: ChainReport,
    /// Simulation events processed across all shards.
    pub events: u64,
    /// Inter-node frames delivered through the mailboxes.
    pub messages: u64,
    /// Mailbox ring overflows (spills, not drops).
    pub spilled: u64,
    /// Window barriers executed (with striding, one barrier covers
    /// `stride` windows).
    pub windows: u64,
    /// Per-shard work units (events processed + frames merged);
    /// deterministic. See `palladium_simnet::shard` on the critical-path
    /// model.
    pub work: Vec<u64>,
    /// `Σ_k max_s work[s][k]`: the work on the critical path with one
    /// core per shard. `Σ work ÷ critical_path_work` is the modeled
    /// parallel speed-up, a pair of integers equal on every machine.
    pub critical_path_work: u64,
    /// Each shard's share, by work, of the run's host wall nanoseconds.
    pub busy_ns: Vec<u64>,
    /// The critical path's share, by work, of the run's host wall
    /// nanoseconds.
    pub critical_path_ns: u64,
    /// Per-channel mailbox statistics (spills, high-water marks,
    /// auto-sized capacities).
    pub channels: Vec<ChannelStats>,
    /// Median end-to-end latency from the streaming histogram.
    pub p50: Nanos,
    /// 99th-percentile latency (within the histogram's 3.125% bound).
    pub p99: Nanos,
    /// 99.9th-percentile latency.
    pub p999: Nanos,
    /// Chaos accounting — all-zero on fault-free runs.
    pub chaos: ChaosReport,
    /// Overload accounting — all-zero on closed-loop runs.
    pub overload: OverloadReport,
}

/// Open-loop overload accounting for one run. Goodput is the honest
/// metric: completions within their propagated deadline. Folded entirely
/// from ingress-ordered state — byte-identical at every shard count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OverloadReport {
    /// Arrivals generated inside the measurement window.
    pub offered: u64,
    /// Requests admitted to the data plane inside the window.
    pub admitted: u64,
    /// Completions within their deadline (the goodput numerator).
    pub goodput: u64,
    /// Completions past their deadline — served, but worthless.
    pub late: u64,
    /// Within-deadline completions finishing in the last quarter of the
    /// window — distinguishes a system that *recovered* from one whose
    /// backlog outlived the run (the metastable signature).
    pub recovery_goodput: u64,
    /// Retry attempts scheduled by the backoff machinery.
    pub retries: u64,
    /// Requests that exhausted their retry budget (or whose deadline
    /// passed before the next attempt) — honest client-visible failures.
    pub retry_exhausted: u64,
    /// Circuit-breaker open (and re-arm) transitions.
    pub breaker_opens: u64,
    /// Circuit-breaker half-open probes that closed the breaker.
    pub breaker_closes: u64,
    /// Autoscaler pair activations that completed (after paying).
    pub scale_ups: u64,
    /// Autoscaler pair deactivations.
    pub scale_downs: u64,
    /// Activations that paid the full rejoin bill.
    pub rejoin_bills: u64,
    /// Activations that claimed a pre-leased warm worker at a fraction of
    /// the bill.
    pub lease_hits: u64,
    /// p99 end-to-end latency of completions inside the surge window (the
    /// flash-crowd ramp), `ZERO` when no surge window applies.
    pub ramp_p99: Nanos,
}

/// Fault, detection and failover accounting for one run. Folded
/// deterministically (net counters in shard order, health counters from
/// the ingress), so these are byte-identical at every shard count too.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Frames dropped by stochastic fault plans.
    pub fault_drops: u64,
    /// Frames dropped by crash/partition windows (deterministic).
    pub crash_drops: u64,
    /// Frames corrupted in flight (later dropped by the integrity check).
    pub corrupt: u64,
    /// Retransmission-timeout firings across all QPs.
    pub rto: u64,
    /// Receiver-not-ready NAKs: a send found the destination's shared RQ
    /// empty and its QP sat out an `rnr_retry_delay`. RQ replenishment
    /// keeps up with the engine, so this is zero on every fault-free run.
    pub rnr_naks: u64,
    /// Workers the ingress suspected dead (missed-heartbeat transitions).
    pub suspected: u64,
    /// Suspected workers that later recovered (heartbeats resumed).
    pub recovered: u64,
    /// In-flight requests abandoned when their pair was suspected.
    pub inflight_lost: u64,
    /// Requests issued to a non-preferred pair because the preferred one
    /// was believed dead.
    pub reroutes: u64,
    /// Requests/sends shed because a post failed (errored QP) — zero
    /// unless a QP exhausts its transport retry budget.
    pub shed_qp: u64,
    /// Requests shed because the ingress buffer pool was exhausted (every
    /// drop path is attributed — this one used to vanish silently).
    pub shed_pool: u64,
    /// Requests shed by admission control: queue full, or queued past the
    /// oldest-first queue-delay threshold.
    pub shed_admission: u64,
    /// Requests shed because their propagated deadline could not be met
    /// under the current backlog estimate.
    pub shed_deadline: u64,
    /// Requests shed at the source by an open per-pair circuit breaker.
    pub shed_breaker: u64,
    /// Recovered workers that completed the costed rejoin and re-entered
    /// the routing set.
    pub rejoins: u64,
    /// Rejoins voided because the worker went silent again mid-rejoin.
    pub rejoins_aborted: u64,
    /// Median time-to-recovery: suspicion → paid re-admission.
    pub ttr_p50: Nanos,
    /// 99th-percentile time-to-recovery.
    pub ttr_p99: Nanos,
    /// Pairs demoted to probation by the differential EWMA detector.
    pub gray_demoted: u64,
    /// Probationary pairs restored once their EWMA recovered.
    pub gray_restored: u64,
    /// Requests deflected away from a probationary (but heartbeat-alive)
    /// preferred pair.
    pub gray_reroutes: u64,
}

#[derive(Debug)]
pub(crate) enum Ev {
    /// A client issues a request (ingress shard only).
    Issue { client: usize },
    /// Ingress finished the inbound leg.
    GwIn { req: u64, worker: usize },
    /// Ingress finished the outbound leg.
    GwOut { req: u64, worker: usize },
    /// RDMA fabric sub-simulator event (this shard's instance).
    Rdma(RdmaEvent),
    /// A Palladium engine core freed up on node `n` after an op that left
    /// nothing to apply (a completion the engine no longer tracks). Every
    /// other op's wake-up rides on its own completion event: `wake` below
    /// means "the engine core frees up at this instant too — run its next
    /// step once the effect is applied".
    EngineSlot { n: usize },
    /// Engine TX processing done: post the WR.
    PostSend {
        n: usize,
        dst: NodeId,
        tenant: TenantId,
        wake: bool,
        wr: WorkRequest,
    },
    /// RNIC DMA application of received bytes.
    ApplyDma {
        n: usize,
        wake: bool,
        token: BufToken,
        data: Bytes,
    },
    /// Descriptor delivery to a function (after channel transit).
    Deliver { n: usize, desc: BufDesc },
    /// A transmitted buffer completed.
    ReleaseTx {
        n: usize,
        wake: bool,
        token: BufToken,
    },
    /// Core-thread RQ replenishment.
    Replenish { n: usize, cnt: u64 },
    /// A function's hand-off reached the engine.
    EngineRx { n: usize, desc: BufDesc },
    /// Function finished executing on input `desc`.
    FnDone { n: usize, desc: BufDesc },
    /// Worker node `n` emits its next liveness probe (chaos runs only).
    HeartbeatTick { n: usize, seq: u64 },
    /// The ingress sweeps for silent workers (chaos runs only).
    HealthCheck,
    /// Worker `n` finished paying its rejoin cost (chaos runs only).
    /// `epoch` voids completions staled by a crash mid-rejoin.
    RejoinDone { n: usize, epoch: u64 },
    /// The next open-loop arrival lands at the ingress (overload runs
    /// only; self-perpetuating).
    Arrive,
    /// A failed request's backoff expired; re-enter admission.
    Retry { req: u64 },
    /// The autoscaler evaluates its policy (overload + autoscale only;
    /// self-perpetuating at the eval interval).
    ScaleTick,
    /// A scale-out finished paying its bill: pair `pair` activates.
    ScaleOutDone { pair: usize },
    /// A TCP / one-sided-write / host-engine leg of a baseline data plane
    /// (see [`baselines`]).
    Host(HostEv),
}

/// One record per request ever issued, so it stays small: a closed-loop
/// run's memory is this table (the open-loop admission fields live in
/// [`IngressOverload::admission`]).
struct ReqState {
    client: usize,
    issued: Nanos,
    /// Attempts started (1 on arrival; retries increment).
    attempts: u32,
    /// Worker pair serving this request (usually `req % pairs`; a
    /// surviving pair under failover). 16 bits, like the payload word's
    /// pair field.
    pair: u16,
    done: bool,
    /// Currently admitted and unfinished (distinguishes in-plane requests
    /// from queued/backing-off ones during suspicion sweeps).
    inflight: bool,
}

// `reqs` grows by one record per request ever issued.
const _: () = assert!(std::mem::size_of::<ReqState>() <= 32);

/// A request's open-loop admission state, indexed by request id like
/// [`IngressState::reqs`] (every overload-mode request is pushed to both
/// by [`Ev::Arrive`]).
struct Admission {
    /// Propagated end-to-end deadline.
    deadline: Nanos,
    /// When this request last entered the admission queue.
    queued_at: Nanos,
    /// When this request was last admitted to the data plane.
    admitted_at: Nanos,
    /// Routing hint from the function-population table (`fn_id % pairs`).
    hint: u16,
}

/// State owned by the shard carrying the ingress node.
struct IngressState {
    gw: IngressGateway,
    rbr: crate::rbr::RbrTable,
    conns: ConnPool,
    /// TX buffers awaiting send completions (slab-keyed WR ids).
    tx: Slab<BufToken>,
    reqs: Vec<ReqState>,
    stats: RunStats,
    /// Heartbeat bookkeeping over all worker nodes (chaos runs only).
    health: Option<HealthMonitor>,
    /// Workers suspected dead so far.
    suspected: u64,
    /// Suspected workers that recovered.
    recovered: u64,
    /// In-flight requests abandoned on suspicion.
    inflight_lost: u64,
    /// Requests steered away from a suspected preferred pair.
    reroutes: u64,
    /// Rejoin and gray-failure bookkeeping (present iff chaos is on,
    /// like `health`).
    chaosx: Option<IngressChaos>,
    /// Open-loop overload machinery (present iff `cfg.overload` is set).
    overload: Option<IngressOverload>,
}

/// Admission control, retry budgets, breaker state and the autoscaler,
/// owned by the ingress. Everything updates in ingress event order.
struct IngressOverload {
    ov: OverloadConfig,
    gen: OpenLoop,
    /// The next arrival, pre-drawn so its time can be scheduled.
    next: Arrival,
    /// Function id → preferred-pair hint over the whole Zipf population
    /// (the PR 3 two-level page table, exercised per arrival).
    route: PageTable<u16>,
    /// Per-request admission state (see [`Admission`]).
    admission: Vec<Admission>,
    /// Bounded admission queue of request ids (FIFO).
    queue: VecDeque<u64>,
    /// Admitted-but-unfinished requests.
    inflight: u64,
    /// EWMA of admission→completion latency (ns), seeding deadline
    /// feasibility; initialized from `ov.est_latency`.
    est: f64,
    /// Per-pair breaker: `ZERO` = closed, else shed until that instant
    /// (first admission at/after it is the half-open probe).
    breaker_until: Vec<Nanos>,
    /// Per-pair consecutive-failure counter.
    breaker_fails: Vec<u32>,
    /// Deadline-infeasible requests seen (every [`DL_PROBE_EVERY`]-th is
    /// admitted as a probe so the feasibility EWMA can re-learn).
    dl_probe: u64,
    /// The scaling policy engine (present iff `ov.autoscale`).
    scaler: Option<Autoscaler>,
    /// Pairs currently receiving traffic (prefix `0..active_pairs`).
    active_pairs: usize,
    /// Activations in flight (0 or 1; evaluation pauses while paying).
    activating: usize,
    /// Pre-leased warm workers remaining.
    leases_left: u32,
    /// Full rejoin bill one activation pays (before lease discount).
    scaleout_bill: Nanos,
    seed: u64,
    warmup: Nanos,
    /// Completions at/after this instant count as recovery goodput
    /// (last quarter of the measurement window).
    recovery_lo: Nanos,
    /// Surge window for ramp-tail measurement.
    ramp_lo: Nanos,
    ramp_hi: Nanos,
    /// End-to-end latency of completions inside the surge window.
    ramp: Histogram,
    // Counters (see [`OverloadReport`] / [`ChaosReport`]).
    offered: u64,
    admitted: u64,
    goodput: u64,
    late: u64,
    recovery_goodput: u64,
    retries: u64,
    retry_exhausted: u64,
    shed_admission: u64,
    shed_deadline: u64,
    shed_breaker: u64,
    breaker_opens: u64,
    breaker_closes: u64,
    scale_ups: u64,
    scale_downs: u64,
    lease_hits: u64,
    rejoin_bills: u64,
}

impl IngressOverload {
    fn new(
        ov: OverloadConfig,
        pairs: usize,
        seed: u64,
        warmup: Nanos,
        horizon: Nanos,
        scaleout_bill: Nanos,
    ) -> Self {
        let mut gen = OpenLoop::new(&ov.traffic, seed);
        let next = gen.next_arrival();
        let mut route = PageTable::new();
        for id in 0..ov.traffic.population {
            route.insert(id as usize, (id % pairs as u64) as u16);
        }
        let (ramp_lo, ramp_hi) = ov.traffic.process.surge_window().unwrap_or((warmup, horizon));
        let recovery_lo = Nanos(
            warmup.as_nanos() + (horizon.as_nanos() - warmup.as_nanos()) * 3 / 4,
        );
        let active_pairs = ov
            .autoscale
            .map(|p| p.initial_pairs.clamp(1, pairs))
            .unwrap_or(pairs);
        let scaler = ov.autoscale.map(|p| {
            Autoscaler::new(AutoscalerConfig {
                min_workers: active_pairs,
                max_workers: pairs,
                ..p.scaler
            })
        });
        let leases_left = ov.autoscale.map(|p| p.warm_leases).unwrap_or(0);
        let est = ov.est_latency.as_nanos() as f64;
        IngressOverload {
            gen,
            next,
            route,
            admission: Vec::new(),
            queue: VecDeque::with_capacity(ov.queue_cap.min(4096)),
            inflight: 0,
            est,
            breaker_until: vec![Nanos::ZERO; pairs],
            breaker_fails: vec![0; pairs],
            dl_probe: 0,
            scaler,
            active_pairs,
            activating: 0,
            leases_left,
            scaleout_bill,
            seed,
            warmup,
            recovery_lo,
            ramp_lo,
            ramp_hi,
            ramp: Histogram::new(),
            offered: 0,
            admitted: 0,
            goodput: 0,
            late: 0,
            recovery_goodput: 0,
            retries: 0,
            retry_exhausted: 0,
            shed_admission: 0,
            shed_deadline: 0,
            shed_breaker: 0,
            breaker_opens: 0,
            breaker_closes: 0,
            scale_ups: 0,
            scale_downs: 0,
            lease_hits: 0,
            rejoin_bills: 0,
            ov,
        }
    }

    /// Record a pair-attributed transport/loss failure; open (or re-arm)
    /// the breaker after `open_after` consecutive ones.
    fn breaker_fail(&mut self, now: Nanos, pair: usize) {
        let pol = self.ov.breaker;
        if pol.open_after == u32::MAX {
            return;
        }
        if self.breaker_until[pair] != Nanos::ZERO {
            // Open or probing: a failure re-arms the cooldown.
            self.breaker_until[pair] = now + pol.cooldown;
            self.breaker_opens += 1;
            return;
        }
        self.breaker_fails[pair] += 1;
        if self.breaker_fails[pair] >= pol.open_after {
            self.breaker_until[pair] = now + pol.cooldown;
            self.breaker_opens += 1;
            self.breaker_fails[pair] = 0;
        }
    }

    /// Record a successful completion on `pair`: reset the failure streak
    /// and close the breaker if this was the half-open probe.
    fn breaker_ok(&mut self, now: Nanos, pair: usize) {
        self.breaker_fails[pair] = 0;
        if self.breaker_until[pair] != Nanos::ZERO && now >= self.breaker_until[pair] {
            self.breaker_until[pair] = Nanos::ZERO;
            self.breaker_closes += 1;
        }
    }
}

/// Per-worker rejoin tracking and per-pair gray-failure scores, owned by
/// the ingress (see the module docs on costed rejoin and differential
/// detection). All state updates in ingress event order — deterministic
/// at every shard count.
struct IngressChaos {
    /// When each worker was last suspected (TTR measurement anchor).
    suspected_at: Vec<Nanos>,
    /// Per-worker rejoin epoch: bumped on every recovery *and* on every
    /// crash mid-rejoin, so a stale [`Ev::RejoinDone`] never re-admits a
    /// worker that went silent after it was scheduled.
    rejoin_epoch: Vec<u64>,
    /// Time-to-recovery: suspicion → paid re-admission.
    ttr: Histogram,
    /// Completed rejoins.
    rejoins: u64,
    /// Rejoins voided by a crash mid-rejoin.
    rejoins_aborted: u64,
    /// Per-pair EWMA of end-to-end latency (nanoseconds).
    ewma: Vec<f64>,
    /// Samples observed per pair (gates the differential comparison).
    ewma_n: Vec<u64>,
    /// Pairs currently demoted to probation routing weight.
    probation: Vec<bool>,
    /// Per-pair probe admission counter while on probation.
    probe_tick: Vec<u64>,
    /// Demotions, restorations, and probation deflections.
    gray_demoted: u64,
    gray_restored: u64,
    gray_reroutes: u64,
}

impl IngressChaos {
    fn new(workers: usize, pairs: usize) -> Self {
        IngressChaos {
            suspected_at: vec![Nanos::ZERO; workers],
            rejoin_epoch: vec![0; workers],
            ttr: Histogram::new(),
            rejoins: 0,
            rejoins_aborted: 0,
            ewma: vec![0.0; pairs],
            ewma_n: vec![0; pairs],
            probation: vec![false; pairs],
            probe_tick: vec![0; pairs],
            gray_demoted: 0,
            gray_restored: 0,
            gray_reroutes: 0,
        }
    }

    /// Fold one latency observation into `pair`'s EWMA score.
    fn observe(&mut self, alpha: f64, pair: usize, sample: Nanos) {
        let s = sample.as_nanos() as f64;
        if self.ewma_n[pair] == 0 {
            self.ewma[pair] = s;
        } else {
            self.ewma[pair] += alpha * (s - self.ewma[pair]);
        }
        self.ewma_n[pair] += 1;
    }
}

/// One shard of the cluster: a contiguous global-node block with its own
/// fabric instance (see the module docs).
pub(crate) struct ClusterShard {
    /// First global node this shard owns.
    lo: usize,
    /// Dense global node → shard route table.
    shard_of: Vec<u32>,
    ingress_node: usize,
    pairs: usize,
    /// Per-pair chains (`chains[p]` for requests `r ≡ p mod pairs`).
    chains: Vec<ChainSpec>,
    /// Remapped function id → global node, dense.
    placement: IdTable<usize>,
    fn_exec: IdTable<Nanos>,
    cost: CostModel,
    /// The data plane under test: which inter-node path, ingress design
    /// and engine location every arm below follows.
    spec: SystemSpec,
    comch: ChannelCosts,
    skmsg: SkMsgCosts,

    // Per owned node, indexed `node - lo`.
    pools: Vec<UnifiedPool>,
    meters: Vec<CopyMeter>,
    fn_cores: Vec<Option<ServerBank>>,
    /// Palladium engines: `Some` on worker nodes of a two-sided-RDMA
    /// system, `None` otherwise (the baselines run [`HostPlane`]).
    dnes: Vec<Option<Dne>>,
    inbound_tokens: Vec<IdTable<BufToken>>,
    /// The baselines' host engines, TCP cost tables and FUYAO pools —
    /// present exactly when the system is not two-sided RDMA.
    host: Option<HostPlane>,

    /// This shard's span of the fabric, in sharded-egress mode.
    net: RdmaNet,
    /// Present exactly on the shard owning the ingress node.
    ingress: Option<IngressState>,
    /// Compiled chaos tables, identical on every shard (`None` on
    /// fault-free runs — every chaos branch below is then never taken).
    chaos: Option<CompiledScenario>,
    /// Probe period for [`Ev::HeartbeatTick`] / [`Ev::HealthCheck`].
    heartbeat_period: Nanos,
    /// Rejoin cost model (applied by the ingress shard).
    rejoin: RejoinCosts,
    /// Gray-failure detection policy (applied by the ingress shard).
    gray: GrayPolicy,
    /// QPs a worker re-establishes on rejoin (its pool width: partner +
    /// ingress connections).
    worker_qps: usize,
    /// Pool bytes a worker re-syncs on rejoin.
    pool_bytes: u64,
    /// Requests/sends shed on post failure (errored QP), this shard.
    shed_qp: u64,
    /// Requests shed on pool exhaustion (ingress or worker), this shard.
    shed_pool: u64,
    /// Scratch for the health sweep (newly suspected workers).
    health_scratch: Vec<Suspicion>,
    /// Scratch for in-flight requests lost to a suspicion sweep
    /// (overload mode feeds them to the retry machinery after the sweep).
    lost_scratch: Vec<u64>,

    // Reused scratch so steady-state stepping does not allocate.
    rdma_step: Step,
    post_step: Step,
    cqe_scratch: Vec<Cqe>,
    dne_fx: crate::dne::DneStep,
    payloads: PayloadCache,
}

impl ClusterShard {
    /// Local index of global node `n`.
    #[inline]
    fn li(&self, n: usize) -> usize {
        n - self.lo
    }

    fn node_of(&self, f: FnId) -> usize {
        if f == INGRESS_FN {
            self.ingress_node
        } else {
            *self.placement.get(f.raw() as usize).expect("placed function")
        }
    }

    fn fn_exec(&self, f: FnId) -> Nanos {
        *self.fn_exec.get(f.raw() as usize).expect("deployed function")
    }

    /// The chain worker pair `pair` runs.
    #[inline]
    fn chain(&self, pair: usize) -> &ChainSpec {
        &self.chains[pair]
    }

    /// Pick the worker pair serving request `req`: the preferred
    /// `req % pairs` when healthy, else the first believed-alive,
    /// non-probationary pair scanning upward from it (failover
    /// re-route). Suspected *and* rejoining workers are out of the set —
    /// re-admission is paid for, not assumed. A probationary preferred
    /// pair still receives every `probe_every`-th request so its EWMA
    /// can observe recovery. Falls back to the preferred pair when
    /// nothing qualifies — the request then rides the transport's retry
    /// machinery. Fault-free runs have no health monitor and always take
    /// the preferred pair.
    fn choose_pair(&mut self, req: u64) -> usize {
        let preferred = (req % self.pairs as u64) as usize;
        let pairs = self.pairs;
        let Some(ing) = self.ingress.as_mut() else {
            return preferred;
        };
        let IngressState { health, chaosx, reroutes, .. } = ing;
        let Some(health) = health.as_ref() else {
            return preferred;
        };
        for off in 0..pairs {
            let p = (preferred + off) % pairs;
            if !health.is_alive(2 * p) || !health.is_alive(2 * p + 1) {
                continue;
            }
            if let Some(cx) = chaosx.as_mut() {
                if cx.probation[p] {
                    if p != preferred {
                        continue; // never deflect *onto* a gray pair
                    }
                    cx.probe_tick[p] += 1;
                    if cx.probe_tick[p] % self.gray.probe_every != 0 {
                        continue; // deflected; only probes get through
                    }
                }
            }
            if p != preferred {
                // Attribute the deflection: if the preferred pair's
                // heartbeats are fine, probation (gray detection) caused
                // it; otherwise it is ordinary crash failover.
                let preferred_alive =
                    health.is_alive(2 * preferred) && health.is_alive(2 * preferred + 1);
                match (preferred_alive, chaosx.as_mut()) {
                    (true, Some(cx)) => cx.gray_reroutes += 1,
                    _ => *reroutes += 1,
                }
            }
            return p;
        }
        preferred
    }

    /// Differential gray-failure sweep (run from each health check):
    /// compare every heartbeat-alive pair's EWMA against the best such
    /// pair. Scores more than `enter ×` the baseline demote to
    /// probation; probationary scores back under `exit ×` restore. The
    /// best pair can never demote (its EWMA *is* the baseline), so the
    /// comparison needs no absolute latency threshold.
    fn gray_sweep(&mut self) {
        let gray = self.gray;
        let pairs = self.pairs;
        let Some(ing) = self.ingress.as_mut() else {
            return;
        };
        let IngressState { health, chaosx, .. } = ing;
        let (Some(h), Some(cx)) = (health.as_ref(), chaosx.as_mut()) else {
            return;
        };
        let eligible = |p: usize, cx: &IngressChaos| {
            h.is_alive(2 * p) && h.is_alive(2 * p + 1) && cx.ewma_n[p] >= gray.min_samples
        };
        let mut best: Option<f64> = None;
        for p in 0..pairs {
            if eligible(p, cx) {
                best = Some(best.map_or(cx.ewma[p], |b: f64| b.min(cx.ewma[p])));
            }
        }
        let Some(best) = best else {
            return; // no baseline yet (warm-up, or everything is down)
        };
        for p in 0..pairs {
            if !eligible(p, cx) {
                continue;
            }
            if !cx.probation[p] && cx.ewma[p] > gray.enter * best {
                cx.probation[p] = true;
                cx.gray_demoted += 1;
            } else if cx.probation[p] && cx.ewma[p] <= gray.exit * best {
                cx.probation[p] = false;
                cx.gray_restored += 1;
            }
        }
    }

    /// Pick the pair serving `req` in overload mode, scanning the *active*
    /// prefix upward from the routing hint. A pair qualifies when its
    /// workers are believed alive, it is not deflected by gray probation
    /// (same probe admission as [`ClusterShard::choose_pair`]), and its
    /// circuit breaker is closed — or due a half-open probe, in which case
    /// this admission *is* the probe. `None` means every active pair is
    /// shedding at the source (`shed_breaker`), the honest answer under a
    /// cluster-wide brownout: the request rides the retry budget instead
    /// of piling onto a broken pair.
    fn overload_choose(&mut self, now: Nanos, req: u64) -> Option<usize> {
        let probe_every = self.gray.probe_every;
        let ing = self.ingress.as_mut().expect("ingress shard");
        let IngressState { health, chaosx, reroutes, overload, .. } = ing;
        let ov = overload.as_mut().expect("overload mode");
        let active = ov.active_pairs.max(1);
        let pref = ov.admission[req as usize].hint as usize % active;
        for off in 0..active {
            let p = (pref + off) % active;
            if let Some(h) = health.as_ref() {
                if !h.is_alive(2 * p) || !h.is_alive(2 * p + 1) {
                    continue;
                }
            }
            if let Some(cx) = chaosx.as_mut() {
                if cx.probation[p] {
                    if p != pref {
                        continue; // never deflect *onto* a gray pair
                    }
                    cx.probe_tick[p] += 1;
                    if cx.probe_tick[p] % probe_every != 0 {
                        continue;
                    }
                }
            }
            let until = ov.breaker_until[p];
            if until != Nanos::ZERO && now < until {
                continue; // breaker open: shed at the source
            }
            if p != pref {
                // Attribute the deflection: probation → gray, everything
                // else (dead pair, open breaker) → ordinary reroute.
                let pref_gray =
                    chaosx.as_ref().map(|cx| cx.probation[pref]).unwrap_or(false);
                let pref_alive = health
                    .as_ref()
                    .map(|h| h.is_alive(2 * pref) && h.is_alive(2 * pref + 1))
                    .unwrap_or(true);
                if pref_alive && pref_gray {
                    if let Some(cx) = chaosx.as_mut() {
                        cx.gray_reroutes += 1;
                    }
                } else {
                    *reroutes += 1;
                }
            }
            return Some(p);
        }
        None
    }

    /// Full admission pipeline for an arriving or retrying request:
    /// breaker/health pair selection (sheds at the source), deadline
    /// feasibility under the backlog estimate, then the bounded queue with
    /// oldest-first shedding past the queue-delay threshold.
    fn try_admit(&mut self, now: Nanos, fx: &mut Effects<'_, Ev>, req: u64) {
        let Some(pair) = self.overload_choose(now, req) else {
            let ov = self.ingress.as_mut().expect("ingress shard").overload.as_mut().unwrap();
            ov.shed_breaker += 1;
            self.fail_or_retry(now, fx, req);
            return;
        };
        let admit_now = {
            let ing = self.ingress.as_mut().expect("ingress shard");
            let ov = ing.overload.as_mut().expect("overload mode");
            let deadline = ov.admission[req as usize].deadline;
            if ov.ov.shed_on_deadline {
                // ETA = queue drain (Little's-law estimate against the
                // in-flight window) + one service time.
                let wait = ov.est * (ov.queue.len() as f64 + 1.0) / ov.ov.inflight_cap as f64;
                let eta = now.as_nanos() as f64 + wait + ov.est;
                if eta > deadline.as_nanos() as f64 {
                    ov.dl_probe += 1;
                    if !ov.dl_probe.is_multiple_of(DL_PROBE_EVERY) {
                        ov.shed_deadline += 1;
                        self.fail_or_retry(now, fx, req);
                        return;
                    }
                    // Probe admission (see [`DL_PROBE_EVERY`]).
                }
            }
            ov.inflight < ov.ov.inflight_cap
        };
        if admit_now {
            self.admit(now, fx, req, pair);
            return;
        }
        // In-flight window full: queue, shedding the oldest entries that
        // have already overstayed the queue-delay threshold.
        loop {
            let stale = {
                let ing = self.ingress.as_mut().expect("ingress shard");
                let ov = ing.overload.as_mut().expect("overload mode");
                match ov.queue.front() {
                    Some(&head)
                        if now - ov.admission[head as usize].queued_at > ov.ov.queue_delay_max =>
                    {
                        ov.queue.pop_front();
                        ov.shed_admission += 1;
                        Some(head)
                    }
                    _ => None,
                }
            };
            match stale {
                Some(head) => self.fail_or_retry(now, fx, head),
                None => break,
            }
        }
        let queued = {
            let ing = self.ingress.as_mut().expect("ingress shard");
            let ov = ing.overload.as_mut().expect("overload mode");
            if ov.queue.len() >= ov.ov.queue_cap {
                ov.shed_admission += 1;
                false
            } else {
                ov.admission[req as usize].queued_at = now;
                ov.queue.push_back(req);
                true
            }
        };
        if !queued {
            self.fail_or_retry(now, fx, req);
        }
    }

    /// Admit `req` to the data plane on `pair`: the overload-mode analogue
    /// of the closed-loop [`Ev::Issue`] submission.
    fn admit(&mut self, now: Nanos, fx: &mut Effects<'_, Ev>, req: u64, pair: usize) {
        let client_wire = self.cost.client_wire;
        let (req_bytes, resp_bytes) = {
            let chain = self.chain(pair);
            (chain.req_bytes as u64, chain.resp_bytes as u64)
        };
        let ing = self.ingress.as_mut().expect("ingress shard");
        let ov = ing.overload.as_mut().expect("overload mode");
        ov.inflight += 1;
        if now >= ov.warmup {
            ov.admitted += 1;
        }
        ov.admission[req as usize].admitted_at = now;
        let st = &mut ing.reqs[req as usize];
        st.pair = pair as u16;
        st.inflight = true;
        let client = st.client;
        let arrive = now + client_wire;
        let (w, done) = ing.gw.submit(arrive, client, Leg::Inbound, req_bytes, resp_bytes);
        fx.at(done, Ev::GwIn { req, worker: w });
    }

    /// Refill the in-flight window from the admission queue, re-checking
    /// staleness, deadline feasibility and pair availability at dequeue.
    fn drain_queue(&mut self, now: Nanos, fx: &mut Effects<'_, Ev>) {
        loop {
            let req = {
                let ov = self
                    .ingress
                    .as_mut()
                    .expect("ingress shard")
                    .overload
                    .as_mut()
                    .expect("overload mode");
                if ov.inflight >= ov.ov.inflight_cap {
                    break;
                }
                match ov.queue.pop_front() {
                    Some(r) => r,
                    None => break,
                }
            };
            let verdict = {
                let ing = self.ingress.as_mut().expect("ingress shard");
                let ov = ing.overload.as_mut().expect("overload mode");
                let adm = &ov.admission[req as usize];
                let (queued_at, deadline) = (adm.queued_at, adm.deadline);
                if now - queued_at > ov.ov.queue_delay_max {
                    ov.shed_admission += 1;
                    Err(())
                } else if ov.ov.shed_on_deadline
                    && now.as_nanos() as f64 + ov.est > deadline.as_nanos() as f64
                {
                    ov.dl_probe += 1;
                    if ov.dl_probe.is_multiple_of(DL_PROBE_EVERY) {
                        Ok(()) // probe admission (see [`DL_PROBE_EVERY`])
                    } else {
                        ov.shed_deadline += 1;
                        Err(())
                    }
                } else {
                    Ok(())
                }
            };
            if verdict.is_err() {
                self.fail_or_retry(now, fx, req);
                continue;
            }
            match self.overload_choose(now, req) {
                Some(pair) => self.admit(now, fx, req, pair),
                None => {
                    let ov = self
                        .ingress
                        .as_mut()
                        .expect("ingress shard")
                        .overload
                        .as_mut()
                        .unwrap();
                    ov.shed_breaker += 1;
                    self.fail_or_retry(now, fx, req);
                }
            }
        }
    }

    /// A request's attempt failed (shed, lost, or transport-errored):
    /// consume retry budget and schedule the next attempt with exponential
    /// backoff + stateless jitter, or give up honestly.
    fn fail_or_retry(&mut self, now: Nanos, fx: &mut Effects<'_, Ev>, req: u64) {
        let ing = self.ingress.as_mut().expect("ingress shard");
        let IngressState { overload, reqs, .. } = ing;
        let ov = overload.as_mut().expect("overload mode");
        let st = &mut reqs[req as usize];
        if st.done {
            return;
        }
        let rp = ov.ov.retry;
        let attempts = st.attempts;
        if attempts > rp.budget {
            st.done = true;
            ov.retry_exhausted += 1;
            return;
        }
        let exp = attempts.saturating_sub(1).min(16);
        let raw = rp.backoff_base.as_nanos().saturating_mul(1u64 << exp);
        let backoff = Nanos(raw.min(rp.backoff_cap.as_nanos()).max(1));
        let mut rng = SimRng::stream(
            ov.seed ^ RETRY_STREAM,
            req.wrapping_mul(64).wrapping_add(attempts as u64),
        );
        let wait = rng.jitter(backoff, rp.jitter_frac).max(Nanos(1));
        let at = now + wait;
        if ov.ov.shed_on_deadline && at > ov.admission[req as usize].deadline {
            // The next attempt cannot land inside the deadline: an honest
            // failure, not a zombie retry.
            st.done = true;
            ov.retry_exhausted += 1;
            return;
        }
        st.attempts = attempts + 1;
        ov.retries += 1;
        fx.at(at, Ev::Retry { req });
    }

    /// An admitted request failed in the data plane (pool exhausted or QP
    /// errored at post time). In overload mode: release its in-flight
    /// slot, charge the pair's breaker, and hand it to the retry budget.
    /// No-op on closed-loop runs (the health plane re-issues clients).
    fn overload_send_failed(&mut self, now: Nanos, fx: &mut Effects<'_, Ev>, req: u64) {
        {
            let Some(ing) = self.ingress.as_mut() else {
                return;
            };
            if ing.overload.is_none() {
                return;
            }
            let st = &mut ing.reqs[req as usize];
            if !st.inflight {
                return;
            }
            st.inflight = false;
            let pair = st.pair as usize;
            let ov = ing.overload.as_mut().unwrap();
            ov.inflight = ov.inflight.saturating_sub(1);
            ov.breaker_fail(now, pair);
        }
        self.fail_or_retry(now, fx, req);
        self.drain_queue(now, fx);
    }

    /// Charge work on a function core of worker node `n`.
    fn on_fn_core(&mut self, n: usize, now: Nanos, service: Nanos) -> Nanos {
        let li = self.li(n);
        let bank = self.fn_cores[li].as_mut().expect("worker node");
        let (idx, done) = bank.submit(now, service);
        bank.complete(idx);
        done
    }

    /// Pass the buffer behind `token` from `from` to function `to` on the
    /// same node (local index `li`) by token passing — no copy. Returns the
    /// descriptor to deliver.
    fn hand_to_fn(&mut self, li: usize, token: BufToken, from: FnId, to: FnId) -> BufDesc {
        let desc = self.pools[li].into_transit(token, from, to).expect("owned");
        let tok = self.pools[li]
            .redeem(&desc, Owner::Function(to))
            .expect("redeem for fn");
        self.inbound_tokens[li].insert(desc.buf_idx as usize, tok);
        desc
    }

    /// Channel costs between functions and the Palladium engine:
    /// `(transit, host_send)` — Comch for the DNE, SK_MSG for the CNE.
    fn fn_channel_costs(&self) -> (Nanos, Nanos) {
        match self.spec.engine_loc {
            EngineLocation::Dpu => (self.comch.transit, self.comch.host_send_cpu),
            EngineLocation::Cpu => (self.skmsg.transit, self.skmsg.send_cpu),
        }
    }

    /// Host-side receive cost when the engine delivers to a function.
    fn fn_recv_cost(&self) -> Nanos {
        match self.spec.engine_loc {
            EngineLocation::Dpu => self.comch.host_recv_cpu,
            EngineLocation::Cpu => self.skmsg.recv_cpu,
        }
    }

    /// Replenish `cnt` receive buffers on worker node `n` (node-local,
    /// identical at every shard count).
    fn replenish(&mut self, n: usize, cnt: u64) {
        let li = self.li(n);
        for _ in 0..cnt {
            let Ok(token) = self.pools[li].alloc(Owner::Rnic) else {
                break;
            };
            let pool_id = self.pools[li].id();
            let wr_id = self.dnes[li].as_mut().expect("worker dne").rbr.register(TENANT, token);
            let _ = self.net.post_recv(
                NodeId(n as u16),
                TENANT,
                RqEntry {
                    wr_id,
                    pool: pool_id,
                    capacity: BUF_SIZE,
                },
            );
        }
    }

    /// Replenish ingress-side receive buffers.
    fn replenish_ingress(&mut self, cnt: u64) {
        let li = self.li(self.ingress_node);
        for _ in 0..cnt {
            let Ok(token) = self.pools[li].alloc(Owner::Rnic) else {
                break;
            };
            let pool_id = self.pools[li].id();
            let wr_id = self.ingress.as_mut().expect("ingress shard").rbr.register(TENANT, token);
            let _ = self.net.post_recv(
                NodeId(self.ingress_node as u16),
                TENANT,
                RqEntry {
                    wr_id,
                    pool: pool_id,
                    capacity: BUF_SIZE,
                },
            );
        }
    }

    /// Route every frame the fabric egressed this step: into the mailbox
    /// of the destination node's shard (self-sends included — that is
    /// what makes arrival schedules partition-independent), keyed by the
    /// global source node id.
    fn route_egress(&mut self, now: Nanos, out: &mut Outbox<Packet>, step: &mut Step) {
        for t in step.egress.drain(..) {
            let dst = t.value.dst.raw() as usize;
            let src = t.value.src.raw() as u32;
            out.send(self.shard_of[dst] as usize, now + t.after, src, t.value);
        }
    }

    /// Schedule the effects of a Palladium engine step. An engine op is
    /// one scheduled event: the engine pushes its wake-up
    /// ([`DneEffect::EngineSlot`]) last, at the op's completion delay, and
    /// the first effect landing at that same instant carries it (`wake`)
    /// instead of a second event being queued behind it.
    fn apply_dne_step(&mut self, fx: &mut Effects<'_, Ev>, n: usize, step: &mut crate::dne::DneStep) {
        let (to_fn_transit, _) = self.fn_channel_costs();
        let mut wake_at = match step.last() {
            Some(t) if matches!(t.value, DneEffect::EngineSlot) => Some(t.after),
            _ => None,
        };
        for t in step.drain(..) {
            let mut carry = || wake_at.take_if(|at| *at == t.after).is_some();
            match t.value {
                DneEffect::PostSend { dst_node, tenant, wr } => {
                    fx.after(
                        t.after,
                        Ev::PostSend {
                            n,
                            dst: dst_node,
                            tenant,
                            wake: carry(),
                            wr,
                        },
                    );
                }
                DneEffect::DeliverToFn { dst: _, desc } => {
                    fx.after(t.after + to_fn_transit, Ev::Deliver { n, desc });
                }
                DneEffect::ApplyDma { token, data, .. } => {
                    fx.after(t.after, Ev::ApplyDma { n, wake: carry(), token, data });
                }
                DneEffect::ReleaseTxBuffer { token } => {
                    fx.after(t.after, Ev::ReleaseTx { n, wake: carry(), token });
                }
                DneEffect::Replenish { n: cnt, .. } => {
                    fx.after(t.after, Ev::Replenish { n, cnt });
                }
                DneEffect::EngineSlot => {
                    // Nothing else landed at the wake-up instant.
                    if wake_at.take().is_some() {
                        fx.after(t.after, Ev::EngineSlot { n });
                    }
                }
                DneEffect::RouteMiss { .. } => {}
            }
        }
    }

    /// Node `n`'s engine core freed up: start its next unit of work.
    fn engine_slot(&mut self, now: Nanos, fx: &mut Effects<'_, Ev>, n: usize) {
        let li = self.li(n);
        let mut step = std::mem::take(&mut self.dne_fx);
        self.dnes[li].as_mut().expect("worker dne").on_engine_slot_into(now, &mut step);
        self.apply_dne_step(fx, n, &mut step);
        self.dne_fx = step;
    }

    fn on_rdma_output(&mut self, now: Nanos, fx: &mut Effects<'_, Ev>, out: RdmaOutput) {
        match out {
            RdmaOutput::CqReady { node } => {
                let n = node.raw() as usize;
                let li = self.li(n);
                let mut cqes = std::mem::take(&mut self.cqe_scratch);
                cqes.clear();
                self.net.drain_cq_into(node, &mut cqes);
                if n == self.ingress_node {
                    for cqe in cqes.drain(..) {
                        self.on_ingress_cqe(now, fx, cqe);
                    }
                } else if let Some(dne) = self.dnes[li].as_mut() {
                    let mut step = std::mem::take(&mut self.dne_fx);
                    dne.drain_cq_into(now, &mut cqes, &mut step);
                    self.apply_dne_step(fx, n, &mut step);
                    self.dne_fx = step;
                } else {
                    self.on_host_cqes(n, &mut cqes);
                }
                self.cqe_scratch = cqes;
            }
            RdmaOutput::WriteDelivered { node, addr, data, imm, .. } => {
                self.on_write_delivered(fx, node.raw() as usize, addr.buf_idx, imm, data);
            }
            RdmaOutput::RnrSeen { node, .. } => {
                let n = node.raw() as usize;
                if n == self.ingress_node {
                    self.replenish_ingress(32);
                } else if self.spec.inter_node == InterNode::TwoSidedRdma {
                    self.replenish(n, 32);
                }
            }
            RdmaOutput::HeartbeatSeen { node, from, .. }
                if node.raw() as usize == self.ingress_node =>
            {
                let cost = self.rejoin.cost(self.worker_qps, self.pool_bytes);
                if let Some(ing) = self.ingress.as_mut() {
                    if let Some(h) = ing.health.as_mut() {
                        if h.heartbeat(from.raw() as usize, now) {
                            // Suspect → Rejoining: heartbeats resumed,
                            // but the worker re-enters routing only after
                            // paying the control-plane rejoin cost.
                            ing.recovered += 1;
                            if let Some(cx) = ing.chaosx.as_mut() {
                                let n = from.raw() as usize;
                                cx.rejoin_epoch[n] += 1;
                                let epoch = cx.rejoin_epoch[n];
                                fx.after(cost, Ev::RejoinDone { n, epoch });
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn on_ingress_cqe(&mut self, now: Nanos, fx: &mut Effects<'_, Ev>, cqe: Cqe) {
        let li = self.li(self.ingress_node);
        match cqe.kind {
            CqeKind::Recv => {
                // A response payload arrived from a worker.
                let Some((_, token)) = self.ingress.as_mut().expect("ingress shard").rbr.consume(cqe.wr_id)
                else {
                    return;
                };
                let (req, _, pair) = unword(&cqe.data);
                self.pools[li]
                    .dma_write_bytes(&token, cqe.data, MoveKind::RnicDma, &mut self.meters[li])
                    .expect("dma into ingress buffer");
                let _ = self.pools[li].free(token);
                let consumed = self.ingress.as_mut().expect("ingress shard").rbr.take_consumed(TENANT);
                self.replenish_ingress(consumed);
                let (req_bytes, resp_bytes) = {
                    let chain = self.chain(pair);
                    (chain.req_bytes as u64, chain.resp_bytes as u64)
                };
                let ing = self.ingress.as_mut().expect("ingress shard");
                let client = ing.reqs[req as usize].client;
                let (w, done) = ing.gw.submit(now, client, Leg::Outbound, req_bytes, resp_bytes);
                fx.at(done, Ev::GwOut { req, worker: w });
            }
            CqeKind::SendDone(_) => {
                if let Some(token) = self.ingress.as_mut().expect("ingress shard").tx.remove(cqe.wr_id.0) {
                    let _ = self.pools[li].free(token);
                }
            }
            CqeKind::ReadData => {}
        }
    }

    fn on_fn_done(&mut self, now: Nanos, fx: &mut Effects<'_, Ev>, n: usize, desc: BufDesc) {
        let li = self.li(n);
        // Consume the input buffer; the payload prefix carries the chain
        // position (see the module docs).
        let token = self.inbound_tokens[li]
            .remove(desc.buf_idx as usize)
            .expect("inbound token tracked");
        let (req, hop_idx, pair) = {
            let data = self.pools[li].read(&token);
            unword(data.expect("owned"))
        };
        let _ = self.pools[li].free(token);

        let f = desc.dst_fn;
        let (to, bytes) = {
            let chain = self.chain(pair);
            if hop_idx < chain.hops.len() {
                let h = chain.hops[hop_idx];
                debug_assert_eq!(h.from, f, "chain hop source mismatch");
                (h.to, h.bytes)
            } else {
                (INGRESS_FN, chain.resp_bytes)
            }
        };

        let dst_node = self.node_of(to);
        let word = if to == INGRESS_FN {
            word_of(req, 0, pair)
        } else {
            word_of(req, hop_idx + 1, pair)
        };
        let data = self.payloads.make(word, bytes);

        if dst_node == n && to != INGRESS_FN {
            // Local hop over SK_MSG: produce into a fresh buffer, pass the
            // descriptor — zero copies.
            let Ok(out) = self.pools[li].alloc(Owner::Function(f)) else {
                self.shed_pool += 1;
                return;
            };
            self.pools[li].produce_bytes(&out, data).expect("sized buffer");
            let out_desc = self.hand_to_fn(li, out, f, to);
            let send_cpu = self.skmsg.send_cpu;
            let transit = self.skmsg.transit;
            let send_done = self.on_fn_core(n, now, send_cpu);
            fx.at(send_done + transit, Ev::Deliver { n, desc: out_desc });
            return;
        }

        // Remote hop (or response to the ingress): over two-sided RDMA
        // through the node's DNE, or down the baseline's own path.
        if self.spec.inter_node != InterNode::TwoSidedRdma {
            let hop = Hop { from: f, to, word, bytes };
            return self.remote_hop(now, fx, n, hop, data);
        }
        let Ok(out) = self.pools[li].alloc(Owner::Function(f)) else {
            self.shed_pool += 1;
            return;
        };
        self.pools[li].produce_bytes(&out, data).expect("sized buffer");
        let out_desc = self.pools[li].into_transit(out, f, to).expect("owned");
        let (transit, send_cpu) = self.fn_channel_costs();
        let send_done = self.on_fn_core(n, now, send_cpu);
        fx.at(send_done + transit, Ev::EngineRx { n, desc: out_desc });
    }
}

impl ShardEngine for ClusterShard {
    type Ev = Ev;
    type Msg = Packet;

    fn on_event(&mut self, now: Nanos, ev: Ev, fx: &mut Effects<'_, Ev>, out: &mut Outbox<Packet>) {
        match ev {
            Ev::Issue { client } => {
                let client_wire = self.cost.client_wire;
                let req = self.ingress.as_ref().expect("issue on ingress shard").reqs.len() as u64;
                let pair = self.choose_pair(req);
                let ing = self.ingress.as_mut().expect("issue on ingress shard");
                ing.reqs.push(ReqState {
                    client,
                    issued: now,
                    attempts: 1,
                    pair: pair as u16,
                    done: false,
                    inflight: false,
                });
                let (req_bytes, resp_bytes) = {
                    let chain = self.chain(pair);
                    (chain.req_bytes as u64, chain.resp_bytes as u64)
                };
                let ing = self.ingress.as_mut().expect("issue on ingress shard");
                let arrive = now + client_wire;
                let (w, done) = ing.gw.submit(arrive, client, Leg::Inbound, req_bytes, resp_bytes);
                fx.at(done, Ev::GwIn { req, worker: w });
            }
            Ev::GwIn { req, worker } => {
                let ing = self.ingress.as_mut().expect("ingress shard");
                ing.gw.leg_done(worker);
                let pair = ing.reqs[req as usize].pair as usize;
                let (entry, bytes) = {
                    let chain = self.chain(pair);
                    (chain.entry, chain.req_bytes)
                };
                let entry_node = self.node_of(entry);
                if self.spec.ingress != IngressKind::Palladium {
                    let hop = Hop { from: INGRESS_FN, to: entry, word: word_of(req, 0, pair), bytes };
                    return self.ingress_via_tcp(fx, entry_node, hop);
                }
                let li = self.li(self.ingress_node);
                // Early conversion: payload into a registered buffer, over
                // RDMA to the entry node's DNE. The word encodes hop 0.
                let data = self.payloads.make(word_of(req, 0, pair), bytes);
                let Ok(token) = self.pools[li].alloc(Owner::Ingress) else {
                    // Pool exhausted: shed the request, *attributed* — and
                    // in overload mode hand it to the retry budget.
                    self.shed_pool += 1;
                    self.overload_send_failed(now, fx, req);
                    return;
                };
                self.pools[li]
                    .write_bytes(&token, data.clone(), &mut self.meters[li])
                    .expect("sized buffer");
                let wr_id = WrId(self.ingress.as_mut().expect("ingress shard").tx.insert(token));
                let mut step = std::mem::take(&mut self.post_step);
                step.clear();
                let Some(qpn) = self
                    .ingress
                    .as_mut()
                    .expect("ingress shard")
                    .conns
                    .select(&self.net, NodeId(entry_node as u16), TENANT)
                else {
                    // Every QP to the entry node is errored (transport
                    // retry budget exhausted under chaos): shed the request
                    // instead of panicking; the health plane re-issues its
                    // client (closed loop) or the retry budget takes over
                    // (overload).
                    self.shed_qp += 1;
                    if let Some(tok) = self.ingress.as_mut().expect("ingress shard").tx.remove(wr_id.0)
                    {
                        let _ = self.pools[li].free(tok);
                    }
                    self.post_step = step;
                    self.overload_send_failed(now, fx, req);
                    return;
                };
                self.meters[li].record(MoveKind::RnicDma, data.len() as u64);
                let imm = pack_imm(INGRESS_FN, entry, TENANT);
                if self
                    .net
                    .post_send_into(
                        now,
                        NodeId(self.ingress_node as u16),
                        qpn,
                        WorkRequest::send(wr_id, data, imm),
                        &mut step,
                    )
                    .is_err()
                {
                    self.shed_qp += 1;
                    if let Some(tok) = self.ingress.as_mut().expect("ingress shard").tx.remove(wr_id.0)
                    {
                        let _ = self.pools[li].free(tok);
                    }
                    self.overload_send_failed(now, fx, req);
                }
                fx.extend_drain(&mut step.events, Ev::Rdma);
                self.route_egress(now, out, &mut step);
                self.post_step = step;
            }
            Ev::Rdma(rdma_ev) => {
                let mut step = std::mem::take(&mut self.rdma_step);
                step.clear();
                self.net.handle_into(now, rdma_ev, &mut step);
                fx.extend_drain(&mut step.events, Ev::Rdma);
                self.route_egress(now, out, &mut step);
                for o in step.outputs.drain(..) {
                    self.on_rdma_output(now, fx, o);
                }
                self.rdma_step = step;
            }
            Ev::EngineSlot { n } => self.engine_slot(now, fx, n),
            Ev::PostSend { n, dst, tenant, wake, wr } => {
                let li = self.li(n);
                self.meters[li].record(MoveKind::RnicDma, wr.payload.len() as u64);
                let conn = self.dnes[li]
                    .as_mut()
                    .expect("worker dne")
                    .select_conn(&self.net, dst, tenant);
                if let Some(qpn) = conn {
                    let mut step = std::mem::take(&mut self.post_step);
                    step.clear();
                    if self
                        .net
                        .post_send_into(now, NodeId(n as u16), qpn, wr, &mut step)
                        .is_err()
                    {
                        // Errored QP (transport retries exhausted): shed
                        // the send — the ingress abandons and re-issues
                        // (closed loop) or retries within budget
                        // (overload) once the health plane reports the
                        // loss.
                        self.shed_qp += 1;
                    }
                    fx.extend_drain(&mut step.events, Ev::Rdma);
                    self.route_egress(now, out, &mut step);
                    self.post_step = step;
                }
                if wake {
                    self.engine_slot(now, fx, n);
                }
            }
            Ev::ApplyDma { n, wake, token, data } => {
                let li = self.li(n);
                self.pools[li]
                    .dma_write_bytes(&token, data, MoveKind::RnicDma, &mut self.meters[li])
                    .expect("dma into posted buffer");
                self.pools[li]
                    .transfer(&token, Owner::Rnic, Owner::Engine)
                    .expect("rnic to engine");
                self.inbound_tokens[li].insert(token.idx() as usize, token);
                if wake {
                    self.engine_slot(now, fx, n);
                }
            }
            Ev::Deliver { n, desc } => {
                let recv = self.fn_recv_cost();
                let exec = self.fn_exec(desc.dst_fn);
                let mut service = recv + exec;
                // Straggler windows scale the node's compute service time;
                // `chaos` is `None` on fault-free runs, leaving the
                // original path untouched.
                if let Some(ch) = &self.chaos {
                    let factor = ch.straggle_factor(n, now);
                    if factor != 1.0 {
                        service = service.scale(factor);
                    }
                }
                let done = self.on_fn_core(n, now, service);
                fx.at(done, Ev::FnDone { n, desc });
            }
            Ev::ReleaseTx { n, wake, token } => {
                let li = self.li(n);
                let _ = self.pools[li].free(token);
                if wake {
                    self.engine_slot(now, fx, n);
                }
            }
            Ev::Replenish { n, cnt } => {
                self.replenish(n, cnt);
            }
            Ev::EngineRx { n, desc } => {
                let li = self.li(n);
                let token = self.pools[li]
                    .redeem(&desc, Owner::Engine)
                    .expect("fn handed off buffer");
                let data = self.pools[li].read_bytes(&token).expect("owned");
                let mut step = std::mem::take(&mut self.dne_fx);
                self.dnes[li]
                    .as_mut()
                    .expect("worker dne")
                    .submit_tx_into(now, desc, data, Some(token), &mut step);
                self.apply_dne_step(fx, n, &mut step);
                self.dne_fx = step;
            }
            Ev::FnDone { n, desc } => {
                self.on_fn_done(now, fx, n, desc);
            }
            Ev::GwOut { req, worker } => {
                let client_wire = self.cost.client_wire;
                let alpha = self.gray.alpha;
                let ing = self.ingress.as_mut().expect("ingress shard");
                ing.gw.leg_done(worker);
                let finish = now + client_wire;
                let st = &mut ing.reqs[req as usize];
                if st.done {
                    return;
                }
                st.done = true;
                st.inflight = false;
                let issued = st.issued;
                let client = st.client;
                let pair = st.pair as usize;
                ing.stats.complete(finish, issued);
                // Feed the pair's gray-failure score with the
                // end-to-end latency this request observed.
                if let Some(cx) = ing.chaosx.as_mut() {
                    cx.observe(alpha, pair, finish - issued);
                }
                if let Some(ov) = ing.overload.as_mut() {
                    // Open loop: release the in-flight slot, update the
                    // service estimate, classify against the deadline —
                    // and never re-issue.
                    ov.inflight = ov.inflight.saturating_sub(1);
                    let Admission { deadline, admitted_at, .. } = ov.admission[req as usize];
                    let sample = (finish - admitted_at).as_nanos() as f64;
                    ov.est += 0.125 * (sample - ov.est);
                    ov.breaker_ok(now, pair);
                    if finish >= ov.warmup {
                        if finish <= deadline {
                            ov.goodput += 1;
                            if finish >= ov.recovery_lo {
                                ov.recovery_goodput += 1;
                            }
                        } else {
                            ov.late += 1;
                        }
                    }
                    if finish >= ov.ramp_lo && finish <= ov.ramp_hi {
                        ov.ramp.record(finish - issued);
                    }
                    self.drain_queue(now, fx);
                } else {
                    fx.at(finish, Ev::Issue { client });
                }
            }
            Ev::HeartbeatTick { n, seq } => {
                // Probe the ingress and reschedule. A crashed node keeps
                // "sending" — its frames die at the destination's
                // partition check, which is exactly what lets the ingress
                // miss them. Scheduled only when chaos is on.
                let mut step = std::mem::take(&mut self.post_step);
                step.clear();
                self.net.send_heartbeat_into(
                    now,
                    NodeId(n as u16),
                    NodeId(self.ingress_node as u16),
                    seq,
                    &mut step,
                );
                fx.extend_drain(&mut step.events, Ev::Rdma);
                self.route_egress(now, out, &mut step);
                self.post_step = step;
                fx.after(self.heartbeat_period, Ev::HeartbeatTick { n, seq: seq + 1 });
            }
            Ev::HealthCheck => {
                let loss_penalty = self.gray.loss_penalty;
                let alpha = self.gray.alpha;
                let mut newly = std::mem::take(&mut self.health_scratch);
                newly.clear();
                {
                    let ing = self.ingress.as_mut().expect("health check on ingress shard");
                    ing.health
                        .as_mut()
                        .expect("chaos run")
                        .check_into(now, &mut newly);
                    ing.suspected += newly.len() as u64;
                }
                // Abandon in-flight requests whose pair lost a node:
                // closed-loop runs re-issue their clients against a
                // surviving pair; overload runs hand the loss to the retry
                // budget (and charge the pair's breaker). Scanning `reqs`
                // in index order keeps the accounting (and the retry
                // schedule) deterministic.
                let mut lost = std::mem::take(&mut self.lost_scratch);
                lost.clear();
                for s in &newly {
                    let pair = s.node / 2;
                    let ing = self.ingress.as_mut().expect("ingress shard");
                    if let Some(cx) = ing.chaosx.as_mut() {
                        cx.suspected_at[s.node] = now;
                        if s.was_rejoining {
                            // Crashed mid-rejoin: void the pending
                            // completion so a stale RejoinDone cannot
                            // re-admit a silent worker.
                            cx.rejoins_aborted += 1;
                            cx.rejoin_epoch[s.node] += 1;
                        }
                    }
                    let overload_on = ing.overload.is_some();
                    for req in 0..ing.reqs.len() {
                        let st = &mut ing.reqs[req];
                        if overload_on {
                            // Only *admitted* requests ride the lost pair;
                            // queued and backing-off ones have no live
                            // attempt to abandon.
                            if st.inflight && st.pair as usize == pair {
                                st.inflight = false;
                                ing.inflight_lost += 1;
                                if let Some(cx) = ing.chaosx.as_mut() {
                                    cx.observe(alpha, pair, loss_penalty);
                                }
                                let ov = ing.overload.as_mut().unwrap();
                                ov.inflight = ov.inflight.saturating_sub(1);
                                ov.breaker_fail(now, pair);
                                lost.push(req as u64);
                            }
                        } else if !st.done && st.pair as usize == pair {
                            st.done = true;
                            ing.inflight_lost += 1;
                            let client = st.client;
                            // A lost request is the worst latency signal
                            // there is — charge it to the pair's score.
                            if let Some(cx) = ing.chaosx.as_mut() {
                                cx.observe(alpha, pair, loss_penalty);
                            }
                            fx.at(now, Ev::Issue { client });
                        }
                    }
                }
                for &req in &lost {
                    self.fail_or_retry(now, fx, req);
                }
                if !lost.is_empty() {
                    self.drain_queue(now, fx);
                }
                self.lost_scratch = lost;
                self.health_scratch = newly;
                self.gray_sweep();
                fx.after(self.heartbeat_period, Ev::HealthCheck);
            }
            Ev::RejoinDone { n, epoch } => {
                let ing = self.ingress.as_mut().expect("rejoin on ingress shard");
                let (Some(h), Some(cx)) = (ing.health.as_mut(), ing.chaosx.as_mut()) else {
                    return;
                };
                // Stale completions (epoch mismatch after a crash
                // mid-rejoin) and already-resolved workers are no-ops.
                if cx.rejoin_epoch[n] == epoch
                    && h.state(n) == WorkerState::Rejoining
                    && h.rejoin_complete(n)
                {
                    cx.rejoins += 1;
                    cx.ttr.record(now - cx.suspected_at[n]);
                }
            }
            Ev::Arrive => {
                // One open-loop arrival: materialize the pre-drawn request,
                // pump the next one, and run the admission pipeline.
                let req = {
                    let ing = self.ingress.as_mut().expect("arrivals on ingress shard");
                    let ov = ing.overload.as_mut().expect("overload mode");
                    let a = ov.next;
                    debug_assert_eq!(a.at, now, "arrival lands at its drawn time");
                    let nxt = ov.gen.next_arrival();
                    ov.next = nxt;
                    fx.at(nxt.at, Ev::Arrive);
                    if now >= ov.warmup {
                        ov.offered += 1;
                    }
                    let deadline = now + ov.ov.deadline;
                    let hint = ov.route.get(a.fn_id as usize).copied().unwrap_or(0);
                    let req = ing.reqs.len() as u64;
                    ing.reqs.push(ReqState {
                        client: a.fn_id as usize,
                        issued: now,
                        attempts: 1,
                        pair: 0,
                        done: false,
                        inflight: false,
                    });
                    ov.admission.push(Admission {
                        deadline,
                        queued_at: Nanos::ZERO,
                        admitted_at: Nanos::ZERO,
                        hint,
                    });
                    req
                };
                self.try_admit(now, fx, req);
            }
            Ev::Retry { req } => {
                let done = {
                    let ing = self.ingress.as_mut().expect("retry on ingress shard");
                    ing.reqs[req as usize].done
                };
                if !done {
                    self.try_admit(now, fx, req);
                }
            }
            Ev::ScaleTick => {
                let total_pairs = self.pairs;
                let ing = self.ingress.as_mut().expect("scale tick on ingress shard");
                let ov = ing.overload.as_mut().expect("overload mode");
                let Some(pol) = ov.ov.autoscale else {
                    return;
                };
                // Evaluation pauses while an activation is paying its bill
                // — scale-out in progress is its own cooldown.
                if ov.activating == 0 {
                    let denom =
                        (ov.active_pairs as u64 * pol.target_inflight_per_pair).max(1) as f64;
                    let util = (ov.inflight + ov.queue.len() as u64) as f64 / denom;
                    let scaler = ov.scaler.as_mut().expect("autoscale on");
                    match scaler.evaluate_at(now, util) {
                        ScaleAction::Up => {
                            // The new pair is wired (QPNs are invariant)
                            // but must pay the control-plane bill — full
                            // rejoin, or a leased warm worker's fraction —
                            // before serving.
                            ov.activating = 1;
                            let full = ov.scaleout_bill;
                            let bill = if ov.leases_left > 0 {
                                ov.leases_left -= 1;
                                ov.lease_hits += 1;
                                full.scale(pol.lease_fraction)
                            } else {
                                ov.rejoin_bills += 1;
                                full
                            };
                            fx.after(
                                bill.max(Nanos(1)),
                                Ev::ScaleOutDone { pair: ov.active_pairs },
                            );
                        }
                        ScaleAction::Down => {
                            debug_assert!(ov.active_pairs > 1, "scaler min bounds this");
                            ov.active_pairs = (ov.active_pairs - 1).min(total_pairs).max(1);
                            ov.scale_downs += 1;
                        }
                        ScaleAction::Hold => {}
                    }
                }
                fx.after(pol.scaler.eval_interval, Ev::ScaleTick);
            }
            Ev::ScaleOutDone { pair } => {
                let total_pairs = self.pairs;
                {
                    let ing = self.ingress.as_mut().expect("scale-out on ingress shard");
                    let ov = ing.overload.as_mut().expect("overload mode");
                    ov.active_pairs = (pair + 1).min(total_pairs);
                    ov.activating = 0;
                    ov.scale_ups += 1;
                }
                // New capacity: refill the in-flight window immediately.
                self.drain_queue(now, fx);
            }
            Ev::Host(ev) => self.on_host_event(now, fx, ev),
        }
    }

    #[inline]
    fn lift(&mut self, _at: Nanos, _src: u32, msg: Packet) -> Ev {
        Ev::Rdma(RdmaEvent::Arrive { pkt: msg })
    }
}

/// Establish `count` RC connections from global node `a` to `b` — within
/// one fabric instance when both live on the same shard, across two
/// instances otherwise — adopting the local endpoints into `pool`. Every
/// wiring call site runs in one canonical global order, so each RNIC's
/// QP-creation sequence (and therefore every QPN) is identical at every
/// shard count.
fn warm_conns(
    pool: &mut ConnPool,
    nets: &mut [RdmaNet],
    part: &Partition,
    a: usize,
    b: usize,
    count: usize,
) {
    let (na, nb) = (NodeId(a as u16), NodeId(b as u16));
    let (sa, sb) = (part.shard_of(a), part.shard_of(b));
    for _ in 0..count {
        let (qa, _qb) = if sa == sb {
            nets[sa].connect_immediate(na, nb, TENANT)
        } else if sa < sb {
            let (left, right) = nets.split_at_mut(sb);
            RdmaNet::connect_pair_immediate(&mut left[sa], na, &mut right[0], nb, TENANT)
        } else {
            let (left, right) = nets.split_at_mut(sa);
            RdmaNet::connect_pair_immediate(&mut right[0], na, &mut left[sb], nb, TENANT)
        };
        pool.adopt(nb, TENANT, qa);
    }
}

/// The sharded Fig 16 / Fig 14 cluster simulation.
pub struct ClusterShardedSim {
    cfg: ClusterShardedConfig,
}

impl ClusterShardedSim {
    /// Build a run of any of the six data planes.
    pub fn new(cfg: ClusterShardedConfig) -> Self {
        assert!(cfg.clients >= 1, "need at least one client");
        let _ = cfg.window(); // validate window × stride ≤ frame lookahead
        ClusterShardedSim { cfg }
    }

    /// Total nodes: `2·pairs` workers plus the ingress.
    pub fn nodes(&self) -> usize {
        2 * self.cfg.pairs + 1
    }

    /// Run partitioned over `shards` shards in the given execution mode.
    /// Reports are bit-identical across shard counts and execution modes
    /// (see the module docs; `tests/cluster_sharded.rs` pins it). Only the
    /// two-sided-RDMA systems shard: the baselines' TCP and one-sided-write
    /// legs are node-to-node *local* events, so they require `shards == 1`.
    pub fn run(&self, shards: usize, execution: Execution) -> ClusterShardedReport {
        self.run_on(shards, execution, false)
    }

    /// The [`super::chain::ChainSim`] run: one shard, the fabric delivering
    /// frames itself instead of through the mailboxes, and therefore one
    /// window spanning the whole horizon — the serial event loop, with no
    /// per-window cost. Same bytes and event count as `run(1, _)`
    /// (`tests/one_engine.rs`).
    pub(crate) fn run_direct(&self) -> ClusterShardedReport {
        self.run_on(1, Execution::Sequential, true)
    }

    fn run_on(&self, shards: usize, execution: Execution, direct: bool) -> ClusterShardedReport {
        let cfg = &self.cfg;
        let n_nodes = self.nodes();
        let ingress_node = 2 * cfg.pairs;
        assert!(shards >= 1 && shards <= n_nodes, "1..=nodes shards");
        let part = Partition::new(n_nodes, shards);
        let spec = cfg.system.spec();
        let palladium = spec.inter_node == InterNode::TwoSidedRdma;
        assert!(
            palladium || shards == 1,
            "{:?} does not shard: its inter-node legs are local events",
            cfg.system
        );
        let cost = CostModel::default();
        let mut rdma_cfg = RdmaConfig::default();
        let chaos = cfg.chaos.as_ref().map(|script| script.compile(n_nodes));
        if chaos.is_some() {
            // Chaos runs must survive multi-millisecond partitions:
            // at the default rto (500 µs) the stock retry budget (7)
            // gives up after ~3.5 ms of outage and kills the QP. Raise
            // it so go-back-N redelivers once the window ends; failover
            // comes from the health plane, not from QP suicide. An
            // overload config can bound the transport budget instead —
            // the undying loop is what turns a transient fault into a
            // retry-storm metastable failure.
            let limit = cfg
                .overload
                .as_ref()
                .map(|o| o.retry.transport_retry.unwrap_or(UNDYING_RETRY))
                .unwrap_or(UNDYING_RETRY);
            rdma_cfg.retry_limit = limit;
            rdma_cfg.rnr_retry_limit = limit;
        }

        // Per-shard fabric spans, in sharded-egress mode unless the run is
        // direct. Every instance gets the *same* seed: fault RNG streams
        // are derived per global node id inside the fabric
        // ([`palladium_simnet::SimRng::stream`]), so verdict sequences —
        // and therefore faulty runs — are identical at every shard count.
        let mut nets: Vec<RdmaNet> = (0..shards)
            .map(|s| {
                let mut net = RdmaNet::with_span(rdma_cfg, part.range(s), cfg.seed);
                net.set_sharded_egress(!direct);
                if let Some(ch) = &chaos {
                    // Full-fabric partition table on every instance (an
                    // arriving frame's source may live on any shard);
                    // per-node fault timelines only where owned.
                    net.set_down_windows(ch.down.clone());
                    for n in part.range(s) {
                        if !ch.faults[n].is_none() {
                            net.set_node_fault(NodeId(n as u16), ch.faults[n].clone());
                        }
                        // Directed gray links land on the destination's
                        // owning shard (faults apply at the destination
                        // port — same invariance discipline).
                        for (src, tl) in &ch.links[n] {
                            net.set_link_fault(NodeId(*src as u16), NodeId(n as u16), tl.clone());
                        }
                    }
                }
                net
            })
            .collect();

        // Pools + MR registration on the owning shard, global node order.
        let mut pools = Vec::with_capacity(n_nodes);
        for n in 0..n_nodes {
            let pool = UnifiedPool::new(PoolId(n as u16), TENANT, cfg.pool_bufs, BUF_SIZE);
            let mut exporter =
                MmapExporter::new(PoolId(n as u16), TENANT, Region::hugepages(pool.backing_len()));
            nets[part.shard_of(n)]
                .register_mr(NodeId(n as u16), &exporter.export_rdma())
                .expect("register pool MR");
            pools.push(pool);
        }

        // Routing over the remapped function ids.
        let mut coord = Coordinator::new();
        for f in &cfg.app.functions {
            coord.apply(DeployEvent::Created {
                f: f.id,
                tenant: TENANT,
                node: NodeId(f.node as u16),
            });
        }
        coord.apply(DeployEvent::Created {
            f: INGRESS_FN,
            tenant: TENANT,
            node: NodeId(ingress_node as u16),
        });

        // Palladium: a DNE per worker node, in global node order, and the
        // ingress's early-conversion connections. The baselines run the
        // host plane instead and terminate TCP at the gateway.
        let cpp = ConnPoolConfig::default().conns_per_peer;
        let mut dnes: Vec<Dne> = Vec::new();
        let mut ingress_conns = ConnPool::new(NodeId(ingress_node as u16), ConnPoolConfig::default());
        let mut host = None;
        if palladium {
            dnes.extend((0..2 * cfg.pairs).map(|n| {
                let mut dne = Dne::new(
                    NodeId(n as u16),
                    spec.engine_loc,
                    cost,
                    spec.sched,
                    ConnPool::new(NodeId(n as u16), ConnPoolConfig::default()),
                );
                dne.routes = coord.tables_for(NodeId(n as u16));
                dne.register_tenant(TENANT, 1);
                dne
            }));
            // Warm RC connections in one canonical global order (see
            // `warm_conns` on QPN invariance): per pair worker↔worker and
            // worker→ingress, then ingress→workers.
            for p in 0..cfg.pairs {
                let (w0, w1) = (2 * p, 2 * p + 1);
                warm_conns(&mut dnes[w0].pool, &mut nets, &part, w0, w1, cpp);
                warm_conns(&mut dnes[w1].pool, &mut nets, &part, w1, w0, cpp);
                warm_conns(&mut dnes[w0].pool, &mut nets, &part, w0, ingress_node, cpp);
                warm_conns(&mut dnes[w1].pool, &mut nets, &part, w1, ingress_node, cpp);
            }
            for p in 0..cfg.pairs {
                warm_conns(&mut ingress_conns, &mut nets, &part, ingress_node, 2 * p, cpp);
                warm_conns(&mut ingress_conns, &mut nets, &part, ingress_node, 2 * p + 1, cpp);
            }
        } else {
            host = Some(HostPlane::new(cfg, &mut nets[0]));
        }

        // Assemble the shard engines: distribute the per-node state along
        // the partition (shards and node blocks are both ascending, so
        // draining in order preserves global node order).
        let mut pool_it = pools.into_iter();
        let mut dne_it = dnes.into_iter();
        let mut ingress_state = Some(IngressState {
            gw: IngressGateway::new(
                IngressConfig::new(spec.ingress).with_fixed_workers(match spec.ingress {
                    IngressKind::KernelDeferred => 24,
                    _ => 8,
                }),
                cost,
            ),
            rbr: crate::rbr::RbrTable::new(),
            conns: ingress_conns,
            tx: Slab::new(),
            reqs: Vec::new(),
            stats: RunStats::new(cfg.warmup),
            health: chaos
                .as_ref()
                .map(|_| HealthMonitor::new(2 * cfg.pairs, cfg.heartbeat_period, cfg.heartbeat_k)),
            suspected: 0,
            recovered: 0,
            inflight_lost: 0,
            reroutes: 0,
            chaosx: chaos.as_ref().map(|_| IngressChaos::new(2 * cfg.pairs, cfg.pairs)),
            overload: cfg.overload.as_ref().map(|o| {
                IngressOverload::new(
                    o.clone(),
                    cfg.pairs,
                    cfg.seed,
                    cfg.warmup,
                    cfg.warmup + cfg.duration,
                    cfg.rejoin.cost(2 * cpp, cfg.pool_bufs as u64 * BUF_SIZE as u64),
                )
            }),
        });
        // First arrival time + scale-tick interval, captured before the
        // ingress state moves into its shard.
        let overload_first = ingress_state.as_ref().and_then(|i| {
            i.overload
                .as_ref()
                .map(|o| (o.next.at, o.ov.autoscale.map(|p| p.scaler.eval_interval)))
        });
        let mut engines: Vec<ClusterShard> = Vec::with_capacity(shards);
        for (s, net) in nets.into_iter().enumerate() {
            let range = part.range(s);
            let mut shard = ClusterShard {
                lo: range.start,
                shard_of: part.shard_lookup(),
                ingress_node,
                pairs: cfg.pairs,
                chains: cfg.app.chains.clone(),
                placement: {
                    let mut t = IdTable::new();
                    for f in &cfg.app.functions {
                        t.insert(f.id.raw() as usize, f.node);
                    }
                    t
                },
                fn_exec: {
                    let mut t = IdTable::new();
                    for f in &cfg.app.functions {
                        t.insert(f.id.raw() as usize, f.exec);
                    }
                    t
                },
                cost,
                spec,
                comch: ChannelCosts::for_kind(ChannelKind::ComchE),
                skmsg: SkMsgCosts::default(),
                pools: Vec::new(),
                meters: Vec::new(),
                fn_cores: Vec::new(),
                dnes: Vec::new(),
                inbound_tokens: Vec::new(),
                host: host.take(),
                net,
                ingress: None,
                chaos: chaos.clone(),
                heartbeat_period: cfg.heartbeat_period,
                rejoin: cfg.rejoin,
                gray: cfg.gray,
                worker_qps: 2 * cpp,
                pool_bytes: cfg.pool_bufs as u64 * BUF_SIZE as u64,
                shed_qp: 0,
                shed_pool: 0,
                lost_scratch: Vec::new(),
                health_scratch: Vec::new(),
                rdma_step: Step::default(),
                post_step: Step::default(),
                cqe_scratch: Vec::new(),
                dne_fx: Vec::new(),
                payloads: PayloadCache::new(),
            };
            for n in range.clone() {
                shard.pools.push(pool_it.next().expect("pool per node"));
                shard.meters.push(CopyMeter::new());
                shard.inbound_tokens.push(IdTable::new());
                if n == ingress_node {
                    shard.fn_cores.push(None);
                    shard.dnes.push(None);
                    shard.ingress = ingress_state.take();
                } else {
                    shard.fn_cores.push(Some(ServerBank::new(&format!("w{n}-host"), 38)));
                    shard.dnes.push(dne_it.next());
                }
            }
            // Prime receive queues (node-local work, shard-count-invariant);
            // only two-sided RDMA posts receives.
            if palladium {
                for n in range {
                    if n == ingress_node {
                        shard.replenish_ingress(INITIAL_RQ);
                    } else {
                        shard.replenish(n, INITIAL_RQ);
                    }
                }
            }
            engines.push(shard);
        }

        let deadline = cfg.warmup + cfg.duration;
        let scfg = if direct {
            // Nothing crosses a mailbox, so nothing bounds the window.
            ShardConfig::new(1, deadline + Nanos(1))
        } else {
            ShardConfig::new(shards, cfg.window()).stride(cfg.stride)
        }
        .execution(execution);
        let clients = cfg.clients;
        let ingress_shard = part.shard_of(ingress_node);
        let chaos_on = chaos.is_some();
        let heartbeat_period = cfg.heartbeat_period;
        let run = run_sharded(
            &scfg,
            engines,
            |s, h| {
                if chaos_on {
                    // The health plane: per-worker probes on the owning
                    // shard, the suspicion sweep on the ingress shard.
                    // Never scheduled fault-free, so the fault-free event
                    // schedule (and its goldens) is untouched.
                    for n in part.range(s) {
                        if n != ingress_node {
                            h.schedule_at(Nanos::ZERO, Ev::HeartbeatTick { n, seq: 0 });
                        }
                    }
                }
                if s == ingress_shard {
                    if let Some((first, tick)) = overload_first {
                        // Open loop: arrivals come from the generator, not
                        // from completions — overload is reachable.
                        h.schedule_at(first, Ev::Arrive);
                        if let Some(interval) = tick {
                            h.schedule_at(interval, Ev::ScaleTick);
                        }
                    } else {
                        for client in 0..clients {
                            h.schedule_at(Nanos::ZERO, Ev::Issue { client });
                        }
                    }
                    if chaos_on {
                        h.schedule_at(heartbeat_period, Ev::HealthCheck);
                    }
                }
            },
            deadline,
        );

        // Fold the report in global node order (identical floats at every
        // shard count).
        let mut engines = run.engines;
        let mut worker_meter = CopyMeter::new();
        let mut cpu_pct = 0.0;
        let mut dpu_pct = 0.0;
        let horizon = deadline;
        for n in 0..n_nodes {
            if n == ingress_node {
                continue;
            }
            let e = &engines[part.shard_of(n)];
            let li = n - e.lo;
            worker_meter.merge(&e.meters[li]);
            let Some(dne) = e.dnes[li].as_ref() else {
                continue;
            };
            if spec.engine_loc == EngineLocation::Dpu {
                // Busy-polling DNE worker cores: 100% each (§4.3.1), plus
                // the core thread's useful time.
                dpu_pct += 100.0;
                dpu_pct += 100.0 * dne.core_thread.utilization(horizon);
            } else {
                cpu_pct += 100.0 * dne.worker_core.utilization(horizon);
                cpu_pct += 100.0 * dne.core_thread.utilization(horizon);
            }
        }
        if let Some(host) = &engines[0].host {
            cpu_pct += host.cpu_pct(horizon, spec.receiver_polls);
        }
        // Fault/protocol counters fold in shard order; health/failover
        // counters live on the ingress. Both are deterministic per the
        // invariance discipline.
        let mut chaos_rep = ChaosReport::default();
        for e in &engines {
            chaos_rep.fault_drops += e.net.counters.get("drop");
            chaos_rep.crash_drops += e.net.counters.get("crash_drop");
            chaos_rep.corrupt += e.net.counters.get("corrupt");
            chaos_rep.rto += e.net.counters.get("rto");
            chaos_rep.rnr_naks += e.net.counters.get("rnr_nak");
            chaos_rep.shed_qp += e.shed_qp;
            chaos_rep.shed_pool += e.shed_pool;
        }
        let mut ing = engines[ingress_shard].ingress.take().expect("ingress state");
        chaos_rep.suspected = ing.suspected;
        chaos_rep.recovered = ing.recovered;
        chaos_rep.inflight_lost = ing.inflight_lost;
        chaos_rep.reroutes = ing.reroutes;
        if let Some(cx) = &ing.chaosx {
            chaos_rep.rejoins = cx.rejoins;
            chaos_rep.rejoins_aborted = cx.rejoins_aborted;
            if !cx.ttr.is_empty() {
                chaos_rep.ttr_p50 = cx.ttr.p50();
                chaos_rep.ttr_p99 = cx.ttr.p99();
            }
            chaos_rep.gray_demoted = cx.gray_demoted;
            chaos_rep.gray_restored = cx.gray_restored;
            chaos_rep.gray_reroutes = cx.gray_reroutes;
        }
        let mut overload_rep = OverloadReport::default();
        if let Some(ov) = &ing.overload {
            chaos_rep.shed_admission = ov.shed_admission;
            chaos_rep.shed_deadline = ov.shed_deadline;
            chaos_rep.shed_breaker = ov.shed_breaker;
            overload_rep = OverloadReport {
                offered: ov.offered,
                admitted: ov.admitted,
                goodput: ov.goodput,
                late: ov.late,
                recovery_goodput: ov.recovery_goodput,
                retries: ov.retries,
                retry_exhausted: ov.retry_exhausted,
                breaker_opens: ov.breaker_opens,
                breaker_closes: ov.breaker_closes,
                scale_ups: ov.scale_ups,
                scale_downs: ov.scale_downs,
                rejoin_bills: ov.rejoin_bills,
                lease_hits: ov.lease_hits,
                ramp_p99: if ov.ramp.is_empty() { Nanos::ZERO } else { ov.ramp.p99() },
            };
        }
        let (p50, p99, p999) = {
            let h = ing.stats.histogram();
            (h.p50(), h.p99(), h.p999())
        };
        let mean_latency = ing.stats.latency().mean();
        let load: LoadReport = ing.stats.report(cfg.duration);
        let chain = ChainReport {
            rps: load.rps,
            mean_latency,
            software_copy_bytes: worker_meter.sw_bytes,
            software_copy_ops: worker_meter.sw_ops,
            rnic_dma_bytes: worker_meter.rnic_dma_bytes,
            cpu_util_pct: cpu_pct,
            dpu_util_pct: dpu_pct,
            load,
        };
        ClusterShardedReport {
            chain,
            events: run.events,
            messages: run.messages,
            spilled: run.spilled,
            windows: run.windows,
            work: run.work,
            critical_path_work: run.critical_path_work,
            busy_ns: run.busy_ns,
            critical_path_ns: run.critical_path_ns,
            channels: run.channels,
            p50,
            p99,
            p999,
            chaos: chaos_rep,
            overload: overload_rep,
        }
    }
}
