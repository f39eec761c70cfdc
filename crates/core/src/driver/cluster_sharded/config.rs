//! What a cluster run is told: [`ClusterShardedConfig`] and the four policy
//! configurations it carries. Every field is public, so nothing here is
//! checked where it is set: [`ClusterShardedConfig::validate`] is the one
//! gate, and [`ClusterShardedSim::new`](super::ClusterShardedSim::new)
//! runs it.

use palladium_simnet::{Nanos, OpenLoopConfig, ScenarioScript};

use super::HOP_MASK;
use crate::autoscaler::AutoscalerConfig;
use crate::connpool::RejoinCosts;
use crate::driver::chain::AppSpec;
use crate::system::SystemKind;

/// Default buffers per node pool.
const POOL_BUFS: u32 = 4096;

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
    /// Chaos scenario replayed by the run (see the module docs). `None`
    /// keeps the event schedule exactly fault-free: no heartbeats, no
    /// health checks, no fault tables.
    pub chaos: Option<ScenarioScript>,
    /// Control-plane cost model paid by a recovering worker before it
    /// re-enters the routing set (chaos runs only).
    pub rejoin: RejoinCosts,
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
/// comes from stateless [`SimRng::stream`](palladium_simnet::SimRng::stream)s keyed by sequence numbers, and
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
            shed_on_deadline: true,
            retry: RetryPolicy::budgeted(),
            breaker: BreakerPolicy::default(),
            autoscale: None,
        }
    }

    /// Tune the admission bound: queue capacity, in-flight window, and the
    /// oldest-first queue-delay threshold.
    #[cfg(test)]
    pub fn admission(mut self, queue_cap: usize, inflight_cap: u64, queue_delay_max: Nanos) -> Self {
        self.queue_cap = queue_cap;
        self.inflight_cap = inflight_cap;
        self.queue_delay_max = queue_delay_max;
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
/// (`retry_exhausted` in [`OverloadReport`](super::OverloadReport)), not an infinite loop.
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
    /// legacy undying transport (100 000 RTOs); `Some(n)` makes the
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

impl ClusterShardedConfig {
    /// A run of `system` over `app` with `pairs` worker pairs.
    pub fn new(system: SystemKind, app: AppSpec, pairs: usize) -> Self {
        ClusterShardedConfig {
            system,
            app,
            pairs,
            clients: 16 * pairs,
            duration: Nanos::from_millis(120),
            warmup: Nanos::from_millis(30),
            seed: 42,
            chaos: None,
            rejoin: RejoinCosts::default(),
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

    /// Replay `script` during the run (turns on the health plane).
    pub fn chaos(mut self, script: ScenarioScript) -> Self {
        self.chaos = Some(script);
        self
    }

    /// Drive the run open-loop under `overload` (see [`OverloadConfig`]).
    /// Replaces the closed-loop clients entirely.
    pub fn overload(mut self, overload: OverloadConfig) -> Self {
        self.overload = Some(overload);
        self
    }

    /// Reject a configuration no run can honour. Every field is public, so
    /// this — not the builders — is where the checks live.
    pub(super) fn validate(&self) {
        assert!(self.pairs >= 1, "need at least one worker pair");
        assert!(
            2 * self.pairs < 1 << 16,
            "node ids (and the payload word's pair field) are 16 bits"
        );
        assert_eq!(self.app.chains.len(), self.pairs, "one chain replica per pair");
        assert!(
            self.app.chains.iter().all(|c| c.hops.len() as u64 <= HOP_MASK),
            "the payload word holds hop indices up to {HOP_MASK}"
        );
        assert!(self.clients >= 1, "need at least one client");
        assert!(self.clients as u64 <= 1 << 32, "client ids are 32 bits");
        assert!(self.pool_bufs >= 1, "need at least one pool buffer");
        if let Some(overload) = &self.overload {
            assert!(overload.inflight_cap >= 1, "need a non-empty in-flight window");
            assert!(overload.traffic.population >= 1, "need a function population");
            assert!(overload.traffic.population <= 1 << 32, "function ids are 32 bits");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::chain::{ChainSpec, HopSpec};
    use palladium_membuf::FnId;

    fn chain(hops: usize) -> ChainSpec {
        let hop = HopSpec { from: FnId(1), to: FnId(1), bytes: 64 };
        ChainSpec { name: "c", entry: FnId(1), hops: vec![hop; hops], req_bytes: 64, resp_bytes: 64 }
    }

    fn valid() -> ClusterShardedConfig {
        let app = AppSpec { functions: Vec::new(), chains: vec![chain(3), chain(3)] };
        ClusterShardedConfig::new(SystemKind::PalladiumDne, app, 2)
    }

    fn overloaded(tune: impl FnOnce(&mut OverloadConfig)) -> ClusterShardedConfig {
        let mut ov = OverloadConfig::new(OpenLoopConfig::poisson(1_000.0, 16), Nanos(1));
        tune(&mut ov);
        valid().overload(ov)
    }

    #[test]
    fn every_check_rejects_a_field_assigned_config_by_message() {
        let set = |edit: fn(&mut ClusterShardedConfig)| {
            let mut cfg = valid();
            edit(&mut cfg);
            cfg
        };
        let cases: Vec<(ClusterShardedConfig, &str)> = vec![
            (set(|c| c.pairs = 0), "at least one worker pair"),
            (set(|c| c.pairs = 1 << 15), "16 bits"),
            (set(|c| c.pairs = 3), "one chain replica per pair"),
            (set(|c| c.app.chains[1] = chain(256)), "hop indices up to 255"),
            (set(|c| c.clients = 0), "at least one client"),
            (set(|c| c.clients = (1 << 32) + 1), "client ids are 32 bits"),
            (set(|c| c.pool_bufs = 0), "at least one pool buffer"),
            (overloaded(|ov| ov.inflight_cap = 0), "non-empty in-flight window"),
            (overloaded(|ov| ov.traffic.population = 0), "function population"),
            (overloaded(|ov| ov.traffic.population = (1 << 32) + 1), "function ids are 32 bits"),
        ];
        for (cfg, want) in cases {
            let err = std::panic::catch_unwind(|| cfg.validate()).expect_err(want);
            let msg = err.downcast_ref::<String>().map(String::as_str);
            let msg = msg.or(err.downcast_ref::<&str>().copied()).unwrap_or_default();
            assert!(msg.contains(want), "{msg:?} does not mention {want:?}");
        }
    }

    #[test]
    fn the_defaults_and_the_widest_legal_shapes_pass() {
        valid().validate();
        overloaded(|_| {}).validate();
        overloaded(|ov| ov.traffic.population = 1 << 32).validate();
        let mut cfg = valid();
        cfg.clients = 1 << 32;
        cfg.app.chains[0] = chain(255);
        cfg.validate();
    }
}
