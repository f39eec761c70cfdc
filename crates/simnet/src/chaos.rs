//! Scripted chaos scenarios: declarative, time-ordered fault scripts any
//! driver can replay deterministically, plus the health-detection
//! machinery (heartbeat bookkeeping) failover re-routing builds on.
//!
//! A [`ScenarioScript`] is a list of [`ScenarioOp`]s anchored to virtual
//! time — node crashes with later recovery, link flaps as bounded
//! [`FaultPlan`] windows, straggler slow-down factors on per-node cost
//! models, burst-loss storms that force RTO/retry churn, and *gray*
//! failures (low-rate asymmetric drop plus latency inflation, calibrated
//! below the heartbeat-miss threshold). Correlated failures come from
//! **fault domains**: a named node group (a rack, a switch's ports)
//! registered with [`ScenarioScript::domain`] whose `*_domain` ops expand
//! to per-member ops at build time — so a domain-scoped script compiles
//! to exactly the tables the equivalent hand-written per-node ops would.
//! The script is data, not behavior: [`ScenarioScript::compile`] lowers
//! it into per-node tables (down windows, [`FaultTimeline`]s, straggler
//! windows, directed-link timelines) that the fabric and driver consult
//! at event time with no randomness of their own, so a scenario replays
//! byte-identically at every shard count and in every execution mode.
//!
//! Fault *verdicts* still draw randomness — but from per-node streams
//! keyed by global node id ([`crate::rng::SimRng::stream`]), never from a
//! shard-level RNG, which is what keeps a faulty run shard-count
//! invariant.
//!
//! # The rejoin state machine
//!
//! [`HealthMonitor`] tracks each worker through three states:
//!
//! ```text
//!  Alive ──silent k periods──▶ Suspect ──heartbeat──▶ Rejoining
//!    ▲                            ▲                       │
//!    └────── rejoin_complete ─────┼──silent k periods─────┘
//! ```
//!
//! A recovered worker does **not** resume for free: heartbeats moving it
//! out of `Suspect` land it in [`WorkerState::Rejoining`], where the
//! driver charges the control-plane recovery cost (QP re-establishment,
//! MR re-registration, state re-sync — Swift shows these dominate RDMA
//! recovery) before calling
//! [`rejoin_complete`](HealthMonitor::rejoin_complete) to re-admit it to
//! the routing set. A worker that goes silent again mid-rejoin falls
//! back to `Suspect` (reported with
//! [`Suspicion::was_rejoining`] so the driver can void the pending
//! rejoin).

use crate::fault::{FaultPlan, FaultTimeline};
use crate::time::Nanos;

/// One scripted fault operation, anchored to virtual time. All node ids
/// are *global* fabric node ids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScenarioOp {
    /// `node` loses network connectivity over `[from, until)`: every
    /// frame with it as source *or* destination is dropped at the
    /// destination port (no RNG draw — a partition is deterministic).
    /// Recovery at `until` is implicit; in-flight state survives, so
    /// go-back-N redelivers once retries outlast the outage. A crash
    /// models the NIC/link going dark — local compute continues.
    Crash {
        /// Global node id.
        node: usize,
        /// Partition start (inclusive).
        from: Nanos,
        /// Partition end (exclusive) — the recovery instant.
        until: Nanos,
    },
    /// Link flap at `node`'s port: frames to `node` are dropped with
    /// probability `drop` over `[from, until)`.
    Flap {
        /// Global node id.
        node: usize,
        /// Per-frame drop probability while the flap is active.
        drop: f64,
        /// Flap start (inclusive).
        from: Nanos,
        /// Flap end (exclusive).
        until: Nanos,
    },
    /// An arbitrary bounded fault window at `node`'s port — the general
    /// form ([`ScenarioOp::Flap`] is the common case). The plan carries
    /// its own `active_after`/`active_until` window; near-certain drop
    /// over a short window is an RTO/retry storm.
    Storm {
        /// Global node id.
        node: usize,
        /// The fault window, including its own activity bounds.
        plan: FaultPlan,
    },
    /// Straggler: scale `node`'s service/compute costs by `factor`
    /// (e.g. `4.0` = 4× slower) over `[from, until)`. The driver owning
    /// the node's cost model applies the factor.
    Straggle {
        /// Global node id.
        node: usize,
        /// Cost multiplier while active (> 1.0 slows the node down).
        factor: f64,
        /// Window start (inclusive).
        from: Nanos,
        /// Window end (exclusive).
        until: Nanos,
    },
    /// Gray failure at `node`'s port: low-rate drop plus uniform latency
    /// inflation (`0..=delay` per frame) over `[from, until)`, calibrated
    /// *below* the heartbeat-miss threshold — liveness probes keep
    /// passing, so only a differential detector (cross-pair latency
    /// comparison) can see it. With `src` set the fault pins one
    /// *directed link* (`src → node` frames only): an asymmetric gray
    /// partial partition — the reverse direction and every other source
    /// stay clean, which is exactly the failure mode absolute-timeout
    /// detection is blind to.
    Gray {
        /// Global destination node id (the degraded ingress port).
        node: usize,
        /// Faulty source (directed link `src → node`); `None` grays the
        /// whole port.
        src: Option<usize>,
        /// Per-frame drop probability while active (keep well below the
        /// rate that would miss `k` consecutive heartbeats).
        drop: f64,
        /// Maximum extra per-frame queueing delay (uniform `0..=delay`).
        delay: Nanos,
        /// Window start (inclusive).
        from: Nanos,
        /// Window end (exclusive).
        until: Nanos,
    },
}

/// A straggler slow-down window on one node's cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerWindow {
    /// Window start (inclusive).
    pub from: Nanos,
    /// Window end (exclusive).
    pub until: Nanos,
    /// Cost multiplier while active.
    pub factor: f64,
}

impl StragglerWindow {
    /// True when the window covers `now`.
    #[inline]
    pub fn active_at(&self, now: Nanos) -> bool {
        now >= self.from && now < self.until
    }
}

/// A declarative, replayable chaos scenario: an ordered list of
/// [`ScenarioOp`]s plus named fault domains. Build with the fluent
/// ctors, then [`compile`](ScenarioScript::compile) once per run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioScript {
    ops: Vec<ScenarioOp>,
    /// Named correlated node groups (rack/switch scopes) for `*_domain`
    /// ops, in registration order.
    domains: Vec<(String, Vec<usize>)>,
}

impl ScenarioScript {
    /// An empty scenario (compiles to all-quiet tables).
    pub fn new() -> Self {
        Self::default()
    }

    /// Append any op.
    pub fn op(mut self, op: ScenarioOp) -> Self {
        self.ops.push(op);
        self
    }

    /// Append a crash + implicit recovery window.
    pub fn crash(self, node: usize, from: Nanos, until: Nanos) -> Self {
        self.op(ScenarioOp::Crash { node, from, until })
    }

    /// Append a link flap.
    pub fn flap(self, node: usize, drop: f64, from: Nanos, until: Nanos) -> Self {
        self.op(ScenarioOp::Flap { node, drop, from, until })
    }

    /// Append a burst fault window (the plan carries its own bounds).
    pub fn storm(self, node: usize, plan: FaultPlan) -> Self {
        self.op(ScenarioOp::Storm { node, plan })
    }

    /// Append a straggler slow-down.
    pub fn straggle(self, node: usize, factor: f64, from: Nanos, until: Nanos) -> Self {
        self.op(ScenarioOp::Straggle { node, factor, from, until })
    }

    /// Append a gray failure on the *directed link* `src → dst` only —
    /// the asymmetric gray partial partition (the reverse direction and
    /// every other source stay clean).
    pub fn gray_link(
        self,
        src: usize,
        dst: usize,
        drop: f64,
        delay: Nanos,
        from: Nanos,
        until: Nanos,
    ) -> Self {
        self.op(ScenarioOp::Gray { node: dst, src: Some(src), drop, delay, from, until })
    }

    /// Register a named **fault domain**: a correlated set of nodes that
    /// fails together (a rack losing power, a ToR switch's ports). The
    /// `*_domain` ops expand to one per-member op *at build time*, in
    /// member order — a domain-scoped script therefore compiles to
    /// byte-identical tables with the equivalent per-node ops (the
    /// domain-compile proptest pins this).
    pub fn domain(mut self, name: &str, members: &[usize]) -> Self {
        assert!(!members.is_empty(), "fault domain {name} has no members");
        assert!(
            self.domains.iter().all(|(n, _)| n != name),
            "fault domain {name} registered twice"
        );
        self.domains.push((name.to_string(), members.to_vec()));
        self
    }

    /// Members of a registered domain (panics on an unknown name — a
    /// script bug, not a runtime condition).
    fn members(&self, name: &str) -> Vec<usize> {
        self.domains
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, m)| m.clone())
            .unwrap_or_else(|| panic!("unknown fault domain {name}"))
    }

    /// Crash every member of `name` over the same window — a rack/switch
    /// outage as one op.
    pub fn crash_domain(mut self, name: &str, from: Nanos, until: Nanos) -> Self {
        for node in self.members(name) {
            self = self.crash(node, from, until);
        }
        self
    }

    /// Lower the script into per-node lookup tables over `n_nodes` global
    /// nodes. Ops naming nodes `>= n_nodes` panic — a script/topology
    /// mismatch is a configuration bug, not a runtime condition.
    ///
    /// Overlapping fault windows on one node resolve in script order
    /// (earlier ops win — [`FaultTimeline`] semantics); overlapping
    /// straggler windows likewise (first covering window's factor
    /// applies).
    pub fn compile(&self, n_nodes: usize) -> CompiledScenario {
        let mut down = vec![Vec::new(); n_nodes];
        let mut faults = vec![FaultTimeline::new(); n_nodes];
        let mut straggle = vec![Vec::new(); n_nodes];
        let mut links: Vec<Vec<(usize, FaultTimeline)>> = vec![Vec::new(); n_nodes];
        for op in &self.ops {
            match *op {
                ScenarioOp::Crash { node, from, until } => {
                    assert!(node < n_nodes, "crash names node {node} of {n_nodes}");
                    down[node].push((from, until));
                }
                ScenarioOp::Flap { node, drop, from, until } => {
                    assert!(node < n_nodes, "flap names node {node} of {n_nodes}");
                    faults[node].push(FaultPlan::dropping(drop).window(from, until));
                }
                ScenarioOp::Storm { node, plan } => {
                    assert!(node < n_nodes, "storm names node {node} of {n_nodes}");
                    faults[node].push(plan);
                }
                ScenarioOp::Straggle { node, factor, from, until } => {
                    assert!(node < n_nodes, "straggle names node {node} of {n_nodes}");
                    straggle[node].push(StragglerWindow { from, until, factor });
                }
                ScenarioOp::Gray { node, src, drop, delay, from, until } => {
                    assert!(node < n_nodes, "gray names node {node} of {n_nodes}");
                    let plan = FaultPlan {
                        drop_chance: drop,
                        max_extra_delay: delay,
                        ..FaultPlan::NONE
                    }
                    .window(from, until);
                    match src {
                        None => faults[node].push(plan),
                        Some(s) => {
                            assert!(s < n_nodes, "gray names source {s} of {n_nodes}");
                            match links[node].iter_mut().find(|(from_n, _)| *from_n == s) {
                                Some((_, tl)) => tl.push(plan),
                                None => links[node].push((s, FaultTimeline::from_plan(plan))),
                            }
                        }
                    }
                }
            }
        }
        CompiledScenario { down, faults, straggle, links }
    }
}

/// A [`ScenarioScript`] lowered to per-node lookup tables (all indexed by
/// *global* node id). Purely data: consulting it draws no randomness, so
/// every simulation shard can hold an identical copy.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompiledScenario {
    /// Per node: network-partition windows `[from, until)`.
    pub down: Vec<Vec<(Nanos, Nanos)>>,
    /// Per node: fault timeline applied to frames arriving at the node.
    pub faults: Vec<FaultTimeline>,
    /// Per node: straggler slow-down windows on the node's cost model.
    pub straggle: Vec<Vec<StragglerWindow>>,
    /// Per destination node: directed-link fault timelines
    /// `(source, timeline)` — an active link window overrides the
    /// destination's port-wide timeline for frames from that source
    /// (gray partial partitions are per-link, not per-port).
    pub links: Vec<Vec<(usize, FaultTimeline)>>,
}

impl CompiledScenario {
    /// The cost multiplier in force on `node` at `now` (`1.0` when no
    /// window covers it).
    #[inline]
    pub fn straggle_factor(&self, node: usize, now: Nanos) -> f64 {
        self.straggle
            .get(node)
            .and_then(|ws| ws.iter().find(|w| w.active_at(now)))
            .map_or(1.0, |w| w.factor)
    }
}

/// Liveness belief about one monitored worker — see the module docs on
/// the rejoin state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerState {
    /// Heartbeating and routable.
    Alive,
    /// Silent for `k` probe periods: believed dead, out of the routing
    /// set, in-flight work abandoned.
    Suspect,
    /// Heartbeats resumed, but the worker is still paying its costed
    /// rejoin (QP re-establishment, MR re-registration, state re-sync)
    /// and is **not yet routable**. The driver promotes it with
    /// [`HealthMonitor::rejoin_complete`] once the cost is paid.
    Rejoining,
}

/// One newly raised suspicion from [`HealthMonitor::check_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Suspicion {
    /// The newly suspected node.
    pub node: usize,
    /// True when the worker crashed again *mid-rejoin* (it went silent
    /// while still paying its recovery cost) — any pending rejoin
    /// completion the driver scheduled is void.
    pub was_rejoining: bool,
}

/// Heartbeat-driven liveness bookkeeping: a node is *suspected* once
/// `k` heartbeat periods elapse with no probe heard from it; the next
/// probe moves it to [`WorkerState::Rejoining`] (not straight back to
/// alive — recovery has a cost), and the driver re-admits it with
/// [`rejoin_complete`](HealthMonitor::rejoin_complete). Deterministic —
/// state changes only on [`heartbeat`](HealthMonitor::heartbeat),
/// [`check_into`](HealthMonitor::check_into) and
/// [`rejoin_complete`](HealthMonitor::rejoin_complete) calls driven by
/// simulation events.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    period: Nanos,
    k: u64,
    /// Last heartbeat heard per node; nodes start "seen at zero" so a
    /// fresh monitor grants every node `k` periods of grace.
    last_seen: Vec<Nanos>,
    state: Vec<WorkerState>,
}

impl HealthMonitor {
    /// Monitor `n_nodes` with the given probe period, suspecting after
    /// `k` silent periods. `k >= 2` is sensible (1 risks false positives
    /// from a single unlucky probe drop).
    pub fn new(n_nodes: usize, period: Nanos, k: u64) -> Self {
        assert!(!period.is_zero() && k > 0, "degenerate health config");
        HealthMonitor {
            period,
            k,
            last_seen: vec![Nanos::ZERO; n_nodes],
            state: vec![WorkerState::Alive; n_nodes],
        }
    }

    /// A probe from `node` arrived at `now`. Returns `true` on a
    /// suspect → rejoining recovery transition (the driver then starts
    /// charging the rejoin cost); probes from alive or already-rejoining
    /// workers only refresh the silence clock.
    pub fn heartbeat(&mut self, node: usize, now: Nanos) -> bool {
        self.last_seen[node] = now;
        if self.state[node] == WorkerState::Suspect {
            self.state[node] = WorkerState::Rejoining;
            true
        } else {
            false
        }
    }

    /// Sweep for nodes whose silence exceeded `k` periods at `now`,
    /// appending newly-suspected entries to `out` in ascending node
    /// order (determinism: callers fold these into reports). Both alive
    /// and rejoining workers can be suspected — a worker crashing again
    /// mid-rejoin is reported with [`Suspicion::was_rejoining`] set;
    /// already-suspect workers are never re-reported (no double-count).
    pub fn check_into(&mut self, now: Nanos, out: &mut Vec<Suspicion>) {
        let budget = self.period * self.k;
        for (n, (&seen, state)) in
            self.last_seen.iter().zip(self.state.iter_mut()).enumerate()
        {
            if *state != WorkerState::Suspect && seen + budget < now {
                let was_rejoining = *state == WorkerState::Rejoining;
                *state = WorkerState::Suspect;
                out.push(Suspicion { node: n, was_rejoining });
            }
        }
    }

    /// The worker paid its rejoin cost: promote rejoining → alive.
    /// Returns `false` (and changes nothing) when the worker is not
    /// rejoining — e.g. it was re-suspected while the completion was in
    /// flight.
    pub fn rejoin_complete(&mut self, node: usize) -> bool {
        if self.state[node] == WorkerState::Rejoining {
            self.state[node] = WorkerState::Alive;
            true
        } else {
            false
        }
    }

    /// Current state of `node`.
    #[inline]
    pub fn state(&self, node: usize) -> WorkerState {
        self.state[node]
    }

    /// True when `node` is fully alive (routable). Rejoining workers are
    /// *not* alive: they re-enter the routing set only after
    /// [`rejoin_complete`](HealthMonitor::rejoin_complete).
    #[inline]
    pub fn is_alive(&self, node: usize) -> bool {
        self.state[node] == WorkerState::Alive
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_routes_ops_to_tables() {
        let corrupt = FaultPlan { corrupt_chance: 1.0, ..FaultPlan::NONE };
        let script = ScenarioScript::new()
            .crash(1, Nanos(100), Nanos(200))
            .flap(2, 0.5, Nanos(50), Nanos(60))
            .storm(0, corrupt.window(Nanos(10), Nanos(20)))
            .straggle(3, 4.0, Nanos(0), Nanos(1_000));
        let c = script.compile(4);
        assert_eq!(c.down[1], vec![(Nanos(100), Nanos(200))]);
        assert!(c.down[0].is_empty());
        assert_eq!(c.faults[2].plan_at(Nanos(55)).drop_chance, 0.5);
        assert!(c.faults[2].plan_at(Nanos(60)).is_none());
        assert_eq!(c.faults[0].plan_at(Nanos(15)).corrupt_chance, 1.0);
        assert_eq!(c.straggle_factor(3, Nanos(500)), 4.0);
        assert_eq!(c.straggle_factor(3, Nanos(1_000)), 1.0);
        assert_eq!(c.straggle_factor(2, Nanos(500)), 1.0);
    }

    #[test]
    #[should_panic(expected = "crash names node")]
    fn compile_rejects_out_of_range_nodes() {
        ScenarioScript::new()
            .crash(9, Nanos(0), Nanos(1))
            .compile(4);
    }

    #[test]
    fn health_monitor_suspects_and_recovers_through_rejoin() {
        let period = Nanos(1_000);
        let mut hm = HealthMonitor::new(2, period, 3);
        let mut out = Vec::new();
        // Fresh monitor: grace until k periods pass.
        hm.check_into(Nanos(3_000), &mut out);
        assert!(out.is_empty());
        hm.heartbeat(0, Nanos(3_000));
        hm.heartbeat(1, Nanos(3_000));
        // Node 1 goes silent: its budget runs out k periods after its
        // last probe (3_000 + 3 × 1_000).
        hm.heartbeat(0, Nanos(6_000));
        hm.check_into(Nanos(6_000), &mut out);
        assert!(out.is_empty(), "within budget");
        hm.check_into(Nanos(6_001), &mut out);
        assert_eq!(out, vec![Suspicion { node: 1, was_rejoining: false }]);
        assert_eq!(hm.state(1), WorkerState::Suspect);
        assert!(!hm.is_alive(1));
        assert!(hm.is_alive(0));
        // Re-sweeping does not re-report (no double-count).
        hm.check_into(Nanos(7_000), &mut out);
        assert_eq!(out.len(), 1);
        // A probe moves it to rejoining — exactly once, and NOT yet
        // routable: recovery has a cost.
        assert!(hm.heartbeat(1, Nanos(8_000)));
        assert!(!hm.heartbeat(1, Nanos(8_100)));
        assert_eq!(hm.state(1), WorkerState::Rejoining);
        assert!(!hm.is_alive(1));
        // Only the paid-up rejoin re-admits it.
        assert!(hm.rejoin_complete(1));
        assert!(hm.is_alive(1));
        assert!(!hm.rejoin_complete(1), "already alive");
    }

    /// Satellite regression: repeated suspect → recover → suspect cycles
    /// on one worker. Each full outage reports exactly one suspicion
    /// (counters must not double-count), the detector re-arms after
    /// recovery, and a crash mid-rejoin is flagged so the driver can
    /// void its pending rejoin completion.
    #[test]
    fn health_monitor_rearms_across_repeated_cycles() {
        let period = Nanos(1_000);
        let mut hm = HealthMonitor::new(1, period, 2);
        let mut out = Vec::new();
        hm.heartbeat(0, Nanos(1_000));
        // Cycle 1: silence → one suspicion, stable across re-sweeps.
        hm.check_into(Nanos(3_001), &mut out);
        hm.check_into(Nanos(4_000), &mut out);
        hm.check_into(Nanos(5_000), &mut out);
        assert_eq!(out, vec![Suspicion { node: 0, was_rejoining: false }]);
        // Recover, pay the cost, re-admit.
        assert!(hm.heartbeat(0, Nanos(6_000)));
        assert!(hm.rejoin_complete(0));
        // Cycle 2: the detector must have re-armed — a fresh outage is a
        // fresh suspicion.
        out.clear();
        hm.check_into(Nanos(8_001), &mut out);
        assert_eq!(out, vec![Suspicion { node: 0, was_rejoining: false }]);
        // Recover again, but crash *mid-rejoin* this time: the sweep
        // reports it with was_rejoining so the pending rejoin is void.
        assert!(hm.heartbeat(0, Nanos(9_000)));
        assert_eq!(hm.state(0), WorkerState::Rejoining);
        out.clear();
        hm.check_into(Nanos(11_001), &mut out);
        assert_eq!(out, vec![Suspicion { node: 0, was_rejoining: true }]);
        assert!(!hm.rejoin_complete(0), "stale completion must not resurrect a suspect");
        assert_eq!(hm.state(0), WorkerState::Suspect);
    }

    #[test]
    fn domain_ops_expand_to_member_ops() {
        let domain = ScenarioScript::new()
            .domain("rack0", &[2, 0, 3])
            .crash_domain("rack0", Nanos(100), Nanos(200));
        let manual = ScenarioScript::new()
            .crash(2, Nanos(100), Nanos(200))
            .crash(0, Nanos(100), Nanos(200))
            .crash(3, Nanos(100), Nanos(200));
        assert_eq!(domain.ops, manual.ops, "domain ops expand in member order");
        assert_eq!(domain.compile(4), manual.compile(4));
        assert_eq!(domain.domains.len(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown fault domain")]
    fn unregistered_domain_panics() {
        ScenarioScript::new().crash_domain("rack9", Nanos(0), Nanos(1));
    }

    #[test]
    fn gray_ops_compile_to_port_and_link_tables() {
        let c = ScenarioScript::new()
            .op(ScenarioOp::Gray {
                node: 1,
                src: None,
                drop: 0.02,
                delay: Nanos(500),
                from: Nanos(100),
                until: Nanos(900),
            })
            .gray_link(0, 2, 0.05, Nanos(250), Nanos(200), Nanos(800))
            .compile(3);
        // Port-wide gray: destination 1's node timeline.
        let p = c.faults[1].plan_at(Nanos(400));
        assert_eq!(p.drop_chance, 0.02);
        assert_eq!(p.max_extra_delay, Nanos(500));
        assert_eq!(p.corrupt_chance, 0.0);
        // Link gray: only on (0 → 2), not on node 2's port timeline.
        assert!(c.faults[2].is_none());
        assert_eq!(c.links[2].len(), 1);
        let (src, tl) = &c.links[2][0];
        assert_eq!(*src, 0);
        assert_eq!(tl.plan_at(Nanos(500)).drop_chance, 0.05);
        assert!(tl.plan_at(Nanos(900)).is_none());
        assert!(c.links[0].is_empty() && c.links[1].is_empty());
    }
}
