//! The ingress's health plane: heartbeat liveness, costed rejoin,
//! differential gray-failure detection — and the one placement scan that
//! reads all three. Everything here updates in ingress event order, so it
//! is byte-identical at every shard count and execution mode.
//!
//! # Chaos scenarios, health detection and failover
//!
//! With [`ClusterShardedConfig::chaos`](super::ClusterShardedConfig::chaos)
//! set, the run replays a [`ScenarioScript`](palladium_simnet::ScenarioScript)
//! (node crashes as deterministic partition windows, link flaps/storms as
//! per-node [`palladium_simnet::FaultTimeline`]s, stragglers as cost
//! multipliers) and turns on the health plane: every worker sends
//! heartbeats to the ingress each [`HEARTBEAT_PERIOD`], and the ingress
//! suspects a worker after [`HEARTBEAT_K`] silent periods. Its sweep
//! abandons every request in flight on that pair, counted honestly as
//! `inflight_lost`. A closed-loop request then retires as lost and its
//! client re-issues against a surviving pair; an open-loop one goes to its
//! retry budget. Fault verdicts draw from per-node
//! [`palladium_simnet::SimRng::stream`]s keyed by global node id, and every
//! shard holds identical scenario tables, so a chaos run is byte-identical
//! at every shard count and execution mode (`tests/chaos_cluster.rs` pins
//! it). With `chaos` unset no heartbeat or health-check events are ever
//! scheduled and the event schedule is exactly the fault-free one — the
//! pre-chaos golden traces hold.
//!
//! # Costed rejoin
//!
//! Recovery is not free. When a suspected worker's heartbeats resume,
//! [`HealthMonitor`] moves it to **Rejoining** — still out of the routing
//! set — and the ingress schedules [`Ev::RejoinDone`] after the configured
//! [`RejoinCosts`](crate::connpool::RejoinCosts): serialized per-QP
//! re-establishment (Swift's control-plane bottleneck), one MR/pool
//! re-registration, and a state re-sync transfer proportional to the
//! worker's pool bytes. Only the paid-up completion re-admits the pair; a
//! worker that goes silent again mid-rejoin aborts the pending completion
//! (a per-worker epoch voids the stale event) and counts as
//! `rejoins_aborted`. The QPs themselves persist across the outage —
//! go-back-N redelivers once the partition lifts (dense per-RNIC QP tables
//! are what keep QPN wiring shard-count invariant) — so the rejoin models
//! the *control-plane time* of re-establishment
//! ([`crate::connpool::RejoinCosts::cost`]). Time-to-recovery
//! (suspicion → paid re-admission) lands in a [`Histogram`]
//! (`ttr_p50`/`ttr_p99` in [`ChaosReport`]).
//!
//! # Gray-failure detection
//!
//! Gray faults (low-rate directed drop/latency inflation, compiled into
//! per-link [`palladium_simnet::FaultTimeline`]s) sit *below* the
//! heartbeat-miss threshold: probes still arrive, so the monitor never
//! suspects anyone. Detection is differential instead: the ingress keeps a
//! per-pair EWMA of end-to-end latency (each lost in-flight request
//! charges [`LOSS_PENALTY`]), and each health sweep compares pairs against
//! the *best* pair's EWMA. A pair whose score exceeds [`GRAY_ENTER`] × the
//! baseline moves to probation (routing deflects to healthy pairs, counted
//! as `gray_reroutes`). It is readmitted with hysteresis at [`GRAY_EXIT`] ×
//! once probe traffic — every [`PROBE_EVERY`]-th preferred request is
//! still admitted — pulls the EWMA back down.

use palladium_membuf::NodeId;
use palladium_rdma::Packet;
use palladium_simnet::{Effects, HealthMonitor, Histogram, Nanos, Outbox, Suspicion, WorkerState};

use super::{ChaosReport, ClusterShard, Ev, IngressState, Phase, ReqState, Terminal};

/// Worker → ingress heartbeat probe period, which is also the health
/// sweep's period.
pub(super) const HEARTBEAT_PERIOD: Nanos = Nanos::from_micros(50);
/// Silent heartbeat periods before the ingress suspects a worker.
const HEARTBEAT_K: u64 = 3;

/// Smoothing factor of the per-pair latency scores.
const GRAY_ALPHA: f64 = 0.125;
/// A pair whose score exceeds this many times the best pair's is demoted
/// to probation.
const GRAY_ENTER: f64 = 2.0;
/// A probationary pair whose score falls back to this many times the best
/// pair's is restored (below [`GRAY_ENTER`]: hysteresis).
const GRAY_EXIT: f64 = 1.4;
/// Completed samples before a pair takes part in the comparison, both as
/// baseline and as demotion candidate.
const GRAY_MIN_SAMPLES: u64 = 16;
/// On probation, every `PROBE_EVERY`-th preferred request is still
/// admitted so the score can observe recovery.
const PROBE_EVERY: u64 = 8;
/// Latency charged to a pair's score for each in-flight request abandoned
/// on it: losses must hurt the score, not just vanish.
const LOSS_PENALTY: Nanos = Nanos::from_millis(10);

/// Heartbeat bookkeeping, per-worker rejoin tracking and per-pair
/// gray-failure scores, owned by the ingress on chaos runs.
pub(super) struct IngressChaos {
    /// Liveness belief over all worker nodes.
    pub(super) health: HealthMonitor,
    /// What a recovering worker pays before it is routable again.
    rejoin_bill: Nanos,
    /// When each worker was last suspected (TTR measurement anchor).
    suspected_at: Vec<Nanos>,
    /// Per-worker rejoin epoch: bumped on every recovery *and* on every
    /// crash mid-rejoin, so a stale [`Ev::RejoinDone`] never re-admits a
    /// worker that went silent after it was scheduled.
    rejoin_epoch: Vec<u64>,
    /// Time-to-recovery: suspicion → paid re-admission.
    pub(super) ttr: Histogram,
    /// Per-pair EWMA of end-to-end latency (nanoseconds).
    ewma: Vec<f64>,
    /// Samples observed per pair (gates the differential comparison).
    ewma_n: Vec<u64>,
    /// Pairs currently demoted to probation routing weight.
    probation: Vec<bool>,
    /// Per-pair probe admission counter while on probation.
    probe_tick: Vec<u64>,
    /// Scratch for the health sweep: newly suspected workers, and the
    /// in-flight requests lost with them (retired, or handed to the retry
    /// budget, once the sweep is done).
    newly: Vec<Suspicion>,
    lost: Vec<u64>,
}

impl IngressChaos {
    pub(super) fn new(pairs: usize, rejoin_bill: Nanos) -> Self {
        IngressChaos {
            health: HealthMonitor::new(2 * pairs, HEARTBEAT_PERIOD, HEARTBEAT_K),
            rejoin_bill,
            suspected_at: vec![Nanos::ZERO; 2 * pairs],
            rejoin_epoch: vec![0; 2 * pairs],
            ttr: Histogram::new(),
            ewma: vec![0.0; pairs],
            ewma_n: vec![0; pairs],
            probation: vec![false; pairs],
            probe_tick: vec![0; pairs],
            newly: Vec::new(),
            lost: Vec::new(),
        }
    }

    /// Both of pair `p`'s workers are believed alive. Suspected *and*
    /// rejoining workers are not — re-admission is paid for, not assumed.
    fn pair_alive(&self, p: usize) -> bool {
        self.health.is_alive(2 * p) && self.health.is_alive(2 * p + 1)
    }

    /// Fold one latency observation into `pair`'s EWMA score.
    pub(super) fn observe(&mut self, pair: usize, sample: Nanos) {
        let s = sample.as_nanos() as f64;
        if self.ewma_n[pair] == 0 {
            self.ewma[pair] = s;
        } else {
            self.ewma[pair] += GRAY_ALPHA * (s - self.ewma[pair]);
        }
        self.ewma_n[pair] += 1;
    }

    /// A request in flight on `pair` was abandoned: the worst latency
    /// signal there is, so charge it to the pair's score.
    pub(super) fn observe_loss(&mut self, pair: usize) {
        self.observe(pair, LOSS_PENALTY);
    }

    /// Differential gray-failure sweep (run from each health check):
    /// compare every heartbeat-alive pair's EWMA against the best such
    /// pair. Scores more than [`GRAY_ENTER`] × the baseline demote to
    /// probation; probationary scores back under [`GRAY_EXIT`] × restore.
    /// The best pair can never demote (its EWMA *is* the baseline), so the
    /// comparison needs no absolute latency threshold.
    fn gray_sweep(&mut self, counts: &mut ChaosReport) {
        let eligible = |p: usize, cx: &IngressChaos| cx.pair_alive(p) && cx.ewma_n[p] >= GRAY_MIN_SAMPLES;
        let Some(best) = (0..self.ewma.len())
            .filter(|&p| eligible(p, self))
            .map(|p| self.ewma[p])
            .reduce(f64::min)
        else {
            return; // no baseline yet (warm-up, or everything is down)
        };
        for p in 0..self.ewma.len() {
            if !eligible(p, self) {
                continue;
            }
            if !self.probation[p] && self.ewma[p] > GRAY_ENTER * best {
                self.probation[p] = true;
                counts.gray_demoted += 1;
            } else if self.probation[p] && self.ewma[p] <= GRAY_EXIT * best {
                self.probation[p] = false;
                counts.gray_restored += 1;
            }
        }
    }

    /// A heartbeat from worker `n` reached the ingress. On a suspect →
    /// rejoining transition the worker re-enters routing only after paying
    /// the control-plane rejoin cost: returns `(bill, epoch)` of the
    /// [`Ev::RejoinDone`] to schedule.
    fn heartbeat(&mut self, now: Nanos, n: usize, counts: &mut ChaosReport) -> Option<(Nanos, u64)> {
        if !self.health.heartbeat(n, now) {
            return None;
        }
        counts.recovered += 1;
        self.rejoin_epoch[n] += 1;
        Some((self.rejoin_bill, self.rejoin_epoch[n]))
    }

    /// Worker `n` finished paying the rejoin scheduled under `epoch`.
    /// Stale completions (epoch mismatch after a crash mid-rejoin) and
    /// already-resolved workers are no-ops.
    fn rejoin_done(&mut self, now: Nanos, n: usize, epoch: u64, counts: &mut ChaosReport) {
        if self.rejoin_epoch[n] == epoch
            && self.health.state(n) == WorkerState::Rejoining
            && self.health.rejoin_complete(n)
        {
            counts.rejoins += 1;
            self.ttr.record(now - self.suspected_at[n]);
        }
    }

    /// Worker `s.node` was just suspected: anchor its time-to-recovery, and
    /// if it crashed mid-rejoin void the pending completion so a stale
    /// [`Ev::RejoinDone`] cannot re-admit a silent worker.
    fn suspect(&mut self, now: Nanos, s: Suspicion, counts: &mut ChaosReport) {
        self.suspected_at[s.node] = now;
        if s.was_rejoining {
            counts.rejoins_aborted += 1;
            self.rejoin_epoch[s.node] += 1;
        }
    }
}

/// What placement reads about the worker pairs: heartbeat liveness and
/// probation (with the probe tick it advances) on chaos runs, breaker
/// deadlines on overload runs — each absent on runs without that plane —
/// and where deflections are attributed.
pub(super) struct PairView<'a> {
    pub(super) chaos: Option<&'a mut IngressChaos>,
    /// Per pair: `ZERO` = closed, else shedding until that instant.
    pub(super) breaker_until: Option<&'a [Nanos]>,
    pub(super) counts: &'a mut ChaosReport,
}

impl PairView<'_> {
    /// Pick the pair serving a request that prefers `pref`, scanning the
    /// active prefix `0..n_active` upward from it. A pair qualifies when
    /// both workers are believed alive, it is not deflected by gray
    /// probation — a probationary *preferred* pair still receives every
    /// [`PROBE_EVERY`]-th request so its EWMA can observe recovery, and
    /// nothing is ever deflected *onto* a gray pair — and its circuit
    /// breaker is closed or due a half-open probe (this admission then
    /// *is* the probe). `None` means every active pair is shedding at the
    /// source. The closed loop passes `req % pairs` over all pairs and
    /// falls back to the preferred pair — the request then rides the
    /// transport's retry machinery; the open loop counts `shed_breaker`
    /// and hands the request to its retry budget instead of piling onto a
    /// broken pair.
    pub(super) fn place(&mut self, pref: usize, n_active: usize, now: Nanos) -> Option<usize> {
        for off in 0..n_active {
            let p = (pref + off) % n_active;
            if let Some(cx) = self.chaos.as_deref_mut() {
                if !cx.pair_alive(p) {
                    continue;
                }
                if cx.probation[p] {
                    if p != pref {
                        continue; // never deflect *onto* a gray pair
                    }
                    cx.probe_tick[p] += 1;
                    if !cx.probe_tick[p].is_multiple_of(PROBE_EVERY) {
                        continue; // deflected; only probes get through
                    }
                }
            }
            if self.breaker_until.is_some_and(|until| until[p] != Nanos::ZERO && now < until[p]) {
                continue; // breaker open: shed at the source
            }
            if p != pref {
                // Attribute the deflection: a preferred pair whose
                // heartbeats are fine but which sits on probation was
                // skipped by gray detection; everything else (dead pair,
                // open breaker) is an ordinary reroute.
                let gray = self
                    .chaos
                    .as_deref()
                    .is_some_and(|cx| cx.pair_alive(pref) && cx.probation[pref]);
                if gray {
                    self.counts.gray_reroutes += 1;
                } else {
                    self.counts.reroutes += 1;
                }
            }
            return Some(p);
        }
        None
    }
}

impl IngressState {
    /// The suspicion sweep. Every request in flight on a pair that lost a
    /// node is abandoned: the closed loop retires it as lost and re-issues
    /// its client against a surviving pair; the open loop hands it to the
    /// retry budget (abandoning charged the pair's breaker). Queued and
    /// backing-off requests have no live attempt to lose. Each scan walks
    /// the live requests in id order, which keeps the accounting (and the
    /// retry schedule) deterministic and costs O(live requests).
    fn health_check(&mut self, now: Nanos, fx: &mut Effects<'_, Ev>) {
        let cx = self.chaos.as_mut().expect("chaos run");
        let mut newly = std::mem::take(&mut cx.newly);
        let mut lost = std::mem::take(&mut cx.lost);
        newly.clear();
        lost.clear();
        cx.health.check_into(now, &mut newly);
        self.counts.suspected += newly.len() as u64;
        for &s in &newly {
            let pair = s.node / 2;
            self.chaos.as_mut().expect("chaos run").suspect(now, s, &mut self.counts);
            let swept = lost.len();
            let on_pair = |st: &ReqState| st.pair as usize == pair && st.phase == Phase::InFlight;
            lost.extend(self.reqs.iter().filter(|(_, st)| on_pair(st)).map(|(req, _)| req));
            for &req in &lost[swept..] {
                self.counts.inflight_lost += 1;
                self.chaos.as_mut().expect("chaos run").observe_loss(pair);
                self.abandon(now, req);
            }
        }
        for &req in &lost {
            if self.overload.is_some() {
                self.fail_or_retry(now, fx, req);
            } else {
                let client = self.reqs.live(req).client as usize;
                self.retire(now, req, Terminal::Lost);
                fx.at(now, Ev::Issue { client });
            }
        }
        if self.overload.is_some() && !lost.is_empty() {
            self.drain_queue(now, fx);
        }
        let cx = self.chaos.as_mut().expect("chaos run");
        cx.gray_sweep(&mut self.counts);
        cx.newly = newly;
        cx.lost = lost;
    }
}

impl ClusterShard {
    /// A heartbeat from worker `from` reached the ingress node.
    pub(super) fn on_heartbeat_seen(&mut self, now: Nanos, fx: &mut Effects<'_, Ev>, from: NodeId) {
        let ing = self.ingress.as_mut().expect("heartbeats land on the ingress shard");
        let n = from.raw() as usize;
        let rejoin = ing.chaos.as_mut().and_then(|cx| cx.heartbeat(now, n, &mut ing.counts));
        if let Some((bill, epoch)) = rejoin {
            fx.after(bill, Ev::RejoinDone { n, epoch });
        }
    }

    /// The health plane's share of the event alphabet (chaos runs only).
    pub(super) fn on_health_event(
        &mut self,
        now: Nanos,
        ev: Ev,
        fx: &mut Effects<'_, Ev>,
        out: &mut Outbox<Packet>,
    ) {
        match ev {
            Ev::HeartbeatTick { n } => {
                // Probe the ingress and reschedule. A crashed node keeps
                // "sending" — its frames die at the destination's
                // partition check, which is exactly what lets the ingress
                // miss them.
                let mut step = std::mem::take(&mut self.post_step);
                step.clear();
                let (from, to) = (NodeId(n as u16), NodeId(self.ingress_node as u16));
                self.net.send_heartbeat_into(now, from, to, &mut step);
                fx.extend_drain(&mut step.events, Ev::Rdma);
                self.route_egress(now, out, &mut step);
                self.post_step = step;
                fx.after(HEARTBEAT_PERIOD, Ev::HeartbeatTick { n });
            }
            Ev::HealthCheck => {
                let ing = self.ingress.as_mut().expect("health check on ingress shard");
                ing.health_check(now, fx);
                fx.after(HEARTBEAT_PERIOD, Ev::HealthCheck);
            }
            Ev::RejoinDone { n, epoch } => {
                let ing = self.ingress.as_mut().expect("rejoin on ingress shard");
                if let Some(cx) = ing.chaos.as_mut() {
                    cx.rejoin_done(now, n, epoch, &mut ing.counts);
                }
            }
            _ => unreachable!("not a health-plane event"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::cluster_sharded::testkit::{handle, ingress, request, BILL};
    use crate::driver::cluster_sharded::{OverloadConfig, RetryPolicy};
    use crate::ingress::Leg;
    use palladium_simnet::OpenLoopConfig;

    const PERIOD: Nanos = HEARTBEAT_PERIOD;
    const LATE: Nanos = Nanos::from_millis(1);

    /// Chaos state over `pairs` pairs at [`LATE`], with exactly the workers
    /// in `dead` suspected (silent since t = 0, far past 3 periods).
    fn chaos(pairs: usize, dead: &[usize]) -> IngressChaos {
        let mut cx = IngressChaos::new(pairs, BILL);
        for n in (0..2 * pairs).filter(|n| !dead.contains(n)) {
            cx.health.heartbeat(n, LATE);
        }
        cx.health.check_into(LATE, &mut Vec::new());
        cx
    }

    /// Give `pair` a settled score of `ewma_us` µs over `samples` samples.
    fn score(cx: &mut IngressChaos, pair: usize, ewma_us: u64, samples: u64) {
        for _ in 0..samples {
            cx.observe(pair, Nanos::from_micros(ewma_us));
        }
    }

    #[test]
    fn the_first_sample_seeds_the_score_and_later_ones_are_smoothed() {
        let mut cx = chaos(2, &[]);
        cx.observe(1, Nanos(8_000));
        assert_eq!((cx.ewma[1], cx.ewma_n[1]), (8_000.0, 1));
        cx.observe(1, Nanos(16_000));
        assert_eq!((cx.ewma[1], cx.ewma_n[1]), (9_000.0, 2), "alpha = 1/8");
        cx.observe_loss(1);
        assert_eq!(cx.ewma[1], 9_000.0 + 0.125 * (10_000_000.0 - 9_000.0), "10 ms loss penalty");
        assert_eq!(cx.ewma_n[0], 0, "scores are per pair");
    }

    #[test]
    fn the_sweep_demotes_above_enter_restores_at_exit_and_holds_in_between() {
        // Enter 2.0 ×, exit 1.4 ×, against a 100 µs best pair.
        let cases = [
            (false, 200, false, (0, 0)), // exactly enter ×: not above it
            (false, 201, true, (1, 0)),
            (true, 201, true, (0, 0)),
            (true, 141, true, (0, 0)), // inside the band: hold
            (false, 199, false, (0, 0)),
            (true, 140, false, (0, 1)), // exactly exit ×: restored
        ];
        for (on_probation, ewma_us, want, (demoted, restored)) in cases {
            let mut cx = chaos(2, &[]);
            let mut counts = ChaosReport::default();
            score(&mut cx, 0, 100, 16);
            score(&mut cx, 1, ewma_us, 16);
            cx.probation[1] = on_probation;
            cx.gray_sweep(&mut counts);
            let what = format!("{ewma_us} µs, on probation: {on_probation}");
            assert_eq!(cx.probation, [false, want], "{what}");
            assert_eq!((counts.gray_demoted, counts.gray_restored), (demoted, restored), "{what}");
        }
    }

    #[test]
    fn the_sweep_ignores_pairs_under_min_samples_as_candidate_and_as_baseline() {
        let mut counts = ChaosReport::default();
        let mut cx = chaos(3, &[]);
        score(&mut cx, 0, 100, 16);
        score(&mut cx, 1, 900, 15); // one short of GRAY_MIN_SAMPLES
        cx.gray_sweep(&mut counts);
        assert_eq!(cx.probation, [false; 3], "too few samples to demote");
        // An under-sampled fast pair is no baseline: 300 vs 200 µs holds.
        let mut cx = chaos(3, &[]);
        score(&mut cx, 0, 10, 3);
        score(&mut cx, 1, 200, 16);
        score(&mut cx, 2, 300, 16);
        cx.gray_sweep(&mut counts);
        assert_eq!((cx.probation, counts.gray_demoted), (vec![false; 3], 0));
    }

    #[test]
    fn the_sweep_never_demotes_the_best_pair_and_skips_dead_ones() {
        let mut counts = ChaosReport::default();
        let mut cx = chaos(3, &[1]); // pair 0's second worker is down
        score(&mut cx, 0, 10, 16);
        score(&mut cx, 1, 500, 16);
        score(&mut cx, 2, 5_000, 16);
        cx.gray_sweep(&mut counts);
        // Pair 1 is the best *alive* pair: its own score is the baseline.
        assert_eq!((cx.probation, counts.gray_demoted), (vec![false, false, true], 1));
    }

    #[test]
    fn the_sweep_returns_early_with_no_eligible_pair() {
        let mut counts = ChaosReport::default();
        let mut cx = chaos(2, &[0, 2]); // both pairs have a dead worker
        score(&mut cx, 0, 100, 16);
        score(&mut cx, 1, 900, 16);
        cx.probation[1] = true;
        cx.gray_sweep(&mut counts);
        assert_eq!(cx.probation, [false, true], "nothing to compare against: hold");
        let mut cx = chaos(2, &[]); // alive, but still warming up
        score(&mut cx, 1, 900, 2);
        cx.gray_sweep(&mut counts);
        assert_eq!((cx.probation, counts), (vec![false; 2], ChaosReport::default()));
    }

    /// `place` over `cx` and optional breaker deadlines, returning the pair
    /// and `(reroutes, gray_reroutes)`.
    fn place(
        cx: Option<&mut IngressChaos>,
        breaker_until: Option<&[Nanos]>,
        pref: usize,
        n_active: usize,
    ) -> (Option<usize>, (u64, u64)) {
        let mut counts = ChaosReport::default();
        let pair = PairView { chaos: cx, breaker_until, counts: &mut counts }.place(pref, n_active, LATE);
        (pair, (counts.reroutes, counts.gray_reroutes))
    }

    #[test]
    fn a_healthy_preferred_pair_is_taken_and_nothing_is_counted() {
        assert_eq!(place(None, None, 2, 4), (Some(2), (0, 0)), "fault-free closed loop");
        assert_eq!(place(Some(&mut chaos(4, &[])), Some(&[Nanos::ZERO; 4]), 2, 4), (Some(2), (0, 0)));
    }

    #[test]
    fn placement_skips_dead_pairs_scanning_upward_and_wrapping() {
        // Workers 4 and 7 down: pairs 2 and 3 are out.
        let mut cx = chaos(4, &[4, 7]);
        for (pref, want) in [(0, (Some(0), (0, 0))), (2, (Some(0), (1, 0))), (3, (Some(0), (1, 0)))] {
            assert_eq!(place(Some(&mut cx), None, pref, 4), want, "preferring pair {pref}");
        }
        // A rejoining worker is not routable either: it has not paid yet.
        assert!(cx.health.heartbeat(4, LATE));
        assert_eq!(place(Some(&mut cx), None, 2, 4), (Some(0), (1, 0)));
        assert!(cx.health.rejoin_complete(4));
        assert_eq!(place(Some(&mut cx), None, 2, 4), (Some(2), (0, 0)));
    }

    #[test]
    fn placement_never_deflects_onto_a_probationary_pair() {
        let mut cx = chaos(3, &[0]); // pair 0 dead
        cx.probation[1] = true;
        assert_eq!(place(Some(&mut cx), None, 0, 3), (Some(2), (1, 0)), "over gray pair 1");
        assert_eq!(cx.probe_tick, [0; 3], "only a *preferred* gray pair ticks its probe");
        cx.probation[2] = true;
        assert_eq!(place(Some(&mut cx), None, 0, 3), (None, (0, 0)), "nowhere to go");
    }

    #[test]
    fn every_probe_everyth_request_reaches_a_probationary_preferred_pair() {
        let mut cx = chaos(2, &[]);
        cx.probation[0] = true;
        let placed: Vec<usize> =
            (0..16).map(|_| place(Some(&mut cx), None, 0, 2).0.expect("pair 1 is healthy")).collect();
        // PROBE_EVERY = 8: requests 8 and 16 are the probes.
        let want: Vec<usize> = (1..=16).map(|k| if k % 8 == 0 { 0 } else { 1 }).collect();
        assert_eq!(placed, want);
        assert_eq!(cx.probe_tick, [16, 0]);
    }

    #[test]
    fn deflections_are_attributed_to_gray_detection_only_when_the_preferred_pair_is_alive() {
        let open = Some(&[Nanos::MAX, Nanos::ZERO][..]);
        // (preferred pair's worker down, on probation, breaker open) → counts.
        let cases = [
            (false, true, false, (0, 1)),  // alive + gray: a gray reroute
            (true, true, false, (1, 0)),   // dead, whatever its probation flag
            (true, false, false, (1, 0)),  // ordinary crash failover
            (false, false, true, (1, 0)),  // healthy but breaker-open
            (false, true, true, (0, 1)),   // gray wins over the breaker
        ];
        for (down, gray, breaker, want) in cases {
            let mut cx = chaos(2, if down { &[1] } else { &[] });
            cx.probation[0] = gray;
            let got = place(Some(&mut cx), breaker.then_some(open).flatten(), 0, 2);
            assert_eq!(got, (Some(1), want), "down {down}, gray {gray}, breaker {breaker}");
        }
        // No health plane at all (overload without chaos): always a reroute.
        assert_eq!(place(None, open, 0, 2), (Some(1), (1, 0)));
    }

    #[test]
    fn an_open_breaker_sheds_at_the_source_until_its_half_open_probe_is_due() {
        for (until, want) in [
            (LATE + Nanos(1), (Some(1), (1, 0))), // still cooling down
            (LATE, (Some(0), (0, 0))),            // due now: this admission is the probe
            (LATE - Nanos(1), (Some(0), (0, 0))),
            (Nanos::ZERO, (Some(0), (0, 0))), // closed
        ] {
            assert_eq!(place(None, Some(&[until, Nanos::ZERO]), 0, 2), want, "until {until}");
        }
    }

    #[test]
    fn none_when_every_active_pair_is_shedding_and_only_the_active_prefix_is_scanned() {
        let open = [Nanos::MAX, Nanos::MAX, Nanos::ZERO, Nanos::ZERO];
        assert_eq!(place(None, Some(&open), 1, 2), (None, (0, 0)), "pairs 2 and 3 are spares");
        assert_eq!(place(None, Some(&open), 1, 3), (Some(2), (1, 0)), "pair 2 activated");
        // Dead pairs and open breakers add up.
        let mut cx = chaos(3, &[4]);
        assert_eq!(place(Some(&mut cx), Some(&open), 0, 3), (None, (0, 0)));
        // The scan wraps inside the prefix: preferring pair 1 of 2 lands on 0.
        assert_eq!(place(None, Some(&[Nanos::ZERO, Nanos::MAX]), 1, 2), (Some(0), (1, 0)));
    }

    #[test]
    fn a_recovering_worker_pays_the_rejoin_bill_before_it_is_routable() {
        let mut counts = ChaosReport::default();
        let mut cx = chaos(2, &[2]);
        cx.suspect(LATE, Suspicion { node: 2, was_rejoining: false }, &mut counts);
        assert_eq!(cx.heartbeat(LATE, 0, &mut counts), None, "an alive worker's probe");
        let back = LATE + PERIOD;
        assert_eq!(cx.heartbeat(back, 2, &mut counts), Some((BILL, 1)));
        assert_eq!(cx.heartbeat(back + PERIOD, 2, &mut counts), None, "already rejoining");
        assert!(!cx.pair_alive(1), "heartbeating again, but not paid up");
        cx.rejoin_done(back + BILL, 2, 1, &mut counts);
        assert!(cx.pair_alive(1));
        assert_eq!((counts.recovered, counts.rejoins, counts.rejoins_aborted), (1, 1, 0));
        // Suspicion → paid re-admission, within the histogram's 3.125 % buckets.
        let (ttr, want) = (cx.ttr.p50().as_nanos(), (PERIOD + BILL).as_nanos());
        assert!(cx.ttr.len() == 1 && ttr.abs_diff(want) * 32 <= want, "{ttr} vs {want}");
        cx.rejoin_done(back + BILL, 2, 1, &mut counts);
        assert_eq!(counts.rejoins, 1, "a repeated completion is a no-op");
    }

    #[test]
    fn a_crash_mid_rejoin_voids_the_pending_completion() {
        let mut counts = ChaosReport::default();
        let mut cx = chaos(2, &[2]);
        let (_, epoch) = cx.heartbeat(LATE, 2, &mut counts).expect("suspect → rejoining");
        // Silent again before the bill is paid: the sweep re-suspects it.
        let mut newly = Vec::new();
        let again = LATE + PERIOD * 4;
        for n in [0, 1, 3] {
            cx.health.heartbeat(n, again);
        }
        cx.health.check_into(again, &mut newly);
        assert_eq!(newly, [Suspicion { node: 2, was_rejoining: true }]);
        cx.suspect(again, newly[0], &mut counts);
        assert_eq!(counts.rejoins_aborted, 1);
        // It comes back once more; the first rejoin's completion is stale.
        let (_, second) = cx.heartbeat(again + PERIOD, 2, &mut counts).expect("recovers again");
        cx.rejoin_done(again + PERIOD, 2, epoch, &mut counts);
        assert!(!cx.pair_alive(1) && counts.rejoins == 0, "stale epoch {epoch}");
        cx.rejoin_done(again + PERIOD + BILL, 2, second, &mut counts);
        assert!(cx.pair_alive(1) && counts.rejoins == 1);
    }

    #[test]
    fn a_stale_response_after_the_sweep_completes_nothing_and_frees_no_slot() {
        // With no retry budget the open loop retires a lost request in the
        // sweep too, as the closed loop always does.
        let mut no_budget = OverloadConfig::new(OpenLoopConfig::poisson(1_000.0, 16), Nanos::from_millis(2));
        no_budget.retry = RetryPolicy { budget: 0, ..RetryPolicy::budgeted() };
        for overload in [None, Some(no_budget)] {
            let open = overload.is_some();
            let mut ing = ingress(2, overload, true);
            // `lost` rides pair 0, whose worker 0 falls silent; `kept` rides
            // pair 1.
            let [lost, kept] = [0, 1].map(|client| request(&mut ing, client, Nanos::ZERO));
            handle(Nanos::ZERO, |fx| {
                for (req, pair) in [(lost, 0), (kept, 1)] {
                    if open {
                        ing.admit(Nanos::ZERO, fx, req, pair);
                    } else {
                        ing.start_on(Nanos::ZERO, fx, req, pair);
                    }
                }
            });
            let cx = ing.chaos.as_mut().expect("health plane on");
            (1..4).for_each(|n| _ = cx.health.heartbeat(n, LATE));
            let swept = handle(LATE, |fx| ing.health_check(LATE, fx));
            let reissued = swept.iter().filter(|(_, ev)| matches!(ev, Ev::Issue { client: 0 })).count();
            let what = format!("open loop: {open}");
            assert_eq!(reissued, usize::from(!open), "{what}");
            assert_eq!((ing.counts.inflight_lost, ing.reqs.get(lost).is_none()), (1, true), "{what}");
            // `lost`'s response was already on its way back: it is dropped.
            assert!(handle(LATE, |fx| ing.complete(LATE, fx, lost)).is_empty(), "{what}");
            assert_eq!(ing.stats.completed(), 0, "{what}: no completion for a retired request");
            assert!(ing.window_is_exact(), "{what}: only `kept` holds a window slot");
            if let Some(ov) = &ing.overload {
                assert_eq!((ov.report.retry_exhausted, ov.report.goodput), (1, 0));
            }
            handle(LATE, |fx| ing.complete(LATE, fx, kept));
            assert_eq!(ing.stats.completed(), 1, "{what}");
            assert!(ing.window_is_exact(), "{what}: `kept` freed the last slot");
        }
    }

    #[test]
    fn a_late_response_to_a_lost_request_rides_its_clients_worker_then_is_dropped() {
        // Client 3's request rides pair 0, whose worker 0 falls silent.
        let client = 3;
        let mut ing = ingress(2, None, true);
        let lost = request(&mut ing, client, Nanos::ZERO);
        handle(Nanos::ZERO, |fx| ing.start_on(Nanos::ZERO, fx, lost, 0));
        let cx = ing.chaos.as_mut().expect("health plane on");
        (1..4).for_each(|n| _ = cx.health.heartbeat(n, LATE));
        handle(LATE, |fx| ing.health_check(LATE, fx));
        assert!(ing.reqs.get(lost).is_none(), "retired as lost");
        assert_eq!(ing.reqs.placement(lost), (client, 0), "its tombstone holds the client");
        // Its response was still in the data plane: the outbound leg is
        // charged on the client's gateway worker, as for a live request.
        let busy = |ing: &IngressState| -> Vec<Nanos> { ing.gw.active_servers().iter().map(|w| w.busy_time()).collect() };
        let before = busy(&ing);
        let out = handle(LATE, |fx| ing.submit(LATE, fx, lost, 0, Leg::Outbound));
        let [(_, Ev::GwOut { req })] = out[..] else { panic!("one outbound leg: {out:?}") };
        assert_eq!(req, lost);
        let charged: Vec<usize> = (0..8).filter(|&w| busy(&ing)[w] > before[w]).collect();
        assert_eq!(charged, [ing.gw.rss_worker(client)], "only the client's worker is charged");
        assert_eq!(charged, [3], "8 gateway workers");
        // Then its `GwOut` finds no live record: the answer is dropped.
        assert!(handle(LATE, |fx| ing.complete(LATE, fx, lost)).is_empty());
        assert_eq!(ing.stats.completed(), 0);
        ing.closed.check(0, 0); // issued 1 = completed 0 + lost 1 + live 0
    }
}
