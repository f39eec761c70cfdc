//! The ingress's overload plane: open-loop arrivals and the degradation
//! machinery that keeps overload survivable — admission control with
//! deadline-aware shedding, per-request retry budgets, a per-pair circuit
//! breaker, and (optionally) costed autoscaler scale-out (see
//! [`OverloadConfig`]).
//!
//! [`IngressOverload`] holds the state and makes the decisions — each a
//! method that reads that state and returns a verdict ([`Verdict`],
//! [`Retry`], a scale-out bill), with no event queue, fabric or cluster in
//! reach; the [`IngressState`] and [`ClusterShard`] blocks below schedule
//! what the verdicts say. Every stochastic draw (arrival gaps, population
//! ranks, retry jitter) comes from stateless [`SimRng::stream`]s keyed by
//! sequence numbers, and every decision executes in ingress event order, so
//! overload runs are byte-identical at every shard count and execution
//! mode like everything else in this driver.
//!
//! An open-loop request arrives [`Phase::Waiting`] and stays there while it
//! is queued or backing off. The in-flight window is
//! [`IngressOverload::inflight`], and only the lifecycle transitions on
//! [`IngressState`] move it: `admit` takes a slot, `abandon` frees it, and
//! `retire` frees it iff the request was in flight. Deadline
//! classification (goodput, late, recovery) stays in
//! [`IngressOverload::complete`], keyed by finish time; `retire` keeps the
//! rest of the ledger ([`OverloadReport::check`]), keyed by when the
//! request ended.

use std::collections::VecDeque;

use palladium_simnet::{Arrival, Effects, Histogram, Nanos, OpenLoop, SimRng};

use super::report::ShedCause;
use super::{
    ClusterShard, Ev, IngressState, OverloadConfig, OverloadReport, Phase, ReqState, RetryPolicy,
    Terminal,
};
use crate::autoscaler::{Autoscaler, AutoscalerConfig, ScaleAction};

/// Stream-id salt for per-request retry-backoff jitter draws: the draw for
/// `(request, attempt)` is stateless, so backoff schedules are byte-identical
/// at every shard count and execution mode.
const RETRY_STREAM: u64 = 0x6265_6F66_6672; // "beoffr"

/// Every `N`-th deadline-infeasible request is admitted anyway. The
/// feasibility estimate only re-learns from completions, so shedding on
/// it unconditionally lets an outage-poisoned EWMA starve the cluster
/// forever — a metastable trap of the admission controller's own making.
/// The probe keeps samples flowing so the estimate can recover.
const DL_PROBE_EVERY: u64 = 8;

/// Smoothing factor of the admission→completion service-latency EWMA that
/// deadline feasibility is judged against.
const EST_ALPHA: f64 = 0.125;

/// The service-latency estimate that EWMA starts from, before any
/// completion has been observed.
const EST_INIT: Nanos = Nanos::from_micros(500);

// `since` grows by one stamp per open-loop arrival.
const _: () = assert!(std::mem::size_of::<Nanos>() <= 8);

/// What admission control says about one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Verdict {
    /// Enter the data plane now.
    Admit,
    /// The in-flight window is full: wait in the admission queue.
    Queue,
    /// Turn it away; the retry budget decides what happens next.
    Shed(ShedCause),
}

/// What the retry budget says about a failed attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Retry {
    /// Re-enter admission at this instant.
    At(Nanos),
    /// Budget spent, or the next attempt cannot land inside the deadline:
    /// an honest client-visible failure, not a zombie retry.
    Exhausted,
}

/// The backoff before retry number `attempt` of `req`: `base × 2^(attempt-1)`
/// up to the cap, jittered within `±jitter_frac` by a draw that is a pure
/// function of `(seed, req, attempt)`.
fn backoff(rp: &RetryPolicy, seed: u64, req: u64, attempt: u32) -> Nanos {
    let exp = attempt.saturating_sub(1).min(16);
    let raw = rp.backoff_base.as_nanos().saturating_mul(1u64 << exp);
    let backoff = Nanos(raw.min(rp.backoff_cap.as_nanos()).max(1));
    let mut rng = SimRng::stream(
        seed ^ RETRY_STREAM,
        req.wrapping_mul(64).wrapping_add(attempt as u64),
    );
    rng.jitter(backoff, rp.jitter_frac).max(Nanos(1))
}

/// Admission control, retry budgets, breaker state and the autoscaler,
/// owned by the ingress. Everything updates in ingress event order.
pub(super) struct IngressOverload {
    ov: OverloadConfig,
    gen: OpenLoop,
    /// The next arrival, pre-drawn so its time can be scheduled.
    next: Arrival,
    /// Per request id, like [`IngressState::reqs`] (every open-loop arrival
    /// is pushed to both): when a queued request entered the queue, or
    /// when an in-flight one was admitted. One stamp serves both, since a
    /// request is never queued and in flight at once. Its deadline is not
    /// stored: it is always [`ReqState::issued`] plus
    /// [`OverloadConfig::deadline`].
    pub(super) since: Vec<Nanos>,
    /// Bounded admission queue of request ids (FIFO).
    queue: VecDeque<u64>,
    /// The in-flight window: how many requests are [`Phase::InFlight`].
    inflight: u64,
    /// EWMA of admission→completion latency (ns), seeding deadline
    /// feasibility; starts at [`EST_INIT`].
    est: f64,
    /// Per-pair breaker: `ZERO` = closed, else shed until that instant
    /// (first admission at/after it is the half-open probe).
    pub(super) breaker_until: Vec<Nanos>,
    /// Per-pair consecutive-failure counter.
    breaker_fails: Vec<u32>,
    /// Deadline-infeasible requests seen (every [`DL_PROBE_EVERY`]-th is
    /// admitted as a probe so the feasibility EWMA can re-learn).
    dl_probe: u64,
    /// The scaling policy engine (present iff `ov.autoscale`).
    scaler: Option<Autoscaler>,
    /// Pairs currently receiving traffic (prefix `0..active_pairs`).
    active_pairs: usize,
    /// A scale-out is paying its bill (evaluation pauses meanwhile).
    activating: bool,
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
    pub(super) ramp: Histogram,
    /// The run's overload accounting, counted in place.
    pub(super) report: OverloadReport,
}

impl IngressOverload {
    pub(super) fn new(
        ov: OverloadConfig,
        pairs: usize,
        seed: u64,
        warmup: Nanos,
        horizon: Nanos,
        scaleout_bill: Nanos,
    ) -> Self {
        let mut gen = OpenLoop::new(&ov.traffic, seed);
        let next = gen.next_arrival();
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
        IngressOverload {
            gen,
            next,
            since: Vec::new(),
            queue: VecDeque::with_capacity(ov.queue_cap.min(4096)),
            inflight: 0,
            est: EST_INIT.as_nanos() as f64,
            breaker_until: vec![Nanos::ZERO; pairs],
            breaker_fails: vec![0; pairs],
            dl_probe: 0,
            scaler,
            active_pairs,
            activating: false,
            leases_left: ov.autoscale.map(|p| p.warm_leases).unwrap_or(0),
            scaleout_bill,
            seed,
            warmup,
            recovery_lo,
            ramp_lo,
            ramp_hi,
            ramp: Histogram::new(),
            report: OverloadReport::default(),
            ov,
        }
    }

    /// When the first arrival lands, and the autoscaler's evaluation
    /// interval when it is on — what the run schedules at t = 0.
    pub(super) fn first_events(&self) -> (Nanos, Option<Nanos>) {
        (self.next.at, self.ov.autoscale.map(|p| p.scaler.eval_interval))
    }

    /// Materialize the pre-drawn arrival landing at `now` as the next
    /// request id's admission stamp and draw its successor. Returns the
    /// arrival's client (its function id) and when the next one lands.
    fn arrive(&mut self, now: Nanos) -> (usize, Nanos) {
        let a = self.next;
        debug_assert_eq!(a.at, now, "arrival lands at its drawn time");
        self.next = self.gen.next_arrival();
        self.report.offered += 1;
        self.since.push(now);
        (a.fn_id as usize, self.next.at)
    }

    /// Where placement starts for a request of function `client`:
    /// `(preferred pair, active pairs)` — its routing hint `client % pairs`
    /// folded onto the active prefix.
    fn preference(&self, client: usize) -> (usize, usize) {
        let active = self.active_pairs.max(1);
        (client % self.breaker_until.len() % active, active)
    }

    /// Record a pair-attributed transport/loss failure; open (or re-arm)
    /// the breaker after `open_after` consecutive ones.
    fn breaker_fail(&mut self, now: Nanos, pair: usize) {
        let pol = self.ov.breaker;
        if pol.open_after == u32::MAX {
            return;
        }
        if self.breaker_until[pair] == Nanos::ZERO {
            self.breaker_fails[pair] += 1;
            if self.breaker_fails[pair] < pol.open_after {
                return;
            }
            self.breaker_fails[pair] = 0;
        }
        // The `open_after`-th failure in a row opens the breaker; a failure
        // while it is open or probing re-arms the cooldown.
        self.breaker_until[pair] = now + pol.cooldown;
        self.report.breaker_opens += 1;
    }

    /// Record a successful completion on `pair`: reset the failure streak
    /// and close the breaker if this was the half-open probe.
    fn breaker_ok(&mut self, now: Nanos, pair: usize) {
        self.breaker_fails[pair] = 0;
        if self.breaker_until[pair] != Nanos::ZERO && now >= self.breaker_until[pair] {
            self.breaker_until[pair] = Nanos::ZERO;
            self.report.breaker_closes += 1;
        }
    }

    /// The deadline half of admission: can a request due by `deadline`
    /// still finish in time with `wait_ahead` queue slots to drain before
    /// it is served (its queue position at enqueue, 0 at dequeue)? Always
    /// yes when deadlines are only measured, and for every
    /// [`DL_PROBE_EVERY`]-th infeasible request.
    fn meets_deadline(&mut self, now: Nanos, deadline: Nanos, wait_ahead: usize) -> bool {
        if !self.ov.shed_on_deadline {
            return true;
        }
        // ETA = queue drain (Little's-law estimate against the in-flight
        // window) + one service time.
        let wait = self.est * wait_ahead as f64 / self.ov.inflight_cap as f64;
        let eta = now.as_nanos() as f64 + wait + self.est;
        if eta <= deadline.as_nanos() as f64 {
            return true;
        }
        self.dl_probe += 1;
        self.dl_probe.is_multiple_of(DL_PROBE_EVERY)
    }

    /// The verdict on an arriving or retrying request, due by `deadline`,
    /// that has a pair to go to: deadline feasibility behind the current
    /// queue, then the in-flight window.
    fn on_arrival(&mut self, now: Nanos, deadline: Nanos) -> Verdict {
        if !self.meets_deadline(now, deadline, self.queue.len() + 1) {
            Verdict::Shed(ShedCause::Deadline)
        } else if self.inflight < self.ov.inflight_cap {
            Verdict::Admit
        } else {
            Verdict::Queue
        }
    }

    /// `req` waited in the queue longer than the queue-delay threshold:
    /// serving it now only makes every later request later.
    fn overstayed(&self, now: Nanos, req: u64) -> bool {
        now - self.since[req as usize] > self.ov.queue_delay_max
    }

    /// Pop the queue's head if it has overstayed (oldest-first shedding,
    /// run before every enqueue).
    fn pop_overstayed(&mut self, now: Nanos) -> Option<u64> {
        let head = *self.queue.front()?;
        if !self.overstayed(now, head) {
            return None;
        }
        self.queue.pop_front()
    }

    /// Queue `req` behind the full window; `false` when the queue is full.
    fn enqueue(&mut self, now: Nanos, req: u64) -> bool {
        if self.queue.len() >= self.ov.queue_cap {
            return false;
        }
        self.since[req as usize] = now;
        self.queue.push_back(req);
        true
    }

    /// While the in-flight window has room, the next queued request and its
    /// verdict at dequeue (`Admit` or `Shed`): staleness and deadline
    /// feasibility (against `deadline_of(req)`) are checked again, now with
    /// nothing ahead of it.
    fn dequeue(&mut self, now: Nanos, deadline_of: impl Fn(u64) -> Nanos) -> Option<(u64, Verdict)> {
        if self.inflight >= self.ov.inflight_cap {
            return None;
        }
        let req = self.queue.pop_front()?;
        let verdict = if self.overstayed(now, req) {
            Verdict::Shed(ShedCause::Admission)
        } else if !self.meets_deadline(now, deadline_of(req), 0) {
            Verdict::Shed(ShedCause::Deadline)
        } else {
            Verdict::Admit
        };
        Some((req, verdict))
    }

    /// `req` enters the data plane (the window side of
    /// [`IngressState::admit`]): take an in-flight slot stamped `now`.
    pub(super) fn admit(&mut self, now: Nanos, req: u64) {
        self.inflight += 1;
        if now >= self.warmup {
            self.report.admitted += 1;
        }
        self.since[req as usize] = now;
    }

    /// An admitted request's attempt on `pair` died in the data plane
    /// (lost with its pair, pool exhausted, QP errored; the window side of
    /// [`IngressState::abandon`]): release its in-flight slot and charge
    /// the pair's breaker.
    pub(super) fn abandon(&mut self, now: Nanos, pair: usize) {
        self.inflight -= 1;
        self.breaker_fail(now, pair);
    }

    /// A request ends as `end` at `at` (the window side of
    /// [`IngressState::retire`]): release its slot if it held one. An end
    /// before warm-up leaves the ledger: it is no longer offered, and an
    /// exhaustion is counted only at or after warm-up.
    pub(super) fn retire(&mut self, at: Nanos, in_flight: bool, end: Terminal) {
        self.inflight -= u64::from(in_flight);
        if at < self.warmup {
            self.report.offered -= 1;
        } else if end == Terminal::RetryExhausted {
            self.report.retry_exhausted += 1;
        }
    }

    /// `req`, issued at `issued` and served by `pair`, completed at `finish`
    /// (`now` plus the client wire) and is retired: update the service
    /// estimate from its admission stamp, classify against the deadline.
    pub(super) fn complete(&mut self, now: Nanos, req: u64, pair: usize, issued: Nanos, finish: Nanos) {
        let sample = (finish - self.since[req as usize]).as_nanos() as f64;
        self.est += EST_ALPHA * (sample - self.est);
        self.breaker_ok(now, pair);
        if finish >= self.warmup {
            if finish <= issued + self.ov.deadline {
                self.report.goodput += 1;
                if finish >= self.recovery_lo {
                    self.report.recovery_goodput += 1;
                }
            } else {
                self.report.late += 1;
            }
        }
        if finish >= self.ramp_lo && finish <= self.ramp_hi {
            self.ramp.record(finish - issued);
        }
    }

    /// Attempt number `attempts` of `req`, due by `deadline`, failed: back
    /// off exponentially with stateless jitter while budget remains, or
    /// give up honestly.
    fn next_retry(&self, now: Nanos, req: u64, attempts: u32, deadline: Nanos) -> Retry {
        let rp = self.ov.retry;
        if attempts <= rp.budget {
            let at = now + backoff(&rp, self.seed, req, attempts);
            if !(self.ov.shed_on_deadline && at > deadline) {
                return Retry::At(at);
            }
        }
        Retry::Exhausted
    }

    /// One autoscaler evaluation. Returns `(pair, bill)` when a scale-out
    /// starts: the new pair is wired (QPNs are invariant) but must pay the
    /// control-plane bill — a leased warm worker's fraction while leases
    /// remain, the full rejoin after — before serving. Evaluation pauses
    /// while an activation is paying: scale-out in progress is its own
    /// cooldown.
    fn scale_tick(&mut self, now: Nanos) -> Option<(usize, Nanos)> {
        let pol = self.ov.autoscale?;
        if self.activating {
            return None;
        }
        let denom = (self.active_pairs as u64 * pol.target_inflight_per_pair).max(1) as f64;
        let util = (self.inflight + self.queue.len() as u64) as f64 / denom;
        match self.scaler.as_mut().expect("autoscale on").evaluate_at(now, util) {
            ScaleAction::Up => {
                self.activating = true;
                let bill = if self.leases_left > 0 {
                    self.leases_left -= 1;
                    self.report.lease_hits += 1;
                    self.scaleout_bill.scale(pol.lease_fraction)
                } else {
                    self.report.rejoin_bills += 1;
                    self.scaleout_bill
                };
                Some((self.active_pairs, bill.max(Nanos(1))))
            }
            ScaleAction::Down => {
                debug_assert!(self.active_pairs > 1, "scaler min bounds this");
                self.active_pairs = (self.active_pairs - 1).max(1);
                self.report.scale_downs += 1;
                None
            }
            ScaleAction::Hold => None,
        }
    }

    /// The scale-out of `pair` finished paying: it serves from now on.
    fn scale_out_done(&mut self, pair: usize) {
        self.active_pairs = (pair + 1).min(self.breaker_until.len());
        self.activating = false;
        self.report.scale_ups += 1;
    }
}

impl IngressState {
    fn overload_mut(&mut self) -> &mut IngressOverload {
        self.overload.as_mut().expect("overload mode")
    }

    /// `req`'s propagated deadline: its arrival plus the configured budget.
    fn deadline(&self, req: u64) -> Nanos {
        self.reqs[req as usize].issued + self.overload.as_ref().expect("overload mode").ov.deadline
    }

    /// Pick the pair serving `req` (see [`super::health::PairView::place`]).
    fn place(&mut self, now: Nanos, req: u64) -> Option<usize> {
        let client = self.reqs[req as usize].client as usize;
        let (pref, active) = self.overload_mut().preference(client);
        self.pairs().place(pref, active, now)
    }

    /// Full admission pipeline for an arriving or retrying request:
    /// breaker/health pair selection (sheds at the source), deadline
    /// feasibility under the backlog estimate, then the bounded queue with
    /// oldest-first shedding past the queue-delay threshold.
    fn try_admit(&mut self, now: Nanos, fx: &mut Effects<'_, Ev>, req: u64) {
        let Some(pair) = self.place(now, req) else {
            return self.shed(now, fx, req, ShedCause::Breaker);
        };
        let deadline = self.deadline(req);
        match self.overload_mut().on_arrival(now, deadline) {
            Verdict::Admit => self.admit(now, fx, req, pair),
            Verdict::Shed(cause) => self.shed(now, fx, req, cause),
            Verdict::Queue => {
                while let Some(head) = self.overload_mut().pop_overstayed(now) {
                    self.shed(now, fx, head, ShedCause::Admission);
                }
                if !self.overload_mut().enqueue(now, req) {
                    self.shed(now, fx, req, ShedCause::Admission);
                }
            }
        }
    }

    /// Refill the in-flight window from the admission queue; pair
    /// availability is re-checked at dequeue too.
    pub(super) fn drain_queue(&mut self, now: Nanos, fx: &mut Effects<'_, Ev>) {
        loop {
            let (ov, reqs) = (self.overload.as_mut().expect("overload mode"), &self.reqs);
            let budget = ov.ov.deadline;
            let Some((req, verdict)) = ov.dequeue(now, |r| reqs[r as usize].issued + budget) else {
                return;
            };
            match verdict {
                Verdict::Shed(cause) => self.shed(now, fx, req, cause),
                _ => match self.place(now, req) {
                    Some(pair) => self.admit(now, fx, req, pair),
                    None => self.shed(now, fx, req, ShedCause::Breaker),
                },
            }
        }
    }

    /// Turn `req` away for `cause` and let the retry budget decide.
    fn shed(&mut self, now: Nanos, fx: &mut Effects<'_, Ev>, req: u64, cause: ShedCause) {
        self.counts.shed(cause);
        self.fail_or_retry(now, fx, req);
    }

    /// A waiting request's attempt failed (shed, lost, or
    /// transport-errored): schedule the next one if the retry budget
    /// allows, else retire it as exhausted.
    pub(super) fn fail_or_retry(&mut self, now: Nanos, fx: &mut Effects<'_, Ev>, req: u64) {
        let st = &mut self.reqs[req as usize];
        debug_assert_eq!(st.phase, Phase::Waiting, "failing request {req}");
        let ov = self.overload.as_mut().expect("overload mode");
        match ov.next_retry(now, req, st.attempts, st.issued + ov.ov.deadline) {
            Retry::At(at) => {
                ov.report.retries += 1;
                st.attempts += 1;
                fx.at(at, Ev::Retry { req });
            }
            Retry::Exhausted => self.retire(now, req, Terminal::RetryExhausted),
        }
    }

    /// An admitted request failed in the data plane (pool exhausted or QP
    /// errored at post time). In overload mode: abandon the attempt, hand
    /// the request to the retry budget and refill the window. No-op on
    /// closed-loop runs (the health plane re-issues clients), and for a
    /// stale send of an attempt already abandoned.
    pub(super) fn send_failed(&mut self, now: Nanos, fx: &mut Effects<'_, Ev>, req: u64) {
        if self.overload.is_none() || self.reqs[req as usize].phase != Phase::InFlight {
            return;
        }
        self.abandon(now, req);
        self.fail_or_retry(now, fx, req);
        self.drain_queue(now, fx);
    }

    /// One walk of the request table: how many requests are
    /// [`Phase::InFlight`], and how many are not yet [`Phase::Done`].
    fn census(&self) -> (u64, u64) {
        self.reqs.iter().fold((0, 0), |(in_flight, live), st| {
            (
                in_flight + u64::from(st.phase == Phase::InFlight),
                live + u64::from(st.phase != Phase::Done),
            )
        })
    }

    /// The window count and the phases agree.
    #[cfg(test)]
    pub(super) fn window_is_exact(&self) -> bool {
        self.overload.as_ref().is_none_or(|ov| ov.inflight == self.census().0)
    }

    /// The run's overload report, folded at its end (all-zero on a closed
    /// loop). One walk of the request table counts `live_at_end`; debug
    /// builds also check the window count against the phases and the
    /// ledger ([`OverloadReport::check`]).
    pub(super) fn fold_overload(&mut self) -> OverloadReport {
        let Some(ov) = self.overload.take() else {
            return OverloadReport::default();
        };
        let (in_flight, live_at_end) = self.census();
        debug_assert_eq!(
            ov.inflight, in_flight,
            "the in-flight window disagrees with the request phases"
        );
        let report = OverloadReport {
            live_at_end,
            ramp_p99: if ov.ramp.is_empty() { Nanos::ZERO } else { ov.ramp.p99() },
            ..ov.report
        };
        debug_assert_eq!(report.check(), Ok(()), "the open-loop ledger does not balance");
        report
    }
}

impl ClusterShard {
    /// The overload plane's share of the event alphabet (overload runs
    /// only; all of it fires on the ingress shard).
    pub(super) fn on_overload_event(&mut self, now: Nanos, ev: Ev, fx: &mut Effects<'_, Ev>) {
        let ing = self.ingress.as_mut().expect("overload events fire on the ingress shard");
        match ev {
            Ev::Arrive => {
                // One open-loop arrival: materialize the pre-drawn request,
                // pump the next one, and run the admission pipeline.
                let (client, next_at) = ing.overload_mut().arrive(now);
                fx.at(next_at, Ev::Arrive);
                let req = ing.reqs.len() as u64;
                ing.reqs.push(ReqState::new(client, now, Phase::Waiting));
                ing.try_admit(now, fx, req);
            }
            Ev::Retry { req } => {
                debug_assert_eq!(ing.reqs[req as usize].phase, Phase::Waiting, "retrying request {req}");
                ing.try_admit(now, fx, req);
            }
            Ev::ScaleTick => {
                let ov = ing.overload_mut();
                if let Some((pair, bill)) = ov.scale_tick(now) {
                    fx.after(bill, Ev::ScaleOutDone { pair });
                }
                if let Some(pol) = ov.ov.autoscale {
                    fx.after(pol.scaler.eval_interval, Ev::ScaleTick);
                }
            }
            Ev::ScaleOutDone { pair } => {
                ing.overload_mut().scale_out_done(pair);
                // New capacity: refill the in-flight window immediately.
                ing.drain_queue(now, fx);
            }
            _ => unreachable!("not an overload-plane event"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::cluster_sharded::testkit::{handle, ingress, request as arrival, BILL};
    use crate::driver::cluster_sharded::{AutoscalePolicy, BreakerPolicy, LedgerError};
    use palladium_simnet::OpenLoopConfig;

    const PAIRS: usize = 4;
    const US: fn(u64) -> Nanos = Nanos::from_micros;

    /// The budgeted defaults (2 ms deadline, 500 µs queue-delay threshold,
    /// 64-slot window, 512-slot queue) after `tune`.
    fn config(tune: impl FnOnce(OverloadConfig) -> OverloadConfig) -> OverloadConfig {
        tune(OverloadConfig::new(OpenLoopConfig::poisson(1_000.0, 16), US(2_000)))
    }

    /// [`config`]'s overload plane, with no request yet.
    fn plane(tune: impl FnOnce(OverloadConfig) -> OverloadConfig) -> IngressOverload {
        IngressOverload::new(config(tune), PAIRS, 7, Nanos::ZERO, Nanos::from_millis(100), BILL)
    }

    /// The next request's admission stamp: its id.
    fn request(ov: &mut IngressOverload) -> u64 {
        ov.since.push(Nanos::ZERO);
        ov.since.len() as u64 - 1
    }

    fn breaker(open_after: u32) -> IngressOverload {
        plane(|ov| OverloadConfig { breaker: BreakerPolicy { open_after, cooldown: US(200) }, ..ov })
    }

    #[test]
    fn breaker_opens_on_the_nth_consecutive_failure() {
        let mut ov = breaker(3);
        for (k, now) in [(1, US(10)), (2, US(20)), (3, US(30))] {
            ov.breaker_fail(now, 1);
            let want = if k < 3 { Nanos::ZERO } else { US(230) };
            assert_eq!(ov.breaker_until[1], want, "after failure {k}");
        }
        assert_eq!(ov.report.breaker_opens, 1);
        assert_eq!(ov.breaker_until[0], Nanos::ZERO, "breakers are per pair");
    }

    #[test]
    fn a_success_resets_the_failure_streak() {
        let mut ov = breaker(3);
        for now in [US(10), US(20)] {
            ov.breaker_fail(now, 0);
        }
        ov.breaker_ok(US(25), 0);
        for now in [US(30), US(40)] {
            ov.breaker_fail(now, 0);
        }
        assert_eq!((ov.breaker_until[0], ov.report.breaker_opens), (Nanos::ZERO, 0));
        ov.breaker_fail(US(50), 0);
        assert_eq!((ov.breaker_until[0], ov.report.breaker_opens), (US(250), 1));
    }

    #[test]
    fn a_failure_while_open_rearms_and_counts_an_open() {
        let mut ov = breaker(1);
        ov.breaker_fail(US(10), 2);
        ov.breaker_fail(US(100), 2);
        assert_eq!((ov.breaker_until[2], ov.report.breaker_opens), (US(300), 2));
    }

    #[test]
    fn only_a_success_at_or_after_the_cooldown_closes() {
        // Opened at 10 µs, so the half-open probe is due from 210 µs.
        for (at, closes) in [(US(50), 0), (US(209), 0), (US(210), 1), (US(500), 1)] {
            let mut ov = breaker(1);
            ov.breaker_fail(US(10), 0);
            ov.breaker_ok(at, 0);
            assert_eq!(ov.report.breaker_closes, closes, "success at {at}");
            assert_eq!(ov.breaker_until[0] == Nanos::ZERO, closes == 1, "success at {at}");
        }
    }

    #[test]
    fn a_disabled_breaker_never_opens() {
        let mut ov = plane(|ov| OverloadConfig { breaker: BreakerPolicy::disabled(), ..ov });
        for k in 0..1_000 {
            ov.breaker_fail(US(k), 0);
        }
        assert_eq!((ov.breaker_until[0], ov.report.breaker_opens), (Nanos::ZERO, 0));
    }

    fn unjittered() -> RetryPolicy {
        RetryPolicy { jitter_frac: 0.0, ..RetryPolicy::budgeted() }
    }

    #[test]
    fn backoff_doubles_from_the_base_up_to_the_cap() {
        // 50 µs base, 800 µs cap.
        let want = [50, 100, 200, 400, 800, 800, 800];
        for (attempt, us) in (1..).zip(want) {
            assert_eq!(backoff(&unjittered(), 1, 9, attempt), US(us), "attempt {attempt}");
        }
        assert_eq!(backoff(&unjittered(), 1, 9, u32::MAX), US(800), "the shift saturates");
    }

    #[test]
    fn jitter_stays_within_its_fraction_and_is_a_pure_function_of_its_key() {
        let rp = RetryPolicy::budgeted(); // ±25 % of 50 µs
        let mut distinct = std::collections::BTreeSet::new();
        for req in 0..200 {
            let b = backoff(&rp, 3, req, 1);
            assert!((US(50).scale(0.75)..=US(50).scale(1.25)).contains(&b), "req {req}: {b}");
            assert_eq!(b, backoff(&rp, 3, req, 1), "same (seed, req, attempt), same draw");
            distinct.insert(b);
        }
        assert!(distinct.len() > 100, "the draw depends on the request");
        assert_ne!(backoff(&rp, 3, 5, 1), backoff(&rp, 4, 5, 1), "and on the seed");
        let frac = |attempt, base: u64| backoff(&rp, 3, 5, attempt).as_nanos() as f64 / base as f64;
        assert!((frac(1, 50_000) - frac(2, 100_000)).abs() > 1e-4, "and on the attempt");
    }

    #[test]
    fn a_budget_of_three_is_three_retries_then_exhausted() {
        let budgeted = config(|ov| OverloadConfig { retry: unjittered(), ..ov });
        let mut ing = ingress(PAIRS, Some(budgeted), false);
        let req = arrival(&mut ing, 0, Nanos::ZERO);
        // Four failed attempts, each at 10 µs: three back off, the fourth
        // retires the request.
        let scheduled = handle(US(10), |fx| (0..4).for_each(|_| ing.fail_or_retry(US(10), fx, req)));
        let retries: Vec<Nanos> =
            scheduled.iter().map(|(at, ev)| if let Ev::Retry { .. } = ev { *at } else { Nanos::MAX }).collect();
        assert_eq!(retries, [US(60), US(110), US(210)]);
        assert_eq!((ing.reqs[req as usize].phase, ing.reqs[req as usize].attempts), (Phase::Done, 4));
        let r = &ing.overload_mut().report;
        assert_eq!((r.retries, r.retry_exhausted), (3, 1), "one request, one exhaustion");
    }

    #[test]
    fn a_retry_past_the_deadline_is_exhausted_only_when_deadlines_are_enforced() {
        for (enforce, want) in [(true, Retry::Exhausted), (false, Retry::At(US(1_050)))] {
            let ov = plane(|mut ov| {
                ov.shed_on_deadline = enforce;
                OverloadConfig { retry: unjittered(), ..ov }
            });
            assert_eq!(ov.next_retry(US(1_000), 0, 1, US(1_020)), want, "shed_on_deadline = {enforce}");
        }
    }

    #[test]
    fn seven_of_eight_infeasible_requests_are_shed_and_the_eighth_probes() {
        // 500 µs service estimate against deadlines 100 µs away.
        let mut ov = plane(|ov| ov);
        let verdicts: Vec<Verdict> = (0..16).map(|_| ov.on_arrival(US(1_000), US(1_100))).collect();
        for (k, v) in verdicts.iter().enumerate() {
            let want = if k % 8 == 7 { Verdict::Admit } else { Verdict::Shed(ShedCause::Deadline) };
            assert_eq!(*v, want, "infeasible request {k}");
        }
    }

    #[test]
    fn measured_only_deadlines_never_shed() {
        let mut ov = plane(|mut ov| {
            ov.shed_on_deadline = false;
            ov
        });
        assert_eq!(ov.on_arrival(US(1_000), US(1)), Verdict::Admit);
        assert_eq!(ov.dl_probe, 0);
    }

    #[test]
    fn feasibility_counts_the_queue_ahead() {
        // 4-slot window, 500 µs estimate: a request due in 1.2 ms fits with
        // nothing ahead (ETA 500 µs) and behind 4 queued (wait 5 × 500 / 4),
        // but not behind 8.
        let fits = |queued: u64, wait_ahead: Option<usize>| {
            let mut ov = plane(|ov| ov.admission(512, 4, US(500)));
            ov.queue.extend(0..queued);
            let ahead = wait_ahead.unwrap_or(ov.queue.len() + 1);
            ov.meets_deadline(Nanos::ZERO, US(1_200), ahead)
        };
        assert!(fits(0, None));
        assert!(fits(4, None));
        assert!(!fits(8, None));
        assert!(fits(8, Some(0)), "at dequeue nothing is ahead of it");
    }

    #[test]
    fn a_feasible_arrival_is_admitted_until_the_window_fills_then_queued() {
        let mut ov = plane(|ov| ov.admission(512, 2, US(500)));
        let verdicts: Vec<Verdict> = (0..3)
            .map(|_| {
                let req = request(&mut ov);
                let v = ov.on_arrival(US(10), US(100_000));
                if v == Verdict::Admit {
                    ov.admit(US(10), req);
                }
                v
            })
            .collect();
        assert_eq!(verdicts, [Verdict::Admit, Verdict::Admit, Verdict::Queue]);
        assert_eq!((ov.inflight, ov.report.admitted), (2, 2));
    }

    #[test]
    fn a_full_queue_refuses_and_an_overstayed_head_is_popped_first() {
        let mut ov = plane(|ov| ov.admission(2, 1, US(500)));
        let reqs: Vec<u64> = (0..3).map(|_| request(&mut ov)).collect();
        assert!(ov.enqueue(US(10), reqs[0]));
        assert!(ov.enqueue(US(400), reqs[1]));
        assert!(!ov.enqueue(US(450), reqs[2]), "queue_cap = 2");
        // At 520 µs only the head has waited more than 500 µs.
        assert_eq!(ov.pop_overstayed(US(510)), None, "exactly the threshold is not past it");
        assert_eq!(ov.pop_overstayed(US(520)), Some(reqs[0]));
        assert_eq!(ov.pop_overstayed(US(520)), None);
        assert!(ov.enqueue(US(520), reqs[2]));
        assert_eq!(ov.queue, [reqs[1], reqs[2]]);
    }

    #[test]
    fn dequeue_rechecks_staleness_then_the_deadline_and_stops_at_a_full_window() {
        let mut ov = plane(|ov| ov.admission(16, 2, US(500)));
        let [stale, hopeless, fine, waiting] = [(); 4].map(|()| request(&mut ov));
        let due = |req| if req == hopeless { US(1_300) } else { US(100_000) };
        ov.enqueue(US(100), stale);
        for req in [hopeless, fine, waiting] {
            ov.enqueue(US(900), req);
        }
        let now = US(1_000);
        assert_eq!(ov.dequeue(now, due), Some((stale, Verdict::Shed(ShedCause::Admission))));
        assert_eq!(ov.dequeue(now, due), Some((hopeless, Verdict::Shed(ShedCause::Deadline))));
        assert_eq!(ov.dequeue(now, due), Some((fine, Verdict::Admit)));
        ov.admit(now, fine);
        ov.inflight = 2;
        assert_eq!(ov.dequeue(now, due), None, "the window is full");
        assert_eq!(ov.queue, [waiting]);
        ov.inflight = 0;
        ov.queue.clear();
        assert_eq!(ov.dequeue(now, due), None, "the queue is empty");
    }

    #[test]
    fn a_completion_frees_its_slot_feeds_the_estimate_and_is_classified() {
        // Warm-up 0, horizon 100 ms: recovery goodput from 75 ms on; each
        // request is due 2 ms after it was issued.
        let mut ov = plane(|ov| ov);
        let cases = [
            (US(1_500), Nanos::ZERO, (1, 0, 0)),
            (US(2_500), Nanos::ZERO, (1, 1, 0)),
            (US(80_000), US(78_000), (2, 1, 1)),
        ];
        for (finish, issued, want) in cases {
            let req = request(&mut ov);
            ov.admit(finish - US(300), req);
            let est = ov.est;
            ov.retire(finish, true, Terminal::Completed);
            ov.complete(finish, req, 0, issued, finish);
            assert_eq!((ov.inflight, ov.report.retry_exhausted), (0, 0));
            assert_eq!(ov.est, est + EST_ALPHA * (300_000.0 - est), "sample = finish − admitted");
            let r = &ov.report;
            assert_eq!((r.goodput, r.late, r.recovery_goodput), want, "finish at {finish}");
        }
        assert_eq!(ov.ramp.len(), 3, "no surge window: the ramp histogram spans the run");
    }

    #[test]
    fn an_end_before_warm_up_leaves_the_ledger() {
        // Warm-up at 1 ms. Of four arrivals, one completes and one runs out
        // of retries before it, one runs out at it, and one is still live.
        let warmup = US(1_000);
        let horizon = Nanos::from_millis(100);
        let mut ov = IngressOverload::new(config(|ov| ov), PAIRS, 7, warmup, horizon, BILL);
        for _ in 0..4 {
            let at = ov.next.at;
            ov.arrive(at);
        }
        ov.retire(US(400), false, Terminal::Completed);
        ov.retire(US(999), false, Terminal::RetryExhausted);
        ov.retire(warmup, false, Terminal::RetryExhausted);
        let r = OverloadReport { live_at_end: 1, ..ov.report.clone() };
        assert_eq!((r.offered, r.retry_exhausted), (2, 1));
        assert_eq!(r.check(), Ok(()));
        let unbalanced = OverloadReport { live_at_end: 0, ..r };
        assert_eq!(unbalanced.check(), Err(LedgerError { offered: 2, accounted: 1 }));
    }

    #[test]
    fn one_stamp_times_the_queue_wait_then_the_service() {
        let mut ov = plane(|ov| ov.admission(16, 1, US(500)));
        let req = request(&mut ov);
        assert!(ov.enqueue(US(100), req));
        // Staleness counts from the enqueue: past 500 µs only after 600 µs.
        assert!(!ov.overstayed(US(600), req) && ov.overstayed(US(601), req));
        assert_eq!(ov.dequeue(US(600), |_| US(100_000)), Some((req, Verdict::Admit)));
        ov.admit(US(600), req);
        let est = ov.est;
        ov.complete(US(900), req, 0, US(100), US(900));
        assert_eq!(ov.est, est + EST_ALPHA * (300_000.0 - est), "sample = finish − admitted, not − queued");
    }

    #[test]
    fn an_abandoned_attempt_frees_its_slot_and_charges_the_breaker() {
        let mut ov = breaker(1);
        let req = request(&mut ov);
        ov.admit(US(10), req);
        ov.abandon(US(20), 3);
        assert_eq!((ov.inflight, ov.breaker_until[3]), (0, US(220)));
    }

    #[test]
    fn the_routing_hint_folds_onto_the_active_prefix() {
        // Function 7 prefers pair 7 % 4 = 3.
        let mut ov = plane(|ov| ov);
        for (active, want) in [(4, (3, 4)), (3, (0, 3)), (2, (1, 2)), (0, (0, 1))] {
            ov.active_pairs = active;
            assert_eq!(ov.preference(7), want, "{active} active pairs");
        }
    }

    fn autoscaled(warm_leases: u32) -> IngressOverload {
        plane(|ov| {
            ov.autoscale(AutoscalePolicy {
                initial_pairs: 1,
                scaler: AutoscalerConfig { eval_interval: US(100), ..Default::default() },
                target_inflight_per_pair: 8,
                warm_leases,
                lease_fraction: 0.25,
            })
        })
    }

    #[test]
    fn a_scale_out_claims_the_lease_discount_before_the_full_bill() {
        let mut ov = autoscaled(1);
        assert_eq!(ov.active_pairs, 1);
        ov.inflight = 64; // far above 60 % of 1 pair × 8
        assert_eq!(ov.scale_tick(US(100)), Some((1, US(100))), "a quarter of the 400 µs bill");
        assert_eq!(ov.scale_tick(US(200)), None, "evaluation pauses while the bill is paid");
        assert_eq!(ov.active_pairs, 1, "not serving until paid");
        ov.scale_out_done(1);
        assert_eq!((ov.active_pairs, ov.report.scale_ups), (2, 1));
        assert_eq!(ov.scale_tick(US(300)), Some((2, BILL)), "no lease left: the full bill");
        assert_eq!((ov.report.lease_hits, ov.report.rejoin_bills), (1, 1));
    }

    #[test]
    fn scaling_holds_inside_the_band_and_sheds_an_idle_pair_down_to_the_initial_count() {
        let mut ov = autoscaled(0);
        ov.inflight = 64;
        let (pair, _) = ov.scale_tick(US(100)).expect("scale out");
        ov.scale_out_done(pair);
        ov.inflight = 8; // 50 % of 2 pairs × 8: inside the 30–60 % band
        assert_eq!((ov.scale_tick(US(200)), ov.active_pairs), (None, 2));
        ov.inflight = 0;
        assert_eq!((ov.scale_tick(US(300)), ov.active_pairs), (None, 1));
        assert_eq!((ov.scale_tick(US(400)), ov.active_pairs), (None, 1), "never below the start");
        assert_eq!(ov.report.scale_downs, 1);
    }

    #[test]
    fn without_an_autoscale_policy_every_pair_serves_and_ticks_do_nothing() {
        let mut ov = plane(|ov| ov);
        ov.inflight = 1_000;
        assert_eq!((ov.active_pairs, ov.scale_tick(US(100))), (PAIRS, None));
        assert_eq!(ov.first_events().1, None);
    }

    #[test]
    fn an_arrival_becomes_the_next_request_and_draws_its_successor() {
        let mut ov = plane(|ov| ov);
        let (first_at, _) = ov.first_events();
        let (client, next_at) = ov.arrive(first_at);
        assert!(client < 16 && next_at > first_at);
        assert_eq!(ov.first_events().0, next_at);
        assert_eq!((&ov.since[..], ov.preference(client).0), (&[first_at][..], client % PAIRS));
        assert_eq!(ov.report.offered, 1);
    }
}
