//! The shared driver harness: one event-loop trampoline for every
//! simulation driver in the workspace.
//!
//! A driver supplies only its state machine; the harness owns the clock,
//! turns the effects the machine emits back into scheduled events, and
//! keeps the latency/throughput bookkeeping:
//!
//! * [`Engine`] — the driver's state machine: consumes one event, emits
//!   [`Timed`] follow-up effects into an [`Effects`] sink.
//! * [`Harness`] — owns the virtual clock and runs the trampoline: each
//!   effect goes on the event queue as it is emitted, a zero-delay one
//!   like any other, keyed by the origin of the event being handled
//!   ([`Engine::origin`]) and that origin's count of effects. The queue
//!   fires an instant's events by key ([`crate::queue`]), so a zero-delay
//!   effect fires after every event of its origin already queued for the
//!   same instant, in emission order, and its place among other origins'
//!   events is fixed by the model, not by when they were queued. An engine
//!   that names no origin emits everything under one: same-instant FIFO.
//! * [`RunStats`] / [`LoadReport`] — the one latency/throughput sink,
//!   warm-up handling included.

use std::cell::Cell;

use crate::queue::Key;
use crate::sim::{Sim, Timed};
use crate::stats::{Histogram, Samples};
use crate::time::Nanos;

/// A latency/throughput report shared by all drivers.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Completed requests per second over the measurement window.
    pub rps: f64,
    /// Mean end-to-end latency.
    pub mean_latency: Nanos,
    /// 99th percentile latency.
    pub p99_latency: Nanos,
    /// Largest latency in the window.
    pub max_latency: Nanos,
    /// Requests completed in the window.
    pub completed: u64,
}

/// Warm-up-aware completion bookkeeping every load-driven simulation
/// shares. Record completions as they happen; [`RunStats::report`] folds
/// them into a [`LoadReport`] at the end.
#[derive(Clone, Debug)]
pub struct RunStats {
    /// One latency per completion after warm-up — the only record of it:
    /// the count, the exact mean and percentiles, and the bucketed tails
    /// all derive from it.
    latency: Samples,
    warmup: Nanos,
}

impl RunStats {
    /// Stats discarding everything finishing before `warmup`.
    pub fn new(warmup: Nanos) -> Self {
        RunStats {
            latency: Samples::new(),
            warmup,
        }
    }

    /// Record a request issued at `issued` and finished at `finished`.
    /// Completions inside the warm-up window are dropped.
    pub fn complete(&mut self, finished: Nanos, issued: Nanos) {
        if finished >= self.warmup {
            self.latency.record(finished - issued);
        }
    }

    /// Completions recorded after warm-up so far.
    pub fn completed(&self) -> u64 {
        self.latency.len() as u64
    }

    /// The exact latency samples (mutable: percentile queries fold their
    /// pending tail).
    pub fn latency(&mut self) -> &mut Samples {
        &mut self.latency
    }

    /// The `p`-th latency percentile as a [`Histogram`] fed every
    /// completion reports it: the lower edge of the log bucket holding
    /// the exact nearest-rank sample. Bucketing is monotone and both use
    /// the same rank rule, so the two are equal without keeping a
    /// histogram; the report's p50/p99/p99.9 come from here.
    pub fn bucketed_percentile(&mut self, p: f64) -> Nanos {
        Histogram::lower_edge(self.latency.percentile(p))
    }

    /// Absorb another shard's/node's stats (same warm-up horizon). Used
    /// by the sharded runner to fold per-node bookkeeping into one report;
    /// every statistic depends only on the merged samples, so the folded
    /// report is identical across shard counts.
    pub fn merge(&mut self, other: RunStats) {
        debug_assert_eq!(self.warmup, other.warmup, "merging mismatched warm-ups");
        self.latency.merge(other.latency);
    }

    /// Fold into the standard [`LoadReport`] over a measurement `duration`.
    pub fn report(mut self, duration: Nanos) -> LoadReport {
        let completed = self.completed();
        LoadReport {
            rps: completed as f64 / duration.as_secs_f64(),
            mean_latency: self.latency.mean(),
            p99_latency: self.latency.p99(),
            max_latency: self.latency.max(),
            completed,
        }
    }
}

/// The keys of the handler running: its origin's, drawn from the counter
/// every handler of that origin on one harness shares. Events seeded from
/// outside a handler take the queue's origin 0, so a handler's origin `o`
/// keys as `o + 1`: at any instant the seeds fire first, before anything a
/// handler emitted.
#[derive(Clone, Copy)]
pub(crate) struct Keys<'a> {
    origin: usize,
    next: &'a Cell<u64>,
}

impl Keys<'_> {
    /// The handler's next key.
    #[inline]
    pub(crate) fn next(self) -> Key {
        let count = self.next.get();
        self.next.set(count + 1);
        Key::new(self.origin, count)
    }
}

/// The sink an [`Engine`] emits follow-up effects into. Effects are either
/// relative (`after`) or absolute (`at`); each is scheduled on the event
/// queue at emission, under the handler's next key.
pub struct Effects<'a, Ev> {
    now: Nanos,
    /// The handler's keys; the shard runner keys its sends with them.
    pub(crate) keys: Keys<'a>,
    /// The shard runner schedules a self-send here under its own key.
    pub(crate) sim: &'a mut Sim<Ev>,
}

impl<'a, Ev> Effects<'a, Ev> {
    /// Current virtual time (same value the engine was invoked with).
    #[inline]
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Emit `ev` after a relative delay.
    #[inline]
    pub fn after(&mut self, delay: Nanos, ev: Ev) {
        let key = self.keys.next();
        self.sim.schedule_keyed(self.now.saturating_add(delay), key, ev);
    }

    /// Emit `ev` immediately (still ordered after already-emitted effects
    /// of the same origin).
    #[inline]
    pub fn now_ev(&mut self, ev: Ev) {
        self.after(Nanos::ZERO, ev);
    }

    /// Emit `ev` at an absolute virtual time. Times in the past clamp to
    /// "now", mirroring [`Sim::schedule_at`].
    #[inline]
    pub fn at(&mut self, at: Nanos, ev: Ev) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        self.after(at.saturating_sub(self.now), ev);
    }

    /// Lift a batch of substrate effects into the driver's event type.
    pub fn extend<T>(&mut self, effects: Vec<Timed<T>>, lift: impl Fn(T) -> Ev) {
        for t in effects {
            self.after(t.after, lift(t.value));
        }
    }

    /// Like [`Effects::extend`], but draining a reusable buffer in place —
    /// the driver keeps the `Vec` (and its capacity) across steps, so
    /// steady-state stepping performs no allocation for effect lifting.
    pub fn extend_drain<T>(&mut self, effects: &mut Vec<Timed<T>>, lift: impl Fn(T) -> Ev) {
        for t in effects.drain(..) {
            self.after(t.after, lift(t.value));
        }
    }

    /// Like [`Effects::extend_drain`], but measuring delays from an
    /// absolute `base` instead of "now" (e.g. effects produced by a server
    /// that finishes in the future).
    pub fn extend_at_drain<T>(
        &mut self,
        base: Nanos,
        effects: &mut Vec<Timed<T>>,
        lift: impl Fn(T) -> Ev,
    ) {
        for t in effects.drain(..) {
            self.at(base.saturating_add(t.after), lift(t.value));
        }
    }
}

/// A driver's state machine: everything that isn't clock/queue/stats.
///
/// Implementations receive one event plus the current time and push
/// follow-up effects into the sink; they never touch the event queue
/// directly.
pub trait Engine {
    /// The driver's event alphabet.
    type Ev;

    /// The origin of `ev`: the simulated node whose state its handler runs
    /// on. The effects of its handler take that origin's keys. An engine
    /// that models one node keeps the default, one origin for everything.
    #[inline]
    fn origin(&self, _ev: &Self::Ev) -> usize {
        0
    }

    /// Consume one event.
    fn on_event(&mut self, now: Nanos, ev: Self::Ev, fx: &mut Effects<'_, Self::Ev>);
}

/// The shared trampoline: a [`Sim`] clock/queue driving an [`Engine`].
pub struct Harness<Ev> {
    /// The shard runner schedules merged messages here under their keys.
    pub(crate) sim: Sim<Ev>,
    /// Per key origin (see [`Keys`]), the next count of its keys.
    next: Vec<Cell<u64>>,
}

impl<Ev> Default for Harness<Ev> {
    fn default() -> Self {
        Self::new()
    }
}

impl<Ev> Harness<Ev> {
    /// A harness at time zero.
    pub fn new() -> Self {
        Harness { sim: Sim::new(), next: Vec::new() }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Nanos {
        self.sim.now()
    }

    /// Events processed so far.
    pub fn events_fired(&self) -> u64 {
        self.sim.events_fired()
    }

    /// Pending events in the queue.
    pub fn pending(&self) -> usize {
        self.sim.pending()
    }

    /// Seed an event `delay` after the current time, under origin 0's
    /// next key (see [`Keys`]).
    pub fn schedule(&mut self, delay: Nanos, ev: Ev) {
        self.sim.schedule(delay, ev);
    }

    /// Seed an event at an absolute time, under origin 0's next key.
    pub fn schedule_at(&mut self, at: Nanos, ev: Ev) {
        self.sim.schedule_at(at, ev);
    }

    /// Run `engine` until `deadline`. Events scheduled beyond the deadline
    /// stay queued; the clock parks at the deadline (or the last event if
    /// the queue ran dry). Returns the number of events processed.
    pub fn run<E: Engine<Ev = Ev>>(&mut self, engine: &mut E, deadline: Nanos) -> u64 {
        let mut processed = 0u64;
        while let Some((now, ev)) = self.sim.next_until(deadline) {
            processed += 1;
            let origin = engine.origin(&ev) + 1;
            if origin >= self.next.len() {
                self.next.resize_with(origin + 1, Cell::default);
            }
            let keys = Keys { origin, next: &self.next[origin] };
            engine.on_event(now, ev, &mut Effects { now, keys, sim: &mut self.sim });
        }
        // The pop that ended the loop found nothing at or before the
        // deadline, so there is nothing to re-examine.
        self.sim.park_at(deadline);
        processed
    }

    /// Run `engine` over one conservative time window: every event firing
    /// **strictly before** `end` is processed; events at or after `end`
    /// stay queued and the clock parks just short of it. The sharded
    /// runner ([`crate::shard`]) calls this once per window, so the
    /// boundary must be exact: an event scheduled *at* `end` belongs to
    /// the next window (it may be preceded by a cross-shard arrival at
    /// `end` merged at the barrier). Built on the inclusive
    /// [`crate::queue::EventQueue::pop_until`] boundary contract —
    /// `end - 1` is the last instant inside the window.
    pub fn run_window<E: Engine<Ev = Ev>>(&mut self, engine: &mut E, end: Nanos) -> u64 {
        // Nothing fires strictly before time zero: an empty window, not a
        // wrap to `u64::MAX`.
        let Some(last) = end.0.checked_sub(1) else {
            return 0;
        };
        self.run(engine, Nanos(last))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Ping(u32),
        Pong(u32),
    }

    struct PingPong {
        log: Vec<String>,
        limit: u32,
    }

    impl Engine for PingPong {
        type Ev = Ev;
        fn on_event(&mut self, _now: Nanos, ev: Ev, fx: &mut Effects<'_, Ev>) {
            match ev {
                Ev::Ping(n) => {
                    self.log.push(format!("ping{n}"));
                    fx.after(Nanos(10), Ev::Pong(n));
                }
                Ev::Pong(n) => {
                    self.log.push(format!("pong{n}"));
                    if n < self.limit {
                        fx.after(Nanos(10), Ev::Ping(n + 1));
                    }
                }
            }
        }
    }

    #[test]
    fn trampoline_matches_classic_loop() {
        let mut h: Harness<Ev> = Harness::new();
        let mut e = PingPong { log: Vec::new(), limit: 2 };
        h.schedule(Nanos(10), Ev::Ping(0));
        let n = h.run(&mut e, Nanos(100));
        assert_eq!(e.log, ["ping0", "pong0", "ping1", "pong1", "ping2", "pong2"]);
        assert_eq!(n, 6);
        assert_eq!(h.now(), Nanos(100)); // parked at deadline
    }

    #[test]
    fn future_events_stay_queued() {
        let mut h: Harness<Ev> = Harness::new();
        let mut e = PingPong { log: Vec::new(), limit: 0 };
        h.schedule(Nanos(10), Ev::Ping(0));
        h.schedule(Nanos(500), Ev::Ping(9));
        h.run(&mut e, Nanos(100));
        assert_eq!(h.pending(), 1);
    }

    /// An engine that fans out immediate effects: each Ping(n) spawns n
    /// zero-delay Pongs.
    struct FanOut {
        seen: Vec<(Nanos, Ev)>,
    }

    impl Engine for FanOut {
        type Ev = Ev;
        fn on_event(&mut self, now: Nanos, ev: Ev, fx: &mut Effects<'_, Ev>) {
            if let Ev::Ping(n) = ev {
                for k in 0..n {
                    fx.now_ev(Ev::Pong(k));
                }
            }
            self.seen.push((now, ev));
        }
    }

    #[test]
    fn zero_delay_effects_follow_same_instant_queue_events() {
        // With one origin, a zero-delay effect fires after every event
        // already queued for its instant, and zero-delay effects fire in
        // emission order.
        let mut h: Harness<Ev> = Harness::new();
        let mut e = FanOut { seen: Vec::new() };
        h.schedule(Nanos(5), Ev::Ping(1));
        h.schedule(Nanos(5), Ev::Ping(2));
        let n = h.run(&mut e, Nanos(10));
        let evs: Vec<&Ev> = e.seen.iter().map(|(_, e)| e).collect();
        assert_eq!(
            evs,
            [
                &Ev::Ping(1),
                &Ev::Ping(2),
                &Ev::Pong(0), // from Ping(1)
                &Ev::Pong(0), // from Ping(2)
                &Ev::Pong(1),
            ]
        );
        assert!(e.seen.iter().all(|&(t, _)| t == Nanos(5)));
        assert_eq!((n, h.events_fired()), (5, 5));
    }

    #[test]
    fn same_instant_effects_fire_by_origin_not_by_queueing_order() {
        // Ping(node) runs on `node` and emits a zero-delay Pong there.
        // Node 1's seed fires first, yet node 0's Pong, emitted after node
        // 1's, fires before it: same-instant effects rank by origin.
        struct ByNode {
            seen: Vec<Ev>,
        }
        impl Engine for ByNode {
            type Ev = Ev;
            fn origin(&self, ev: &Ev) -> usize {
                match *ev {
                    Ev::Ping(n) | Ev::Pong(n) => n as usize,
                }
            }
            fn on_event(&mut self, _now: Nanos, ev: Ev, fx: &mut Effects<'_, Ev>) {
                if let Ev::Ping(n) = ev {
                    fx.now_ev(Ev::Pong(n));
                }
                self.seen.push(ev);
            }
        }
        let mut h: Harness<Ev> = Harness::new();
        h.schedule(Nanos(5), Ev::Ping(1));
        h.schedule(Nanos(5), Ev::Ping(0));
        let mut e = ByNode { seen: Vec::new() };
        h.run(&mut e, Nanos(10));
        assert_eq!(e.seen, [Ev::Ping(1), Ev::Ping(0), Ev::Pong(0), Ev::Pong(1)]);
    }

    #[test]
    fn run_stats_respects_warmup() {
        let mut s = RunStats::new(Nanos(100));
        s.complete(Nanos(50), Nanos(10)); // warm-up: dropped
        s.complete(Nanos(150), Nanos(100));
        s.complete(Nanos(250), Nanos(100));
        assert_eq!(s.completed(), 2);
        let r = s.report(Nanos::from_secs(1));
        assert_eq!(r.completed, 2);
        assert!((r.rps - 2.0).abs() < 1e-9);
        assert_eq!(r.mean_latency, Nanos(100));
        assert!(r.p99_latency >= r.mean_latency);
    }

    #[test]
    fn bucketed_percentiles_equal_a_histogram_of_the_same_completions() {
        // Two nodes' stats merged, as the cluster report folds them, with
        // latencies spanning the exact region, the bucketed mid-range and
        // a long tail, and heavy repetition as the simulations produce.
        let mut rng = crate::rng::SimRng::seed_from(7);
        let warmup = Nanos::from_millis(10);
        let (mut a, mut b) = (RunStats::new(warmup), RunStats::new(warmup));
        let mut hist = Histogram::new();
        let mut kept = 0;
        for i in 0..50_000u64 {
            let latency = Nanos(match rng.range(0, 4) {
                0 => rng.range(0, 64),
                1 => 20_000 + rng.range(0, 40) * 25,
                2 => rng.range(0, 5_000_000),
                _ => 31_000,
            });
            let finished = warmup - Nanos(1_000) + Nanos(i);
            let stats = if i % 3 == 0 { &mut a } else { &mut b };
            stats.complete(finished, finished - latency);
            if finished >= warmup {
                hist.record(latency);
                kept += 1;
            }
        }
        a.merge(b);
        assert_eq!(a.completed(), kept);
        for p in [0.0, 50.0, 99.0, 99.9, 100.0] {
            assert_eq!(a.bucketed_percentile(p), hist.percentile(p), "p{p}");
        }
    }

    #[test]
    fn effects_absolute_and_relative_agree() {
        let mut h: Harness<Ev> = Harness::new();
        struct AbsRel;
        impl Engine for AbsRel {
            type Ev = Ev;
            fn on_event(&mut self, now: Nanos, ev: Ev, fx: &mut Effects<'_, Ev>) {
                if let Ev::Ping(0) = ev {
                    fx.at(now + Nanos(7), Ev::Pong(1));
                    fx.after(Nanos(7), Ev::Pong(2));
                }
            }
        }
        h.schedule(Nanos(3), Ev::Ping(0));
        let n = h.run(&mut AbsRel, Nanos(100));
        assert_eq!(n, 3);
    }
}
