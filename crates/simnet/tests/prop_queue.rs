//! Property tests of the event queue against an independent reference.
//!
//! Every scheduled payload lives in a tag-checked slot beside the heap,
//! not in its heap entry, and a popped entry stays in the heap as the
//! *held* root until the next schedule overwrites it (hold fusion). The
//! hazards the queue must be immune to are *leaks* (a payload whose entry
//! was popped or cancelled but whose slot never returned to the free
//! list), *double frees* (two entries, or an entry and a stale
//! `EventId`, redeeming one slot), *stale-tag access* (a recycled slot
//! aliasing a new payload) and a held root that leaks into `len`,
//! `peek_time` or a later pop. The lockstep test drives the queue through
//! random schedule/cancel/pop interleavings — near, far and multi-second
//! delays, same-instant bursts, pops followed by 0, 1 or n schedules,
//! cancels of the id just popped, queries and window pops while a root is
//! held, each schedule under a random origin (0 through `schedule_at`,
//! the others through `schedule_keyed` with the origin's next count, the
//! largest origin included) — against a boxed reference: a deliberately
//! naive `Vec<(key, Box<payload>)>` popping in `(time, origin, count)`
//! order. Slots are reused across origins, so a stale id that reached
//! another origin's event in its old slot would cancel it. It asserts:
//!
//! * the dequeued `(time, payload)` streams are identical (a stale or
//!   double-freed slot would surface as a wrong/missing payload);
//! * after **every** operation, live payloads (`EventQueue::live`) == the
//!   reference's pending, non-cancelled entries, and `len` == the
//!   reference's entry count, so nothing leaks, nothing double frees and
//!   the held root is never counted, even transiently;
//! * a drained queue holds zero live payloads.
//!
//! The second test pins that a workload of origin 0 alone pops in
//! schedule order among same-instant events (FIFO), and the third the one
//! thing the sharded runner adds on top: that a window deadline cuts the
//! stream at exactly the right event.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use palladium_simnet::{EventId, EventQueue, Key, Nanos};

/// One step of the randomized queue workload; delays are relative to the
/// last popped time, mirroring how `Sim` drives the queue.
#[derive(Clone, Debug)]
enum Op {
    /// Schedule at `now + delay` (0 creates same-instant bursts) under
    /// `origin`.
    Schedule(u64, usize),
    /// Schedule a same-instant burst of `n` events at one future time
    /// under `origin`.
    Burst(u8, u16, usize),
    /// Cancel the i-th issued id (modulo issued count) — may target
    /// fired, pending, or already-cancelled events.
    Cancel(usize),
    /// Pop one event.
    Pop,
    /// Compare `peek_time` (exercises the discard of cancelled heads).
    Peek,
    /// Pop, optionally peek while the root is held, then schedule `n`
    /// events at `now + delay` under `origin` (the first one overwrites
    /// the held root).
    PopThen { peek: bool, n: u8, delay: u64, origin: usize },
    /// Pop, then cancel the id of the event just popped.
    PopCancel,
    /// Pop, then `pop_until` the next pending time (`inclusive`) or one
    /// nanosecond short of it, while the first pop's root is held.
    PopUntilNext { inclusive: bool },
}

/// Delays past this (≈ 1.07 s) keep multi-second horizons in the mix.
const FAR: u64 = 1 << 30;

/// The largest origin a key can name.
const MAX_ORIGIN: usize = (1 << 16) - 1;

/// Origin 0 (`schedule_at`) half the time, else a small origin or the
/// largest.
fn origin_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![4 => Just(0usize), 3 => 1usize..4, 1 => Just(MAX_ORIGIN)]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..5_000, origin_strategy()).prop_map(|(d, o)| Op::Schedule(d, o)),
        2 => (0u64..20_000_000, origin_strategy()).prop_map(|(d, o)| Op::Schedule(d, o)),
        1 => (FAR..FAR + 10_000, origin_strategy()).prop_map(|(d, o)| Op::Schedule(d, o)),
        1 => ((1u8..8), (0u16..2_000), origin_strategy()).prop_map(|(n, d, o)| Op::Burst(n, d, o)),
        3 => (0usize..256).prop_map(Op::Cancel),
        5 => Just(Op::Pop),
        2 => Just(Op::Peek),
        4 => (any::<bool>(), prop_oneof![Just(0u8), Just(1u8), 2u8..6], 0u64..5_000, origin_strategy())
            .prop_map(|(peek, n, delay, origin)| Op::PopThen { peek, n, delay, origin }),
        1 => Just(Op::PopCancel),
        2 => any::<bool>().prop_map(|inclusive| Op::PopUntilNext { inclusive }),
    ]
}

/// `(time, origin, count)`: the reference's key.
type RefKey = (u64, usize, u64);

/// The boxed reference path: the payload owned by its entry, behind a
/// `Box`, with the `(time, origin, count)` order and lazy-cancel contract
/// spelled out. O(n) scans — it is a specification, not an
/// implementation.
struct BoxedRef {
    pending: Vec<(RefKey, Box<u64>)>,
    /// Cancelled events, by `(origin, count)`.
    cancelled: BTreeSet<(usize, u64)>,
    /// Each origin's next count.
    next: BTreeMap<usize, u64>,
}

impl BoxedRef {
    fn new() -> Self {
        BoxedRef {
            pending: Vec::new(),
            cancelled: BTreeSet::new(),
            next: BTreeMap::new(),
        }
    }

    /// Schedule `v` at `at` under `origin`'s next count; returns the
    /// event's `(origin, count)`.
    fn schedule(&mut self, at: Nanos, origin: usize, v: u64) -> (usize, u64) {
        let count = self.next.entry(origin).or_insert(0);
        let id = (origin, *count);
        *count += 1;
        self.pending.push(((at.0, origin, id.1), Box::new(v)));
        id
    }

    fn is_cancelled(&self, key: RefKey) -> bool {
        self.cancelled.contains(&(key.1, key.2))
    }

    /// Pending entries not cancelled.
    fn live(&self) -> usize {
        self.pending.iter().filter(|(key, _)| !self.is_cancelled(*key)).count()
    }

    /// Earliest live time, without discarding anything.
    fn next_live_time(&self) -> Option<Nanos> {
        self.pending
            .iter()
            .filter(|(key, _)| !self.is_cancelled(*key))
            .map(|(key, _)| Nanos(key.0))
            .min()
    }

    fn min_idx(&self) -> Option<usize> {
        self.pending
            .iter()
            .enumerate()
            .min_by_key(|(_, (key, _))| *key)
            .map(|(i, _)| i)
    }

    fn pop_until(&mut self, deadline: Nanos) -> Option<(Nanos, u64)> {
        loop {
            let i = self.min_idx()?;
            let at = Nanos(self.pending[i].0 .0);
            if at > deadline {
                return None;
            }
            let (key, v) = self.pending.swap_remove(i);
            if self.cancelled.remove(&(key.1, key.2)) {
                continue;
            }
            return Some((at, *v));
        }
    }

    fn pop(&mut self) -> Option<(Nanos, u64)> {
        self.pop_until(Nanos(u64::MAX))
    }

    fn peek_time(&mut self) -> Option<Nanos> {
        loop {
            let i = self.min_idx()?;
            let key = self.pending[i].0;
            if self.cancelled.remove(&(key.1, key.2)) {
                self.pending.swap_remove(i);
                continue;
            }
            return Some(Nanos(key.0));
        }
    }
}

/// The queue and its reference in lockstep, plus the ids both issued
/// (indexed by payload: payloads are 0, 1, 2, … in schedule order).
struct Lockstep {
    q: EventQueue<u64>,
    reference: BoxedRef,
    ids: Vec<(EventId, (usize, u64))>,
    now: u64,
}

impl Lockstep {
    fn schedule(&mut self, at: Nanos, origin: usize) {
        let payload = self.ids.len() as u64;
        let rid = self.reference.schedule(at, origin, payload);
        let qid = match origin {
            0 => self.q.schedule_at(at, payload),
            _ => self.q.schedule_keyed(at, Key::new(origin, rid.1), payload),
        };
        self.ids.push((qid, rid));
    }

    fn cancel(&mut self, payload: usize) {
        let (qid, rid) = self.ids[payload];
        self.q.cancel(qid);
        self.reference.cancelled.insert(rid);
    }

    fn pop(&mut self) -> Result<Option<u64>, TestCaseError> {
        let r = self.reference.pop();
        prop_assert_eq!(self.q.pop(), r, "pop diverged");
        Ok(r.map(|(t, v)| {
            self.now = t.0;
            v
        }))
    }

    fn peek(&mut self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.q.peek_time(), self.reference.peek_time(), "peek diverged");
        Ok(())
    }

    fn pop_until(&mut self, deadline: Nanos) -> Result<(), TestCaseError> {
        let r = self.reference.pop_until(deadline);
        prop_assert_eq!(self.q.pop_until(deadline), r, "pop_until({:?}) diverged", deadline);
        if let Some((t, _)) = r {
            self.now = t.0;
        }
        Ok(())
    }

    /// The no-leak/no-double-free invariant, after *every* op: exactly
    /// one live payload per pending, non-cancelled entry of the
    /// reference, and one `len` per reference entry. A leak drifts `live`
    /// above it; a double free (or a stale id reaching a recycled slot)
    /// below; a counted held root drifts `len`.
    fn check(&self) -> Result<(), TestCaseError> {
        let live = self.reference.live();
        prop_assert_eq!(self.q.live(), live, "slot drift");
        prop_assert_eq!(self.q.is_empty(), live == 0);
        prop_assert_eq!(self.q.len(), self.reference.pending.len(), "len drift");
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn queue_matches_boxed_reference_without_leaks(
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        let mut s = Lockstep {
            q: EventQueue::new(),
            reference: BoxedRef::new(),
            ids: Vec::new(),
            now: 0,
        };

        for op in &ops {
            match *op {
                Op::Schedule(d, origin) => s.schedule(Nanos(s.now + d), origin),
                Op::Burst(n, d, origin) => {
                    for _ in 0..n {
                        s.schedule(Nanos(s.now + d as u64), origin);
                    }
                }
                Op::Cancel(i) => {
                    if !s.ids.is_empty() {
                        s.cancel(i % s.ids.len());
                    }
                }
                Op::Pop => {
                    s.pop()?;
                }
                Op::Peek => s.peek()?,
                Op::PopThen { peek, n, delay, origin } => {
                    s.pop()?;
                    s.check()?;
                    if peek {
                        s.peek()?;
                    }
                    for _ in 0..n {
                        s.schedule(Nanos(s.now + delay), origin);
                    }
                }
                Op::PopCancel => {
                    if let Some(v) = s.pop()? {
                        s.cancel(v as usize);
                    }
                }
                Op::PopUntilNext { inclusive } => {
                    s.pop()?;
                    if let Some(t) = s.reference.next_live_time() {
                        let deadline = if inclusive { t } else { Nanos(t.0.saturating_sub(1)) };
                        s.pop_until(deadline)?;
                    }
                }
            }
            s.check()?;
        }

        // Drain to the end: streams stay identical and the slots empty out
        // completely — no payload survives its entry.
        while s.pop()?.is_some() {}
        prop_assert_eq!(s.q.live(), 0, "leak after drain");
        prop_assert_eq!(s.q.len(), 0);
    }

    // A workload of origin 0 alone — `schedule_at`, as a driver modelling
    // one node uses the queue — pops in `(time, schedule order)`: among
    // same-instant events, FIFO. Eight instants and slot reuse between
    // rounds make ties and recycled slots the common case.
    #[test]
    fn origin_zero_alone_pops_in_schedule_order(
        rounds in proptest::collection::vec(proptest::collection::vec(0u64..8, 1..40), 1..6),
    ) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut base = 0u64;
        let mut next = 0u64;
        for times in rounds {
            let mut expect: Vec<(Nanos, u64)> = Vec::new();
            for t in times {
                q.schedule_at(Nanos(base + t), next);
                expect.push((Nanos(base + t), next));
                next += 1;
            }
            expect.sort();
            let got: Vec<(Nanos, u64)> = std::iter::from_fn(|| q.pop()).collect();
            prop_assert_eq!(got, expect, "FIFO among same-instant events");
            base += 8;
        }
    }

    // Pins the `pop_until` boundary contract the sharded runner's window
    // barriers depend on (see the method docs): the deadline is
    // **inclusive** — `pop_until(t_min - 1)` returns nothing and moves
    // nothing, `pop_until(t_min)` returns exactly the earliest event — and
    // draining through a ladder of window deadlines yields the same stream
    // as sorting by `(time, schedule order)`.
    #[test]
    fn pop_until_boundary_is_exact(
        times in proptest::collection::vec(0u64..(2 << 30), 1..120),
        window in 1u64..100_000,
    ) {
        let mut q: EventQueue<u64> = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(Nanos(t), i as u64);
        }
        let mut expect: Vec<(Nanos, u64)> =
            times.iter().enumerate().map(|(i, &t)| (Nanos(t), i as u64)).collect();
        expect.sort();
        let t_min = expect[0].0;

        // Exclusive side: one short of the earliest event pops nothing
        // (and leaves the queue intact).
        if t_min.0 > 0 {
            prop_assert_eq!(q.pop_until(Nanos(t_min.0 - 1)), None);
            prop_assert_eq!(q.len(), times.len(), "must not consume");
        }
        // Inclusive side: the exact boundary pops the earliest event.
        let mut got = vec![q.pop_until(t_min).expect("inclusive boundary")];

        // Window ladder: draining through successive `pop_until(end-1)`
        // windows (the sharded runner's exact call pattern) must yield the
        // sorted stream, with every event inside its window.
        let mut k = 0u64;
        loop {
            let end = (k + 1) * window;
            while let Some(e) = q.pop_until(Nanos(end - 1)) {
                prop_assert!(e.0 .0 >= k * window && e.0 .0 < end, "window");
                got.push(e);
            }
            // Jump straight to the window holding the next pending
            // event — iterating empty windows one by one is O(t_max /
            // window), unbounded when `window` shrinks toward 1.
            match q.peek_time() {
                None => break,
                Some(t) => k = (t.0 / window).max(k + 1),
            }
        }
        prop_assert_eq!(&got, &expect, "windowed drain diverged");
    }
}
