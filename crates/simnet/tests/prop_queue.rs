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
//! held — against a boxed reference: a deliberately naive
//! `Vec<(key, Box<payload>)>` with the same `(time, seq)` contract. It
//! asserts:
//!
//! * the dequeued `(time, payload)` streams are identical (a stale or
//!   double-freed slot would surface as a wrong/missing payload);
//! * after **every** operation, live payloads (`EventQueue::live`) == the
//!   reference's pending, non-cancelled entries, and `len` == the
//!   reference's entry count, so nothing leaks, nothing double frees and
//!   the held root is never counted, even transiently;
//! * a drained queue holds zero live payloads.
//!
//! The second test pins the one thing the sharded runner adds on top:
//! that a window deadline cuts the stream at exactly the right event.

use std::collections::HashSet;

use proptest::prelude::*;

use palladium_simnet::{EventId, EventQueue, Nanos};

/// One step of the randomized queue workload; delays are relative to the
/// last popped time, mirroring how `Sim` drives the queue.
#[derive(Clone, Debug)]
enum Op {
    /// Schedule at `now + delay` (0 creates same-instant bursts).
    Schedule(u64),
    /// Schedule a same-instant burst of `n` events at one future time.
    Burst(u8, u16),
    /// Cancel the i-th issued id (modulo issued count) — may target
    /// fired, pending, or already-cancelled events.
    Cancel(usize),
    /// Pop one event.
    Pop,
    /// Compare `peek_time` (exercises the discard of cancelled heads).
    Peek,
    /// Pop, optionally peek while the root is held, then schedule `n`
    /// events at `now + delay` (the first one overwrites the held root).
    PopThen { peek: bool, n: u8, delay: u64 },
    /// Pop, then cancel the id of the event just popped.
    PopCancel,
    /// Pop, then `pop_until` the next pending time (`inclusive`) or one
    /// nanosecond short of it, while the first pop's root is held.
    PopUntilNext { inclusive: bool },
}

/// Delays past this (≈ 1.07 s) keep multi-second horizons in the mix.
const FAR: u64 = 1 << 30;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..5_000).prop_map(Op::Schedule),
        2 => (0u64..20_000_000).prop_map(Op::Schedule),
        1 => (FAR..FAR + 10_000).prop_map(Op::Schedule),
        1 => ((1u8..8), (0u16..2_000)).prop_map(|(n, d)| Op::Burst(n, d)),
        3 => (0usize..256).prop_map(Op::Cancel),
        5 => Just(Op::Pop),
        2 => Just(Op::Peek),
        4 => (any::<bool>(), prop_oneof![Just(0u8), Just(1u8), 2u8..6], 0u64..5_000)
            .prop_map(|(peek, n, delay)| Op::PopThen { peek, n, delay }),
        1 => Just(Op::PopCancel),
        2 => any::<bool>().prop_map(|inclusive| Op::PopUntilNext { inclusive }),
    ]
}

/// The boxed reference path: the payload owned by its entry, behind a
/// `Box`, with the identical `(time, seq)` + lazy-cancel contract. O(n)
/// scans — it is a specification, not an implementation.
struct BoxedRef {
    pending: Vec<(u128, Box<u64>)>,
    cancelled: HashSet<u64>,
    next_seq: u64,
}

impl BoxedRef {
    fn new() -> Self {
        BoxedRef {
            pending: Vec::new(),
            cancelled: HashSet::new(),
            next_seq: 0,
        }
    }

    fn schedule_at(&mut self, at: Nanos, v: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push((((at.0 as u128) << 64) | seq as u128, Box::new(v)));
        seq
    }

    fn is_cancelled(&self, key: u128) -> bool {
        self.cancelled.contains(&(key as u64))
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
            .map(|(key, _)| Nanos((key >> 64) as u64))
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
            let at = Nanos((self.pending[i].0 >> 64) as u64);
            if at > deadline {
                return None;
            }
            let (key, v) = self.pending.swap_remove(i);
            if self.cancelled.remove(&(key as u64)) {
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
            if self.cancelled.remove(&(key as u64)) {
                self.pending.swap_remove(i);
                continue;
            }
            return Some(Nanos((key >> 64) as u64));
        }
    }
}

/// The queue and its reference in lockstep, plus the ids both issued
/// (indexed by payload: payloads are 0, 1, 2, … in schedule order).
struct Lockstep {
    q: EventQueue<u64>,
    reference: BoxedRef,
    ids: Vec<(EventId, u64)>,
    now: u64,
}

impl Lockstep {
    fn schedule(&mut self, at: Nanos) {
        let payload = self.ids.len() as u64;
        let qid = self.q.schedule_at(at, payload);
        let rid = self.reference.schedule_at(at, payload);
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
                Op::Schedule(d) => s.schedule(Nanos(s.now + d)),
                Op::Burst(n, d) => {
                    for _ in 0..n {
                        s.schedule(Nanos(s.now + d as u64));
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
                Op::PopThen { peek, n, delay } => {
                    s.pop()?;
                    s.check()?;
                    if peek {
                        s.peek()?;
                    }
                    for _ in 0..n {
                        s.schedule(Nanos(s.now + delay));
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
