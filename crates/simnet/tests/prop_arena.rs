//! Property-based soundness of the event queue and its payload arena.
//!
//! Every scheduled payload lives in a generation-checked arena slot, not
//! in its queue entry; the hazards the queue must be immune to are
//! *leaks* (a payload whose entry was popped or cancelled but whose slot
//! never returned to the free list), *double frees* (two entries, or an
//! entry and a stale `EventId`, redeeming one slot) and
//! *stale-generation access* (a recycled slot aliasing a new payload).
//! This test drives the queue through random schedule/cancel/pop
//! interleavings — near, far and multi-second delays, same-instant bursts
//! — in lockstep with a boxed reference queue: a deliberately naive
//! `Vec<(key, Box<payload>)>` with the same `(time, seq)` contract, the
//! layout the kernel had before the arena. It asserts:
//!
//! * the dequeued `(time, payload)` streams are identical (a stale or
//!   double-freed slot would surface as a wrong/missing payload);
//! * after **every** operation, live arena payloads
//!   (`EventQueue::arena_live`) == the reference's pending, non-cancelled
//!   entries, so nothing leaks and nothing double frees even transiently
//!   — including cancels of fired, pending and already-cancelled ids;
//! * a drained queue holds zero live payloads.
//!
//! The raw `Arena` API is exercised directly as well, against a model of
//! live/retired handles, pinning the generation check on its own.

use std::collections::HashSet;

use proptest::prelude::*;

use palladium_simnet::{Arena, ArenaSlot, EventQueue, Nanos};

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
    ]
}

/// The boxed reference path: the pre-arena layout (payload owned by its
/// entry, here behind a `Box` like the seed's recycled frame boxes), with
/// the identical `(time, seq)` + lazy-cancel contract. O(n) scans — it is
/// a specification, not an implementation.
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

    /// Pending entries not cancelled.
    fn live(&self) -> usize {
        self.pending
            .iter()
            .filter(|(key, _)| !self.cancelled.contains(&(*key as u64)))
            .count()
    }

    fn min_idx(&self) -> Option<usize> {
        self.pending
            .iter()
            .enumerate()
            .min_by_key(|(_, (key, _))| *key)
            .map(|(i, _)| i)
    }

    fn pop(&mut self) -> Option<(Nanos, u64)> {
        loop {
            let i = self.min_idx()?;
            let seq = self.pending[i].0 as u64;
            let (key, v) = self.pending.swap_remove(i);
            if self.cancelled.remove(&seq) {
                continue;
            }
            return Some((Nanos((key >> 64) as u64), *v));
        }
    }

    fn peek_time(&mut self) -> Option<Nanos> {
        loop {
            let i = self.min_idx()?;
            let seq = self.pending[i].0 as u64;
            if self.cancelled.remove(&seq) {
                self.pending.swap_remove(i);
                continue;
            }
            return Some(Nanos((self.pending[i].0 >> 64) as u64));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn arena_queue_matches_boxed_reference_without_leaks(
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut reference = BoxedRef::new();
        let mut ids = Vec::new();
        let mut now = 0u64;
        let mut payload = 0u64;

        for op in &ops {
            match *op {
                Op::Schedule(d) => {
                    let at = Nanos(now + d);
                    ids.push((q.schedule_at(at, payload), reference.schedule_at(at, payload)));
                    payload += 1;
                }
                Op::Burst(n, d) => {
                    for _ in 0..n {
                        let at = Nanos(now + d as u64);
                        ids.push((q.schedule_at(at, payload), reference.schedule_at(at, payload)));
                        payload += 1;
                    }
                }
                Op::Cancel(i) => {
                    if !ids.is_empty() {
                        let (qid, rid) = ids[i % ids.len()];
                        q.cancel(qid);
                        reference.cancelled.insert(rid);
                    }
                }
                Op::Pop => {
                    let r = reference.pop();
                    prop_assert_eq!(q.pop(), r, "pop diverged");
                    if let Some((t, _)) = r {
                        now = t.0;
                    }
                }
                Op::Peek => {
                    prop_assert_eq!(q.peek_time(), reference.peek_time(), "peek diverged");
                }
            }
            // The no-leak/no-double-free invariant, after *every* op:
            // exactly one live arena payload per pending, non-cancelled
            // entry of the reference. A leak drifts arena_live above it; a
            // double free (or a stale id reaching a recycled slot) below.
            let live = reference.live();
            prop_assert_eq!(q.arena_live(), live, "arena drift");
            prop_assert_eq!(q.is_empty(), live == 0);
        }

        // Drain to the end: streams stay identical and the arena empties
        // out completely — no payload survives its entry.
        loop {
            let r = reference.pop();
            prop_assert_eq!(q.pop(), r, "drain diverged");
            if r.is_none() {
                break;
            }
        }
        prop_assert_eq!(q.arena_live(), 0, "leak after drain");
    }

    #[test]
    fn raw_arena_generation_check_is_sound(
        ops in proptest::collection::vec((0usize..3, 0usize..64), 1..200),
    ) {
        let mut arena: Arena<u64> = Arena::new();
        let mut live: Vec<(ArenaSlot, u64)> = Vec::new();
        let mut retired: Vec<ArenaSlot> = Vec::new();
        let mut next = 0u64;

        for (op, pick) in ops {
            match op {
                // Insert a fresh payload; its handle must not collide with
                // any live handle.
                0 => {
                    let slot = arena.insert(next);
                    prop_assert!(live.iter().all(|&(s, _)| s != slot));
                    live.push((slot, next));
                    next += 1;
                }
                // Take a live payload back out, exactly once.
                1 => {
                    if !live.is_empty() {
                        let (slot, v) = live.swap_remove(pick % live.len());
                        prop_assert_eq!(arena.take(slot), Some(v));
                        retired.push(slot);
                    }
                }
                // Stale handles (double free / use-after-take) must miss
                // both reads and takes, and must not disturb accounting.
                _ => {
                    if !retired.is_empty() {
                        let slot = retired[pick % retired.len()];
                        prop_assert_eq!(arena.get(slot), None);
                        prop_assert_eq!(arena.take(slot), None);
                    }
                }
            }
            prop_assert_eq!(arena.len(), live.len());
            // Every live handle still reads its own payload (no aliasing
            // from slot recycling).
            for &(slot, v) in &live {
                prop_assert_eq!(arena.get(slot), Some(&v));
            }
        }
    }
}
