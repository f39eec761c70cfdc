//! The event queue at the heart of the DES kernel.
//!
//! Events are ordered by `(time, sequence)`: two events scheduled for the
//! same instant fire in the order they were scheduled. This makes every
//! simulation in the workspace fully deterministic — a property the tests
//! rely on (same seed ⇒ byte-identical reports).
//!
//! # Payload arena
//!
//! Message payloads do **not** travel inside queue entries. Every
//! scheduled `M` lives in a per-queue slab arena ([`crate::arena::Arena`])
//! and the heap orders POD `(u128 key, ArenaSlot)` pairs — so sifts move
//! 32-byte entries no matter how large the driver's event enum is, and
//! popping *moves* the payload out of its generation-checked slot (the
//! slot returns to the arena's free list: zero steady-state heap
//! traffic). This is what lets drivers carry full RDMA frames and work
//! requests in their event enums without boxing them.
//!
//! # One backend: a binary heap
//!
//! The queue is `std::collections::BinaryHeap` over those entries and
//! nothing else. A hierarchical timer wheel (with an adaptive heap→wheel
//! migration) shipped until PR 19 and was removed on measurement:
//!
//! * max pending events over a 10 s run of the five `BENCHMARK.json`
//!   workloads: 111 / 54 per shard / 119 / 188 / 256; Fig 9/13/15 ≤ 144,
//!   Fig 16 ≤ 291, Fig 14 (the largest of any binary) 770;
//! * hold model, ns/op heap vs wheel: 29/48 at 32 pending, 43/66 at 256,
//!   54/65 at 1 024, 62/57 at 4 096, 78/63 at 16 384 — crossover ≈ 4 k;
//! * wall seconds heap vs wheel: `multinode32` 2.00/2.56, Fig 14 7.49/9.34.
//!
//! A second backend needs a benchmark workload holding ≥ 4 k events
//! (ROADMAP.md has the full record and the re-entry rule).
//!
//! The contract:
//! * strict `(time, seq)` pop order, same-instant FIFO;
//! * cancellation by [`EventId`] frees the payload at once; the heap entry
//!   stays behind as a tombstone and is skipped when it reaches the front.
//!   An id whose event already fired or was already cancelled is stale —
//!   its generation check misses — so cancelling it does nothing;
//! * scheduling never targets the past — the [`Sim`] driver clamps to
//!   "now" at its layer; the queue stores submitted times verbatim.
//!
//! [`Sim`]: crate::sim::Sim

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::arena::{Arena, ArenaSlot};
use crate::time::Nanos;

/// Identifier of a scheduled event, used to cancel timers: the event's
/// generation-checked payload slot.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId(ArenaSlot);

/// A queue entry: the full `(time << 64) | seq` ordering key (one
/// branchless wide compare per sift — pops are the hottest comparisons in
/// the workspace) plus the arena slot holding the payload. POD and
/// `Copy`: the heap moves entries freely without touching payload bytes.
#[derive(Clone, Copy)]
struct Entry {
    key: u128,
    slot: ArenaSlot,
}

impl Entry {
    #[inline]
    fn new(at: Nanos, seq: u64, slot: ArenaSlot) -> Self {
        Entry {
            key: ((at.0 as u128) << 64) | seq as u128,
            slot,
        }
    }

    #[inline]
    fn at(&self) -> Nanos {
        Nanos((self.key >> 64) as u64)
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest (time, seq) pops
        // first.
        other.key.cmp(&self.key)
    }
}

/// A time-ordered queue of events carrying messages of type `M`.
///
/// Payloads are arena-resident (see the module docs): the heap orders POD
/// entries and every pop moves the message out of its slot.
pub struct EventQueue<M> {
    heap: BinaryHeap<Entry>,
    /// The payload slab. Invariant: a heap entry whose slot still redeems
    /// is a pending event; one whose slot misses was cancelled.
    arena: Arena<M>,
    next_seq: u64,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> EventQueue<M> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            arena: Arena::new(),
            next_seq: 0,
        }
    }

    /// Schedule `msg` to fire at absolute time `at`. Returns an id that can
    /// later be passed to [`EventQueue::cancel`]. The payload goes into
    /// the arena; only its POD handle enters the heap.
    pub fn schedule_at(&mut self, at: Nanos, msg: M) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.arena.insert(msg);
        self.heap.push(Entry::new(at, seq, slot));
        EventId(slot)
    }

    /// Cancel a previously scheduled event, dropping its payload now.
    /// Cancelling an event that already fired (or was already cancelled)
    /// is a no-op: the stale id misses the arena's generation check.
    pub fn cancel(&mut self, id: EventId) {
        self.arena.take(id.0);
    }

    /// Remove and return the earliest pending event only if it fires at or
    /// before `deadline`; later events stay queued. One call for the
    /// peek-compare-pop sequence on the hottest loop in the workspace.
    ///
    /// # Boundary contract
    ///
    /// The deadline is **inclusive**: an event scheduled exactly at
    /// `deadline` is popped, one at `deadline + 1` is not. The sharded
    /// runner's window barriers depend on this being exact — a window
    /// covering `[start, end)` drains via `pop_until(end - 1)`, and an
    /// off-by-one here would fire an event before the cross-shard
    /// arrivals that must precede it. Pinned by the
    /// `pop_until_boundary_is_exact` property test
    /// (`tests/prop_queue.rs`).
    pub fn pop_until(&mut self, deadline: Nanos) -> Option<(Nanos, M)> {
        loop {
            if self.heap.peek()?.at() > deadline {
                return None;
            }
            let e = self.heap.pop()?;
            if let Some(msg) = self.arena.take(e.slot) {
                return Some((e.at(), msg));
            }
        }
    }

    /// Remove and return the earliest pending event, skipping cancelled
    /// entries. Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(Nanos, M)> {
        loop {
            let e = self.heap.pop()?;
            if let Some(msg) = self.arena.take(e.slot) {
                return Some((e.at(), msg));
            }
        }
    }

    /// Time of the earliest pending (non-cancelled) event without removing
    /// it. Cancelled entries encountered at the front are discarded.
    pub fn peek_time(&mut self) -> Option<Nanos> {
        loop {
            let e = self.heap.peek()?;
            if self.arena.get(e.slot).is_some() {
                return Some(e.at());
            }
            self.heap.pop();
        }
    }

    /// Number of heap entries (including not-yet-skipped cancelled ones).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Payloads resident in the arena: exactly the pending, non-cancelled
    /// events. Exposed so the property tests can assert the
    /// no-leak/no-double-free invariant from outside.
    pub fn arena_live(&self) -> usize {
        self.arena.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(Nanos(30), "c");
        q.schedule_at(Nanos(10), "a");
        q.schedule_at(Nanos(20), "b");
        assert_eq!(q.pop(), Some((Nanos(10), "a")));
        assert_eq!(q.pop(), Some((Nanos(20), "b")));
        assert_eq!(q.pop(), Some((Nanos(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut q = EventQueue::new();
        q.schedule_at(Nanos(5), 1);
        q.schedule_at(Nanos(5), 2);
        q.schedule_at(Nanos(5), 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(Nanos(1), "a");
        q.schedule_at(Nanos(2), "b");
        q.cancel(a);
        assert_eq!(q.arena_live(), 1, "cancel frees the payload at once");
        assert_eq!(q.pop(), Some((Nanos(2), "b")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.arena_live(), 0);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(Nanos(1), "a");
        assert_eq!(q.pop(), Some((Nanos(1), "a")));
        q.cancel(a); // already fired: must leave no trace
        q.schedule_at(Nanos(2), "b");
        assert!(!q.is_empty());
        assert_eq!((q.len(), q.arena_live()), (1, 1));
        // "b" recycled a's slot; the stale id must not reach it.
        q.cancel(a);
        assert_eq!(q.pop(), Some((Nanos(2), "b")));
        assert!(q.is_empty());
    }

    #[test]
    fn double_cancel_frees_exactly_one_payload() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(Nanos(1), "a");
        q.schedule_at(Nanos(2), "b");
        q.cancel(a);
        q.cancel(a);
        assert_eq!(q.arena_live(), 1);
        // A new event takes the freed slot; cancelling `a` a third time
        // must not free it.
        q.schedule_at(Nanos(3), "c");
        q.cancel(a);
        assert_eq!(q.arena_live(), 2);
        assert_eq!(q.pop(), Some((Nanos(2), "b")));
        assert_eq!(q.pop(), Some((Nanos(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(Nanos(1), "a");
        q.schedule_at(Nanos(7), "b");
        q.cancel(a);
        assert_eq!(q.len(), 2, "the tombstone stays until it reaches the front");
        assert_eq!(q.peek_time(), Some(Nanos(7)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((Nanos(7), "b")));
    }

    #[test]
    fn pop_until_skips_cancelled_and_respects_the_deadline() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(Nanos(1), "a");
        q.schedule_at(Nanos(7), "b");
        q.cancel(a);
        assert_eq!(q.pop_until(Nanos(6)), None);
        assert_eq!(q.pop_until(Nanos(7)), Some((Nanos(7), "b")));
        assert_eq!(q.pop_until(Nanos(u64::MAX)), None);
    }

    #[test]
    fn is_empty_accounts_for_cancelled() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        let a = q.schedule_at(Nanos(1), 0);
        assert!(!q.is_empty());
        q.cancel(a);
        assert!(q.is_empty());
    }

    #[test]
    fn arena_tracks_pending_population() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.schedule_at(Nanos(i * 3), i);
        }
        assert_eq!(q.arena_live(), q.len());
        for _ in 0..60 {
            q.pop();
        }
        assert_eq!(q.arena_live(), q.len());
        while q.pop().is_some() {}
        assert_eq!(q.arena_live(), 0);
    }
}
