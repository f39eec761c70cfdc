//! The event queue at the heart of the DES kernel.
//!
//! Events are ordered by `(time, sequence)`: two events scheduled for the
//! same instant fire in the order they were scheduled. This makes every
//! simulation in the workspace fully deterministic — a property the tests
//! rely on (same seed ⇒ byte-identical reports).
//!
//! # Entry layout
//!
//! A heap entry is one `u128`, 16 bytes whatever the payload type:
//!
//! ```text
//!  127            64 63            24 23          0
//! +-----------------+----------------+-------------+
//! |   time (ns)     |  seq (40 bit)  | slot (24 b) |
//! +-----------------+----------------+-------------+
//! ```
//!
//! One wide compare orders entries by `(time, seq)`; `seq` is unique, so
//! the slot bits never decide. The low 64 bits are the event's **tag**.
//! Payloads live in a queue-private slot vector, and each slot remembers
//! the tag of the event it holds: an entry (or an [`EventId`], which *is*
//! the tag) is live exactly when its slot still carries its tag and a
//! payload. A fired or cancelled event's slot returns to a LIFO free
//! list; its next occupant gets a new `seq`, hence a new tag, so a stale
//! id misses instead of aliasing it. Popping *moves* the payload out, so
//! drivers carry full RDMA frames and work requests in their event enums
//! without boxing them, and steady-state scheduling allocates nothing.
//!
//! **Limits:** 2⁴⁰ schedules per queue (≈ 30 h of host time at 10⁷
//! events/s) and 2²⁴ events pending at once. Both are `assert!`ed: the
//! sequence check is one compare per schedule, the slot check sits on the
//! slot vector's growth path.
//!
//! # Hold fusion
//!
//! A driver loop pops an event and, most of the time, schedules its
//! follow-up next. [`EventQueue::pop_until`] therefore leaves the consumed
//! root in the heap (*held*); the next [`EventQueue::schedule_at`]
//! overwrites it through `BinaryHeap::peek_mut`, one sift-down instead of
//! a pop's sift plus a push's. Every other heap operation first removes
//! the held root, and [`EventQueue::len`] never counts it.
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
//! A 4-ary heap over the 16-byte entries was measured 7 % slower on
//! `multinode32`. A second backend needs a benchmark workload holding
//! ≥ 4 k events (ROADMAP.md has the full record and the re-entry rule).
//!
//! The contract:
//! * strict `(time, seq)` pop order, same-instant FIFO;
//! * cancellation by [`EventId`] frees the payload at once; the heap entry
//!   stays behind as a tombstone and is skipped when it reaches the front.
//!   An id whose event already fired or was already cancelled is stale —
//!   its tag check misses — so cancelling it does nothing;
//! * scheduling never targets the past — the [`Sim`] driver clamps to
//!   "now" at its layer; the queue stores submitted times verbatim.
//!
//! [`Sim`]: crate::sim::Sim

// Kernel steady state: a panic mid-window poisons the shard barrier and
// kills the run.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::Nanos;

/// Low bits of a tag: the payload slot.
const SLOT_BITS: u32 = 24;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;
/// Schedules one queue can number: the tag's upper 40 bits.
const SEQ_LIMIT: u64 = 1 << (64 - SLOT_BITS);

/// Identifier of a scheduled event, used to cancel timers: the event's
/// tag (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId(u64);

/// A payload slot: the tag of the event that last occupied it, and its
/// payload while that event is pending.
struct Slot<M> {
    tag: u64,
    msg: Option<M>,
}

/// A time-ordered queue of events carrying messages of type `M`.
///
/// The heap orders 16-byte keys and every pop moves the message out of its
/// slot (see the module docs).
pub struct EventQueue<M> {
    /// `Reverse`: `BinaryHeap` is a max-heap; the earliest key pops first.
    heap: BinaryHeap<Reverse<u128>>,
    /// Invariant: a heap entry whose tag still redeems its slot is a
    /// pending event; one whose tag misses was cancelled (or is the held
    /// root).
    slots: Vec<Slot<M>>,
    free: Vec<u32>,
    /// Payloads resident: the pending, non-cancelled events.
    live: usize,
    next_seq: u64,
    /// The heap's root was consumed by the last pop (hold fusion).
    held: bool,
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
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_seq: 0,
            held: false,
        }
    }

    /// Schedule `msg` to fire at absolute time `at`. Returns an id that can
    /// later be passed to [`EventQueue::cancel`]. A held root is
    /// overwritten in place (hold fusion); otherwise the entry is pushed.
    #[inline(always)]
    pub fn schedule_at(&mut self, at: Nanos, msg: M) -> EventId {
        let seq = self.next_seq;
        assert!(seq < SEQ_LIMIT, "event queue: 2^40 sequence numbers used up");
        self.next_seq += 1;
        let tag = match self.free.pop() {
            Some(idx) => {
                let tag = (seq << SLOT_BITS) | u64::from(idx);
                self.slots[idx as usize] = Slot { tag, msg: Some(msg) };
                tag
            }
            None => {
                // A new high-water mark of pending events.
                let idx = self.slots.len() as u64;
                assert!(idx <= SLOT_MASK, "event queue: 2^24 events pending");
                let tag = (seq << SLOT_BITS) | idx;
                self.slots.push(Slot { tag, msg: Some(msg) });
                tag
            }
        };
        self.live += 1;

        let key = Reverse((u128::from(at.0) << 64) | u128::from(tag));
        if std::mem::take(&mut self.held) {
            self.replace_root(key);
        } else {
            self.heap.push(key);
        }
        EventId(tag)
    }

    /// Overwrite the held root with `key`; dropping the `PeekMut` sifts it
    /// down from the top. Kept out of line: with the sift-down inside,
    /// `schedule_at` is too large to inline into the drivers' seeding
    /// loops, which measured ≈ 30 % slower `multinode32` setup.
    #[inline(never)]
    fn replace_root(&mut self, key: Reverse<u128>) {
        if let Some(mut root) = self.heap.peek_mut() {
            *root = key;
        }
    }

    /// Move the payload tagged `tag` out of its slot and free the slot;
    /// `None` if the tag is stale (fired, cancelled, or a slot since
    /// reused).
    #[inline]
    fn take(&mut self, tag: u64) -> Option<M> {
        let idx = (tag & SLOT_MASK) as usize;
        let slot = self.slots.get_mut(idx).filter(|s| s.tag == tag)?;
        let msg = slot.msg.take()?;
        self.free.push(idx as u32);
        self.live -= 1;
        Some(msg)
    }

    /// Whether the event tagged `tag` is still pending.
    #[inline]
    fn is_live(&self, tag: u64) -> bool {
        self.slots
            .get((tag & SLOT_MASK) as usize)
            .is_some_and(|s| s.tag == tag && s.msg.is_some())
    }

    /// Remove the held root, if any, before a heap operation other than
    /// the fused schedule.
    #[inline]
    fn release(&mut self) {
        if std::mem::take(&mut self.held) {
            self.heap.pop();
        }
    }

    /// Cancel a previously scheduled event, dropping its payload now.
    /// Cancelling an event that already fired (or was already cancelled)
    /// is a no-op: the stale id misses its slot's tag check.
    pub fn cancel(&mut self, id: EventId) {
        self.take(id.0);
    }

    /// Remove and return the earliest pending event only if it fires at or
    /// before `deadline`; later events stay queued. One call for the
    /// peek-compare-pop sequence on the hottest loop in the workspace. The
    /// popped entry stays in the heap as the held root (module docs).
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
        self.release();
        loop {
            let Reverse(key) = *self.heap.peek()?;
            let at = Nanos((key >> 64) as u64);
            if at > deadline {
                return None;
            }
            if let Some(msg) = self.take(key as u64) {
                self.held = true;
                return Some((at, msg));
            }
            self.heap.pop();
        }
    }

    /// Remove and return the earliest pending event, skipping cancelled
    /// entries. Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(Nanos, M)> {
        self.pop_until(Nanos(u64::MAX))
    }

    /// Time of the earliest pending (non-cancelled) event without removing
    /// it. Cancelled entries encountered at the front are discarded.
    // simlint: allow(unreached-pub) — the queue proptests' reference check of the cancelled-head discard, and their windowed drain's jump past empty windows
    pub fn peek_time(&mut self) -> Option<Nanos> {
        self.release();
        loop {
            let Reverse(key) = *self.heap.peek()?;
            if self.is_live(key as u64) {
                return Some(Nanos((key >> 64) as u64));
            }
            self.heap.pop();
        }
    }

    /// Number of heap entries (including not-yet-skipped cancelled ones,
    /// excluding the held root).
    pub fn len(&self) -> usize {
        self.heap.len() - usize::from(self.held)
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Payloads resident: exactly the pending, non-cancelled events.
    /// Exposed so the property tests can assert the no-leak/no-double-free
    /// invariant from outside.
    pub fn live(&self) -> usize {
        self.live
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
    fn equal_time_fifo_survives_slot_reuse() {
        // Slots are reused LIFO, so later events land in *lower* slots
        // than earlier ones; the seq bits above the slot bits must still
        // order same-instant events by schedule order.
        let mut q = EventQueue::new();
        for v in 0..4 {
            q.schedule_at(Nanos(1), v);
        }
        while q.pop().is_some() {} // slots 0..4 free, 3 on top
        for v in 10..16 {
            q.schedule_at(Nanos(9), v); // slots 3, 2, 1, 0, then 4, 5
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, [10, 11, 12, 13, 14, 15]);
        assert_eq!(q.slots.len(), 6);
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(Nanos(1), "a");
        q.schedule_at(Nanos(2), "b");
        q.cancel(a);
        assert_eq!(q.live(), 1, "cancel frees the payload at once");
        assert_eq!(q.pop(), Some((Nanos(2), "b")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.live(), 0);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(Nanos(1), "a");
        assert_eq!(q.pop(), Some((Nanos(1), "a")));
        q.cancel(a); // already fired: must leave no trace
        q.schedule_at(Nanos(2), "b");
        assert!(!q.is_empty());
        assert_eq!((q.len(), q.live()), (1, 1));
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
        assert_eq!(q.live(), 1);
        // A new event takes the freed slot; cancelling `a` a third time
        // must not free it.
        q.schedule_at(Nanos(3), "c");
        q.cancel(a);
        assert_eq!(q.live(), 2);
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
    fn held_root_is_replaced_by_the_next_schedule() {
        let mut q = EventQueue::new();
        q.schedule_at(Nanos(1), "a");
        q.schedule_at(Nanos(5), "b");
        assert_eq!(q.pop(), Some((Nanos(1), "a")));
        assert_eq!((q.heap.len(), q.len()), (2, 1), "the consumed root is held");
        q.schedule_at(Nanos(3), "c");
        assert_eq!((q.heap.len(), q.len()), (2, 2), "fused: no push");
        assert_eq!(q.pop(), Some((Nanos(3), "c")));
        assert_eq!(q.pop(), Some((Nanos(5), "b")));
        assert_eq!(q.pop(), None);
        assert_eq!((q.heap.len(), q.len()), (0, 0));
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
        // The slot vector is the queue's payload arena.
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.schedule_at(Nanos(i * 3), i);
        }
        assert_eq!(q.live(), q.len());
        for _ in 0..60 {
            q.pop();
        }
        assert_eq!(q.live(), q.len());
        while q.pop().is_some() {}
        assert_eq!(q.live(), 0);
        assert_eq!(q.slots.len(), 100, "slots grow to the high-water mark only");
    }
}
