//! A per-`Sim` slab arena for event payloads.
//!
//! Every event flowing through the DES kernel used to travel *inside* its
//! queue entry: the heap sifted `(key, M)` pairs, so the payload bytes
//! moved on every sift, and large payloads (RDMA frames, work requests)
//! had to be boxed — one recycled heap allocation per frame — to keep
//! entries small. The arena inverts that layout:
//!
//! * payloads live in a stable slab owned by the queue ([`Arena<T>`]);
//! * queue entries are POD `(u128 key, ArenaSlot)` pairs — 8 bytes of
//!   handle instead of the payload — so heap sifts move constant-size
//!   entries no matter how large the driver's event enum grows;
//! * popping *moves* the payload out of its slot and returns the slot to
//!   an internal LIFO free list, so steady-state scheduling performs zero
//!   heap allocation (the slab grows to the high-water mark of pending
//!   events and is reused forever after).
//!
//! Slots are **generation-checked**: [`Arena::take`] bumps the slot's
//! generation when it vacates it, so a stale [`ArenaSlot`] (double-free,
//! or a handle that outlived its payload) misses instead of aliasing the
//! next occupant — the same discipline as [`crate::table::Slab`], with a
//! `Copy` 8-byte handle sized for queue entries. The LIFO free list also
//! gives the hot path temporal locality: the slot vacated by one pop is
//! the slot filled by the next schedule, so the payload bytes stay
//! cache-resident across the trampoline.

/// A generation-checked handle to a payload stored in an [`Arena`].
///
/// 8 bytes, `Copy`, POD — designed to ride inside event-queue entries.
/// A slot handle is only as alive as its payload: once [`Arena::take`]
/// moves the payload out, the handle is stale and every further access
/// through it returns `None`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ArenaSlot {
    idx: u32,
    generation: u32,
}

impl ArenaSlot {
    /// The slot index (diagnostics; stable for the payload's lifetime).
    #[inline]
    pub fn index(self) -> u32 {
        self.idx
    }
}

struct Slot<T> {
    generation: u32,
    val: Option<T>,
}

/// The payload slab: O(1) insert/take with vacated slots recycled under a
/// bumped generation (see module docs).
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Arena<T> {
    /// An empty arena.
    pub fn new() -> Self {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Live payloads currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no payload is stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots ever allocated (the high-water mark; memory diagnostics).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Store `val`, returning its generation-checked slot. Allocates only
    /// when the free list is empty (i.e. when the live population reaches
    /// a new high-water mark).
    #[inline]
    pub fn insert(&mut self, val: T) -> ArenaSlot {
        self.len += 1;
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            debug_assert!(slot.val.is_none(), "free-listed slot still occupied");
            slot.val = Some(val);
            ArenaSlot {
                idx,
                generation: slot.generation,
            }
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(Slot {
                generation: 0,
                val: Some(val),
            });
            ArenaSlot { idx, generation: 0 }
        }
    }

    /// Borrow the payload behind `slot`; `None` if the handle is stale.
    #[inline]
    pub fn get(&self, slot: ArenaSlot) -> Option<&T> {
        match self.slots.get(slot.idx as usize) {
            Some(s) if s.generation == slot.generation => s.val.as_ref(),
            _ => None,
        }
    }

    /// Move the payload out of `slot`, returning the slot to the free list
    /// under a bumped generation. `None` if the handle is stale (already
    /// taken, or from a previous occupant) — a double-take can therefore
    /// never free or alias another payload.
    #[inline]
    pub fn take(&mut self, slot: ArenaSlot) -> Option<T> {
        let s = self.slots.get_mut(slot.idx as usize)?;
        if s.generation != slot.generation {
            return None;
        }
        let val = s.val.take()?;
        s.generation = s.generation.wrapping_add(1);
        self.free.push(slot.idx);
        self.len -= 1;
        Some(val)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_take_round_trip() {
        let mut a: Arena<String> = Arena::new();
        assert!(a.is_empty());
        let s1 = a.insert("one".into());
        let s2 = a.insert("two".into());
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(s1).map(String::as_str), Some("one"));
        assert_eq!(a.take(s2).as_deref(), Some("two"));
        assert_eq!(a.take(s1).as_deref(), Some("one"));
        assert!(a.is_empty());
    }

    #[test]
    fn double_take_misses() {
        let mut a: Arena<u32> = Arena::new();
        let s = a.insert(7);
        assert_eq!(a.take(s), Some(7));
        assert_eq!(a.take(s), None, "double take must miss");
        assert_eq!(a.len(), 0, "double take must not corrupt accounting");
    }

    #[test]
    fn stale_handle_never_aliases_new_occupant() {
        let mut a: Arena<u32> = Arena::new();
        let old = a.insert(1);
        assert_eq!(a.take(old), Some(1));
        // LIFO free list: the next insert reuses the same slot index...
        let new = a.insert(2);
        assert_eq!(new.index(), old.index(), "slot reused");
        assert_ne!(new, old, "generation differs");
        // ...but the stale handle misses both reads and takes.
        assert_eq!(a.get(old), None);
        assert_eq!(a.take(old), None);
        assert_eq!(a.take(new), Some(2));
    }

    #[test]
    fn free_list_bounds_capacity_at_high_water_mark() {
        let mut a: Arena<u64> = Arena::new();
        // Interleaved churn at a live population of 3 must never grow the
        // slab past 3 slots — the zero-steady-state-allocation property.
        let mut live = Vec::new();
        for i in 0..3u64 {
            live.push(a.insert(i));
        }
        for round in 0..100u64 {
            let s = live.remove(0);
            assert!(a.take(s).is_some());
            live.push(a.insert(round));
        }
        assert_eq!(a.capacity(), 3);
        assert_eq!(a.len(), 3);
    }
}
