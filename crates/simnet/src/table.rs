//! Dense ID-indexed state tables for the simulation hot path.
//!
//! Every ID in the workspace (`Qpn`, `TenantId`, `FnId`, `NodeId`, WR ids)
//! is a small dense integer, yet the seed kept per-ID state in SipHash
//! `HashMap`s — several hashes per simulated event. These two containers
//! replace them on the hot paths:
//!
//! * [`IdTable`] — a `Vec<Option<V>>` keyed directly by the raw integer ID,
//!   for ID spaces that are dense and never reused (tenants, functions,
//!   nodes, QPNs). Lookup is a bounds-check and an index.
//! * [`Slab`] — a generation-checked free-list slab for ID spaces that
//!   *are* reused (in-flight WR ids). Keys pack
//!   `(generation << 32) | slot`, so a stale key from a previous occupant
//!   of the slot misses instead of aliasing.
//! * [`PageTable`] — a two-level table (256-entry pages) for ID spaces
//!   that are *large but sparse*, e.g. the 16-bit fn-id space of the
//!   routing tables at production scale: a node routing a handful of
//!   functions allocates a page or two instead of a dense 64 Ki-entry
//!   vector, while lookups stay two indexes (no hashing). IDs below 256
//!   take the dense fast path through the always-present first page.
//!
//! Iteration over any of these tables is in index order, which keeps
//! everything downstream deterministic by construction (no hash-order
//! dependence).

/// A dense table keyed by a small integer ID.
///
/// Grows on demand; absent keys read as `None`. Intended for ID spaces
/// whose values are assigned densely from zero (or near it) and never
/// recycled — for recycled IDs use [`Slab`].
#[derive(Clone, Debug)]
pub struct IdTable<V> {
    entries: Vec<Option<V>>,
    len: usize,
}

impl<V> Default for IdTable<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> IdTable<V> {
    /// An empty table.
    pub fn new() -> Self {
        IdTable {
            entries: Vec::new(),
            len: 0,
        }
    }

    /// An empty table pre-sized for keys `< cap`.
    pub fn with_capacity(cap: usize) -> Self {
        IdTable {
            entries: Vec::with_capacity(cap),
            len: 0,
        }
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entry is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Borrow the value at `id`.
    #[inline]
    pub fn get(&self, id: usize) -> Option<&V> {
        self.entries.get(id).and_then(|e| e.as_ref())
    }

    /// Mutably borrow the value at `id`.
    #[inline]
    pub fn get_mut(&mut self, id: usize) -> Option<&mut V> {
        self.entries.get_mut(id).and_then(|e| e.as_mut())
    }

    /// Insert (or replace) the value at `id`; returns the previous value.
    pub fn insert(&mut self, id: usize, v: V) -> Option<V> {
        if id >= self.entries.len() {
            self.entries.resize_with(id + 1, || None);
        }
        let prev = self.entries[id].replace(v);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Remove and return the value at `id`.
    pub fn remove(&mut self, id: usize) -> Option<V> {
        let prev = self.entries.get_mut(id).and_then(|e| e.take());
        if prev.is_some() {
            self.len -= 1;
        }
        prev
    }

    /// True when `id` is occupied.
    #[inline]
    pub fn contains(&self, id: usize) -> bool {
        self.get(id).is_some()
    }

    /// Mutable access to the value at `id`, inserting `default()` first if
    /// the slot is empty (the `HashMap::entry(..).or_default()` idiom).
    pub fn get_or_insert_with(&mut self, id: usize, default: impl FnOnce() -> V) -> &mut V {
        if !self.contains(id) {
            self.insert(id, default());
        }
        self.entries[id].as_mut().expect("just inserted")
    }

    /// Occupied `(id, &value)` pairs in ascending ID order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &V)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|v| (i, v)))
    }

    /// Occupied values in ascending ID order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().filter_map(|e| e.as_ref())
    }
}

/// log2 of the [`PageTable`] page size.
const PAGE_BITS: usize = 8;
/// Entries per [`PageTable`] page.
const PAGE_SIZE: usize = 1 << PAGE_BITS;

/// A two-level table keyed by a small integer ID: a directory of lazily
/// allocated 256-entry pages.
///
/// Sparse ID populations over a wide key space (the 16-bit fn-id space at
/// production function counts) pay memory proportional to the number of
/// *touched pages*, not the key-space width — where [`IdTable`] would
/// allocate one dense slot per possible ID. Lookup is two unchecked-width
/// indexes and stays hash-free; page 0 is allocated eagerly so the common
/// small-ID range (`id < 256`) never branches on a missing page.
#[derive(Clone, Debug)]
pub struct PageTable<V> {
    pages: Vec<Option<Box<[Option<V>]>>>,
    len: usize,
}

impl<V> Default for PageTable<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> PageTable<V> {
    fn empty_page() -> Box<[Option<V>]> {
        (0..PAGE_SIZE).map(|_| None).collect()
    }

    /// An empty table with the dense first page pre-allocated.
    pub fn new() -> Self {
        PageTable {
            pages: vec![Some(Self::empty_page())],
            len: 0,
        }
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entry is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pages currently allocated (memory-footprint diagnostics).
    pub fn pages_allocated(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Borrow the value at `id`.
    #[inline]
    pub fn get(&self, id: usize) -> Option<&V> {
        self.pages
            .get(id >> PAGE_BITS)?
            .as_ref()?
            .get(id & (PAGE_SIZE - 1))?
            .as_ref()
    }

    /// Mutably borrow the value at `id`.
    #[inline]
    pub fn get_mut(&mut self, id: usize) -> Option<&mut V> {
        self.pages
            .get_mut(id >> PAGE_BITS)?
            .as_mut()?
            .get_mut(id & (PAGE_SIZE - 1))?
            .as_mut()
    }

    /// True when `id` is occupied.
    #[inline]
    pub fn contains(&self, id: usize) -> bool {
        self.get(id).is_some()
    }

    /// Insert (or replace) the value at `id`; returns the previous value.
    pub fn insert(&mut self, id: usize, v: V) -> Option<V> {
        let pno = id >> PAGE_BITS;
        if pno >= self.pages.len() {
            self.pages.resize_with(pno + 1, || None);
        }
        let page = self.pages[pno].get_or_insert_with(Self::empty_page);
        let prev = page[id & (PAGE_SIZE - 1)].replace(v);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Remove and return the value at `id`. Emptied pages are kept
    /// allocated (route tables churn within a working set; dropping the
    /// page to re-allocate it on the next deploy would thrash).
    pub fn remove(&mut self, id: usize) -> Option<V> {
        let prev = self
            .pages
            .get_mut(id >> PAGE_BITS)
            .and_then(|p| p.as_mut())
            .and_then(|p| p[id & (PAGE_SIZE - 1)].take());
        if prev.is_some() {
            self.len -= 1;
        }
        prev
    }

    /// Occupied `(id, &value)` pairs in ascending ID order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &V)> {
        self.pages.iter().enumerate().flat_map(|(pno, page)| {
            page.iter()
                .flat_map(|p| p.iter())
                .enumerate()
                .filter_map(move |(i, e)| e.as_ref().map(|v| ((pno << PAGE_BITS) | i, v)))
        })
    }
}

const GEN_SHIFT: u32 = 32;
const IDX_MASK: u64 = (1 << GEN_SHIFT) - 1;

/// A generation-checked slab: O(1) insert/remove with freed slots recycled
/// under a new generation, so stale keys never alias a new occupant.
#[derive(Clone, Debug)]
pub struct Slab<V> {
    entries: Vec<(u32, Option<V>)>,
    free: Vec<u32>,
    len: usize,
}

impl<V> Default for Slab<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> Slab<V> {
    /// An empty slab.
    pub fn new() -> Self {
        Slab {
            entries: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Store `v`, returning its key (`generation << 32 | slot`).
    pub fn insert(&mut self, v: V) -> u64 {
        self.len += 1;
        if let Some(idx) = self.free.pop() {
            let (generation, val) = &mut self.entries[idx as usize];
            debug_assert!(val.is_none());
            *val = Some(v);
            ((*generation as u64) << GEN_SHIFT) | idx as u64
        } else {
            let idx = self.entries.len() as u32;
            self.entries.push((0, Some(v)));
            idx as u64
        }
    }

    #[inline]
    fn slot(&self, key: u64) -> Option<usize> {
        let idx = (key & IDX_MASK) as usize;
        let generation = (key >> GEN_SHIFT) as u32;
        match self.entries.get(idx) {
            Some((g, Some(_))) if *g == generation => Some(idx),
            _ => None,
        }
    }

    /// Borrow the value for `key`; `None` if absent or stale.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        self.slot(key)
            .and_then(|idx| self.entries[idx].1.as_ref())
    }

    /// Remove and return the value for `key`; `None` if absent or stale.
    /// The slot is recycled under a bumped generation.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let idx = self.slot(key)?;
        let (generation, val) = &mut self.entries[idx];
        let v = val.take();
        *generation = generation.wrapping_add(1);
        self.free.push(idx as u32);
        self.len -= 1;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_table_basics() {
        let mut t: IdTable<&str> = IdTable::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(3, "a"), None);
        assert_eq!(t.insert(0, "b"), None);
        assert_eq!(t.insert(3, "c"), Some("a"));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(3), Some(&"c"));
        assert_eq!(t.get(7), None);
        assert!(t.contains(0));
        let pairs: Vec<(usize, &&str)> = t.iter().collect();
        assert_eq!(pairs, vec![(0, &"b"), (3, &"c")]);
        assert_eq!(t.remove(0), Some("b"));
        assert_eq!(t.remove(0), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn id_table_or_insert_with() {
        let mut t: IdTable<u64> = IdTable::new();
        *t.get_or_insert_with(5, || 0) += 7;
        *t.get_or_insert_with(5, || 0) += 1;
        assert_eq!(t.get(5), Some(&8));
    }

    #[test]
    fn page_table_basics() {
        let mut t: PageTable<&str> = PageTable::new();
        assert!(t.is_empty());
        assert_eq!(t.pages_allocated(), 1, "dense first page pre-allocated");
        assert_eq!(t.insert(3, "a"), None);
        assert_eq!(t.insert(0xFFFF, "z"), None);
        assert_eq!(t.insert(3, "b"), Some("a"));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(3), Some(&"b"));
        assert_eq!(t.get(0xFFFF), Some(&"z"));
        assert_eq!(t.get(700), None, "unallocated page misses cleanly");
        assert!(t.contains(3) && !t.contains(4));
        let pairs: Vec<(usize, &&str)> = t.iter().collect();
        assert_eq!(pairs, vec![(3, &"b"), (0xFFFF, &"z")]);
        assert_eq!(t.remove(3), Some("b"));
        assert_eq!(t.remove(3), None);
        assert_eq!(t.len(), 1);
        *t.get_mut(0xFFFF).unwrap() = "y";
        assert_eq!(t.get(0xFFFF), Some(&"y"));
    }

    #[test]
    fn page_table_is_sparse() {
        // A production-scale spread of fn ids across the 16-bit space must
        // allocate only the touched pages, not 64 Ki entries.
        let mut t: PageTable<u32> = PageTable::new();
        for f in [1usize, 42, 300, 5_000, 40_000, 65_535] {
            t.insert(f, f as u32);
        }
        // ids 1+42 share page 0; the rest land on one page each.
        assert_eq!(t.pages_allocated(), 5);
        assert_eq!(t.len(), 6);
        for f in [1usize, 42, 300, 5_000, 40_000, 65_535] {
            assert_eq!(t.get(f), Some(&(f as u32)));
        }
    }

    #[test]
    fn slab_round_trip_and_recycling() {
        let mut s: Slab<String> = Slab::new();
        let a = s.insert("a".into());
        let b = s.insert("b".into());
        assert_ne!(a, b);
        assert_eq!(s.get(a).map(String::as_str), Some("a"));
        assert_eq!(s.remove(a).as_deref(), Some("a"));
        assert_eq!(s.remove(a), None, "double remove misses");
        // The slot is recycled under a new generation: the stale key `a`
        // must not alias the new occupant.
        let c = s.insert("c".into());
        assert_eq!(c & IDX_MASK, a & IDX_MASK, "slot reused");
        assert_ne!(c, a, "generation differs");
        assert_eq!(s.get(a), None, "stale key misses");
        assert_eq!(s.get(c).map(String::as_str), Some("c"));
        assert_eq!(s.len(), 2);
        assert_eq!(s.remove(b).as_deref(), Some("b"));
        assert_eq!(s.remove(c).as_deref(), Some("c"));
        assert!(s.is_empty());
    }
}
