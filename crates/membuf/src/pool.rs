//! The unified shared-memory pool: pool-based buffer allocation with
//! exclusive-ownership semantics.
//!
//! This is the reproduction of Palladium's per-tenant unified memory pool
//! (§3.4): a fixed number of equal-size buffers reserved up front
//! (`rte_mempool_get()`/`rte_mempool_put()` in the paper's DPDK
//! implementation), shared by every function of one tenant, by the network
//! engine, and — through cross-processor mmap — by the RNIC.
//!
//! Ownership is enforced with *move-only tokens* ([`BufToken`]): holding the
//! token is the capability to read, write or recycle the buffer, emulating
//! the paper's token-passing scheme (§3.5.1) that guarantees lock-free
//! single-producer/single-consumer buffer access. Converting a token into a
//! [`BufDesc`] (for SK_MSG/Comch hand-off) marks the buffer `InTransit`;
//! redeeming the descriptor on the other side reclaims exclusive ownership.
//! Double-redeem, stale-generation and wrong-pool accesses are all hard
//! errors — the test suite and the property tests lean on this.

use std::fmt;

use bytes::Bytes;

use crate::desc::BufDesc;
use crate::ids::{FnId, Owner, PoolId, TenantId};
use crate::meter::{CopyMeter, MoveKind};

/// Errors surfaced by pool operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PoolError {
    /// The free list is empty — allocation failed.
    Exhausted,
    /// Token or descriptor references a different pool.
    WrongPool,
    /// Token generation does not match the slot (stale/duplicated token).
    StaleToken,
    /// Buffer is not in the expected ownership state.
    BadOwner {
        /// Ownership state found on the slot.
        found: Owner,
    },
    /// Payload larger than the pool's buffer size.
    TooLarge,
    /// Descriptor index out of range.
    BadIndex,
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::Exhausted => write!(f, "memory pool exhausted"),
            PoolError::WrongPool => write!(f, "token references another pool"),
            PoolError::StaleToken => write!(f, "stale buffer token (generation mismatch)"),
            PoolError::BadOwner { found } => {
                write!(f, "buffer in unexpected ownership state {found:?}")
            }
            PoolError::TooLarge => write!(f, "payload exceeds pool buffer size"),
            PoolError::BadIndex => write!(f, "buffer index out of range"),
        }
    }
}

impl std::error::Error for PoolError {}

/// The unforgeable capability to one buffer. Move-only by construction (no
/// `Clone`): Rust's move semantics *are* the token passing.
#[derive(Debug, PartialEq, Eq)]
pub struct BufToken {
    pool: PoolId,
    idx: u32,
    gen: u32,
}

impl BufToken {
    /// Pool this token belongs to.
    pub fn pool(&self) -> PoolId {
        self.pool
    }

    /// Buffer index within the pool.
    pub fn idx(&self) -> u32 {
        self.idx
    }
}

#[derive(Clone, Debug)]
struct Slot {
    gen: u32,
    owner: Owner,
    len: u32,
    /// The buffer's current payload as a refcounted handle. Copies into
    /// the pool are *metered* (that is the simulation semantics); the
    /// content itself travels as a cheap handle, so the data plane moves
    /// no payload bytes — the same zero-copy discipline the reproduction
    /// models.
    content: Bytes,
}

/// A fixed-size pool of equal-size buffers. The reserved region's *size*
/// models the up-front hugepage reservation (MR registration / MTT sizing
/// read it); payload content rides per-buffer [`Bytes`] handles.
///
/// Slot bookkeeping is materialised on first touch: a run touches the RQ
/// depth plus its in-flight buffers, a small fraction of the reservation,
/// so construction is O(1) and `slots` only ever grows to the high-water
/// mark of concurrently allocated buffers.
pub struct UnifiedPool {
    id: PoolId,
    tenant: TenantId,
    buf_size: u32,
    n_bufs: u32,
    /// Slots `0..slots.len()` have been handed out at least once; indices
    /// `slots.len()..n_bufs` are untouched (free, generation 0).
    slots: Vec<Slot>,
    /// Recycled indices, most-recently-freed on top.
    free: Vec<u32>,
}

impl UnifiedPool {
    /// A pool of `n_bufs` buffers of `buf_size` bytes each, owned by
    /// `tenant`.
    pub fn new(id: PoolId, tenant: TenantId, n_bufs: u32, buf_size: u32) -> Self {
        assert!(n_bufs > 0, "pool must hold at least one buffer");
        assert!(buf_size > 0, "buffers must be non-empty");
        UnifiedPool {
            id,
            tenant,
            buf_size,
            n_bufs,
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Pool identifier.
    pub fn id(&self) -> PoolId {
        self.id
    }

    /// Total number of buffers.
    pub fn capacity(&self) -> u32 {
        self.n_bufs
    }

    /// Buffers currently allocated (owned by someone or in transit). No
    /// binary reads it; it is the pool tests' leak check.
    pub fn in_use(&self) -> u32 {
        (self.slots.len() - self.free.len()) as u32
    }

    /// Total backing bytes (for MR registration / MTT sizing).
    pub fn backing_len(&self) -> u64 {
        self.n_bufs as u64 * self.buf_size as u64
    }

    /// Allocate one buffer for `owner`. O(1): pops the free list — the
    /// paper's motivation for pool-based allocation over malloc (§3.4).
    /// LIFO: the most-recently-freed buffer first for cache warmth, like
    /// rte_mempool's per-core cache; untouched buffers follow in ascending
    /// index order.
    pub fn alloc(&mut self, owner: Owner) -> Result<BufToken, PoolError> {
        debug_assert!(owner.can_access(), "cannot allocate for a passive owner");
        let (idx, gen) = if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            slot.owner = owner;
            (idx, slot.gen)
        } else if self.slots.len() < self.n_bufs as usize {
            self.slots.push(Slot {
                gen: 0,
                owner,
                len: 0,
                content: Bytes::new(),
            });
            (self.slots.len() as u32 - 1, 0)
        } else {
            return Err(PoolError::Exhausted);
        };
        Ok(BufToken {
            pool: self.id,
            idx,
            gen,
        })
    }

    fn check(&self, tok: &BufToken) -> Result<usize, PoolError> {
        if tok.pool != self.id {
            return Err(PoolError::WrongPool);
        }
        let idx = tok.idx as usize;
        let Some(slot) = self.slots.get(idx) else {
            return Err(self.untouched(tok.idx, tok.gen));
        };
        if slot.gen != tok.gen {
            return Err(PoolError::StaleToken);
        }
        Ok(idx)
    }

    /// What naming a slot past `slots.len()` reports: an in-range index is
    /// a free buffer at generation 0 that was never handed out.
    fn untouched(&self, idx: u32, gen: u32) -> PoolError {
        if idx >= self.n_bufs {
            PoolError::BadIndex
        } else if gen != 0 {
            PoolError::StaleToken
        } else {
            PoolError::BadOwner { found: Owner::Free }
        }
    }

    /// Return a buffer to the free list, consuming the token. The slot
    /// generation bumps so any stale copies of descriptors are invalidated.
    pub fn free(&mut self, tok: BufToken) -> Result<(), PoolError> {
        let idx = self.check(&tok)?;
        let slot = &mut self.slots[idx];
        if !slot.owner.can_access() {
            return Err(PoolError::BadOwner { found: slot.owner });
        }
        slot.owner = Owner::Free;
        slot.len = 0;
        slot.gen = slot.gen.wrapping_add(1);
        // Release the content handle immediately: a freed buffer holds no
        // data (reads are owner-gated and `len` is zeroed on re-alloc
        // anyway), and dropping the `Bytes` here instead of at the next
        // fill lets payload recyclers observe sole ownership as soon as
        // the buffer lifecycle ends.
        slot.content = Bytes::new();
        self.free.push(tok.idx);
        Ok(())
    }

    /// Write `payload` into the buffer (software copy — metered). Sets the
    /// valid length. Used by functions producing output and by the explicit
    /// cross-security-domain copy path (§3.1 security model). The copy is
    /// metered, but the content transfers by refcount — no payload bytes
    /// move on the simulator's hot path.
    pub fn write_bytes(
        &mut self,
        tok: &BufToken,
        payload: Bytes,
        meter: &mut CopyMeter,
    ) -> Result<(), PoolError> {
        self.fill(tok, payload, MoveKind::Software, meter)
    }

    /// Write `payload` via a hardware DMA engine (not a software copy),
    /// taking an owned handle (see [`UnifiedPool::write_bytes`]).
    pub fn dma_write_bytes(
        &mut self,
        tok: &BufToken,
        payload: Bytes,
        kind: MoveKind,
        meter: &mut CopyMeter,
    ) -> Result<(), PoolError> {
        debug_assert!(
            !matches!(kind, MoveKind::Software),
            "use write_bytes() for software copies"
        );
        self.fill(tok, payload, kind, meter)
    }

    fn fill(
        &mut self,
        tok: &BufToken,
        payload: Bytes,
        kind: MoveKind,
        meter: &mut CopyMeter,
    ) -> Result<(), PoolError> {
        let idx = self.check(tok)?;
        if payload.len() > self.buf_size as usize {
            return Err(PoolError::TooLarge);
        }
        let slot = &mut self.slots[idx];
        if !slot.owner.can_access() {
            return Err(PoolError::BadOwner { found: slot.owner });
        }
        slot.len = payload.len() as u32;
        meter.record(kind, payload.len() as u64);
        slot.content = payload;
        Ok(())
    }

    /// Produce `payload` into the buffer *in place* — the function writing
    /// its output directly through the shared mapping. This is data
    /// production, not a transport copy, so it is deliberately unmetered
    /// (the paper's zero-copy definition concerns copies introduced by the
    /// data plane, not the application computing its result). Takes an
    /// owned handle (see [`UnifiedPool::write_bytes`]).
    pub fn produce_bytes(&mut self, tok: &BufToken, payload: Bytes) -> Result<(), PoolError> {
        let mut scratch = CopyMeter::new();
        self.fill(tok, payload, MoveKind::Software, &mut scratch)
    }

    /// Read the valid payload of a buffer.
    pub fn read(&self, tok: &BufToken) -> Result<&[u8], PoolError> {
        let idx = self.check(tok)?;
        let slot = &self.slots[idx];
        if !slot.owner.can_access() {
            return Err(PoolError::BadOwner { found: slot.owner });
        }
        Ok(&slot.content[..slot.len as usize])
    }

    /// Snapshot a buffer's payload as a cheap refcounted handle — the
    /// zero-copy way for the engine to capture "the RNIC's view" of a
    /// pinned buffer (the handle stays valid and immutable even if the
    /// buffer is later recycled, which is exactly the pinned-until-
    /// completion guarantee).
    pub fn read_bytes(&self, tok: &BufToken) -> Result<Bytes, PoolError> {
        let idx = self.check(tok)?;
        let slot = &self.slots[idx];
        if !slot.owner.can_access() {
            return Err(PoolError::BadOwner { found: slot.owner });
        }
        Ok(slot.content.slice(..slot.len as usize))
    }

    /// Current owner of the buffer a token points to.
    #[cfg(test)]
    pub fn owner_of(&self, tok: &BufToken) -> Result<Owner, PoolError> {
        let idx = self.check(tok)?;
        Ok(self.slots[idx].owner)
    }

    /// Hand the buffer off: consume the token, mark the slot `InTransit`,
    /// and produce the 16-byte descriptor that travels over SK_MSG / Comch /
    /// the RDMA fabric's completion path.
    pub fn into_transit(
        &mut self,
        tok: BufToken,
        src: FnId,
        dst: FnId,
    ) -> Result<BufDesc, PoolError> {
        let idx = self.check(&tok)?;
        let slot = &mut self.slots[idx];
        if !slot.owner.can_access() {
            return Err(PoolError::BadOwner { found: slot.owner });
        }
        slot.owner = Owner::InTransit;
        Ok(BufDesc {
            tenant: self.tenant,
            pool: self.id,
            buf_idx: tok.idx,
            len: slot.len,
            src_fn: src,
            dst_fn: dst,
        })
    }

    /// Redeem a descriptor into exclusive ownership. Fails if the buffer is
    /// not in transit — i.e. a descriptor cannot be redeemed twice, the
    /// lock-free SPSC guarantee of §3.5.1.
    pub fn redeem(&mut self, desc: &BufDesc, new_owner: Owner) -> Result<BufToken, PoolError> {
        debug_assert!(new_owner.can_access(), "cannot redeem to a passive owner");
        if desc.pool != self.id {
            return Err(PoolError::WrongPool);
        }
        let Some(slot) = self.slots.get_mut(desc.buf_idx as usize) else {
            return Err(self.untouched(desc.buf_idx, 0));
        };
        if slot.owner != Owner::InTransit {
            return Err(PoolError::BadOwner { found: slot.owner });
        }
        slot.owner = new_owner;
        Ok(BufToken {
            pool: self.id,
            idx: desc.buf_idx,
            gen: slot.gen,
        })
    }

    /// Transfer ownership in place (e.g. RNIC→Engine on CQE) without going
    /// through a descriptor.
    pub fn transfer(
        &mut self,
        tok: &BufToken,
        from: Owner,
        to: Owner,
    ) -> Result<(), PoolError> {
        let idx = self.check(tok)?;
        let slot = &mut self.slots[idx];
        if slot.owner != from {
            return Err(PoolError::BadOwner { found: slot.owner });
        }
        slot.owner = to;
        Ok(())
    }
}

impl fmt::Debug for UnifiedPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UnifiedPool")
            .field("id", &self.id)
            .field("tenant", &self.tenant)
            .field("buf_size", &self.buf_size)
            .field("capacity", &self.capacity())
            .field("in_use", &self.in_use())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pool() -> UnifiedPool {
        UnifiedPool::new(PoolId(1), TenantId(1), 4, 1024)
    }

    #[test]
    fn alloc_write_read_free() {
        let mut p = pool();
        let mut m = CopyMeter::new();
        let tok = p.alloc(Owner::Function(FnId(1))).unwrap();
        p.write_bytes(&tok, Bytes::from_static(b"hello palladium"), &mut m).unwrap();
        assert_eq!(p.read(&tok).unwrap(), b"hello palladium");
        assert_eq!(m.sw_bytes, 15);
        p.free(tok).unwrap();
        assert_eq!(p.in_use(), 0);
    }

    #[test]
    fn exhaustion_fails_cleanly() {
        let mut p = pool();
        let toks: Vec<_> = (0..4).map(|_| p.alloc(Owner::Engine).unwrap()).collect();
        assert_eq!(p.alloc(Owner::Engine), Err(PoolError::Exhausted));
        assert_eq!(p.in_use(), 4);
        for t in toks {
            p.free(t).unwrap();
        }
        assert!(p.alloc(Owner::Engine).is_ok());
    }

    #[test]
    fn stale_token_rejected_after_free() {
        let mut p = pool();
        let tok = p.alloc(Owner::Engine).unwrap();
        let idx = tok.idx();
        p.free(tok).unwrap();
        // Forge a token with the old generation by allocating the same slot
        // and checking the generation moved on.
        let tok2 = loop {
            let t = p.alloc(Owner::Engine).unwrap();
            if t.idx() == idx {
                break t;
            }
        };
        let stale = BufToken {
            pool: PoolId(1),
            idx,
            gen: tok2.gen.wrapping_sub(1),
        };
        assert_eq!(p.read(&stale), Err(PoolError::StaleToken));
    }

    #[test]
    fn wrong_pool_rejected() {
        let mut p1 = UnifiedPool::new(PoolId(1), TenantId(1), 2, 64);
        let mut p2 = UnifiedPool::new(PoolId(2), TenantId(2), 2, 64);
        let tok = p1.alloc(Owner::Engine).unwrap();
        assert_eq!(p2.read(&tok), Err(PoolError::WrongPool));
        // Each pool has its own backing bytes: a write through one is
        // invisible in the other.
        p1.write_bytes(&tok, Bytes::from_static(b"secret"), &mut CopyMeter::new())
            .unwrap();
        let other = p2.alloc(Owner::Engine).unwrap();
        assert_eq!(p2.read(&other).unwrap(), b"");
        p1.free(tok).unwrap();
        p2.free(other).unwrap();
    }

    #[test]
    fn oversized_write_rejected() {
        let mut p = UnifiedPool::new(PoolId(1), TenantId(1), 1, 8);
        let mut m = CopyMeter::new();
        let tok = p.alloc(Owner::Engine).unwrap();
        assert_eq!(
            p.write_bytes(&tok, Bytes::from_static(&[0u8; 9]), &mut m),
            Err(PoolError::TooLarge)
        );
        assert_eq!(m.sw_bytes, 0, "failed writes must not be metered");
    }

    #[test]
    fn transit_roundtrip_moves_ownership() {
        let mut p = pool();
        let mut m = CopyMeter::new();
        let tok = p.alloc(Owner::Function(FnId(1))).unwrap();
        p.write_bytes(&tok, Bytes::from_static(b"payload"), &mut m).unwrap();
        let desc = p.into_transit(tok, FnId(1), FnId(2)).unwrap();
        assert_eq!(desc.len, 7);
        // While in transit nobody can read.
        let probe = BufToken {
            pool: desc.pool,
            idx: desc.buf_idx,
            gen: 0,
        };
        assert!(matches!(p.read(&probe), Err(PoolError::BadOwner { .. })));
        // Redeem on the receiving side: zero bytes copied.
        let tok2 = p.redeem(&desc, Owner::Function(FnId(2))).unwrap();
        assert_eq!(p.read(&tok2).unwrap(), b"payload");
        assert_eq!(m.sw_ops, 1, "only the initial produce copied");
        p.free(tok2).unwrap();
    }

    #[test]
    fn double_redeem_rejected() {
        let mut p = pool();
        let tok = p.alloc(Owner::Function(FnId(1))).unwrap();
        let desc = p.into_transit(tok, FnId(1), FnId(2)).unwrap();
        let _tok2 = p.redeem(&desc, Owner::Function(FnId(2))).unwrap();
        assert!(matches!(
            p.redeem(&desc, Owner::Function(FnId(3))),
            Err(PoolError::BadOwner { .. })
        ));
    }

    #[test]
    fn transfer_requires_expected_owner() {
        let mut p = pool();
        let tok = p.alloc(Owner::Rnic).unwrap();
        assert!(matches!(
            p.transfer(&tok, Owner::Engine, Owner::Rnic),
            Err(PoolError::BadOwner { .. })
        ));
        p.transfer(&tok, Owner::Rnic, Owner::Engine).unwrap();
        assert_eq!(p.owner_of(&tok).unwrap(), Owner::Engine);
        p.free(tok).unwrap();
    }

    #[test]
    fn dma_write_is_not_a_software_copy() {
        let mut p = pool();
        let mut m = CopyMeter::new();
        let tok = p.alloc(Owner::Rnic).unwrap();
        p.dma_write_bytes(&tok, Bytes::from(vec![7u8; 256]), MoveKind::RnicDma, &mut m)
            .unwrap();
        assert_eq!(m.sw_ops, 0);
        assert_eq!(m.rnic_dma_bytes, 256);
        assert_eq!(p.read(&tok).unwrap(), &[7u8; 256][..]);
    }

    #[test]
    fn lifo_reuse_for_cache_warmth() {
        let mut p = pool();
        let tok = p.alloc(Owner::Engine).unwrap();
        let first_idx = tok.idx();
        p.free(tok).unwrap();
        let tok2 = p.alloc(Owner::Engine).unwrap();
        assert_eq!(tok2.idx(), first_idx, "most recently freed is reused first");
        p.free(tok2).unwrap();
    }

    /// The eager pool this one replaced, reduced to its bookkeeping: every
    /// slot built up front and a free list seeded `(0..n).rev()`.
    struct Eager {
        slots: Vec<(u32, Owner)>,
        free: Vec<u32>,
    }

    impl Eager {
        fn new(n: u32) -> Self {
            Eager {
                slots: vec![(0, Owner::Free); n as usize],
                free: (0..n).rev().collect(),
            }
        }

        fn alloc(&mut self, owner: Owner) -> Result<(u32, u32), PoolError> {
            let idx = self.free.pop().ok_or(PoolError::Exhausted)?;
            self.slots[idx as usize].1 = owner;
            Ok((idx, self.slots[idx as usize].0))
        }

        fn free(&mut self, idx: u32, gen: u32) -> Result<(), PoolError> {
            let slot = self.slots.get_mut(idx as usize).ok_or(PoolError::BadIndex)?;
            if slot.0 != gen {
                return Err(PoolError::StaleToken);
            }
            if !slot.1.can_access() {
                return Err(PoolError::BadOwner { found: slot.1 });
            }
            *slot = (gen.wrapping_add(1), Owner::Free);
            self.free.push(idx);
            Ok(())
        }

        fn redeem(&mut self, idx: u32, to: Owner) -> Result<(u32, u32), PoolError> {
            let slot = self.slots.get_mut(idx as usize).ok_or(PoolError::BadIndex)?;
            if slot.1 != Owner::InTransit {
                return Err(PoolError::BadOwner { found: slot.1 });
            }
            slot.1 = to;
            Ok((idx, slot.0))
        }
    }

    #[derive(Clone, Debug)]
    enum Op {
        Alloc,
        /// Free the i-th live token.
        Free(usize),
        /// Put the i-th live token in transit, then redeem it.
        Handoff(usize),
        /// Redeem a descriptor naming any index, in range or not.
        Redeem(u32),
        /// Free through a forged `(idx, gen)` token.
        Forged(u32, u32),
    }

    fn token_of(pair: (u32, u32)) -> BufToken {
        BufToken {
            pool: PoolId(1),
            idx: pair.0,
            gen: pair.1,
        }
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => Just(Op::Alloc),
            2 => (0usize..64).prop_map(Op::Free),
            1 => (0usize..64).prop_map(Op::Handoff),
            1 => (0u32..14).prop_map(Op::Redeem),
            1 => ((0u32..14), (0u32..3)).prop_map(|(i, g)| Op::Forged(i, g)),
        ]
    }

    // Materialising slots on first touch is invisible: the same
    // `(idx, gen)` for every allocation, the same error for every misuse —
    // including exhaustion at `n_bufs` and descriptors or tokens naming a
    // buffer that was never handed out.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn lazy_pool_matches_the_eager_model(
            n_bufs in 1u32..12,
            ops in proptest::collection::vec(op_strategy(), 1..300),
        ) {
            let owner = Owner::Function(FnId(1));
            let mut lazy = UnifiedPool::new(PoolId(1), TenantId(1), n_bufs, 64);
            let mut eager = Eager::new(n_bufs);
            let mut live: Vec<(u32, u32)> = Vec::new();
            let pair = |t: BufToken| (t.idx, t.gen);
            for op in ops {
                match op {
                    Op::Alloc => {
                        let got = lazy.alloc(owner).map(pair);
                        prop_assert_eq!(got, eager.alloc(owner));
                        live.extend(got.ok());
                    }
                    Op::Free(i) if !live.is_empty() => {
                        let t = live.swap_remove(i % live.len());
                        prop_assert_eq!(lazy.free(token_of(t)), eager.free(t.0, t.1));
                    }
                    Op::Handoff(i) if !live.is_empty() => {
                        let t = live[i % live.len()];
                        let desc = lazy.into_transit(token_of(t), FnId(1), FnId(2)).unwrap();
                        eager.slots[t.0 as usize].1 = Owner::InTransit;
                        prop_assert_eq!(
                            lazy.redeem(&desc, owner).map(pair),
                            eager.redeem(t.0, owner)
                        );
                    }
                    Op::Redeem(idx) => {
                        let desc = BufDesc {
                            tenant: TenantId(1),
                            pool: PoolId(1),
                            buf_idx: idx,
                            len: 0,
                            src_fn: FnId(1),
                            dst_fn: FnId(2),
                        };
                        prop_assert_eq!(
                            lazy.redeem(&desc, owner).map(pair),
                            eager.redeem(idx, owner)
                        );
                    }
                    Op::Forged(idx, gen) => {
                        prop_assert_eq!(lazy.free(token_of((idx, gen))), eager.free(idx, gen));
                        live.retain(|t| *t != (idx, gen));
                    }
                    Op::Free(_) | Op::Handoff(_) => {}
                }
                prop_assert_eq!(lazy.capacity(), n_bufs);
                prop_assert_eq!((n_bufs - lazy.in_use()) as usize, eager.free.len());
                prop_assert_eq!(lazy.in_use() as usize, live.len());
            }
        }
    }
}
