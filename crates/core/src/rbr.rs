//! The Receive Buffer Registry (RBR) table.
//!
//! Two-sided RDMA requires the receiver to pre-post buffers; Palladium's DNE
//! keeps an RBR table mapping each posted work-request id to the buffer it
//! posted (§3.5.2, Fig 7 red arrows). When a receive completion arrives, the
//! RX stage looks the WR id up to recover the buffer token; the core thread
//! monitors per-tenant consumption counters and re-posts an equal number of
//! fresh buffers so the RNIC never starves (which would trigger RNR NAKs).
//!
//! WR ids are generation-checked [`Slab`] keys: the registry sits on the
//! per-completion hot path, so resolution is an index plus a generation
//! compare instead of a `HashMap` probe, and a stale id (a slot recycled by
//! a newer posting) misses instead of aliasing. The per-tenant counters are
//! dense [`IdTable`]s over the small tenant-id space.

use palladium_membuf::{BufToken, TenantId};
use palladium_rdma::WrId;
use palladium_simnet::{IdTable, Slab};

/// The DNE's receive-buffer registry for one node.
#[derive(Debug, Default)]
pub struct RbrTable {
    entries: Slab<(TenantId, BufToken)>,
    /// CQEs consumed per tenant since the last replenish sweep — the shared
    /// counters the core thread reads (§3.5.2).
    consumed: IdTable<u64>,
}

impl RbrTable {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a buffer posted to the tenant's shared RQ; returns the WR id
    /// to hand to the RNIC.
    pub fn register(&mut self, tenant: TenantId, token: BufToken) -> WrId {
        WrId(self.entries.insert((tenant, token)))
    }

    /// RX stage: resolve a receive completion back to its buffer. Consumes
    /// the entry and bumps the tenant's consumption counter.
    pub fn consume(&mut self, wr_id: WrId) -> Option<(TenantId, BufToken)> {
        let (tenant, token) = self.entries.remove(wr_id.0)?;
        *self.consumed.get_or_insert_with(tenant.raw() as usize, || 0) += 1;
        Some((tenant, token))
    }

    /// Core thread: read-and-reset a tenant's consumption counter — the
    /// number of fresh buffers to post.
    pub fn take_consumed(&mut self, tenant: TenantId) -> u64 {
        self.consumed.remove(tenant.raw() as usize).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use palladium_membuf::{Owner, PoolId, UnifiedPool};

    fn pool() -> UnifiedPool {
        UnifiedPool::new(PoolId(1), TenantId(1), 8, 256)
    }

    #[test]
    fn register_consume_roundtrip() {
        let mut pool = pool();
        let mut rbr = RbrTable::new();
        let tok = pool.alloc(Owner::Rnic).unwrap();
        let idx = tok.idx();
        let wr = rbr.register(TenantId(1), tok);
        let (tenant, tok) = rbr.consume(wr).expect("registered");
        assert_eq!(tenant, TenantId(1));
        assert_eq!(tok.idx(), idx);
        pool.free(tok).unwrap();
    }

    #[test]
    fn consume_twice_fails() {
        let mut pool = pool();
        let mut rbr = RbrTable::new();
        let wr = rbr.register(TenantId(1), pool.alloc(Owner::Rnic).unwrap());
        assert!(rbr.consume(wr).is_some());
        assert!(rbr.consume(wr).is_none());
    }

    #[test]
    fn stale_wr_id_does_not_alias_recycled_slot() {
        // The registry recycles slab slots; a WR id from a previous
        // occupant must miss, not resolve to the new buffer.
        let mut pool = pool();
        let mut rbr = RbrTable::new();
        let old = rbr.register(TenantId(1), pool.alloc(Owner::Rnic).unwrap());
        let (_, tok) = rbr.consume(old).unwrap();
        pool.free(tok).unwrap();
        let fresh = rbr.register(TenantId(2), pool.alloc(Owner::Rnic).unwrap());
        assert_ne!(old, fresh);
        assert!(rbr.consume(old).is_none(), "stale id must miss");
        assert!(rbr.consume(fresh).is_some());
    }

    #[test]
    fn consumption_counters_drive_replenish() {
        let mut pool = pool();
        let mut rbr = RbrTable::new();
        for _ in 0..3 {
            let wr = rbr.register(TenantId(1), pool.alloc(Owner::Rnic).unwrap());
            let (_, tok) = rbr.consume(wr).unwrap();
            pool.free(tok).unwrap();
        }
        let wr2 = rbr.register(TenantId(2), pool.alloc(Owner::Rnic).unwrap());
        assert_eq!(rbr.take_consumed(TenantId(1)), 3);
        // Counter resets after the sweep.
        assert_eq!(rbr.take_consumed(TenantId(1)), 0);
        let (_, tok) = rbr.consume(wr2).unwrap();
        pool.free(tok).unwrap();
    }

    #[test]
    fn wr_ids_are_unique() {
        let mut pool = pool();
        let mut rbr = RbrTable::new();
        let a = rbr.register(TenantId(1), pool.alloc(Owner::Rnic).unwrap());
        let b = rbr.register(TenantId(1), pool.alloc(Owner::Rnic).unwrap());
        assert_ne!(a, b);
        assert!(rbr.consume(a).is_some() && rbr.consume(b).is_some());
    }
}
