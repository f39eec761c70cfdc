//! Memory region registration.
//!
//! The DNE registers the (host-resident) unified pool with the RNIC from
//! its DOCA mmap export (§3.4.2, step 3). The table is the fabric's
//! security boundary: the RNIC posts receive buffers only from a pool
//! registered here (`Rnic::post_recv`), so data always lands in memory the
//! pool's owner exported.

use palladium_membuf::{MmapExport, PoolId, TenantId};

/// Key naming a registered memory region on one RNIC.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MrKey(pub u32);

/// A registered memory region.
#[derive(Clone, Copy, Debug)]
pub struct MemoryRegion {
    /// Registration key.
    pub key: MrKey,
    /// Pool the region backs.
    pub pool: PoolId,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Translation entries this region occupies in the RNIC MTT.
    pub mtt_entries: u64,
}

/// Registration failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MrError {
    /// Pool already registered on this RNIC.
    AlreadyRegistered,
}

/// The per-RNIC table of registered regions.
#[derive(Debug, Default)]
pub struct MrTable {
    regions: Vec<MemoryRegion>,
    next_key: u32,
}

impl MrTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a pool from its mmap export descriptor.
    pub fn register(&mut self, export: &MmapExport) -> Result<MrKey, MrError> {
        if self.covers(export.pool) {
            return Err(MrError::AlreadyRegistered);
        }
        let key = MrKey(self.next_key);
        self.next_key += 1;
        self.regions.push(MemoryRegion {
            key,
            pool: export.pool,
            tenant: export.tenant,
            mtt_entries: export.region.mtt_entries(),
        });
        Ok(key)
    }

    /// Is `pool` registered (i.e. may the RNIC DMA into it)?
    pub fn covers(&self, pool: PoolId) -> bool {
        self.regions.iter().any(|r| r.pool == pool)
    }

    /// Total MTT entries across registrations — compared against the RNIC
    /// translation cache to charge miss penalties.
    pub fn total_mtt_entries(&self) -> u64 {
        self.regions.iter().map(|r| r.mtt_entries).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use palladium_membuf::{MmapExporter, Region};

    fn exporter() -> MmapExporter {
        MmapExporter::new(PoolId(3), TenantId(2), Region::hugepages(8 * 1024 * 1024))
    }

    #[test]
    fn registration_covers_the_exported_pool() {
        let mut table = MrTable::new();
        assert!(!table.covers(PoolId(3)));
        table.register(&exporter().export_rdma()).unwrap();
        assert!(table.covers(PoolId(3)));
    }

    #[test]
    fn double_registration_rejected() {
        let mut table = MrTable::new();
        let mut e = exporter();
        let rdma = e.export_rdma();
        table.register(&rdma).unwrap();
        assert_eq!(table.register(&rdma), Err(MrError::AlreadyRegistered));
    }

    #[test]
    fn mtt_entries_accumulate() {
        let mut table = MrTable::new();
        let mut e1 = MmapExporter::new(PoolId(1), TenantId(1), Region::hugepages(4 << 20));
        let mut e2 = MmapExporter::new(PoolId(2), TenantId(2), Region::hugepages(8 << 20));
        table.register(&e1.export_rdma()).unwrap();
        table.register(&e2.export_rdma()).unwrap();
        assert_eq!(table.total_mtt_entries(), 2 + 4);
        assert_eq!(table.regions.len(), 2);
    }
}
