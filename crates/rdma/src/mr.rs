//! Memory region registration.
//!
//! The DNE registers the (host-resident) unified pool with the RNIC after
//! importing it via DOCA mmap (§3.4.2, step 3). Registration requires an
//! RDMA grant — a pool that was never exported with
//! `doca_mmap_export_rdma()` cannot be registered, which is the security
//! boundary keeping untrusted functions away from the fabric.

use palladium_membuf::{create_from_export, Grant, ImportError, MmapExport, PoolId, TenantId};

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
    /// Export descriptor did not carry an RDMA grant.
    NoRdmaGrant(ImportError),
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

    /// Register a pool from its mmap export descriptor. Validates the RDMA
    /// grant exactly like `doca_mmap_create_from_export` would.
    pub fn register(&mut self, export: &MmapExport) -> Result<MrKey, MrError> {
        let validated =
            create_from_export(export, Grant::Rdma, None).map_err(MrError::NoRdmaGrant)?;
        if self.regions.iter().any(|r| r.pool == validated.pool) {
            return Err(MrError::AlreadyRegistered);
        }
        let key = MrKey(self.next_key);
        self.next_key += 1;
        self.regions.push(MemoryRegion {
            key,
            pool: validated.pool,
            tenant: validated.tenant,
            mtt_entries: validated.region.mtt_entries(),
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
    fn register_requires_rdma_grant() {
        let mut table = MrTable::new();
        let mut e = exporter();
        let pci_only = e.export_pci();
        assert!(matches!(
            table.register(&pci_only),
            Err(MrError::NoRdmaGrant(_))
        ));
        let rdma = e.export_rdma();
        table.register(&rdma).unwrap();
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
