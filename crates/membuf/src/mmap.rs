//! Cross-processor shared memory — the DOCA `mmap` analogue.
//!
//! Palladium makes the host-resident unified pool visible to the integrated
//! RNIC through NVIDIA DOCA's mmap export mechanism (§3.4.2): the host-side
//! shared-memory agent calls `doca_mmap_export_rdma()`, ships the resulting
//! export descriptor over Comch, and the DNE registers the pool with the
//! RNIC from it.
//!
//! The model keeps the one export every run issues. The RNIC still refuses
//! to post receive buffers from a pool no export registered
//! (`Rnic::post_recv`). The paper's PCI grant to the ARM cores and its
//! per-tenant import checks come back with the driver that runs a second
//! tenant (ROADMAP item 3).

use crate::hugepage::Region;
use crate::ids::{PoolId, TenantId};

/// An export descriptor: the opaque blob DOCA would hand back, carrying
/// enough metadata for the remote side to re-create the mapping.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MmapExport {
    /// The exported pool.
    pub pool: PoolId,
    /// Owning tenant (isolation tag).
    pub tenant: TenantId,
    /// Backing region geometry (used for MTT sizing at MR registration).
    pub region: Region,
}

/// The host side of the mmap protocol, owned by the per-tenant shared-memory
/// agent.
#[derive(Debug)]
pub struct MmapExporter {
    pool: PoolId,
    tenant: TenantId,
    region: Region,
}

impl MmapExporter {
    /// An exporter for a pool backed by `region`.
    pub fn new(pool: PoolId, tenant: TenantId, region: Region) -> Self {
        MmapExporter {
            pool,
            tenant,
            region,
        }
    }

    /// `doca_mmap_export_rdma()` — grant the RNIC access. It records nothing
    /// on the exporter; the receiver stays `&mut` because the benchmark's
    /// fabric probe calls it through a mutable binding.
    pub fn export_rdma(&mut self) -> MmapExport {
        MmapExport {
            pool: self.pool,
            tenant: self.tenant,
            region: self.region,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_carries_region_geometry() {
        let mut e = MmapExporter::new(PoolId(1), TenantId(1), Region::hugepages(4 * 1024 * 1024));
        let x = e.export_rdma();
        assert_eq!((x.pool, x.tenant), (PoolId(1), TenantId(1)));
        assert_eq!(x.region.mtt_entries(), 2); // 4 MB over 2 MB hugepages
    }
}
