//! # palladium-membuf — the unified shared-memory pool substrate
//!
//! Reproduces Palladium's memory subsystem (§3.4 of the paper):
//!
//! * [`pool::UnifiedPool`] — fixed-size, pool-based buffer allocation
//!   (`rte_mempool_get/put` analogue) over real backing bytes, with
//!   exclusive-ownership semantics enforced by move-only [`pool::BufToken`]s
//!   (the token-passing scheme of §3.5.1).
//! * [`desc::BufDesc`] — the 16-byte descriptor that is the only thing
//!   software channels carry; payloads never move.
//! * [`tenant`] — per-tenant isolation via the DPDK `file-prefix` mechanism:
//!   a shared-memory agent (primary process) publishes the pool, functions
//!   attach as secondaries, and cross-tenant attaches are rejected.
//! * [`mmap`] — DOCA-style cross-processor mmap export (`export_pci` /
//!   `export_rdma` / `create_from_export`), the key enabler of off-path DPU
//!   offloading (§3.4.2).
//! * [`hugepage`] — 2 MB hugepage regions and their MTT footprint, the
//!   RNIC-cache motivation for hugepages (§3.4).
//! * [`meter::CopyMeter`] — every byte moved is accounted as software copy,
//!   RNIC DMA or SoC DMA; "zero-copy" is an *asserted invariant*, not a
//!   slogan.

// The simulation's memory-safety story is that only the shard mailbox ring
// (simnet) and the bench counting allocator contain `unsafe` at all; this
// crate is compiler-certified to stay out of that set (simlint's
// safety-comments rule covers the two that cannot be).
#![forbid(unsafe_code)]

pub mod desc;
pub mod hugepage;
pub mod ids;
pub mod meter;
pub mod mmap;
pub mod payload;
pub mod pool;
pub mod tenant;

pub use desc::{BufDesc, DESC_WIRE_SIZE};
pub use hugepage::{Region, HUGEPAGE_2M, PAGE_4K};
pub use ids::{FnId, NodeId, Owner, PoolId, TenantId};
pub use meter::{CopyMeter, MoveKind};
pub use mmap::{create_from_export, Grant, ImportError, MmapExport, MmapExporter};
pub use payload::PayloadCache;
pub use pool::{BufToken, PoolError, PoolStats, UnifiedPool};
pub use tenant::{ShmAgent, TenantDirectory, TenantError};
