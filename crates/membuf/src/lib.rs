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
//! * [`mmap`] — DOCA-style mmap export (`export_rdma`): the descriptor the
//!   RNIC registers a pool from, the key enabler of off-path DPU offloading
//!   (§3.4.2).
//! * [`hugepage`] — 2 MB hugepage regions and their MTT footprint, the
//!   RNIC-cache motivation for hugepages (§3.4).
//! * [`meter::CopyMeter`] — every byte a data plane moves is accounted as
//!   software copy or RNIC DMA; "zero-copy" is an *asserted invariant*, not
//!   a slogan.

// No library crate in the workspace uses `unsafe`: every crate root
// forbids it, and `cargo test` checks that each one does.
#![forbid(unsafe_code)]

pub mod desc;
pub mod hugepage;
pub mod ids;
pub mod meter;
pub mod mmap;
pub mod payload;
pub mod pool;

pub use desc::BufDesc;
pub use hugepage::{Region, HUGEPAGE_2M};
pub use ids::{FnId, NodeId, Owner, PoolId, TenantId};
pub use meter::{CopyMeter, MoveKind};
pub use mmap::{MmapExport, MmapExporter};
pub use payload::PayloadCache;
pub use pool::{BufToken, PoolError, UnifiedPool};
