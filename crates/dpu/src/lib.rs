//! # palladium-dpu — the DPU SoC substrate
//!
//! The Bluefield-2 stand-in (hardware this reproduction cannot assume —
//! see the README's introduction):
//!
//! * [`soc`] — the wimpy ARM processing complex as a spec: 8 × A72 @
//!   2.0 GHz against 3.7 GHz host cores, a ≈2.2× service-time multiplier
//!   the cost model applies to protocol work run on the DPU.
//! * [`dma`] — the SoC DMA engine: ≈2.6 µs per 64 B operation and a single
//!   serially-served channel, the bottleneck that makes *on-path* DPU
//!   offloading lose to *off-path* + cross-processor shared memory
//!   (§4.1.1 / Fig 11).
//! * [`mmap_import`] — the DPU-side `doca_mmap_create_from_export` table:
//!   host pools become DPU-visible only through explicit PCI grants, with
//!   tenant-scoped revocation.
//!
//! The DNE itself (the engine that runs *on* this SoC) lives in
//! `palladium-core::dne`; this crate is the hardware it runs on.

// The simulation's memory-safety story is that only the shard mailbox ring
// (simnet) and the bench counting allocator contain `unsafe` at all; this
// crate is compiler-certified to stay out of that set (simlint's
// safety-comments rule covers the two that cannot be).
#![forbid(unsafe_code)]

pub mod dma;
pub mod mmap_import;
pub mod soc;

pub use dma::{SocDma, SocDmaSpec};
pub use mmap_import::ImportTable;
pub use soc::SocSpec;
