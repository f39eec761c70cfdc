//! # palladium-dpu — the DPU SoC substrate
//!
//! The Bluefield-2 stand-in (hardware this reproduction cannot assume —
//! see the README's introduction):
//!
//! * [`soc`] — the wimpy ARM processing complex as a spec: 8 × A72 @
//!   2.0 GHz against 3.7 GHz host cores, a ≈2.2× service-time multiplier
//!   the cost model applies to protocol work run on the DPU.
//! * [`dma`] — the SoC DMA engine: ≈2.6 µs per 64 B operation and a single
//!   serially-served channel, the latency that makes *on-path* DPU
//!   offloading slower than *off-path* + cross-processor shared memory
//!   (§4.1.1 / Fig 11).
//!
//! The DNE itself (the engine that runs *on* this SoC) lives in
//! `palladium-core::dne`; this crate is the hardware it runs on.

// No library crate in the workspace uses `unsafe`: every crate root
// forbids it, and `cargo test` checks that each one does.
#![forbid(unsafe_code)]

pub mod dma;
pub mod soc;

pub use dma::{SocDma, SocDmaSpec};
pub use soc::SocSpec;
