//! # palladium-baselines — the compared systems, rebuilt on the same
//! # substrates
//!
//! * [`echo`] — the Figs 11–12 microbenchmark drivers: RDMA primitive
//!   selection (two-sided vs OWDL vs OWRC-Best/Worst) and off-path vs
//!   on-path DPU offloading. All variants share the real RC fabric; only
//!   the engine-side protocol differs, so measured gaps are attributable
//!   to the design choice alone.
//!
//! The full-system baselines of Fig 16 (SPRIGHT, NightCore, FUYAO-K/F,
//! Palladium-CNE, FCFS-DNE) are declarative wirings of the chain driver —
//! see [`palladium_core::system::SystemKind`] and
//! [`palladium_core::driver::chain`]; their presets live in core so the
//! driver stays dependency-clean, and this crate re-exports them for
//! discoverability.

// No library crate in the workspace uses `unsafe`: every crate root
// forbids it, and `cargo test` checks that each one does.
#![forbid(unsafe_code)]

pub mod echo;

pub use echo::{EchoConfig, EchoSim, PathMode, Primitive};
pub use palladium_core::system::{Capabilities, SystemKind, SystemSpec};
