//! # palladium-workloads — evaluation workloads
//!
//! * [`boutique`] — the Online Boutique application: 10 microservice
//!   functions, the paper's hotspot placement, and the three evaluated
//!   chains (Home Query / ViewCart / Product Query, each >11 exchanges).
//! * [`chaos`] — the base 4-pair cluster every golden and SLO row runs on,
//!   the five scripted fault scenarios and the columns their
//!   `BENCH_slo.json` rows pin; the one catalogue `slo_smoke` and the
//!   chaos / fault-free golden tests import.
//! * [`openloop`] — open-loop overload regimes (Poisson sweeps, flash
//!   crowds with costed scale-out, the metastable negative control) over
//!   the sharded cluster, shared by `slo_smoke`, `alloc_smoke` and the
//!   overload test suite.

// The simulation's memory-safety story is that only the shard mailbox ring
// (simnet) and the bench counting allocator contain `unsafe` at all; this
// crate is compiler-certified to stay out of that set (simlint's
// safety-comments rule covers the two that cannot be).
#![forbid(unsafe_code)]

pub mod boutique;
pub mod chaos;
pub mod openloop;

pub use boutique::{app, config, ChainKind};
