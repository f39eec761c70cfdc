//! # Palladium — a DPU-enabled multi-tenant serverless cloud over zero-copy
//! # multi-node RDMA fabrics (reproduction)
//!
//! This crate is the facade over the Palladium reproduction workspace. It
//! re-exports every sub-crate under one namespace so that examples, tests and
//! downstream users can depend on a single crate:
//!
//! * [`simnet`] — deterministic discrete-event simulation kernel (virtual
//!   clock, event queue, FIFO servers, statistics, fault injection).
//! * [`membuf`] — the unified shared-memory pool substrate: hugepage regions,
//!   pool-based buffer allocation, move-only ownership tokens and the
//!   DOCA-style mmap export the RNIC registers memory from.
//! * [`rdma`] — simulated RDMA verbs and Reliable Connected transport with
//!   acknowledgements, go-back-N retransmission, RNR flow control, an RNIC
//!   model (QP context cache, MTT) and a switched fabric with fault injection.
//! * [`ipc`] — intra-node and cross-processor channels: the DOCA
//!   Comch-E/Comch-P server endpoint, and the calibrated costs of Comch,
//!   eBPF `SK_MSG` descriptor passing and the kernel TCP channel baseline.
//! * [`dpu`] — the DPU SoC substrate: the wimpy-ARM-core service-time
//!   scaling and the (slow) SoC DMA engine.
//! * [`tcpstack`] — kernel and F-Stack TCP/IP cost models plus the HTTP and
//!   RDMA-bridge costs the ingress gateway charges (HTTP is costed, never
//!   parsed).
//! * [`core`] — Palladium proper: the DPU network engine (DNE), DWRR
//!   multi-tenancy, the RC connection pool with shadow QPs, the
//!   HTTP/TCP→RDMA ingress gateway, and the simulation drivers that compose
//!   all of the above.
//! * [`baselines`] — SPRIGHT, NightCore and FUYAO rebuilt over the same
//!   substrates, plus the one-sided RDMA primitive variants (OWDL, OWRC) and
//!   the on-path / FCFS DNE ablations.
//! * [`workloads`] — the Online Boutique function graph and the open-loop
//!   overload regimes (Poisson sweeps, flash crowds, the metastable control).
//!
//! ## Quickstart
//!
//! ```
//! use palladium::core::driver::chain::ChainSim;
//! use palladium::core::system::SystemKind;
//! use palladium::workloads::boutique::{self, ChainKind};
//!
//! // Run 'Home Query' on the Palladium (DNE) data plane with 20 closed-loop
//! // clients and report RPS / mean latency.
//! let cfg = boutique::config(SystemKind::PalladiumDne, ChainKind::HomeQuery)
//!     .clients(20)
//!     .warmup_ms(40)
//!     .duration_ms(120);
//! let report = ChainSim::new(cfg).run();
//! assert!(report.rps > 0.0);
//! assert_eq!(report.software_copy_bytes, 0); // zero-copy data plane
//! ```
//!
//! See `README.md` §“Workspace layout” for the system inventory and
//! §“Regenerating the paper's figures” for the binary behind every figure
//! and table.

// No library crate in the workspace uses `unsafe`: every crate root
// forbids it, and `cargo test` checks that each one does.
#![forbid(unsafe_code)]

pub use palladium_baselines as baselines;
pub use palladium_core as core;
pub use palladium_dpu as dpu;
pub use palladium_ipc as ipc;
pub use palladium_membuf as membuf;
pub use palladium_rdma as rdma;
pub use palladium_simnet as simnet;
pub use palladium_tcpstack as tcpstack;
pub use palladium_workloads as workloads;
