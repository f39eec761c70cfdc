//! # palladium-tcpstack — TCP/IP stack cost models
//!
//! What the cluster edge is charged for:
//!
//! * [`stack`] — calibrated cost models for the interrupt-driven kernel
//!   stack and the DPDK-based F-Stack, plus the HTTP-processing and
//!   RDMA-bridge prices behind Fig 13/14: Palladium's early HTTP/TCP→RDMA
//!   conversion versus the deferred-conversion reverse proxies (K-Ingress,
//!   F-Ingress). HTTP is *costed* ([`HttpCosts`]), never parsed — no
//!   simulated request carries header bytes.

// No library crate in the workspace uses `unsafe`: every crate root
// forbids it, and `cargo test` checks that each one does.
#![forbid(unsafe_code)]

pub mod stack;

pub use stack::{HttpCosts, IngressServiceModel, RdmaBridgeCosts, StackKind, TcpCosts};
