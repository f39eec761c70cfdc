//! # palladium-core — the Palladium data plane
//!
//! The paper's primary contribution, rebuilt on the workspace substrates:
//!
//! * [`dne`] — the DPU Network Engine: run-to-completion worker loop (TX:
//!   DWRR dequeue → route → least-congested RC → post; RX: CQE → RBR →
//!   Comch forward) plus the core thread's replenishment sweep. The same
//!   engine at [`config::EngineLocation::Cpu`] is the CNE ablation.
//! * [`dwrr`] — the per-tenant Deficit Weighted Round Robin scheduler (and
//!   the FCFS baseline) behind the Fig 15 fairness result.
//! * [`rbr`] — the receive-buffer registry.
//! * [`connpool`] — the RC connection pool with shadow-QP activity
//!   management and least-congested selection.
//! * [`routing`] — intra-/inter-node route tables and the CNI-like
//!   coordinator.
//! * [`ingress`] — the cluster-wide HTTP/TCP→RDMA gateway: master/worker,
//!   RSS, hysteresis autoscaler ([`autoscaler`]).
//! * [`system`] — declarative wiring of all six evaluated systems and the
//!   Table 1 capability matrix.
//! * [`driver`] — the simulation drivers that regenerate the paper's
//!   figures: descriptor-channel echo (Fig 9), ingress sweep & scaling
//!   (Figs 13–14), multi-tenant fairness (Fig 15) and the full
//!   function-chain cluster (Fig 16 / Table 2).

// No library crate in the workspace uses `unsafe`: every crate root
// forbids it, and `cargo test` checks that each one does.
#![forbid(unsafe_code)]

pub mod autoscaler;
pub mod config;
pub mod connpool;
pub mod dne;
pub mod driver;
pub mod dwrr;
pub mod ingress;
pub mod rbr;
pub mod routing;
pub mod system;

pub use autoscaler::{Autoscaler, AutoscalerConfig, ScaleAction};
pub use config::{CostModel, EngineLocation};
pub use connpool::{ConnPool, ConnPoolConfig, PooledConn};
pub use dne::{pack_imm, unpack_imm, Dne, DneEffect, DneStep};
pub use dwrr::{SchedPolicy, TenantScheduler};
pub use rbr::RbrTable;
pub use routing::{Coordinator, DeployEvent, RouteTables};
pub use system::{Capabilities, IngressKind, InterNode, SystemKind, SystemSpec};
