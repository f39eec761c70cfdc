//! Simulation drivers — the compositions that regenerate the paper's
//! figures.
//!
//! Every driver is a state machine over its own event alphabet, run by
//! the shared [`palladium_simnet::Harness`] trampoline (directly as an
//! [`palladium_simnet::Engine`], or per shard as a
//! [`palladium_simnet::ShardEngine`]): the driver owns only its topology
//! and workload; the clock, the batched event loop and the [`LoadReport`]
//! bookkeeping live in `palladium-simnet`.
//!
//! * [`channel`] — host↔DPU descriptor echo over Comch-E / Comch-P / TCP
//!   (Fig 9).
//! * [`ingress_sweep`] — external clients through one ingress design to an
//!   echo function: one engine for the client sweep (Fig 13) and the
//!   autoscaling time series (Fig 14), which differ only in schedule and
//!   gateway config.
//! * [`fairness`] — three tenants through one DNE, DWRR vs FCFS (Fig 15).
//! * [`cluster_sharded`] — the one cluster engine: pools, RC state
//!   machines, DNEs or the baselines' host engines, the ingress gateway,
//!   for any [`crate::system::SystemKind`], replicated over worker-node
//!   pairs and partitioned across shards with one `RdmaNet` instance
//!   each; reports are bit-identical at every shard count.
//! * [`chain`] — the Fig 16 / Table 2 topology and report types, and
//!   `ChainSim`: that engine at one pair on one shard.
//! * [`multinode`] — the cluster traffic pattern scaled to N nodes on the
//!   conservative sharded runner (`palladium_simnet::shard`): one
//!   simulation kernel per core, deterministic cross-shard mailboxes.
//! * [`echo`] — the cross-node echo for Figs 11–12: the RDMA primitive
//!   (Fig 12) and the optional host-function pair with its path mode
//!   (Fig 11) are data of one engine, whose message reaches each station
//!   by an event at the instant it arrives.
//!
//! Outside the cluster engine these are four engines: channel, ingress,
//! fairness and echo.

pub mod chain;
pub mod channel;
pub mod cluster_sharded;
pub mod echo;
pub mod fairness;
pub mod ingress_sweep;
pub mod multinode;

// The shared report type moved down into the simulation kernel; drivers and
// downstream crates keep importing it from here.
pub use palladium_simnet::{LoadReport, RunStats};
