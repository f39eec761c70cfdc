//! # palladium-rdma — the simulated RDMA substrate
//!
//! A from-scratch, protocol-faithful stand-in for the ConnectX-6 RNIC +
//! 200 Gbps fabric the Palladium paper evaluates on (hardware this
//! reproduction cannot assume — see the README's introduction):
//!
//! * [`verbs`] — the IB-verbs vocabulary: QPs, work requests, completions.
//! * [`qp`] — the Reliable Connected state machine: PSNs, cumulative ACKs,
//!   go-back-N retransmission, RNR NAK/retry, shadow-QP activity tracking.
//! * [`rnic`] — the device model: per-tenant shared RQs, the node-wide
//!   shared CQ and its doorbell, MR registration gated on DOCA RDMA grants,
//!   QP-context-cache and MTT-cache pressure penalties.
//! * [`fabric`] — wire frames: SEND/WRITE data, RC control, heartbeats.
//! * [`net`] — [`net::RdmaNet`], the sub-simulator drivers embed; see its
//!   module docs for its one way to connect, post, step and reap.
//! * [`config`] — every timing constant, calibrated against numbers the
//!   paper itself reports (each field's docs name the paper section).
//!
//! What the substitution preserves: the *protocol-level* properties
//! Palladium's design arguments rest on — two-sided SENDs consume
//! receiver-posted buffers (no receiver-obliviousness), one-sided WRITEs
//! land without receiver involvement (hence the data-race problem of §2.1),
//! RC delivers exactly-once in-order under loss, and active QPs beyond the
//! device cache thrash (hence shadow QPs and the active-QP cap). Those two
//! verbs are the only ones modelled: the DNE path uses SEND/RECV, the
//! FUYAO/OWRC/OWDL baselines use WRITE.
//!
//! Connections are pre-warmed, as the §3.3 connection pool does before
//! traffic: a connected pair is in RTS from the start, and no run waits on
//! an RC handshake. The only connection-setup cost a run pays is the
//! worker-rejoin bill's per-QP `qp_setup` (`palladium_core::connpool::
//! RejoinCosts`, 25 µs each).

// No library crate in the workspace uses `unsafe`: every crate root
// forbids it, and CI checks that each one does.
#![forbid(unsafe_code)]

pub mod config;
pub mod fabric;
pub mod mr;
pub mod net;
pub mod qp;
pub mod rnic;
pub mod verbs;

pub use config::RdmaConfig;
pub use fabric::{Packet, PacketKind};
pub use mr::{MemoryRegion, MrError, MrKey, MrTable};
pub use net::{NetCounts, RdmaEvent, RdmaNet, RdmaOutput, Step};
pub use qp::{Inflight, RcQp, RxDecision};
pub use rnic::{Rnic, RnicError, RqEntry};
pub use verbs::{Cqe, CqeKind, CqeStatus, OpKind, QpState, Qpn, RemoteAddr, WorkRequest, WrId};
