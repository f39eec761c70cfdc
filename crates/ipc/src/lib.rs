//! # palladium-ipc — intra-node and cross-processor IPC substrate
//!
//! The descriptor-passing channels of Palladium's data plane:
//!
//! * [`comch`] — the DOCA Communication Channel between host functions and
//!   the DNE (§3.5.4): one server on the DPU, one client endpoint per
//!   function, with the misbehaving-tenant disconnect hook.
//! * [`costs`] — calibrated per-operation prices for SK_MSG, Comch-E,
//!   Comch-P and the kernel-TCP baseline; the Fig 9 curves (and the Fig 16
//!   DNE-vs-CNE crossover) are these costs run through queueing. The eBPF
//!   `SK_MSG` hand-off between co-located functions (§3.5.3, Fig 8) exists
//!   only as its price, [`SkMsgCosts`]: the cluster charges it per hop.

// The simulation's memory-safety story is that only the shard mailbox ring
// (simnet) and the bench counting allocator contain `unsafe` at all; this
// crate is compiler-certified to stay out of that set (simlint's
// safety-comments rule covers the two that cannot be).
#![forbid(unsafe_code)]

pub mod comch;
pub mod costs;

pub use comch::{ComchError, ComchServer};
pub use costs::{ChannelCosts, ChannelKind, SkMsgCosts};
