//! # palladium-ipc — intra-node and cross-processor IPC substrate
//!
//! The descriptor-passing channels of Palladium's data plane:
//!
//! * [`comch`] — the DOCA Communication Channel between host functions and
//!   the DNE (§3.5.4): one server on the DPU, one client endpoint per
//!   function, FIFO both ways.
//! * [`costs`] — calibrated per-operation prices for SK_MSG, Comch-E,
//!   Comch-P and the kernel-TCP baseline; the Fig 9 curves (and the Fig 16
//!   DNE-vs-CNE crossover) are these costs run through queueing. The eBPF
//!   `SK_MSG` hand-off between co-located functions (§3.5.3, Fig 8) exists
//!   only as its price, [`Channel::SK_MSG`]: the cluster charges it per hop.

// No library crate in the workspace uses `unsafe`: every crate root
// forbids it, and `cargo test` checks that each one does.
#![forbid(unsafe_code)]

pub mod comch;
pub mod costs;

pub use comch::{ComchError, ComchServer};
pub use costs::{Channel, ChannelCosts, ChannelKind};
