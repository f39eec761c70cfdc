//! The 16-byte buffer descriptor — the only thing Palladium's data plane
//! moves through software channels.
//!
//! The paper exchanges "16B buffer descriptors" between the DNE and host
//! functions over DOCA Comch (§3.5.4) and between co-located functions over
//! eBPF `SK_MSG` (§3.5.3). Payload bytes never travel with the descriptor;
//! they stay in the unified pool and only ownership moves.

use crate::ids::{FnId, PoolId, TenantId};

/// A buffer descriptor: which buffer, how much valid data, and the
/// function-to-function addressing needed for routing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BufDesc {
    /// Tenant (function chain) the buffer's pool belongs to.
    pub tenant: TenantId,
    /// Pool within the tenant.
    pub pool: PoolId,
    /// Buffer index inside the pool.
    pub buf_idx: u32,
    /// Valid payload length in bytes.
    pub len: u32,
    /// Producing function.
    pub src_fn: FnId,
    /// Destination function.
    pub dst_fn: FnId,
}

// §3.5.3–3.5.4: the channels move a fixed 16 B descriptor; it must never grow.
const _: () = assert!(std::mem::size_of::<BufDesc>() == 16);
