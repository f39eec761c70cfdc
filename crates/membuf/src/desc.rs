//! The 16-byte buffer descriptor — the only thing Palladium's data plane
//! moves through software channels.
//!
//! The paper exchanges "16B buffer descriptors" between the DNE and host
//! functions over DOCA Comch (§3.5.4) and between co-located functions over
//! eBPF `SK_MSG` (§3.5.3). Payload bytes never travel with the descriptor;
//! they stay in the unified pool and only ownership moves.

use bytes::{Buf, BufMut};

use crate::ids::{FnId, PoolId, TenantId};

/// Size of the encoded descriptor on every software channel.
pub const DESC_WIRE_SIZE: usize = 16;

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

impl BufDesc {
    /// Encode into the 16-byte wire format (big-endian fields).
    pub fn encode(&self) -> [u8; DESC_WIRE_SIZE] {
        let mut out = [0u8; DESC_WIRE_SIZE];
        {
            let mut b = &mut out[..];
            b.put_u16(self.tenant.0);
            b.put_u16(self.pool.0);
            b.put_u32(self.buf_idx);
            b.put_u32(self.len);
            b.put_u16(self.src_fn.0);
            b.put_u16(self.dst_fn.0);
        }
        out
    }

    /// Decode from the wire format. Returns `None` on short input.
    pub fn decode(raw: &[u8]) -> Option<BufDesc> {
        if raw.len() < DESC_WIRE_SIZE {
            return None;
        }
        let mut b = raw;
        Some(BufDesc {
            tenant: TenantId(b.get_u16()),
            pool: PoolId(b.get_u16()),
            buf_idx: b.get_u32(),
            len: b.get_u32(),
            src_fn: FnId(b.get_u16()),
            dst_fn: FnId(b.get_u16()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BufDesc {
        BufDesc {
            tenant: TenantId(3),
            pool: PoolId(1),
            buf_idx: 0xDEAD,
            len: 4096,
            src_fn: FnId(7),
            dst_fn: FnId(9),
        }
    }

    #[test]
    fn roundtrip() {
        let d = sample();
        let enc = d.encode();
        assert_eq!(enc.len(), DESC_WIRE_SIZE);
        assert_eq!(BufDesc::decode(&enc), Some(d));
    }

    #[test]
    fn decode_short_input_fails() {
        assert_eq!(BufDesc::decode(&[0u8; 15]), None);
        assert_eq!(BufDesc::decode(&[]), None);
    }

    #[test]
    fn decode_ignores_trailing_bytes() {
        let d = sample();
        let mut enc = d.encode().to_vec();
        enc.extend_from_slice(&[0xFF; 8]);
        assert_eq!(BufDesc::decode(&enc), Some(d));
    }

    #[test]
    fn wire_size_is_exactly_16() {
        // The paper's Comch experiments move 16 B descriptors; the encoding
        // must never silently grow.
        assert_eq!(DESC_WIRE_SIZE, 16);
        assert_eq!(std::mem::size_of_val(&sample().encode()), 16);
    }
}
