//! Recycled fabricated payloads: the zero-alloc way for drivers to
//! manufacture message bytes.
//!
//! The cluster and echo drivers fabricate payloads — "`len` zero
//! bytes carrying a request/connection id as an 8-byte little-endian
//! prefix" — once per message, forever. Allocating each one
//! (`Bytes::from(vec![0; len])`) was the last steady-state heap traffic on
//! several hot paths, so the chain cluster grew a recycling cache; this
//! module is that cache promoted to a shared utility (ROADMAP: "payload
//! recycling beyond the cluster driver"), now backing the cluster engine
//! (chain and sharded cluster) and the echo driver, with the `alloc_smoke`
//! CI gate pinning the zero-allocation contract on both. (The multi-node
//! driver makes no payload: it charges each hop's one-way time.)
//!
//! A payload's backing allocation becomes reusable once every traveling
//! handle has dropped — observed via [`Bytes::unique_mut`] — at which
//! point only the id prefix needs rewriting: no flow mutates payload
//! contents, so the bytes beyond the prefix are still zero and a recycled
//! payload is **bit-identical** to a freshly fabricated one (golden traces
//! are unaffected by recycling).

use std::collections::VecDeque;

use bytes::Bytes;

/// Recycles fabricated payloads (zeros with an 8-byte little-endian id
/// prefix). See the module docs for the reuse contract.
#[derive(Debug, Default)]
pub struct PayloadCache {
    /// Per-exact-length rings (a workload charges only a handful of
    /// sizes).
    by_len: Vec<(u32, VecDeque<Bytes>)>,
}

impl PayloadCache {
    /// Candidates examined per request before giving up and allocating:
    /// bounds the scan when many payloads of one size are still in
    /// flight (their handles alive in pool slots or on the wire).
    const SCAN: usize = 16;

    /// An empty cache.
    pub fn new() -> Self {
        PayloadCache { by_len: Vec::new() }
    }

    /// Fabricate an `id`-prefixed zero payload of `len` bytes (floored at
    /// the 8-byte prefix), reusing a retired allocation when one is free.
    /// Flows that read the id back (`req_of`-style) need the full prefix,
    /// hence the floor; size-exact flows use [`PayloadCache::make_exact`].
    pub fn make(&mut self, id: u64, len: u32) -> Bytes {
        self.fabricate(id, len.max(8))
    }

    /// Exact-length fabrication: lengths below 8 truncate the id prefix
    /// instead of padding the buffer. Wire-level size sweeps (the Fig 11
    /// echo drives a 1-byte point) must keep sub-8-byte messages
    /// sub-8-byte — per-byte fabric costs charge `payload.len()`.
    pub fn make_exact(&mut self, id: u64, len: u32) -> Bytes {
        self.fabricate(id, len)
    }

    fn fabricate(&mut self, id: u64, len: u32) -> Bytes {
        let prefix = &id.to_le_bytes()[..(len as usize).min(8)];
        let q = match self.by_len.iter().position(|(l, _)| *l == len) {
            Some(i) => &mut self.by_len[i].1,
            None => {
                self.by_len.push((len, VecDeque::new()));
                &mut self.by_len.last_mut().expect("just pushed").1
            }
        };
        for _ in 0..q.len().min(Self::SCAN) {
            let mut b = q.pop_front().expect("scan bounded by len");
            if let Some(buf) = b.unique_mut() {
                buf[..prefix.len()].copy_from_slice(prefix);
                let out = b.clone();
                q.push_back(b);
                return out;
            }
            q.push_back(b); // still in flight; rotate and try the next
        }
        let out = Bytes::zeroed_with_prefix(len as usize, prefix);
        q.push_back(out.clone());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycled_payload_is_bit_identical_to_fresh() {
        let mut c = PayloadCache::new();
        let fresh = c.make(7, 64);
        let reference = fresh.as_slice().to_vec();
        drop(fresh); // every traveling handle gone: recyclable
        let recycled = c.make(7, 64);
        assert_eq!(recycled.as_slice(), &reference[..]);
        assert_eq!(&recycled.as_slice()[..8], &7u64.to_le_bytes());
        assert!(recycled.as_slice()[8..].iter().all(|&b| b == 0));
    }

    #[test]
    fn in_flight_payloads_are_never_rewritten() {
        let mut c = PayloadCache::new();
        let held = c.make(1, 32);
        let other = c.make(2, 32); // `held` still alive: must allocate
        assert_eq!(&held.as_slice()[..8], &1u64.to_le_bytes());
        assert_eq!(&other.as_slice()[..8], &2u64.to_le_bytes());
        drop(other);
        let reused = c.make(3, 32);
        assert_eq!(&held.as_slice()[..8], &1u64.to_le_bytes(), "still intact");
        assert_eq!(&reused.as_slice()[..8], &3u64.to_le_bytes());
    }

    #[test]
    fn short_payloads_floor_at_the_prefix() {
        let mut c = PayloadCache::new();
        assert_eq!(c.make(9, 0).len(), 8);
        assert_eq!(c.make(9, 8).len(), 8);
        assert_eq!(c.make(9, 9).len(), 9);
    }

    #[test]
    fn make_exact_preserves_sub_prefix_lengths() {
        let mut c = PayloadCache::new();
        let one = c.make_exact(0x1122, 1);
        assert_eq!(one.len(), 1, "1-byte wire messages stay 1 byte");
        assert_eq!(one.as_slice(), &[0x22], "truncated little-endian prefix");
        drop(one);
        let recycled = c.make_exact(0x33, 1);
        assert_eq!(recycled.as_slice(), &[0x33]);
        assert_eq!(c.make_exact(7, 64).len(), 64, "≥8 matches make()");
    }

    #[test]
    fn sizes_do_not_cross_pollinate() {
        let mut c = PayloadCache::new();
        drop(c.make(1, 64));
        let b = c.make(2, 128);
        assert_eq!(b.len(), 128);
        drop(b);
        assert_eq!(c.make(3, 64).len(), 64);
    }
}
