//! Property-based tests for the unified pool's core invariants:
//!
//! 1. The pool never double-allocates a live buffer.
//! 2. Allocations + frees conserve capacity exactly (no leaks, no phantom
//!    buffers).
//! 3. Token hand-off (into_transit/redeem) is exactly-once for arbitrary
//!    operation interleavings.

use std::collections::BTreeSet;

use bytes::Bytes;
use proptest::prelude::*;

use palladium_membuf::{BufToken, CopyMeter, FnId, Owner, PoolError, PoolId, TenantId, UnifiedPool};

/// A randomly generated pool operation.
#[derive(Clone, Debug)]
enum Op {
    Alloc,
    /// Free the i-th live token (modulo live count).
    Free(usize),
    /// Hand off the i-th live token and immediately redeem it.
    Handoff(usize),
    /// Hand off the i-th live token and try to redeem it twice.
    DoubleRedeem(usize),
    /// Write then read back a payload of the given length through the i-th
    /// live token.
    WriteRead(usize, u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => Just(Op::Alloc),
        2 => (0usize..64).prop_map(Op::Free),
        2 => (0usize..64).prop_map(Op::Handoff),
        1 => (0usize..64).prop_map(Op::DoubleRedeem),
        2 => ((0usize..64), (0u16..512)).prop_map(|(i, n)| Op::WriteRead(i, n)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pool_conserves_buffers_and_enforces_single_ownership(
        ops in proptest::collection::vec(op_strategy(), 1..200),
        n_bufs in 1u32..16,
    ) {
        let buf_size = 512u32;
        let mut pool = UnifiedPool::new(PoolId(1), TenantId(1), n_bufs, buf_size);
        let mut meter = CopyMeter::new();
        let mut live: Vec<BufToken> = Vec::new();

        for op in ops {
            match op {
                Op::Alloc => {
                    match pool.alloc(Owner::Function(FnId(1))) {
                        Ok(tok) => live.push(tok),
                        Err(PoolError::Exhausted) => {
                            prop_assert_eq!(live.len() as u32, n_bufs);
                        }
                        Err(e) => prop_assert!(false, "unexpected alloc error {:?}", e),
                    }
                }
                Op::Free(i) => {
                    if !live.is_empty() {
                        let tok = live.remove(i % live.len());
                        pool.free(tok).expect("freeing a live token must succeed");
                    }
                }
                Op::Handoff(i) => {
                    if !live.is_empty() {
                        let idx = i % live.len();
                        let tok = live.remove(idx);
                        let desc = pool
                            .into_transit(tok, FnId(1), FnId(2))
                            .expect("handoff of live token");
                        let tok2 = pool
                            .redeem(&desc, Owner::Function(FnId(2)))
                            .expect("redeem of in-transit descriptor");
                        live.push(tok2);
                    }
                }
                Op::DoubleRedeem(i) => {
                    if !live.is_empty() {
                        let idx = i % live.len();
                        let tok = live.remove(idx);
                        let desc = pool.into_transit(tok, FnId(1), FnId(2)).unwrap();
                        let tok2 = pool.redeem(&desc, Owner::Function(FnId(2))).unwrap();
                        // Second redeem of the same descriptor must fail.
                        let second = pool.redeem(&desc, Owner::Function(FnId(3)));
                        let rejected = matches!(second, Err(PoolError::BadOwner { .. }));
                        prop_assert!(rejected, "double redeem must be rejected");
                        live.push(tok2);
                    }
                }
                Op::WriteRead(i, n) => {
                    if !live.is_empty() {
                        let idx = i % live.len();
                        let payload: Vec<u8> = (0..n).map(|b| (b % 251) as u8).collect();
                        let payload = Bytes::from(payload);
                        let tok = &live[idx];
                        if (n as u32) <= buf_size {
                            pool.write_bytes(tok, payload.clone(), &mut meter).unwrap();
                            prop_assert_eq!(pool.read(tok).unwrap(), &payload[..]);
                        } else {
                            prop_assert_eq!(
                                pool.write_bytes(tok, payload, &mut meter),
                                Err(PoolError::TooLarge)
                            );
                        }
                    }
                }
            }

            // Invariant: conservation.
            prop_assert_eq!(pool.in_use() as usize, live.len());
            // Invariant: no two live tokens share a buffer index.
            let idxs: BTreeSet<u32> = live.iter().map(|t| t.idx()).collect();
            prop_assert_eq!(idxs.len(), live.len());
        }

        // Drain: everything frees cleanly and the pool refills completely.
        for tok in live.drain(..) {
            pool.free(tok).unwrap();
        }
        prop_assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn payload_integrity_through_handoff_chains(
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        hops in 1usize..8,
    ) {
        // A payload written once survives any number of ownership hand-offs
        // without any further copies (the zero-copy chain invariant).
        let mut pool = UnifiedPool::new(PoolId(1), TenantId(1), 2, 512);
        let mut meter = CopyMeter::new();
        let tok = pool.alloc(Owner::Function(FnId(0))).unwrap();
        pool.write_bytes(&tok, Bytes::from(payload.clone()), &mut meter).unwrap();
        let mut tok = tok;
        for hop in 0..hops {
            let desc = pool
                .into_transit(tok, FnId(hop as u16), FnId(hop as u16 + 1))
                .unwrap();
            tok = pool
                .redeem(&desc, Owner::Function(FnId(hop as u16 + 1)))
                .unwrap();
        }
        prop_assert_eq!(pool.read(&tok).unwrap(), &payload[..]);
        prop_assert_eq!(meter.sw_ops, 1, "only the initial produce copies");
        pool.free(tok).unwrap();
    }
}
