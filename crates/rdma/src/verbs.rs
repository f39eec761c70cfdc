//! IB verbs vocabulary: queue pairs, work requests, completions.
//!
//! This mirrors the subset of the verbs API Palladium's data plane uses
//! (§3.2, §3.5.2): Reliable Connected QPs, two-sided SEND/RECV (the DNE
//! path), one-sided WRITE (the FUYAO/OWRC/OWDL baselines), shared receive
//! queues (one RQ per tenant, §3.3) and a single shared completion queue
//! per node.

use bytes::Bytes;

use palladium_membuf::{NodeId, PoolId, TenantId};

/// Queue pair number, unique per node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Qpn(pub u32);

/// Work-request identifier chosen by the poster; echoed in the completion.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct WrId(pub u64);

/// RDMA operation kind.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpKind {
    /// Two-sided send (consumes a receiver RQ buffer).
    Send,
    /// One-sided write (receiver CPU oblivious).
    Write,
}

/// A remote buffer address for one-sided operations: Palladium addresses
/// buffers as (pool, index) within a registered memory region rather than
/// raw virtual addresses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RemoteAddr {
    /// Target pool on the remote node.
    pub pool: PoolId,
    /// Buffer index within the pool.
    pub buf_idx: u32,
}

/// A send-side work request.
#[derive(Clone, Debug)]
pub struct WorkRequest {
    /// Poster-chosen id, echoed in the completion.
    pub wr_id: WrId,
    /// Operation kind.
    pub op: OpKind,
    /// Payload (snapshot of the pinned buffer).
    pub payload: Bytes,
    /// Remote address for one-sided operations; ignored for SEND.
    pub remote: Option<RemoteAddr>,
    /// Application immediate data (Palladium carries the 16-byte descriptor
    /// metadata here for SENDs so the receiver can route).
    pub imm: u64,
}

impl WorkRequest {
    /// A two-sided send of `payload`.
    pub fn send(wr_id: WrId, payload: Bytes, imm: u64) -> Self {
        WorkRequest {
            wr_id,
            op: OpKind::Send,
            payload,
            remote: None,
            imm,
        }
    }

    /// A one-sided write of `payload` into `remote`.
    pub fn write(wr_id: WrId, payload: Bytes, remote: RemoteAddr, imm: u64) -> Self {
        WorkRequest {
            wr_id,
            op: OpKind::Write,
            payload,
            remote: Some(remote),
            imm,
        }
    }
}

/// Completion status.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CqeStatus {
    /// Operation completed successfully.
    Success,
    /// Retries exhausted (peer dead or fabric partitioned).
    RetryExceeded,
    /// Receiver had no RQ buffer after all RNR retries.
    RnrRetryExceeded,
}

/// Which side of the operation a completion reports.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CqeKind {
    /// A posted send/write finished (sender side).
    SendDone(OpKind),
    /// A two-sided receive consumed an RQ buffer (receiver side).
    Recv,
}

/// A completion queue entry.
#[derive(Clone, Debug)]
pub struct Cqe {
    /// Id of the WR this completion retires. For `Recv` this is the RQ
    /// entry's id (the DNE maps it back through the RBR table, §3.5.2).
    pub wr_id: WrId,
    /// Completion kind.
    pub kind: CqeKind,
    /// Status.
    pub status: CqeStatus,
    /// QP the operation ran on.
    pub qpn: Qpn,
    /// Tenant owning the QP.
    pub tenant: TenantId,
    /// Peer node.
    pub peer: NodeId,
    /// Payload bytes for `Recv` completions — the reproduction
    /// hands the DMA'd bytes to the driver, which applies them to the posted
    /// buffer via `dma_write` (metered as RNIC DMA, not a software copy).
    pub data: Bytes,
    /// Immediate data from the sender (descriptor metadata for SENDs).
    pub imm: u64,
}

/// QP connection state. Connections are pre-warmed, so a QP goes from
/// `Reset` straight to `Rts` when its pair is wired (the RC handshake's
/// INIT and RTR stages are never observable).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QpState {
    /// Freshly created.
    Reset,
    /// Ready to send (fully connected).
    Rts,
    /// Broken.
    Error,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wr_constructors_set_kinds() {
        let s = WorkRequest::send(WrId(1), Bytes::from_static(b"abc"), 7);
        assert_eq!(s.op, OpKind::Send);
        assert_eq!(s.imm, 7);

        let w = WorkRequest::write(
            WrId(2),
            Bytes::from_static(b"abcd"),
            RemoteAddr {
                pool: PoolId(1),
                buf_idx: 9,
            },
            0,
        );
        assert_eq!(w.op, OpKind::Write);
        assert_eq!(w.remote.unwrap().buf_idx, 9);
    }
}
