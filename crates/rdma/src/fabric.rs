//! Wire-level packet vocabulary for the simulated fabric.
//!
//! The fabric itself (serialization, propagation, fault injection) is
//! orchestrated by [`crate::net::RdmaNet`]; this module defines what travels
//! on it: data frames (a SEND or a WRITE, each with its PSN), the RC
//! control frames that acknowledge them, and liveness probes.

use bytes::Bytes;

use palladium_membuf::NodeId;

use crate::verbs::{OpKind, Qpn, RemoteAddr, WrId};

/// A frame in flight between two RNICs.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Originating QP on `src`.
    pub src_qpn: Qpn,
    /// Target QP on `dst`.
    pub dst_qpn: Qpn,
    /// Payload.
    pub kind: PacketKind,
    /// Set by the fault injector; the receiving RNIC's CRC check drops the
    /// frame and lets the go-back-N machinery recover.
    pub corrupted: bool,
}

/// Frame contents.
///
/// `Data` frames carry the work-request fields flattened, with the payload
/// as a refcounted [`Bytes`] handle: building a frame (including every
/// go-back-N retransmission) bumps one refcount instead of cloning a
/// `WorkRequest`, and receivers destructure the fields they need without
/// re-materializing one.
#[derive(Clone, Debug)]
pub enum PacketKind {
    /// A data-bearing message (SEND / WRITE) with its PSN.
    Data {
        /// Sequence number within the connection.
        psn: u64,
        /// Poster-chosen id.
        wr_id: WrId,
        /// Operation kind.
        op: OpKind,
        /// Payload handle.
        payload: Bytes,
        /// Remote address for one-sided operations.
        remote: Option<RemoteAddr>,
        /// Application immediate data.
        imm: u64,
    },
    /// Cumulative acknowledgement of every PSN `<= upto`.
    Ack {
        /// Highest acknowledged PSN.
        upto: u64,
    },
    /// Out-of-sequence NAK: "I still expect `expected`".
    Nak {
        /// PSN the receiver expects next.
        expected: u64,
    },
    /// Receiver-not-ready NAK for a SEND that found no RQ buffer.
    RnrNak {
        /// PSN of the rejected SEND.
        psn: u64,
    },
    /// A liveness probe: unreliable, unacknowledged, outside any QP's PSN
    /// space. Subject to fault injection like any data frame, so link
    /// flaps produce honest missed-heartbeat false positives.
    Heartbeat,
}

impl Packet {
    /// Wire size of this frame in bytes, given the per-message header size.
    pub fn wire_bytes(&self, header_bytes: u64, ack_bytes: u64) -> u64 {
        match &self.kind {
            PacketKind::Data { payload, .. } => header_bytes + payload.len() as u64,
            PacketKind::Ack { .. }
            | PacketKind::Nak { .. }
            | PacketKind::RnrNak { .. }
            | PacketKind::Heartbeat => ack_bytes,
        }
    }

    /// True for control frames (ACK family) that skip receive-queue logic.
    pub fn is_control(&self) -> bool {
        matches!(
            self.kind,
            PacketKind::Ack { .. }
                | PacketKind::Nak { .. }
                | PacketKind::RnrNak { .. }
                | PacketKind::Heartbeat
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes() {
        let data = Packet {
            src: NodeId(0),
            dst: NodeId(1),
            src_qpn: Qpn(1),
            dst_qpn: Qpn(2),
            kind: PacketKind::Data {
                psn: 0,
                wr_id: WrId(1),
                op: OpKind::Send,
                payload: Bytes::from(vec![0u8; 4096]),
                remote: None,
                imm: 0,
            },
            corrupted: false,
        };
        assert_eq!(data.wire_bytes(40, 64), 4136);
        assert!(!data.is_control());

        let ack = Packet {
            kind: PacketKind::Ack { upto: 5 },
            ..data
        };
        assert_eq!(ack.wire_bytes(40, 64), 64);
        assert!(ack.is_control());
    }
}
