//! The Reliable Connected queue pair state machine.
//!
//! Pure protocol logic — no scheduling. `RdmaNet` (in [`crate::net`]) calls
//! these methods and turns their return values into timed events. Keeping
//! the state machine passive makes it directly unit- and property-testable:
//! the tests below drive it through loss, reordering and RNR without any
//! simulator.
//!
//! Protocol summary (message granularity, go-back-N):
//! * Sender assigns consecutive PSNs; at most `window` messages unacked.
//! * Receiver delivers only `expected_psn`; ahead-of-sequence traffic
//!   triggers a NAK carrying the expected PSN, duplicates re-ACK.
//! * ACKs are cumulative. NAK/RTO rewinds retransmission to the oldest
//!   unacked message.
//! * A SEND arriving to an empty receive queue triggers an RNR NAK; the
//!   sender retries after `rnr_retry_delay` (§2.1's receiver-obliviousness
//!   discussion is precisely about never hitting this in steady state: the
//!   DNE's core thread keeps the RQ replenished, §3.5.2).

use std::collections::VecDeque;

use palladium_membuf::{NodeId, TenantId};
use palladium_simnet::Nanos;

use crate::fabric::PacketKind;
use crate::verbs::{OpKind, QpState, Qpn, WorkRequest};

/// A transmitted-but-unacked message.
#[derive(Clone, Debug)]
pub struct Inflight {
    /// Sequence number.
    pub psn: u64,
    /// The work request (retransmission needs the payload).
    pub wr: WorkRequest,
    /// Last transmission time (for RTO).
    pub sent_at: Nanos,
}

impl Inflight {
    /// Build the wire frame for this message. Go-back-N retransmits the
    /// same message many times under loss; this clones only the refcounted
    /// payload handle — never the payload bytes, never the whole
    /// [`WorkRequest`].
    pub fn frame(&self) -> PacketKind {
        PacketKind::Data {
            psn: self.psn,
            wr_id: self.wr.wr_id,
            op: self.wr.op,
            payload: self.wr.payload.clone(),
            remote: self.wr.remote,
            imm: self.wr.imm,
        }
    }
}

/// What the receiver side decided about an arriving data message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RxDecision {
    /// In sequence: deliver, advance, ACK cumulatively.
    Deliver,
    /// Duplicate (already delivered): discard but re-ACK.
    DuplicateAck,
    /// A gap: discard and NAK with the expected PSN.
    OutOfOrderNak {
        /// PSN the receiver still expects.
        expected: u64,
    },
    /// A gap already NAK'd: discard silently (RoCE NAKs once per gap —
    /// without this suppression, every out-of-order arrival in the window
    /// would trigger a rewind at the sender, a NAK storm that burns the
    /// retry budget without making progress).
    OutOfOrderSilent,
    /// SEND with no receive buffer available: RNR NAK this PSN.
    ReceiverNotReady,
    /// RNR already signalled for this PSN: discard silently.
    ReceiverNotReadySilent,
}

/// One endpoint of an RC connection.
#[derive(Debug)]
pub struct RcQp {
    /// This QP's number.
    pub qpn: Qpn,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Connection state.
    pub state: QpState,
    /// Remote node.
    pub peer_node: NodeId,
    /// Remote QP number.
    pub peer_qpn: Qpn,

    // ---- sender state ----
    sq: VecDeque<WorkRequest>,
    inflight: VecDeque<Inflight>,
    next_psn: u64,
    /// Number of RNR retries burned on the head message.
    pub rnr_retries: u32,
    /// Number of NAK/RTO retries burned on the head message.
    pub retries: u32,
    /// Monotonic epoch to invalidate stale RTO timers.
    pub rto_epoch: u64,
    /// An RTO check is already scheduled for this QP. At most one timer
    /// event is outstanding per QP — re-arms while one is pending would
    /// only produce stale no-op events (the seed scheduled one per
    /// `tx_kick`, which dominated far-future queue traffic).
    pub rto_pending: bool,
    /// Sender is in an RNR backoff (transmission paused).
    pub rnr_paused: bool,

    // ---- receiver state ----
    expected_psn: u64,
    /// Expected PSN we already NAK'd (suppress duplicate NAKs for one gap).
    nak_sent_for: Option<u64>,
    /// PSN we already RNR-NAK'd (suppress duplicate RNR NAKs).
    rnr_sent_for: Option<u64>,
}

impl RcQp {
    /// A QP in `Reset`; wiring the pair (`set_ready`) moves it to `Rts`.
    pub fn new(qpn: Qpn, tenant: TenantId, peer_node: NodeId, peer_qpn: Qpn) -> Self {
        RcQp {
            qpn,
            tenant,
            state: QpState::Reset,
            peer_node,
            peer_qpn,
            sq: VecDeque::new(),
            inflight: VecDeque::new(),
            next_psn: 0,
            rnr_retries: 0,
            retries: 0,
            rto_epoch: 0,
            rto_pending: false,
            rnr_paused: false,
            expected_psn: 0,
            nak_sent_for: None,
            rnr_sent_for: None,
        }
    }

    /// Transition to ready-to-send (both sides connected).
    pub fn set_ready(&mut self) {
        self.state = QpState::Rts;
    }

    /// Mark broken; pending work is drained by the caller.
    pub fn set_error(&mut self) {
        self.state = QpState::Error;
    }

    /// Messages queued but not yet transmitted.
    #[cfg(test)]
    pub fn sq_depth(&self) -> usize {
        self.sq.len()
    }

    /// Messages transmitted and unacked.
    pub fn inflight_depth(&self) -> usize {
        self.inflight.len()
    }

    /// Total outstanding work (the DNE's "least congested" connection metric
    /// and the shadow-QP active/inactive criterion, §3.3: a QP is active when
    /// it has WRs queued).
    pub fn outstanding(&self) -> usize {
        self.sq.len() + self.inflight.len()
    }

    /// Is the QP active in the shadow-QP sense (consuming RNIC resources)?
    pub fn is_active(&self) -> bool {
        self.outstanding() > 0
    }

    /// Enqueue a work request for transmission. Fails unless in `Rts`.
    pub fn post(&mut self, wr: WorkRequest) -> Result<(), QpState> {
        if self.state != QpState::Rts {
            return Err(self.state);
        }
        self.sq.push_back(wr);
        Ok(())
    }

    /// Pull the next message to put on the wire, if the window allows.
    /// Assigns its PSN and moves it to the inflight queue.
    pub fn next_transmit(&mut self, now: Nanos, window: u32) -> Option<&Inflight> {
        if self.state != QpState::Rts || self.rnr_paused {
            return None;
        }
        if self.inflight.len() >= window as usize {
            return None;
        }
        let wr = self.sq.pop_front()?;
        let psn = self.next_psn;
        self.next_psn += 1;
        self.inflight.push_back(Inflight {
            psn,
            wr,
            sent_at: now,
        });
        self.inflight.back()
    }

    /// Cumulative ACK: retire every inflight message with `psn <= upto`,
    /// appending the retired messages (for completion generation), in
    /// order, to a caller-owned buffer — the ACK hot path (one call per
    /// received ACK frame) reuses one scratch allocation for the whole
    /// simulation.
    pub fn on_ack_into(&mut self, upto: u64, retired: &mut Vec<Inflight>) {
        let before = retired.len();
        while let Some(front) = self.inflight.front() {
            if front.psn <= upto {
                retired.push(self.inflight.pop_front().expect("front exists"));
            } else {
                break;
            }
        }
        if retired.len() > before {
            self.retries = 0;
            self.rnr_retries = 0;
        }
    }

    /// PSN the next fresh transmission would use. A NAK for `expected >=
    /// next_psn` is redundant (we already rewound there) — real RNICs ignore
    /// those instead of burning retry budget on a NAK storm.
    pub fn next_psn(&self) -> u64 {
        self.next_psn
    }

    /// NAK / timeout: rewind everything inflight back onto the send queue
    /// (front, in PSN order) and roll `next_psn` back. Returns how many
    /// messages will be retransmitted.
    pub fn rewind(&mut self) -> usize {
        let n = self.inflight.len();
        while let Some(msg) = self.inflight.pop_back() {
            self.next_psn = msg.psn;
            self.sq.push_front(msg.wr);
        }
        n
    }

    /// Oldest unacked transmission time (RTO reference), if any.
    pub fn oldest_inflight_at(&self) -> Option<Nanos> {
        self.inflight.front().map(|m| m.sent_at)
    }

    /// Receiver: classify an arriving data message. `rq_available` tells
    /// whether a receive buffer exists (only consulted for SENDs).
    pub fn classify_rx(&mut self, psn: u64, op: OpKind, rq_available: bool) -> RxDecision {
        if psn < self.expected_psn {
            return RxDecision::DuplicateAck;
        }
        if psn > self.expected_psn {
            if self.nak_sent_for == Some(self.expected_psn) {
                return RxDecision::OutOfOrderSilent;
            }
            self.nak_sent_for = Some(self.expected_psn);
            return RxDecision::OutOfOrderNak {
                expected: self.expected_psn,
            };
        }
        if matches!(op, OpKind::Send) && !rq_available {
            if self.rnr_sent_for == Some(psn) {
                return RxDecision::ReceiverNotReadySilent;
            }
            self.rnr_sent_for = Some(psn);
            return RxDecision::ReceiverNotReady;
        }
        self.expected_psn += 1;
        // Progress clears the one-NAK-per-gap suppression.
        self.nak_sent_for = None;
        self.rnr_sent_for = None;
        RxDecision::Deliver
    }

    /// Highest delivered PSN (for cumulative ACK generation); `None` until
    /// something was delivered.
    pub fn last_delivered_psn(&self) -> Option<u64> {
        self.expected_psn.checked_sub(1)
    }

    /// Drain all queued and inflight work (QP teardown on fatal error).
    pub fn drain(&mut self) -> Vec<WorkRequest> {
        let mut out: Vec<WorkRequest> = self.inflight.drain(..).map(|m| m.wr).collect();
        out.extend(self.sq.drain(..));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    use crate::verbs::WrId;

    fn qp() -> RcQp {
        let mut q = RcQp::new(Qpn(1), TenantId(1), NodeId(2), Qpn(9));
        q.set_ready();
        q
    }

    fn on_ack(q: &mut RcQp, upto: u64) -> Vec<Inflight> {
        let mut retired = Vec::new();
        q.on_ack_into(upto, &mut retired);
        retired
    }

    fn send_wr(id: u64) -> WorkRequest {
        WorkRequest::send(WrId(id), Bytes::from_static(b"x"), 0)
    }

    #[test]
    fn post_requires_rts() {
        let mut q = RcQp::new(Qpn(1), TenantId(1), NodeId(2), Qpn(9));
        assert_eq!(q.post(send_wr(1)), Err(QpState::Reset));
        q.set_ready();
        assert!(q.post(send_wr(1)).is_ok());
    }

    #[test]
    fn window_limits_inflight() {
        let mut q = qp();
        for i in 0..5 {
            q.post(send_wr(i)).unwrap();
        }
        let mut sent = 0;
        while q.next_transmit(Nanos(0), 3).is_some() {
            sent += 1;
        }
        assert_eq!(sent, 3);
        assert_eq!(q.inflight_depth(), 3);
        assert_eq!(q.sq_depth(), 2);
        // Ack one, window opens for one more.
        let retired = on_ack(&mut q, 0);
        assert_eq!(retired.len(), 1);
        assert!(q.next_transmit(Nanos(1), 3).is_some());
        assert!(q.next_transmit(Nanos(1), 3).is_none());
    }

    #[test]
    fn psns_are_consecutive() {
        let mut q = qp();
        for i in 0..4 {
            q.post(send_wr(i)).unwrap();
        }
        let psns: Vec<u64> = std::iter::from_fn(|| q.next_transmit(Nanos(0), 16).map(|m| m.psn))
            .collect();
        assert_eq!(psns, vec![0, 1, 2, 3]);
    }

    #[test]
    fn cumulative_ack_retires_prefix() {
        let mut q = qp();
        for i in 0..4 {
            q.post(send_wr(i)).unwrap();
            q.next_transmit(Nanos(0), 16);
        }
        let retired = on_ack(&mut q, 2);
        assert_eq!(retired.len(), 3);
        assert_eq!(retired[0].wr.wr_id, WrId(0));
        assert_eq!(retired[2].wr.wr_id, WrId(2));
        assert_eq!(q.inflight_depth(), 1);
        // Stale ack is a no-op.
        assert!(on_ack(&mut q, 1).is_empty());
    }

    #[test]
    fn rewind_preserves_order_and_psns() {
        let mut q = qp();
        for i in 0..3 {
            q.post(send_wr(i)).unwrap();
            q.next_transmit(Nanos(0), 16);
        }
        assert_eq!(q.rewind(), 3);
        assert_eq!(q.inflight_depth(), 0);
        assert_eq!(q.sq_depth(), 3);
        // Retransmission reissues the same PSNs in the same order.
        let m = q.next_transmit(Nanos(5), 16).unwrap();
        assert_eq!((m.psn, m.wr.wr_id), (0, WrId(0)));
        let m = q.next_transmit(Nanos(5), 16).unwrap();
        assert_eq!((m.psn, m.wr.wr_id), (1, WrId(1)));
    }

    #[test]
    fn receiver_inorder_delivery() {
        let mut q = qp();
        assert_eq!(q.classify_rx(0, OpKind::Send, true), RxDecision::Deliver);
        assert_eq!(q.classify_rx(1, OpKind::Send, true), RxDecision::Deliver);
        assert_eq!(q.last_delivered_psn(), Some(1));
    }

    #[test]
    fn receiver_detects_gap_and_duplicate() {
        let mut q = qp();
        assert_eq!(q.classify_rx(0, OpKind::Write, true), RxDecision::Deliver);
        // Gap: 2 arrives while 1 expected.
        assert_eq!(
            q.classify_rx(2, OpKind::Write, true),
            RxDecision::OutOfOrderNak { expected: 1 }
        );
        // Duplicate of 0.
        assert_eq!(q.classify_rx(0, OpKind::Write, true), RxDecision::DuplicateAck);
        // Still expecting 1.
        assert_eq!(q.classify_rx(1, OpKind::Write, true), RxDecision::Deliver);
    }

    #[test]
    fn rnr_only_applies_to_sends() {
        let mut q = qp();
        assert_eq!(
            q.classify_rx(0, OpKind::Send, false),
            RxDecision::ReceiverNotReady
        );
        // PSN not consumed: the retransmitted SEND delivers later.
        assert_eq!(q.classify_rx(0, OpKind::Send, true), RxDecision::Deliver);
        // One-sided writes don't need RQ buffers.
        assert_eq!(q.classify_rx(1, OpKind::Write, false), RxDecision::Deliver);
    }

    #[test]
    fn active_tracking_for_shadow_qps() {
        let mut q = qp();
        assert!(!q.is_active());
        q.post(send_wr(1)).unwrap();
        assert!(q.is_active());
        q.next_transmit(Nanos(0), 16);
        assert!(q.is_active());
        on_ack(&mut q, 0);
        assert!(!q.is_active());
    }

    #[test]
    fn drain_returns_everything() {
        let mut q = qp();
        for i in 0..4 {
            q.post(send_wr(i)).unwrap();
        }
        q.next_transmit(Nanos(0), 2);
        q.next_transmit(Nanos(0), 2);
        let drained = q.drain();
        assert_eq!(drained.len(), 4);
        // Inflight first (psn order), then queued.
        assert_eq!(drained[0].wr_id, WrId(0));
        assert_eq!(drained[3].wr_id, WrId(3));
        assert_eq!(q.outstanding(), 0);
    }

    #[test]
    fn rnr_pause_stops_transmission() {
        let mut q = qp();
        q.post(send_wr(1)).unwrap();
        q.rnr_paused = true;
        assert!(q.next_transmit(Nanos(0), 16).is_none());
        q.rnr_paused = false;
        assert!(q.next_transmit(Nanos(0), 16).is_some());
    }
}
