//! The RNIC device model: QP table, per-tenant shared receive queues, the
//! shared completion queue, registered memory and the TX/RX engines.
//!
//! Palladium-relevant modelling choices (§3.3, §3.5.2):
//! * **One shared RQ per tenant.** All of a tenant's RC QPs consume receive
//!   buffers from a single queue posted exclusively from that tenant's
//!   private pool — the RNIC therefore always lands data in the right pool.
//! * **One shared CQ per node.** Completions from every QP funnel into one
//!   queue the DNE drains in its run-to-completion loop, guarded by an
//!   event-channel-style doorbell: one notification per burst, re-armed
//!   by the drain, which always takes the whole backlog (§3.2's batched
//!   completion retirement). The drain is the CQ's only consumer.
//! * **QP context cache.** Only a bounded number of *active* QPs fit on-die;
//!   beyond that every operation pays a thrash penalty — the reason the DNE
//!   caps active QPs via shadow-QP management.

use std::collections::VecDeque;

use palladium_membuf::{MmapExport, NodeId, PoolId, TenantId};
use palladium_simnet::{FifoServer, IdTable, Nanos};

use crate::config::RdmaConfig;
use crate::mr::{MrError, MrKey, MrTable};
use crate::qp::RcQp;
use crate::verbs::{Cqe, Qpn, WrId};

/// A posted receive buffer: the RNIC only needs the id (the DNE's RBR table
/// maps it back to the actual buffer token) and its capacity.
#[derive(Clone, Copy, Debug)]
pub struct RqEntry {
    /// Poster-chosen id, echoed in the receive completion.
    pub wr_id: WrId,
    /// Pool the buffer belongs to (must be MR-registered).
    pub pool: PoolId,
    /// Buffer capacity in bytes.
    pub capacity: u32,
}

/// Errors from RNIC operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RnicError {
    /// Unknown QP number.
    NoSuchQp,
    /// Posting a receive buffer from an unregistered pool.
    UnregisteredPool,
    /// Memory registration failed.
    Mr(MrError),
}

/// One node's RNIC.
#[derive(Debug)]
pub struct Rnic {
    node: NodeId,
    /// QP table, indexed densely by `qpn - 1` (QPNs are allocated
    /// sequentially from 1 and never destroyed — `Qpn(0)` is the
    /// "unpaired" placeholder and always misses).
    qps: Vec<RcQp>,
    /// Shared receive queue per tenant (§3.3), indexed by the dense
    /// tenant id.
    rqs: IdTable<VecDeque<RqEntry>>,
    /// Shared completion queue (single per node).
    cq: VecDeque<Cqe>,
    /// CQ event-channel doorbell: armed ⇔ the next pushed CQE should
    /// raise a `CqReady` notification. Disarmed by that push, re-armed
    /// by [`Rnic::drain_cq_into`] — so a burst of completions costs one
    /// notification per node per wakeup instead of one per push-site,
    /// exactly like a verbs completion channel.
    cq_armed: bool,
    mrs: MrTable,
    /// Egress port: serializes outbound frames at line rate.
    pub egress: FifoServer,
    /// RX engine: per-frame receive processing + DMA.
    pub rx_engine: FifoServer,
}

impl Rnic {
    /// A fresh RNIC for `node`.
    pub fn new(node: NodeId) -> Self {
        Rnic {
            node,
            qps: Vec::new(),
            rqs: IdTable::new(),
            cq: VecDeque::new(),
            cq_armed: true,
            mrs: MrTable::new(),
            egress: FifoServer::new(),
            rx_engine: FifoServer::new(),
        }
    }

    /// Node this RNIC belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Register a memory region from a DOCA mmap export.
    pub fn register_mr(&mut self, export: &MmapExport) -> Result<MrKey, RnicError> {
        self.mrs.register(export).map_err(RnicError::Mr)
    }

    /// Registered-memory table (read access for checks).
    pub fn mrs(&self) -> &MrTable {
        &self.mrs
    }

    /// Create a QP half; the peer fields are fixed at creation (RC is
    /// point-to-point).
    pub fn create_qp(&mut self, tenant: TenantId, peer_node: NodeId, peer_qpn: Qpn) -> Qpn {
        let qpn = Qpn(self.qps.len() as u32 + 1);
        self.qps.push(RcQp::new(qpn, tenant, peer_node, peer_qpn));
        qpn
    }

    #[inline]
    fn qp_index(qpn: Qpn) -> Result<usize, RnicError> {
        (qpn.0 as usize).checked_sub(1).ok_or(RnicError::NoSuchQp)
    }

    /// Fix up the peer QPN after both halves exist (pair creation helper).
    pub fn set_peer(&mut self, qpn: Qpn, peer_qpn: Qpn) {
        if let Ok(qp) = self.qp_mut(qpn) {
            qp.peer_qpn = peer_qpn;
        }
    }

    /// Borrow a QP.
    #[inline]
    pub fn qp(&self, qpn: Qpn) -> Result<&RcQp, RnicError> {
        self.qps
            .get(Self::qp_index(qpn)?)
            .ok_or(RnicError::NoSuchQp)
    }

    /// Mutably borrow a QP.
    #[inline]
    pub fn qp_mut(&mut self, qpn: Qpn) -> Result<&mut RcQp, RnicError> {
        self.qps
            .get_mut(Self::qp_index(qpn)?)
            .ok_or(RnicError::NoSuchQp)
    }

    /// Post a receive buffer to the tenant's shared RQ. The pool must be
    /// registered — this is where "the RNIC delivers incoming data into the
    /// correct pool" is enforced.
    pub fn post_recv(&mut self, tenant: TenantId, entry: RqEntry) -> Result<(), RnicError> {
        if !self.mrs.covers(entry.pool) {
            return Err(RnicError::UnregisteredPool);
        }
        self.rqs
            .get_or_insert_with(tenant.raw() as usize, VecDeque::new)
            .push_back(entry);
        Ok(())
    }

    /// Depth of a tenant's shared RQ.
    pub fn rq_depth(&self, tenant: TenantId) -> usize {
        self.rqs
            .get(tenant.raw() as usize)
            .map(|q| q.len())
            .unwrap_or(0)
    }

    /// Consume the head receive buffer for `tenant`.
    pub fn take_rq(&mut self, tenant: TenantId) -> Option<RqEntry> {
        self.rqs
            .get_mut(tenant.raw() as usize)
            .and_then(|q| q.pop_front())
    }

    /// Peek whether a receive buffer is available for `tenant`.
    pub fn rq_available(&self, tenant: TenantId) -> bool {
        self.rq_depth(tenant) > 0
    }

    /// Push a completion onto the shared CQ. Returns `true` when the
    /// doorbell was armed — the caller must then surface one `CqReady`
    /// notification (and the doorbell disarms until the CQ drains).
    #[must_use = "an armed push must surface a CqReady notification"]
    pub fn push_cqe(&mut self, cqe: Cqe) -> bool {
        self.cq.push_back(cqe);
        std::mem::take(&mut self.cq_armed)
    }

    /// Drain the *entire* CQ backlog into `out` (appending) and re-arm
    /// the doorbell: one `CqReady` wakeup surfaces everything the CQ
    /// accumulated.
    pub fn drain_cq_into(&mut self, out: &mut Vec<Cqe>) {
        out.extend(self.cq.drain(..));
        self.cq_armed = true;
    }

    /// Number of QPs in the shadow-QP "active" state (holding work).
    pub fn active_qps(&self) -> u32 {
        self.qps.iter().filter(|q| q.is_active()).count() as u32
    }

    /// Per-operation penalty from QP-context-cache and MTT-cache pressure.
    /// Called per data frame: the active-QP walk only runs on a node
    /// holding more QPs than the cache, the only place it can bite.
    pub fn cache_penalty(&self, cfg: &RdmaConfig) -> Nanos {
        let mut p = Nanos::ZERO;
        if self.qps.len() > cfg.qp_cache_capacity as usize
            && self.active_qps() > cfg.qp_cache_capacity
        {
            p += cfg.qp_cache_miss_penalty;
        }
        if self.mrs.total_mtt_entries() > cfg.mtt_cache_entries {
            p += cfg.mtt_miss_penalty;
        }
        p
    }

    /// All QPNs (diagnostics; ascending by construction).
    pub fn qpns(&self) -> Vec<Qpn> {
        self.qps.iter().map(|q| q.qpn).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use palladium_membuf::{MmapExporter, Region};

    fn registered_rnic() -> Rnic {
        let mut r = Rnic::new(NodeId(0));
        let mut e = MmapExporter::new(PoolId(1), TenantId(1), Region::hugepages(4 << 20));
        r.register_mr(&e.export_rdma()).unwrap();
        r
    }

    #[test]
    fn post_recv_requires_registration() {
        let mut r = Rnic::new(NodeId(0));
        let entry = RqEntry {
            wr_id: WrId(1),
            pool: PoolId(1),
            capacity: 4096,
        };
        assert_eq!(
            r.post_recv(TenantId(1), entry),
            Err(RnicError::UnregisteredPool)
        );
        let mut r = registered_rnic();
        assert!(r.post_recv(TenantId(1), entry).is_ok());
        assert_eq!(r.rq_depth(TenantId(1)), 1);
    }

    #[test]
    fn shared_rq_is_per_tenant_fifo() {
        let mut r = registered_rnic();
        for i in 0..3 {
            r.post_recv(
                TenantId(1),
                RqEntry {
                    wr_id: WrId(i),
                    pool: PoolId(1),
                    capacity: 64,
                },
            )
            .unwrap();
        }
        assert!(r.rq_available(TenantId(1)));
        assert!(!r.rq_available(TenantId(2)));
        assert_eq!(r.take_rq(TenantId(1)).unwrap().wr_id, WrId(0));
        assert_eq!(r.take_rq(TenantId(1)).unwrap().wr_id, WrId(1));
        assert_eq!(r.rq_depth(TenantId(1)), 1);
    }

    #[test]
    fn qp_creation_and_peering() {
        let mut a = Rnic::new(NodeId(0));
        let mut b = Rnic::new(NodeId(1));
        let qa = a.create_qp(TenantId(1), NodeId(1), Qpn(0));
        let qb = b.create_qp(TenantId(1), NodeId(0), qa);
        a.set_peer(qa, qb);
        assert_eq!(a.qp(qa).unwrap().peer_qpn, qb);
        assert_eq!(b.qp(qb).unwrap().peer_node, NodeId(0));
        assert!(a.qp(Qpn(99)).is_err());
    }

    fn cqe(i: u64) -> Cqe {
        Cqe {
            wr_id: WrId(i),
            kind: crate::verbs::CqeKind::Recv,
            status: crate::verbs::CqeStatus::Success,
            qpn: Qpn(1),
            tenant: TenantId(1),
            peer: NodeId(1),
            data: bytes::Bytes::new(),
            imm: 0,
        }
    }

    #[test]
    fn shared_cq_drains_in_order() {
        let mut r = registered_rnic();
        for i in 0..5u64 {
            let _ = r.push_cqe(cqe(i));
        }
        let mut out = Vec::new();
        r.drain_cq_into(&mut out);
        let ids: Vec<WrId> = out.iter().map(|c| c.wr_id).collect();
        assert_eq!(ids, (0..5).map(WrId).collect::<Vec<_>>());
        // The drain took everything: a second one appends nothing.
        r.drain_cq_into(&mut out);
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn cq_doorbell_coalesces_notifications() {
        let mut r = registered_rnic();
        // First push of a burst notifies; the rest of the burst does not.
        assert!(r.push_cqe(cqe(0)), "armed doorbell fires");
        assert!(!r.push_cqe(cqe(1)), "disarmed until drained");
        assert!(!r.push_cqe(cqe(2)));
        // The drain takes the whole burst and re-arms.
        let mut out = Vec::new();
        r.drain_cq_into(&mut out);
        assert_eq!(out.len(), 3);
        assert!(r.push_cqe(cqe(3)), "drained CQ re-armed the doorbell");
        assert!(!r.push_cqe(cqe(4)), "the next burst coalesces again");
    }

    #[test]
    fn cache_penalty_kicks_in_over_capacity() {
        let mut r = registered_rnic();
        let cfg = RdmaConfig {
            qp_cache_capacity: 1,
            ..Default::default()
        };
        let q1 = r.create_qp(TenantId(1), NodeId(1), Qpn(1));
        let q2 = r.create_qp(TenantId(1), NodeId(1), Qpn(2));
        assert_eq!(r.cache_penalty(&cfg), Nanos::ZERO);
        // Activate both QPs.
        for q in [q1, q2] {
            let qp = r.qp_mut(q).unwrap();
            qp.set_ready();
            qp.post(crate::verbs::WorkRequest::send(
                WrId(1),
                bytes::Bytes::from_static(b"x"),
                0,
            ))
            .unwrap();
        }
        assert_eq!(r.active_qps(), 2);
        assert_eq!(r.cache_penalty(&cfg), cfg.qp_cache_miss_penalty);
        // Every QP active, but no more of them than the cache holds.
        let roomy = RdmaConfig { qp_cache_capacity: 2, ..cfg };
        assert_eq!(r.cache_penalty(&roomy), Nanos::ZERO);
    }

    #[test]
    fn mtt_pressure_charges_penalty() {
        let mut r = Rnic::new(NodeId(0));
        // Register a 4 KB-page region big enough to blow the MTT cache.
        let mut e = MmapExporter::new(
            PoolId(1),
            TenantId(1),
            Region::small_pages(512 * 1024 * 1024), // 128K entries
        );
        r.register_mr(&e.export_rdma()).unwrap();
        let cfg = RdmaConfig::default();
        assert!(r.mrs().total_mtt_entries() > cfg.mtt_cache_entries);
        assert_eq!(r.cache_penalty(&cfg), cfg.mtt_miss_penalty);
    }
}
