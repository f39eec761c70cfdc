//! The baseline data planes of the cluster engine: everything a
//! [`DataPlane::Host`] does differently between a function's hand-off and
//! the next function's delivery.
//!
//! The testbed, the ingress gateway, the pools, token passing and the local
//! SK_MSG hop are shared with Palladium (the parent module); only the
//! inter-node primitive and the ingress design differ (§4.3):
//!
//! * **SPRIGHT** ([`HostHop::KernelTcp`]) serializes a remote hop out
//!   through the node's host engine over kernel TCP — a software copy at
//!   each end.
//! * **FUYAO** ([`HostHop::OneSidedRecvCopy`]) posts a one-sided WRITE into
//!   one round-robin slot of a dedicated region on the destination, a
//!   registered MR; the receiver's poller picks it up and *copies* it into
//!   the node's unified pool. The payload rides the pickup event to the
//!   copy it is charged for, so the region itself holds no bytes.
//! * **NightCore** ([`HostHop::Local`]) runs every function of a pair on
//!   the pair's first node, so each hop between functions is a local
//!   SK_MSG hop; its host engine terminates the gateway's TCP legs and
//!   dispatches every hop between functions
//!   (`CostModel::nightcore_dispatch`, [`HostEv::Dispatch`]).
//! * All three take requests in and send responses out over a second TCP
//!   connection between the gateway and the workers (deferred conversion).
//!
//! A function hands a hop to its node's host engine as it hands one to a
//! DNE: the hop reaches the engine one SK_MSG transit after its send
//! ([`HostEv::EngineRx`]), which books the engine then. A FUYAO write
//! enters its QP when the engine op that builds it completes.
//!
//! Every arm charges from the system's [`Prices`](crate::price::Prices):
//! which stack a leg rides and what an engine op or copy costs were
//! decided there, once, so the arms here only choose *where* a charge
//! lands, never what it is.
//!
//! Every leg here is a node-to-node *local* event, not a mailbox message,
//! so these systems run unsharded (`ClusterShardedSim::run` checks):
//! global node ids index the per-node state directly, and the FUYAO sender
//! reads the destination's slot cursor in place.

use bytes::Bytes;

use palladium_membuf::{BufDesc, BufToken, FnId, MmapExporter, MoveKind, NodeId, Owner, PoolId, Region};
use palladium_rdma::{Cqe, CqeKind, RdmaNet, RemoteAddr, WorkRequest, WrId};
use palladium_simnet::{Effects, FifoServer, Nanos, Slab};

use super::{ClusterShard, ClusterShardedConfig, Ev, BUF_SIZE, INGRESS_FN, REQ_MASK, TENANT};
use crate::connpool::{ConnPool, ConnPoolConfig};
use crate::dne::{pack_imm, unpack_imm};
use crate::ingress::Leg;
use crate::system::{DataPlane, HostHop};

/// Slots in a FUYAO worker's dedicated RDMA region.
const DEDICATED_BUFS: u32 = 1024;

/// One data exchange on its way to `to`: what a TCP leg must carry to
/// rebuild the payload at the far end (`word` is the payload prefix — see
/// the parent module on request-state distribution).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Hop {
    pub(super) from: FnId,
    pub(super) to: FnId,
    pub(super) word: u64,
    pub(super) bytes: u32,
}

/// The baselines' share of the event alphabet.
#[derive(Debug)]
pub(crate) enum HostEv {
    /// A function's hop to another node, or its response, reached node
    /// `n`'s host engine.
    EngineRx { n: usize, hop: Hop },
    /// A hop between two functions of node `n` reached its host engine's
    /// dispatch (NightCore).
    Dispatch { n: usize, desc: BufDesc },
    /// Node `n`'s engine finished the op that builds a FUYAO write: post it.
    FuyaoPost { n: usize, hop: Hop },
    /// Bytes on the intra-cluster TCP wire reached node `n`'s engine.
    TcpWire { n: usize, hop: Hop },
    /// Engine finished TCP receive processing: materialize the buffer.
    TcpRxDone { n: usize, hop: Hop },
    /// FUYAO receiver's poller noticed a one-sided write.
    FuyaoPickup { n: usize, imm: u64, data: Bytes },
    /// FUYAO receiver engine finished the receiver-side copy.
    FuyaoCopied { n: usize, imm: u64, data: Bytes },
}

/// One FUYAO worker's RDMA side.
struct FuyaoNode {
    /// The dedicated region the partner's one-sided writes land in, a
    /// registered MR of [`DEDICATED_BUFS`] slots. A write names a slot;
    /// its payload rides the pickup event, not the region.
    region: PoolId,
    /// Round-robin slot cursor, advanced by the *sender*.
    next: u32,
    conns: ConnPool,
    /// TX buffers awaiting write completions (slab-keyed WR ids).
    tx: Slab<BufToken>,
}

/// Per-cluster state of a baseline data plane, indexed by worker node.
pub(super) struct HostPlane {
    /// The node's generic engine: one FIFO core doing TCP processing and
    /// FUYAO engine ops and copies.
    pub(super) engines: Vec<FifoServer>,
    /// Empty unless the system is FUYAO.
    fuyao: Vec<FuyaoNode>,
}

impl HostPlane {
    /// Build the host plane for `cfg`'s system on the (single) fabric
    /// instance `net`.
    pub(super) fn new(cfg: &ClusterShardedConfig, net: &mut RdmaNet) -> HostPlane {
        let workers = 2 * cfg.pairs;
        let spec = cfg.system.spec();
        let mut fuyao = Vec::new();
        if spec.plane == DataPlane::Host(HostHop::OneSidedRecvCopy) {
            // Dedicated region ids follow the node pools' (`0..=workers`).
            let pool_id = |n: usize| PoolId((workers + 1 + n) as u16);
            let len = u64::from(DEDICATED_BUFS) * u64::from(BUF_SIZE);
            for n in 0..workers {
                let mut exporter = MmapExporter::new(pool_id(n), TENANT, Region::hugepages(len));
                net.register_mr(NodeId(n as u16), &exporter.export_rdma())
                    .expect("register dedicated MR");
                fuyao.push(FuyaoNode {
                    region: pool_id(n),
                    next: 0,
                    conns: ConnPool::new(NodeId(n as u16), ConnPoolConfig::default()),
                    tx: Slab::new(),
                });
            }
            // Each worker writes to its pair partner only.
            for (n, node) in fuyao.iter_mut().enumerate() {
                node.conns.warm_up(net, NodeId((n ^ 1) as u16), TENANT);
            }
        }
        HostPlane {
            engines: (0..workers)
                .map(|_| FifoServer::new())
                .collect(),
            fuyao,
        }
    }

    /// Worker-side data-plane CPU in percent of one core: the host
    /// engines' busy time, plus the core FUYAO pins busy-polling on every
    /// worker.
    pub(super) fn cpu_pct(&self, horizon: Nanos) -> f64 {
        let mut pct = 0.0;
        for e in &self.engines {
            pct += 100.0 * e.utilization(horizon);
        }
        if !self.fuyao.is_empty() {
            pct += 100.0 * self.engines.len() as f64;
        }
        pct
    }
}

impl ClusterShard {
    fn host_mut(&mut self) -> &mut HostPlane {
        self.host.as_mut().expect("baseline data plane")
    }

    /// Charge `service` on the host engine of worker `n` from `now`;
    /// returns when it finishes.
    fn on_engine(&mut self, n: usize, now: Nanos, service: Nanos) -> Nanos {
        self.host_mut().engines[n].submit(now, service)
    }

    /// Deferred conversion at the ingress: the request rides a second TCP
    /// connection into the cluster; worker-side termination happens at
    /// arrival.
    pub(super) fn ingress_via_tcp(&self, fx: &mut Effects<'_, Ev>, entry_node: usize, hop: Hop) {
        fx.after(self.price.tcp_wire, Ev::Host(HostEv::TcpWire { n: entry_node, hop }));
    }

    /// Hop `hop` reached worker `n`'s host engine at `now`: send it down
    /// the plane's path, or the response to the gateway over TCP.
    fn on_engine_rx(&mut self, now: Nanos, fx: &mut Effects<'_, Ev>, n: usize, hop: Hop) {
        let bytes = hop.bytes;
        if hop.to == INGRESS_FN {
            let done = self.on_engine(n, now, self.price.tcp_tx(bytes));
            self.meters[n].record(MoveKind::Software, u64::from(bytes));
            let req = hop.word & REQ_MASK;
            return fx.at(done + self.price.tcp_wire, Ev::GwArrive { req, leg: Leg::Outbound });
        }
        match self.spec.plane {
            DataPlane::Host(HostHop::OneSidedRecvCopy) => {
                let done = self.on_engine(n, now, self.price.fuyao_op);
                fx.at(done, Ev::Host(HostEv::FuyaoPost { n, hop }));
            }
            DataPlane::Host(HostHop::KernelTcp) => {
                // SPRIGHT: serialize out over kernel TCP — a software copy
                // at each end.
                let done = self.on_engine(n, now, self.price.internode_tx(bytes));
                self.meters[n].record(MoveKind::Software, u64::from(bytes));
                let dst = self.node_of(hop.to);
                fx.at(done + self.price.tcp_wire, Ev::Host(HostEv::TcpWire { n: dst, hop }));
            }
            // `validate` holds a node-local plane's functions on one node,
            // so its every hop between functions is a local SK_MSG hop.
            _ => unreachable!("only the response leaves a node-local plane's node"),
        }
    }

    /// Worker `n`'s engine built FUYAO's one-sided write of `hop` at `now`:
    /// the write enters a pooled QP to the destination's dedicated region.
    fn post_write(&mut self, now: Nanos, fx: &mut Effects<'_, Ev>, n: usize, hop: Hop) {
        let Hop { from: f, to, .. } = hop;
        let dst_node = self.node_of(to);
        let data = self.payloads.make(hop.word, hop.bytes);
        // Local buffer holds the payload until the write completes.
        let Ok(out) = self.pools[n].alloc(Owner::Engine) else {
            self.counts.shed_pool += 1;
            return;
        };
        self.pools[n]
            .produce_bytes(&out, data.clone())
            .expect("sized buffer");
        // Pick a dedicated slot on the destination.
        let host = self.host.as_mut().expect("baseline data plane");
        let dst = &mut host.fuyao[dst_node];
        let remote = RemoteAddr {
            pool: dst.region,
            buf_idx: dst.next % DEDICATED_BUFS,
        };
        dst.next = dst.next.wrapping_add(1);
        let src = &mut host.fuyao[n];
        let wr_id = WrId(src.tx.insert(out));
        self.meters[n].record(MoveKind::RnicDma, data.len() as u64);
        let wr = WorkRequest::write(wr_id, data, remote, pack_imm(f, to, TENANT));
        let Some(qpn) = src.conns.select(&self.net, NodeId(dst_node as u16), TENANT) else {
            self.counts.shed_qp += 1;
            return;
        };
        let mut step = std::mem::take(&mut self.post_step);
        step.clear();
        self.net
            .post_send_into(now, NodeId(n as u16), qpn, wr, &mut step)
            .expect("post one-sided write");
        fx.extend_drain(&mut step.events, Ev::Rdma);
        self.post_step = step;
    }

    /// The engine on `n` received `data` for function `to`: copy it into the
    /// node's unified pool (the receive-side software copy every baseline
    /// pays) and deliver the descriptor over SK_MSG.
    fn copy_in_and_deliver(
        &mut self,
        fx: &mut Effects<'_, Ev>,
        n: usize,
        from: FnId,
        to: FnId,
        data: Bytes,
    ) {
        let Ok(token) = self.pools[n].alloc(Owner::Engine) else {
            self.counts.shed_pool += 1;
            return;
        };
        self.pools[n]
            .write_bytes(&token, data, &mut self.meters[n])
            .expect("sized buffer");
        let desc = self.hand_to_fn(n, token, from, to);
        fx.after(self.price.engine_transit, Ev::Deliver { n, desc });
    }

    pub(super) fn on_host_event(&mut self, now: Nanos, fx: &mut Effects<'_, Ev>, ev: HostEv) {
        match ev {
            HostEv::EngineRx { n, hop } => self.on_engine_rx(now, fx, n, hop),
            HostEv::Dispatch { n, desc } => {
                let dispatch = self.price.dispatch.expect("a dispatching plane");
                let done = self.on_engine(n, now, dispatch);
                fx.at(done + self.price.local_transit, Ev::Deliver { n, desc });
            }
            HostEv::FuyaoPost { n, hop } => self.post_write(now, fx, n, hop),
            HostEv::TcpWire { n, hop } => {
                // Worker-side TCP receive processing on the node engine.
                let done = self.on_engine(n, now, self.price.tcp_rx(hop.bytes));
                fx.at(done, Ev::Host(HostEv::TcpRxDone { n, hop }));
            }
            HostEv::TcpRxDone { n, hop } => {
                let data = self.payloads.make(hop.word, hop.bytes);
                self.copy_in_and_deliver(fx, n, hop.from, hop.to, data);
            }
            HostEv::FuyaoPickup { n, imm, data } => {
                // Receiver engine: polling pickup + the OWRC receiver-side
                // copy of the write's slot into the local pool.
                let done = self.on_engine(n, now, self.price.pickup(data.len() as u64));
                fx.at(done, Ev::Host(HostEv::FuyaoCopied { n, imm, data }));
            }
            HostEv::FuyaoCopied { n, imm, data } => {
                let (from, to, _) = unpack_imm(imm);
                self.copy_in_and_deliver(fx, n, from, to, data);
            }
        }
    }

    /// A one-sided write landed in a slot of worker `n`'s dedicated region:
    /// the RNIC DMAs it in, and the receiver's poller notices after half a
    /// poll period.
    pub(super) fn on_write_delivered(
        &mut self,
        fx: &mut Effects<'_, Ev>,
        n: usize,
        imm: u64,
        data: Bytes,
    ) {
        self.meters[n].record(MoveKind::RnicDma, data.len() as u64);
        fx.after(self.price.poll_wait, Ev::Host(HostEv::FuyaoPickup { n, imm, data }));
    }

    /// Worker `n`'s CQ on a baseline: only FUYAO completes there — free
    /// the sender-side buffer once its write is acknowledged.
    pub(super) fn on_host_cqes(&mut self, n: usize, cqes: &mut Vec<Cqe>) {
        for cqe in cqes.drain(..) {
            if let CqeKind::SendDone(_) = cqe.kind {
                if let Some(token) = self.host_mut().fuyao[n].tx.remove(cqe.wr_id.0) {
                    let _ = self.pools[n].free(token);
                }
            }
        }
    }
}
