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
//!   (`CostModel::nightcore_dispatch`, [`ClusterShard::local_dispatch`]).
//! * All three take requests in and send responses out over a second TCP
//!   connection between the gateway and the workers (deferred conversion).
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

use palladium_membuf::{BufToken, FnId, MmapExporter, MoveKind, NodeId, Owner, PoolId, Region};
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
    /// Bytes on the intra-cluster TCP wire reached node `n`'s engine.
    TcpWire { n: usize, hop: Hop },
    /// Engine finished TCP receive processing: materialize the buffer.
    TcpRxDone { n: usize, hop: Hop },
    /// FUYAO receiver's poller noticed a one-sided write.
    FuyaoPickup { n: usize, imm: u64, data: Bytes },
    /// FUYAO receiver engine finished the receiver-side copy.
    FuyaoCopied { n: usize, imm: u64, data: Bytes },
    /// Worker engine finished the TCP transmit of the response leg.
    RespTcpTx { req: u64 },
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

    /// A hop between two functions on worker `n` leaves its sender's core
    /// at `sent`; returns when it enters the SK_MSG channel toward its
    /// receiver. NightCore routes every such hop through its gateway on
    /// the node's host engine (one SK_MSG transit in, then one dispatch);
    /// every other system hands it over at once.
    pub(super) fn local_dispatch(&mut self, n: usize, sent: Nanos) -> Nanos {
        match self.price.dispatch {
            Some(dispatch) => self.on_engine(n, sent + self.price.local_transit, dispatch),
            None => sent,
        }
    }

    /// Deferred conversion at the ingress: the request rides a second TCP
    /// connection into the cluster; worker-side termination happens at
    /// arrival.
    pub(super) fn ingress_via_tcp(&self, fx: &mut Effects<'_, Ev>, entry_node: usize, hop: Hop) {
        fx.after(self.price.tcp_wire, Ev::Host(HostEv::TcpWire { n: entry_node, hop }));
    }

    /// Function `hop.from` on worker `n` hands `data` to a function on
    /// another node down `path` (or the response to the ingress).
    pub(super) fn remote_hop(
        &mut self,
        now: Nanos,
        fx: &mut Effects<'_, Ev>,
        n: usize,
        path: HostHop,
        hop: Hop,
        data: Bytes,
    ) {
        let Hop {
            from: f, to, bytes, ..
        } = hop;
        if to == INGRESS_FN {
            // Response leg: worker-side TCP transmit through the node
            // engine, then the wire to the gateway.
            let req = hop.word & REQ_MASK;
            let send_done = self.on_fn_core(n, now, self.price.engine_send);
            let done = self.on_engine(n, send_done, self.price.tcp_tx(bytes));
            self.meters[n].record(MoveKind::Software, bytes as u64);
            fx.at(done, Ev::Host(HostEv::RespTcpTx { req }));
            return;
        }
        let dst_node = self.node_of(to);
        let (send_cpu, transit) = (self.price.engine_send, self.price.engine_transit);
        match path {
            HostHop::OneSidedRecvCopy => {
                // Local buffer holds the payload until the write completes.
                let Ok(out) = self.pools[n].alloc(Owner::Engine) else {
                    self.counts.shed_pool += 1;
                    return;
                };
                self.pools[n]
                    .produce_bytes(&out, data.clone())
                    .expect("sized buffer");
                let send_done = self.on_fn_core(n, now, send_cpu);
                let op_done = self.on_engine(n, send_done + transit, self.price.fuyao_op);
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
                    .post_send_into(op_done, NodeId(n as u16), qpn, wr, &mut step)
                    .expect("post one-sided write");
                // The doorbell rings when the engine finishes.
                fx.extend_at_drain(op_done, &mut step.events, Ev::Rdma);
                self.post_step = step;
            }
            HostHop::KernelTcp => {
                // SPRIGHT: serialize out through the node engine over
                // kernel TCP — a software copy at each end.
                let send_done = self.on_fn_core(n, now, send_cpu);
                let done = self.on_engine(n, send_done + transit, self.price.internode_tx(bytes));
                self.meters[n].record(MoveKind::Software, bytes as u64);
                fx.at(done + self.price.tcp_wire, Ev::Host(HostEv::TcpWire { n: dst_node, hop }));
            }
            // `validate` holds a node-local plane's functions on one node,
            // so its every hop between functions is a local SK_MSG hop
            // (dispatched in `local_dispatch`).
            HostHop::Local => unreachable!("a node-local plane has no remote hop"),
        }
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
            HostEv::RespTcpTx { req } => {
                // Response reached the ingress over TCP: outbound leg.
                let wire = self.price.tcp_wire;
                let ing = self.ingress.as_mut().expect("ingress shard");
                let (_, pair) = ing.reqs.placement(req);
                ing.submit(now + wire, fx, req, pair, Leg::Outbound);
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
