//! The baseline data planes of the cluster engine: everything a
//! non-Palladium [`SystemSpec`](crate::system::SystemSpec) does differently
//! between a function's hand-off and the next function's delivery.
//!
//! The testbed, the ingress gateway, the pools, token passing and the local
//! SK_MSG hop are shared with Palladium (the parent module); only the
//! inter-node primitive and the ingress design differ (§4.3):
//!
//! * **SPRIGHT** (`InterNode::KernelTcp`) serializes a remote hop out
//!   through the node's host engine over kernel TCP — a software copy at
//!   each end.
//! * **FUYAO** (`InterNode::OneSidedRecvCopy`) posts a one-sided WRITE into
//!   a dedicated RDMA pool on the destination; the receiver's poller picks
//!   it up and *copies* it into the node's unified pool.
//! * **NightCore** (`InterNode::None`) dispatches through a node-local
//!   gateway whose kernel path livelocks under backlog.
//! * All three take requests in and send responses out over a second TCP
//!   connection between the gateway and the workers (deferred conversion).
//!
//! Every leg here is a node-to-node *local* event, not a mailbox message,
//! so these systems run unsharded (`ClusterShardedSim::run` checks):
//! global node ids index the per-node state directly, and the FUYAO sender
//! reads the destination's slot cursor in place.

use bytes::Bytes;

use palladium_membuf::{
    BufToken, FnId, MmapExporter, MoveKind, NodeId, Owner, PoolId, Region, UnifiedPool,
};
use palladium_rdma::{Cqe, CqeKind, RdmaNet, RemoteAddr, WorkRequest, WrId};
use palladium_simnet::{Effects, FifoServer, Nanos, Slab};
use palladium_tcpstack::{StackKind, TcpCostTable, TcpCosts};

use super::{ClusterShard, ClusterShardedConfig, Ev, BUF_SIZE, INGRESS_FN, REQ_MASK, TENANT};
use crate::connpool::{ConnPool, ConnPoolConfig};
use crate::dne::{pack_imm, unpack_imm};
use crate::ingress::Leg;
use crate::system::{InterNode, SystemKind};

/// Buffers in a FUYAO worker's dedicated RDMA pool.
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
    /// A host-engine work item completed (backlog accounting).
    EngineRelease { n: usize },
}

/// One FUYAO worker's RDMA side.
struct FuyaoNode {
    /// Dedicated pool the partner's one-sided writes land in; every slot
    /// is pre-owned by the receiving engine.
    pool: UnifiedPool,
    slots: Vec<BufToken>,
    /// Round-robin slot cursor, advanced by the *sender*.
    next: u32,
    conns: ConnPool,
    /// TX buffers awaiting write completions (slab-keyed WR ids).
    tx: Slab<BufToken>,
}

/// Per-cluster state of a baseline data plane, indexed by worker node.
pub(super) struct HostPlane {
    /// Worker-side TCP termination (F-stack or kernel, per system). The
    /// tables precompute every payload size a run can charge.
    worker_tcp: TcpCostTable,
    /// SPRIGHT's inter-node legs always ride the kernel stack.
    internode_tcp: TcpCostTable,
    /// The node's generic engine: one FIFO core doing TCP processing,
    /// FUYAO engine ops and copies, NightCore dispatch.
    engines: Vec<FifoServer>,
    /// Work items outstanding per engine (NightCore's livelock input).
    load: Vec<u64>,
    /// Empty unless the system is FUYAO.
    fuyao: Vec<FuyaoNode>,
}

impl HostPlane {
    /// Build the host plane for `cfg`'s system on the (single) fabric
    /// instance `net`.
    pub(super) fn new(cfg: &ClusterShardedConfig, net: &mut RdmaNet) -> HostPlane {
        let workers = 2 * cfg.pairs;
        let worker_stack = match cfg.system {
            SystemKind::Spright | SystemKind::FuyaoF => StackKind::FStack,
            _ => StackKind::Kernel,
        };
        let tcp_sizes = || {
            cfg.app.chains.iter().flat_map(|c| {
                c.hops
                    .iter()
                    .map(|h| h.bytes as u64)
                    .chain([c.req_bytes as u64, c.resp_bytes as u64])
            })
        };
        let mut fuyao = Vec::new();
        if cfg.system.spec().inter_node == InterNode::OneSidedRecvCopy {
            // Dedicated pool ids follow the node pools' (`0..=workers`).
            let pool_id = |n: usize| PoolId((workers + 1 + n) as u16);
            for n in 0..workers {
                let mut pool = UnifiedPool::new(pool_id(n), TENANT, DEDICATED_BUFS, BUF_SIZE);
                let mut exporter =
                    MmapExporter::new(pool_id(n), TENANT, Region::hugepages(pool.backing_len()));
                net.register_mr(NodeId(n as u16), &exporter.export_rdma())
                    .expect("register dedicated MR");
                let slots = (0..DEDICATED_BUFS)
                    .map(|_| pool.alloc(Owner::Engine).expect("dedicated slot"))
                    .collect();
                fuyao.push(FuyaoNode {
                    pool,
                    slots,
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
            worker_tcp: TcpCostTable::new(TcpCosts::for_kind(worker_stack), tcp_sizes()),
            internode_tcp: TcpCostTable::new(TcpCosts::for_kind(StackKind::Kernel), tcp_sizes()),
            engines: (0..workers)
                .map(|_| FifoServer::new())
                .collect(),
            load: vec![0; workers],
            fuyao,
        }
    }

    /// Worker-side data-plane CPU in percent of one core: the host
    /// engines' busy time, plus the core FUYAO pins busy-polling on every
    /// worker.
    pub(super) fn cpu_pct(&self, horizon: Nanos, receiver_polls: bool) -> f64 {
        let mut pct = 0.0;
        for e in &self.engines {
            pct += 100.0 * e.utilization(horizon);
        }
        if receiver_polls {
            pct += 100.0 * self.engines.len() as f64;
        }
        pct
    }
}

impl ClusterShard {
    fn host_mut(&mut self) -> &mut HostPlane {
        self.host.as_mut().expect("baseline data plane")
    }

    /// Charge work on the host engine of worker `n` (with NightCore's
    /// kernel livelock where applicable). The caller must later call
    /// [`ClusterShard::engine_done`].
    fn on_engine(&mut self, n: usize, now: Nanos, base: Nanos) -> Nanos {
        let host = self.host.as_mut().expect("baseline data plane");
        let mut service = base;
        if self.spec.kind == SystemKind::NightCore {
            service += self.cost.kernel_livelock(host.load[n]);
        }
        host.load[n] += 1;
        host.engines[n].submit(now, service)
    }

    fn engine_done(&mut self, n: usize) {
        let load = &mut self.host_mut().load[n];
        *load = load.saturating_sub(1);
    }

    /// Deferred conversion at the ingress: the request rides a second TCP
    /// connection into the cluster; worker-side termination happens at
    /// arrival.
    pub(super) fn ingress_via_tcp(&self, fx: &mut Effects<'_, Ev>, entry_node: usize, hop: Hop) {
        fx.after(
            TcpCosts::INTER_NODE_WIRE,
            Ev::Host(HostEv::TcpWire { n: entry_node, hop }),
        );
    }

    /// Function `hop.from` on worker `n` hands `data` to a function on
    /// another node (or the response to the ingress).
    pub(super) fn remote_hop(
        &mut self,
        now: Nanos,
        fx: &mut Effects<'_, Ev>,
        n: usize,
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
            let send_cpu = self.skmsg.send_cpu;
            let send_done = self.on_fn_core(n, now, send_cpu);
            let tx = self.host_mut().worker_tcp.tx(bytes as u64);
            let done = self.on_engine(n, send_done, tx);
            fx.at(done, Ev::Host(HostEv::EngineRelease { n }));
            self.meters[n].record(MoveKind::Software, bytes as u64);
            fx.at(done, Ev::Host(HostEv::RespTcpTx { req }));
            return;
        }
        let dst_node = self.node_of(to);
        let (send_cpu, transit) = (self.skmsg.send_cpu, self.skmsg.transit);
        match self.spec.inter_node {
            InterNode::TwoSidedRdma => unreachable!("Palladium hops go through the DNE"),
            InterNode::OneSidedRecvCopy => {
                // Local buffer holds the payload until the write completes.
                let Ok(out) = self.pools[n].alloc(Owner::Engine) else {
                    self.counts.shed_pool += 1;
                    return;
                };
                self.pools[n]
                    .produce_bytes(&out, data.clone())
                    .expect("sized buffer");
                let send_done = self.on_fn_core(n, now, send_cpu);
                let engine_op = self.cost.fuyao_engine_op;
                let engine_done = self.on_engine(n, send_done + transit, engine_op);
                fx.at(engine_done, Ev::Host(HostEv::EngineRelease { n }));
                // Pick a dedicated slot on the destination.
                let host = self.host.as_mut().expect("baseline data plane");
                let dst = &mut host.fuyao[dst_node];
                let slot = dst.next % dst.pool.capacity();
                dst.next = dst.next.wrapping_add(1);
                let remote = RemoteAddr {
                    pool: dst.pool.id(),
                    buf_idx: slot,
                };
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
                    .post_send_into(engine_done, NodeId(n as u16), qpn, wr, &mut step)
                    .expect("post one-sided write");
                // The doorbell rings when the engine finishes.
                fx.extend_at_drain(engine_done, &mut step.events, Ev::Rdma);
                self.post_step = step;
            }
            InterNode::KernelTcp => {
                // SPRIGHT: serialize out through the node engine over
                // kernel TCP — a software copy at each end.
                let send_done = self.on_fn_core(n, now, send_cpu);
                let tx = self.host_mut().internode_tcp.tx(bytes as u64);
                let done = self.on_engine(n, send_done + transit, tx);
                fx.at(done, Ev::Host(HostEv::EngineRelease { n }));
                self.meters[n].record(MoveKind::Software, bytes as u64);
                fx.at(
                    done + TcpCosts::INTER_NODE_WIRE,
                    Ev::Host(HostEv::TcpWire { n: dst_node, hop }),
                );
            }
            InterNode::None => {
                // NightCore: hops pass through its node-local gateway
                // over per-function pipes (syscalls both ways).
                let dispatch = Nanos::from_nanos(1_200);
                let done = self.on_engine(n, now, dispatch);
                fx.at(done, Ev::Host(HostEv::EngineRelease { n }));
                let Ok(out) = self.pools[n].alloc(Owner::Engine) else {
                    self.counts.shed_pool += 1;
                    return;
                };
                self.pools[n]
                    .produce_bytes(&out, data)
                    .expect("sized buffer");
                let desc = self.hand_to_fn(n, out, f, to);
                fx.at(done + transit, Ev::Deliver { n, desc });
            }
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
        fx.after(self.skmsg.transit, Ev::Deliver { n, desc });
    }

    pub(super) fn on_host_event(&mut self, now: Nanos, fx: &mut Effects<'_, Ev>, ev: HostEv) {
        match ev {
            HostEv::TcpWire { n, hop } => {
                // Worker-side TCP receive processing on the node engine.
                let rx = self.host_mut().worker_tcp.rx(hop.bytes as u64);
                let done = self.on_engine(n, now, rx);
                fx.at(done, Ev::Host(HostEv::TcpRxDone { n, hop }));
            }
            HostEv::TcpRxDone { n, hop } => {
                self.engine_done(n);
                let data = self.payloads.make(hop.word, hop.bytes);
                self.copy_in_and_deliver(fx, n, hop.from, hop.to, data);
            }
            HostEv::FuyaoPickup { n, imm, data } => {
                // Receiver engine: polling pickup + the OWRC receiver-side
                // copy from the dedicated pool into the local pool.
                let copy = self.cost.fuyao_engine_op + self.cost.owrc_copy(data.len() as u64, true);
                let done = self.on_engine(n, now, copy);
                fx.at(done, Ev::Host(HostEv::FuyaoCopied { n, imm, data }));
            }
            HostEv::FuyaoCopied { n, imm, data } => {
                self.engine_done(n);
                let (from, to, _) = unpack_imm(imm);
                self.copy_in_and_deliver(fx, n, from, to, data);
            }
            HostEv::RespTcpTx { req } => {
                // Response reached the ingress over TCP: outbound leg.
                let ing = self.ingress.as_mut().expect("ingress shard");
                let pair = ing.reqs[req as usize].pair as usize;
                ing.submit(now + TcpCosts::INTER_NODE_WIRE, fx, req, pair, Leg::Outbound);
            }
            HostEv::EngineRelease { n } => self.engine_done(n),
        }
    }

    /// A one-sided write landed in worker `n`'s dedicated slot: the RNIC
    /// DMAs it in, and the receiver's poller notices after half a poll
    /// period.
    pub(super) fn on_write_delivered(
        &mut self,
        fx: &mut Effects<'_, Ev>,
        n: usize,
        slot: u32,
        imm: u64,
        data: Bytes,
    ) {
        let node = &mut self.host.as_mut().expect("baseline data plane").fuyao[n];
        node.pool
            .dma_write_bytes(
                &node.slots[slot as usize],
                data.clone(),
                MoveKind::RnicDma,
                &mut self.meters[n],
            )
            .expect("dma into dedicated slot");
        fx.after(
            self.cost.onesided_poll_interval / 2,
            Ev::Host(HostEv::FuyaoPickup { n, imm, data }),
        );
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
