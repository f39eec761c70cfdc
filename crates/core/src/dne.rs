//! The DPU Network Engine (DNE) — Palladium's core contribution (§3.2).
//!
//! The DNE is a lightweight reverse proxy running on the DPU's ARM cores
//! with exclusive access to the node's RDMA QPs. It consists of:
//!
//! * a **core thread** (one DPU core): imports host pools via DOCA mmap,
//!   registers memory with the RNIC, accepts Comch connections and — during
//!   operation — monitors per-tenant CQE counters to keep the shared
//!   receive queues replenished (§3.5.2);
//! * a **worker thread** (another DPU core): a non-blocking,
//!   run-to-completion event loop. The TX stage dequeues descriptors from
//!   the per-tenant DWRR scheduler, resolves the destination node,
//!   picks the least-congested RC connection and posts the WR. The RX stage
//!   polls CQEs, resolves receive buffers through the RBR table and
//!   forwards descriptors to destination functions over Comch.
//!
//! This is exactly the "two wimpy DPU cores" the paper's efficiency result
//! counts (§4.3.1). The same engine, instantiated with
//! [`EngineLocation::Cpu`], is the CNE ablation: host-speed service times
//! plus a fixed per-message SK_MSG interrupt. The engine does not work out
//! what an op costs: it is handed its three op prices (RX, TX, replenish)
//! at its location, resolved once in [`crate::price`], and charges only
//! those.
//!
//! Like every substrate here, the engine is a passive state machine: the
//! driver feeds it descriptors/CQEs and trampolines the returned timed
//! effects.

use std::collections::VecDeque;

use bytes::Bytes;

use palladium_membuf::{BufDesc, BufToken, FnId, NodeId, TenantId};
use palladium_rdma::{Cqe, CqeKind, Qpn, WorkRequest, WrId};
use palladium_simnet::{FifoServer, Nanos, Slab, Timed};

use crate::config::{CostModel, EngineLocation};
use crate::connpool::ConnPool;
use crate::dwrr::{SchedPolicy, TenantScheduler};
use crate::price::DneOps;
use crate::rbr::RbrTable;
use crate::routing::RouteTables;

/// Pack descriptor metadata into the RDMA immediate word: the receiver-side
/// engine needs (src_fn, dst_fn, tenant) to route without touching payload.
pub fn pack_imm(src: FnId, dst: FnId, tenant: TenantId) -> u64 {
    ((src.0 as u64) << 32) | ((dst.0 as u64) << 16) | tenant.0 as u64
}

/// Unpack the immediate word.
pub fn unpack_imm(imm: u64) -> (FnId, FnId, TenantId) {
    (
        FnId((imm >> 32) as u16),
        FnId((imm >> 16) as u16),
        TenantId(imm as u16),
    )
}

/// An item queued in the engine's TX scheduler.
#[derive(Debug)]
struct TxItem {
    desc: BufDesc,
    /// Destination node (resolved at enqueue from the inter-node table).
    dst_node: NodeId,
    /// Payload snapshot the RNIC will transmit.
    payload: Bytes,
    /// The sender-side buffer, released when the send completes.
    token: Option<BufToken>,
}

/// Externally visible effects of engine processing.
#[derive(Debug)]
pub enum DneEffect {
    /// Post a send WR toward `dst_node` (driver resolves the QP through
    /// [`Dne::select_conn`] and forwards to `RdmaNet`).
    PostSend {
        /// Destination node.
        dst_node: NodeId,
        /// Tenant the transfer belongs to.
        tenant: TenantId,
        /// The work request, by value: driver event queues keep payloads
        /// in a slot vector beside the heap (`palladium_simnet::queue`),
        /// so a wide effect variant needs no box to keep entries small.
        wr: WorkRequest,
    },
    /// Deliver a descriptor to a local function over Comch (driver charges
    /// channel costs and wakes the function).
    DeliverToFn {
        /// The descriptor (references a buffer in the tenant pool); its
        /// `dst_fn` is the destination function.
        desc: BufDesc,
    },
    /// Apply received bytes into the posted buffer (RNIC DMA; driver calls
    /// `pool.dma_write` and then hands the token to the function runtime).
    ApplyDma {
        /// Tenant pool owning the buffer.
        tenant: TenantId,
        /// The receive buffer token from the RBR.
        token: BufToken,
        /// The DMA'd bytes.
        data: Bytes,
    },
    /// A transmitted buffer completed; return it to its pool.
    ReleaseTxBuffer {
        /// The sender-side buffer token.
        token: BufToken,
    },
    /// The core thread should replenish `n` receive buffers for `tenant`
    /// (alloc from pool, register in RBR, post to the RNIC RQ).
    Replenish {
        /// Tenant whose shared RQ drained.
        tenant: TenantId,
        /// Buffers to post.
        n: u64,
    },
    /// The engine core freed up; the driver must call
    /// [`Dne::on_engine_slot_into`] at this time.
    EngineSlot,
    /// TX submitted for an unroutable destination (dropped; counted).
    RouteMiss {
        /// The unroutable function.
        dst: FnId,
    },
}

/// One network engine instance (DNE on the DPU or CNE on the host).
pub struct Dne {
    /// What each op costs where the engine runs.
    ops: DneOps,
    /// Worker-thread core (the run-to-completion loop).
    pub worker_core: FifoServer,
    /// Core thread (mmap/Comch management + RQ replenishment).
    pub core_thread: FifoServer,
    sched: TenantScheduler<TxItem>,
    /// Receive-side CQE work awaiting the engine.
    rx_queue: VecDeque<Cqe>,
    /// RBR: posted receive buffers.
    pub rbr: RbrTable,
    /// RC connection pool.
    pub pool: ConnPool,
    /// Routing tables (synced by the coordinator).
    pub routes: RouteTables,
    /// In-flight TX sends awaiting completions. WR ids are the
    /// generation-checked slab keys, so allocation and the per-completion
    /// resolution are both O(1) index operations and a stale id from a
    /// recycled slot can never release someone else's buffer.
    tx_inflight: Slab<Option<BufToken>>,
    engine_busy: bool,
    /// Statistics.
    pub tx_count: u64,
    /// Receive-side descriptor deliveries.
    pub rx_count: u64,
    /// Route misses.
    pub route_misses: u64,
}

/// The result of poking the engine.
pub type DneStep = Vec<Timed<DneEffect>>;

impl Dne {
    /// An engine at `loc` with the given scheduling policy. The node it
    /// serves is its connection pool's; the benchmark's DNE probe still
    /// names it here.
    pub fn new(
        _node: NodeId,
        loc: EngineLocation,
        cost: CostModel,
        policy: SchedPolicy,
        pool: ConnPool,
    ) -> Self {
        Dne::priced(DneOps::at(loc, &cost), policy, pool)
    }

    /// An engine whose ops cost `ops`.
    pub(crate) fn priced(ops: DneOps, policy: SchedPolicy, pool: ConnPool) -> Self {
        Dne {
            ops,
            worker_core: FifoServer::new(),
            core_thread: FifoServer::new(),
            sched: TenantScheduler::new(policy, 1 << 12),
            rx_queue: VecDeque::new(),
            rbr: RbrTable::new(),
            pool,
            routes: RouteTables::new(),
            tx_inflight: Slab::new(),
            engine_busy: false,
            tx_count: 0,
            rx_count: 0,
            route_misses: 0,
        }
    }

    /// Register a tenant's DWRR weight.
    pub fn register_tenant(&mut self, tenant: TenantId, weight: u32) {
        self.sched.register_tenant(tenant, weight);
    }

    /// A function handed the engine a descriptor for a remote function
    /// (the Comch arrival). `payload` is the RNIC's view of the buffer;
    /// `token` is the redeemed sender-side buffer, released on the send
    /// completion (exclusive-ownership lifecycle, §3.5.1). Effects are
    /// appended to the caller-owned `out`, so drivers can reuse one effect
    /// vector across every engine poke.
    pub fn submit_tx_into(
        &mut self,
        now: Nanos,
        desc: BufDesc,
        payload: Bytes,
        token: Option<BufToken>,
        out: &mut DneStep,
    ) {
        let Some(dst_node) = self.routes.node_of(desc.dst_fn) else {
            self.route_misses += 1;
            out.push(Timed::now(DneEffect::RouteMiss { dst: desc.dst_fn }));
            return;
        };
        let cost = (payload.len() as u64).max(64);
        self.sched.enqueue(
            desc.tenant,
            cost,
            TxItem {
                desc,
                dst_node,
                payload,
                token,
            },
        );
        self.kick(now, out);
    }

    /// A completion arrived on the node's shared CQ; the engine's effects
    /// are appended to the caller-owned `out`.
    pub fn submit_cqe_into(&mut self, now: Nanos, cqe: Cqe, out: &mut DneStep) {
        self.rx_queue.push_back(cqe);
        self.kick(now, out);
    }

    /// Retire an entire CQ window in one call: every CQE in `cqes` is
    /// queued for the engine's RX stage (draining the caller's scratch so
    /// it can be reused) and the engine is kicked **once**.
    ///
    /// This is provably equivalent to a [`Dne::submit_cqe_into`] loop —
    /// each CQE lands in `rx_queue` in the same order, and every kick
    /// after the first is a no-op because the first kick leaves the engine
    /// busy (`crates/core/tests/prop_drain.rs` pins this across random
    /// windows/occupancy) — but hoists the engine-busy check and the
    /// effect-vector bookkeeping out of the per-CQE loop, which is what
    /// makes a single doorbell wakeup that surfaces a deep CQ backlog
    /// cheap. The kick happens after queuing only the *first* CQE, as the
    /// per-CQE loop's first call does. No op's service time reads the
    /// queue depth, so kicking after the whole window would give the same
    /// effects; the order is kept because it is the one the equivalence
    /// test pins step for step.
    pub fn drain_cq_into(&mut self, now: Nanos, cqes: &mut Vec<Cqe>, out: &mut DneStep) {
        if cqes.is_empty() {
            return;
        }
        self.rx_queue.reserve(cqes.len());
        let mut window = cqes.drain(..);
        let first = window.next().expect("checked non-empty");
        self.rx_queue.push_back(first);
        self.kick(now, out);
        self.rx_queue.extend(window);
    }

    fn kick(&mut self, now: Nanos, out: &mut DneStep) {
        if self.engine_busy {
            return;
        }
        self.on_engine_slot_into(now, out);
    }

    /// The engine core is free: start the next unit of work
    /// (run-to-completion: RX completions first, then TX per the
    /// scheduler). Effects are appended to `out`, including the next
    /// `EngineSlot` if more work was started.
    pub fn on_engine_slot_into(&mut self, now: Nanos, out: &mut DneStep) {
        self.engine_busy = false;
        // RX stage has priority: completions free buffers and unblock
        // remote senders.
        if let Some(cqe) = self.rx_queue.pop_front() {
            let done = self.worker_core.submit(now, self.ops.rx);
            self.engine_busy = true;
            let delay = done - now;
            self.process_cqe(cqe, now, delay, out);
            out.push(Timed::new(delay, DneEffect::EngineSlot));
            return;
        }
        if let Some((_tenant, item)) = self.sched.dequeue() {
            let done = self.worker_core.submit(now, self.ops.tx);
            self.engine_busy = true;
            let delay = done - now;
            self.process_tx(item, delay, out);
            out.push(Timed::new(delay, DneEffect::EngineSlot));
        }
    }

    fn process_tx(&mut self, item: TxItem, delay: Nanos, out: &mut DneStep) {
        // Redeem happens driver-side before submit; here the engine selects
        // the connection (driver-side, at effect time) and builds the WR.
        // The WR id *is* the inflight-table key.
        let wr_id = WrId(self.tx_inflight.insert(item.token));
        let imm = pack_imm(item.desc.src_fn, item.desc.dst_fn, item.desc.tenant);
        let wr = WorkRequest::send(wr_id, item.payload, imm);
        self.tx_count += 1;
        out.push(Timed::new(
            delay,
            DneEffect::PostSend {
                dst_node: item.dst_node,
                tenant: item.desc.tenant,
                wr,
            },
        ));
    }

    /// Resolve the sentinel QPN in a `PostSend` effect into a real
    /// connection (needs fabric state, so it happens driver-side at effect
    /// time). Returns `None` when no connection exists.
    pub fn select_conn(
        &mut self,
        net: &palladium_rdma::RdmaNet,
        dst_node: NodeId,
        tenant: TenantId,
    ) -> Option<Qpn> {
        self.pool.select(net, dst_node, tenant)
    }

    /// `now` is the instant the engine started on this CQE and `delay` its
    /// service time: every effect is relative to `now`.
    fn process_cqe(&mut self, cqe: Cqe, now: Nanos, delay: Nanos, out: &mut DneStep) {
        match cqe.kind {
            CqeKind::Recv => {
                let Some((tenant, token)) = self.rbr.consume(cqe.wr_id) else {
                    return;
                };
                let (src, dst, _) = unpack_imm(cqe.imm);
                let desc = BufDesc {
                    tenant,
                    pool: token.pool(),
                    buf_idx: token.idx(),
                    len: cqe.data.len() as u32,
                    src_fn: src,
                    dst_fn: dst,
                };
                self.rx_count += 1;
                out.push(Timed::new(
                    delay,
                    DneEffect::ApplyDma {
                        tenant,
                        token,
                        data: cqe.data,
                    },
                ));
                out.push(Timed::new(delay, DneEffect::DeliverToFn { desc }));
                // Core thread replenishment sweep (runs on the other core,
                // asynchronously — charge it there). The sweep starts when
                // the worker finishes this CQE (`now + delay`) or when the
                // core thread's own backlog clears, whichever is later, so
                // a buffer re-enters the RQ one replenish service after its
                // CQE plus whatever the core thread still owes.
                let consumed = self.rbr.take_consumed(tenant);
                if consumed > 0 {
                    let service = self.ops.replenish.saturating_mul(consumed);
                    // Ahead of the clock but in order: only the serialised
                    // worker feeds the core thread, at its own op ends.
                    let rdone = self.core_thread.submit(now + delay, service);
                    out.push(Timed::new(
                        rdone - now,
                        DneEffect::Replenish {
                            tenant,
                            n: consumed,
                        },
                    ));
                }
            }
            CqeKind::SendDone(_) => {
                if let Some(Some(token)) = self.tx_inflight.remove(cqe.wr_id.0) {
                    out.push(Timed::new(delay, DneEffect::ReleaseTxBuffer { token }));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connpool::ConnPoolConfig;
    use palladium_membuf::PoolId;
    use palladium_rdma::CqeStatus;

    fn engine(loc: EngineLocation) -> Dne {
        Dne::new(
            NodeId(0),
            loc,
            CostModel::default(),
            SchedPolicy::Dwrr,
            ConnPool::new(NodeId(0), ConnPoolConfig::default()),
        )
    }

    fn submit_cqe(dne: &mut Dne, now: Nanos, cqe: Cqe) -> DneStep {
        let mut out = Vec::new();
        dne.submit_cqe_into(now, cqe, &mut out);
        out
    }

    fn submit_tx(dne: &mut Dne, payload: &'static [u8], token: Option<BufToken>) -> DneStep {
        let mut out = Vec::new();
        dne.submit_tx_into(Nanos::ZERO, desc(), Bytes::from_static(payload), token, &mut out);
        out
    }

    fn engine_slot(dne: &mut Dne, now: Nanos) -> DneStep {
        let mut out = Vec::new();
        dne.on_engine_slot_into(now, &mut out);
        out
    }

    /// An engine that routes fn 2 to node 1.
    fn routed_engine() -> Dne {
        let mut dne = engine(EngineLocation::Dpu);
        let mut coord = crate::routing::Coordinator::new();
        coord.apply(crate::routing::DeployEvent::Created {
            f: FnId(2),
            tenant: TenantId(1),
            node: NodeId(1),
        });
        dne.routes = coord.tables_for(NodeId(0));
        dne
    }

    fn desc() -> BufDesc {
        BufDesc {
            tenant: TenantId(1),
            pool: PoolId(0),
            buf_idx: 1,
            len: 64,
            src_fn: FnId(1),
            dst_fn: FnId(2),
        }
    }

    #[test]
    fn imm_packing_roundtrip() {
        let imm = pack_imm(FnId(0xAB), FnId(0xCD), TenantId(0xEF));
        assert_eq!(unpack_imm(imm), (FnId(0xAB), FnId(0xCD), TenantId(0xEF)));
    }

    #[test]
    fn unroutable_tx_is_a_route_miss() {
        let mut dne = engine(EngineLocation::Dpu);
        let fx = submit_tx(&mut dne, b"x", None);
        assert!(matches!(fx[0].value, DneEffect::RouteMiss { dst } if dst == FnId(2)));
        assert_eq!(dne.route_misses, 1);
    }

    #[test]
    fn tx_emits_post_send_after_service_time() {
        let mut dne = routed_engine();
        let fx = submit_tx(&mut dne, b"payload", None);
        let post = fx
            .iter()
            .find(|t| matches!(t.value, DneEffect::PostSend { .. }))
            .expect("PostSend effect");
        // DPU-located: service = engine_tx × wimpy ≈ 1.54 µs.
        assert!(post.after >= Nanos::from_nanos(1_400) && post.after <= Nanos::from_nanos(1_700));
        if let DneEffect::PostSend { wr, .. } = &post.value {
            assert_eq!(unpack_imm(wr.imm), (FnId(1), FnId(2), TenantId(1)));
            assert_eq!(wr.payload.len(), 7);
        }
        assert_eq!(dne.tx_count, 1);
        // An EngineSlot follows so the driver re-polls.
        assert!(fx
            .iter()
            .any(|t| matches!(t.value, DneEffect::EngineSlot)));
    }

    #[test]
    fn cne_op_costs_host_op_plus_interrupt_at_any_depth() {
        // A CPU-located engine pays the host-speed op plus one SK_MSG
        // interrupt, however deep its queue: TX ops stacked on an idle CNE
        // each start when the last one's slot fires and take exactly that.
        let mut dne = engine(EngineLocation::Cpu);
        let mut coord = crate::routing::Coordinator::new();
        coord.apply(crate::routing::DeployEvent::Created {
            f: FnId(2),
            tenant: TenantId(1),
            node: NodeId(1),
        });
        dne.routes = coord.tables_for(NodeId(0));
        let op = DneOps::at(EngineLocation::Cpu, &CostModel::default()).tx;
        let mut fx = Vec::new();
        for _ in 0..40 {
            dne.submit_tx_into(Nanos::ZERO, desc(), Bytes::from_static(b"x"), None, &mut fx);
        }
        let mut now = Nanos::ZERO;
        for depth in (1..=40).rev() {
            let slot = fx
                .iter()
                .find(|t| matches!(t.value, DneEffect::EngineSlot))
                .unwrap_or_else(|| panic!("a slot with {depth} ops queued"));
            assert_eq!(slot.after, op, "{depth} ops queued");
            now += slot.after;
            fx.clear();
            dne.on_engine_slot_into(now, &mut fx);
        }
        assert!(fx.is_empty(), "the engine went idle");
        assert_eq!(dne.worker_core.busy_time(), op * 40);
    }

    #[test]
    fn recv_cqe_resolves_rbr_and_delivers() {
        let mut dne = engine(EngineLocation::Dpu);
        let mut pool = palladium_membuf::UnifiedPool::new(PoolId(0), TenantId(1), 4, 256);
        let tok = pool.alloc(palladium_membuf::Owner::Rnic).unwrap();
        let idx = tok.idx();
        let wr_id = dne.rbr.register(TenantId(1), tok);
        let cqe = Cqe {
            wr_id,
            kind: CqeKind::Recv,
            status: CqeStatus::Success,
            qpn: Qpn(1),
            tenant: TenantId(1),
            peer: NodeId(1),
            data: Bytes::from_static(b"hello"),
            imm: pack_imm(FnId(1), FnId(2), TenantId(1)),
        };
        let fx = submit_cqe(&mut dne, Nanos::ZERO, cqe);
        let deliver = fx
            .iter()
            .find_map(|t| match &t.value {
                DneEffect::DeliverToFn { desc } => Some(*desc),
                _ => None,
            })
            .expect("delivery effect");
        assert_eq!(deliver.dst_fn, FnId(2));
        assert_eq!(deliver.buf_idx, idx);
        assert_eq!(deliver.len, 5);
        // DMA application effect present.
        assert!(fx
            .iter()
            .any(|t| matches!(&t.value, DneEffect::ApplyDma { data, .. } if data.len() == 5)));
        // Replenish effect for the consumed buffer.
        assert!(fx.iter().any(
            |t| matches!(t.value, DneEffect::Replenish { tenant, n } if tenant == TenantId(1) && n == 1)
        ));
        assert_eq!(dne.rx_count, 1);
    }

    #[test]
    fn replenish_delay_is_relative_to_now() {
        // One Recv CQE every 10 µs — far apart next to the 250 ns × wimpy
        // replenish service, so the core thread is idle at each one and
        // the buffer must re-enter the RQ one service after the engine
        // finishes the CQE, no matter how late in the run it arrives.
        const N: u64 = 64;
        let mut dne = engine(EngineLocation::Dpu);
        let service = DneOps::at(EngineLocation::Dpu, &CostModel::default()).replenish;
        let mut pool = palladium_membuf::UnifiedPool::new(PoolId(0), TenantId(1), N as u32, 256);
        for i in 0..N {
            let now = Nanos::from_micros(10 * i);
            let tok = pool.alloc(palladium_membuf::Owner::Rnic).unwrap();
            let cqe = Cqe {
                wr_id: dne.rbr.register(TenantId(1), tok),
                kind: CqeKind::Recv,
                status: CqeStatus::Success,
                qpn: Qpn(1),
                tenant: TenantId(1),
                peer: NodeId(1),
                data: Bytes::from_static(b"x"),
                imm: pack_imm(FnId(1), FnId(2), TenantId(1)),
            };
            let fx = submit_cqe(&mut dne, now, cqe);
            let after = |want: fn(&DneEffect) -> bool| {
                fx.iter().find(|t| want(&t.value)).expect("effect").after
            };
            let engine_delay = after(|e| matches!(e, DneEffect::EngineSlot));
            let replenish = after(|e| matches!(e, DneEffect::Replenish { .. }));
            assert_eq!(replenish, engine_delay + service, "CQE {i} at {now}");
            assert!(engine_slot(&mut dne, now + engine_delay).is_empty());
        }
    }

    #[test]
    fn send_done_releases_tracked_buffer() {
        let mut dne = routed_engine();
        let mut pool = palladium_membuf::UnifiedPool::new(PoolId(0), TenantId(1), 4, 256);
        let tok = pool.alloc(palladium_membuf::Owner::Engine).unwrap();
        let idx = tok.idx();
        let fx = submit_tx(&mut dne, b"payload", Some(tok));
        let (wr_id, after) = fx
            .iter()
            .find_map(|t| match &t.value {
                DneEffect::PostSend { wr, .. } => Some((wr.wr_id, t.after)),
                _ => None,
            })
            .expect("PostSend effect");
        let cqe = Cqe {
            wr_id,
            kind: CqeKind::SendDone(palladium_rdma::OpKind::Send),
            status: CqeStatus::Success,
            qpn: Qpn(1),
            tenant: TenantId(1),
            peer: NodeId(1),
            data: Bytes::new(),
            imm: 0,
        };
        assert!(engine_slot(&mut dne, after).is_empty(), "the send was the only work");
        let fx = submit_cqe(&mut dne, after, cqe);
        let released = fx
            .iter()
            .find_map(|t| match &t.value {
                DneEffect::ReleaseTxBuffer { token } => Some(token.idx()),
                _ => None,
            })
            .expect("release effect");
        assert_eq!(released, idx);
    }

    #[test]
    fn engine_serializes_work() {
        // Two TX submissions: the second's PostSend lands one service time
        // after the first (single engine core).
        let mut dne = routed_engine();
        let fx1 = submit_tx(&mut dne, b"a", None);
        let t1 = fx1
            .iter()
            .find(|t| matches!(t.value, DneEffect::PostSend { .. }))
            .unwrap()
            .after;
        // Second arrives immediately; engine busy → no effects yet.
        let fx2 = submit_tx(&mut dne, b"b", None);
        assert!(fx2.is_empty(), "engine busy: work deferred to EngineSlot");
        // Driver fires EngineSlot at t1.
        let fx3 = engine_slot(&mut dne, t1);
        let t2 = fx3
            .iter()
            .find(|t| matches!(t.value, DneEffect::PostSend { .. }))
            .unwrap()
            .after;
        assert_eq!(t1 + t2, t1 * 2, "second op takes one more service time");
    }
}
