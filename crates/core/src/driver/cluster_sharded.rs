//! The cluster engine behind Fig 16 / Table 2: `pairs`
//! worker-node pairs plus one ingress node running function chains on any
//! of the six evaluated data planes, on the conservative sharded kernel
//! ([`palladium_simnet::shard`]) with one [`RdmaNet`] fabric instance
//! **per shard**.
//!
//! [`ClusterShard`] is the only cluster state machine in the workspace.
//! Everything on the request path is the real machinery built here:
//! requests allocate real buffers from per-node pools, payload bytes
//! really carry the request id end-to-end, ownership really moves by
//! token passing, inter-node hops run the full RC state machine in
//! [`RdmaNet`], the DNE really schedules with DWRR and replenishes its
//! RBR, and every software copy lands on a per-node [`CopyMeter`] — the
//! zero-copy claims are asserted, not assumed. A system's [`SystemSpec`]
//! selects what differs between systems — the ingress design and the
//! [`DataPlane`] — and nothing else does: the [`DataPlane::Dne`] arms
//! (two-sided RDMA through the engine, on the DPU or a host core) live in
//! this file, the [`DataPlane::Host`] arms (each
//! [`HostHop`](crate::system::HostHop): TCP, one-sided write, or
//! node-local) in [`baselines`].
//!
//! Every station is booked at the `now` of the event that brings it its
//! job (`FifoServer` asserts the order in debug builds): on every plane a
//! function's remote hop or response reaches its engine by one event, and
//! a function books each receive on its own core when [`Ev::Deliver`]
//! brings it, at the price of the channel the message crossed: SK_MSG
//! from a function of the same node, the engine's channel otherwise
//! ([`Prices::channel`]).
//!
//! This file is the data plane — the [`Ev`] alphabet, [`ClusterShard`] and
//! its request-path event arms. The ingress's control plane sits beside it,
//! one module per concern: [`config`] (what a run is told, validated in one
//! place), [`health`] (heartbeat liveness, costed rejoin, gray-failure
//! detection and the one placement scan), [`overload`] (open-loop admission,
//! retry budgets, breakers, autoscaling), [`report`] (what a run reports —
//! its structs are the live counters), and [`build`] (wiring the shards and
//! folding the report: [`ClusterShardedSim`]).
//!
//! Two ways in. [`super::chain::ChainSim`] (Fig 16, Table 2: one pair,
//! any system) runs one shard with the fabric delivering its own frames
//! — a plain serial event loop. [`ClusterShardedSim::run`] splits the
//! cluster along [`Partition`] node-block boundaries so the paper's
//! headline workload (the boutique application, Fig 16) parallelizes
//! across cores:
//!
//! * **Per-shard `RdmaNet` ownership.** Each shard owns the RNICs, CQs
//!   and QP state of its contiguous node block
//!   ([`RdmaNet::with_span`]). QP state machines are per-node, so the
//!   only shared fabric state — frames in flight — becomes explicit:
//!   in sharded-egress mode every inter-node frame (data *and*
//!   ACK/NAK, same-span destinations included) leaves `transmit` as a
//!   fully-timed [`Packet`] that this driver routes through the
//!   shard runner's mailboxes.
//! * **Frame-level lookahead.** Window barriers are sized to
//!   [`RdmaConfig::frame_lookahead`] — the control-frame floor
//!   (653 ns at default calibration), *not* the WR-level
//!   [`RdmaConfig::lookahead`] (~3.1 µs): ACKs cross shards too, and
//!   they bypass the doorbell and TX/RX pipelines.
//! * **Shard-count invariance.** The discipline from
//!   [`super::multinode`]: all inter-node traffic rides the [`Outbox`]
//!   keyed by global source node id, local events stay node-local, no
//!   randomness is drawn on the steady path (faults stay disabled),
//!   and reports fold in global node order. One shard therefore
//!   reproduces the exact bytes of every sharded run
//!   (`tests/cluster_sharded.rs` pins 1/2/4/8 shards × both execution
//!   modes against a golden trace). The serial event loop reproduces
//!   them on the pinned, unjittered configuration of
//!   `tests/one_engine.rs`, not in general: with drawn execution costs
//!   the two delivery modes diverge, and the benchmark's
//!   `boutique_closed` seed 3 reads 73 701.4 rps direct vs 73 670 rps
//!   through the mailboxes (see `ClusterShardedSim::run_direct`). Only
//!   two-sided RDMA shards: the baselines' inter-node legs are local
//!   events, so they run at one shard.
//!
//! # Topology and request-state distribution
//!
//! Pair `p` owns global nodes `2p` (hotspots) and `2p+1` (the rest);
//! the ingress node sits at global index `2·pairs`. Function ids are
//! remapped per pair (`id + 16·p`), so routing tables stay a dense id →
//! node lookup; request `r` runs pair `r % pairs`'s chain. Clients, the
//! gateway and the latency statistics live on the shard owning the
//! ingress node.
//!
//! Consecutive hops of one request execute on different shards, so no
//! central table can hold its chain position. The hop index travels
//! **in the payload** instead: the 8-byte little-endian prefix packs the
//! request id in the low 40 bits, the next hop index in the next 8, and
//! the worker pair running the request in the high 16
//! ([`word_of`]/[`unword`]), so each node derives the chain position
//! from the bytes it received. Carrying the pair in the word is what
//! lets the ingress *re-route* a request to a surviving replica under
//! chaos (see [`health`]): the chosen pair travels with the bytes instead
//! of being re-derived as `req % pairs` at every hop.
//!
//! [`RdmaConfig::frame_lookahead`]: palladium_rdma::RdmaConfig::frame_lookahead
//! [`RdmaConfig::lookahead`]: palladium_rdma::RdmaConfig::lookahead
//! [`Partition`]: palladium_simnet::Partition

use bytes::Bytes;

use palladium_membuf::{
    BufDesc, BufToken, CopyMeter, FnId, MoveKind, NodeId, Owner, PayloadCache, TenantId,
    UnifiedPool,
};
use palladium_rdma::{
    Cqe, CqeKind, Packet, RdmaEvent, RdmaNet, RdmaOutput, RqEntry, Step, WorkRequest, WrId,
};
use palladium_simnet::{
    CompiledScenario, Effects, IdTable, Nanos, Outbox, RunStats, ServerBank, ShardEngine, Slab,
};

use super::chain::{ChainSpec, INGRESS_FN};
use crate::connpool::ConnPool;
use crate::dne::{pack_imm, Dne, DneEffect};
use crate::ingress::{IngressGateway, Leg};
use crate::price::Prices;
use crate::rbr::RbrTable;
use crate::system::{DataPlane, IngressKind, SystemSpec};
use baselines::{Hop, HostEv, HostPlane};
use health::{IngressChaos, PairView};
use overload::IngressOverload;
use report::ShedCause;
use requests::{ClosedLedger, ReqState, Requests};

mod baselines;
mod build;
mod config;
mod health;
mod overload;
mod report;
mod requests;
#[cfg(test)]
mod testkit;

pub use build::ClusterShardedSim;
pub use config::{AutoscalePolicy, BreakerPolicy, ClusterShardedConfig, OverloadConfig, RetryPolicy};
pub use report::{ChaosReport, ClusterShardedReport, LedgerError, OverloadReport, UnknownColumn};

const TENANT: TenantId = TenantId(1);
const BUF_SIZE: u32 = 8192;

/// Function cores per worker node.
pub(crate) const FN_CORES: usize = 38;

/// Gateway worker processes of a cluster run, fixed per ingress design.
pub(crate) fn gateway_workers(ingress: IngressKind) -> usize {
    match ingress {
        IngressKind::KernelDeferred => 24,
        _ => 8,
    }
}

/// Payload word layout: request id (low 40 bits), hop index (8 bits),
/// worker pair (high 16 bits) — see the module docs on request-state
/// distribution and failover. [`ClusterShardedConfig::validate`] holds
/// every chain and pair count inside the hop and pair fields.
const REQ_BITS: u32 = 40;
const REQ_MASK: u64 = (1 << REQ_BITS) - 1;
const HOP_BITS: u32 = 8;
const HOP_MASK: u64 = (1 << HOP_BITS) - 1;

/// Pack `(req, hop, pair)` into the 8-byte payload prefix word.
fn word_of(req: u64, hop: usize, pair: usize) -> u64 {
    debug_assert!(req <= REQ_MASK, "request id overflows the payload word");
    req | ((hop as u64) << REQ_BITS) | ((pair as u64) << (REQ_BITS + HOP_BITS))
}

/// Unpack `(req, hop, pair)` from a payload's 8-byte little-endian prefix.
fn unword(data: &[u8]) -> (u64, usize, usize) {
    let mut b = [0u8; 8];
    b.copy_from_slice(&data[..8]);
    let w = u64::from_le_bytes(b);
    (
        w & REQ_MASK,
        ((w >> REQ_BITS) & HOP_MASK) as usize,
        (w >> (REQ_BITS + HOP_BITS)) as usize,
    )
}

#[derive(Debug)]
pub(crate) enum Ev {
    /// A client issues a request (ingress shard only).
    Issue { client: usize },
    /// `leg` of a request reached the gateway: the request one client wire
    /// after it left its client, a baseline's response over TCP.
    GwArrive { req: u64, leg: Leg },
    /// Ingress finished the inbound leg.
    GwIn { req: u64 },
    /// Ingress finished the outbound leg.
    GwOut { req: u64 },
    /// RDMA fabric sub-simulator event (this shard's instance).
    Rdma(RdmaEvent),
    /// A Palladium engine core freed up on node `n` after an op that left
    /// nothing to apply (a completion the engine no longer tracks). Every
    /// other op's wake-up rides on its own completion event: `wake` below
    /// means "the engine core frees up at this instant too — run its next
    /// step once the effect is applied".
    EngineSlot { n: usize },
    /// Engine TX processing done: post the WR.
    PostSend {
        n: usize,
        dst: NodeId,
        tenant: TenantId,
        wake: bool,
        wr: WorkRequest,
    },
    /// RNIC DMA application of received bytes.
    ApplyDma {
        n: usize,
        wake: bool,
        token: BufToken,
        data: Bytes,
    },
    /// Descriptor delivery to a function (after channel transit).
    Deliver { n: usize, desc: BufDesc },
    /// A transmitted buffer completed.
    ReleaseTx {
        n: usize,
        wake: bool,
        token: BufToken,
    },
    /// Core-thread RQ replenishment.
    Replenish { n: usize, cnt: u64 },
    /// A function's hand-off reached the engine.
    EngineRx { n: usize, desc: BufDesc },
    /// Function finished executing on input `desc`.
    FnDone { n: usize, desc: BufDesc },
    /// Worker node `n` emits its next liveness probe (chaos runs only).
    HeartbeatTick { n: usize },
    /// The ingress sweeps for silent workers (chaos runs only).
    HealthCheck,
    /// Worker `n` finished paying its rejoin cost (chaos runs only).
    /// `epoch` voids completions staled by a crash mid-rejoin.
    RejoinDone { n: usize, epoch: u64 },
    /// The next open-loop arrival lands at the ingress (overload runs
    /// only; self-perpetuating).
    Arrive,
    /// A failed request's backoff expired; re-enter admission.
    Retry { req: u64 },
    /// The autoscaler evaluates its policy (overload + autoscale only;
    /// self-perpetuating at the eval interval).
    ScaleTick,
    /// A scale-out finished paying its bill: pair `pair` activates.
    ScaleOutDone { pair: usize },
    /// A TCP / one-sided-write / host-engine leg of a baseline data plane
    /// (see [`baselines`]).
    Host(HostEv),
}

// The event queue holds one of these per pending event: what a retired
// request's late events read stays in the request table, not in them.
const _: () = assert!(std::mem::size_of::<Ev>() <= 88);

/// Where a live request is in its life at the ingress. Only the three
/// transitions on [`IngressState`] move it: `admit`, `abandon`, and
/// `retire`, which frees its record ([`requests`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Open loop only: queued for admission, or backing off before a retry.
    Waiting,
    /// Its current attempt is in the data plane, holding an in-flight window
    /// slot on open-loop runs. A closed-loop request is born here.
    InFlight,
}

/// How a request ends: the argument of [`IngressState::retire`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Terminal {
    /// Its response reached the client.
    Completed,
    /// The retry budget ran out, or the next attempt could not meet the
    /// deadline (open loop).
    RetryExhausted,
    /// Its pair was suspected with the request in flight (closed loop: the
    /// client re-issues; the open loop retries the request instead).
    Lost,
}

/// State owned by the shard carrying the ingress node.
struct IngressState {
    gw: IngressGateway,
    rbr: RbrTable,
    conns: ConnPool,
    /// TX buffers awaiting send completions (slab-keyed WR ids).
    tx: Slab<BufToken>,
    /// The live requests by id, and the tombstones of retired ones whose
    /// abandoned attempts may still answer ([`requests`]).
    reqs: Requests,
    /// The closed loop's issued and lost counts, checked at the fold.
    closed: ClosedLedger,
    stats: RunStats,
    /// Client ↔ gateway wire time.
    client_wire: Nanos,
    /// `(request, response)` payload bytes of each pair's chain.
    leg_bytes: Vec<(u64, u64)>,
    /// The ingress's share of the run's chaos accounting, counted in place.
    counts: ChaosReport,
    /// The health plane (present iff `cfg.chaos` is set).
    chaos: Option<IngressChaos>,
    /// Open-loop overload machinery (present iff `cfg.overload` is set).
    overload: Option<IngressOverload>,
}

impl IngressState {
    /// `leg` of request `req`, served by `pair`, reached the gateway at `now`:
    /// book it on its client's worker and schedule its completion.
    fn submit(&mut self, now: Nanos, fx: &mut Effects<'_, Ev>, req: u64, pair: usize, leg: Leg) {
        let (client, _) = self.reqs.placement(req);
        let (req_bytes, resp_bytes) = self.leg_bytes[pair];
        let (_, done) = self.gw.submit(now, client, leg, req_bytes, resp_bytes);
        let ev = match leg {
            Leg::Inbound => Ev::GwIn { req },
            Leg::Outbound => Ev::GwOut { req },
        };
        fx.at(done, ev);
    }

    /// Place request `req` on `pair` and start it: it reaches the gateway
    /// one client wire from `now`.
    fn start_on(&mut self, now: Nanos, fx: &mut Effects<'_, Ev>, req: u64, pair: usize) {
        self.reqs.live_mut(req).pair = pair as u16;
        fx.at(now + self.client_wire, Ev::GwArrive { req, leg: Leg::Inbound });
    }

    /// What placement may read and count into (see [`PairView::place`]).
    fn pairs(&mut self) -> PairView<'_> {
        PairView {
            chaos: self.chaos.as_mut(),
            breaker_until: self.overload.as_ref().map(|ov| &ov.breaker_until[..]),
            counts: &mut self.counts,
        }
    }

    /// `Waiting` → `InFlight` (open loop): admit `req` to the data plane on
    /// `pair` at `now` (its admission stamp), taking an in-flight window
    /// slot, and start its inbound leg.
    fn admit(&mut self, now: Nanos, fx: &mut Effects<'_, Ev>, req: u64, pair: usize) {
        let st = self.reqs.live_mut(req);
        debug_assert_eq!(st.phase, Phase::Waiting, "admitting request {req}");
        st.phase = Phase::InFlight;
        st.admitted = now;
        self.overload.as_mut().expect("overload mode").admit(now);
        self.start_on(now, fx, req, pair);
    }

    /// `InFlight` → `Waiting`: `req`'s attempt died in the data plane, and
    /// its frames may still answer (the request is now orphaned). On
    /// open-loop runs this frees its window slot and charges its pair's
    /// breaker.
    fn abandon(&mut self, now: Nanos, req: u64) {
        let st = self.reqs.live_mut(req);
        debug_assert_eq!(st.phase, Phase::InFlight, "abandoning request {req}");
        st.phase = Phase::Waiting;
        st.orphaned = true;
        if let Some(ov) = self.overload.as_mut() {
            ov.abandon(now, st.pair as usize);
        }
    }

    /// → retired: `req` ends as `end` at `at` (a completion at its client
    /// finish time). The only way a request ends: it frees the record (and
    /// the window slot iff the request was in flight), and it is where
    /// both loops' ledgers count the end.
    fn retire(&mut self, at: Nanos, req: u64, end: Terminal) {
        let st = self.reqs.free(req);
        match self.overload.as_mut() {
            Some(ov) => ov.retire(at, st.phase == Phase::InFlight, end),
            None => self.closed.retire(at, end),
        }
    }

    /// `req`'s response left the gateway at `now`; the client has it one
    /// wire later. A response for a request not in flight answers an
    /// attempt already abandoned or retired, and is dropped.
    fn complete(&mut self, now: Nanos, fx: &mut Effects<'_, Ev>, req: u64) {
        let Some(st) = self.reqs.get(req).filter(|st| st.phase == Phase::InFlight) else {
            return;
        };
        let (issued, admitted) = (st.issued, st.admitted);
        let (client, pair) = (st.client as usize, st.pair as usize);
        let finish = now + self.client_wire;
        self.retire(finish, req, Terminal::Completed);
        self.stats.complete(finish, issued);
        // Feed the pair's gray-failure score with the end-to-end latency
        // this request observed.
        if let Some(cx) = self.chaos.as_mut() {
            cx.observe(pair, finish - issued);
        }
        match self.overload.as_mut() {
            // Open loop: refill the window from the queue; never re-issue.
            Some(ov) => {
                ov.complete(now, admitted, pair, issued, finish);
                self.drain_queue(now, fx);
            }
            None => fx.at(finish, Ev::Issue { client }),
        }
    }
}

/// One shard of the cluster: a contiguous global-node block with its own
/// fabric instance (see the module docs).
pub(crate) struct ClusterShard {
    /// First global node this shard owns.
    lo: usize,
    /// Dense global node → shard route table.
    shard_of: Vec<u32>,
    ingress_node: usize,
    /// Per-pair chains (`chains[p]` for requests placed on pair `p`).
    chains: Vec<ChainSpec>,
    /// Remapped function id → global node, dense.
    placement: IdTable<usize>,
    fn_exec: IdTable<Nanos>,
    /// The system under test: which ingress design and data plane every
    /// arm below follows.
    spec: SystemSpec,
    /// What every op of the system costs: the only service times the arms
    /// below charge.
    price: Prices,

    // Per owned node, indexed `node - lo`.
    pools: Vec<UnifiedPool>,
    meters: Vec<CopyMeter>,
    fn_cores: Vec<Option<ServerBank>>,
    /// Palladium engines: `Some` on worker nodes of a [`DataPlane::Dne`]
    /// system, `None` otherwise (the baselines run [`HostPlane`]).
    dnes: Vec<Option<Dne>>,
    inbound_tokens: Vec<IdTable<BufToken>>,
    /// The baselines' host engines, TCP cost tables and FUYAO pools —
    /// present exactly on a [`DataPlane::Host`] system.
    host: Option<HostPlane>,

    /// This shard's span of the fabric, in sharded-egress mode.
    net: RdmaNet,
    /// Present exactly on the shard owning the ingress node.
    ingress: Option<IngressState>,
    /// Compiled chaos tables, identical on every shard (`None` on
    /// fault-free runs — every chaos branch below is then never taken).
    chaos: Option<CompiledScenario>,
    /// Requests and sends this shard shed on pool exhaustion or an errored
    /// QP (`shed_pool`, `shed_qp`), counted in place.
    counts: ChaosReport,

    // Reused scratch so steady-state stepping does not allocate.
    rdma_step: Step,
    post_step: Step,
    cqe_scratch: Vec<Cqe>,
    dne_fx: crate::dne::DneStep,
    payloads: PayloadCache,
}

impl ClusterShard {
    /// Local index of global node `n`.
    #[inline]
    fn li(&self, n: usize) -> usize {
        n - self.lo
    }

    fn node_of(&self, f: FnId) -> usize {
        if f == INGRESS_FN {
            self.ingress_node
        } else {
            *self.placement.get(f.raw() as usize).expect("placed function")
        }
    }

    fn fn_exec(&self, f: FnId) -> Nanos {
        *self.fn_exec.get(f.raw() as usize).expect("deployed function")
    }

    /// Charge work on a function core of worker node `n`.
    fn on_fn_core(&mut self, n: usize, now: Nanos, service: Nanos) -> Nanos {
        let li = self.li(n);
        let bank = self.fn_cores[li].as_mut().expect("worker node");
        bank.submit(now, service)
    }

    /// Pass the buffer behind `token` from `from` to function `to` on the
    /// same node (local index `li`) by token passing — no copy. Returns the
    /// descriptor to deliver.
    fn hand_to_fn(&mut self, li: usize, token: BufToken, from: FnId, to: FnId) -> BufDesc {
        let desc = self.pools[li].into_transit(token, from, to).expect("owned");
        let tok = self.pools[li]
            .redeem(&desc, Owner::Function(to))
            .expect("redeem for fn");
        self.inbound_tokens[li].insert(desc.buf_idx as usize, tok);
        desc
    }

    /// Replenish `cnt` receive buffers on node `n` — a worker's go through
    /// its DNE's RBR table, the ingress's through its own (node-local,
    /// identical at every shard count).
    fn replenish(&mut self, n: usize, cnt: u64) {
        let li = self.li(n);
        let rbr = match self.dnes[li].as_mut() {
            Some(dne) => &mut dne.rbr,
            None => &mut self.ingress.as_mut().expect("ingress shard").rbr,
        };
        for _ in 0..cnt {
            let Ok(token) = self.pools[li].alloc(Owner::Rnic) else {
                break;
            };
            let entry = RqEntry {
                wr_id: rbr.register(TENANT, token),
                pool: self.pools[li].id(),
                capacity: BUF_SIZE,
            };
            let _ = self.net.post_recv(NodeId(n as u16), TENANT, entry);
        }
    }

    /// Route every frame the fabric egressed this step: into the mailbox
    /// of the destination node's shard (self-sends included — that is
    /// what makes arrival schedules partition-independent), keyed by the
    /// global source node id.
    fn route_egress(&mut self, now: Nanos, out: &mut Outbox<Packet>, step: &mut Step) {
        for t in step.egress.drain(..) {
            let dst = t.value.dst.raw() as usize;
            let src = t.value.src.raw() as u32;
            out.send(self.shard_of[dst] as usize, now + t.after, src, t.value);
        }
    }

    /// Schedule the effects of a Palladium engine step. An engine op is
    /// one scheduled event: the engine pushes its wake-up
    /// ([`DneEffect::EngineSlot`]) last, at the op's completion delay, and
    /// the first effect landing at that same instant carries it (`wake`)
    /// instead of a second event being queued behind it.
    fn apply_dne_step(&mut self, fx: &mut Effects<'_, Ev>, n: usize, step: &mut crate::dne::DneStep) {
        let mut wake_at = match step.last() {
            Some(t) if matches!(t.value, DneEffect::EngineSlot) => Some(t.after),
            _ => None,
        };
        for t in step.drain(..) {
            let mut carry = || wake_at.take_if(|at| *at == t.after).is_some();
            match t.value {
                DneEffect::PostSend { dst_node, tenant, wr } => {
                    fx.after(
                        t.after,
                        Ev::PostSend {
                            n,
                            dst: dst_node,
                            tenant,
                            wake: carry(),
                            wr,
                        },
                    );
                }
                DneEffect::DeliverToFn { desc } => {
                    fx.after(t.after + self.price.engine.transit, Ev::Deliver { n, desc });
                }
                DneEffect::ApplyDma { token, data, .. } => {
                    fx.after(t.after, Ev::ApplyDma { n, wake: carry(), token, data });
                }
                DneEffect::ReleaseTxBuffer { token } => {
                    fx.after(t.after, Ev::ReleaseTx { n, wake: carry(), token });
                }
                DneEffect::Replenish { n: cnt, .. } => {
                    fx.after(t.after, Ev::Replenish { n, cnt });
                }
                DneEffect::EngineSlot => {
                    // Nothing else landed at the wake-up instant.
                    if wake_at.take().is_some() {
                        fx.after(t.after, Ev::EngineSlot { n });
                    }
                }
                DneEffect::RouteMiss { .. } => {}
            }
        }
    }

    /// Node `n`'s engine core freed up: start its next unit of work.
    fn engine_slot(&mut self, now: Nanos, fx: &mut Effects<'_, Ev>, n: usize) {
        let li = self.li(n);
        let mut step = std::mem::take(&mut self.dne_fx);
        self.dnes[li].as_mut().expect("worker dne").on_engine_slot_into(now, &mut step);
        self.apply_dne_step(fx, n, &mut step);
        self.dne_fx = step;
    }

    /// The ingress could not send `req` on: untrack and free the TX buffer
    /// if one was taken, count the cause, and in overload mode hand the
    /// request to the retry budget (closed-loop clients are re-issued by
    /// the health plane once it reports the loss).
    fn gw_send_failed(
        &mut self,
        now: Nanos,
        fx: &mut Effects<'_, Ev>,
        req: u64,
        taken: Option<WrId>,
        cause: ShedCause,
    ) {
        self.counts.shed(cause);
        let li = self.li(self.ingress_node);
        let ing = self.ingress.as_mut().expect("ingress shard");
        if let Some(token) = taken.and_then(|wr_id| ing.tx.remove(wr_id.0)) {
            let _ = self.pools[li].free(token);
        }
        ing.send_failed(now, fx, req);
    }

    fn on_rdma_output(&mut self, now: Nanos, fx: &mut Effects<'_, Ev>, out: RdmaOutput) {
        match out {
            RdmaOutput::CqReady { node } => {
                let n = node.raw() as usize;
                let li = self.li(n);
                let mut cqes = std::mem::take(&mut self.cqe_scratch);
                cqes.clear();
                self.net.drain_cq_into(node, &mut cqes);
                if n == self.ingress_node {
                    for cqe in cqes.drain(..) {
                        self.on_ingress_cqe(now, fx, cqe);
                    }
                } else if let Some(dne) = self.dnes[li].as_mut() {
                    let mut step = std::mem::take(&mut self.dne_fx);
                    dne.drain_cq_into(now, &mut cqes, &mut step);
                    self.apply_dne_step(fx, n, &mut step);
                    self.dne_fx = step;
                } else {
                    self.on_host_cqes(n, &mut cqes);
                }
                self.cqe_scratch = cqes;
            }
            RdmaOutput::WriteDelivered { node, data, imm, .. } => {
                self.on_write_delivered(fx, node.raw() as usize, imm, data);
            }
            RdmaOutput::RnrSeen { node, .. } => {
                let n = node.raw() as usize;
                if n == self.ingress_node || matches!(self.spec.plane, DataPlane::Dne { .. }) {
                    self.replenish(n, 32);
                }
            }
            RdmaOutput::HeartbeatSeen { node, from }
                if node.raw() as usize == self.ingress_node =>
            {
                self.on_heartbeat_seen(now, fx, from)
            }
            _ => {}
        }
    }

    fn on_ingress_cqe(&mut self, now: Nanos, fx: &mut Effects<'_, Ev>, cqe: Cqe) {
        let li = self.li(self.ingress_node);
        let ing = self.ingress.as_mut().expect("ingress shard");
        match cqe.kind {
            CqeKind::Recv => {
                // A response payload arrived from a worker.
                let Some((_, token)) = ing.rbr.consume(cqe.wr_id) else {
                    return;
                };
                let consumed = ing.rbr.take_consumed(TENANT);
                let (req, _, pair) = unword(&cqe.data);
                self.pools[li]
                    .dma_write_bytes(&token, cqe.data, MoveKind::RnicDma, &mut self.meters[li])
                    .expect("dma into ingress buffer");
                let _ = self.pools[li].free(token);
                self.replenish(self.ingress_node, consumed);
                let ing = self.ingress.as_mut().expect("ingress shard");
                ing.submit(now, fx, req, pair, Leg::Outbound);
            }
            CqeKind::SendDone(_) => {
                if let Some(token) = ing.tx.remove(cqe.wr_id.0) {
                    let _ = self.pools[li].free(token);
                }
            }
        }
    }

    fn on_fn_done(&mut self, now: Nanos, fx: &mut Effects<'_, Ev>, n: usize, desc: BufDesc) {
        let li = self.li(n);
        // Consume the input buffer; the payload prefix carries the chain
        // position (see the module docs).
        let token = self.inbound_tokens[li]
            .remove(desc.buf_idx as usize)
            .expect("inbound token tracked");
        let (req, hop_idx, pair) = {
            let data = self.pools[li].read(&token);
            unword(data.expect("owned"))
        };
        let _ = self.pools[li].free(token);

        let f = desc.dst_fn;
        let (to, bytes) = {
            let chain = &self.chains[pair];
            if hop_idx < chain.hops.len() {
                let h = chain.hops[hop_idx];
                debug_assert_eq!(h.from, f, "chain hop source mismatch");
                (h.to, h.bytes)
            } else {
                (INGRESS_FN, chain.resp_bytes)
            }
        };

        let dst_node = self.node_of(to);
        let word = if to == INGRESS_FN {
            word_of(req, 0, pair)
        } else {
            word_of(req, hop_idx + 1, pair)
        };

        if dst_node == n && to != INGRESS_FN {
            // Local hop over SK_MSG: produce into a fresh buffer, pass the
            // descriptor — zero copies. NightCore routes it through its
            // gateway on the node's host engine, which it reaches first.
            let Ok(out) = self.pools[li].alloc(Owner::Function(f)) else {
                self.counts.shed_pool += 1;
                return;
            };
            let data = self.payloads.make(word, bytes);
            self.pools[li].produce_bytes(&out, data).expect("sized buffer");
            let desc = self.hand_to_fn(li, out, f, to);
            let ev = match self.price.dispatch {
                Some(_) => Ev::Host(HostEv::Dispatch { n, desc }),
                None => Ev::Deliver { n, desc },
            };
            let send_done = self.on_fn_core(n, now, self.price.local.send);
            fx.at(send_done + self.price.local.transit, ev);
            return;
        }

        // Remote hop (or response to the ingress): on every plane it reaches
        // the node's engine, a DNE or a host engine, one transit after its send.
        let handoff = match self.spec.plane {
            DataPlane::Host(_) => Ev::Host(HostEv::EngineRx { n, hop: Hop { from: f, to, word, bytes } }),
            DataPlane::Dne { .. } => {
                let Ok(out) = self.pools[li].alloc(Owner::Function(f)) else {
                    self.counts.shed_pool += 1;
                    return;
                };
                let data = self.payloads.make(word, bytes);
                self.pools[li].produce_bytes(&out, data).expect("sized buffer");
                Ev::EngineRx { n, desc: self.pools[li].into_transit(out, f, to).expect("owned") }
            }
        };
        let send_done = self.on_fn_core(n, now, self.price.engine.send);
        fx.at(send_done + self.price.engine.transit, handoff);
    }
}

impl ShardEngine for ClusterShard {
    type Ev = Ev;
    type Msg = Packet;

    fn on_event(&mut self, now: Nanos, ev: Ev, fx: &mut Effects<'_, Ev>, out: &mut Outbox<Packet>) {
        match ev {
            Ev::Issue { client } => {
                let pairs = self.chains.len();
                let ing = self.ingress.as_mut().expect("issue on ingress shard");
                let req = ing.reqs.push(ReqState::new(client, now, Phase::InFlight));
                ing.closed.issued += 1;
                // The preferred pair `req % pairs` unless the health plane
                // says otherwise; when nothing qualifies the request rides
                // the transport's retry machinery on the preferred pair.
                let pref = (req % pairs as u64) as usize;
                let pair = ing.pairs().place(pref, pairs, now).unwrap_or(pref);
                ing.start_on(now, fx, req, pair);
            }
            Ev::GwArrive { req, leg } => {
                let ing = self.ingress.as_mut().expect("ingress shard");
                let (_, pair) = ing.reqs.placement(req);
                ing.submit(now, fx, req, pair, leg);
            }
            Ev::GwIn { req } => {
                let ing = self.ingress.as_mut().expect("ingress shard");
                let (_, pair) = ing.reqs.placement(req);
                let (entry, bytes) = (self.chains[pair].entry, self.chains[pair].req_bytes);
                let entry_node = self.node_of(entry);
                // The word encodes hop 0.
                let word = word_of(req, 0, pair);
                if self.spec.ingress != IngressKind::Palladium {
                    let hop = Hop { from: INGRESS_FN, to: entry, word, bytes };
                    return self.ingress_via_tcp(fx, entry_node, hop);
                }
                // Early conversion: payload into a registered buffer, over
                // RDMA to the entry node's DNE. Every way that can fail
                // sheds the request, *attributed*, instead of panicking.
                let li = self.li(self.ingress_node);
                let data = self.payloads.make(word, bytes);
                let Ok(token) = self.pools[li].alloc(Owner::Ingress) else {
                    return self.gw_send_failed(now, fx, req, None, ShedCause::Pool);
                };
                self.pools[li]
                    .write_bytes(&token, data.clone(), &mut self.meters[li])
                    .expect("sized buffer");
                let ing = self.ingress.as_mut().expect("ingress shard");
                let wr_id = WrId(ing.tx.insert(token));
                // No QP: every one to the entry node is errored (transport
                // retry budget exhausted under chaos).
                let Some(qpn) = ing.conns.select(&self.net, NodeId(entry_node as u16), TENANT) else {
                    return self.gw_send_failed(now, fx, req, Some(wr_id), ShedCause::Qp);
                };
                self.meters[li].record(MoveKind::RnicDma, data.len() as u64);
                let wr = WorkRequest::send(wr_id, data, pack_imm(INGRESS_FN, entry, TENANT));
                let mut step = std::mem::take(&mut self.post_step);
                step.clear();
                let from = NodeId(self.ingress_node as u16);
                if self.net.post_send_into(now, from, qpn, wr, &mut step).is_err() {
                    self.gw_send_failed(now, fx, req, Some(wr_id), ShedCause::Qp);
                }
                fx.extend_drain(&mut step.events, Ev::Rdma);
                self.route_egress(now, out, &mut step);
                self.post_step = step;
            }
            Ev::Rdma(rdma_ev) => {
                let mut step = std::mem::take(&mut self.rdma_step);
                step.clear();
                self.net.handle_into(now, rdma_ev, &mut step);
                fx.extend_drain(&mut step.events, Ev::Rdma);
                self.route_egress(now, out, &mut step);
                for o in step.outputs.drain(..) {
                    self.on_rdma_output(now, fx, o);
                }
                self.rdma_step = step;
            }
            Ev::EngineSlot { n } => self.engine_slot(now, fx, n),
            Ev::PostSend { n, dst, tenant, wake, wr } => {
                let li = self.li(n);
                self.meters[li].record(MoveKind::RnicDma, wr.payload.len() as u64);
                let conn = self.dnes[li]
                    .as_mut()
                    .expect("worker dne")
                    .select_conn(&self.net, dst, tenant);
                if let Some(qpn) = conn {
                    let mut step = std::mem::take(&mut self.post_step);
                    step.clear();
                    if self
                        .net
                        .post_send_into(now, NodeId(n as u16), qpn, wr, &mut step)
                        .is_err()
                    {
                        // Errored QP (transport retries exhausted): shed
                        // the send — the ingress abandons and re-issues
                        // (closed loop) or retries within budget
                        // (overload) once the health plane reports the
                        // loss.
                        self.counts.shed_qp += 1;
                    }
                    fx.extend_drain(&mut step.events, Ev::Rdma);
                    self.route_egress(now, out, &mut step);
                    self.post_step = step;
                }
                if wake {
                    self.engine_slot(now, fx, n);
                }
            }
            Ev::ApplyDma { n, wake, token, data } => {
                let li = self.li(n);
                self.pools[li]
                    .dma_write_bytes(&token, data, MoveKind::RnicDma, &mut self.meters[li])
                    .expect("dma into posted buffer");
                self.pools[li]
                    .transfer(&token, Owner::Rnic, Owner::Engine)
                    .expect("rnic to engine");
                self.inbound_tokens[li].insert(token.idx() as usize, token);
                if wake {
                    self.engine_slot(now, fx, n);
                }
            }
            Ev::Deliver { n, desc } => {
                // Received at the price of the channel the message crossed.
                let channel = self.price.channel(self.node_of(desc.src_fn) == n);
                let mut service = channel.recv + self.fn_exec(desc.dst_fn);
                // Straggler windows scale the node's compute service time;
                // `chaos` is `None` on fault-free runs, leaving the
                // original path untouched.
                if let Some(ch) = &self.chaos {
                    let factor = ch.straggle_factor(n, now);
                    if factor != 1.0 {
                        service = service.scale(factor);
                    }
                }
                let done = self.on_fn_core(n, now, service);
                fx.at(done, Ev::FnDone { n, desc });
            }
            Ev::ReleaseTx { n, wake, token } => {
                let li = self.li(n);
                let _ = self.pools[li].free(token);
                if wake {
                    self.engine_slot(now, fx, n);
                }
            }
            Ev::Replenish { n, cnt } => {
                self.replenish(n, cnt);
            }
            Ev::EngineRx { n, desc } => {
                let li = self.li(n);
                let token = self.pools[li]
                    .redeem(&desc, Owner::Engine)
                    .expect("fn handed off buffer");
                let data = self.pools[li].read_bytes(&token).expect("owned");
                let mut step = std::mem::take(&mut self.dne_fx);
                self.dnes[li]
                    .as_mut()
                    .expect("worker dne")
                    .submit_tx_into(now, desc, data, Some(token), &mut step);
                self.apply_dne_step(fx, n, &mut step);
                self.dne_fx = step;
            }
            Ev::FnDone { n, desc } => {
                self.on_fn_done(now, fx, n, desc);
            }
            Ev::GwOut { req } => {
                let ing = self.ingress.as_mut().expect("ingress shard");
                ing.complete(now, fx, req);
            }
            Ev::HeartbeatTick { .. } | Ev::HealthCheck | Ev::RejoinDone { .. } => {
                self.on_health_event(now, ev, fx, out)
            }
            Ev::Arrive | Ev::Retry { .. } | Ev::ScaleTick | Ev::ScaleOutDone { .. } => {
                self.on_overload_event(now, ev, fx)
            }
            Ev::Host(ev) => self.on_host_event(now, fx, ev),
        }
    }

    #[inline]
    fn lift(&mut self, _at: Nanos, _src: u32, msg: Packet) -> Ev {
        Ev::Rdma(RdmaEvent::Arrive { pkt: msg })
    }
}
