//! Figs 11–12 driver: cross-node echo microbenchmarks.
//!
//! Two DNEs on different worker nodes act as an echo client/server pair,
//! one core each, over the real [`RdmaNet`] RC machinery:
//!
//! * [`EchoSim::run_primitive`] (Fig 12): the bare DNEs exchange messages
//!   with one of the §2.1 primitive designs:
//!   - **Two-sided** SEND/RECV (Palladium's choice): receiver posts
//!     buffers, no locks, no copies.
//!   - **OWDL** — one-sided WRITE with distributed locks: every transfer
//!     first acquires a remote lock/buffer grant (a full control round
//!     trip), then writes, then the receiver polls for arrival.
//!   - **OWRC** — one-sided WRITE into a dedicated RDMA pool with a
//!     receiver-side copy into the local pool; *Best* hits cache, *Worst*
//!     goes to main memory (the paper's TLB-flushed variant).
//! * [`EchoSim::run_path_mode`] (Fig 11): the two-sided echo with an echo
//!   *function* in front of each DNE, reached over Comch-E, with the DNE
//!   either **off-path** (cross-processor shared memory; RNIC DMAs straight
//!   to host buffers) or **on-path** (payloads staged through DPU memory,
//!   paying the SoC DMA engine in both directions).
//!
//! Both figures run one engine on the shared [`palladium_simnet::Harness`]:
//! the primitive and the optional function pair are its data. A message
//! reaches each station (function core, SoC DMA engine, DNE core) by an
//! event and books it at that event's `now`, never ahead of the clock.
//! Every service time it charges comes from [`crate::price`], by the
//! cluster's rule: a Fig 11 function pays Comch-E's send and receive on
//! its own core, so each echo costs it `recv + send + exec`.

use crate::driver::LoadReport;
use crate::price::{DneOps, Prices};
use crate::system::SystemKind;
use palladium_dpu::{SocDma, SocDmaSpec};
use palladium_membuf::{MmapExporter, NodeId, PayloadCache, PoolId, Region, TenantId};
use palladium_rdma::{
    Cqe, CqeKind, Qpn, RdmaConfig, RdmaEvent, RdmaNet, RdmaOutput, RemoteAddr, RqEntry, Step,
    WorkRequest, WrId,
};
use palladium_simnet::{Effects, Engine, FifoServer, Harness, Nanos, RunStats};

/// RDMA primitive under test (Fig 12).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Primitive {
    /// Two-sided SEND/RECV — Palladium (§2.1 Design Implication#3).
    TwoSided,
    /// One-sided write with distributed locks (Fig 2 (1)).
    Owdl,
    /// One-sided write + receiver copy, cache-resident (Fig 2 (2), best).
    OwrcBest,
    /// One-sided write + receiver copy, main-memory (TLB-flushed worst).
    OwrcWorst,
}

impl Primitive {
    /// All four variants in paper order.
    pub const ALL: [Primitive; 4] = [
        Primitive::TwoSided,
        Primitive::OwrcBest,
        Primitive::OwrcWorst,
        Primitive::Owdl,
    ];

    /// The message a node sends first to move one payload.
    fn opening(self) -> MsgKind {
        match self {
            Primitive::TwoSided => MsgKind::Send,
            Primitive::OwrcBest | Primitive::OwrcWorst => MsgKind::Write,
            Primitive::Owdl => MsgKind::Control(LOCK_REQ),
        }
    }
}

/// DPU offloading mode (Fig 11).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PathMode {
    /// Cross-processor shared memory; the DNE stays off the data path
    /// (Palladium, Fig 3 (2)).
    OffPath,
    /// Data staged through DPU-local buffers via the SoC DMA engine
    /// (Fig 3 (1)).
    OnPath,
}

/// Configuration shared by both echo experiments.
#[derive(Clone, Copy, Debug)]
pub struct EchoConfig {
    /// Message payload bytes.
    pub payload: u32,
    /// Concurrent echo connections.
    pub connections: usize,
    /// Measurement window.
    pub duration: Nanos,
    /// Warm-up.
    pub warmup: Nanos,
}

impl EchoConfig {
    /// Paper defaults: single connection, 60 ms window.
    pub fn new(payload: u32) -> Self {
        EchoConfig {
            payload,
            connections: 1,
            duration: Nanos::from_millis(60),
            warmup: Nanos::from_millis(10),
        }
    }

    /// Set the concurrency level.
    pub fn connections(mut self, n: usize) -> Self {
        self.connections = n;
        self
    }
}

/// The fabric is fault-free, so its seed is never drawn.
const FABRIC_SEED: u64 = 7;

const CLIENT: NodeId = NodeId(0);
const SERVER: NodeId = NodeId(1);
const TENANT: TenantId = TenantId(1);

/// Immediate-word encoding: the low 32 bits carry the connection, the bits
/// above name the OWDL control message (zero for a payload).
const CONN_MASK: u64 = 0xFFFF_FFFF;
const LOCK_REQ: u64 = 1 << 32;
const LOCK_GRANT: u64 = 2 << 32;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum MsgKind {
    /// A two-sided payload.
    Send,
    /// A one-sided payload write into the peer's pool.
    Write,
    /// A 16-byte OWDL control message: [`LOCK_REQ`] or [`LOCK_GRANT`].
    Control(u64),
}

#[derive(Debug)]
enum Ev {
    Rdma(RdmaEvent),
    /// `node` produces its next message on `conn`: the client a new
    /// request, the server the echo (Fig 11: the client's first request;
    /// a function echoes on receiving).
    Post { node: NodeId, conn: usize },
    /// Fig 11, on-path: the message reaches `node`'s SoC DMA engine, from
    /// the function (`outbound`) or from the DNE.
    Dma { node: NodeId, conn: usize, outbound: bool },
    /// Fig 11: the function's message reaches `node`'s DNE core.
    Send { node: NodeId, conn: usize },
    /// The message reached `node`'s DNE (Fig 12) or function (Fig 11): the
    /// one place a client completes (Fig 11: once its function has
    /// received it).
    Received { node: NodeId, conn: usize },
    /// A one-sided write became visible to the polling receiver.
    PollVisible { node: NodeId, conn: usize },
}

/// Fig 11's echo functions, one per node in front of its DNE, reached over
/// Comch-E at the prices `p` of a DPU DNE; on-path mode stages every
/// payload through DPU memory. Each method schedules the event of the
/// message's next station.
struct HostPair {
    mode: PathMode,
    fn_cores: [FifoServer; 2],
    dmas: [SocDma; 2],
}

impl HostPair {
    fn new(mode: PathMode) -> Self {
        let dma = || SocDma::new(SocDmaSpec::default());
        HostPair {
            mode,
            fn_cores: [FifoServer::new(), FifoServer::new()],
            dmas: [dma(), dma()],
        }
    }

    /// The function at `node` runs, queued on its core at `now`, and sends
    /// over Comch-E to the DNE (on-path: to the SoC DMA engine first).
    fn send(&mut self, p: &Prices, fx: &mut Effects<'_, Ev>, node: NodeId, conn: usize, now: Nanos) {
        let sent = self.fn_cores[node.raw() as usize].submit(now, p.engine.send + Prices::ECHO_FN_EXEC);
        let next = match self.mode {
            PathMode::OffPath => Ev::Send { node, conn },
            PathMode::OnPath => Ev::Dma { node, conn, outbound: true },
        };
        fx.at(sent + p.engine.transit, next);
    }

    /// The DNE side at `node` lets the message go at `at`: on-path to the
    /// SoC DMA engine unless `staged`, then over Comch-E to the function.
    fn deliver(&self, p: &Prices, fx: &mut Effects<'_, Ev>, node: NodeId, conn: usize, at: Nanos, staged: bool) {
        match self.mode {
            PathMode::OnPath if !staged => fx.at(at, Ev::Dma { node, conn, outbound: false }),
            _ => fx.at(at + p.engine.transit, Ev::Received { node, conn }),
        }
    }

    /// The message reached the function at `node` at `now`: its core takes
    /// it off Comch-E, and the function runs on it right behind that
    /// receive. Returns when the receive is done.
    fn receive(&mut self, p: &Prices, fx: &mut Effects<'_, Ev>, node: NodeId, conn: usize, now: Nanos) -> Nanos {
        let received = self.fn_cores[node.raw() as usize].submit(now, p.engine.recv);
        self.send(p, fx, node, conn, now);
        received
    }
}

/// The echo pair: the fabric, the two DNE cores, optionally the function
/// pair, and the bookkeeping.
struct EchoEngine {
    prim: Primitive,
    /// Fig 11's function pair; `None` for Fig 12's bare DNEs.
    host: Option<HostPair>,
    /// Palladium (DNE)'s: the functions talk Comch-E to a DPU DNE, as the
    /// cluster's do.
    prices: Prices,
    /// Fig 12: the OWDL lock manager's processing and the OWRC receiver's
    /// copy, per message ([`Prices::primitive`]).
    lock: Nanos,
    copy: Nanos,
    net: RdmaNet,
    /// `(client QP, server QP)` per connection.
    qpns: Vec<(Qpn, Qpn)>,
    engines: [FifoServer; 2],
    stats: RunStats,
    issued: Vec<Nanos>,
    next_wr: u64,
    payload: u32,
    /// Reused CQ-drain scratch: each doorbell wakeup drains the node's
    /// whole backlog into this buffer (no per-wakeup allocation).
    cqe_scratch: Vec<Cqe>,
    /// Reused fabric step (cleared between events) so steady-state
    /// stepping of the dominant event source performs no allocation.
    rdma_step: Step,
    /// Separate reused step for posts — `rdma_step` is checked out while
    /// an `Ev::Rdma` event (whose handlers also post) is in flight.
    post_step: Step,
    /// Recycled fabricated payloads (shared cache, see
    /// [`palladium_membuf::PayloadCache`]): the echo loops fabricate one
    /// payload per message forever, so this path must not allocate in
    /// steady state (`alloc_smoke` gates it alongside the chain driver).
    payloads: PayloadCache,
}

impl EchoEngine {
    fn new(cfg: EchoConfig, prim: Primitive, host: Option<HostPair>) -> Self {
        let mut net = RdmaNet::new(RdmaConfig::default(), 2, FABRIC_SEED);
        for node in [CLIENT, SERVER] {
            let mut e = MmapExporter::new(PoolId(node.raw()), TENANT, Region::hugepages(64 << 20));
            net.register_mr(node, &e.export_rdma()).expect("MR");
        }
        let qpns = (0..cfg.connections)
            .map(|_| net.connect_immediate(CLIENT, SERVER, TENANT))
            .collect();
        let (lock, copy) = Prices::primitive(prim, u64::from(cfg.payload));
        let mut engine = EchoEngine {
            prim,
            host,
            prices: Prices::of(SystemKind::PalladiumDne),
            lock,
            copy,
            net,
            qpns,
            engines: [FifoServer::new(), FifoServer::new()],
            stats: RunStats::new(cfg.warmup),
            issued: vec![Nanos::ZERO; cfg.connections],
            next_wr: 1,
            payload: cfg.payload,
            cqe_scratch: Vec::new(),
            rdma_step: Step::default(),
            post_step: Step::default(),
            payloads: PayloadCache::new(),
        };
        engine.post_rq(CLIENT, 4 * cfg.connections as u64 + 64);
        engine.post_rq(SERVER, 4 * cfg.connections as u64 + 64);
        engine
    }

    fn post_rq(&mut self, node: NodeId, n: u64) {
        for _ in 0..n {
            let wr_id = WrId(self.next_wr);
            self.next_wr += 1;
            self.net
                .post_recv(node, TENANT, RqEntry { wr_id, pool: PoolId(node.raw()), capacity: 16_384 })
                .expect("registered pool");
        }
    }

    /// One op on `node`'s DNE core, submitted at `now`; returns when it
    /// finishes.
    fn engine_op(&mut self, node: NodeId, now: Nanos, service: Nanos) -> Nanos {
        self.engines[node.raw() as usize].submit(now, service)
    }

    /// `node`'s DNE core takes the message on `conn` at `now` and posts it.
    fn dne_send(&mut self, fx: &mut Effects<'_, Ev>, node: NodeId, conn: usize, now: Nanos) {
        let done = self.engine_op(node, now, DneOps::ECHO_OP);
        self.post(fx, node, conn, done, self.prim.opening());
    }

    /// Post one message of `kind` from `node` on `conn` at `at`, which may
    /// be ahead of the clock: each connection's QP carries one message at a
    /// time, so no earlier kick can send it before `at`.
    fn post(
        &mut self,
        fx: &mut Effects<'_, Ev>,
        node: NodeId,
        conn: usize,
        at: Nanos,
        kind: MsgKind,
    ) {
        let (qc, qs) = self.qpns[conn];
        let (qpn, peer) = if node == CLIENT { (qc, SERVER) } else { (qs, CLIENT) };
        let wr_id = WrId(self.next_wr);
        self.next_wr += 1;
        let imm = conn as u64;
        let wr = match kind {
            MsgKind::Send => {
                WorkRequest::send(wr_id, self.payloads.make_exact(wr_id.0, self.payload), imm)
            }
            MsgKind::Write => WorkRequest::write(
                wr_id,
                self.payloads.make_exact(wr_id.0, self.payload),
                RemoteAddr { pool: PoolId(peer.raw()), buf_idx: conn as u32 },
                imm,
            ),
            MsgKind::Control(tag) => {
                WorkRequest::send(wr_id, self.payloads.make(wr_id.0, 16), imm | tag)
            }
        };
        let mut step = std::mem::take(&mut self.post_step);
        step.clear();
        self.net.post_send_into(at, node, qpn, wr, &mut step).expect("post");
        fx.extend_at_drain(at, &mut step.events, Ev::Rdma);
        self.post_step = step;
    }

    /// A receive completion on `node`.
    fn on_recv(&mut self, now: Nanos, fx: &mut Effects<'_, Ev>, node: NodeId, imm: u64) {
        let conn = (imm & CONN_MASK) as usize;
        match imm & !CONN_MASK {
            LOCK_REQ => {
                // The lock manager locks a local buffer and replies with the
                // grant (§2.1 Fig 2 (1) steps 1–3).
                let done = self.engine_op(node, now, self.lock);
                self.post(fx, node, conn, done, MsgKind::Control(LOCK_GRANT));
            }
            LOCK_GRANT => {
                // Lock granted: issue the payload write.
                let done = self.engine_op(node, now, DneOps::ECHO_OP);
                self.post(fx, node, conn, done, MsgKind::Write);
            }
            _ => {
                // A two-sided payload: engine RX, then (Fig 11) the hand-off
                // toward the function.
                let done = self.engine_op(node, now, DneOps::ECHO_OP);
                match &self.host {
                    None => fx.at(done, Ev::Received { node, conn }),
                    Some(host) => host.deliver(&self.prices, fx, node, conn, done, false),
                }
            }
        }
    }
}

impl Engine for EchoEngine {
    type Ev = Ev;

    fn on_event(&mut self, now: Nanos, ev: Ev, fx: &mut Effects<'_, Ev>) {
        match ev {
            Ev::Post { node, conn } => match &mut self.host {
                Some(host) => host.send(&self.prices, fx, node, conn, now),
                None => self.dne_send(fx, node, conn, now),
            },
            Ev::Dma { node, conn, outbound } => {
                // On-path: a read on to the DNE, or a write back to the
                // function.
                let host = self.host.as_mut().expect("only Fig 11 stages through DPU memory");
                let (dma, bytes) = (&mut host.dmas[node.raw() as usize], self.payload as u64);
                if outbound {
                    fx.at(dma.transfer(now, bytes), Ev::Send { node, conn });
                } else {
                    let written = dma.transfer_write(now, bytes);
                    host.deliver(&self.prices, fx, node, conn, written, true);
                }
            }
            Ev::Send { node, conn } => self.dne_send(fx, node, conn, now),
            Ev::Received { node, conn } => {
                // The server echoes; the client completes and re-issues
                // (every client starts at time zero). Fig 11's function
                // receives the message first.
                let done = match &mut self.host {
                    Some(host) => host.receive(&self.prices, fx, node, conn, now),
                    None => {
                        fx.now_ev(Ev::Post { node, conn });
                        now
                    }
                };
                if node == CLIENT {
                    self.stats.complete(done, self.issued[conn]);
                    self.issued[conn] = done;
                }
            }
            Ev::PollVisible { node, conn } => {
                // The polling receiver noticed the one-sided write; OWRC
                // pays the receiver-side copy, OWDL only a pickup op.
                let done = self.engine_op(node, now, DneOps::ECHO_OP + self.copy);
                fx.at(done, Ev::Received { node, conn });
            }
            Ev::Rdma(rdma_ev) => {
                // Reuse one Step across the run: the fabric is the
                // dominant event source, so this path must not allocate.
                let mut step = std::mem::take(&mut self.rdma_step);
                step.clear();
                self.net.handle_into(now, rdma_ev, &mut step);
                fx.extend_drain(&mut step.events, Ev::Rdma);
                for out in step.outputs.drain(..) {
                    match out {
                        RdmaOutput::CqReady { node } => {
                            // One doorbell wakeup retires the whole CQ
                            // window (the drain re-arms the doorbell).
                            let mut cqes = std::mem::take(&mut self.cqe_scratch);
                            cqes.clear();
                            self.net.drain_cq_into(node, &mut cqes);
                            for cqe in cqes.drain(..) {
                                if let CqeKind::Recv = cqe.kind {
                                    // Keep the RQ replenished (the core-
                                    // thread duty, §3.5.2) so senders never
                                    // hit RNR.
                                    self.post_rq(node, 1);
                                    self.on_recv(now, fx, node, cqe.imm);
                                }
                            }
                            self.cqe_scratch = cqes;
                        }
                        RdmaOutput::WriteDelivered { node, imm, .. } => {
                            // Receiver is polling: visible after half a
                            // period.
                            let conn = (imm & CONN_MASK) as usize;
                            fx.after(self.prices.poll_wait, Ev::PollVisible { node, conn });
                        }
                        RdmaOutput::RnrSeen { node, .. } => {
                            self.post_rq(node, 32);
                        }
                        _ => {}
                    }
                }
                self.rdma_step = step;
            }
        }
    }
}

/// The echo simulator.
pub struct EchoSim {
    cfg: EchoConfig,
}

impl EchoSim {
    /// Build the simulator.
    pub fn new(cfg: EchoConfig) -> Self {
        EchoSim { cfg }
    }

    /// Run the echo pair until the window closes; returns the report and
    /// the number of simulation events processed.
    fn run(&self, prim: Primitive, host: Option<HostPair>) -> (LoadReport, u64) {
        let cfg = self.cfg;
        let mut engine = EchoEngine::new(cfg, prim, host);
        let mut harness: Harness<Ev> = Harness::new();
        // Kick off every connection from the client.
        for conn in 0..cfg.connections {
            harness.schedule_at(Nanos::ZERO, Ev::Post { node: CLIENT, conn });
        }
        harness.run(&mut engine, cfg.warmup + cfg.duration);
        (engine.stats.report(cfg.duration), harness.events_fired())
    }

    /// Fig 12: primitive-selection echo between two bare DNEs.
    pub fn run_primitive(&self, prim: Primitive) -> LoadReport {
        self.run(prim, None).0
    }

    /// [`EchoSim::run_primitive`], also returning the number of simulation
    /// events processed — the denominator of the `alloc_smoke` zero-alloc
    /// gate on this driver.
    pub fn run_primitive_counted(&self, prim: Primitive) -> (LoadReport, u64) {
        self.run(prim, None)
    }

    /// Fig 11: off-path vs on-path function echo through DNEs (two-sided).
    pub fn run_path_mode(&self, mode: PathMode) -> LoadReport {
        self.run(Primitive::TwoSided, Some(HostPair::new(mode))).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rtt(prim: Primitive, payload: u32) -> Nanos {
        EchoSim::new(EchoConfig::new(payload))
            .run_primitive(prim)
            .mean_latency
    }

    #[test]
    fn two_sided_64b_matches_paper_8_4us() {
        let t = rtt(Primitive::TwoSided, 64);
        assert!(
            t >= Nanos::from_nanos(7_800) && t <= Nanos::from_nanos(9_200),
            "two-sided 64B RTT {t} (paper: 8.4µs)"
        );
    }

    #[test]
    fn both_path_modes_saturate_the_function_core() {
        // Each echo runs each node's function once, so both modes are
        // bound by the function core's demand: Comch's host receive and
        // send plus the echo function. A run at N connections counts its
        // rate to within N ÷ T.
        let comch = Prices::of(SystemKind::PalladiumDne).engine;
        let demand = comch.recv + comch.send + Prices::ECHO_FN_EXEC;
        let bound = 1e9 / demand.as_nanos() as f64;
        for conns in [20, 50] {
            let cfg = EchoConfig { duration: Nanos::from_millis(20), ..EchoConfig::new(1024).connections(conns) };
            let slack = conns as f64 / cfg.duration.as_secs_f64();
            for mode in [PathMode::OffPath, PathMode::OnPath] {
                let x = EchoSim::new(cfg).run_path_mode(mode).rps;
                assert!((x - bound).abs() <= slack, "{mode:?} at {conns} conns: X = {x:.0}, 1 ÷ D = {bound:.0} ± {slack:.0}");
            }
        }
    }

    #[test]
    fn deterministic() {
        let a = rtt(Primitive::TwoSided, 1024);
        let b = rtt(Primitive::TwoSided, 1024);
        assert_eq!(a, b);
    }
}
