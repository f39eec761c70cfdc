//! `RdmaNet` — the fabric orchestrator tying QPs, RNICs and links together.
//!
//! `RdmaNet` is a *sub-simulator* with one way through it:
//!
//! * **connect** — [`RdmaNet::connect_immediate`] (or
//!   [`RdmaNet::connect_pair_immediate`] across two span instances) wires
//!   a pre-warmed RC pair straight into RTS, as the §3.3 connection pool
//!   does at startup;
//! * **post** — [`RdmaNet::post_send_into`] queues a SEND or WRITE;
//! * **step** — [`RdmaNet::handle_into`] advances one [`RdmaEvent`];
//! * **reap** — [`RdmaNet::drain_cq_into`] takes a node's whole CQ
//!   backlog when a [`RdmaOutput::CqReady`] says it is non-empty.
//!
//! Posting and stepping append to a caller-owned [`Step`]: (a) timed
//! [`RdmaEvent`]s the driver must re-inject into its own event loop and (b)
//! [`RdmaOutput`]s describing externally visible effects (completions
//! ready, one-sided writes landed, QPs failed). This keeps the RDMA
//! protocol fully testable on its own: the unit tests below run entire
//! lossy-fabric exchanges by trampolining events through a bare
//! [`palladium_simnet::Sim`].
//!
//! Reliability model (RC, message granularity): go-back-N with cumulative
//! ACKs, NAK-on-gap, RNR NAK + retry for SENDs without receive buffers, and
//! an RTO guarding ACK loss. Corrupted frames are dropped by the receiver's
//! CRC check and recovered the same way. Faults are injected per
//! destination port from that node's [`FaultTimeline`]
//! ([`RdmaNet::set_node_fault`]), per directed link, and by partition
//! windows.

use bytes::Bytes;

use palladium_membuf::{MmapExport, NodeId, TenantId};
use palladium_simnet::{FaultTimeline, Nanos, SimRng, Timed, Verdict};

use crate::config::RdmaConfig;
use crate::fabric::{Packet, PacketKind};
use crate::mr::MrKey;
use crate::qp::{Inflight, RxDecision};
use crate::rnic::{Rnic, RnicError, RqEntry};
use crate::verbs::{Cqe, CqeKind, CqeStatus, OpKind, Qpn, RemoteAddr, WorkRequest};

/// Events `RdmaNet` schedules for itself; drivers wrap them in their own
/// event enum and hand them back via [`RdmaNet::handle_into`].
#[derive(Clone, Debug)]
pub enum RdmaEvent {
    /// Try to transmit pending SQ entries on a QP.
    TxKick {
        /// Node owning the QP.
        node: NodeId,
        /// The QP.
        qpn: Qpn,
    },
    /// A frame reaches the destination NIC (pre fault-injection).
    Arrive {
        /// The frame, carried by value: driver event queues store their
        /// payloads in a slot vector (`palladium_simnet::queue`), so a
        /// wide event variant costs nothing in queue-entry moves and the
        /// per-frame box the seed recycled here is gone entirely.
        pkt: Packet,
    },
    /// A frame a gray link delayed reaches the destination NIC's receive
    /// engine, its fault verdict already drawn at [`RdmaEvent::Arrive`].
    RxReach {
        /// The frame (same value the `Arrive` carried).
        pkt: Packet,
    },
    /// The destination NIC finished receive processing of a frame.
    RxDone {
        /// The frame (same value the `Arrive` carried).
        pkt: Packet,
    },
    /// Retransmission-timeout check.
    RtoCheck {
        /// Node owning the QP.
        node: NodeId,
        /// The QP.
        qpn: Qpn,
        /// Epoch the timer was armed under (stale timers are ignored).
        epoch: u64,
    },
    /// End of an RNR backoff; transmission resumes.
    RnrResume {
        /// Node owning the QP.
        node: NodeId,
        /// The QP.
        qpn: Qpn,
    },
}

/// Externally visible effects of a step.
#[derive(Clone, Debug)]
pub enum RdmaOutput {
    /// `node`'s shared CQ went non-empty and its doorbell was armed: drain
    /// it with [`RdmaNet::drain_cq_into`], which takes the whole backlog
    /// and re-arms the doorbell. At most one `CqReady` is raised per node
    /// between drains.
    CqReady {
        /// Node whose CQ has entries.
        node: NodeId,
    },
    /// A one-sided WRITE landed in `node`'s memory (receiver CPU oblivious —
    /// no CQE; delivered to the driver so it can apply the DMA to the pool).
    WriteDelivered {
        /// Target node.
        node: NodeId,
        /// Target buffer address.
        addr: RemoteAddr,
        /// The written bytes.
        data: Bytes,
        /// Sender immediate data.
        imm: u64,
        /// Tenant owning the target QP.
        tenant: TenantId,
    },
    /// The receiver NAK'd a SEND for lack of buffers — the DNE core thread
    /// should replenish the tenant's RQ (§3.5.2).
    RnrSeen {
        /// Node that ran out of receive buffers.
        node: NodeId,
        /// Tenant whose RQ is empty.
        tenant: TenantId,
    },
    /// A liveness probe survived the fabric and reached `node` — feed it
    /// to the driver's health monitor.
    HeartbeatSeen {
        /// Node that heard the probe.
        node: NodeId,
        /// Node the probe came from.
        from: NodeId,
    },
}

/// The result of poking the sub-simulator.
#[derive(Debug, Default)]
pub struct Step {
    /// Events to re-inject (relative delays).
    pub events: Vec<Timed<RdmaEvent>>,
    /// Externally visible effects.
    pub outputs: Vec<RdmaOutput>,
    /// Frames leaving this fabric instance, populated only in sharded
    /// egress mode ([`RdmaNet::set_sharded_egress`]): each entry is a
    /// fully timed in-flight frame (`after` = egress service +
    /// propagation) that the driver must route to the destination node's
    /// fabric — across shards via the mailbox, or locally by lifting it
    /// back into [`RdmaEvent::Arrive`]. Every delay is ≥
    /// [`RdmaConfig::frame_lookahead`].
    pub egress: Vec<Timed<Packet>>,
}

impl Step {
    fn push_event(&mut self, after: Nanos, ev: RdmaEvent) {
        self.events.push(Timed::new(after, ev));
    }

    /// Empty the lists, keeping their capacity — drivers reuse one `Step`
    /// across [`RdmaNet::handle_into`] calls so steady-state stepping
    /// allocates nothing.
    pub fn clear(&mut self) {
        self.events.clear();
        self.outputs.clear();
        self.egress.clear();
    }
}

/// The fabric's fault and recovery counters: the ones a report or an
/// example reads (a sharded driver sums its instances' into its
/// `ChaosReport`). A protocol counter comes back with its reader.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetCounts {
    /// Frames a stochastic fault plan dropped at the destination port.
    pub drop: u64,
    /// Frames dropped inside a partition window (no RNG draw).
    pub crash_drop: u64,
    /// Frames a fault plan corrupted in flight.
    pub corrupt: u64,
    /// Corrupted frames the receiver's CRC check discarded.
    pub crc_drop: u64,
    /// Retransmission-timeout firings.
    pub rto: u64,
    /// SENDs that met an empty receive queue and were RNR-NAKed.
    pub rnr_nak: u64,
    /// Go-back-N rewinds a NAK triggered at the sender.
    pub nak_rewind: u64,
}

/// The simulated multi-node RDMA fabric.
///
/// Usually one instance spans every node (`new`). A sharded driver
/// instead builds one instance per shard over that shard's node block
/// (`with_span`) with sharded egress mode on: frames then leave through
/// [`Step::egress`] instead of being scheduled as local [`RdmaEvent::Arrive`]
/// events, and the driver routes them — through the deterministic
/// mailboxes for remote shards, or straight back into the local instance.
/// All QP/CQ/RTO machinery is per-node already, so a span instance is a
/// full fabric for its nodes; the *only* cross-instance coupling is the
/// frame stream.
pub struct RdmaNet {
    cfg: RdmaConfig,
    /// First global node id this instance owns (`rnics[i]` serves node
    /// `base + i`). 0 for a whole-fabric instance.
    base: usize,
    rnics: Vec<Rnic>,
    /// Sharded egress mode: `transmit` emits *every* inter-node frame via
    /// [`Step::egress`] (same-span destinations included — routing all
    /// frames uniformly is what makes sharded runs shard-count-invariant).
    sharded_egress: bool,
    /// Per-owned-node fault timelines (indexed `node - base`); empty means
    /// a fault-free port.
    node_faults: Vec<FaultTimeline>,
    /// Directed-link fault timelines (indexed `dst - base`, entries keyed
    /// by global *source* id): gray faults pinned to one `src → dst`
    /// direction. A non-none link plan overrides the port plan for
    /// that frame only; verdicts still draw from the destination node's
    /// stream, so link faults stay shard-count invariant.
    link_faults: Vec<Vec<(u16, FaultTimeline)>>,
    /// Per-owned-node fault RNG streams, keyed by **global** node id via
    /// [`SimRng::stream`]: the verdict sequence a destination node draws
    /// is identical no matter how the fabric is sharded, which is what
    /// makes faulty runs shard-count invariant (a net-level RNG would
    /// interleave verdicts differently per shard layout).
    fault_rngs: Vec<SimRng>,
    /// Network-partition windows per **global** node id (covering the
    /// whole fabric, not just this span — a frame's *source* may live on
    /// another shard). Frames whose source or destination is inside a
    /// window are dropped at the destination port with no RNG draw.
    down: Vec<Vec<(Nanos, Nanos)>>,
    /// Fabric-wide fault and recovery counters.
    pub counters: NetCounts,
    /// Scratch for cumulative-ACK retirement (one use per ACK frame).
    ack_scratch: Vec<Inflight>,
    /// Scratch for a transmit window's frames (one use per TX kick).
    frame_scratch: Vec<PacketKind>,
}

impl RdmaNet {
    /// A fabric of `n_nodes` RNICs with the given config and RNG seed.
    pub fn new(cfg: RdmaConfig, n_nodes: usize, seed: u64) -> Self {
        Self::with_span(cfg, 0..n_nodes, seed)
    }

    /// A fabric instance owning only the nodes in `span` (a shard's node
    /// block). Node ids stay *global*: `rnic(NodeId(n))` expects
    /// `span.start <= n < span.end`. `new` is `with_span(cfg, 0..n, seed)`.
    pub fn with_span(cfg: RdmaConfig, span: std::ops::Range<usize>, seed: u64) -> Self {
        RdmaNet {
            cfg,
            base: span.start,
            fault_rngs: span.clone().map(|i| SimRng::stream(seed, i as u64)).collect(),
            node_faults: span.clone().map(|_| FaultTimeline::new()).collect(),
            link_faults: span.clone().map(|_| Vec::new()).collect(),
            rnics: span.map(|_| Rnic::default()).collect(),
            sharded_egress: false,
            down: Vec::new(),
            counters: NetCounts::default(),
            ack_scratch: Vec::new(),
            frame_scratch: Vec::new(),
        }
    }

    /// Toggle sharded egress mode (see [`Step::egress`]). Off, frames are
    /// self-scheduled as [`RdmaEvent::Arrive`]; on, the driver owns frame
    /// routing for *all* destinations.
    pub fn set_sharded_egress(&mut self, on: bool) {
        self.sharded_egress = on;
    }

    /// Install a fault timeline on one node's ingress port (`node` is
    /// global and must lie in this instance's span). Every frame arriving
    /// at `node` is judged by the plan active at its arrival instant; an
    /// empty timeline is a fault-free port. Setting the same timeline on
    /// every node is the fabric-wide fault.
    pub fn set_node_fault(&mut self, node: NodeId, timeline: FaultTimeline) {
        let idx = node.raw() as usize - self.base;
        self.node_faults[idx] = timeline;
    }

    /// Install a fault timeline on the directed link `src → dst` (`dst`
    /// must lie in this instance's span; `src` is any global node). While
    /// the timeline has an active plan it overrides the port plan for
    /// frames on that link only — the reverse direction and every other
    /// source are untouched, which is what makes a gray fault asymmetric.
    pub fn set_link_fault(&mut self, src: NodeId, dst: NodeId, timeline: FaultTimeline) {
        let idx = dst.raw() as usize - self.base;
        let entries = &mut self.link_faults[idx];
        match entries.iter_mut().find(|(s, _)| *s == src.raw()) {
            Some((_, tl)) => *tl = timeline,
            None => entries.push((src.raw(), timeline)),
        }
    }

    /// Install the fabric-wide network-partition table: per **global**
    /// node, windows `[from, until)` during which every frame with that
    /// node as source or destination is dropped at the destination port
    /// (deterministically — no RNG draw). Every shard instance must hold
    /// the *full* table, since arriving frames may originate anywhere.
    pub fn set_down_windows(&mut self, down: Vec<Vec<(Nanos, Nanos)>>) {
        self.down = down;
    }

    #[inline]
    fn node_down(&self, node: NodeId, now: Nanos) -> bool {
        self.down
            .get(node.raw() as usize)
            .is_some_and(|w| w.iter().any(|&(f, u)| now >= f && now < u))
    }

    /// Borrow a node's RNIC (`node` is global; it must lie in this
    /// instance's span).
    pub fn rnic(&self, node: NodeId) -> &Rnic {
        &self.rnics[node.raw() as usize - self.base]
    }

    /// Mutably borrow a node's RNIC.
    pub fn rnic_mut(&mut self, node: NodeId) -> &mut Rnic {
        &mut self.rnics[node.raw() as usize - self.base]
    }

    /// Register a memory region on `node` from a DOCA mmap export.
    pub fn register_mr(&mut self, node: NodeId, export: &MmapExport) -> Result<MrKey, RnicError> {
        self.rnic_mut(node).register_mr(export)
    }

    /// Wire a pre-warmed RC connection between `a` and `b` for `tenant`,
    /// both halves in RTS at once. This (with
    /// [`RdmaNet::connect_pair_immediate`]) is the only way to connect:
    /// the §3.3 connection pool pre-warms every connection before traffic,
    /// so no run waits on a handshake. The one setup cost a run ever pays
    /// is the rejoin bill's per-QP `qp_setup`, charged by the driver.
    pub fn connect_immediate(&mut self, a: NodeId, b: NodeId, tenant: TenantId) -> (Qpn, Qpn) {
        let qa = self.rnic_mut(a).create_qp(tenant, b, Qpn(0));
        let qb = self.rnic_mut(b).create_qp(tenant, a, qa);
        self.rnic_mut(a).set_peer(qa, qb);
        self.rnic_mut(a).qp_mut(qa).expect("fresh qp").set_ready();
        self.rnic_mut(b).qp_mut(qb).expect("fresh qp").set_ready();
        (qa, qb)
    }

    /// [`RdmaNet::connect_immediate`] for endpoints living in two
    /// *different* per-shard fabric instances (sharded cluster wiring):
    /// identical create/peer/ready sequence, so the per-RNIC QPN
    /// allocation — and with it every report byte — matches what a single
    /// whole-fabric instance would have produced, as long as the caller
    /// wires connections in one canonical global order at every shard
    /// count.
    pub fn connect_pair_immediate(
        net_a: &mut RdmaNet,
        a: NodeId,
        net_b: &mut RdmaNet,
        b: NodeId,
        tenant: TenantId,
    ) -> (Qpn, Qpn) {
        let qa = net_a.rnic_mut(a).create_qp(tenant, b, Qpn(0));
        let qb = net_b.rnic_mut(b).create_qp(tenant, a, qa);
        net_a.rnic_mut(a).set_peer(qa, qb);
        net_a.rnic_mut(a).qp_mut(qa).expect("fresh qp").set_ready();
        net_b.rnic_mut(b).qp_mut(qb).expect("fresh qp").set_ready();
        (qa, qb)
    }

    /// Post a send-side work request (SEND/WRITE), appending the
    /// doorbell-delayed `TxKick` to a caller-owned [`Step`]: drivers reuse
    /// one `Step` so each post costs no allocation. Fails, appending
    /// nothing, on an unknown QPN or a QP not in RTS (e.g. one a retry
    /// exhaustion moved to `Error`).
    pub fn post_send_into(
        &mut self,
        _now: Nanos,
        node: NodeId,
        qpn: Qpn,
        wr: WorkRequest,
        step: &mut Step,
    ) -> Result<(), RnicError> {
        let qp = self.rnic_mut(node).qp_mut(qpn)?;
        qp.post(wr).map_err(|_| RnicError::NoSuchQp)?;
        step.push_event(self.cfg.doorbell, RdmaEvent::TxKick { node, qpn });
        Ok(())
    }

    /// Post a receive buffer to `node`'s shared RQ for `tenant`.
    pub fn post_recv(&mut self, node: NodeId, tenant: TenantId, entry: RqEntry) -> Result<(), RnicError> {
        self.rnic_mut(node).post_recv(tenant, entry)
    }

    /// Drain the entire CQ backlog of `node` into `out` (appending) and
    /// re-arm its doorbell. This is the CQ's only consumer: the fabric
    /// raises at most one [`RdmaOutput::CqReady`] per node between drains,
    /// and the handler for that one wakeup retires the whole backlog.
    pub fn drain_cq_into(&mut self, node: NodeId, out: &mut Vec<Cqe>) {
        self.rnic_mut(node).drain_cq_into(out)
    }

    /// Emit a liveness probe from `from` (which must lie in this
    /// instance's span) to `to`. Probes ride outside any QP — no PSN, no
    /// ACK — and are subject to fault injection like data frames, so a
    /// flapping link produces honest missed-heartbeat false positives.
    pub fn send_heartbeat_into(&mut self, now: Nanos, from: NodeId, to: NodeId, step: &mut Step) {
        let pkt = Packet {
            src: from,
            dst: to,
            src_qpn: Qpn(0),
            dst_qpn: Qpn(0),
            kind: PacketKind::Heartbeat,
            corrupted: false,
        };
        self.transmit(now, pkt, step);
    }

    /// Queue a frame on the source node's egress port and schedule its
    /// arrival at the destination.
    fn transmit(&mut self, now: Nanos, pkt: Packet, step: &mut Step) {
        let bytes = pkt.wire_bytes(self.cfg.header_bytes, self.cfg.ack_bytes);
        let wire = palladium_simnet::wire_time(bytes, self.cfg.link_gbps);
        let service = if pkt.is_control() {
            // Control frames bypass most of the TX pipeline.
            Nanos::from_nanos(150) + wire
        } else {
            let penalty = self.rnic(pkt.src).cache_penalty(&self.cfg);
            self.cfg.tx_pipeline + wire + penalty
        };
        let done = self.rnic_mut(pkt.src).egress.submit(now, service);
        let prop = self.cfg.propagation;
        let after = done - now + prop;
        debug_assert!(
            after >= self.cfg.frame_lookahead(),
            "frame delay {after} under the frame lookahead {}",
            self.cfg.frame_lookahead()
        );
        if self.sharded_egress {
            // The driver routes the frame (mailbox or local re-injection);
            // handing over same-span frames too keeps the event schedule
            // identical at every shard count.
            step.egress.push(Timed::new(after, pkt));
        } else {
            step.push_event(after, RdmaEvent::Arrive { pkt });
        }
    }

    /// Emit a control frame from `from` back to `to`.
    #[expect(clippy::too_many_arguments, reason = "the control frame's header fields, one by one")]
    fn send_control(
        &mut self,
        now: Nanos,
        from: NodeId,
        from_qpn: Qpn,
        to: NodeId,
        to_qpn: Qpn,
        kind: PacketKind,
        step: &mut Step,
    ) {
        let pkt = Packet {
            src: from,
            dst: to,
            src_qpn: from_qpn,
            dst_qpn: to_qpn,
            kind,
            corrupted: false,
        };
        self.transmit(now, pkt, step);
    }

    /// Arm the retransmission timer for a QP. A timer already in flight is
    /// left alone: when it fires it re-evaluates against the oldest
    /// inflight transmission and reschedules itself, so one outstanding
    /// timer event per QP suffices (re-arming per transmission, as the
    /// seed did, only manufactures stale no-op events).
    fn arm_rto(&mut self, node: NodeId, qpn: Qpn, step: &mut Step) {
        let rto = self.cfg.rto;
        let Ok(qp) = self.rnic_mut(node).qp_mut(qpn) else {
            return;
        };
        if qp.inflight_depth() == 0 || qp.rto_pending {
            return;
        }
        qp.rto_epoch += 1;
        qp.rto_pending = true;
        let epoch = qp.rto_epoch;
        step.push_event(rto, RdmaEvent::RtoCheck { node, qpn, epoch });
    }

    /// Drain the QP's transmit window onto the wire. Each launch (first
    /// transmission or go-back-N resend) builds its frame via
    /// [`Inflight::frame`], which clones only the payload `Bytes` handle —
    /// the `WorkRequest` itself stays in the inflight queue uncloned.
    fn tx_kick(&mut self, now: Nanos, node: NodeId, qpn: Qpn, step: &mut Step) {
        let window = self.cfg.send_window;
        let mut launched = false;
        // Borrow the QP once, collect the window's frames, then transmit
        // (transmitting needs the egress server, i.e. `&mut self`).
        let mut frames = std::mem::take(&mut self.frame_scratch);
        let (peer_node, peer_qpn) = {
            let Ok(qp) = self.rnic_mut(node).qp_mut(qpn) else {
                self.frame_scratch = frames;
                return;
            };
            let peer = (qp.peer_node, qp.peer_qpn);
            while let Some(m) = qp.next_transmit(now, window) {
                frames.push(m.frame());
            }
            peer
        };
        for kind in frames.drain(..) {
            launched = true;
            let pkt = Packet {
                src: node,
                dst: peer_node,
                src_qpn: qpn,
                dst_qpn: peer_qpn,
                kind,
                corrupted: false,
            };
            self.transmit(now, pkt, step);
        }
        self.frame_scratch = frames;
        if launched {
            self.arm_rto(node, qpn, step);
        }
    }

    /// Apply a cumulative acknowledgement: retire every inflight message
    /// with `psn <= upto`, generating success completions. Resets the retry
    /// budget on progress.
    fn retire_acked(&mut self, node: NodeId, qpn: Qpn, upto: u64, step: &mut Step) {
        let mut retired = std::mem::take(&mut self.ack_scratch);
        retired.clear();
        let (tenant, peer) = {
            let Ok(qp) = self.rnic_mut(node).qp_mut(qpn) else {
                self.ack_scratch = retired;
                return;
            };
            qp.on_ack_into(upto, &mut retired);
            if qp.inflight_depth() == 0 {
                qp.rto_epoch += 1; // disarm timers
            }
            (qp.tenant, qp.peer_node)
        };
        let mut notify = false;
        for msg in retired.drain(..) {
            let cqe = Cqe {
                wr_id: msg.wr.wr_id,
                kind: CqeKind::SendDone(msg.wr.op),
                status: CqeStatus::Success,
                qpn,
                tenant,
                peer,
                data: Bytes::new(),
                imm: msg.wr.imm,
            };
            notify |= self.rnic_mut(node).push_cqe(cqe);
        }
        if notify {
            step.outputs.push(RdmaOutput::CqReady { node });
        }
        self.ack_scratch = retired;
    }

    /// Fail a QP terminally: flush all queued work with error completions.
    fn fail_qp(&mut self, node: NodeId, qpn: Qpn, status: CqeStatus, step: &mut Step) {
        let (drained, tenant, peer) = {
            let Ok(qp) = self.rnic_mut(node).qp_mut(qpn) else {
                return;
            };
            qp.set_error();
            (qp.drain(), qp.tenant, qp.peer_node)
        };
        let mut notify = false;
        for wr in drained {
            let cqe = Cqe {
                wr_id: wr.wr_id,
                kind: CqeKind::SendDone(wr.op),
                status,
                qpn,
                tenant,
                peer,
                data: Bytes::new(),
                imm: wr.imm,
            };
            notify |= self.rnic_mut(node).push_cqe(cqe);
        }
        if notify {
            step.outputs.push(RdmaOutput::CqReady { node });
        }
    }

    /// Advance the sub-simulator by one event, appending into a
    /// caller-owned [`Step`]: drivers keep one `Step` (cleared between
    /// events) so the fabric's per-event processing performs no allocation
    /// in steady state.
    pub fn handle_into(&mut self, now: Nanos, ev: RdmaEvent, step: &mut Step) {
        match ev {
            RdmaEvent::TxKick { node, qpn } => {
                self.tx_kick(now, node, qpn, step);
            }
            RdmaEvent::Arrive { mut pkt } => {
                // Fault injection at the destination port. Partition
                // windows first: a crashed endpoint drops the frame
                // deterministically, without touching any RNG stream (so a
                // crash scenario perturbs no other node's verdict
                // sequence).
                if self.node_down(pkt.src, now) || self.node_down(pkt.dst, now) {
                    self.counters.crash_drop += 1;
                    return;
                }
                // Stochastic faults draw from the *destination node's*
                // stream, keyed by global node id — never from a
                // net-level RNG — so verdicts are identical at every
                // shard count.
                let idx = pkt.dst.raw() as usize - self.base;
                let mut plan = self.node_faults[idx].plan_at(now);
                // A directed-link timeline (gray fault on src → dst)
                // overrides the port plan while active. Selection is
                // deterministic by (src, dst, now); the verdict still
                // draws from dst's stream below.
                if let Some((_, tl)) =
                    self.link_faults[idx].iter().find(|(s, _)| *s == pkt.src.raw())
                {
                    let lp = tl.plan_at(now);
                    if !lp.is_none() {
                        plan = lp;
                    }
                }
                match plan.judge(now, &mut self.fault_rngs[idx]) {
                    Verdict::Drop => {
                        self.counters.drop += 1;
                        return;
                    }
                    Verdict::Corrupt => {
                        self.counters.corrupt += 1;
                        pkt.corrupted = true;
                    }
                    Verdict::Pass => {}
                }
                // A gray link's delay is drawn with the verdict, and ends first.
                let extra = plan.extra_delay(now, &mut self.fault_rngs[idx]);
                if extra.is_zero() {
                    self.rx_reach(now, pkt, step);
                } else {
                    step.push_event(extra, RdmaEvent::RxReach { pkt });
                }
            }
            RdmaEvent::RxReach { pkt } => self.rx_reach(now, pkt, step),
            RdmaEvent::RxDone { pkt } => {
                if pkt.corrupted {
                    self.counters.crc_drop += 1;
                    return;
                }
                self.rx_done(now, pkt, step);
            }
            RdmaEvent::RtoCheck { node, qpn, epoch } => {
                let (stale, expired) = {
                    let Ok(qp) = self.rnic_mut(node).qp_mut(qpn) else {
                        return;
                    };
                    qp.rto_pending = false;
                    let stale = qp.rto_epoch != epoch || qp.inflight_depth() == 0;
                    let expired = qp
                        .oldest_inflight_at()
                        .map(|t| t + self.cfg.rto <= now)
                        .unwrap_or(false);
                    (stale, expired)
                };
                if stale {
                    // The timer may be stale only because retirement bumped
                    // the epoch while newer transmissions were already
                    // inflight (`arm_rto` skips re-arming while a check is
                    // pending) — restore coverage before retiring this
                    // event. `arm_rto` is a no-op when nothing is inflight.
                    self.arm_rto(node, qpn, step);
                    return;
                }
                if expired {
                    self.counters.rto += 1;
                    let over_limit = {
                        let qp = self.rnic_mut(node).qp_mut(qpn).expect("checked above");
                        qp.rewind();
                        qp.retries += 1;
                        qp.retries > self.cfg.retry_limit
                    };
                    if over_limit {
                        self.fail_qp(node, qpn, CqeStatus::RetryExceeded, step);
                    } else {
                        self.tx_kick(now, node, qpn, step);
                    }
                } else {
                    // Not yet expired: re-check when the oldest would expire.
                    let rto = self.cfg.rto;
                    let (next_at, epoch) = {
                        let qp = self.rnic_mut(node).qp_mut(qpn).expect("checked above");
                        qp.rto_pending = true;
                        (
                            qp.oldest_inflight_at().expect("inflight nonempty") + rto,
                            qp.rto_epoch,
                        )
                    };
                    step.push_event(next_at - now, RdmaEvent::RtoCheck { node, qpn, epoch });
                }
            }
            RdmaEvent::RnrResume { node, qpn } => {
                if let Ok(qp) = self.rnic_mut(node).qp_mut(qpn) {
                    qp.rnr_paused = false;
                }
                self.tx_kick(now, node, qpn, step);
            }
        }
    }

    /// `pkt` reached its destination NIC's receive engine: book it there.
    fn rx_reach(&mut self, now: Nanos, pkt: Packet, step: &mut Step) {
        let service = match &pkt.kind {
            PacketKind::Data { payload, .. } => {
                self.cfg.rx_pipeline + self.cfg.per_byte.cost(payload.len() as u64)
            }
            _ => Nanos::from_nanos(150),
        };
        let done = self.rnic_mut(pkt.dst).rx_engine.submit(now, service);
        step.push_event(done - now, RdmaEvent::RxDone { pkt });
    }

    fn rx_done(&mut self, now: Nanos, pkt: Packet, step: &mut Step) {
        // Destructure the frame by value (the payload handle moves into
        // the CQE / output it feeds — no per-frame clone).
        let Packet {
            src,
            dst,
            src_qpn,
            dst_qpn,
            kind,
            ..
        } = pkt;
        match kind {
            PacketKind::Data {
                psn,
                op,
                payload,
                remote,
                imm,
                ..
            } => {
                let (decision, tenant) = {
                    let rnic = self.rnic_mut(dst);
                    let tenant = match rnic.qp(dst_qpn) {
                        Ok(qp) => qp.tenant,
                        Err(_) => return,
                    };
                    let rq_avail = rnic.rq_available(tenant);
                    let qp = rnic.qp_mut(dst_qpn).expect("checked above");
                    (qp.classify_rx(psn, op, rq_avail), tenant)
                };
                match decision {
                    RxDecision::Deliver => {
                        match op {
                            OpKind::Send => {
                                let entry = self
                                    .rnic_mut(dst)
                                    .take_rq(tenant)
                                    .expect("classify_rx guaranteed a buffer");
                                let cqe = Cqe {
                                    wr_id: entry.wr_id,
                                    kind: CqeKind::Recv,
                                    status: CqeStatus::Success,
                                    qpn: dst_qpn,
                                    tenant,
                                    peer: src,
                                    data: payload,
                                    imm,
                                };
                                if self.rnic_mut(dst).push_cqe(cqe) {
                                    step.outputs.push(RdmaOutput::CqReady { node: dst });
                                }
                            }
                            OpKind::Write => {
                                step.outputs.push(RdmaOutput::WriteDelivered {
                                    node: dst,
                                    addr: remote.expect("write carries remote addr"),
                                    data: payload,
                                    imm,
                                    tenant,
                                });
                            }
                        }
                        self.send_control(
                            now,
                            dst,
                            dst_qpn,
                            src,
                            src_qpn,
                            PacketKind::Ack { upto: psn },
                            step,
                        );
                    }
                    RxDecision::DuplicateAck => {
                        let upto = self
                            .rnic(dst)
                            .qp(dst_qpn)
                            .ok()
                            .and_then(|q| q.last_delivered_psn())
                            .unwrap_or(0);
                        self.send_control(
                            now,
                            dst,
                            dst_qpn,
                            src,
                            src_qpn,
                            PacketKind::Ack { upto },
                            step,
                        );
                    }
                    RxDecision::OutOfOrderSilent | RxDecision::ReceiverNotReadySilent => {}
                    RxDecision::OutOfOrderNak { expected } => {
                        self.send_control(
                            now,
                            dst,
                            dst_qpn,
                            src,
                            src_qpn,
                            PacketKind::Nak { expected },
                            step,
                        );
                    }
                    RxDecision::ReceiverNotReady => {
                        self.counters.rnr_nak += 1;
                        step.outputs.push(RdmaOutput::RnrSeen { node: dst, tenant });
                        self.send_control(
                            now,
                            dst,
                            dst_qpn,
                            src,
                            src_qpn,
                            PacketKind::RnrNak { psn },
                            step,
                        );
                    }
                }
            }
            PacketKind::Heartbeat => {
                // No QP involved: surface the probe to the driver's
                // health monitor and stop.
                step.outputs.push(RdmaOutput::HeartbeatSeen { node: dst, from: src });
            }
            PacketKind::Ack { upto } => {
                let node = dst;
                let qpn = dst_qpn;
                self.retire_acked(node, qpn, upto, step);
                // Window may have opened.
                self.tx_kick(now, node, qpn, step);
            }
            PacketKind::Nak { expected } => {
                let node = dst;
                let qpn = dst_qpn;
                // A NAK for `expected` is an implicit cumulative ACK of
                // everything before it: the receiver delivered the prefix.
                if let Some(upto) = expected.checked_sub(1) {
                    self.retire_acked(node, qpn, upto, step);
                }
                let over_limit = {
                    let Ok(qp) = self.rnic_mut(node).qp_mut(qpn) else {
                        return;
                    };
                    // A go-back-N round produces one NAK per out-of-order
                    // arrival; all but the first are redundant once we have
                    // rewound to (or before) the expected PSN.
                    if qp.next_psn() <= expected {
                        return;
                    }
                    qp.rewind();
                    qp.retries += 1;
                    qp.retries > self.cfg.retry_limit
                };
                self.counters.nak_rewind += 1;
                if over_limit {
                    self.fail_qp(node, qpn, CqeStatus::RetryExceeded, step);
                } else {
                    self.tx_kick(now, node, qpn, step);
                }
            }
            PacketKind::RnrNak { psn } => {
                let node = dst;
                let qpn = dst_qpn;
                // Everything before the RNR'd SEND was delivered.
                if let Some(upto) = psn.checked_sub(1) {
                    self.retire_acked(node, qpn, upto, step);
                }
                let over_limit = {
                    let Ok(qp) = self.rnic_mut(node).qp_mut(qpn) else {
                        return;
                    };
                    // Already backing off: further RNR NAKs from the same
                    // window are redundant.
                    if qp.rnr_paused || qp.next_psn() <= psn {
                        return;
                    }
                    qp.rewind();
                    qp.rnr_retries += 1;
                    qp.rnr_paused = true;
                    qp.rnr_retries > self.cfg.rnr_retry_limit
                };
                if over_limit {
                    self.fail_qp(node, qpn, CqeStatus::RnrRetryExceeded, step);
                } else {
                    step.push_event(self.cfg.rnr_retry_delay, RdmaEvent::RnrResume { node, qpn });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verbs::WrId;
    use palladium_membuf::{MmapExporter, PoolId, Region};
    use palladium_simnet::{FaultPlan, Sim};

    /// Post `wr` on `node`'s `qpn`; returns the events to schedule.
    fn post(
        net: &mut RdmaNet,
        now: Nanos,
        node: NodeId,
        qpn: Qpn,
        wr: WorkRequest,
    ) -> Vec<Timed<RdmaEvent>> {
        let mut step = Step::default();
        net.post_send_into(now, node, qpn, wr, &mut step).unwrap();
        step.events
    }

    /// Advance one event into a fresh step.
    fn handle(net: &mut RdmaNet, now: Nanos, ev: RdmaEvent) -> Step {
        let mut step = Step::default();
        net.handle_into(now, ev, &mut step);
        step
    }

    /// Take `node`'s whole CQ backlog.
    fn reap(net: &mut RdmaNet, node: NodeId) -> Vec<Cqe> {
        let mut out = Vec::new();
        net.drain_cq_into(node, &mut out);
        out
    }

    /// The same fault plan on every node's port.
    fn fault_everywhere(net: &mut RdmaNet, plan: FaultPlan) {
        for node in [NodeId(0), NodeId(1)] {
            net.set_node_fault(node, FaultTimeline::from_plan(plan));
        }
    }

    /// Drive the sub-simulator to quiescence, collecting outputs.
    fn run(net: &mut RdmaNet, sim: &mut Sim<RdmaEvent>, seed: Vec<Timed<RdmaEvent>>) -> Vec<RdmaOutput> {
        let mut outputs = Vec::new();
        for t in seed {
            sim.schedule(t.after, t.value);
        }
        while let Some((now, ev)) = sim.next() {
            let step = handle(net, now, ev);
            for t in step.events {
                sim.schedule(t.after, t.value);
            }
            outputs.extend(step.outputs);
            assert!(sim.events_fired() < 1_000_000, "runaway simulation");
        }
        outputs
    }

    fn two_node_net() -> (RdmaNet, Qpn, Qpn) {
        let mut net = RdmaNet::new(RdmaConfig::default(), 2, 42);
        for node in [NodeId(0), NodeId(1)] {
            let mut e = MmapExporter::new(PoolId(node.raw()), TenantId(1), Region::hugepages(4 << 20));
            net.register_mr(node, &e.export_rdma()).unwrap();
        }
        let (qa, qb) = net.connect_immediate(NodeId(0), NodeId(1), TenantId(1));
        (net, qa, qb)
    }

    fn post_rq(net: &mut RdmaNet, node: NodeId, n: u64) {
        for i in 0..n {
            net.post_recv(
                node,
                TenantId(1),
                RqEntry {
                    wr_id: WrId(1000 + i),
                    pool: PoolId(node.raw()),
                    capacity: 8192,
                },
            )
            .unwrap();
        }
    }

    #[test]
    fn two_sided_send_delivers_in_order() {
        let (mut net, qa, _qb) = two_node_net();
        post_rq(&mut net, NodeId(1), 4);
        let mut sim = Sim::new();
        let mut seed = Vec::new();
        for i in 0..4u64 {
            let wr = WorkRequest::send(WrId(i), Bytes::from(vec![i as u8; 64]), i);
            seed.extend(post(&mut net, sim.now(), NodeId(0), qa, wr));
        }
        let _ = run(&mut net, &mut sim, seed);
        // Receiver got all 4 in order with payloads intact.
        let cqes = reap(&mut net, NodeId(1));
        let recvs: Vec<&Cqe> = cqes.iter().filter(|c| c.kind == CqeKind::Recv).collect();
        assert_eq!(recvs.len(), 4);
        for (i, c) in recvs.iter().enumerate() {
            assert_eq!(c.imm, i as u64);
            assert_eq!(c.data.len(), 64);
            assert_eq!(c.data[0], i as u8);
            assert_eq!(c.wr_id, WrId(1000 + i as u64)); // RQ consumed FIFO
        }
        // Sender got 4 send completions.
        let send_cqes = reap(&mut net, NodeId(0));
        assert_eq!(send_cqes.len(), 4);
        assert!(send_cqes.iter().all(|c| c.status == CqeStatus::Success));
    }

    #[test]
    fn one_way_latency_matches_calibration() {
        let (mut net, qa, _) = two_node_net();
        post_rq(&mut net, NodeId(1), 1);
        let mut sim = Sim::new();
        let wr = WorkRequest::send(WrId(1), Bytes::from(vec![0u8; 64]), 0);
        let mut delivered_at = None;
        for t in post(&mut net, sim.now(), NodeId(0), qa, wr) {
            sim.schedule(t.after, t.value);
        }
        while let Some((now, ev)) = sim.next() {
            let step = handle(&mut net, now, ev);
            for t in step.events {
                sim.schedule(t.after, t.value);
            }
            for o in step.outputs {
                if matches!(o, RdmaOutput::CqReady { node } if node == NodeId(1)) {
                    delivered_at.get_or_insert(now);
                }
            }
        }
        let t = delivered_at.expect("message delivered");
        // Calibration target: one-way 64 B ≈ 3.1-3.3 µs, so that the echo
        // RTT lands near the paper's 8.4 µs (`config::tests`).
        assert!(
            t >= Nanos::from_nanos(2_900) && t <= Nanos::from_nanos(3_600),
            "one-way latency {t}"
        );
    }

    #[test]
    fn rnr_nak_then_recovery() {
        let (mut net, qa, _) = two_node_net();
        // No RQ buffer posted: first attempt RNR-NAKs.
        let mut sim = Sim::new();
        let wr = WorkRequest::send(WrId(7), Bytes::from_static(b"payload"), 9);
        let mut rnr_seen = false;
        for t in post(&mut net, sim.now(), NodeId(0), qa, wr) {
            sim.schedule(t.after, t.value);
        }
        let mut replenished = false;
        while let Some((now, ev)) = sim.next() {
            let step = handle(&mut net, now, ev);
            for t in step.events {
                sim.schedule(t.after, t.value);
            }
            for o in step.outputs {
                if let RdmaOutput::RnrSeen { node, tenant } = o {
                    rnr_seen = true;
                    // The DNE core thread replenishes the RQ (§3.5.2).
                    if !replenished {
                        replenished = true;
                        net.post_recv(
                            node,
                            tenant,
                            RqEntry {
                                wr_id: WrId(2000),
                                pool: PoolId(node.raw()),
                                capacity: 8192,
                            },
                        )
                        .unwrap();
                    }
                }
            }
        }
        assert!(rnr_seen, "RNR NAK must have been generated");
        let cqes = reap(&mut net, NodeId(1));
        assert_eq!(cqes.len(), 1, "message delivered after retry");
        assert_eq!(cqes[0].imm, 9);
        assert!(net.counters.rnr_nak >= 1);
    }

    #[test]
    fn one_sided_write_skips_receiver_queue() {
        let (mut net, qa, _) = two_node_net();
        // Note: no RQ buffers posted anywhere.
        let mut sim = Sim::new();
        let wr = WorkRequest::write(
            WrId(3),
            Bytes::from(vec![0xAB; 256]),
            RemoteAddr {
                pool: PoolId(1),
                buf_idx: 5,
            },
            0,
        );
        let events = post(&mut net, sim.now(), NodeId(0), qa, wr);
        let outputs = run(&mut net, &mut sim, events);
        let delivered = outputs.iter().any(|o| {
            matches!(o, RdmaOutput::WriteDelivered { node, addr, data, .. }
                if *node == NodeId(1) && addr.buf_idx == 5 && data.len() == 256)
        });
        assert!(delivered, "write must land without receiver involvement");
        // Sender still completes.
        let cqes = reap(&mut net, NodeId(0));
        assert_eq!(cqes.len(), 1);
        assert_eq!(cqes[0].kind, CqeKind::SendDone(OpKind::Write));
    }

    #[test]
    fn lossy_fabric_still_delivers_exactly_once_in_order() {
        let (mut net, qa, _) = two_node_net();
        fault_everywhere(&mut net, FaultPlan::dropping(0.2));
        post_rq(&mut net, NodeId(1), 64);
        let mut sim = Sim::new();
        let mut seed = Vec::new();
        let n = 32u64;
        for i in 0..n {
            let wr = WorkRequest::send(WrId(i), Bytes::from(vec![(i % 251) as u8; 512]), i);
            seed.extend(post(&mut net, sim.now(), NodeId(0), qa, wr));
        }
        let _ = run(&mut net, &mut sim, seed);
        let cqes = reap(&mut net, NodeId(1));
        let imms: Vec<u64> = cqes
            .iter()
            .filter(|c| c.kind == CqeKind::Recv)
            .map(|c| c.imm)
            .collect();
        let expect: Vec<u64> = (0..n).collect();
        assert_eq!(imms, expect, "exactly-once, in-order despite 20% drops");
        assert!(net.counters.drop > 0, "faults actually fired");
    }

    #[test]
    fn corruption_is_dropped_and_recovered() {
        let (mut net, qa, _) = two_node_net();
        fault_everywhere(&mut net, FaultPlan { corrupt_chance: 0.2, ..FaultPlan::NONE });
        post_rq(&mut net, NodeId(1), 32);
        let mut sim = Sim::new();
        let mut seed = Vec::new();
        for i in 0..16u64 {
            let wr = WorkRequest::send(WrId(i), Bytes::from(vec![1u8; 128]), i);
            seed.extend(post(&mut net, sim.now(), NodeId(0), qa, wr));
        }
        let _ = run(&mut net, &mut sim, seed);
        let imms: Vec<u64> = reap(&mut net, NodeId(1))
            .iter()
            .filter(|c| c.kind == CqeKind::Recv)
            .map(|c| c.imm)
            .collect();
        assert_eq!(imms, (0..16).collect::<Vec<_>>());
        assert!(net.counters.crc_drop > 0);
    }

    /// A directed link fault is asymmetric: blackholing `0 → 1` eats
    /// every frame on that direction (data 0→1, ACKs 0→1) while the
    /// reverse path `1 → 0` never draws a verdict. Payloads from node 1
    /// therefore still land on node 0, even as node 1's sender bleeds
    /// RTOs waiting for ACKs that the gray link swallows.
    #[test]
    fn link_fault_is_direction_scoped() {
        let (mut net, _qa, qb) = two_node_net();
        net.set_link_fault(
            NodeId(0),
            NodeId(1),
            FaultTimeline::from_plan(FaultPlan::dropping(1.0)),
        );
        post_rq(&mut net, NodeId(0), 4);
        post_rq(&mut net, NodeId(1), 4);
        let mut sim = Sim::new();
        let wr = WorkRequest::send(WrId(1), Bytes::from(vec![7u8; 64]), 9);
        let events = post(&mut net, sim.now(), NodeId(1), qb, wr);
        let _ = run(&mut net, &mut sim, events);
        // The clean direction delivered exactly once despite dedup'd
        // retransmissions...
        let recvs: Vec<u64> = reap(&mut net, NodeId(0))
            .iter()
            .filter(|c| c.kind == CqeKind::Recv)
            .map(|c| c.imm)
            .collect();
        assert_eq!(recvs, vec![9], "payload crosses the healthy direction");
        // ...while the gray direction ate the ACKs until retry
        // exhaustion: drops and RTOs are all charged to 0 → 1.
        assert!(net.counters.drop > 0, "ACKs on the gray link must drop");
        assert!(net.counters.rto > 0, "missing ACKs must cost RTOs");
        assert_eq!(net.counters.crash_drop, 0, "no partitions involved");
    }

    #[test]
    fn window_pipelines_messages() {
        // With a window of W, W messages should overlap on the wire: the
        // last delivery must land far earlier than W * one-message latency.
        let (mut net, qa, _) = two_node_net();
        post_rq(&mut net, NodeId(1), 16);
        let mut sim = Sim::new();
        for i in 0..16u64 {
            let wr = WorkRequest::send(WrId(i), Bytes::from(vec![0u8; 64]), i);
            for t in post(&mut net, sim.now(), NodeId(0), qa, wr) {
                sim.schedule(t.after, t.value);
            }
        }
        let mut last_delivery = Nanos::ZERO;
        let mut delivered = 0;
        while let Some((now, ev)) = sim.next() {
            let step = handle(&mut net, now, ev);
            for t in step.events {
                sim.schedule(t.after, t.value);
            }
            for o in step.outputs {
                if matches!(o, RdmaOutput::CqReady { node } if node == NodeId(1)) {
                    delivered += reap(&mut net, NodeId(1)).len();
                    last_delivery = now;
                }
            }
        }
        assert_eq!(delivered, 16);
        let single = net.cfg.one_way(64);
        assert!(
            last_delivery < single * 8,
            "16 pipelined messages delivered by {last_delivery}, single is {single}"
        );
    }

    #[test]
    fn rto_recovers_after_stale_timer_with_new_inflight() {
        // Regression: with a single outstanding RTO timer per QP, a timer
        // left pending across a full inflight drain goes stale; when it
        // fires it must re-arm if newer transmissions are inflight,
        // otherwise a tail loss on those is never retransmitted.
        let (mut net, qa, _) = two_node_net();
        post_rq(&mut net, NodeId(1), 4);
        let mut sim = Sim::new();
        let wr = WorkRequest::send(WrId(1), Bytes::from_static(b"a"), 1);
        for t in post(&mut net, sim.now(), NodeId(0), qa, wr) {
            sim.schedule(t.after, t.value);
        }
        // Run until WR1 hits the wire and its ACK retires it — the armed
        // RtoCheck stays queued.
        let mut seen_inflight = false;
        loop {
            let depth = net.rnic(NodeId(0)).qp(qa).unwrap().inflight_depth();
            seen_inflight |= depth > 0;
            if seen_inflight && depth == 0 {
                break;
            }
            let (now, ev) = sim.next().expect("ack in flight");
            let s = handle(&mut net, now, ev);
            for t in s.events {
                sim.schedule(t.after, t.value);
            }
        }
        // WR2: arm_rto is skipped (a timer is pending), then its only data
        // frame is lost in flight (simulated tail loss).
        let wr = WorkRequest::send(WrId(2), Bytes::from_static(b"b"), 2);
        for t in post(&mut net, sim.now(), NodeId(0), qa, wr) {
            sim.schedule(t.after, t.value);
        }
        let mut dropped = false;
        while let Some((now, ev)) = sim.next() {
            if !dropped {
                if let RdmaEvent::Arrive { pkt } = &ev {
                    if matches!(pkt.kind, PacketKind::Data { .. }) {
                        dropped = true;
                        continue; // frame lost on the wire
                    }
                }
            }
            let s = handle(&mut net, now, ev);
            for t in s.events {
                sim.schedule(t.after, t.value);
            }
            assert!(sim.events_fired() < 100_000, "runaway simulation");
        }
        let recvs: Vec<u64> = reap(&mut net, NodeId(1))
            .iter()
            .filter(|c| c.kind == CqeKind::Recv)
            .map(|c| c.imm)
            .collect();
        assert_eq!(recvs, vec![1, 2], "tail loss must be recovered by RTO");
        assert!(net.counters.rto >= 1, "recovery must come from the RTO path");
    }

    #[test]
    fn sharded_egress_reproduces_the_serial_timeline() {
        // Reference: whole-fabric instance, one 64 B SEND, record when the
        // receiver's CQ goes ready.
        let (mut net, qa, _) = two_node_net();
        post_rq(&mut net, NodeId(1), 1);
        let mut sim = Sim::new();
        let wr = WorkRequest::send(WrId(1), Bytes::from(vec![5u8; 64]), 77);
        let mut serial_at = None;
        for t in post(&mut net, sim.now(), NodeId(0), qa, wr) {
            sim.schedule(t.after, t.value);
        }
        while let Some((now, ev)) = sim.next() {
            let s = handle(&mut net, now, ev);
            for t in s.events {
                sim.schedule(t.after, t.value);
            }
            assert!(s.egress.is_empty(), "egress list stays empty off-mode");
            if s.outputs.iter().any(|o| matches!(o, RdmaOutput::CqReady { node } if *node == NodeId(1))) {
                serial_at.get_or_insert(now);
            }
        }
        let serial_at = serial_at.expect("delivered");

        // Split fabric: one single-node span instance per node, sharded
        // egress on, frames routed by the test. Same wiring order ⇒ same
        // QPNs; same config + fault-free ⇒ the identical timeline.
        let cfg = RdmaConfig::default();
        let mut nets = [
            RdmaNet::with_span(cfg, 0..1, 42),
            RdmaNet::with_span(cfg, 1..2, 43),
        ];
        for (i, net) in nets.iter_mut().enumerate() {
            net.set_sharded_egress(true);
            let mut e =
                MmapExporter::new(PoolId(i as u16), TenantId(1), Region::hugepages(4 << 20));
            net.register_mr(NodeId(i as u16), &e.export_rdma()).unwrap();
        }
        let (a_half, b_half) = nets.split_at_mut(1);
        let (sqa, _sqb) = RdmaNet::connect_pair_immediate(
            &mut a_half[0],
            NodeId(0),
            &mut b_half[0],
            NodeId(1),
            TenantId(1),
        );
        assert_eq!(sqa, qa, "split wiring must reproduce the QPN sequence");
        nets[1]
            .post_recv(
                NodeId(1),
                TenantId(1),
                RqEntry { wr_id: WrId(1000), pool: PoolId(1), capacity: 8192 },
            )
            .unwrap();
        let mut sim: Sim<(usize, RdmaEvent)> = Sim::new();
        let wr = WorkRequest::send(WrId(1), Bytes::from(vec![5u8; 64]), 77);
        for t in post(&mut nets[0], sim.now(), NodeId(0), sqa, wr) {
            sim.schedule(t.after, (0, t.value));
        }
        let mut split_at = None;
        while let Some((now, (owner, ev))) = sim.next() {
            let s = handle(&mut nets[owner], now, ev);
            for t in s.events {
                sim.schedule(t.after, (owner, t.value));
            }
            for t in s.egress {
                // The driver owns routing: every frame, local or not,
                // arrives at the destination node's instance.
                assert!(t.after >= cfg.frame_lookahead(), "frame under lookahead");
                let dst = t.value.dst.raw() as usize;
                sim.schedule(t.after, (dst, RdmaEvent::Arrive { pkt: t.value }));
            }
            if s.outputs.iter().any(|o| matches!(o, RdmaOutput::CqReady { node } if *node == NodeId(1))) {
                split_at.get_or_insert(now);
            }
        }
        assert_eq!(split_at, Some(serial_at), "split fabric changed the timeline");
        let cqes = reap(&mut nets[1], NodeId(1));
        assert_eq!(cqes.len(), 1);
        assert_eq!(cqes[0].imm, 77);
    }

    #[test]
    fn post_to_errored_or_unknown_qp_fails() {
        let (mut net, qa, _) = two_node_net();
        let mut step = Step::default();
        // Retry exhaustion moved the QP to `Error`: the post is refused
        // (the driver sheds the send) and no doorbell rings.
        net.rnic_mut(NodeId(0)).qp_mut(qa).unwrap().set_error();
        let wr = WorkRequest::send(WrId(1), Bytes::new(), 0);
        let refused = net.post_send_into(Nanos::ZERO, NodeId(0), qa, wr, &mut step);
        assert!(refused.is_err());
        // An unknown QPN is refused the same way.
        let wr = WorkRequest::send(WrId(2), Bytes::new(), 0);
        let refused = net.post_send_into(Nanos::ZERO, NodeId(0), Qpn(99), wr, &mut step);
        assert!(refused.is_err());
        assert!(step.events.is_empty(), "a refused post rings no doorbell");
    }
}
