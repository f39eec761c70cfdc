//! The scaled multi-node chain workload: the cluster driver's traffic
//! pattern stretched to as many nodes as the machine has cores, running on
//! the conservative sharded runner ([`palladium_simnet::shard`]).
//!
//! The Fig 16 cluster driver models three nodes in exact detail (pools,
//! RC state machines, DNE scheduling). Palladium's headline results are
//! *cluster*-scale, though — Fig 14 drives a multi-node ingress through
//! scale-up/scale-down, Fig 16 runs a full boutique app — and related
//! systems (Swift, rFaaS) evaluate at node counts a single-threaded
//! simulation cannot reach in reasonable wall-clock. This driver is the
//! scale vehicle: `N` nodes, each with a node engine (the DNE RX path), a
//! function core and closed-loop clients, exchanging request chains over
//! the RDMA fabric's cost model. Node `v`'s requests visit
//! `v, v+s, v+2s, …` (stride `s` deliberately crossing shard boundaries)
//! and return to `v`, so partitioned runs generate *real* cross-shard
//! traffic on every hop.
//!
//! # Shard-count invariance
//!
//! The engine follows the discipline `palladium_simnet::shard` documents
//! for reports that are identical at **every** shard count, not merely
//! reproducible at one:
//!
//! * every inter-node message goes through the [`Outbox`] — same-shard
//!   destinations included — with the *global source node id* as the
//!   merge key, so arrival schedules are independent of the partition;
//! * local events only ever target the node that produced them;
//! * randomness is a per-node [`SimRng`] stream seeded from
//!   `(seed, node)`, consumed in that node's (invariant) arrival order;
//! * one [`RunStats`] per shard, merged at the end: every node of a shard
//!   records into it, and a merge is a multiset union of latency samples,
//!   so the report needs no global node order.
//!
//! `--shards 1` therefore reproduces the exact bytes of every sharded
//! run (`prop_shard`/`sharded_chain.rs` pin this), and the hop delay is
//! always ≥ [`RdmaConfig::lookahead`], the window the runner synchronizes
//! on.

use palladium_rdma::RdmaConfig;
use palladium_simnet::{
    run_sharded, Effects, Execution, FifoServer, LoadReport, Nanos, Outbox, Partition, RunStats,
    ShardConfig, ShardEngine, SimRng,
};

/// Configuration of one scaled multi-node run.
#[derive(Clone, Debug)]
pub struct MultiNodeConfig {
    /// Simulated nodes (must exceed `hops · stride`'s wrap so no hop
    /// self-sends; validated at build).
    pub nodes: usize,
    /// Closed-loop clients issuing requests at each node.
    pub clients_per_node: usize,
    /// Forward hops per request (visited nodes beyond the origin); the
    /// response hop back to the origin is added on top.
    pub hops: usize,
    /// Node-index stride per forward hop. The default (7) is coprime with
    /// the default node count, so consecutive hops almost always cross
    /// shard blocks — the sharded runner earns nothing from locality.
    pub stride: usize,
    /// Payload bytes per hop.
    pub payload: u32,
    /// Mean function execution cost per hop (±10 % per-node jitter).
    pub exec: Nanos,
    /// Node-engine receive processing per arriving message.
    pub rx_cost: Nanos,
    /// Measurement window.
    pub duration: Nanos,
    /// Warm-up excluded from statistics.
    pub warmup: Nanos,
    /// Per-node RNG streams derive from this.
    pub seed: u64,
    /// Fabric cost model: hop latency is `rdma.one_way(payload)` and the
    /// barrier window is `rdma.lookahead()`.
    pub rdma: RdmaConfig,
}

impl MultiNodeConfig {
    /// The benchmark shape at `nodes` nodes: saturating closed-loop load
    /// with microsecond-scale services, so each barrier window carries
    /// real work.
    pub fn scaled(nodes: usize) -> Self {
        MultiNodeConfig {
            nodes,
            clients_per_node: 8,
            hops: 4,
            stride: 7,
            payload: 1024,
            exec: Nanos::from_micros(1),
            rx_cost: Nanos::from_nanos(400),
            duration: Nanos::from_millis(60),
            warmup: Nanos::from_millis(10),
            seed: 77,
            rdma: RdmaConfig::default(),
        }
    }

    /// Set the closed-loop client count per node.
    pub fn clients(mut self, n: usize) -> Self {
        self.clients_per_node = n;
        self
    }

    /// Set the measurement window in milliseconds.
    pub fn duration_ms(mut self, ms: u64) -> Self {
        self.duration = Nanos::from_millis(ms);
        self
    }

    /// Set the warm-up in milliseconds.
    pub fn warmup_ms(mut self, ms: u64) -> Self {
        self.warmup = Nanos::from_millis(ms);
        self
    }

    /// The conservative window width a sharded run of this workload uses.
    pub fn lookahead(&self) -> Nanos {
        self.rdma.lookahead()
    }

    fn validate(&self) {
        assert!(self.nodes >= 2, "need at least two nodes");
        assert!(self.hops >= 1, "need at least one hop");
        for leg in 1..=self.hops {
            assert!(
                !(leg * self.stride).is_multiple_of(self.nodes),
                "stride {} self-sends at leg {leg} of {} nodes",
                self.stride,
                self.nodes
            );
        }
    }
}

/// The report of one multi-node run, plus the sharding counters.
#[derive(Clone, Debug)]
pub struct MultiNodeReport {
    /// Merged throughput/latency over all nodes.
    pub load: LoadReport,
    /// Simulation events processed across all shards.
    pub events: u64,
    /// Cross-shard messages delivered through the mailboxes.
    pub messages: u64,
    /// Mailbox ring overflows (spills, not drops).
    pub spilled: u64,
    /// Window barriers executed.
    pub windows: u64,
    /// Per-shard work units (events processed + messages merged);
    /// deterministic. See `palladium_simnet::shard` on the critical-path
    /// model.
    pub work: Vec<u64>,
    /// `Σ_k max_s work[s][k]`: the work on the critical path with one
    /// core per shard. `Σ work ÷ critical_path_work` is the modeled
    /// parallel speed-up, a pair of integers equal on every machine.
    pub critical_path_work: u64,
    /// Each shard's share, by work, of the run's host wall nanoseconds.
    pub busy_ns: Vec<u64>,
    /// The critical path's share, by work, of the run's host wall
    /// nanoseconds.
    pub critical_path_ns: u64,
}

/// One request chain in flight, carried inside every message/event.
#[derive(Clone, Copy, Debug)]
struct Hop {
    origin: u32,
    client: u32,
    issued: Nanos,
    /// Route position this message/event is heading to / executing at:
    /// `1..=hops` are forward legs, `hops + 1` is the response at the
    /// origin.
    leg: u8,
}

/// A cross-node message: the destination plus the chain state.
#[derive(Clone, Copy, Debug)]
struct Msg {
    dst: u32,
    m: Hop,
}

#[derive(Debug)]
enum Ev {
    /// A client (re-)issues a request at its node.
    Issue { node: u32, client: u32 },
    /// A message landed at `node` (fabric delivery done).
    Arrive { node: u32, m: Hop },
    /// Node-engine receive processing finished.
    EngineDone { node: u32, m: Hop },
    /// Function execution finished: forward the chain.
    FnDone { node: u32, m: Hop },
}

/// Per-node state: queueing servers and RNG stream.
struct Node {
    engine: FifoServer,
    core: FifoServer,
    rng: SimRng,
}

/// One shard: a contiguous block of nodes (see [`Partition`]).
struct NodeShard {
    lo: u32,
    nodes: Vec<Node>,
    /// Completions at this shard's nodes.
    stats: RunStats,
    /// Dense node → shard route table (divide-free per-send lookup).
    shard_of: Vec<u32>,
    /// Precomputed hop latency `rdma.one_way(payload)`.
    one_way: Nanos,
    exec: Nanos,
    rx_cost: Nanos,
    hops: u8,
    stride: u32,
    total_nodes: u32,
}

impl NodeShard {
    #[inline]
    fn node_mut(&mut self, id: u32) -> &mut Node {
        &mut self.nodes[(id - self.lo) as usize]
    }

    /// Route position `leg` of a chain originating at `origin`.
    #[inline]
    fn pos(&self, origin: u32, leg: u8) -> u32 {
        if u32::from(leg) > u32::from(self.hops) {
            origin
        } else {
            (origin + u32::from(leg) * self.stride) % self.total_nodes
        }
    }

    /// Emit the message for route position `m.leg` from `src`.
    fn send_next(&self, out: &mut Outbox<Msg>, now: Nanos, src: u32, m: Hop) {
        let dst = self.pos(m.origin, m.leg);
        debug_assert_ne!(dst, src, "validated routes never self-send");
        let at = now + self.one_way;
        out.send(self.shard_of[dst as usize] as usize, at, src, Msg { dst, m });
    }
}

impl ShardEngine for NodeShard {
    type Ev = Ev;
    type Msg = Msg;

    fn on_event(&mut self, now: Nanos, ev: Ev, fx: &mut Effects<'_, Ev>, out: &mut Outbox<Msg>) {
        match ev {
            Ev::Issue { node, client } => {
                let m = Hop { origin: node, client, issued: now, leg: 1 };
                self.send_next(out, now, node, m);
            }
            Ev::Arrive { node, m } => {
                let rx = self.rx_cost;
                let n = self.node_mut(node);
                let done = n.engine.submit(now, rx);
                n.engine.complete();
                fx.at(done, Ev::EngineDone { node, m });
            }
            Ev::EngineDone { node, m } => {
                if m.leg == self.hops + 1 {
                    // Response processed at the origin: complete and
                    // immediately re-issue (closed loop).
                    debug_assert_eq!(node, m.origin);
                    self.stats.complete(now, m.issued);
                    fx.now_ev(Ev::Issue { node, client: m.client });
                } else {
                    let exec = self.exec;
                    let n = self.node_mut(node);
                    let service = n.rng.jitter(exec, 0.1);
                    let done = n.core.submit(now, service);
                    n.core.complete();
                    fx.at(done, Ev::FnDone { node, m });
                }
            }
            Ev::FnDone { node, m } => {
                let next = Hop { leg: m.leg + 1, ..m };
                self.send_next(out, now, node, next);
            }
        }
    }

    #[inline]
    fn lift(&mut self, _at: Nanos, _src: u32, msg: Msg) -> Ev {
        Ev::Arrive { node: msg.dst, m: msg.m }
    }
}

/// The scaled multi-node simulation.
pub struct MultiNodeSim {
    cfg: MultiNodeConfig,
}

impl MultiNodeSim {
    /// Build a run.
    pub fn new(cfg: MultiNodeConfig) -> Self {
        cfg.validate();
        MultiNodeSim { cfg }
    }

    /// Run partitioned over `shards` shards in the given execution mode
    /// and merge the per-node reports. Results are bit-identical across
    /// shard counts and execution modes (see the module docs).
    pub fn run(&self, shards: usize, execution: Execution) -> MultiNodeReport {
        let cfg = &self.cfg;
        let part = Partition::new(cfg.nodes, shards);
        let one_way = cfg.rdma.one_way(cfg.payload as u64);
        debug_assert!(one_way >= cfg.lookahead());

        let engines: Vec<NodeShard> = (0..shards)
            .map(|s| {
                let range = part.range(s);
                NodeShard {
                    lo: range.start as u32,
                    shard_of: part.shard_lookup(),
                    nodes: range
                        .map(|node| Node {
                            engine: FifoServer::new(),
                            core: FifoServer::new(),
                            rng: SimRng::seed_from(
                                cfg.seed ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                            ),
                        })
                        .collect(),
                    stats: RunStats::new(cfg.warmup),
                    one_way,
                    exec: cfg.exec,
                    rx_cost: cfg.rx_cost,
                    hops: cfg.hops as u8,
                    stride: cfg.stride as u32,
                    total_nodes: cfg.nodes as u32,
                }
            })
            .collect();

        let scfg = ShardConfig::new(shards, cfg.lookahead()).execution(execution);
        let deadline = cfg.warmup + cfg.duration;
        let clients = cfg.clients_per_node;
        let run = run_sharded(
            &scfg,
            engines,
            |s, h| {
                // Deterministic stagger (independent of the partition) so
                // clients do not issue phase-locked.
                for node in part.range(s) {
                    for client in 0..clients {
                        let k = (node * clients + client) as u64;
                        h.schedule_at(
                            Nanos(k * 137),
                            Ev::Issue { node: node as u32, client: client as u32 },
                        );
                    }
                }
            },
            deadline,
        );

        let mut stats = RunStats::new(cfg.warmup);
        for shard in run.engines {
            stats.merge(shard.stats);
        }
        MultiNodeReport {
            load: stats.report(cfg.duration),
            events: run.events,
            messages: run.messages,
            spilled: run.spilled,
            windows: run.windows,
            work: run.work,
            critical_path_work: run.critical_path_work,
            busy_ns: run.busy_ns,
            critical_path_ns: run.critical_path_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MultiNodeConfig {
        let mut cfg = MultiNodeConfig::scaled(12);
        cfg.clients_per_node = 3;
        cfg.duration = Nanos::from_millis(4);
        cfg.warmup = Nanos::from_millis(1);
        cfg
    }

    /// Everything a report exposes, byte-comparably.
    fn fingerprint(r: &MultiNodeReport) -> String {
        format!(
            "rps={:016x} mean={} p99={} completed={} events={} messages={}",
            r.load.rps.to_bits(),
            r.load.mean_latency.as_nanos(),
            r.load.p99_latency.as_nanos(),
            r.load.completed,
            r.events,
            r.messages
        )
    }

    #[test]
    fn completes_requests_with_cross_shard_traffic() {
        let r = MultiNodeSim::new(small()).run(3, Execution::Sequential);
        assert!(r.load.completed > 200, "completed {}", r.load.completed);
        assert!(r.load.mean_latency >= Nanos::from_micros(20), "5 hops of fabric");
        // Every hop of every request crosses the mailboxes.
        assert!(r.messages > 5 * r.load.completed, "messages {}", r.messages);
        assert!(r.windows > 0 && r.events > 0);
        assert_eq!(r.spilled, 0, "default mailbox capacity must absorb a window");
    }

    #[test]
    fn shard_counts_and_execution_modes_agree_exactly() {
        let sim = MultiNodeSim::new(small());
        let reference = fingerprint(&sim.run(1, Execution::Sequential));
        for shards in [2usize, 3, 4] {
            for exec in [Execution::Sequential, Execution::Threads] {
                let r = sim.run(shards, exec);
                assert_eq!(
                    fingerprint(&r),
                    reference,
                    "{shards} shards / {exec:?} diverged from serial"
                );
            }
        }
    }

    #[test]
    fn hop_delay_always_honors_the_lookahead() {
        let cfg = small();
        assert!(cfg.rdma.one_way(cfg.payload as u64) >= cfg.lookahead());
    }

    #[test]
    #[should_panic(expected = "self-sends")]
    fn bad_stride_is_rejected() {
        // stride 6 at 12 nodes: leg 2 lands back on the origin.
        let mut cfg = small();
        cfg.stride = 6;
        let _ = MultiNodeSim::new(cfg);
    }
}
