//! Property test: the conservative sharded runner is deterministic in the
//! strong sense — a workload that follows the `shard` module's discipline
//! (every event's origin its global node id, all inter-node traffic
//! through the outbox, node-local events only) produces **byte-identical**
//! per-node event traces at every shard count and in both execution modes.
//!
//! The workload is a randomized message storm: each node, on receiving a
//! token, logs it, schedules a node-local echo inside the window, and
//! forwards one or two tokens to pseudo-random destinations with delays
//! at or above the lookahead (sometimes *exactly* the lookahead, landing
//! on window boundaries; frequently colliding on the same instant from
//! different sources, exercising the `(time, origin, count)` key order).

use proptest::prelude::*;

use palladium_simnet::{
    run_sharded, Arrival, ArrivalProcess, Effects, Execution, Nanos, OpenLoop, OpenLoopConfig,
    Outbox, Partition, ShardConfig, ShardEngine, ShardRun,
};

const NODES: usize = 8;
const LOOKAHEAD: Nanos = Nanos(1_000);

/// SplitMix64: deterministic hash driving the workload's branching.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug)]
enum Ev {
    /// A token arrived from another node (or was seeded).
    Token { node: u32, val: u64 },
    /// A node-local echo of a token (never crosses nodes).
    Echo { node: u32, val: u64 },
}

struct Storm {
    lo: u32,
    part: Partition,
    seed: u64,
    /// Per-owned-node log of `(time, tag, value)`.
    logs: Vec<Vec<(u64, u8, u64)>>,
}

impl Storm {
    fn log(&mut self, node: u32, t: Nanos, tag: u8, val: u64) {
        self.logs[(node - self.lo) as usize].push((t.0, tag, val));
    }
}

impl ShardEngine for Storm {
    type Ev = Ev;
    type Msg = (u32, u64);

    fn origin(&self, ev: &Ev) -> usize {
        match *ev {
            Ev::Token { node, .. } | Ev::Echo { node, .. } => node as usize,
        }
    }

    fn on_event(
        &mut self,
        now: Nanos,
        ev: Ev,
        fx: &mut Effects<'_, Ev>,
        out: &mut Outbox<'_, (u32, u64)>,
    ) {
        match ev {
            Ev::Token { node, val } => {
                self.log(node, now, 0, val);
                let h = mix(self.seed ^ val ^ (u64::from(node) << 32));
                // Node-local echo strictly inside the current window.
                fx.after(Nanos(h % LOOKAHEAD.0), Ev::Echo { node, val });
                if val >= 32 {
                    return; // storm dies out: bounded run
                }
                // Forward tokens; delay ≥ lookahead, often exactly on a
                // window boundary, often colliding. Branching is strictly
                // subcritical (doubling only every 8th value, 1-in-8
                // dropout otherwise), so the storm stays bounded.
                let fanout = if val.is_multiple_of(8) {
                    2
                } else {
                    u64::from(!(h >> 8).is_multiple_of(8))
                };
                for k in 0..fanout {
                    let hk = mix(h ^ k);
                    let dst = (hk % NODES as u64) as u32;
                    let dst = if dst == node { (dst + 1) % NODES as u32 } else { dst };
                    let delay = match (hk >> 16) % 3 {
                        0 => LOOKAHEAD,                        // exact boundary
                        1 => LOOKAHEAD + Nanos(hk % 7),        // near-boundary ties
                        _ => LOOKAHEAD + Nanos(hk % (3 * LOOKAHEAD.0)),
                    };
                    out.send(self.part.shard_of(dst as usize), now + delay, (dst, val + 1 + k));
                }
            }
            Ev::Echo { node, val } => {
                self.log(node, now, 1, val);
            }
        }
    }

    fn lift(&mut self, _at: Nanos, (dst, val): (u32, u64)) -> Ev {
        Ev::Token { node: dst, val }
    }
}

/// Run the storm and return the per-node logs concatenated in global node
/// order — the shard-count-independent fingerprint.
fn run_storm(seed: u64, tokens: u8, shards: usize, execution: Execution) -> Vec<Vec<(u64, u8, u64)>> {
    let part = Partition::new(NODES, shards);
    let engines: Vec<Storm> = (0..shards)
        .map(|s| Storm {
            lo: part.range(s).start as u32,
            part,
            seed,
            logs: part.range(s).map(|_| Vec::new()).collect(),
        })
        .collect();
    let cfg = ShardConfig::new(shards, LOOKAHEAD).execution(execution);
    let run = run_sharded(
        &cfg,
        engines,
        |s, h| {
            for node in part.range(s) {
                for k in 0..u64::from(tokens) {
                    // Node 0's first token is unconditional so every seed
                    // produces at least one event; the rest seed
                    // pseudo-randomly (partition-independent either way).
                    let seeded = (node == 0 && k == 0)
                        || mix(seed ^ node as u64 ^ (k << 20)).is_multiple_of(4);
                    if seeded {
                        h.schedule_at(
                            Nanos(mix(seed ^ k) % 500),
                            Ev::Token { node: node as u32, val: k },
                        );
                    }
                }
            }
        },
        Nanos(200_000),
    );
    run.engines.into_iter().flat_map(|e| e.logs).collect()
}

// ---------------------------------------------------------------------------
// The cluster-shaped storm: the sharded Fig 16 driver's event structure
// distilled to the kernel contract. Frames land in a per-node completion
// queue; a *coalesced doorbell* (one per batch, scheduled only when the CQ
// goes non-empty — the serial cluster's CQ doorbell coalescing) drains the
// whole queue at once into an engine work queue; an *engine slot* drains
// that queue one item per slot (the DNE drain loop) and emits the next
// frame to a pseudo-random node at ≥ the lookahead. Batching makes event
// counts *state-dependent* — a doorbell observes everything that arrived
// before it fired — so this storm would catch merge-ordering bugs that the
// one-token-one-event storm above cannot.

#[derive(Debug)]
enum ClusterEv {
    /// A frame arrived from the fabric (cross-shard mailbox).
    Frame { node: u32, val: u64 },
    /// The coalesced CQ doorbell: drain every pending completion.
    Doorbell { node: u32 },
    /// One engine slot: process one queued work item.
    EngineSlot { node: u32 },
}

struct ClusterStorm {
    lo: u32,
    part: Partition,
    seed: u64,
    /// Per-owned-node pending completions (filled by frames, drained by
    /// the doorbell).
    cq: Vec<Vec<u64>>,
    /// Whether a doorbell is already scheduled for the node.
    armed: Vec<bool>,
    /// Per-owned-node engine work queue (drained one item per slot).
    work: Vec<std::collections::VecDeque<u64>>,
    busy: Vec<bool>,
    /// Per-owned-node log of `(time, tag, value)`.
    logs: Vec<Vec<(u64, u8, u64)>>,
}

impl ClusterStorm {
    fn li(&self, node: u32) -> usize {
        (node - self.lo) as usize
    }

    fn log(&mut self, node: u32, t: Nanos, tag: u8, val: u64) {
        let li = self.li(node);
        self.logs[li].push((t.0, tag, val));
    }
}

impl ShardEngine for ClusterStorm {
    type Ev = ClusterEv;
    type Msg = (u32, u64);

    fn origin(&self, ev: &ClusterEv) -> usize {
        match *ev {
            ClusterEv::Frame { node, .. }
            | ClusterEv::Doorbell { node }
            | ClusterEv::EngineSlot { node } => node as usize,
        }
    }

    fn on_event(
        &mut self,
        now: Nanos,
        ev: ClusterEv,
        fx: &mut Effects<'_, ClusterEv>,
        out: &mut Outbox<'_, (u32, u64)>,
    ) {
        match ev {
            ClusterEv::Frame { node, val } => {
                self.log(node, now, 0, val);
                let li = self.li(node);
                self.cq[li].push(val);
                if !self.armed[li] {
                    // Coalesce: one doorbell per batch, inside the window.
                    self.armed[li] = true;
                    let h = mix(self.seed ^ val ^ (u64::from(node) << 24));
                    fx.after(Nanos(1 + h % (LOOKAHEAD.0 / 2)), ClusterEv::Doorbell { node });
                }
            }
            ClusterEv::Doorbell { node } => {
                let li = self.li(node);
                self.armed[li] = false;
                // Drain the whole CQ — the batch content depends on every
                // frame merged before this instant.
                let batch = std::mem::take(&mut self.cq[li]);
                self.log(node, now, 1, batch.len() as u64);
                for val in batch {
                    self.work[li].push_back(val);
                }
                if !self.busy[li] && !self.work[li].is_empty() {
                    self.busy[li] = true;
                    fx.after(Nanos(40), ClusterEv::EngineSlot { node });
                }
            }
            ClusterEv::EngineSlot { node } => {
                let li = self.li(node);
                let Some(val) = self.work[li].pop_front() else {
                    self.busy[li] = false;
                    return;
                };
                self.log(node, now, 2, val);
                if val < 40 {
                    // Forward the next frame of the chain across the fabric.
                    let h = mix(self.seed ^ val.rotate_left(17) ^ u64::from(node));
                    let dst = (h % NODES as u64) as u32;
                    let dst = if dst == node { (dst + 1) % NODES as u32 } else { dst };
                    let delay = LOOKAHEAD + Nanos(h % (2 * LOOKAHEAD.0));
                    out.send(self.part.shard_of(dst as usize), now + delay, (dst, val + 1));
                }
                if self.work[li].is_empty() {
                    self.busy[li] = false;
                } else {
                    fx.after(Nanos(25), ClusterEv::EngineSlot { node });
                }
            }
        }
    }

    fn lift(&mut self, _at: Nanos, (dst, val): (u32, u64)) -> ClusterEv {
        ClusterEv::Frame { node: dst, val }
    }
}

/// Run the cluster storm and return the per-node logs in global node order.
fn run_cluster_storm(
    seed: u64,
    tokens: u8,
    shards: usize,
    execution: Execution,
) -> Vec<Vec<(u64, u8, u64)>> {
    let run = cluster_storm(seed, tokens, shards, execution);
    run.engines.into_iter().flat_map(|e| e.logs).collect()
}

/// The cluster storm's whole [`ShardRun`], counters included.
fn cluster_storm(
    seed: u64,
    tokens: u8,
    shards: usize,
    execution: Execution,
) -> ShardRun<ClusterStorm> {
    let part = Partition::new(NODES, shards);
    let engines: Vec<ClusterStorm> = (0..shards)
        .map(|s| ClusterStorm {
            lo: part.range(s).start as u32,
            part,
            seed,
            cq: part.range(s).map(|_| Vec::new()).collect(),
            armed: part.range(s).map(|_| false).collect(),
            work: part.range(s).map(|_| Default::default()).collect(),
            busy: part.range(s).map(|_| false).collect(),
            logs: part.range(s).map(|_| Vec::new()).collect(),
        })
        .collect();
    let cfg = ShardConfig::new(shards, LOOKAHEAD).execution(execution);
    run_sharded(
        &cfg,
        engines,
        |s, h| {
            for node in part.range(s) {
                for k in 0..u64::from(tokens) {
                    let seeded = (node == 0 && k == 0)
                        || mix(seed ^ (node as u64) << 40 ^ k).is_multiple_of(3);
                    if seeded {
                        h.schedule_at(
                            Nanos(mix(seed ^ k ^ 0xC1) % 700),
                            ClusterEv::Frame { node: node as u32, val: k },
                        );
                    }
                }
            }
        },
        Nanos(200_000),
    )
}

// ---------------------------------------------------------------------------
// The open-loop storm: node 0 plays ingress, consuming a real `OpenLoop`
// generator (Poisson / bursty / flash-crowd arrival processes over a Zipf
// population) exactly the way the overload driver does — the next arrival
// pre-drawn and scheduled as a node-local event, each arrival dispatched
// across the fabric to the worker its function id hashes to. The per-node
// traces must be byte-identical at every shard count and execution mode:
// this is the kernel-level statement of the "arrivals are byte-identical
// regardless of sharding" contract the overload goldens pin end-to-end.

#[derive(Debug)]
enum OpenEv {
    /// The next open-loop arrival lands at the ingress (node 0).
    Arrive,
    /// A dispatched request reaches its worker.
    Work { node: u32, fn_id: u64 },
}

struct OpenStorm {
    lo: u32,
    part: Partition,
    /// The generator plus its pre-drawn next arrival (ingress shard only).
    gen: Option<(OpenLoop, Arrival)>,
    horizon: Nanos,
    logs: Vec<Vec<(u64, u8, u64)>>,
}

impl ShardEngine for OpenStorm {
    type Ev = OpenEv;
    type Msg = (u32, u64);

    fn origin(&self, ev: &OpenEv) -> usize {
        match *ev {
            OpenEv::Arrive => 0,
            OpenEv::Work { node, .. } => node as usize,
        }
    }

    fn on_event(
        &mut self,
        now: Nanos,
        ev: OpenEv,
        fx: &mut Effects<'_, OpenEv>,
        out: &mut Outbox<'_, (u32, u64)>,
    ) {
        match ev {
            OpenEv::Arrive => {
                let (gen, next) = self.gen.as_mut().expect("arrivals on the ingress shard");
                let a = *next;
                assert_eq!(a.at, now, "arrival lands at its drawn time");
                *next = gen.next_arrival();
                if next.at <= self.horizon {
                    fx.at(next.at, OpenEv::Arrive);
                }
                self.logs[0].push((now.0, 0, a.fn_id));
                let dst = 1 + (a.fn_id % (NODES as u64 - 1)) as u32;
                let delay = LOOKAHEAD + Nanos(mix(a.seq ^ a.fn_id) % (2 * LOOKAHEAD.0));
                out.send(self.part.shard_of(dst as usize), now + delay, (dst, a.fn_id));
            }
            OpenEv::Work { node, fn_id } => {
                self.logs[(node - self.lo) as usize].push((now.0, 1, fn_id));
            }
        }
    }

    fn lift(&mut self, _at: Nanos, (dst, fn_id): (u32, u64)) -> OpenEv {
        OpenEv::Work { node: dst, fn_id }
    }
}

fn run_open_storm(
    cfg: &OpenLoopConfig,
    seed: u64,
    shards: usize,
    execution: Execution,
) -> Vec<Vec<(u64, u8, u64)>> {
    let horizon = Nanos(400_000);
    let part = Partition::new(NODES, shards);
    let ingress_shard = part.shard_of(0);
    let engines: Vec<OpenStorm> = (0..shards)
        .map(|s| OpenStorm {
            lo: part.range(s).start as u32,
            part,
            gen: (s == ingress_shard).then(|| {
                let mut gen = OpenLoop::new(cfg, seed);
                let next = gen.next_arrival();
                (gen, next)
            }),
            horizon,
            logs: part.range(s).map(|_| Vec::new()).collect(),
        })
        .collect();
    let first = engines[ingress_shard].gen.as_ref().map(|(_, a)| a.at).unwrap();
    let scfg = ShardConfig::new(shards, LOOKAHEAD).execution(execution);
    let run = run_sharded(
        &scfg,
        engines,
        |s, h| {
            if s == ingress_shard && first <= horizon {
                h.schedule_at(first, OpenEv::Arrive);
            }
        },
        horizon,
    );
    run.engines.into_iter().flat_map(|e| e.logs).collect()
}

fn arrival_process_strategy() -> impl Strategy<Value = ArrivalProcess> {
    prop_oneof![
        (20_000.0f64..400_000.0).prop_map(|rps| ArrivalProcess::Poisson { rps }),
        (20_000.0f64..80_000.0, 3.0f64..8.0).prop_map(|(base, mult)| {
            ArrivalProcess::FlashCrowd {
                base_rps: base,
                peak_rps: base * mult,
                start: Nanos(80_000),
                ramp: Nanos(40_000),
                hold: Nanos(120_000),
                decay: Nanos(80_000),
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Same workload, every partitioning, both execution modes: the merged
    // per-node traces must be identical — bit-reproducible regardless of
    // thread scheduling AND independent of the shard count.
    #[test]
    fn sharded_traces_are_identical_at_every_shard_count(
        seed in any::<u64>(),
        tokens in 1u8..24,
    ) {
        let reference = run_storm(seed, tokens, 1, Execution::Sequential);
        let total: usize = reference.iter().map(Vec::len).sum();
        prop_assert!(total > 0, "storm must produce events");
        for shards in [1usize, 2, 4, 8] {
            for execution in [Execution::Sequential, Execution::Threads] {
                let got = run_storm(seed, tokens, shards, execution);
                prop_assert_eq!(
                    &got, &reference,
                    "{} shards / {:?} diverged", shards, execution
                );
            }
        }
    }

    // The cluster-shaped storm (coalesced doorbells + engine drain) under
    // every partitioning and both modes. The one-shard reference runs as
    // one window; the others merge every lookahead, and keys, not merge
    // instants, rank same-instant events.
    #[test]
    fn cluster_shaped_traces_are_identical_at_every_shard_count(
        seed in any::<u64>(),
        tokens in 1u8..16,
    ) {
        let reference = run_cluster_storm(seed, tokens, 1, Execution::Sequential);
        let total: usize = reference.iter().map(Vec::len).sum();
        prop_assert!(total > 0, "storm must produce events");
        for shards in [1usize, 2, 4, 8] {
            for execution in [Execution::Sequential, Execution::Threads] {
                let got = run_cluster_storm(seed, tokens, shards, execution);
                prop_assert_eq!(
                    &got, &reference,
                    "{} shards / {:?} diverged", shards, execution
                );
            }
        }
    }

    // The critical-path model counts work (events processed + messages
    // delivered), not host time, so it is part of the determinism contract:
    // per-shard work and its critical path are equal across execution
    // modes and across repetitions; total work is the run's events +
    // messages at every shard count, and one shard is its own critical
    // path.
    #[test]
    fn work_accounting_is_deterministic(
        seed in any::<u64>(),
        tokens in 1u8..16,
    ) {
        let model = |r: &ShardRun<ClusterStorm>| (r.work.clone(), r.critical_path_work);
        let serial = cluster_storm(seed, tokens, 1, Execution::Sequential);
        let total = serial.events + serial.messages;
        prop_assert_eq!(model(&serial), (vec![total], total));
        for shards in [2usize, 4, 8] {
            let reference = cluster_storm(seed, tokens, shards, Execution::Sequential);
            let (work, critical) = model(&reference);
            prop_assert_eq!(work.len(), shards);
            prop_assert_eq!(work.iter().sum::<u64>(), total, "{} shards", shards);
            prop_assert_eq!(reference.events + reference.messages, total);
            let busiest = *work.iter().max().unwrap();
            prop_assert!((busiest..=total).contains(&critical), "{} shards", shards);
            for (what, again) in [
                ("rep", cluster_storm(seed, tokens, shards, Execution::Sequential)),
                ("threads", cluster_storm(seed, tokens, shards, Execution::Threads)),
            ] {
                prop_assert_eq!(model(&again), model(&reference), "{} shards, {}", shards, what);
            }
        }
    }

    // Open-loop arrivals through the kernel: a real generator (random
    // process shape, rate, population and seed) drives node 0; the fused
    // arrival + dispatch traces must be byte-identical at every shard
    // count and execution mode, because every draw is a stateless
    // function of (seed, seq) — never of partitioning.
    #[test]
    fn open_loop_arrival_storms_are_shard_count_invariant(
        process in arrival_process_strategy(),
        population in 1u64..50_000,
        seed in any::<u64>(),
    ) {
        let cfg = OpenLoopConfig { process, population };
        let reference = run_open_storm(&cfg, seed, 1, Execution::Sequential);
        let total: usize = reference.iter().map(Vec::len).sum();
        prop_assert!(total > 0, "the horizon must see at least one arrival");
        for shards in [2usize, 4, 8] {
            for execution in [Execution::Sequential, Execution::Threads] {
                let got = run_open_storm(&cfg, seed, shards, execution);
                prop_assert_eq!(
                    &got, &reference,
                    "{} shards / {:?} diverged", shards, execution
                );
            }
        }
    }
}
