//! Conservative time-windowed **parallel** DES: shard the simulated nodes
//! across cores without giving up a single bit of determinism.
//!
//! The serial kernel ([`Sim`]/[`Harness`]) is one clock and one event
//! queue; after the hot-path flattening PRs it runs as fast as one core
//! allows. The next order of magnitude comes from the axis this module
//! owns: partition the simulated *nodes* over N worker shards, each with
//! its own full simulation kernel (event queue, payload slots, RNG
//! streams), and let the shards run concurrently inside **conservative
//! time windows**.
//!
//! # The lookahead contract
//!
//! Conservative parallel DES is safe exactly when no shard can affect
//! another "faster than light": every cross-shard interaction must take at
//! least some minimum delay `L` — the **lookahead** — between the instant
//! a source shard decides to send and the earliest instant the destination
//! can observe the effect. The substrates expose that bound
//! (`RdmaConfig::lookahead()` = doorbell + TX pipeline + propagation + RX
//! pipeline; `TcpCosts::INTER_NODE_WIRE` = the intra-cluster wire floor), and
//! the runner sizes its windows to it: during window `k` covering
//! `[k·L, (k+1)·L)` every shard processes only local events, and any
//! cross-shard message sent inside the window arrives at
//! `t + d ≥ k·L + L = (k+1)·L` — i.e. never earlier than the *next*
//! window. Draining the mailboxes at each window barrier therefore
//! delivers every message before the window that could fire it.
//! [`Outbox::send`] debug-asserts the contract on every send.
//!
//! # Determinism
//!
//! Every event carries a [`Key`]: the node whose handler scheduled it
//! ([`ShardEngine::origin`]) and that node's count of keys, and every
//! shard's queue fires an instant's events in key order
//! ([`crate::queue`]). A message takes its key when it is sent — the same
//! key a local effect of its sender would have taken at that point — and
//! carries it through the mailbox, so the order in which messages reach a
//! queue decides nothing: not which thread handed its buffer over first,
//! not whether the destination sits on the sending shard. If every event
//! an origin handles runs on the shard owning that node (local events stay
//! node-local, inter-node interaction goes through the [`Outbox`]), each
//! node's counter, and with it every key, is independent of the partition,
//! and so is each node's sequence of events: the same workload at 1, 2, 4
//! and 8 shards produces byte-identical reports (`tests/prop_shard.rs`
//! pins this). Seeds (events `init` schedules) take origin 0, below every
//! node, as in [`crate::harness`].
//!
//! # Mailboxes
//!
//! A shard's sends to other shards wait in its [`Outbox`], one buffer per
//! destination shard. At the end of its run phase the source hands every
//! non-empty buffer to the destination's mailbox by swapping it with the
//! mailbox's buffer, which the destination drained in its last merge and
//! which kept its allocation — so the steady state allocates nothing. A
//! barrier separates that hand-over from the destination's next merge, so
//! the mailbox's lock is never contended: it is only the safe way to move
//! a buffer between threads. A shard's sends to itself never wait: each is
//! scheduled on its own queue as soon as the handler that sent it returns,
//! counted as a message and as a unit of work in the window it was sent.
//! [`ShardRun::channels`] reports each channel's largest single-window
//! delivery. One shard has no other shard to wait for, so it runs the
//! whole horizon as one window: the serial event loop.
//!
//! # Execution modes
//!
//! [`Execution::Threads`] runs one OS thread per shard with two
//! [`SpinBarrier`] waits per window: one after the merge, one after the
//! hand-over. [`Execution::Sequential`] interleaves the shards on
//! the calling thread — same windows, same merges, same results — which
//! serves as the reference in the determinism tests.
//!
//! # The critical-path model
//!
//! How well would this run scale on a machine with one core per shard?
//! The runner answers in **work units**, not host nanoseconds: in every
//! window each shard counts the events it processed plus the messages it
//! delivered, and [`ShardRun::critical_path_work`] is `Σ_k max_s work[s][k]`
//! — the work on the critical path when windows run in lock-step. Against
//! the total `Σ_s work[s]` that is a pair of integers, identical across
//! execution modes, repetitions and machines
//! (`Σ work ÷ critical_path_work` is the modeled parallel speed-up), so
//! tests pin it with `assert_eq!`. The model counts work, not the cost of
//! the barrier or of an empty window: a window in which no shard does
//! anything adds nothing to either side. Timing the phases of each window
//! with the host clock is not an alternative: a window of the Fig 16
//! cluster holds one or two events, about as long as the clock read that
//! would time it, so the instrument costs a fifth of a 4-shard run and
//! mostly measures itself.
//!
//! Host time is read twice per run ([`ShardRun::wall_ns`]) and apportioned
//! by work share into [`ShardRun::busy_ns`] and
//! [`ShardRun::critical_path_ns`]. Under [`Execution::Threads`] the same
//! formula is applied to the parallel wall.
//!
//! [`Sim`]: crate::sim::Sim

// Kernel steady state: a panic mid-window poisons the shard barrier and
// kills the run.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use crate::harness::{Effects, Engine, Harness, Keys};
use crate::queue::Key;
use crate::time::Nanos;

/// A message in flight: its absolute arrival time, the key its sender gave
/// it (see the module docs) and the payload.
struct Envelope<M> {
    at: Nanos,
    key: Key,
    msg: M,
}

// ---------------------------------------------------------------------------
// Mailbox

/// The hand-over point of one `(source shard, destination shard)` channel.
/// The source fills it at the end of a window's run phase and the
/// destination drains it in the next merge phase, with a barrier between
/// the two (see the module docs).
struct Mailbox<M> {
    buf: Mutex<Vec<Envelope<M>>>,
    /// Set (Release) by the source after a hand-over and read (Acquire) by
    /// the destination's merge, so an idle channel costs the merge one
    /// load. The merge clears it; the barrier orders that clear before the
    /// source's next hand-over.
    full: AtomicBool,
}

impl<M> Mailbox<M> {
    fn new() -> Self {
        Mailbox { buf: Mutex::new(Vec::new()), full: AtomicBool::new(false) }
    }

    /// Lock the buffer. The phase discipline keeps the lock uncontended.
    /// Every update under it (a swap, a drain) leaves the vector valid,
    /// so a lock poisoned by a sibling shard's panic — which the barrier
    /// already propagates — is taken over rather than unwrapped.
    fn buf(&self) -> std::sync::MutexGuard<'_, Vec<Envelope<M>>> {
        self.buf.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

// ---------------------------------------------------------------------------
// Spin barrier

/// Cache-line padding so per-shard counters written by different threads
/// never false-share.
#[repr(align(64))]
struct Pad<T>(T);

/// A sense-free spinning barrier: window widths are microseconds of
/// virtual time, so real-time barrier latency is the dominant
/// parallelization overhead — a futex sleep/wake per window would dwarf
/// the per-window work. Spins briefly, then yields (so oversubscribed
/// machines still make progress).
///
/// The barrier **poisons** when a shard panics (via [`PoisonOnUnwind`]):
/// without that, the surviving shards would spin forever on an arrival
/// count that can never complete and the process would hang instead of
/// failing — every waiter instead re-raises, so the original panic
/// surfaces through the thread scope.
struct SpinBarrier {
    n: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
}

impl SpinBarrier {
    fn new(n: usize) -> Self {
        SpinBarrier {
            n,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    fn check_poison(&self) {
        assert!(
            !self.poisoned.load(Ordering::Acquire),
            "a sibling shard panicked; abandoning the window barrier"
        );
    }

    fn wait(&self) {
        self.check_poison();
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            // Reset before releasing the cohort: waiters cannot touch
            // `arrived` until they observe the generation bump below.
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == generation {
                self.check_poison();
                spins += 1;
                if spins < 128 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Poisons the barrier if the owning shard unwinds, so sibling shards
/// fail fast instead of spinning forever (see [`SpinBarrier`]).
struct PoisonOnUnwind<'a>(&'a SpinBarrier);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

// ---------------------------------------------------------------------------
// Partition

/// A block partition of `nodes` simulated nodes over `shards` shards:
/// shard `s` owns a contiguous index range, earlier shards take the
/// remainder. Block (rather than round-robin) assignment keeps
/// neighbor-heavy traffic intra-shard and makes the shard→node-range map
/// O(1) both ways.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Partition {
    nodes: usize,
    shards: usize,
    /// `nodes / shards`, precomputed — [`Partition::shard_of`] sits on
    /// per-message hot paths.
    base: usize,
    /// `nodes % shards` (shards owning `base + 1` nodes).
    rem: usize,
    /// First node index owned by a `base`-sized shard (`rem * (base+1)`).
    fat: usize,
}

impl Partition {
    /// Partition `nodes` over `shards`. Every shard owns at least one
    /// node, so `shards` must not exceed `nodes`.
    pub fn new(nodes: usize, shards: usize) -> Self {
        assert!(shards > 0, "at least one shard");
        assert!(nodes >= shards, "every shard must own at least one node");
        let base = nodes / shards;
        let rem = nodes % shards;
        Partition { nodes, shards, base, rem, fat: rem * (base + 1) }
    }

    /// The shard owning `node`. One variable division; engines routing at
    /// full rate can go divide-free with [`Partition::shard_lookup`].
    #[inline]
    pub fn shard_of(&self, node: usize) -> usize {
        debug_assert!(node < self.nodes);
        if node < self.fat {
            node / (self.base + 1)
        } else {
            self.rem + (node - self.fat) / self.base
        }
    }

    /// A dense node → shard table for divide-free hot-path routing (one
    /// L1 load per send instead of a variable division).
    pub fn shard_lookup(&self) -> Vec<u32> {
        (0..self.nodes).map(|n| self.shard_of(n) as u32).collect()
    }

    /// The contiguous node range shard `s` owns.
    pub fn range(&self, s: usize) -> std::ops::Range<usize> {
        debug_assert!(s < self.shards);
        let lo = s * self.base + s.min(self.rem);
        let hi = lo + self.base + usize::from(s < self.rem);
        lo..hi
    }
}

// ---------------------------------------------------------------------------
// Engine-facing API

/// A shard's sends of the window in progress: one buffer per destination
/// shard, waiting for the hand-over at the window's end. Its own buffer is
/// emptied after every handler.
struct Sends<M> {
    shard: usize,
    to: Vec<Vec<Envelope<M>>>,
    /// Start of the next window: every send to another shard must arrive
    /// at or after it (the lookahead contract).
    window_end: Nanos,
    /// The run's deadline: a message arriving after it is never delivered.
    deadline: Nanos,
}

/// The handle a handler emits inter-node messages through, self-sends
/// included — routing *every* inter-node interaction through the outbox is
/// what makes reports independent of the shard count; see the module docs.
pub struct Outbox<'a, M> {
    sends: &'a mut Sends<M>,
    keys: Keys<'a>,
}

impl<M> Outbox<'_, M> {
    /// Send `msg` to `dst_shard`, arriving at absolute time `at`, under the
    /// handler's next key. A message to another shard must honor the
    /// lookahead contract: at least one full window after the current one
    /// (debug-asserted).
    #[inline]
    pub fn send(&mut self, dst_shard: usize, at: Nanos, msg: M) {
        debug_assert!(
            dst_shard == self.sends.shard || at >= self.sends.window_end,
            "cross-shard send at {at} violates the lookahead contract \
             (window ends at {})",
            self.sends.window_end
        );
        let key = self.keys.next();
        self.sends.to[dst_shard].push(Envelope { at, key, msg });
    }
}

/// A sharded driver: the per-shard state machine plus the message lift.
///
/// Like [`Engine`], but every event names its origin, `on_event`
/// additionally receives the [`Outbox`] for inter-node sends, and `lift`
/// converts an arriving message into a local event (scheduled at its
/// arrival time). For shard-count-invariant determinism, route **all**
/// inter-node interaction through the outbox and keep local events
/// node-local.
pub trait ShardEngine: Send {
    /// The shard-local event alphabet.
    type Ev: Send;
    /// The inter-node message payload.
    type Msg: Send;

    /// The origin of `ev`: the global id of the node whose state its
    /// handler runs on, a node this shard owns ([`Engine::origin`]).
    fn origin(&self, ev: &Self::Ev) -> usize;

    /// Consume one local event; push follow-up local effects into `fx`
    /// and inter-node messages into `out`.
    fn on_event(
        &mut self,
        now: Nanos,
        ev: Self::Ev,
        fx: &mut Effects<'_, Self::Ev>,
        out: &mut Outbox<'_, Self::Msg>,
    );

    /// Lift an arriving message into a local event. The runner schedules
    /// the result at the message's arrival time, under its key.
    fn lift(&mut self, at: Nanos, msg: Self::Msg) -> Self::Ev;
}

/// How the shards execute.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Execution {
    /// One OS thread per shard, spin barriers between window phases. The
    /// production mode: wall-clock scales with cores.
    Threads,
    /// All shards interleaved on the calling thread — identical results
    /// and an identical work model (the determinism tests pin both), no
    /// thread spawn.
    Sequential,
}

/// Configuration of one sharded run.
#[derive(Clone, Copy, Debug)]
pub struct ShardConfig {
    /// Number of shards (threads in [`Execution::Threads`] mode).
    pub shards: usize,
    /// Window width — at most the workload's cross-shard lookahead. One
    /// shard runs the whole horizon as one window instead.
    pub window: Nanos,
    /// Execution mode.
    pub execution: Execution,
}

impl ShardConfig {
    /// A threaded run of `shards` shards with `window`-wide barriers.
    pub fn new(shards: usize, window: Nanos) -> Self {
        assert!(shards > 0, "at least one shard");
        assert!(!window.is_zero(), "lookahead window must be positive");
        ShardConfig {
            shards,
            window,
            execution: Execution::Threads,
        }
    }

    /// Select the execution mode.
    pub fn execution(mut self, execution: Execution) -> Self {
        self.execution = execution;
        self
    }
}

/// Per-`(src shard → dst shard)` channel statistics, so a traffic burst is
/// attributable to a channel rather than an aggregate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChannelStats {
    /// Source shard of this channel.
    pub src_shard: usize,
    /// Destination shard of this channel.
    pub dst_shard: usize,
    /// Largest single-window delivery.
    pub high_water: u64,
}

/// The outcome of a sharded run: the engines (for report merging) plus
/// aggregate counters and the critical-path model (see the module docs).
pub struct ShardRun<E> {
    /// The shard engines, in shard order.
    pub engines: Vec<E>,
    /// Total simulation events processed across all shards.
    pub events: u64,
    /// Messages delivered, self-sends included (at one shard, every
    /// message is one): those arriving by the deadline. Later arrivals are
    /// dropped uncounted wherever they were sent, so the count is the same
    /// at every shard count.
    pub messages: u64,
    /// Per-channel statistics, in `(dst shard, src shard)` order, a
    /// shard's channel to itself included. At one shard there is only
    /// that one, and its one window's delivery is `messages`.
    pub channels: Vec<ChannelStats>,
    /// Windows run: 1 at one shard.
    pub windows: u64,
    /// Per-shard work: events processed plus messages delivered (merged,
    /// or self-sent), so `Σ work == events + messages`. Deterministic —
    /// equal across execution modes, repetitions and machines.
    pub work: Vec<u64>,
    /// `Σ_k max_s work[s][k]` — the work on the critical path of a machine
    /// with one core per shard and free barriers. With one shard it equals
    /// `Σ work`. Deterministic like [`ShardRun::work`].
    pub critical_path_work: u64,
    /// Host nanoseconds the window loop took, set-up and the final fold
    /// excluded: the run's only two clock reads.
    pub wall_ns: u64,
    /// Each shard's share of `wall_ns` by work,
    /// `wall_ns × work[s] / Σ work` — a model, not a measurement: the
    /// windows and barriers themselves are spread over the shards in
    /// proportion to their work. Under [`Execution::Threads`] the wall is
    /// the parallel one and the formula is the same.
    pub busy_ns: Vec<u64>,
    /// `wall_ns × critical_path_work / Σ work` — the critical path's share
    /// of the host time. Like `busy_ns` it is rounded up, so
    /// `max busy_ns ≤ critical_path_ns ≤ Σ busy_ns` holds exactly, with
    /// equality throughout at one shard.
    pub critical_path_ns: u64,
}

/// Wraps a [`ShardEngine`] (plus its sends) as a plain [`Engine`] so the
/// [`Harness`] trampoline drives the shard's local loop.
struct Runner<E: ShardEngine> {
    engine: E,
    sends: Sends<E::Msg>,
    /// Self-sends of the window in progress.
    self_sent: u64,
}

impl<E: ShardEngine> Engine for Runner<E> {
    type Ev = E::Ev;

    #[inline]
    fn origin(&self, ev: &Self::Ev) -> usize {
        self.engine.origin(ev)
    }

    #[inline]
    fn on_event(&mut self, now: Nanos, ev: Self::Ev, fx: &mut Effects<'_, Self::Ev>) {
        let mut out = Outbox { sends: &mut self.sends, keys: fx.keys };
        self.engine.on_event(now, ev, fx, &mut out);
        if !self.sends.to[self.sends.shard].is_empty() {
            self.schedule_self_sends(fx);
        }
    }
}

impl<E: ShardEngine> Runner<E> {
    /// Put the handler's self-sends on the queue now: each one's key
    /// already ranks it. Out of line, off the per-event path: a run with
    /// it inline measured ≈ 15 % more run wall time on `baseline_fuyao`
    /// (2-vCPU host).
    #[inline(never)]
    fn schedule_self_sends(&mut self, fx: &mut Effects<'_, E::Ev>) {
        let deadline = self.sends.deadline;
        for env in self.sends.to[self.sends.shard].drain(..).filter(|env| env.at <= deadline) {
            self.self_sent += 1;
            let ev = self.engine.lift(env.at, env.msg);
            fx.sim.schedule_keyed(env.at, env.key, ev);
        }
    }
}

/// One shard's full context: kernel, engine+sends and counters. The
/// mailboxes are shared by all shards, indexed `src * n + dst`, and passed
/// to the two window phases.
struct ShardCtx<E: ShardEngine> {
    idx: usize,
    harness: Harness<E::Ev>,
    runner: Runner<E>,
    events: u64,
    delivered: u64,
    /// Messages merged at the start of the window in progress.
    merged: u64,
    /// Largest single-window delivery per source shard.
    high_water: Vec<u64>,
}

impl<E: ShardEngine> ShardCtx<E> {
    /// Window phase 1: schedule last window's arrivals from the other
    /// shards on the local queue, each under its own key.
    fn merge_inbound(&mut self, mailboxes: &[Mailbox<E::Msg>]) {
        let n = self.high_water.len();
        let deadline = self.runner.sends.deadline;
        self.merged = 0;
        for (src, high_water) in self.high_water.iter_mut().enumerate() {
            let mailbox = &mailboxes[src * n + self.idx];
            if src == self.idx || !mailbox.full.load(Ordering::Acquire) {
                continue;
            }
            mailbox.full.store(false, Ordering::Relaxed);
            let mut delivered = 0;
            for env in mailbox.buf().drain(..).filter(|env| env.at <= deadline) {
                delivered += 1;
                let ev = self.runner.engine.lift(env.at, env.msg);
                self.harness.sim.schedule_keyed(env.at, env.key, ev);
            }
            *high_water = (*high_water).max(delivered);
            self.merged += delivered;
        }
        self.delivered += self.merged;
    }

    /// Window phase 2: run local events strictly before `end`, then hand
    /// the window's sends to the other shards' mailboxes. Returns the
    /// window's work (messages delivered + events processed) — the
    /// critical-path model's raw material, folded by the caller as each
    /// window completes.
    fn run_window(&mut self, end: Nanos, mailboxes: &[Mailbox<E::Msg>]) -> u64 {
        self.runner.sends.window_end = end;
        let fired = self.harness.run_window(&mut self.runner, end);
        self.events += fired;
        let self_sent = std::mem::take(&mut self.runner.self_sent);
        self.delivered += self_sent;
        self.high_water[self.idx] = self.high_water[self.idx].max(self_sent);
        let n = self.high_water.len();
        for (dst, sent) in self.runner.sends.to.iter_mut().enumerate() {
            if sent.is_empty() {
                continue;
            }
            let mailbox = &mailboxes[self.idx * n + dst];
            {
                let mut buf = mailbox.buf();
                debug_assert!(buf.is_empty(), "shard {dst} has not merged the last hand-over");
                std::mem::swap(&mut *buf, sent);
            }
            mailbox.full.store(true, Ordering::Release);
        }
        self.merged + self_sent + fired
    }
}

/// Window `k`'s exclusive end for a run bounded by `deadline` (the final
/// window truncates to `deadline + 1` so events *at* the deadline still
/// fire, matching the serial harness's inclusive deadline).
#[inline]
fn window_end(k: u64, window: u64, deadline: Nanos) -> Nanos {
    Nanos(((k + 1).saturating_mul(window)).min(deadline.0.saturating_add(1)))
}

/// Run `engines` (one per shard) to `deadline` under conservative
/// `cfg.window`-wide barriers, or as one window when there is one shard.
/// `init` seeds each shard's initial events (called on the caller thread,
/// in shard order, before anything runs).
///
/// Returns the engines for report merging plus the run counters. Results
/// are bit-identical across execution modes and thread schedules; see the
/// module docs for when they are also shard-count-invariant.
pub fn run_sharded<E: ShardEngine>(
    cfg: &ShardConfig,
    engines: Vec<E>,
    mut init: impl FnMut(usize, &mut Harness<E::Ev>),
    deadline: Nanos,
) -> ShardRun<E> {
    assert_eq!(engines.len(), cfg.shards, "one engine per shard");
    assert!(!cfg.window.is_zero(), "lookahead window must be positive");
    let n = cfg.shards;
    let w = match n {
        1 => deadline.as_nanos().saturating_add(1),
        _ => cfg.window.as_nanos(),
    };
    let n_windows = deadline.as_nanos() / w + 1;

    // One mailbox per ordered shard pair, indexed `src * n + dst`; the
    // diagonal stays unused (a shard's sends to itself never wait).
    let mailboxes: Vec<Mailbox<E::Msg>> = (0..n * n).map(|_| Mailbox::new()).collect();
    let mailboxes = &mailboxes[..];

    let mut ctxs: Vec<ShardCtx<E>> = Vec::with_capacity(n);
    for (idx, engine) in engines.into_iter().enumerate() {
        let mut harness = Harness::new();
        init(idx, &mut harness);
        ctxs.push(ShardCtx {
            idx,
            harness,
            runner: Runner {
                engine,
                sends: Sends {
                    shard: idx,
                    to: (0..n).map(|_| Vec::new()).collect(),
                    window_end: Nanos::ZERO,
                    deadline,
                },
                self_sent: 0,
            },
            events: 0,
            delivered: 0,
            merged: 0,
            high_water: vec![0; n],
        });
    }

    // `Σ_k max_s work[s][k]`, folded as each window completes.
    let mut critical_path_work = 0u64;
    #[expect(
        clippy::disallowed_methods,
        reason = "the run's host wall time, read here and once after the last window; \
                  apportioned by work share in the report, never feeds virtual time"
    )]
    let started = Instant::now();
    match cfg.execution {
        Execution::Sequential => {
            for k in 0..n_windows {
                let end = window_end(k, w, deadline);
                for ctx in &mut ctxs {
                    ctx.merge_inbound(mailboxes);
                }
                let mut heaviest = 0;
                for ctx in &mut ctxs {
                    heaviest = heaviest.max(ctx.run_window(end, mailboxes));
                }
                critical_path_work += heaviest;
            }
        }
        Execution::Threads => {
            let barrier = SpinBarrier::new(n);
            // Each shard publishes its window's work here before the
            // second barrier; shard 0 folds the maximum right after it.
            // The next stores come after the next first barrier, which
            // shard 0 only reaches once it has folded.
            let window_work: Vec<Pad<AtomicU64>> =
                (0..n).map(|_| Pad(AtomicU64::new(0))).collect();
            let run_shard = |ctx: &mut ShardCtx<E>| {
                let _poison = PoisonOnUnwind(&barrier);
                let mut critical = 0u64;
                for k in 0..n_windows {
                    ctx.merge_inbound(mailboxes);
                    // Every mailbox is drained before anyone refills it:
                    // a shard ahead in window k+1 must not race a shard
                    // still draining window k's batch.
                    barrier.wait();
                    let work = ctx.run_window(window_end(k, w, deadline), mailboxes);
                    window_work[ctx.idx].0.store(work, Ordering::Relaxed);
                    // All of window k's sends are handed over before any
                    // shard starts the next merge.
                    barrier.wait();
                    if ctx.idx == 0 {
                        critical += window_work
                            .iter()
                            .map(|c| c.0.load(Ordering::Relaxed))
                            .max()
                            .unwrap_or(0);
                    }
                }
                critical
            };
            let mut rest = ctxs.split_off(1);
            let first = &mut ctxs[0];
            std::thread::scope(|s| {
                let handles: Vec<_> = rest
                    .iter_mut()
                    .map(|ctx| s.spawn(|| run_shard(ctx)))
                    .collect();
                critical_path_work = run_shard(first);
                for h in handles {
                    #[expect(
                        clippy::expect_used,
                        reason = "re-raises a shard panic on the coordinating thread after the \
                                  barrier poisoned; the run is already dead"
                    )]
                    h.join().expect("shard thread panicked");
                }
            });
            ctxs.append(&mut rest);
        }
    }
    let wall_ns = started.elapsed().as_nanos() as u64;

    // Fold the run: shard order is construction order in both modes.
    debug_assert!(ctxs.windows(2).all(|p| p[0].idx < p[1].idx));
    let channels: Vec<ChannelStats> = ctxs
        .iter()
        .flat_map(|c| {
            c.high_water.iter().enumerate().map(|(src, &high_water)| ChannelStats {
                src_shard: src,
                dst_shard: c.idx,
                high_water,
            })
        })
        .collect();
    let work: Vec<u64> = ctxs.iter().map(|c| c.events + c.delivered).collect();
    let total_work: u64 = work.iter().sum();
    // A share of the wall by work, rounded up: ceilings keep
    // `max busy ≤ critical ≤ Σ busy` exact through the integer division.
    let share = |units: u64| match total_work {
        0 => 0,
        total => (u128::from(wall_ns) * u128::from(units)).div_ceil(u128::from(total)) as u64,
    };
    let mut run = ShardRun {
        engines: Vec::with_capacity(n),
        events: 0,
        messages: 0,
        channels,
        windows: n_windows,
        busy_ns: work.iter().map(|&units| share(units)).collect(),
        critical_path_ns: share(critical_path_work),
        work,
        critical_path_work,
        wall_ns,
    };
    for ctx in ctxs {
        run.events += ctx.events;
        run.messages += ctx.delivered;
        run.engines.push(ctx.runner.engine);
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_blocks_cover_all_nodes() {
        for (nodes, shards) in [(8, 1), (8, 3), (17, 4), (4, 4), (100, 7)] {
            let p = Partition::new(nodes, shards);
            let mut seen = 0;
            for s in 0..shards {
                let r = p.range(s);
                assert!(!r.is_empty(), "{nodes}/{shards} shard {s} empty");
                for node in r.clone() {
                    assert_eq!(p.shard_of(node), s, "{nodes}/{shards} node {node}");
                    seen += 1;
                }
                if s + 1 < shards {
                    assert_eq!(r.end, p.range(s + 1).start, "contiguous blocks");
                }
            }
            assert_eq!(seen, nodes);
        }
    }

    /// A deterministic ping workload: every shard owns one node; node `i`
    /// forwards a counter to `(i + 1) % n` with exactly one window of
    /// delay, logging every event.
    struct Ring {
        node: u32,
        n: u32,
        window: Nanos,
        log: Vec<(u64, u64)>,
    }

    #[derive(Debug)]
    struct Token(u64);

    impl ShardEngine for Ring {
        type Ev = Token;
        type Msg = u64;

        fn origin(&self, _ev: &Token) -> usize {
            self.node as usize
        }

        fn on_event(
            &mut self,
            now: Nanos,
            ev: Token,
            _fx: &mut Effects<'_, Token>,
            out: &mut Outbox<'_, u64>,
        ) {
            self.log.push((now.0, ev.0));
            if ev.0 < 40 {
                let dst = (self.node + 1) % self.n;
                out.send(dst as usize, now + self.window, ev.0 + 1);
            }
        }

        fn lift(&mut self, _at: Nanos, msg: u64) -> Token {
            Token(msg)
        }
    }

    fn run_ring(n: u32, execution: Execution) -> Vec<Vec<(u64, u64)>> {
        let window = Nanos(1_000);
        let engines: Vec<Ring> = (0..n)
            .map(|node| Ring { node, n, window, log: Vec::new() })
            .collect();
        let cfg = ShardConfig::new(n as usize, window).execution(execution);
        let run = run_sharded(
            &cfg,
            engines,
            |s, h| {
                if s == 0 {
                    h.schedule_at(Nanos(0), Token(0));
                }
            },
            Nanos(60_000),
        );
        assert!(run.events > 0);
        run.engines.into_iter().map(|e| e.log).collect()
    }

    #[test]
    fn ring_token_crosses_shards_on_window_boundaries() {
        let logs = run_ring(3, Execution::Sequential);
        // Token v fires at time v * window on node v % 3.
        for (node, log) in logs.iter().enumerate() {
            for &(t, v) in log {
                assert_eq!(v % 3, node as u64);
                assert_eq!(t, v * 1_000);
            }
        }
        let total: usize = logs.iter().map(Vec::len).sum();
        assert_eq!(total, 41);
    }

    #[test]
    fn threads_and_sequential_agree() {
        for n in [1, 2, 4] {
            assert_eq!(
                run_ring(n, Execution::Threads),
                run_ring(n, Execution::Sequential),
                "{n} shards"
            );
        }
    }

    #[test]
    fn critical_path_is_the_streamed_sum_of_window_maxima() {
        // The runner keeps no per-window vector, so pin what
        // `Σ_k max_s work[s][k]` implies about the per-shard sums it does
        // keep: with one shard the two are the same number, and with more
        // the critical path lies between the busiest shard and all of them
        // — in both execution modes, at half the 2 µs relay delay or all of
        // it, in work units and in the host nanoseconds apportioned from
        // them.
        for execution in [Execution::Sequential, Execution::Threads] {
            for (n, window) in [(1u32, 1_000), (3, 1_000), (3, 2_000), (4, 2_000)] {
                let engines: Vec<Ring> = (0..n)
                    .map(|node| Ring { node, n, window: Nanos(2_000), log: Vec::new() })
                    .collect();
                let cfg = ShardConfig::new(n as usize, Nanos(window)).execution(execution);
                let run = run_sharded(
                    &cfg,
                    engines,
                    |s, h| {
                        if s == 0 {
                            h.schedule_at(Nanos(0), Token(0));
                        }
                    },
                    Nanos(100_000),
                );
                let what = format!("{n} shards, {window} ns windows, {execution:?}");
                assert_eq!(run.busy_ns.len(), n as usize, "{what}");
                let (busiest, total) = (
                    *run.busy_ns.iter().max().unwrap(),
                    run.busy_ns.iter().sum::<u64>(),
                );
                assert!(busiest > 0, "{what}: busy time is measured");
                assert!(
                    (busiest..=total).contains(&run.critical_path_ns),
                    "{what}: {busiest} <= {} <= {total}",
                    run.critical_path_ns
                );
                assert!(total >= run.wall_ns, "{what}: the shares cover the wall");
                if n == 1 {
                    assert_eq!(run.critical_path_ns, total, "{what}");
                }
                // The token relay keeps one shard busy per window, so its
                // critical path is all of its work: 41 events, 40 merges.
                assert_eq!(run.work.iter().sum::<u64>(), run.events + run.messages, "{what}");
                assert_eq!((run.events, run.messages), (41, 40), "{what}");
                assert_eq!(run.critical_path_work, 81, "{what}");
            }
        }
    }

    #[test]
    fn per_channel_stats_attribute_traffic() {
        // The n-shard ring forwards node s → s+1 only: every (s, s+1)
        // channel sees traffic, every other channel stays silent. At one
        // shard that is the shard's channel to itself.
        let window = Nanos(1_000);
        for execution in [Execution::Sequential, Execution::Threads] {
            for n in [1u32, 3] {
                let engines: Vec<Ring> =
                    (0..n).map(|node| Ring { node, n, window, log: Vec::new() }).collect();
                let run = run_sharded(
                    &ShardConfig::new(n as usize, window).execution(execution),
                    engines,
                    |s, h| {
                        if s == 0 {
                            h.schedule_at(Nanos(0), Token(0));
                        }
                    },
                    Nanos(60_000),
                );
                assert_eq!(run.channels.len(), (n * n) as usize, "one stats row per shard pair");
                for st in &run.channels {
                    let active = st.dst_shard == (st.src_shard + 1) % n as usize;
                    assert_eq!(st.high_water > 0, active, "{st:?}");
                }
                let delivered: u64 = run.channels.iter().map(|c| c.high_water).sum();
                assert!(delivered > 0);
            }
        }
    }

    #[test]
    fn a_burst_loses_nothing_and_fires_in_time_then_send_order() {
        /// Shard 0 fires the same 1 000-message burst at shard 1 in two
        /// separate windows, with arrival instants shuffled against the
        /// send order.
        struct Burst {
            node: usize,
            window: Nanos,
            log: Vec<(u64, u64)>,
        }
        const BURST: u64 = 1_000;
        fn arrival(i: u64, base: Nanos) -> Nanos {
            base + Nanos(i * 7_919 % 13)
        }
        impl ShardEngine for Burst {
            type Ev = Option<u64>;
            type Msg = u64;
            fn origin(&self, _ev: &Option<u64>) -> usize {
                self.node
            }
            fn on_event(
                &mut self,
                now: Nanos,
                ev: Option<u64>,
                _fx: &mut Effects<'_, Self::Ev>,
                out: &mut Outbox<'_, u64>,
            ) {
                match ev {
                    None => {
                        for i in 0..BURST {
                            out.send(1, arrival(i, now + self.window), i);
                        }
                    }
                    Some(i) => self.log.push((now.0, i)),
                }
            }
            fn lift(&mut self, _at: Nanos, msg: u64) -> Self::Ev {
                Some(msg)
            }
        }
        let window = Nanos(1_000);
        let bursts = [Nanos(0), Nanos(5_000)];
        let mut want: Vec<(u64, u64)> = Vec::new();
        for fired in bursts {
            // Keys rise with `i`, so same-instant messages fire in `i` order.
            let mut burst: Vec<_> = (0..BURST).map(|i| (arrival(i, fired + window).0, i)).collect();
            burst.sort_unstable();
            want.extend(burst);
        }
        for execution in [Execution::Sequential, Execution::Threads] {
            let engines = (0..2).map(|node| Burst { node, window, log: Vec::new() }).collect();
            let cfg = ShardConfig::new(2, window).execution(execution);
            let run = run_sharded(
                &cfg,
                engines,
                |s, h| {
                    if s == 0 {
                        for at in bursts {
                            h.schedule_at(at, None);
                        }
                    }
                },
                Nanos(10_000),
            );
            assert_eq!(run.messages, 2 * BURST, "{execution:?}: nothing lost");
            assert_eq!(run.engines[1].log, want, "{execution:?}: (time, send) order");
            let st = run.channels.iter().find(|c| (c.src_shard, c.dst_shard) == (0, 1)).unwrap();
            assert_eq!(st.high_water, BURST, "{execution:?}");
        }
    }

    #[test]
    fn same_instant_messages_fire_by_sender_node_not_by_shard() {
        /// Two source shards fire same-instant messages at a sink. Shard 0
        /// hosts node 1 and shard 1 node 0, so node 0's messages must come
        /// first although shard 0's mailbox is merged first, however the
        /// threads interleave.
        struct Src {
            node: usize,
            window: Nanos,
        }
        struct Sink {
            log: Vec<(usize, u64)>,
        }
        enum Node {
            Src(Src),
            Sink(Sink),
        }
        impl ShardEngine for Node {
            type Ev = (usize, u64);
            type Msg = (usize, u64);
            fn origin(&self, _ev: &(usize, u64)) -> usize {
                match self {
                    Node::Src(s) => s.node,
                    Node::Sink(_) => 2,
                }
            }
            fn on_event(
                &mut self,
                now: Nanos,
                ev: (usize, u64),
                _fx: &mut Effects<'_, (usize, u64)>,
                out: &mut Outbox<'_, (usize, u64)>,
            ) {
                match self {
                    Node::Src(s) => {
                        // Both sources target the same arrival instant.
                        for k in 0..3 {
                            out.send(2, now + s.window, (s.node, k));
                        }
                    }
                    Node::Sink(s) => s.log.push(ev),
                }
            }
            fn lift(&mut self, _at: Nanos, msg: (usize, u64)) -> (usize, u64) {
                msg
            }
        }
        let window = Nanos(500);
        for execution in [Execution::Sequential, Execution::Threads] {
            let engines = vec![
                Node::Src(Src { node: 1, window }),
                Node::Src(Src { node: 0, window }),
                Node::Sink(Sink { log: Vec::new() }),
            ];
            let run = run_sharded(
                &ShardConfig::new(3, window).execution(execution),
                engines,
                |s, h| {
                    if s < 2 {
                        h.schedule_at(Nanos(0), (s, 0));
                    }
                },
                Nanos(2_000),
            );
            let Node::Sink(sink) = &run.engines[2] else {
                panic!("sink is shard 2")
            };
            assert_eq!(
                sink.log,
                vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)],
                "{execution:?}: same-instant messages fire by (sender node, send order)"
            );
            // Window 0: both sources fire side by side (work 1 each, one on
            // the critical path). Window 1: the sink merges six messages
            // and fires six events.
            assert_eq!(run.work, [1, 1, 12]);
            assert_eq!(run.critical_path_work, 13);
        }
    }

    #[test]
    fn one_shard_runs_one_window_and_schedules_self_sends_at_once() {
        // The ring at one shard relays through its own node every 1 µs
        // over a 60 µs horizon: one window, 40 self-sends, each counted as
        // a message and a unit of work.
        for execution in [Execution::Sequential, Execution::Threads] {
            let engines = vec![Ring { node: 0, n: 1, window: Nanos(1_000), log: Vec::new() }];
            let run = run_sharded(
                &ShardConfig::new(1, Nanos(1_000)).execution(execution),
                engines,
                |_, h| h.schedule_at(Nanos(0), Token(0)),
                Nanos(60_000),
            );
            assert_eq!((run.windows, run.events, run.messages), (1, 41, 40), "{execution:?}");
            assert_eq!((run.work.clone(), run.critical_path_work), (vec![81], 81), "{execution:?}");
            assert_eq!(run.channels[0].high_water, 40, "{execution:?}: the one window's delivery");
        }
    }

    #[test]
    #[should_panic(expected = "every shard must own at least one node")]
    fn partition_rejects_more_shards_than_nodes() {
        let _ = Partition::new(2, 3);
    }

    #[test]
    fn shard_panic_poisons_the_barrier_instead_of_hanging() {
        /// Shard 1 panics on its first event; shard 0 keeps forwarding
        /// tokens and would otherwise spin at the window barrier forever.
        struct Bomb {
            shard: u32,
            window: Nanos,
        }
        impl ShardEngine for Bomb {
            type Ev = u64;
            type Msg = u64;
            fn origin(&self, _ev: &u64) -> usize {
                self.shard as usize
            }
            fn on_event(
                &mut self,
                now: Nanos,
                ev: u64,
                _fx: &mut Effects<'_, u64>,
                out: &mut Outbox<'_, u64>,
            ) {
                assert!(self.shard != 1, "bomb shard detonated");
                out.send(1, now + self.window, ev + 1);
            }
            fn lift(&mut self, _at: Nanos, msg: u64) -> u64 {
                msg
            }
        }
        let window = Nanos(1_000);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let engines = vec![Bomb { shard: 0, window }, Bomb { shard: 1, window }];
            run_sharded(
                &ShardConfig::new(2, window),
                engines,
                |s, h| {
                    if s == 0 {
                        h.schedule_at(Nanos(0), 0u64);
                    }
                },
                Nanos(1_000_000), // 1000 windows: a hang here would time out
            )
        }));
        assert!(result.is_err(), "the shard panic must propagate, not hang");
    }
}
