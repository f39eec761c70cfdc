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
//! pipeline; `TcpCosts::lookahead()` = the intra-cluster wire floor), and
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
//! Cross-shard messages travel through SPSC mailboxes (one ring per pair
//! of distinct shards). At each barrier the destination shard drains its
//! inbound rings and merges the batch in **`(time, src, seq)` order**
//! before scheduling, where `src` is a caller-chosen source key and `seq`
//! is the per-channel send counter. Transport order — which thread pushed
//! first, ring vs. overflow spill — is erased by the sort, so reports are
//! bit-reproducible regardless of thread scheduling. If the engine uses a
//! partition-independent `src` key (e.g. the global simulated-node id, as
//! [`palladium_core`'s multi-node driver] does) and routes **all**
//! inter-node traffic through the outbox (same-shard destinations
//! included), the merged schedule is also independent of the shard
//! *count*: the same workload at 1, 2 and 4 shards produces byte-identical
//! reports (`tests/prop_shard.rs` pins this).
//!
//! # Mailbox auto-sizing
//!
//! Mailboxes start small (`MAILBOX_CAPACITY`, 64 envelopes — a window of
//! the Fig 16 cluster delivers fewer than ten) and grow: when a window
//! bursts past the ring into the (counted, mutex-guarded) overflow vector,
//! the consumer — during the quiesced drain phase, when the ring is empty
//! and no producer can race — swaps in a ring sized to twice that
//! window's delivery high-water mark. Steady
//! state therefore never touches the overflow mutex: only the first window
//! of a new burst regime spills, and per-channel spill counts plus window
//! high-water marks are reported in [`ShardRun::channels`] so the policy
//! is observable.
//!
//! A shard's sends to **itself** never cross a thread, so they skip the
//! ring: [`Outbox::send`] pushes them onto a shard-local vector that the
//! next barrier's merge appends to the batch before the `(time, src, seq)`
//! sort — same sequence counter, same merge, same report row in
//! [`ShardRun::channels`] (a vector grows in place, so it never spills).
//!
//! # Execution modes
//!
//! [`Execution::Threads`] runs one OS thread per shard with two
//! [`SpinBarrier`] waits per window (mailboxes quiesce between the drain
//! and run phases). [`Execution::Sequential`] interleaves the shards on
//! the calling thread — same windows, same merges, same results — which
//! serves as the reference in the determinism tests.
//!
//! # The critical-path model
//!
//! How well would this run scale on a machine with one core per shard?
//! The runner answers in **work units**, not host nanoseconds: in every
//! window each shard counts the events it processed plus the messages it
//! merged, and [`ShardRun::critical_path_work`] is `Σ_k max_s work[s][k]`
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
//! [`palladium_core`'s multi-node driver]: self

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::harness::{Effects, Engine, Harness};
use crate::time::Nanos;

/// A cross-shard message in flight: the absolute arrival time, the
/// sender's ordering key, the per-channel sequence number and the payload.
/// Merged at window barriers in `(at, src, seq)` order (see module docs).
#[derive(Clone, Debug)]
pub struct Envelope<M> {
    /// Absolute virtual arrival time.
    pub at: Nanos,
    /// Source ordering key. Use a partition-independent key (the global
    /// node id) for shard-count-invariant determinism; distinct sources
    /// sharing one instant merge in key order.
    pub src: u32,
    /// Per-`(source shard, destination shard)` send counter: preserves one
    /// source's emission order among same-instant, same-key messages.
    pub seq: u64,
    /// The message.
    pub msg: M,
}

// ---------------------------------------------------------------------------
// SPSC mailbox

/// Cache-line padding so the producer and consumer cursors of a mailbox
/// never false-share.
#[repr(align(64))]
struct Pad<T>(T);

/// The shared state of one auto-sizing SPSC mailbox. The ring starts at
/// the configured capacity; when a window bursts past it the producer
/// spills to the mutex-guarded overflow vector (counted, never dropped) —
/// the barrier merge sorts everything anyway, so the spill is a
/// throughput detail, not a correctness event. The consumer reacts to a
/// spill by swapping in a larger ring during the quiesced drain phase
/// (see [`Consumer::drain_into`]), so a sustained burst regime spills at
/// most once.
struct Channel<M> {
    /// The ring storage. Behind an `UnsafeCell` because the *consumer*
    /// replaces it when auto-sizing; the swap only happens while the ring
    /// is empty and producers are quiesced at the window barrier, whose
    /// AcqRel arrival chain + Release/Acquire generation hand-off
    /// publishes the new buffer to the producer before its next push.
    buf: UnsafeCell<Box<[RingSlot<M>]>>,
    /// Consumer cursor (next slot to pop).
    head: Pad<AtomicUsize>,
    /// Producer cursor (next slot to fill).
    tail: Pad<AtomicUsize>,
    overflow: Mutex<Vec<Envelope<M>>>,
    spilled: AtomicU64,
}

// SAFETY: the ring is a classic single-producer/single-consumer queue —
// the producer only writes slots in `[tail, head + cap)` and publishes
// them with a release store of `tail`; the consumer only reads slots in
// `[head, tail)` after an acquire load of `tail`. `Producer`/`Consumer`
// are constructed exactly once per channel, which enforces the SPSC
// roles. The buffer swap (consumer-only) is confined to the barrier
// phase where the producer provably does not touch the channel.
unsafe impl<M: Send> Send for Channel<M> {}
// SAFETY: same argument as `Send` above — shared access is exactly the
// SPSC protocol: one producer thread pushing, one consumer thread
// draining, buffer swaps confined to the quiesced barrier phase.
unsafe impl<M: Send> Sync for Channel<M> {}

/// One ring slot: interior-mutable so the producer can fill it through a
/// shared reference, uninitialized until the producer's release-store of
/// `tail` covers it.
type RingSlot<M> = UnsafeCell<MaybeUninit<Envelope<M>>>;

fn ring_buf<M>(cap: usize) -> Box<[RingSlot<M>]> {
    (0..cap).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect()
}

impl<M> Channel<M> {
    /// Build one mailbox, returning its two halves.
    fn pair(cap: usize) -> (Producer<M>, Consumer<M>) {
        assert!(cap > 0, "mailbox capacity must be positive");
        let ch = Arc::new(Channel {
            buf: UnsafeCell::new(ring_buf(cap)),
            head: Pad(AtomicUsize::new(0)),
            tail: Pad(AtomicUsize::new(0)),
            overflow: Mutex::new(Vec::new()),
            spilled: AtomicU64::new(0),
        });
        (
            Producer(Arc::clone(&ch)),
            Consumer { ch, seen_spilled: 0, high_water: 0 },
        )
    }
}

impl<M> Drop for Channel<M> {
    fn drop(&mut self) {
        // Drop any envelopes still parked in the ring (messages sent in
        // the final window, arriving past the deadline).
        let buf = self.buf.get_mut();
        let tail = *self.tail.0.get_mut();
        let mut head = *self.head.0.get_mut();
        while head != tail {
            // SAFETY: slots in [head, tail) were written and not yet read.
            unsafe { (*buf[head % buf.len()].get()).assume_init_drop() };
            head = head.wrapping_add(1);
        }
    }
}

/// Producing half of one SPSC mailbox (held by the source shard's
/// [`Outbox`]).
struct Producer<M>(Arc<Channel<M>>);

/// Consuming half of one SPSC mailbox (held by the destination shard).
struct Consumer<M> {
    ch: Arc<Channel<M>>,
    /// Cumulative spill count at the last drain — a drain only touches
    /// the overflow mutex when the counter moved *since then*, so one
    /// historic spill does not tax every subsequent window.
    seen_spilled: u64,
    /// Largest single-window delivery this channel has seen (the
    /// auto-sizing signal, reported per channel in [`ShardRun`]).
    high_water: u64,
}

impl<M> Producer<M> {
    fn push(&mut self, env: Envelope<M>) {
        let ch = &*self.0;
        // SAFETY: the consumer only replaces the buffer while this
        // producer is quiesced at the window barrier (which also
        // publishes the swap); between barriers the pointer is stable.
        let buf = unsafe { &*ch.buf.get() };
        let tail = ch.tail.0.load(Ordering::Relaxed);
        let head = ch.head.0.load(Ordering::Acquire);
        if tail.wrapping_sub(head) == buf.len() {
            ch.spilled.fetch_add(1, Ordering::Relaxed);
            // simlint: allow(no-panic-hot-path) — the mutex is poisoned only if a sibling shard already panicked; propagating is the correct response
            ch.overflow.lock().expect("mailbox overflow lock").push(env);
            return;
        }
        // SAFETY: SPSC — this thread is the only producer, and the slot at
        // `tail` is outside the consumer's visible `[head, tail)` range.
        unsafe { (*buf[tail % buf.len()].get()).write(env) };
        ch.tail.0.store(tail.wrapping_add(1), Ordering::Release);
    }
}

impl<M> Consumer<M> {
    /// Pop everything currently visible into `out` (ring first, then any
    /// overflow spill), then auto-size: if this window spilled, swap in a
    /// ring holding twice the window's total delivery, so the next window
    /// of the same burst regime stays on the lock-free path. Transport
    /// order is irrelevant — the caller sorts.
    ///
    /// Only called from the barrier's drain phase: the producer is
    /// provably quiescent, which is what makes both the relaxed spill
    /// check and the buffer swap race-free.
    fn drain_into(&mut self, out: &mut Vec<Envelope<M>>) {
        let before = out.len();
        let ch = &*self.ch;
        // SAFETY: only this consumer ever replaces the buffer, and the
        // producer is quiesced for the duration of the drain phase.
        let buf = unsafe { &*ch.buf.get() };
        let tail = ch.tail.0.load(Ordering::Acquire);
        let mut head = ch.head.0.load(Ordering::Relaxed);
        while head != tail {
            // SAFETY: SPSC — slots in `[head, tail)` are initialized and
            // owned by the consumer until `head` advances past them.
            out.push(unsafe { (*buf[head % buf.len()].get()).assume_init_read() });
            head = head.wrapping_add(1);
        }
        ch.head.0.store(head, Ordering::Release);
        let spilled = ch.spilled.load(Ordering::Relaxed);
        if spilled != self.seen_spilled {
            self.seen_spilled = spilled;
            {
                // simlint: allow(no-panic-hot-path) — poisoned only if a sibling shard already panicked; propagating is the correct response
                let mut of = ch.overflow.lock().expect("mailbox overflow lock");
                out.append(&mut of);
            }
            // Auto-size. The ring is empty (fully drained above, producer
            // quiesced), so replacing the storage cannot lose entries or
            // remap live slots; `head == tail` makes the `% len` change
            // harmless.
            let drained = out.len() - before;
            let new_cap = (drained * 2).next_power_of_two();
            if new_cap > buf.len() {
                // SAFETY: consumer-exclusive swap of an empty ring during
                // the quiesced phase (see above); the barrier publishes
                // it to the producer.
                unsafe { *ch.buf.get() = ring_buf(new_cap) };
            }
        }
        self.high_water = self.high_water.max((out.len() - before) as u64);
    }

    fn spilled(&self) -> u64 {
        self.ch.spilled.load(Ordering::Relaxed)
    }

    /// Current ring capacity. Only meaningful once the run has quiesced
    /// (fold phase) — which is the only caller.
    fn capacity(&self) -> usize {
        // SAFETY: called after the run, when no producer is live and this
        // consumer performs no concurrent swap.
        unsafe { (&*self.ch.buf.get()).len() }
    }
}

// ---------------------------------------------------------------------------
// Spin barrier

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

    /// Total simulated nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
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

/// The source shard's handle for emitting cross-shard messages. One
/// destination per shard, self-sends included — routing *everything*
/// inter-node through the outbox is what makes reports independent of the
/// shard count; see the module docs.
pub struct Outbox<M> {
    /// One producer per destination shard; `None` marks the shard's own
    /// slot, whose sends go to `local`.
    to: Vec<Option<Producer<M>>>,
    /// Sends to the shard's own nodes, waiting for the next barrier's
    /// merge. Keeps its capacity across windows.
    local: Vec<Envelope<M>>,
    seq: Vec<u64>,
    /// Start of the next window: every send must arrive at or after it
    /// (the lookahead contract).
    window_end: Nanos,
    sent: u64,
}

impl<M> Outbox<M> {
    /// Send `msg` to `dst_shard`, arriving at absolute time `at`. `src` is
    /// the deterministic merge key (see [`Envelope::src`]). `at` must
    /// honor the lookahead contract: at least one full window after the
    /// current one (debug-asserted).
    #[inline]
    pub fn send(&mut self, dst_shard: usize, at: Nanos, src: u32, msg: M) {
        debug_assert!(
            at >= self.window_end,
            "cross-shard send at {at} violates the lookahead contract \
             (window ends at {})",
            self.window_end
        );
        let seq = self.seq[dst_shard];
        self.seq[dst_shard] = seq + 1;
        let env = Envelope { at, src, seq, msg };
        match &mut self.to[dst_shard] {
            Some(ring) => ring.push(env),
            None => self.local.push(env),
        }
        self.sent += 1;
    }

    /// Messages sent so far through this outbox.
    pub fn sent(&self) -> u64 {
        self.sent
    }
}

/// A sharded driver: the per-shard state machine plus the message lift.
///
/// Like [`Engine`], but `on_event` additionally receives the [`Outbox`]
/// for cross-shard sends, and `lift` converts an arriving envelope into a
/// local event (scheduled at the envelope's arrival time). For
/// shard-count-invariant determinism, route **all** inter-node
/// interaction through the outbox and keep local events node-local.
pub trait ShardEngine: Send {
    /// The shard-local event alphabet.
    type Ev: Send;
    /// The cross-shard message payload.
    type Msg: Send;

    /// Consume one local event; push follow-up local effects into `fx`
    /// and cross-shard messages into `out`.
    fn on_event(
        &mut self,
        now: Nanos,
        ev: Self::Ev,
        fx: &mut Effects<'_, Self::Ev>,
        out: &mut Outbox<Self::Msg>,
    );

    /// Lift an arriving cross-shard message into a local event. The
    /// runner schedules the result at the envelope's arrival time.
    fn lift(&mut self, at: Nanos, src: u32, msg: Self::Msg) -> Self::Ev;
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

/// Initial SPSC ring capacity per shard pair; a burst past it spills to the
/// (counted) overflow vector and grows the ring (see the module docs on
/// auto-sizing).
const MAILBOX_CAPACITY: usize = 64;

/// Configuration of one sharded run.
#[derive(Clone, Copy, Debug)]
pub struct ShardConfig {
    /// Number of shards (threads in [`Execution::Threads`] mode).
    pub shards: usize,
    /// Window width — at most the workload's cross-shard lookahead.
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

/// Per-`(src shard → dst shard)` mailbox statistics, reported so the
/// auto-sizing policy is observable and spill regressions are
/// attributable to a channel rather than an aggregate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChannelStats {
    /// Source shard of this channel.
    pub src_shard: usize,
    /// Destination shard of this channel.
    pub dst_shard: usize,
    /// Envelopes that overflowed the ring into the spill vector (over the
    /// whole run; steady state after auto-sizing adds zero, and a shard's
    /// channel to itself never spills).
    pub spilled: u64,
    /// Largest single-window delivery (ring + overflow).
    pub high_water: u64,
    /// Final capacity after auto-sizing: of the ring, or of the local
    /// vector on a shard's channel to itself.
    pub capacity: usize,
}

/// The outcome of a sharded run: the engines (for report merging) plus
/// aggregate counters and the critical-path model (see the module docs).
pub struct ShardRun<E> {
    /// The shard engines, in shard order.
    pub engines: Vec<E>,
    /// Total simulation events processed across all shards.
    pub events: u64,
    /// Cross-shard messages delivered.
    pub messages: u64,
    /// Messages that overflowed an SPSC ring into the spill vector.
    pub spilled: u64,
    /// Per-channel mailbox statistics (spills, window high-water marks,
    /// final auto-sized capacities), in `(dst shard, src shard)` order.
    pub channels: Vec<ChannelStats>,
    /// Window barriers executed.
    pub windows: u64,
    /// Per-shard work: events processed plus messages merged, so
    /// `Σ work == events + messages`. Deterministic — equal across
    /// execution modes, repetitions and machines.
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

/// Wraps a [`ShardEngine`] (plus its outbox) as a plain [`Engine`] so the
/// batched [`Harness`] trampoline drives the shard's local loop.
struct Runner<E: ShardEngine> {
    engine: E,
    outbox: Outbox<E::Msg>,
}

impl<E: ShardEngine> Engine for Runner<E> {
    type Ev = E::Ev;

    #[inline]
    fn on_event(&mut self, now: Nanos, ev: Self::Ev, fx: &mut Effects<'_, Self::Ev>) {
        self.engine.on_event(now, ev, fx, &mut self.outbox);
    }
}

/// One shard's full context: kernel, engine+outbox, inbound mailboxes and
/// counters.
struct ShardCtx<E: ShardEngine> {
    idx: usize,
    harness: Harness<E::Ev>,
    runner: Runner<E>,
    /// One consumer per source shard; `None` marks the shard's own slot,
    /// fed by the outbox's local vector.
    inbox: Vec<Option<Consumer<E::Msg>>>,
    /// Reused merge buffer.
    inbound: Vec<Envelope<E::Msg>>,
    events: u64,
    delivered: u64,
    /// Messages merged at the start of the window in progress.
    merged: u64,
    /// Largest single-window delivery from the shard to itself.
    local_high_water: u64,
}

impl<E: ShardEngine> ShardCtx<E> {
    /// Window phase 1: drain + deterministically merge last window's
    /// cross-shard arrivals into the local queue.
    fn merge_inbound(&mut self) {
        for c in &mut self.inbox {
            match c {
                Some(ring) => ring.drain_into(&mut self.inbound),
                // The shard's own sends join the batch where their ring
                // would have drained.
                None => {
                    let local = &mut self.runner.outbox.local;
                    self.local_high_water = self.local_high_water.max(local.len() as u64);
                    self.inbound.append(local);
                }
            }
        }
        self.merged = self.inbound.len() as u64;
        if self.merged == 0 {
            return;
        }
        if self.merged > 1 {
            self.inbound.sort_unstable_by_key(|e| (e.at, e.src, e.seq));
        }
        self.delivered += self.merged;
        for env in self.inbound.drain(..) {
            let ev = self.runner.engine.lift(env.at, env.src, env.msg);
            self.harness.schedule_at(env.at, ev);
        }
    }

    /// Window phase 2: run local events strictly before `end`. Returns the
    /// window's work (messages merged + events processed) — the
    /// critical-path model's raw material, folded by the caller as each
    /// window completes.
    fn run_window(&mut self, end: Nanos) -> u64 {
        self.runner.outbox.window_end = end;
        let fired = self.harness.run_window(&mut self.runner, end);
        self.events += fired;
        self.merged + fired
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
/// `cfg.window`-wide barriers. `init` seeds each shard's initial events
/// (called on the caller thread, in shard order, before anything runs).
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
    let w = cfg.window.as_nanos();
    let n_windows = deadline.as_nanos() / w + 1;

    // Mailboxes: producers[src][dst] / consumers filed per destination.
    // A shard's channel to itself is the outbox's local vector, not a ring.
    let mut producers: Vec<Vec<Option<Producer<E::Msg>>>> = (0..n).map(|_| Vec::new()).collect();
    let mut consumers: Vec<Vec<Option<Consumer<E::Msg>>>> = (0..n).map(|_| Vec::new()).collect();
    for (src, producers_of_src) in producers.iter_mut().enumerate() {
        for (dst, consumers_of_dst) in consumers.iter_mut().enumerate() {
            let (p, c) = (src != dst).then(|| Channel::pair(MAILBOX_CAPACITY)).unzip();
            producers_of_src.push(p);
            consumers_of_dst.push(c);
        }
    }

    let mut ctxs: Vec<ShardCtx<E>> = Vec::with_capacity(n);
    for (idx, engine) in engines.into_iter().enumerate() {
        let mut harness = Harness::new();
        init(idx, &mut harness);
        ctxs.push(ShardCtx {
            idx,
            harness,
            runner: Runner {
                engine,
                outbox: Outbox {
                    to: std::mem::take(&mut producers[idx]),
                    local: Vec::with_capacity(MAILBOX_CAPACITY),
                    seq: vec![0; n],
                    window_end: Nanos::ZERO,
                    sent: 0,
                },
            },
            inbox: std::mem::take(&mut consumers[idx]),
            inbound: Vec::new(),
            events: 0,
            delivered: 0,
            merged: 0,
            local_high_water: 0,
        });
    }

    // `Σ_k max_s work[s][k]`, folded as each window completes.
    let mut critical_path_work = 0u64;
    // simlint: allow(no-ambient-time) — the run's host wall time, read here and once after the last window; apportioned by work share in the report, never feeds virtual time
    let started = Instant::now();
    match cfg.execution {
        Execution::Sequential => {
            for k in 0..n_windows {
                let end = window_end(k, w, deadline);
                for ctx in &mut ctxs {
                    ctx.merge_inbound();
                }
                let mut heaviest = 0;
                for ctx in &mut ctxs {
                    heaviest = heaviest.max(ctx.run_window(end));
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
                    ctx.merge_inbound();
                    // All mailboxes quiesce before anyone refills them:
                    // a shard ahead in window k+1 must not race a shard
                    // still draining window k's batch.
                    barrier.wait();
                    let work = ctx.run_window(window_end(k, w, deadline));
                    window_work[ctx.idx].0.store(work, Ordering::Relaxed);
                    // All of window k's sends are mailboxed before any
                    // shard starts the next drain.
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
                    // simlint: allow(no-panic-hot-path) — re-raises a shard panic on the coordinating thread after the barrier poisoned; the run is already dead
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
            c.inbox.iter().enumerate().map(|(src, consumer)| {
                let (spilled, high_water, capacity) = match consumer {
                    Some(ring) => (ring.spilled(), ring.high_water, ring.capacity()),
                    None => (0, c.local_high_water, c.runner.outbox.local.capacity()),
                };
                ChannelStats { src_shard: src, dst_shard: c.idx, spilled, high_water, capacity }
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
        spilled: channels.iter().map(|c| c.spilled).sum(),
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

    #[test]
    fn spsc_ring_roundtrips_and_spills() {
        let (mut p, mut c) = Channel::<u64>::pair(4);
        for i in 0..7u64 {
            p.push(Envelope { at: Nanos(i), src: 0, seq: i, msg: i });
        }
        assert_eq!(c.spilled(), 3, "capacity 4: three spills");
        let mut out = Vec::new();
        c.drain_into(&mut out);
        let mut got: Vec<u64> = out.iter().map(|e| e.msg).collect();
        got.sort_unstable();
        assert_eq!(got, (0..7).collect::<Vec<_>>());
        // Ring reusable after drain.
        p.push(Envelope { at: Nanos(9), src: 0, seq: 9, msg: 9 });
        out.clear();
        c.drain_into(&mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn mailbox_auto_sizes_after_a_spill() {
        let (mut p, mut c) = Channel::<u64>::pair(4);
        for i in 0..20u64 {
            p.push(Envelope { at: Nanos(i), src: 0, seq: i, msg: i });
        }
        let mut out = Vec::new();
        c.drain_into(&mut out);
        assert_eq!(out.len(), 20);
        assert_eq!(c.spilled(), 16);
        assert_eq!(c.high_water, 20);
        // Grown to twice the window's delivery, rounded up to a power of
        // two: (20 * 2) → 64.
        assert_eq!(c.capacity(), 64);
        // The same burst regime now stays on the lock-free ring.
        for i in 0..20u64 {
            p.push(Envelope { at: Nanos(i), src: 0, seq: i, msg: i });
        }
        out.clear();
        c.drain_into(&mut out);
        assert_eq!(out.len(), 20);
        assert_eq!(c.spilled(), 16, "no new spills after auto-sizing");
    }

    #[test]
    fn spsc_drop_releases_undrained_entries() {
        // Leak check is structural: Arc payloads would abort under Miri /
        // assert here if double-dropped; we at least exercise the path.
        let (mut p, c) = Channel::<std::sync::Arc<u8>>::pair(8);
        let payload = std::sync::Arc::new(7u8);
        for i in 0..5 {
            p.push(Envelope { at: Nanos(i), src: 0, seq: i, msg: std::sync::Arc::clone(&payload) });
        }
        drop(p);
        drop(c); // drops the channel with 5 parked envelopes
        assert_eq!(std::sync::Arc::strong_count(&payload), 1, "parked envelopes dropped");
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

        fn on_event(
            &mut self,
            now: Nanos,
            ev: Token,
            _fx: &mut Effects<'_, Token>,
            out: &mut Outbox<u64>,
        ) {
            self.log.push((now.0, ev.0));
            if ev.0 < 40 {
                let dst = (self.node + 1) % self.n;
                out.send(dst as usize, now + self.window, self.node, ev.0 + 1);
            }
        }

        fn lift(&mut self, _at: Nanos, _src: u32, msg: u64) -> Token {
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
                    assert_eq!(st.spilled, 0, "{st:?}");
                    assert!(st.capacity >= 64);
                }
                let delivered: u64 = run.channels.iter().map(|c| c.high_water).sum();
                assert!(delivered > 0);
            }
        }
    }

    #[test]
    fn a_burst_past_the_small_default_spills_once_and_loses_nothing() {
        /// Shard 0 fires the same 1 000-message burst at shard 1 in two
        /// separate windows, with arrival instants and source keys
        /// shuffled against the send order.
        struct Burst {
            window: Nanos,
            log: Vec<(u64, u32, u64)>,
        }
        const BURST: u64 = 1_000;
        fn key(i: u64, base: Nanos) -> (Nanos, u32) {
            (base + Nanos(i * 7_919 % 13), (i % 3) as u32)
        }
        impl ShardEngine for Burst {
            type Ev = Option<(u32, u64)>;
            type Msg = u64;
            fn on_event(
                &mut self,
                now: Nanos,
                ev: Option<(u32, u64)>,
                _fx: &mut Effects<'_, Self::Ev>,
                out: &mut Outbox<u64>,
            ) {
                match ev {
                    None => {
                        for i in 0..BURST {
                            let (at, src) = key(i, now + self.window);
                            out.send(1, at, src, i);
                        }
                    }
                    Some((src, i)) => self.log.push((now.0, src, i)),
                }
            }
            fn lift(&mut self, _at: Nanos, src: u32, msg: u64) -> Self::Ev {
                Some((src, msg))
            }
        }
        let window = Nanos(1_000);
        let bursts = [Nanos(0), Nanos(5_000)];
        let mut want: Vec<(u64, u32, u64)> = Vec::new();
        for fired in bursts {
            let mut burst: Vec<_> = (0..BURST)
                .map(|i| {
                    let (at, src) = key(i, fired + window);
                    (at.0, src, i)
                })
                .collect();
            // Per-channel `seq` rises with `i`, so this is the merge order.
            burst.sort_unstable();
            want.extend(burst);
        }
        for execution in [Execution::Sequential, Execution::Threads] {
            let engines = (0..2).map(|_| Burst { window, log: Vec::new() }).collect();
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
            assert_eq!(run.engines[1].log, want, "{execution:?}: (at, src, seq) order");
            let st = run.channels.iter().find(|c| (c.src_shard, c.dst_shard) == (0, 1)).unwrap();
            // The first burst fills the 64-slot ring and spills the rest;
            // the ring regrown to twice the delivery holds the second.
            assert_eq!(st.spilled, BURST - 64, "{execution:?}: only the first burst spills");
            assert_eq!(st.high_water, BURST, "{execution:?}");
            assert_eq!(st.capacity, 2_048, "{execution:?}");
            assert_eq!(run.spilled, st.spilled, "{execution:?}: no other channel spilled");
        }
    }

    #[test]
    fn merge_orders_by_time_then_src_then_seq() {
        /// Two source shards fire same-instant messages at a sink; the
        /// sink must observe them in (src, seq) order however the threads
        /// interleave.
        struct Src {
            shard: u32,
            window: Nanos,
        }
        struct Sink {
            log: Vec<(u32, u64)>,
        }
        enum Node {
            Src(Src),
            Sink(Sink),
        }
        impl ShardEngine for Node {
            type Ev = (u32, u64);
            type Msg = (u32, u64);
            fn on_event(
                &mut self,
                now: Nanos,
                ev: (u32, u64),
                _fx: &mut Effects<'_, (u32, u64)>,
                out: &mut Outbox<(u32, u64)>,
            ) {
                match self {
                    Node::Src(s) => {
                        // Both sources target the same arrival instant.
                        for k in 0..3 {
                            out.send(2, now + s.window, s.shard, (s.shard, k));
                        }
                    }
                    Node::Sink(s) => {
                        let _ = now;
                        s.log.push(ev);
                    }
                }
            }
            fn lift(&mut self, _at: Nanos, _src: u32, msg: (u32, u64)) -> (u32, u64) {
                msg
            }
        }
        let window = Nanos(500);
        let engines = vec![
            Node::Src(Src { shard: 0, window }),
            Node::Src(Src { shard: 1, window }),
            Node::Sink(Sink { log: Vec::new() }),
        ];
        let run = run_sharded(
            &ShardConfig::new(3, window),
            engines,
            |s, h| {
                if s < 2 {
                    h.schedule_at(Nanos(0), (s as u32, 0));
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
            "same-instant merge must order by (src, seq)"
        );
        // Window 0: both sources fire side by side (work 1 each, one on the
        // critical path). Window 1: the sink merges six messages and fires
        // six events.
        assert_eq!(run.work, [1, 1, 12]);
        assert_eq!(run.critical_path_work, 13);
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
            fn on_event(
                &mut self,
                now: Nanos,
                ev: u64,
                _fx: &mut Effects<'_, u64>,
                out: &mut Outbox<u64>,
            ) {
                assert!(self.shard != 1, "bomb shard detonated");
                out.send(1, now + self.window, self.shard, ev + 1);
            }
            fn lift(&mut self, _at: Nanos, _src: u32, msg: u64) -> u64 {
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
