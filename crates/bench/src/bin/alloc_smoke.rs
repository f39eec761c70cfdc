//! `alloc_smoke` — proves the kernel's zero-steady-state-allocation claim.
//!
//! The slot-resident event path exists so that, once a simulation has
//! warmed its scratch buffers and the queue's payload slots have grown to the
//! pending-population high-water mark, *processing an event performs no
//! heap allocation at all* — no recycled frame boxes, no effect-vector
//! churn, no queue-entry boxing. This binary pins that property with a
//! counting global allocator and the heaviest driver in the workspace
//! (the Fig 16 chain cluster, the `simcore_throughput` chain workload):
//!
//! 1. run the workload at a base duration and at an extended duration,
//!    counting every `alloc`/`realloc`/`alloc_zeroed` call;
//! 2. the two runs build identical clusters and warm identically, so the
//!    allocation difference divided by the event difference is the
//!    *steady-state allocations per event*;
//! 3. assert it rounds to zero (< [`MAX_ALLOCS_PER_EVENT`]) — the only
//!    allowance is the amortized doubling of result vectors (the request
//!    table, and the latency samples' runs and tail, which grow with the
//!    distinct latencies seen, not with completions), a handful of calls
//!    per million events.
//!
//! Counting calls cannot see a container that grows with the run: its
//! doublings are O(log n) calls however many bytes it accumulates. So the
//! allocator also tracks live and peak heap *bytes*, and a second gate
//! bounds the peak's growth between the two durations per extra completed
//! request (< [`MAX_PEAK_BYTES_PER_REQ`]). Its allowance covers the
//! append-only per-request records (the request table, and the open-loop
//! admission table) and the power-of-two capacity step either may take
//! between the two runs; it does not cover any per-send, per-frame or
//! per-event state that outlives its work, which is exactly the growth it
//! exists to catch.
//!
//! The same gate runs against the Fig 12 echo driver: since the shared
//! [`palladium_membuf::PayloadCache`] replaced its per-message
//! `Bytes::from(vec![0; n])` fabrication, the echo steady state must be
//! allocation-free too — the zero-alloc contract is uniform across
//! drivers, not a chain-driver special. It runs against the scaled
//! multi-node driver as well, whose event loop is almost pure queue work
//! (every pop followed by a schedule: the queue's hold path).
//!
//! A last gate scales the other axis: the multi-node driver at 8 and at
//! 32 nodes, same per-node load and duration. Peak heap may grow per
//! extra node by at most [`MAX_PEAK_BYTES_PER_NODE`], which covers the
//! node's own servers, pending events and route entry, not a latency
//! recorder per node.
//!
//! Run by the CI bench-smoke job:
//! `cargo run --release -p palladium-bench --bin alloc_smoke`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use palladium_baselines::echo::{EchoConfig, EchoSim, Primitive};
use palladium_core::driver::chain::ChainSim;
use palladium_core::driver::cluster_sharded::{ClusterShardedConfig, ClusterShardedSim, OverloadConfig};
use palladium_core::driver::multinode::{MultiNodeConfig, MultiNodeSim};
use palladium_core::system::SystemKind;
use palladium_simnet::{Execution, FaultPlan, Nanos, ScenarioScript};
use palladium_workloads::boutique::{self, ChainKind};
use palladium_workloads::openloop::OpenLoopConfig;

/// Pass threshold: steady-state allocations per simulated event. The
/// target is literally zero on the event path; the budget only absorbs
/// amortized growth of append-only result state (Vec doublings of the
/// request table, and of the latency samples' two retained buffers as new
/// distinct latencies appear: O(log events) calls over the run).
const MAX_ALLOCS_PER_EVENT: f64 = 0.001;

/// Pass threshold: peak-heap growth per extra completed request. What may
/// grow with run length is one 24 B request record per issued request,
/// plus an 8 B admission stamp per open-loop arrival (about two per
/// completion at 2x saturation), stored in power-of-two capacity steps.
/// These runs allocate the same sizes on every machine and measure
/// 0–74 B (the top: the overload run, whose request table crosses a
/// capacity step between the two durations). With a 24 B admission record
/// per arrival, the overload run measured 98.7 B; when the DWRR scheduler
/// kept an FCFS breadcrumb for every send, the runs measured 170–222 B.
const MAX_PEAK_BYTES_PER_REQ: f64 = 88.0;

/// Pass threshold: peak-heap growth per extra simulated node of the
/// multi-node driver at equal per-node load. What a node owns is two FIFO
/// servers, an RNG stream, a route-table entry and its clients' pending
/// events; the 8- vs 32-node runs measure 5.5 KiB per node. With one
/// latency recorder per node, holding the same few thousand distinct
/// latencies 32 times over, they measured 124 KiB.
const MAX_PEAK_BYTES_PER_NODE: f64 = 16.0 * 1024.0;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Heap bytes currently allocated, and the most ever allocated at once
/// since the last [`measured`] run began.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
/// Per-size-bucket counters (bucket = log2 of the rounded-up size),
/// printed when `ALLOC_SMOKE_HISTOGRAM=1` — pinpoints which object class
/// regressed when the assertion trips.
static BUCKETS: [AtomicU64; 32] = [const { AtomicU64::new(0) }; 32];

#[inline]
fn count(layout: Layout) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let bucket = (usize::BITS - layout.size().leading_zeros()).min(31) as usize;
    BUCKETS[bucket].fetch_add(1, Ordering::Relaxed);
}

#[inline]
fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

#[inline]
fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: delegates every operation to `System`; the counters are relaxed
// atomics with no further side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout);
        grow(layout.size());
        // SAFETY: forwards the exact layout to `System::alloc`; counting is a
        // relaxed atomic side effect with no aliasing or layout impact.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout);
        grow(layout.size());
        // SAFETY: forwards the exact layout to `System::alloc_zeroed`; the
        // zeroing contract is the system allocator's.
        unsafe { System.alloc_zeroed(layout) }
    }

    // Live bytes move by the size difference (a moving realloc's brief
    // old-plus-new overlap is not counted).
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(layout);
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            shrink(layout.size() - new_size);
        }
        // SAFETY: caller obligations (live ptr, matching layout) pass
        // straight through to `System::realloc`, unmodified.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: caller obligations (ptr from this allocator, same layout)
        // pass straight through to `System::dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// What one run cost the heap.
struct Usage {
    events: u64,
    /// Completed requests (after warm-up).
    completed: u64,
    allocs: u64,
    /// Peak live heap bytes during the run above the live bytes at its start.
    peak_bytes: u64,
}

/// Run `run` (which returns `(events, completed requests)`) and count
/// what it cost the heap.
fn measured(run: impl FnOnce() -> (u64, u64)) -> Usage {
    let allocs = ALLOCS.load(Ordering::Relaxed);
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    let (events, completed) = run();
    Usage {
        events,
        completed,
        allocs: ALLOCS.load(Ordering::Relaxed) - allocs,
        peak_bytes: PEAK.load(Ordering::Relaxed) - live,
    }
}

/// One sharded cluster run over 2 shards: `(events, completed requests)`.
fn cluster(cfg: ClusterShardedConfig) -> (u64, u64) {
    let report = ClusterShardedSim::new(cfg).run(2, Execution::Sequential);
    (report.events, report.chain.load.completed)
}

/// Run the `simcore_throughput` chain workload for `duration_ms`,
/// returning what it cost the heap.
fn run_chain(duration_ms: u64) -> Usage {
    let cfg = boutique::config(SystemKind::PalladiumDne, ChainKind::HomeQuery)
        .clients(40)
        .warmup_ms(60)
        .duration_ms(duration_ms);
    measured(|| {
        let (report, events) = ChainSim::new(cfg).run_counted();
        (events, report.load.completed)
    })
}

/// Run the sharded Fig 16 cluster (2 worker pairs over 2 shards) for
/// `duration_ms`, returning what it cost the heap. The sharded runner's window loop —
/// mailbox drain, merge sort, window execution — must be as allocation-free
/// in steady state as the serial harness; ring auto-sizing and queue-slot growth
/// are warmup phenomena shared by both runs, so they cancel in the
/// difference.
fn run_cluster_sharded(duration_ms: u64) -> Usage {
    let cfg = boutique::sharded_config(SystemKind::PalladiumDne, ChainKind::HomeQuery, 2)
        .clients(32)
        .warmup_ms(10)
        .duration_ms(duration_ms);
    measured(|| cluster(cfg))
}

/// The same sharded cluster under chaos: a persistent low-rate drop
/// storm (active through the steady-state tail, so fault verdicts, RTO
/// retransmissions and the heartbeat/health plane all run hot), plus a
/// crash and a straggle window inside the base duration. The chaos path
/// must be as allocation-free as the healthy one — per-node fault RNG
/// streams are stateless, the suspicion sweep reuses its scratch vector,
/// heartbeats ride the by-value frame path, and the TTR histogram never
/// grows after construction.
fn run_cluster_chaos(duration_ms: u64) -> Usage {
    let script = ScenarioScript::new()
        .storm(1, FaultPlan::dropping(0.01))
        .crash(2, Nanos::from_millis(15), Nanos::from_millis(25))
        .straggle(0, 4.0, Nanos::from_millis(12), Nanos::from_millis(30));
    let cfg = boutique::sharded_config(SystemKind::PalladiumDne, ChainKind::HomeQuery, 2)
        .clients(32)
        .warmup_ms(10)
        .duration_ms(duration_ms)
        .chaos(script);
    measured(|| cluster(cfg))
}

/// The recovery path under the allocation gate: a correlated rack crash
/// (both of pair 1's workers) whose members pay the costed rejoin inside
/// the base duration, plus a persistent gray link (directed drop +
/// latency inflation) that keeps the EWMA probation machinery running
/// through the steady-state tail. Rejoin scheduling (epoch bump + one
/// deferred event per recovery), the TTR histogram (fixed log buckets)
/// and the per-pair score updates must all stay off the heap.
fn run_cluster_rejoin(duration_ms: u64) -> Usage {
    let script = ScenarioScript::new()
        .domain("rack1", &[2, 3])
        .crash_domain("rack1", Nanos::from_millis(15), Nanos::from_millis(25))
        .gray_link(
            0,
            1,
            0.02,
            Nanos::from_micros(100),
            Nanos::from_millis(12),
            Nanos::from_millis(35),
        );
    let cfg = boutique::sharded_config(SystemKind::PalladiumDne, ChainKind::HomeQuery, 2)
        .clients(32)
        .warmup_ms(10)
        .duration_ms(duration_ms)
        .chaos(script);
    measured(|| cluster(cfg))
}

/// The overload plane under the allocation gate: a sustained open-loop
/// flash crowd at roughly 2x the 2-pair cluster's saturation point, so
/// the admission queue, deadline shedding, retry backoff + budget
/// exhaustion and the circuit breaker all run hot through the
/// steady-state tail. The arrival generator is stateless draws, the
/// admission queue reaches its bounded high-water mark during warmup,
/// retries ride the queue's timer path, and the only growth is the
/// append-only request table (amortized Vec doubling) — so overload
/// shedding must be as allocation-free per event as healthy service.
fn run_cluster_overload(duration_ms: u64) -> Usage {
    let traffic = OpenLoopConfig::poisson(110_000.0, 10_000);
    let cfg = boutique::sharded_config(SystemKind::PalladiumDne, ChainKind::HomeQuery, 2)
        .warmup_ms(10)
        .duration_ms(duration_ms)
        .overload(OverloadConfig::new(traffic, Nanos::from_millis(2)));
    measured(|| {
        let report = ClusterShardedSim::new(cfg).run(2, Execution::Sequential);
        assert!(
            report.chaos.shed_admission + report.chaos.shed_deadline > 0,
            "the overload gate must actually shed (offered 2x saturation)"
        );
        (report.events, report.chain.load.completed)
    })
}

/// Run the Fig 12 two-sided echo (the driver the shared `PayloadCache`
/// newly covers) for `duration_ms`, returning what it cost the heap.
fn run_echo(duration_ms: u64) -> Usage {
    let mut cfg = EchoConfig::new(1024).connections(16);
    cfg.duration = Nanos::from_millis(duration_ms);
    measured(|| {
        let (report, events) = EchoSim::new(cfg).run_primitive_counted(Primitive::TwoSided);
        (events, report.completed)
    })
}

/// Run the scaled multi-node driver (one shard, as the benchmark runs it)
/// at `nodes` nodes for `duration_ms`, returning what it cost the heap.
fn run_multinode(nodes: usize, duration_ms: u64) -> Usage {
    let cfg = MultiNodeConfig::scaled(nodes).warmup_ms(10).duration_ms(duration_ms);
    measured(|| {
        let report = MultiNodeSim::new(cfg).run(1, Execution::Sequential);
        (report.events, report.load.completed)
    })
}

/// Gate the multi-node driver's peak heap per extra node: the same
/// duration at `small` and `large` nodes.
fn node_gate(small: usize, large: usize, duration_ms: u64) -> bool {
    let label = format!("multi-node driver, {small} vs {large} nodes, {duration_ms} ms");
    let a = run_multinode(small, duration_ms);
    let b = run_multinode(large, duration_ms);
    let per_node = b.peak_bytes.saturating_sub(a.peak_bytes) as f64 / (large - small) as f64;
    println!("alloc_smoke ({label}):");
    for (name, nodes, u) in [("small:", small, &a), ("large:", large, &b)] {
        println!(
            "  {name} {nodes} nodes, {} events, {} completions, peak heap +{} B",
            u.events, u.completed, u.peak_bytes
        );
    }
    println!("  {per_node:.0} B peak heap per extra node");
    if per_node > MAX_PEAK_BYTES_PER_NODE {
        eprintln!(
            "FAIL: {label}: peak heap grows {per_node:.0} B per extra node > \
             {MAX_PEAK_BYTES_PER_NODE} — per-node state beyond the node's own"
        );
        return false;
    }
    println!("PASS: {label}");
    true
}

/// Gate one driver: identical builds + warmup at two durations, assert
/// the steady-state tail allocates (approximately) nothing per event and
/// that the heap's peak grows by at most [`MAX_PEAK_BYTES_PER_REQ`] per
/// extra completed request.
fn gate(label: &str, mut run: impl FnMut(u64) -> Usage, base_ms: u64, long_ms: u64) -> bool {
    let base = run(base_ms);
    let histo_before: Vec<u64> = BUCKETS.iter().map(|b| b.load(Ordering::Relaxed)).collect();
    let long = run(long_ms);
    if std::env::var_os("ALLOC_SMOKE_HISTOGRAM").is_some() {
        println!("{label}: steady-state allocation size histogram (bucket = ≤2^k bytes):");
        for (k, before) in histo_before.iter().enumerate() {
            let d = BUCKETS[k].load(Ordering::Relaxed) - before;
            if d > 0 {
                println!("  ≤{:>10} B: {d}", 1u64 << k);
            }
        }
    }
    assert!(
        long.events > base.events && long.completed > base.completed,
        "extended run must process more events and complete more requests \
         ({} vs {} events, {} vs {} completions)",
        long.events,
        base.events,
        long.completed,
        base.completed
    );

    let d_events = long.events - base.events;
    let d_allocs = long.allocs.saturating_sub(base.allocs);
    let per_event = d_allocs as f64 / d_events as f64;
    let d_reqs = long.completed - base.completed;
    let per_req = long.peak_bytes.saturating_sub(base.peak_bytes) as f64 / d_reqs as f64;

    println!("alloc_smoke ({label}):");
    for (name, u) in [("base run:    ", &base), ("extended run:", &long)] {
        println!(
            "  {name} {} events, {} completions, {} allocations, peak heap +{} B",
            u.events, u.completed, u.allocs, u.peak_bytes
        );
    }
    println!(
        "  steady state: {d_allocs} allocations over {d_events} extra events \
         = {per_event:.6} allocs/event; {per_req:.1} B peak heap per extra completion"
    );

    let mut ok = true;
    if per_event >= MAX_ALLOCS_PER_EVENT {
        eprintln!(
            "FAIL: {label}: steady-state allocations per event {per_event:.6} >= \
             {MAX_ALLOCS_PER_EVENT} — the zero-allocation event path has regressed"
        );
        ok = false;
    }
    if per_req > MAX_PEAK_BYTES_PER_REQ {
        eprintln!(
            "FAIL: {label}: peak heap grows {per_req:.1} B per extra completed request > \
             {MAX_PEAK_BYTES_PER_REQ} — state is accumulating with run length"
        );
        ok = false;
    }
    if ok {
        println!("PASS: {label}");
    }
    ok
}

fn main() {
    let oks = [
        gate("chain driver, Fig 16 HomeQuery, 40 clients", run_chain, 120, 360),
        gate("echo driver, Fig 12 two-sided 1KB, 16 connections", run_echo, 60, 180),
        gate(
            "sharded cluster, Fig 16 HomeQuery ×2 pairs, 2 shards",
            run_cluster_sharded,
            40,
            120,
        ),
        gate(
            "sharded cluster under chaos, drop storm + crash + straggler",
            run_cluster_chaos,
            40,
            120,
        ),
        gate(
            "sharded cluster recovery, rack crash + costed rejoin + gray link",
            run_cluster_rejoin,
            40,
            120,
        ),
        gate(
            "sharded cluster overload, open-loop flash crowd at 2x saturation",
            run_cluster_overload,
            40,
            120,
        ),
        gate("multi-node driver, 8 nodes", |ms| run_multinode(8, ms), 40, 120),
        node_gate(8, 32, 60),
    ];
    if !oks.iter().all(|&ok| ok) {
        std::process::exit(1);
    }
}
