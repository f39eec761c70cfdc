//! `alloc_smoke` — proves the kernel's zero-steady-state-allocation claim.
//!
//! The arena-allocated event path exists so that, once a simulation has
//! warmed its scratch buffers and the payload arena has grown to the
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
//! The same gate runs against the Fig 12 echo driver: since the shared
//! [`palladium_membuf::PayloadCache`] replaced its per-message
//! `Bytes::from(vec![0; n])` fabrication, the echo steady state must be
//! allocation-free too — the zero-alloc contract is uniform across
//! drivers, not a chain-driver special.
//!
//! Run by the CI bench-smoke job:
//! `cargo run --release -p palladium-bench --bin alloc_smoke`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use palladium_baselines::echo::{EchoConfig, EchoSim, Primitive};
use palladium_core::driver::chain::ChainSim;
use palladium_core::driver::cluster_sharded::{ClusterShardedSim, OverloadConfig};
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

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Per-size-bucket counters (bucket = log2 of the rounded-up size),
/// printed when `ALLOC_SMOKE_HISTOGRAM=1` — pinpoints which object class
/// regressed when the assertion trips.
static BUCKETS: [AtomicU64; 32] = {
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);
    [ZERO; 32]
};

#[inline]
fn count(layout: Layout) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let bucket = (usize::BITS - layout.size().leading_zeros()).min(31) as usize;
    BUCKETS[bucket].fetch_add(1, Ordering::Relaxed);
}

// SAFETY: delegates every operation to `System`; the counters are relaxed
// atomics with no further side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards the exact layout to `System::alloc`; counting is a
    // relaxed atomic side effect with no aliasing or layout impact.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout);
        System.alloc(layout)
    }

    // SAFETY: forwards the exact layout to `System::alloc_zeroed`; the
    // zeroing contract is the system allocator's.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout);
        System.alloc_zeroed(layout)
    }

    // SAFETY: caller obligations (live ptr, matching layout) pass straight
    // through to `System::realloc`, unmodified.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(layout);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: caller obligations (ptr from this allocator, same layout)
    // pass straight through to `System::dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Run the `simcore_throughput` chain workload for `duration_ms`,
/// returning `(events processed, allocations performed)`.
fn run_chain(duration_ms: u64) -> (u64, u64) {
    let cfg = boutique::config(SystemKind::PalladiumDne, ChainKind::HomeQuery)
        .clients(40)
        .warmup_ms(60)
        .duration_ms(duration_ms);
    let before = ALLOCS.load(Ordering::Relaxed);
    let (_report, events) = ChainSim::new(cfg).run_counted();
    (events, ALLOCS.load(Ordering::Relaxed) - before)
}

/// Run the sharded Fig 16 cluster (2 worker pairs over 2 shards) for
/// `duration_ms`, returning `(events, allocations)`. The sharded runner's window loop —
/// mailbox drain, merge sort, window execution — must be as allocation-free
/// in steady state as the serial harness; ring auto-sizing and arena growth
/// are warmup phenomena shared by both runs, so they cancel in the
/// difference.
fn run_cluster_sharded(duration_ms: u64) -> (u64, u64) {
    let cfg = boutique::sharded_config(SystemKind::PalladiumDne, ChainKind::HomeQuery, 2)
        .clients(32)
        .warmup_ms(10)
        .duration_ms(duration_ms);
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = ClusterShardedSim::new(cfg).run(2, Execution::Sequential);
    (report.events, ALLOCS.load(Ordering::Relaxed) - before)
}

/// The same sharded cluster under chaos: a persistent low-rate drop
/// storm (active through the steady-state tail, so fault verdicts, RTO
/// retransmissions and the heartbeat/health plane all run hot), plus a
/// crash and a straggle window inside the base duration. The chaos path
/// must be as allocation-free as the healthy one — per-node fault RNG
/// streams are stateless, the suspicion sweep reuses its scratch vector,
/// heartbeats ride the arena frame path, and the TTR histogram never
/// grows after construction.
fn run_cluster_chaos(duration_ms: u64) -> (u64, u64) {
    let script = ScenarioScript::new()
        .storm(1, FaultPlan::dropping(0.01))
        .crash(2, Nanos::from_millis(15), Nanos::from_millis(25))
        .straggle(0, 4.0, Nanos::from_millis(12), Nanos::from_millis(30));
    let cfg = boutique::sharded_config(SystemKind::PalladiumDne, ChainKind::HomeQuery, 2)
        .clients(32)
        .warmup_ms(10)
        .duration_ms(duration_ms)
        .chaos(script);
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = ClusterShardedSim::new(cfg).run(2, Execution::Sequential);
    (report.events, ALLOCS.load(Ordering::Relaxed) - before)
}

/// The recovery path under the allocation gate: a correlated rack crash
/// (both of pair 1's workers) whose members pay the costed rejoin inside
/// the base duration, plus a persistent gray link (directed drop +
/// latency inflation) that keeps the EWMA probation machinery running
/// through the steady-state tail. Rejoin scheduling (epoch bump + one
/// deferred event per recovery), the TTR histogram (fixed log buckets)
/// and the per-pair score updates must all stay off the heap.
fn run_cluster_rejoin(duration_ms: u64) -> (u64, u64) {
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
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = ClusterShardedSim::new(cfg).run(2, Execution::Sequential);
    (report.events, ALLOCS.load(Ordering::Relaxed) - before)
}

/// The overload plane under the allocation gate: a sustained open-loop
/// flash crowd at roughly 2x the 2-pair cluster's saturation point, so
/// the admission queue, deadline shedding, retry backoff + budget
/// exhaustion and the circuit breaker all run hot through the
/// steady-state tail. The arrival generator is stateless draws, the
/// admission queue reaches its bounded high-water mark during warmup,
/// retries ride the arena timer path, and the only growth is the
/// append-only request table (amortized Vec doubling) — so overload
/// shedding must be as allocation-free per event as healthy service.
fn run_cluster_overload(duration_ms: u64) -> (u64, u64) {
    let traffic = OpenLoopConfig::poisson(110_000.0, 10_000);
    let cfg = boutique::sharded_config(SystemKind::PalladiumDne, ChainKind::HomeQuery, 2)
        .warmup_ms(10)
        .duration_ms(duration_ms)
        .overload(OverloadConfig::new(traffic, Nanos::from_millis(2)));
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = ClusterShardedSim::new(cfg).run(2, Execution::Sequential);
    assert!(
        report.chaos.shed_admission + report.chaos.shed_deadline > 0,
        "the overload gate must actually shed (offered 2x saturation)"
    );
    (report.events, ALLOCS.load(Ordering::Relaxed) - before)
}

/// Run the Fig 12 two-sided echo (the driver the shared `PayloadCache`
/// newly covers) for `duration_ms`, returning `(events, allocations)`.
fn run_echo(duration_ms: u64) -> (u64, u64) {
    let mut cfg = EchoConfig::new(1024).connections(16);
    cfg.duration = Nanos::from_millis(duration_ms);
    let before = ALLOCS.load(Ordering::Relaxed);
    let (_report, events) = EchoSim::new(cfg).run_primitive_counted(Primitive::TwoSided);
    (events, ALLOCS.load(Ordering::Relaxed) - before)
}

/// Gate one driver: identical builds + warmup at two durations, assert
/// the steady-state tail allocates (approximately) nothing per event.
fn gate(
    label: &str,
    mut run: impl FnMut(u64) -> (u64, u64),
    base_ms: u64,
    long_ms: u64,
) -> bool {
    let (events_base, allocs_base) = run(base_ms);
    let histo_before: Vec<u64> = BUCKETS.iter().map(|b| b.load(Ordering::Relaxed)).collect();
    let (events_long, allocs_long) = run(long_ms);
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
        events_long > events_base,
        "extended run must process more events ({events_long} vs {events_base})"
    );

    let d_events = events_long - events_base;
    let d_allocs = allocs_long.saturating_sub(allocs_base);
    let per_event = d_allocs as f64 / d_events as f64;

    println!("alloc_smoke ({label}):");
    println!("  base run:     {events_base} events, {allocs_base} allocations");
    println!("  extended run: {events_long} events, {allocs_long} allocations");
    println!(
        "  steady state: {d_allocs} allocations over {d_events} extra events \
         = {per_event:.6} allocs/event"
    );

    if per_event >= MAX_ALLOCS_PER_EVENT {
        eprintln!(
            "FAIL: {label}: steady-state allocations per event {per_event:.6} >= \
             {MAX_ALLOCS_PER_EVENT} — the zero-allocation event path has regressed"
        );
        return false;
    }
    println!("PASS: {label}: steady-state allocations per event rounds to zero");
    true
}

fn main() {
    let chain_ok = gate("chain driver, Fig 16 HomeQuery, 40 clients", run_chain, 120, 360);
    let echo_ok = gate("echo driver, Fig 12 two-sided 1KB, 16 connections", run_echo, 60, 180);
    let sharded_ok = gate(
        "sharded cluster, Fig 16 HomeQuery ×2 pairs, 2 shards",
        run_cluster_sharded,
        40,
        120,
    );
    let chaos_ok = gate(
        "sharded cluster under chaos, drop storm + crash + straggler",
        run_cluster_chaos,
        40,
        120,
    );
    let rejoin_ok = gate(
        "sharded cluster recovery, rack crash + costed rejoin + gray link",
        run_cluster_rejoin,
        40,
        120,
    );
    let overload_ok = gate(
        "sharded cluster overload, open-loop flash crowd at 2x saturation",
        run_cluster_overload,
        40,
        120,
    );
    if !(chain_ok && echo_ok && sharded_ok && chaos_ok && rejoin_ok && overload_ok) {
        std::process::exit(1);
    }
}
