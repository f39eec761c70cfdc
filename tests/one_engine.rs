//! Differential test for the one delivery path. `ChainSim` is the cluster
//! engine at one shard, whose run is the serial event loop: a frame is
//! scheduled when it is sent. `ClusterShardedSim::run` at 2 and 3 shards
//! hands frames between shards at window barriers instead. Same-instant
//! events fire in the order of their keys — the node whose handler
//! scheduled them, then that node's count — so the path a frame took
//! decides nothing, and every run must agree field for field, stations and
//! event count included, with execution costs drawn ±1 % as the benchmark
//! draws them. The two configurations below are ones on which the two
//! paths disagree when same-instant ties break by schedule order instead.

use palladium_core::driver::chain::{AppSpec, ChainReport, ChainSim, ChainSimConfig};
use palladium_core::driver::cluster_sharded::{ClusterShardedConfig, ClusterShardedSim};
use palladium_core::system::SystemKind;
use palladium_simnet::{Execution, SimRng};
use palladium_workloads::boutique::{self, ChainKind};

const CLIENTS: usize = 12;
const WARMUP_MS: u64 = 10;

/// `(system, chain, seed, measured ms)` of each differential run.
const RUNS: [(SystemKind, ChainKind, u64, u64); 2] = [
    (SystemKind::PalladiumDne, ChainKind::HomeQuery, 4, 60),
    (SystemKind::PalladiumCne, ChainKind::ViewCart, 1, 40),
];

/// The benchmark's stream for drawing execution costs.
const EXEC_STREAM: u64 = 0x6265_6e63_685f_6578;

/// Draw each function's execution cost within ±1 % of its nominal value.
fn draw_exec_costs(app: &mut AppSpec, seed: u64) {
    let mut rng = SimRng::stream(seed, EXEC_STREAM);
    for f in &mut app.functions {
        f.exec = rng.jitter(f.exec, 0.01);
    }
}

/// The boutique app's `chain` with costs drawn from `seed`, as `ChainSim`
/// runs it: the functions and that one chain.
fn boutique_app(chain: ChainKind, seed: u64) -> AppSpec {
    let mut app = boutique::app();
    app.chains = vec![app.chains.swap_remove(chain.index())];
    draw_exec_costs(&mut app, seed);
    app
}

/// Every `ChainReport` field, floats hex-exact, stations included.
fn fields(r: &ChainReport) -> String {
    format!(
        "rps={:016x}/{:016x} mean={}/{} p99={} completed={} sw={}/{} dma={} cpu={:016x} dpu={:016x} stations={:?}",
        r.rps.to_bits(),
        r.load.rps.to_bits(),
        r.mean_latency.as_nanos(),
        r.load.mean_latency.as_nanos(),
        r.load.p99_latency.as_nanos(),
        r.load.completed,
        r.software_copy_bytes,
        r.software_copy_ops,
        r.rnic_dma_bytes,
        r.cpu_util_pct.to_bits(),
        r.dpu_util_pct.to_bits(),
        r.stations
    )
}

fn chain_sim(system: SystemKind, chain: ChainKind, seed: u64, ms: u64) -> (String, u64) {
    let mut cfg = ChainSimConfig::new(system, boutique_app(chain, seed), 0)
        .clients(CLIENTS)
        .warmup_ms(WARMUP_MS)
        .duration_ms(ms);
    cfg.seed = seed;
    let (r, events) = ChainSim::new(cfg).run_counted();
    assert!(r.load.completed > 0, "{system:?} must complete requests");
    (fields(&r), events)
}

fn sharded(system: SystemKind, chain: ChainKind, seed: u64, ms: u64) -> ClusterShardedSim {
    let mut cfg = ClusterShardedConfig::new(system, boutique_app(chain, seed), 1)
        .clients(CLIENTS)
        .warmup_ms(WARMUP_MS)
        .duration_ms(ms);
    cfg.seed = seed;
    ClusterShardedSim::new(cfg)
}

#[test]
fn chain_sim_equals_every_shard_count_with_drawn_costs() {
    for (system, chain, seed, ms) in RUNS {
        let want = chain_sim(system, chain, seed, ms);
        let sim = sharded(system, chain, seed, ms);
        for shards in [1usize, 2, 3] {
            for execution in [Execution::Sequential, Execution::Threads] {
                let r = sim.run(shards, execution);
                assert_eq!(
                    (fields(&r.chain), r.events),
                    want,
                    "{system:?} at {shards} shards / {execution:?} diverged from ChainSim"
                );
            }
        }
    }
}

#[test]
fn a_baseline_runs_on_the_sharded_engine_at_one_shard() {
    let baselines =
        [SystemKind::Spright, SystemKind::FuyaoF, SystemKind::FuyaoK, SystemKind::NightCore];
    for system in baselines {
        let r = sharded(system, ChainKind::HomeQuery, 1, 10).run(1, Execution::Sequential);
        let want = chain_sim(system, ChainKind::HomeQuery, 1, 10);
        assert_eq!((fields(&r.chain), r.events), want, "{system:?}");
    }
}

#[test]
#[should_panic(expected = "does not shard")]
fn a_baseline_rejects_a_second_shard() {
    sharded(SystemKind::Spright, ChainKind::HomeQuery, 1, 10).run(2, Execution::Sequential);
}

/// The benchmark's `boutique_closed` at the benchmark's horizon: 4 pairs,
/// 32 clients on the Home Query chain, each function's cost drawn ±1 %
/// from the seed. One shard and four threaded shards must agree on every
/// model quantity the report has. Release-only (about 35 s on a 2-vCPU
/// host): CI's bench-smoke job runs it with `--ignored`.
#[test]
#[ignore = "full benchmark horizon: run with `cargo test --release --test one_engine -- --ignored`"]
fn boutique_closed_at_one_shard_equals_four_threaded_shards() {
    for seed in 1..=3 {
        let mut cfg = boutique::sharded_config(SystemKind::PalladiumDne, ChainKind::HomeQuery, 4)
            .clients(32)
            .warmup_ms(70)
            .duration_ms(700);
        cfg.seed = seed;
        draw_exec_costs(&mut cfg.app, seed);
        let sim = ClusterShardedSim::new(cfg);
        let model = |shards, execution| {
            let r = sim.run(shards, execution);
            format!("{:?} {:?}", r.chain, r.metrics())
        };
        assert_eq!(
            model(1, Execution::Sequential),
            model(4, Execution::Threads),
            "seed {seed}: 4 threaded shards diverged from one"
        );
    }
}
