//! `simcore_throughput` — the shard runner's counted scaling model.
//!
//! Runs the two sharded drivers — the 32-node multi-node chain
//! (`multinode_sharded`) and the full Fig 16 data plane over 4 worker pairs
//! (`cluster_sharded`) — at 1/2/4/8 shards in both execution modes, once,
//! at one scale. Every row is asserted equal between `Execution::Threads`
//! and `Execution::Sequential`, and every shard count is asserted to
//! complete identical work, before anything is written.
//!
//! `BENCH_simcore.json` receives only machine-independent integers (per
//! driver: nodes, events, completed, messages; per shard count: windows,
//! Σ `work`, `critical_path_work` — `Σ work ÷ critical_path_work` is the
//! modeled parallel speed-up, see `palladium_simnet::shard`), so CI gates
//! it with `cmp`. Host-time events/s of both modes go to stdout only; the
//! committed host-time instrument is `benchmark/` (`BENCHMARK.json`).
//!
//! Usage: `simcore_throughput [--out PATH]`

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use palladium_bench::out_path_arg;
use palladium_core::driver::cluster_sharded::ClusterShardedSim;
use palladium_core::driver::multinode::{MultiNodeConfig, MultiNodeSim};
use palladium_core::system::SystemKind;
use palladium_simnet::Execution;
use palladium_workloads::boutique::{self, ChainKind};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// What one run counted: equal on every machine and in both execution modes.
#[derive(Debug, PartialEq)]
struct Counts {
    events: u64,
    completed: u64,
    messages: u64,
    windows: u64,
    /// Per-shard work units (events fired + messages merged).
    work: Vec<u64>,
    critical_path_work: u64,
}

impl Counts {
    /// What every shard count must agree on (`Σ work == events + messages`).
    fn totals(&self) -> (u64, u64, u64, u64) {
        (self.events, self.completed, self.messages, self.work.iter().sum())
    }
}

/// Run `run` once, returning its counts and host events/s.
fn timed(run: impl FnOnce() -> Counts) -> (Counts, f64) {
    #[expect(
        clippy::disallowed_methods,
        reason = "host events/s go to the log only, never into the counted file"
    )]
    let start = Instant::now();
    let counts = run();
    let events_per_sec = counts.events as f64 / start.elapsed().as_secs_f64();
    (counts, events_per_sec)
}

/// Sweep one driver over [`SHARD_COUNTS`] in both modes, assert the
/// determinism contract, print the host-time columns and append the
/// driver's JSON row to `json`.
fn sweep(json: &mut String, driver: &str, nodes: usize, run: impl Fn(usize, Execution) -> Counts) {
    println!("{driver} ({nodes} nodes):");
    let mut rows = Vec::new();
    for shards in SHARD_COUNTS {
        let (sequential, seq_eps) = timed(|| run(shards, Execution::Sequential));
        let (threads, thr_eps) = timed(|| run(shards, Execution::Threads));
        assert_eq!(threads, sequential, "{driver}, {shards} shards: threads vs sequential diverged");
        println!(
            "  shards {shards}: threads {thr_eps:>12.0} events/s | sequential {seq_eps:>12.0} events/s \
             | work {} / critical path {}",
            sequential.totals().3,
            sequential.critical_path_work,
        );
        rows.push((shards, sequential));
    }
    let first = &rows[0].1;
    let (events, completed, messages, work) = first.totals();
    assert_eq!(work, events + messages, "{driver}: Σ work is events fired + messages merged");
    assert_eq!(first.critical_path_work, work, "{driver}: one shard is its own critical path");
    write!(
        json,
        "    {{\"driver\": \"{driver}\", \"nodes\": {nodes}, \"events\": {events}, \
         \"completed\": {completed}, \"messages\": {messages}, \"shards_sweep\": [",
    )
    .expect("write to String");
    for (i, (shards, c)) in rows.iter().enumerate() {
        assert_eq!(
            c.totals(),
            first.totals(),
            "{driver}: {shards} shards must process the identical event stream"
        );
        let sep = if i == 0 { "" } else { "," };
        write!(
            json,
            "{sep}\n      {{\"shards\": {shards}, \"windows\": {}, \"work\": {work}, \"critical_path_work\": {}}}",
            c.windows, c.critical_path_work,
        )
        .expect("write to String");
    }
    json.push_str("\n    ]}");
}

fn main() -> ExitCode {
    let out_path = match out_path_arg("simcore_throughput", "BENCH_simcore.json") {
        Ok(path) => path,
        Err(code) => return code,
    };

    println!(
        "host-time columns are this machine's ({} hw threads) and are not recorded",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut json = String::from("{\n  \"bench\": \"simcore_throughput\",\n  \"drivers\": [\n");

    let multinode = MultiNodeSim::new(MultiNodeConfig::scaled(32).warmup_ms(8).duration_ms(40));
    sweep(&mut json, "multinode_sharded", 32, |shards, execution| {
        let r = multinode.run(shards, execution);
        Counts {
            events: r.events,
            completed: r.load.completed,
            messages: r.messages,
            windows: r.windows,
            work: r.work,
            critical_path_work: r.critical_path_work,
        }
    });
    json.push_str(",\n");

    let cluster = ClusterShardedSim::new(
        boutique::sharded_config(SystemKind::PalladiumDne, ChainKind::HomeQuery, 4)
            .clients(32)
            .warmup_ms(10)
            .duration_ms(40),
    );
    sweep(&mut json, "cluster_sharded", cluster.nodes(), |shards, execution| {
        let r = cluster.run(shards, execution);
        Counts {
            events: r.events,
            completed: r.chain.load.completed,
            messages: r.messages,
            windows: r.windows,
            work: r.work,
            critical_path_work: r.critical_path_work,
        }
    });
    json.push_str("\n  ]\n}\n");

    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("simcore_throughput: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");
    ExitCode::SUCCESS
}
