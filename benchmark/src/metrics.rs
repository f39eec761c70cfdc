//! The metric tables: every name the benchmark prints, with its unit,
//! direction and (end to end) regression bound. `BENCHMARK.json` lists the
//! same rows; a unit test pins the two together.
//!
//! Time domains: `sim_*` values and every count come from the *simulated*
//! system — deterministic for a given `--seed`, identical on every machine.
//! `setup_s`, `run_wall_s`, `peak_rss_mb` and every `*_ns*` probe are *host*
//! time or memory — noisy, reported as medians.

use crate::stats::Better::{self, Higher, Lower};

/// One end-to-end metric: reported by every workload with `--trace 0`.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// How long one run measures; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 10;

#[rustfmt::skip] // one row per line
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
    EndToEnd { name: "run_wall_s", unit: "s", better: Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Lower, bound: 0.2 },
    EndToEnd { name: "sim_throughput_rps", unit: "req/s", better: Higher, bound: 0.03 },
    EndToEnd { name: "sim_mean_us", unit: "us", better: Lower, bound: 0.02 },
    EndToEnd { name: "sim_p99_us", unit: "us", better: Lower, bound: 0.08 },
];

/// One per-layer metric: reported by every workload with `--trace 1`,
/// 0 where the layer is not on that workload's path. `moves` names the
/// end-to-end metric and workload it is expected to move.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

#[rustfmt::skip] // one row per line
pub const PER_LAYER: &[PerLayer] = &[
    // Simulated end-to-end quantities that some workload reports as 0 or
    // not at all, so they cannot carry a relative bound.
    layer("sim_p50_us", "us", Lower, "sim_mean_us on boutique_*, openloop_80k (0 = driver reports none)"),
    layer("sim_p999_us", "us", Lower, "sim_p99_us on boutique_*, openloop_80k (0 = driver reports none)"),
    layer("sim_cpu_cores", "cores", Lower, "none; must stay 0 on the Palladium workloads, >0 on baseline_fuyao"),
    layer("sim_dpu_cores", "cores", Lower, "none; the paper's DPU burden on boutique_*, 0 on baseline_fuyao"),
    layer("sim_copy_bytes_per_req", "B/req", Lower, "none; must stay 0 on the Palladium workloads, >0 on baseline_fuyao"),
    layer("failed_frac", "ratio", Lower, "none; must stay 0 on all five workloads"),
    // From the driver reports of the traced rep (counts repeat exactly).
    layer("simnet.harness.events_per_s", "ev/s", Higher, "run_wall_s on all"),
    layer("simnet.harness.events_per_req", "count", Lower, "run_wall_s on boutique_closed, openloop_80k"),
    layer("simnet.harness.rss_bytes_per_req", "B", Lower, "peak_rss_mb on boutique_closed, openloop_80k"),
    layer("simnet.harness.allocs_per_event", "count", Lower, "run_wall_s, peak_rss_mb on all"),
    layer("simnet.shard.windows", "count", Lower, "run_wall_s on boutique_shard4"),
    layer("simnet.shard.events_per_window", "count", Higher, "run_wall_s on boutique_shard4"),
    layer("simnet.shard.messages", "count", Lower, "run_wall_s on boutique_shard4"),
    layer("simnet.shard.spilled", "count", Lower, "run_wall_s on boutique_shard4"),
    layer("simnet.shard.mailbox_high_water", "count", Lower, "run_wall_s on boutique_shard4"),
    layer("simnet.shard.overhead_ns_per_window", "ns", Lower, "run_wall_s on boutique_shard4; unchanged on boutique_closed"),
    layer("simnet.shard.busy_inflation", "ratio", Lower, "run_wall_s on boutique_shard4"),
    layer("simnet.shard.critical_path_speedup", "ratio", Higher, "none on this box (model for multicore)"),
    layer("rdma.net.frames_per_req", "count", Lower, "sim_mean_us on boutique_*, openloop_80k (a send is a data frame + its ACK)"),
    layer("rdma.net.dma_bytes_per_req", "B", Lower, "sim_mean_us on boutique_*, baseline_fuyao"),
    layer("core.ingress.shed_admission", "count", Lower, "none; must stay 0 below the knee (openloop_80k)"),
    layer("core.ingress.shed_deadline", "count", Lower, "none; must stay 0 below the knee (openloop_80k)"),
    layer("core.ingress.shed_breaker", "count", Lower, "none; must stay 0 below the knee (openloop_80k)"),
    layer("core.ingress.breaker_opens", "count", Lower, "none; must stay 0 below the knee (openloop_80k)"),
    layer("core.ingress.late", "count", Lower, "sim_p99_us on openloop_80k; must stay 0"),
    layer("core.ingress.admitted_frac", "ratio", Higher, "sim_throughput_rps on openloop_80k"),
    layer("core.retry.retries", "count", Lower, "run_wall_s on openloop_80k (wasted events); must stay 0"),
    layer("core.retry.retry_exhausted", "count", Lower, "none; must stay 0 on openloop_80k"),
    layer("core.retry.useful_frac", "ratio", Higher, "sim_throughput_rps on openloop_80k"),
    // Layer probes: host ns per operation through the public API.
    layer("simnet.queue.hold_ns_per_op.p64", "ns", Lower, "run_wall_s on multinode32 most; boutique_closed less"),
    layer("simnet.queue.hold_ns_per_op.p16k", "ns", Lower, "run_wall_s on multinode32 most; boutique_closed less"),
    layer("simnet.queue.cancel_ns_per_op", "ns", Lower, "run_wall_s on boutique_closed, openloop_80k"),
    layer("simnet.stats.hist_record_ns", "ns", Lower, "run_wall_s on all (small)"),
    layer("simnet.openloop.arrival_ns", "ns", Lower, "run_wall_s on openloop_80k only"),
    layer("membuf.pool.cycle_ns", "ns", Lower, "run_wall_s on boutique_closed, baseline_fuyao; not multinode32"),
    layer("rdma.net.send_ns_per_msg", "ns", Lower, "run_wall_s on boutique_*, openloop_80k, baseline_fuyao; not multinode32 (cost model only)"),
    layer("rdma.net.events_per_msg", "count", Lower, "run_wall_s on boutique_*, openloop_80k, baseline_fuyao; not multinode32"),
    layer("core.dne.tx_ns_per_wr", "ns", Lower, "run_wall_s on boutique_closed, openloop_80k; not multinode32"),
    layer("core.dwrr.ns_per_item", "ns", Lower, "run_wall_s on boutique_closed (small)"),
    layer("core.ingress.submit_ns", "ns", Lower, "run_wall_s on boutique_*, openloop_80k"),
    layer("ipc.comch.roundtrip_ns", "ns", Lower, "run_wall_s on boutique_closed"),
    // Derived estimates: ops from the report × probe ns ÷ traced run wall.
    layer("simnet.queue.est_share_pct", "%", Lower, "run_wall_s on multinode32 (estimate)"),
    layer("rdma.net.est_share_pct", "%", Lower, "run_wall_s on boutique_*, openloop_80k (estimate; 0 where no frame count is reported)"),
    layer("core.ingress.est_share_pct", "%", Lower, "run_wall_s on boutique_*, openloop_80k (estimate)"),
    layer("core.driver.residual_share_pct", "%", Lower, "run_wall_s on boutique_*, baseline_fuyao (estimate: unmeasured driver glue)"),
    // The traced rep itself: compare with run_wall_s for the tracing overhead.
    layer("trace.run_wall_s", "s", Lower, "none; traced run ÷ untraced run_wall_s − 1 is the tracing overhead"),
    layer("trace.spans", "count", Lower, "none"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workloads::Workload;

    const MANIFEST: &str = include_str!("../../BENCHMARK.json");

    fn field<'a>(row: &'a Value, key: &str) -> &'a str {
        row.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("row lacks {key}"))
    }

    #[test]
    fn benchmark_json_lists_exactly_these_tables() {
        let m = json::parse(MANIFEST).expect("BENCHMARK.json parses");
        let keys: Vec<_> = m
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            m.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS as f64)
        );

        let rows = m.get("end_to_end").and_then(Value::as_arr).unwrap();
        assert_eq!(rows.len(), END_TO_END.len());
        for (row, want) in rows.iter().zip(END_TO_END) {
            assert_eq!(field(row, "name"), want.name);
            assert_eq!(field(row, "unit"), want.unit, "{}", want.name);
            assert_eq!(field(row, "better"), want.better.as_str(), "{}", want.name);
            assert_eq!(
                row.get("bound").and_then(Value::as_f64),
                Some(want.bound),
                "{}",
                want.name
            );
            assert!(want.bound > 0.0 && want.bound <= 0.25);
        }

        let rows = m.get("per_layer").and_then(Value::as_arr).unwrap();
        assert_eq!(rows.len(), PER_LAYER.len());
        for (row, want) in rows.iter().zip(PER_LAYER) {
            assert_eq!(field(row, "name"), want.name);
            assert_eq!(field(row, "unit"), want.unit, "{}", want.name);
            assert_eq!(field(row, "better"), want.better.as_str(), "{}", want.name);
        }

        let rows = m.get("workloads").and_then(Value::as_arr).unwrap();
        let names: Vec<_> = rows.iter().map(|r| field(r, "name")).collect();
        let want: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, want);
    }

    #[test]
    fn names_are_unique_and_within_the_manifest_limits() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
