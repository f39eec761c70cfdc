//! What a cluster run reports. The two accounting structs double as the
//! run's live counters: the ingress state and every shard hold one and
//! count straight into its public fields, and the fold at the end of the
//! run sums them ([`ChaosReport::absorb`]) — a counter is declared once,
//! here, with `palladium_simnet`'s `summed_report!`. The same declaration
//! names it: [`ClusterShardedReport::metrics`] is the run as one flat list,
//! and the two row writers ([`ClusterShardedReport::kv_line`],
//! [`ClusterShardedReport::json_row`]) serialise any column list over it.

use palladium_simnet::{summed_report, ChannelStats, Nanos};

use crate::driver::chain::ChainReport;

/// The report of one cluster run: the Fig 16 [`ChainReport`] plus the
/// sharding counters.
#[derive(Clone, Debug, Default)]
pub struct ClusterShardedReport {
    /// The Fig 16 quantities (rps, latency, copies, utilization).
    pub chain: ChainReport,
    /// Simulation events processed across all shards.
    pub events: u64,
    /// Inter-node frames delivered by the horizon, through a mailbox or,
    /// on the sender's own shard, at once: every frame at one shard.
    pub messages: u64,
    /// Always 0: the mailboxes are plain vectors that cannot spill. Kept
    /// for the benchmark, which reports it.
    pub spilled: u64,
    /// Windows run: 1 at one shard, which runs the horizon as one.
    pub windows: u64,
    /// Per-shard work units (events processed + frames delivered);
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
    /// Per-channel statistics (largest single-window delivery). At one
    /// shard there is one channel, its own, and its one window's delivery
    /// is `messages`.
    pub channels: Vec<ChannelStats>,
    /// Median end-to-end latency from the streaming histogram.
    pub p50: Nanos,
    /// 99th-percentile latency (within the histogram's 3.125% bound).
    pub p99: Nanos,
    /// 99.9th-percentile latency.
    pub p999: Nanos,
    /// Chaos accounting — all-zero on fault-free runs.
    pub chaos: ChaosReport,
    /// Overload accounting — all-zero on closed-loop runs.
    pub overload: OverloadReport,
}

/// A column list named a metric [`ClusterShardedReport::metrics`] does not
/// have; carries the name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownColumn(pub String);

/// The label a golden snapshot prints for a metric: the snapshots predate
/// the `_ns` unit suffix and shorten three names.
fn golden_label(name: &str) -> &str {
    match name {
        "exact_p99_ns" => "p99",
        "recovery_goodput" => "recovery",
        "retry_exhausted" => "exhausted",
        _ => name.strip_suffix("_ns").unwrap_or(name),
    }
}

impl ClusterShardedReport {
    /// The run as one flat, ordered list of uniquely named integer metrics:
    /// the report's own shard-count-invariant integers that a golden or an
    /// SLO row pins, then every [`ChaosReport`] and [`OverloadReport`] field
    /// under its declared name (times in nanoseconds, `_ns`-suffixed).
    /// `p50_ns`/`p99_ns`/`p999_ns` come from the streaming histogram,
    /// `exact_p99_ns` from the raw samples.
    pub fn metrics(&self) -> Vec<(&'static str, u64)> {
        let load = &self.chain.load;
        let mut all = vec![
            ("p50_ns", self.p50.as_nanos()),
            ("p99_ns", self.p99.as_nanos()),
            ("p999_ns", self.p999.as_nanos()),
            ("completed", load.completed),
            ("mean_ns", load.mean_latency.as_nanos()),
            ("exact_p99_ns", load.p99_latency.as_nanos()),
            ("sw_bytes", self.chain.software_copy_bytes),
            ("dma_bytes", self.chain.rnic_dma_bytes),
            ("events", self.events),
            ("messages", self.messages),
        ];
        all.extend(self.chaos.metrics());
        all.extend(self.overload.metrics());
        all
    }

    /// `cols` looked up in [`metrics`](Self::metrics), in `cols` order.
    fn cells<'c>(&self, cols: &[&'c str]) -> Result<Vec<(&'c str, u64)>, UnknownColumn> {
        let all = self.metrics();
        cols.iter()
            .map(|&col| match all.iter().find(|(name, _)| *name == col) {
                Some(&(_, value)) => Ok((col, value)),
                None => Err(UnknownColumn(col.to_string())),
            })
            .collect()
    }

    /// The golden-snapshot writer: `cols` as space-separated `label=value`
    /// cells, a metric's label being its name unless the snapshots carry a
    /// historic one (`p50` for `p50_ns`, `recovery` for `recovery_goodput`).
    pub fn kv_line(&self, cols: &[&str]) -> Result<String, UnknownColumn> {
        let cells = self.cells(cols)?;
        let cells: Vec<_> = cells.iter().map(|&(n, v)| format!("{}={v}", golden_label(n))).collect();
        Ok(cells.join(" "))
    }

    /// The `BENCH_*.json` writer: one JSON object on one line, opening with
    /// the caller's `lead` member (`"scenario": "straggler"`) followed by
    /// `cols` as `"name": value` members.
    pub fn json_row(&self, lead: &str, cols: &[&str]) -> Result<String, UnknownColumn> {
        let mut row = format!("{{{lead}");
        for (name, value) in self.cells(cols)? {
            row.push_str(&format!(", \"{name}\": {value}"));
        }
        Ok(row + "}")
    }
}

summed_report! {
    /// Open-loop overload accounting for one run. Goodput is the honest
    /// metric: completions within their propagated deadline. Folded entirely
    /// from ingress-ordered state — byte-identical at every shard count.
    ///
    /// A request *ends* when it completes (at its client finish time, the
    /// instant the latency window filters on) or exhausts its retries. The
    /// ledger counts an end iff it happens at or after warm-up, so every
    /// offered request is in exactly one of `goodput`, `late`,
    /// `retry_exhausted` and `live_at_end` ([`check`](Self::check)).
    ///
    /// No binary calls its generated `absorb`: the whole report lives on
    /// the ingress, so nothing sums it. The macro emits it beside
    /// `metrics`, which the row writers read.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct OverloadReport {
        /// Requests not ended before warm-up: every arrival, minus those
        /// that completed or exhausted their retries before it.
        pub offered: u64,
        /// Admission *events* inside the window, counted at the admission
        /// instant — not on the end-instant convention `offered` and
        /// `goodput` share. A request admitted before warm-up that
        /// completes after it counts in `goodput` only, so `admitted <
        /// goodput` is expected: `flash_autoscale` and the three lowest
        /// `load_sweep` rows of `BENCH_slo.json` read so.
        pub admitted: u64,
        /// Completions within their deadline (the goodput numerator).
        pub goodput: u64,
        /// Completions past their deadline — served, but worthless.
        pub late: u64,
        /// Within-deadline completions finishing in the last quarter of the
        /// window — distinguishes a system that *recovered* from one whose
        /// backlog outlived the run (the metastable signature).
        pub recovery_goodput: u64,
        /// Retry attempts scheduled by the backoff machinery.
        pub retries: u64,
        /// Requests that exhausted their retry budget (or whose deadline
        /// passed before the next attempt) at or after warm-up — honest
        /// client-visible failures.
        pub retry_exhausted: u64,
        /// Requests still queued, backing off or in flight when the run
        /// ended.
        pub live_at_end: u64,
        /// Circuit-breaker open (and re-arm) transitions.
        pub breaker_opens: u64,
        /// Circuit-breaker half-open probes that closed the breaker.
        pub breaker_closes: u64,
        /// Autoscaler pair activations that completed (after paying).
        pub scale_ups: u64,
        /// Autoscaler pair deactivations.
        pub scale_downs: u64,
        /// Activations that paid the full rejoin bill.
        pub rejoin_bills: u64,
        /// Activations that claimed a pre-leased warm worker at a fraction of
        /// the bill.
        pub lease_hits: u64,
        /// p99 end-to-end latency of completions inside the surge window (the
        /// flash-crowd ramp), `ZERO` when no surge window applies.
        pub ramp_p99: Nanos,
    }
}

impl OverloadReport {
    /// The open-loop ledger: `offered == goodput + late + retry_exhausted
    /// + live_at_end`. Debug builds check it at the end of every run.
    pub fn check(&self) -> Result<(), LedgerError> {
        let accounted = self.goodput + self.late + self.retry_exhausted + self.live_at_end;
        if self.offered == accounted {
            Ok(())
        } else {
            Err(LedgerError { offered: self.offered, accounted })
        }
    }
}

/// An open-loop run whose request ends do not add up (see
/// [`OverloadReport::check`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LedgerError {
    /// Requests not ended before warm-up.
    pub offered: u64,
    /// `goodput + late + retry_exhausted + live_at_end`.
    pub accounted: u64,
}

impl std::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "offered {} != goodput + late + retry_exhausted + live_at_end = {}",
            self.offered, self.accounted
        )
    }
}

summed_report! {
    /// Fault, detection and failover accounting for one run. Folded
    /// deterministically (net counters in shard order, health counters from
    /// the ingress), so these are byte-identical at every shard count too.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct ChaosReport {
        /// Frames dropped by stochastic fault plans.
        pub fault_drops: u64,
        /// Frames dropped by crash/partition windows (deterministic).
        pub crash_drops: u64,
        /// Frames corrupted in flight (later dropped by the integrity check).
        pub corrupt: u64,
        /// Retransmission-timeout firings across all QPs.
        pub rto: u64,
        /// Receiver-not-ready NAKs: a send found the destination's shared RQ
        /// empty and its QP sat out an `rnr_retry_delay`. RQ replenishment
        /// keeps up with the engine, so this is zero on every fault-free run.
        pub rnr_naks: u64,
        /// Workers the ingress suspected dead (missed-heartbeat transitions).
        pub suspected: u64,
        /// Suspected workers that later recovered (heartbeats resumed).
        pub recovered: u64,
        /// In-flight requests abandoned when their pair was suspected.
        pub inflight_lost: u64,
        /// Requests issued to a non-preferred pair because the preferred one
        /// was believed dead.
        pub reroutes: u64,
        /// Requests/sends shed because a post failed (errored QP) — zero
        /// unless a QP exhausts its transport retry budget.
        pub shed_qp: u64,
        /// Requests shed because the ingress buffer pool was exhausted (every
        /// drop path is attributed — this one used to vanish silently).
        pub shed_pool: u64,
        /// Requests shed by admission control: queue full, or queued past the
        /// oldest-first queue-delay threshold.
        pub shed_admission: u64,
        /// Requests shed because their propagated deadline could not be met
        /// under the current backlog estimate.
        pub shed_deadline: u64,
        /// Requests shed at the source by an open per-pair circuit breaker.
        pub shed_breaker: u64,
        /// Recovered workers that completed the costed rejoin and re-entered
        /// the routing set.
        pub rejoins: u64,
        /// Rejoins voided because the worker went silent again mid-rejoin.
        pub rejoins_aborted: u64,
        /// Median time-to-recovery: suspicion → paid re-admission.
        pub ttr_p50: Nanos,
        /// 99th-percentile time-to-recovery.
        pub ttr_p99: Nanos,
        /// Pairs demoted to probation by the differential EWMA detector.
        pub gray_demoted: u64,
        /// Probationary pairs restored once their EWMA recovered.
        pub gray_restored: u64,
        /// Requests deflected away from a probationary (but heartbeat-alive)
        /// preferred pair.
        pub gray_reroutes: u64,
    }
}

/// Why a request was turned away — one [`ChaosReport`] `shed_*` counter each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum ShedCause {
    /// Admission queue full, or queued past the queue-delay threshold.
    Admission,
    /// The propagated deadline cannot be met under the backlog estimate.
    Deadline,
    /// Every active pair is dead, deflecting or behind an open breaker.
    Breaker,
    /// A buffer pool was exhausted.
    Pool,
    /// A post failed on an errored QP.
    Qp,
}

impl ChaosReport {
    /// Count one request shed for `cause`.
    pub(super) fn shed(&mut self, cause: ShedCause) {
        *match cause {
            ShedCause::Admission => &mut self.shed_admission,
            ShedCause::Deadline => &mut self.shed_deadline,
            ShedCause::Breaker => &mut self.shed_breaker,
            ShedCause::Pool => &mut self.shed_pool,
            ShedCause::Qp => &mut self.shed_qp,
        } += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_shed_cause_has_its_own_counter() {
        let mut r = ChaosReport::default();
        use ShedCause::*;
        for cause in [Admission, Deadline, Deadline, Breaker, Breaker, Breaker, Pool, Qp, Qp] {
            r.shed(cause);
        }
        let got = (r.shed_admission, r.shed_deadline, r.shed_breaker, r.shed_pool, r.shed_qp);
        assert_eq!(got, (1, 2, 3, 1, 2));
    }

    fn report() -> ClusterShardedReport {
        let mut r = ClusterShardedReport {
            events: 15,
            messages: 16,
            p50: Nanos(17),
            p99: Nanos(18),
            p999: Nanos(19),
            chaos: ChaosReport { rto: 20, ttr_p50: Nanos(21), ..Default::default() },
            overload: OverloadReport { recovery_goodput: 22, ramp_p99: Nanos(23), ..Default::default() },
            ..Default::default()
        };
        r.chain.load.p99_latency = Nanos(12);
        r
    }

    #[test]
    fn every_chaos_and_overload_field_is_a_uniquely_named_metric() {
        let r = report();
        let all = r.metrics();
        for (i, (name, _)) in all.iter().enumerate() {
            assert!(all[..i].iter().all(|(n, _)| n != name), "`{name}` is listed twice");
        }
        let tail = [r.chaos.metrics(), r.overload.metrics()].concat();
        assert_eq!(all[all.len() - tail.len()..], tail[..], "own scalars, then chaos, then overload");
        for (name, value) in tail {
            assert_eq!(r.cells(&[name]), Ok(vec![(name, value)]));
        }
    }

    #[test]
    fn both_writers_serialise_a_column_list_in_its_own_order() {
        let r = report();
        let cols = ["rto", "p50_ns", "exact_p99_ns", "ttr_p50_ns", "recovery_goodput", "ramp_p99_ns"];
        assert_eq!(
            r.kv_line(&cols).unwrap(),
            "rto=20 p50=17 p99=12 ttr_p50=21 recovery=22 ramp_p99=23"
        );
        assert_eq!(
            r.json_row("\"scenario\": \"x\"", &cols).unwrap(),
            "{\"scenario\": \"x\", \"rto\": 20, \"p50_ns\": 17, \"exact_p99_ns\": 12, \
             \"ttr_p50_ns\": 21, \"recovery_goodput\": 22, \"ramp_p99_ns\": 23}"
        );
    }

    #[test]
    fn an_unknown_column_is_an_error_that_names_it() {
        let r = report();
        assert_eq!(r.kv_line(&["rto", "rnr_nak"]), Err(UnknownColumn("rnr_nak".into())));
        assert_eq!(r.json_row("", &["ttr_p50"]), Err(UnknownColumn("ttr_p50".into())));
    }
}
