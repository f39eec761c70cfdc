//! Fig 15 driver: multi-tenant RDMA fairness through the DNE.
//!
//! Three tenants, each a client/server function pair across two worker
//! nodes, compete for one DNE sustaining ≈110 K RPS on its single DPU core
//! (§4.2's configuration). Tenant 1 (weight 6) runs for the whole
//! experiment; tenant 2 (weight 1) joins at 20 s and leaves at 3 m 20 s
//! with periodic surges; tenant 3 (weight 2) runs 1 m 30 s – 2 m 30 s and
//! is burstier. The DWRR engine divides throughput 6:1:2 under contention;
//! the FCFS engine serves in arrival order and lets the bursty tenants
//! starve tenant 1.

use palladium_membuf::TenantId;
use palladium_simnet::{Effects, Engine, FifoServer, Harness, Nanos, WindowedRate};

use crate::dwrr::{SchedPolicy, TenantScheduler};

/// One tenant's activity pattern.
#[derive(Clone, Copy, Debug)]
pub struct TenantProfile {
    /// Tenant id.
    pub tenant: TenantId,
    /// DWRR weight.
    pub weight: u32,
    /// Closed-loop client count while active (offered concurrency).
    pub clients: usize,
    /// Activity window start.
    pub start: Nanos,
    /// Activity window end.
    pub stop: Nanos,
    /// Surge period: within the activity window the tenant alternates
    /// `on_time` active / `off_time` idle. `off_time == 0` = steady.
    pub on_time: Nanos,
    /// Idle part of the surge cycle.
    pub off_time: Nanos,
}

impl TenantProfile {
    /// Is the tenant generating load at `t`?
    pub fn active_at(&self, t: Nanos) -> bool {
        if t < self.start || t >= self.stop {
            return false;
        }
        if self.off_time.is_zero() {
            return true;
        }
        let cycle = (self.on_time + self.off_time).as_nanos();
        let phase = (t - self.start).as_nanos() % cycle;
        phase < self.on_time.as_nanos()
    }

    /// Next instant at or after `t` when the tenant becomes active, if any.
    pub fn next_active(&self, t: Nanos) -> Option<Nanos> {
        if t >= self.stop {
            return None;
        }
        let t = t.max(self.start);
        if self.active_at(t) {
            return Some(t);
        }
        if self.off_time.is_zero() {
            return None;
        }
        let cycle = (self.on_time + self.off_time).as_nanos();
        let phase = (t - self.start).as_nanos() % cycle;
        let next = t + Nanos(cycle - phase);
        (next < self.stop).then_some(next)
    }
}

/// Configuration of one Fig 15 run.
#[derive(Clone, Debug)]
pub struct FairnessSimConfig {
    /// Scheduling policy (the figure's two panels).
    pub policy: SchedPolicy,
    /// Tenants and their schedules.
    pub profiles: Vec<TenantProfile>,
    /// Total experiment duration.
    pub duration: Nanos,
    /// Reporting window for the time series.
    pub window: Nanos,
}

impl FairnessSimConfig {
    /// The paper's §4.2 configuration, scaled by `time_scale` (1.0 = the
    /// full 4-minute run; tests use a small fraction).
    pub fn paper(policy: SchedPolicy, time_scale: f64) -> Self {
        let s = |secs: f64| Nanos::from_f64_saturating(secs * time_scale * 1e9);
        FairnessSimConfig {
            policy,
            profiles: vec![
                TenantProfile {
                    tenant: TenantId(1),
                    weight: 6,
                    clients: 32,
                    start: s(0.0),
                    stop: s(240.0),
                    on_time: s(240.0),
                    off_time: Nanos::ZERO,
                },
                TenantProfile {
                    tenant: TenantId(2),
                    weight: 1,
                    clients: 48,
                    start: s(20.0),
                    stop: s(200.0),
                    on_time: s(12.0),
                    off_time: s(4.0),
                },
                TenantProfile {
                    tenant: TenantId(3),
                    weight: 2,
                    clients: 64,
                    start: s(90.0),
                    stop: s(150.0),
                    on_time: s(5.0),
                    off_time: s(3.0),
                },
            ],
            duration: s(240.0),
            window: s(4.0),
        }
    }
}

/// Per-request DNE service time: the paper configures the engine to
/// sustain ≈110 K RPS, ≈9.09 µs per request.
const DNE_SERVICE: Nanos = Nanos::from_nanos(9_090);

/// Result: per-tenant time series plus totals.
#[derive(Clone, Debug)]
pub struct FairnessReport {
    /// `(tenant, series of (window end, RPS))` in profile order.
    pub series: Vec<(TenantId, Vec<(Nanos, f64)>)>,
    /// Total completed requests per tenant.
    pub totals: Vec<(TenantId, u64)>,
}

#[derive(Debug)]
enum Ev {
    /// A client of `tenant` issues a request.
    Issue { tenant: TenantId },
    /// The engine finished one request.
    Done { tenant: TenantId },
    /// The engine core freed up — dequeue the next request.
    Slot,
}

/// The driver's state machine: the tenant scheduler feeding one DNE core.
struct FairnessEngine {
    sched: TenantScheduler<TenantId>,
    core: FifoServer,
    busy: bool,
    profiles: Vec<TenantProfile>,
    rates: Vec<WindowedRate>,
    totals: Vec<u64>,
}

impl FairnessEngine {
    fn idx_of(&self, t: TenantId) -> usize {
        self.profiles
            .iter()
            .position(|p| p.tenant == t)
            .expect("known tenant")
    }
}

impl Engine for FairnessEngine {
    type Ev = Ev;

    fn on_event(&mut self, now: Nanos, ev: Ev, fx: &mut Effects<'_, Ev>) {
        match ev {
            Ev::Issue { tenant } => {
                self.sched.enqueue(tenant, 1, tenant);
                if !self.busy {
                    fx.now_ev(Ev::Slot);
                }
            }
            Ev::Slot => {
                if self.busy {
                    return;
                }
                if let Some((tenant, _)) = self.sched.dequeue() {
                    self.busy = true;
                    let done = self.core.submit(now, DNE_SERVICE);
                    self.core.complete();
                    fx.at(done, Ev::Done { tenant });
                }
            }
            Ev::Done { tenant } => {
                self.busy = false;
                let i = self.idx_of(tenant);
                self.rates[i].record(now);
                self.totals[i] += 1;
                // Closed loop: the client re-issues while its tenant is in
                // an active phase; otherwise it parks until the next surge.
                let p = &self.profiles[i];
                if p.active_at(now) {
                    fx.now_ev(Ev::Issue { tenant });
                } else if let Some(at) = p.next_active(now) {
                    fx.at(at, Ev::Issue { tenant });
                }
                fx.now_ev(Ev::Slot);
            }
        }
    }
}

/// The Fig 15 simulation.
pub struct FairnessSim {
    cfg: FairnessSimConfig,
}

impl FairnessSim {
    /// Build the simulation.
    pub fn new(cfg: FairnessSimConfig) -> Self {
        FairnessSim { cfg }
    }

    /// Run and report per-tenant series.
    pub fn run(&self) -> FairnessReport {
        let cfg = &self.cfg;
        let mut sched: TenantScheduler<TenantId> = TenantScheduler::new(cfg.policy, 1);
        for p in &cfg.profiles {
            sched.register_tenant(p.tenant, p.weight);
        }
        let mut engine = FairnessEngine {
            sched,
            core: FifoServer::new(),
            busy: false,
            profiles: cfg.profiles.clone(),
            rates: cfg
                .profiles
                .iter()
                .map(|_| WindowedRate::new(cfg.window, Nanos::ZERO))
                .collect(),
            totals: vec![0u64; cfg.profiles.len()],
        };

        let mut harness: Harness<Ev> = Harness::new();
        for p in &cfg.profiles {
            let at = p.next_active(Nanos::ZERO).unwrap_or(p.start);
            for _ in 0..p.clients {
                harness.schedule_at(at, Ev::Issue { tenant: p.tenant });
            }
        }
        harness.run(&mut engine, cfg.duration);

        FairnessReport {
            series: cfg
                .profiles
                .iter()
                .zip(&engine.rates)
                .map(|(p, r)| (p.tenant, r.series(cfg.duration)))
                .collect(),
            totals: cfg
                .profiles
                .iter()
                .zip(&engine.totals)
                .map(|(p, &n)| (p.tenant, n))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A steady three-tenant contention config (no surges): weights 6:1:2,
    /// everyone active for the whole run — the cleanest way to assert
    /// shares without surge-phase alignment noise.
    fn steady(policy: SchedPolicy, clients: [usize; 3]) -> FairnessSimConfig {
        let dur = Nanos::from_millis(1_500);
        let profile = |tenant, weight, clients| TenantProfile {
            tenant,
            weight,
            clients,
            start: Nanos::ZERO,
            stop: dur,
            on_time: dur,
            off_time: Nanos::ZERO,
        };
        FairnessSimConfig {
            policy,
            profiles: vec![
                profile(TenantId(1), 6, clients[0]),
                profile(TenantId(2), 1, clients[1]),
                profile(TenantId(3), 2, clients[2]),
            ],
            duration: dur,
            window: Nanos::from_millis(100),
        }
    }

    /// Mean RPS over the steady-state second half of the run.
    fn late_rps(report: &FairnessReport, t: TenantId) -> f64 {
        let (_, series) = report.series.iter().find(|(tenant, _)| *tenant == t).expect("tenant ran");
        let late: Vec<f64> = series
            .iter()
            .filter(|(end, _)| *end > Nanos::from_millis(700))
            .map(|(_, rps)| *rps)
            .collect();
        late.iter().sum::<f64>() / late.len() as f64
    }

    #[test]
    fn profile_activity_windows() {
        let p = TenantProfile {
            tenant: TenantId(2),
            weight: 1,
            clients: 1,
            start: Nanos::from_secs(20),
            stop: Nanos::from_secs(200),
            on_time: Nanos::from_secs(12),
            off_time: Nanos::from_secs(4),
        };
        assert!(!p.active_at(Nanos::from_secs(10)));
        assert!(p.active_at(Nanos::from_secs(25)));
        // 20+12=32: off phase 32..36.
        assert!(!p.active_at(Nanos::from_secs(33)));
        assert!(p.active_at(Nanos::from_secs(36)));
        assert!(!p.active_at(Nanos::from_secs(201)));
        assert_eq!(
            p.next_active(Nanos::from_secs(33)),
            Some(Nanos::from_secs(36))
        );
        assert_eq!(p.next_active(Nanos::from_secs(205)), None);
    }

    #[test]
    fn sole_tenant_gets_full_capacity() {
        // Only tenant 1 offers load: it gets the whole ≈110K regardless of
        // its 6/9 weight share (DWRR is work-conserving).
        let mut cfg = steady(SchedPolicy::Dwrr, [32, 0, 0]);
        cfg.profiles.retain(|p| p.clients > 0);
        let report = FairnessSim::new(cfg).run();
        let t1 = late_rps(&report, TenantId(1));
        assert!(
            (100_000.0..115_000.0).contains(&t1),
            "solo tenant 1 RPS {t1:.0}"
        );
    }

    #[test]
    fn dwrr_enforces_weighted_shares_under_contention() {
        let report = FairnessSim::new(steady(SchedPolicy::Dwrr, [32, 48, 64])).run();
        let t1 = late_rps(&report, TenantId(1));
        let t2 = late_rps(&report, TenantId(2));
        let t3 = late_rps(&report, TenantId(3));
        assert!(t1 > 0.0 && t2 > 0.0 && t3 > 0.0);
        let r12 = t1 / t2;
        let r32 = t3 / t2;
        assert!((5.0..7.0).contains(&r12), "t1/t2 = {r12:.2} (want ≈6)");
        assert!((1.6..2.4).contains(&r32), "t3/t2 = {r32:.2} (want ≈2)");
        // Absolute split of ≈110K capacity: ≈73/12/24K.
        assert!((63_000.0..83_000.0).contains(&t1), "t1 {t1:.0}");
        assert!((8_000.0..17_000.0).contains(&t2), "t2 {t2:.0}");
        assert!((18_000.0..31_000.0).contains(&t3), "t3 {t3:.0}");
    }

    #[test]
    fn fcfs_starves_the_heavy_tenant() {
        // Under FCFS, shares follow offered concurrency (32:48:64), not
        // weights: tenant 1 gets far less than DWRR would give it.
        let fcfs = FairnessSim::new(steady(SchedPolicy::Fcfs, [32, 48, 64])).run();
        let dwrr = FairnessSim::new(steady(SchedPolicy::Dwrr, [32, 48, 64])).run();
        let f1 = late_rps(&fcfs, TenantId(1));
        let d1 = late_rps(&dwrr, TenantId(1));
        assert!(
            f1 < d1 * 0.6,
            "FCFS tenant-1 {f1:.0} should starve vs DWRR {d1:.0}"
        );
        // FCFS share ≈ 32/144 of 110K ≈ 24K.
        assert!((18_000.0..32_000.0).contains(&f1), "FCFS t1 {f1:.0}");
    }

    #[test]
    fn work_conservation() {
        for policy in [SchedPolicy::Dwrr, SchedPolicy::Fcfs] {
            let report = FairnessSim::new(steady(policy, [32, 48, 64])).run();
            let total: f64 = [TenantId(1), TenantId(2), TenantId(3)]
                .iter()
                .map(|&t| late_rps(&report, t))
                .sum();
            assert!(
                (100_000.0..118_000.0).contains(&total),
                "{policy:?} total {total:.0}"
            );
        }
    }

    #[test]
    fn paper_schedule_smoke() {
        // The full paper schedule at a tiny time scale: runs, produces
        // series for all three tenants, and tenant 2 shows surge gaps.
        let report = FairnessSim::new(FairnessSimConfig::paper(SchedPolicy::Dwrr, 0.01)).run();
        assert_eq!(report.series.len(), 3);
        let (_, t1_series) = &report.series[0];
        assert!(t1_series.iter().any(|&(_, rps)| rps > 0.0));
    }
}
