//! The cluster-wide ingress gateway (§3.6, Fig 10).
//!
//! Master/worker architecture: worker processes run a run-to-completion
//! busy-polling loop doing F-Stack TCP termination, real HTTP processing
//! and — in Palladium's design — *early transport conversion*: the HTTP
//! payload leaves toward workers over RDMA, never over a second TCP
//! connection. RSS spreads client connections across workers; the master
//! horizontally scales the worker count with the 60 %/30 % hysteresis
//! policy, measuring *useful* CPU time inside the event loops (busy-polling
//! cores are nominally always 100 % busy).
//!
//! The deferred-conversion baselines (K-Ingress / F-Ingress, Fig 4 (1)) run
//! through the same gateway object with different per-request service
//! models; the kernel variant additionally suffers receive-livelock
//! inflation under overload — the collapse visible in Fig 14.

use palladium_simnet::{FifoServer, Nanos};
use palladium_tcpstack::{IngressServiceModel, StackKind};

use crate::autoscaler::{Autoscaler, AutoscalerConfig, ScaleAction};
use crate::config::CostModel;
use crate::system::IngressKind;

/// Gateway configuration.
#[derive(Clone, Copy, Debug)]
pub struct IngressConfig {
    /// Ingress design.
    pub kind: IngressKind,
    /// Autoscaler policy (ignored when `fixed_workers` is set).
    pub autoscaler: AutoscalerConfig,
    /// Pin the worker count (Fig 13 uses exactly one core).
    pub fixed_workers: Option<usize>,
}

impl IngressConfig {
    /// A gateway of the given design with autoscaling enabled.
    pub fn new(kind: IngressKind) -> Self {
        IngressConfig {
            kind,
            autoscaler: AutoscalerConfig::default(),
            fixed_workers: None,
        }
    }

    /// Pin the worker count.
    pub fn with_fixed_workers(mut self, n: usize) -> Self {
        self.fixed_workers = Some(n);
        self
    }
}

/// Which half of a request the worker is processing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Leg {
    /// Client request in → (RDMA post | upstream TCP out).
    Inbound,
    /// (RDMA reap | upstream TCP in) → client response out.
    Outbound,
}

/// The gateway state machine.
pub struct IngressGateway {
    cfg: IngressConfig,
    model: IngressServiceModel,
    cost: CostModel,
    /// One FifoServer per potential worker (up to max_workers).
    workers: Vec<FifoServer>,
    /// Legs submitted to each worker and not yet `leg_done`: the backlog
    /// the kernel stack's livelock inflation reads.
    outstanding: Vec<u64>,
    active: usize,
    scaler: Autoscaler,
    /// During a scaling reload, processing pauses until this instant.
    blip_until: Nanos,
    /// Useful busy-time snapshot per worker at the last evaluation.
    busy_snapshot: Vec<Nanos>,
}

impl IngressGateway {
    /// Build a gateway.
    pub fn new(cfg: IngressConfig, cost: CostModel) -> Self {
        let stack = match cfg.kind {
            IngressKind::Palladium | IngressKind::FStackDeferred => StackKind::FStack,
            IngressKind::KernelDeferred => StackKind::Kernel,
        };
        let max = cfg.autoscaler.max_workers;
        let initial = cfg.fixed_workers.unwrap_or(cfg.autoscaler.min_workers);
        IngressGateway {
            cfg,
            model: IngressServiceModel::new(stack),
            cost,
            workers: vec![FifoServer::new(); max],
            outstanding: vec![0; max],
            active: initial.min(max).max(1),
            scaler: Autoscaler::new(cfg.autoscaler),
            blip_until: Nanos::ZERO,
            busy_snapshot: vec![Nanos::ZERO; max],
        }
    }

    /// Ingress design.
    pub fn kind(&self) -> IngressKind {
        self.cfg.kind
    }

    /// Active worker processes.
    pub fn active_workers(&self) -> usize {
        self.active
    }

    /// RSS: assign a client's connection to a worker. The single-worker
    /// case (every Fig 13 run pins one core) skips the hardware divide —
    /// a measurable cost when this runs once per leg on the hot path.
    #[inline]
    pub fn rss_worker(&self, client: usize) -> usize {
        if self.active == 1 {
            0
        } else {
            client % self.active
        }
    }

    fn leg_service(&self, leg: Leg, req_bytes: u64, resp_bytes: u64, backlog: u64) -> Nanos {
        let m = &self.model;
        let mut s = match (self.cfg.kind, leg) {
            // Early conversion: rx + parse + RDMA post inbound; RDMA reap +
            // serialize + tx outbound.
            (IngressKind::Palladium, Leg::Inbound) => {
                m.client_stack.rx(req_bytes) + m.http.parse + m.bridge.post
            }
            (IngressKind::Palladium, Leg::Outbound) => {
                m.bridge.reap + m.http.serialize + m.client_stack.tx(resp_bytes)
            }
            // Deferred conversion: full proxy legs; proxy bookkeeping split
            // across both halves.
            (_, Leg::Inbound) => {
                m.client_stack.rx(req_bytes)
                    + m.http.parse
                    + m.client_stack.tx(req_bytes)
                    + m.http.proxy_overhead / 2
            }
            (_, Leg::Outbound) => {
                m.client_stack.rx(resp_bytes)
                    + m.http.serialize
                    + m.client_stack.tx(resp_bytes)
                    + m.http.proxy_overhead / 2
            }
        };
        // Interrupt-driven kernel stack: livelock inflation under backlog.
        if self.cfg.kind == IngressKind::KernelDeferred {
            s += self.cost.kernel_livelock(backlog);
        }
        s
    }

    /// A request leg arrives at the worker serving `client`. Returns
    /// `(worker index, completion time)`; the driver schedules the
    /// follow-up (RDMA post / upstream TCP / client response) at that time.
    pub fn submit(
        &mut self,
        now: Nanos,
        client: usize,
        leg: Leg,
        req_bytes: u64,
        resp_bytes: u64,
    ) -> (usize, Nanos) {
        let start = now.max(self.blip_until);
        let w = self.rss_worker(client);
        // Kernel livelock pressure is a shared-NIC phenomenon: softirqs
        // steal cycles in proportion to the *total* interrupt arrival rate,
        // not one worker's queue.
        let backlog = if self.cfg.kind == IngressKind::KernelDeferred {
            self.outstanding.iter().sum()
        } else {
            self.outstanding[w]
        };
        let service = self.leg_service(leg, req_bytes, resp_bytes, backlog);
        self.outstanding[w] += 1;
        (w, self.workers[w].submit(start, service))
    }

    /// A leg previously submitted to `worker` finished (the driver calls
    /// this at the returned completion time). Keeping the outstanding
    /// counts accurate is what drives the kernel stack's livelock
    /// inflation.
    pub fn leg_done(&mut self, worker: usize) {
        debug_assert!(self.outstanding[worker] > 0, "leg_done without a submitted leg");
        self.outstanding[worker] = self.outstanding[worker].saturating_sub(1);
    }

    /// Master-process evaluation tick: measure useful utilization over the
    /// window ending `now`, apply the hysteresis policy, and return the
    /// action. A scaling action triggers the reload blip.
    pub fn evaluate(&mut self, now: Nanos, window: Nanos) -> ScaleAction {
        if self.cfg.fixed_workers.is_some() || window.is_zero() {
            return ScaleAction::Hold;
        }
        let mut useful = Nanos::ZERO;
        for w in 0..self.active {
            let busy = self.workers[w].busy_time();
            useful += busy - self.busy_snapshot[w];
        }
        for (w, snap) in self.busy_snapshot.iter_mut().enumerate() {
            *snap = self.workers[w].busy_time();
        }
        let util = useful.as_nanos() as f64 / (window.as_nanos() as f64 * self.active as f64);
        let action = self.scaler.evaluate(util);
        if action != ScaleAction::Hold {
            self.active = self.scaler.workers();
            self.blip_until = now + self.cfg.autoscaler.reload_blip;
        }
        action
    }

    /// Busy time accumulated across active workers (for CPU-usage series).
    pub fn total_busy(&self) -> Nanos {
        self.workers.iter().map(|w| w.busy_time()).sum()
    }

    /// Is the gateway inside a scaling blip at `now`?
    #[cfg(test)]
    pub fn in_blip(&self, now: Nanos) -> bool {
        now < self.blip_until
    }

    /// Scale-up actions taken so far.
    pub fn scaler_ups(&self) -> u32 {
        self.scaler.ups
    }

    /// Scale-down actions taken so far.
    pub fn scaler_downs(&self) -> u32 {
        self.scaler.downs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gw(kind: IngressKind) -> IngressGateway {
        IngressGateway::new(
            IngressConfig::new(kind).with_fixed_workers(1),
            CostModel::default(),
        )
    }

    #[test]
    fn palladium_legs_are_cheapest() {
        let mut p = gw(IngressKind::Palladium);
        let mut f = gw(IngressKind::FStackDeferred);
        let mut k = gw(IngressKind::KernelDeferred);
        let (_, tp) = p.submit(Nanos::ZERO, 0, Leg::Inbound, 256, 256);
        let (_, tf) = f.submit(Nanos::ZERO, 0, Leg::Inbound, 256, 256);
        let (_, tk) = k.submit(Nanos::ZERO, 0, Leg::Inbound, 256, 256);
        assert!(tp < tf, "palladium {tp} < f-ingress {tf}");
        assert!(tf < tk, "f-ingress {tf} < k-ingress {tk}");
    }

    #[test]
    fn full_request_capacity_ratios_match_paper() {
        // Both legs together reproduce the stack-level capacity ratios
        // (≈3.2x and ≈11x, §4.1.3).
        let per_req = |kind| {
            let mut g = gw(kind);
            let (_, t1) = g.submit(Nanos::ZERO, 0, Leg::Inbound, 256, 256);
            let (_, t2) = g.submit(t1, 0, Leg::Outbound, 256, 256);
            t2.as_nanos() as f64
        };
        let p = per_req(IngressKind::Palladium);
        let f = per_req(IngressKind::FStackDeferred);
        let k = per_req(IngressKind::KernelDeferred);
        let cap = 1e9 / p;
        assert!(
            (180_000.0..280_000.0).contains(&cap),
            "Palladium single-core capacity {cap:.0} rps (paper: ≈250K per ingress core)"
        );
        assert!((2.7..3.8).contains(&(f / p)), "F/P ratio {}", f / p);
        assert!((9.0..13.0).contains(&(k / p)), "K/P ratio {}", k / p);
    }

    #[test]
    fn rss_spreads_clients() {
        let mut g = IngressGateway::new(
            IngressConfig::new(IngressKind::Palladium).with_fixed_workers(4),
            CostModel::default(),
        );
        g.active = 4;
        let assigned: Vec<usize> = (0..8).map(|c| g.rss_worker(c)).collect();
        assert_eq!(assigned, [0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn kernel_livelock_inflates_under_backlog() {
        let mut k = gw(IngressKind::KernelDeferred);
        // Pile up 20 concurrent legs: later ones must take much longer than
        // base service because livelock grows with in-flight count...
        let mut last = Nanos::ZERO;
        let mut legs = Vec::new();
        for _ in 0..20 {
            let (w, t) = k.submit(Nanos::ZERO, 0, Leg::Inbound, 256, 256);
            legs.push(w);
            last = t;
        }
        // ...whereas F-stack stays linear.
        let mut f = gw(IngressKind::FStackDeferred);
        let mut flast = Nanos::ZERO;
        for _ in 0..20 {
            let (_, t) = f.submit(Nanos::ZERO, 0, Leg::Inbound, 256, 256);
            flast = t;
        }
        let k_one = gw(IngressKind::KernelDeferred)
            .submit(Nanos::ZERO, 0, Leg::Inbound, 256, 256)
            .1;
        let f_one = gw(IngressKind::FStackDeferred)
            .submit(Nanos::ZERO, 0, Leg::Inbound, 256, 256)
            .1;
        let k_inflation = last.as_nanos() as f64 / (k_one.as_nanos() as f64 * 20.0);
        let f_inflation = flast.as_nanos() as f64 / (f_one.as_nanos() as f64 * 20.0);
        assert!(k_inflation > 1.3, "kernel inflation {k_inflation}");
        assert!(f_inflation < 1.05, "fstack stays linear {f_inflation}");
        // Once every outstanding leg is done, the backlog is gone: the next
        // leg, on the now idle worker, costs the single-leg service again.
        for w in legs {
            k.leg_done(w);
        }
        let (_, t) = k.submit(last, 0, Leg::Inbound, 256, 256);
        assert_eq!(t - last, k_one, "livelock inflation ends with the backlog");
    }

    #[test]
    fn autoscaler_scales_and_blips() {
        let mut g = IngressGateway::new(
            IngressConfig::new(IngressKind::Palladium),
            CostModel::default(),
        );
        assert_eq!(g.active_workers(), 1);
        // Saturate worker 0 for a full window.
        let window = Nanos::from_millis(500);
        let mut t = Nanos::ZERO;
        while t < window {
            let (_, done) = g.submit(t, 0, Leg::Inbound, 256, 256);
            t = done;
        }
        let action = g.evaluate(window, window);
        assert_eq!(action, ScaleAction::Up);
        assert_eq!(g.active_workers(), 2);
        assert!(g.in_blip(window + Nanos::from_millis(1)));
        // Idle window: scale back down.
        let w2 = window * 2;
        let action = g.evaluate(w2, window);
        assert_eq!(action, ScaleAction::Down);
        assert_eq!(g.active_workers(), 1);
    }

    #[test]
    fn fixed_workers_never_scale() {
        let mut g = gw(IngressKind::Palladium);
        assert_eq!(g.evaluate(Nanos::from_secs(1), Nanos::from_secs(1)), ScaleAction::Hold);
        assert_eq!(g.active_workers(), 1);
    }
}
