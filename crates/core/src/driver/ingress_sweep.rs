//! Figs 13–14 driver: cluster ingress designs under client sweep and
//! autoscaling.
//!
//! External clients send HTTP requests through the cluster ingress to an
//! echo function on a worker node (§4.1.3's setup):
//!
//! * **Palladium** terminates TCP at the edge and bridges payloads over
//!   RDMA to the worker's DNE — one TCP connection per request path, no
//!   proxy bookkeeping, no worker-side protocol processing.
//! * **F-Ingress** (deferred conversion) reverse-proxies over a second TCP
//!   connection; the worker terminates TCP with F-Stack.
//! * **K-Ingress** does the same on the interrupt-driven kernel stack,
//!   whose legs cost more but, like every station here, the same at any
//!   load: an overloaded gateway queues, it does not slow down.
//!
//! Both figures run one engine; a schedule and a gateway config are the
//! only differences. Fig 13 is the ramp with every client joining at
//! t = 0 (one connection each) and a one-core fixed gateway. Fig 14 adds a
//! saturating client every 10 s and lets the hysteresis autoscaler
//! (60 %/30 %) manage worker processes.

// A cost-model funnel: a bare truncating cast here corrupts virtual time,
// so conversions saturate (`Nanos::from_f64_saturating`, checked ops).
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)
)]

use palladium_rdma::RdmaConfig;
use palladium_simnet::{
    Effects, Engine, FifoServer, Harness, Nanos, RunStats, ServerBank, UtilizationBins,
    WindowedRate,
};

use super::LoadReport;
use crate::config::CostModel;
use crate::ingress::{IngressConfig, IngressGateway, Leg};
use crate::price::Prices;
use crate::system::{IngressKind, SystemKind};

/// Request and response payload bytes: 256 B echoes.
const ECHO_BYTES: u32 = 256;

/// Worker-node host cores for the echo function.
const WORKER_CORES: usize = 16;

/// Configuration of one Fig 13 point.
#[derive(Clone, Copy, Debug)]
pub struct IngressSimConfig {
    /// Ingress design under test.
    pub kind: IngressKind,
    /// Closed-loop clients.
    pub clients: usize,
    /// Measurement window.
    pub duration: Nanos,
    /// Warm-up.
    pub warmup: Nanos,
}

impl IngressSimConfig {
    /// The Fig 13 configuration: one gateway core, 256 B echoes.
    pub fn fig13(kind: IngressKind, clients: usize) -> Self {
        IngressSimConfig {
            kind,
            clients,
            duration: Nanos::from_millis(400),
            warmup: Nanos::from_millis(100),
        }
    }
}

/// Who connects when, and what a run records: everything besides the
/// gateway config that differs between Fig 13 and Fig 14.
#[derive(Clone, Copy, Debug)]
struct Schedule {
    /// Clients that join, one every `join_every` from t = 0.
    clients: usize,
    join_every: Nanos,
    /// Concurrent connections per client (wrk-style pipelining).
    conns_per_client: usize,
    /// Latency samples are kept for completions from here on.
    warmup: Nanos,
    /// Width of one point of the RPS and cores-in-use series.
    window: Nanos,
    /// The run ends here.
    horizon: Nanos,
}

#[derive(Debug)]
enum Ev {
    /// A client connection issues a request (arrives at the gateway after
    /// the client-side wire).
    Arrive { conn: usize, issued: Nanos },
    /// Gateway finished the inbound leg; request heads into the cluster.
    InboundDone { conn: usize, issued: Nanos },
    /// Worker node produced the response; it heads back to the gateway.
    WorkerDone { conn: usize, issued: Nanos },
    /// Gateway finished the outbound leg; response heads to the client.
    OutboundDone { conn: usize, issued: Nanos },
    /// The next client joins.
    AddClient,
    /// Autoscaler evaluation tick.
    ScalerTick,
}

/// The closed-loop clients, the gateway and the worker node.
struct IngressEngine {
    sched: Schedule,
    gw: IngressGateway,
    eval_interval: Nanos,
    /// Per request, on a worker host core: TCP termination for the
    /// deferred designs, Comch wake and send-back for Palladium; and the
    /// echo.
    host_per_req: Nanos,
    /// Per request, on the worker's DNE core (Palladium only).
    engine_per_req: Nanos,
    /// One-way gateway ↔ worker.
    wire: Nanos,
    /// One-way client ↔ gateway.
    client_wire: Nanos,
    worker_cores: ServerBank,
    worker_dne: FifoServer,
    stats: RunStats,
    rps: WindowedRate,
    util: UtilizationBins,
    last_busy: Nanos,
    last_tick: Nanos,
    /// Clients joined so far.
    joined: usize,
}

impl IngressEngine {
    /// Run `sched` against a gateway built from `gw_cfg`.
    fn run(gw_cfg: IngressConfig, sched: Schedule) -> Self {
        // The worker the figure models: Palladium's DNE node, or one that
        // terminates TCP with F-Stack (§4.1.3), as FUYAO-F's does.
        let p = Prices::of(match gw_cfg.kind {
            IngressKind::Palladium => SystemKind::PalladiumDne,
            IngressKind::FStackDeferred | IngressKind::KernelDeferred => SystemKind::FuyaoF,
        });
        let (host_per_req, engine_per_req, wire) = match p.dne {
            // DNE RX for the request and TX for the response; the RDMA wire
            // is the fabric's own price.
            Some(dne) => {
                let wire = RdmaConfig::default().one_way(u64::from(ECHO_BYTES));
                (p.recv + p.engine_send + Prices::INGRESS_FN_EXEC, dne.rx + dne.tx, wire)
            }
            None => {
                let host = p.tcp_rx(ECHO_BYTES) + Prices::INGRESS_FN_EXEC + p.tcp_tx(ECHO_BYTES);
                (host, Nanos::ZERO, p.tcp_wire)
            }
        };
        let mut engine = IngressEngine {
            sched,
            gw: IngressGateway::new(gw_cfg, CostModel::default()),
            eval_interval: gw_cfg.autoscaler.eval_interval,
            host_per_req,
            engine_per_req,
            wire,
            client_wire: p.client_wire,
            worker_cores: ServerBank::new(WORKER_CORES),
            worker_dne: FifoServer::new(),
            stats: RunStats::new(sched.warmup),
            rps: WindowedRate::new(sched.window, Nanos::ZERO),
            util: UtilizationBins::new(sched.window),
            last_busy: Nanos::ZERO,
            last_tick: Nanos::ZERO,
            joined: 0,
        };
        let mut harness: Harness<Ev> = Harness::new();
        harness.schedule_at(Nanos::ZERO, Ev::AddClient);
        harness.schedule_at(engine.eval_interval, Ev::ScalerTick);
        harness.run(&mut engine, sched.horizon);
        engine
    }

    fn client_of(&self, conn: usize) -> usize {
        // One connection per client (the Fig 13 sweep) must not pay a
        // hardware divide per leg.
        if self.sched.conns_per_client == 1 {
            conn
        } else {
            conn / self.sched.conns_per_client
        }
    }

    /// Gateway leg `leg` of the request on `conn`: when it finishes.
    fn submit(&mut self, now: Nanos, conn: usize, leg: Leg) -> Nanos {
        self.gw.submit(now, self.client_of(conn), leg, ECHO_BYTES.into(), ECHO_BYTES.into()).1
    }
}

impl Engine for IngressEngine {
    type Ev = Ev;

    fn on_event(&mut self, now: Nanos, ev: Ev, fx: &mut Effects<'_, Ev>) {
        match ev {
            Ev::AddClient => {
                let client = self.joined;
                if client < self.sched.clients {
                    self.joined += 1;
                    for k in 0..self.sched.conns_per_client {
                        let conn = client * self.sched.conns_per_client + k;
                        fx.after(self.client_wire, Ev::Arrive { conn, issued: now });
                    }
                    fx.after(self.sched.join_every, Ev::AddClient);
                }
            }
            Ev::ScalerTick => {
                // Track useful busy time as a cores-in-use series: for
                // busy-polling gateways the pinned cores count fully.
                let elapsed = now - self.last_tick;
                let busy = self.gw.total_busy();
                let delta = busy - self.last_busy;
                self.last_busy = busy;
                self.last_tick = now;
                match self.gw.kind() {
                    IngressKind::KernelDeferred => {
                        // Interrupt-driven: cores used = useful busy time,
                        // spread across the interval (delta may span
                        // several cores' worth of work).
                        let mut remaining = delta;
                        while remaining > elapsed && !elapsed.is_zero() {
                            self.util.record_busy(now - elapsed, now);
                            remaining -= elapsed;
                        }
                        if !remaining.is_zero() {
                            self.util.record_busy(now - remaining, now);
                        }
                    }
                    _ => {
                        // Busy-polling: every active worker pins its core.
                        for _ in 0..self.gw.active_workers() {
                            self.util.record_busy(now - elapsed, now);
                        }
                    }
                }
                self.gw.evaluate(now, elapsed);
                fx.after(self.eval_interval, Ev::ScalerTick);
            }
            Ev::Arrive { conn, issued } => {
                let done = self.submit(now, conn, Leg::Inbound);
                fx.at(done, Ev::InboundDone { conn, issued });
            }
            Ev::InboundDone { conn, issued } => {
                // Into the cluster: wire + worker-side processing. Booked
                // ahead of the clock but in order: `InboundDone` fires in
                // time order and the wire is fixed.
                let arrive = now + self.wire;
                let mut ready = arrive;
                if !self.engine_per_req.is_zero() {
                    ready = self.worker_dne.submit(arrive, self.engine_per_req);
                }
                let host_done = self.worker_cores.submit(ready, self.host_per_req);
                fx.at(host_done + self.wire, Ev::WorkerDone { conn, issued });
            }
            Ev::WorkerDone { conn, issued } => {
                let done = self.submit(now, conn, Leg::Outbound);
                fx.at(done, Ev::OutboundDone { conn, issued });
            }
            Ev::OutboundDone { conn, issued } => {
                let finish = now + self.client_wire;
                self.stats.complete(finish, issued);
                self.rps.record(finish);
                // Closed loop: next request after the response reaches the
                // client.
                fx.at(finish + self.client_wire, Ev::Arrive { conn, issued: finish });
            }
        }
    }
}

/// Fig 14 time-series output.
#[derive(Clone, Debug)]
pub struct ScalingReport {
    /// `(window end, gateway cores in use)`.
    pub cores_series: Vec<(Nanos, f64)>,
    /// `(window end, completed RPS)`.
    pub rps_series: Vec<(Nanos, f64)>,
    /// Scale-up actions taken.
    pub scale_ups: u32,
    /// Scale-down actions taken.
    pub scale_downs: u32,
}

/// The Fig 13/14 simulation.
pub struct IngressSim {
    cfg: IngressSimConfig,
}

impl IngressSim {
    /// Build with the default cost model.
    pub fn new(cfg: IngressSimConfig) -> Self {
        IngressSim { cfg }
    }

    /// Fig 13: fixed client count, fixed single gateway core. Returns the
    /// load report (mean E2E latency + RPS).
    pub fn sweep(&self) -> LoadReport {
        let cfg = self.cfg;
        let horizon = cfg.warmup + cfg.duration;
        let sched = Schedule {
            clients: cfg.clients,
            join_every: Nanos::ZERO,
            conns_per_client: 1,
            warmup: cfg.warmup,
            window: horizon,
            horizon,
        };
        let gw_cfg = IngressConfig::new(cfg.kind).with_fixed_workers(1);
        IngressEngine::run(gw_cfg, sched).stats.report(cfg.duration)
    }

    /// Fig 14: a saturating client (32 connections) joins every 10 s up to
    /// `max_clients`; the gateway autoscales (Palladium / F-Ingress) or
    /// runs all kernel workers (K-Ingress). `time_scale` compresses the
    /// 4-minute experiment.
    pub fn scaling_run(kind: IngressKind, time_scale: f64, max_clients: usize) -> ScalingReport {
        let s = |secs: f64| Nanos::from_f64_saturating(secs * time_scale * 1e9);
        let horizon = s(240.0);
        // K-Ingress: interrupt-driven kernel workers on all cores from the
        // start; Palladium/F: autoscaled busy-poll workers. The reload blip
        // compresses with the experiment's time scale.
        let mut gw_cfg = match kind {
            IngressKind::KernelDeferred => IngressConfig::new(kind).with_fixed_workers(24),
            _ => IngressConfig::new(kind),
        };
        gw_cfg.autoscaler.reload_blip = s(0.12);
        gw_cfg.autoscaler.eval_interval = s(0.5);
        let sched = Schedule {
            clients: max_clients,
            join_every: s(10.0),
            conns_per_client: 32,
            // The figure plots series, not latency: samples start at the
            // horizon.
            warmup: horizon,
            window: s(4.0),
            horizon,
        };
        let e = IngressEngine::run(gw_cfg, sched);
        ScalingReport {
            cores_series: e.util.series(horizon),
            rps_series: e.rps.series(horizon),
            scale_ups: e.gw.scaler_ups(),
            scale_downs: e.gw.scaler_downs(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(kind: IngressKind, clients: usize) -> LoadReport {
        IngressSim::new(IngressSimConfig::fig13(kind, clients)).sweep()
    }

    #[test]
    fn latency_ordering_under_load() {
        let p = sweep(IngressKind::Palladium, 60);
        let f = sweep(IngressKind::FStackDeferred, 60);
        let k = sweep(IngressKind::KernelDeferred, 60);
        assert!(p.mean_latency < f.mean_latency);
        assert!(f.mean_latency < k.mean_latency);
    }

    #[test]
    fn single_client_latency_is_low() {
        let p = sweep(IngressKind::Palladium, 1);
        // Unloaded: wire (2x20µs) + legs + worker side ⇒ well under 100 µs.
        assert!(p.mean_latency < Nanos::from_micros(100), "{}", p.mean_latency);
        let k = sweep(IngressKind::KernelDeferred, 1);
        assert!(k.mean_latency < Nanos::from_micros(200));
    }

    #[test]
    fn palladium_scales_workers_under_ramp() {
        let report = IngressSim::scaling_run(IngressKind::Palladium, 0.05, 20);
        assert!(report.scale_ups >= 1, "autoscaler must add workers");
        // RPS grows over the run.
        let early = report.rps_series.iter().take(2).map(|&(_, r)| r).sum::<f64>();
        let late: f64 = report.rps_series.iter().rev().take(2).map(|&(_, r)| r).sum();
        assert!(late > early, "rps must ramp: early {early:.0} late {late:.0}");
    }

    #[test]
    fn deterministic() {
        let a = sweep(IngressKind::Palladium, 20);
        let b = sweep(IngressKind::Palladium, 20);
        assert_eq!(a.completed, b.completed);
    }
}
