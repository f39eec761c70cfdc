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
//! * **K-Ingress** does the same on the interrupt-driven kernel stack and
//!   additionally suffers receive-livelock inflation under backlog — the
//!   Fig 14 overload collapse, complete with client disconnections.
//!
//! Fig 13 pins the gateway to one core and sweeps the client count; Fig 14
//! adds a saturating client every 10 s and lets the hysteresis autoscaler
//! (60 %/30 %) manage worker processes. Both figures run the same
//! [`IngressPath`] request pipeline through the shared harness; only the
//! surrounding engine differs.

use palladium_rdma::RdmaConfig;
use palladium_simnet::{
    Effects, Engine, FifoServer, Harness, Nanos, RunStats, ServerBank, UtilizationBins,
    WindowedRate,
};
use palladium_tcpstack::{StackKind, TcpCosts};

use super::LoadReport;
use crate::config::{CostModel, EngineLocation};
use crate::ingress::{IngressConfig, IngressGateway, Leg};
use crate::system::IngressKind;

/// Configuration for the ingress experiments.
#[derive(Clone, Copy, Debug)]
pub struct IngressSimConfig {
    /// Ingress design under test.
    pub kind: IngressKind,
    /// Closed-loop clients.
    pub clients: usize,
    /// Concurrent connections per client (wrk-style pipelining).
    pub conns_per_client: usize,
    /// Request payload bytes.
    pub req_bytes: u64,
    /// Response payload bytes.
    pub resp_bytes: u64,
    /// Gateway worker cores pinned (None = autoscaled).
    pub fixed_workers: Option<usize>,
    /// Worker-node host cores for the echo function.
    pub worker_cores: usize,
    /// Echo function execution cost.
    pub fn_exec: Nanos,
    /// Client gives up if a response takes longer than this (the Fig 14
    /// disconnections); `Nanos::MAX` disables.
    pub client_timeout: Nanos,
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
            conns_per_client: 1,
            req_bytes: 256,
            resp_bytes: 256,
            fixed_workers: Some(1),
            worker_cores: 16,
            fn_exec: Nanos::from_micros(2),
            client_timeout: Nanos::MAX,
            duration: Nanos::from_millis(400),
            warmup: Nanos::from_millis(100),
        }
    }
}

#[derive(Debug)]
enum Ev {
    /// A client connection issues a request (arrives at the gateway after
    /// the client-side wire).
    Arrive { conn: usize, issued: Nanos },
    /// Gateway finished the inbound leg; request heads into the cluster.
    InboundDone { conn: usize, issued: Nanos, worker: usize },
    /// Worker node produced the response; it heads back to the gateway.
    WorkerDone { conn: usize, issued: Nanos },
    /// Gateway finished the outbound leg; response heads to the client.
    OutboundDone { conn: usize, issued: Nanos, worker: usize },
    /// Fig 14: a new saturating client joins.
    AddClient,
    /// Autoscaler evaluation tick.
    ScalerTick,
}

/// Per-request worker-node cost for one ingress design.
struct WorkerSide {
    /// Cost on a worker host core per request (TCP termination for the
    /// deferred designs; Comch wake + echo for Palladium).
    host_per_req: Nanos,
    /// Cost on the worker's engine (DNE) core per request (Palladium only).
    engine_per_req: Nanos,
    /// One-way ingress↔worker latency.
    wire: Nanos,
}

impl WorkerSide {
    fn for_kind(kind: IngressKind, cost: &CostModel, fn_exec: Nanos, bytes: u64) -> Self {
        let rdma = RdmaConfig::default();
        match kind {
            IngressKind::Palladium => WorkerSide {
                // Comch deliver + epoll wake + echo + Comch send-back.
                host_per_req: Nanos::from_nanos(1_300 + 500) + fn_exec,
                // DNE RX for the request + TX for the response.
                engine_per_req: cost.engine_rx_at(EngineLocation::Dpu)
                    + cost.engine_tx_at(EngineLocation::Dpu),
                wire: rdma.one_way(bytes),
            },
            IngressKind::FStackDeferred | IngressKind::KernelDeferred => {
                // Worker terminates TCP with F-Stack (§4.1.3) then echoes.
                let t = TcpCosts::for_kind(StackKind::FStack);
                WorkerSide {
                    host_per_req: t.rx(bytes) + fn_exec + t.tx(bytes),
                    engine_per_req: Nanos::ZERO,
                    wire: Nanos::from_micros(5),
                }
            }
        }
    }
}

/// The request pipeline both figures share: gateway legs, the wire, the
/// worker engine + host cores.
struct IngressPath {
    cfg: IngressSimConfig,
    cost: CostModel,
    gw: IngressGateway,
    ws: WorkerSide,
    worker_cores: ServerBank,
    engine: FifoServer,
}

impl IngressPath {
    fn new(cfg: IngressSimConfig, cost: CostModel, gw: IngressGateway) -> Self {
        IngressPath {
            ws: WorkerSide::for_kind(cfg.kind, &cost, cfg.fn_exec, cfg.req_bytes),
            worker_cores: ServerBank::new("worker", cfg.worker_cores),
            engine: FifoServer::new("worker-dne"),
            cfg,
            cost,
            gw,
        }
    }

    fn client_of(&self, conn: usize) -> usize {
        // One connection per client (the Fig 13 sweep) must not pay a
        // hardware divide per leg.
        if self.cfg.conns_per_client == 1 {
            conn
        } else {
            conn / self.cfg.conns_per_client
        }
    }

    /// Gateway inbound leg.
    fn arrive(&mut self, now: Nanos, conn: usize, issued: Nanos, fx: &mut Effects<'_, Ev>) {
        let (w, done) = self.gw.submit(
            now,
            self.client_of(conn),
            Leg::Inbound,
            self.cfg.req_bytes,
            self.cfg.resp_bytes,
        );
        fx.at(done, Ev::InboundDone { conn, issued, worker: w });
    }

    /// Into the cluster: wire + worker-side processing.
    fn inbound_done(
        &mut self,
        now: Nanos,
        conn: usize,
        issued: Nanos,
        worker: usize,
        fx: &mut Effects<'_, Ev>,
    ) {
        self.gw.leg_done(worker);
        let arrive = now + self.ws.wire;
        let mut ready = arrive;
        if !self.ws.engine_per_req.is_zero() {
            ready = self.engine.submit(arrive, self.ws.engine_per_req);
            self.engine.complete();
        }
        let (core, host_done) = self.worker_cores.submit(ready, self.ws.host_per_req);
        self.worker_cores.complete(core);
        fx.at(host_done + self.ws.wire, Ev::WorkerDone { conn, issued });
    }

    /// Gateway outbound leg.
    fn worker_done(&mut self, now: Nanos, conn: usize, issued: Nanos, fx: &mut Effects<'_, Ev>) {
        let (w, done) = self.gw.submit(
            now,
            self.client_of(conn),
            Leg::Outbound,
            self.cfg.req_bytes,
            self.cfg.resp_bytes,
        );
        fx.at(done, Ev::OutboundDone { conn, issued, worker: w });
    }
}

/// Fig 13 engine: fixed clients, closed loop, latency/RPS stats.
struct SweepEngine {
    path: IngressPath,
    stats: RunStats,
}

impl Engine for SweepEngine {
    type Ev = Ev;

    fn on_event(&mut self, now: Nanos, ev: Ev, fx: &mut Effects<'_, Ev>) {
        match ev {
            Ev::Arrive { conn, issued } => self.path.arrive(now, conn, issued, fx),
            Ev::InboundDone { conn, issued, worker } => {
                self.path.inbound_done(now, conn, issued, worker, fx)
            }
            Ev::WorkerDone { conn, issued } => self.path.worker_done(now, conn, issued, fx),
            Ev::OutboundDone { conn, issued, worker } => {
                self.path.gw.leg_done(worker);
                let finish = now + self.path.cost.client_wire;
                self.stats.complete(finish, issued);
                // Closed loop: next request after the response reaches the
                // client.
                fx.at(
                    finish + self.path.cost.client_wire,
                    Ev::Arrive { conn, issued: finish },
                );
            }
            _ => unreachable!("sweep uses no scaling events"),
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
    /// Clients that disconnected (timed out).
    pub disconnected: usize,
    /// Scale-up actions taken.
    pub scale_ups: u32,
    /// Scale-down actions taken.
    pub scale_downs: u32,
}

/// Fig 14 engine: ramping clients, autoscaler ticks, timeouts.
struct ScalingEngine {
    path: IngressPath,
    rps: WindowedRate,
    util: UtilizationBins,
    last_busy: Nanos,
    last_tick: Nanos,
    joined: usize,
    max_clients: usize,
    join_interval: Nanos,
    eval_interval: Nanos,
    client_timeout: Nanos,
    disconnected: usize,
    alive: Vec<bool>,
}

impl Engine for ScalingEngine {
    type Ev = Ev;

    fn on_event(&mut self, now: Nanos, ev: Ev, fx: &mut Effects<'_, Ev>) {
        match ev {
            Ev::AddClient => {
                if self.joined < self.max_clients {
                    let client = self.joined;
                    self.joined += 1;
                    self.alive.push(true);
                    for k in 0..self.path.cfg.conns_per_client {
                        let conn = client * self.path.cfg.conns_per_client + k;
                        fx.after(self.path.cost.client_wire, Ev::Arrive { conn, issued: now });
                    }
                    fx.after(self.join_interval, Ev::AddClient);
                }
            }
            Ev::ScalerTick => {
                // Track useful busy time as a cores-in-use series: for
                // busy-polling gateways the pinned cores count fully.
                let elapsed = now - self.last_tick;
                let busy = self.path.gw.total_busy();
                let delta = busy - self.last_busy;
                self.last_busy = busy;
                self.last_tick = now;
                match self.path.cfg.kind {
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
                        for _ in 0..self.path.gw.active_workers() {
                            self.util.record_busy(now - elapsed, now);
                        }
                    }
                }
                self.path.gw.evaluate(now, elapsed);
                fx.after(self.eval_interval, Ev::ScalerTick);
            }
            Ev::Arrive { conn, issued } => self.path.arrive(now, conn, issued, fx),
            Ev::InboundDone { conn, issued, worker } => {
                self.path.inbound_done(now, conn, issued, worker, fx)
            }
            Ev::WorkerDone { conn, issued } => self.path.worker_done(now, conn, issued, fx),
            Ev::OutboundDone { conn, issued, worker } => {
                self.path.gw.leg_done(worker);
                let finish = now + self.path.cost.client_wire;
                let client = self.path.client_of(conn);
                self.rps.record(finish);
                let rtt = finish - issued;
                if rtt > self.client_timeout && self.alive.get(client).copied().unwrap_or(false) {
                    // Client gives up: disconnect all its connections.
                    self.alive[client] = false;
                    self.disconnected += 1;
                } else if self.alive.get(client).copied().unwrap_or(false) {
                    fx.at(
                        finish + self.path.cost.client_wire,
                        Ev::Arrive { conn, issued: finish },
                    );
                }
            }
        }
    }
}

/// The Fig 13/14 simulation.
pub struct IngressSim {
    cfg: IngressSimConfig,
    cost: CostModel,
}

impl IngressSim {
    /// Build with the default cost model.
    pub fn new(cfg: IngressSimConfig) -> Self {
        IngressSim {
            cfg,
            cost: CostModel::default(),
        }
    }

    /// Fig 13: fixed client count, fixed single gateway core. Returns the
    /// load report (mean E2E latency + RPS).
    pub fn sweep(&self) -> LoadReport {
        let cfg = self.cfg;
        let cost = self.cost;
        let gw = IngressGateway::new(
            IngressConfig::new(cfg.kind).with_fixed_workers(cfg.fixed_workers.unwrap_or(1)),
            cost,
        );
        let mut engine = SweepEngine {
            path: IngressPath::new(cfg, cost, gw),
            stats: RunStats::new(cfg.warmup),
        };

        let total_conns = cfg.clients * cfg.conns_per_client;
        let mut harness: Harness<Ev> = Harness::new();
        for conn in 0..total_conns {
            harness.schedule_at(cost.client_wire, Ev::Arrive { conn, issued: Nanos::ZERO });
        }
        harness.run(&mut engine, cfg.warmup + cfg.duration);

        engine.stats.report(cfg.duration)
    }

    /// Fig 14: clients join every `join_interval`; the gateway autoscales
    /// (Palladium / F-Ingress) or runs all kernel workers (K-Ingress).
    /// `time_scale` compresses the 4-minute experiment.
    pub fn scaling_run(&self, time_scale: f64, max_clients: usize) -> ScalingReport {
        let cfg = self.cfg;
        let cost = self.cost;
        let s = |secs: f64| Nanos::from_f64_saturating(secs * time_scale * 1e9);
        let duration = s(240.0);
        let window = s(4.0);
        let eval_interval = s(0.5);

        // K-Ingress: interrupt-driven kernel workers on all cores from the
        // start; Palladium/F: autoscaled busy-poll workers. The reload blip
        // compresses with the experiment's time scale.
        let mut gw_cfg = match cfg.kind {
            IngressKind::KernelDeferred => IngressConfig::new(cfg.kind).with_fixed_workers(24),
            _ => IngressConfig::new(cfg.kind),
        };
        gw_cfg.autoscaler.reload_blip = s(0.12);
        gw_cfg.autoscaler.eval_interval = eval_interval;
        let gw = IngressGateway::new(gw_cfg, cost);

        let mut engine = ScalingEngine {
            path: IngressPath::new(cfg, cost, gw),
            rps: WindowedRate::new(window, Nanos::ZERO),
            util: UtilizationBins::new(window),
            last_busy: Nanos::ZERO,
            last_tick: Nanos::ZERO,
            joined: 0,
            max_clients,
            join_interval: s(10.0),
            eval_interval,
            client_timeout: s(1.0),
            disconnected: 0,
            alive: Vec::new(),
        };

        let mut harness: Harness<Ev> = Harness::new();
        harness.schedule_at(Nanos::ZERO, Ev::AddClient);
        harness.schedule_at(eval_interval, Ev::ScalerTick);
        harness.run(&mut engine, duration);

        ScalingReport {
            cores_series: engine.util.series(duration),
            rps_series: engine.rps.series(duration),
            disconnected: engine.disconnected,
            scale_ups: engine.path.gw.scaler_ups(),
            scale_downs: engine.path.gw.scaler_downs(),
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
    fn saturated_rps_ordering_matches_paper() {
        // At 60 clients all designs are saturated: Palladium ≫ F ≫ K.
        let p = sweep(IngressKind::Palladium, 60);
        let f = sweep(IngressKind::FStackDeferred, 60);
        let k = sweep(IngressKind::KernelDeferred, 60);
        assert!(p.rps > f.rps && f.rps > k.rps);
        let pf = p.rps / f.rps;
        let pk = p.rps / k.rps;
        assert!((2.4..4.2).contains(&pf), "P/F RPS ratio {pf:.2} (paper 3.2)");
        assert!(pk > 6.0, "P/K RPS ratio {pk:.2} (paper 11.4)");
        // Absolute: Palladium ≈ 200-260K on one core (paper ≈250K).
        assert!((150_000.0..280_000.0).contains(&p.rps), "palladium {:.0}", p.rps);
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
        let cfg = IngressSimConfig {
            fixed_workers: None,
            conns_per_client: 32,
            ..IngressSimConfig::fig13(IngressKind::Palladium, 0)
        };
        let report = IngressSim::new(cfg).scaling_run(0.05, 20);
        assert!(report.scale_ups >= 1, "autoscaler must add workers");
        assert_eq!(report.disconnected, 0, "no palladium disconnections");
        // RPS grows over the run.
        let early = report.rps_series.iter().take(2).map(|&(_, r)| r).sum::<f64>();
        let late: f64 = report.rps_series.iter().rev().take(2).map(|&(_, r)| r).sum();
        assert!(late > early, "rps must ramp: early {early:.0} late {late:.0}");
    }

    #[test]
    fn kernel_ingress_collapses_with_disconnects() {
        let cfg = IngressSimConfig {
            fixed_workers: None,
            conns_per_client: 32,
            ..IngressSimConfig::fig13(IngressKind::KernelDeferred, 0)
        };
        let report = IngressSim::new(cfg).scaling_run(0.05, 20);
        assert!(
            report.disconnected > 0,
            "overloaded kernel ingress must shed clients"
        );
    }

    #[test]
    fn deterministic() {
        let a = sweep(IngressKind::Palladium, 20);
        let b = sweep(IngressKind::Palladium, 20);
        assert_eq!(a.completed, b.completed);
    }
}
