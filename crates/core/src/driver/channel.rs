//! Fig 9 driver: DPU↔host descriptor-channel comparison.
//!
//! N host functions issue back-to-back 16 B descriptor echoes against a
//! single-core DNE on the DPU (§3.5.4's experiment): function sends a
//! descriptor over the channel, the DNE's event loop receives it and
//! replies, the function receives the reply and immediately sends the next.
//!
//! What shapes the curves:
//! * **TCP** pays full protocol-stack costs on both sides — worst latency,
//!   and the wimpy DPU core saturates earliest.
//! * **Comch-P** busy-polls: lowest unloaded latency, but (a) every host
//!   function pins a host core, so beyond the core count extra functions
//!   cannot run ("No more CPU cores"), and (b) the DNE-side progress engine
//!   sweeps every endpoint per op, collapsing past its knee (§3.5.4's
//!   "overloads beyond 6 functions").
//! * **Comch-E** is event-driven: no pinned cores, endpoint-count-
//!   independent DNE cost — the practical choice Palladium ships.

use palladium_ipc::{ChannelCosts, ChannelKind, ComchServer};
use palladium_membuf::{BufDesc, FnId, PoolId, TenantId};
use palladium_simnet::{Effects, Engine, FifoServer, Harness, Nanos, RunStats};

use super::LoadReport;

/// Configuration of one Fig 9 run.
#[derive(Clone, Copy, Debug)]
pub struct ChannelSimConfig {
    /// The channel flavour under test.
    pub kind: ChannelKind,
    /// Number of host functions issuing echoes.
    pub functions: usize,
    /// Measurement window.
    pub duration: Nanos,
    /// Warm-up excluded from statistics.
    pub warmup: Nanos,
}

impl ChannelSimConfig {
    /// The paper's configuration for `kind` with `functions` echoers.
    pub fn new(kind: ChannelKind, functions: usize) -> Self {
        ChannelSimConfig {
            kind,
            functions,
            duration: Nanos::from_millis(120),
            warmup: Nanos::from_millis(20),
        }
    }
}

/// Host cores available to functions (testbed: 2 × 40).
const HOST_CORES: usize = 80;

#[derive(Debug)]
enum Ev {
    /// Function issues an echo (kick-off and closed-loop re-issue).
    Issue { f: usize },
    /// Function finished its send-side work; descriptor heads to the DNE.
    SentToDne { f: usize },
    /// DNE finished processing (receive + reply); reply heads to the host.
    DneReplied { f: usize },
    /// Function received the reply; echo complete.
    EchoDone { f: usize, issued: Nanos },
}

/// The driver's state machine: channel registry, host cores, DNE core.
struct ChannelEngine {
    costs: ChannelCosts,
    comch: ComchServer,
    dne_op: Nanos,
    fn_cores: Vec<FifoServer>,
    dne_core: FifoServer,
    issued_at: Vec<Nanos>,
    stats: RunStats,
}

impl ChannelEngine {
    fn desc(&self, f: usize) -> BufDesc {
        BufDesc {
            tenant: TenantId(1),
            pool: PoolId(0),
            buf_idx: f as u32,
            len: 16,
            src_fn: FnId(f as u16),
            dst_fn: FnId(0),
        }
    }

    /// Charge the host-side send and put the descriptor on the wire.
    fn issue(&mut self, now: Nanos, f: usize, fx: &mut Effects<'_, Ev>) {
        self.issued_at[f] = now;
        let done = self.fn_cores[f % HOST_CORES].submit(now, self.costs.host.send);
        self.comch
            .host_send(FnId(f as u16), self.desc(f))
            .expect("endpoint connected");
        fx.at(done + self.costs.host.transit, Ev::SentToDne { f });
    }
}

impl Engine for ChannelEngine {
    type Ev = Ev;

    fn on_event(&mut self, now: Nanos, ev: Ev, fx: &mut Effects<'_, Ev>) {
        match ev {
            Ev::Issue { f } => self.issue(now, f, fx),
            Ev::SentToDne { f } => {
                // The DNE's run-to-completion loop: drain the endpoint,
                // process, reply. One descriptor in, one out: 2 ops.
                let drained = self.comch.dne_recv(FnId(f as u16), 1);
                debug_assert_eq!(drained.len(), 1);
                let done = self.dne_core.submit(now, self.dne_op + self.dne_op);
                self.comch
                    .dne_send(FnId(f as u16), self.desc(f))
                    .expect("endpoint connected");
                fx.at(done + self.costs.host.transit, Ev::DneReplied { f });
            }
            Ev::DneReplied { f } => {
                let drained = self.comch.host_recv(FnId(f as u16), 1);
                debug_assert_eq!(drained.len(), 1);
                let done = self.fn_cores[f % HOST_CORES].submit(now, self.costs.host.recv);
                fx.at(
                    done,
                    Ev::EchoDone {
                        f,
                        issued: self.issued_at[f],
                    },
                );
            }
            Ev::EchoDone { f, issued } => {
                self.stats.complete(now, issued);
                // Closed loop: immediately issue the next echo.
                self.issue(now, f, fx);
            }
        }
    }
}

/// The Fig 9 simulation.
pub struct ChannelSim {
    cfg: ChannelSimConfig,
}

impl ChannelSim {
    /// Build the simulation.
    pub fn new(cfg: ChannelSimConfig) -> Self {
        ChannelSim { cfg }
    }

    /// Run to completion; returns the aggregate report.
    pub fn run(&self) -> LoadReport {
        let cfg = self.cfg;
        let costs = ChannelCosts::for_kind(cfg.kind);

        // Real channel state: endpoint registry + queues.
        let mut comch = ComchServer::new(cfg.kind);
        // Active functions: Comch-P pins one host core per function.
        let active = if costs.pins_host_core {
            cfg.functions.min(HOST_CORES)
        } else {
            cfg.functions
        };
        for f in 0..cfg.functions {
            comch.connect(FnId(f as u16), TenantId(1));
        }
        let endpoints = comch.connected_endpoints();

        let mut engine = ChannelEngine {
            dne_op: costs.dne_cpu(endpoints),
            costs,
            comch,
            // Host cores: polling functions own a core; event-driven
            // functions share the bank (pinned round-robin).
            fn_cores: vec![FifoServer::new(); HOST_CORES],
            dne_core: FifoServer::new(),
            issued_at: vec![Nanos::ZERO; active],
            stats: RunStats::new(cfg.warmup),
        };

        let mut harness: Harness<Ev> = Harness::new();
        for f in 0..active {
            harness.schedule_at(Nanos::ZERO, Ev::Issue { f });
        }
        harness.run(&mut engine, cfg.warmup + cfg.duration);

        engine.stats.report(cfg.duration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(kind: ChannelKind, functions: usize) -> LoadReport {
        ChannelSim::new(ChannelSimConfig::new(kind, functions)).run()
    }

    #[test]
    fn comch_p_collapses_beyond_its_knee() {
        // §3.5.4: Comch-P "overloads beyond 6 functions".
        let at4 = run(ChannelKind::ComchP, 4);
        let at40 = run(ChannelKind::ComchP, 40);
        assert!(
            at40.rps < at4.rps,
            "Comch-P must degrade: {} vs {}",
            at40.rps,
            at4.rps
        );
        // Comch-E keeps scaling over the same range.
        let e4 = run(ChannelKind::ComchE, 4);
        let e40 = run(ChannelKind::ComchE, 40);
        assert!(e40.rps >= e4.rps * 0.9, "Comch-E stays stable");
    }

    #[test]
    fn comch_e_beats_tcp_at_scale() {
        let e = run(ChannelKind::ComchE, 40);
        let t = run(ChannelKind::Tcp, 40);
        let ratio = e.rps / t.rps;
        assert!(
            ratio > 2.0,
            "Comch-E vs TCP RPS at 40 fns: {:.0} vs {:.0}",
            e.rps,
            t.rps
        );
        assert!(t.mean_latency > e.mean_latency);
    }

    #[test]
    fn deterministic_runs() {
        let a = run(ChannelKind::ComchE, 20);
        let b = run(ChannelKind::ComchE, 20);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.mean_latency, b.mean_latency);
    }
}
