//! The cluster-wide cost model: every remaining service-time constant the
//! drivers charge, in one place, each row traceable to a paper statement
//! (the field docs cite the section).
//!
//! Substrate-specific constants live with their substrates
//! (`palladium_rdma::RdmaConfig`, `palladium_ipc::costs`,
//! `palladium_tcpstack::stack`); this module holds the engine-, function-
//! and client-level knobs plus derived helpers.

// A cost-model funnel: a bare truncating cast here corrupts virtual time,
// so conversions saturate (`Nanos::from_f64_saturating`, checked ops).
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)
)]

use palladium_dpu::SocSpec;
use palladium_simnet::{ByteCost, Nanos};

/// Where a network engine runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineLocation {
    /// On the DPU's ARM cores — the DNE. Op costs scale by the wimpy
    /// factor, but the run-to-completion loop takes no per-message
    /// interrupt hit (it busy-polls Comch and the CQ).
    Dpu,
    /// On a host core — the CNE ablation (§4.3). Host-speed ops, but
    /// SK_MSG's interrupt-driven delivery charges a per-message wake and
    /// degrades under high concurrency (receive-livelock pressure \[68\]).
    Cpu,
}

/// Engine and workload cost model.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// DPU spec (clock ratio → wimpy factor).
    pub soc: SocSpec,
    /// Engine TX stage, host-core time: dequeue descriptor, route lookup,
    /// least-congested select, build + post WR (§3.2).
    pub engine_tx: Nanos,
    /// Engine RX stage, host-core time: poll CQE, RBR lookup, forward
    /// descriptor (§3.2).
    pub engine_rx: Nanos,
    /// Core-thread work per replenished receive buffer (alloc + post).
    pub engine_replenish: Nanos,
    /// Per-message interrupt cost on a CPU-located engine (SK_MSG wake).
    pub cne_interrupt: Nanos,
    /// Queue-depth-dependent slowdown per queued message for interrupt-
    /// driven receivers (receive-livelock model): effective service =
    /// base + livelock_slope × backlog.
    pub cne_livelock_slope: Nanos,
    /// Interrupt-driven kernel ingress livelock slope (much steeper; drives
    /// the K-Ingress collapse in Fig 14 and NightCore's overload).
    pub kernel_livelock_slope: Nanos,
    /// Backlog threshold below which no livelock penalty applies.
    pub livelock_threshold: u64,
    /// Client ↔ ingress one-way latency over the external Ethernet side
    /// (client stack + switch).
    pub client_wire: Nanos,
    /// Receiver-side polling interval for one-sided designs (FUYAO-style
    /// receivers poll memory for arrivals; adds half an interval on
    /// average — we charge the deterministic mean).
    pub onesided_poll_interval: Nanos,
    /// Receiver-side copy rate for OWRC designs (fixed-point ns/byte) when
    /// the copy hits cache (OWRC-Best, §4.1.2).
    pub copy_per_byte_hot: ByteCost,
    /// ... and when it goes to main memory (OWRC-Worst).
    pub copy_per_byte_cold: ByteCost,
    /// Distributed-lock round trips for OWDL: lock request + grant (one
    /// fabric RTT) plus lock-manager processing per side.
    pub owdl_lock_proc: Nanos,
    /// FUYAO-style engine cost per message (host time): ring polling scan,
    /// slot/credit management and descriptor bookkeeping in its userspace
    /// engine. Calibrated so FUYAO saturates where the paper's Table 2
    /// shows it already saturated at 20 clients.
    pub fuyao_engine_op: Nanos,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            soc: SocSpec::default(),
            engine_tx: Nanos::from_nanos(700),
            engine_rx: Nanos::from_nanos(700),
            engine_replenish: Nanos::from_nanos(250),
            cne_interrupt: Nanos::from_nanos(1_200),
            cne_livelock_slope: Nanos::from_nanos(25),
            kernel_livelock_slope: Nanos::from_nanos(1_800),
            livelock_threshold: 2,
            client_wire: Nanos::from_micros(20),
            onesided_poll_interval: Nanos::from_micros(2),
            copy_per_byte_hot: ByteCost::per_byte_ns(0.12),
            copy_per_byte_cold: ByteCost::per_byte_ns(0.25),
            owdl_lock_proc: Nanos::from_micros(1),
            fuyao_engine_op: Nanos::from_nanos(5_000),
        }
    }
}

impl CostModel {
    /// Engine TX-stage service time at the given location.
    pub fn engine_tx_at(&self, loc: EngineLocation) -> Nanos {
        match loc {
            EngineLocation::Dpu => self.soc.scale(self.engine_tx),
            EngineLocation::Cpu => self.engine_tx,
        }
    }

    /// Engine RX-stage service time at the given location.
    pub fn engine_rx_at(&self, loc: EngineLocation) -> Nanos {
        match loc {
            EngineLocation::Dpu => self.soc.scale(self.engine_rx),
            EngineLocation::Cpu => self.engine_rx,
        }
    }

    /// Extra per-message cost on a CPU engine: the SK_MSG interrupt plus
    /// the livelock slope applied to the current backlog.
    pub fn cne_overhead(&self, backlog: u64) -> Nanos {
        let over = backlog.saturating_sub(self.livelock_threshold);
        self.cne_interrupt + self.cne_livelock_slope * over
    }

    /// Kernel-stack livelock inflation for an interrupt-driven server with
    /// the given backlog (charged on top of base service).
    pub fn kernel_livelock(&self, backlog: u64) -> Nanos {
        let over = backlog.saturating_sub(self.livelock_threshold);
        self.kernel_livelock_slope * over
    }

    /// OWRC receiver-side copy cost for `bytes`.
    pub fn owrc_copy(&self, bytes: u64, cold: bool) -> Nanos {
        let rate = if cold {
            self.copy_per_byte_cold
        } else {
            self.copy_per_byte_hot
        };
        rate.cost(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dpu_ops_scale_by_wimpy_factor() {
        let m = CostModel::default();
        let cpu = m.engine_tx_at(EngineLocation::Cpu);
        let dpu = m.engine_tx_at(EngineLocation::Dpu);
        let ratio = dpu.as_nanos() as f64 / cpu.as_nanos() as f64;
        assert!((2.1..2.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn cne_overhead_grows_with_backlog() {
        let m = CostModel::default();
        let idle = m.cne_overhead(0);
        let busy = m.cne_overhead(30);
        assert_eq!(idle, m.cne_interrupt);
        assert!(busy > idle + Nanos::from_nanos(500));
        // At low load the CPU engine is cheaper per op than the DPU engine
        // (paper: CNE slightly better latency under 20 clients)...
        let cne_total = m.engine_rx_at(EngineLocation::Cpu) + m.cne_overhead(1);
        let dne_total = m.engine_rx_at(EngineLocation::Dpu);
        assert!(cne_total < dne_total + Nanos::from_micros(1));
        // ...but at high backlog the DNE wins (the >20-client crossover).
        let cne_loaded = m.engine_rx_at(EngineLocation::Cpu) + m.cne_overhead(30);
        assert!(cne_loaded > dne_total);
    }

    #[test]
    fn kernel_livelock_is_steep() {
        let m = CostModel::default();
        assert_eq!(m.kernel_livelock(m.livelock_threshold), Nanos::ZERO);
        assert!(m.kernel_livelock(22) >= Nanos::from_micros(30));
    }

    #[test]
    fn owrc_copy_rates() {
        let m = CostModel::default();
        let hot = m.owrc_copy(4096, false);
        let cold = m.owrc_copy(4096, true);
        assert!(cold > hot);
        // 4 KB cold ≈ 1 µs — the OWRC-Worst vs Best gap at 4 KB (§4.1.2).
        assert!((cold - hot) >= Nanos::from_nanos(400));
    }
}
