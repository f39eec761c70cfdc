//! The cluster-wide cost model: every remaining service-time constant the
//! drivers charge, in one place, each row traceable to a paper statement
//! (the field docs cite the section).
//!
//! Substrate-specific constants live with their substrates
//! (`palladium_rdma::RdmaConfig`, `palladium_ipc::costs`,
//! `palladium_tcpstack::stack`); this module holds the engine-, function-
//! and client-level knobs. What an op of one system costs — these
//! constants specialised to its data plane and engine location — is
//! resolved once, in [`crate::price`].

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
    /// SK_MSG's interrupt-driven delivery charges a fixed per-message wake
    /// (`CostModel::cne_interrupt`) on top of each.
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
    /// NightCore's per-hop gateway dispatch (host time): every
    /// function-to-function hop of a NightCore chain passes through its
    /// node's host engine once before delivery. Fitted to Table 2's
    /// NightCore Home means (ledger rows `table2.home_nightcore_ms_{20,60,80}`);
    /// held out: Fig 16's DNE ÷ NightCore band (`fig16.dne_over_nightcore`)
    /// and Table 2's NightCore ViewCart and Product cells.
    pub nightcore_dispatch: Nanos,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            soc: SocSpec::default(),
            engine_tx: Nanos::from_nanos(700),
            engine_rx: Nanos::from_nanos(700),
            engine_replenish: Nanos::from_nanos(250),
            cne_interrupt: Nanos::from_nanos(1_200),
            client_wire: Nanos::from_micros(20),
            onesided_poll_interval: Nanos::from_micros(2),
            copy_per_byte_hot: ByteCost::per_byte_ns(0.12),
            copy_per_byte_cold: ByteCost::per_byte_ns(0.25),
            owdl_lock_proc: Nanos::from_micros(1),
            fuyao_engine_op: Nanos::from_nanos(5_000),
            nightcore_dispatch: Nanos::from_micros(43),
        }
    }
}

impl CostModel {
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
    fn owrc_copy_rates() {
        let m = CostModel::default();
        let hot = m.owrc_copy(4096, false);
        let cold = m.owrc_copy(4096, true);
        assert!(cold > hot);
        // 4 KB cold ≈ 1 µs — the OWRC-Worst vs Best gap at 4 KB (§4.1.2).
        assert!((cold - hot) >= Nanos::from_nanos(400));
    }
}
