//! The SoC DMA engine — the slow one.
//!
//! On-path DPU offloading must move every payload between host memory and
//! DPU-local buffers through the SoC's own DMA engine, which the paper finds
//! "unfortunately very slow" (§2.1 Challenge#2): a 64 B read costs ≈2.6 µs
//! \[90\], and the engine saturates under concurrency, degrading the on-path
//! data path by up to 1.33–1.54×. The off-path design (cross-processor
//! shared memory + RNIC DMA) exists to avoid this device entirely.
//!
//! Like real DMA engines, latency and occupancy differ: a single transfer
//! *completes* after `per_op_latency`, but the engine can *issue* a new
//! operation every `issue_gap` (pipelining) — until the byte rate saturates
//! its modest bandwidth. Fig 11's on-path echo pays the latency, but the
//! occupancy of its two ops per node (1.3 µs at 1 KB) sits under the
//! 1.5 µs each node's function core takes, so both modes saturate the
//! function core: that demand is the lever for "up to +30 %" (ROADMAP 23).

use palladium_simnet::{FifoServer, Nanos};

/// Cost model of the SoC DMA engine.
#[derive(Clone, Copy, Debug)]
pub struct SocDmaSpec {
    /// End-to-end latency of one DMA *read* (host → DPU; doorbell →
    /// completion).
    pub per_op_latency: Nanos,
    /// End-to-end latency of one DMA *write* (DPU → host) — cheaper than
    /// reads on Bluefield-2 \[90\].
    pub per_op_write_latency: Nanos,
    /// Minimum spacing between operation issues (pipeline occupancy).
    pub issue_gap: Nanos,
    /// Sustained copy bandwidth in Gbit/s — far below the RNIC's line rate.
    pub bandwidth_gbps: f64,
}

impl Default for SocDmaSpec {
    fn default() -> Self {
        SocDmaSpec {
            // 64 B read ≈ 2.6 µs (§4.1.1 / \[90\]); dominated by setup.
            per_op_latency: Nanos::from_nanos(2_550),
            per_op_write_latency: Nanos::from_nanos(1_700),
            // Pipelined issue: ≈1.5 M ops/s before byte limits.
            issue_gap: Nanos::from_nanos(650),
            // Slow engine: ~25 Gbit/s effective.
            bandwidth_gbps: 25.0,
        }
    }
}

impl SocDmaSpec {
    /// Engine occupancy of one transfer of `bytes` (what limits
    /// throughput).
    pub fn occupancy(&self, bytes: u64) -> Nanos {
        self.issue_gap
            .max(palladium_simnet::wire_time(bytes, self.bandwidth_gbps))
    }

    /// Unloaded completion latency of one *read* of `bytes`.
    pub fn latency(&self, bytes: u64) -> Nanos {
        self.per_op_latency + palladium_simnet::wire_time(bytes, self.bandwidth_gbps)
    }

    /// Unloaded completion latency of one *write* of `bytes`.
    pub fn write_latency(&self, bytes: u64) -> Nanos {
        self.per_op_write_latency + palladium_simnet::wire_time(bytes, self.bandwidth_gbps)
    }
}

/// The engine itself: a single serially-served channel, so concurrent
/// transfers contend — exactly the saturation §4.1.1 measures.
#[derive(Debug)]
pub struct SocDma {
    /// Cost model.
    pub spec: SocDmaSpec,
    /// The engine queue (tracks occupancy).
    pub engine: FifoServer,
}

impl SocDma {
    /// A SoC DMA engine with the given spec.
    pub fn new(spec: SocDmaSpec) -> Self {
        SocDma {
            spec,
            engine: FifoServer::new(),
        }
    }

    /// Submit a *read* transfer (host → DPU) of `bytes` at `now`; returns
    /// the completion time (queueing + occupancy + residual latency).
    pub fn transfer(&mut self, now: Nanos, bytes: u64) -> Nanos {
        self.run(now, bytes, self.spec.latency(bytes))
    }

    /// Submit a *write* transfer (DPU → host) of `bytes` at `now`.
    pub fn transfer_write(&mut self, now: Nanos, bytes: u64) -> Nanos {
        self.run(now, bytes, self.spec.write_latency(bytes))
    }

    fn run(&mut self, now: Nanos, bytes: u64, latency: Nanos) -> Nanos {
        let occupancy = self.spec.occupancy(bytes);
        let issued_done = self.engine.submit(now, occupancy);
        // The residual latency beyond occupancy is pipelined (not blocking
        // the next op).
        issued_done + (latency - occupancy.min(latency))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_read_costs_2_6us_unloaded() {
        let mut dma = SocDma::new(SocDmaSpec::default());
        let done = dma.transfer(Nanos::ZERO, 64);
        assert!(
            done >= Nanos::from_nanos(2_500) && done <= Nanos::from_nanos(2_700),
            "64B SoC DMA completion = {done}"
        );
    }

    #[test]
    fn large_transfers_pay_bandwidth() {
        let spec = SocDmaSpec::default();
        // 8 KB at 25 Gbps ≈ 2.6 µs of wire time on top of setup.
        assert!(spec.latency(8_192) > spec.latency(64) + Nanos::from_micros(2));
        assert!(spec.occupancy(8_192) > spec.occupancy(64));
        assert_eq!(spec.occupancy(64), spec.issue_gap, "small ops pipeline");
    }

    #[test]
    fn engine_pipelines_but_saturates() {
        let mut dma = SocDma::new(SocDmaSpec::default());
        // 10 concurrent small transfers: spaced by issue_gap, not by full
        // latency (pipelining)...
        let mut last = Nanos::ZERO;
        for _ in 0..10 {
            last = dma.transfer(Nanos::ZERO, 64);
        }
        let gap = dma.spec.issue_gap;
        let lat = dma.spec.latency(64);
        assert_eq!(last, gap * 10 + (lat - gap));
        // ...which is far better than serial latency, yet bounds
        // throughput at 1/issue_gap.
        assert!(last < lat * 10);
    }
}
