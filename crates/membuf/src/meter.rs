//! Copy accounting — the proof obligation behind "zero-copy".
//!
//! The paper defines zero-copy as the elimination of *software* data copies
//! while still allowing hardware DMA/RDMA moves (§1, footnote 1). Every data
//! movement in the reproduction is routed through a [`CopyMeter`] so tests
//! and benches can assert that Palladium paths perform exactly zero software
//! copies while baselines (e.g. FUYAO's receiver-side copy, cross-tenant
//! hand-offs) pay for theirs.

/// Classification of a data movement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MoveKind {
    /// CPU `memcpy` in software — what zero-copy designs must avoid.
    Software,
    /// The RNIC's DMA engine moving data to/from host memory (line rate).
    RnicDma,
    /// The DPU SoC's DMA engine (the slow one, §4.1.1).
    SocDma,
}

/// Aggregated copy statistics for one simulation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CopyMeter {
    /// Bytes moved by software memcpy.
    pub sw_bytes: u64,
    /// Number of software copy operations.
    pub sw_ops: u64,
    /// Bytes moved by the RNIC DMA engine.
    pub rnic_dma_bytes: u64,
    /// RNIC DMA operations.
    pub rnic_dma_ops: u64,
    /// Bytes moved by the SoC DMA engine.
    pub soc_dma_bytes: u64,
    /// SoC DMA operations.
    pub soc_dma_ops: u64,
}

impl CopyMeter {
    /// A fresh meter with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a data movement of `bytes` of the given kind.
    pub fn record(&mut self, kind: MoveKind, bytes: u64) {
        match kind {
            MoveKind::Software => {
                self.sw_bytes += bytes;
                self.sw_ops += 1;
            }
            MoveKind::RnicDma => {
                self.rnic_dma_bytes += bytes;
                self.rnic_dma_ops += 1;
            }
            MoveKind::SocDma => {
                self.soc_dma_bytes += bytes;
                self.soc_dma_ops += 1;
            }
        }
    }

    /// Merge another meter into this one (e.g. per-node meters into a
    /// cluster-wide report).
    pub fn merge(&mut self, other: &CopyMeter) {
        self.sw_bytes += other.sw_bytes;
        self.sw_ops += other.sw_ops;
        self.rnic_dma_bytes += other.rnic_dma_bytes;
        self.rnic_dma_ops += other.rnic_dma_ops;
        self.soc_dma_bytes += other.soc_dma_bytes;
        self.soc_dma_ops += other.soc_dma_ops;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_by_kind() {
        let mut m = CopyMeter::new();
        m.record(MoveKind::Software, 100);
        m.record(MoveKind::Software, 50);
        m.record(MoveKind::RnicDma, 4096);
        m.record(MoveKind::SocDma, 64);
        assert_eq!(m.sw_bytes, 150);
        assert_eq!(m.sw_ops, 2);
        assert_eq!(m.rnic_dma_bytes, 4096);
        assert_eq!(m.rnic_dma_ops, 1);
        assert_eq!(m.soc_dma_bytes, 64);
        assert_eq!(m.soc_dma_ops, 1);
    }

    #[test]
    fn zero_copy_means_no_software_ops() {
        let mut m = CopyMeter::new();
        m.record(MoveKind::RnicDma, 1 << 20); // hardware DMA is fine
        assert_eq!(m.sw_ops, 0);
        m.record(MoveKind::Software, 1);
        assert_eq!(m.sw_ops, 1);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CopyMeter::new();
        a.record(MoveKind::Software, 10);
        let mut b = CopyMeter::new();
        b.record(MoveKind::Software, 5);
        b.record(MoveKind::SocDma, 7);
        a.merge(&b);
        assert_eq!(a.sw_bytes, 15);
        assert_eq!(a.sw_ops, 2);
        assert_eq!(a.soc_dma_bytes, 7);
    }
}
