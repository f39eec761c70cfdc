//! Timing and protocol configuration for the simulated RDMA substrate.
//!
//! Every constant is calibrated against a number the paper reports (named,
//! with its section, in the field's docs). Changing these shifts absolute
//! results but not the *shapes* the reproduction asserts (who wins, by what
//! factor).

use palladium_simnet::{ByteCost, Nanos};

/// RDMA substrate configuration.
#[derive(Clone, Copy, Debug)]
pub struct RdmaConfig {
    /// Fabric line rate. Testbed: 200 Gbps switches (§4).
    pub link_gbps: f64,
    /// One-way propagation through NIC serdes + switch + cable.
    pub propagation: Nanos,
    /// Per-message RNIC TX pipeline cost (WQE fetch, doorbell processing,
    /// DMA read setup).
    pub tx_pipeline: Nanos,
    /// Per-message RNIC RX pipeline cost (packet steering, DMA write setup,
    /// CQE generation).
    pub rx_pipeline: Nanos,
    /// Extra per-byte cost (PCIe DMA + memory) applied on each traversal
    /// direction, as a precomputed fixed-point Q32.32 ns/byte multiplier
    /// (charged on every received data frame — integer math only on that
    /// path). Calibrated so a 4 KB two-sided echo lands at ≈11.6 µs vs
    /// ≈8.4 µs for 64 B (§4.1.2).
    pub per_byte: ByteCost,
    /// Cost from posting a WR to the NIC observing it (doorbell + WQE DMA).
    pub doorbell: Nanos,
    /// Per-message RoCE header bytes on the wire.
    pub header_bytes: u64,
    /// ACK/NAK frame size on the wire.
    pub ack_bytes: u64,
    /// Per-QP send window (max unacked messages in flight).
    pub send_window: u32,
    /// Retransmission timeout for the oldest unacked message.
    pub rto: Nanos,
    /// Delay before a sender retries after an RNR NAK (receiver not ready).
    pub rnr_retry_delay: Nanos,
    /// Max RNR retries before the QP errors out.
    pub rnr_retry_limit: u32,
    /// Max (timeout or NAK-triggered) retransmissions of one message.
    pub retry_limit: u32,
    /// QP contexts the RNIC cache holds before thrashing (§3.3 motivates
    /// capping active QPs to avoid exactly this).
    pub qp_cache_capacity: u32,
    /// Extra per-op penalty once active QPs exceed the cache.
    pub qp_cache_miss_penalty: Nanos,
    /// MTT entries the RNIC translation cache holds; hugepages keep real
    /// deployments far below this (§3.4).
    pub mtt_cache_entries: u64,
    /// Extra per-op penalty when registered MTT entries exceed the cache.
    pub mtt_miss_penalty: Nanos,
}

impl Default for RdmaConfig {
    fn default() -> Self {
        RdmaConfig {
            link_gbps: 200.0,
            propagation: Nanos::from_nanos(500),
            tx_pipeline: Nanos::from_nanos(800),
            rx_pipeline: Nanos::from_nanos(900),
            per_byte: ByteCost::per_byte_ns(0.35),
            doorbell: Nanos::from_nanos(900),
            header_bytes: 40,
            ack_bytes: 64,
            send_window: 16,
            rto: Nanos::from_micros(500),
            rnr_retry_delay: Nanos::from_micros(100),
            rnr_retry_limit: 7,
            retry_limit: 7,
            qp_cache_capacity: 256,
            qp_cache_miss_penalty: Nanos::from_nanos(600),
            mtt_cache_entries: 64 * 1024,
            mtt_miss_penalty: Nanos::from_nanos(250),
        }
    }
}

impl RdmaConfig {
    /// One-way message latency for `bytes` of payload, excluding queueing
    /// and cache penalties: doorbell + TX pipeline + serialization +
    /// propagation + RX pipeline + per-byte DMA cost.
    pub fn one_way(&self, bytes: u64) -> Nanos {
        let wire = palladium_simnet::wire_time(bytes + self.header_bytes, self.link_gbps);
        self.doorbell + self.tx_pipeline + wire + self.propagation + self.rx_pipeline
            + self.per_byte.cost(bytes)
    }

    /// The fabric's conservative **lookahead** bound: the minimum delay
    /// between posting a work request on one node and the earliest
    /// instant any other node can observe an effect. This is the
    /// size-independent part of [`RdmaConfig::one_way`] — doorbell + TX
    /// pipeline + propagation + RX pipeline; serialization and per-byte
    /// DMA only add to it. The sharded simulation runner
    /// (`palladium_simnet::shard`) sizes its window barriers to this
    /// bound, so it must lower-bound *every* cross-node delay the fabric
    /// can produce (pinned by `lookahead_lower_bounds_one_way`).
    pub fn lookahead(&self) -> Nanos {
        self.doorbell + self.tx_pipeline + self.propagation + self.rx_pipeline
    }

    /// The *frame-level* conservative lookahead: the minimum delay between
    /// a frame entering the fabric on one node ([`RdmaNet::transmit`]) and
    /// its arrival at any other node. Tighter than [`RdmaConfig::lookahead`]
    /// because control frames (ACK/NAK) bypass the doorbell and TX/RX
    /// pipelines: their egress service floor is the 150 ns control cost
    /// plus ACK-frame serialization, followed by propagation. A sharded
    /// run that ships raw fabric frames between shards (the sharded
    /// cluster driver) must size its windows to *this* bound, not the
    /// WR-level one (pinned by `frame_lookahead_lower_bounds_transmit`).
    ///
    /// [`RdmaNet::transmit`]: crate::net::RdmaNet
    pub fn frame_lookahead(&self) -> Nanos {
        Nanos::from_nanos(150)
            + palladium_simnet::wire_time(self.ack_bytes, self.link_gbps)
            + self.propagation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_way_calibration_small() {
        let c = RdmaConfig::default();
        // 64 B one-way should be ≈3.1-3.3 µs so that the two-sided echo RTT
        // (plus ~1 µs engine per side) lands near the paper's 8.4 µs.
        let t = c.one_way(64);
        assert!(
            t >= Nanos::from_nanos(3_000) && t <= Nanos::from_nanos(3_400),
            "one-way 64B = {t}"
        );
    }

    #[test]
    fn one_way_calibration_4k() {
        let c = RdmaConfig::default();
        // 4 KB adds ≈1.6 µs over 64 B (paper: 11.6 µs vs 8.4 µs RTT).
        let delta = c.one_way(4096) - c.one_way(64);
        assert!(
            delta >= Nanos::from_nanos(1_300) && delta <= Nanos::from_nanos(1_900),
            "4K-64B delta = {delta}"
        );
    }

    #[test]
    fn lookahead_lower_bounds_one_way() {
        let c = RdmaConfig::default();
        assert!(!c.lookahead().is_zero(), "zero lookahead forbids sharding");
        for bytes in [0u64, 1, 64, 4096, 1 << 20] {
            assert!(
                c.lookahead() <= c.one_way(bytes),
                "lookahead {} must lower-bound one_way({bytes}) = {}",
                c.lookahead(),
                c.one_way(bytes)
            );
        }
    }

    #[test]
    fn frame_lookahead_lower_bounds_transmit() {
        // `RdmaNet::transmit` charges, per frame, at least:
        //   control: 150 ns + wire(ack_bytes)            + propagation
        //   data:    tx_pipeline + wire(header_bytes+)   + propagation
        // The frame lookahead is the control floor and must lower-bound
        // both (data frames: tx_pipeline(800) alone exceeds the ~652 ns
        // control floor at the default calibration).
        let c = RdmaConfig::default();
        let wire = |b| palladium_simnet::wire_time(b, c.link_gbps);
        let control_floor = Nanos::from_nanos(150) + wire(c.ack_bytes) + c.propagation;
        let data_floor = c.tx_pipeline + wire(c.header_bytes) + c.propagation;
        assert_eq!(c.frame_lookahead(), control_floor);
        assert!(c.frame_lookahead() <= data_floor, "data frames are never faster");
        assert!(c.frame_lookahead() <= c.lookahead(), "frame bound is the tighter one");
        assert!(!c.frame_lookahead().is_zero(), "zero lookahead forbids sharding");
    }

    #[test]
    fn defaults_are_sane() {
        let c = RdmaConfig::default();
        assert!(c.send_window >= 1);
        assert!(c.rto > c.one_way(8192) * 2, "RTO must exceed an RTT");
        assert_eq!(c.link_gbps, 200.0);
    }
}
