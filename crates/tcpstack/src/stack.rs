//! TCP/IP stack cost models: the interrupt-driven kernel stack versus the
//! DPDK-based F-Stack.
//!
//! The ingress comparison of §4.1.3 (Fig 13/14) is a cost-structure
//! argument: a kernel-stack NGINX pays syscalls, softirqs and copies per
//! message; an F-Stack NGINX busy-polls the NIC from userspace and pays far
//! less per message but pins its core; Palladium's ingress keeps the cheap
//! client-facing F-Stack and replaces the entire *intra-cluster* TCP leg
//! with RDMA. Calibration targets the paper's single-core ingress results:
//! ≈250 K RPS (Palladium), ≈3.2× less for F-Ingress, ≈11.4× less for
//! K-Ingress.

// A cost-model funnel: a bare truncating cast here corrupts virtual time,
// so conversions saturate (`Nanos::from_f64_saturating`, checked ops).
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)
)]

use palladium_simnet::{ByteCost, Nanos};

/// Which TCP/IP stack a component runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StackKind {
    /// Interrupt-driven Linux kernel stack.
    Kernel,
    /// DPDK-based F-Stack: userspace, busy-polled.
    FStack,
}

/// Per-operation costs of one stack flavour.
#[derive(Clone, Copy, Debug)]
pub struct TcpCosts {
    /// Receive one message: NIC→stack→application bytes available.
    /// Kernel: interrupt + softirq + syscall + copy. F-Stack: PMD poll +
    /// userspace stack.
    pub per_msg_rx: Nanos,
    /// Transmit one message.
    pub per_msg_tx: Nanos,
    /// Extra per-byte cost (copies inside the stack), as a precomputed
    /// fixed-point Q32.32 ns/byte multiplier — the drivers charge this per
    /// simulated message, so the hot path must not touch f64.
    pub per_byte: ByteCost,
}

impl TcpCosts {
    /// One-way wire/switching delay of an intra-cluster TCP hop — the
    /// interval between a node engine finishing its transmit processing
    /// and the destination stack first seeing bytes. The cluster drivers
    /// charge exactly this constant on every inter-node TCP leg. It is
    /// also the TCP path's lookahead floor for the sharded runner: rx/tx
    /// processing and per-byte copies only add on top of it.
    pub const INTER_NODE_WIRE: Nanos = Nanos::from_micros(5);

    /// The calibrated cost table for a stack flavour.
    pub fn for_kind(kind: StackKind) -> TcpCosts {
        match kind {
            StackKind::Kernel => TcpCosts {
                per_msg_rx: Nanos::from_nanos(14_000),
                per_msg_tx: Nanos::from_nanos(9_000),
                per_byte: ByteCost::per_byte_ns(0.25),
            },
            StackKind::FStack => TcpCosts {
                per_msg_rx: Nanos::from_nanos(2_000),
                per_msg_tx: Nanos::from_nanos(1_200),
                per_byte: ByteCost::per_byte_ns(0.06),
            },
        }
    }

    /// Receive cost for a message of `bytes`.
    #[inline]
    pub fn rx(&self, bytes: u64) -> Nanos {
        self.per_msg_rx + self.per_byte.cost(bytes)
    }

    /// Transmit cost for a message of `bytes`.
    #[inline]
    pub fn tx(&self, bytes: u64) -> Nanos {
        self.per_msg_tx + self.per_byte.cost(bytes)
    }
}

/// HTTP-layer processing costs (on top of the TCP stack).
#[derive(Clone, Copy, Debug)]
pub struct HttpCosts {
    /// Parse a request or response head.
    pub parse: Nanos,
    /// Serialize a response or proxied request.
    pub serialize: Nanos,
    /// Reverse-proxy bookkeeping per request for *deferred* transport
    /// conversion (NGINX upstream module: buffering, header rewrite,
    /// upstream connection management). Palladium's early conversion
    /// replaces all of this with an RDMA post.
    pub proxy_overhead: Nanos,
}

impl Default for HttpCosts {
    fn default() -> Self {
        HttpCosts {
            parse: Nanos::from_nanos(800),
            serialize: Nanos::from_nanos(500),
            proxy_overhead: Nanos::from_nanos(7_300),
        }
    }
}

/// The ingress-side cost of bridging to RDMA (post a WR / reap a CQE) —
/// Palladium's replacement for the upstream TCP leg.
#[derive(Clone, Copy, Debug)]
pub struct RdmaBridgeCosts {
    /// Post one send WR.
    pub post: Nanos,
    /// Reap one completion.
    pub reap: Nanos,
}

impl Default for RdmaBridgeCosts {
    fn default() -> Self {
        RdmaBridgeCosts {
            post: Nanos::from_nanos(300),
            reap: Nanos::from_nanos(300),
        }
    }
}

/// The cost tables an ingress worker charges per leg (client-facing
/// stack, HTTP processing, RDMA bridge). `palladium_core::price` sums them
/// per design — the per-request service time the Fig 13 saturation
/// throughput follows is written there, once.
#[derive(Clone, Copy, Debug)]
pub struct IngressServiceModel {
    /// Client-facing stack.
    pub client_stack: TcpCosts,
    /// HTTP costs.
    pub http: HttpCosts,
    /// RDMA bridge costs (Palladium only).
    pub bridge: RdmaBridgeCosts,
}

impl IngressServiceModel {
    /// Model with the given client-facing stack.
    pub fn new(client_stack: StackKind) -> Self {
        IngressServiceModel {
            client_stack: TcpCosts::for_kind(client_stack),
            http: HttpCosts::default(),
            bridge: RdmaBridgeCosts::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookahead_is_the_wire_floor_for_both_stacks() {
        assert!(!TcpCosts::INTER_NODE_WIRE.is_zero(), "zero lookahead forbids sharding");
    }

    #[test]
    fn fstack_is_cheaper() {
        let k = TcpCosts::for_kind(StackKind::Kernel);
        let f = TcpCosts::for_kind(StackKind::FStack);
        assert!(f.per_msg_rx < k.per_msg_rx);
    }

    #[test]
    fn byte_costs_scale() {
        let f = TcpCosts::for_kind(StackKind::FStack);
        assert!(f.rx(100_000) > f.rx(64) + Nanos::from_micros(5));
        assert_eq!(f.rx(0), f.per_msg_rx);
    }

    #[test]
    fn fixed_point_matches_f64_reference() {
        // The Q32.32 tables must reproduce the seed's f64 cost math on the
        // message sizes the drivers actually charge (golden traces pin the
        // end-to-end consequence of this).
        for (kind, slope) in [(StackKind::Kernel, 0.25f64), (StackKind::FStack, 0.06)] {
            let c = TcpCosts::for_kind(kind);
            for bytes in [0u64, 64, 256, 320, 512, 576, 1024, 2048, 4096, 6144, 8192] {
                let byte_ns = Nanos((bytes as f64 * slope).round() as u64);
                assert_eq!(c.rx(bytes), c.per_msg_rx + byte_ns, "{kind:?} rx {bytes}");
                assert_eq!(c.tx(bytes), c.per_msg_tx + byte_ns, "{kind:?} tx {bytes}");
            }
        }
    }
}
