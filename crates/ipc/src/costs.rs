//! IPC cost models — the per-operation prices drivers charge to cores.
//!
//! All values are calibrated against the paper's comparative results
//! (Fig 9: Comch-P ≈ 8× faster than TCP at low concurrency but collapsing
//! past its knee; Comch-E 2.7–3.8× faster than TCP with stable scaling;
//! §4.3: SK_MSG's interrupt-driven receive throttling the CPU-resident CNE
//! at high concurrency). Where the model lands against each is ledger rows
//! `fig09.comch_p_over_tcp`, `fig09.comch_e_over_tcp` and
//! `fig16.dne_over_cne`.

// A cost-model funnel: a bare truncating cast here corrupts virtual time,
// so conversions saturate (`Nanos::from_f64_saturating`, checked ops).
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)
)]

use palladium_simnet::Nanos;

/// What one message costs to cross a channel: the sender's CPU, the
/// transit, and the receiver's CPU, each end charged on its own core.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Channel {
    /// Sender-side CPU to hand one message to the channel.
    pub send: Nanos,
    /// Latency from the send's completion to the receiver's wakeup.
    pub transit: Nanos,
    /// Receiver-side CPU to take one message (wakeup included).
    pub recv: Nanos,
}

impl Channel {
    /// The eBPF `SK_MSG` + sockmap descriptor hand-off between two
    /// processes of one host (§3.5.3): the `send()` syscall and the SK_MSG
    /// program, an in-kernel socket-to-socket redirect (protocol stack
    /// bypassed), and the receiver's softirq + epoll wake + `recv()`. The
    /// receive is the same at any message rate: §4.3 cites receive
    /// livelock \[68\] for this interrupt-driven path, but the model charges
    /// no rate-dependent term.
    pub const SK_MSG: Channel = Channel {
        send: Nanos::from_nanos(600),
        transit: Nanos::from_nanos(500),
        recv: Nanos::from_nanos(1_200),
    };
}

/// The cross-processor channel flavour between host functions and the DNE
/// (§3.5.4).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChannelKind {
    /// DOCA Comch event-driven variant: epoll-based send/receive, no pinned
    /// cores — what Palladium ships with.
    ComchE,
    /// DOCA Comch producer/consumer-ring variant with busy polling: lowest
    /// latency, but pins one host core per function and its DNE-side
    /// "Progress Engine" degrades with endpoint count (non-blocking
    /// `epoll_wait` per iteration over every endpoint).
    ComchP,
    /// Kernel TCP loopback over the PCIe netdev — the baseline.
    Tcp,
}

/// Cost model of one cross-processor channel flavour.
#[derive(Clone, Copy, Debug)]
pub struct ChannelCosts {
    /// The host side: a function's send and receive of one 16 B
    /// descriptor, and its PCIe transit.
    pub host: Channel,
    /// DPU-side base cost per descriptor (send or receive), on the wimpy
    /// core. Already expressed in DPU-core time (no further scaling).
    pub dne_cpu_base: Nanos,
    /// Additional DPU-side cost *per registered endpoint* paid on every
    /// operation — the Comch-P Progress-Engine pathology (§3.5.4): its
    /// "busy" polling runs a non-blocking `epoll_wait` across all endpoints.
    pub dne_cpu_per_endpoint: Nanos,
    /// Does the host side burn a dedicated core per function (busy poll)?
    pub pins_host_core: bool,
}

impl ChannelCosts {
    /// The calibrated cost table.
    pub fn for_kind(kind: ChannelKind) -> ChannelCosts {
        match kind {
            // Event-driven: epoll wake on the host (~1.3 µs), event-queue
            // handling through DOCA's progress engine on the wimpy core.
            // Unloaded RTT ≈ 8 µs; single-core DNE echo capacity ≈ 227 K/s.
            ChannelKind::ComchE => ChannelCosts {
                host: Channel {
                    send: Nanos::from_nanos(500),
                    transit: Nanos::from_nanos(900),
                    recv: Nanos::from_nanos(1_300),
                },
                dne_cpu_base: Nanos::from_nanos(2_200),
                dne_cpu_per_endpoint: Nanos::ZERO,
                pins_host_core: false,
            },
            // Busy-polled ring: near-zero host receive latency, but the DNE
            // pays per-endpoint epoll cost per op and each function pins a
            // host core. Unloaded RTT ≈ 3.6 µs (>8x under TCP, §3.5.4);
            // echo capacity ≈ 0.5 M/s at 1 endpoint, collapsing past ~6.
            ChannelKind::ComchP => ChannelCosts {
                host: Channel {
                    send: Nanos::from_nanos(200),
                    transit: Nanos::from_nanos(700),
                    recv: Nanos::from_nanos(100),
                },
                dne_cpu_base: Nanos::from_nanos(500),
                dne_cpu_per_endpoint: Nanos::from_nanos(450),
                pins_host_core: true,
            },
            // Kernel TCP: full protocol stack both sides; brutal on the
            // wimpy DPU core (§2.1 Challenge#2). Unloaded RTT ≈ 31 µs.
            ChannelKind::Tcp => ChannelCosts {
                host: Channel {
                    send: Nanos::from_nanos(3_500),
                    transit: Nanos::from_nanos(1_500),
                    recv: Nanos::from_nanos(4_500),
                },
                dne_cpu_base: Nanos::from_nanos(10_000),
                dne_cpu_per_endpoint: Nanos::ZERO,
                pins_host_core: false,
            },
        }
    }

    /// DNE-side per-descriptor CPU cost with `endpoints` functions attached.
    pub fn dne_cpu(&self, endpoints: usize) -> Nanos {
        self.dne_cpu_base + self.dne_cpu_per_endpoint * endpoints as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comch_p_degrades_with_endpoints() {
        let costs = ChannelCosts::for_kind(ChannelKind::ComchP);
        // Past the knee the per-endpoint epoll cost dominates: with dozens
        // of functions, per-op DNE cost multiplies.
        assert!(costs.dne_cpu(100) > costs.dne_cpu(1) * 10);
        // Comch-E is endpoint-count independent.
        let e = ChannelCosts::for_kind(ChannelKind::ComchE);
        assert_eq!(e.dne_cpu(100), e.dne_cpu(1));
    }

    #[test]
    fn only_comch_p_pins_cores() {
        assert!(ChannelCosts::for_kind(ChannelKind::ComchP).pins_host_core);
        assert!(!ChannelCosts::for_kind(ChannelKind::ComchE).pins_host_core);
        assert!(!ChannelCosts::for_kind(ChannelKind::Tcp).pins_host_core);
    }

    #[test]
    fn skmsg_one_way_is_microseconds() {
        let c = Channel::SK_MSG;
        let one_way = c.send + c.transit + c.recv;
        assert!(one_way >= Nanos::from_micros(2));
        assert!(one_way <= Nanos::from_micros(4));
    }
}
