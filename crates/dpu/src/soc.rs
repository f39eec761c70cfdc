//! The DPU SoC: wimpy ARM cores.
//!
//! The Bluefield-2's Armv8 A72 cores run at 2.0 GHz against the testbed
//! host's 3.7 GHz x86 cores (§4.3.1). Protocol work costs proportionally
//! more DPU-core time; the paper's headline is that careful engine design
//! (run-to-completion, cross-processor shared memory, two-sided RDMA) makes
//! the wimpy cores sufficient anyway.

use palladium_simnet::Nanos;

/// Static description of a DPU's processing complex.
#[derive(Clone, Copy, Debug)]
pub struct SocSpec {
    /// Number of ARM cores (Bluefield-2: 8).
    pub cores: usize,
    /// ARM core clock in GHz.
    pub dpu_ghz: f64,
    /// Host core clock in GHz (for the service-time ratio).
    pub host_ghz: f64,
    /// Extra architectural penalty for protocol work beyond the clock ratio
    /// (cache sizes, issue width). 1.0 = clock-only scaling.
    pub arch_penalty: f64,
}

impl Default for SocSpec {
    fn default() -> Self {
        SocSpec {
            cores: 8,
            dpu_ghz: 2.0,
            host_ghz: 3.7,
            arch_penalty: 1.2,
        }
    }
}

impl SocSpec {
    /// Multiplier from host-core service time to DPU-core service time.
    /// Default ≈ 2.2 (3.7/2.0 × 1.2).
    pub fn wimpy_factor(&self) -> f64 {
        (self.host_ghz / self.dpu_ghz) * self.arch_penalty
    }

    /// Scale a host-core cost onto a DPU core.
    pub fn scale(&self, host_cost: Nanos) -> Nanos {
        host_cost.scale(self.wimpy_factor())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wimpy_factor_default() {
        let s = SocSpec::default();
        let f = s.wimpy_factor();
        assert!((2.1..2.3).contains(&f), "wimpy factor {f}");
    }

    #[test]
    fn scaling_host_costs() {
        let s = SocSpec::default();
        let host = Nanos::from_micros(1);
        let dpu = s.scale(host);
        assert!(dpu > Nanos::from_nanos(2_100) && dpu < Nanos::from_nanos(2_300));
    }

    #[test]
    fn clock_only_scaling() {
        let s = SocSpec {
            arch_penalty: 1.0,
            ..Default::default()
        };
        assert!((s.wimpy_factor() - 1.85).abs() < 1e-9);
    }
}
