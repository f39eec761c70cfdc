//! System definitions: the six data planes of the §4.3 evaluation, each
//! an ingress design and a data plane — the two things the cluster engine
//! runs differently.

use palladium_tcpstack::StackKind;

use crate::config::EngineLocation;

/// Which serverless data plane a cluster runs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SystemKind {
    /// Palladium with the DPU-offloaded network engine.
    PalladiumDne,
    /// Palladium with the engine on a host CPU core (apples-to-apples
    /// DPU-offload ablation, §4.3).
    PalladiumCne,
    /// FUYAO with the F-Stack ingress (one-sided WRITE + receiver copy).
    FuyaoF,
    /// FUYAO with the kernel ingress.
    FuyaoK,
    /// SPRIGHT: intra-node shared memory, kernel TCP across nodes,
    /// F-Stack ingress.
    Spright,
    /// NightCore: single-node shared memory, built-in kernel ingress.
    NightCore,
}

impl SystemKind {
    /// Every system of the Fig 16 / Table 2 comparison, in paper order.
    pub const ALL: [SystemKind; 6] = [
        SystemKind::PalladiumDne,
        SystemKind::PalladiumCne,
        SystemKind::FuyaoF,
        SystemKind::FuyaoK,
        SystemKind::Spright,
        SystemKind::NightCore,
    ];

    /// Display name matching the paper's labels.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::PalladiumDne => "Palladium (DNE)",
            SystemKind::PalladiumCne => "Palladium (CNE)",
            SystemKind::FuyaoF => "FUYAO-F",
            SystemKind::FuyaoK => "FUYAO-K",
            SystemKind::Spright => "SPRIGHT",
            SystemKind::NightCore => "NightCore",
        }
    }

    /// What the cluster engine runs for this system. The only place a
    /// [`SystemSpec`] is built, so every spec is one of these six.
    pub(crate) fn spec(self) -> SystemSpec {
        let dne = |loc| DataPlane::Dne { loc };
        let (ingress, plane) = match self {
            SystemKind::PalladiumDne => (IngressKind::Palladium, dne(EngineLocation::Dpu)),
            SystemKind::PalladiumCne => (IngressKind::Palladium, dne(EngineLocation::Cpu)),
            SystemKind::FuyaoF => (IngressKind::FStackDeferred, DataPlane::Host(HostHop::OneSidedRecvCopy)),
            SystemKind::FuyaoK => (IngressKind::KernelDeferred, DataPlane::Host(HostHop::OneSidedRecvCopy)),
            SystemKind::Spright => (IngressKind::FStackDeferred, DataPlane::Host(HostHop::KernelTcp)),
            SystemKind::NightCore => (IngressKind::KernelDeferred, DataPlane::Host(HostHop::Local)),
        };
        SystemSpec { ingress, plane }
    }
}

/// How external HTTP traffic enters the cluster.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IngressKind {
    /// Early HTTP/TCP→RDMA conversion at the cluster edge (§3.6).
    Palladium,
    /// Deferred conversion, F-Stack proxy at the edge + TCP to workers.
    FStackDeferred,
    /// Deferred conversion, kernel-stack proxy (interrupt-driven).
    KernelDeferred,
}

impl IngressKind {
    /// The TCP stack this design runs: the gateway's client side, and on a
    /// deferred design also the workers' end of the second connection.
    pub(crate) fn stack(self) -> StackKind {
        match self {
            IngressKind::Palladium | IngressKind::FStackDeferred => StackKind::FStack,
            IngressKind::KernelDeferred => StackKind::Kernel,
        }
    }
}

/// What a system runs: its ingress design and its data plane.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SystemSpec {
    pub(crate) ingress: IngressKind,
    pub(crate) plane: DataPlane,
}

/// The path between a function's hand-off and the next function's delivery.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum DataPlane {
    /// Two-sided RDMA SEND/RECV through Palladium's network engine (§2.1),
    /// on the DPU (DNE) or on a host core (CNE).
    Dne { loc: EngineLocation },
    /// A baseline's node-local host engine.
    Host(HostHop),
}

/// How a baseline's host engine moves a hop to another node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum HostHop {
    /// One-sided WRITE into a slot of a dedicated registered region +
    /// receiver-side copy into the unified pool (FUYAO).
    OneSidedRecvCopy,
    /// Kernel TCP between node-local engines (SPRIGHT).
    KernelTcp,
    /// No inter-node path: every function of a pair runs on its first node
    /// (NightCore).
    Local,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(SystemKind::PalladiumDne.label(), "Palladium (DNE)");
        assert_eq!(SystemKind::FuyaoK.label(), "FUYAO-K");
        assert_eq!(SystemKind::ALL.len(), 6);
    }
}
