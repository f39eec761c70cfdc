//! The DOCA Communication Channel (Comch) — descriptor transport between
//! host functions and the DNE on the DPU (§3.5.4).
//!
//! The DNE runs a single Comch *server*; every host function connects as a
//! *client* endpoint. Descriptors flow both ways in FIFO order per
//! endpoint. The server can disconnect a misbehaving tenant's endpoints —
//! the enforcement hook the paper highlights over raw intra-node RDMA
//! ("Comch allows the DNE to disconnect misbehaving tenants").
//!
//! Timing lives in [`crate::costs::ChannelCosts`]; this module is the real
//! state: endpoint registry, queues, connection lifecycle.

use std::collections::BTreeMap;

use palladium_membuf::{BufDesc, FnId, TenantId};

use crate::costs::{ChannelCosts, ChannelKind};

/// Errors from Comch operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ComchError {
    /// Function has no connected endpoint.
    NotConnected(FnId),
    /// Endpoint was administratively disconnected.
    Disconnected(FnId),
}

#[derive(Debug)]
struct Endpoint {
    tenant: TenantId,
    /// Descriptors queued toward the host function.
    to_host: Vec<BufDesc>,
    /// Descriptors queued toward the DNE.
    to_dne: Vec<BufDesc>,
    connected: bool,
}

/// The Comch server instance owned by one DNE.
#[derive(Debug)]
pub struct ComchServer {
    kind: ChannelKind,
    costs: ChannelCosts,
    /// Ordered by fn id: the server iterates endpoints (tenant
    /// disconnect), so the registry must walk in a deterministic order.
    endpoints: BTreeMap<FnId, Endpoint>,
    /// Total descriptors that crossed the channel (both directions).
    pub transferred: u64,
}

impl ComchServer {
    /// A server speaking the given channel flavour.
    pub fn new(kind: ChannelKind) -> Self {
        ComchServer {
            kind,
            costs: ChannelCosts::for_kind(kind),
            endpoints: BTreeMap::new(),
            transferred: 0,
        }
    }

    /// Channel flavour.
    pub fn kind(&self) -> ChannelKind {
        self.kind
    }

    /// The cost model for this flavour.
    pub fn costs(&self) -> &ChannelCosts {
        &self.costs
    }

    /// Connect a function endpoint (done at function startup).
    pub fn connect(&mut self, f: FnId, tenant: TenantId) {
        self.endpoints.insert(
            f,
            Endpoint {
                tenant,
                to_host: Vec::new(),
                to_dne: Vec::new(),
                connected: true,
            },
        );
    }

    /// Administratively disconnect every endpoint of `tenant` (the
    /// misbehaving-tenant hook). Returns how many endpoints were cut.
    pub fn disconnect_tenant(&mut self, tenant: TenantId) -> usize {
        let mut n = 0;
        for ep in self.endpoints.values_mut() {
            if ep.tenant == tenant && ep.connected {
                ep.connected = false;
                ep.to_host.clear();
                ep.to_dne.clear();
                n += 1;
            }
        }
        n
    }

    /// Number of connected endpoints — the Comch-P progress engine iterates
    /// over all of them per op, which is exactly its scaling pathology.
    pub fn connected_endpoints(&self) -> usize {
        self.endpoints.values().filter(|e| e.connected).count()
    }

    fn endpoint_mut(&mut self, f: FnId) -> Result<&mut Endpoint, ComchError> {
        let ep = self
            .endpoints
            .get_mut(&f)
            .ok_or(ComchError::NotConnected(f))?;
        if !ep.connected {
            return Err(ComchError::Disconnected(f));
        }
        Ok(ep)
    }

    /// Host function `f` sends a descriptor toward the DNE.
    pub fn host_send(&mut self, f: FnId, desc: BufDesc) -> Result<(), ComchError> {
        let ep = self.endpoint_mut(f)?;
        ep.to_dne.push(desc);
        self.transferred += 1;
        Ok(())
    }

    /// The DNE sends a descriptor toward host function `f`.
    pub fn dne_send(&mut self, f: FnId, desc: BufDesc) -> Result<(), ComchError> {
        let ep = self.endpoint_mut(f)?;
        ep.to_host.push(desc);
        self.transferred += 1;
        Ok(())
    }

    /// The DNE's event loop drains descriptors from one endpoint.
    pub fn dne_recv(&mut self, f: FnId, max: usize) -> Vec<BufDesc> {
        match self.endpoint_mut(f) {
            Ok(ep) => {
                let n = max.min(ep.to_dne.len());
                ep.to_dne.drain(..n).collect()
            }
            Err(_) => Vec::new(),
        }
    }

    /// Host function `f` receives descriptors (epoll-ready path).
    pub fn host_recv(&mut self, f: FnId, max: usize) -> Vec<BufDesc> {
        match self.endpoint_mut(f) {
            Ok(ep) => {
                let n = max.min(ep.to_host.len());
                ep.to_host.drain(..n).collect()
            }
            Err(_) => Vec::new(),
        }
    }

    /// Descriptors waiting toward the DNE from `f`.
    #[cfg(test)]
    pub fn pending_to_dne(&self, f: FnId) -> usize {
        self.endpoints.get(&f).map(|e| e.to_dne.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use palladium_membuf::PoolId;

    fn desc(src: u16, dst: u16, idx: u32) -> BufDesc {
        BufDesc {
            tenant: TenantId(1),
            pool: PoolId(1),
            buf_idx: idx,
            len: 16,
            src_fn: FnId(src),
            dst_fn: FnId(dst),
        }
    }

    #[test]
    fn bidirectional_fifo() {
        let mut ch = ComchServer::new(ChannelKind::ComchE);
        ch.connect(FnId(1), TenantId(1));
        ch.host_send(FnId(1), desc(1, 0, 10)).unwrap();
        ch.host_send(FnId(1), desc(1, 0, 11)).unwrap();
        let got = ch.dne_recv(FnId(1), 8);
        assert_eq!(got.iter().map(|d| d.buf_idx).collect::<Vec<_>>(), [10, 11]);
        ch.dne_send(FnId(1), desc(0, 1, 20)).unwrap();
        let back = ch.host_recv(FnId(1), 8);
        assert_eq!(back[0].buf_idx, 20);
        assert_eq!(ch.transferred, 3);
    }

    #[test]
    fn unconnected_function_rejected() {
        let mut ch = ComchServer::new(ChannelKind::ComchE);
        assert_eq!(
            ch.host_send(FnId(9), desc(9, 0, 1)),
            Err(ComchError::NotConnected(FnId(9)))
        );
    }

    #[test]
    fn tenant_disconnect_cuts_endpoints() {
        let mut ch = ComchServer::new(ChannelKind::ComchE);
        ch.connect(FnId(1), TenantId(1));
        ch.connect(FnId(2), TenantId(1));
        ch.connect(FnId(3), TenantId(2));
        ch.host_send(FnId(1), desc(1, 0, 1)).unwrap();
        assert_eq!(ch.disconnect_tenant(TenantId(1)), 2);
        assert_eq!(ch.connected_endpoints(), 1);
        // Queued traffic of the cut tenant is discarded, sends rejected.
        assert_eq!(ch.pending_to_dne(FnId(1)), 0);
        assert_eq!(
            ch.host_send(FnId(1), desc(1, 0, 2)),
            Err(ComchError::Disconnected(FnId(1)))
        );
        // Other tenants unaffected.
        assert!(ch.host_send(FnId(3), desc(3, 0, 3)).is_ok());
    }

    #[test]
    fn costs_match_kind() {
        let ch = ComchServer::new(ChannelKind::ComchP);
        assert!(ch.costs().pins_host_core);
        assert_eq!(ch.kind(), ChannelKind::ComchP);
    }
}
