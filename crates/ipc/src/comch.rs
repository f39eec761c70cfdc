//! The DOCA Communication Channel (Comch) — descriptor transport between
//! host functions and the DNE on the DPU (§3.5.4).
//!
//! The DNE runs a single Comch *server*; every host function connects as a
//! *client* endpoint. Descriptors flow both ways in FIFO order per
//! endpoint. The paper's tenant disconnect ("Comch allows the DNE to
//! disconnect misbehaving tenants") comes back with the driver that runs a
//! second tenant (ROADMAP item 3).
//!
//! Timing lives in [`crate::costs::ChannelCosts`]; this module is the real
//! state: endpoint registry and queues.

use std::collections::BTreeMap;

use palladium_membuf::{BufDesc, FnId, TenantId};

use crate::costs::ChannelKind;

/// Errors from Comch operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ComchError {
    /// Function has no connected endpoint.
    NotConnected(FnId),
}

#[derive(Debug)]
struct Endpoint {
    /// Descriptors queued toward the host function.
    to_host: Vec<BufDesc>,
    /// Descriptors queued toward the DNE.
    to_dne: Vec<BufDesc>,
}

/// The Comch server instance owned by one DNE.
#[derive(Debug)]
pub struct ComchServer {
    endpoints: BTreeMap<FnId, Endpoint>,
}

impl ComchServer {
    /// A server speaking the given channel flavour. Every flavour keeps the
    /// same endpoint state; only the timing differs, and callers charge it
    /// from [`crate::costs::ChannelCosts::for_kind`]. The flavour stays in the signature
    /// because the benchmark's Comch probe builds its server through it.
    pub fn new(_kind: ChannelKind) -> Self {
        ComchServer {
            endpoints: BTreeMap::new(),
        }
    }

    /// Connect a function endpoint (done at function startup). No endpoint
    /// state depends on the tenant; it stays in the signature because the
    /// benchmark's Comch probe connects through it.
    pub fn connect(&mut self, f: FnId, _tenant: TenantId) {
        self.endpoints.insert(
            f,
            Endpoint {
                to_host: Vec::new(),
                to_dne: Vec::new(),
            },
        );
    }

    /// Number of connected endpoints — the Comch-P progress engine iterates
    /// over all of them per op, which is exactly its scaling pathology.
    pub fn connected_endpoints(&self) -> usize {
        self.endpoints.len()
    }

    fn endpoint_mut(&mut self, f: FnId) -> Result<&mut Endpoint, ComchError> {
        self.endpoints
            .get_mut(&f)
            .ok_or(ComchError::NotConnected(f))
    }

    /// Host function `f` sends a descriptor toward the DNE.
    pub fn host_send(&mut self, f: FnId, desc: BufDesc) -> Result<(), ComchError> {
        let ep = self.endpoint_mut(f)?;
        ep.to_dne.push(desc);
        Ok(())
    }

    /// The DNE sends a descriptor toward host function `f`.
    pub fn dne_send(&mut self, f: FnId, desc: BufDesc) -> Result<(), ComchError> {
        let ep = self.endpoint_mut(f)?;
        ep.to_host.push(desc);
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
        assert_eq!(ch.connected_endpoints(), 1);
    }

    #[test]
    fn unconnected_function_rejected() {
        let mut ch = ComchServer::new(ChannelKind::ComchE);
        assert_eq!(
            ch.host_send(FnId(9), desc(9, 0, 1)),
            Err(ComchError::NotConnected(FnId(9)))
        );
    }
}
