//! The RC connection pool with shadow-QP management.
//!
//! Establishing an RC connection costs tens of milliseconds (§3.3), so the
//! DNE keeps a pool of pre-established connections per peer node. To hold
//! many connections without thrashing the RNIC's QP-context cache, the pool
//! follows the shadow-QP scheme of RoGUE \[52\]: a QP is *active* when it has
//! work queued, *inactive* otherwise; inactive QPs cost the RNIC nothing.
//! The pool caps concurrently active QPs per node and picks the
//! least-congested eligible connection for each transmission — no cross-node
//! state synchronization required.

use palladium_membuf::{NodeId, TenantId};
use palladium_rdma::{Qpn, RdmaNet};
use palladium_simnet::Nanos;

/// Identity of one pooled connection (local endpoint).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PooledConn {
    /// Peer node.
    pub peer: NodeId,
    /// Tenant the connection belongs to.
    pub tenant: TenantId,
    /// Local QP number.
    pub qpn: Qpn,
}

/// Configuration of the pool.
#[derive(Clone, Copy, Debug)]
pub struct ConnPoolConfig {
    /// Connections established per (peer, tenant) pair at warm-up.
    pub conns_per_peer: usize,
    /// Maximum QPs allowed to be active simultaneously on this node (the
    /// anti-thrash cap, kept at or below the RNIC QP-cache capacity).
    pub max_active: usize,
}

impl Default for ConnPoolConfig {
    fn default() -> Self {
        ConnPoolConfig {
            conns_per_peer: 4,
            max_active: 256,
        }
    }
}

/// Control-plane cost model for a worker rejoin (Swift \[PAPERS.md\]: RDMA
/// recovery is dominated by control-plane work, not data-plane loss). A
/// rejoining worker pays serialized QP re-establishment, one MR
/// re-registration pass, and a state re-sync transfer proportional to its
/// pool bytes before it re-enters the routing set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RejoinCosts {
    /// Control-plane serialization cost per QP re-established (setup RPCs
    /// run on the DPU's slow path, one at a time).
    pub qp_setup: Nanos,
    /// Flat MR/pool re-registration cost (pinning + rkey redistribution).
    pub mr_register: Nanos,
    /// State re-sync transfer cost per KiB of pool memory re-seeded from
    /// peers (rounded up to whole KiB).
    pub resync_ns_per_kib: u64,
}

impl Default for RejoinCosts {
    fn default() -> Self {
        RejoinCosts {
            qp_setup: Nanos::from_micros(25),
            mr_register: Nanos::from_micros(50),
            resync_ns_per_kib: 16,
        }
    }
}

impl RejoinCosts {
    /// Total time a worker spends rejoining: `qps` serialized QP setups,
    /// one MR registration, and `pool_bytes` of state re-sync.
    pub fn cost(&self, qps: usize, pool_bytes: u64) -> Nanos {
        self.qp_setup * qps as u64
            + self.mr_register
            + Nanos(self.resync_ns_per_kib * pool_bytes.div_ceil(1024))
    }
}

/// The per-node connection pool owned by a network engine.
#[derive(Debug)]
pub struct ConnPool {
    node: NodeId,
    cfg: ConnPoolConfig,
    conns: Vec<PooledConn>,
}

impl ConnPool {
    /// An empty pool for `node`.
    pub fn new(node: NodeId, cfg: ConnPoolConfig) -> Self {
        ConnPool {
            node,
            cfg,
            conns: Vec::new(),
        }
    }

    /// Node this pool belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Warm up connections to `peer` for `tenant` on the given fabric with
    /// [`RdmaNet::connect_immediate`], the fabric's only way to connect
    /// (the paper's pools are pre-established before traffic; the
    /// handshake §3.3 prices at tens of milliseconds is what they hide).
    /// Returns the local QPNs created.
    pub fn warm_up(&mut self, net: &mut RdmaNet, peer: NodeId, tenant: TenantId) -> Vec<Qpn> {
        let mut qpns = Vec::new();
        for _ in 0..self.cfg.conns_per_peer {
            let (qa, _qb) = net.connect_immediate(self.node, peer, tenant);
            self.conns.push(PooledConn {
                peer,
                tenant,
                qpn: qa,
            });
            qpns.push(qa);
        }
        qpns
    }

    /// Adopt an externally established connection.
    pub fn adopt(&mut self, peer: NodeId, tenant: TenantId, qpn: Qpn) {
        self.conns.push(PooledConn { peer, tenant, qpn });
    }

    /// Drop every pooled connection whose QP is gone or sits in the Error
    /// state (go-back-N retry exhaustion). Errored QPs can never carry
    /// work again, but until this sweep they still counted against the
    /// active cap and inflated `pool_size`. Returns how many were evicted.
    pub fn evict_errored(&mut self, net: &RdmaNet) -> usize {
        let rnic = net.rnic(self.node);
        let before = self.conns.len();
        self.conns.retain(|c| {
            rnic.qp(c.qpn)
                .map(|q| q.state != palladium_rdma::QpState::Error)
                .unwrap_or(false)
        });
        before - self.conns.len()
    }

    /// Number of pooled connections to `peer` for `tenant`.
    #[cfg(test)]
    pub fn pool_size(&self, peer: NodeId, tenant: TenantId) -> usize {
        self.conns
            .iter()
            .filter(|c| c.peer == peer && c.tenant == tenant)
            .count()
    }

    /// Count of currently active QPs on this node (shadow-QP criterion:
    /// outstanding work > 0), per the live fabric state. Errored QPs are
    /// dead weight, not activity — they never count, even while their
    /// abandoned work drains.
    pub fn active_count(&self, net: &RdmaNet) -> usize {
        self.conns
            .iter()
            .filter(|c| {
                net.rnic(self.node)
                    .qp(c.qpn)
                    .map(|q| q.state == palladium_rdma::QpState::Rts && q.is_active())
                    .unwrap_or(false)
            })
            .count()
    }

    /// Select the least-congested connection to `peer` for `tenant`
    /// (§3.2's TX stage). Prefers already-active QPs when the active cap is
    /// reached (activating another would thrash the QP cache); among
    /// eligible QPs picks the smallest outstanding-work count, tie-broken
    /// by QPN for determinism.
    pub fn select(&mut self, net: &RdmaNet, peer: NodeId, tenant: TenantId) -> Option<Qpn> {
        let rnic = net.rnic(self.node);
        // The cap can only bind when the pool holds at least `max_active`
        // connections — skip the per-QP active scan entirely otherwise
        // (`select` runs once per posted WR).
        let at_cap = self.conns.len() >= self.cfg.max_active
            && self.active_count(net) >= self.cfg.max_active;
        let mut best: Option<(usize, Qpn)> = None;
        let mut saw_error = false;
        for c in self
            .conns
            .iter()
            .filter(|c| c.peer == peer && c.tenant == tenant)
        {
            let Ok(qp) = rnic.qp(c.qpn) else { continue };
            if qp.state == palladium_rdma::QpState::Error {
                saw_error = true;
                continue;
            }
            if qp.state != palladium_rdma::QpState::Rts {
                continue;
            }
            let active = qp.is_active();
            if at_cap && !active {
                continue; // don't wake inactive QPs beyond the cap
            }
            let load = qp.outstanding();
            match best {
                Some((l, q)) if (load, c.qpn.0) >= (l, q.0) => {}
                _ => best = Some((load, c.qpn)),
            }
        }
        // If the cap excluded everything (e.g. all this pair's QPs are
        // inactive while other pairs hog the cap), fall back to the least
        // loaded connection regardless — starving a tenant would be worse
        // than a cache miss.
        if best.is_none() {
            best = self
                .conns
                .iter()
                .filter(|c| c.peer == peer && c.tenant == tenant)
                .filter_map(|c| {
                    rnic.qp(c.qpn)
                        .ok()
                        .filter(|q| q.state == palladium_rdma::QpState::Rts)
                        .map(|q| (q.outstanding(), c.qpn))
                })
                .min_by_key(|&(l, q)| (l, q.0));
        }
        // Errored QPs surfaced during the scan are purged immediately —
        // leaving them pooled would keep re-scanning corpses and skew the
        // active-cap heuristic (which counts pooled conns).
        if saw_error {
            self.evict_errored(net);
        }
        best.map(|(_, q)| q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use palladium_membuf::{MmapExporter, PoolId, Region};
    use palladium_rdma::{RdmaConfig, Step, WorkRequest, WrId};
    use palladium_simnet::Nanos;

    fn net() -> RdmaNet {
        let mut net = RdmaNet::new(RdmaConfig::default(), 2, 7);
        for node in [NodeId(0), NodeId(1)] {
            let mut e =
                MmapExporter::new(PoolId(node.raw()), TenantId(1), Region::hugepages(4 << 20));
            net.register_mr(node, &e.export_rdma()).unwrap();
        }
        net
    }

    /// Queue one SEND on `qpn` without running the simulation (the
    /// doorbell event is never handled), leaving the QP active.
    fn post(net: &mut RdmaNet, qpn: Qpn) {
        let wr = WorkRequest::send(WrId(1), Bytes::from_static(b"x"), 0);
        net.post_send_into(Nanos::ZERO, NodeId(0), qpn, wr, &mut Step::default())
            .unwrap();
    }

    #[test]
    fn warm_up_creates_connections() {
        let mut net = net();
        let mut pool = ConnPool::new(NodeId(0), ConnPoolConfig::default());
        let qpns = pool.warm_up(&mut net, NodeId(1), TenantId(1));
        assert_eq!(qpns.len(), 4);
        assert_eq!(pool.pool_size(NodeId(1), TenantId(1)), 4);
        assert_eq!(pool.active_count(&net), 0, "fresh QPs are inactive");
    }

    #[test]
    fn select_prefers_least_congested() {
        let mut net = net();
        let mut pool = ConnPool::new(NodeId(0), ConnPoolConfig::default());
        let qpns = pool.warm_up(&mut net, NodeId(1), TenantId(1));
        // Load the first QP with unsent work.
        for _ in 0..3 {
            post(&mut net, qpns[0]);
        }
        let picked = pool.select(&net, NodeId(1), TenantId(1)).unwrap();
        assert_ne!(picked, qpns[0], "loaded QP must not be picked");
    }

    #[test]
    fn active_cap_avoids_waking_inactive_qps() {
        let mut net = net();
        let mut pool = ConnPool::new(
            NodeId(0),
            ConnPoolConfig {
                conns_per_peer: 3,
                max_active: 1,
            },
        );
        let qpns = pool.warm_up(&mut net, NodeId(1), TenantId(1));
        // Activate exactly one QP.
        post(&mut net, qpns[1]);
        assert_eq!(pool.active_count(&net), 1);
        // At the cap: selection must reuse the active QP rather than waking
        // another (which would thrash the QP cache).
        let picked = pool.select(&net, NodeId(1), TenantId(1)).unwrap();
        assert_eq!(picked, qpns[1]);
    }

    #[test]
    fn select_unknown_pair_is_none() {
        let mut net = net();
        let mut pool = ConnPool::new(NodeId(0), ConnPoolConfig::default());
        pool.warm_up(&mut net, NodeId(1), TenantId(1));
        assert!(pool.select(&net, NodeId(1), TenantId(9)).is_none());
    }

    /// Satellite regression: a QP that hits the Error state (retry
    /// exhaustion) must leave the pool — before the eviction sweep it
    /// lingered forever, inflating `pool_size` and the active-cap
    /// heuristic, and `active_count` kept counting its abandoned work.
    #[test]
    fn select_evicts_errored_qps() {
        let mut net = net();
        let mut pool = ConnPool::new(NodeId(0), ConnPoolConfig::default());
        let qpns = pool.warm_up(&mut net, NodeId(1), TenantId(1));
        assert_eq!(pool.pool_size(NodeId(1), TenantId(1)), 4);
        // Error two QPs, one of them with work still outstanding.
        post(&mut net, qpns[0]);
        for q in [qpns[0], qpns[1]] {
            net.rnic_mut(NodeId(0)).qp_mut(q).unwrap().set_error();
        }
        assert_eq!(pool.active_count(&net), 0, "errored work is not activity");
        // Selection still lands on a healthy QP and purges the corpses.
        let picked = pool.select(&net, NodeId(1), TenantId(1)).unwrap();
        assert!(picked == qpns[2] || picked == qpns[3]);
        assert_eq!(pool.pool_size(NodeId(1), TenantId(1)), 2, "errored QPs evicted");
        // The explicit sweep is idempotent.
        assert_eq!(pool.evict_errored(&net), 0);
    }

    #[test]
    fn rejoin_cost_scales_with_qps_and_pool_bytes() {
        let costs = RejoinCosts::default();
        let base = costs.cost(8, 32 << 20);
        // Component accounting: 8 × 25 µs + 50 µs + 32 Mi/1 Ki × 16 ns.
        assert_eq!(
            base,
            Nanos::from_micros(200) + Nanos::from_micros(50) + Nanos(32 * 1024 * 16)
        );
        assert!(costs.cost(16, 32 << 20) > base, "more QPs cost more");
        assert!(costs.cost(8, 64 << 20) > base, "more state costs more");
        let free = RejoinCosts { qp_setup: Nanos::ZERO, mr_register: Nanos::ZERO, resync_ns_per_kib: 0 };
        assert_eq!(free.cost(8, 32 << 20), Nanos::ZERO);
    }

    #[test]
    fn per_tenant_pools_are_disjoint() {
        let mut net = net();
        let mut pool = ConnPool::new(NodeId(0), ConnPoolConfig::default());
        pool.warm_up(&mut net, NodeId(1), TenantId(1));
        // Register tenant 2's MR so its connections can be established.
        let mut e2 = MmapExporter::new(PoolId(10), TenantId(2), Region::hugepages(2 << 20));
        net.register_mr(NodeId(0), &e2.export_rdma()).unwrap();
        pool.warm_up(&mut net, NodeId(1), TenantId(2));
        let q1 = pool.select(&net, NodeId(1), TenantId(1)).unwrap();
        let q2 = pool.select(&net, NodeId(1), TenantId(2)).unwrap();
        assert_ne!(q1, q2, "tenants never share QPs (isolation, §2.1)");
    }
}
