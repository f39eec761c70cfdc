//! Routing state: intra-node and inter-node function routes, and the
//! control-plane coordinator that maintains them.
//!
//! Palladium keeps two tables (§3.5.5): the intra-node table (read-only to
//! functions, stored in the unified pool) listing locally running
//! functions, and the inter-node table (on the DPU) mapping remote
//! functions to their nodes. A CNI-like coordinator listens for function
//! deployment events and synchronizes them. The simulated data plane asks
//! only the DNE's route query, so only the inter-node table is modelled.

use std::collections::BTreeMap;

use palladium_membuf::{FnId, NodeId, TenantId};
use palladium_simnet::PageTable;

/// One node's view of the routing state.
///
/// The table is a two-level [`PageTable`] over the 16-bit fn-id space
/// (256×256): the DNE consults `node_of` for every TX descriptor, so a
/// route query is two indexes — not a hash — on the hot path, while a node
/// routing a sparse production-scale slice of the fn-id space allocates
/// only the pages it touches instead of one dense 64 Ki-entry vector per
/// node.
/// Small fn-id ranges (< 256, every paper topology) stay on the dense
/// fast path through the pre-allocated first page. The control-plane
/// [`Coordinator`] keeps the sparse authoritative map and materializes
/// this per node.
#[derive(Debug, Default, Clone)]
pub struct RouteTables {
    /// Function → node for every function in the cluster (inter-node table,
    /// kept on the DPU for the DNE's TX stage).
    global: PageTable<NodeId>,
}

impl RouteTables {
    /// Empty tables.
    pub fn new() -> Self {
        Self::default()
    }

    /// Node hosting `f`, from the inter-node table (Fig 7 "route query").
    #[inline]
    pub fn node_of(&self, f: FnId) -> Option<NodeId> {
        self.global.get(f.raw() as usize).copied()
    }
}

/// A function deployment event (creation or termination).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeployEvent {
    /// Function started on a node.
    Created {
        /// The function.
        f: FnId,
        /// Its tenant.
        tenant: TenantId,
        /// Where it runs.
        node: NodeId,
    },
    /// Function terminated.
    Terminated {
        /// The function.
        f: FnId,
    },
}

/// The control-plane coordinator: holds the authoritative deployment map
/// and pushes per-node tables (the CNI-like component of §3.5.5).
#[derive(Debug, Default)]
pub struct Coordinator {
    /// Ordered so `tables_for` (and any future placement enumeration)
    /// walks deployments in fn-id order regardless of deploy history —
    /// the coordinator is control-plane state that feeds deterministic
    /// per-node tables.
    placements: BTreeMap<FnId, (TenantId, NodeId)>,
}

impl Coordinator {
    /// A coordinator with no deployments.
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply a deployment event.
    pub fn apply(&mut self, ev: DeployEvent) {
        match ev {
            DeployEvent::Created { f, tenant, node } => {
                self.placements.insert(f, (tenant, node));
            }
            DeployEvent::Terminated { f } => {
                self.placements.remove(&f);
            }
        }
    }

    /// Build the routing tables for a node (what the coordinator syncs to
    /// each worker; every node holds the same inter-node table).
    pub fn tables_for(&self, _node: NodeId) -> RouteTables {
        let mut t = RouteTables::new();
        for (&f, &(_, n)) in &self.placements {
            t.global.insert(f.raw() as usize, n);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordinator_syncs_tables() {
        let mut c = Coordinator::new();
        c.apply(DeployEvent::Created {
            f: FnId(1),
            tenant: TenantId(1),
            node: NodeId(0),
        });
        c.apply(DeployEvent::Created {
            f: FnId(2),
            tenant: TenantId(1),
            node: NodeId(1),
        });
        let t0 = c.tables_for(NodeId(0));
        assert_eq!(t0.node_of(FnId(1)), Some(NodeId(0)));
        assert_eq!(t0.node_of(FnId(2)), Some(NodeId(1)));
        assert_eq!(t0.node_of(FnId(3)), None);
        assert_eq!(c.placements.get(&FnId(1)), Some(&(TenantId(1), NodeId(0))));
    }

    #[test]
    fn termination_removes_routes() {
        let mut c = Coordinator::new();
        c.apply(DeployEvent::Created {
            f: FnId(1),
            tenant: TenantId(1),
            node: NodeId(0),
        });
        c.apply(DeployEvent::Terminated { f: FnId(1) });
        let t = c.tables_for(NodeId(0));
        assert_eq!(t.node_of(FnId(1)), None);
        assert!(c.placements.is_empty());
    }

    #[test]
    fn sparse_fn_ids_stay_sparse_in_memory() {
        // Production-scale fn ids scattered across the 16-bit space: the
        // per-node tables must allocate only the touched 256-entry pages
        // (plus the always-present first page per table), not 64 Ki slots.
        let mut c = Coordinator::new();
        for f in [1u16, 300, 9_000, 40_000, 65_535] {
            c.apply(DeployEvent::Created {
                f: FnId(f),
                tenant: TenantId(1),
                node: NodeId(f % 2),
            });
        }
        let t = c.tables_for(NodeId(0));
        // Pages for ids {1}, {300}, {9000}, {40000}, {65535} → 5 pages.
        assert!(
            t.global.pages_allocated() <= 5,
            "pages {} — sparse ids must not densify",
            t.global.pages_allocated()
        );
        assert_eq!(t.node_of(FnId(65_535)), Some(NodeId(1)));
        assert_eq!(t.node_of(FnId(9_000)), Some(NodeId(0)));
        assert_eq!(t.node_of(FnId(40_000)), Some(NodeId(0)));
        assert_eq!(t.node_of(FnId(12_345)), None);
    }

    #[test]
    fn tables_are_deploy_order_invariant() {
        // Regression for the HashMap→BTreeMap conversion: two coordinators
        // fed the same deployments in different orders must materialize
        // identical tables.
        let deploys = [
            (FnId(9_000), TenantId(2), NodeId(1)),
            (FnId(1), TenantId(1), NodeId(0)),
            (FnId(40_000), TenantId(3), NodeId(0)),
            (FnId(300), TenantId(1), NodeId(1)),
            (FnId(65_535), TenantId(2), NodeId(0)),
        ];
        let mut fwd = Coordinator::new();
        let mut rev = Coordinator::new();
        for &(f, tenant, node) in &deploys {
            fwd.apply(DeployEvent::Created { f, tenant, node });
        }
        for &(f, tenant, node) in deploys.iter().rev() {
            rev.apply(DeployEvent::Created { f, tenant, node });
        }
        for node in [NodeId(0), NodeId(1)] {
            let a = fwd.tables_for(node);
            let b = rev.tables_for(node);
            for f in 0..=u16::MAX {
                assert_eq!(a.node_of(FnId(f)), b.node_of(FnId(f)), "fn {f}");
            }
            assert_eq!(a.global.pages_allocated(), b.global.pages_allocated());
        }
    }

    #[test]
    fn redeployment_moves_function() {
        let mut c = Coordinator::new();
        c.apply(DeployEvent::Created {
            f: FnId(1),
            tenant: TenantId(1),
            node: NodeId(0),
        });
        // Auto-scaling moved the function to node 1.
        c.apply(DeployEvent::Created {
            f: FnId(1),
            tenant: TenantId(1),
            node: NodeId(1),
        });
        assert_eq!(c.tables_for(NodeId(0)).node_of(FnId(1)), Some(NodeId(1)));
        assert_eq!(c.placements.len(), 1);
    }
}
