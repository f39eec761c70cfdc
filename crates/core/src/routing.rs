//! Routing state: intra-node and inter-node function routes, and the
//! control-plane coordinator that maintains them.
//!
//! Palladium keeps two tables (§3.5.5): the intra-node table (read-only to
//! functions, stored in the unified pool) listing locally running
//! functions, and the inter-node table (on the DPU) mapping remote
//! functions to their nodes. A CNI-like coordinator listens for function
//! deployment events and synchronizes both.

use std::collections::BTreeMap;

use palladium_membuf::{FnId, NodeId, TenantId};
use palladium_simnet::PageTable;

/// One node's view of the routing state.
///
/// Both tables are two-level [`PageTable`]s over the 16-bit fn-id space
/// (256×256): the DNE consults `node_of` for every TX descriptor, so a
/// route query is two indexes — not a hash — on the hot path, while a node
/// routing a sparse production-scale slice of the fn-id space allocates
/// only the pages it touches instead of one dense 64 Ki-entry vector per
/// node.
/// Small fn-id ranges (< 256, every paper topology) stay on the dense
/// fast path through the pre-allocated first page. The control-plane
/// [`Coordinator`] keeps the sparse authoritative map and materializes
/// these per node.
#[derive(Debug, Default, Clone)]
pub struct RouteTables {
    /// Functions running on this node (fn → owning tenant).
    local: PageTable<TenantId>,
    /// Function → node for every function in the cluster (inter-node table,
    /// kept on the DPU for the DNE's TX stage).
    global: PageTable<NodeId>,
}

impl RouteTables {
    /// Empty tables.
    pub fn new() -> Self {
        Self::default()
    }

    /// Is `f` deployed on this node? (Fig 7 "route query".)
    #[cfg(test)]
    pub fn is_local(&self, f: FnId) -> bool {
        self.local.contains(f.raw() as usize)
    }

    /// Node hosting `f`, from the inter-node table.
    #[inline]
    pub fn node_of(&self, f: FnId) -> Option<NodeId> {
        self.global.get(f.raw() as usize).copied()
    }

    /// Tenant of a locally deployed function.
    #[cfg(test)]
    pub fn local_tenant(&self, f: FnId) -> Option<TenantId> {
        self.local.get(f.raw() as usize).copied()
    }

    /// Locally deployed functions, in ascending id order.
    #[cfg(test)]
    pub fn local_functions(&self) -> Vec<FnId> {
        self.local.iter().map(|(f, _)| FnId(f as u16)).collect()
    }

    /// Pages allocated across both tables (memory-footprint diagnostics:
    /// sparse fn-id populations should stay near the 2-page floor).
    pub fn pages_allocated(&self) -> usize {
        self.local.pages_allocated() + self.global.pages_allocated()
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

    /// Where a function runs.
    pub fn placement(&self, f: FnId) -> Option<(TenantId, NodeId)> {
        self.placements.get(&f).copied()
    }

    /// Build the routing tables for `node` (what the coordinator syncs to
    /// each worker).
    pub fn tables_for(&self, node: NodeId) -> RouteTables {
        let mut t = RouteTables::new();
        for (&f, &(tenant, n)) in &self.placements {
            t.global.insert(f.raw() as usize, n);
            if n == node {
                t.local.insert(f.raw() as usize, tenant);
            }
        }
        t
    }

    /// Total deployed functions.
    pub fn len(&self) -> usize {
        self.placements.len()
    }

    /// True when nothing is deployed.
    pub fn is_empty(&self) -> bool {
        self.placements.is_empty()
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
        assert!(t0.is_local(FnId(1)));
        assert!(!t0.is_local(FnId(2)));
        assert_eq!(t0.node_of(FnId(2)), Some(NodeId(1)));
        assert_eq!(t0.local_tenant(FnId(1)), Some(TenantId(1)));
        assert_eq!(t0.local_functions(), vec![FnId(1)]);
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
        assert!(!t.is_local(FnId(1)));
        assert_eq!(t.node_of(FnId(1)), None);
        assert!(c.is_empty());
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
        // global: pages for ids {1}, {300}, {9000}, {40000}, {65535} → 5
        // pages; local: first page + at most the pages of node-0 ids.
        assert!(
            t.pages_allocated() <= 10,
            "pages {} — sparse ids must not densify",
            t.pages_allocated()
        );
        assert_eq!(t.node_of(FnId(65_535)), Some(NodeId(1)));
        assert_eq!(t.node_of(FnId(9_000)), Some(NodeId(0)));
        assert!(t.is_local(FnId(40_000)));
        assert_eq!(t.node_of(FnId(12_345)), None);
    }

    #[test]
    fn tables_are_deploy_order_invariant() {
        // Regression for the HashMap→BTreeMap conversion: two coordinators
        // fed the same deployments in different orders must materialize
        // identical tables AND identical enumeration order (the old
        // HashMap iterated in per-process-random order; it happened not
        // to matter only because PageTable inserts are keyed).
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
            assert_eq!(a.local_functions(), b.local_functions());
            for f in 0..=u16::MAX {
                assert_eq!(a.node_of(FnId(f)), b.node_of(FnId(f)), "fn {f}");
                assert_eq!(a.local_tenant(FnId(f)), b.local_tenant(FnId(f)));
            }
        }
        // And the enumeration itself is ascending — pinned, not incidental.
        let local = fwd.tables_for(NodeId(0)).local_functions();
        assert_eq!(local, vec![FnId(1), FnId(40_000), FnId(65_535)]);
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
        assert!(!c.tables_for(NodeId(0)).is_local(FnId(1)));
        assert!(c.tables_for(NodeId(1)).is_local(FnId(1)));
        assert_eq!(c.len(), 1);
    }
}
