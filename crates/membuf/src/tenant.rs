//! Per-tenant memory isolation — the DPDK `file-prefix` mechanism.
//!
//! Palladium isolates tenants' memory pools using DPDK's multi-process
//! support (§3.4.1): a per-tenant *shared-memory agent* (the DPDK primary
//! process) creates the pool under a tenant-specific `file-prefix`;
//! functions attach as secondary processes using the same prefix and can
//! only map pools published under it. A function that presents the wrong
//! prefix simply cannot see the other tenant's memory.
//!
//! The reproduction keeps the same roles: [`ShmAgent`] is the primary,
//! [`TenantDirectory`] is the set of memory-mapped files, and
//! [`TenantDirectory::attach`] is the EAL secondary-process attach.

#[expect(clippy::disallowed_types, reason = "lookup-only maps below; never iterated")]
use std::collections::HashMap;

use crate::hugepage::Region;
use crate::ids::{FnId, PoolId, TenantId};
use crate::mmap::MmapExporter;
use crate::pool::UnifiedPool;

/// Errors from tenant-scoped pool management.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TenantError {
    /// No pool published under this file-prefix.
    UnknownPrefix(String),
    /// The function's registered tenant does not match the pool's tenant.
    IsolationViolation {
        /// Tenant the function belongs to.
        function_tenant: TenantId,
        /// Tenant owning the pool it tried to attach.
        pool_tenant: TenantId,
    },
    /// Function was never registered with the directory.
    UnknownFunction(FnId),
    /// A pool with this prefix already exists.
    DuplicatePrefix(String),
}

impl std::fmt::Display for TenantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TenantError::UnknownPrefix(p) => write!(f, "no pool under file-prefix {p:?}"),
            TenantError::IsolationViolation {
                function_tenant,
                pool_tenant,
            } => write!(
                f,
                "tenant isolation violation: function of tenant {function_tenant} \
                 attempted to attach pool of tenant {pool_tenant}"
            ),
            TenantError::UnknownFunction(id) => write!(f, "function {id} not registered"),
            TenantError::DuplicatePrefix(p) => write!(f, "file-prefix {p:?} already in use"),
        }
    }
}

impl std::error::Error for TenantError {}

/// The per-tenant shared-memory agent: creates the unified pool before any
/// function starts (it takes no part in data transfer afterwards, exactly as
/// in §3.4.1) and owns the mmap exporter for the DPU/RNIC grants.
#[derive(Debug)]
pub struct ShmAgent {
    tenant: TenantId,
    prefix: String,
    exporter: MmapExporter,
    pool_id: PoolId,
}

impl ShmAgent {
    /// Create the pool for `tenant` under `prefix` and publish it in the
    /// directory. Returns the agent handle for later mmap exports.
    pub fn create_pool(
        dir: &mut TenantDirectory,
        tenant: TenantId,
        prefix: impl Into<String>,
        n_bufs: u32,
        buf_size: u32,
    ) -> Result<(ShmAgent, PoolId), TenantError> {
        let prefix = prefix.into();
        if dir.by_prefix.contains_key(&prefix) {
            return Err(TenantError::DuplicatePrefix(prefix));
        }
        let pool_id = PoolId(dir.pools.len() as u16);
        let pool = UnifiedPool::new(pool_id, tenant, n_bufs, buf_size);
        let region = Region::hugepages(pool.backing_len().max(1));
        dir.by_prefix.insert(prefix.clone(), pool_id);
        dir.pools.push(pool);
        Ok((
            ShmAgent {
                tenant,
                prefix,
                exporter: MmapExporter::new(pool_id, tenant, region),
                pool_id,
            },
            pool_id,
        ))
    }

    /// The agent's tenant.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The file-prefix this agent published.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// The pool this agent created.
    pub fn pool_id(&self) -> PoolId {
        self.pool_id
    }

    /// Access the mmap exporter (for `export_pci` / `export_rdma`).
    pub fn exporter(&mut self) -> &mut MmapExporter {
        &mut self.exporter
    }
}

/// The node-local directory of published pools plus function registrations —
/// the stand-in for the hugetlbfs files DPDK secondary processes map.
#[derive(Debug, Default)]
pub struct TenantDirectory {
    pools: Vec<UnifiedPool>,
    #[expect(clippy::disallowed_types, reason = "keyed get/insert only (attach); never iterated")]
    by_prefix: HashMap<String, PoolId>,
    #[expect(clippy::disallowed_types, reason = "keyed get/insert only (tenant_of); not iterated")]
    fn_tenants: HashMap<FnId, TenantId>,
}

impl TenantDirectory {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a function as belonging to `tenant` (done by the control
    /// plane at deployment).
    pub fn register_function(&mut self, f: FnId, tenant: TenantId) {
        self.fn_tenants.insert(f, tenant);
    }

    /// Tenant of a registered function.
    pub fn tenant_of(&self, f: FnId) -> Result<TenantId, TenantError> {
        self.fn_tenants
            .get(&f)
            .copied()
            .ok_or(TenantError::UnknownFunction(f))
    }

    /// Attach function `f` to the pool published under `prefix` — the EAL
    /// secondary-process startup. Enforces tenant isolation: the function's
    /// tenant must own the pool.
    pub fn attach(&self, f: FnId, prefix: &str) -> Result<PoolId, TenantError> {
        let pool_id = *self
            .by_prefix
            .get(prefix)
            .ok_or_else(|| TenantError::UnknownPrefix(prefix.to_string()))?;
        let fn_tenant = self.tenant_of(f)?;
        let pool_tenant = self.pools[pool_id.0 as usize].tenant();
        if fn_tenant != pool_tenant {
            return Err(TenantError::IsolationViolation {
                function_tenant: fn_tenant,
                pool_tenant,
            });
        }
        Ok(pool_id)
    }

    /// Borrow a pool by id.
    pub fn pool(&self, id: PoolId) -> &UnifiedPool {
        &self.pools[id.0 as usize]
    }

    /// Mutably borrow a pool by id.
    pub fn pool_mut(&mut self, id: PoolId) -> &mut UnifiedPool {
        &mut self.pools[id.0 as usize]
    }

    /// Pool published under a prefix, if any.
    pub fn lookup_prefix(&self, prefix: &str) -> Option<PoolId> {
        self.by_prefix.get(prefix).copied()
    }

    /// Number of published pools.
    pub fn pool_count(&self) -> usize {
        self.pools.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Owner;
    use crate::meter::CopyMeter;

    #[test]
    fn agent_creates_and_publishes_pool() {
        let mut dir = TenantDirectory::new();
        let (agent, pool_id) =
            ShmAgent::create_pool(&mut dir, TenantId(1), "tenant_1", 8, 2048).unwrap();
        assert_eq!(agent.tenant(), TenantId(1));
        assert_eq!(agent.prefix(), "tenant_1");
        assert_eq!(dir.lookup_prefix("tenant_1"), Some(pool_id));
        assert_eq!(dir.pool(pool_id).capacity(), 8);
    }

    #[test]
    fn duplicate_prefix_rejected() {
        let mut dir = TenantDirectory::new();
        ShmAgent::create_pool(&mut dir, TenantId(1), "tenant_1", 2, 64).unwrap();
        assert_eq!(
            ShmAgent::create_pool(&mut dir, TenantId(2), "tenant_1", 2, 64).unwrap_err(),
            TenantError::DuplicatePrefix("tenant_1".into())
        );
    }

    #[test]
    fn attach_same_tenant_succeeds() {
        let mut dir = TenantDirectory::new();
        let (_, pool_id) =
            ShmAgent::create_pool(&mut dir, TenantId(1), "tenant_1", 2, 64).unwrap();
        dir.register_function(FnId(1), TenantId(1));
        assert_eq!(dir.attach(FnId(1), "tenant_1").unwrap(), pool_id);
    }

    #[test]
    fn attach_across_tenants_is_isolation_violation() {
        let mut dir = TenantDirectory::new();
        ShmAgent::create_pool(&mut dir, TenantId(1), "tenant_1", 2, 64).unwrap();
        ShmAgent::create_pool(&mut dir, TenantId(2), "tenant_2", 2, 64).unwrap();
        dir.register_function(FnId(7), TenantId(2));
        assert_eq!(
            dir.attach(FnId(7), "tenant_1").unwrap_err(),
            TenantError::IsolationViolation {
                function_tenant: TenantId(2),
                pool_tenant: TenantId(1),
            }
        );
        // Its own prefix works.
        assert!(dir.attach(FnId(7), "tenant_2").is_ok());
    }

    #[test]
    fn unknown_prefix_and_function_reported() {
        let mut dir = TenantDirectory::new();
        dir.register_function(FnId(1), TenantId(1));
        assert!(matches!(
            dir.attach(FnId(1), "nope"),
            Err(TenantError::UnknownPrefix(_))
        ));
        ShmAgent::create_pool(&mut dir, TenantId(1), "tenant_1", 2, 64).unwrap();
        assert!(matches!(
            dir.attach(FnId(99), "tenant_1"),
            Err(TenantError::UnknownFunction(_))
        ));
    }

    #[test]
    fn pools_are_private_state() {
        // Data written through one tenant's pool is invisible to the other
        // tenant's pool (distinct backing storage).
        let mut dir = TenantDirectory::new();
        let (_, p1) = ShmAgent::create_pool(&mut dir, TenantId(1), "t1", 2, 64).unwrap();
        let (_, p2) = ShmAgent::create_pool(&mut dir, TenantId(2), "t2", 2, 64).unwrap();
        let mut m = CopyMeter::new();
        let t1 = dir.pool_mut(p1).alloc(Owner::Engine).unwrap();
        dir.pool_mut(p1).write_bytes(&t1, bytes::Bytes::from_static(b"secret"), &mut m).unwrap();
        let t2 = dir.pool_mut(p2).alloc(Owner::Engine).unwrap();
        assert_eq!(dir.pool(p2).read(&t2).unwrap(), b"");
        dir.pool_mut(p1).free(t1).unwrap();
        dir.pool_mut(p2).free(t2).unwrap();
    }

    #[test]
    fn exporter_available_per_agent() {
        let mut dir = TenantDirectory::new();
        let (mut agent, _) =
            ShmAgent::create_pool(&mut dir, TenantId(1), "tenant_1", 2, 64).unwrap();
        let x = agent.exporter().export_rdma();
        assert_eq!(x.tenant, TenantId(1));
    }
}
