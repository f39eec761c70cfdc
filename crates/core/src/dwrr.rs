//! Deficit Weighted Round Robin — Palladium's per-tenant traffic scheduler.
//!
//! The DNE shares RNIC bandwidth among co-located tenants with a DWRR-like
//! policy (§3.3, citing Shreedhar & Varghese): each tenant has a weight; on
//! each round a tenant's deficit counter grows by `weight × quantum` and the
//! tenant may transmit work whose cost fits the deficit. Higher-weight
//! tenants therefore transfer proportionally more — exactly the Fig 15
//! behaviour (weights 6:1:2 splitting ≈110 K RPS into ≈65/11/22 K).
//!
//! The scheduler is generic over the queued item so the same implementation
//! serves descriptor queues in the DNE and byte-cost queues in tests.

use std::collections::VecDeque;

use palladium_membuf::TenantId;

/// Scheduling discipline of the engine's TX stage.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchedPolicy {
    /// Deficit Weighted Round Robin with per-tenant weights (Palladium).
    Dwrr,
    /// First-come-first-served — the baseline DNE of Fig 15 (1) with no
    /// multi-tenancy support.
    Fcfs,
}

#[derive(Debug)]
struct TenantQueue<T> {
    tenant: TenantId,
    weight: u32,
    deficit: u64,
    queue: VecDeque<(u64, T)>,
}

/// A work scheduler multiplexing per-tenant queues onto one engine.
///
/// Items carry an explicit `cost` (e.g. payload bytes, or 1 for pure
/// request counting); DWRR spends deficit on cost.
#[derive(Debug)]
pub struct TenantScheduler<T> {
    policy: SchedPolicy,
    /// Deficit replenished per round per unit weight.
    quantum: u64,
    tenants: Vec<TenantQueue<T>>,
    /// Round-robin cursor.
    cursor: usize,
    /// Has the cursor's queue received its quantum for the current visit?
    visit_refilled: bool,
    /// FCFS only: the tenant index of every queued item, in arrival order
    /// — exactly `len` long under [`SchedPolicy::Fcfs`], always empty under
    /// [`SchedPolicy::Dwrr`] (which never reads it), so the scheduler holds
    /// state for queued work only, however long the run.
    fcfs_order: VecDeque<usize>,
    len: usize,
}

impl<T> TenantScheduler<T> {
    /// A scheduler with the given policy and DWRR quantum.
    pub fn new(policy: SchedPolicy, quantum: u64) -> Self {
        assert!(quantum > 0, "quantum must be positive");
        TenantScheduler {
            policy,
            quantum,
            tenants: Vec::new(),
            cursor: 0,
            visit_refilled: false,
            fcfs_order: VecDeque::new(),
            len: 0,
        }
    }

    /// Scheduling policy in force.
    pub fn policy(&self) -> SchedPolicy {
        self.policy
    }

    /// Register a tenant with its weight. Re-registering updates the weight.
    pub fn register_tenant(&mut self, tenant: TenantId, weight: u32) {
        assert!(weight > 0, "weight must be positive");
        if let Some(t) = self.tenants.iter_mut().find(|t| t.tenant == tenant) {
            t.weight = weight;
        } else {
            self.tenants.push(TenantQueue {
                tenant,
                weight,
                deficit: 0,
                queue: VecDeque::new(),
            });
        }
    }

    fn tenant_idx(&self, tenant: TenantId) -> Option<usize> {
        self.tenants.iter().position(|t| t.tenant == tenant)
    }

    /// Enqueue an item of the given cost for a tenant. Unregistered tenants
    /// are auto-registered with weight 1 (FCFS semantics need no setup).
    pub fn enqueue(&mut self, tenant: TenantId, cost: u64, item: T) {
        let idx = match self.tenant_idx(tenant) {
            Some(i) => i,
            None => {
                self.register_tenant(tenant, 1);
                self.tenants.len() - 1
            }
        };
        self.tenants[idx].queue.push_back((cost.max(1), item));
        if self.policy == SchedPolicy::Fcfs {
            self.fcfs_order.push_back(idx);
        }
        self.len += 1;
        self.debug_check_breadcrumbs();
    }

    /// Every FCFS breadcrumb names exactly one queued item; DWRR keeps none.
    fn debug_check_breadcrumbs(&self) {
        let want = if self.policy == SchedPolicy::Fcfs { self.len } else { 0 };
        debug_assert_eq!(self.fcfs_order.len(), want, "FCFS breadcrumbs track queued items");
    }

    /// Total queued items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dequeue the next item according to the policy.
    pub fn dequeue(&mut self) -> Option<(TenantId, T)> {
        if self.len == 0 {
            return None;
        }
        let next = match self.policy {
            SchedPolicy::Fcfs => self.dequeue_fcfs(),
            SchedPolicy::Dwrr => self.dequeue_dwrr(),
        };
        self.debug_check_breadcrumbs();
        next
    }

    fn dequeue_fcfs(&mut self) -> Option<(TenantId, T)> {
        let idx = self.fcfs_order.pop_front()?;
        let (_, item) = self.tenants[idx].queue.pop_front().expect("a breadcrumb per queued item");
        self.len -= 1;
        Some((self.tenants[idx].tenant, item))
    }

    fn dequeue_dwrr(&mut self) -> Option<(TenantId, T)> {
        let n = self.tenants.len();
        if n == 0 {
            return None;
        }
        // Classic single-item-per-call DWRR: each *visit* to a queue grants
        // one quantum×weight; the queue is served while its deficit lasts,
        // then the cursor advances. Deficits of non-empty queues grow every
        // full round, so an oversized head is eventually affordable —
        // termination is guaranteed while anything is queued (self.len > 0
        // checked by the caller).
        let mut guard = 0u64;
        loop {
            let cursor = self.cursor;
            let t = &mut self.tenants[cursor];
            if t.queue.is_empty() {
                // Idle tenants don't bank deficit (classic DWRR).
                t.deficit = 0;
                self.advance();
                continue;
            }
            if !self.visit_refilled {
                t.deficit += (t.weight as u64) * self.quantum;
                self.visit_refilled = true;
            }
            let head_cost = t.queue.front().expect("non-empty").0;
            if t.deficit >= head_cost {
                t.deficit -= head_cost;
                let (_, item) = t.queue.pop_front().expect("non-empty");
                self.len -= 1;
                // Cursor stays: the tenant keeps sending while its deficit
                // lasts; the next call continues the same visit.
                return Some((t.tenant, item));
            }
            self.advance();
            guard += 1;
            debug_assert!(guard < 10_000_000, "DWRR failed to make progress");
        }
    }

    fn advance(&mut self) {
        self.cursor = (self.cursor + 1) % self.tenants.len().max(1);
        self.visit_refilled = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn fcfs_preserves_arrival_order_across_tenants() {
        let mut s: TenantScheduler<u32> = TenantScheduler::new(SchedPolicy::Fcfs, 100);
        s.enqueue(TenantId(1), 1, 10);
        s.enqueue(TenantId(2), 1, 20);
        s.enqueue(TenantId(1), 1, 11);
        let order: Vec<u32> = std::iter::from_fn(|| s.dequeue().map(|(_, v)| v)).collect();
        assert_eq!(order, [10, 20, 11]);
    }

    #[test]
    fn dwrr_splits_by_weights() {
        // Weights 6:1:2 (the Fig 15 configuration). With all tenants
        // backlogged, long-run service shares must match 6:1:2.
        let mut s: TenantScheduler<usize> = TenantScheduler::new(SchedPolicy::Dwrr, 10);
        s.register_tenant(TenantId(1), 6);
        s.register_tenant(TenantId(2), 1);
        s.register_tenant(TenantId(3), 2);
        for i in 0..9_000 {
            s.enqueue(TenantId(1 + (i % 3) as u16), 10, i);
        }
        let mut served: BTreeMap<TenantId, usize> = BTreeMap::new();
        for _ in 0..900 {
            let (t, _) = s.dequeue().expect("backlogged");
            *served.entry(t).or_default() += 1;
        }
        let t1 = served[&TenantId(1)] as f64;
        let t2 = served[&TenantId(2)] as f64;
        let t3 = served[&TenantId(3)] as f64;
        assert!((t1 / t2 - 6.0).abs() < 0.8, "t1/t2 = {}", t1 / t2);
        assert!((t3 / t2 - 2.0).abs() < 0.4, "t3/t2 = {}", t3 / t2);
    }

    #[test]
    fn dwrr_work_conserving_when_one_tenant_active() {
        // A low-weight tenant alone gets the full engine.
        let mut s: TenantScheduler<usize> = TenantScheduler::new(SchedPolicy::Dwrr, 10);
        s.register_tenant(TenantId(1), 6);
        s.register_tenant(TenantId(2), 1);
        for i in 0..100 {
            s.enqueue(TenantId(2), 10, i);
        }
        for _ in 0..100 {
            let (t, _) = s.dequeue().expect("work available");
            assert_eq!(t, TenantId(2));
        }
        assert!(s.is_empty());
    }

    #[test]
    fn dwrr_costs_matter() {
        // Tenant 2's items are 4x costlier; equal weights => tenant 2
        // dequeues ~4x fewer items.
        let mut s: TenantScheduler<usize> = TenantScheduler::new(SchedPolicy::Dwrr, 8);
        s.register_tenant(TenantId(1), 1);
        s.register_tenant(TenantId(2), 1);
        for i in 0..2_000 {
            s.enqueue(TenantId(1), 8, i);
            s.enqueue(TenantId(2), 32, i);
        }
        let mut count = BTreeMap::new();
        for _ in 0..500 {
            let (t, _) = s.dequeue().unwrap();
            *count.entry(t).or_insert(0usize) += 1;
        }
        let r = count[&TenantId(1)] as f64 / count[&TenantId(2)] as f64;
        assert!((3.0..5.0).contains(&r), "item ratio {r}");
    }

    #[test]
    fn oversized_item_eventually_served() {
        let mut s: TenantScheduler<&str> = TenantScheduler::new(SchedPolicy::Dwrr, 1);
        s.register_tenant(TenantId(1), 1);
        s.enqueue(TenantId(1), 1_000_000, "huge");
        assert_eq!(s.dequeue(), Some((TenantId(1), "huge")));
    }

    #[test]
    fn idle_tenant_does_not_hoard_deficit() {
        let mut s: TenantScheduler<usize> = TenantScheduler::new(SchedPolicy::Dwrr, 10);
        s.register_tenant(TenantId(1), 6);
        s.register_tenant(TenantId(2), 1);
        // Tenant 1 idles while tenant 2 works.
        for i in 0..50 {
            s.enqueue(TenantId(2), 10, i);
        }
        for _ in 0..50 {
            s.dequeue();
        }
        // Now both become active; tenant 1 must not burst beyond its 6:1
        // share from banked deficit.
        for i in 0..700 {
            s.enqueue(TenantId(1), 10, i);
            s.enqueue(TenantId(2), 10, i);
        }
        let mut first_100 = BTreeMap::new();
        for _ in 0..140 {
            let (t, _) = s.dequeue().unwrap();
            *first_100.entry(t).or_insert(0usize) += 1;
        }
        let t1 = first_100[&TenantId(1)] as f64;
        let t2 = first_100[&TenantId(2)] as f64;
        assert!((t1 / t2 - 6.0).abs() < 1.5, "burst ratio {}", t1 / t2);
    }

    #[test]
    fn auto_registration_defaults_to_weight_one() {
        let mut s: TenantScheduler<u8> = TenantScheduler::new(SchedPolicy::Dwrr, 10);
        s.enqueue(TenantId(9), 1, 1);
        assert_eq!(s.dequeue(), Some((TenantId(9), 1)));
    }

    #[test]
    fn dwrr_state_is_bounded_by_queued_work_not_run_length() {
        let mut s: TenantScheduler<u64> = TenantScheduler::new(SchedPolicy::Dwrr, 10);
        for (t, w) in [(1, 6), (2, 1), (3, 2)] {
            s.register_tenant(TenantId(t), w);
        }
        let mut high_water = [0usize; 3];
        for cycle in 0..100_000u64 {
            // Bursts of 1..=5 items per tenant, then a full drain.
            for k in 0..=cycle % 5 {
                for t in 1..=3 {
                    s.enqueue(TenantId(t), 10, cycle * 8 + k);
                }
            }
            for (hw, t) in high_water.iter_mut().zip(&s.tenants) {
                *hw = (*hw).max(t.queue.len());
            }
            while s.dequeue().is_some() {}
        }
        assert!(s.is_empty());
        assert_eq!(s.fcfs_order.capacity(), 0, "DWRR never records a breadcrumb");
        for (hw, t) in high_water.iter().zip(&s.tenants) {
            assert_eq!(*hw, 5);
            assert!(t.queue.capacity() <= hw.next_power_of_two(), "tenant {:?}", t.tenant);
        }
    }

    #[test]
    fn fcfs_keeps_exactly_one_breadcrumb_per_queued_item() {
        let mut s: TenantScheduler<u32> = TenantScheduler::new(SchedPolicy::Fcfs, 100);
        for i in 0..1_000u32 {
            s.enqueue(TenantId(1 + (i % 3) as u16), 1, i);
            assert_eq!(s.fcfs_order.len(), s.len());
            if i % 3 == 2 {
                assert_eq!(s.dequeue().map(|(_, v)| v), Some(i / 3));
                assert_eq!(s.fcfs_order.len(), s.len());
            }
        }
        while s.dequeue().is_some() {
            assert_eq!(s.fcfs_order.len(), s.len());
        }
        assert!(s.fcfs_order.is_empty());
    }

    #[test]
    fn empty_dequeue_is_none() {
        let mut s: TenantScheduler<u8> = TenantScheduler::new(SchedPolicy::Dwrr, 10);
        assert_eq!(s.dequeue(), None);
        s.register_tenant(TenantId(1), 1);
        assert_eq!(s.dequeue(), None);
    }
}
