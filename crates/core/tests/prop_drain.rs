//! Property-based equivalence of the batched CQ drain (`Dne::drain_cq_into`)
//! against the per-CQE `submit_cqe_into` loop.
//!
//! The batched completion pipeline's correctness argument is that handing
//! the DNE an entire CQ window in one call is *observationally identical*
//! to feeding it one CQE at a time: each CQE lands in the engine's RX
//! queue in the same order and only the first kick starts work (the
//! engine is busy afterwards). This test drives two identically
//! constructed engines — random RBR occupancy, random in-flight TX sends
//! (posted through `submit_tx_into`, as the cluster posts them), random
//! engine-busy state, a random CQE window mixing hits,
//! stale ids and every `CqeKind` — through both paths and asserts the
//! full timed effect streams match, at submission time and through every
//! subsequent engine-slot step until both engines go idle (on a busy rig,
//! from the occupying op's slot on).

use bytes::Bytes;
use proptest::prelude::*;

use palladium_core::config::{CostModel, EngineLocation};
use palladium_core::connpool::{ConnPool, ConnPoolConfig};
use palladium_core::dne::{pack_imm, Dne, DneEffect, DneStep};
use palladium_core::dwrr::SchedPolicy;
use palladium_core::routing::{Coordinator, DeployEvent};
use palladium_membuf::{BufDesc, FnId, NodeId, Owner, PoolId, TenantId, UnifiedPool};
use palladium_rdma::{Cqe, CqeKind, CqeStatus, OpKind, Qpn, WrId};
use palladium_simnet::{Nanos, Timed};

const TENANT: TenantId = TenantId(1);

/// A CQE to feed the engines, in terms of the random setup's handles.
#[derive(Clone, Copy, Debug)]
enum CqeSpec {
    /// Recv resolving the i-th registered RBR buffer (modulo population;
    /// a second hit on the same buffer exercises the stale-consume path).
    Recv(usize),
    /// Recv with a wr_id nothing registered.
    RecvStale,
    /// SendDone for the i-th in-flight TX send (modulo population).
    SendDone(usize),
    /// SendDone for an untracked (already-released) wr_id.
    SendDoneStale,
    /// SendDone with an error status.
    SendDoneFailed(usize),
}

fn cqe_spec() -> impl Strategy<Value = CqeSpec> {
    prop_oneof![
        4 => (0usize..8).prop_map(CqeSpec::Recv),
        1 => Just(CqeSpec::RecvStale),
        3 => (0usize..8).prop_map(CqeSpec::SendDone),
        1 => Just(CqeSpec::SendDoneStale),
        1 => (0usize..8).prop_map(CqeSpec::SendDoneFailed),
    ]
}

/// One engine plus the bookkeeping needed to materialize `CqeSpec`s.
struct Rig {
    dne: Dne,
    pool: UnifiedPool,
    rbr_ids: Vec<WrId>,
    tx_ids: Vec<WrId>,
}

/// Build an engine deterministically from the scenario parameters. Both
/// rigs of a test case go through the exact same call sequence, so their
/// slab/token states are identical.
fn build_rig(loc: EngineLocation, n_rbr: usize, n_tx: usize, busy: bool) -> Rig {
    let mut dne = Dne::new(
        NodeId(0),
        loc,
        CostModel::default(),
        SchedPolicy::Dwrr,
        ConnPool::new(NodeId(0), ConnPoolConfig::default()),
    );
    let mut coord = Coordinator::new();
    coord.apply(DeployEvent::Created { f: FnId(2), tenant: TENANT, node: NodeId(1) });
    coord.apply(DeployEvent::Created { f: FnId(3), tenant: TENANT, node: NodeId(0) });
    dne.routes = coord.tables_for(NodeId(0));
    dne.register_tenant(TENANT, 1);

    let mut pool = UnifiedPool::new(PoolId(0), TENANT, 64, 512);
    let mut rbr_ids = Vec::new();
    for _ in 0..n_rbr {
        let tok = pool.alloc(Owner::Rnic).expect("rbr token");
        rbr_ids.push(dne.rbr.register(TENANT, tok));
    }
    // In-flight sends: post `n_tx` buffers and run the engine until every
    // `PostSend` is out; each carries the WR id its SendDone echoes.
    let mut fx = Vec::new();
    for _ in 0..n_tx {
        let tok = pool.alloc(Owner::Engine).expect("tx token");
        let desc = tx_desc(tok.idx());
        dne.submit_tx_into(Nanos::ZERO, desc, Bytes::from_static(b"inflight"), Some(tok), &mut fx);
    }
    let mut tx_ids = Vec::new();
    run_to_idle(&mut dne, Nanos::ZERO, fx, |_, step| {
        tx_ids.extend(step.iter().filter_map(|t| match &t.value {
            DneEffect::PostSend { wr, .. } => Some(wr.wr_id),
            _ => None,
        }));
    });
    assert_eq!(tx_ids.len(), n_tx);
    if busy {
        // Occupy the engine core: a TX whose EngineSlot has not fired yet.
        let mut fx = Vec::new();
        let occupied = Bytes::from_static(b"occupied");
        dne.submit_tx_into(Nanos::ZERO, tx_desc(60), occupied, None, &mut fx);
        assert!(!fx.is_empty(), "an idle engine starts the submission");
    }
    Rig { dne, pool, rbr_ids, tx_ids }
}

/// A descriptor from local fn 3 to fn 2 on node 1.
fn tx_desc(buf_idx: u32) -> BufDesc {
    BufDesc { tenant: TENANT, pool: PoolId(0), buf_idx, len: 8, src_fn: FnId(3), dst_fn: FnId(2) }
}

fn materialize(spec: CqeSpec, rig: &Rig) -> Cqe {
    let pick = |ids: &Vec<WrId>, i: usize| {
        if ids.is_empty() {
            WrId(u64::MAX - 7)
        } else {
            ids[i % ids.len()]
        }
    };
    let (wr_id, kind, status, data, imm) = match spec {
        CqeSpec::Recv(i) => (
            pick(&rig.rbr_ids, i),
            CqeKind::Recv,
            CqeStatus::Success,
            Bytes::from_static(b"payload!"),
            pack_imm(FnId(9), FnId(3), TENANT),
        ),
        CqeSpec::RecvStale => (
            WrId(u64::MAX - 1),
            CqeKind::Recv,
            CqeStatus::Success,
            Bytes::from_static(b"ghost"),
            pack_imm(FnId(9), FnId(3), TENANT),
        ),
        CqeSpec::SendDone(i) => (
            pick(&rig.tx_ids, i),
            CqeKind::SendDone(OpKind::Send),
            CqeStatus::Success,
            Bytes::new(),
            0,
        ),
        CqeSpec::SendDoneStale => (
            WrId(u64::MAX - 2),
            CqeKind::SendDone(OpKind::Send),
            CqeStatus::Success,
            Bytes::new(),
            0,
        ),
        CqeSpec::SendDoneFailed(i) => (
            pick(&rig.tx_ids, i),
            CqeKind::SendDone(OpKind::Send),
            CqeStatus::RetryExceeded,
            Bytes::new(),
            0,
        ),
    };
    Cqe { wr_id, kind, status, qpn: Qpn(1), tenant: TENANT, peer: NodeId(1), data, imm }
}

/// Render an effect stream for comparison (DneEffect carries Bytes/tokens,
/// which have faithful Debug impls; the rendered stream captures ordering,
/// timing and every payload field).
fn render(fx: &[Timed<DneEffect>]) -> String {
    format!("{fx:#?}")
}

/// Drive the engine through successive engine-slot firings until idle,
/// handing each step's effects, with the time they were returned, to
/// `visit`.
fn run_to_idle(
    dne: &mut Dne,
    mut now: Nanos,
    first: DneStep,
    mut visit: impl FnMut(Nanos, &DneStep),
) {
    let mut pending = first;
    for _round in 0..512 {
        visit(now, &pending);
        let next_slot = pending
            .iter()
            .find(|t| matches!(t.value, DneEffect::EngineSlot))
            .map(|t| t.after);
        match next_slot {
            Some(after) => {
                now += after;
                pending.clear();
                dne.on_engine_slot_into(now, &mut pending);
            }
            None => return,
        }
    }
    panic!("engine failed to go idle");
}

/// Run to idle, logging every effect tagged with its firing time.
fn log_to_idle(dne: &mut Dne, now: Nanos, first: DneStep) -> String {
    let mut log = String::new();
    run_to_idle(dne, now, first, |at, step| {
        log.push_str(&format!("@{at:?}:\n"));
        log.push_str(&render(step));
    });
    log
}

/// On a busy rig no submission starts work, so neither step holds an
/// `EngineSlot`: fire the occupying op's slot at the submission instant in
/// both, so the logs run both queues to idle and a queue that differs in
/// length or order shows there.
fn occupied_slot_fires(busy: bool, a: &mut DneStep, b: &mut DneStep) {
    if busy {
        a.push(Timed::now(DneEffect::EngineSlot));
        b.push(Timed::now(DneEffect::EngineSlot));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn batched_drain_matches_per_cqe_loop(
        loc_dpu in any::<bool>(),
        n_rbr in 0usize..4,
        n_tx in 0usize..4,
        busy in any::<bool>(),
        now_ns in 0u64..1_000_000,
        specs in proptest::collection::vec(cqe_spec(), 1..12),
    ) {
        let loc = if loc_dpu { EngineLocation::Dpu } else { EngineLocation::Cpu };
        let now = Nanos(now_ns);

        // Path A: the reference per-CQE submission loop.
        let mut a = build_rig(loc, n_rbr, n_tx, busy);
        let mut fx_a = Vec::new();
        for &spec in &specs {
            let cqe = materialize(spec, &a);
            a.dne.submit_cqe_into(now, cqe, &mut fx_a);
        }

        // Path B: one batched window drain.
        let mut b = build_rig(loc, n_rbr, n_tx, busy);
        let mut window: Vec<Cqe> = specs.iter().map(|&s| materialize(s, &b)).collect();
        let mut fx_b = Vec::new();
        b.dne.drain_cq_into(now, &mut window, &mut fx_b);
        prop_assert!(window.is_empty(), "drain must consume the caller's scratch");

        // Identical immediate effects...
        prop_assert_eq!(render(&fx_a), render(&fx_b), "submission effects diverged");

        // ... and identical behavior through every subsequent engine slot
        // until both engines drain their queued work.
        occupied_slot_fires(busy, &mut fx_a, &mut fx_b);
        let log_a = log_to_idle(&mut a.dne, now, fx_a);
        let log_b = log_to_idle(&mut b.dne, now, fx_b);
        prop_assert_eq!(log_a, log_b, "post-drain engine evolution diverged");
        prop_assert_eq!(a.dne.rx_count, b.dne.rx_count);
        prop_assert_eq!(a.dne.tx_count, b.dne.tx_count);
        prop_assert_eq!(a.dne.route_misses, b.dne.route_misses);

        // Keep the pools alive until the end (tokens reference them).
        drop((a.pool, b.pool));
    }

    // Partial-window case: the CQ backlog surfaces in two chunks (e.g. a
    // bounded consumer draining `Rnic::drain_cq_window_into`, or two
    // doorbell wakeups racing a burst). Two successive `drain_cq_into`
    // calls over the split window must behave exactly like the per-CQE
    // loop over the whole window — the second chunk lands behind the
    // first in the RX queue and its kick is a no-op on the busy engine.
    #[test]
    fn split_window_drain_matches_per_cqe_loop(
        loc_dpu in any::<bool>(),
        n_rbr in 0usize..4,
        n_tx in 0usize..4,
        busy in any::<bool>(),
        now_ns in 0u64..1_000_000,
        specs in proptest::collection::vec(cqe_spec(), 2..12),
        split_at in 0usize..12,
    ) {
        let loc = if loc_dpu { EngineLocation::Dpu } else { EngineLocation::Cpu };
        let now = Nanos(now_ns);
        let split = 1 + split_at % (specs.len() - 1); // both chunks non-empty

        // Path A: the reference per-CQE submission loop.
        let mut a = build_rig(loc, n_rbr, n_tx, busy);
        let mut fx_a = Vec::new();
        for &spec in &specs {
            let cqe = materialize(spec, &a);
            a.dne.submit_cqe_into(now, cqe, &mut fx_a);
        }

        // Path B: the same window surfaced as two partial drains.
        let mut b = build_rig(loc, n_rbr, n_tx, busy);
        let mut fx_b = Vec::new();
        let mut first: Vec<Cqe> = specs[..split].iter().map(|&s| materialize(s, &b)).collect();
        let mut second: Vec<Cqe> = specs[split..].iter().map(|&s| materialize(s, &b)).collect();
        b.dne.drain_cq_into(now, &mut first, &mut fx_b);
        b.dne.drain_cq_into(now, &mut second, &mut fx_b);
        prop_assert!(first.is_empty() && second.is_empty());

        prop_assert_eq!(render(&fx_a), render(&fx_b), "split-window effects diverged");

        occupied_slot_fires(busy, &mut fx_a, &mut fx_b);
        let log_a = log_to_idle(&mut a.dne, now, fx_a);
        let log_b = log_to_idle(&mut b.dne, now, fx_b);
        prop_assert_eq!(log_a, log_b, "post-drain engine evolution diverged");
        prop_assert_eq!(a.dne.rx_count, b.dne.rx_count);
        prop_assert_eq!(a.dne.tx_count, b.dne.tx_count);

        drop((a.pool, b.pool));
    }
}
