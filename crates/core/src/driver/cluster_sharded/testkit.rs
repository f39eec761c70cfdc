//! Unit-test scaffolding for the ingress request lifecycle: an
//! [`IngressState`] with no fabric behind it, requests made the way
//! [`Ev::Issue`] and [`Ev::Arrive`] make them, a one-event harness that
//! records what a handler schedules, and a small cluster whose ingress can
//! be inspected as a run left it.

use palladium_membuf::{FnId, NodeId};
use palladium_simnet::{Effects, Engine, Execution, Harness, Nanos, RunStats, Slab};

use super::health::IngressChaos;
use super::overload::IngressOverload;
use super::{
    ChaosReport, ClosedLedger, ClusterShardedConfig, ClusterShardedSim, Ev, IngressState,
    OverloadConfig, Phase, ReqState, Requests,
};
use crate::config::CostModel;
use crate::connpool::{ConnPool, ConnPoolConfig};
use crate::driver::chain::{AppSpec, ChainSpec, FnSpec, HopSpec};
use crate::ingress::{IngressConfig, IngressGateway};
use crate::rbr::RbrTable;
use crate::system::{IngressKind, SystemKind};

/// What a worker pays to rejoin, and an autoscaled pair to activate.
pub(super) const BILL: Nanos = Nanos::from_micros(400);

/// An ingress over `pairs` worker pairs: open loop under `overload` (no
/// warm-up, a 100 ms horizon), closed loop without; the health plane on iff
/// `chaos`.
pub(super) fn ingress(pairs: usize, overload: Option<OverloadConfig>, chaos: bool) -> IngressState {
    let cost = CostModel::default();
    IngressState {
        gw: IngressGateway::new(IngressConfig::new(IngressKind::Palladium).with_fixed_workers(8), cost),
        rbr: RbrTable::new(),
        conns: ConnPool::new(NodeId(2 * pairs as u16), ConnPoolConfig::default()),
        tx: Slab::new(),
        reqs: Requests::new(),
        closed: ClosedLedger::new(Nanos::ZERO),
        stats: RunStats::new(Nanos::ZERO),
        client_wire: cost.client_wire,
        leg_bytes: vec![(64, 64); pairs],
        counts: ChaosReport::default(),
        chaos: chaos.then(|| IngressChaos::new(pairs, BILL)),
        overload: overload
            .map(|ov| IngressOverload::new(ov, pairs, 7, Nanos::ZERO, Nanos::from_millis(100), BILL)),
    }
}

/// A request from `client` at `now`: in flight (and counted issued) on a
/// closed loop, waiting on an open one. Returns its id.
pub(super) fn request(ing: &mut IngressState, client: usize, now: Nanos) -> u64 {
    let phase = match ing.overload {
        Some(_) => Phase::Waiting,
        None => {
            ing.closed.issued += 1;
            Phase::InFlight
        }
    };
    ing.reqs.push(ReqState::new(client, now, phase))
}

/// Run `handler` as the one event firing at `now`, and return what it
/// scheduled, in firing order.
pub(super) fn handle(now: Nanos, handler: impl FnOnce(&mut Effects<'_, Ev>)) -> Vec<(Nanos, Ev)> {
    struct Once<F> {
        handler: Option<F>,
        scheduled: Vec<(Nanos, Ev)>,
    }
    impl<F: FnOnce(&mut Effects<'_, Ev>)> Engine for Once<F> {
        type Ev = Ev;
        fn on_event(&mut self, now: Nanos, ev: Ev, fx: &mut Effects<'_, Ev>) {
            match self.handler.take() {
                Some(handler) => handler(fx),
                None => self.scheduled.push((now, ev)),
            }
        }
    }
    let mut harness = Harness::new();
    harness.schedule_at(now, Ev::HealthCheck);
    let mut once = Once { handler: Some(handler), scheduled: Vec::new() };
    harness.run(&mut once, Nanos::MAX);
    once.scheduled
}

/// A Palladium DNE cluster of `pairs` pairs, each running a two-function
/// chain across its two workers (A on the first, B on the second: A → B →
/// A, then the response).
pub(super) fn cluster(pairs: usize) -> ClusterShardedConfig {
    let us = Nanos::from_micros;
    let mut app = AppSpec { functions: Vec::new(), chains: Vec::new() };
    for p in 0..pairs {
        let (a, b) = (FnId(1 + 16 * p as u16), FnId(2 + 16 * p as u16));
        app.functions.push(FnSpec { id: a, name: "A", node: 2 * p, exec: us(15) });
        app.functions.push(FnSpec { id: b, name: "B", node: 2 * p + 1, exec: us(10) });
        let hops = vec![HopSpec { from: a, to: b, bytes: 512 }, HopSpec { from: b, to: a, bytes: 256 }];
        app.chains.push(ChainSpec { name: "ab", entry: a, hops, req_bytes: 256, resp_bytes: 512 });
    }
    ClusterShardedConfig::new(SystemKind::PalladiumDne, app, pairs)
}

/// The ingress of a `cfg` run on one shard, as the run left it.
pub(super) fn ingress_after(cfg: ClusterShardedConfig) -> IngressState {
    let mut run = ClusterShardedSim::new(cfg).simulate(1, Execution::Sequential);
    run.engines[0].ingress.take().expect("one shard owns the ingress")
}
