//! Unit-test scaffolding for the ingress request lifecycle: an
//! [`IngressState`] with no fabric behind it, requests made the way
//! [`Ev::Issue`] and [`Ev::Arrive`] make them, and a one-event harness that
//! records what a handler schedules.

use palladium_membuf::NodeId;
use palladium_simnet::{Effects, Engine, Harness, Nanos, RunStats, Slab};

use super::health::IngressChaos;
use super::overload::IngressOverload;
use super::{ChaosReport, Ev, IngressState, OverloadConfig, Phase, ReqState};
use crate::config::CostModel;
use crate::connpool::{ConnPool, ConnPoolConfig};
use crate::ingress::{IngressConfig, IngressGateway};
use crate::rbr::RbrTable;
use crate::system::IngressKind;

/// What a worker pays to rejoin, and an autoscaled pair to activate.
pub(super) const BILL: Nanos = Nanos::from_micros(400);

/// An ingress over `pairs` worker pairs: open loop under `overload` (no
/// warm-up, a 100 ms horizon), closed loop without; the health plane on iff
/// `chaos`.
pub(super) fn ingress(pairs: usize, overload: Option<OverloadConfig>, chaos: bool) -> IngressState {
    let cost = CostModel::default();
    IngressState {
        gw: IngressGateway::new(IngressConfig::new(IngressKind::Palladium), cost),
        rbr: RbrTable::new(),
        conns: ConnPool::new(NodeId(2 * pairs as u16), ConnPoolConfig::default()),
        tx: Slab::new(),
        reqs: Vec::new(),
        stats: RunStats::new(Nanos::ZERO),
        client_wire: cost.client_wire,
        leg_bytes: vec![(64, 64); pairs],
        counts: ChaosReport::default(),
        chaos: chaos.then(|| IngressChaos::new(pairs, BILL)),
        overload: overload
            .map(|ov| IngressOverload::new(ov, pairs, 7, Nanos::ZERO, Nanos::from_millis(100), BILL)),
    }
}

/// A request from `client` at `now`: in flight on a closed loop, waiting
/// (and stamped) on an open one. Returns its id.
pub(super) fn request(ing: &mut IngressState, client: usize, now: Nanos) -> u64 {
    let phase = match ing.overload.as_mut() {
        Some(ov) => {
            ov.since.push(now);
            Phase::Waiting
        }
        None => Phase::InFlight,
    };
    ing.reqs.push(ReqState::new(client, now, phase));
    ing.reqs.len() as u64 - 1
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
