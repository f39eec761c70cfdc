//! What an op costs: every service time an engine charges, resolved once
//! per system, and the walk that sums them into a request's demand on each
//! station.
//!
//! `Prices::of` reads the cost tables ([`CostModel`], the channel tables
//! of `palladium_ipc`, the stack tables of `palladium_tcpstack`) and
//! specialises them to one system's data plane and engine location: which
//! channel its functions reach their engine over, what an engine op costs
//! where the engine runs, which TCP stack its workers terminate. Every
//! engine charges only from that value and the consts beside it: the
//! cluster engine (`ClusterShard`, its host plane, its [`Dne`]s), the
//! ingress gateway and the engines of Figs 11–15. [`demand`] folds the
//! same value over a chain's hops, so what a request costs each station is
//! a computed number, equal in integer nanoseconds to what one request
//! books on a run (`tests/demand.rs`).
//!
//! A message between a function and anything else crosses one
//! [`Channel`]: SK_MSG from a function of the same node, the engine's
//! channel from the node's engine ([`Prices::channel`]). Every engine
//! charges its `send` on the sender's core and its `recv` on the
//! receiving function's core, booked when the message reaches that core.
//!
//! [`Dne`]: crate::dne::Dne

// A cost-model funnel: a bare truncating cast here corrupts virtual time,
// so conversions saturate (`Nanos::from_f64_saturating`, checked ops).
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)
)]

use std::iter::once;

use palladium_ipc::{Channel, ChannelCosts, ChannelKind};
use palladium_membuf::FnId;
use palladium_simnet::{ByteCost, Nanos};
use palladium_tcpstack::{IngressServiceModel, StackKind, TcpCosts};

use crate::config::{CostModel, EngineLocation};
use crate::driver::chain::{AppSpec, Station, INGRESS_FN};
use crate::driver::cluster_sharded::{gateway_workers, ClusterShardedConfig, FN_CORES};
use crate::driver::echo::Primitive;
use crate::ingress::Leg;
use crate::system::{DataPlane, HostHop, IngressKind, SystemKind};

/// A network engine's three ops where it runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct DneOps {
    /// Worker core: take one completion (a receive, or a send's
    /// completion) and act on it.
    pub(crate) rx: Nanos,
    /// Worker core: dequeue one descriptor and post its send.
    pub(crate) tx: Nanos,
    /// Core thread: re-post one consumed receive buffer.
    pub(crate) replenish: Nanos,
}

impl DneOps {
    /// The ops at `loc`. On the DPU every op scales by the wimpy factor;
    /// on a host core (the CNE) a worker op is the host-speed op plus one
    /// SK_MSG interrupt, and the core thread's replenish is the host-speed
    /// op alone.
    pub(crate) fn at(loc: EngineLocation, cost: &CostModel) -> DneOps {
        match loc {
            EngineLocation::Dpu => DneOps {
                rx: cost.soc.scale(cost.engine_rx),
                tx: cost.soc.scale(cost.engine_tx),
                replenish: cost.soc.scale(cost.engine_replenish),
            },
            EngineLocation::Cpu => DneOps {
                rx: cost.engine_rx + cost.cne_interrupt,
                tx: cost.engine_tx + cost.cne_interrupt,
                replenish: cost.engine_replenish,
            },
        }
    }
}

/// The DNE's four prices, side by side. The cluster's is [`DneOps::at`]:
/// on the DPU, 700 ns × the wimpy factor = 1 554 ns per RX or TX op. Fig
/// 9's is its channel's, `ChannelCosts::dne_cpu`: 2.2 µs per Comch-E op.
/// The figure engines' two follow.
impl DneOps {
    /// Figs 11–12: one op of the bare echo loop (no Comch endpoints, no
    /// DWRR). Fitted: the two-sided 64 B echo lands at the paper's 8.4 µs
    /// RTT.
    pub(crate) const ECHO_OP: Nanos = Nanos::from_nanos(500);
    /// Fig 15: one tenant request. Quoted: §4.2 configures the engine to
    /// sustain ≈ 110 K rps, 9.09 µs per request.
    pub(crate) const FAIRNESS_REQUEST: Nanos = Nanos::from_nanos(9_090);
}

/// What an ingress gateway worker charges per leg, for one design.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LegPrices {
    kind: IngressKind,
    model: IngressServiceModel,
}

impl LegPrices {
    /// The legs of design `kind`, on its client-facing stack.
    pub(crate) fn new(kind: IngressKind) -> LegPrices {
        LegPrices { kind, model: IngressServiceModel::new(kind.stack()) }
    }

    /// One `leg` of a request of `req_bytes` answered with `resp_bytes`.
    pub(crate) fn of(&self, leg: Leg, req_bytes: u64, resp_bytes: u64) -> Nanos {
        let m = &self.model;
        match (self.kind, leg) {
            // Early conversion: rx + parse + RDMA post inbound; RDMA reap +
            // serialize + tx outbound.
            (IngressKind::Palladium, Leg::Inbound) => {
                m.client_stack.rx(req_bytes) + m.http.parse + m.bridge.post
            }
            (IngressKind::Palladium, Leg::Outbound) => {
                m.bridge.reap + m.http.serialize + m.client_stack.tx(resp_bytes)
            }
            // Deferred conversion: full proxy legs; proxy bookkeeping split
            // across both halves.
            (_, Leg::Inbound) => {
                m.client_stack.rx(req_bytes)
                    + m.http.parse
                    + m.client_stack.tx(req_bytes)
                    + m.http.proxy_overhead / 2
            }
            (_, Leg::Outbound) => {
                m.client_stack.rx(resp_bytes)
                    + m.http.serialize
                    + m.client_stack.tx(resp_bytes)
                    + m.http.proxy_overhead / 2
            }
        }
    }
}

/// Every service time and wire delay one system's run charges,
/// specialised to its data plane and engine location. The only place an
/// engine's costs are chosen: its arms charge these and nothing else.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Prices {
    /// Between two functions of one node, and from a function into its
    /// host engine's dispatch: SK_MSG.
    pub(crate) local: Channel,
    /// Between a function and its node's engine, either way: Comch-E's
    /// host side to a DNE on the DPU, SK_MSG to an engine on the host.
    pub(crate) engine: Channel,
    /// The network engine's ops, on a [`DataPlane::Dne`] system.
    pub(crate) dne: Option<DneOps>,
    /// Host engine: dispatch one hop between two functions of its node
    /// (NightCore's gateway), booked when the hop reaches the engine, one
    /// SK_MSG transit after its send. `None`: the hop goes straight to its
    /// receiver.
    pub(crate) dispatch: Option<Nanos>,
    /// Host engine: the worker end of the gateway's TCP connection, on the
    /// ingress design's stack (it also receives SPRIGHT's inter-node legs).
    worker_tcp: TcpCosts,
    /// Host engine: SPRIGHT's inter-node transmit, on the kernel stack.
    internode_tcp: TcpCosts,
    /// Host engine: one FUYAO engine op (send side, and the receiver's
    /// pickup before its copy).
    pub(crate) fuyao_op: Nanos,
    /// The FUYAO receiver's copy of a write's dedicated slot into its
    /// unified pool (cold: OWRC).
    copy: ByteCost,
    /// A one-sided write's wait for the receiver's poller: half a poll
    /// interval, the deterministic mean.
    pub(crate) poll_wait: Nanos,
    /// Client ↔ gateway one-way.
    pub(crate) client_wire: Nanos,
    /// Gateway ↔ worker and worker ↔ worker one-way over TCP.
    pub(crate) tcp_wire: Nanos,
    /// The gateway worker's legs.
    pub(crate) legs: LegPrices,
}

impl Prices {
    /// Fig 11: one run of an echo function. Assumed.
    pub(crate) const ECHO_FN_EXEC: Nanos = Nanos::from_micros(1);
    /// Figs 13–14: one run of the worker's echo function. Assumed.
    pub(crate) const INGRESS_FN_EXEC: Nanos = Nanos::from_micros(2);

    /// The prices of `system`, at the default cost model.
    pub(crate) fn of(system: SystemKind) -> Prices {
        let cost = CostModel::default();
        let spec = system.spec();
        let engine = match spec.plane {
            DataPlane::Dne { loc: EngineLocation::Dpu } => ChannelCosts::for_kind(ChannelKind::ComchE).host,
            _ => Channel::SK_MSG,
        };
        Prices {
            local: Channel::SK_MSG,
            engine,
            dne: match spec.plane {
                DataPlane::Dne { loc } => Some(DneOps::at(loc, &cost)),
                DataPlane::Host(_) => None,
            },
            dispatch: (spec.plane == DataPlane::Host(HostHop::Local)).then_some(cost.nightcore_dispatch),
            worker_tcp: TcpCosts::for_kind(spec.ingress.stack()),
            internode_tcp: TcpCosts::for_kind(StackKind::Kernel),
            fuyao_op: cost.fuyao_engine_op,
            copy: cost.copy_per_byte_cold,
            poll_wait: cost.onesided_poll_interval / 2,
            client_wire: cost.client_wire,
            tcp_wire: TcpCosts::INTER_NODE_WIRE,
            legs: LegPrices::new(spec.ingress),
        }
    }

    /// The channel a message crosses to a function: [`Prices::local`]
    /// from a function of the same node, [`Prices::engine`] from anywhere
    /// else (its node's engine delivers it). Both ends charge from it.
    pub(crate) fn channel(&self, same_node: bool) -> Channel {
        if same_node {
            self.local
        } else {
            self.engine
        }
    }

    /// Fig 12: what `prim` adds on the DNE core for a `bytes` payload: the
    /// OWDL lock manager's processing of one request, and the OWRC
    /// receiver's copy into its local pool (zero for the others).
    pub(crate) fn primitive(prim: Primitive, bytes: u64) -> (Nanos, Nanos) {
        let cost = CostModel::default();
        let copy = match prim {
            Primitive::OwrcBest => cost.owrc_copy(bytes, false),
            Primitive::OwrcWorst => cost.owrc_copy(bytes, true),
            Primitive::TwoSided | Primitive::Owdl => Nanos::ZERO,
        };
        (cost.owdl_lock_proc, copy)
    }

    /// Host engine: receive a TCP leg of `bytes`.
    pub(crate) fn tcp_rx(&self, bytes: u32) -> Nanos {
        self.worker_tcp.rx(u64::from(bytes))
    }

    /// Host engine: transmit the response leg of `bytes` to the gateway.
    pub(crate) fn tcp_tx(&self, bytes: u32) -> Nanos {
        self.worker_tcp.tx(u64::from(bytes))
    }

    /// Host engine: transmit a SPRIGHT hop of `bytes` to another node.
    pub(crate) fn internode_tx(&self, bytes: u32) -> Nanos {
        self.internode_tcp.tx(u64::from(bytes))
    }

    /// Host engine: a FUYAO receiver picks up a one-sided write of `bytes`
    /// from its dedicated region's slot and copies it into the unified
    /// pool.
    pub(crate) fn pickup(&self, bytes: u64) -> Nanos {
        self.fuyao_op + self.copy.cost(bytes)
    }
}

/// The demand one request of `app`'s chain `chain` puts on every station
/// the engine charges from `Prices`, on a one-pair run of `system` (the
/// `ChainSim` topology: workers 0 and 1, the ingress at node 2). Each
/// station is named as in `ChainReport::stations`, in the same order, with
/// `busy` the service time the request books on it and `backlog` zero.
///
/// The walk follows the engine's arms: the gateway's two legs; per
/// message, the sender's hand-off and its engine's send, the receiver's
/// engine and delivery; on a DNE, a send's completion is one more RX op
/// on the sender and every receive re-posts one buffer on the core
/// thread. The RNIC stations are outside the walk: the fabric prices its
/// own frames (`palladium_rdma`), with a cache penalty that depends on the
/// connections a node holds and ACK frames that follow the transport's
/// schedule, not the system's table.
pub fn demand(system: SystemKind, app: &AppSpec, chain: usize) -> Vec<Station> {
    const INGRESS: usize = 2;
    let p = Prices::of(system);
    let spec = system.spec();
    // Placed as the run places them: a node-local system moves every
    // function onto the pair's first node.
    let placed = ClusterShardedConfig::new(system, app.clone(), 1).app.functions;
    let function = |f: FnId| placed.iter().find(|s| s.id == f).expect("a deployed function");
    let node = |f: FnId| if f == INGRESS_FN { INGRESS } else { function(f).node };
    let c = &app.chains[chain];
    let last = c.hops.last().map_or(c.entry, |h| h.to);
    let messages = once((INGRESS_FN, c.entry, c.req_bytes))
        .chain(c.hops.iter().map(|h| (h.from, h.to, h.bytes)))
        .chain(once((last, INGRESS_FN, c.resp_bytes)));

    let one_sided = spec.plane == DataPlane::Host(HostHop::OneSidedRecvCopy);
    let (mut fns, mut engine, mut core) = ([Nanos::ZERO; 2], [Nanos::ZERO; 2], [Nanos::ZERO; 2]);
    for (from, to, bytes) in messages {
        let (src, dst) = (node(from), node(to));
        let channel = p.channel(src == dst);
        if src != INGRESS {
            fns[src] += channel.send;
        }
        if src == dst {
            // Between two functions of one node: on NightCore one dispatch
            // through the node's host engine.
            engine[src] += p.dispatch.unwrap_or(Nanos::ZERO);
        } else {
            if src != INGRESS {
                engine[src] += match p.dne {
                    Some(dne) => dne.tx + dne.rx,
                    None if dst == INGRESS => p.tcp_tx(bytes),
                    None if one_sided => p.fuyao_op,
                    None => p.internode_tx(bytes),
                };
            }
            if dst != INGRESS {
                match p.dne {
                    Some(dne) => {
                        engine[dst] += dne.rx;
                        core[dst] += dne.replenish;
                    }
                    None if one_sided && src != INGRESS => engine[dst] += p.pickup(u64::from(bytes)),
                    None => engine[dst] += p.tcp_rx(bytes),
                }
            }
        }
        if dst != INGRESS {
            fns[dst] += channel.recv + function(to).exec;
        }
    }

    let station = |name, node, cores, busy| Station { name, node, cores, busy, backlog: Nanos::ZERO };
    let mut stations = Vec::new();
    for n in 0..2 {
        stations.push(station("fn cores", n, FN_CORES, fns[n]));
        match spec.plane {
            DataPlane::Host(_) => stations.push(station("host engine", n, 1, engine[n])),
            DataPlane::Dne { .. } => {
                stations.push(station("dne worker", n, 1, engine[n]));
                stations.push(station("dne core thread", n, 1, core[n]));
            }
        }
    }
    let legs = [Leg::Inbound, Leg::Outbound].map(|leg| {
        p.legs.of(leg, u64::from(c.req_bytes), u64::from(c.resp_bytes))
    });
    stations.push(station("ingress", INGRESS, gateway_workers(spec.ingress), legs[0] + legs[1]));
    stations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dpu_ops_scale_by_the_wimpy_factor_and_cne_ops_pay_the_interrupt() {
        let cost = CostModel::default();
        let (dpu, cpu) = (DneOps::at(EngineLocation::Dpu, &cost), DneOps::at(EngineLocation::Cpu, &cost));
        let host_tx = cpu.tx - cost.cne_interrupt;
        let ratio = dpu.tx.as_nanos() as f64 / host_tx.as_nanos() as f64;
        assert!((2.1..2.3).contains(&ratio), "ratio {ratio}");
        assert_eq!(cpu.rx, cost.engine_rx + cost.cne_interrupt);
        assert_eq!(cpu.replenish, cost.engine_replenish, "the core thread takes no interrupt");
    }

    #[test]
    fn only_a_dpu_engine_talks_comch_and_only_a_dne_plane_has_dne_ops() {
        let comch = ChannelCosts::for_kind(ChannelKind::ComchE).host;
        for system in SystemKind::ALL {
            let p = Prices::of(system);
            assert_eq!(p.local, Channel::SK_MSG, "{system:?}");
            assert_eq!(p.engine == comch, system == SystemKind::PalladiumDne, "{system:?}");
            assert_eq!(p.engine == Channel::SK_MSG, system != SystemKind::PalladiumDne, "{system:?}");
            assert_eq!(p.dne.is_some(), matches!(system.spec().plane, DataPlane::Dne { .. }), "{system:?}");
            assert_eq!(p.dispatch.is_some(), system == SystemKind::NightCore, "{system:?}");
        }
    }

    #[test]
    fn a_function_receives_at_the_price_of_the_channel_its_message_crossed() {
        use crate::driver::chain::{ChainSpec, FnSpec, HopSpec};
        // Two functions on worker 0: the request reaches A from the DNE,
        // A hands B one SK_MSG hop, and B's response goes back to the DNE.
        let exec = Nanos::from_micros(5);
        let app = AppSpec {
            functions: vec![
                FnSpec { id: FnId(1), name: "A", node: 0, exec },
                FnSpec { id: FnId(2), name: "B", node: 0, exec },
            ],
            chains: vec![ChainSpec {
                name: "one local hop",
                entry: FnId(1),
                hops: vec![HopSpec { from: FnId(1), to: FnId(2), bytes: 512 }],
                req_bytes: 256,
                resp_bytes: 512,
            }],
        };
        let comch = ChannelCosts::for_kind(ChannelKind::ComchE).host;
        let skmsg = Channel::SK_MSG;
        let fns = demand(SystemKind::PalladiumDne, &app, 0)
            .into_iter()
            .find(|s| (s.name, s.node) == ("fn cores", 0))
            .expect("worker 0's function cores");
        assert_eq!(fns.busy, comch.recv + exec + skmsg.send + skmsg.recv + exec + comch.send);
    }
}
