//! Wiring and folding: [`ClusterShardedSim`] builds the fabric spans, pools,
//! engines and ingress state of a run in one canonical global order,
//! distributes them over the shards, runs the sharded kernel, and folds the
//! shards' counters back into one [`ClusterShardedReport`].

use palladium_membuf::{CopyMeter, MmapExporter, NodeId, PayloadCache, PoolId, Region, UnifiedPool};
use palladium_rdma::{RdmaConfig, RdmaNet, Step};
use palladium_simnet::{
    run_sharded, Execution, FifoServer, IdTable, Nanos, Partition, RunStats, ServerBank, ShardConfig,
    ShardRun, Slab,
};

use super::baselines::HostPlane;
use super::health::{IngressChaos, HEARTBEAT_PERIOD};
use super::overload::IngressOverload;
use super::{
    gateway_workers, ChaosReport, ClosedLedger, ClusterShard, ClusterShardedConfig,
    ClusterShardedReport, Ev, IngressState, Requests, BUF_SIZE, FN_CORES, TENANT,
};
use crate::config::{CostModel, EngineLocation};
use crate::connpool::{ConnPool, ConnPoolConfig};
use crate::dne::Dne;
use crate::driver::chain::{ChainReport, Station, INGRESS_FN};
use crate::driver::LoadReport;
use crate::dwrr::SchedPolicy;
use crate::ingress::{IngressConfig, IngressGateway};
use crate::rbr::RbrTable;
use crate::routing::{Coordinator, DeployEvent};
use crate::price::Prices;
use crate::system::DataPlane;

/// Receive buffers every two-sided-RDMA node posts before the run starts.
const INITIAL_RQ: u64 = 512;

/// Transport retry budget under chaos *without* an overload retry policy —
/// the legacy "undying" configuration: the QP never suicides, go-back-N
/// redelivers once a partition lifts, and failover belongs to the health
/// plane alone.
const UNDYING_RETRY: u32 = 100_000;

/// Establish `count` RC connections from global node `a` to `b` — within
/// one fabric instance when both live on the same shard, across two
/// instances otherwise — adopting the local endpoints into `pool`. Every
/// wiring call site runs in one canonical global order, so each RNIC's
/// QP-creation sequence (and therefore every QPN) is identical at every
/// shard count.
fn warm_conns(
    pool: &mut ConnPool,
    nets: &mut [RdmaNet],
    part: &Partition,
    a: usize,
    b: usize,
    count: usize,
) {
    let (na, nb) = (NodeId(a as u16), NodeId(b as u16));
    let (sa, sb) = (part.shard_of(a), part.shard_of(b));
    for _ in 0..count {
        let (qa, _qb) = if sa == sb {
            nets[sa].connect_immediate(na, nb, TENANT)
        } else if sa < sb {
            let (left, right) = nets.split_at_mut(sb);
            RdmaNet::connect_pair_immediate(&mut left[sa], na, &mut right[0], nb, TENANT)
        } else {
            let (left, right) = nets.split_at_mut(sa);
            RdmaNet::connect_pair_immediate(&mut right[0], na, &mut left[sb], nb, TENANT)
        };
        pool.adopt(nb, TENANT, qa);
    }
}

/// The station of `servers` on `node`, read at `horizon`.
fn station<'a>(
    name: &'static str,
    node: usize,
    horizon: Nanos,
    servers: impl IntoIterator<Item = &'a FifoServer>,
) -> Station {
    let mut st = Station { name, node, cores: 0, busy: Nanos::ZERO, backlog: Nanos::ZERO };
    for s in servers {
        st.cores += 1;
        st.busy += s.busy_time();
        st.backlog += s.backlog(horizon);
    }
    st
}

/// The sharded Fig 16 cluster simulation.
pub struct ClusterShardedSim {
    cfg: ClusterShardedConfig,
}

impl ClusterShardedSim {
    /// Build a run of any of the six data planes. Panics, with the reason,
    /// on a configuration no run can honour (see
    /// [`ClusterShardedConfig::validate`]).
    pub fn new(cfg: ClusterShardedConfig) -> Self {
        cfg.validate();
        ClusterShardedSim { cfg }
    }

    /// Total nodes: `2·pairs` workers plus the ingress.
    pub fn nodes(&self) -> usize {
        2 * self.cfg.pairs + 1
    }

    /// Run partitioned over `shards` shards in the given execution mode.
    /// Reports are bit-identical across shard counts and execution modes
    /// (see the module docs; `tests/cluster_sharded.rs` pins it). Only the
    /// two-sided-RDMA systems shard: the baselines' TCP and one-sided-write
    /// legs are node-to-node *local* events, so they require `shards == 1`.
    pub fn run(&self, shards: usize, execution: Execution) -> ClusterShardedReport {
        self.run_on(shards, execution, false)
    }

    /// The [`ChainSim`](crate::driver::chain::ChainSim) run: one shard, the
    /// fabric delivering frames itself instead of through the mailboxes, and
    /// therefore one window spanning the whole horizon — the serial event
    /// loop, with no per-window cost. Same bytes and event count as
    /// `run(1, _)` on the pinned, unjittered configuration of
    /// `tests/one_engine.rs`, but not in general: at the benchmark's full
    /// horizon, with ±1 % drawn execution costs, `boutique_closed` seed 3
    /// reads 73 701.4 rps and a 434.203 µs mean here against 73 670 rps and
    /// 434.344 µs through the mailboxes, and `openloop_80k` seed 2 a p99 of
    /// 550.863 µs against 549.118 µs (seed 1 matches on both). The serial
    /// loop stays because it is cheaper: `ChainSim` through `run(1,
    /// Sequential)` kept `baseline_fuyao`'s results but cost 13–33 % more
    /// run wall time on a 2-vCPU host.
    pub(crate) fn run_direct(&self) -> ClusterShardedReport {
        self.run_on(1, Execution::Sequential, true)
    }

    fn run_on(&self, shards: usize, execution: Execution, direct: bool) -> ClusterShardedReport {
        self.fold(shards, self.simulate(shards, execution, direct))
    }

    /// Build the shards and run them: the run, with every shard as it ended.
    pub(super) fn simulate(
        &self,
        shards: usize,
        execution: Execution,
        direct: bool,
    ) -> ShardRun<ClusterShard> {
        let cfg = &self.cfg;
        let n_nodes = self.nodes();
        let ingress_node = 2 * cfg.pairs;
        assert!(shards >= 1 && shards <= n_nodes, "1..=nodes shards");
        let part = Partition::new(n_nodes, shards);
        let spec = cfg.system.spec();
        let palladium = matches!(spec.plane, DataPlane::Dne { .. });
        assert!(
            palladium || shards == 1,
            "{:?} does not shard: its inter-node legs are local events",
            cfg.system
        );
        let price = Prices::of(cfg.system);
        let mut rdma_cfg = RdmaConfig::default();
        let chaos = cfg.chaos.as_ref().map(|script| script.compile(n_nodes));
        if chaos.is_some() {
            // Chaos runs must survive multi-millisecond partitions:
            // at the default rto (500 µs) the stock retry budget (7)
            // gives up after ~3.5 ms of outage and kills the QP. Raise
            // it so go-back-N redelivers once the window ends; failover
            // comes from the health plane, not from QP suicide. An
            // overload config can bound the transport budget instead —
            // the undying loop is what turns a transient fault into a
            // retry-storm metastable failure.
            let bounded = cfg.overload.as_ref().and_then(|o| o.retry.transport_retry);
            let limit = bounded.unwrap_or(UNDYING_RETRY);
            rdma_cfg.retry_limit = limit;
            rdma_cfg.rnr_retry_limit = limit;
        }

        // Per-shard fabric spans, in sharded-egress mode unless the run is
        // direct. Every instance gets the *same* seed: fault RNG streams
        // are derived per global node id inside the fabric
        // ([`palladium_simnet::SimRng::stream`]), so verdict sequences —
        // and therefore faulty runs — are identical at every shard count.
        let mut nets: Vec<RdmaNet> = (0..shards)
            .map(|s| {
                let mut net = RdmaNet::with_span(rdma_cfg, part.range(s), cfg.seed);
                net.set_sharded_egress(!direct);
                if let Some(ch) = &chaos {
                    // Full-fabric partition table on every instance (an
                    // arriving frame's source may live on any shard);
                    // per-node fault timelines only where owned.
                    net.set_down_windows(ch.down.clone());
                    for n in part.range(s) {
                        if !ch.faults[n].is_none() {
                            net.set_node_fault(NodeId(n as u16), ch.faults[n].clone());
                        }
                        // Directed gray links land on the destination's
                        // owning shard (faults apply at the destination
                        // port — same invariance discipline).
                        for (src, tl) in &ch.links[n] {
                            net.set_link_fault(NodeId(*src as u16), NodeId(n as u16), tl.clone());
                        }
                    }
                }
                net
            })
            .collect();

        // Pools + MR registration on the owning shard, global node order.
        let mut pools = Vec::with_capacity(n_nodes);
        for n in 0..n_nodes {
            let pool = UnifiedPool::new(PoolId(n as u16), TENANT, cfg.pool_bufs, BUF_SIZE);
            let mut exporter =
                MmapExporter::new(PoolId(n as u16), TENANT, Region::hugepages(pool.backing_len()));
            nets[part.shard_of(n)]
                .register_mr(NodeId(n as u16), &exporter.export_rdma())
                .expect("register pool MR");
            pools.push(pool);
        }

        // Routing over the remapped function ids.
        let mut coord = Coordinator::new();
        for f in &cfg.app.functions {
            coord.apply(DeployEvent::Created {
                f: f.id,
                tenant: TENANT,
                node: NodeId(f.node as u16),
            });
        }
        coord.apply(DeployEvent::Created {
            f: INGRESS_FN,
            tenant: TENANT,
            node: NodeId(ingress_node as u16),
        });

        // Palladium: a DNE per worker node, in global node order, and the
        // ingress's early-conversion connections. The baselines run the
        // host plane instead and terminate TCP at the gateway.
        let cpp = ConnPoolConfig::default().conns_per_peer;
        let mut dnes: Vec<Dne> = Vec::new();
        let mut ingress_conns = ConnPool::new(NodeId(ingress_node as u16), ConnPoolConfig::default());
        let mut host = None;
        match spec.plane {
            DataPlane::Dne { .. } => {
                dnes.extend((0..2 * cfg.pairs).map(|n| {
                    let mut dne = Dne::priced(
                        price.dne.expect("a DNE plane prices its engine"),
                        SchedPolicy::Dwrr,
                        ConnPool::new(NodeId(n as u16), ConnPoolConfig::default()),
                    );
                    dne.routes = coord.tables_for(NodeId(n as u16));
                    dne.register_tenant(TENANT, 1);
                    dne
                }));
                // Warm RC connections in one canonical global order (see
                // `warm_conns` on QPN invariance): per pair worker↔worker and
                // worker→ingress, then ingress→workers.
                for p in 0..cfg.pairs {
                    let (w0, w1) = (2 * p, 2 * p + 1);
                    warm_conns(&mut dnes[w0].pool, &mut nets, &part, w0, w1, cpp);
                    warm_conns(&mut dnes[w1].pool, &mut nets, &part, w1, w0, cpp);
                    warm_conns(&mut dnes[w0].pool, &mut nets, &part, w0, ingress_node, cpp);
                    warm_conns(&mut dnes[w1].pool, &mut nets, &part, w1, ingress_node, cpp);
                }
                for p in 0..cfg.pairs {
                    warm_conns(&mut ingress_conns, &mut nets, &part, ingress_node, 2 * p, cpp);
                    warm_conns(&mut ingress_conns, &mut nets, &part, ingress_node, 2 * p + 1, cpp);
                }
            }
            DataPlane::Host(_) => host = Some(HostPlane::new(cfg, &mut nets[0])),
        }

        // Assemble the shard engines: distribute the per-node state along
        // the partition (shards and node blocks are both ascending, so
        // draining in order preserves global node order).
        let mut pool_it = pools.into_iter();
        let mut dne_it = dnes.into_iter();
        // What a worker pays to (re)join: its pool width in QPs (partner +
        // ingress connections), one MR registration, its pool bytes re-synced.
        let rejoin_bill = cfg.rejoin.cost(2 * cpp, cfg.pool_bufs as u64 * BUF_SIZE as u64);
        let horizon = cfg.warmup + cfg.duration;
        let mut ingress_state = Some(IngressState {
            gw: IngressGateway::new(
                IngressConfig::new(spec.ingress).with_fixed_workers(gateway_workers(spec.ingress)),
                CostModel::default(),
            ),
            rbr: RbrTable::new(),
            conns: ingress_conns,
            tx: Slab::new(),
            reqs: Requests::new(),
            closed: ClosedLedger::new(cfg.warmup),
            stats: RunStats::new(cfg.warmup),
            client_wire: price.client_wire,
            leg_bytes: cfg
                .app
                .chains
                .iter()
                .map(|c| (c.req_bytes as u64, c.resp_bytes as u64))
                .collect(),
            counts: ChaosReport::default(),
            chaos: chaos.as_ref().map(|_| IngressChaos::new(cfg.pairs, rejoin_bill)),
            overload: cfg.overload.as_ref().map(|o| {
                IngressOverload::new(o.clone(), cfg.pairs, cfg.seed, cfg.warmup, horizon, rejoin_bill)
            }),
        });
        // First arrival time + scale-tick interval, captured before the
        // ingress state moves into its shard.
        let overload_first = ingress_state
            .as_ref()
            .and_then(|i| i.overload.as_ref().map(IngressOverload::first_events));
        let mut engines: Vec<ClusterShard> = Vec::with_capacity(shards);
        for (s, net) in nets.into_iter().enumerate() {
            let range = part.range(s);
            let mut shard = ClusterShard {
                lo: range.start,
                shard_of: part.shard_lookup(),
                ingress_node,
                chains: cfg.app.chains.clone(),
                placement: {
                    let mut t = IdTable::new();
                    for f in &cfg.app.functions {
                        t.insert(f.id.raw() as usize, f.node);
                    }
                    t
                },
                fn_exec: {
                    let mut t = IdTable::new();
                    for f in &cfg.app.functions {
                        t.insert(f.id.raw() as usize, f.exec);
                    }
                    t
                },
                spec,
                price,
                pools: Vec::new(),
                meters: Vec::new(),
                fn_cores: Vec::new(),
                dnes: Vec::new(),
                inbound_tokens: Vec::new(),
                host: host.take(),
                net,
                ingress: None,
                chaos: chaos.clone(),
                counts: ChaosReport::default(),
                rdma_step: Step::default(),
                post_step: Step::default(),
                cqe_scratch: Vec::new(),
                dne_fx: Vec::new(),
                payloads: PayloadCache::new(),
            };
            for n in range.clone() {
                shard.pools.push(pool_it.next().expect("pool per node"));
                shard.meters.push(CopyMeter::new());
                shard.inbound_tokens.push(IdTable::new());
                if n == ingress_node {
                    shard.fn_cores.push(None);
                    shard.dnes.push(None);
                    shard.ingress = ingress_state.take();
                } else {
                    shard.fn_cores.push(Some(ServerBank::new(FN_CORES)));
                    shard.dnes.push(dne_it.next());
                }
            }
            // Prime receive queues (node-local work, shard-count-invariant);
            // only two-sided RDMA posts receives.
            if palladium {
                for n in range {
                    shard.replenish(n, INITIAL_RQ);
                }
            }
            engines.push(shard);
        }

        let scfg = if direct {
            // Nothing crosses a mailbox, so nothing bounds the window.
            ShardConfig::new(1, horizon + Nanos(1))
        } else {
            // The window is the frame lookahead: no frame lands sooner.
            ShardConfig::new(shards, rdma_cfg.frame_lookahead())
        }
        .execution(execution);
        let clients = cfg.clients;
        let ingress_shard = part.shard_of(ingress_node);
        let chaos_on = chaos.is_some();
        run_sharded(
            &scfg,
            engines,
            |s, h| {
                if chaos_on {
                    // The health plane: per-worker probes on the owning
                    // shard, the suspicion sweep on the ingress shard.
                    // Never scheduled fault-free, so the fault-free event
                    // schedule (and its goldens) is untouched.
                    for n in part.range(s) {
                        if n != ingress_node {
                            h.schedule_at(Nanos::ZERO, Ev::HeartbeatTick { n });
                        }
                    }
                }
                if s == ingress_shard {
                    if let Some((first, tick)) = overload_first {
                        // Open loop: arrivals come from the generator, not
                        // from completions — overload is reachable.
                        h.schedule_at(first, Ev::Arrive);
                        if let Some(interval) = tick {
                            h.schedule_at(interval, Ev::ScaleTick);
                        }
                    } else {
                        for client in 0..clients {
                            h.schedule_at(Nanos::ZERO, Ev::Issue { client });
                        }
                    }
                    if chaos_on {
                        h.schedule_at(HEARTBEAT_PERIOD, Ev::HealthCheck);
                    }
                }
            },
            horizon,
        )
    }

    /// Fold the report of a run over `shards` shards in global node order
    /// (identical floats at every shard count).
    fn fold(&self, shards: usize, run: ShardRun<ClusterShard>) -> ClusterShardedReport {
        let cfg = &self.cfg;
        let n_nodes = self.nodes();
        let ingress_node = 2 * cfg.pairs;
        let part = Partition::new(n_nodes, shards);
        let spec = cfg.system.spec();
        let horizon = cfg.warmup + cfg.duration;
        let ingress_shard = part.shard_of(ingress_node);
        let mut engines = run.engines;
        let mut worker_meter = CopyMeter::new();
        let mut cpu_pct = 0.0;
        let mut dpu_pct = 0.0;
        let mut stations = Vec::new();
        for n in 0..n_nodes {
            let e = &engines[part.shard_of(n)];
            let li = n - e.lo;
            if n == ingress_node {
                let gw = &e.ingress.as_ref().expect("ingress state").gw;
                stations.push(station("ingress", n, horizon, gw.active_servers()));
            } else {
                worker_meter.merge(&e.meters[li]);
                let bank = e.fn_cores[li].as_ref().expect("worker node");
                let backlog = (0..FN_CORES).map(|i| bank.get(i).backlog(horizon)).sum();
                let busy = bank.busy_time();
                stations.push(Station { name: "fn cores", node: n, cores: FN_CORES, busy, backlog });
                if let Some(host) = &e.host {
                    stations.push(station("host engine", n, horizon, [&host.engines[n]]));
                }
            }
            if let Some(dne) = e.dnes[li].as_ref() {
                stations.push(station("dne worker", n, horizon, [&dne.worker_core]));
                stations.push(station("dne core thread", n, horizon, [&dne.core_thread]));
                if matches!(spec.plane, DataPlane::Dne { loc: EngineLocation::Dpu }) {
                    // Busy-polling DNE worker cores: 100% each (§4.3.1), plus
                    // the core thread's useful time.
                    dpu_pct += 100.0;
                    dpu_pct += 100.0 * dne.core_thread.utilization(horizon);
                } else {
                    cpu_pct += 100.0 * dne.worker_core.utilization(horizon);
                    cpu_pct += 100.0 * dne.core_thread.utilization(horizon);
                }
            }
            let rnic = e.net.rnic(NodeId(n as u16));
            stations.push(station("rnic egress", n, horizon, [&rnic.egress]));
            stations.push(station("rnic rx", n, horizon, [&rnic.rx_engine]));
        }
        if let Some(host) = &engines[0].host {
            cpu_pct += host.cpu_pct(horizon);
        }
        // Fault/protocol counters fold in shard order; health/failover
        // counters live on the ingress. Both are deterministic per the
        // invariance discipline.
        let mut ing = engines[ingress_shard].ingress.take().expect("ingress state");
        let mut chaos_rep = std::mem::take(&mut ing.counts);
        for e in &engines {
            chaos_rep.absorb(&e.counts);
            let net = &e.net.counters;
            chaos_rep.fault_drops += net.drop;
            chaos_rep.crash_drops += net.crash_drop;
            chaos_rep.corrupt += net.corrupt;
            chaos_rep.rto += net.rto;
            chaos_rep.rnr_naks += net.rnr_nak;
        }
        if let Some(cx) = ing.chaos.as_ref().filter(|cx| !cx.ttr.is_empty()) {
            chaos_rep.ttr_p50 = cx.ttr.p50();
            chaos_rep.ttr_p99 = cx.ttr.p99();
        }
        let overload_rep = ing.fold_overload();
        let [p50, p99, p999] = [50.0, 99.0, 99.9].map(|p| ing.stats.bucketed_percentile(p));
        let mean_latency = ing.stats.latency().mean();
        let load: LoadReport = ing.stats.report(cfg.duration);
        let chain = ChainReport {
            rps: load.rps,
            mean_latency,
            software_copy_bytes: worker_meter.sw_bytes,
            software_copy_ops: worker_meter.sw_ops,
            rnic_dma_bytes: worker_meter.rnic_dma_bytes,
            cpu_util_pct: cpu_pct,
            dpu_util_pct: dpu_pct,
            stations,
            load,
        };
        ClusterShardedReport {
            chain,
            events: run.events,
            messages: run.messages,
            spilled: 0,
            windows: run.windows,
            work: run.work,
            critical_path_work: run.critical_path_work,
            busy_ns: run.busy_ns,
            critical_path_ns: run.critical_path_ns,
            channels: run.channels,
            p50,
            p99,
            p999,
            chaos: chaos_rep,
            overload: overload_rep,
        }
    }
}
