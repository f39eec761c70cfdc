//! Layer probes: host nanoseconds per operation of one layer, driven from
//! outside through its public API with a fixed, seeded operation sequence.
//! They are the per-layer half of the traced run. Each probe times several
//! batches and reports the median, so one descheduled batch does not move
//! the number.

use std::hint::black_box;
use std::time::Duration;

use bytes::Bytes;
use palladium_core::connpool::{ConnPool, ConnPoolConfig};
use palladium_core::dne::{Dne, DneEffect, DneStep};
use palladium_core::dwrr::{SchedPolicy, TenantScheduler};
use palladium_core::ingress::{IngressConfig, IngressGateway, Leg};
use palladium_core::routing::{Coordinator, DeployEvent};
use palladium_core::system::IngressKind;
use palladium_core::{CostModel, EngineLocation};
use palladium_ipc::{ChannelKind, ComchServer};
use palladium_membuf::{
    BufDesc, FnId, MmapExporter, NodeId, Owner, PoolId, Region, TenantId, UnifiedPool,
};
use palladium_rdma::{
    Cqe, CqeKind, CqeStatus, OpKind, Qpn, RdmaConfig, RdmaEvent, RdmaNet, RqEntry, Step,
    WorkRequest, WrId,
};
use palladium_simnet::{EventQueue, Histogram, Nanos, OpenLoop, OpenLoopConfig, Sim, SimRng};

use crate::stats::median;
use crate::trace::{now, Tracer};

/// How long the probes measure.
#[derive(Clone, Copy, Debug)]
pub struct ProbePlan {
    /// Timed batches per probe; the median is reported.
    pub batches: usize,
    /// Least host time per batch.
    pub batch: Duration,
}

/// Operations per inner loop: the clock is read once per this many.
const CHUNK: usize = 1024;
/// Length of the precomputed, seeded operand tables (a power of two).
const TABLE: usize = 4096;
/// `SimRng` stream ids of the probes' operand tables.
const PROBE_STREAM: u64 = 0x7072_6f62_6500;

type Probe = Result<f64, String>;

/// Median over `plan.batches` batches of host ns per operation; `chunk`
/// performs some operations and returns how many.
fn ns_per_op(plan: ProbePlan, mut chunk: impl FnMut() -> Result<u64, String>) -> Probe {
    let mut per_op = Vec::with_capacity(plan.batches);
    for _ in 0..plan.batches {
        let (start, mut ops) = (now(), 0u64);
        while start.elapsed() < plan.batch {
            ops += chunk()?;
        }
        per_op.push(start.elapsed().as_nanos() as f64 / ops as f64);
    }
    Ok(median(&per_op))
}

/// `TABLE` seeded draws from `[lo, hi)`.
fn table(seed: u64, salt: u64, lo: u64, hi: u64) -> Vec<u64> {
    let mut rng = SimRng::stream(seed, PROBE_STREAM + salt);
    (0..TABLE).map(|_| rng.range(lo, hi)).collect()
}

fn err<E: std::fmt::Debug>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("probe {what}: {e:?}")
}

/// The hold model at a constant live population: pop the earliest event,
/// schedule one a seeded 0.1–20 µs later (the data plane's event gaps).
fn queue_hold(seed: u64, population: usize, plan: ProbePlan) -> Probe {
    let gaps = table(seed, 1, 100, 20_000);
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..population {
        q.schedule_at(Nanos(gaps[i % TABLE] * 8), i as u64);
    }
    let mut i = 0usize;
    ns_per_op(plan, || {
        for _ in 0..CHUNK {
            let (t, m) = q.pop().ok_or("probe queue_hold: queue ran dry")?;
            q.schedule_at(Nanos(t.0 + gaps[i % TABLE]), black_box(m));
            i += 1;
        }
        Ok(CHUNK as u64)
    })
}

/// The RTO-timer pattern: arm a timer, the reply arrives first, cancel the
/// timer; cancelled entries are discarded lazily as time reaches them.
fn queue_cancel(seed: u64, plan: ProbePlan) -> Probe {
    let gaps = table(seed, 2, 100, 2_000);
    let mut q: EventQueue<u64> = EventQueue::new();
    let (mut clock, mut i) = (Nanos::ZERO, 0usize);
    ns_per_op(plan, || {
        for _ in 0..CHUNK {
            let gap = gaps[i % TABLE];
            let timer = q.schedule_at(Nanos(clock.0 + 64 * gap), 0);
            q.schedule_at(Nanos(clock.0 + gap), 1);
            let (t, m) = q.pop().ok_or("probe queue_cancel: queue ran dry")?;
            black_box(m);
            clock = t;
            q.cancel(timer);
            i += 1;
        }
        Ok(CHUNK as u64)
    })
}

fn hist_record(seed: u64, plan: ProbePlan) -> Probe {
    let lat = table(seed, 3, 100_000, 5_000_000);
    let mut h = Histogram::new();
    let p = ns_per_op(plan, || {
        for v in &lat {
            h.record(Nanos(*v));
        }
        Ok(TABLE as u64)
    });
    black_box(h.p99());
    p
}

/// Exponential gap plus Zipf rank over the 10 k-function population.
fn openloop_arrival(seed: u64, plan: ProbePlan) -> Probe {
    let mut gen = OpenLoop::new(&OpenLoopConfig::poisson(80_000.0, 10_000), seed);
    ns_per_op(plan, || {
        for _ in 0..CHUNK {
            black_box(gen.next_arrival());
        }
        Ok(CHUNK as u64)
    })
}

/// One buffer's life on a hop: alloc → produce → hand off → redeem → free.
fn pool_cycle(plan: ProbePlan) -> Probe {
    let e = err("pool_cycle");
    let mut pool = UnifiedPool::new(PoolId(1), TenantId(1), 1024, 4096);
    let payload = Bytes::from(vec![7u8; 1024]);
    let (src, dst) = (FnId(1), FnId(2));
    ns_per_op(plan, || {
        for _ in 0..CHUNK {
            let tok = pool.alloc(Owner::Function(src)).map_err(&e)?;
            pool.produce_bytes(&tok, payload.clone()).map_err(&e)?;
            let desc = pool.into_transit(tok, src, dst).map_err(&e)?;
            let tok = pool.redeem(black_box(&desc), Owner::Engine).map_err(&e)?;
            pool.free(tok).map_err(&e)?;
        }
        Ok(CHUNK as u64)
    })
}

/// Two-node fabric: 1 KiB two-sided sends stepped until both completions
/// are reaped. Returns `(host ns per message, simulation events per
/// message)`.
fn rdma_send(seed: u64, plan: ProbePlan) -> Result<(f64, f64), String> {
    const BURST: u64 = 16;
    let e = err("rdma_send");
    let tenant = TenantId(1);
    let mut net = RdmaNet::new(RdmaConfig::default(), 2, seed);
    for node in [NodeId(0), NodeId(1)] {
        let mut exp = MmapExporter::new(PoolId(node.raw()), tenant, Region::hugepages(4 << 20));
        net.register_mr(node, &exp.export_rdma()).map_err(&e)?;
    }
    let (qa, _) = net.connect_immediate(NodeId(0), NodeId(1), tenant);
    let payload = Bytes::from(vec![7u8; 1024]);
    let mut sim: Sim<RdmaEvent> = Sim::new();
    let mut step = Step::default();
    let mut cqes = Vec::new();
    let (mut wr, mut events, mut msgs) = (0u64, 0u64, 0u64);
    let ns = ns_per_op(plan, || {
        for _ in 0..BURST {
            wr += 1;
            let entry = RqEntry {
                wr_id: WrId(wr),
                pool: PoolId(1),
                capacity: 8192,
            };
            net.post_recv(NodeId(1), tenant, entry).map_err(&e)?;
            let send = WorkRequest::send(WrId(wr), payload.clone(), wr);
            net.post_send_into(sim.now(), NodeId(0), qa, send, &mut step)
                .map_err(&e)?;
        }
        loop {
            for t in step.events.drain(..) {
                sim.schedule(t.after, t.value);
            }
            step.clear();
            let Some((at, ev)) = sim.next() else { break };
            net.handle_into(at, ev, &mut step);
            events += 1;
        }
        net.drain_cq_into(NodeId(0), &mut cqes);
        net.drain_cq_into(NodeId(1), &mut cqes);
        if cqes.len() as u64 != 2 * BURST {
            return Err(format!(
                "probe rdma_send: {} completions for {BURST} sends",
                cqes.len()
            ));
        }
        cqes.clear();
        msgs += BURST;
        Ok(BURST)
    })?;
    Ok((ns, events as f64 / msgs as f64))
}

/// The engine's TX path for two tenants: descriptor in → DWRR → WR out,
/// then the send completion retires the in-flight slot.
fn dne_tx(plan: ProbePlan) -> Probe {
    let mut dne = Dne::new(
        NodeId(0),
        EngineLocation::Dpu,
        CostModel::default(),
        SchedPolicy::Dwrr,
        ConnPool::new(NodeId(0), ConnPoolConfig::default()),
    );
    let mut coord = Coordinator::new();
    let tenants = [(TenantId(1), FnId(2)), (TenantId(2), FnId(3))];
    for (tenant, f) in tenants {
        coord.apply(DeployEvent::Created {
            f,
            tenant,
            node: NodeId(1),
        });
        dne.register_tenant(tenant, tenant.0 as u32);
    }
    dne.routes = coord.tables_for(NodeId(0));
    let payload = Bytes::from(vec![7u8; 1024]);
    let mut out: DneStep = Vec::new();
    let (mut clock, mut i) = (Nanos::ZERO, 0usize);
    ns_per_op(plan, || {
        for _ in 0..CHUNK {
            let (tenant, dst_fn) = tenants[i % 2];
            i += 1;
            let desc = BufDesc {
                tenant,
                pool: PoolId(0),
                buf_idx: 1,
                len: 1024,
                src_fn: FnId(1),
                dst_fn,
            };
            dne.submit_tx_into(clock, desc, payload.clone(), None, &mut out);
            let (after, wr_id) = out
                .iter()
                .find_map(|t| match &t.value {
                    DneEffect::PostSend { wr, .. } => Some((t.after, wr.wr_id)),
                    _ => None,
                })
                .ok_or("probe dne_tx: no PostSend effect")?;
            out.clear();
            clock += after;
            dne.on_engine_slot_into(clock, &mut out);
            let cqe = Cqe {
                wr_id,
                kind: CqeKind::SendDone(OpKind::Send),
                status: CqeStatus::Success,
                qpn: Qpn(1),
                tenant,
                peer: NodeId(1),
                data: Bytes::new(),
                imm: 0,
            };
            dne.submit_cqe_into(clock, cqe, &mut out);
            let slot = out
                .last()
                .ok_or("probe dne_tx: no EngineSlot effect")?
                .after;
            out.clear();
            clock += slot;
            dne.on_engine_slot_into(clock, &mut out);
        }
        Ok(CHUNK as u64)
    })
}

/// Eight weighted tenants under the engine's own quantum (4 KiB), costs
/// drawn from the payload range it sees (64 B – 4 KiB).
fn dwrr(seed: u64, plan: ProbePlan) -> Probe {
    let picks = table(seed, 4, 0, 8);
    let costs = table(seed, 5, 64, 4096);
    let mut s: TenantScheduler<u64> = TenantScheduler::new(SchedPolicy::Dwrr, 1 << 12);
    for t in 1..=8u16 {
        s.register_tenant(TenantId(t), t as u32);
    }
    let mut i = 0usize;
    ns_per_op(plan, || {
        for _ in 0..CHUNK {
            s.enqueue(
                TenantId(1 + picks[i % TABLE] as u16),
                costs[i % TABLE],
                i as u64,
            );
            black_box(s.dequeue());
            i += 1;
        }
        Ok(CHUNK as u64)
    })
}

/// One gateway leg: `submit` then `leg_done`, alternating directions.
fn ingress_submit(seed: u64, plan: ProbePlan) -> Probe {
    let clients = table(seed, 6, 0, 32);
    let mut gw = IngressGateway::new(
        IngressConfig::new(IngressKind::Palladium),
        CostModel::default(),
    );
    let (mut clock, mut i) = (Nanos::ZERO, 0usize);
    ns_per_op(plan, || {
        for _ in 0..CHUNK {
            let leg = if i % 2 == 0 {
                Leg::Inbound
            } else {
                Leg::Outbound
            };
            let (worker, done) = gw.submit(clock, clients[i % TABLE] as usize, leg, 256, 8192);
            gw.leg_done(worker);
            clock = clock.max(done);
            i += 1;
        }
        Ok(CHUNK as u64)
    })
}

/// A descriptor's round trip over the host↔DPU channel.
fn comch_roundtrip(plan: ProbePlan) -> Probe {
    let e = err("comch_roundtrip");
    let f = FnId(1);
    let mut ch = ComchServer::new(ChannelKind::ComchE);
    ch.connect(f, TenantId(1));
    let desc = BufDesc {
        tenant: TenantId(1),
        pool: PoolId(0),
        buf_idx: 1,
        len: 1024,
        src_fn: f,
        dst_fn: FnId(2),
    };
    ns_per_op(plan, || {
        for _ in 0..CHUNK {
            ch.host_send(f, desc).map_err(&e)?;
            let at_dne = ch.dne_recv(f, 1);
            let d = *at_dne
                .first()
                .ok_or("probe comch_roundtrip: descriptor lost toward the DNE")?;
            ch.dne_send(f, d).map_err(&e)?;
            if black_box(ch.host_recv(f, 1)).len() != 1 {
                return Err("probe comch_roundtrip: descriptor lost toward the host".into());
            }
        }
        Ok(CHUNK as u64)
    })
}

/// Run every probe inside its own span; returns `(metric name, value)`.
pub fn run_all(
    seed: u64,
    plan: ProbePlan,
    tracer: &mut Tracer,
) -> Result<Vec<(&'static str, f64)>, String> {
    #[rustfmt::skip] // one row per line
    let single: [(&'static str, &dyn Fn() -> Probe); 10] = [
        ("simnet.queue.hold_ns_per_op.p64", &|| queue_hold(seed, 64, plan)),
        ("simnet.queue.hold_ns_per_op.p16k", &|| queue_hold(seed, 16_384, plan)),
        ("simnet.queue.cancel_ns_per_op", &|| queue_cancel(seed, plan)),
        ("simnet.stats.hist_record_ns", &|| hist_record(seed, plan)),
        ("simnet.openloop.arrival_ns", &|| openloop_arrival(seed, plan)),
        ("membuf.pool.cycle_ns", &|| pool_cycle(plan)),
        ("core.dne.tx_ns_per_wr", &|| dne_tx(plan)),
        ("core.dwrr.ns_per_item", &|| dwrr(seed, plan)),
        ("core.ingress.submit_ns", &|| ingress_submit(seed, plan)),
        ("ipc.comch.roundtrip_ns", &|| comch_roundtrip(plan)),
    ];
    let mut out = Vec::new();
    for (name, probe) in single {
        out.push((name, tracer.span(name, |_| probe())?));
    }
    let (ns, events) = tracer.span("rdma.net.send_ns_per_msg", |_| rdma_send(seed, plan))?;
    out.push(("rdma.net.send_ns_per_msg", ns));
    out.push(("rdma.net.events_per_msg", events));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_runs_and_reports_a_positive_number() {
        let plan = ProbePlan {
            batches: 1,
            batch: Duration::from_millis(2),
        };
        let mut tracer = Tracer::new();
        let got = run_all(5, plan, &mut tracer).expect("probes run");
        assert_eq!(got.len(), 12);
        for (name, v) in &got {
            assert!(v.is_finite() && *v > 0.0, "{name} = {v}");
        }
        // One span per probe (the fabric probe yields two metrics).
        assert_eq!(tracer.spans().len(), 11);
    }
}
