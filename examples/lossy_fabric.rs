//! Fault-injection demo, two levels of the ladder:
//!
//! 1. **Transport**: run a raw RC queue pair over a lossy, corrupting
//!    RDMA fabric and show that go-back-N still delivers every message
//!    exactly once, in order (smoltcp-style fault injection:
//!    `palladium_simnet::fault`).
//! 2. **Cluster**: script a chaos scenario — two flapping links plus a
//!    straggling worker — against the full sharded Fig 16 cluster and
//!    read the tail off the streaming latency histogram. Same run, any
//!    shard count: chaos scenarios are byte-identical at 1/2/4/8 shards
//!    (pinned by `tests/chaos_cluster.rs`).
//!
//! ```sh
//! cargo run --release --example lossy_fabric
//! ```

use bytes::Bytes;
use palladium::core::driver::cluster_sharded::ClusterShardedSim;
use palladium::membuf::{MmapExporter, NodeId, PoolId, Region, TenantId};
use palladium::rdma::{
    CqeKind, RdmaConfig, RdmaEvent, RdmaNet, RqEntry, Step, WorkRequest, WrId,
};
use palladium::simnet::{Execution, FaultPlan, FaultTimeline, Nanos, ScenarioScript, Sim};
use palladium::workloads::chaos::{base_cfg, PAIRS};

fn main() {
    for (drop, corrupt) in [(0.0, 0.0), (0.1, 0.05), (0.25, 0.1)] {
        // Exactly-once is a property of a QP that keeps retrying: at 25%
        // drop + 10% corruption the stock budget (7 retries) can lose a
        // long-enough RTO streak and error the QP, so give the demo the
        // same undying budget the chaos driver uses during outages.
        let rdma_cfg = RdmaConfig {
            retry_limit: 100_000,
            rnr_retry_limit: 100_000,
            ..RdmaConfig::default()
        };
        let mut net = RdmaNet::new(rdma_cfg, 2, 7);
        for node in [NodeId(0), NodeId(1)] {
            let mut e = MmapExporter::new(
                PoolId(node.raw()),
                TenantId(1),
                Region::hugepages(16 << 20),
            );
            net.register_mr(node, &e.export_rdma()).unwrap();
        }
        let (qa, _) = net.connect_immediate(NodeId(0), NodeId(1), TenantId(1));
        // The same plan on both ports: every frame, data or ACK, runs
        // the gauntlet.
        let plan = FaultPlan {
            drop_chance: drop,
            corrupt_chance: corrupt,
            ..FaultPlan::NONE
        };
        for node in [NodeId(0), NodeId(1)] {
            net.set_node_fault(node, FaultTimeline::from_plan(plan));
        }
        let n = 500u64;
        for i in 0..n + 64 {
            net.post_recv(
                NodeId(1),
                TenantId(1),
                RqEntry { wr_id: WrId(i), pool: PoolId(1), capacity: 8192 },
            )
            .unwrap();
        }
        let mut sim: Sim<RdmaEvent> = Sim::new();
        let mut step = Step::default();
        for i in 0..n {
            let wr = WorkRequest::send(WrId(10_000 + i), Bytes::from(vec![7u8; 1024]), i);
            net.post_send_into(sim.now(), NodeId(0), qa, wr, &mut step)
                .unwrap();
            for t in step.events.drain(..) {
                sim.schedule(t.after, t.value);
            }
        }
        let mut received = Vec::new();
        let mut cqes = Vec::new();
        let mut finish = Nanos::ZERO;
        while let Some((now, ev)) = sim.next() {
            step.clear();
            net.handle_into(now, ev, &mut step);
            for t in step.events.drain(..) {
                sim.schedule(t.after, t.value);
            }
            net.drain_cq_into(NodeId(1), &mut cqes);
            for cqe in cqes.drain(..) {
                if cqe.kind == CqeKind::Recv {
                    received.push(cqe.imm);
                    finish = now;
                }
            }
        }
        let in_order = received.windows(2).all(|w| w[0] < w[1]);
        println!(
            "drop={:>4.1}%  corrupt={:>4.1}%  delivered {}/{} in-order={} \
             drops={} crc_drops={} retransmit_rounds={} finish={}",
            drop * 100.0,
            corrupt * 100.0,
            received.len(),
            n,
            in_order,
            net.counters.drop,
            net.counters.crc_drop,
            net.counters.nak_rewind + net.counters.rto,
            finish,
        );
        assert_eq!(received.len() as u64, n);
        assert!(in_order);
    }
    println!("\nExactly-once, in-order delivery under every fault plan ✓");

    // ── Part 2: a scripted chaos scenario on the sharded cluster ─────────
    //
    // Two worker links flap with stochastic drop windows while another
    // worker computes 8× slower; the RC transport absorbs the losses and
    // the report's histogram shows what the faults cost the tail.
    let base = base_cfg();
    let script = ScenarioScript::new()
        .flap(5, 0.05, Nanos::from_millis(1), Nanos::from_micros(2_500))
        .flap(1, 0.02, Nanos::from_micros(1_800), Nanos::from_micros(3_200))
        .straggle(6, 8.0, Nanos::from_millis(1), Nanos::from_millis(3));

    println!("\nChaos on the sharded Fig 16 cluster ({PAIRS} worker pairs, 2 shards):");
    let healthy = ClusterShardedSim::new(base.clone()).run(2, Execution::Sequential);
    let faulty = ClusterShardedSim::new(base.chaos(script)).run(2, Execution::Sequential);
    for (name, r) in [("fault-free", &healthy), ("flap+straggle", &faulty)] {
        println!(
            "  {name:>13}: p50={:>7} ns  p99={:>8} ns  p99.9={:>8} ns  completed={:>4}  \
             drops={} rto={}",
            r.p50.as_nanos(),
            r.p99.as_nanos(),
            r.p999.as_nanos(),
            r.chain.load.completed,
            r.chaos.fault_drops,
            r.chaos.rto,
        );
    }
    assert!(faulty.chain.load.completed > 0);
    assert!(faulty.chaos.fault_drops > 0);
    assert!(faulty.p99 >= healthy.p99);
    println!("\nScripted chaos absorbed; the tail tells the story ✓");
}
