//! Property-based fault injection on the RC fabric: any drop/corrupt rate
//! below the retry budget still yields exactly-once, in-order delivery.

use bytes::Bytes;
use palladium::membuf::{MmapExporter, NodeId, PoolId, Region, TenantId};
use palladium::rdma::{
    CqeKind, RdmaConfig, RdmaEvent, RdmaNet, RqEntry, Step, WorkRequest, WrId,
};
use palladium::simnet::{FaultPlan, FaultTimeline, Sim};
use proptest::prelude::*;

fn run_lossy(drop: f64, corrupt: f64, n: u64, seed: u64) -> Vec<u64> {
    let mut net = RdmaNet::new(RdmaConfig::default(), 2, seed);
    for node in [NodeId(0), NodeId(1)] {
        let mut e =
            MmapExporter::new(PoolId(node.raw()), TenantId(1), Region::hugepages(8 << 20));
        net.register_mr(node, &e.export_rdma()).unwrap();
    }
    let (qa, _) = net.connect_immediate(NodeId(0), NodeId(1), TenantId(1));
    let plan = FaultPlan {
        drop_chance: drop,
        corrupt_chance: corrupt,
        ..FaultPlan::NONE
    };
    for node in [NodeId(0), NodeId(1)] {
        net.set_node_fault(node, FaultTimeline::from_plan(plan));
    }
    for i in 0..n + 32 {
        net.post_recv(
            NodeId(1),
            TenantId(1),
            RqEntry { wr_id: WrId(i), pool: PoolId(1), capacity: 4096 },
        )
        .unwrap();
    }
    let mut sim: Sim<RdmaEvent> = Sim::new();
    let mut step = Step::default();
    for i in 0..n {
        let wr = WorkRequest::send(WrId(1_000 + i), Bytes::from(vec![(i % 256) as u8; 256]), i);
        net.post_send_into(sim.now(), NodeId(0), qa, wr, &mut step)
            .unwrap();
        for t in step.events.drain(..) {
            sim.schedule(t.after, t.value);
        }
    }
    let mut received = Vec::new();
    let mut cqes = Vec::new();
    while let Some((now, ev)) = sim.next() {
        step.clear();
        net.handle_into(now, ev, &mut step);
        for t in step.events.drain(..) {
            sim.schedule(t.after, t.value);
        }
        net.drain_cq_into(NodeId(1), &mut cqes);
        for cqe in cqes.drain(..) {
            if cqe.kind == CqeKind::Recv {
                // Payload integrity: first byte encodes the message index.
                assert_eq!(cqe.data[0] as u64, cqe.imm % 256);
                received.push(cqe.imm);
            }
        }
        assert!(sim.events_fired() < 3_000_000, "runaway recovery");
    }
    received
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rc_is_exactly_once_in_order_under_faults(
        drop in 0.0f64..0.3,
        corrupt in 0.0f64..0.15,
        n in 8u64..48,
        seed in any::<u64>(),
    ) {
        let received = run_lossy(drop, corrupt, n, seed);
        let expect: Vec<u64> = (0..n).collect();
        prop_assert_eq!(received, expect);
    }
}
