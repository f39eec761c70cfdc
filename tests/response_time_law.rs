//! The interactive response-time law, N = X · (R + Z), checked on every
//! fault-free closed-loop driver.
//!
//! An oracle that needs no external reference: a closed loop of N clients
//! with think time Z must complete X requests per second at mean response
//! time R with N = X · (R + Z), whatever the system inside the loop. Every
//! driver here re-issues at the instant its response completes, so Z = 0
//! and the law reads N = X · R.
//!
//! **The bound is derived, not tuned.** Over a measurement window of
//! length D the clients are busy N · D in total. The completions counted
//! in the window sum to X · R̄ · D, which differs from N · D only at the
//! edges: each client straddles the window's opening edge at most once
//! (a request issued before it, completed inside) and its closing edge
//! at most once (a request issued inside, completed after). Each piece
//! is at most one response long, and R_max, the longest response the
//! window saw, stands in for both. The report's mean is an
//! integer nanosecond count, so X · R̄ can also fall short by up to
//! X · 1 ns. Hence
//!
//! ```text
//! |X · R̄ − N|  ≤  N · R_max / D  +  X · 1 ns
//! ```
//!
//! checked below multiplied through by D, in exact integer nanoseconds:
//! `|completed · R̄ − N · D| ≤ N · R_max + completed · 1 ns`.
//!
//! Left out: the fairness driver (its clients park between bursts, so
//! Z ≠ 0), and the chaos and overload runs (requests are abandoned or
//! shed, so not every client is always in the loop).
//!
//! **The utilisation law, on every station of a cluster run.** A station
//! of c servers can serve at most c · T over a run of horizon T, so its
//! utilisation U = busy ÷ T is at most c. The edge: a server is booked by
//! `submit(now, service)`, which may start work after T (behind a queue,
//! or at a start time the caller put in the future), and `busy` counts
//! that work too. All booked work lies in [0, busy_until]; the part
//! inside [0, T] is at most T, and the part after T lies in
//! (T, busy_until], whose length is the server's `backlog(T)`. Summed
//! over the station's servers,
//!
//! ```text
//! Σ busy  ≤  c · T  +  Σ backlog(T)
//! ```
//!
//! checked below in exact integer nanoseconds. The backlog term is not
//! slack: NightCore's node-0 engine at 80 clients books 103.9 % of T, and
//! `FifoServer::utilization` clamps that to 100 %.

use palladium::core::driver::chain::{ChainReport, ChainSim};
use palladium::core::driver::channel::{ChannelSim, ChannelSimConfig};
use palladium::core::driver::cluster_sharded::ClusterShardedSim;
use palladium::core::driver::echo::{EchoConfig, EchoSim, PathMode, Primitive};
use palladium::core::driver::ingress_sweep::{IngressSim, IngressSimConfig};
use palladium::core::driver::multinode::{MultiNodeConfig, MultiNodeSim};
use palladium::core::driver::LoadReport;
use palladium::core::system::{IngressKind, SystemKind};
use palladium::ipc::ChannelKind;
use palladium::simnet::{Execution, Nanos};
use palladium::workloads::boutique::{self, ChainKind};
use palladium::workloads::chaos::base_cfg;

/// Assert N = X · R within the edge bound over a window of `duration`.
fn assert_law(name: &str, clients: usize, duration: Nanos, r: &LoadReport) {
    assert!(r.completed > 0, "{name}: nothing completed");
    let n = clients as u128;
    let c = r.completed as u128;
    let d = duration.as_nanos() as u128;
    let busy = c * r.mean_latency.as_nanos() as u128; // X · R̄ · D
    let offered = n * d; // N · D
    let slack = n * r.max_latency.as_nanos() as u128 + c;
    assert!(
        busy.abs_diff(offered) <= slack,
        "{name}: X·R = {:.3} vs N = {clients} (bound ±{:.3}; completed {}, mean {}, max {})",
        busy as f64 / d as f64,
        slack as f64 / d as f64,
        r.completed,
        r.mean_latency,
        r.max_latency,
    );
}

/// Assert the utilisation law on every station of a run of `horizon`.
fn assert_stations(name: &str, horizon: Nanos, r: &ChainReport) {
    assert!(!r.stations.is_empty(), "{name}: no stations");
    let t = horizon.as_nanos() as u128;
    for st in &r.stations {
        let (busy, backlog) = (st.busy.as_nanos() as u128, st.backlog.as_nanos() as u128);
        assert!(
            busy <= st.cores as u128 * t + backlog,
            "{name}: {} on node {} booked {} over {} cores × {horizon} (backlog {})",
            st.name,
            st.node,
            st.busy,
            st.cores,
            st.backlog,
        );
    }
}

#[test]
fn chain_driver_obeys_the_law() {
    for system in SystemKind::ALL {
        let cfg = boutique::config(system, ChainKind::HomeQuery)
            .clients(8)
            .warmup_ms(1)
            .duration_ms(4);
        let (n, d, horizon) = (cfg.clients, cfg.duration, cfg.warmup + cfg.duration);
        let r = ChainSim::new(cfg).run();
        assert_law(&format!("chain/{system:?}"), n, d, &r.load);
        assert_stations(&format!("chain/{system:?}"), horizon, &r);
    }
}

#[test]
fn sharded_cluster_obeys_the_law() {
    let cfg = base_cfg();
    let (n, d, horizon) = (cfg.clients, cfg.duration, cfg.warmup + cfg.duration);
    let sim = ClusterShardedSim::new(cfg);
    for shards in [1, 4] {
        let r = sim.run(shards, Execution::Sequential);
        assert_law(&format!("cluster_sharded/{shards}"), n, d, &r.chain.load);
        assert_stations(&format!("cluster_sharded/{shards}"), horizon, &r.chain);
    }
}

#[test]
fn multinode_obeys_the_law() {
    let cfg = MultiNodeConfig::scaled(8).warmup_ms(1).duration_ms(4);
    let (n, d) = (cfg.nodes * cfg.clients_per_node, cfg.duration);
    let r = MultiNodeSim::new(cfg).run(2, Execution::Sequential);
    assert_law("multinode", n, d, &r.load);
}

#[test]
fn channel_driver_obeys_the_law() {
    for kind in [ChannelKind::ComchE, ChannelKind::ComchP, ChannelKind::Tcp] {
        for functions in [1, 16, 100] {
            let mut cfg = ChannelSimConfig::new(kind, functions);
            cfg.duration = Nanos::from_millis(4);
            cfg.warmup = Nanos::from_millis(1);
            // Comch-P pins a host core per function: only 80 can run.
            let n = match kind {
                ChannelKind::ComchP => functions.min(80),
                _ => functions,
            };
            let r = ChannelSim::new(cfg).run();
            assert_law(
                &format!("channel/{kind:?}/{functions}"),
                n,
                cfg.duration,
                &r,
            );
        }
    }
}

#[test]
fn ingress_sweep_obeys_the_law() {
    for kind in [
        IngressKind::Palladium,
        IngressKind::FStackDeferred,
        IngressKind::KernelDeferred,
    ] {
        let mut cfg = IngressSimConfig::fig13(kind, 8);
        cfg.duration = Nanos::from_millis(4);
        cfg.warmup = Nanos::from_millis(1);
        let r = IngressSim::new(cfg).sweep();
        assert_law(&format!("ingress/{kind:?}"), cfg.clients, cfg.duration, &r);
    }
}

#[test]
fn echo_driver_obeys_the_law() {
    let mut cfg = EchoConfig::new(1024).connections(8);
    cfg.duration = Nanos::from_millis(4);
    cfg.warmup = Nanos::from_millis(1);
    let sim = EchoSim::new(cfg);
    for prim in Primitive::ALL {
        let r = sim.run_primitive(prim);
        assert_law(
            &format!("echo/{prim:?}"),
            cfg.connections,
            cfg.duration,
            &r,
        );
    }
    for mode in [PathMode::OffPath, PathMode::OnPath] {
        let r = sim.run_path_mode(mode);
        assert_law(&format!("echo/{mode:?}"), cfg.connections, cfg.duration, &r);
    }
}
