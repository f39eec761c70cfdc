//! The demand oracle: what `price::demand` says one request costs each
//! station is what one request books there, in exact integer nanoseconds,
//! for every system on every boutique chain.
//!
//! One closed-loop client, fault-free. A long run gives its uncontended
//! latency L (every request takes the same time). A second run stops one
//! half client wire before L: the first response has left the gateway, so
//! the request is complete, and the client has not yet issued the next
//! one, so nothing of it is booked. Every station the walk covers then
//! holds exactly one request's work. The RNIC stations are outside the
//! walk (see `demand`).

use palladium::core::driver::chain::{ChainReport, ChainSim, Station};
use palladium::core::price::demand;
use palladium::core::system::SystemKind;
use palladium::core::CostModel;
use palladium::simnet::Nanos;
use palladium::workloads::boutique::{self, ChainKind};

fn run(system: SystemKind, chain: ChainKind, horizon: Nanos) -> ChainReport {
    let mut cfg = boutique::config(system, chain).clients(1);
    (cfg.warmup, cfg.duration) = (Nanos::ZERO, horizon);
    ChainSim::new(cfg).run()
}

#[test]
fn one_request_books_its_walked_demand_on_every_station() {
    let half_wire = CostModel::default().client_wire / 2;
    let mut walked_stations = 0;
    for system in SystemKind::ALL {
        for chain in ChainKind::ALL {
            let at = format!("{} / {}", chain.label(), system.label());
            let long = run(system, chain, Nanos::from_millis(5));
            assert!(long.load.completed > 1, "{at}");
            assert_eq!(long.load.max_latency, long.mean_latency, "{at}: an uncontended client");
            let one = run(system, chain, long.mean_latency - half_wire);
            assert_eq!(one.load.completed, 1, "{at}");
            let walked = demand(system, &boutique::app(), chain.index());
            for want in &walked {
                let got = one
                    .stations
                    .iter()
                    .find(|s| (s.name, s.node) == (want.name, want.node))
                    .unwrap_or_else(|| panic!("{at}: the run lists {}@{}", want.name, want.node));
                assert_eq!(
                    (got.busy, got.cores),
                    (want.busy, want.cores),
                    "{at}: {}@{}",
                    want.name,
                    want.node
                );
            }
            let unwalked: Vec<&Station> = one
                .stations
                .iter()
                .filter(|s| !walked.iter().any(|w| (w.name, w.node) == (s.name, s.node)))
                .collect();
            assert!(
                unwalked.iter().all(|s| s.name.starts_with("rnic ")),
                "{at}: only the RNIC stations are outside the walk: {unwalked:?}"
            );
            walked_stations += walked.len();
        }
    }
    // Per system: fn cores and its engine station(s) on both workers, and
    // the ingress — 7 on a DNE plane, 5 on a host plane.
    assert_eq!(walked_stations, 3 * (2 * 7 + 4 * 5));
}
