//! Fixtures shared by the integration tests.
#![allow(dead_code, reason = "each test target compiles its own copy and uses a subset")]

use palladium_core::driver::chain::{AppSpec, ChainSpec, FnSpec, HopSpec};
use palladium_membuf::FnId;
use palladium_simnet::Nanos;

/// The same 4-function / 5-hop app the chain driver's unit tests use.
pub fn golden_app() -> AppSpec {
    let us = Nanos::from_micros;
    AppSpec {
        functions: vec![
            FnSpec {
                id: FnId(1),
                name: "A",
                node: 0,
                exec: us(15),
            },
            FnSpec {
                id: FnId(2),
                name: "B",
                node: 1,
                exec: us(10),
            },
            FnSpec {
                id: FnId(3),
                name: "C",
                node: 1,
                exec: us(10),
            },
            FnSpec {
                id: FnId(4),
                name: "D",
                node: 0,
                exec: us(12),
            },
        ],
        chains: vec![ChainSpec {
            name: "golden-chain",
            entry: FnId(1),
            hops: vec![
                HopSpec {
                    from: FnId(1),
                    to: FnId(2),
                    bytes: 512,
                },
                HopSpec {
                    from: FnId(2),
                    to: FnId(3),
                    bytes: 1024,
                },
                HopSpec {
                    from: FnId(3),
                    to: FnId(2),
                    bytes: 256,
                },
                HopSpec {
                    from: FnId(2),
                    to: FnId(4),
                    bytes: 512,
                },
                HopSpec {
                    from: FnId(4),
                    to: FnId(1),
                    bytes: 256,
                },
            ],
            req_bytes: 256,
            resp_bytes: 512,
        }],
    }
}

/// Compare `got` with the snapshot `tests/golden/<file>`, or — under
/// `GOLDEN_REGEN=1`, after an *intentional* change — rewrite the snapshot.
pub fn assert_golden(file: &str, got: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::write(&path, got).expect("write golden snapshot");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .expect("golden snapshot missing — run with GOLDEN_REGEN=1 to create it");
    assert_eq!(got, want, "diverged from the golden snapshot {file}");
}

/// Assert that `row` — a `ClusterShardedReport::json_row` — is a line of the
/// committed `BENCH_slo.json`, so a stale SLO file fails `cargo test`.
pub fn assert_in_slo_file(row: &str) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_slo.json");
    let slo = std::fs::read_to_string(path).expect("BENCH_slo.json is committed");
    assert!(
        slo.lines().any(|l| l.trim().trim_end_matches(',') == row),
        "BENCH_slo.json is stale (regenerate with slo_smoke): it has no line\n{row}"
    );
}
