//! Fixtures shared by the integration tests.

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
