//! The Online Boutique workload — the paper's §4.3 application.
//!
//! Online Boutique is the canonical microservices demo: ten services
//! (Frontend, ProductCatalog, Cart, Recommendation, Shipping, Checkout,
//! Currency, Payment, Email, Ad) wired into request chains. The paper
//! evaluates three request types — *Home Query*, *ViewCart* and *Product
//! Query* — each incurring **more than 11 data exchanges** between
//! functions, and places the hotspot functions (Frontend, Checkout,
//! Recommendation) on one worker node with everything else on the second
//! (§4.3 "Real Workloads").
//!
//! The gRPC payload sizes are approximated from the public proto message
//! shapes: catalog/product lists are KB-scale, currency/ad/cart lookups
//! are hundreds of bytes.

use palladium_core::driver::chain::{AppSpec, ChainSimConfig, ChainSpec, FnSpec, HopSpec};
use palladium_core::driver::cluster_sharded::ClusterShardedConfig;
use palladium_core::system::SystemKind;
use palladium_membuf::FnId;
use palladium_simnet::Nanos;

/// Function ids, stable across the workspace.
pub mod fns {
    use palladium_membuf::FnId;

    /// Frontend (entry point; hotspot, node 0).
    pub const FRONTEND: FnId = FnId(1);
    /// Product catalog service (node 1).
    pub const PRODUCT_CATALOG: FnId = FnId(2);
    /// Cart service (node 1).
    pub const CART: FnId = FnId(3);
    /// Recommendation service (hotspot, node 0).
    pub const RECOMMENDATION: FnId = FnId(4);
    /// Shipping service (node 1).
    pub const SHIPPING: FnId = FnId(5);
    /// Checkout service (hotspot, node 0).
    pub const CHECKOUT: FnId = FnId(6);
    /// Currency service (node 1).
    pub const CURRENCY: FnId = FnId(7);
    /// Payment service (node 1).
    pub const PAYMENT: FnId = FnId(8);
    /// Email service (node 1).
    pub const EMAIL: FnId = FnId(9);
    /// Ad service (node 1).
    pub const AD: FnId = FnId(10);
}

/// The three evaluated request types (Fig 16 / Table 2 columns).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChainKind {
    /// Home page: currency + products + cart + ads + recommendations.
    HomeQuery,
    /// View cart: cart contents + per-item catalog lookups + shipping
    /// quote + recommendations.
    ViewCart,
    /// Product page: product + currency conversion + cart + ads +
    /// recommendations.
    ProductQuery,
}

impl ChainKind {
    /// All three chains in paper order.
    pub const ALL: [ChainKind; 3] = [
        ChainKind::HomeQuery,
        ChainKind::ViewCart,
        ChainKind::ProductQuery,
    ];

    /// Paper label.
    pub fn label(self) -> &'static str {
        match self {
            ChainKind::HomeQuery => "Home Query",
            ChainKind::ViewCart => "ViewCart",
            ChainKind::ProductQuery => "Product Query",
        }
    }

    /// Index into [`app`]'s chain list.
    pub fn index(self) -> usize {
        match self {
            ChainKind::HomeQuery => 0,
            ChainKind::ViewCart => 1,
            ChainKind::ProductQuery => 2,
        }
    }
}

/// Build the Online Boutique application spec: 10 functions with the
/// paper's hotspot placement and the three request chains.
pub fn app() -> AppSpec {
    use fns::*;
    let us = Nanos::from_micros;
    let hop = |from, to, bytes| HopSpec { from, to, bytes };

    AppSpec {
        functions: vec![
            // Hotspots on node 0 (§4.3 placement).
            FnSpec { id: FRONTEND, name: "frontend", node: 0, exec: us(25) },
            FnSpec { id: CHECKOUT, name: "checkout", node: 0, exec: us(30) },
            FnSpec { id: RECOMMENDATION, name: "recommendation", node: 0, exec: us(20) },
            // The rest on node 1.
            FnSpec { id: PRODUCT_CATALOG, name: "productcatalog", node: 1, exec: us(18) },
            FnSpec { id: CART, name: "cart", node: 1, exec: us(15) },
            FnSpec { id: SHIPPING, name: "shipping", node: 1, exec: us(15) },
            FnSpec { id: CURRENCY, name: "currency", node: 1, exec: us(8) },
            FnSpec { id: PAYMENT, name: "payment", node: 1, exec: us(20) },
            FnSpec { id: EMAIL, name: "email", node: 1, exec: us(15) },
            FnSpec { id: AD, name: "ad", node: 1, exec: us(10) },
        ],
        chains: vec![
            // Home Query: frontend fans out for currencies, products, cart,
            // ads and recommendations — 12 exchanges.
            ChainSpec {
                name: "Home Query",
                entry: FRONTEND,
                hops: vec![
                    hop(FRONTEND, CURRENCY, 256),
                    hop(CURRENCY, FRONTEND, 512),
                    hop(FRONTEND, PRODUCT_CATALOG, 256),
                    hop(PRODUCT_CATALOG, FRONTEND, 4096),
                    hop(FRONTEND, CART, 256),
                    hop(CART, FRONTEND, 512),
                    hop(FRONTEND, RECOMMENDATION, 512),
                    hop(RECOMMENDATION, PRODUCT_CATALOG, 256),
                    hop(PRODUCT_CATALOG, RECOMMENDATION, 2048),
                    hop(RECOMMENDATION, FRONTEND, 512),
                    hop(FRONTEND, AD, 256),
                    hop(AD, FRONTEND, 512),
                ],
                req_bytes: 256,
                resp_bytes: 8192,
            },
            // ViewCart: cart contents, per-item catalog lookups, shipping
            // quote, recommendations — 12 exchanges.
            ChainSpec {
                name: "ViewCart",
                entry: FRONTEND,
                hops: vec![
                    hop(FRONTEND, CART, 256),
                    hop(CART, FRONTEND, 1024),
                    hop(FRONTEND, PRODUCT_CATALOG, 512),
                    hop(PRODUCT_CATALOG, FRONTEND, 4096),
                    hop(FRONTEND, SHIPPING, 512),
                    hop(SHIPPING, FRONTEND, 256),
                    hop(FRONTEND, CURRENCY, 256),
                    hop(CURRENCY, FRONTEND, 256),
                    hop(FRONTEND, RECOMMENDATION, 512),
                    hop(RECOMMENDATION, PRODUCT_CATALOG, 256),
                    hop(PRODUCT_CATALOG, RECOMMENDATION, 2048),
                    hop(RECOMMENDATION, FRONTEND, 512),
                ],
                req_bytes: 512,
                resp_bytes: 6144,
            },
            // Product Query: product details, currency, cart, ads,
            // recommendations — 12 exchanges.
            ChainSpec {
                name: "Product Query",
                entry: FRONTEND,
                hops: vec![
                    hop(FRONTEND, PRODUCT_CATALOG, 256),
                    hop(PRODUCT_CATALOG, FRONTEND, 2048),
                    hop(FRONTEND, CURRENCY, 256),
                    hop(CURRENCY, FRONTEND, 256),
                    hop(FRONTEND, CART, 256),
                    hop(CART, FRONTEND, 512),
                    hop(FRONTEND, RECOMMENDATION, 512),
                    hop(RECOMMENDATION, PRODUCT_CATALOG, 256),
                    hop(PRODUCT_CATALOG, RECOMMENDATION, 2048),
                    hop(RECOMMENDATION, FRONTEND, 512),
                    hop(FRONTEND, AD, 256),
                    hop(AD, FRONTEND, 512),
                ],
                req_bytes: 256,
                resp_bytes: 4096,
            },
        ],
    }
}

/// A ready-to-run cluster configuration for `system` exercising `chain`.
pub fn config(system: SystemKind, chain: ChainKind) -> ChainSimConfig {
    ChainSimConfig::new(system, app(), chain.index())
}

/// Function-id spacing between worker-pair replicas in the sharded
/// cluster: ids 1–10 fit comfortably below it, and remapped ids stay
/// 16-bit for any realistic pair count.
pub const FN_ID_STRIDE: u16 = 16;

/// The boutique replicated over `pairs` worker-node pairs for the sharded
/// Fig 16 cluster ([`palladium_core::driver::cluster_sharded`]): pair `p`
/// runs its own copy of the ten functions — ids remapped to
/// `id + 16·p`, hotspots on global node `2p`, the rest on `2p + 1` — and
/// `chains[p]` is pair `p`'s remapped copy of `chain`. Node `2·pairs` is
/// left to the ingress.
pub fn sharded_app(chain: ChainKind, pairs: usize) -> AppSpec {
    assert!(pairs >= 1, "need at least one worker pair");
    let base = app();
    let remap = |f: FnId, p: usize| FnId(f.0 + FN_ID_STRIDE * p as u16);
    let mut functions = Vec::with_capacity(base.functions.len() * pairs);
    let mut chains = Vec::with_capacity(pairs);
    for p in 0..pairs {
        for f in &base.functions {
            functions.push(FnSpec {
                id: remap(f.id, p),
                name: f.name,
                node: 2 * p + f.node,
                exec: f.exec,
            });
        }
        let c = &base.chains[chain.index()];
        chains.push(ChainSpec {
            name: c.name,
            entry: remap(c.entry, p),
            hops: c
                .hops
                .iter()
                .map(|h| HopSpec {
                    from: remap(h.from, p),
                    to: remap(h.to, p),
                    bytes: h.bytes,
                })
                .collect(),
            req_bytes: c.req_bytes,
            resp_bytes: c.resp_bytes,
        });
    }
    AppSpec { functions, chains }
}

/// A ready-to-run sharded cluster configuration: `system` exercising
/// `chain` replicated over `pairs` worker pairs.
pub fn sharded_config(system: SystemKind, chain: ChainKind, pairs: usize) -> ClusterShardedConfig {
    ClusterShardedConfig::new(system, sharded_app(chain, pairs), pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_functions_with_hotspot_placement() {
        let app = app();
        assert_eq!(app.functions.len(), 10);
        // Hotspots on node 0 (§4.3).
        for f in [fns::FRONTEND, fns::CHECKOUT, fns::RECOMMENDATION] {
            assert_eq!(app.function(f).node, 0, "{f:?} is a hotspot");
        }
        // Everything else on node 1.
        for f in [
            fns::PRODUCT_CATALOG,
            fns::CART,
            fns::SHIPPING,
            fns::CURRENCY,
            fns::PAYMENT,
            fns::EMAIL,
            fns::AD,
        ] {
            assert_eq!(app.function(f).node, 1);
        }
    }

    #[test]
    fn chains_have_more_than_11_exchanges() {
        let app = app();
        assert_eq!(app.chains.len(), 3);
        for chain in &app.chains {
            // Hops plus the request-in and response-out legs (the paper
            // counts "more than 11").
            let exchanges = chain.hops.len() + 2;
            assert!(exchanges > 11, "{} has only {exchanges} exchanges", chain.name);
        }
    }

    #[test]
    fn chains_are_wellformed() {
        // Every hop chains correctly: hop[i].to appears as hop[j>i].from
        // when that function produces output, and every hop's endpoints are
        // deployed functions; the entry starts the chain.
        let app = app();
        for chain in &app.chains {
            assert_eq!(chain.hops[0].from, chain.entry, "{}", chain.name);
            for h in &chain.hops {
                assert!(app.functions.iter().any(|f| f.id == h.from));
                assert!(app.functions.iter().any(|f| f.id == h.to));
                assert!(h.bytes > 0);
            }
            // The chain driver walks hops sequentially: each hop's producer
            // must be the previous hop's consumer.
            for w in chain.hops.windows(2) {
                assert_eq!(w[0].to, w[1].from, "{} hop discontinuity", chain.name);
            }
        }
    }

    #[test]
    fn chain_kind_mapping() {
        let app = app();
        for kind in ChainKind::ALL {
            assert_eq!(app.chains[kind.index()].name, kind.label());
        }
    }

    #[test]
    fn config_builds() {
        let cfg = config(SystemKind::PalladiumDne, ChainKind::HomeQuery);
        assert_eq!(cfg.chain_idx, 0);
        assert_eq!(cfg.app.functions.len(), 10);
    }
}
