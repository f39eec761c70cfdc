//! Fig 14: horizontal scaling of the ingress — CPU cores and RPS over time
//! as a saturating client joins every 10 s.
use palladium_bench::{fig14, print};

fn main() {
    print(&fig14());
}
