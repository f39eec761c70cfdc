//! Fig 13: cluster ingress designs under a client sweep (one gateway core).
use palladium_bench::{fig13, print, Scale};

fn main() {
    print(&fig13(Scale::FULL));
}
