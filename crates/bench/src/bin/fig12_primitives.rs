//! Fig 12: RDMA primitive selection — two-sided vs one-sided variants.
use palladium_bench::{fig12, print, Scale};

fn main() {
    print(&fig12(Scale::FULL));
}
