//! Fig 11: off-path DNE (cross-processor shared memory) vs on-path DNE.
use palladium_bench::{fig11, print};

fn main() {
    print(&fig11());
}
