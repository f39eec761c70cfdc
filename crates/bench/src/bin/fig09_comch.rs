//! Fig 9: viable DPU↔host communication channels — round-trip latency and
//! descriptor transfer rate versus function count.
use palladium_bench::{fig09, print, Scale};

fn main() {
    print(&fig09(Scale::FULL));
}
