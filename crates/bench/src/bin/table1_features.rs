//! Table 1: qualitative comparison of high-performance serverless data
//! planes.
use palladium_bench::{print, table1};

fn main() {
    print(&table1());
}
