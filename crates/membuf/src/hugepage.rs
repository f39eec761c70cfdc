//! Hugepage-backed memory regions.
//!
//! Palladium builds its unified pools from 2 MB hugepages specifically to
//! shrink the Memory Translation Table (MTT) footprint on the RNIC cache
//! (§3.4, citing SRNIC): an MR over 4 KB pages needs 512× the translation
//! entries of the same MR over 2 MB pages. The RNIC model in
//! `palladium-rdma` charges extra lookup latency when a node's registered
//! MTT entries overflow the device cache, making this a measurable design
//! choice (ablation bench `bench_substrate`).

/// x86 2 MB hugepage — what Palladium allocates (§3.4).
pub const HUGEPAGE_2M: u64 = 2 * 1024 * 1024;

/// A contiguous, page-aligned memory region description.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Region {
    /// Total region length in bytes (rounded up to the page size).
    pub len: u64,
    /// Backing page size in bytes.
    pub page_size: u64,
}

impl Region {
    /// A region of at least `len` bytes built from pages of `page_size`.
    pub fn new(len: u64, page_size: u64) -> Region {
        assert!(page_size.is_power_of_two(), "page size must be a power of two");
        assert!(len > 0, "region must be non-empty");
        let pages = len.div_ceil(page_size);
        Region {
            len: pages * page_size,
            page_size,
        }
    }

    /// A hugepage-backed region (Palladium's default).
    pub fn hugepages(len: u64) -> Region {
        Region::new(len, HUGEPAGE_2M)
    }

    /// Number of backing pages.
    pub fn pages(&self) -> u64 {
        self.len / self.page_size
    }

    /// Number of MTT entries the RNIC needs to map this region — one per
    /// page. This is what hugepages minimize.
    pub fn mtt_entries(&self) -> u64 {
        self.pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Standard small page size: the baseline hugepages are measured against.
    const PAGE_4K: u64 = 4 * 1024;

    #[test]
    fn rounds_up_to_page_boundary() {
        let r = Region::new(5_000, PAGE_4K);
        assert_eq!(r.len, 8_192);
        assert_eq!(r.pages(), 2);
    }

    #[test]
    fn hugepages_shrink_mtt() {
        let bytes = 64 * 1024 * 1024; // 64 MB pool
        let huge = Region::hugepages(bytes);
        let small = Region::new(bytes, PAGE_4K);
        assert_eq!(huge.mtt_entries(), 32);
        assert_eq!(small.mtt_entries(), 16_384);
        // The 512x ratio the paper's design leans on.
        assert_eq!(small.mtt_entries() / huge.mtt_entries(), 512);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_odd_page_size() {
        Region::new(1024, 3_000);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_region() {
        Region::new(0, PAGE_4K);
    }
}
