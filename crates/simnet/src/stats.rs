//! Measurement machinery: exact latency samples whose memory follows the
//! number of distinct values, a bounded-memory log histogram, windowed
//! time series, utilization bins and
//! [`summed_report!`](crate::summed_report), the one way a counter that is
//! summed or listed by name is declared — everything the figure harnesses
//! print.

use crate::time::Nanos;

/// Fewest pending samples [`Samples`] folds into its runs at once.
const TAIL_MIN: usize = 1024;
/// Samples a set must hold before its compression ratio may turn it raw:
/// distinct values pile up fastest early in a run.
const RAW_DECISION: usize = 32_768;

/// A latency (or any scalar) sample set with exact mean / percentile
/// queries: every answer is the one a sorted `Vec<u64>` of the same
/// samples gives, for any interleaving of records, merges and queries.
///
/// Memory follows the distinct values, not the completions: simulated
/// latencies repeat heavily (a closed loop over fixed costs lands on a few
/// thousand values in millions of completions). A record lands in a small
/// unsorted tail; once the tail holds `max(1 024, distinct / 2)` samples it
/// is sorted in place, samples of a value already held add to its count,
/// and the new values are inserted, from the back, into the sorted
/// `(value, count)` runs. Those two buffers are all there is and are
/// retained, so a steady state allocates nothing. Once at least 32 768
/// samples compress worse than 2 : 1 — where 16-byte runs outweigh 8-byte
/// raw values — the set turns raw for good: every sample stays in the
/// tail and a query sorts it, as a plain vector would. The data makes that
/// choice, never a setting.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Ascending distinct values with their counts; empty once raw.
    runs: Vec<(u64, u64)>,
    /// Samples not yet folded into `runs` — every sample, once raw.
    tail: Vec<u64>,
    /// Samples recorded: the runs' counts plus the tail.
    len: usize,
    /// The data compressed worse than 2 : 1; the tail is never folded.
    raw: bool,
}

impl Samples {
    /// An empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: Nanos) {
        self.tail.push(v.as_nanos());
        self.len += 1;
        self.maybe_compact();
    }

    /// Number of samples.
    #[expect(clippy::len_without_is_empty, reason = "no caller asks; `len() == 0` does")]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Arithmetic mean (a `u128` sum over every sample), or zero when empty.
    pub fn mean(&self) -> Nanos {
        if self.len == 0 {
            return Nanos::ZERO;
        }
        let runs: u128 = self.runs.iter().map(|&(v, c)| v as u128 * c as u128).sum();
        let tail: u128 = self.tail.iter().map(|&v| v as u128).sum();
        Nanos(((runs + tail) / self.len as u128) as u64)
    }

    /// Exact percentile (0.0 ..= 100.0) by nearest-rank — the sample at
    /// rank `round(p / 100 · (n − 1))` in ascending order — or zero when
    /// empty.
    pub fn percentile(&mut self, p: f64) -> Nanos {
        if self.len == 0 {
            return Nanos::ZERO;
        }
        let rank = ((p / 100.0) * (self.len as f64 - 1.0)).round() as usize;
        let rank = rank.min(self.len - 1);
        if !self.raw && !self.tail.is_empty() {
            self.compact();
        }
        if self.raw {
            // Linear when nothing was recorded since the last query.
            self.tail.sort_unstable();
            return Nanos(self.tail.get(rank).copied().unwrap_or(0));
        }
        let mut seen = 0u64;
        let hit = self.runs.iter().find(|&&(_, c)| {
            seen += c;
            seen > rank as u64
        });
        Nanos(hit.map_or(0, |&(v, _)| v))
    }

    /// 99th percentile.
    pub fn p99(&mut self) -> Nanos {
        self.percentile(99.0)
    }

    /// Largest sample.
    pub fn max(&self) -> Nanos {
        let runs = self.runs.last().map(|&(v, _)| v);
        Nanos(self.tail.iter().copied().chain(runs).max().unwrap_or(0))
    }

    /// Absorb another sample set. Every statistic is a function of the
    /// merged multiset alone, so it is independent of merge order and
    /// split — the sharded runner relies on this to produce identical
    /// reports for every shard count.
    pub fn merge(&mut self, other: Samples) {
        self.len += other.len;
        if self.raw {
            self.tail.extend(other.tail);
            self.tail.extend(expand(&other.runs));
            return;
        }
        let mut fresh = other.runs;
        count_known(&mut self.runs, &mut fresh, |run| run);
        insert_runs(&mut self.runs, fresh.len(), fresh.into_iter());
        self.tail.extend(other.tail);
        self.maybe_compact();
    }

    fn maybe_compact(&mut self) {
        if !self.raw && self.tail.len() >= TAIL_MIN.max(self.runs.len() / 2) {
            self.compact();
        }
    }

    /// Fold the tail into the runs — or, once the set is past
    /// [`RAW_DECISION`] samples and would hold more than half as many
    /// distinct values, expand the runs into the tail and stay raw.
    fn compact(&mut self) {
        self.tail.sort_unstable();
        count_known(&mut self.runs, &mut self.tail, |v| (v, 1));
        let fresh = tail_runs(&self.tail).count();
        if self.len >= RAW_DECISION && 2 * (self.runs.len() + fresh) > self.len {
            // The capacity a vector pushed `len` times has, so later
            // records grow it exactly as they grew the raw vector.
            self.tail.reserve_exact(self.len.next_power_of_two() - self.tail.len());
            self.tail.extend(expand(&self.runs));
            self.runs = Vec::new();
            self.raw = true;
            return;
        }
        insert_runs(&mut self.runs, fresh, tail_runs(&self.tail));
        self.tail.clear();
    }

    /// Bytes of buffer capacity held, for the memory tests.
    #[cfg(test)]
    fn capacity_bytes(&self) -> usize {
        self.runs.capacity() * std::mem::size_of::<(u64, u64)>()
            + self.tail.capacity() * std::mem::size_of::<u64>()
    }
}

/// Every sample the runs hold, ascending.
fn expand(runs: &[(u64, u64)]) -> impl Iterator<Item = u64> + '_ {
    runs.iter().flat_map(|&(v, c)| std::iter::repeat_n(v, c as usize))
}

/// The sorted tail as ascending `(value, count)` pairs.
fn tail_runs(tail: &[u64]) -> impl DoubleEndedIterator<Item = (u64, u64)> + '_ {
    tail.chunk_by(|a, b| a == b)
        .map(|same| (same[0], same.len() as u64))
}

/// Add every ascending `incoming` sample or run whose value the ascending
/// distinct `runs` already hold to that run's count, in one forward pass
/// that keeps only the values new to `runs` in `incoming`.
fn count_known<T: Copy>(
    runs: &mut [(u64, u64)],
    incoming: &mut Vec<T>,
    as_run: impl Fn(T) -> (u64, u64),
) {
    let mut runs = runs.iter_mut().peekable();
    incoming.retain(|&item| {
        let (v, c) = as_run(item);
        while runs.next_if(|r| r.0 < v).is_some() {}
        match runs.peek_mut() {
            Some(r) if r.0 == v => {
                r.1 += c;
                false
            }
            _ => true,
        }
    });
}

/// Insert the ascending `incoming` runs, `fresh` of them and none of
/// their values in `runs`, into the ascending `runs` in place: grow it by
/// `fresh`, then fill from the back, so nothing is overwritten before it
/// has moved and no second buffer is needed.
fn insert_runs(
    runs: &mut Vec<(u64, u64)>,
    fresh: usize,
    incoming: impl DoubleEndedIterator<Item = (u64, u64)>,
) {
    let mut read = runs.len();
    runs.resize(read + fresh, (0, 0));
    let mut write = runs.len();
    for run in incoming.rev() {
        let above = runs[..read].iter().rev().take_while(|r| r.0 > run.0).count();
        runs.copy_within(read - above..read, write - above);
        read -= above;
        write -= above + 1;
        runs[write] = run;
    }
    debug_assert_eq!(read, write, "fresh miscounted the inserted runs");
}

/// Number of sub-buckets per power-of-two range: 2^5 = 32 sub-buckets,
/// giving a relative error of at most `1/32 ≈ 3.125%` on every query.
const SUB_BITS: u32 = 5;
const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Values below `2^(SUB_BITS + 1)` get one exact bucket each.
const EXACT_LIMIT: u64 = (SUB_BUCKETS as u64) * 2;
/// Power-of-two ranges above the exact region: msb in `6 ..= 63`.
const RANGES: usize = 64 - (SUB_BITS as usize + 1);
const BUCKETS: usize = EXACT_LIMIT as usize + RANGES * SUB_BUCKETS;

/// A streaming log-bucketed latency histogram (HDR-style) with bounded
/// memory: ~15 KiB of counts regardless of sample count, preallocated at
/// construction so the steady state is allocation-free.
///
/// Layout: values `0..64` land in one exact bucket each; a value with
/// most-significant bit `m ≥ 6` lands in one of 32 sub-buckets of the
/// range `[2^m, 2^(m+1))`, so every query is exact below 64 ns and within
/// `2^-5 = 3.125%` relative error above. Percentiles use the same
/// nearest-rank rule as [`Samples::percentile`] and report the bucket's
/// lower edge, which keeps the bound one-sided (never over-reports).
///
/// Completion latencies are not kept here: [`crate::RunStats`] derives the same bucketed tails
/// from its exact [`Samples`].
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("total", &self.total)
            .finish_non_exhaustive()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram with all buckets preallocated.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0u64; BUCKETS].into_boxed_slice().try_into().unwrap(),
            total: 0,
        }
    }

    #[inline]
    fn bucket_of(v: u64) -> usize {
        if v < EXACT_LIMIT {
            v as usize
        } else {
            let msb = 63 - v.leading_zeros();
            let shift = msb - SUB_BITS;
            let range = (msb - (SUB_BITS + 1)) as usize;
            EXACT_LIMIT as usize
                + range * SUB_BUCKETS
                + ((v >> shift) as usize - SUB_BUCKETS)
        }
    }

    /// What a histogram holding `v` reports for it: its bucket's lower
    /// edge. Bucketing is monotone, so the lower edge of an exact
    /// nearest-rank percentile is exactly the histogram's percentile.
    pub(crate) fn lower_edge(v: Nanos) -> Nanos {
        Nanos(Self::bucket_floor(Self::bucket_of(v.as_nanos())))
    }

    /// Lower edge of bucket `b` — the value a percentile query reports.
    #[inline]
    fn bucket_floor(b: usize) -> u64 {
        if b < EXACT_LIMIT as usize {
            b as u64
        } else {
            let rel = b - EXACT_LIMIT as usize;
            let range = rel / SUB_BUCKETS;
            let sub = rel % SUB_BUCKETS;
            let msb = range as u32 + SUB_BITS + 1;
            ((SUB_BUCKETS + sub) as u64) << (msb - SUB_BITS)
        }
    }

    /// Record one sample. Allocation-free.
    #[inline]
    pub fn record(&mut self, v: Nanos) {
        self.counts[Self::bucket_of(v.as_nanos())] += 1;
        self.total += 1;
    }

    /// Number of recorded samples. No binary reads it; the driver tests
    /// do, and no other method exposes the count.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Percentile (0.0 ..= 100.0) by nearest-rank over buckets, reporting
    /// the containing bucket's lower edge; zero when empty.
    pub fn percentile(&self, p: f64) -> Nanos {
        if self.total == 0 {
            return Nanos::ZERO;
        }
        let rank = ((p / 100.0) * (self.total as f64 - 1.0)).round() as u64;
        let rank = rank.min(self.total - 1);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Nanos(Self::bucket_floor(b));
            }
        }
        Nanos(Self::bucket_floor(BUCKETS - 1))
    }

    /// Median.
    pub fn p50(&self) -> Nanos {
        self.percentile(50.0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Nanos {
        self.percentile(99.0)
    }
}

/// Counts events in fixed windows of virtual time — the raw material for the
/// paper's time-series plots (Figs 14 & 15) and for RPS reporting.
#[derive(Debug, Clone)]
pub struct WindowedRate {
    window: Nanos,
    /// Completed windows, as event counts.
    bins: Vec<u64>,
    /// Events recorded before `start` are ignored (warm-up).
    start: Nanos,
}

impl WindowedRate {
    /// A rate tracker with the given window size, starting at `start`.
    pub fn new(window: Nanos, start: Nanos) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        WindowedRate {
            window,
            bins: Vec::new(),
            start,
        }
    }

    /// Record one event at time `t` (ignored if before `start`).
    pub fn record(&mut self, t: Nanos) {
        self.record_n(t, 1);
    }

    /// Record `n` events at time `t`.
    pub fn record_n(&mut self, t: Nanos, n: u64) {
        if t < self.start {
            return;
        }
        let bin = ((t - self.start).as_nanos() / self.window.as_nanos()) as usize;
        if self.bins.len() <= bin {
            self.bins.resize(bin + 1, 0);
        }
        self.bins[bin] += n;
    }

    /// Events per second in each completed window, as `(window_end, rate)`
    /// pairs. `horizon` truncates trailing empty windows.
    pub fn series(&self, horizon: Nanos) -> Vec<(Nanos, f64)> {
        let secs = self.window.as_secs_f64();
        let n_windows = if horizon <= self.start {
            0
        } else {
            ((horizon - self.start).as_nanos() / self.window.as_nanos()) as usize
        };
        (0..n_windows)
            .map(|i| {
                let end = self.start + self.window * (i as u64 + 1);
                let count = self.bins.get(i).copied().unwrap_or(0);
                (end, count as f64 / secs)
            })
            .collect()
    }
}

/// Bins busy time of a resource into fixed windows, for utilization
/// time-series plots (Fig 14 (1): "# CPU cores" over time).
#[derive(Debug, Clone)]
pub struct UtilizationBins {
    window: Nanos,
    bins: Vec<Nanos>,
}

impl UtilizationBins {
    /// A tracker with the given window size.
    pub fn new(window: Nanos) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        UtilizationBins {
            window,
            bins: Vec::new(),
        }
    }

    /// Record that a resource was busy over `[from, to)`, splitting the
    /// interval across window bins.
    pub fn record_busy(&mut self, from: Nanos, to: Nanos) {
        if to <= from {
            return;
        }
        let w = self.window.as_nanos();
        let mut cur = from.as_nanos();
        let end = to.as_nanos();
        while cur < end {
            let bin = (cur / w) as usize;
            let bin_end = (bin as u64 + 1) * w;
            let chunk = end.min(bin_end) - cur;
            if self.bins.len() <= bin {
                self.bins.resize(bin + 1, Nanos::ZERO);
            }
            self.bins[bin] += Nanos(chunk);
            cur += chunk;
        }
    }

    /// Busy fraction per window as `(window_end, fraction)`; values can
    /// exceed 1.0 when several resources feed one tracker (i.e. "cores
    /// used").
    pub fn series(&self, horizon: Nanos) -> Vec<(Nanos, f64)> {
        let w = self.window.as_nanos();
        let n_windows = (horizon.as_nanos() / w) as usize;
        (0..n_windows)
            .map(|i| {
                let end = Nanos((i as u64 + 1) * w);
                let busy = self.bins.get(i).copied().unwrap_or(Nanos::ZERO);
                (end, busy.as_nanos() as f64 / w as f64)
            })
            .collect()
    }
}

/// Declare a counter struct — the workspace's one counter mechanism. The
/// struct is emitted as written (every field `pub`, typed `u64` or
/// [`Nanos`]) together with `absorb`, which adds another holder's counts
/// into it, and `metrics`, its fields as `(name, value)` pairs in
/// declaration order. A name is the field's own; a `Nanos` field reports
/// nanoseconds and says so with an `_ns` suffix.
#[macro_export]
macro_rules! summed_report {
    ($(#[$meta:meta])* pub struct $name:ident { $($(#[$fmeta:meta])* pub $field:ident: $ty:ident,)* }) => {
        $(#[$meta])*
        pub struct $name { $($(#[$fmeta])* pub $field: $ty,)* }

        impl $name {
            /// Add every count of `other` into `self`.
            pub fn absorb(&mut self, other: &$name) {
                $(self.$field += other.$field;)*
            }

            /// Every field as a `(name, value)` pair, in declaration order.
            pub fn metrics(&self) -> Vec<(&'static str, u64)> {
                vec![$($crate::summed_report!(@pair $ty, $field, self.$field)),*]
            }
        }
    };
    (@pair u64, $field:ident, $value:expr) => { (stringify!($field), $value) };
    (@pair Nanos, $field:ident, $value:expr) => {
        (concat!(stringify!($field), "_ns"), $value.as_nanos())
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_mean_and_percentiles() {
        let mut s = Samples::new();
        for v in [10, 20, 30, 40, 50] {
            s.record(Nanos(v));
        }
        assert_eq!(s.mean(), Nanos(30));
        assert_eq!(s.percentile(50.0), Nanos(30));
        assert_eq!(s.percentile(0.0), Nanos(10));
        assert_eq!(s.percentile(100.0), Nanos(50));
        assert_eq!(s.max(), Nanos(50));
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn samples_empty_is_zero() {
        let mut s = Samples::new();
        assert_eq!(s.mean(), Nanos::ZERO);
        assert_eq!(s.p99(), Nanos::ZERO);
        assert_eq!(s.len(), 0);
    }

    /// A deterministic stream over `distinct` values (xorshift, no RNG dep).
    fn stream(n: usize, distinct: u64) -> impl Iterator<Item = u64> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..n).map(move |_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % distinct * 1_000
        })
    }

    #[test]
    fn repetitive_samples_cost_memory_per_distinct_value() {
        let mut s = Samples::new();
        for v in stream(1_000_000, 1_000) {
            s.record(Nanos(v));
        }
        assert!(!s.raw);
        assert_eq!(s.len(), 1_000_000);
        assert!(s.capacity_bytes() <= 64 << 10, "{} bytes", s.capacity_bytes());
    }

    #[test]
    fn all_distinct_samples_fall_back_to_one_raw_vector() {
        // Raw capacity as a `Vec<u64>` pushed `n` times grows it.
        let mut raw: Vec<u64> = Vec::new();
        let mut s = Samples::new();
        for v in 0..100_000u64 {
            raw.push(v);
            s.record(Nanos(v.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            if s.raw {
                // Past the decision point nothing but the raw vector and
                // one tail's worth of slack is held.
                let bound = (raw.capacity() + TAIL_MIN) * std::mem::size_of::<u64>();
                assert!(s.capacity_bytes() <= bound, "n={} {}", v + 1, s.capacity_bytes());
            } else {
                assert!(v < (RAW_DECISION + RAW_DECISION / 2) as u64, "n={}: no fallback", v + 1);
            }
        }
        assert!(s.raw);
        assert_eq!(s.len(), 100_000);
    }

    #[test]
    fn windowed_rate_bins_and_series() {
        let mut r = WindowedRate::new(Nanos::from_secs(1), Nanos::ZERO);
        for i in 0..10 {
            r.record(Nanos::from_millis(i * 100)); // all within first second
        }
        r.record(Nanos::from_millis(1_500)); // second window
        let series = r.series(Nanos::from_secs(2));
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].1, 10.0);
        assert_eq!(series[1].1, 1.0);
    }

    #[test]
    fn windowed_rate_ignores_warmup() {
        let mut r = WindowedRate::new(Nanos::from_secs(1), Nanos::from_secs(1));
        r.record(Nanos::from_millis(500)); // warm-up, dropped
        r.record(Nanos::from_millis(1_500));
        let series = r.series(Nanos::from_secs(2));
        assert_eq!(series, vec![(Nanos::from_secs(2), 1.0)]);
    }

    #[test]
    fn utilization_bins_split_across_windows() {
        let mut u = UtilizationBins::new(Nanos(100));
        u.record_busy(Nanos(50), Nanos(250)); // 50 in w0, 100 in w1, 50 in w2
        let s = u.series(Nanos(300));
        assert_eq!(s.len(), 3);
        assert!((s[0].1 - 0.5).abs() < 1e-9);
        assert!((s[1].1 - 1.0).abs() < 1e-9);
        assert!((s[2].1 - 0.5).abs() < 1e-9);
    }

    #[test]
    fn utilization_bins_ignore_empty_interval() {
        let mut u = UtilizationBins::new(Nanos(100));
        u.record_busy(Nanos(50), Nanos(50));
        assert!(u.series(Nanos(100)).iter().all(|&(_, f)| f == 0.0));
    }

    #[test]
    fn histogram_exact_below_limit() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 7, 63] {
            h.record(Nanos(v));
        }
        assert_eq!(h.len(), 4);
        assert_eq!(h.percentile(0.0), Nanos(0));
        assert_eq!(h.percentile(100.0), Nanos(63));
        // Nearest-rank over 4 samples: rank round(0.5 * 3) = 2 → third value.
        assert_eq!(h.p50(), Nanos(7));
    }

    #[test]
    fn histogram_bucket_roundtrip_error_bound() {
        // Every bucket floor maps back to its own bucket, floors are
        // monotone, and any value's reported floor is within the
        // documented relative error below it.
        let mut prev = None;
        for b in 0..BUCKETS {
            let floor = Histogram::bucket_floor(b);
            assert_eq!(Histogram::bucket_of(floor), b, "bucket {b}");
            if let Some(p) = prev {
                assert!(floor > p, "floors must be strictly increasing");
            }
            prev = Some(floor);
        }
        for &v in &[64u64, 100, 1_000, 12_345, 1 << 20, u64::MAX / 3, u64::MAX] {
            let floor = Histogram::bucket_floor(Histogram::bucket_of(v));
            assert!(floor <= v);
            let err = (v - floor) as f64 / v as f64;
            assert!(err < 1.0 / SUB_BUCKETS as f64 + 1e-12, "v={v} err={err}");
        }
    }

    #[test]
    fn histogram_empty_is_zero() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        assert_eq!(h.p99(), Nanos::ZERO);
        h.record(Nanos(123));
        assert!(!h.is_empty());
    }

    summed_report! {
        #[derive(Debug, Default, PartialEq)]
        pub struct Probe {
            pub sent: u64,
            pub wait: Nanos,
            pub lost: u64,
        }
    }

    #[test]
    fn metrics_name_every_field_once_in_declaration_order() {
        let p = Probe { sent: 3, wait: Nanos(7), lost: 1 };
        assert_eq!(p.metrics(), vec![("sent", 3), ("wait_ns", 7), ("lost", 1)]);
    }

    #[test]
    fn absorb_sums_every_field() {
        let mut total = Probe { sent: 1, wait: Nanos(9), lost: 0 };
        let shard = Probe { sent: 2, wait: Nanos(1), lost: 4 };
        total.absorb(&shard);
        total.absorb(&shard);
        assert_eq!(total, Probe { sent: 5, wait: Nanos(11), lost: 8 });
    }
}
