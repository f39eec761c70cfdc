//! Host-side instrumentation owned by the benchmark: the wall clock, the
//! span recorder, the allocation counter and the `/proc` memory readers.
//! Nothing here reaches into the simulated system; spans sit around the
//! benchmark's calls into each layer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::json::Value;

/// The one place the benchmark reads the host clock.
#[inline]
pub fn now() -> Instant {
    // simlint: allow(no-ambient-time) — the benchmark measures host wall time from outside the simulation; nothing read here feeds virtual time
    Instant::now()
}

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Heap allocations (alloc + alloc_zeroed + realloc) made by this process
/// so far. The traced rep reports the difference across its `run` span.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// `System` plus one relaxed counter increment per allocation. It is always
/// installed — the drivers allocate ~0.0006 times per event, so the
/// increment is far below timing noise — and only the traced rep reads it.
pub struct CountingAlloc;

// SAFETY: every operation forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed atomic
// that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the caller's layout is passed through to `System::alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: the caller's layout is passed through to `System::alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    // SAFETY: the caller guarantees `ptr` came from this allocator with
    // `layout`; both go unchanged to `System::realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: the caller guarantees `ptr` came from this allocator with
    // `layout`; both go unchanged to `System::dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// A `Vm*` line of `/proc/self/status`, in bytes.
fn proc_status_bytes(key: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().strip_suffix("kB")?.trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| format!("no {key} line in /proc/self/status"))
}

/// Peak resident set size of this process so far.
pub fn peak_rss_bytes() -> Result<u64, String> {
    proc_status_bytes("VmHWM")
}

/// Current resident set size of this process.
pub fn current_rss_bytes() -> Result<u64, String> {
    proc_status_bytes("VmRSS")
}

/// One recorded interval. `parent` indexes the span that was open when
/// this one started; all spans of one invocation share its workload name.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Records spans in memory; they are written out when the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span called `name`, nested under the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of the first span called `name`, in seconds.
    pub fn seconds_of(&self, name: &str) -> Option<f64> {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
    }

    /// The spans as JSON rows `{name, start_ns, end_ns, parent, self_ns,
    /// workload}`.
    pub fn to_json(&self, workload: &str) -> Value {
        let self_ns = self_times(&self.spans);
        Value::Arr(
            self.spans
                .iter()
                .zip(self_ns)
                .map(|(s, own)| {
                    Value::obj([
                        ("name", Value::str(s.name)),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("self_ns", Value::Num(own as f64)),
                        ("workload", Value::str(workload)),
                    ])
                })
                .collect(),
        )
    }
}

/// A span's self time: its duration minus the part its direct children
/// cover. Children of one parent never overlap here (spans nest on one
/// thread), so the covered part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("workload", 0, 100, None),
            span("setup", 5, 15, Some(0)),
            span("run", 20, 90, Some(0)),
            span("inner", 30, 50, Some(2)),
            span("layers", 100, 140, None),
        ];
        // workload: 100 − (10 + 70); run: 70 − 20; leaves keep their own.
        assert_eq!(self_times(&spans), vec![20, 10, 50, 20, 40]);
    }

    #[test]
    fn tracer_nests_and_orders_spans() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.span("a", |_| ());
            t.span("b", |t| t.span("c", |_| ()));
        });
        t.span("next", |_| ());
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [
                ("outer", None),
                ("a", Some(0)),
                ("b", Some(0)),
                ("c", Some(2)),
                ("next", None)
            ]
        );
        for s in t.spans() {
            assert!(s.end_ns >= s.start_ns);
            if let Some(p) = s.parent {
                assert!(t.spans()[p].start_ns <= s.start_ns && s.end_ns <= t.spans()[p].end_ns);
            }
        }
        assert!(t.seconds_of("outer").is_some() && t.seconds_of("absent").is_none());
    }

    #[test]
    fn counter_sees_allocations() {
        let before = allocations();
        let v = std::hint::black_box(vec![0u8; 4096]);
        assert!(allocations() > before);
        drop(v);
    }

    #[test]
    fn proc_readers_report_plausible_sizes() {
        let (peak, cur) = (peak_rss_bytes().unwrap(), current_rss_bytes().unwrap());
        assert!(cur > 0 && peak >= cur / 2, "peak {peak} current {cur}");
    }
}
