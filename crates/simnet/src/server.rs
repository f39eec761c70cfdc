//! FIFO servers: the queueing building block for every processing element.
//!
//! A CPU core, a DPU ARM core, a DMA engine, a NIC port — each is something
//! that serves work *one unit at a time*. Latency-versus-load behaviour in
//! the reproduction (the shape of every RPS curve in the paper) emerges from
//! these queues rather than being hard-coded.

use crate::time::Nanos;

/// A single serially-serving resource with utilization accounting.
///
/// Work is *not* stored here; callers submit `(now, service)` and get back
/// the completion time, scheduling their own completion event. `busy_until`
/// models the FIFO queue implicitly: work submitted while busy starts when
/// the server frees up.
#[derive(Debug, Clone, Default)]
pub struct FifoServer {
    busy_until: Nanos,
    /// Total busy time accumulated, for utilization reports.
    busy_accum: Nanos,
    /// Work items currently queued or in service (submitted, not completed).
    in_flight: u64,
}

impl FifoServer {
    /// A new, idle server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Submit a unit of work at `now` requiring `service` time. Returns the
    /// absolute completion time; the caller must schedule a completion event
    /// at that time and then call [`FifoServer::complete`].
    pub fn submit(&mut self, now: Nanos, service: Nanos) -> Nanos {
        let start = self.busy_until.max(now);
        let done = start.saturating_add(service);
        self.busy_until = done;
        self.busy_accum += service;
        self.in_flight += 1;
        done
    }

    /// Record that one previously submitted unit completed.
    pub fn complete(&mut self) {
        debug_assert!(self.in_flight > 0, "complete() without matching submit()");
        self.in_flight = self.in_flight.saturating_sub(1);
    }

    /// Time at which the server next becomes idle (equals `now` when idle).
    pub fn busy_until(&self) -> Nanos {
        self.busy_until
    }

    /// Queueing delay a new arrival at `now` would experience before service
    /// begins. No binary reads it: it stays as the observable of the
    /// backlog law in `tests/queueing_laws.rs`.
    pub fn backlog(&self, now: Nanos) -> Nanos {
        self.busy_until.saturating_sub(now)
    }

    /// Work items submitted but not yet completed.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Cumulative busy time.
    pub fn busy_time(&self) -> Nanos {
        self.busy_accum
    }

    /// Mean utilization over `[0, horizon]`. A busy-polling core that spins
    /// even when no work exists should be accounted by the *caller* as 100 %
    /// (see the DNE evaluation, §4.3.1 of the paper) — this method reports
    /// *useful* utilization only.
    pub fn utilization(&self, horizon: Nanos) -> f64 {
        if horizon.is_zero() {
            return 0.0;
        }
        (self.busy_accum.as_nanos() as f64 / horizon.as_nanos() as f64).min(1.0)
    }
}

/// A bank of identical FIFO servers with earliest-free dispatch — models a
/// pool of cores or a multi-engine device (e.g. the RNIC's DMA engines).
///
/// Earliest-free dispatch runs on every request hop, so the bank keeps a
/// lazy min-heap of `(busy_until, index)` beside a dense truth vector:
/// dispatch is O(log n) instead of an argmin scan over one `FifoServer`
/// cache line per core (a bank models up to dozens of cores). Heap entries
/// go stale when a server is re-dispatched; they are discarded on sight
/// against the truth vector. [`ServerBank::get_mut`] hands out direct
/// server access, so it marks the index dirty and the next dispatch
/// rebuilds it.
#[derive(Debug, Clone)]
pub struct ServerBank {
    servers: Vec<FifoServer>,
    /// Truth: `busy[i]` mirrors `servers[i].busy_until()`.
    busy: Vec<Nanos>,
    /// Lazy min-heap over `(busy_until, index)`; `Reverse` for min order.
    /// Ties break toward the lowest index by the tuple order.
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(Nanos, usize)>>,
    dirty: bool,
}

impl ServerBank {
    /// `n` identical idle servers.
    pub fn new(n: usize) -> Self {
        ServerBank {
            servers: vec![FifoServer::new(); n],
            busy: vec![Nanos::ZERO; n],
            heap: (0..n).map(|i| std::cmp::Reverse((Nanos::ZERO, i))).collect(),
            dirty: false,
        }
    }

    /// Submit to the server that will start the work the earliest (ties
    /// break toward the lowest index). Returns `(server index, completion
    /// time)`.
    pub fn submit(&mut self, now: Nanos, service: Nanos) -> (usize, Nanos) {
        assert!(!self.servers.is_empty(), "ServerBank must not be empty");
        if self.dirty {
            for (b, s) in self.busy.iter_mut().zip(&self.servers) {
                *b = s.busy_until();
            }
            self.heap.clear();
            self.heap
                .extend(self.busy.iter().enumerate().map(|(i, &b)| std::cmp::Reverse((b, i))));
            self.dirty = false;
        }
        let idx = loop {
            let &std::cmp::Reverse((b, i)) = self.heap.peek().expect("bank indexed");
            if self.busy[i] != b {
                self.heap.pop(); // stale: server was re-dispatched since
                continue;
            }
            break i;
        };
        let done = self.servers[idx].submit(now, service);
        self.busy[idx] = done;
        self.heap.pop();
        self.heap.push(std::cmp::Reverse((done, idx)));
        (idx, done)
    }

    /// Record completion on server `idx`.
    pub fn complete(&mut self, idx: usize) {
        self.servers[idx].complete();
    }

    /// Access a server by index. No binary reads it: it is the read-only
    /// view `tests/queueing_laws.rs` checks each server's backlog through,
    /// which `get_mut` would disturb by dirtying the dispatch index.
    pub fn get(&self, idx: usize) -> &FifoServer {
        &self.servers[idx]
    }

    /// Mutable access by index (for targeted submission, e.g. RSS pinning).
    pub fn get_mut(&mut self, idx: usize) -> &mut FifoServer {
        self.dirty = true;
        &mut self.servers[idx]
    }

    /// Total busy time across the bank. No binary reads it yet: it is the
    /// bank's one busy-time reader, for `tests/queueing_laws.rs` and for
    /// the per-station view of ROADMAP item 13a.
    pub fn busy_time(&self) -> Nanos {
        self.servers.iter().map(|s| s.busy_time()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_server_starts_immediately() {
        let mut s = FifoServer::new();
        let done = s.submit(Nanos(100), Nanos(50));
        assert_eq!(done, Nanos(150));
        assert_eq!(s.backlog(Nanos(120)), Nanos(30));
        assert_eq!(s.backlog(Nanos(150)), Nanos::ZERO, "idle again at 150");
    }

    #[test]
    fn busy_server_queues_fifo() {
        let mut s = FifoServer::new();
        let d1 = s.submit(Nanos(0), Nanos(100));
        let d2 = s.submit(Nanos(10), Nanos(100)); // queued behind first
        assert_eq!(d1, Nanos(100));
        assert_eq!(d2, Nanos(200));
        assert_eq!(s.backlog(Nanos(10)), Nanos(190));
        assert_eq!(s.in_flight(), 2);
        s.complete();
        s.complete();
        assert_eq!(s.in_flight(), 0);
    }

    #[test]
    fn utilization_counts_only_busy_time() {
        let mut s = FifoServer::new();
        s.submit(Nanos(0), Nanos(250));
        s.submit(Nanos(0), Nanos(250));
        assert_eq!(s.busy_time(), Nanos(500));
        assert!((s.utilization(Nanos(1_000)) - 0.5).abs() < 1e-9);
        // Utilization is clamped to 100 % even with a backlog beyond horizon.
        s.submit(Nanos(0), Nanos(10_000));
        assert_eq!(s.utilization(Nanos(1_000)), 1.0);
    }

    #[test]
    fn bank_dispatches_to_earliest_free() {
        let mut bank = ServerBank::new(2);
        let (i1, d1) = bank.submit(Nanos(0), Nanos(100));
        let (i2, d2) = bank.submit(Nanos(0), Nanos(100));
        assert_ne!(i1, i2); // second item goes to the other core
        assert_eq!(d1, Nanos(100));
        assert_eq!(d2, Nanos(100));
        let (_, d3) = bank.submit(Nanos(0), Nanos(50));
        assert_eq!(d3, Nanos(150)); // both busy, queued behind earliest
    }

    #[test]
    fn bank_tie_breaks_deterministically() {
        let mut bank = ServerBank::new(4);
        let (i, _) = bank.submit(Nanos(0), Nanos(1));
        assert_eq!(i, 0); // lowest index wins ties
    }

    #[test]
    fn bank_utilization_averages() {
        // The bank's busy time sums its servers': over `cores × horizon`
        // it is their mean utilization.
        let mut bank = ServerBank::new(2);
        bank.get_mut(0).submit(Nanos(0), Nanos(1_000));
        bank.get_mut(1).submit(Nanos(0), Nanos(500));
        assert_eq!(bank.busy_time(), Nanos(1_500));
    }
}
