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
}

impl FifoServer {
    /// A new, idle server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Submit a unit of work at `now` requiring `service` time. Returns the
    /// absolute completion time, at which the caller schedules its own
    /// completion event; the server is not told when it fires.
    ///
    /// Work is served in *submission* order, not in order of `now`: a job
    /// starts at `now` or when every job submitted before it is done,
    /// whichever is later. A job submitted with a `now` in the future
    /// reserves the server from then on, so a later submission with an
    /// earlier `now` waits behind it, and the server idles in between.
    pub fn submit(&mut self, now: Nanos, service: Nanos) -> Nanos {
        let start = self.busy_until.max(now);
        let done = start.saturating_add(service);
        self.busy_until = done;
        self.busy_accum += service;
        done
    }

    /// Queueing delay a new arrival at `now` would experience before service
    /// begins; `backlog(Nanos::ZERO)` is the instant the server next goes
    /// idle. A cluster run's stations read it at the horizon: how long past
    /// the horizon the server stays booked.
    pub fn backlog(&self, now: Nanos) -> Nanos {
        self.busy_until.saturating_sub(now)
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
/// min-heap of `(busy_until, index)` with exactly one entry per server:
/// dispatch is O(log n) instead of an argmin scan over every server (a
/// bank models up to dozens of cores). The bank is the only writer of its
/// servers, so the entries never go stale.
#[derive(Debug, Clone)]
pub struct ServerBank {
    servers: Vec<FifoServer>,
    /// Min-heap over `(busy_until, index)`; `Reverse` for min order. Ties
    /// break toward the lowest index by the tuple order.
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(Nanos, usize)>>,
}

impl ServerBank {
    /// `n` identical idle servers.
    pub fn new(n: usize) -> Self {
        ServerBank {
            servers: vec![FifoServer::new(); n],
            heap: (0..n).map(|i| std::cmp::Reverse((Nanos::ZERO, i))).collect(),
        }
    }

    /// Submit to the server that frees up the earliest (ties break toward
    /// the lowest index). Returns the completion time.
    pub fn submit(&mut self, now: Nanos, service: Nanos) -> Nanos {
        let mut top = self.heap.peek_mut().expect("ServerBank must not be empty");
        let std::cmp::Reverse((_, idx)) = *top;
        let done = self.servers[idx].submit(now, service);
        // Rewriting the root in place sifts it down once `top` drops.
        *top = std::cmp::Reverse((done, idx));
        done
    }

    /// Access a server by index: the read-only view each server's backlog
    /// is read through.
    pub fn get(&self, idx: usize) -> &FifoServer {
        &self.servers[idx]
    }

    /// Total busy time across the bank.
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
        // The server goes idle at the second job's completion.
        assert_eq!(s.backlog(Nanos::ZERO), d2);
        assert_eq!(s.backlog(d2), Nanos::ZERO);
    }

    #[test]
    fn work_is_served_in_submission_order_not_arrival_order() {
        let mut s = FifoServer::new();
        // Booked ahead of the clock: the server is reserved from 1 000.
        assert_eq!(s.submit(Nanos(1_000), Nanos(100)), Nanos(1_100));
        // Submitted next but arriving at 0, it waits behind that job: the
        // server idles over [0, 1 000) though work was there to serve.
        assert_eq!(s.submit(Nanos(0), Nanos(100)), Nanos(1_200));
        assert_eq!(s.busy_time(), Nanos(200));
        assert_eq!(s.backlog(Nanos(0)), Nanos(1_200));
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
        assert_eq!(bank.submit(Nanos(0), Nanos(100)), Nanos(100));
        // The second item goes to the other core, so it does not queue.
        assert_eq!(bank.submit(Nanos(0), Nanos(100)), Nanos(100));
        assert_eq!(bank.get(1).busy_time(), Nanos(100));
        // Both busy: queued behind the earliest.
        assert_eq!(bank.submit(Nanos(0), Nanos(50)), Nanos(150));
    }

    #[test]
    fn bank_tie_breaks_deterministically() {
        let mut bank = ServerBank::new(4);
        bank.submit(Nanos(0), Nanos(1));
        assert_eq!(bank.get(0).busy_time(), Nanos(1)); // lowest index wins ties
    }

    #[test]
    fn bank_utilization_averages() {
        // The bank's busy time sums its servers': over `cores × horizon`
        // it is their mean utilization.
        let mut bank = ServerBank::new(2);
        assert_eq!(bank.submit(Nanos(0), Nanos(1_000)), Nanos(1_000));
        assert_eq!(bank.submit(Nanos(0), Nanos(500)), Nanos(500));
        assert_eq!(bank.get(0).busy_time(), Nanos(1_000));
        assert_eq!(bank.get(1).busy_time(), Nanos(500));
        assert_eq!(bank.busy_time(), Nanos(1_500));
    }
}
