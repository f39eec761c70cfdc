//! Property test of the event queue's `pop_until` boundary.
//!
//! The ordering contract itself — strict `(time, seq)` order, same-instant
//! FIFO, cancellation by id — is pinned against an independent reference
//! in `prop_arena.rs`; this file pins the one thing the sharded runner
//! adds on top: that a window deadline cuts the stream at exactly the
//! right event.

use proptest::prelude::*;

use palladium_simnet::{EventQueue, Nanos};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // Pins the `pop_until` boundary contract the sharded runner's window
    // barriers depend on (see the method docs): the deadline is
    // **inclusive** — `pop_until(t_min - 1)` returns nothing and moves
    // nothing, `pop_until(t_min)` returns exactly the earliest event — and
    // draining through a ladder of window deadlines yields the same stream
    // as sorting by `(time, schedule order)`.
    #[test]
    fn pop_until_boundary_is_exact(
        times in proptest::collection::vec(0u64..(2 << 30), 1..120),
        window in 1u64..100_000,
    ) {
        let mut q: EventQueue<u64> = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(Nanos(t), i as u64);
        }
        let mut expect: Vec<(Nanos, u64)> =
            times.iter().enumerate().map(|(i, &t)| (Nanos(t), i as u64)).collect();
        expect.sort();
        let t_min = expect[0].0;

        // Exclusive side: one short of the earliest event pops nothing
        // (and leaves the queue intact).
        if t_min.0 > 0 {
            prop_assert_eq!(q.pop_until(Nanos(t_min.0 - 1)), None);
            prop_assert_eq!(q.len(), times.len(), "must not consume");
        }
        // Inclusive side: the exact boundary pops the earliest event.
        let mut got = vec![q.pop_until(t_min).expect("inclusive boundary")];

        // Window ladder: draining through successive `pop_until(end-1)`
        // windows (the sharded runner's exact call pattern) must yield the
        // sorted stream, with every event inside its window.
        let mut k = 0u64;
        loop {
            let end = (k + 1) * window;
            while let Some(e) = q.pop_until(Nanos(end - 1)) {
                prop_assert!(e.0 .0 >= k * window && e.0 .0 < end, "window");
                got.push(e);
            }
            // Jump straight to the window holding the next pending
            // event — iterating empty windows one by one is O(t_max /
            // window), unbounded when `window` shrinks toward 1.
            match q.peek_time() {
                None => break,
                Some(t) => k = (t.0 / window).max(k + 1),
            }
        }
        prop_assert_eq!(&got, &expect, "windowed drain diverged");
    }
}
