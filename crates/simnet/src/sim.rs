//! The simulation driver: a virtual clock plus the event queue.
//!
//! `Sim<M>` is intentionally minimal — substrate crates expose *passive*
//! state machines (smoltcp-style: poke them, get timed effects back) and the
//! composing driver owns a `Sim` and converts effects into scheduled
//! messages. This keeps every component unit-testable without a running
//! simulation.

use crate::queue::{EventId, EventQueue};
use crate::time::Nanos;

/// A value paired with the *relative* delay after which it takes effect.
/// Substrate state machines return `Timed<Effect>` lists; drivers add the
/// current time and schedule them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Timed<T> {
    /// Delay relative to "now" at the point the effect was produced.
    pub after: Nanos,
    /// The effect itself.
    pub value: T,
}

impl<T> Timed<T> {
    /// An effect taking place after `after`.
    pub fn new(after: Nanos, value: T) -> Self {
        Timed { after, value }
    }

    /// An effect taking place immediately.
    pub fn now(value: T) -> Self {
        Timed {
            after: Nanos::ZERO,
            value,
        }
    }

    /// Map the payload, keeping the delay. Drivers use this to lift substrate
    /// effects into their own event enum.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Timed<U> {
        Timed {
            after: self.after,
            value: f(self.value),
        }
    }
}

/// The discrete-event simulation core: current time plus pending events.
///
/// Pending payloads live in the queue's slot vector: [`Sim::schedule`]
/// moves `msg` into a tag-checked slot and the heap orders 16-byte keys;
/// [`Sim::next`] moves the payload back out (the slot returns to the free
/// list). Drivers can therefore carry large
/// event variants — full RDMA frames, work requests — without boxing
/// them: steady-state scheduling performs zero heap allocation however
/// big `M` is.
pub struct Sim<M> {
    now: Nanos,
    queue: EventQueue<M>,
    fired: u64,
}

impl<M> Default for Sim<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Sim<M> {
    /// A simulation at time zero with no pending events.
    pub fn new() -> Self {
        Sim {
            now: Nanos::ZERO,
            queue: EventQueue::new(),
            fired: 0,
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Total number of events fired so far (for run-away detection and
    /// reporting).
    #[inline]
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// Schedule `msg` to fire `delay` after the current time.
    pub fn schedule(&mut self, delay: Nanos, msg: M) -> EventId {
        self.queue.schedule_at(self.now.saturating_add(delay), msg)
    }

    /// Schedule `msg` at an absolute virtual time. Scheduling in the past is
    /// a logic error and panics in debug builds; in release it clamps to
    /// "now" to remain deterministic.
    pub fn schedule_at(&mut self, at: Nanos, msg: M) -> EventId {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        self.queue.schedule_at(at.max(self.now), msg)
    }

    /// Cancel a scheduled event (timer). No-op if it already fired.
    pub fn cancel(&mut self, id: EventId) {
        self.queue.cancel(id);
    }

    /// Advance the clock to the next event and return it, or `None` when the
    /// simulation has run dry.
    #[expect(
        clippy::should_implement_trait,
        reason = "not an Iterator: advancing mutates the clock, and a `for` loop over a \
                  simulation would hide that"
    )]
    pub fn next(&mut self) -> Option<(Nanos, M)> {
        let (at, msg) = self.queue.pop()?;
        debug_assert!(at >= self.now, "event queue went backwards");
        self.now = at;
        self.fired += 1;
        Some((at, msg))
    }

    /// [`Sim::next`], but only consuming the event when it fires at or
    /// before `deadline` (later events stay queued and the clock does not
    /// move).
    ///
    /// The deadline is **inclusive**, exactly as
    /// [`EventQueue::pop_until`]'s boundary contract specifies — window-
    /// based callers wanting "strictly before `end`" pass `end - 1` (see
    /// [`crate::harness::Harness::run_window`]).
    pub fn next_until(&mut self, deadline: Nanos) -> Option<(Nanos, M)> {
        let (at, msg) = self.queue.pop_until(deadline)?;
        debug_assert!(at >= self.now, "event queue went backwards");
        self.now = at;
        self.fired += 1;
        Some((at, msg))
    }

    /// Move the clock forward to `deadline` (never backwards). For a
    /// driver loop that has just found nothing pending at or before
    /// `deadline`; pending events are not examined.
    pub(crate) fn park_at(&mut self, deadline: Nanos) {
        self.now = self.now.max(deadline);
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Ping(u32),
    }

    #[test]
    fn clock_advances_with_events() {
        let mut sim: Sim<Ev> = Sim::new();
        sim.schedule(Nanos(100), Ev::Ping(1));
        sim.schedule(Nanos(50), Ev::Ping(0));
        let (t, e) = sim.next().unwrap();
        assert_eq!((t, e), (Nanos(50), Ev::Ping(0)));
        assert_eq!(sim.now(), Nanos(50));
        let (t, _) = sim.next().unwrap();
        assert_eq!(t, Nanos(100));
        assert!(sim.next().is_none());
        assert_eq!(sim.events_fired(), 2);
    }

    #[test]
    fn timed_map_lifts_payload() {
        let t = Timed::new(Nanos(5), 7u32).map(|v| v * 2);
        assert_eq!(t, Timed::new(Nanos(5), 14u32));
        assert_eq!(Timed::now(1u8).after, Nanos::ZERO);
    }

    #[test]
    fn cancel_timer() {
        let mut sim: Sim<Ev> = Sim::new();
        let id = sim.schedule(Nanos(10), Ev::Ping(0));
        sim.cancel(id);
        assert!(sim.next().is_none());
    }
}
