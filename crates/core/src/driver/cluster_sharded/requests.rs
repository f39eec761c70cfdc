//! The ingress's request table: one record per *live* request, so a run's
//! memory follows the requests it has in flight, not its length.
//!
//! Request ids stay a monotone counter (`req % pairs` placement reads
//! them), and [`Requests`] keeps a ring of slots indexed by `id − base`.
//! [`IngressState::retire`] frees a slot, and the front of the ring is
//! popped while it holds freed slots: the ring spans the oldest live
//! request to the newest, O(arrival rate × longest live request).
//!
//! Only an orphaned attempt (one that [`IngressState::abandon`] gave up on
//! while its frames were still in the data plane) can name a request after
//! it retires: its pending [`Ev::GwIn`] reads the pair the request was last
//! placed on, and its response, reaching the ingress, reads the client
//! whose gateway worker carries the outbound leg. So a request retired
//! with an orphaned attempt leaves a *tombstone*, `id → (client, pair)`,
//! and those late events read what they read while it was live. Only a
//! suspected pair or a failed ingress send abandons an attempt, so a
//! fault-free run keeps no tombstones unless the ingress runs out of
//! buffers; a chaos run keeps one per request it lost or retried after a
//! loss. Once the late
//! outbound leg is done, [`Ev::GwOut`] finds no live record and drops the
//! answer, as a stale send failure does.
//!
//! [`IngressState::retire`]: super::IngressState::retire
//! [`IngressState::abandon`]: super::IngressState::abandon
//! [`Ev::GwIn`]: super::Ev::GwIn
//! [`Ev::GwOut`]: super::Ev::GwOut

use std::collections::{BTreeMap, VecDeque};

use palladium_simnet::Nanos;

use super::{Phase, Terminal};

/// The record of one live request.
pub(super) struct ReqState {
    /// Closed-loop client, or open-loop function id (`validate` bounds both
    /// to 32 bits).
    pub(super) client: u32,
    /// Attempts started (1 on arrival; retries increment).
    pub(super) attempts: u32,
    /// Arrival at the ingress; an open-loop request's deadline is this plus
    /// [`OverloadConfig::deadline`](super::OverloadConfig::deadline).
    pub(super) issued: Nanos,
    /// Open loop: when its current attempt was admitted, which starts the
    /// service-latency sample its completion feeds the admission estimate.
    pub(super) admitted: Nanos,
    /// Worker pair serving this request (usually `req % pairs`; a
    /// surviving pair under failover). 16 bits, like the payload word's
    /// pair field.
    pub(super) pair: u16,
    pub(super) phase: Phase,
    /// An attempt was abandoned: its frames may still come back, so
    /// retiring the request leaves a tombstone.
    pub(super) orphaned: bool,
}

// One slot per id between the oldest live request and the newest.
const _: () = assert!(std::mem::size_of::<Option<ReqState>>() <= 32);

impl ReqState {
    /// A request `client` issues at `now` in `phase`, not yet placed on a
    /// pair.
    pub(super) fn new(client: usize, now: Nanos, phase: Phase) -> Self {
        let client = client as u32; // `validate` bounds clients and populations
        ReqState { client, attempts: 1, issued: now, admitted: now, pair: 0, phase, orphaned: false }
    }
}

/// Live requests by id, and the tombstones of retired requests whose
/// abandoned attempts may still answer (see the module docs).
pub(super) struct Requests {
    /// The id of `slots[0]`; every id below it is retired.
    base: u64,
    /// One slot per id from `base` up to the newest request, `None` once
    /// retired. The front slot is always live.
    slots: VecDeque<Option<ReqState>>,
    /// Slots holding a record.
    live: u64,
    /// `id → (client, pair)` of every request retired with an orphaned
    /// attempt.
    tombstones: BTreeMap<u64, (u32, u16)>,
}

impl Requests {
    pub(super) fn new() -> Self {
        Requests { base: 0, slots: VecDeque::new(), live: 0, tombstones: BTreeMap::new() }
    }

    /// Issue the next request: its id.
    pub(super) fn push(&mut self, st: ReqState) -> u64 {
        self.slots.push_back(Some(st));
        self.live += 1;
        self.base + self.slots.len() as u64 - 1
    }

    /// Where `req`'s slot would be, if it is not below the ring.
    fn index(&self, req: u64) -> Option<usize> {
        usize::try_from(req.checked_sub(self.base)?).ok()
    }

    /// `req`'s record, if it is live.
    pub(super) fn get(&self, req: u64) -> Option<&ReqState> {
        self.slots.get(self.index(req)?)?.as_ref()
    }

    /// The record of `req`, which must be live.
    pub(super) fn live(&self, req: u64) -> &ReqState {
        self.get(req).unwrap_or_else(|| panic!("request {req} is not live"))
    }

    /// The record of `req`, which must be live, to update.
    pub(super) fn live_mut(&mut self, req: u64) -> &mut ReqState {
        let slot = self.index(req).and_then(|i| self.slots.get_mut(i));
        slot.and_then(Option::as_mut).unwrap_or_else(|| panic!("request {req} is not live"))
    }

    /// `(client, pair)` of `req`, live or tombstoned: the pair is the one
    /// it was last placed on. Any other id is a bug.
    pub(super) fn placement(&self, req: u64) -> (usize, usize) {
        let live = self.get(req).map(|st| (st.client, st.pair));
        let placed = live.or_else(|| self.tombstones.get(&req).copied());
        debug_assert!(placed.is_some(), "request {req} is neither live nor tombstoned");
        let (client, pair) = placed.unwrap_or_default();
        (client as usize, pair as usize)
    }

    /// Free `req`'s record, leaving a tombstone if an attempt was
    /// orphaned, and pop the freed front of the ring. Returns the record.
    pub(super) fn free(&mut self, req: u64) -> ReqState {
        let slot = self.index(req).and_then(|i| self.slots.get_mut(i));
        let st = slot.and_then(Option::take).unwrap_or_else(|| panic!("request {req} retired twice"));
        self.live -= 1;
        if st.orphaned {
            self.tombstones.insert(req, (st.client, st.pair));
        }
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        st
    }

    /// Live records in id order.
    pub(super) fn iter(&self) -> impl Iterator<Item = (u64, &ReqState)> + '_ {
        (self.base..).zip(&self.slots).filter_map(|(id, slot)| Some((id, slot.as_ref()?)))
    }

    /// How many requests are live.
    pub(super) fn live_count(&self) -> u64 {
        self.live
    }

    /// How many retired requests left a tombstone.
    #[cfg(test)]
    pub(super) fn tombstones(&self) -> usize {
        self.tombstones.len()
    }
}

/// The closed loop's request ledger, on the open loop's warm-up convention
/// ([`OverloadReport`](super::OverloadReport)): an end counts iff it
/// happens at or after warm-up, and `issued` leaves out the requests that
/// ended before it. So `issued == completed + lost + live_at_end`, where
/// `completed` is the run's latency-sample count and `live_at_end` the
/// table's live records; debug builds check it when the run is folded.
pub(super) struct ClosedLedger {
    warmup: Nanos,
    /// Requests issued, less those that ended before warm-up.
    pub(super) issued: u64,
    /// Requests retired as [`Terminal::Lost`] at or after warm-up.
    lost: u64,
}

impl ClosedLedger {
    pub(super) fn new(warmup: Nanos) -> Self {
        ClosedLedger { warmup, issued: 0, lost: 0 }
    }

    /// A request ended as `end` at `at`.
    pub(super) fn retire(&mut self, at: Nanos, end: Terminal) {
        if at < self.warmup {
            self.issued -= 1;
        } else if end == Terminal::Lost {
            self.lost += 1;
        }
    }

    /// Debug builds: check the identity at the end of a run that completed
    /// `completed` requests and ends with `live_at_end` still live.
    pub(super) fn check(&self, completed: u64, live_at_end: u64) {
        debug_assert_eq!(
            self.issued,
            completed + self.lost + live_at_end,
            "closed loop: issued != completed + lost + live_at_end"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::cluster_sharded::testkit::{cluster, ingress_after};

    #[test]
    fn the_ring_pops_its_retired_front_and_keeps_ids_monotone() {
        let mut reqs = Requests::new();
        let mut issue = |client| reqs.push(ReqState::new(client, Nanos::ZERO, Phase::InFlight));
        let ids: Vec<u64> = (0..4).map(&mut issue).collect();
        assert_eq!(ids, [0, 1, 2, 3]);
        reqs.free(1);
        assert_eq!((reqs.base, reqs.slots.len(), reqs.live_count()), (0, 4, 3), "1 waits behind 0");
        reqs.free(0);
        assert_eq!((reqs.base, reqs.slots.len()), (2, 2), "0 and 1 leave together");
        assert_eq!(reqs.push(ReqState::new(9, Nanos::ZERO, Phase::InFlight)), 4);
        let live: Vec<u64> = reqs.iter().map(|(id, _)| id).collect();
        assert_eq!((live, reqs.get(1).is_none(), reqs.tombstones()), (vec![2, 3, 4], true, 0));
    }

    #[test]
    fn a_closed_loop_run_twice_as_long_reaches_the_same_ring_high_water() {
        // The ring's capacity only grows, to the power of two above the
        // most slots it ever held.
        let run = |ms| ingress_after(cluster(2).clients(32).warmup_ms(1).duration_ms(ms));
        let (short, long) = (run(4), run(8));
        let issued = long.closed.issued;
        assert_eq!(short.reqs.slots.capacity(), long.reqs.slots.capacity());
        assert!(long.reqs.slots.capacity() * 8 < issued as usize, "{issued} requests issued");
        assert!(long.reqs.live_count() <= 32, "one live request per client at most");
        assert_eq!(long.reqs.tombstones(), 0, "a fault-free run abandons nothing");
    }
}
