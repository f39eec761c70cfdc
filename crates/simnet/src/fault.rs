//! Fault injection for the simulated fabric and devices.
//!
//! Mirrors the knobs smoltcp exposes for its examples (`--drop-chance`,
//! `--corrupt-chance`, rate limits): the reproduction's RC transport must
//! keep delivering exactly-once, in-order under any of these faults, and the
//! integration tests exercise exactly that.
//!
//! A [`FaultPlan`] is one bounded window of misbehavior
//! (`active_after ..= active_until`); a [`FaultTimeline`] composes several
//! plans into a schedule — link flaps and burst-loss storms are just
//! sequences of bounded windows (`simnet::chaos` builds them from scenario
//! scripts).

use crate::rng::SimRng;
use crate::time::Nanos;

/// What the fault injector decided to do with one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Deliver untouched.
    Pass,
    /// Silently drop.
    Drop,
    /// Deliver but flip bits (the receiver's integrity check must catch it).
    Corrupt,
}

/// A declarative fault plan applied to a link or device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability a packet is dropped, `0.0 ..= 1.0`.
    pub drop_chance: f64,
    /// Probability a surviving packet is corrupted.
    pub corrupt_chance: f64,
    /// Additional uniformly distributed delay applied per packet, `0` to
    /// `max_extra_delay` — models cross-traffic induced queueing.
    pub max_extra_delay: Nanos,
    /// Faults apply only after this instant (lets tests warm up cleanly).
    pub active_after: Nanos,
    /// Faults apply only *before* this instant — a bounded fault window.
    /// [`Nanos::MAX`] (the default) means "forever", preserving the
    /// original open-ended semantics; link flaps and burst storms set a
    /// finite bound and compose windows via [`FaultTimeline`].
    pub active_until: Nanos,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::NONE
    }
}

impl FaultPlan {
    /// The fault-free plan.
    pub const NONE: FaultPlan = FaultPlan {
        drop_chance: 0.0,
        corrupt_chance: 0.0,
        max_extra_delay: Nanos::ZERO,
        active_after: Nanos::ZERO,
        active_until: Nanos::MAX,
    };

    /// A plan that only drops packets.
    pub fn dropping(p: f64) -> Self {
        FaultPlan {
            drop_chance: p,
            ..FaultPlan::NONE
        }
    }

    /// Restrict this plan to the window `[from, until)`.
    pub fn window(mut self, from: Nanos, until: Nanos) -> Self {
        self.active_after = from;
        self.active_until = until;
        self
    }

    /// True when this plan can never touch a packet.
    pub fn is_none(&self) -> bool {
        self.drop_chance <= 0.0
            && self.corrupt_chance <= 0.0
            && self.max_extra_delay.is_zero()
    }

    /// True when the plan's window covers `now`.
    #[inline]
    pub fn active_at(&self, now: Nanos) -> bool {
        now >= self.active_after && now < self.active_until
    }

    /// Decide the fate of one packet at time `now`.
    pub fn judge(&self, now: Nanos, rng: &mut SimRng) -> Verdict {
        if !self.active_at(now) || self.is_none() {
            return Verdict::Pass;
        }
        if rng.chance(self.drop_chance) {
            return Verdict::Drop;
        }
        if rng.chance(self.corrupt_chance) {
            return Verdict::Corrupt;
        }
        Verdict::Pass
    }

    /// Extra queueing delay for one (surviving) packet.
    pub fn extra_delay(&self, now: Nanos, rng: &mut SimRng) -> Nanos {
        if !self.active_at(now) || self.max_extra_delay.is_zero() {
            return Nanos::ZERO;
        }
        Nanos(rng.range(0, self.max_extra_delay.as_nanos() + 1))
    }
}

/// A schedule of bounded fault windows for one node or link: link flaps,
/// burst-loss storms and similar compose as segments. Segments may
/// overlap; the *first* (in insertion order) whose window covers `now`
/// wins, so later segments act as fallbacks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultTimeline {
    segments: Vec<FaultPlan>,
}

impl FaultTimeline {
    /// An empty (fault-free) timeline.
    pub const fn new() -> Self {
        FaultTimeline { segments: Vec::new() }
    }

    /// A timeline with one segment.
    pub fn from_plan(plan: FaultPlan) -> Self {
        let mut tl = FaultTimeline::new();
        tl.push(plan);
        tl
    }

    /// Append a fault window.
    pub fn push(&mut self, plan: FaultPlan) {
        if !plan.is_none() {
            self.segments.push(plan);
        }
    }

    /// True when no segment can ever fire.
    pub fn is_none(&self) -> bool {
        self.segments.is_empty()
    }

    /// The plan in force at `now` ([`FaultPlan::NONE`] between windows).
    #[inline]
    pub fn plan_at(&self, now: Nanos) -> FaultPlan {
        for seg in &self.segments {
            if seg.active_at(now) {
                return *seg;
            }
        }
        FaultPlan::NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_always_passes() {
        let mut rng = SimRng::seed_from(1);
        let plan = FaultPlan::NONE;
        for _ in 0..100 {
            assert_eq!(plan.judge(Nanos(0), &mut rng), Verdict::Pass);
        }
        assert!(plan.is_none());
    }

    #[test]
    fn drop_rate_is_calibrated() {
        let mut rng = SimRng::seed_from(2);
        let plan = FaultPlan::dropping(0.15);
        let drops = (0..10_000)
            .filter(|_| plan.judge(Nanos(0), &mut rng) == Verdict::Drop)
            .count();
        assert!((1_300..1_700).contains(&drops), "got {drops}");
    }

    #[test]
    fn corrupt_applies_to_survivors() {
        let mut rng = SimRng::seed_from(3);
        let plan = FaultPlan {
            drop_chance: 0.5,
            corrupt_chance: 1.0,
            ..FaultPlan::NONE
        };
        for _ in 0..100 {
            let v = plan.judge(Nanos(0), &mut rng);
            assert!(v == Verdict::Drop || v == Verdict::Corrupt);
        }
    }

    #[test]
    fn inactive_before_activation_time() {
        let mut rng = SimRng::seed_from(4);
        let plan = FaultPlan {
            drop_chance: 1.0,
            active_after: Nanos(1_000),
            ..FaultPlan::NONE
        };
        assert_eq!(plan.judge(Nanos(999), &mut rng), Verdict::Pass);
        assert_eq!(plan.judge(Nanos(1_000), &mut rng), Verdict::Drop);
    }

    #[test]
    fn inactive_after_window_end() {
        let mut rng = SimRng::seed_from(6);
        let plan = FaultPlan::dropping(1.0).window(Nanos(1_000), Nanos(2_000));
        assert_eq!(plan.judge(Nanos(999), &mut rng), Verdict::Pass);
        assert_eq!(plan.judge(Nanos(1_000), &mut rng), Verdict::Drop);
        assert_eq!(plan.judge(Nanos(1_999), &mut rng), Verdict::Drop);
        assert_eq!(plan.judge(Nanos(2_000), &mut rng), Verdict::Pass);
        assert_eq!(plan.extra_delay(Nanos(2_000), &mut rng), Nanos::ZERO);
    }

    #[test]
    fn extra_delay_bounded() {
        let mut rng = SimRng::seed_from(5);
        let plan = FaultPlan {
            max_extra_delay: Nanos(500),
            ..FaultPlan::NONE
        };
        for _ in 0..1_000 {
            assert!(plan.extra_delay(Nanos(0), &mut rng) <= Nanos(500));
        }
        assert_eq!(FaultPlan::NONE.extra_delay(Nanos(0), &mut rng), Nanos::ZERO);
    }

    #[test]
    fn timeline_selects_the_covering_segment() {
        let mut tl = FaultTimeline::new();
        tl.push(FaultPlan::dropping(1.0).window(Nanos(100), Nanos(200)));
        let corrupt = FaultPlan { corrupt_chance: 1.0, ..FaultPlan::NONE };
        tl.push(corrupt.window(Nanos(300), Nanos(400)));
        assert!(tl.plan_at(Nanos(50)).is_none());
        assert_eq!(tl.plan_at(Nanos(150)).drop_chance, 1.0);
        assert!(tl.plan_at(Nanos(250)).is_none());
        assert_eq!(tl.plan_at(Nanos(350)).corrupt_chance, 1.0);
        assert!(tl.plan_at(Nanos(400)).is_none());
        assert!(!tl.is_none());
        // NONE segments are not stored: the timeline stays cheap to scan.
        let mut empty = FaultTimeline::new();
        empty.push(FaultPlan::NONE);
        assert!(empty.is_none());
    }
}
