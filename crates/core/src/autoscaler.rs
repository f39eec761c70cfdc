//! The ingress gateway's horizontal autoscaler.
//!
//! Worker processes busy-poll (DPDK), so raw core usage is always 100 %;
//! the master instead measures *useful* CPU time spent on data-plane work
//! inside each worker's event loop (§3.6) and applies a hysteresis policy:
//! spawn a worker when average useful utilization exceeds 60 %, reap one
//! when it drops below 30 %. Scaling restarts worker processes, causing the
//! brief service blip visible in Fig 14 (2).

use palladium_simnet::Nanos;

/// The hysteresis policy configuration.
#[derive(Clone, Copy, Debug)]
pub struct AutoscalerConfig {
    /// Spawn a worker above this average useful utilization.
    pub scale_up_above: f64,
    /// Reap a worker below this average useful utilization.
    pub scale_down_below: f64,
    /// Minimum workers.
    pub min_workers: usize,
    /// Maximum workers (cores available to the gateway).
    pub max_workers: usize,
    /// How often the master evaluates the policy.
    pub eval_interval: Nanos,
    /// Service interruption while workers restart after a scaling action
    /// (the Fig 14 (2) blip).
    pub reload_blip: Nanos,
    /// Minimum span between two scaling *actions* (not evaluations) when
    /// driven through [`Autoscaler::evaluate_at`] — damps flapping when a
    /// flash crowd makes utilization whipsaw across both thresholds inside
    /// one worker-warmup time. `ZERO` (the default) disables the cooldown,
    /// preserving the classic per-interval policy.
    pub cooldown: Nanos,
}

impl Default for AutoscalerConfig {
    fn default() -> Self {
        AutoscalerConfig {
            scale_up_above: 0.60,
            scale_down_below: 0.30,
            min_workers: 1,
            max_workers: 24,
            eval_interval: Nanos::from_millis(500),
            reload_blip: Nanos::from_millis(120),
            cooldown: Nanos::ZERO,
        }
    }
}

/// A scaling decision.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScaleAction {
    /// Keep the current worker count.
    Hold,
    /// Spawn one worker.
    Up,
    /// Reap one worker.
    Down,
}

/// The master process's scaling logic (pure, for testability).
#[derive(Debug)]
pub struct Autoscaler {
    cfg: AutoscalerConfig,
    workers: usize,
    /// When the last non-`Hold` action was taken (cooldown anchor).
    last_action: Option<Nanos>,
    /// Decisions taken (up, down) — for reports.
    pub ups: u32,
    /// Scale-down decisions taken.
    pub downs: u32,
}

impl Autoscaler {
    /// Start with the minimum worker count.
    pub fn new(cfg: AutoscalerConfig) -> Self {
        Autoscaler {
            workers: cfg.min_workers,
            cfg,
            last_action: None,
            ups: 0,
            downs: 0,
        }
    }

    /// Current worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Evaluate the policy against the average useful utilization measured
    /// over the last interval. Applies and returns the action.
    pub fn evaluate(&mut self, avg_useful_util: f64) -> ScaleAction {
        if avg_useful_util > self.cfg.scale_up_above && self.workers < self.cfg.max_workers {
            self.workers += 1;
            self.ups += 1;
            ScaleAction::Up
        } else if avg_useful_util < self.cfg.scale_down_below && self.workers > self.cfg.min_workers
        {
            self.workers -= 1;
            self.downs += 1;
            ScaleAction::Down
        } else {
            ScaleAction::Hold
        }
    }

    /// [`Autoscaler::evaluate`] with the cooldown applied: while `now` is
    /// within `cfg.cooldown` of the last non-`Hold` action, the policy is
    /// not consulted and the answer is `Hold`. With `cooldown == ZERO`
    /// this is exactly `evaluate`.
    pub fn evaluate_at(&mut self, now: Nanos, avg_useful_util: f64) -> ScaleAction {
        if let Some(at) = self.last_action {
            if now.as_nanos() < at.as_nanos().saturating_add(self.cfg.cooldown.as_nanos()) {
                return ScaleAction::Hold;
            }
        }
        let action = self.evaluate(avg_useful_util);
        if action != ScaleAction::Hold {
            self.last_action = Some(now);
        }
        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scaler() -> Autoscaler {
        Autoscaler::new(AutoscalerConfig::default())
    }

    #[test]
    fn scales_up_above_60() {
        let mut s = scaler();
        assert_eq!(s.evaluate(0.61), ScaleAction::Up);
        assert_eq!(s.workers(), 2);
        assert_eq!(s.ups, 1);
    }

    #[test]
    fn scales_down_below_30() {
        let mut s = scaler();
        s.evaluate(0.9); // up to 2
        assert_eq!(s.evaluate(0.29), ScaleAction::Down);
        assert_eq!(s.workers(), 1);
        assert_eq!(s.downs, 1);
    }

    #[test]
    fn hysteresis_band_holds() {
        let mut s = scaler();
        s.evaluate(0.9); // 2 workers
        for util in [0.30, 0.45, 0.60] {
            assert_eq!(s.evaluate(util), ScaleAction::Hold, "util {util}");
        }
        assert_eq!(s.workers(), 2);
    }

    #[test]
    fn respects_bounds() {
        let mut s = Autoscaler::new(AutoscalerConfig {
            min_workers: 1,
            max_workers: 2,
            ..Default::default()
        });
        assert_eq!(s.evaluate(0.9), ScaleAction::Up);
        assert_eq!(s.evaluate(0.9), ScaleAction::Hold, "at max");
        assert_eq!(s.evaluate(0.1), ScaleAction::Down);
        assert_eq!(s.evaluate(0.1), ScaleAction::Hold, "at min");
    }

    #[test]
    fn cooldown_suppresses_back_to_back_actions() {
        let mut s = Autoscaler::new(AutoscalerConfig {
            cooldown: Nanos::from_millis(2),
            ..Default::default()
        });
        let t = Nanos::from_millis;
        assert_eq!(s.evaluate_at(t(0), 0.9), ScaleAction::Up);
        // Saturated again 1 ms later: inside the cooldown, forced Hold.
        assert_eq!(s.evaluate_at(t(1), 0.9), ScaleAction::Hold);
        assert_eq!(s.workers(), 2);
        // Cooldown expired: the policy acts again.
        assert_eq!(s.evaluate_at(t(2), 0.9), ScaleAction::Up);
        assert_eq!(s.workers(), 3);
        // A whipsaw to idle right after the second action is also damped.
        assert_eq!(s.evaluate_at(t(3), 0.1), ScaleAction::Hold);
        assert_eq!(s.evaluate_at(t(4), 0.1), ScaleAction::Down);
        assert_eq!(s.workers(), 2);
    }

    #[test]
    fn zero_cooldown_matches_plain_evaluate() {
        let mut a = scaler();
        let mut b = scaler();
        for (i, util) in [0.9, 0.9, 0.1, 0.45, 0.9, 0.1, 0.1].iter().enumerate() {
            let via_at = a.evaluate_at(Nanos(i as u64), *util);
            let via_plain = b.evaluate(*util);
            assert_eq!(via_at, via_plain, "step {i}");
        }
        assert_eq!(a.workers(), b.workers());
    }

    #[test]
    fn cooldown_holds_do_not_reset_the_window() {
        // Repeated saturated evaluations inside the window must not push the
        // cooldown anchor forward: the action fires exactly when the original
        // window expires.
        let mut s = Autoscaler::new(AutoscalerConfig {
            cooldown: Nanos::from_millis(10),
            ..Default::default()
        });
        assert_eq!(s.evaluate_at(Nanos::ZERO, 0.9), ScaleAction::Up);
        for ms in 1..10 {
            assert_eq!(s.evaluate_at(Nanos::from_millis(ms), 0.9), ScaleAction::Hold);
        }
        assert_eq!(s.evaluate_at(Nanos::from_millis(10), 0.9), ScaleAction::Up);
    }

    #[test]
    fn evaluate_at_respects_worker_clamps() {
        let mut s = Autoscaler::new(AutoscalerConfig {
            min_workers: 2,
            max_workers: 3,
            cooldown: Nanos::from_micros(100),
            ..Default::default()
        });
        assert_eq!(s.workers(), 2);
        assert_eq!(s.evaluate_at(Nanos(0), 0.99), ScaleAction::Up);
        assert_eq!(s.evaluate_at(Nanos(200_000), 0.99), ScaleAction::Hold, "at max");
        assert_eq!(s.workers(), 3);
        assert_eq!(s.evaluate_at(Nanos(400_000), 0.01), ScaleAction::Down);
        assert_eq!(s.evaluate_at(Nanos(600_000), 0.01), ScaleAction::Hold, "at min");
        assert_eq!(s.workers(), 2);
    }

    #[test]
    fn oscillation_resistance() {
        // A load level between the thresholds after one scale-up must not
        // flap: 2 workers at 45% hold forever.
        let mut s = scaler();
        s.evaluate(0.9);
        for _ in 0..100 {
            assert_eq!(s.evaluate(0.45), ScaleAction::Hold);
        }
        assert_eq!(s.workers(), 2);
    }
}
