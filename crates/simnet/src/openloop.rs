//! Open-loop traffic generation: arrival processes over a Zipf population.
//!
//! Every driver before this module was closed-loop — each client issues its
//! next request only when the previous one completes — so the cluster could
//! never be *overloaded*: offered load self-throttles to whatever the system
//! can serve. The paper's multi-tenant claims only bite when load arrives
//! whether or not the system keeps up. [`OpenLoop`] decouples arrivals from
//! completions: an [`ArrivalProcess`] fixes the instantaneous offered rate,
//! requests target a [`ZipfSampler`]-skewed function population, and the
//! driver must shed, queue or scale — overload becomes a measured regime
//! instead of an impossibility.
//!
//! Determinism discipline: arrival `i` draws *everything* it needs
//! (interarrival gap, population rank) from the stateless named stream
//! `SimRng::stream(seed, ARRIVAL_STREAM ^ i)`. No generator state beyond the
//! running clock and sequence number exists, so the first `k` arrivals are
//! byte-identical no matter how the consuming simulation is partitioned
//! (1/2/4/8 shards) or executed (sequential/threads) — the same invariance
//! contract the per-node fault streams obey.

use crate::rng::SimRng;
use crate::time::Nanos;

/// Stream-id salt for per-arrival draws (`stream = ARRIVAL_STREAM ^ seq`).
const ARRIVAL_STREAM: u64 = 0x6F70_656E_6C6F_6F70; // "openloop"

/// Floor on the instantaneous rate so interarrival means stay finite.
const MIN_RPS: f64 = 1.0;

/// A time-varying offered-load profile, in requests per second.
///
/// All four shapes are *open*: the rate is a pure function of simulated
/// time, never of completions.
#[derive(Debug, Clone, Copy)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals at a constant rate.
    Poisson { rps: f64 },
    /// Square-wave bursts: `burst_rps` for the first `duty` fraction of each
    /// `period`, `base_rps` for the rest — the periodic-spike shape.
    Bursty {
        base_rps: f64,
        burst_rps: f64,
        period: Nanos,
        duty: f64,
    },
    /// Sinusoidal day/night swing between `min_rps` and `max_rps` with the
    /// given period, starting at the trough.
    Diurnal {
        min_rps: f64,
        max_rps: f64,
        period: Nanos,
    },
    /// A flash crowd: `base_rps` until `start`, linear ramp to `peak_rps`
    /// over `ramp`, hold at peak for `hold`, linear decay back to base over
    /// `decay`. The canonical autoscaler trigger.
    FlashCrowd {
        base_rps: f64,
        peak_rps: f64,
        start: Nanos,
        ramp: Nanos,
        hold: Nanos,
        decay: Nanos,
    },
}

impl ArrivalProcess {
    /// Instantaneous offered rate at `now`, in requests per second.
    pub fn rate_at(&self, now: Nanos) -> f64 {
        let rate = match *self {
            ArrivalProcess::Poisson { rps } => rps,
            ArrivalProcess::Bursty {
                base_rps,
                burst_rps,
                period,
                duty,
            } => {
                if period.is_zero() {
                    base_rps
                } else {
                    let phase = (now.as_nanos() % period.as_nanos()) as f64
                        / period.as_nanos() as f64;
                    if phase < duty {
                        burst_rps
                    } else {
                        base_rps
                    }
                }
            }
            ArrivalProcess::Diurnal {
                min_rps,
                max_rps,
                period,
            } => {
                if period.is_zero() {
                    min_rps
                } else {
                    let phase = (now.as_nanos() % period.as_nanos()) as f64
                        / period.as_nanos() as f64;
                    let swing = 0.5 * (1.0 - (std::f64::consts::TAU * phase).cos());
                    min_rps + (max_rps - min_rps) * swing
                }
            }
            ArrivalProcess::FlashCrowd {
                base_rps,
                peak_rps,
                start,
                ramp,
                hold,
                decay,
            } => {
                if now < start {
                    base_rps
                } else {
                    let t = now.as_nanos() - start.as_nanos();
                    let (r, h, d) = (ramp.as_nanos(), hold.as_nanos(), decay.as_nanos());
                    if t < r {
                        base_rps + (peak_rps - base_rps) * t as f64 / r as f64
                    } else if t < r + h {
                        peak_rps
                    } else if t < r + h + d {
                        let dt = t - r - h;
                        peak_rps - (peak_rps - base_rps) * dt as f64 / d as f64
                    } else {
                        base_rps
                    }
                }
            }
        };
        rate.max(MIN_RPS)
    }

    /// The window over which the profile deviates from its baseline —
    /// `[start, start+ramp+hold+decay]` for a flash crowd, the whole run
    /// (`None`) otherwise. Drivers use it to scope ramp-tail measurements.
    pub fn surge_window(&self) -> Option<(Nanos, Nanos)> {
        match *self {
            ArrivalProcess::FlashCrowd {
                start,
                ramp,
                hold,
                decay,
                ..
            } => {
                let end = start.as_nanos() + ramp.as_nanos() + hold.as_nanos() + decay.as_nanos();
                Some((start, Nanos(end)))
            }
            _ => None,
        }
    }
}

/// Inverse-CDF sampler over a Zipf(s) rank distribution on `n` ranks.
///
/// Rank `r` (0-based) carries weight `1/(r+1)^s`; the cumulative table is
/// precomputed once (the only allocation) and each sample is a
/// `partition_point` binary search — no per-draw heap traffic, which the
/// alloc gate depends on.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Build the cumulative table for `n` ranks with exponent `s`
    /// (`s = 0` is uniform; the serverless literature uses `s ≈ 1`).
    pub fn new(n: u64, s: f64) -> Self {
        if s == 1.0 {
            // `pow(x, 1.0)` is exactly `x`: the canonical skew gets the
            // same table, bit for bit, without a libm call per rank.
            Self::from_weights(n, |rank| 1.0 / rank)
        } else {
            Self::from_weights(n, |rank| 1.0 / rank.powf(s))
        }
    }

    /// The normalised cumulative table of `weight(1.0) ..= weight(n)`.
    fn from_weights(n: u64, weight: impl Fn(f64) -> f64) -> Self {
        assert!(n > 0, "zipf population must be non-empty");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0f64;
        for r in 1..=n {
            acc += weight(r as f64);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        ZipfSampler { cdf }
    }

    /// Population size.
    pub fn len(&self) -> u64 {
        self.cdf.len() as u64
    }

    /// True when the population is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Map a uniform `u ∈ [0,1)` to a 0-based rank (rank 0 hottest).
    pub fn sample(&self, u: f64) -> u64 {
        let r = self.cdf.partition_point(|&c| c < u);
        (r as u64).min(self.len() - 1)
    }

    /// The probability mass of a 0-based rank.
    pub fn weight(&self, rank: u64) -> f64 {
        let i = rank as usize;
        let hi = self.cdf[i];
        let lo = if i == 0 { 0.0 } else { self.cdf[i - 1] };
        hi - lo
    }
}

/// Static description of an open-loop workload.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopConfig {
    /// The offered-rate profile.
    pub process: ArrivalProcess,
    /// Number of distinct function ids in the population (10k–100k in the
    /// overload scenarios).
    pub population: u64,
    /// Zipf skew exponent over that population.
    pub zipf_s: f64,
}

impl OpenLoopConfig {
    /// Constant-rate Poisson over a canonically skewed (s = 1) population.
    pub fn poisson(rps: f64, population: u64) -> Self {
        OpenLoopConfig {
            process: ArrivalProcess::Poisson { rps },
            population,
            zipf_s: 1.0,
        }
    }
}

/// One generated arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Absolute arrival time.
    pub at: Nanos,
    /// Arrival sequence number (0-based).
    pub seq: u64,
    /// Zipf-ranked function id in `[0, population)`; 0 is the hottest.
    pub fn_id: u64,
}

/// The open-loop arrival generator.
///
/// A non-homogeneous Poisson process by thinning-free rate stepping: the
/// gap after arrival `i` is exponential with mean `1/rate_at(t_i)` — exact
/// for piecewise-constant profiles and a standard fine-grained approximation
/// for the ramps, whose rates change negligibly within one interarrival gap
/// at the rates the overload scenarios run.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    process: ArrivalProcess,
    zipf: ZipfSampler,
    seed: u64,
    seq: u64,
    clock: Nanos,
}

impl OpenLoop {
    /// Build a generator; `seed` scopes every stateless per-arrival stream.
    pub fn new(cfg: &OpenLoopConfig, seed: u64) -> Self {
        OpenLoop {
            process: cfg.process,
            zipf: ZipfSampler::new(cfg.population, cfg.zipf_s),
            seed,
            seq: 0,
            clock: Nanos::ZERO,
        }
    }

    /// The profile this generator is driving.
    pub fn process(&self) -> &ArrivalProcess {
        &self.process
    }

    /// Generate the next arrival. Draws come from the stateless stream for
    /// this sequence number, so the sequence of arrivals depends only on
    /// `(config, seed)` — not on sharding, execution mode, or who else
    /// holds `SimRng` streams. Gaps are clamped to ≥ 1 ns so simulated time
    /// always advances.
    pub fn next_arrival(&mut self) -> Arrival {
        let seq = self.seq;
        let mut rng = SimRng::stream(self.seed, ARRIVAL_STREAM ^ seq);
        let rate = self.process.rate_at(self.clock);
        let mean = Nanos::from_f64_saturating(1e9 / rate);
        let gap = rng.exponential(mean).max(Nanos(1));
        self.clock = Nanos(self.clock.as_nanos().saturating_add(gap.as_nanos()));
        let fn_id = self.zipf.sample(rng.unit());
        self.seq = seq + 1;
        Arrival {
            at: self.clock,
            seq,
            fn_id,
        }
    }
}

/// Stateless per-tenant stream: draw `draw` for tenant (function id)
/// `tenant` under `seed` is the same value no matter who asks, when, or on
/// which shard — the per-entity invariance primitive the retry-jitter and
/// arrival machinery build on.
pub fn tenant_stream(seed: u64, tenant: u64, draw: u64) -> SimRng {
    SimRng::stream(seed ^ 0x7465_6E61_6E74, tenant.wrapping_mul(1 << 20).wrapping_add(draw))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_is_flat() {
        let p = ArrivalProcess::Poisson { rps: 50_000.0 };
        assert_eq!(p.rate_at(Nanos::ZERO), 50_000.0);
        assert_eq!(p.rate_at(Nanos::from_millis(100)), 50_000.0);
    }

    #[test]
    fn flash_crowd_ramps_and_decays() {
        let p = ArrivalProcess::FlashCrowd {
            base_rps: 10_000.0,
            peak_rps: 90_000.0,
            start: Nanos::from_millis(10),
            ramp: Nanos::from_millis(4),
            hold: Nanos::from_millis(6),
            decay: Nanos::from_millis(4),
        };
        assert_eq!(p.rate_at(Nanos::from_millis(5)), 10_000.0);
        let mid = p.rate_at(Nanos::from_millis(12));
        assert!((mid - 50_000.0).abs() < 1.0, "{mid}");
        assert_eq!(p.rate_at(Nanos::from_millis(16)), 90_000.0);
        let dec = p.rate_at(Nanos::from_millis(22));
        assert!((dec - 50_000.0).abs() < 1.0, "{dec}");
        assert_eq!(p.rate_at(Nanos::from_millis(30)), 10_000.0);
        let (lo, hi) = p.surge_window().unwrap();
        assert_eq!(lo, Nanos::from_millis(10));
        assert_eq!(hi, Nanos::from_millis(24));
    }

    #[test]
    fn bursty_duty_cycle() {
        let p = ArrivalProcess::Bursty {
            base_rps: 1_000.0,
            burst_rps: 80_000.0,
            period: Nanos::from_millis(10),
            duty: 0.2,
        };
        assert_eq!(p.rate_at(Nanos::from_millis(1)), 80_000.0);
        assert_eq!(p.rate_at(Nanos::from_millis(5)), 1_000.0);
        assert_eq!(p.rate_at(Nanos::from_millis(11)), 80_000.0);
    }

    #[test]
    fn diurnal_swings_between_bounds() {
        let p = ArrivalProcess::Diurnal {
            min_rps: 5_000.0,
            max_rps: 45_000.0,
            period: Nanos::from_millis(20),
        };
        assert!((p.rate_at(Nanos::ZERO) - 5_000.0).abs() < 1.0);
        assert!((p.rate_at(Nanos::from_millis(10)) - 45_000.0).abs() < 1.0);
        for t in 0..40 {
            let r = p.rate_at(Nanos::from_millis(t));
            assert!((5_000.0..=45_000.0).contains(&r), "{r}");
        }
    }

    #[test]
    fn zipf_is_a_distribution_and_skewed() {
        let z = ZipfSampler::new(10_000, 1.0);
        let total: f64 = (0..z.len()).map(|r| z.weight(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(z.weight(0) > 100.0 * z.weight(9_999));
        // Inverse CDF hits the extremes.
        assert_eq!(z.sample(0.0), 0);
        assert_eq!(z.sample(0.999_999_999), z.len() - 1);
    }

    #[test]
    fn unit_skew_shortcut_builds_the_same_table() {
        // `new(_, 1.0)` divides instead of calling `powf`; the benchmark's
        // 10k-function population must not move by a bit.
        let general = ZipfSampler::from_weights(10_000, |rank| 1.0 / rank.powf(1.0));
        let bits = |z: &ZipfSampler| z.cdf.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&ZipfSampler::new(10_000, 1.0)), bits(&general));
    }

    #[test]
    fn arrivals_are_stateless_in_sequence() {
        let cfg = OpenLoopConfig::poisson(40_000.0, 10_000);
        let mut a = OpenLoop::new(&cfg, 42);
        let mut b = OpenLoop::new(&cfg, 42);
        // Interleave unrelated stream constructions; `a`'s draws must not move.
        for _ in 0..256 {
            let _noise = SimRng::stream(42, 0xDEAD);
            assert_eq!(a.next_arrival(), b.next_arrival());
        }
        let mut c = OpenLoop::new(&cfg, 43);
        assert_ne!(a.next_arrival().at, {
            for _ in 0..256 {
                c.next_arrival();
            }
            c.next_arrival().at
        });
    }

    #[test]
    fn arrival_clock_is_monotone() {
        let cfg = OpenLoopConfig::poisson(1_000_000.0, 100);
        let mut g = OpenLoop::new(&cfg, 7);
        let mut last = Nanos::ZERO;
        for _ in 0..10_000 {
            let a = g.next_arrival();
            assert!(a.at > last);
            last = a.at;
        }
    }

    #[test]
    fn tenant_streams_are_stateless() {
        let mut a = tenant_stream(42, 17, 3);
        let _noise = tenant_stream(42, 18, 3);
        let mut b = tenant_stream(42, 17, 3);
        for _ in 0..64 {
            assert_eq!(a.range(0, 1 << 30), b.range(0, 1 << 30));
        }
    }
}
