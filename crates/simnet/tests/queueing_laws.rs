//! Queueing-theory oracles for [`FifoServer`] and [`ServerBank`]: laws
//! that need no reference implementation and no paper.
//!
//! * **Conservation of work, in exact integers.** Over a seeded random
//!   submit sequence, at loads from half to one and a half times capacity:
//!   every job starts when the earliest-free server frees up (or at once)
//!   and runs on that server (the lowest index on ties), busy time equals the service submitted, busy time fits in
//!   `cores × last completion`, and each server's `backlog(now)` equals the
//!   service still unfinished on it at `now`.
//! * **Single-server closed forms.** One `FifoServer` fed by `OpenLoop`'s
//!   Poisson arrivals at ρ = 0.5 and 0.8, 2²⁰ requests each: the mean wait
//!   is ρS / 2(1−ρ) with a fixed service S (M/D/1) and ρS / (1−ρ) with
//!   exponential services of mean S (M/M/1). The tolerance comes from the
//!   run itself; see [`batch_means`].

use palladium_simnet::{FifoServer, Nanos, OpenLoop, OpenLoopConfig, ServerBank, SimRng};

/// The system under test: a bare server, or a bank of `n` of them.
enum Servers {
    One(FifoServer),
    Bank(ServerBank, usize),
}

impl Servers {
    fn cores(&self) -> usize {
        match self {
            Servers::One(_) => 1,
            Servers::Bank(_, n) => *n,
        }
    }

    fn server(&self, i: usize) -> &FifoServer {
        match self {
            Servers::One(s) => s,
            Servers::Bank(b, _) => b.get(i),
        }
    }

    fn submit(&mut self, now: Nanos, service: Nanos) -> Nanos {
        match self {
            Servers::One(s) => s.submit(now, service),
            Servers::Bank(b, _) => b.submit(now, service),
        }
    }

    fn busy_time(&self) -> Nanos {
        match self {
            Servers::One(s) => s.busy_time(),
            Servers::Bank(b, _) => b.busy_time(),
        }
    }
}

/// Jobs per conservation run, and how often the backlog law is checked.
const JOBS: usize = 4_096;
const CHECK_EVERY: usize = 16;

/// Services are uniform in `[1, MAX_SERVICE)` ns.
const MAX_SERVICE: u64 = 2_000;

/// Submit `JOBS` jobs at offered load `load` (in units of the servers'
/// capacity) and check every conservation law along the way.
fn check_conservation(mut servers: Servers, load: f64, seed: u64) {
    let what = format!("{} cores, load {load}, seed {seed}", servers.cores());
    let cores = servers.cores();
    let mut rng = SimRng::seed_from(seed);
    // Uniform gaps in `[0, 2 × mean gap)`; a zero gap is a simultaneous
    // arrival, which the bank's tie-break has to place too.
    let mean_gap = (MAX_SERVICE / 2) as f64 / (cores as f64 * load);
    let gap_bound = (2.0 * mean_gap).round() as u64;
    let mut now = Nanos::ZERO;
    let mut submitted = Nanos::ZERO;
    let mut last_done = Nanos::ZERO;
    // `(server, service, completion)` of every job not yet known finished.
    let mut pending: Vec<(usize, Nanos, Nanos)> = Vec::new();
    for i in 0..JOBS {
        now += Nanos(rng.range(0, gap_bound));
        let service = Nanos(rng.range(1, MAX_SERVICE));
        // `backlog(0)` is when a server next goes idle: the earliest-free
        // one, lowest index on ties, must take the job.
        let (earliest, server) = (0..cores)
            .map(|s| (servers.server(s).backlog(Nanos::ZERO), s))
            .min()
            .unwrap();
        let done = servers.submit(now, service);
        // Work-conserving, earliest-free dispatch: no idle server while
        // this job waits, and no double-booked one.
        assert_eq!(done, earliest.max(now) + service, "{what}: job {i}");
        assert_eq!(servers.server(server).backlog(Nanos::ZERO), done, "{what}: job {i} placed");
        submitted += service;
        last_done = last_done.max(done);
        pending.push((server, service, done));
        if i % CHECK_EVERY == 0 {
            pending.retain(|&(_, _, done)| done > now);
            for s in 0..cores {
                let unfinished: Nanos = pending
                    .iter()
                    .filter(|&&(on, _, _)| on == s)
                    .map(|&(_, service, done)| (done - now).min(service))
                    .sum();
                assert_eq!(
                    servers.server(s).backlog(now),
                    unfinished,
                    "{what}: server {s} at {now}"
                );
            }
        }
    }
    assert_eq!(
        servers.busy_time(),
        submitted,
        "{what}: busy time is the service submitted"
    );
    assert!(
        servers.busy_time() <= last_done.saturating_mul(cores as u64),
        "{what}: busy time fits in cores × last completion"
    );
}

/// The property `FifoServer::submit`'s contract rests on: fed in arrival
/// order (non-decreasing instants, as every engine submits a job when it
/// reaches the server, and as debug builds assert), a server or a bank is
/// work-conserving: none idles while a job waits.
#[test]
fn fifo_servers_conserve_work() {
    for seed in 1..=4 {
        for load in [0.5, 0.9, 1.5] {
            check_conservation(Servers::One(FifoServer::new()), load, seed);
            for cores in [1, 2, 3, 8] {
                check_conservation(Servers::Bank(ServerBank::new(cores), cores), load, seed);
            }
        }
    }
}

/// Requests per closed-form run, and the batches they are split into.
const REQUESTS: usize = 1 << 20;
const BATCHES: usize = 32;

/// Mean service time of the closed-form runs.
const SERVICE: Nanos = Nanos(10_000);

/// Standard errors allowed between the measured and the closed-form mean
/// wait. Batch means of 32 768 requests are far longer than the waits'
/// correlation (≈ 80 requests for M/M/1 at ρ = 0.8), so they are close to
/// independent, and a t statistic with 31 degrees of freedom exceeds 4
/// with probability below 0.04 %. The empty-queue start is not trimmed:
/// its deficit lasts a few hundred requests of the 2²⁰.
const STANDARD_ERRORS: f64 = 4.0;

/// The mean of the batch means and its standard error.
fn batch_means(batches: &[f64]) -> (f64, f64) {
    let k = batches.len() as f64;
    let mean = batches.iter().sum::<f64>() / k;
    let var = batches.iter().map(|m| (m - mean).powi(2)).sum::<f64>() / (k - 1.0);
    (mean, (var / k).sqrt())
}

/// Feed one `FifoServer` with Poisson arrivals at `rho / SERVICE` and
/// services drawn by `service`. Returns the per-batch mean waits in ns and
/// the mean service drawn.
fn poisson_waits(rho: f64, seed: u64, mut service: impl FnMut() -> Nanos) -> (Vec<f64>, f64) {
    let rps = rho * 1e9 / SERVICE.as_nanos() as f64;
    let mut arrivals = OpenLoop::new(&OpenLoopConfig::poisson(rps, 1), seed);
    let mut server = FifoServer::new();
    let per_batch = REQUESTS / BATCHES;
    let mut batches = Vec::with_capacity(BATCHES);
    let mut served = 0u64;
    for _ in 0..BATCHES {
        let mut waited = 0u64;
        for _ in 0..per_batch {
            let at = arrivals.next_arrival().at;
            let s = service();
            waited += server.backlog(at).as_nanos();
            served += s.as_nanos();
            server.submit(at, s);
        }
        batches.push(waited as f64 / per_batch as f64);
    }
    (batches, served as f64 / REQUESTS as f64)
}

/// Check a measured mean wait against the closed form `want`.
fn assert_mean_wait(what: &str, batches: &[f64], want: f64) {
    let (mean, se) = batch_means(batches);
    let tolerance = STANDARD_ERRORS * se;
    println!("{what}: mean wait {mean:.1} ns, closed form {want:.1} ns, ± {tolerance:.1} ns");
    // The bound is tight enough to mean something: a factor error in the
    // arrival rate or the service law cannot hide inside it.
    assert!(
        tolerance < 0.1 * want,
        "{what}: tolerance {tolerance:.1} ns too loose"
    );
    assert!(
        (mean - want).abs() <= tolerance,
        "{what}: mean wait {mean:.1} ns vs {want:.1} ns ± {tolerance:.1}"
    );
}

#[test]
fn md1_mean_wait_matches_pollaczek_khinchine() {
    for (rho, seed) in [(0.5, 11), (0.8, 12)] {
        let (batches, s) = poisson_waits(rho, seed, || SERVICE);
        assert_eq!(s, SERVICE.as_nanos() as f64);
        assert_mean_wait(
            &format!("M/D/1 at rho {rho}"),
            &batches,
            rho * s / (2.0 * (1.0 - rho)),
        );
    }
}

#[test]
fn mm1_mean_wait_matches_the_closed_form() {
    for (rho, seed) in [(0.5, 21), (0.8, 22)] {
        let mut rng = SimRng::seed_from(seed);
        let (batches, s) = poisson_waits(rho, seed, || rng.exponential(SERVICE));
        // `Nanos::scale` rounds each draw, so ρ and S come from the mean
        // service actually drawn.
        let rho = rho * s / SERVICE.as_nanos() as f64;
        assert_mean_wait(
            &format!("M/M/1 at rho {rho:.4}"),
            &batches,
            rho * s / (1.0 - rho),
        );
    }
}
