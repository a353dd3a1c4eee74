//! Arrival processes: who asks for the data item, and when.
//!
//! The paper's probabilistic model (§3): reads are issued at the MC
//! according to a Poisson process with rate λ_r, writes at the SC with rate
//! λ_w, independently. Because the merged process is Poisson with rate
//! λ_r + λ_w and each event is independently a write with probability
//! `θ = λ_w / (λ_r + λ_w)`, a workload is fully described by `(rate, θ)`.
//!
//! For the *average expected cost* experiments the paper lets θ drift: time
//! splits into periods, each with its own (λ_r, λ_w) drawn so that θ is
//! uniform on [0, 1] — [`DriftingPoisson`] models exactly that.
//!
//! Paired runs price every algorithm against the same stream. A
//! [`SharedStream`] draws a stream's first arrivals once, and each run
//! reads them back through its own [`Replay`], which continues from a
//! clone of the generator where the shared draws stopped.

use crate::perf::BatchedF64;
use mdr_core::{Request, Schedule};

/// A timestamped relevant request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Simulation time of issue (reads at the MC, writes at the SC).
    pub time: f64,
    /// The request.
    pub request: Request,
}

/// A source of timestamped requests. Processes are infinite unless
/// documented otherwise; the simulation imposes the stopping rule.
pub trait ArrivalProcess {
    /// The next arrival, or `None` if the process is exhausted.
    fn next_arrival(&mut self) -> Option<Arrival>;
}

/// Draws an Exp(rate) inter-arrival time by inverse CDF.
fn exp_sample(rng: &mut BatchedF64, rate: f64) -> f64 {
    debug_assert!(rate > 0.0);
    // 1 − u ∈ (0, 1]; ln of it is finite and ≤ 0.
    let u: f64 = rng.draw();
    -f64::ln(1.0 - u) / rate
}

/// The paper's stationary workload: merged Poisson reads and writes.
///
/// A clone continues the stream exactly where the original stands.
#[derive(Debug, Clone)]
pub struct PoissonWorkload {
    rng: BatchedF64,
    total_rate: f64,
    theta: f64,
    clock: f64,
}

impl PoissonWorkload {
    /// Creates the merged process from the two rates (λ_r reads/unit time at
    /// the MC, λ_w writes/unit time at the SC).
    ///
    /// # Panics
    ///
    /// Panics unless `lambda_r + lambda_w > 0` and both are non-negative.
    pub fn from_rates(lambda_r: f64, lambda_w: f64, seed: u64) -> Self {
        assert!(
            lambda_r >= 0.0 && lambda_w >= 0.0,
            "rates must be non-negative"
        );
        let total = lambda_r + lambda_w;
        assert!(total > 0.0, "at least one rate must be positive");
        PoissonWorkload {
            rng: BatchedF64::new(seed),
            total_rate: total,
            theta: lambda_w / total,
            clock: 0.0,
        }
    }

    /// Creates the process from the merged rate and the write fraction θ —
    /// the `(rate, θ)` parameterization used throughout the analysis.
    pub fn from_theta(rate: f64, theta: f64, seed: u64) -> Self {
        assert!(rate > 0.0, "rate must be positive");
        assert!((0.0..=1.0).contains(&theta), "θ out of range: {theta}");
        PoissonWorkload {
            rng: BatchedF64::new(seed),
            total_rate: rate,
            theta,
            clock: 0.0,
        }
    }

    /// The write fraction θ of this workload.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The next arrival: the process never runs dry.
    fn arrival(&mut self) -> Arrival {
        self.clock += exp_sample(&mut self.rng, self.total_rate);
        let request = if self.rng.draw() < self.theta {
            Request::Write
        } else {
            Request::Read
        };
        Arrival {
            time: self.clock,
            request,
        }
    }
}

impl ArrivalProcess for PoissonWorkload {
    fn next_arrival(&mut self) -> Option<Arrival> {
        Some(self.arrival())
    }
}

/// The first arrivals of a [`PoissonWorkload`], drawn once for every run
/// that replays them, and the generator where those draws stopped.
///
/// ```
/// use mdr_sim::{ArrivalProcess, PoissonWorkload, SharedStream};
///
/// let stream = SharedStream::draw(PoissonWorkload::from_theta(1.0, 0.3, 7), 100);
/// let mut fresh = PoissonWorkload::from_theta(1.0, 0.3, 7);
/// let mut replay = stream.replay();
/// // The first 100 arrivals come from the shared prefix, the rest from the
/// // replay's own clone of the generator: the same stream either way.
/// for _ in 0..150 {
///     assert_eq!(replay.next_arrival(), fresh.next_arrival());
/// }
/// ```
#[derive(Debug)]
pub struct SharedStream {
    prefix: Vec<Arrival>,
    rest: PoissonWorkload,
}

impl SharedStream {
    /// Draws the first `n` arrivals of `workload`.
    pub fn draw(mut workload: PoissonWorkload, n: usize) -> Self {
        let prefix = (0..n).map(|_| workload.arrival()).collect();
        SharedStream {
            prefix,
            rest: workload,
        }
    }

    /// A fresh reader of the stream from its first arrival. Replays of one
    /// stream are independent: each past the prefix draws from its own
    /// clone of the generator, so each yields exactly the arrivals a fresh
    /// generator would.
    pub fn replay(&self) -> Replay<'_> {
        Replay {
            prefix: self.prefix.iter(),
            rest: self.rest.clone(),
        }
    }
}

/// One run's reader of a [`SharedStream`]: the shared prefix, then its own
/// clone of the generator.
#[derive(Debug)]
pub struct Replay<'a> {
    prefix: std::slice::Iter<'a, Arrival>,
    rest: PoissonWorkload,
}

impl ArrivalProcess for Replay<'_> {
    fn next_arrival(&mut self) -> Option<Arrival> {
        Some(match self.prefix.next() {
            Some(&arrival) => arrival,
            None => self.rest.arrival(),
        })
    }
}

/// One period of a drifting workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Period {
    /// Number of requests in the period.
    pub requests: usize,
    /// Write fraction during the period.
    pub theta: f64,
    /// Merged arrival rate during the period.
    pub rate: f64,
}

/// The AVG-measure workload (§3, discussion below Eq. 1): time is divided
/// into periods; within period *i* requests are Poisson with write fraction
/// θ_i, and each θ_i is an independent uniform draw from [0, 1].
#[derive(Debug)]
pub struct DriftingPoisson {
    rng: BatchedF64,
    rate: f64,
    requests_per_period: usize,
    periods_left: Option<usize>,
    in_period: usize,
    theta: f64,
    clock: f64,
    /// Realized θ draws, oldest first (for reporting).
    thetas: Vec<f64>,
}

impl DriftingPoisson {
    /// Creates the drifting workload. `periods = None` makes it infinite.
    pub fn new(rate: f64, requests_per_period: usize, periods: Option<usize>, seed: u64) -> Self {
        assert!(rate > 0.0);
        assert!(requests_per_period > 0);
        DriftingPoisson {
            rng: BatchedF64::new(seed),
            rate,
            requests_per_period,
            periods_left: periods,
            in_period: 0,
            theta: f64::NAN,
            clock: 0.0,
            thetas: Vec::new(),
        }
    }

    /// The θ values drawn so far.
    pub fn thetas(&self) -> &[f64] {
        &self.thetas
    }

    /// Summaries of the periods generated so far.
    pub fn periods(&self) -> Vec<Period> {
        self.thetas
            .iter()
            .map(|&theta| Period {
                requests: self.requests_per_period,
                theta,
                rate: self.rate,
            })
            .collect()
    }
}

impl ArrivalProcess for DriftingPoisson {
    fn next_arrival(&mut self) -> Option<Arrival> {
        if self.in_period == 0 {
            match &mut self.periods_left {
                Some(0) => return None,
                Some(n) => *n -= 1,
                None => {}
            }
            self.theta = self.rng.draw();
            self.thetas.push(self.theta);
            self.in_period = self.requests_per_period;
        }
        self.in_period -= 1;
        self.clock += exp_sample(&mut self.rng, self.rate);
        let request = if self.rng.draw() < self.theta {
            Request::Write
        } else {
            Request::Read
        };
        Some(Arrival {
            time: self.clock,
            request,
        })
    }
}

/// Replays a fixed [`Schedule`] with constant spacing — used to feed
/// hand-crafted (e.g. adversarial) schedules through the full distributed
/// protocol.
#[derive(Debug)]
pub struct TraceWorkload {
    schedule: Schedule,
    spacing: f64,
    next_index: usize,
}

impl TraceWorkload {
    /// Creates the trace with `spacing` time units between requests.
    pub fn new(schedule: Schedule, spacing: f64) -> Self {
        assert!(spacing > 0.0, "spacing must be positive");
        TraceWorkload {
            schedule,
            spacing,
            next_index: 0,
        }
    }
}

impl ArrivalProcess for TraceWorkload {
    fn next_arrival(&mut self) -> Option<Arrival> {
        let req = *self.schedule.as_slice().get(self.next_index)?;
        self.next_index += 1;
        Some(Arrival {
            time: self.next_index as f64 * self.spacing,
            request: req,
        })
    }
}

/// A workload with alternating read-heavy and write-heavy phases — the
/// "salesperson by day, batch-update by night" pattern from the paper's
/// introduction; used in examples and the adaptivity experiments.
#[derive(Debug)]
pub struct PhasedWorkload {
    rng: BatchedF64,
    rate: f64,
    phase_len: usize,
    thetas: [f64; 2],
    phase: usize,
    in_phase: usize,
    clock: f64,
}

impl PhasedWorkload {
    /// Alternates between `theta_a` and `theta_b` every `phase_len`
    /// requests.
    pub fn new(rate: f64, phase_len: usize, theta_a: f64, theta_b: f64, seed: u64) -> Self {
        assert!(rate > 0.0 && phase_len > 0);
        assert!((0.0..=1.0).contains(&theta_a) && (0.0..=1.0).contains(&theta_b));
        PhasedWorkload {
            rng: BatchedF64::new(seed),
            rate,
            phase_len,
            thetas: [theta_a, theta_b],
            phase: 0,
            in_phase: 0,
            clock: 0.0,
        }
    }
}

impl ArrivalProcess for PhasedWorkload {
    fn next_arrival(&mut self) -> Option<Arrival> {
        if self.in_phase == self.phase_len {
            self.in_phase = 0;
            self.phase = 1 - self.phase;
        }
        self.in_phase += 1;
        self.clock += exp_sample(&mut self.rng, self.rate);
        let theta = self.thetas[self.phase];
        let request = if self.rng.draw() < theta {
            Request::Write
        } else {
            Request::Read
        };
        Some(Arrival {
            time: self.clock,
            request,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(process: &mut dyn ArrivalProcess, n: usize) -> Vec<Arrival> {
        (0..n).map_while(|_| process.next_arrival()).collect()
    }

    #[test]
    fn poisson_times_increase_strictly() {
        let mut w = PoissonWorkload::from_theta(2.0, 0.5, 7);
        let arrivals = take(&mut w, 1000);
        for pair in arrivals.windows(2) {
            assert!(pair[1].time > pair[0].time);
        }
    }

    #[test]
    fn poisson_write_fraction_converges_to_theta() {
        let mut w = PoissonWorkload::from_theta(1.0, 0.3, 42);
        let arrivals = take(&mut w, 40_000);
        let writes = arrivals.iter().filter(|a| a.request.is_write()).count();
        let frac = writes as f64 / arrivals.len() as f64;
        assert!((frac - 0.3).abs() < 0.01, "{frac}");
    }

    #[test]
    fn poisson_interarrival_mean_matches_rate() {
        let rate = 4.0;
        let mut w = PoissonWorkload::from_theta(rate, 0.5, 3);
        let arrivals = take(&mut w, 50_000);
        let mean = arrivals.last().unwrap().time / arrivals.len() as f64;
        assert!((mean - 1.0 / rate).abs() < 0.01, "{mean}");
    }

    #[test]
    fn from_rates_computes_theta() {
        let w = PoissonWorkload::from_rates(3.0, 1.0, 0);
        assert!((w.theta() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let a = take(&mut PoissonWorkload::from_theta(1.0, 0.5, 9), 100);
        let b = take(&mut PoissonWorkload::from_theta(1.0, 0.5, 9), 100);
        assert_eq!(a, b);
        let c = take(&mut PoissonWorkload::from_theta(1.0, 0.5, 10), 100);
        assert_ne!(a, c);
    }

    #[test]
    fn drifting_draws_one_theta_per_period() {
        let mut w = DriftingPoisson::new(1.0, 50, Some(8), 5);
        let arrivals = take(&mut w, 10_000);
        assert_eq!(arrivals.len(), 400, "8 periods × 50 requests");
        assert_eq!(w.thetas().len(), 8);
        for &t in w.thetas() {
            assert!((0.0..=1.0).contains(&t));
        }
        // The draws must actually vary.
        let first = w.thetas()[0];
        assert!(w.thetas().iter().any(|&t| (t - first).abs() > 1e-6));
    }

    #[test]
    fn drifting_periods_have_matching_write_fractions() {
        let mut w = DriftingPoisson::new(1.0, 4000, Some(5), 11);
        let arrivals = take(&mut w, 100_000);
        for (i, &theta) in w.thetas().to_vec().iter().enumerate() {
            let chunk = &arrivals[i * 4000..(i + 1) * 4000];
            let frac = chunk.iter().filter(|a| a.request.is_write()).count() as f64 / 4000.0;
            assert!((frac - theta).abs() < 0.05, "period {i}: {frac} vs {theta}");
        }
    }

    #[test]
    fn drifting_period_summaries() {
        let mut w = DriftingPoisson::new(2.0, 10, Some(3), 4);
        let _ = take(&mut w, 100);
        let periods = w.periods();
        assert_eq!(periods.len(), 3);
        for (p, &theta) in periods.iter().zip(w.thetas()) {
            assert_eq!(p.requests, 10);
            assert_eq!(p.rate, 2.0);
            assert_eq!(p.theta, theta);
        }
    }

    #[test]
    fn trace_replays_schedule_in_order() {
        let s: Schedule = "rwrw".parse().unwrap();
        let mut w = TraceWorkload::new(s.clone(), 1.0);
        let arrivals = take(&mut w, 10);
        assert_eq!(arrivals.len(), 4);
        let replayed: Schedule = arrivals.iter().map(|a| a.request).collect();
        assert_eq!(replayed, s);
        assert_eq!(arrivals[3].time, 4.0);
        assert!(w.next_arrival().is_none());
    }

    #[test]
    fn phased_alternates_write_fractions() {
        let mut w = PhasedWorkload::new(1.0, 5000, 0.1, 0.9, 17);
        let arrivals = take(&mut w, 20_000);
        let frac = |lo: usize, hi: usize| {
            arrivals[lo..hi]
                .iter()
                .filter(|a| a.request.is_write())
                .count() as f64
                / (hi - lo) as f64
        };
        assert!((frac(0, 5000) - 0.1).abs() < 0.03);
        assert!((frac(5000, 10_000) - 0.9).abs() < 0.03);
        assert!((frac(10_000, 15_000) - 0.1).abs() < 0.03);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(std::panic::catch_unwind(|| PoissonWorkload::from_theta(0.0, 0.5, 0)).is_err());
        assert!(std::panic::catch_unwind(|| PoissonWorkload::from_theta(1.0, 1.5, 0)).is_err());
        assert!(std::panic::catch_unwind(|| PoissonWorkload::from_rates(-1.0, 1.0, 0)).is_err());
        assert!(std::panic::catch_unwind(|| TraceWorkload::new(Schedule::new(), 0.0)).is_err());
    }
}
