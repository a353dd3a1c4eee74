//! Statistical estimation of the paper's cost measures from simulation.
//!
//! * [`estimate_expected_cost`] — Monte-Carlo estimate of `EXP_A(θ)` from
//!   independent Poisson runs at a fixed θ;
//! * [`estimate_average_cost`] — estimate of `AVG_A` from the drifting-θ
//!   period workload (θ uniform per period, the §3 construction under
//!   Eq. 1);
//! * [`Summary`] — mean / variance / 95% confidence interval over
//!   replications.

use crate::sim::{SimConfig, Simulation};
use crate::workload::{DriftingPoisson, PoissonWorkload};
use mdr_core::{CostModel, PolicySpec};

/// Replication statistics for one measured quantity.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Summary {
    /// Number of replications.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Unbiased sample variance.
    pub variance: f64,
    /// Standard error of the mean.
    pub stderr: f64,
    /// Half-width of the 95% normal confidence interval.
    pub ci95: f64,
}

impl Summary {
    /// Summarizes a set of replication results.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn from_samples(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "cannot summarize an empty sample");
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let variance = if n == 1 {
            0.0
        } else {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0)
        };
        let stderr = (variance / n as f64).sqrt();
        Summary {
            n,
            mean,
            variance,
            stderr,
            ci95: 1.96 * stderr,
        }
    }

    /// Whether `value` lies within the 95% confidence interval, widened by
    /// `slack` for model error.
    pub fn covers(&self, value: f64, slack: f64) -> bool {
        (value - self.mean).abs() <= self.ci95 + slack
    }
}

/// Parameters for the Monte-Carlo estimators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorConfig {
    /// Requests per replication run.
    pub requests_per_run: usize,
    /// Number of independent replications.
    pub replications: usize,
    /// Base RNG seed (replication i uses `seed + i`).
    pub seed: u64,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig {
            requests_per_run: 20_000,
            replications: 8,
            seed: 0x5157_D00D,
        }
    }
}

/// Monte-Carlo estimate of `EXP_A(θ)`: mean per-request cost over
/// independent Poisson runs at write fraction `theta`.
pub fn estimate_expected_cost(
    spec: PolicySpec,
    model: CostModel,
    theta: f64,
    config: EstimatorConfig,
) -> Summary {
    // Replications fan out across threads; `parallel_map` returns the
    // samples in replication order and each replication's seed is
    // `seed + i` exactly as in the serial days, so the Summary is
    // byte-identical at any thread count.
    let samples = crate::sweep::parallel_map(config.replications, 0, 1, |i| {
        let mut sim = Simulation::new(SimConfig::defaults(spec));
        let mut workload = PoissonWorkload::from_theta(1.0, theta, config.seed + i as u64);
        let report = sim.run(&mut workload, config.requests_per_run);
        report.cost_per_request(model)
    });
    Summary::from_samples(&samples)
}

/// Monte-Carlo estimate of `AVG_A`: per-request cost over a drifting-θ
/// workload in which each period of `requests_per_period` requests draws
/// θ ~ U(0, 1) — the operational meaning the paper gives Eq. 1.
pub fn estimate_average_cost(
    spec: PolicySpec,
    model: CostModel,
    requests_per_period: usize,
    periods: usize,
    config: EstimatorConfig,
) -> Summary {
    let samples = crate::sweep::parallel_map(config.replications, 0, 1, |i| {
        let mut sim = Simulation::new(SimConfig::defaults(spec));
        let mut workload = DriftingPoisson::new(
            1.0,
            requests_per_period,
            Some(periods),
            config.seed + i as u64,
        );
        let report = sim.run(&mut workload, requests_per_period * periods);
        report.cost_per_request(model)
    });
    Summary::from_samples(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdr_analysis::{average_expected_cost, expected_cost};

    fn quick() -> EstimatorConfig {
        EstimatorConfig {
            requests_per_run: 8_000,
            replications: 6,
            seed: 42,
        }
    }

    #[test]
    fn summary_statistics() {
        let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.variance - 5.0 / 3.0).abs() < 1e-12);
        assert!(s.ci95 > 0.0);
        assert!(s.covers(2.5, 0.0));
        assert!(!s.covers(100.0, 0.0));
        let single = Summary::from_samples(&[7.0]);
        assert_eq!(single.variance, 0.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn summary_rejects_empty() {
        let _ = Summary::from_samples(&[]);
    }

    #[test]
    fn exp_estimates_match_theory_for_statics() {
        // Deterministic check: ST1's per-request cost is exactly the read
        // fraction; its estimate must match Eq. 2 to sampling error.
        for theta in [0.25, 0.6] {
            let s = estimate_expected_cost(PolicySpec::St1, CostModel::Connection, theta, quick());
            assert!(s.covers(
                expected_cost(PolicySpec::St1, CostModel::Connection, theta),
                0.01
            ));
        }
    }

    #[test]
    fn exp_estimates_match_theory_for_swk() {
        for (k, theta) in [(1usize, 0.5), (3, 0.3), (9, 0.7)] {
            let spec = PolicySpec::SlidingWindow { k };
            for model in [CostModel::Connection, CostModel::message(0.5)] {
                let s = estimate_expected_cost(spec, model, theta, quick());
                let analytic = expected_cost(spec, model, theta);
                assert!(
                    s.covers(analytic, 0.015),
                    "k={k} θ={theta} {model}: {} ± {} vs {analytic}",
                    s.mean,
                    s.ci95
                );
            }
        }
    }

    #[test]
    fn avg_estimates_match_theory() {
        // AVG via drifting θ must approach the closed forms. Periods must be
        // long enough that window transients are negligible.
        for spec in [PolicySpec::St1, PolicySpec::SlidingWindow { k: 3 }] {
            let s = estimate_average_cost(
                spec,
                CostModel::Connection,
                2_000,
                30,
                EstimatorConfig {
                    requests_per_run: 0,
                    replications: 5,
                    seed: 7,
                },
            );
            let analytic = average_expected_cost(spec, CostModel::Connection);
            assert!(
                s.covers(analytic, 0.02),
                "{spec}: {} ± {} vs {analytic}",
                s.mean,
                s.ci95
            );
        }
    }
}
