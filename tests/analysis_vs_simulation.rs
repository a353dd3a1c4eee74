//! Cross-crate integration: the closed-form analysis (`mdr-analysis`) must
//! predict what the distributed simulator (`mdr-sim`) actually measures,
//! for every policy family, in both cost models, across the θ range.

use mobile_replication::prelude::*;
use mobile_replication::sim::{estimate_average_cost, estimate_expected_cost, EstimatorConfig};

fn estimator(seed: u64) -> EstimatorConfig {
    EstimatorConfig {
        requests_per_run: 12_000,
        replications: 5,
        seed,
    }
}

#[test]
fn expected_cost_matches_simulation_across_the_grid() {
    let specs = PolicySpec::roster(&[1, 3, 9], &[2, 6]);
    let models = [
        CostModel::Connection,
        CostModel::message(0.35),
        CostModel::message(1.0),
    ];
    for &spec in &specs {
        for &model in &models {
            for &theta in &[0.15, 0.5, 0.85] {
                let analytic = expected_cost(spec, model, theta);
                let sim = estimate_expected_cost(spec, model, theta, estimator(1000));
                assert!(
                    sim.covers(analytic, 0.015),
                    "{spec} {model} θ={theta}: simulated {} ± {} vs analytic {analytic}",
                    sim.mean,
                    sim.ci95
                );
            }
        }
    }
}

#[test]
fn average_cost_matches_drifting_theta_simulation() {
    // The AVG integral (Eq. 1) against its operational meaning: θ redrawn
    // uniformly per period.
    for spec in [
        PolicySpec::St1,
        PolicySpec::St2,
        PolicySpec::SlidingWindow { k: 1 },
        PolicySpec::SlidingWindow { k: 9 },
        PolicySpec::T1 { m: 4 },
    ] {
        for model in [CostModel::Connection, CostModel::message(0.5)] {
            let analytic = average_expected_cost(spec, model);
            let sim = estimate_average_cost(
                spec,
                model,
                2_000,
                25,
                EstimatorConfig {
                    requests_per_run: 0,
                    replications: 5,
                    seed: 2000,
                },
            );
            assert!(
                sim.covers(analytic, 0.02),
                "{spec} {model}: simulated {} ± {} vs analytic {analytic}",
                sim.mean,
                sim.ci95
            );
        }
    }
}

#[test]
fn pi_k_matches_observed_replica_residency() {
    // Eq. 4 is a statement about the stationary replica state: the fraction
    // of requests served with a replica present must equal... (reads served
    // locally happen with probability (1−θ)·π_k).
    let k = 7;
    let theta = 0.4;
    let report = Simulation::run_poisson(PolicySpec::SlidingWindow { k }, theta, 60_000, 77);
    let pi = mobile_replication::analysis::pi_k(k, theta);
    let local_read_fraction = report.counts.local_reads as f64 / report.counts.total() as f64;
    let predicted = (1.0 - theta) * pi;
    assert!(
        (local_read_fraction - predicted).abs() < 0.01,
        "local-read fraction {local_read_fraction} vs (1−θ)π_k = {predicted}"
    );
    // Writes propagated with probability θ·π_k.
    let prop_fraction = (report.counts.propagated_writes + report.counts.deallocating_writes)
        as f64
        / report.counts.total() as f64;
    assert!((prop_fraction - theta * pi).abs() < 0.01);
}

#[test]
fn deallocation_rate_matches_eq_11_transition_term() {
    // The ω-term of Eq. 11 is the per-request deallocation probability;
    // check it against the simulator's deallocation counter.
    for (k, theta) in [(3usize, 0.5), (5, 0.4), (9, 0.55)] {
        let n = 80_000;
        let report = Simulation::run_poisson(PolicySpec::SlidingWindow { k }, theta, n, 5);
        let predicted = mobile_replication::analysis::transition_probability(k, theta);
        let measured = report.counts.deallocations() as f64 / n as f64;
        assert!(
            (measured - predicted).abs() < 0.01,
            "k={k} θ={theta}: measured dealloc rate {measured} vs C(2n,n)θ^{{n+1}}(1−θ)^{{n+1}} = {predicted}"
        );
    }
}

#[test]
fn connection_model_cost_equals_message_cost_at_omega_one_for_data_only_policies() {
    // ST2 never sends control messages, so its connection cost equals its
    // message cost at any ω — a cheap consistency check tying the two
    // accounting paths together.
    let report = Simulation::run_poisson(PolicySpec::St2, 0.5, 10_000, 3);
    assert_eq!(
        report.cost(CostModel::Connection),
        report.cost(CostModel::message(0.9))
    );
}
