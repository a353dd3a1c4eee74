//! Quickstart: compare every allocation policy on one workload.
//!
//! A mobile user reads a data item over an expensive wireless link while
//! the stationary database applies writes. Which replica-allocation policy
//! minimizes communication cost? Run:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mobile_replication::prelude::*;

fn main() {
    // A workload with a known write fraction: 30% writes, 70% reads.
    let theta = 0.3;
    let requests = 50_000;
    println!("Poisson workload: θ = {theta} (writes), {requests} requests\n");

    let policies = PolicySpec::roster(&[1, 3, 9, 15], &[5]);

    for model in [CostModel::Connection, CostModel::message(0.3)] {
        println!("=== cost model: {model} ===");
        println!(
            "{:<8} {:>14} {:>14} {:>12} {:>12}",
            "policy", "EXP (theory)", "cost/request", "allocs", "deallocs"
        );
        for &spec in &policies {
            // Theory: the paper's closed-form expected cost per request.
            let predicted = expected_cost(spec, model, theta);
            // Practice: run the full distributed MC/SC protocol.
            let report = Simulation::run_poisson(spec, theta, requests, 42);
            println!(
                "{:<8} {:>14.4} {:>14.4} {:>12} {:>12}",
                spec.to_string(),
                predicted,
                report.cost_per_request(model),
                report.counts.allocations(),
                report.counts.deallocations(),
            );
        }
        println!();
    }

    // With θ known and fixed, the best static wins (Theorem 2)…
    println!("Theorem 2: with θ = {theta} fixed, ST2 is optimal (θ < 1/2).");
    // …but when θ drifts, the sliding window wins on average (Corollary 1):
    let avg_st = average_expected_cost(PolicySpec::St2, CostModel::Connection);
    let avg_sw9 = average_expected_cost(PolicySpec::SlidingWindow { k: 9 }, CostModel::Connection);
    println!(
        "Corollary 1: over drifting θ, AVG(ST2) = {avg_st:.4} but AVG(SW9) = {avg_sw9:.4} — \
         the dynamic policy wins when the future is unknown."
    );
}
