//! Stock ticker: an investor's mobile terminal tracking a security price.
//!
//! The paper's introduction motivates exactly this workload: "Investors
//! will access prices of financial instruments." Market behaviour is
//! phased — during quiet hours the investor polls the price often while it
//! barely changes (read-heavy, θ low); during volatile stretches the feed
//! updates far faster than the investor reads (write-heavy, θ high).
//!
//! A static allocation loses one of the two phases. The sliding window
//! adapts: it subscribes (allocates a replica) during quiet hours and
//! unsubscribes during volatility. This example measures that adaptivity
//! end to end through the distributed protocol, including how the window
//! size trades adaptation speed against stability.
//!
//! ```text
//! cargo run --release --example stock_ticker
//! ```

use mobile_replication::prelude::*;
use mobile_replication::sim::PhasedWorkload;

fn run_phased(spec: PolicySpec, model: CostModel) -> (f64, u64) {
    // 8 alternating phases of 5 000 requests: quiet (θ = 0.1) ↔ volatile
    // (θ = 0.9); rate 2 requests per minute.
    let mut workload = PhasedWorkload::new(2.0, 5_000, 0.1, 0.9, 2024);
    let Ok(builder) = SimBuilder::new(spec) else {
        unreachable!("example policies are valid by construction")
    };
    let mut sim = builder.simulation();
    let report = sim.run(&mut workload, 40_000);
    (
        report.cost_per_request(model),
        report.counts.allocations() + report.counts.deallocations(),
    )
}

fn main() {
    let model = CostModel::message(0.2); // packet network: short control frames
    println!("Mobile stock ticker — quiet (θ=0.1) ↔ volatile (θ=0.9) phases");
    println!("message cost model, ω = 0.2\n");
    println!(
        "{:<8} {:>14} {:>16} {:>26}",
        "policy", "cost/request", "replica flips", "phase-mean EXP (theory)"
    );

    // Theory: with equal time in both phases, the achievable phase-aware
    // mean is the average of the per-phase expected costs.
    for &spec in &PolicySpec::roster(&[1, 3, 9, 31, 101], &[]) {
        let (cost, flips) = run_phased(spec, model);
        let phase_mean = 0.5 * (expected_cost(spec, model, 0.1) + expected_cost(spec, model, 0.9));
        println!(
            "{:<8} {:>14.4} {:>16} {:>26.4}",
            spec.to_string(),
            cost,
            flips,
            phase_mean
        );
    }

    println!();
    println!("Reading the table:");
    println!(" * ST1 pays (1+ω) on every quiet-hour read; ST2 pays 1 on every volatile write.");
    println!(" * Small windows (SW1, SW3) adapt within a few requests of each phase change");
    println!("   but keep paying thrash cost inside a phase (replica flips stay high).");
    println!(" * Large windows (SW101) adapt ~k/2 requests late at each boundary, visible as");
    println!("   the gap between measured cost and the phase-mean theory column.");
    println!(" * The paper's §9 advice: pick k to balance those two effects (e.g. k = 9).");

    // Confirm the adaptive policies actually beat both statics here.
    let (st1, _) = run_phased(PolicySpec::St1, model);
    let (st2, _) = run_phased(PolicySpec::St2, model);
    let (sw9, _) = run_phased(PolicySpec::SlidingWindow { k: 9 }, model);
    assert!(
        sw9 < st1 && sw9 < st2,
        "SW9 ({sw9:.4}) should beat ST1 ({st1:.4}) and ST2 ({st2:.4}) on phased workloads"
    );
    println!("\nSW9 beats both statics on this workload: confirmed.");
}
