//! Lossy network: does the paper's advice survive an unreliable link?
//!
//! The paper assumes every message arrives. Packet-radio links drop
//! frames, and link-layer ARQ retransmits until delivery — with every
//! attempt billed at the same per-message tariff. This example runs the
//! full MC/SC protocol over the simulator's ARQ transport, with a retry
//! budget no run exhausts, at increasing frame-loss probability and shows
//! the two facts that keep the paper's analysis applicable:
//!
//! 1. every policy's bill inflates by the same `1/(1 − p)` factor, so
//! 2. the cost *ranking* of the policies — everything the paper's advice
//!    rests on — is unchanged.
//!
//! Costs are the protocol's own traffic: the bill minus ARQ's
//! acknowledgements, which come to one per exchange at every loss rate.
//!
//! ```text
//! cargo run --release --example lossy_network
//! ```

use mobile_replication::prelude::*;
use mobile_replication::sim::{ArqConfig, PoissonWorkload};

const OMEGA: f64 = 0.4;

fn run(spec: PolicySpec, loss: f64) -> SimReport {
    let Ok(builder) = ArqConfig::new(loss, 0.05, 0xBAD)
        .and_then(|arq| arq.with_retry_budget(u32::MAX))
        .and_then(|arq| SimBuilder::new(spec)?.arq(arq))
    else {
        unreachable!("example policies and loss grid are valid by construction")
    };
    let mut sim = builder.simulation();
    let mut workload = PoissonWorkload::from_theta(1.0, 0.35, 4242);
    sim.run(&mut workload, 30_000)
}

/// Message-model cost per request of the protocol's own traffic.
fn protocol_cost(report: &SimReport) -> f64 {
    let cost = report.cost(CostModel::message(OMEGA)) - OMEGA * report.arq_acks as f64;
    cost / report.counts.total() as f64
}

fn main() {
    let policies = PolicySpec::roster(&[1, 9], &[]);
    let losses = [0.0, 0.1, 0.3, 0.5];
    // costs[policy][loss]
    let mut costs = Vec::new();

    println!("30k Poisson requests, θ = 0.35, message model ω = {OMEGA}, ARQ link\n");
    print!("{:<8}", "policy");
    for &p in &losses {
        print!(" {:>16}", format!("p = {p}"));
    }
    println!("{:>16}", "retransmits@0.5");

    for &spec in &policies {
        print!("{:<8}", spec.to_string());
        let mut row = Vec::new();
        let mut last_retx = 0;
        for &p in &losses {
            let report = run(spec, p);
            assert_eq!(report.retry_escalations, 0, "the budget is never spent");
            let cost = protocol_cost(&report);
            print!(" {cost:>16.4}");
            row.push(cost);
            last_retx = report.retransmissions;
        }
        println!("{last_retx:>16}");
        costs.push(row);
    }

    println!();
    println!("Inflation check at p = 0.3 (expected ×{:.4}):", 1.0 / 0.7);
    for (spec, row) in policies.iter().zip(&costs) {
        println!("  {:<6} ×{:.4}", spec.to_string(), row[2] / row[0]);
    }

    // The protocol itself is untouched: the oracle check (on by default)
    // already asserted every action matched the reference policy; confirm
    // the ranking is stable across loss levels.
    let rank = |column: usize| {
        let mut v: Vec<(String, f64)> = policies
            .iter()
            .zip(&costs)
            .map(|(s, row)| (s.to_string(), row[column]))
            .collect();
        v.sort_by(|a, b| a.1.total_cmp(&b.1));
        v.into_iter().map(|(n, _)| n).collect::<Vec<_>>()
    };
    let dry = rank(0);
    for column in 1..losses.len() {
        assert_eq!(dry, rank(column), "loss must not reorder the policies");
    }
    println!(
        "\nranking at every loss level: {} — the paper's advice is loss-invariant.",
        dry.join(" < ")
    );
}
