//! E13 — **Extension**: unreliable wireless links.
//!
//! The paper assumes a reliable link. Real packet-radio channels lose
//! frames; the standard fix is link-layer ARQ (retransmit until
//! acknowledged), and every retransmission is billed at the same tariff.
//! This experiment shows the analysis survives the generalization: with
//! i.i.d. loss probability `p`, every policy's bill inflates by the *same*
//! multiplicative factor `1/(1 − p)` (each logical message needs a
//! geometric number of attempts), so expected-cost comparisons, dominance
//! regions and window-size advice are all unchanged — only the absolute
//! tariff scales.
//!
//! The link is the simulator's ARQ transport with a retry budget no run
//! exhausts. Costs are the protocol's own traffic: the bill minus ARQ's
//! acknowledgements, which come to one per exchange at every loss rate.

use crate::table::{fmt, Experiment, Table};
use crate::RunCfg;
use mdr_core::{CostModel, PolicySpec};
use mdr_sim::{ArqConfig, PoissonWorkload, SimBuilder, SimReport};

fn lossy_run(spec: PolicySpec, theta: f64, loss: f64, n: usize) -> SimReport {
    let Ok(builder) = ArqConfig::new(loss, 0.05, 0xE13)
        .and_then(|arq| arq.with_retry_budget(u32::MAX))
        .and_then(|arq| SimBuilder::new(spec)?.arq(arq))
    else {
        unreachable!("experiment policies and loss grid are valid by construction")
    };
    let mut sim = builder.simulation();
    let mut workload = PoissonWorkload::from_theta(1.0, theta, 0xE13);
    sim.run(&mut workload, n)
}

/// Message-model cost per request of the protocol's own traffic:
/// `cost − ω·arq_acks`.
fn protocol_cost(report: &SimReport, omega: f64) -> f64 {
    let cost = report.cost(CostModel::message(omega)) - omega * report.arq_acks as f64;
    cost / report.counts.total() as f64
}

/// Runs the experiment.
pub fn run(cfg: RunCfg) -> Experiment {
    let mut exp = Experiment::new(
        "E13",
        "unreliable links — ARQ retransmission ablation (extension)",
        "extends the §3 link model with i.i.d. frame loss + link-layer ARQ",
    );
    let n = cfg.pick(10_000, 50_000);
    let theta = 0.35;
    let omega = 0.4;
    let policies = [
        PolicySpec::St1,
        PolicySpec::St2,
        PolicySpec::SlidingWindow { k: 1 },
        PolicySpec::SlidingWindow { k: 9 },
    ];
    let losses = [0.0, 0.2, 0.4];
    // reports[policy][loss]
    let reports: Vec<Vec<SimReport>> = policies
        .iter()
        .map(|&spec| {
            losses
                .iter()
                .map(|&p| lossy_run(spec, theta, p, n))
                .collect()
        })
        .collect();

    let mut table = Table::new(
        format!("cost/request at θ = {theta}, message model ω = {omega}, under frame loss p"),
        &[
            "policy",
            "p = 0",
            "p = 0.2",
            "inflation",
            "p = 0.4",
            "inflation",
            "1/(1−p) targets",
        ],
    );
    let mut uniform = true;
    for (&spec, row) in policies.iter().zip(&reports) {
        let costs: Vec<f64> = row.iter().map(|r| protocol_cost(r, omega)).collect();
        let infl2 = costs[1] / costs[0];
        let infl4 = costs[2] / costs[0];
        // Each logical message takes Geometric(1−p) attempts ⇒ ×1/(1−p).
        uniform &= (infl2 - 1.0 / 0.8).abs() < 0.05 && (infl4 - 1.0 / 0.6).abs() < 0.08;
        table.row(vec![
            spec.to_string(),
            fmt(costs[0]),
            fmt(costs[1]),
            fmt(infl2),
            fmt(costs[2]),
            fmt(infl4),
            "1.25 / 1.667".to_owned(),
        ]);
    }
    table.note("ARQ bills every attempt; its acks (one per exchange at any p) are left out");
    exp.push_table(table);

    // Cross-policy ranking at each loss level.
    let mut rank_table = Table::new(
        "policy ranking is invariant under loss (cheapest first)",
        &["p", "ranking"],
    );
    let mut cross_ranking_stable = true;
    let mut base: Option<Vec<String>> = None;
    for (i, &p) in losses.iter().enumerate() {
        let mut costs: Vec<(String, f64)> = policies
            .iter()
            .zip(&reports)
            .map(|(s, row)| (s.to_string(), protocol_cost(&row[i], omega)))
            .collect();
        costs.sort_by(|a, b| a.1.total_cmp(&b.1));
        let names: Vec<String> = costs.into_iter().map(|(n, _)| n).collect();
        match &base {
            None => base = Some(names.clone()),
            Some(b) => cross_ranking_stable &= *b == names,
        }
        rank_table.row(vec![fmt(p), names.join(" < ")]);
    }
    exp.push_table(rank_table);

    exp.verdict(
        "loss inflates every policy's bill by the same 1/(1−p) factor (within noise)",
        uniform,
    );
    exp.verdict(
        "the cross-policy ranking — hence all the paper's advice — is invariant under loss",
        cross_ranking_stable,
    );
    // SW9 at p = 0.4 retransmits, and no run exhausts its retry budget.
    let retx = reports[3][2].retransmissions;
    let escalations: u64 = reports.iter().flatten().map(|r| r.retry_escalations).sum();
    exp.verdict(
        "the ARQ layer actually retransmits (protocol actions verified unchanged by the oracle)",
        retx > 0 && escalations == 0,
    );
    exp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e13_reproduces_all_claims() {
        let exp = run(RunCfg { fast: true });
        assert!(exp.all_reproduced(), "{}", exp.render());
    }
}
