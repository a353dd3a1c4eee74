//! E15 — **Extension**: cellular mobility.
//!
//! §1 sets up the cellular architecture and §3 fixes the key modeling
//! assumption: "The stationary computer is some node in the stationary
//! network that is fixed for a given data item, and it does not change when
//! the mobile computer moves from cell to cell." This experiment makes the
//! assumption executable: the MC roams across cells with different radio
//! latencies, and the run shows that mobility changes *when* responses
//! arrive (latency, makespan) but never *what* the requests cost — the
//! paper's whole analysis is mobility-invariant.

use crate::table::{fmt, Experiment, Table};
use crate::RunCfg;
use mdr_core::{approx_eq, CostModel, PolicySpec};
use mdr_sim::{PoissonWorkload, SimBuilder, SimReport, Simulation};

fn roam(spec: PolicySpec, cells: Option<Vec<f64>>, n: usize) -> SimReport {
    let Ok(builder) = SimBuilder::new(spec).and_then(|b| b.latency(0.02)) else {
        unreachable!("experiment policies are valid by construction")
    };
    let builder = if let Some(extra) = cells {
        let Ok(roaming) = builder.mobility(extra, 0.5, 0xE15) else {
            unreachable!("experiment cell grid is valid by construction")
        };
        roaming
    } else {
        builder
    };
    let mut sim = Simulation::new(builder.build());
    let mut workload = PoissonWorkload::from_theta(1.0, 0.4, 0xE15);
    sim.run(&mut workload, n)
}

/// Runs the experiment.
pub fn run(cfg: RunCfg) -> Experiment {
    let mut exp = Experiment::new(
        "E15",
        "cellular mobility — cost invariance under roaming (extension)",
        "§1/§3: the SC is fixed per item; moving between cells must not change the bill",
    );
    let n = cfg.pick(8_000, 40_000);
    // Downtown microcell, suburban cell, rural macrocell.
    let cells = vec![0.0, 0.05, 0.2];
    let policies = [
        PolicySpec::St1,
        PolicySpec::SlidingWindow { k: 1 },
        PolicySpec::SlidingWindow { k: 9 },
        PolicySpec::T2 { m: 5 },
    ];

    let mut table = Table::new(
        "stationary MC vs roaming MC (3 cells, exponential dwell, same workload seed)",
        &[
            "policy",
            "cost fixed",
            "cost roaming",
            "latency fixed",
            "latency roaming",
            "handoffs",
        ],
    );
    let mut costs_equal = true;
    let mut latency_grows = true;
    let mut handoffs_happen = true;
    let model = CostModel::message(0.5);
    for &spec in &policies {
        let fixed = roam(spec, None, n);
        let roaming = roam(spec, Some(cells.clone()), n);
        costs_equal &= fixed.counts == roaming.counts
            && approx_eq(fixed.cost(model), roaming.cost(model))
            && approx_eq(
                fixed.cost(CostModel::Connection),
                roaming.cost(CostModel::Connection),
            );
        latency_grows &= roaming.mean_read_latency > fixed.mean_read_latency;
        handoffs_happen &= roaming.handoffs > 50 && fixed.handoffs == 0;
        table.row(vec![
            spec.to_string(),
            fmt(fixed.cost_per_request(model)),
            fmt(roaming.cost_per_request(model)),
            fmt(fixed.mean_read_latency),
            fmt(roaming.mean_read_latency),
            roaming.handoffs.to_string(),
        ]);
    }
    table.note("identical workload seed ⇒ identical serialized request order in both runs");
    exp.push_table(table);

    exp.verdict(
        "§3 assumption holds operationally: roaming never changes any policy's cost or actions",
        costs_equal,
    );
    exp.verdict(
        "roaming does change timing: mean read latency rises with slow cells",
        latency_grows,
    );
    exp.verdict(
        "the movement process actually roams (handoffs observed, protocol oracle-verified)",
        handoffs_happen,
    );
    exp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e15_reproduces_all_claims() {
        let exp = run(RunCfg { fast: true });
        assert!(exp.all_reproduced(), "{}", exp.render());
    }
}
