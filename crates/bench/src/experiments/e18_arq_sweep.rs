//! E18 — **Extension**: the deterministic ARQ transport under loss.
//!
//! §3 bills every message, so a lossy link charges each exchange its
//! expected number of transmission attempts. E13 checks that claim on this
//! transport with a retry budget no run exhausts; this experiment
//! exercises the transport itself: every attempt arms a retransmission
//! timer, timeouts back off exponentially (with
//! deterministic seed-derived jitter), a bounded retry budget escalates
//! to a declared partition that feeds the reconnection path, and every
//! completed exchange is confirmed by a billed control-class
//! acknowledgement.
//!
//! The sweep crosses loss rate × retry budget × backoff factor (the
//! `e18` preset) and asserts the robustness claims on top of the paper's:
//! (a) the full sweep — timer events, jitter draws, escalations and all —
//! is *byte-identical* between the serial path and a 4-thread pool;
//! (b) the §3 shape survives the timed transport: the request schedule
//! and the action ledger of every lossy cell equal the perfect-link
//! baseline's, loss inflates only the bill; (c) the transport's billing
//! identity holds at every cell — billed traffic = ledger + settled
//! retransmissions + aborted + reconciliation + acks; (d) retransmission
//! pressure grows with the loss rate at a fixed budget.

use crate::sweep::{e18_grid, serial_parallel_verdict, summary_table};
use crate::table::{fmt_opt, Experiment, Table};
use crate::RunCfg;
use mdr_sim::SimReport;

/// ARQ-axis width of the `e18` preset grid (perfect link + four
/// loss × budget × backoff points).
const ARQ_AXIS: usize = 5;

/// The transport billing identity at run termination: every billed
/// message is accounted for by the action ledger, the settled
/// retransmissions, the aborted and reconciliation traffic, or the acks.
fn billing_identity(r: &SimReport) -> bool {
    r.data_messages + r.control_messages
        == r.counts.data_messages()
            + r.counts.control_messages()
            + r.settled_retransmissions
            + r.aborted_messages
            + r.reconciliation_messages
            + r.arq_acks
}

/// Runs the experiment.
pub fn run(cfg: RunCfg) -> Experiment {
    let mut exp = Experiment::new(
        "E18",
        "ARQ transport — loss × retry budget × backoff sweep + determinism (extension)",
        "extends §3's link model with a timed, budgeted, backoff ARQ transport",
    );
    let grid = e18_grid(cfg);
    let n = cfg.pick(2_000, 10_000);
    let (report, parallel_identical) = serial_parallel_verdict(&grid);

    let mut table = Table::new(
        format!("cost/request at θ = 0.4, ω = 0.5, vs ARQ transport point (n = {n})"),
        &[
            "policy",
            "perfect",
            "p=.05 b=8",
            "p=.2 b=8",
            "p=.2 b=3",
            "p=.4 b=4",
            "retx @.4",
            "acks @.4",
            "escalations @.4",
        ],
    );
    let mut actions_invariant = true;
    let mut bill_accounted = true;
    let mut loss_monotone = true;
    let mut acks_flow = true;
    for cells in report.cells.chunks(ARQ_AXIS) {
        let baseline = &cells[0];
        assert_eq!(baseline.arq_index, 0);
        for cell in cells {
            // (b) the timed transport repairs every loss (or escalates and
            // recovers) without perturbing the serialized schedule or the
            // policy's actions — the grid pairs workload seeds across the
            // ARQ axis, so this is an exact, cell-for-cell claim.
            actions_invariant &= cell.report.schedule == baseline.report.schedule
                && cell.report.counts == baseline.report.counts;
            bill_accounted &= billing_identity(&cell.report);
        }
        // (d) more loss, more repair traffic at the same budget; and the
        // perfect link retransmits and acknowledges nothing.
        loss_monotone &= baseline.report.retransmissions == 0
            && cells[1].report.retransmissions < cells[2].report.retransmissions;
        acks_flow &= baseline.report.arq_acks == 0
            && cells.iter().skip(1).all(|c| {
                c.report.arq_acks > 0 && c.report.invariant_checks >= c.report.counts.total()
            });
        let stormy = &cells[4];
        table.row(vec![
            baseline.policy.to_string(),
            fmt_opt(baseline.cost_per_request),
            fmt_opt(cells[1].cost_per_request),
            fmt_opt(cells[2].cost_per_request),
            fmt_opt(cells[3].cost_per_request),
            fmt_opt(stormy.cost_per_request),
            stormy.report.retransmissions.to_string(),
            stormy.report.arq_acks.to_string(),
            stormy.report.retry_escalations.to_string(),
        ]);
    }
    table.note("p = per-attempt loss probability, b = retry budget; base timeout 0.2, jitter 0.25");
    exp.push_table(table);
    exp.push_table(summary_table(
        "sweep summary (grouped by policy × ARQ point)",
        &report.summary,
    ));

    exp.verdict(
        "the ARQ sweep is deterministic: 4-thread run is byte-identical to serial (cells, summary, digest)",
        parallel_identical,
    );
    exp.verdict(
        "loss changes the bill, never the actions: every lossy cell replays the baseline schedule and ledger",
        actions_invariant,
    );
    exp.verdict(
        "the billing identity holds at every cell (ledger + retransmissions + aborted + reconciliation + acks)",
        bill_accounted,
    );
    exp.verdict(
        "retransmission pressure grows with the loss rate at a fixed budget",
        loss_monotone,
    );
    exp.verdict(
        "every completion is acknowledged and invariant-checked online",
        acks_flow,
    );
    exp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e18_reproduces_all_claims() {
        let exp = run(RunCfg { fast: true });
        assert!(exp.all_reproduced(), "{}", exp.render());
    }
}
