//! `mdr-verify` — run the bounded model checker across the policy roster.
//!
//! ```text
//! mdr-verify [--depth N] [--policy SPEC] [--faults [DEPTH]]
//!            [--handoff [DEPTH]] [--kill-suite]
//! ```
//!
//! Explores every interleaving of arrivals and deliveries to the requested
//! depth for each roster policy twice — lossless, and with the ARQ
//! transport's timeout firings, budget-bounded retransmissions,
//! escalations and billed acks woven in — printing one row per run.
//! With `--faults`, two more passes per policy additionally interleave
//! disconnections, volatile/stable MC crashes and the reconnection
//! handshake — once bare, and once with the ARQ transitions; the
//! optional `DEPTH` bounds those passes separately (faulty exploration is
//! denser — epoch bumps defeat cross-fault dedup — so it defaults to
//! `min(depth, 12)`). With `--handoff`, the multi-cell mobility layer is
//! model-checked separately: migration interleaved with backbone loss,
//! duplicated/reordered commits, deadline aborts and crash/reconnect
//! cycles, judged against single-owner-across-cells, no-lost-window and
//! the handoff billing identity (see `docs/topology.md`). Exits non-zero
//! if any run finds a counterexample.
//!
//! `--kill-suite` instead runs the fast mutation-detection battery that
//! `cargo xtask mutate` uses to judge mutants (see
//! `docs/static-analysis.md`): clean checks that must verify, injected
//! faults that must be *caught* (so a weakened invariant fails the
//! suite, not just a broken protocol), and the protocol-vs-reference
//! cost-equivalence sweep.

use mdr_core::{run_spec, CostModel, PolicySpec, Schedule};
use mdr_sim::Simulation;
use mdr_verify::{
    check, check_handoff, default_roster, handoff_sweep, CheckConfig, Fault, HandoffConfig,
    HandoffFault, HandoffInvariant, Invariant,
};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: mdr-verify [--depth N] [--policy sw1|sw3|sw5|st1|st2|t1|t2] [--faults [DEPTH]] [--handoff [DEPTH]] [--kill-suite]"
    );
    std::process::exit(2);
}

/// The checker modes a kill-suite entry can run in.
#[derive(Clone, Copy)]
enum SuiteMode {
    /// Arrivals and deliveries only.
    Plain,
    /// ARQ transport transitions woven in.
    Arq,
    /// Disconnection/crash/reconnection transitions woven in.
    Faulty,
}

/// One must-catch row: name, policy, seeded fault, checker mode, depth,
/// and the invariant expected to flag it (`None` = any violation).
type CatchCase = (
    &'static str,
    PolicySpec,
    Fault,
    SuiteMode,
    usize,
    Option<Invariant>,
);

/// The fast battery `cargo xtask mutate` runs against every mutant.
///
/// Three layers, every one of which must hold:
/// 1. *must-verify*: clean checks over representative policies — a
///    mutant that breaks the protocol or the checker's exploration
///    fails here;
/// 2. *must-catch*: seeded protocol faults whose detection is asserted,
///    including the expected invariant — a mutant that weakens an
///    invariant (the classic vacuous-checker failure) fails here even
///    though every clean check still passes;
/// 3. *equivalence*: the full simulator against the §3 reference policy
///    fold on fixed schedules, exact in the connection model — a mutant
///    that perturbs either cost ledger fails here.
fn kill_suite() -> ExitCode {
    let sw3 = PolicySpec::SlidingWindow { k: 3 };
    let sw1 = PolicySpec::SlidingWindow { k: 1 };
    let mut failed = false;
    let mut entry = |name: &str, ok: bool| {
        println!("{:<44} {}", name, if ok { "ok" } else { "FAILED" });
        failed |= !ok;
    };

    // Layer 1: must-verify.
    for (name, spec) in [
        ("verify sw3", sw3),
        ("verify st2", PolicySpec::St2),
        ("verify t2(2)", PolicySpec::T2 { m: 2 }),
    ] {
        let report = check(&CheckConfig::new(spec, 8));
        entry(name, report.verified() && report.states > 1);
    }
    entry(
        "verify sw3 arq",
        check(&CheckConfig::new(sw3, 8).arq()).verified(),
    );
    entry(
        "verify sw3 faulty",
        check(&CheckConfig::new(sw3, 8).faulty()).verified(),
    );

    // Layer 2: must-catch (fault, mode, depth, expected invariant).
    let catches: &[CatchCase] = &[
        (
            "catch skip-allocation-handoff",
            sw3,
            Fault::SkipAllocationHandoff,
            SuiteMode::Plain,
            12,
            Some(Invariant::ReplicaAgreement),
        ),
        (
            "catch skip-window-handoff",
            sw3,
            Fault::SkipWindowHandoff,
            SuiteMode::Plain,
            12,
            Some(Invariant::SingleWindowOwner),
        ),
        (
            "catch drop-delete-request",
            sw1,
            Fault::DropDeleteRequest,
            SuiteMode::Plain,
            12,
            Some(Invariant::NoDeadlock),
        ),
        (
            "catch skip-ack-billing",
            sw3,
            Fault::SkipAckBilling,
            SuiteMode::Arq,
            10,
            Some(Invariant::LedgerEqualsReplay),
        ),
        (
            "catch free-retransmit",
            sw3,
            Fault::FreeRetransmit,
            SuiteMode::Arq,
            10,
            Some(Invariant::LedgerEqualsReplay),
        ),
        (
            "catch lie-about-replica",
            sw3,
            Fault::LieAboutReplicaOnReconnect,
            SuiteMode::Faulty,
            10,
            None,
        ),
    ];
    for &(name, spec, fault, mode, depth, expected) in catches {
        let mut config = CheckConfig::new(spec, depth).with_fault(fault);
        config = match mode {
            SuiteMode::Plain => config,
            SuiteMode::Arq => config.arq(),
            SuiteMode::Faulty => config.faulty(),
        };
        let report = check(&config);
        let caught = !report.verified()
            && match expected {
                None => true,
                Some(inv) => report
                    .violations
                    .first()
                    .is_some_and(|v| v.invariant == inv),
            };
        entry(name, caught);
    }

    // Layer 3: protocol-vs-reference equivalence on fixed schedules.
    let schedules = ["rrrwwwrrr", "rwrwrwrwrw", "wwwwwrrrrrwwwww", "r", "w"];
    let mut equivalent = true;
    for spec in PolicySpec::roster(&[1, 3, 5], &[2]) {
        for s in schedules {
            let Ok(sched) = s.parse::<Schedule>() else {
                equivalent = false;
                continue;
            };
            let report = Simulation::run_schedule(spec, &sched);
            let reference = run_spec(spec, &sched, CostModel::Connection);
            if report.counts != reference.counts {
                equivalent = false;
            }
            // Bit-exact on purpose (and bit-compared so the float-eq lint
            // holds): the connection-model ledger is integral counts.
            let exact =
                report.cost(CostModel::Connection).to_bits() == reference.total_cost.to_bits();
            let model = CostModel::message(0.3);
            let priced = run_spec(spec, &sched, model);
            let close = (report.cost(model) - priced.total_cost).abs() < 1e-9;
            if !(exact && close) {
                equivalent = false;
            }
        }
    }
    // Handoff layer: must-verify, then the seeded mutants that must be
    // caught by the expected invariant.
    entry(
        "verify handoff 3-cell faulty+ghosts",
        check_handoff(&HandoffConfig::new(3, 12).lossy().faulty().ghosts()).verified(),
    );
    let handoff_catches: &[(&str, HandoffConfig, &[HandoffInvariant])] = &[
        (
            "catch handoff skip-epoch-fence",
            HandoffConfig::new(3, 14)
                .faulty()
                .ghosts()
                .with_fault(HandoffFault::SkipEpochFence),
            &[
                HandoffInvariant::NoLostWindow,
                HandoffInvariant::SingleOwnerAcrossCells,
            ],
        ),
        (
            "catch handoff skip-rollback",
            HandoffConfig::new(2, 8)
                .faulty()
                .with_fault(HandoffFault::SkipRollback),
            &[HandoffInvariant::SingleOwnerAcrossCells],
        ),
        (
            "catch handoff commit-without-transfer",
            HandoffConfig::new(2, 8).with_fault(HandoffFault::CommitWithoutTransfer),
            &[HandoffInvariant::NoLostWindow],
        ),
        (
            "catch handoff skip-invalidation",
            HandoffConfig::new(3, 10).with_fault(HandoffFault::SkipInvalidation),
            &[HandoffInvariant::BillingIdentity],
        ),
        (
            "catch handoff free-leg",
            HandoffConfig::new(2, 6).with_fault(HandoffFault::FreeHandoffLeg),
            &[HandoffInvariant::BillingIdentity],
        ),
    ];
    for (name, config, expected) in handoff_catches {
        let report = check_handoff(config);
        let caught = !report.verified()
            && report
                .violations
                .first()
                .is_some_and(|v| expected.contains(&v.invariant));
        entry(name, caught);
    }

    entry("protocol equals reference on schedules", equivalent);

    // The Poisson path with the oracle on asserts step equivalence
    // internally; reaching here without a panic plus the exact request
    // count is the check.
    let report = Simulation::run_poisson(sw3, 0.4, 2_000, 11);
    entry("poisson oracle run", report.counts.total() == 2_000);

    if failed {
        println!("kill-suite: FAILED");
        ExitCode::FAILURE
    } else {
        println!("kill-suite: ok");
        ExitCode::SUCCESS
    }
}

/// One checker run, printed as a table row; returns (states, verified).
fn run_one(config: &CheckConfig, mode: &str) -> (usize, bool) {
    let report = check(config);
    let result = if report.verified() {
        "ok".to_string()
    } else {
        format!("VIOLATION: {}", report.violations[0])
    };
    println!(
        "{:<12} {:<9} {:>12} {:>12}  {result}",
        report.policy.to_string(),
        mode,
        report.states,
        report.transitions
    );
    (report.states, report.verified())
}

/// Runs the multi-cell handoff sweep, printed as a table; returns
/// success iff every run verified.
fn run_handoff(depth: usize) -> ExitCode {
    println!(
        "{:<12} {:<24} {:>12} {:>12}  result",
        "cells", "mode", "states", "transitions"
    );
    let mut total_states = 0usize;
    let mut failed = false;
    for report in handoff_sweep(depth) {
        let mode = match (report.lossy, report.faulty, report.ghosts) {
            (false, false, false) => "migrate",
            (true, false, false) => "lossy",
            (false, true, false) => "faulty",
            (false, true, true) => "faulty+ghosts",
            (true, true, true) => "lossy+faulty+ghosts",
            _ => "mixed",
        };
        let result = if report.verified() {
            "ok".to_string()
        } else {
            format!("VIOLATION: {}", report.violations[0])
        };
        println!(
            "{:<12} {:<24} {:>12} {:>12}  {result}",
            report.cells, mode, report.states, report.transitions
        );
        total_states += report.states;
        failed |= !report.verified();
    }
    println!("total deduplicated handoff states at depth {depth}: {total_states}");
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let mut depth = 18usize;
    let mut only_policy = None;
    let mut faults: Option<usize> = None;

    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--kill-suite" => return kill_suite(),
            "--handoff" => {
                // Optional depth operand: `--handoff 12` or bare
                // `--handoff` (denser than the wireless checker — the
                // flight/ghost product defeats dedup — so it defaults
                // lower).
                let handoff_depth = match args.peek().and_then(|v| v.parse().ok()) {
                    Some(value) => {
                        args.next();
                        value
                    }
                    None => depth.min(14),
                };
                return run_handoff(handoff_depth);
            }
            "--depth" => {
                let Some(value) = args.next() else { usage() };
                let Ok(value) = value.parse() else { usage() };
                depth = value;
            }
            "--policy" => {
                let Some(value) = args.next() else { usage() };
                only_policy = Some(value);
            }
            "--faults" => {
                // Optional depth operand: `--faults 10` or bare `--faults`.
                match args.peek().and_then(|v| v.parse().ok()) {
                    Some(value) => {
                        args.next();
                        faults = Some(value);
                    }
                    None => faults = Some(depth.min(12)),
                }
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    let roster: Vec<_> = default_roster()
        .into_iter()
        .filter(|spec| match &only_policy {
            None => true,
            Some(name) => spec
                .to_string()
                .to_lowercase()
                .replace(['(', ')', ' ', '='], "")
                .starts_with(&name.to_lowercase()),
        })
        .collect();
    if roster.is_empty() {
        usage();
    }

    println!(
        "{:<12} {:<9} {:>12} {:>12}  result",
        "policy", "mode", "states", "transitions"
    );
    let mut total_states = 0usize;
    let mut failed = false;
    for policy in roster {
        let mut runs = vec![
            (CheckConfig::new(policy, depth), "lossless"),
            (CheckConfig::new(policy, depth).arq(), "arq"),
        ];
        if let Some(fault_depth) = faults {
            let faulty = CheckConfig::new(policy, fault_depth).faulty();
            runs.push((faulty.clone(), "faulty"));
            runs.push((faulty.arq(), "arq+faulty"));
        }
        for (config, mode) in runs {
            let (states, ok) = run_one(&config, mode);
            total_states += states;
            failed |= !ok;
        }
    }
    println!("total deduplicated states at depth {depth}: {total_states}");
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
