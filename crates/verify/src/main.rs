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
//! model-checked separately: the simulator's own `HandoffState` driven
//! through migrations, leg landings and losses, ARQ retries, deadlines
//! and queued copies (commit ghosts, queued retransmissions, demoted
//! legs), with per-cell and broadcast invalidation (see
//! `docs/topology.md`); its optional `DEPTH` defaults to `--depth`, or
//! 14. Exits non-zero if any run finds a counterexample.
//!
//! The whole command line is parsed before anything runs: an unknown
//! flag, a bad value, or a flag the chosen mode cannot use (`--policy`
//! or `--faults` with `--handoff`, any other flag with `--kill-suite`)
//! exits 2 with the usage line.
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
    Invariant,
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
        // SW1 is the one window policy whose writes revoke the MC's
        // window with an SC → MC delete-request (§4's optimized write).
        ("verify sw1", sw1),
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
            "catch duplicate-announce",
            sw3,
            Fault::DuplicateAnnounce,
            SuiteMode::Faulty,
            8,
            Some(Invariant::NoPanic),
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
    // Handoff layer: the shipped `HandoffState` over every interleaving of
    // migrations, landings, losses, retries, deadlines and queued copies,
    // under both invalidation pricings; each run must also reach a commit.
    for config in [
        HandoffConfig::new(3, 10).arq(),
        HandoffConfig::new(3, 10).arq().broadcast(),
    ] {
        let report = check_handoff(&config);
        let pricing = if config.broadcast {
            "broadcast"
        } else {
            "per-cell"
        };
        let name = format!("verify handoff 3-cell {pricing}");
        entry(&name, report.verified() && report.commits > 0);
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
        "{:<6} {:<12} {:<4} {:>10} {:>12}  result",
        "cells", "invalidation", "arq", "states", "transitions"
    );
    let mut total_states = 0usize;
    let mut failed = false;
    for report in handoff_sweep(depth) {
        let config = &report.config;
        let pricing = if config.broadcast {
            "broadcast"
        } else {
            "per-cell"
        };
        let arq = if config.retry_budget.is_some() {
            "on"
        } else {
            "off"
        };
        let result = match report.violations.first() {
            None => "ok".to_string(),
            Some(violation) => format!("VIOLATION: {violation}"),
        };
        println!(
            "{:<6} {:<12} {:<4} {:>10} {:>12}  {result}",
            config.cells, pricing, arq, report.states, report.transitions
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
    // The whole line is parsed before anything runs.
    let (mut depth, mut only_policy, mut faults, mut handoff, mut suite) =
        (None, None, None, None, false);
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        // `--faults` and `--handoff` take an optional depth operand.
        let mut operand = || {
            args.next_if(|v| v.parse::<usize>().is_ok())
                .and_then(|v| v.parse::<usize>().ok())
        };
        match arg.as_str() {
            "--kill-suite" => suite = true,
            "--handoff" => handoff = Some(operand()),
            "--faults" => faults = Some(operand()),
            "--depth" => {
                let value = args.next().and_then(|v| v.parse().ok());
                depth = Some(value.unwrap_or_else(|| usage()));
            }
            "--policy" => only_policy = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    let roster_flags = only_policy.is_some() || faults.is_some();
    if suite {
        if depth.is_some() || handoff.is_some() || roster_flags {
            usage();
        }
        return kill_suite();
    }
    if let Some(operand) = handoff {
        // The depth comes from the operand or `--depth`, not both.
        if roster_flags || (operand.is_some() && depth.is_some()) {
            usage();
        }
        return run_handoff(operand.or(depth).unwrap_or(14));
    }
    let depth = depth.unwrap_or(18);
    let faults = faults.map(|f| f.unwrap_or(depth.min(12)));

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
