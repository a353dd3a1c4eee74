//! End-to-end checks of the harness against the real `mdr` binary. Build it
//! into the same target directory first:
//!
//! ```text
//! cargo build --release -p mdr-cli
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use perfbench::report::Outcome;
use perfbench::{run, Args, Workload};
use std::path::PathBuf;

/// `mdr` beside this test binary (`<target>/release/deps/…`).
fn mdr() -> PathBuf {
    let exe = std::env::current_exe().expect("test binary path");
    let release = exe
        .parent()
        .and_then(|deps| deps.parent())
        .expect("test binary lives in <target>/<profile>/deps");
    let mdr = release.join("mdr");
    assert!(
        mdr.exists(),
        "{} is missing: run `cargo build --release -p mdr-cli` with the same CARGO_TARGET_DIR",
        mdr.display()
    );
    mdr
}

fn invoke(workload: Workload, seed: u64, trace: bool) -> Outcome {
    // Tests run in parallel: each invocation gets its own directory.
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "perfbench-test-{}-{}-{seed}-{trace}",
        std::process::id(),
        workload.name()
    ));
    let outcome = run(&Args {
        workload,
        seed,
        seconds: 0.1,
        trace,
        mdr: mdr(),
        out: out.clone(),
    })
    .expect("the run completes");
    let _ = std::fs::remove_dir_all(out);
    outcome
}

/// `"name": …, "unit": …` pairs of one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..start + text[start..].find(']').expect("section closes")];
    body.lines()
        .filter_map(|l| {
            let field = |key: &str| {
                let rest = &l[l.find(&format!("\"{key}\": \""))? + key.len() + 5..];
                Some(rest[..rest.find('"')?].to_owned())
            };
            Some((field("name")?, field("unit")?))
        })
        .collect()
}

fn printed(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned()))
        .collect()
}

/// serve-durable, which `BENCHMARK.json` does not list, adds its latency
/// tail and recovery time.
#[test]
fn every_workload_prints_exactly_the_listed_end_to_end_metrics() {
    let expected = listed("end_to_end");
    assert_eq!(expected.len(), 4);
    for workload in Workload::ALL {
        let outcome = invoke(workload, 1, false);
        assert!(
            outcome.correct && outcome.failed == 0,
            "{workload:?}: {outcome:?}"
        );
        let mut expected = expected.clone();
        if workload == Workload::ServeDurable {
            expected.push(("latency_p99_us".to_owned(), "us".to_owned()));
            expected.push(("recovery_s".to_owned(), "s".to_owned()));
        }
        assert_eq!(printed(&outcome), expected, "{workload:?}");
        assert!(outcome.metrics.iter().all(|m| m.value > 0.0), "{outcome:?}");
    }
}

/// Four kill-and-restarts in the middle of a serve-durable session still
/// produce the pinned response digest of seed 0, byte for byte.
#[test]
fn kill_and_restart_reproduces_the_pinned_digest() {
    let pins = perfbench::pins::Pins::shipped();
    assert!(pins.get("serve-durable", "seed-0").is_some());
    let outcome = invoke(Workload::ServeDurable, 0, false);
    assert!(outcome.correct, "{outcome:?}");
    assert_eq!(outcome.failed, 0);
    assert!(outcome.get("recovery_s").is_some_and(|s| s > 0.0));
}

/// The layers explain most of each end-to-end per-op time: the residual
/// is a minority share of it, and the layers do not overcount it by much.
#[test]
fn traced_run_splits_the_per_op_times_into_layers_plus_a_small_residual() {
    let expected = listed("per_layer");
    let outcome = invoke(Workload::ServeMem, 2, true);
    assert!(outcome.correct && outcome.failed == 0, "{outcome:?}");
    assert_eq!(printed(&outcome), expected);
    let get = |name: &str| outcome.get(name).expect("metric printed");
    for residual in ["serve.residual_share", "sim.residual_share"] {
        let share = get(residual);
        assert!(RESIDUAL.contains(&share), "{residual} = {share}");
    }
    assert!(get("journal.fsyncs_per_kop") > 0.0 && get("journal.recovery_ns_per_record") > 0.0);
    assert!(get("sim.events_per_request") > 1.0);
}

/// Residual shares a traced run may report.
const RESIDUAL: std::ops::RangeInclusive<f64> = -0.2..=0.7;
