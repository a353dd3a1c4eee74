//! Ledger-digest regression pins for the hot-path rewrite.
//!
//! The packed-key event queue, envelope pooling and batched RNG draws in
//! `mdr-sim` are pure mechanical speedups: they must not move a single
//! event, draw, or billed message. These tests pin the FNV-1a ledger
//! digest of every CI sweep preset (E6, E17, E18, E19) to the values the
//! pre-rewrite `BinaryHeap` simulator produced, and re-assert the
//! serial-vs-parallel byte-identity bar on top. Any drift in event
//! ordering, RNG stream consumption, or billing shows up here as a
//! one-word diff.

use mdr_bench::sweep::preset;
use mdr_bench::RunCfg;
use mdr_core::{CostModel, PolicySpec};
use mdr_sim::sweep::{SweepGrid, SweepOptions, SweepReport};
use mdr_sim::ArqConfig;

fn fast_report(name: &str) -> SweepReport {
    preset(name, RunCfg { fast: true })
        .unwrap_or_else(|| panic!("unknown preset {name}"))
        .run_serial()
}

/// The pre-rewrite digests, captured from the heap-based simulator at
/// the commit that introduced this test. The queue/pool/RNG rewrite must
/// reproduce them bit for bit.
const PINNED: &[(&str, u64)] = &[
    ("e6", 0x7c56_bffb_ee11_e10f),
    ("e17", 0x686f_e07d_53ce_b53e),
    ("e18", 0x734b_ebd2_ed35_1b61),
    ("e19", 0xa150_fd50_486a_3178),
];

#[test]
fn preset_ledger_digests_are_pinned() {
    for &(name, expected) in PINNED {
        let digest = fast_report(name).ledger_digest();
        assert_eq!(
            digest, expected,
            "preset {name}: ledger digest {digest:#018x} drifted from the \
             pinned pre-rewrite value {expected:#018x}"
        );
    }
}

#[test]
fn preset_ledgers_are_thread_count_invariant() {
    for &(name, _) in PINNED {
        let grid = preset(name, RunCfg { fast: true }).expect("known preset");
        let serial = grid.run_serial();
        let parallel = grid.run(SweepOptions {
            threads: 4,
            chunk: 2,
        });
        assert_eq!(
            serial.ledger_lines(),
            parallel.ledger_lines(),
            "preset {name}: serial vs 4-thread ledgers must be byte-identical"
        );
        assert_eq!(serial, parallel, "preset {name}: full reports must agree");
    }
}

/// A user-set ARQ timeout far above the arrival gap (25 against a mean
/// gap of 1) keeps many stale timers resident: this grid peaks at 108
/// queued events, where the presets peak at ten or fewer. Its digest,
/// captured from the bucket-calendar simulator, pins the event queue's
/// order at that size.
#[test]
fn long_timeout_arq_grid_digest_is_pinned() {
    let Ok(grid) = SweepGrid::new(0xB16)
        .policies(vec![PolicySpec::St1, PolicySpec::SlidingWindow { k: 3 }])
        .and_then(|g| g.thetas(vec![0.3]))
        .and_then(|g| g.models(vec![CostModel::message(0.5)]))
        .and_then(|g| g.arq_configs(vec![Some(ArqConfig::new(0.05, 25.0, 0)?)]))
        .and_then(|g| g.latency(0.05))
        .and_then(|g| g.requests(3_000))
    else {
        panic!("the long-timeout grid is valid by construction")
    };
    let report = grid.run_serial();
    assert_eq!(report.events_processed, 22_760);
    assert_eq!(report.ledger_digest(), 0x6e77_5a39_8c1a_3b23);
}
