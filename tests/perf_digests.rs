//! Ledger-digest regression pins for the hot-path rewrite.
//!
//! The packed-key event queue, delivery tickets and batched RNG draws in
//! `mdr-sim` are pure mechanical speedups: they must not move a single
//! event, draw, or billed message. These tests pin the FNV-1a ledger
//! digest of every CI sweep preset (E6, E17, E18, E19) to the values the
//! pre-rewrite `BinaryHeap` simulator produced, and re-assert the
//! serial-vs-parallel byte-identity bar on top. Any drift in event
//! ordering, RNG stream consumption, or billing shows up here as a
//! one-word diff.

use mdr_bench::sweep::{e17_fault_plan, e18_arq, preset};
use mdr_bench::RunCfg;
use mdr_core::{CostModel, PolicySpec};
use mdr_sim::sweep::{SweepGrid, SweepOptions, SweepReport};
use mdr_sim::{ArqConfig, TopologyConfig};

fn fast_report(name: &str) -> SweepReport {
    preset(name, RunCfg { fast: true })
        .unwrap_or_else(|| panic!("unknown preset {name}"))
        .run_serial()
}

/// One preset's pins: its ledger digest, the events its runs processed,
/// and a digest of its shed requests.
struct Pin {
    name: &'static str,
    digest: u64,
    events: u64,
    shed: u64,
}

/// The ledger digests were captured from the heap-based simulator at the
/// commit that introduced this test; the queue/ticket/RNG rewrite must
/// reproduce them bit for bit. The ledger hashes only how many requests
/// were shed, so the event counts and shed digests pin what the ledger
/// does not: every processed event, and when, what and why each shed.
/// Since each layer keeps its one live timer in a slot, a superseded
/// timer is no event: E18's count is its former 68,257 less 15,005 stale
/// ARQ timeouts, and E19's its former 167,018 less 20,005 stale handoff
/// deadlines.
const PINNED: &[Pin] = &[
    Pin {
        name: "e6",
        digest: 0x7c56_bffb_ee11_e10f,
        events: 116_779,
        shed: 0xcbf2_9ce4_8422_2325,
    },
    Pin {
        name: "e17",
        digest: 0x686f_e07d_53ce_b53e,
        events: 144_593,
        shed: 0xcbf2_9ce4_8422_2325,
    },
    Pin {
        name: "e18",
        digest: 0x734b_ebd2_ed35_1b61,
        events: 53_252,
        shed: 0xcbf2_9ce4_8422_2325,
    },
    Pin {
        name: "e19",
        digest: 0xa150_fd50_486a_3178,
        events: 147_013,
        shed: 0x1773_1278_c572_24fd,
    },
];

/// FNV-1a over every cell's shed requests: each one's time bits, request
/// letter and reason name.
fn shed_digest(report: &SweepReport) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for shed in report.cells.iter().flat_map(|cell| &cell.report.shed) {
        eat(&shed.at.to_bits().to_le_bytes());
        eat(&[shed.request.letter() as u8]);
        eat(shed.reason.name().as_bytes());
    }
    hash
}

#[test]
fn preset_ledger_digests_are_pinned() {
    for pin in PINNED {
        let report = fast_report(pin.name);
        let digest = report.ledger_digest();
        assert_eq!(
            digest, pin.digest,
            "preset {}: ledger digest {digest:#018x} drifted from the \
             pinned pre-rewrite value {:#018x}",
            pin.name, pin.digest
        );
        assert_eq!(
            report.events_processed, pin.events,
            "preset {}: event count drifted",
            pin.name
        );
        let shed = shed_digest(&report);
        assert_eq!(
            shed, pin.shed,
            "preset {}: shed digest {shed:#018x} drifted from {:#018x}",
            pin.name, pin.shed
        );
    }
}

#[test]
fn preset_ledgers_are_thread_count_invariant() {
    for &Pin { name, .. } in PINNED {
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
/// gap of 1): nearly every exchange settles long before its timer fires.
/// While every timer went through the event queue, those superseded
/// timers stayed resident until they popped stale, 108 of them at the
/// peak, and 6,021 of the grid's former 22,760 events were such pops. Its
/// digest, captured from the bucket-calendar simulator, pins that
/// overwriting the ARQ timer's slot keeps every live event's order.
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
    assert_eq!(report.events_processed, 16_739);
    assert_eq!(report.ledger_digest(), 0x6e77_5a39_8c1a_3b23);
}

/// Faults, ARQ and a lossy, ghost-ridden topology in one grid — the
/// composition no preset covers (E17 has faults without ARQ, E18 ARQ
/// without faults, E19 a topology with neither ARQ nor commit ghosts).
/// It drives the backbone retries within the ARQ budget, the
/// retransmissions queued behind the leg slot (the 0.04 timeout is below
/// the 0.05 latency) and the commit ghosts, under per-cell and broadcast
/// invalidation. Every pin was captured before the handoff protocol moved
/// into `HandoffState`.
#[test]
fn composed_faults_arq_topology_grid_is_pinned() {
    let Ok(grid) = SweepGrid::new(0xFA7)
        .policies(vec![PolicySpec::St2, PolicySpec::SlidingWindow { k: 3 }])
        .and_then(|g| g.thetas(vec![0.4]))
        .and_then(|g| g.models(vec![CostModel::message(0.5)]))
        .and_then(|g| g.fault_plans(vec![Some(e17_fault_plan(0.1))]))
        .and_then(|g| {
            g.arq_configs(vec![
                Some(e18_arq(0.2, 3, 1.5)),
                Some(ArqConfig::new(0.1, 0.04, 0)?),
            ])
        })
        .and_then(|g| {
            let topology = TopologyConfig::new(4, 0.8, 1.0, 0)
                .and_then(|t| t.with_loss(0.2))
                .and_then(|t| t.with_commit_ghosts(0.1, 0.05))?;
            g.topology_configs(vec![
                Some(topology),
                Some(topology.with_broadcast_invalidation()),
            ])
        })
        .and_then(|g| g.latency(0.05))
        .and_then(|g| g.requests(3_000))
    else {
        panic!("the composed grid is valid by construction")
    };
    let report = grid.run_serial();
    assert!(report.cells.iter().all(|c| c.report.handoff_discards > 0));
    assert_eq!(report.events_processed, 188_110);
    assert_eq!(report.ledger_digest(), 0x84dd_5099_6441_9a1c);
    assert_eq!(shed_digest(&report), 0x9109_b381_9275_a85d);
}
