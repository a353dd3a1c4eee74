//! Cross-crate integration: the distributed MC/SC protocol (`mdr-sim`)
//! is behaviourally identical to the pure-policy reference (`mdr-core`)
//! on the serialized request order — the §3 serialization argument as an
//! executable theorem.

use mobile_replication::prelude::*;
use proptest::prelude::*;

fn arb_schedule(max_len: usize) -> impl Strategy<Value = Schedule> {
    prop::collection::vec(prop::bool::ANY.prop_map(Request::from_bit), 0..=max_len)
        .prop_map(Schedule::from_requests)
}

fn arb_spec() -> impl Strategy<Value = PolicySpec> {
    prop_oneof![
        Just(PolicySpec::St1),
        Just(PolicySpec::St2),
        (0usize..8).prop_map(|n| PolicySpec::SlidingWindow { k: 2 * n + 1 }),
        (1usize..8).prop_map(|m| PolicySpec::T1 { m }),
        (1usize..8).prop_map(|m| PolicySpec::T2 { m }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The distributed run and the in-process replay agree on every cost
    /// metric for arbitrary schedules and policies. (The simulator's oracle
    /// mode additionally asserts per-request action equality internally.)
    #[test]
    fn distributed_protocol_equals_reference(spec in arb_spec(), s in arb_schedule(150)) {
        let sim = Simulation::run_schedule(spec, &s);
        let reference = run_spec(spec, &s, CostModel::Connection);
        prop_assert_eq!(sim.counts, reference.counts);
        prop_assert_eq!(sim.cost(CostModel::Connection), reference.total_cost);
        for omega in [0.0, 0.4, 1.0] {
            let model = CostModel::message(omega);
            let reference = run_spec(spec, &s, model);
            prop_assert!((sim.cost(model) - reference.total_cost).abs() < 1e-9);
        }
        prop_assert_eq!(sim.schedule, s);
    }

    /// Link latency changes time metrics but never cost: serialization makes
    /// the protocol's communication independent of timing.
    #[test]
    fn latency_never_changes_cost(spec in arb_spec(), s in arb_schedule(80), latency in 0.0f64..2.0) {
        use mobile_replication::sim::TraceWorkload;
        let run = |lat: f64| {
            let Ok(builder) = SimBuilder::new(spec).and_then(|b| b.latency(lat)) else {
                unreachable!("generated policies and latencies are valid")
            };
            let mut sim = builder.simulation();
            let mut w = TraceWorkload::new(s.clone(), 0.5);
            sim.run(&mut w, s.len())
        };
        let fast = run(0.0);
        let slow = run(latency);
        prop_assert_eq!(fast.counts, slow.counts);
        prop_assert_eq!(fast.cost(CostModel::message(0.3)), slow.cost(CostModel::message(0.3)));
        prop_assert!(slow.makespan >= fast.makespan - 1e-9);
    }
}

#[test]
fn poisson_runs_pass_the_oracle_for_every_policy() {
    // The simulator panics on any divergence when oracle_check is on, so
    // simply completing these runs is the assertion.
    for spec in PolicySpec::roster(&[1, 3, 5, 9, 15], &[1, 3, 7]) {
        for theta in [0.1, 0.5, 0.9] {
            let report = Simulation::run_poisson(spec, theta, 3_000, 0xC0FFEE);
            assert_eq!(report.counts.total(), 3_000, "{spec} θ={theta}");
        }
    }
}

#[test]
fn window_handoff_carries_exact_history() {
    // Crafted so ownership migrates repeatedly; the oracle would catch any
    // window corruption across the piggybacked handoffs.
    let s: Schedule = "rrrwwwrrrwwwrrrwwwrrr".parse().unwrap();
    for k in [3usize, 5, 7] {
        let spec = PolicySpec::SlidingWindow { k };
        let report = Simulation::run_schedule(spec, &s);
        assert!(
            report.counts.allocations() >= 2,
            "k={k}: ownership must migrate repeatedly"
        );
        assert!(report.counts.deallocations() >= 2);
    }
}

#[test]
fn replica_is_never_stale() {
    // The sim asserts freshness internally; this drives a write-heavy
    // workload with replica churn to exercise that assertion hard.
    let report = Simulation::run_poisson(PolicySpec::SlidingWindow { k: 3 }, 0.65, 20_000, 9);
    assert!(
        report.counts.deallocations() > 100,
        "the workload must actually churn the replica"
    );
}

#[test]
fn omega_zero_bills_only_data_messages() {
    // §3's lower edge ω = 0: control messages are free, so the message-model
    // bill of any run is exactly its data-message count, and SW1's optimized
    // delete-request write (§4, a lone control message) costs nothing.
    let model = CostModel::message(0.0);
    for spec in PolicySpec::roster(&[1, 3, 5], &[2]) {
        for text in ["rwrwrwrwrw", "rrrwwwrrrwwwrrr", "wrrrrwwrwr"] {
            let s: Schedule = text.parse().unwrap();
            let sim = Simulation::run_schedule(spec, &s);
            let reference = run_spec(spec, &s, model);
            assert!(
                (sim.cost(model) - reference.total_cost).abs() < 1e-9,
                "{spec} on {s}: distributed and reference bills diverge"
            );
            assert!(
                (reference.total_cost - reference.counts.data_messages() as f64).abs() < 1e-9,
                "{spec} on {s}: the ω=0 bill must equal the data-message count"
            );
        }
    }
    // Alternating requests drive SW1 through its delete-request path, which
    // must be visible in the tallies yet absent from the ω=0 bill.
    let s = Schedule::alternating(Request::Read, 40);
    let sw1 = run_spec(PolicySpec::SlidingWindow { k: 1 }, &s, model);
    assert!(sw1.counts.delete_request_writes > 0);
    assert!((sw1.total_cost - sw1.counts.data_messages() as f64).abs() < 1e-9);
}

#[test]
fn omega_one_bills_control_like_data() {
    // §3's upper edge ω = 1: a control message costs as much as a data
    // message, so the bill is the total number of messages of either kind.
    let model = CostModel::message(1.0);
    for spec in PolicySpec::roster(&[1, 3, 5], &[2]) {
        for text in ["rwrwrwrwrw", "rrrwwwrrrwwwrrr", "wrrrrwwrwr"] {
            let s: Schedule = text.parse().unwrap();
            let sim = Simulation::run_schedule(spec, &s);
            let reference = run_spec(spec, &s, model);
            assert!(
                (sim.cost(model) - reference.total_cost).abs() < 1e-9,
                "{spec} on {s}: distributed and reference bills diverge"
            );
            let messages = reference.counts.data_messages() + reference.counts.control_messages();
            assert!(
                (reference.total_cost - messages as f64).abs() < 1e-9,
                "{spec} on {s}: the ω=1 bill must equal the total message count"
            );
        }
    }
}

#[test]
fn regression_high_latency_st1_read_write_read() {
    // Pinned from a proptest shrink once recorded in the regression file:
    // spec = ST1, s = "rwr", latency ≈ 1.8858. Serialization (§3) makes the
    // bill latency-independent even when the link is slower than the
    // inter-arrival gap.
    use mobile_replication::sim::TraceWorkload;
    let s: Schedule = "rwr".parse().unwrap();
    let run = |lat: f64| {
        let Ok(builder) = SimBuilder::new(PolicySpec::St1).and_then(|b| b.latency(lat)) else {
            unreachable!("the pinned latency is valid")
        };
        let mut sim = builder.simulation();
        let mut w = TraceWorkload::new(s.clone(), 0.5);
        sim.run(&mut w, s.len())
    };
    let fast = run(0.0);
    let slow = run(1.8857753182245665);
    assert_eq!(fast.counts, slow.counts);
    assert!((fast.cost(CostModel::message(0.3)) - slow.cost(CostModel::message(0.3))).abs() < 1e-9);
    assert!(slow.makespan >= fast.makespan - 1e-9);
}
