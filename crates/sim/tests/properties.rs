//! Property-based tests of the discrete-event simulator.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mdr_core::{approx_eq, run_spec, CostModel, PolicySpec, Request, Schedule};
use mdr_sim::calendar::{key_lt, pack, unpack, CalendarQueue};
use mdr_sim::engine::{DecisionCore, ServeConfig, ServeEngine};
use mdr_sim::sweep::{SweepGrid, SweepOptions};
use mdr_sim::{
    ArqConfig, ArrivalProcess, FaultPlan, PoissonWorkload, RunLimit, SimBuilder, Simulation,
    TopologyConfig, TraceWorkload,
};
use proptest::prelude::*;

/// A reference priority key carrying the simulator's total event order:
/// time under `total_cmp`, then actor rank, then sequence number.
#[derive(Clone, Copy, Debug, PartialEq)]
struct RefKey(f64, u8, u64);

impl Eq for RefKey {}

impl PartialOrd for RefKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RefKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .total_cmp(&other.0)
            .then_with(|| self.1.cmp(&other.1))
            .then_with(|| self.2.cmp(&other.2))
    }
}

fn arb_spec() -> impl Strategy<Value = PolicySpec> {
    prop_oneof![
        Just(PolicySpec::St1),
        Just(PolicySpec::St2),
        (0usize..6).prop_map(|n| PolicySpec::SlidingWindow { k: 2 * n + 1 }),
        (1usize..6).prop_map(|m| PolicySpec::T1 { m }),
        (1usize..6).prop_map(|m| PolicySpec::T2 { m }),
    ]
}

fn arb_schedule(max_len: usize) -> impl Strategy<Value = Schedule> {
    prop::collection::vec(prop::bool::ANY.prop_map(Request::from_bit), 1..=max_len)
        .prop_map(Schedule::from_requests)
}

/// A small but fully random [`SweepGrid`]: every axis varies, runs stay
/// cheap enough for a property test.
fn arb_grid() -> impl Strategy<Value = SweepGrid> {
    let policies = prop::collection::vec(arb_spec(), 1..=2);
    let thetas = prop::collection::vec(0.0f64..=1.0, 1..=2);
    let omegas = prop::collection::vec(0.0f64..=1.0, 1..=2);
    let faulted = prop::bool::ANY;
    let reps = 1usize..=2;
    let requests = 40usize..=120;
    let seed = any::<u64>();
    (policies, thetas, omegas, faulted, reps, requests, seed).prop_map(
        |(policies, thetas, omegas, faulted, reps, requests, seed)| {
            let faults = if faulted {
                let Ok(plan) = FaultPlan::new(0.05, 1.5, 0) else {
                    unreachable!("the literal fault rates are valid")
                };
                vec![None, Some(plan)]
            } else {
                vec![None]
            };
            let Ok(grid) = SweepGrid::new(seed)
                .policies(policies)
                .and_then(|g| g.thetas(thetas))
                .and_then(|g| g.omegas(omegas))
                .and_then(|g| g.fault_plans(faults))
                .and_then(|g| g.replications(reps))
                .and_then(|g| g.requests(requests))
            else {
                unreachable!("every generated axis is valid by construction")
            };
            grid
        },
    )
}

/// A random multi-cell topology: 2–4 cells, a live migration rate, a
/// lossy backbone, and optionally broadcast invalidation.
fn arb_topology() -> impl Strategy<Value = TopologyConfig> {
    let cells = 2usize..=4;
    let rate = 0.1f64..1.0;
    let deadline = 0.5f64..2.0;
    let loss = 0.0f64..0.5;
    let broadcast = prop::bool::ANY;
    let seed = any::<u64>();
    (cells, rate, deadline, loss, broadcast, seed).prop_map(
        |(cells, rate, deadline, loss, broadcast, seed)| {
            let Ok(topology) =
                TopologyConfig::new(cells, rate, deadline, seed).and_then(|t| t.with_loss(loss))
            else {
                unreachable!("the generated topology knobs are valid by construction")
            };
            if broadcast {
                topology.with_broadcast_invalidation()
            } else {
                topology
            }
        },
    )
}

/// A random grid with a live topology axis: [single-cell, random
/// multi-cell], small enough for a property test.
fn arb_topology_grid() -> impl Strategy<Value = SweepGrid> {
    let policies = prop::collection::vec(arb_spec(), 1..=2);
    let thetas = prop::collection::vec(0.0f64..=1.0, 1..=2);
    let topology = arb_topology();
    let reps = 1usize..=2;
    let requests = 40usize..=120;
    let seed = any::<u64>();
    (policies, thetas, topology, reps, requests, seed).prop_map(
        |(policies, thetas, topology, reps, requests, seed)| {
            let Ok(grid) = SweepGrid::new(seed)
                .policies(policies)
                .and_then(|g| g.thetas(thetas))
                .and_then(|g| g.topology_configs(vec![None, Some(topology)]))
                .and_then(|g| g.replications(reps))
                .and_then(|g| g.requests(requests))
            else {
                unreachable!("every generated axis is valid by construction")
            };
            grid
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The simulator serves exactly the requested number of Poisson
    /// arrivals, with the oracle check live (any protocol divergence
    /// panics), for arbitrary parameters.
    #[test]
    fn poisson_runs_serve_exactly_n(
        spec in arb_spec(),
        theta in 0.0f64..=1.0,
        seed in any::<u64>(),
        latency in 0.0f64..0.5,
    ) {
        let n = 400;
        let mut sim = SimBuilder::new(spec)
            .and_then(|b| b.latency(latency))
            .unwrap()
            .simulation();
        let mut w = PoissonWorkload::from_theta(1.0, theta, seed);
        let report = sim.run(&mut w, RunLimit::Requests(n));
        prop_assert_eq!(report.counts.total(), n as u64);
        prop_assert_eq!(report.schedule.len(), n);
        // Costs are consistent with the action tallies on a lossless link.
        prop_assert_eq!(report.data_messages, report.counts.data_messages());
        prop_assert_eq!(report.control_messages, report.counts.control_messages());
    }

    /// Per-request connection cost never exceeds 1, and the message bill is
    /// bounded by (1 + ω) per request — on any schedule, any policy.
    #[test]
    fn per_request_cost_bounds(
        spec in arb_spec(),
        s in arb_schedule(200),
        omega in 0.0f64..=1.0,
    ) {
        let mut sim = SimBuilder::new(spec).unwrap().simulation();
        let mut w = TraceWorkload::new(s.clone(), 1.0);
        let report = sim.run(&mut w, RunLimit::Requests(s.len()));
        prop_assert!(report.cost(CostModel::Connection) <= s.len() as f64);
        prop_assert!(report.cost(CostModel::message(omega)) <= s.len() as f64 * (1.0 + omega) + 1e-9);
    }

    /// ARQ loss never changes the served actions — only the bill — and the
    /// bill only grows.
    #[test]
    fn loss_only_inflates(
        spec in arb_spec(),
        s in arb_schedule(120),
        loss in 0.0f64..0.8,
        seed in any::<u64>(),
    ) {
        let run = |with_loss: bool| {
            let builder = SimBuilder::new(spec).unwrap();
            let builder = if with_loss && loss > 0.0 {
                let Ok(lossy) = builder.loss(loss, 0.05, seed) else {
                    unreachable!("the generated loss grid is valid by construction")
                };
                lossy
            } else {
                builder
            };
            let mut sim = builder.simulation();
            let mut w = TraceWorkload::new(s.clone(), 1.0);
            sim.run(&mut w, RunLimit::Requests(s.len()))
        };
        let clean = run(false);
        let lossy = run(true);
        prop_assert_eq!(clean.counts, lossy.counts);
        prop_assert!(lossy.data_messages >= clean.data_messages);
        prop_assert!(lossy.control_messages >= clean.control_messages);
        prop_assert!(lossy.makespan >= clean.makespan - 1e-9);
    }

    /// Epoch/sequence idempotence: a network that duplicates and reorders
    /// envelopes (but never disconnects anyone) changes *nothing* — not the
    /// served actions, not the window state they encode, not a single
    /// billed message. Ghost copies are discarded by the delivery guards
    /// and are never billed. The oracle check is live, so any window-state
    /// divergence in SWk/SW1 would panic the run.
    #[test]
    fn duplication_and_reordering_are_invisible(
        spec in arb_spec(),
        s in arb_schedule(150),
        dup in 0.0f64..0.5,
        reorder in 0.0f64..0.5,
        seed in any::<u64>(),
    ) {
        let run = |ghosts: bool| {
            let builder = SimBuilder::new(spec)
                .and_then(|b| b.latency(0.05))
                .unwrap();
            let builder = if ghosts {
                let Ok(plan) = FaultPlan::new(0.0, 1.0, seed)
                    .and_then(|p| p.with_duplication(dup, reorder)) else {
                    unreachable!("the generated ghost rates are valid by construction")
                };
                let Ok(faulted) = builder.faults(plan) else {
                    unreachable!("no conflicting plan was installed")
                };
                faulted
            } else {
                builder
            };
            let mut sim = builder.simulation();
            let mut w = TraceWorkload::new(s.clone(), 1.0);
            sim.run(&mut w, RunLimit::Requests(s.len()))
        };
        let clean = run(false);
        let noisy = run(true);
        prop_assert_eq!(clean.schedule, noisy.schedule);
        prop_assert_eq!(clean.counts, noisy.counts);
        // Ghosts are never billed: the wire tallies are *identical*, not
        // merely close.
        prop_assert_eq!(clean.data_messages, noisy.data_messages);
        prop_assert_eq!(clean.control_messages, noisy.control_messages);
        prop_assert_eq!(clean.connections, noisy.connections);
        // Every injected ghost was discarded by the epoch/sequence guards.
        prop_assert_eq!(noisy.duplicated_deliveries, noisy.discarded_deliveries);
        prop_assert_eq!(clean.duplicated_deliveries, 0);
    }

    /// Fault determinism: the same (FaultPlan, workload seed) pair replays
    /// the same run down to every counter — the acceptance bar for
    /// reproducible fault schedules.
    #[test]
    fn fault_schedules_replay_identically(
        spec in arb_spec(),
        rate in 0.0f64..0.3,
        seed in any::<u64>(),
    ) {
        let run = || {
            let Ok(plan) = FaultPlan::new(rate, 2.0, seed)
                .and_then(|p| p.with_crashes(0.4, 0.6))
                .and_then(|p| p.with_duplication(0.1, 0.1)) else {
                unreachable!("the generated fault rates are valid by construction")
            };
            let mut sim = SimBuilder::new(spec)
                .and_then(|b| b.latency(0.05))
                .and_then(|b| b.faults(plan))
                .unwrap()
                .simulation();
            let mut w = PoissonWorkload::from_theta(1.0, 0.4, seed ^ 0x5EED);
            sim.run(&mut w, RunLimit::Requests(300))
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.schedule, b.schedule);
        prop_assert_eq!(a.counts, b.counts);
        prop_assert_eq!(a.data_messages, b.data_messages);
        prop_assert_eq!(a.control_messages, b.control_messages);
        prop_assert_eq!(a.connections, b.connections);
        prop_assert_eq!(a.disconnects, b.disconnects);
        prop_assert_eq!(a.mc_crashes, b.mc_crashes);
        prop_assert_eq!(a.reconciliations, b.reconciliations);
        prop_assert_eq!(a.aborted_messages, b.aborted_messages);
        prop_assert_eq!(a.reconciliation_messages, b.reconciliation_messages);
    }

    /// ARQ transport determinism and bounded retries: the same
    /// (ArqConfig, workload seed) replays the whole run — timer firings,
    /// jitter draws, escalations, sheds — byte-identically; the pre-jitter
    /// backoff schedule is monotone non-decreasing in the attempt number;
    /// every escalation consumed the full retry budget; and the billing
    /// identity closes at termination.
    #[test]
    fn arq_schedules_are_deterministic_and_bounded(
        spec in arb_spec(),
        loss in 0.0f64..0.6,
        budget in 1u32..6,
        backoff in 1.0f64..3.0,
        jitter in 0.0f64..0.9,
        seed in any::<u64>(),
    ) {
        let arq = || {
            let Ok(arq) = ArqConfig::new(loss, 0.2, seed)
                .and_then(|a| a.with_backoff(backoff, jitter))
                .and_then(|a| a.with_retry_budget(budget)) else {
                unreachable!("the generated transport knobs are valid by construction")
            };
            arq
        };
        let run = || {
            let mut sim = SimBuilder::new(spec)
                .and_then(|b| b.latency(0.05))
                .and_then(|b| b.arq(arq()))
                .unwrap()
                .simulation();
            let mut w = PoissonWorkload::from_theta(1.0, 0.4, seed ^ 0x5EED);
            sim.run(&mut w, RunLimit::Requests(250))
        };
        let a = run();
        let b = run();
        prop_assert_eq!(&a.schedule, &b.schedule);
        prop_assert_eq!(a.counts, b.counts);
        prop_assert_eq!(a.data_messages, b.data_messages);
        prop_assert_eq!(a.control_messages, b.control_messages);
        prop_assert_eq!(a.retransmissions, b.retransmissions);
        prop_assert_eq!(a.arq_acks, b.arq_acks);
        prop_assert_eq!(a.retry_escalations, b.retry_escalations);
        prop_assert_eq!(a.shed_requests(), b.shed_requests());
        prop_assert_eq!(a.degraded_reads, b.degraded_reads);
        prop_assert_eq!(a.recovery_time_sum.to_bits(), b.recovery_time_sum.to_bits());
        prop_assert_eq!(a.staleness_sum.to_bits(), b.staleness_sum.to_bits());
        // The pre-jitter backoff schedule never shrinks with the attempt
        // number (backoff factor ≥ 1 by construction).
        let cfg = arq();
        for attempt in 1..=budget {
            prop_assert!(
                cfg.timeout_for_attempt(attempt + 1) >= cfg.timeout_for_attempt(attempt)
            );
        }
        // Retries are bounded by the budget: an envelope escalates only
        // after exactly `budget` retransmissions, so the tally covers at
        // least that many per escalation.
        prop_assert!(a.retransmissions >= a.retry_escalations * u64::from(budget));
        // The billing identity closes at termination.
        prop_assert_eq!(
            a.data_messages + a.control_messages,
            a.counts.data_messages() + a.counts.control_messages()
                + a.settled_retransmissions + a.aborted_messages
                + a.reconciliation_messages + a.arq_acks
        );
    }

    /// Handoff idempotence: a backbone that duplicates and reorders
    /// HandoffCommit legs changes *nothing* observable — the epoch fence
    /// discards every ghost copy before it can re-commit a finished
    /// handoff. Only the discard tally moves.
    #[test]
    fn handoff_commits_are_idempotent_under_ghosts(
        spec in arb_spec(),
        theta in 0.0f64..=1.0,
        cells in 2usize..=4,
        rate in 0.1f64..1.0,
        dup in 0.1f64..0.8,
        reorder in 0.1f64..0.8,
        seed in any::<u64>(),
    ) {
        let run = |ghosts: bool| {
            let Ok(topology) = TopologyConfig::new(cells, rate, 2.0, seed).and_then(|t| {
                if ghosts { t.with_commit_ghosts(dup, reorder) } else { Ok(t) }
            }) else {
                unreachable!("the generated ghost rates are valid by construction")
            };
            let mut sim = SimBuilder::new(spec)
                .and_then(|b| b.latency(0.05))
                .and_then(|b| b.topology(topology))
                .unwrap()
                .simulation();
            let mut w = PoissonWorkload::from_theta(1.0, theta, seed ^ 0x5EED);
            sim.run(&mut w, RunLimit::Requests(250))
        };
        let clean = run(false);
        let noisy = run(true);
        prop_assert_eq!(&clean.schedule, &noisy.schedule);
        prop_assert_eq!(clean.counts, noisy.counts);
        prop_assert_eq!(clean.migrations, noisy.migrations);
        prop_assert_eq!(clean.handoffs_committed, noisy.handoffs_committed);
        prop_assert_eq!(clean.handoffs_aborted, noisy.handoffs_aborted);
        // Ghost legs are never billed and never re-commit: the handoff
        // bill and the invalidation traffic are *identical*.
        prop_assert_eq!(clean.handoff_messages, noisy.handoff_messages);
        prop_assert_eq!(clean.settled_handoff_messages, noisy.settled_handoff_messages);
        prop_assert_eq!(clean.invalidation_messages, noisy.invalidation_messages);
        prop_assert_eq!(clean.replicas_invalidated, noisy.replicas_invalidated);
        prop_assert_eq!(clean.stale_reads, noisy.stale_reads);
        prop_assert_eq!(clean.makespan.to_bits(), noisy.makespan.to_bits());
        // Ghosts can only *add* fence discards on top of the ones a
        // mid-flight migration already produces.
        prop_assert!(noisy.handoff_discards >= clean.handoff_discards);
    }

    /// The calendar queue and a reference binary heap agree on the full
    /// `(time, actor-rank, seq)` total order — same pop sequence, same
    /// `peek_key` before every pop — for arbitrary interleavings of
    /// pushes and pops, with time ties forced often enough to exercise
    /// the rank and sequence tie-breaks.
    #[test]
    fn calendar_queue_matches_reference_heap(
        ops in prop::collection::vec(
            (
                // Half the draws are quantized so exact time ties occur.
                prop_oneof![0.0f64..100.0, (0u32..16).prop_map(|i| f64::from(i) * 2.5)],
                0u8..4,
                prop::bool::ANY,
            ),
            1..200,
        ),
    ) {
        let mut calendar: CalendarQueue<(u8, u64)> = CalendarQueue::new();
        let mut heap: BinaryHeap<Reverse<RefKey>> = BinaryHeap::new();
        let mut seq = 0u64;

        // Pops one event from both queues and checks full agreement:
        // peek before pop, then (time, rank, seq) of the popped event.
        macro_rules! pop_both {
            () => {{
                let Some(Reverse(RefKey(at, rank, seq))) = heap.pop() else {
                    unreachable!("callers check non-emptiness first")
                };
                let expect = (at, rank, seq);
                prop_assert_eq!(calendar.peek_key(), Some(expect));
                let Some((popped_at, (popped_rank, popped_seq))) = calendar.pop() else {
                    return Err(TestCaseError::fail("calendar ran dry before the heap"));
                };
                prop_assert_eq!((popped_at, popped_rank, popped_seq), expect);
                expect
            }};
        }

        // Interleaved phase: every op pushes, and about half of them
        // immediately pop the current minimum from both queues.
        for &(time, rank, pop_now) in &ops {
            seq += 1;
            calendar.push(time, rank, seq, (rank, seq));
            heap.push(Reverse(RefKey(time, rank, seq)));
            if pop_now {
                pop_both!();
            }
            prop_assert_eq!(calendar.len(), heap.len());
        }

        // Drain phase: the survivors leave both queues in the same
        // non-decreasing total order.
        let mut last_popped: Option<(f64, u8, u64)> = None;
        while !heap.is_empty() {
            let popped = pop_both!();
            if let Some(prev) = last_popped {
                prop_assert!(!key_lt(popped, prev));
            }
            last_popped = Some(popped);
        }
        prop_assert!(calendar.is_empty());
        prop_assert_eq!(calendar.peek_key(), None);
    }

    /// Workload determinism: the same seed replays the same arrivals, and
    /// arrival times are strictly increasing.
    #[test]
    fn workloads_are_deterministic_and_ordered(
        theta in 0.0f64..=1.0,
        rate in 0.1f64..50.0,
        seed in any::<u64>(),
    ) {
        let take = |mut w: PoissonWorkload| -> Vec<(f64, Request)> {
            (0..200).map(|_| { let a = w.next_arrival().unwrap(); (a.time, a.request) }).collect()
        };
        let a = take(PoissonWorkload::from_theta(rate, theta, seed));
        let b = take(PoissonWorkload::from_theta(rate, theta, seed));
        prop_assert_eq!(&a, &b);
        for pair in a.windows(2) {
            prop_assert!(pair[1].0 > pair[0].0);
        }
    }
}

proptest! {
    // Each case runs a grid 4 times; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole determinism property: **any** grid swept at 1, 2 and N
    /// threads (and any chunking) produces a byte-identical report —
    /// every cell, every summary entry, the digest, and the printed
    /// ledger, down to the last float bit.
    #[test]
    fn sweeps_are_thread_count_invariant(
        grid in arb_grid(),
        threads in 2usize..=6,
        chunk in 0usize..=3,
    ) {
        let serial = grid.run_serial();
        let one = grid.run(SweepOptions { threads: 1, chunk });
        let two = grid.run(SweepOptions { threads: 2, chunk: 1 });
        let n = grid.run(SweepOptions { threads, chunk });
        prop_assert_eq!(&serial, &one);
        prop_assert_eq!(&serial, &two);
        prop_assert_eq!(&serial, &n);
        prop_assert_eq!(serial.summary, n.summary.clone());
        prop_assert_eq!(serial.ledger_digest(), n.ledger_digest());
        prop_assert_eq!(serial.ledger_lines().into_bytes(), n.ledger_lines().into_bytes());
    }

    /// Handoff determinism across thread counts: a grid with a random
    /// multi-cell topology axis — migrations, lossy backbone handoffs,
    /// invalidation fan-out — swept at 1 and 4 threads produces a
    /// byte-identical ledger, digest and printed lines.
    #[test]
    fn handoff_sweeps_are_thread_count_invariant(
        grid in arb_topology_grid(),
        chunk in 0usize..=3,
    ) {
        let serial = grid.run_serial();
        let one = grid.run(SweepOptions { threads: 1, chunk });
        let four = grid.run(SweepOptions { threads: 4, chunk });
        prop_assert_eq!(&serial, &one);
        prop_assert_eq!(&serial, &four);
        prop_assert_eq!(serial.ledger_digest(), four.ledger_digest());
        prop_assert_eq!(serial.ledger_lines().into_bytes(), four.ledger_lines().into_bytes());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Decision-core equivalence: a standalone [`DecisionCore`] fed a
    /// schedule takes exactly the actions of the pure reference policy
    /// *and* reaches the same terminal ledger as the full discrete-event
    /// simulator (whose internal oracle — itself a `DecisionCore` —
    /// asserts per-request action equality along the way, so any
    /// divergence panics the run rather than merely failing a final
    /// comparison).
    #[test]
    fn decision_core_matches_the_simulator(
        spec in arb_spec(),
        s in arb_schedule(200),
        omega in 0.0f64..=1.0,
    ) {
        let model = CostModel::message(omega);
        let Ok(mut core) = DecisionCore::new(spec, model) else {
            return Err(TestCaseError::fail("arb_spec generates valid specs"));
        };
        let mut reference = spec.build();
        for r in &s {
            let d = core.decide(r);
            prop_assert_eq!(d.action, reference.on_request(r));
            prop_assert_eq!(d.has_copy, reference.has_copy());
        }
        let outcome = run_spec(spec, &s, model);
        prop_assert_eq!(outcome.counts, *core.counts());
        prop_assert_eq!(outcome.final_copy, core.has_copy());
        prop_assert!(approx_eq(outcome.total_cost, core.total_cost()));
        let report = Simulation::run_schedule(spec, &s);
        prop_assert_eq!(&report.schedule, &s);
        prop_assert_eq!(report.counts, *core.counts());
    }

    /// Serve-layer snapshot/restore round trip: serving N requests,
    /// snapshotting, restoring into a fresh tenant and serving M more
    /// produces byte-identical responses — and the same terminal stats as
    /// serving all N + M requests in one uninterrupted session.
    #[test]
    fn serve_snapshot_restore_round_trips(
        spec in arb_spec(),
        head in arb_schedule(100),
        tail in arb_schedule(100),
    ) {
        let Ok(mut engine) = ServeEngine::new(ServeConfig::default()) else {
            return Err(TestCaseError::fail("the default serve config is valid"));
        };
        let open = |tenant: &str| {
            format!(r#"{{"op":"open","tenant":"{tenant}","policy":"{spec}","model":"message:0.5"}}"#)
        };
        let decide = |tenant: &str, r: Request| {
            format!(r#"{{"op":"decide","tenant":"{tenant}","request":"{}"}}"#, r.letter())
        };
        // Tenant `a` serves the head; `whole` serves head + tail unbroken.
        engine.handle_line(&open("a"));
        engine.handle_line(&open("whole"));
        for r in &head {
            engine.handle_line(&decide("a", r));
            engine.handle_line(&decide("whole", r));
        }
        // Snapshot `a` and restore it as `b`.
        let snap = engine.handle_line(r#"{"op":"snapshot","tenant":"a"}"#);
        let Some(snapshot_json) = snap
            .strip_prefix(r#"{"ok":"snapshot","tenant":"a","snapshot":"#)
            .and_then(|s| s.strip_suffix('}'))
        else {
            return Err(TestCaseError::fail(format!("unexpected snapshot shape: {snap}")));
        };
        let restored = engine
            .handle_line(&format!(r#"{{"op":"restore","tenant":"b","snapshot":{snapshot_json}}}"#));
        let restore_ok = restored.starts_with(r#"{"ok":"restore""#);
        prop_assert!(restore_ok, "unexpected restore response: {}", restored);
        // The restored tenant now serves the tail byte-identically to the
        // original, and both end exactly where the unbroken session ends.
        for r in &tail {
            let a = engine.handle_line(&decide("a", r));
            let b = engine.handle_line(&decide("b", r));
            let w = engine.handle_line(&decide("whole", r));
            prop_assert_eq!(
                a.replace(r#""tenant":"a""#, ""),
                b.replace(r#""tenant":"b""#, "")
            );
            prop_assert_eq!(
                a.replace(r#""tenant":"a""#, ""),
                w.replace(r#""tenant":"whole""#, "")
            );
        }
        let stats = |engine: &mut ServeEngine, tenant: &str| {
            engine
                .handle_line(&format!(r#"{{"op":"stats","tenant":"{tenant}"}}"#))
                .replace(&format!(r#""tenant":"{tenant}""#), "")
        };
        let a = stats(&mut engine, "a");
        prop_assert_eq!(&a, &stats(&mut engine, "b"));
        prop_assert_eq!(&a, &stats(&mut engine, "whole"));
    }
}

#[test]
fn regression_st2_poisson_with_high_latency() {
    // Pinned from a proptest shrink once recorded in the regression file:
    // ST2, θ ≈ 0.5357, seed 4359208734433868950, latency ≈ 0.4781. The run
    // must serve exactly n requests with the oracle check live and with
    // wire tallies matching the action ledger.
    let mut sim = match SimBuilder::new(PolicySpec::St2).and_then(|b| b.latency(0.4781375308365721))
    {
        Ok(builder) => Simulation::new(builder.build()),
        Err(e) => panic!("builder rejected a valid configuration: {e}"),
    };
    let mut w = PoissonWorkload::from_theta(1.0, 0.535714170090935, 4359208734433868950);
    let report = sim.run(&mut w, RunLimit::Requests(400));
    assert_eq!(report.counts.total(), 400);
    assert_eq!(report.schedule.len(), 400);
    assert_eq!(report.data_messages, report.counts.data_messages());
    assert_eq!(report.control_messages, report.counts.control_messages());
}

/// Any `f64` bit pattern, with the corners the simulator's non-negative
/// times never reach drawn often: ±0.0, subnormals of either sign, ±∞
/// and NaNs of either sign.
fn arb_time() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        (0u64..1 << 52).prop_map(f64::from_bits),
        (0u64..1 << 52).prop_map(|mantissa| -f64::from_bits(mantissa)),
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::MIN_POSITIVE),
            Just(-f64::MIN_POSITIVE),
            Just(f64::NAN),
            Just(-f64::NAN),
        ],
        0.0f64..100.0,
    ]
}

/// A `(time, rank, seq)` key with any rank and any seq below 2^56.
fn arb_key() -> impl Strategy<Value = (f64, u8, u64)> {
    let seq = prop_oneof![0u64..1 << 56, Just(0), Just((1 << 56) - 1)];
    (arb_time(), any::<u8>(), seq)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The packed key orders exactly as the comparison chain, and
    /// unpacks to the same bits. `tie` makes the second key share the
    /// first's time (1), or its time and rank (2), so every tie-break
    /// level is reached.
    #[test]
    fn packed_key_order_is_key_lt(a in arb_key(), b in arb_key(), tie in 0u8..3) {
        let b = match tie {
            0 => b,
            1 => (a.0, b.1, b.2),
            _ => (a.0, a.1, b.2),
        };
        prop_assert_eq!(pack(a) < pack(b), key_lt(a, b));
        prop_assert_eq!(pack(b) < pack(a), key_lt(b, a));
        prop_assert_eq!(pack(a) == pack(b), !key_lt(a, b) && !key_lt(b, a));
        let (at, rank, seq) = unpack(pack(a));
        prop_assert_eq!((at.to_bits(), rank, seq), (a.0.to_bits(), a.1, a.2));
    }
}
