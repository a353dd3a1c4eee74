//! # mdr-verify — bounded model checking for the window-ownership protocol
//!
//! The fourth verification layer of this workspace (after the simulator's
//! oracle mode, the property tests, and the exhaustive short-schedule
//! sweeps; see `DESIGN.md`): an explicit-state bounded model checker for
//! the §4 protocol of **Huang, Sistla, Wolfson, "Data Replication for
//! Mobile Computers" (SIGMOD 1994)**.
//!
//! The checker drives the same [`LinkState`](mdr_sim::LinkState) — the §4
//! [`ProtocolState`](mdr_sim::ProtocolState) plus the link's exchange
//! lifecycle and bill — that the discrete-event simulator uses, through
//! the same methods: not a model of the protocol but the protocol itself.
//! It exhaustively explores every
//! interleaving of request arrivals at both nodes, message deliveries,
//! (in ARQ mode) retransmission-timeout firings — budget-bounded
//! retransmits, escalations to declared partitions and billed
//! acknowledgements — and
//! (in faulty mode) disconnections, MC crashes — volatile and stable — and
//! the reconnection handshake that re-validates the replica, deduplicating
//! by full state hash. Every reached state is judged by the transient-aware
//! invariant suite ([`check_state`], [`Invariant`]); see
//! `src/invariants.rs` for the exact formulations.
//!
//! ```
//! use mdr_core::PolicySpec;
//! use mdr_verify::{check, CheckConfig};
//!
//! let report = check(&CheckConfig::new(PolicySpec::SlidingWindow { k: 3 }, 8));
//! assert!(report.verified());
//! assert!(report.states > 100);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod checker;
mod handoff;
mod invariants;

pub use checker::{check, default_roster, faulty_sweep, sweep, CheckConfig, CheckReport, Fault};
pub use handoff::{
    check_handoff, handoff_sweep, HandoffConfig, HandoffInvariant, HandoffReport, HandoffViolation,
};
pub use invariants::{check_state, Invariant, StateView, Violation};

#[cfg(test)]
mod tests {
    use super::*;
    use mdr_core::PolicySpec;

    /// The acceptance bar: every policy family in the roster, lossless and
    /// under ARQ, explored to depth 18 (comfortably past the required
    /// ≥ 12) with zero violations and at least 10⁵ deduplicated states in
    /// total.
    #[test]
    fn full_sweep_verifies_at_depth_18() {
        let reports = sweep(18);
        let mut total_states = 0;
        for report in &reports {
            assert!(
                report.verified(),
                "{:?} (arq: {}) found violations: {:?}",
                report.policy,
                report.arq,
                report.violations
            );
            assert!(report.states > 1, "{:?} explored nothing", report.policy);
            total_states += report.states;
        }
        let arq = reports.iter().filter(|r| r.arq).count();
        assert_eq!(
            (reports.len() - arq, arq),
            (7, 7),
            "7 policies × {{lossless, arq}}"
        );
        assert!(
            total_states >= 100_000,
            "acceptance floor not met: {total_states} deduplicated states"
        );
    }

    /// Mutation self-test: stripping the save-the-copy indication from the
    /// allocating data response must be caught as a replica-agreement
    /// violation (the SC commits to propagate but the MC never caches).
    #[test]
    fn skipped_allocation_handoff_is_caught() {
        let config = CheckConfig::new(PolicySpec::SlidingWindow { k: 3 }, 12)
            .with_fault(Fault::SkipAllocationHandoff);
        let report = check(&config);
        assert!(
            !report.verified(),
            "mutation survived {} states",
            report.states
        );
        assert_eq!(report.violations[0].invariant, Invariant::ReplicaAgreement);
    }

    /// Mutation self-test: stripping the window from the deallocating
    /// delete-request must be caught as a window-ownership violation (the
    /// hand-off is skipped and the window has no owner).
    #[test]
    fn skipped_window_handoff_is_caught() {
        let config = CheckConfig::new(PolicySpec::SlidingWindow { k: 3 }, 12)
            .with_fault(Fault::SkipWindowHandoff);
        let report = check(&config);
        assert!(
            !report.verified(),
            "mutation survived {} states",
            report.states
        );
        assert_eq!(report.violations[0].invariant, Invariant::SingleWindowOwner);
    }

    /// Mutation self-test: an unrecovered loss of a delete-request (broken
    /// link-layer ARQ) must be caught as a deadlock — the exchange dangles
    /// with nothing in flight.
    #[test]
    fn dropped_delete_request_is_caught() {
        let config = CheckConfig::new(PolicySpec::SlidingWindow { k: 1 }, 12)
            .with_fault(Fault::DropDeleteRequest);
        let report = check(&config);
        assert!(
            !report.verified(),
            "mutation survived {} states",
            report.states
        );
        assert_eq!(report.violations[0].invariant, Invariant::NoDeadlock);
    }

    /// Counterexample traces carry the serialized schedule prefix so a
    /// violation is reproducible by hand.
    #[test]
    fn counterexamples_carry_a_schedule() {
        let config = CheckConfig::new(PolicySpec::SlidingWindow { k: 3 }, 12)
            .with_fault(Fault::SkipAllocationHandoff);
        let report = check(&config);
        let violation = &report.violations[0];
        assert!(
            !violation.schedule.is_empty(),
            "a violation needs at least one serialized request"
        );
        // The trace renders as a runnable schedule string.
        let rendered = violation.to_string();
        assert!(rendered.contains("replica-agreement"), "{rendered}");
    }

    /// The statics never allocate, so their reachable space is much smaller
    /// than the adaptive families' — a sanity check on the dedup.
    #[test]
    fn static_policies_have_smaller_state_spaces() {
        let st1 = check(&CheckConfig::new(PolicySpec::St1, 10));
        let sw3 = check(&CheckConfig::new(PolicySpec::SlidingWindow { k: 3 }, 10));
        assert!(st1.verified() && sw3.verified());
        assert!(st1.states < sw3.states);
    }

    /// Fault acceptance: every roster policy — SW1 and SW3 included —
    /// verifies all invariants under both cost models when disconnections,
    /// volatile/stable MC crashes and reconnection handshakes are woven
    /// into every interleaving.
    #[test]
    fn faulty_sweep_verifies_at_depth_12() {
        let reports = faulty_sweep(12);
        assert_eq!(reports.len(), 7);
        for report in &reports {
            assert!(report.faulty);
            assert!(
                report.verified(),
                "{:?} under faults found violations: {:?}",
                report.policy,
                report.violations
            );
            assert!(
                report.states > 1_000,
                "{:?} explored too little",
                report.policy
            );
        }
    }

    /// Fault transitions strictly enlarge the state space: epoch bumps,
    /// retry slots and the aborted/handshake bill distinguish
    /// otherwise-identical protocol states.
    #[test]
    fn fault_transitions_enlarge_the_state_space() {
        let policy = PolicySpec::SlidingWindow { k: 3 };
        let clean = check(&CheckConfig::new(policy, 10));
        let faulty = check(&CheckConfig::new(policy, 10).faulty());
        assert!(clean.verified() && faulty.verified());
        assert!(
            faulty.states > clean.states,
            "faulty {} vs clean {}",
            faulty.states,
            clean.states
        );
    }

    /// Mutation self-test: an MC that reports its replica lost on
    /// reconnection while it actually survived makes the SC retract a
    /// commitment that is still live — caught as a replica-agreement
    /// violation.
    #[test]
    fn lying_reconnect_announce_is_caught() {
        let config = CheckConfig::new(PolicySpec::SlidingWindow { k: 3 }, 10)
            .faulty()
            .with_fault(Fault::LieAboutReplicaOnReconnect);
        let report = check(&config);
        assert!(
            !report.verified(),
            "mutation survived {} states",
            report.states
        );
        assert_eq!(report.violations[0].invariant, Invariant::ReplicaAgreement);
    }

    /// Mutation self-test: stripping the re-shipped item from ST2's
    /// recovery acknowledgement leaves the SC committed to a replica the
    /// MC never re-caches — caught as a replica-agreement violation at the
    /// first post-recovery quiescence.
    #[test]
    fn skipped_recovery_refresh_is_caught() {
        let config = CheckConfig::new(PolicySpec::St2, 10)
            .faulty()
            .with_fault(Fault::SkipRecoveryRefresh);
        let report = check(&config);
        assert!(
            !report.verified(),
            "mutation survived {} states",
            report.states
        );
        assert_eq!(report.violations[0].invariant, Invariant::ReplicaAgreement);
    }

    /// ARQ and fault transitions compose: timeout escalations interleave
    /// with injected dozes, crashes and reconnection handshakes, and every
    /// invariant still holds.
    #[test]
    fn arq_composes_with_fault_transitions() {
        for policy in [PolicySpec::SlidingWindow { k: 3 }, PolicySpec::St2] {
            let report = check(&CheckConfig::new(policy, 10).faulty().arq());
            assert!(report.arq && report.faulty);
            assert!(
                report.verified(),
                "{policy:?} under ARQ + faults found violations: {:?}",
                report.violations
            );
        }
    }

    /// ARQ transitions strictly enlarge the state space: attempt counters
    /// and the ack bill distinguish otherwise-identical protocol states.
    #[test]
    fn arq_transitions_enlarge_the_state_space() {
        let policy = PolicySpec::SlidingWindow { k: 3 };
        let clean = check(&CheckConfig::new(policy, 10));
        let arq = check(&CheckConfig::new(policy, 10).arq());
        assert!(clean.verified() && arq.verified());
        assert!(
            arq.states > clean.states,
            "arq {} vs clean {}",
            arq.states,
            clean.states
        );
    }

    /// Mutation self-test: silently dropping the reconnection announce
    /// leaves the handshake dangling — caught as a deadlock.
    #[test]
    fn dropped_reconnect_announce_is_caught() {
        let config = CheckConfig::new(PolicySpec::SlidingWindow { k: 1 }, 10)
            .faulty()
            .with_fault(Fault::DropReconnect);
        let report = check(&config);
        assert!(
            !report.verified(),
            "mutation survived {} states",
            report.states
        );
        assert_eq!(report.violations[0].invariant, Invariant::NoDeadlock);
    }

    /// Mutation self-test: a second reconnection announce while the first
    /// is in flight trips the one-slot wire's assertion. The checker
    /// catches the panic and reports it as one `no-panic` violation, with
    /// the transition, the assertion's message and the schedule that
    /// reached it, instead of unwinding out of the exploration.
    #[test]
    fn duplicate_announce_is_caught_as_a_panic() {
        let config = CheckConfig::new(PolicySpec::SlidingWindow { k: 3 }, 8)
            .faulty()
            .with_fault(Fault::DuplicateAnnounce);
        let report = check(&config);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        let violation = &report.violations[0];
        assert_eq!(violation.invariant, Invariant::NoPanic);
        assert!(
            violation.detail.starts_with("Crash {")
                && violation
                    .detail
                    .contains("panicked: reconnect sent while another message is in flight"),
            "{}",
            violation.detail
        );
        assert!(!violation.schedule.is_empty());
        let line = violation.to_string();
        assert!(line.starts_with("no-panic violated after ["), "{line}");
    }

    /// Handoff acceptance: the shipped `HandoffState`, driven through
    /// migrations, landings, losses, ARQ retries, deadlines and queued
    /// copies over 2 and 3 cells with both invalidation pricings, keeps
    /// every handoff invariant and reaches commits in every run.
    #[test]
    fn handoff_sweep_verifies() {
        let reports = handoff_sweep(10);
        assert_eq!(
            reports.len(),
            8,
            "2 cell counts × 2 pricings × 2 transports"
        );
        let mut total_states = 0;
        for report in &reports {
            assert!(
                report.verified(),
                "{:?}: {:?}",
                report.config,
                report.violations
            );
            assert!(report.states > 1 && report.commits > 0, "explored nothing");
            total_states += report.states;
        }
        assert!(
            total_states >= 10_000,
            "acceptance floor not met: {total_states} deduplicated states"
        );
    }

    /// The ARQ transport's retries strictly enlarge the state space.
    #[test]
    fn arq_retries_enlarge_the_handoff_state_space() {
        let bare = check_handoff(&HandoffConfig::new(3, 10));
        let arq = check_handoff(&HandoffConfig::new(3, 10).arq());
        assert!(bare.verified() && arq.verified());
        assert!(
            arq.states > bare.states,
            "{} vs {}",
            arq.states,
            bare.states
        );
    }
}
