//! The invariant suite checked in every state the bounded model checker
//! reaches.
//!
//! The paper's correctness claims for the §4 protocol are *quiescent-state*
//! claims: between exchanges, exactly one side is in charge of the window,
//! the SC's replication commitment agrees with the MC's cache, the replica
//! is fresh, and the distributed execution has cost exactly equal to the
//! abstract policy's. A model checker, however, also visits *transient*
//! states — a message is on the wire, ownership is mid-handoff — so each
//! invariant below is stated in a transient-aware form that degenerates to
//! the paper's claim when the wire is empty:
//!
//! * **Window ownership** (§4): the window has exactly one logical owner.
//!   A windowed message in flight *is* an owner (the window travels with
//!   the allocating data response or the deallocating delete-request); an
//!   MC whose replica is being revoked by an in-flight SC → MC
//!   delete-request (SW1's optimized write, T1m's phase-ending write) no
//!   longer counts as an owner, because the SC reconstructed the window
//!   when it issued the revocation.
//! * **Replica agreement** (§4): the SC's commitment to propagate writes
//!   (`mc_has_copy`) differs from the MC's actual cache state exactly while
//!   one ownership-transfer message is in flight.
//! * **Freshness** (§3's consistency requirement): the replica never runs
//!   ahead of the primary, and is exactly current when the wire is empty.
//! * **Ledger = replay** (§3/§5/§6): at every quiescent state the action
//!   ledger and both cost models' totals equal a replay of the serialized
//!   schedule through the abstract
//!   [`AllocationPolicy`](mdr_core::AllocationPolicy) — with the oracle's
//!   [`on_replica_lost`](mdr_core::AllocationPolicy::on_replica_lost) hook
//!   applied at every recorded volatile-crash point.
//! * **Billing identity** (§3): in every state, per message class, the
//!   attempts billed equal the ledger's messages plus exactly the
//!   retransmitted, aborted, handshake, at-risk and acknowledgement
//!   traffic the link caused — the shipped
//!   [`LinkState::check_billing`], which the simulator runs at every
//!   completion.
//! * **No deadlock**: an exchange, a suspended request or a reconnection
//!   handshake in progress always has a message in flight to advance it.
//!   Loss is repaired by the ARQ transport's timeout-driven
//!   retransmissions — and when the retry budget runs out, the timeout
//!   must escalate to a declared partition that rolls the exchange back
//!   and retries it; an exchange left dangling with nothing in flight (an
//!   unrecovered loss, a forgotten escalation rollback) is a transport bug
//!   and must be detected.
//!
//! The fault extension adds one more transient to each structural
//! invariant: while a reconnection handshake is re-validating a replica a
//! volatile crash destroyed, the SC's stale commitment stands in for the
//! lost replica (agreement) and for the lost window charge (ownership)
//! until the handshake retracts or refreshes it.

use mdr_core::{approx_eq, Action, ActionCounts, CostModel, PolicySpec, Request};
use mdr_sim::{Endpoint, Envelope, InvariantMonitor, LinkState, SimReport, WireMessage};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The invariant classes the checker enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// Exactly one logical owner of the request window (§4).
    SingleWindowOwner,
    /// SC replication commitment ⇔ MC cache, modulo one in-flight transfer.
    ReplicaAgreement,
    /// The replica never runs ahead of, and quiescently equals, the primary.
    ReplicaFreshness,
    /// Ledger and costs equal the abstract policy replay (§3).
    LedgerEqualsReplay,
    /// Every billed attempt is accounted for, per message class (§3).
    BillingIdentity,
    /// An in-progress exchange always has a message in flight.
    NoDeadlock,
    /// No transition trips an assertion of the shipped protocol — among
    /// them the one-slot wire's: requests are serialized (§3), so a send
    /// onto an occupied slot panics.
    NoPanic,
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Invariant::SingleWindowOwner => "single-window-owner",
            Invariant::ReplicaAgreement => "replica-agreement",
            Invariant::ReplicaFreshness => "replica-freshness",
            Invariant::LedgerEqualsReplay => "ledger-equals-replay",
            Invariant::BillingIdentity => "billing-identity",
            Invariant::NoDeadlock => "no-deadlock",
            Invariant::NoPanic => "no-panic",
        };
        write!(f, "{name}")
    }
}

/// A counterexample: which invariant failed, why, and the serialized
/// request prefix that reached the bad state.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The violated invariant.
    pub invariant: Invariant,
    /// Human-readable description of the bad state.
    pub detail: String,
    /// The serialized schedule prefix that led here.
    pub schedule: Vec<Request>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} violated after [", self.invariant)?;
        for r in &self.schedule {
            write!(f, "{r}")?;
        }
        write!(f, "]: {}", self.detail)
    }
}

/// Everything the invariant suite needs to judge one reached state.
#[derive(Debug, Clone, Copy)]
pub struct StateView<'a> {
    /// The link reached: the protocol configuration, the request in
    /// service or suspended, and the bill.
    pub link: &'a LinkState<Request>,
    /// The run counters the link billed into along the path.
    pub tally: &'a SimReport,
    /// The serialized request order so far (service order, §3).
    pub schedule: &'a [Request],
    /// The actions the protocol completed, in order.
    pub actions: &'a [Action],
    /// Volatile-crash points: for each, the number of completed actions at
    /// the moment the crash destroyed the MC's volatile state. The replay
    /// oracle applies
    /// [`on_replica_lost`](mdr_core::AllocationPolicy::on_replica_lost) at
    /// exactly these indices. Ascending.
    pub resets: &'a [usize],
    /// The cost models under which the ledger is priced and compared.
    pub models: &'a [CostModel],
}

/// Whether this in-flight message transfers replica ownership between the
/// two sides (the §4 handoff messages).
fn transfers_ownership(envelope: &Envelope) -> bool {
    matches!(
        envelope.message,
        WireMessage::DataResponse { allocate: true, .. } | WireMessage::DeleteRequest { .. }
    )
}

/// Whether this in-flight message carries the request window (§4's
/// piggyback), making the message itself the window's logical owner.
fn carries_window(envelope: &Envelope) -> bool {
    matches!(
        envelope.message,
        WireMessage::DataResponse {
            window: Some(_),
            ..
        } | WireMessage::DeleteRequest { window: Some(_) }
    )
}

/// Whether this in-flight message revokes the MC's replica from the SC side
/// (SW1's optimized write, T1m's phase-ending write): the SC has already
/// retaken the window, so the MC's charge no longer counts.
fn revokes_mc(envelope: &Envelope) -> bool {
    envelope.to == Endpoint::Mobile && matches!(envelope.message, WireMessage::DeleteRequest { .. })
}

/// Checks the full invariant suite against one reached state.
///
/// # Errors
///
/// Returns the first [`Violation`] found, with the serialized schedule
/// prefix attached as the counterexample trace.
pub fn check_state(view: &StateView<'_>) -> Result<(), Violation> {
    let (link, p) = (view.link, view.link.protocol());
    let violation = |invariant: Invariant, detail: String| Violation {
        invariant,
        detail,
        schedule: view.schedule.to_vec(),
    };

    // Serialization (§3) needs no check here: the wire is one slot, and a
    // send onto an occupied one panics, which the checker reports as a
    // `NoPanic` violation of the transition that tried it.

    // Billing: the link's own identity, which panics when it breaks.
    if let Err(detail) = guarded(|| link.check_billing(&mut InvariantMonitor::new(), view.tally)) {
        return Err(violation(Invariant::BillingIdentity, detail));
    }

    // Deadlock-freedom: an exchange, a suspended request or a handshake
    // must have a message to advance it (only an unrecovered loss or a
    // forgotten rollback can break this).
    if (p.serving().is_some() || link.suspended().is_some() || p.recovering()) && p.wire().is_none()
    {
        return Err(violation(
            Invariant::NoDeadlock,
            format!(
                "{} dangling with nothing in flight",
                if p.recovering() {
                    "reconnection handshake".to_owned()
                } else {
                    format!("exchange for {:?}", p.serving().or(link.suspended()))
                }
            ),
        ));
    }

    // Replica agreement: the sides disagree exactly while one ownership
    // transfer is in flight — or while a reconnection handshake is
    // retracting (or refreshing) the SC's commitment to a replica a
    // volatile crash destroyed.
    let transfers = usize::from(p.wire().is_some_and(transfers_ownership));
    let retracting = p.recovering() && p.sc().mc_has_copy() && !p.mc().has_copy();
    let agree = p.sc().mc_has_copy() == p.mc().has_copy();
    if agree != (transfers == 0 && !retracting) {
        return Err(violation(
            Invariant::ReplicaAgreement,
            format!(
                "SC commitment {} vs MC cache {} with {} transfer(s) in flight (recovering {})",
                p.sc().mc_has_copy(),
                p.mc().has_copy(),
                transfers,
                p.recovering()
            ),
        ));
    }

    // Single window owner (window policies only, §4). During a
    // reconnection handshake, a commitment awaiting retraction stands in
    // for the window charge the crash destroyed: the SC reconstructs the
    // §4 cold-start window the moment the announce arrives.
    if matches!(p.policy(), PolicySpec::SlidingWindow { .. }) {
        let revoked = p.wire().is_some_and(revokes_mc);
        let mc_owns = p.mc().in_charge() && !revoked;
        let in_flight_owners = usize::from(p.wire().is_some_and(carries_window));
        let recovery_owner = p.recovering() && p.sc().mc_has_copy() && !p.mc().in_charge();
        let owners = usize::from(p.sc().in_charge())
            + usize::from(mc_owns)
            + in_flight_owners
            + usize::from(recovery_owner);
        if owners != 1 {
            return Err(violation(
                Invariant::SingleWindowOwner,
                format!(
                    "{owners} logical window owners (SC {}, MC {}, revoked {}, in flight {}, \
                     recovery {})",
                    p.sc().in_charge(),
                    p.mc().in_charge(),
                    revoked,
                    in_flight_owners,
                    recovery_owner
                ),
            ));
        }
    }

    // Freshness: the replica never runs ahead of the primary; with an empty
    // wire it is exactly current.
    if let Some(v) = p.mc().cached_version() {
        if v > p.sc().version() {
            return Err(violation(
                Invariant::ReplicaFreshness,
                format!("replica version {v} ahead of primary {}", p.sc().version()),
            ));
        }
        if p.wire().is_none() && v != p.sc().version() {
            return Err(violation(
                Invariant::ReplicaFreshness,
                format!(
                    "replica version {v} stale behind primary {} at quiescence",
                    p.sc().version()
                ),
            ));
        }
    }

    // Ledger = replay (quiescent states only: mid-exchange the in-flight
    // request is in the schedule but not yet in the ledger, and
    // mid-handshake an aborted request may be suspended).
    if p.serving().is_none() && p.wire().is_none() && !p.recovering() {
        check_ledger(view).map_err(|(invariant, detail)| violation(invariant, detail))?;
    }

    Ok(())
}

/// The quiescent-state accounting checks: replay the serialized schedule
/// through the abstract policy — applying the volatile-crash hook at every
/// recorded reset point — and compare actions, allocation state and both
/// cost models' totals.
fn check_ledger(view: &StateView<'_>) -> Result<(), (Invariant, String)> {
    let p = view.link.protocol();
    if view.schedule.len() != view.actions.len() {
        return Err((
            Invariant::LedgerEqualsReplay,
            format!(
                "{} requests serialized but {} actions completed",
                view.schedule.len(),
                view.actions.len()
            ),
        ));
    }

    let mut oracle = p.policy().build();
    let mut replayed = ActionCounts::default();
    let mut resets = view.resets.iter().peekable();
    for (i, (&req, &action)) in view.schedule.iter().zip(view.actions).enumerate() {
        while resets.next_if(|&&at| at <= i).is_some() {
            oracle.on_replica_lost();
        }
        let expected = oracle.on_request(req);
        replayed.record(expected);
        if action != expected {
            return Err((
                Invariant::LedgerEqualsReplay,
                format!("request {i} ({req:?}): protocol did {action}, policy does {expected}"),
            ));
        }
    }
    // Crashes after the last completed action still reset the oracle.
    for _ in resets {
        oracle.on_replica_lost();
    }
    if oracle.has_copy() != p.mc().has_copy() {
        return Err((
            Invariant::LedgerEqualsReplay,
            format!(
                "allocation state diverged: policy {}, protocol {}",
                oracle.has_copy(),
                p.mc().has_copy()
            ),
        ));
    }
    let counts = p.counts();
    if counts != replayed {
        return Err((
            Invariant::LedgerEqualsReplay,
            format!("ledger {counts:?} differs from replay {replayed:?}"),
        ));
    }
    // Both cost models price the ledger exactly as they price the replay.
    for model in view.models {
        let ledger_cost = model.price_counts(&counts);
        let replay_cost = model.price_all(view.actions.iter().copied());
        if !approx_eq(ledger_cost, replay_cost) {
            return Err((
                Invariant::LedgerEqualsReplay,
                format!("{model}: ledger cost {ledger_cost} vs replay cost {replay_cost}"),
            ));
        }
    }
    Ok(())
}

/// Runs `f`, returning the message of any panic it raises: the shipped
/// code states its invariants as assertions, and the checker reports a
/// failed one as a violation instead of aborting the exploration.
pub(crate) fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|panic| {
        panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default()
    })
}
