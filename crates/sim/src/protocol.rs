//! The §4 protocol as an explicit transition relation, separated from the
//! discrete-event loop.
//!
//! [`ProtocolState`] bundles the two node state machines with the messages
//! currently on the wire, the request being served, and the action ledger.
//! Two drivers execute it:
//!
//! * the discrete-event loop in [`crate::sim`] steps it in timestamp order,
//!   adding clocks, latency, queueing and per-transmission billing on top;
//! * the bounded model checker in `mdr-verify` steps it over *every*
//!   interleaving of request arrivals and message deliveries, checking the
//!   protocol invariants (single window owner, replica agreement, ledger
//!   equality with the reference policy) in each reached state.
//!
//! Both reach it through [`LinkState`](crate::LinkState), which adds the
//! link's exchange lifecycle: the request in service and the one an outage
//! suspended, the reconnection handshake, ARQ attempts and the bill.
//! Keeping the transition relation free of clocks and billing is what makes
//! the two drivers provably execute the same protocol: a transition is
//! [`submit`](ProtocolState::submit) (a request begins service) or
//! [`deliver`](ProtocolState::deliver) (an in-flight message arrives), and
//! nothing else changes protocol state.
//!
//! Because the paper serializes relevant requests (§3), at most one exchange
//! is in progress at a time and at most one envelope is in flight, so the
//! wire is one slot: a send onto an occupied slot is a protocol violation
//! and panics. The checker also explores fault injections on the envelope
//! in the slot ([`tamper_in_flight`](ProtocolState::tamper_in_flight),
//! [`drop_in_flight`](ProtocolState::drop_in_flight)).

use crate::nodes::{MobileNode, StationaryNode};
use crate::wire::{Endpoint, MessageClass, WireMessage};
use mdr_core::{Action, ActionCounts, PolicySpec, Request};

/// A message in flight together with its destination endpoint.
///
/// Every envelope is stamped with the link **epoch** it was sent under and
/// a monotone **sequence number** (fault-model extension, `docs/faults.md`):
/// [`ProtocolState::receive`] discards deliveries from a previous epoch and
/// duplicate or stale-reordered deliveries, which is what keeps the
/// protocol correct when the network duplicates or delays envelopes — and
/// what makes the ARQ transport's retransmissions idempotent (a retransmit
/// whose original already arrived is discarded unbilled by the watermark).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Envelope {
    /// The endpoint the message is addressed to.
    pub to: Endpoint,
    /// The message payload.
    pub message: WireMessage,
    /// The link epoch the envelope was sent under.
    pub epoch: u64,
    /// Monotone per-state sequence number (dup/reorder detection).
    pub seq: u64,
}

impl Envelope {
    /// The ticket that redeems this envelope.
    pub fn ticket(&self) -> Ticket {
        Ticket {
            to: self.to,
            class: self.message.class(),
            epoch: self.epoch,
            seq: self.seq,
        }
    }
}

/// A `Copy` handle on an envelope the protocol keeps on its wire: the
/// destination, the message class a caller bills, and the epoch and
/// sequence number [`ProtocolState::receive`] redeems it by.
///
/// Callers carry tickets through their queues instead of envelopes, so a
/// send or a delivery never copies the payload (its piggybacked window
/// included). A ticket names exactly one envelope: sequence numbers are
/// unique per state, and a disconnection clears the wire before the
/// reconnection bumps the epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket {
    /// The endpoint the envelope is addressed to.
    pub to: Endpoint,
    /// The billing class of the envelope's message.
    pub class: MessageClass,
    /// The link epoch the envelope was sent under.
    pub epoch: u64,
    /// The envelope's sequence number.
    pub seq: u64,
}

/// The observable effect of one protocol transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The request being served completed; the action is the ledger entry
    /// just recorded in [`ProtocolState::counts`].
    Completed(Action),
    /// A message was placed on the wire: the envelope stays in
    /// [`ProtocolState::wire`]'s one slot and the caller gets its
    /// [`Ticket`] to hand back to [`ProtocolState::receive`]. The exchange
    /// continues.
    Sent(Ticket),
    /// The reconnection handshake completed: replica and window ownership
    /// were re-validated on both sides. No ledger entry is recorded — the
    /// handshake serves no request.
    Reconciled,
}

/// A snapshot of both node state machines, taken when a request begins
/// service so a faulted exchange can be rolled back and retried.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Checkpoint {
    sc: StationaryNode,
    mc: MobileNode,
}

/// The complete protocol configuration: both endpoints, the one-slot
/// wire, the request in service, and the action ledger.
///
/// Equality and hashing cover the full configuration, which is what lets
/// the model checker deduplicate states across interleavings.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProtocolState {
    policy: PolicySpec,
    sc: StationaryNode,
    mc: MobileNode,
    /// The envelope in flight: §3 serializes requests, so there is at
    /// most one.
    wire: Option<Envelope>,
    serving: Option<Request>,
    counts: ActionCounts,
    /// Current link epoch; bumped by [`reconnect`](Self::reconnect).
    epoch: u64,
    /// Next envelope sequence number.
    next_seq: u64,
    /// Highest sequence number delivered to the MC / the SC.
    delivered_mc: u64,
    delivered_sc: u64,
    /// Rollback snapshot for the exchange in progress.
    checkpoint: Option<Checkpoint>,
    /// Whether a reconnection handshake is in progress.
    recovering: bool,
}

impl ProtocolState {
    /// The initial protocol configuration for `policy`: both nodes in their
    /// cold-start state, nothing on the wire, an empty ledger.
    pub fn new(policy: PolicySpec) -> Self {
        ProtocolState {
            policy,
            sc: StationaryNode::new(policy),
            mc: MobileNode::new(policy),
            wire: None,
            serving: None,
            counts: ActionCounts::default(),
            epoch: 0,
            next_seq: 1,
            delivered_mc: 0,
            delivered_sc: 0,
            checkpoint: None,
            recovering: false,
        }
    }

    /// The policy both nodes run.
    pub fn policy(&self) -> PolicySpec {
        self.policy
    }

    /// Whether no exchange is in progress (a new request may be submitted).
    pub fn idle(&self) -> bool {
        self.serving.is_none()
    }

    /// The request currently being served remotely, if any.
    pub fn serving(&self) -> Option<Request> {
        self.serving
    }

    /// The envelope in flight, if any.
    pub fn wire(&self) -> Option<&Envelope> {
        self.wire.as_ref()
    }

    /// The stationary node's state.
    pub fn sc(&self) -> &StationaryNode {
        &self.sc
    }

    /// The mobile node's state.
    pub fn mc(&self) -> &MobileNode {
        &self.mc
    }

    /// The action ledger accumulated so far.
    pub fn counts(&self) -> ActionCounts {
        self.counts
    }

    /// The current link epoch (bumped at every
    /// [`reconnect`](Self::reconnect)).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether a reconnection handshake is in progress.
    pub fn recovering(&self) -> bool {
        self.recovering
    }

    fn complete(&mut self, action: Action) -> StepOutcome {
        self.counts.record(action);
        self.serving = None;
        self.checkpoint = None;
        StepOutcome::Completed(action)
    }

    /// Puts `message` in the wire's slot, which must be empty: a second
    /// message in flight would break §3's serialization.
    fn send(&mut self, to: Endpoint, message: WireMessage) -> Ticket {
        assert!(
            self.wire.is_none(),
            "{} sent while another message is in flight (requests are serialized)",
            message.kind()
        );
        let envelope = Envelope {
            to,
            message,
            epoch: self.epoch,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.wire.insert(envelope).ticket()
    }

    /// Begins serving one relevant request. Local operations (a read hitting
    /// the replica, a silent write) complete inline; remote ones put a
    /// message on the wire and leave the state mid-exchange until
    /// [`deliver`](Self::deliver) completes it.
    ///
    /// # Panics
    ///
    /// Panics if an exchange is already in progress (requests are
    /// serialized, §3), or if a local read observes a stale replica.
    pub fn submit(&mut self, request: Request) -> StepOutcome {
        assert!(
            self.serving.is_none(),
            "request submitted while an exchange is in flight (requests are serialized)"
        );
        assert!(
            !self.recovering,
            "request submitted while the reconnection handshake is in progress"
        );
        // Snapshot both nodes so a faulted exchange can be rolled back to
        // its submission state and retried (`abort_exchange`). Only
        // exchanges that put a message on the wire can be aborted, so the
        // snapshot is taken lazily on exactly those paths — an inline
        // completion (local read, silent write) never pays for the two
        // node clones it would immediately drop. A read goes remote iff
        // the MC lacks a copy; a write propagates iff the MC holds one —
        // both conditions are known *before* the nodes mutate, so the
        // snapshot still captures the pristine submission state.
        match request {
            Request::Read => {
                if self.mc.has_copy() {
                    let version = self.mc.handle_local_read();
                    assert_eq!(
                        version,
                        self.sc.version(),
                        "stale local read: replica version {version} behind primary {}",
                        self.sc.version()
                    );
                    self.complete(Action::LocalRead)
                } else {
                    self.checkpoint = Some(Checkpoint {
                        sc: self.sc.clone(),
                        mc: self.mc.clone(),
                    });
                    self.serving = Some(Request::Read);
                    StepOutcome::Sent(self.send(Endpoint::Stationary, WireMessage::read_request()))
                }
            }
            Request::Write => {
                if self.sc.mc_has_copy() {
                    self.checkpoint = Some(Checkpoint {
                        sc: self.sc.clone(),
                        mc: self.mc.clone(),
                    });
                }
                match self.sc.handle_local_write() {
                    None => self.complete(Action::SilentWrite),
                    Some(message) => {
                        self.serving = Some(Request::Write);
                        StepOutcome::Sent(self.send(Endpoint::Mobile, message))
                    }
                }
            }
        }
    }

    /// Delivers the in-flight envelope, advancing the exchange: either a
    /// response goes back on the wire or the request completes. `index`
    /// names the envelope in [`wire`](Self::wire) and must be 0.
    ///
    /// # Panics
    ///
    /// Panics if no exchange is in flight, if the slot is empty or `index`
    /// is not 0, or if the delivered message is impossible at its
    /// destination (protocol corruption).
    pub fn deliver(&mut self, index: usize) -> StepOutcome {
        assert!(
            self.serving.is_some() || self.recovering,
            "delivery without an exchange or handshake in flight"
        );
        let Envelope {
            to, message, seq, ..
        } = self.take_in_flight(index);
        match to {
            Endpoint::Mobile => self.delivered_mc = self.delivered_mc.max(seq),
            Endpoint::Stationary => self.delivered_sc = self.delivered_sc.max(seq),
        }
        match (to, message) {
            (Endpoint::Stationary, WireMessage::ReadRequest) => {
                let response = self.sc.handle_read_request();
                StepOutcome::Sent(self.send(Endpoint::Mobile, response))
            }
            (
                Endpoint::Mobile,
                WireMessage::DataResponse {
                    version,
                    allocate,
                    window,
                },
            ) => {
                let got = self.mc.handle_data_response(version, allocate, window);
                assert_eq!(
                    got,
                    self.sc.version(),
                    "remote read returned a stale version"
                );
                self.complete(Action::RemoteRead {
                    allocates: allocate,
                })
            }
            (Endpoint::Mobile, WireMessage::WritePropagation { version }) => {
                match self.mc.handle_write_propagation(version) {
                    Some(delete) => StepOutcome::Sent(self.send(Endpoint::Stationary, delete)),
                    None => self.complete(Action::PropagatedWrite { deallocates: false }),
                }
            }
            (Endpoint::Stationary, WireMessage::DeleteRequest { window }) => {
                self.sc.handle_delete_request(window);
                self.complete(Action::PropagatedWrite { deallocates: true })
            }
            (Endpoint::Mobile, WireMessage::DeleteRequest { .. }) => {
                self.mc.handle_delete_request();
                self.complete(Action::DeleteRequestWrite)
            }
            (Endpoint::Stationary, WireMessage::Reconnect { cached_version, .. }) => {
                let refresh = self.sc.handle_reconnect(cached_version);
                let ack = WireMessage::reconnect_ack(self.epoch, refresh);
                StepOutcome::Sent(self.send(Endpoint::Mobile, ack))
            }
            (Endpoint::Mobile, WireMessage::ReconnectAck { refresh, .. }) => {
                self.mc.handle_reconnect_ack(refresh);
                self.recovering = false;
                StepOutcome::Reconciled
            }
            (to, message) => unreachable!("{} delivered to {to:?}", message.kind()),
        }
    }

    /// Delivers the envelope `ticket` names if it is still current,
    /// applying the epoch and sequence guards of the reconnection protocol:
    /// a delivery from a previous link epoch, a duplicate, a reordered
    /// stale copy, or a ticket whose envelope is no longer on the wire
    /// returns `None` and leaves the state untouched (fault-model
    /// extension, `docs/faults.md`). This is the entry point the
    /// discrete-event simulator uses, since faults can leave ghost
    /// deliveries in its event queue.
    ///
    /// Past the guards the envelope is matched by sequence number alone:
    /// sequence numbers are unique per state and an envelope's epoch is
    /// stamped at the same send as its ticket's, so an envelope in the slot
    /// with the ticket's sequence number is the one the ticket names.
    pub fn receive(&mut self, ticket: Ticket) -> Option<StepOutcome> {
        if ticket.epoch != self.epoch {
            return None;
        }
        let watermark = match ticket.to {
            Endpoint::Mobile => self.delivered_mc,
            Endpoint::Stationary => self.delivered_sc,
        };
        if ticket.seq <= watermark {
            return None; // duplicate, or reordered behind a newer delivery
        }
        if self.wire.as_ref()?.seq != ticket.seq {
            return None;
        }
        Some(self.deliver(0))
    }

    /// Aborts the exchange in progress — the timeout path for an envelope
    /// that will never arrive (an unrecovered loss or a link failure): both
    /// nodes roll back to the checkpoint taken at submission, the wire is
    /// cleared, and the request is returned so the driver can retry it.
    /// Returns `None` when no exchange is in progress.
    ///
    /// No ledger entry is recorded: the aborted attempt performed no
    /// action, and the retry will bill its own messages.
    pub fn abort_exchange(&mut self) -> Option<Request> {
        let request = self.serving.take()?;
        if let Some(Checkpoint { sc, mc }) = self.checkpoint.take() {
            self.sc = sc;
            self.mc = mc;
        }
        self.wire = None;
        Some(request)
    }

    /// Severs the link (fault-model extension): every in-flight envelope is
    /// destroyed and a mid-exchange request is rolled back via
    /// [`abort_exchange`](Self::abort_exchange) and returned for retry. A
    /// handshake in progress stays pending (`recovering` remains set) and
    /// must be restarted after the next [`reconnect`](Self::reconnect).
    pub fn disconnect(&mut self) -> Option<Request> {
        let aborted = self.abort_exchange();
        self.wire = None;
        aborted
    }

    /// Re-establishes the link under a new epoch: deliveries stamped with
    /// an older epoch are discarded by [`receive`](Self::receive) from now
    /// on.
    pub fn reconnect(&mut self) {
        self.epoch += 1;
    }

    /// Starts the reconnection handshake after an MC crash: the MC (having
    /// lost its volatile state if `volatile`) announces the replica state
    /// that survived, and the SC will re-validate it against its own
    /// commitment. Returns the announce's ticket, which carries the current
    /// epoch.
    ///
    /// # Panics
    ///
    /// Panics if an exchange is in progress (the driver must abort or
    /// suspend it first), or if the announce finds the slot occupied.
    pub fn begin_reconciliation(&mut self, volatile: bool) -> Ticket {
        assert!(
            self.serving.is_none(),
            "reconciliation started mid-exchange"
        );
        self.recovering = true;
        if volatile {
            self.mc.lose_volatile_state();
        }
        let epoch = self.epoch;
        let cached = self.mc.cached_version();
        self.send(Endpoint::Stationary, WireMessage::reconnect(epoch, cached))
    }

    /// Mutates the in-flight envelope — **verification support**: the
    /// model checker in `mdr-verify` uses this to seed deliberate protocol
    /// mutations (e.g. stripping the §4 window hand-off from an allocating
    /// response) and prove that the invariant suite catches them.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    pub fn tamper_in_flight(&mut self, tamper: impl FnOnce(&mut Envelope)) {
        match &mut self.wire {
            Some(envelope) => tamper(envelope),
            None => panic!("no envelope in flight"),
        }
    }

    /// Discards the in-flight envelope without delivering it —
    /// verification support for modelling an *unrecovered* message loss
    /// (the simulator's ARQ transport normally repairs loss by timed
    /// retransmission, see `docs/faults.md`). The exchange is left
    /// dangling, which the checker's deadlock invariant must detect.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    pub fn drop_in_flight(&mut self) -> Envelope {
        self.take_in_flight(0)
    }

    /// Empties the wire's slot, which `index` must name.
    fn take_in_flight(&mut self, index: usize) -> Envelope {
        match (index, self.wire.take()) {
            (0, Some(envelope)) => envelope,
            _ => panic!("no envelope in flight at index {index}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive_to_completion(state: &mut ProtocolState, request: Request) -> Action {
        let mut outcome = state.submit(request);
        loop {
            match outcome {
                StepOutcome::Completed(action) => return action,
                StepOutcome::Sent(_) => outcome = state.deliver(0),
                StepOutcome::Reconciled => unreachable!("no handshake in progress"),
            }
        }
    }

    #[test]
    fn transition_relation_matches_the_reference_policy() {
        use mdr_core::Schedule;
        let schedule: Schedule = "rrrwwwrrwwrw".parse().unwrap();
        for spec in PolicySpec::roster(&[1, 3, 5], &[1, 2]) {
            let mut state = ProtocolState::new(spec);
            let mut oracle = spec.build();
            for req in &schedule {
                let action = drive_to_completion(&mut state, req);
                assert_eq!(action, oracle.on_request(req), "{spec}");
                assert_eq!(state.mc().has_copy(), oracle.has_copy(), "{spec}");
                assert!(state.idle());
                assert!(state.wire().is_none());
            }
        }
    }

    #[test]
    fn ledger_accumulates_completed_actions() {
        let mut state = ProtocolState::new(PolicySpec::St1);
        drive_to_completion(&mut state, Request::Read);
        drive_to_completion(&mut state, Request::Write);
        assert_eq!(state.counts().remote_reads, 1);
        assert_eq!(state.counts().silent_writes, 1);
        assert_eq!(state.counts().total(), 2);
    }

    #[test]
    fn remote_read_is_a_two_delivery_exchange() {
        let mut state = ProtocolState::new(PolicySpec::St1);
        let outcome = state.submit(Request::Read);
        assert!(matches!(outcome, StepOutcome::Sent(t) if t.to == Endpoint::Stationary));
        assert_eq!(state.serving(), Some(Request::Read));
        let outcome = state.deliver(0);
        assert!(matches!(outcome, StepOutcome::Sent(t) if t.to == Endpoint::Mobile));
        let outcome = state.deliver(0);
        assert!(matches!(
            outcome,
            StepOutcome::Completed(Action::RemoteRead { allocates: false })
        ));
        assert!(state.idle());
    }

    #[test]
    #[should_panic(expected = "serialized")]
    fn concurrent_submission_is_rejected() {
        let mut state = ProtocolState::new(PolicySpec::St1);
        let _ = state.submit(Request::Read);
        let _ = state.submit(Request::Read);
    }

    #[test]
    #[should_panic(expected = "another message is in flight")]
    fn a_send_onto_the_occupied_slot_is_rejected() {
        // Two handshakes with no delivery between them: the second announce
        // would be a second message in flight.
        let mut state = ProtocolState::new(PolicySpec::St1);
        let _ = state.begin_reconciliation(false);
        let _ = state.begin_reconciliation(false);
    }

    #[test]
    #[should_panic(expected = "without an exchange")]
    fn delivery_without_an_exchange_is_rejected() {
        let mut state = ProtocolState::new(PolicySpec::St2);
        let _ = state.deliver(0);
    }

    #[test]
    fn dropping_an_envelope_leaves_the_exchange_dangling() {
        let mut state = ProtocolState::new(PolicySpec::St1);
        let _ = state.submit(Request::Read);
        let dropped = state.drop_in_flight();
        assert_eq!(dropped.message, WireMessage::read_request());
        assert!(!state.idle());
        assert!(state.wire().is_none());
    }

    #[test]
    fn a_dangling_exchange_can_be_aborted_and_retried() {
        // St2 write propagation: submission already bumped the primary
        // version, so the abort must roll the SC back before the retry.
        let mut state = ProtocolState::new(PolicySpec::St2);
        let _ = state.submit(Request::Write);
        assert_eq!(state.sc().version(), 1);
        let _ = state.drop_in_flight();
        assert!(!state.idle(), "exchange dangles after the drop");
        assert_eq!(state.abort_exchange(), Some(Request::Write));
        assert!(state.idle());
        assert_eq!(state.sc().version(), 0, "rolled back to submission state");
        assert_eq!(
            drive_to_completion(&mut state, Request::Write),
            Action::PropagatedWrite { deallocates: false }
        );
        assert_eq!(state.mc().cached_version(), Some(1));
        assert_eq!(
            state.counts().total(),
            1,
            "the aborted attempt left no ledger entry"
        );
    }

    #[test]
    fn abort_without_an_exchange_is_a_no_op() {
        let mut state = ProtocolState::new(PolicySpec::St1);
        assert_eq!(state.abort_exchange(), None);
        assert_eq!(state, ProtocolState::new(PolicySpec::St1));
    }

    #[test]
    fn duplicate_and_stale_deliveries_are_discarded() {
        let mut state = ProtocolState::new(PolicySpec::St1);
        let StepOutcome::Sent(request) = state.submit(Request::Read) else {
            panic!("remote read must go on the wire")
        };
        let Some(StepOutcome::Sent(response)) = state.receive(request) else {
            panic!("the SC must answer")
        };
        // A duplicate of the consumed request is discarded by the watermark.
        assert_eq!(state.receive(request), None);
        assert!(matches!(
            state.receive(response),
            Some(StepOutcome::Completed(_))
        ));
        // Late duplicates after completion are discarded too.
        assert_eq!(state.receive(response), None);
        assert_eq!(state.receive(request), None);
        assert_eq!(state.counts().total(), 1);
    }

    #[test]
    fn deliveries_from_an_old_epoch_are_discarded() {
        let mut state = ProtocolState::new(PolicySpec::St1);
        let StepOutcome::Sent(request) = state.submit(Request::Read) else {
            panic!("remote read must go on the wire")
        };
        assert_eq!(state.disconnect(), Some(Request::Read));
        state.reconnect();
        // The pre-disconnection envelope arrives after the epoch bump.
        assert_eq!(state.receive(request), None);
        assert!(state.idle() && state.wire().is_none());
    }

    #[test]
    fn volatile_crash_reconciliation_hands_the_window_back() {
        let mut state = ProtocolState::new(PolicySpec::SlidingWindow { k: 3 });
        drive_to_completion(&mut state, Request::Read);
        drive_to_completion(&mut state, Request::Read); // allocates
        assert!(state.mc().has_copy() && state.mc().in_charge());

        assert_eq!(state.disconnect(), None);
        state.reconnect();
        let reconnect = state.begin_reconciliation(true);
        assert!(state.recovering());
        assert!(!state.mc().has_copy(), "volatile state lost");
        let Some(StepOutcome::Sent(ack)) = state.receive(reconnect) else {
            panic!("the SC must acknowledge")
        };
        assert!(!state.sc().mc_has_copy(), "commitment retracted");
        assert!(state.sc().in_charge(), "window handed back to the SC");
        assert_eq!(state.receive(ack), Some(StepOutcome::Reconciled));
        assert!(!state.recovering());
        // The protocol now behaves exactly like a cold-started SW3 whose
        // abstract policy was told about the loss.
        let mut oracle = PolicySpec::SlidingWindow { k: 3 }.build();
        oracle.on_request(Request::Read);
        oracle.on_request(Request::Read);
        oracle.on_replica_lost();
        assert_eq!(
            drive_to_completion(&mut state, Request::Read),
            oracle.on_request(Request::Read)
        );
        assert_eq!(state.mc().has_copy(), oracle.has_copy());
    }

    #[test]
    fn st2_reconciliation_refreshes_the_replica() {
        let mut state = ProtocolState::new(PolicySpec::St2);
        drive_to_completion(&mut state, Request::Write);
        assert_eq!(state.mc().cached_version(), Some(1));
        state.disconnect();
        state.reconnect();
        let reconnect = state.begin_reconciliation(true);
        let Some(StepOutcome::Sent(ack)) = state.receive(reconnect) else {
            panic!("the SC must acknowledge")
        };
        assert!(
            matches!(
                state.wire().map(|e| &e.message),
                Some(WireMessage::ReconnectAck {
                    refresh: Some(1),
                    ..
                })
            ),
            "ST2 recovery re-ships the item: {:?}",
            state.wire()
        );
        assert_eq!(state.receive(ack), Some(StepOutcome::Reconciled));
        assert_eq!(state.mc().cached_version(), Some(1));
        assert!(state.sc().mc_has_copy());
    }

    #[test]
    fn stable_crash_reconciliation_preserves_ownership() {
        let mut state = ProtocolState::new(PolicySpec::SlidingWindow { k: 3 });
        drive_to_completion(&mut state, Request::Read);
        drive_to_completion(&mut state, Request::Read);
        let before_mc = state.mc().clone();
        state.disconnect();
        state.reconnect();
        let reconnect = state.begin_reconciliation(false);
        let Some(StepOutcome::Sent(ack)) = state.receive(reconnect) else {
            panic!("the SC must acknowledge")
        };
        assert_eq!(state.receive(ack), Some(StepOutcome::Reconciled));
        assert_eq!(*state.mc(), before_mc, "stable replica survives intact");
        assert!(state.mc().in_charge());
    }

    #[test]
    fn equal_histories_produce_equal_states() {
        let a = {
            let mut s = ProtocolState::new(PolicySpec::SlidingWindow { k: 3 });
            drive_to_completion(&mut s, Request::Read);
            drive_to_completion(&mut s, Request::Read);
            s
        };
        let b = {
            let mut s = ProtocolState::new(PolicySpec::SlidingWindow { k: 3 });
            drive_to_completion(&mut s, Request::Read);
            drive_to_completion(&mut s, Request::Read);
            s
        };
        assert_eq!(a, b);
    }

    #[test]
    fn reconnect_bumps_the_epoch_every_time() {
        // The epoch is the fence that kills pre-outage ghost deliveries;
        // a reconnect that re-used the old epoch would let them through.
        let mut state = ProtocolState::new(PolicySpec::St1);
        let before = state.epoch();
        state.reconnect();
        assert_eq!(state.epoch(), before + 1);
        state.reconnect();
        assert_eq!(state.epoch(), before + 2);
    }
}
