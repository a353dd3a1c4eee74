//! The wireless link's exchange lifecycle as a sans-io state machine: the
//! §4 protocol, the request in service, the request an outage suspended,
//! the reconnection handshake a crash owes, the ARQ attempt count of the
//! envelope in the slot, and the per-class bill of every attempt.
//!
//! §3 prices each exchange by the messages it puts on the link and
//! assumes the link delivers them. The fault and ARQ extensions
//! (`docs/faults.md`) add traffic the ledger does not price: attempts of
//! exchanges an outage aborted, retransmissions, the reconnection
//! handshake and transport acknowledgements. [`LinkState`] owns that
//! traffic and the disconnect–abort–retry cycle that causes it, and
//! changes only through [`submit`](LinkState::submit),
//! [`receive`](LinkState::receive), [`timeout`](LinkState::timeout),
//! [`sever`](LinkState::sever) and [`restore`](LinkState::restore).
//!
//! Two drivers execute it: the discrete-event [`Simulation`] adds clocks,
//! latency, loss, jitter and ghost draws, timers and partition timing on
//! top; the bounded model checker in `mdr-verify` steps it over every
//! interleaving of arrivals, deliveries, timeouts, dozes and crashes, and
//! calls [`check_billing`](LinkState::check_billing) in every state it
//! reaches. Every operation counts the run totals into the caller's
//! [`SimReport`], as [`HandoffState`](crate::HandoffState) does.
//!
//! [`Simulation`]: crate::Simulation

use crate::faults::FaultKind;
use crate::protocol::{Envelope, ProtocolState, StepOutcome, Ticket};
use crate::sim::{InvariantMonitor, SimReport};
use crate::wire::MessageClass;
use crate::workload::Arrival;
use mdr_core::{Action, PolicySpec, Request};

/// What a driver hands the link as a request: the request itself, or a
/// handle of its own that names one (the simulator's [`Arrival`] carries
/// its arrival time along).
pub trait RequestHandle: Copy {
    /// The request this handle names.
    fn request(self) -> Request;
}

impl RequestHandle for Request {
    fn request(self) -> Request {
        self
    }
}

impl RequestHandle for Arrival {
    fn request(self) -> Request {
        self.request
    }
}

/// What the link asks its driver to do after a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkStep<H> {
    /// An envelope went on the wire: the driver carries its first attempt.
    Sent(Ticket),
    /// The request completed with `action`.
    Completed(H, Action),
    /// The reconnection handshake was acknowledged. The request the outage
    /// suspended, if any, is handed back for the driver to submit again:
    /// it keeps its place ahead of every queued request.
    Reconciled(Option<H>),
}

/// What the retransmission timer of the envelope in the slot did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timeout {
    /// The retry budget allowed one more attempt: the driver carries
    /// attempt `attempt` of `ticket`.
    Retransmit {
        /// The envelope's ticket, unchanged: the same envelope is re-sent.
        ticket: Ticket,
        /// Transmission attempts of the envelope so far (1 = the original).
        attempt: u32,
    },
    /// The budget was spent after `attempts` attempts: the link was severed
    /// as a declared partition, and [`LinkState::restore`] reconnects it.
    Escalated {
        /// Transmission attempts of the envelope the partition destroyed.
        attempts: u32,
    },
}

/// What [`LinkState::restore`] did once the link is back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Restored<H> {
    /// A crash owes the reconnection handshake: its announce went on the
    /// wire, and the driver carries its first attempt.
    Handshake(Ticket),
    /// No handshake is owed: the request the outage suspended, if any, is
    /// handed back for the driver to submit again.
    Resume(Option<H>),
}

/// Billed attempts, split by message class (§3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
struct PerClass {
    data: u64,
    control: u64,
}

impl PerClass {
    fn add(&mut self, class: MessageClass) {
        match class {
            MessageClass::Data => self.data += 1,
            MessageClass::Control => self.control += 1,
        }
    }

    fn of(self, class: MessageClass) -> u64 {
        match class {
            MessageClass::Data => self.data,
            MessageClass::Control => self.control,
        }
    }

    fn absorb(&mut self, other: PerClass) {
        self.data += other.data;
        self.control += other.control;
    }

    fn total(self) -> u64 {
        self.data + self.control
    }
}

/// Where every billed attempt went, per class: the ledger prices the
/// first attempts of completed exchanges, and this bill holds the rest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
struct Bill {
    /// Attempts of the exchange on the wire: settled when it completes,
    /// written off as aborted when an outage kills it.
    at_risk: PerClass,
    /// The retransmissions among `at_risk`.
    at_risk_retransmissions: PerClass,
    /// Retransmissions of exchanges that completed.
    settled_retransmissions: PerClass,
    /// Attempts of exchanges an outage aborted.
    aborted: PerClass,
    /// Attempts of the reconnection handshake, retransmissions included.
    handshake: PerClass,
    /// Transport acknowledgements (control class).
    acks: u64,
}

/// The wireless link between the MC and the SC as a sans-io transition
/// relation, generic over the driver's request handle `H`.
///
/// Equality and hashing cover the whole state, so a checker can
/// deduplicate it; the run totals live in the driver's [`SimReport`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LinkState<H> {
    protocol: ProtocolState,
    /// The ARQ transport's retry budget; `None` without ARQ, when nothing
    /// times out and no acknowledgement is sent.
    retry_budget: Option<u32>,
    /// The request whose exchange is on the wire.
    serving: Option<H>,
    /// The request whose exchange an outage aborted, waiting for the link.
    suspended: Option<H>,
    /// The reconnection handshake a crash owes, from the crash until it is
    /// acknowledged: `Some(true)` while a volatile crash's loss is still to
    /// be applied, `Some(false)` once it was or the crash kept its state.
    handshake: Option<bool>,
    /// Transmission attempts of the envelope in the slot; 0 while it is
    /// empty.
    attempts: u32,
    bill: Bill,
}

impl<H: RequestHandle> LinkState<H> {
    /// A connected link under `policy` with both nodes in their cold-start
    /// state. `retry_budget` is the ARQ transport's
    /// ([`ArqConfig::retry_budget`](crate::ArqConfig::retry_budget)), if
    /// one is installed.
    pub fn new(policy: PolicySpec, retry_budget: Option<u32>) -> Self {
        LinkState {
            protocol: ProtocolState::new(policy),
            retry_budget,
            serving: None,
            suspended: None,
            handshake: None,
            attempts: 0,
            bill: Bill::default(),
        }
    }

    /// The §4 protocol: both nodes, the wire and the action ledger.
    pub fn protocol(&self) -> &ProtocolState {
        &self.protocol
    }

    /// The request whose exchange is on the wire, if any.
    pub fn serving(&self) -> Option<H> {
        self.serving
    }

    /// The request an outage suspended, if any.
    pub fn suspended(&self) -> Option<H> {
        self.suspended
    }

    /// Whether a new request may be submitted: nothing is in service or
    /// suspended, and no reconnection handshake is in progress.
    pub fn accepts(&self) -> bool {
        self.serving.is_none() && self.suspended.is_none() && !self.protocol.recovering()
    }

    /// Whether nothing is on the wire and no request is suspended.
    pub fn idle(&self) -> bool {
        self.suspended.is_none() && self.protocol.wire().is_none()
    }

    /// Submits `handle`'s request, which [`accepts`](Self::accepts) must
    /// allow. A local read or a silent write completes inline; otherwise
    /// its first message goes on the wire.
    pub fn submit(&mut self, handle: H, tally: &mut SimReport) -> LinkStep<H> {
        match self.protocol.submit(handle.request()) {
            StepOutcome::Completed(action) => LinkStep::Completed(handle, action),
            StepOutcome::Sent(ticket) => {
                self.serving = Some(handle);
                LinkStep::Sent(self.send(ticket, tally))
            }
            StepOutcome::Reconciled => unreachable!("submit never reconciles"),
        }
    }

    /// Delivers the envelope `ticket` names, through the protocol's epoch
    /// and sequence guards ([`ProtocolState::receive`]). A discarded
    /// delivery — a ghost, a duplicate, or an envelope an outage destroyed
    /// — returns `None`. A completed exchange is acknowledged (under ARQ)
    /// and its at-risk attempts settle; an acknowledged handshake hands
    /// back the suspended request.
    pub fn receive(&mut self, ticket: Ticket, tally: &mut SimReport) -> Option<LinkStep<H>> {
        let Some(outcome) = self.protocol.receive(ticket) else {
            tally.discarded_deliveries += 1;
            return None;
        };
        self.attempts = 0;
        Some(match outcome {
            StepOutcome::Sent(response) => LinkStep::Sent(self.send(response, tally)),
            StepOutcome::Completed(action) => {
                let Some(handle) = self.serving.take() else {
                    unreachable!("completion without an exchange in flight")
                };
                // Nothing speaks next in this exchange: close it with an
                // explicit acknowledgement, and settle its attempts.
                self.acknowledge(tally);
                let bill = &mut self.bill;
                let retransmissions = std::mem::take(&mut bill.at_risk_retransmissions);
                bill.settled_retransmissions.absorb(retransmissions);
                bill.at_risk = PerClass::default();
                tally.settled_retransmissions += retransmissions.total();
                tally.connections += action.connections();
                LinkStep::Completed(handle, action)
            }
            StepOutcome::Reconciled => {
                self.acknowledge(tally);
                self.handshake = None;
                tally.reconciliations += 1;
                LinkStep::Reconciled(self.suspended.take())
            }
        })
    }

    /// The retransmission timer of the envelope in the slot fired. Within
    /// the retry budget (at most `retry_budget` retransmissions per
    /// envelope) the same envelope is re-sent and billed again, with the
    /// protocol state unchanged: loss inflates the bill, never the
    /// actions. Past it the timeout escalates to a declared partition,
    /// which [`sever`](Self::sever)s the link like a doze.
    ///
    /// # Panics
    ///
    /// Panics without the ARQ transport or with the slot empty.
    pub fn timeout(&mut self, tally: &mut SimReport) -> Timeout {
        let (Some(budget), Some(envelope)) = (self.retry_budget, self.protocol.wire()) else {
            unreachable!("the retransmission timer runs only under ARQ, with an envelope out")
        };
        let ticket = envelope.ticket();
        if self.attempts > budget {
            let attempts = self.attempts;
            tally.retry_escalations += 1;
            self.sever(FaultKind::Doze, tally);
            return Timeout::Escalated { attempts };
        }
        self.attempts += 1;
        tally.retransmissions += 1;
        // Connection model: every retransmission re-dials.
        tally.connections += 1;
        if !self.protocol.recovering() {
            self.bill.at_risk_retransmissions.add(ticket.class);
        }
        self.bill(ticket, tally);
        Timeout::Retransmit {
            ticket,
            attempt: self.attempts,
        }
    }

    /// The link goes down for an outage of `kind`, and with it everything
    /// on the wire. An exchange in flight is rolled back and suspended
    /// until [`restore`](Self::restore): its billed attempts are written
    /// off as aborted and its connection setup is wasted. A handshake in
    /// progress stays owed. A crash owes one; a second crash before the
    /// first is acknowledged keeps the stronger (volatile) classification.
    pub fn sever(&mut self, kind: FaultKind, tally: &mut SimReport) {
        let aborted = self.protocol.disconnect();
        self.attempts = 0;
        if let Some(handle) = self.serving.take() {
            debug_assert_eq!(aborted, Some(handle.request()));
            let bill = &mut self.bill;
            let at_risk = std::mem::take(&mut bill.at_risk);
            bill.at_risk_retransmissions = PerClass::default();
            bill.aborted.absorb(at_risk);
            tally.aborted_messages += at_risk.total();
            tally.connections += 1;
            self.suspended = Some(handle);
        }
        if matches!(kind, FaultKind::CrashVolatile | FaultKind::CrashStable) {
            let volatile = kind == FaultKind::CrashVolatile;
            self.handshake = Some(self.handshake.unwrap_or(false) || volatile);
        }
    }

    /// The link comes back under a new epoch, so deliveries sent before
    /// the outage self-discard. A handshake a crash owes begins (or
    /// restarts, after an outage cut it short); otherwise the suspended
    /// request is handed back.
    pub fn restore(&mut self, tally: &mut SimReport) -> Restored<H> {
        self.protocol.reconnect();
        let Some(volatile) = self.handshake else {
            return Restored::Resume(self.suspended.take());
        };
        // A restart finds the volatile loss applied already.
        self.handshake = Some(false);
        tally.connections += 1;
        let ticket = self.protocol.begin_reconciliation(volatile);
        Restored::Handshake(self.send(ticket, tally))
    }

    /// Gives up the suspended request, if any: degraded mode sheds it.
    pub fn shed_suspended(&mut self) -> Option<H> {
        self.suspended.take()
    }

    /// The billing identity, one check of `monitor`, per message class:
    /// the attempts `tally` billed equal the ledger's messages plus the
    /// settled retransmissions, the aborted attempts, the handshake's, the
    /// at-risk attempts of the exchange on the wire, and (control class)
    /// the acknowledgements. The tally's totals of those parts match this
    /// bill's. It holds in every state, mid-exchange included.
    ///
    /// # Panics
    ///
    /// Panics if an identity does not hold.
    pub fn check_billing(&self, monitor: &mut InvariantMonitor, tally: &SimReport) {
        monitor.checks += 1;
        let counts = self.protocol.counts();
        let b = &self.bill;
        for class in [MessageClass::Data, MessageClass::Control] {
            let (billed, ledger, acks) = match class {
                MessageClass::Data => (tally.data_messages, counts.data_messages(), 0),
                MessageClass::Control => {
                    (tally.control_messages, counts.control_messages(), b.acks)
                }
            };
            let (settled, aborted, handshake, at_risk) = (
                b.settled_retransmissions.of(class),
                b.aborted.of(class),
                b.handshake.of(class),
                b.at_risk.of(class),
            );
            assert_eq!(
                billed,
                ledger + settled + aborted + handshake + at_risk + acks,
                "{class:?} billing identity broken: {billed} billed vs {ledger} ledger + \
                 {settled} settled retransmissions + {aborted} aborted + {handshake} handshake \
                 + {at_risk} at risk + {acks} acks"
            );
        }
        assert_eq!(
            (
                tally.settled_retransmissions,
                tally.aborted_messages,
                tally.reconciliation_messages,
                tally.arq_acks
            ),
            (
                b.settled_retransmissions.total(),
                b.aborted.total(),
                b.handshake.total(),
                b.acks
            ),
            "the tally's (settled, aborted, handshake, ack) totals differ from the link's bill"
        );
    }

    /// Mutates the in-flight envelope — **verification support**, as
    /// [`ProtocolState::tamper_in_flight`].
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    pub fn tamper_in_flight(&mut self, tamper: impl FnOnce(&mut Envelope)) {
        self.protocol.tamper_in_flight(tamper);
    }

    /// Discards the in-flight envelope without delivering it —
    /// **verification support**, as [`ProtocolState::drop_in_flight`].
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    pub fn drop_in_flight(&mut self) -> Envelope {
        self.attempts = 0;
        self.protocol.drop_in_flight()
    }

    /// The first attempt of an envelope the protocol just sent.
    fn send(&mut self, ticket: Ticket, tally: &mut SimReport) -> Ticket {
        self.attempts = 1;
        self.bill(ticket, tally);
        ticket
    }

    /// Bills one attempt of `ticket` to its class, and to the handshake
    /// or to the exchange on the wire.
    fn bill(&mut self, ticket: Ticket, tally: &mut SimReport) {
        match ticket.class {
            MessageClass::Data => tally.data_messages += 1,
            MessageClass::Control => tally.control_messages += 1,
        }
        if self.protocol.recovering() {
            self.bill.handshake.add(ticket.class);
            tally.reconciliation_messages += 1;
        } else {
            self.bill.at_risk.add(ticket.class);
        }
    }

    /// Bills the transport acknowledgement that closes an exchange or a
    /// handshake under ARQ: control class, never retransmitted, never
    /// acknowledged itself.
    fn acknowledge(&mut self, tally: &mut SimReport) {
        if self.retry_budget.is_none() {
            return;
        }
        self.bill.acks += 1;
        tally.control_messages += 1;
        tally.arq_acks += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks the billing identity, which panics if it breaks.
    fn billed(link: &LinkState<Request>, tally: &SimReport) {
        link.check_billing(&mut InvariantMonitor::new(), tally);
    }

    #[test]
    fn an_exhausted_budget_escalates_and_hands_the_request_back() {
        let mut tally = SimReport::default();
        let mut link = LinkState::new(PolicySpec::St1, Some(1));
        let LinkStep::Sent(first) = link.submit(Request::Read, &mut tally) else {
            panic!("an ST1 read needs the wire")
        };
        assert!(!link.accepts());
        let retransmit = link.timeout(&mut tally);
        assert_eq!(
            retransmit,
            Timeout::Retransmit {
                ticket: first,
                attempt: 2
            }
        );
        billed(&link, &tally);
        assert_eq!(link.timeout(&mut tally), Timeout::Escalated { attempts: 2 });
        billed(&link, &tally);
        assert_eq!(link.suspended(), Some(Request::Read));
        assert_eq!(
            (
                tally.aborted_messages,
                tally.retransmissions,
                tally.retry_escalations
            ),
            (2, 1, 1)
        );
        // The destroyed envelope's late delivery self-discards.
        assert_eq!(
            link.restore(&mut tally),
            Restored::Resume(Some(Request::Read))
        );
        assert_eq!(link.receive(first, &mut tally), None);
        assert_eq!(tally.discarded_deliveries, 1);
        assert!(link.accepts() && link.idle());
        billed(&link, &tally);
    }

    #[test]
    fn a_crash_owes_a_handshake_until_it_is_acknowledged() {
        let mut tally = SimReport::default();
        let mut link = LinkState::new(PolicySpec::St1, Some(2));
        let _ = link.submit(Request::Read, &mut tally);
        link.sever(FaultKind::CrashStable, &mut tally);
        // A second outage before the link is back keeps the handshake owed.
        link.sever(FaultKind::Doze, &mut tally);
        let Restored::Handshake(announce) = link.restore(&mut tally) else {
            panic!("a crash owes the handshake")
        };
        assert!(!link.accepts());
        billed(&link, &tally);
        let Some(LinkStep::Sent(ack)) = link.receive(announce, &mut tally) else {
            panic!("the SC acknowledges the announce")
        };
        assert_eq!(
            link.receive(ack, &mut tally),
            Some(LinkStep::Reconciled(Some(Request::Read)))
        );
        billed(&link, &tally);
        assert_eq!(
            (
                tally.reconciliation_messages,
                tally.reconciliations,
                tally.arq_acks
            ),
            (2, 1, 1)
        );
        // The resumed read completes and settles: one ack per closed
        // exchange or handshake under ARQ.
        let LinkStep::Sent(request) = link.submit(Request::Read, &mut tally) else {
            panic!("the resumed read needs the wire")
        };
        let Some(LinkStep::Sent(response)) = link.receive(request, &mut tally) else {
            panic!("the SC answers")
        };
        assert!(matches!(
            link.receive(response, &mut tally),
            Some(LinkStep::Completed(
                Request::Read,
                Action::RemoteRead { .. }
            ))
        ));
        billed(&link, &tally);
        assert_eq!((tally.arq_acks, tally.aborted_messages), (2, 1));
    }

    #[test]
    #[should_panic(expected = "Data billing identity broken")]
    fn a_mis_billed_attempt_breaks_the_identity() {
        let mut tally = SimReport::default();
        let mut link = LinkState::new(PolicySpec::St1, None);
        let _ = link.submit(Request::Read, &mut tally);
        // The read-request is control class: billing it as data keeps the
        // total but not the split.
        tally.control_messages -= 1;
        tally.data_messages += 1;
        billed(&link, &tally);
    }
}
