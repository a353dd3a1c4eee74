//! The bounded model checker: exhaustive DFS over every interleaving of
//! request arrivals, message deliveries, ARQ retransmission timeouts and —
//! in faulty mode — disconnections, MC crashes and reconnection handshakes,
//! with state-hash deduplication.
//!
//! The state space is the product of the [`ProtocolState`] transition
//! relation (both nodes, the wire, the ledger) with the arrival queue and
//! the billing counters. Transitions:
//!
//! * **arrival at the MC** — a read arrives: begins service immediately if
//!   the protocol is idle, otherwise queues FIFO (§3 serialization);
//! * **arrival at the SC** — a write arrives, likewise;
//! * **message delivery** — the in-flight envelope reaches its endpoint;
//! * **retransmission timeout** (ARQ mode) — the attempt in flight was
//!   lost and the sender's retry timer fires: while the per-exchange retry
//!   budget lasts, the attempt is retransmitted and billed again with the
//!   protocol state unchanged, which is exactly the §3 claim that loss
//!   inflates the bill without changing the actions; once the budget is
//!   exhausted the timeout *escalates* to a declared partition — the
//!   exchange rolls back exactly as under a doze and is retried under the
//!   new epoch. ARQ mode also bills one control-class acknowledgement per
//!   completed exchange and per reconciliation, mirroring the simulator's
//!   transport;
//! * **doze** (faulty mode) — the link drops and comes back: any exchange
//!   in flight is rolled back to its checkpoint and retried under the new
//!   epoch, its billed attempts written off as aborted;
//! * **MC crash, volatile or stable** (faulty mode) — as a doze, but the
//!   aborted request parks in a retry slot while the reconnection
//!   handshake (`Reconnect`/`ReconnectAck`) re-validates the replica; a
//!   volatile crash additionally destroys the MC's replica and
//!   window/streak bookkeeping, which the ledger invariant replays via
//!   [`on_replica_lost`](mdr_core::AllocationPolicy::on_replica_lost).
//!
//! Every reached state passes the full [`invariants`](crate::invariants)
//! suite. Deduplication merges states with identical protocol
//! configuration, queue, retry slot and bill: the abstract policy's replay
//! state is a function of the node states for every family in the paper
//! (window contents for SWk, streak counters for T1m/T2m, nothing for the
//! statics), so merging is sound for the ledger invariant too.

use crate::invariants::{check_state, Invariant, StateView, Violation};
use mdr_core::{Action, CostModel, PolicySpec, Request};
use mdr_sim::{MessageClass, ProtocolState, StepOutcome, WireMessage};
use std::collections::{HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Deliberate protocol mutations for the checker's self-test: each fault is
/// seeded into in-flight messages and must be caught by an invariant (never
/// by a crash), demonstrating the suite has teeth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Strip the §4 save-the-copy indication (and the piggybacked window)
    /// from allocating data responses: the SC commits to propagate but the
    /// MC never caches.
    SkipAllocationHandoff,
    /// Strip the window from deallocating MC → SC delete-requests: the
    /// replica drops but the window hand-off is skipped, leaving no owner.
    SkipWindowHandoff,
    /// Silently discard an in-flight delete-request (an unrecovered loss,
    /// as if the link-layer ARQ were broken).
    DropDeleteRequest,
    /// Make the MC report its replica lost on reconnection even when it
    /// survived in stable storage: the SC retracts its commitment and
    /// reconstructs the window while the MC still holds both.
    LieAboutReplicaOnReconnect,
    /// Strip the re-shipped item from the reconnection acknowledgement
    /// (ST2 recovery): the SC stays committed to a replica the MC never
    /// re-caches.
    SkipRecoveryRefresh,
    /// Silently discard an in-flight reconnection announcement: the
    /// handshake dangles with nothing to advance it.
    DropReconnect,
    /// Announce the reconnection again while the first announcement is
    /// still in flight: a second message on the one-slot wire, which the
    /// shipped protocol refuses with a panic.
    DuplicateAnnounce,
    /// Deliver the completion acknowledgement without billing it (ARQ
    /// mode): the transport's ack traffic silently stops appearing in the
    /// per-class bill.
    SkipAckBilling,
    /// Retransmit on timeout without billing the repeated attempt (ARQ
    /// mode): retransmissions ride the wire for free.
    FreeRetransmit,
    /// Escalate an exhausted retry budget to a declared partition but
    /// "forget" the rollback: the aborted request is never resubmitted and
    /// an interrupted handshake is never restarted.
    EscalateWithoutRollback,
}

/// One bounded-exploration job: a policy, a depth bound, and the modes.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// The policy family to explore.
    pub policy: PolicySpec,
    /// Exploration depth: number of transitions along any path.
    pub depth: usize,
    /// Whether timeout-driven ARQ transitions are explored: bounded
    /// retransmissions, budget-exhaustion escalation to a declared
    /// partition, and billed completion acknowledgements.
    pub arq: bool,
    /// Retransmission attempts per exchange before a timeout escalates
    /// (ARQ mode).
    pub retry_budget: u8,
    /// Cost models under which every quiescent ledger is priced (§5/§6).
    pub models: Vec<CostModel>,
    /// Bound on the FIFO arrival queue (arrivals beyond it are not
    /// explored; §3 serialization makes longer queues redundant — service
    /// order, not arrival time, determines cost).
    pub max_pending: usize,
    /// Maximum retransmission timeouts explored along one path (ARQ
    /// mode).
    pub max_losses: u8,
    /// Maximum disconnection/crash events explored along one path (zero
    /// disables the fault transitions).
    pub max_faults: u8,
    /// Optional seeded mutation (checker self-test).
    pub fault: Option<Fault>,
}

impl CheckConfig {
    /// A lossless, fault-free exploration of `policy` to `depth`, pricing
    /// under both cost models (connection, and message at ω = ½).
    pub fn new(policy: PolicySpec, depth: usize) -> Self {
        CheckConfig {
            policy,
            depth,
            arq: false,
            retry_budget: 2,
            models: vec![CostModel::Connection, CostModel::message(0.5)],
            max_pending: 2,
            max_losses: 2,
            max_faults: 0,
            fault: None,
        }
    }

    /// Enables timeout-driven ARQ transitions (bounded retransmission,
    /// escalation, billed acks), raising the per-path timeout bound far
    /// enough that budget exhaustion is reachable.
    #[must_use]
    pub fn arq(mut self) -> Self {
        self.arq = true;
        self.max_losses = self.max_losses.max(self.retry_budget + 1);
        self
    }

    /// Enables disconnection, crash and reconnection-handshake transitions
    /// (up to two faults per path).
    #[must_use]
    pub fn faulty(mut self) -> Self {
        self.max_faults = 2;
        self
    }

    /// Seeds a deliberate protocol mutation.
    #[must_use]
    pub fn with_fault(mut self, fault: Fault) -> Self {
        self.fault = Some(fault);
        self
    }
}

/// What one bounded exploration found.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// The explored policy.
    pub policy: PolicySpec,
    /// The depth bound used.
    pub depth: usize,
    /// Whether timeout-driven ARQ transitions were explored.
    pub arq: bool,
    /// Whether disconnect/crash transitions were explored.
    pub faulty: bool,
    /// Deduplicated states reached (including the initial state).
    pub states: usize,
    /// Transitions applied (including ones into already-seen states).
    pub transitions: usize,
    /// Counterexamples found; empty means the run verified.
    pub violations: Vec<Violation>,
}

impl CheckReport {
    /// Whether the exploration finished without a counterexample.
    pub fn verified(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The full checker state: protocol configuration × arrival queue × retry
/// slot × billing counters. Equality/hashing over all of it drives
/// deduplication.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    protocol: ProtocolState,
    pending: VecDeque<Request>,
    /// A request whose exchange an MC crash aborted, awaiting resubmission
    /// once the reconnection handshake completes. It keeps its original
    /// schedule slot — the retry serves the same serialized request.
    retry: Option<Request>,
    billed_data: u64,
    billed_control: u64,
    retrans_data: u64,
    retrans_control: u64,
    /// Billed attempts that belonged to exchanges a fault later aborted.
    aborted_data: u64,
    aborted_control: u64,
    /// Billed reconnection-handshake attempts (serve no request).
    recon_data: u64,
    recon_control: u64,
    /// Billed transport acknowledgements (ARQ mode; always control-class).
    acks: u64,
    /// Transmission attempts of the envelope currently in flight (ARQ
    /// mode): 1 + the timeouts that have fired on it.
    attempts: u8,
    /// At-risk tally for the exchange in flight: attempts billed so far
    /// (and how many of them were ARQ retransmissions), moved to the
    /// aborted bucket if a fault kills the exchange, discharged at
    /// completion.
    exch_data: u64,
    exch_control: u64,
    exch_retrans_data: u64,
    exch_retrans_control: u64,
    losses_left: u8,
    faults_left: u8,
}

impl State {
    fn initial(config: &CheckConfig) -> Self {
        State {
            protocol: ProtocolState::new(config.policy),
            pending: VecDeque::new(),
            retry: None,
            billed_data: 0,
            billed_control: 0,
            retrans_data: 0,
            retrans_control: 0,
            aborted_data: 0,
            aborted_control: 0,
            recon_data: 0,
            recon_control: 0,
            acks: 0,
            attempts: 0,
            exch_data: 0,
            exch_control: 0,
            exch_retrans_data: 0,
            exch_retrans_control: 0,
            losses_left: config.max_losses,
            faults_left: config.max_faults,
        }
    }

    /// Bills one exchange transmission attempt (tracked at-risk until the
    /// exchange completes or aborts).
    fn bill_exchange(&mut self, class: MessageClass) {
        match class {
            MessageClass::Data => {
                self.billed_data += 1;
                self.exch_data += 1;
            }
            MessageClass::Control => {
                self.billed_control += 1;
                self.exch_control += 1;
            }
            // The backbone class never enters the MC/SC wireless protocol
            // this checker models (it has its own model in `handoff`).
            MessageClass::Invalidation => {
                unreachable!("invalidation-class traffic in the wireless checker")
            }
        }
    }

    /// Bills one reconnection-handshake transmission attempt.
    fn bill_recon(&mut self, class: MessageClass) {
        match class {
            MessageClass::Data => {
                self.billed_data += 1;
                self.recon_data += 1;
            }
            MessageClass::Control => {
                self.billed_control += 1;
                self.recon_control += 1;
            }
            // See `bill_exchange`: the backbone class never reaches here.
            MessageClass::Invalidation => {
                unreachable!("invalidation-class traffic in the wireless checker")
            }
        }
    }

    /// Bills a message in the right bucket for the protocol phase: the
    /// handshake's replies are handshake traffic, everything else belongs
    /// to the exchange in flight.
    fn bill_sent(&mut self, class: MessageClass) {
        if self.protocol.recovering() {
            self.bill_recon(class);
        } else {
            self.bill_exchange(class);
        }
    }

    /// Discharges the at-risk tally: the exchange completed, so its
    /// attempts are accounted for by the ledger (plus the retransmission
    /// counters, which already hold the lost ones).
    fn settle_exchange(&mut self) {
        self.exch_data = 0;
        self.exch_control = 0;
        self.exch_retrans_data = 0;
        self.exch_retrans_control = 0;
    }

    /// Writes the at-risk tally off as aborted: the retry will bill its own
    /// messages, and the lost attempts leave the retransmission counters
    /// (they are aborted traffic now, not ledger inflation).
    fn abort_exchange_billing(&mut self) {
        self.aborted_data += self.exch_data;
        self.aborted_control += self.exch_control;
        self.retrans_data -= self.exch_retrans_data;
        self.retrans_control -= self.exch_retrans_control;
        self.settle_exchange();
    }

    /// Whether an arrival can begin service inline: the protocol is idle,
    /// no handshake is in progress, and no aborted request is waiting for
    /// its retry (FIFO: the retry is the oldest request).
    fn can_submit(&self) -> bool {
        self.protocol.idle() && !self.protocol.recovering() && self.retry.is_none()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Transition {
    Arrive(Request),
    Deliver,
    /// The sender's retry timer fires (ARQ mode): retransmit while the
    /// budget lasts, escalate to a declared partition once it is spent.
    ArqTimeout,
    /// The link drops and immediately recovers: abort + rollback + retry.
    Doze,
    /// The MC crashes and reboots; reconnection runs the handshake.
    Crash {
        volatile: bool,
    },
}

fn enabled(config: &CheckConfig, state: &State) -> Vec<Transition> {
    let mut transitions = Vec::with_capacity(7);
    if !state.protocol.wire().is_empty() {
        transitions.push(Transition::Deliver);
        if config.arq && state.losses_left > 0 {
            transitions.push(Transition::ArqTimeout);
        }
    }
    if state.can_submit() || state.pending.len() < config.max_pending {
        transitions.push(Transition::Arrive(Request::Read));
        transitions.push(Transition::Arrive(Request::Write));
    }
    if state.faults_left > 0 {
        transitions.push(Transition::Doze);
        transitions.push(Transition::Crash { volatile: false });
        transitions.push(Transition::Crash { volatile: true });
    }
    transitions
}

/// How many trace entries one [`apply`] call appended, so the DFS can
/// backtrack.
#[derive(Debug, Clone, Copy, Default)]
struct Applied {
    served: usize,
    completed: usize,
    resets: usize,
}

/// Submits `request` to an idle protocol, billing a sent message or
/// recording an inline completion.
fn submit(state: &mut State, request: Request, actions: &mut Vec<Action>, applied: &mut Applied) {
    match state.protocol.submit(request) {
        StepOutcome::Completed(action) => {
            actions.push(action);
            applied.completed += 1;
            state.attempts = 0;
        }
        StepOutcome::Sent(ticket) => {
            state.attempts = 1;
            state.bill_exchange(ticket.class);
        }
        StepOutcome::Reconciled => unreachable!("submit never reconciles"),
    }
}

/// Drains the FIFO queue while the protocol stays idle, exactly as the
/// simulator's event loop does: inline completions must not stall it.
fn drain_queue(
    state: &mut State,
    schedule: &mut Vec<Request>,
    actions: &mut Vec<Action>,
    applied: &mut Applied,
) {
    while state.can_submit() {
        let Some(next) = state.pending.pop_front() else {
            break;
        };
        schedule.push(next);
        applied.served += 1;
        submit(state, next, actions, applied);
    }
}

/// Applies `transition`, appending served requests to `schedule`, completed
/// actions to `actions` and volatile-crash points to `resets`; returns how
/// many entries each gained so the DFS can backtrack.
fn apply(
    config: &CheckConfig,
    state: &mut State,
    transition: Transition,
    schedule: &mut Vec<Request>,
    actions: &mut Vec<Action>,
    resets: &mut Vec<usize>,
) -> Applied {
    let mut applied = Applied::default();
    match transition {
        Transition::Arrive(request) => {
            if state.can_submit() {
                debug_assert!(state.pending.is_empty(), "queue drains at completion");
                schedule.push(request);
                applied.served += 1;
                submit(state, request, actions, &mut applied);
            } else {
                state.pending.push_back(request);
            }
        }
        Transition::Deliver => match state.protocol.deliver(0) {
            StepOutcome::Sent(ticket) => {
                state.attempts = 1;
                state.bill_sent(ticket.class);
            }
            StepOutcome::Completed(action) => {
                actions.push(action);
                applied.completed += 1;
                state.attempts = 0;
                bill_ack(config, state);
                state.settle_exchange();
                drain_queue(state, schedule, actions, &mut applied);
            }
            StepOutcome::Reconciled => {
                state.attempts = 0;
                bill_ack(config, state);
                // The handshake completed: the aborted request (if any)
                // resumes first — it keeps its original schedule slot — and
                // then the queue drains.
                if let Some(request) = state.retry.take() {
                    submit(state, request, actions, &mut applied);
                }
                drain_queue(state, schedule, actions, &mut applied);
            }
        },
        Transition::ArqTimeout => {
            debug_assert!(state.losses_left > 0);
            state.losses_left -= 1;
            if state.attempts <= config.retry_budget {
                // The timer fired with budget to spare: the lost attempt
                // is billed again and the protocol state is unchanged; the
                // attempt count on this envelope grows toward the budget.
                state.attempts += 1;
                let class = state.protocol.wire()[0].message.class();
                if state.protocol.recovering() {
                    state.bill_recon(class);
                } else {
                    if config.fault != Some(Fault::FreeRetransmit) {
                        state.bill_exchange(class);
                    }
                    match class {
                        MessageClass::Data => {
                            state.retrans_data += 1;
                            state.exch_retrans_data += 1;
                        }
                        MessageClass::Control => {
                            state.retrans_control += 1;
                            state.exch_retrans_control += 1;
                        }
                        MessageClass::Invalidation => {
                            unreachable!("invalidation-class traffic in the wireless checker")
                        }
                    }
                }
            } else {
                // The budget is exhausted: the timeout escalates to a
                // declared partition — abort, rollback, retry under the new
                // epoch, exactly as a doze.
                state.attempts = 0;
                let aborted = state.protocol.disconnect();
                state.protocol.reconnect();
                if aborted.is_some() {
                    state.abort_exchange_billing();
                }
                if config.fault == Some(Fault::EscalateWithoutRollback) {
                    // Mutant: the partition is declared but the recovery is
                    // forgotten — nothing resumes the aborted work.
                } else if state.protocol.recovering() {
                    restart_handshake(state, false);
                } else if let Some(request) = aborted {
                    submit(state, request, actions, &mut applied);
                    drain_queue(state, schedule, actions, &mut applied);
                }
            }
        }
        Transition::Doze => {
            debug_assert!(state.faults_left > 0);
            state.faults_left -= 1;
            state.attempts = 0;
            let aborted = state.protocol.disconnect();
            state.protocol.reconnect();
            if aborted.is_some() {
                state.abort_exchange_billing();
            }
            if state.protocol.recovering() {
                // The doze destroyed an in-flight handshake: restart it
                // under the new epoch (any volatile loss was already
                // applied when the handshake began).
                restart_handshake(state, false);
            } else if let Some(request) = aborted {
                // Retry the rolled-back request under the new epoch; it
                // keeps its original schedule slot.
                submit(state, request, actions, &mut applied);
                drain_queue(state, schedule, actions, &mut applied);
            }
        }
        Transition::Crash { volatile } => {
            debug_assert!(state.faults_left > 0);
            state.faults_left -= 1;
            state.attempts = 0;
            if let Some(request) = state.protocol.disconnect() {
                state.abort_exchange_billing();
                debug_assert!(state.retry.is_none(), "at most one exchange in flight");
                state.retry = Some(request);
            }
            state.protocol.reconnect();
            if volatile {
                // The replay oracle loses its volatile state at exactly
                // this many completed actions (see the ledger invariant).
                resets.push(actions.len());
                applied.resets += 1;
            }
            restart_handshake(state, volatile);
        }
    }
    inject_fault(config, state);
    applied
}

/// Starts (or restarts) the reconnection handshake and bills the announce.
fn restart_handshake(state: &mut State, volatile: bool) {
    match state.protocol.begin_reconciliation(volatile) {
        StepOutcome::Sent(ticket) => {
            state.attempts = 1;
            state.bill_recon(ticket.class);
        }
        _ => unreachable!("the reconnection announce always goes on the wire"),
    }
}

/// Bills the transport acknowledgement that (in ARQ mode) confirms a
/// completed exchange or reconciliation — control-class, never
/// retransmitted, never acknowledged itself. The [`Fault::SkipAckBilling`]
/// mutant delivers the ack without billing it.
fn bill_ack(config: &CheckConfig, state: &mut State) {
    if !config.arq {
        return;
    }
    state.acks += 1;
    if config.fault != Some(Fault::SkipAckBilling) {
        state.billed_control += 1;
    }
}

/// Seeds the configured fault into the in-flight message, if it matches.
fn inject_fault(config: &CheckConfig, state: &mut State) {
    let Some(fault) = config.fault else { return };
    if state.protocol.wire().is_empty() {
        return;
    }
    match fault {
        Fault::SkipAllocationHandoff => state.protocol.tamper_in_flight(0, |envelope| {
            if let WireMessage::DataResponse {
                allocate, window, ..
            } = &mut envelope.message
            {
                *allocate = false;
                *window = None;
            }
        }),
        Fault::SkipWindowHandoff => state.protocol.tamper_in_flight(0, |envelope| {
            if let WireMessage::DeleteRequest { window } = &mut envelope.message {
                *window = None;
            }
        }),
        Fault::DropDeleteRequest => {
            if matches!(
                state.protocol.wire()[0].message,
                WireMessage::DeleteRequest { .. }
            ) {
                let _ = state.protocol.drop_in_flight(0);
                state.attempts = 0;
            }
        }
        Fault::LieAboutReplicaOnReconnect => state.protocol.tamper_in_flight(0, |envelope| {
            if let WireMessage::Reconnect { cached_version, .. } = &mut envelope.message {
                *cached_version = None;
            }
        }),
        Fault::SkipRecoveryRefresh => state.protocol.tamper_in_flight(0, |envelope| {
            if let WireMessage::ReconnectAck { refresh, .. } = &mut envelope.message {
                *refresh = None;
            }
        }),
        Fault::DropReconnect => {
            if matches!(
                state.protocol.wire()[0].message,
                WireMessage::Reconnect { .. }
            ) {
                let _ = state.protocol.drop_in_flight(0);
                state.attempts = 0;
            }
        }
        Fault::DuplicateAnnounce => {
            if matches!(
                state.protocol.wire()[0].message,
                WireMessage::Reconnect { .. }
            ) {
                let _ = state.protocol.begin_reconciliation(false);
            }
        }
        // The transport mutants act inside the ARQ transitions themselves,
        // not on in-flight messages.
        Fault::SkipAckBilling | Fault::FreeRetransmit | Fault::EscalateWithoutRollback => {}
    }
}

/// Runs one bounded exploration.
pub fn check(config: &CheckConfig) -> CheckReport {
    let mut report = CheckReport {
        policy: config.policy,
        depth: config.depth,
        arq: config.arq,
        faulty: config.max_faults > 0,
        states: 1,
        transitions: 0,
        violations: Vec::new(),
    };
    let initial = State::initial(config);
    let mut seen = HashSet::new();
    let mut schedule = Vec::new();
    let mut actions = Vec::new();
    let mut resets = Vec::new();
    verify_state(config, &initial, &schedule, &actions, &resets, &mut report);
    seen.insert(initial.clone());
    dfs(
        config,
        &initial,
        0,
        &mut seen,
        &mut schedule,
        &mut actions,
        &mut resets,
        &mut report,
    );
    report
}

fn verify_state(
    config: &CheckConfig,
    state: &State,
    schedule: &[Request],
    actions: &[Action],
    resets: &[usize],
    report: &mut CheckReport,
) {
    let view = StateView {
        protocol: &state.protocol,
        schedule,
        actions,
        resets,
        billed_data: state.billed_data,
        billed_control: state.billed_control,
        retrans_data: state.retrans_data,
        retrans_control: state.retrans_control,
        aborted_data: state.aborted_data,
        aborted_control: state.aborted_control,
        recon_data: state.recon_data,
        recon_control: state.recon_control,
        acks: state.acks,
        models: &config.models,
    };
    if let Err(violation) = check_state(&view) {
        report.violations.push(violation);
    }
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    config: &CheckConfig,
    state: &State,
    depth: usize,
    seen: &mut HashSet<State>,
    schedule: &mut Vec<Request>,
    actions: &mut Vec<Action>,
    resets: &mut Vec<usize>,
    report: &mut CheckReport,
) {
    if depth == config.depth || !report.violations.is_empty() {
        return;
    }
    for transition in enabled(config, state) {
        // The child is a clone, so a transition that panics half-way leaves
        // `state` intact; the panic is reported as a violation, with the
        // schedule that reached it, instead of aborting the exploration.
        let mut child = state.clone();
        let applied = guarded(|| apply(config, &mut child, transition, schedule, actions, resets));
        report.transitions += 1;
        let applied = match applied {
            Ok(applied) => applied,
            Err(message) => {
                report.violations.push(Violation {
                    invariant: Invariant::NoPanic,
                    detail: format!("{transition:?} panicked: {message}"),
                    schedule: schedule.clone(),
                });
                return;
            }
        };
        verify_state(config, &child, schedule, actions, resets, report);
        if report.violations.is_empty() && seen.insert(child.clone()) {
            report.states += 1;
            dfs(
                config,
                &child,
                depth + 1,
                seen,
                schedule,
                actions,
                resets,
                report,
            );
        }
        schedule.truncate(schedule.len() - applied.served);
        actions.truncate(actions.len() - applied.completed);
        resets.truncate(resets.len() - applied.resets);
        if !report.violations.is_empty() {
            return;
        }
    }
}

/// Runs `f`, returning the message of any panic it raises.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|panic| {
        panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default()
    })
}

/// The acceptance roster: the policy families the paper analyzes —
/// SW1 (§4's optimized write), SWk for k ∈ {3, 5}, the statics ST1/ST2
/// (§2), and the competitive statics T1m/T2m (§7.1).
pub fn default_roster() -> Vec<PolicySpec> {
    vec![
        PolicySpec::SlidingWindow { k: 1 },
        PolicySpec::SlidingWindow { k: 3 },
        PolicySpec::SlidingWindow { k: 5 },
        PolicySpec::St1,
        PolicySpec::St2,
        PolicySpec::T1 { m: 2 },
        PolicySpec::T2 { m: 2 },
    ]
}

/// Explores every roster policy, lossless and with timeout-driven ARQ
/// transitions — bounded retransmissions, budget-exhaustion escalations
/// and billed acknowledgements woven into every interleaving — to `depth`;
/// returns one report per run.
pub fn sweep(depth: usize) -> Vec<CheckReport> {
    let mut reports = Vec::new();
    for policy in default_roster() {
        reports.push(check(&CheckConfig::new(policy, depth)));
        reports.push(check(&CheckConfig::new(policy, depth).arq()));
    }
    reports
}

/// Explores every roster policy with disconnect/crash/reconnect
/// transitions enabled, to `depth`; returns one report per policy. Kept
/// separate from [`sweep`] because the fault transitions multiply the
/// state space (epoch bumps defeat deduplication across fault counts), so
/// faulty runs use a smaller depth in practice.
pub fn faulty_sweep(depth: usize) -> Vec<CheckReport> {
    default_roster()
        .into_iter()
        .map(|policy| check(&CheckConfig::new(policy, depth).faulty()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A transition that trips a shipped assertion comes back as its
    /// message, not as an unwinding panic: a second announce with the
    /// first still in flight would be two messages on the one-slot wire.
    #[test]
    fn a_panicking_transition_is_returned_as_its_message() {
        let mut protocol = ProtocolState::new(PolicySpec::St1);
        let _ = protocol.begin_reconciliation(false);
        let message = guarded(|| protocol.begin_reconciliation(false)).unwrap_err();
        assert!(
            message.contains("another message is in flight"),
            "{message}"
        );
        assert_eq!(protocol.wire().len(), 1);
        assert_eq!(guarded(|| 7), Ok(7));
    }
}
