//! The bounded model checker: exhaustive DFS over every interleaving of
//! request arrivals, message deliveries, ARQ retransmission timeouts and —
//! in faulty mode — disconnections, MC crashes and reconnection handshakes,
//! with state-hash deduplication.
//!
//! The state space is the product of the simulator's own [`LinkState`] —
//! the §4 protocol, the request in service or suspended, the owed
//! handshake, the ARQ attempt count and the per-class bill — with the
//! arrival queue and the exploration budgets. Each transition calls the
//! link methods the discrete-event simulator calls for the same event:
//!
//! * **arrival at the MC** — a read arrives: begins service immediately if
//!   the link accepts it, otherwise queues FIFO (§3 serialization);
//! * **arrival at the SC** — a write arrives, likewise;
//! * **message delivery** — the in-flight envelope reaches its endpoint
//!   through [`LinkState::receive`], the guarded path the simulator takes;
//! * **retransmission timeout** (ARQ mode) — the attempt in flight was
//!   lost and the sender's retry timer fires ([`LinkState::timeout`]):
//!   while the retry budget lasts, the attempt is retransmitted and billed
//!   again with the protocol state unchanged, which is exactly the §3
//!   claim that loss inflates the bill without changing the actions; once
//!   the budget is exhausted the timeout *escalates* to a declared
//!   partition, and the link comes straight back ([`LinkState::restore`]);
//! * **doze** (faulty mode) — the link drops and comes back
//!   ([`LinkState::sever`], then `restore`): any exchange in flight is
//!   rolled back and retried under the new epoch, its billed attempts
//!   written off as aborted;
//! * **MC crash, volatile or stable** (faulty mode) — as a doze, but the
//!   aborted request stays suspended while the reconnection handshake
//!   (`Reconnect`/`ReconnectAck`) re-validates the replica; a volatile
//!   crash additionally destroys the MC's replica and window/streak
//!   bookkeeping, which the ledger invariant replays via
//!   [`on_replica_lost`](mdr_core::AllocationPolicy::on_replica_lost).
//!
//! Every reached state passes the full [`invariants`](crate::invariants)
//! suite, the link's own billing identity among them. Deduplication merges
//! states with identical link, queue and budgets: the abstract policy's
//! replay state is a function of the node states for every family in the
//! paper (window contents for SWk, streak counters for T1m/T2m, nothing for
//! the statics), so merging is sound for the ledger invariant too. The run
//! counters the link counts into stay outside the key: the billing
//! identity ties the ones it reads to the link's bill, so two paths into
//! one state that both pass it stay equal under every continuation.

use crate::invariants::{check_state, guarded, Invariant, StateView, Violation};
use mdr_core::{Action, CostModel, PolicySpec, Request};
use mdr_sim::{
    Envelope, FaultKind, LinkState, LinkStep, Restored, SimReport, Timeout, WireMessage,
};
use std::collections::{HashSet, VecDeque};

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
    /// Restore the link again while the reconnection announcement is still
    /// in flight: a second announce on the one-slot wire, which the
    /// shipped protocol refuses with a panic.
    DuplicateAnnounce,
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
    /// Retransmissions per envelope before a timeout escalates (ARQ mode):
    /// the link's [`ArqConfig::retry_budget`](mdr_sim::ArqConfig).
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

/// The full checker state: the shipped link × the arrival queue × the
/// exploration budgets. Equality/hashing over all of it drives
/// deduplication.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    link: LinkState<Request>,
    pending: VecDeque<Request>,
    losses_left: u8,
    faults_left: u8,
}

/// A state reached by a path, with the run counters the path produced.
#[derive(Debug, Clone)]
struct Node {
    state: State,
    tally: SimReport,
}

impl Node {
    fn initial(config: &CheckConfig) -> Self {
        let retry_budget = config.arq.then_some(u32::from(config.retry_budget));
        Node {
            state: State {
                link: LinkState::new(config.policy, retry_budget),
                pending: VecDeque::new(),
                losses_left: config.max_losses,
                faults_left: config.max_faults,
            },
            tally: SimReport::default(),
        }
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
    if state.link.protocol().wire().is_some() {
        transitions.push(Transition::Deliver);
        if config.arq && state.losses_left > 0 {
            transitions.push(Transition::ArqTimeout);
        }
    }
    if state.link.accepts() || state.pending.len() < config.max_pending {
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

/// One transition in progress: the node it changes and the path's trace —
/// served requests, completed actions and volatile-crash points — with
/// what it appended to each.
struct Step<'a> {
    node: &'a mut Node,
    schedule: &'a mut Vec<Request>,
    actions: &'a mut Vec<Action>,
    resets: &'a mut Vec<usize>,
    applied: Applied,
}

impl Step<'_> {
    /// Carries out what the link asked for, as the simulator does: a
    /// completion is recorded and the queue drains; a handed-back request
    /// is submitted again ahead of the queue.
    fn carry(&mut self, step: LinkStep<Request>) {
        match step {
            LinkStep::Sent(_) => {}
            LinkStep::Completed(_, action) => {
                self.actions.push(action);
                self.applied.completed += 1;
            }
            LinkStep::Reconciled(resumed) => self.resume(resumed),
        }
    }

    /// Submits `request`; it enters the serialized schedule now.
    fn serve(&mut self, request: Request) {
        self.schedule.push(request);
        self.applied.served += 1;
        self.submit(request);
    }

    fn submit(&mut self, request: Request) {
        let Node { state, tally } = &mut *self.node;
        let step = state.link.submit(request, tally);
        self.carry(step);
    }

    /// Resubmits a request the link handed back — it keeps its original
    /// schedule slot — then drains the queue.
    fn resume(&mut self, resumed: Option<Request>) {
        if let Some(request) = resumed {
            self.submit(request);
        }
        self.drain();
    }

    /// Drains the FIFO queue while the link accepts requests, exactly as
    /// the simulator's event loop does: inline completions must not stall
    /// it.
    fn drain(&mut self) {
        while self.node.state.link.accepts() {
            let Some(next) = self.node.state.pending.pop_front() else {
                break;
            };
            self.serve(next);
        }
    }

    /// The link is back: the owed handshake begins, or the suspended
    /// request resumes.
    fn restore(&mut self) {
        let Node { state, tally } = &mut *self.node;
        if let Restored::Resume(resumed) = state.link.restore(tally) {
            self.resume(resumed);
        }
    }

    /// The link drops for an outage of `kind` and comes straight back.
    fn outage(&mut self, kind: FaultKind) {
        let Node { state, tally } = &mut *self.node;
        state.faults_left -= 1;
        state.link.sever(kind, tally);
        if kind == FaultKind::CrashVolatile {
            // The replay oracle loses its volatile state at exactly this
            // many completed actions (see the ledger invariant).
            self.resets.push(self.actions.len());
            self.applied.resets += 1;
        }
        self.restore();
    }

    fn apply(&mut self, transition: Transition) {
        match transition {
            Transition::Arrive(request) => {
                if self.node.state.link.accepts() {
                    debug_assert!(self.node.state.pending.is_empty(), "queue drains");
                    self.serve(request);
                } else {
                    self.node.state.pending.push_back(request);
                }
            }
            Transition::Deliver => {
                let Node { state, tally } = &mut *self.node;
                let Some(ticket) = state.link.protocol().wire().map(Envelope::ticket) else {
                    unreachable!("a delivery is enabled only with an envelope in flight")
                };
                if let Some(step) = state.link.receive(ticket, tally) {
                    self.carry(step);
                    self.drain();
                }
            }
            Transition::ArqTimeout => {
                let Node { state, tally } = &mut *self.node;
                state.losses_left -= 1;
                if let Timeout::Escalated { .. } = state.link.timeout(tally) {
                    self.restore();
                }
            }
            Transition::Doze => self.outage(FaultKind::Doze),
            Transition::Crash { volatile } => self.outage(if volatile {
                FaultKind::CrashVolatile
            } else {
                FaultKind::CrashStable
            }),
        }
    }
}

/// Seeds the configured fault into the in-flight message, if it matches.
fn inject_fault(config: &CheckConfig, node: &mut Node) {
    let Some(fault) = config.fault else { return };
    let link = &mut node.state.link;
    let Some(in_flight) = link.protocol().wire() else {
        return;
    };
    let delete = matches!(in_flight.message, WireMessage::DeleteRequest { .. });
    let announce = matches!(in_flight.message, WireMessage::Reconnect { .. });
    match fault {
        Fault::SkipAllocationHandoff => link.tamper_in_flight(|envelope| {
            if let WireMessage::DataResponse {
                allocate, window, ..
            } = &mut envelope.message
            {
                *allocate = false;
                *window = None;
            }
        }),
        Fault::SkipWindowHandoff => link.tamper_in_flight(|envelope| {
            if let WireMessage::DeleteRequest { window } = &mut envelope.message {
                *window = None;
            }
        }),
        Fault::DropDeleteRequest if delete => {
            link.drop_in_flight();
        }
        Fault::LieAboutReplicaOnReconnect => link.tamper_in_flight(|envelope| {
            if let WireMessage::Reconnect { cached_version, .. } = &mut envelope.message {
                *cached_version = None;
            }
        }),
        Fault::SkipRecoveryRefresh => link.tamper_in_flight(|envelope| {
            if let WireMessage::ReconnectAck { refresh, .. } = &mut envelope.message {
                *refresh = None;
            }
        }),
        Fault::DropReconnect if announce => {
            link.drop_in_flight();
        }
        Fault::DuplicateAnnounce if announce => {
            let _ = link.restore(&mut node.tally);
        }
        Fault::DropDeleteRequest | Fault::DropReconnect | Fault::DuplicateAnnounce => {}
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
    let initial = Node::initial(config);
    let mut seen = HashSet::new();
    let mut schedule = Vec::new();
    let mut actions = Vec::new();
    let mut resets = Vec::new();
    verify_state(config, &initial, &schedule, &actions, &resets, &mut report);
    seen.insert(initial.state.clone());
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
    node: &Node,
    schedule: &[Request],
    actions: &[Action],
    resets: &[usize],
    report: &mut CheckReport,
) {
    let view = StateView {
        link: &node.state.link,
        tally: &node.tally,
        schedule,
        actions,
        resets,
        models: &config.models,
    };
    if let Err(violation) = check_state(&view) {
        report.violations.push(violation);
    }
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    config: &CheckConfig,
    node: &Node,
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
    for transition in enabled(config, &node.state) {
        // The child is a clone, so a transition that panics half-way leaves
        // `node` intact; the panic is reported as a violation, with the
        // schedule that reached it, instead of aborting the exploration.
        let mut child = node.clone();
        let mut step = Step {
            node: &mut child,
            schedule,
            actions,
            resets,
            applied: Applied::default(),
        };
        let applied = guarded(|| {
            step.apply(transition);
            inject_fault(config, step.node);
            step.applied
        });
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
        if report.violations.is_empty() && seen.insert(child.state.clone()) {
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
        let mut protocol = mdr_sim::ProtocolState::new(PolicySpec::St1);
        let _ = protocol.begin_reconciliation(false);
        let message = guarded(|| protocol.begin_reconciliation(false)).unwrap_err();
        assert!(
            message.contains("another message is in flight"),
            "{message}"
        );
        assert!(protocol.wire().is_some());
        assert_eq!(guarded(|| 7), Ok(7));
    }
}
