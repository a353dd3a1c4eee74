//! The discrete-event simulation: Poisson arrivals drive the MC/SC protocol
//! over a latency-ful wireless link, with exact cost accounting and
//! continuous invariant checking.
//!
//! Requests are serialized (§3: "In practice they may occur concurrently,
//! but then some concurrency control mechanism will serialize them,
//! therefore our analysis still holds"): an arrival that lands while a
//! protocol exchange is in flight queues FIFO behind it. Under
//! serialization the cost of the run depends only on the serialized request
//! order, which is what makes the distributed execution provably equivalent
//! to the pure-policy replay — an equivalence this crate asserts at runtime
//! in oracle mode and the workspace re-checks in integration tests.

use crate::calendar::{self, CalendarQueue};
use crate::engine::DecisionCore;
use crate::faults::{Arq, ArqConfig, FaultKind, FaultPlan, FaultProcess, Ghosts};
use crate::link::{LinkState, LinkStep, Restored, Timeout};
use crate::perf::{PerfStats, Stopwatch};
use crate::protocol::{ProtocolState, Ticket};
use crate::topology::{HandoffLeg, Mobility, MobilityConfig, Topology, TopologyConfig};
use crate::workload::{Arrival, ArrivalProcess};
use mdr_core::{Action, ActionCounts, CostModel, PolicySpec, Request, Schedule};
use std::collections::VecDeque;

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The allocation policy both nodes run.
    pub policy: PolicySpec,
    /// One-way message latency on the wireless link (time units).
    pub latency: f64,
    /// Run the in-process reference policy alongside the protocol and panic
    /// on any divergence (cheap; recommended everywhere but hot benches).
    pub oracle_check: bool,
    /// Optional deterministic ARQ transport, the simulator's one model of
    /// a lossy link (robustness extension, see `docs/faults.md`):
    /// per-envelope stop-and-wait acknowledgement, timeout-driven
    /// retransmission with exponential backoff and seed-derived jitter, a
    /// bounded retry budget escalating to a declared disconnection, and
    /// graceful degradation under sustained partition. Every transmission
    /// attempt is billed, so loss inflates the message bill by ≈ 1/(1 − p)
    /// without changing the protocol's actions.
    pub arq: Option<ArqConfig>,
    /// Optional cellular-mobility model (§1: "the geographical area is
    /// usually divided into cells"). The MC roams between cells with
    /// different radio conditions (per-cell extra latency); the stationary
    /// computer is fixed, so — as the paper asserts — mobility changes
    /// *when* messages arrive, never *what* they cost.
    pub mobility: Option<MobilityConfig>,
    /// Optional fault injection: deterministic disconnection windows, MC
    /// crashes, SC outages and message duplication/reordering (see
    /// [`FaultPlan`] and `docs/faults.md`).
    pub faults: Option<FaultPlan>,
    /// Optional multi-cell topology with fault-hardened handoff (mobility
    /// extension, see `docs/topology.md`): the MC migrates between cells
    /// on a seed-driven plan and window ownership follows it via a
    /// three-way, epoch-fenced handoff protocol over the wired backbone.
    /// An inert plan (zero migration rate) schedules no events and draws
    /// no randomness, so it reproduces the single-cell run exactly.
    pub topology: Option<TopologyConfig>,
}

/// Configuration equality is deliberate about its floating-point fields:
/// they are compared by IEEE-754 total order (`f64::total_cmp`), so the
/// semantics of NaN and signed zero are explicit rather than inherited from
/// a derived float `==` (which the workspace lint bans in accounting paths).
/// Two configs compare equal exactly when they bit-for-bit describe the same
/// run.
impl PartialEq for SimConfig {
    fn eq(&self, other: &Self) -> bool {
        self.policy == other.policy
            && self.latency.total_cmp(&other.latency).is_eq()
            && self.oracle_check == other.oracle_check
            && self.arq == other.arq
            && self.mobility == other.mobility
            && self.faults == other.faults
            && self.topology == other.topology
    }
}

impl Eq for SimConfig {}

impl SimConfig {
    /// Crate-internal default construction shared with the
    /// [`crate::SimBuilder`] front door.
    pub(crate) fn defaults(policy: PolicySpec) -> Self {
        SimConfig {
            policy,
            latency: 0.01,
            oracle_check: true,
            arq: None,
            mobility: None,
            faults: None,
            topology: None,
        }
    }
}

/// What happened during a run — the one list of the simulator's counters.
/// A running [`Simulation`] counts straight into one of these, so a new
/// counter is declared here and nowhere else; the [`sweep`](crate::sweep)
/// ledger prints and digests it by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimReport {
    /// The serialized request order the run actually served.
    pub schedule: Schedule,
    /// Action tallies (prices derive from these).
    pub counts: ActionCounts,
    /// Wireless messages sent, by billing class.
    pub data_messages: u64,
    /// Control messages sent.
    pub control_messages: u64,
    /// Cellular connections used: one per completed exchange (§3), plus
    /// one per aborted exchange, reconnection handshake and ARQ
    /// retransmission.
    pub connections: u64,
    /// Simulation time of the last served request's completion.
    pub makespan: f64,
    /// Mean time from a read's arrival to its completion (queueing +
    /// protocol latency).
    pub mean_read_latency: f64,
    /// Requests that had to queue behind an in-flight exchange.
    pub queued_requests: u64,
    /// Transmission attempts beyond each envelope's first: the ARQ
    /// transport's timed retransmissions (0 on a lossless link).
    pub retransmissions: u64,
    /// Retransmissions whose exchange eventually completed rather than
    /// being aborted; together with `aborted_messages`,
    /// `reconciliation_messages` and `arq_acks` these close the billing
    /// identity `billed = ledger + settled retransmissions + aborted +
    /// reconciliation + acks + at risk`, which
    /// [`LinkState::check_billing`] asserts per message class at every
    /// completion.
    pub settled_retransmissions: u64,
    /// Transport-level ARQ acknowledgements sent (billed as control
    /// messages; 0 without the ARQ transport).
    pub arq_acks: u64,
    /// Times the ARQ retry budget was exhausted and the transport declared
    /// the link disconnected.
    pub retry_escalations: u64,
    /// Requests the degraded-mode transport refused during a sustained
    /// partition (typed outcomes; these never enter the schedule, the
    /// ledger, or the oracle).
    pub shed: Vec<ShedRequest>,
    /// Reads served from the MC replica while partitioned beyond the
    /// degradation deadline (staleness-tracked; included in the normal
    /// local-read ledger counts).
    pub degraded_reads: u64,
    /// Total partition age over all degraded reads (time units); divide by
    /// `degraded_reads` for the mean staleness bound.
    pub staleness_sum: f64,
    /// Total time from partition start to the first successful delivery
    /// after it, over all recoveries (time units).
    pub recovery_time_sum: f64,
    /// Partitions the transport recovered from (a successful delivery
    /// followed the declared or injected outage).
    pub recoveries: u64,
    /// Online invariant checks the [`InvariantMonitor`] performed during
    /// the run.
    pub invariant_checks: u64,
    /// Events the simulation loop processed — a deterministic fact of
    /// config, workload and seeds (the denominator-free half of the
    /// [`perf`](crate::perf) measurements; wall time stays out of the
    /// report so serial and parallel sweeps compare equal).
    pub events_processed: u64,
    /// Cell handoffs the MC performed (0 without the mobility model).
    pub handoffs: u64,
    /// Disconnection windows injected by the fault plan.
    pub disconnects: u64,
    /// Disconnections that were MC crashes (volatile or stable).
    pub mc_crashes: u64,
    /// Disconnections that were SC outages.
    pub sc_outages: u64,
    /// Ghost envelope copies the network injected (duplication and stale
    /// reordering). Ghosts are never billed — they are a network artifact,
    /// not a send.
    pub duplicated_deliveries: u64,
    /// Deliveries the epoch/sequence guards discarded (ghost copies plus
    /// envelopes destroyed by a disconnection).
    pub discarded_deliveries: u64,
    /// Billed transmission attempts that belonged to exchanges a
    /// disconnection later aborted (wasted traffic; included in the
    /// message totals above).
    pub aborted_messages: u64,
    /// Billed transmission attempts of the reconnection handshake
    /// (included in the message totals above).
    pub reconciliation_messages: u64,
    /// Reconnection handshakes completed after MC crashes.
    pub reconciliations: u64,
    /// Cell migrations the topology's mobility plan performed (0 without
    /// a [`TopologyConfig`]; distinct from `handoffs`, which counts the
    /// latency-only cellular model's crossings).
    pub migrations: u64,
    /// Three-way ownership handoffs that committed at the target cell.
    pub handoffs_committed: u64,
    /// Handoff attempts aborted by the deadline or re-fenced by a
    /// migration mid-flight (ownership rolled back to the origin cell).
    pub handoffs_aborted: u64,
    /// Backbone transmission attempts of handoff legs (billed as their
    /// own traffic class, *not* part of the §3 wireless bill above).
    pub handoff_messages: u64,
    /// Handoff leg attempts whose flight eventually committed.
    pub settled_handoff_messages: u64,
    /// Handoff leg attempts whose flight was aborted (wasted backbone
    /// traffic; included in `handoff_messages`).
    pub aborted_handoff_messages: u64,
    /// Invalidation traffic billed on commit (third message class): one
    /// broadcast per commit round, or one unicast per stale replica.
    pub invalidation_messages: u64,
    /// Commits that triggered a broadcast invalidation round.
    pub invalidation_rounds: u64,
    /// Stale non-owner replicas dropped by invalidation.
    pub replicas_invalidated: u64,
    /// Reads served from the origin cell's replica while window ownership
    /// was away from (or migrating toward) the MC's current cell.
    pub stale_reads: u64,
    /// Handoff legs the epoch fence discarded: duplicated or reordered
    /// commit copies, and stragglers of aborted flights.
    pub handoff_discards: u64,
}

impl SimReport {
    /// Total communication cost under `model`.
    pub fn cost(&self, model: CostModel) -> f64 {
        match model {
            CostModel::Connection => self.connections as f64,
            CostModel::Message { omega } => {
                self.data_messages as f64 + omega * self.control_messages as f64
            }
        }
    }

    /// Mean communication cost per relevant request under `model`.
    ///
    /// An empty run (zero relevant requests) reports a cost of `0.0` by
    /// definition rather than dividing by zero — convenient for the table
    /// formatters, which print every cell unconditionally. Callers that
    /// must distinguish "free" from "empty" (e.g. sweep cells whose grid
    /// produced no requests) should use
    /// [`try_cost_per_request`](Self::try_cost_per_request).
    pub fn cost_per_request(&self, model: CostModel) -> f64 {
        self.try_cost_per_request(model).unwrap_or(0.0)
    }

    /// Mean communication cost per relevant request under `model`, or
    /// `None` for an empty run (zero relevant requests served).
    pub fn try_cost_per_request(&self, model: CostModel) -> Option<f64> {
        let n = self.counts.total();
        if n == 0 {
            None
        } else {
            Some(self.cost(model) / n as f64)
        }
    }

    /// Number of requests the degraded-mode transport shed.
    pub fn shed_requests(&self) -> u64 {
        self.shed.len() as u64
    }

    /// Mean time from partition start to recovery, or `None` if the run
    /// recovered from no partition.
    pub fn mean_time_to_recovery(&self) -> Option<f64> {
        (self.recoveries > 0).then(|| self.recovery_time_sum / self.recoveries as f64)
    }

    /// Mean partition age at which degraded reads were served, or `None`
    /// if no read was served degraded.
    pub fn mean_staleness(&self) -> Option<f64> {
        (self.degraded_reads > 0).then(|| self.staleness_sum / self.degraded_reads as f64)
    }
}

/// Typed outcome for a request the transport refused instead of queueing
/// forever: the request needed the wire while the simulator was degraded —
/// partitioned beyond the ARQ degradation deadline, or mid-migration with
/// a stuck handoff, one aborted at least once (`docs/faults.md`,
/// `docs/topology.md`).
#[derive(Debug, Clone, PartialEq)]
pub struct ShedRequest {
    /// Simulation time at which the request was shed.
    pub at: f64,
    /// The refused request.
    pub request: Request,
    /// Which degradation shed it.
    pub reason: ShedReason,
}

/// Why the transport refused a request instead of queueing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShedReason {
    /// The MC was partitioned beyond the ARQ degradation deadline.
    DegradedPartition,
    /// A cell handoff was stuck: it aborted at least once — past its
    /// deadline, or fenced by a new migration while still in flight — and
    /// had not re-committed. Window ownership was mid-migration, so
    /// wire-needing requests could not be served correctly by either cell.
    HandoffStuck,
}

impl ShedReason {
    /// Stable lower-case name for reports and ledgers.
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::DegradedPartition => "degraded-partition",
            ShedReason::HandoffStuck => "handoff-stuck",
        }
    }
}

/// Online invariant monitor (robustness extension): re-checks the §4
/// safety properties and the billing ledger *during* a run — including
/// faulty and degraded ones — rather than only in `mdr-verify`'s offline
/// state-space search.
///
/// The simulator consults it at every completed request, together with
/// the link's and the handoff's billing identities
/// ([`LinkState::check_billing`], [`HandoffState::check_billing`]), which
/// count their checks here; each panics on violation, so a faulty run that
/// mis-bills or splits the replica state dies loudly at the first bad
/// completion instead of producing a quietly wrong report.
///
/// [`HandoffState::check_billing`]: crate::HandoffState::check_billing
#[derive(Debug, Default, Clone)]
pub struct InvariantMonitor {
    pub(crate) checks: u64,
}

impl InvariantMonitor {
    /// A fresh monitor with zero checks performed.
    pub fn new() -> Self {
        InvariantMonitor::default()
    }

    /// How many invariant checks this monitor has performed.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Single-owner / replica-agreement / freshness checks after a
    /// completed request.
    ///
    /// # Panics
    ///
    /// Panics if the two nodes disagree about the replica, the replica is
    /// stale, or (for window policies) the request window has zero or two
    /// owners.
    pub fn check_completion(
        &mut self,
        policy: PolicySpec,
        protocol: &ProtocolState,
        action: Action,
    ) {
        self.checks += 1;
        let (sc, mc) = (protocol.sc(), protocol.mc());
        assert_eq!(
            sc.mc_has_copy(),
            mc.has_copy(),
            "SC and MC disagree about the replica after {action}"
        );
        if let Some(v) = mc.cached_version() {
            assert_eq!(v, sc.version(), "replica left stale after {action}");
        }
        if matches!(policy, PolicySpec::SlidingWindow { .. }) {
            assert_ne!(
                sc.in_charge(),
                mc.in_charge(),
                "window ownership must live on exactly one side"
            );
        }
    }
}

/// An entry of the event queue. Each layer's single live timer sits in
/// its [`Wakeup`] slot instead, so the queue holds only what can be many:
/// ghost and ghost-bearing deliveries, a second delivery in flight, and
/// handoff legs that land after their flight moved on. All of them are
/// rank-1 protocol events.
#[derive(Debug)]
pub(crate) enum Event {
    /// An envelope reaches its destination. Validity is re-checked at
    /// delivery time ([`ProtocolState::receive`]): faults leave ghost
    /// deliveries in the queue — duplicates, reordered stale copies, and
    /// envelopes a disconnection destroyed — which self-discard against
    /// the protocol's epoch/sequence guards. The payload is the envelope's
    /// [`Ticket`]; the envelope itself stays on the protocol's wire.
    Deliver(Ticket),
    /// A ghost copy the network injected (duplication or stale reordering).
    /// Ghosts are never billed and are only counted as duplicated when they
    /// actually land (a run may end with ghosts still in the air). Ghost
    /// copies carry a copy of the original delivery's ticket.
    GhostDeliver(Ticket),
    /// A handoff leg that lands after its flight moved on: a commit ghost,
    /// a retransmission queued behind the copy in the leg slot, or the
    /// leg of a flight an abort fenced. The epoch fence discards it.
    HandoffLegArrive {
        /// The flight epoch stamped on the leg at send time.
        epoch: u64,
        /// Which of the three legs this is.
        leg: HandoffLeg,
    },
}

/// The timers of which a layer has at most one live at a time, since §3
/// serializes relevant requests. Each has one slot in [`Cx`] holding only
/// its packed key: re-arming overwrites it, so a superseded timer never
/// reaches the run loop, and a fired slot's handler reads what it needs
/// from its layer's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wakeup {
    /// The fault plan severs the link.
    LinkDown,
    /// The outage in progress, injected or declared by ARQ escalation,
    /// ends. A newer outage re-arms it.
    LinkUp,
    /// The ARQ retransmission timer of the outstanding envelope.
    ArqTimeout,
    /// The cellular walk moves the MC to another cell.
    Handoff,
    /// The topology's mobility plan moves the MC to another cell
    /// (mobility extension, `docs/topology.md`).
    Migrate,
    /// The handoff flight's leg in the air lands at its destination SC.
    HandoffLeg,
    /// The retransmission timer of that leg (only armed with the ARQ
    /// transport installed; its timeout law and retry budget govern
    /// backbone legs too).
    HandoffRetry,
    /// The flight's deadline: it aborts and rolls back to the origin cell.
    HandoffDeadline,
}

/// Number of [`Wakeup`] slots.
const WAKEUPS: usize = 8;

impl Wakeup {
    const ALL: [Wakeup; WAKEUPS] = [
        Wakeup::LinkDown,
        Wakeup::LinkUp,
        Wakeup::ArqTimeout,
        Wakeup::Handoff,
        Wakeup::Migrate,
        Wakeup::HandoffLeg,
        Wakeup::HandoffRetry,
        Wakeup::HandoffDeadline,
    ];

    /// Actor rank for same-instant ties, the first tie-break after time
    /// in the packed `(time, actor-id, seq)` key: the network/SC actor (an
    /// injected outage severing the link) resolves first, ordinary
    /// protocol and workload events second, and MC-side timers
    /// (retransmission timers, handoff deadlines) last. This pins the
    /// documented order for the corner where an SC outage and a
    /// simultaneous MC-side event land at the same instant — the outage
    /// wins, deterministically, instead of depending on scheduling order.
    fn rank(self) -> u8 {
        match self {
            Wakeup::LinkDown => 0,
            Wakeup::ArqTimeout | Wakeup::HandoffRetry | Wakeup::HandoffDeadline => 2,
            _ => PROTOCOL_RANK,
        }
    }
}

/// The actor rank of ordinary protocol and workload events — of every
/// queued [`Event`], of the staged arrival and delivery, and of the
/// wakeups that are not timers.
const PROTOCOL_RANK: u8 = 1;

/// The key of a disarmed slot and of an empty queue: above every real
/// key, whose rank field is at most 2.
const NEVER: u128 = u128::MAX;

/// What a layer's handler works against besides its own state: the
/// clock, the future-event list, and the run's counters. The list is the
/// [`Wakeup`] slots, the calendar queue, and the `seq` counter every
/// scheduled event takes its tie-break from, slotted, queued or staged.
pub(crate) struct Cx {
    pub(crate) now: f64,
    queue: CalendarQueue<Event>,
    seq: u64,
    /// Each wakeup's packed key while armed, [`NEVER`] otherwise.
    slots: [u128; WAKEUPS],
    /// The earliest of the armed slots and the queue head, cached so the
    /// run loop compares one key for all of them: its key ([`NEVER`] when
    /// there is none) and its slot, or `None` for the queue head.
    next: (u128, Option<Wakeup>),
    /// The run's counters, kept in the report they end up in: the
    /// handlers count straight into it, and [`Simulation::report`] clones
    /// it and fills in the fields derived from other state.
    pub(crate) tally: SimReport,
}

/// What the cached minimum named when the run loop took it.
enum Due {
    Wakeup(Wakeup),
    Event(Event),
}

impl Cx {
    fn new() -> Self {
        Cx {
            now: 0.0,
            queue: CalendarQueue::new(),
            seq: 0,
            slots: [NEVER; WAKEUPS],
            next: (NEVER, None),
            tally: SimReport::default(),
        }
    }

    /// The [`calendar::pack`]ed key of an event at `at` with `rank`,
    /// under the next `seq`.
    fn key(&mut self, at: f64, rank: u8) -> u128 {
        self.seq += 1;
        calendar::pack((at, rank, self.seq))
    }

    /// Queues `event` at `at` under the next `seq`.
    pub(crate) fn push_event(&mut self, at: f64, event: Event) {
        let key = self.key(at, PROTOCOL_RANK);
        self.queue.push_packed(key, event);
        if key < self.next.0 {
            self.next = (key, None);
        }
    }

    /// Arms `wakeup` at `at` under the next `seq`, superseding the timer
    /// it held, if any.
    pub(crate) fn arm(&mut self, wakeup: Wakeup, at: f64) {
        let key = self.key(at, wakeup.rank());
        self.slots[wakeup as usize] = key;
        if key < self.next.0 {
            self.next = (key, Some(wakeup));
        } else if self.next.1 == Some(wakeup) {
            self.refresh();
        }
    }

    /// Disarms `wakeup`; a no-op if it is not armed.
    pub(crate) fn disarm(&mut self, wakeup: Wakeup) {
        self.slots[wakeup as usize] = NEVER;
        if self.next.1 == Some(wakeup) {
            self.refresh();
        }
    }

    pub(crate) fn is_armed(&self, wakeup: Wakeup) -> bool {
        self.slots[wakeup as usize] != NEVER
    }

    /// Moves armed `wakeup` into the queue as `event` under the same key,
    /// so it still fires, in the same order, once its layer moved on.
    pub(crate) fn demote(&mut self, wakeup: Wakeup, event: Event) {
        let key = std::mem::replace(&mut self.slots[wakeup as usize], NEVER);
        debug_assert_ne!(key, NEVER, "demoted a disarmed wakeup");
        self.queue.push_packed(key, event);
        if self.next.1 == Some(wakeup) {
            self.next.1 = None;
        }
    }

    /// Recomputes the cached minimum from the slots and the queue head.
    fn refresh(&mut self) {
        let mut next = (self.queue.peek_packed().unwrap_or(NEVER), None);
        for wakeup in Wakeup::ALL {
            let key = self.slots[wakeup as usize];
            if key < next.0 {
                next = (key, Some(wakeup));
            }
        }
        self.next = next;
    }

    /// Takes the entry the cached minimum names: disarms its slot or pops
    /// the queue head.
    fn take_next(&mut self) -> Due {
        let due = match self.next.1 {
            Some(wakeup) => {
                self.slots[wakeup as usize] = NEVER;
                Due::Wakeup(wakeup)
            }
            None => {
                let Some((_, event)) = self.queue.pop() else {
                    unreachable!("took a queue head from an empty queue")
                };
                Due::Event(event)
            }
        };
        self.refresh();
        due
    }

    /// Takes the next `seq` for a rank-1 event staged outside the queue at
    /// `at`, returning the [`calendar::pack`]ed key it would have queued
    /// with.
    fn stage(&mut self, at: f64) -> u128 {
        self.key(at, PROTOCOL_RANK)
    }
}

/// Which source holds the earliest pending event: one of the two staged
/// slots, or the wakeup slots and queue behind [`Cx`]'s cached minimum.
#[derive(Clone, Copy)]
enum NextEvent {
    StagedArrival,
    StagedDelivery,
    Cx,
}

/// The simulator. Owns the wireless link and the event queue; each
/// optional layer — the cellular walk, the fault plan, the ARQ transport,
/// the multi-cell topology — owns its own config, RNG stream and state.
pub struct Simulation {
    config: SimConfig,
    /// The wireless link: the protocol transition relation (both nodes,
    /// wire, ledger), the exchange in service or suspended, the owed
    /// handshake and the bill. The event loop adds time, queueing, loss and
    /// partition timing on top.
    link: LinkState<Arrival>,
    /// The per-request reference in oracle mode: a sans-io
    /// [`DecisionCore`] fed the same serialized request order, so every
    /// run doubles as an equivalence test of the decision engine.
    oracle: Option<DecisionCore>,
    cx: Cx,
    /// The next workload arrival, staged outside the queue under its
    /// [`calendar::pack`]ed key (rank 1). At most one future arrival is
    /// known at a time, so arrivals never touch the queue at all: the run
    /// loop picks the earliest of the staged events and [`Cx`]'s cached
    /// minimum.
    staged_arrival: Option<(u128, Arrival)>,
    /// A ghost-free delivery's ticket staged outside the queue, same
    /// scheme. The §3 exchange serialization leaves at most one envelope
    /// in the air, so the fault-free hot path pays no queue round trip
    /// per delivery; ghost-bearing deliveries (and a rare second
    /// in-flight delivery under ARQ retransmission) still go through the
    /// queue.
    staged_delivery: Option<(u128, Ticket)>,
    /// Arrivals waiting for the in-flight exchange to finish.
    pending: VecDeque<Arrival>,
    read_latency_sum: f64,
    reads_completed: u64,
    served: usize,
    /// Absolute request-count target for the current `run` call (serving
    /// stops exactly there, even mid-drain).
    target: usize,
    /// Whether the cellular walk, the topology's mobility plan and the
    /// fault plan have armed their first wakeup (once per simulation, not
    /// per `run` call).
    primed: bool,
    mobility: Option<Mobility>,
    faults: Option<FaultProcess>,
    arq: Option<Arq>,
    /// The multi-cell topology, built only for a plan that migrates.
    topology: Option<Topology>,
    // --- link state, driven by the fault plan and the ARQ transport ---
    link_up: bool,
    /// Kind of the outage in progress, while the link is down.
    outage_kind: Option<FaultKind>,
    /// Whether the workload has no further arrivals to offer (lets the
    /// event loop stop instead of chasing self-perpetuating maintenance
    /// events forever).
    arrivals_done: bool,
    /// Whether the current outage was declared by ARQ escalation rather
    /// than injected by the fault plan.
    declared_down: bool,
    /// When the partition in progress began (set at escalation or, with ARQ
    /// enabled, at an injected link-down; cleared at the first successful
    /// delivery after it).
    partitioned_since: Option<f64>,
    monitor: InvariantMonitor,
}

impl Simulation {
    /// Creates a simulation in the policy's initial state.
    pub fn new(config: SimConfig) -> Self {
        // Every layer's stream head goes through `BatchedF64::new`, which
        // seeds the same SplitMix64-expanded `StdRng` the unbatched
        // simulator used — stream identity is pinned by the ledger-digest
        // regression tests.
        Simulation {
            link: LinkState::new(config.policy, config.arq.map(|arq| arq.retry_budget)),
            oracle: config.oracle_check.then(|| {
                let Ok(core) = DecisionCore::new(config.policy, CostModel::Connection) else {
                    panic!("the simulation config carries a validated policy spec");
                };
                core
            }),
            cx: Cx::new(),
            staged_arrival: None,
            staged_delivery: None,
            pending: VecDeque::new(),
            read_latency_sum: 0.0,
            reads_completed: 0,
            served: 0,
            target: usize::MAX,
            primed: false,
            mobility: config.mobility.clone().map(Mobility::new),
            faults: config.faults.clone().map(FaultProcess::new),
            topology: Topology::new(&config),
            arq: config.arq.map(Arq::new),
            link_up: true,
            outage_kind: None,
            arrivals_done: false,
            declared_down: false,
            partitioned_since: None,
            monitor: InvariantMonitor::new(),
            config,
        }
    }

    /// Fetches the next arrival from the workload and stages it under the
    /// next `seq`, at the exact point the old queue-everything loop
    /// consumed it, so event keys — and therefore tie-breaks and digests —
    /// are unchanged.
    fn stage_next_arrival(&mut self, workload: &mut dyn ArrivalProcess) {
        debug_assert!(self.staged_arrival.is_none(), "one staged arrival");
        match workload.next_arrival() {
            Some(a) => self.staged_arrival = Some((self.cx.stage(a.time), a)),
            None => self.arrivals_done = true,
        }
    }

    /// Processes one arrival: stage its successor first (so service never
    /// starves), then begin service, shed, or queue it.
    fn handle_arrival(&mut self, arrival: Arrival, workload: &mut dyn ArrivalProcess) {
        self.stage_next_arrival(workload);
        if self.can_begin_service(arrival.request) {
            self.begin_service(arrival);
            return;
        }
        // Degraded mode, or a stuck handoff (aborted at least once, by its
        // deadline or by a migration's fence): a wire-needing request is
        // shed with a typed outcome instead of queueing behind a partition
        // or a handoff of unknown length. Reads the MC can serve from its
        // copy still go through (stale, from the origin cell). With a
        // non-empty queue the earlier entries were already shed or are
        // locally servable, so only a would-be queue head is shed and FIFO
        // stays intact.
        let reason = if self.degraded_since().is_some() {
            Some(ShedReason::DegradedPartition)
        } else if self.topology.as_ref().is_some_and(|t| t.state.stuck()) {
            Some(ShedReason::HandoffStuck)
        } else {
            None
        };
        let head = self.pending.is_empty() && self.link.suspended().is_none();
        if let Some(arrival) = self.try_shed(arrival, reason.filter(|_| head)) {
            self.cx.tally.queued_requests += 1;
            self.pending.push_back(arrival);
        }
    }

    /// Carries attempt `attempt` (1 = the original send) of an envelope
    /// the link just sent and billed: schedules its delivery. Under the
    /// ARQ transport the attempt may be lost, and a retransmission timer
    /// is armed behind it.
    fn transmit(&mut self, ticket: Ticket, attempt: u32) {
        debug_assert!(self.link_up, "a transmission while the link is down");
        let cell_extra = self.mobility.as_ref().map_or(0.0, |m| m.cell_extra);
        let arrives = self.cx.now + self.config.latency + cell_extra;
        let Some(arq) = self.arq.as_mut() else {
            self.schedule_delivery(ticket, arrives);
            return;
        };
        let (lost, at) = arq.attempt(self.cx.now, attempt);
        if !lost {
            self.schedule_delivery(ticket, arrives);
        }
        self.cx.arm(Wakeup::ArqTimeout, at);
    }

    /// Schedules the delivery of `ticket` plus any ghost copies
    /// (duplication, stale reordering) a fault plan asks for. Ghost fates
    /// are drawn up front, so a ghost-free delivery can be staged outside
    /// the queue.
    fn schedule_delivery(&mut self, ticket: Ticket, arrives: f64) {
        let ghosts = self
            .faults
            .as_mut()
            .map_or(Ghosts::default(), FaultProcess::ghosts);
        if !(ghosts.duplicate || ghosts.reorder) && self.staged_delivery.is_none() {
            // The common ghost-free case: stage the sole in-flight
            // delivery outside the queue. It is consumed in
            // exact `(time, rank, seq)` order by the run loop's
            // three-way pick, under the very seq it would have queued
            // with — so billing, tie-breaks and digests are unchanged.
            self.staged_delivery = Some((self.cx.stage(arrives), ticket));
            return;
        }
        self.cx.push_event(arrives, Event::Deliver(ticket));
        for at in ghosts.arrivals(arrives, self.config.latency) {
            self.cx.push_event(at, Event::GhostDeliver(ticket));
        }
    }

    /// The retransmission timer of the envelope in the slot fired: the
    /// link retransmits it (budget permitting) or escalates to a declared
    /// disconnection.
    fn handle_arq_timeout(&mut self) {
        match self.link.timeout(&mut self.cx.tally) {
            Timeout::Retransmit { ticket, attempt } => self.transmit(ticket, attempt),
            Timeout::Escalated { attempts } => {
                let Some(arq) = &mut self.arq else {
                    unreachable!("the ARQ timer is armed only under the ARQ transport")
                };
                let probe = arq.probe(attempts);
                self.escalate_partition(probe);
            }
        }
    }

    /// The retry budget is exhausted and the link severed its exchange:
    /// declare the link disconnected, degrade if the partition is old
    /// enough, and probe for the link after `probe`.
    fn escalate_partition(&mut self, probe: f64) {
        self.link_up = false;
        self.declared_down = true;
        // A declared partition behaves like a doze: both sides keep their
        // state; only the wire is gone.
        self.outage_kind = Some(FaultKind::Doze);
        if self.partitioned_since.is_none() {
            self.partitioned_since = Some(self.cx.now);
        }
        if self.degraded_since().is_some() {
            self.degrade_pending();
        }
        self.schedule_link_up(probe);
    }

    /// Arms the link's return after `delay`, superseding any link-up
    /// armed before it.
    fn schedule_link_up(&mut self, delay: f64) {
        self.cx.arm(Wakeup::LinkUp, self.cx.now + delay);
    }

    /// When the partition in progress began, if the ARQ transport is in
    /// degraded mode: partitioned beyond the degradation deadline.
    fn degraded_since(&self) -> Option<f64> {
        let deadline = self.arq.as_ref()?.config.degrade_deadline;
        let since = self.partitioned_since?;
        (!self.link_up && self.cx.now - since >= deadline).then_some(since)
    }

    /// Whether serving `request` requires the wireless link in the current
    /// protocol state (the complement of local reads and silent writes).
    fn needs_wire(&self, request: Request) -> bool {
        let protocol = self.link.protocol();
        match request {
            Request::Read => !protocol.mc().has_copy(),
            Request::Write => protocol.sc().mc_has_copy(),
        }
    }

    /// Sheds a request with a typed outcome: it never enters the schedule,
    /// the ledger, or the oracle.
    fn shed_request(&mut self, arrival: Arrival, reason: ShedReason) {
        self.cx.tally.shed.push(ShedRequest {
            at: self.cx.now,
            request: arrival.request,
            reason,
        });
    }

    /// Sheds `arrival` for `reason`, if there is one and serving the
    /// request needs the wire; hands it back otherwise.
    fn try_shed(&mut self, arrival: Arrival, reason: Option<ShedReason>) -> Option<Arrival> {
        let Some(reason) = reason.filter(|_| self.needs_wire(arrival.request)) else {
            return Some(arrival);
        };
        self.shed_request(arrival, reason);
        None
    }

    /// A degradation just engaged (or deepened): shed every queued request
    /// that needs the wire, for `reason`, so the queue cannot wedge behind
    /// a partition or a handoff of unknown length, then serve what can
    /// complete locally.
    fn shed_wire_needing(&mut self, reason: ShedReason) {
        for arrival in std::mem::take(&mut self.pending) {
            if let Some(arrival) = self.try_shed(arrival, Some(reason)) {
                self.pending.push_back(arrival);
            }
        }
        self.drain_pending();
    }

    /// Degraded mode just engaged (or deepened): shed the suspended
    /// exchange — it needed the wire by construction — and every queued
    /// request that needs the wire, then serve what can complete locally.
    fn degrade_pending(&mut self) {
        if let Some(exchange) = self.link.shed_suspended() {
            self.shed_request(exchange, ShedReason::DegradedPartition);
        }
        self.shed_wire_needing(ShedReason::DegradedPartition);
    }

    /// Runs the protocol over `workload` until `requests` more relevant
    /// requests have been served (or the workload runs dry), returning the
    /// report.
    ///
    /// # Panics
    ///
    /// Panics (in oracle mode) if the distributed execution ever diverges
    /// from the reference policy, or if a protocol invariant (single window
    /// owner, replica freshness) is violated.
    pub fn run(&mut self, workload: &mut dyn ArrivalProcess, requests: usize) -> SimReport {
        self.target = self.served.saturating_add(requests);
        self.arrivals_done = false;
        if !self.primed {
            // Arm the cellular walk, the topology's mobility plan (an inert
            // plan has no layer, so it arms nothing and draws nothing) and
            // the fault plan. Each re-arms itself as it fires.
            self.primed = true;
            if let Some(mobility) = &mut self.mobility {
                mobility.schedule_handoff(&mut self.cx);
            }
            if let Some(topology) = &mut self.topology {
                topology.schedule_migration(&mut self.cx);
            }
            if let Some(faults) = &mut self.faults {
                faults.schedule_link_down(&mut self.cx);
            }
        }
        if self.staged_arrival.is_none() {
            self.stage_next_arrival(workload);
        }
        // Serve what an earlier call left queued at its target.
        self.drain_pending();
        while self.served < self.target {
            // With no arrivals left and nothing in service, the only events
            // remaining are self-perpetuating maintenance (link faults,
            // handoffs) and ghost deliveries: stop instead of chasing them.
            if self.arrivals_done && self.link.idle() && self.pending.is_empty() {
                break;
            }
            // Pick the earliest of the two staged events and the cached
            // minimum of the wakeup slots and the queue head, by their
            // packed `(time, rank, seq)` keys (unique — every event
            // consumed a distinct seq).
            let mut best = (self.cx.next.0, NextEvent::Cx);
            if let Some((key, _)) = self.staged_delivery {
                if key < best.0 {
                    best = (key, NextEvent::StagedDelivery);
                }
            }
            if let Some((key, _)) = self.staged_arrival {
                if key < best.0 {
                    best = (key, NextEvent::StagedArrival);
                }
            }
            let (key, source) = best;
            if key == NEVER {
                break;
            }
            let (at, _, _) = calendar::unpack(key);
            debug_assert!(at >= self.cx.now - 1e-9, "time went backwards");
            self.cx.now = at.max(self.cx.now);
            self.cx.tally.events_processed += 1;
            match source {
                NextEvent::StagedArrival => {
                    let Some((_, arrival)) = self.staged_arrival.take() else {
                        unreachable!("picked a staged arrival that is not there")
                    };
                    self.handle_arrival(arrival, workload);
                }
                NextEvent::StagedDelivery => {
                    let Some((_, ticket)) = self.staged_delivery.take() else {
                        unreachable!("picked a staged delivery that is not there")
                    };
                    self.handle_delivery(ticket);
                }
                NextEvent::Cx => match self.cx.take_next() {
                    Due::Wakeup(wakeup) => self.wake(wakeup),
                    Due::Event(Event::Deliver(ticket)) => self.handle_delivery(ticket),
                    Due::Event(Event::GhostDeliver(ticket)) => {
                        self.cx.tally.duplicated_deliveries += 1;
                        self.handle_delivery(ticket);
                    }
                    Due::Event(Event::HandoffLegArrive { epoch, leg }) => {
                        let cx = &mut self.cx;
                        if self
                            .topology
                            .as_mut()
                            .is_some_and(|t| t.arrive(epoch, leg, cx))
                        {
                            self.drain_pending();
                        }
                    }
                },
            }
        }
        self.report()
    }

    /// Runs the handler of a wakeup that fired. A layer's wakeups are
    /// armed only when the layer exists.
    fn wake(&mut self, wakeup: Wakeup) {
        let cx = &mut self.cx;
        match wakeup {
            Wakeup::LinkDown => {
                if let Some(outage) = self.faults.as_mut().map(FaultProcess::draw_outage) {
                    self.handle_link_down(outage);
                }
            }
            Wakeup::LinkUp => self.handle_link_up(),
            Wakeup::ArqTimeout => self.handle_arq_timeout(),
            Wakeup::Handoff => {
                if let Some(mobility) = &mut self.mobility {
                    mobility.hand_off(cx);
                }
            }
            Wakeup::Migrate => {
                if self.topology.as_mut().is_some_and(|t| t.migrate(cx)) {
                    self.shed_wire_needing(ShedReason::HandoffStuck);
                }
                self.follow_mc();
                if let Some(topology) = &mut self.topology {
                    topology.schedule_migration(&mut self.cx);
                }
            }
            Wakeup::HandoffLeg => {
                if self.topology.as_mut().is_some_and(|t| t.land(cx)) {
                    self.drain_pending();
                }
            }
            Wakeup::HandoffRetry => {
                if let Some(topology) = &mut self.topology {
                    topology.send(cx);
                }
            }
            Wakeup::HandoffDeadline => {
                if let Some(topology) = &mut self.topology {
                    topology.expire(cx);
                    self.shed_wire_needing(ShedReason::HandoffStuck);
                    self.follow_mc();
                }
            }
        }
    }

    /// Ownership follows the MC: away from the owner cell, a fresh flight
    /// sets off toward it. Back in the owner cell nothing is left to
    /// migrate: the stuck degradation ends and the queue drains.
    fn follow_mc(&mut self) {
        let cx = &mut self.cx;
        if self.topology.as_mut().is_some_and(|t| !t.follow(cx)) {
            self.drain_pending();
        }
    }

    /// Runs like [`Simulation::run`] while timing the event loop: returns
    /// the usual deterministic report plus a [`PerfStats`] measurement
    /// (events processed by *this* call, wall time, events/sec). The
    /// report is bit-identical to what `run` produces — wall time never
    /// feeds simulation state, ledgers, or digests.
    pub fn run_timed(
        &mut self,
        workload: &mut dyn ArrivalProcess,
        requests: usize,
    ) -> (SimReport, PerfStats) {
        let before = self.cx.tally.events_processed;
        let watch = Stopwatch::start();
        let report = self.run(workload, requests);
        let stats = watch.stats(self.cx.tally.events_processed - before);
        (report, stats)
    }

    /// Whether a fresh arrival can enter service right now. FIFO order is
    /// sacrosanct (the §3 serialization is what the oracle equivalence is
    /// proved against), so nothing may overtake an in-flight, suspended, or
    /// queued request. During an outage only requests the protocol serves
    /// without the wire may proceed: local reads survive a doze or an SC
    /// outage (not an MC crash), silent writes need a live SC only.
    fn can_begin_service(&self, request: Request) -> bool {
        self.link.accepts() && self.pending.is_empty() && self.request_is_servable(request)
    }

    /// Whether the protocol can accept `request` in its current state:
    /// never during a reconciliation handshake (in flight or owed — the
    /// protocol rejects submissions while recovering), always on a live
    /// link, and during an outage only for the local-read / silent-write
    /// cases `can_begin_service` documents. Shared by the fresh-arrival
    /// gate and the queue drain so neither can overtake a handshake.
    fn request_is_servable(&self, request: Request) -> bool {
        let protocol = self.link.protocol();
        if protocol.recovering() {
            return false;
        }
        // A stuck handoff (aborted at least once, by its deadline or by
        // a migration's fence) blocks wire-needing requests: ownership is
        // mid-migration between cells, so neither SC may run the
        // exchange. Local reads still go through (served stale from the
        // origin cell) and silent writes complete on the MC alone.
        if self.topology.as_ref().is_some_and(|t| t.state.stuck()) && self.needs_wire(request) {
            return false;
        }
        if self.link_up {
            return true;
        }
        match (self.outage_kind, request) {
            (Some(FaultKind::Doze | FaultKind::ScOutage), Request::Read) => {
                protocol.mc().has_copy()
            }
            (
                Some(FaultKind::Doze | FaultKind::CrashVolatile | FaultKind::CrashStable),
                Request::Write,
            ) => !protocol.sc().mc_has_copy(),
            _ => false,
        }
    }

    /// Starts serving one arrival by submitting it to the link. Local
    /// operations complete inline; remote ones put a message on the wire.
    fn begin_service(&mut self, arrival: Arrival) {
        debug_assert!(self.link.serving().is_none());
        match self.link.submit(arrival, &mut self.cx.tally) {
            LinkStep::Completed(arrival, action) => {
                if action == Action::LocalRead {
                    self.reads_completed += 1; // zero added latency
                    if let Some(since) = self.degraded_since() {
                        // Served from the replica while partitioned beyond
                        // the deadline: a degraded, staleness-tracked read.
                        self.cx.tally.degraded_reads += 1;
                        self.cx.tally.staleness_sum += self.cx.now - since;
                    }
                    if self
                        .topology
                        .as_ref()
                        .is_some_and(|t| t.state.serves_stale())
                    {
                        self.cx.tally.stale_reads += 1;
                    }
                }
                self.complete(arrival, action);
            }
            LinkStep::Sent(ticket) => {
                debug_assert!(
                    self.link_up,
                    "wire traffic submitted while the link is down"
                );
                self.transmit(ticket, 1);
            }
            LinkStep::Reconciled(_) => unreachable!("submit never reconciles"),
        }
    }

    /// Handles a scheduled delivery by stepping the link — if the ticket's
    /// envelope is still current. Ghost deliveries (duplicates, stale
    /// reorders, envelopes destroyed by a disconnection) are discarded by
    /// the protocol's epoch/sequence guards.
    fn handle_delivery(&mut self, ticket: Ticket) {
        let Some(step) = self.link.receive(ticket, &mut self.cx.tally) else {
            return;
        };
        if self.arq.is_some() {
            // The envelope got through: its retransmission timer is
            // settled, and any partition in progress has healed.
            self.cx.disarm(Wakeup::ArqTimeout);
            if let Some(since) = self.partitioned_since.take() {
                self.cx.tally.recovery_time_sum += self.cx.now - since;
                self.cx.tally.recoveries += 1;
            }
        }
        match step {
            // The response acknowledges the delivered envelope implicitly;
            // its own timer takes over.
            LinkStep::Sent(response) => self.transmit(response, 1),
            LinkStep::Completed(exchange, action) => {
                if matches!(action, Action::RemoteRead { .. }) {
                    self.read_latency_sum += self.cx.now - exchange.time;
                    self.reads_completed += 1;
                }
                self.complete(exchange, action);
                self.drain_pending();
            }
            LinkStep::Reconciled(suspended) => self.resume_after_outage(suspended),
        }
    }

    /// Serves queued arrivals until one cannot be served in the current
    /// state (or none are left): local reads and silent writes complete
    /// inline and must not stall the queue. Stops at the first unservable
    /// head — e.g. when an ARQ escalation interrupted the reconciliation
    /// handshake, so the protocol is still recovering; the armed link-up
    /// probe re-drains once the handshake settles. Respects the request
    /// target exactly.
    fn drain_pending(&mut self) {
        while self.link.serving().is_none() && self.served < self.target {
            match self.pending.front() {
                Some(&next) if self.request_is_servable(next.request) => {
                    self.pending.pop_front();
                    self.begin_service(next);
                }
                _ => break,
            }
        }
    }

    /// The link goes down for an outage of `kind` lasting `duration`:
    /// destroy everything in flight (suspending a mid-exchange request for
    /// retry), and note a crash's owed reconciliation.
    fn handle_link_down(&mut self, (kind, duration): (FaultKind, f64)) {
        debug_assert!(
            self.link_up || self.declared_down,
            "link-down while already down"
        );
        self.link_up = false;
        // An injected outage supersedes a declared (ARQ) partition in
        // progress; the partition start time is kept for MTTR purposes.
        self.declared_down = false;
        if self.arq.is_some() {
            self.cx.disarm(Wakeup::ArqTimeout);
            if self.partitioned_since.is_none() {
                self.partitioned_since = Some(self.cx.now);
            }
        }
        self.cx.tally.disconnects += 1;
        match kind {
            FaultKind::CrashVolatile | FaultKind::CrashStable => self.cx.tally.mc_crashes += 1,
            FaultKind::ScOutage => self.cx.tally.sc_outages += 1,
            FaultKind::Doze => {}
        }
        self.outage_kind = Some(kind);
        // Resolution order for simultaneous faults is deterministic and
        // documented, matching the event queue's (time, actor-id, seq)
        // tie-break: the network/SC side resolves first — the outage tears
        // the in-flight exchange off the wire — and only then is MC-side
        // crash state (the owed reconciliation, volatile-replica loss)
        // applied. An SC outage landing during an in-flight exchange at
        // the same instant as an MC crash therefore always aborts the
        // exchange before the crash is bookkept, regardless of scheduling
        // order.
        self.link.sever(kind, &mut self.cx.tally);
        if kind == FaultKind::CrashVolatile {
            // The oracle learns of the loss at crash time; the protocol
            // applies it when the handshake starts. No request is served in
            // between, so the two stay equivalent (and the policy hook is
            // idempotent over the gap).
            if let Some(oracle) = &mut self.oracle {
                oracle.on_replica_lost();
            }
        }
        self.schedule_link_up(duration);
    }

    /// The link comes back: the link bumps the epoch (stale deliveries
    /// self-discard from here on), then either runs the owed
    /// reconciliation handshake or service resumes directly.
    fn handle_link_up(&mut self) {
        debug_assert!(!self.link_up, "link-up while already up");
        // Healing a *declared* (ARQ-escalated) partition must not draw a
        // fresh disconnection: the up-period's injected link-down is still
        // armed, and arming it again would replace it with a fresh draw.
        let heals_injected = !self.declared_down;
        self.link_up = true;
        self.declared_down = false;
        self.outage_kind = None;
        let restored = self.link.restore(&mut self.cx.tally);
        if let Some(faults) = self.faults.as_mut().filter(|_| heals_injected) {
            faults.schedule_link_down(&mut self.cx);
        }
        match restored {
            Restored::Handshake(ticket) => self.transmit(ticket, 1),
            Restored::Resume(suspended) => self.resume_after_outage(suspended),
        }
    }

    /// Retries the exchange an outage suspended (if any) and drains the
    /// queue — called at link-up for fault kinds that owe no handshake,
    /// and once the handshake is acknowledged for the ones that do. The
    /// recovery may have changed the allocation state enough that the
    /// retry now completes locally (a propagating write turns silent once
    /// the replica was retracted). A read never does: it became an
    /// exchange because the MC held no replica, and neither an outage nor
    /// a reconciliation installs one, so its latency is tallied when its
    /// response lands.
    fn resume_after_outage(&mut self, suspended: Option<Arrival>) {
        if let Some(exchange) = suspended {
            debug_assert!(
                exchange.request == Request::Write || self.needs_wire(Request::Read),
                "a resumed read would complete without the wire"
            );
            self.begin_service(exchange);
        }
        self.drain_pending();
    }

    /// Records the served request in the schedule (the protocol ledger
    /// already tallied the action) and re-checks all invariants. The
    /// schedule entry is made here, at completion, so shed requests never
    /// appear in it and `schedule.len()` always equals `counts.total()`.
    fn complete(&mut self, arrival: Arrival, action: Action) {
        self.cx.tally.schedule.push(arrival.request);
        self.served += 1;
        self.check_invariants(arrival.request, action);
    }

    fn check_invariants(&mut self, request: Request, action: Action) {
        // Protocol safety: replica agreement, freshness, single window
        // owner — checked online by the monitor, even mid-fault.
        self.monitor
            .check_completion(self.config.policy, self.link.protocol(), action);
        // Ledger consistency: every billed attempt is accounted for, per
        // message class.
        self.link.check_billing(&mut self.monitor, &self.cx.tally);
        // Handoff-ledger consistency (mobility extension). An inert plan
        // has no layer and must reproduce the single-cell run exactly —
        // including the check counter.
        if let Some(topology) = &self.topology {
            topology
                .state
                .check_billing(&mut self.monitor, &self.cx.tally);
        }
        // Oracle equivalence: the distributed protocol must take exactly
        // the action the decision core decides for the same request.
        if let Some(oracle) = &mut self.oracle {
            let decision = oracle.decide(request);
            assert_eq!(
                action, decision.action,
                "distributed execution diverged from the decision core on request {}",
                self.served
            );
            assert_eq!(
                decision.has_copy,
                self.link.protocol().mc().has_copy(),
                "replica state diverged"
            );
        }
    }

    /// The tally plus the fields derived from other state: the protocol
    /// ledger's counts, the clock, the mean read latency and the monitor's
    /// check count.
    fn report(&self) -> SimReport {
        SimReport {
            counts: self.link.protocol().counts(),
            makespan: self.cx.now,
            mean_read_latency: if self.reads_completed == 0 {
                0.0
            } else {
                self.read_latency_sum / self.reads_completed as f64
            },
            invariant_checks: self.monitor.checks(),
            ..self.cx.tally.clone()
        }
    }
}

impl Simulation {
    /// Convenience constructor-and-run: simulate `spec` over a fresh
    /// Poisson workload with default latency and the oracle check on.
    ///
    /// This (with [`Simulation::run_schedule`]) is the uniform
    /// cell-execution signature the sweep engine fans out over.
    pub fn run_poisson(spec: PolicySpec, theta: f64, requests: usize, seed: u64) -> SimReport {
        let mut sim = Simulation::new(SimConfig::defaults(spec));
        let mut workload = crate::workload::PoissonWorkload::from_theta(1.0, theta, seed);
        sim.run(&mut workload, requests)
    }

    /// Convenience constructor-and-run: push an explicit schedule through
    /// the full protocol (near-zero latency so queueing never perturbs the
    /// serialized order).
    pub fn run_schedule(spec: PolicySpec, schedule: &Schedule) -> SimReport {
        let mut config = SimConfig::defaults(spec);
        config.latency = 0.001;
        let mut sim = Simulation::new(config);
        let mut workload = crate::workload::TraceWorkload::new(schedule.clone(), 1.0);
        sim.run(&mut workload, schedule.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimBuilder;
    use mdr_core::run_spec;

    /// Cuts `workload` off at simulation time `end`: the first arrival
    /// after `end` ends the process, so a run stops once the arrivals up to
    /// `end` are served.
    pub(super) struct Until<W> {
        pub(super) workload: W,
        pub(super) end: f64,
    }

    impl<W: ArrivalProcess> ArrivalProcess for Until<W> {
        fn next_arrival(&mut self) -> Option<Arrival> {
            self.workload.next_arrival().filter(|a| a.time <= self.end)
        }
    }

    #[test]
    fn protocol_equals_reference_policy_on_fixed_schedules() {
        let schedules = ["rrrwwwrrr", "rwrwrwrwrw", "wwwwwrrrrrwwwww", "r", "w", ""];
        for spec in PolicySpec::roster(&[1, 3, 5, 9], &[1, 2, 4]) {
            for s in schedules {
                let sched: Schedule = s.parse().unwrap();
                let report = Simulation::run_schedule(spec, &sched);
                let reference = run_spec(spec, &sched, CostModel::Connection);
                assert_eq!(report.counts, reference.counts, "{spec} on {s}");
                assert_eq!(report.cost(CostModel::Connection), reference.total_cost);
                for omega in [0.0, 0.3, 1.0] {
                    let model = CostModel::message(omega);
                    let reference = run_spec(spec, &sched, model);
                    assert!(
                        (report.cost(model) - reference.total_cost).abs() < 1e-9,
                        "{spec} on {s} at ω={omega}"
                    );
                }
            }
        }
    }

    #[test]
    fn protocol_equals_reference_on_poisson_workloads() {
        for spec in PolicySpec::roster(&[1, 7], &[3]) {
            for theta in [0.2, 0.5, 0.8] {
                // oracle_check is on by default: the run itself asserts
                // step-by-step equivalence.
                let report = Simulation::run_poisson(spec, theta, 2_000, 99);
                assert_eq!(report.counts.total(), 2_000);
            }
        }
    }

    #[test]
    fn empirical_cost_matches_analytic_exp() {
        // SW5 at θ = 0.3 in the connection model, 60k requests: the
        // per-request cost must approach Eq. 5.
        let report = Simulation::run_poisson(PolicySpec::SlidingWindow { k: 5 }, 0.3, 60_000, 7);
        let measured = report.cost_per_request(CostModel::Connection);
        // π_5(0.3) = P(Bin(5, 0.3) ≤ 2).
        let pi = (0..=2)
            .map(|j| {
                let c = [1.0, 5.0, 10.0][j];
                c * 0.3f64.powi(j as i32) * 0.7f64.powi(5 - j as i32)
            })
            .sum::<f64>();
        let analytic = 0.3 * pi + 0.7 * (1.0 - pi);
        assert!(
            (measured - analytic).abs() < 0.01,
            "{measured} vs {analytic}"
        );
    }

    #[test]
    fn makespan_and_latency_grow_with_link_latency() {
        let sched: Schedule = "rwrwrwrwrw".parse().unwrap();
        let run = |latency: f64| {
            let mut sim = SimBuilder::new(PolicySpec::St1)
                .and_then(|b| b.latency(latency))
                .unwrap()
                .simulation();
            let mut w = crate::workload::TraceWorkload::new(sched.clone(), 1.0);
            sim.run(&mut w, sched.len())
        };
        let fast = run(0.0);
        let slow = run(0.4);
        assert!(slow.mean_read_latency > fast.mean_read_latency);
        assert!(slow.makespan >= fast.makespan);
        // ST1 remote read costs a round trip.
        assert!((slow.mean_read_latency - 0.8).abs() < 1e-9);
    }

    #[test]
    fn queueing_happens_when_arrivals_outpace_the_link() {
        // Requests every 0.1 time units, round trip 2×0.3: reads must queue.
        let sched = Schedule::all_reads(50);
        let mut sim = SimBuilder::new(PolicySpec::St1)
            .and_then(|b| b.latency(0.3))
            .unwrap()
            .simulation();
        let mut w = crate::workload::TraceWorkload::new(sched, 0.1);
        let report = sim.run(&mut w, 50);
        assert!(report.queued_requests > 0);
        assert_eq!(report.counts.total(), 50);
        // Serialization keeps the cost exactly reads × 1 connection.
        assert_eq!(report.cost(CostModel::Connection), 50.0);
    }

    #[test]
    fn time_limit_stops_the_run() {
        let mut sim = SimBuilder::new(PolicySpec::St2).unwrap().simulation();
        let mut w = Until {
            workload: crate::workload::PoissonWorkload::from_theta(10.0, 0.5, 3),
            end: 5.0,
        };
        let report = sim.run(&mut w, usize::MAX);
        // ≈ 50 expected arrivals; generous envelope.
        let n = report.counts.total();
        assert!(n > 10 && n < 150, "{n}");
        assert!(report.makespan <= 5.0 + 1.0, "{}", report.makespan);
    }

    #[test]
    fn message_counts_split_by_class() {
        // SW1 on r,w,r,w…: each read = 1 control + 1 data; each write = 1
        // control (delete-request).
        let sched = Schedule::alternating(Request::Read, 20);
        let report = Simulation::run_schedule(PolicySpec::SlidingWindow { k: 1 }, &sched);
        assert_eq!(report.data_messages, 10);
        assert_eq!(report.control_messages, 20);
        assert_eq!(report.cost(CostModel::message(0.5)), 10.0 + 0.5 * 20.0);
    }

    #[test]
    fn report_costs_are_consistent_with_counts() {
        let report = Simulation::run_poisson(PolicySpec::SlidingWindow { k: 3 }, 0.5, 3_000, 21);
        assert_eq!(report.data_messages, report.counts.data_messages());
        assert_eq!(report.control_messages, report.counts.control_messages());
        assert_eq!(report.connections, report.counts.connections());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Simulation::run_poisson(PolicySpec::SlidingWindow { k: 9 }, 0.4, 5_000, 1234);
        let b = Simulation::run_poisson(PolicySpec::SlidingWindow { k: 9 }, 0.4, 5_000, 1234);
        assert_eq!(a, b);
    }

    #[test]
    fn config_equality_discriminates_every_field() {
        // `SimConfig`'s hand-written `PartialEq` must notice a change in
        // any single field — a comparison that short-circuits true would
        // let the sweep engine conflate distinct runs.
        let base = || SimConfig {
            policy: PolicySpec::St1,
            latency: 0.1,
            oracle_check: true,
            arq: None,
            mobility: None,
            faults: None,
            topology: None,
        };
        assert_eq!(base(), base());
        let mut c = base();
        c.policy = PolicySpec::St2;
        assert_ne!(base(), c);
        let mut c = base();
        c.latency = 0.2;
        assert_ne!(base(), c);
        let mut c = base();
        c.oracle_check = false;
        assert_ne!(base(), c);
        let mut c = base();
        c.arq = Some(ArqConfig::new(0.1, 0.05, 1).unwrap());
        assert_ne!(base(), c);
        let mut c = base();
        c.mobility = Some(MobilityConfig {
            cell_extra_latency: vec![0.0],
            handoff_rate: 0.5,
            seed: 3,
        });
        assert_ne!(base(), c);
        let mut c = base();
        c.faults = Some(FaultPlan::new(0.05, 2.0, 3).unwrap());
        assert_ne!(base(), c);
        let mut c = base();
        c.topology = Some(TopologyConfig::new(3, 0.5, 2.0, 7).unwrap());
        assert_ne!(base(), c);
    }

    #[test]
    fn mobility_config_equality_discriminates_every_field() {
        let base = || MobilityConfig {
            cell_extra_latency: vec![0.0, 0.1],
            handoff_rate: 0.5,
            seed: 3,
        };
        assert_eq!(base(), base());
        let mut m = base();
        m.cell_extra_latency = vec![0.0, 0.2];
        assert_ne!(base(), m);
        let mut m = base();
        m.cell_extra_latency = vec![0.0];
        assert_ne!(base(), m);
        let mut m = base();
        m.handoff_rate = 0.7;
        assert_ne!(base(), m);
        let mut m = base();
        m.seed = 4;
        assert_ne!(base(), m);
    }

    /// `run` serves `requests` *more* requests: splitting one run into
    /// two calls serves the same requests at the same times, so the
    /// reports are equal as a whole. A second call must not arm the walks
    /// again (two chains would run), must serve what the first left
    /// queued at its target, and must keep the arrival it staged.
    #[test]
    fn a_run_split_in_two_calls_equals_one_run() {
        fn arq() -> ArqConfig {
            ArqConfig::new(0.3, 0.05, 5)
                .and_then(|a| a.with_retry_budget(2))
                .and_then(|a| a.with_degrade_deadline(0.5))
                .unwrap()
        }
        fn faults() -> FaultPlan {
            FaultPlan::new(0.05, 2.0, 3)
                .and_then(|p| p.with_crashes(0.4, 0.6))
                .and_then(|p| p.with_sc_outages(0.2))
                .and_then(|p| p.with_duplication(0.05, 0.05))
                .unwrap()
        }
        fn topology() -> TopologyConfig {
            TopologyConfig::new(3, 0.8, 0.5, 7)
                .and_then(|t| t.with_loss(0.3))
                .and_then(|t| t.with_commit_ghosts(0.2, 0.2))
                .unwrap()
        }
        let builders: [fn(SimBuilder) -> Result<SimBuilder, crate::ConfigError>; 6] = [
            |b| b.latency(0.3),
            |b| b.faults(faults()),
            |b| b.arq(arq()),
            |b| b.mobility(vec![0.0, 0.05, 0.2], 0.5, 9),
            |b| b.topology(topology()),
            |b| {
                b.faults(faults())
                    .and_then(|b| b.arq(arq()))
                    .and_then(|b| b.topology(topology()))
            },
        ];
        for (i, build) in builders.iter().enumerate() {
            for seed in 0..8u64 {
                let config = SimBuilder::new(PolicySpec::St1)
                    .and_then(|b| b.latency(0.05))
                    .and_then(build)
                    .unwrap()
                    .build();
                let workload = || crate::workload::PoissonWorkload::from_theta(2.0, 0.4, seed);
                let first = 20 + (37 * seed as usize) % 300;
                let whole = Simulation::new(config.clone()).run(&mut workload(), 600);
                let mut sim = Simulation::new(config);
                let mut w = workload();
                sim.run(&mut w, first);
                let split = sim.run(&mut w, 600 - first);
                assert_eq!(split, whole, "config {i}, seed {seed}, cut at {first}");
                assert_eq!(whole.counts.total(), 600, "config {i}, seed {seed}");
            }
        }
    }

    #[test]
    fn invariant_monitor_counts_handoff_billing_checks() {
        // The monitor's check tally feeds `SimReport::invariant_checks`;
        // a handoff-billing check that forgets to count itself would
        // under-report the run's online coverage.
        let topology = TopologyConfig::new(2, 1.0, 1.0, 0).unwrap();
        let state = crate::HandoffState::new(&topology, None);
        let mut monitor = InvariantMonitor::new();
        let mut tally = SimReport::default();
        assert_eq!(monitor.checks(), 0);
        state.check_billing(&mut monitor, &tally);
        assert_eq!(monitor.checks(), 1);
        tally.handoff_messages = 7;
        tally.settled_handoff_messages = 4;
        tally.aborted_handoff_messages = 3;
        state.check_billing(&mut monitor, &tally);
        assert_eq!(monitor.checks(), 2);
    }
}

#[cfg(test)]
mod loss_tests {
    //! The lossy link is the ARQ transport with a retry budget no run
    //! exhausts: every loss is repaired by a timed retransmission, so the
    //! protocol's actions never change and only the bill and the timing
    //! do.

    use super::*;
    use crate::faults::ConfigError;
    use crate::SimBuilder;
    use mdr_core::run_spec;

    fn lossy_run(loss: f64, seed: u64) -> SimReport {
        let spec = PolicySpec::SlidingWindow { k: 5 };
        let arq = ArqConfig::new(loss, 0.05, seed)
            .and_then(|a| a.with_retry_budget(u32::MAX))
            .unwrap();
        let mut sim = SimBuilder::new(spec)
            .and_then(|b| b.arq(arq))
            .unwrap()
            .simulation();
        let mut workload = crate::workload::PoissonWorkload::from_theta(1.0, 0.4, 99);
        let report = sim.run(&mut workload, 8_000);
        assert_eq!(report.retry_escalations, 0, "the budget is never spent");
        report
    }

    #[test]
    fn zero_loss_is_identical_to_the_lossless_link() {
        let lossless = {
            let mut sim = SimBuilder::new(PolicySpec::SlidingWindow { k: 5 })
                .unwrap()
                .simulation();
            let mut w = crate::workload::PoissonWorkload::from_theta(1.0, 0.4, 99);
            sim.run(&mut w, 8_000)
        };
        let zero = lossy_run(0.0, 1);
        assert_eq!(zero.schedule, lossless.schedule);
        assert_eq!(zero.counts, lossless.counts);
        assert_eq!(zero.data_messages, lossless.data_messages);
        assert_eq!(zero.retransmissions, 0);
        // The protocol's own traffic is identical; ARQ adds its acks.
        assert_eq!(
            zero.control_messages - zero.arq_acks,
            lossless.control_messages
        );
    }

    #[test]
    fn loss_inflates_the_bill_without_changing_actions() {
        // The oracle check stays on: actions must match the reference
        // policy exactly even on a lossy link.
        let lossy = lossy_run(0.3, 7);
        let spec = PolicySpec::SlidingWindow { k: 5 };
        let reference = run_spec(spec, &lossy.schedule, CostModel::Connection);
        assert_eq!(lossy.counts, reference.counts, "actions unchanged by loss");
        assert!(lossy.retransmissions > 0);
        // Bill inflation ≈ 1/(1 − p): each transmission succeeds with
        // probability 0.7, so attempts per message average 1/0.7. The
        // acks, one per exchange at any loss rate, are not the
        // protocol's traffic and stay out of the ratio.
        let base = (lossy.counts.data_messages() + lossy.counts.control_messages()) as f64;
        let billed = (lossy.data_messages + lossy.control_messages - lossy.arq_acks) as f64;
        let inflation = billed / base;
        assert!(
            (inflation - 1.0 / 0.7).abs() < 0.05,
            "inflation {inflation} vs expected {:.4}",
            1.0 / 0.7
        );
    }

    #[test]
    fn retransmissions_add_latency() {
        let lossless = lossy_run(0.0, 3);
        let lossy = lossy_run(0.5, 3);
        assert!(lossy.mean_read_latency > lossless.mean_read_latency);
    }

    #[test]
    fn loss_model_is_deterministic_per_seed() {
        let a = lossy_run(0.4, 11);
        let b = lossy_run(0.4, 11);
        assert_eq!(a, b);
        let c = lossy_run(0.4, 12);
        assert_ne!(a.retransmissions, c.retransmissions);
    }

    #[test]
    fn invalid_loss_parameters_are_rejected() {
        // A loss probability of exactly 1 is legal: the retry budget
        // bounds every retransmission loop.
        assert!(ArqConfig::new(1.0, 0.1, 0).is_ok());
        assert_eq!(
            ArqConfig::new(1.5, 0.1, 0).unwrap_err(),
            ConfigError::Probability {
                what: "ARQ loss probability",
                value: 1.5
            }
        );
        assert_eq!(
            ArqConfig::new(-0.1, 0.1, 0).unwrap_err(),
            ConfigError::Probability {
                what: "ARQ loss probability",
                value: -0.1
            }
        );
        assert_eq!(
            ArqConfig::new(0.3, 0.0, 0).unwrap_err(),
            ConfigError::RetryTimeout { value: 0.0 }
        );
        assert!(matches!(
            ArqConfig::new(f64::NAN, 0.1, 0).unwrap_err(),
            ConfigError::Probability { .. }
        ));
        // The error is a value, not a panic: it displays its cause.
        let err = ArqConfig::new(1.5, 0.1, 0).unwrap_err();
        assert!(err.to_string().contains("loss probability"), "{err}");
    }
}

#[cfg(test)]
mod mobility_tests {
    use super::*;
    use crate::faults::ConfigError;
    use crate::SimBuilder;

    fn mobile_run(mobility: bool, seed: u64) -> SimReport {
        let spec = PolicySpec::SlidingWindow { k: 5 };
        let mut builder = SimBuilder::new(spec).and_then(|b| b.latency(0.02)).unwrap();
        if mobility {
            // Three cells: a fast downtown microcell, a mid suburb, and a
            // slow rural macrocell.
            builder = builder.mobility(vec![0.0, 0.05, 0.2], 0.5, seed).unwrap();
        }
        let mut sim = builder.simulation();
        let mut workload = crate::workload::PoissonWorkload::from_theta(1.0, 0.4, 4242);
        sim.run(&mut workload, 6_000)
    }

    #[test]
    fn mobility_never_changes_cost() {
        // §1: the stationary computer "does not change when the mobile
        // computer moves from cell to cell" — so neither does the bill.
        let fixed = mobile_run(false, 0);
        let roaming = mobile_run(true, 9);
        assert_eq!(fixed.counts, roaming.counts);
        assert_eq!(
            fixed.cost(CostModel::message(0.5)),
            roaming.cost(CostModel::message(0.5))
        );
        assert_eq!(
            fixed.cost(CostModel::Connection),
            roaming.cost(CostModel::Connection)
        );
    }

    #[test]
    fn mobility_changes_latency_and_counts_handoffs() {
        let fixed = mobile_run(false, 0);
        let roaming = mobile_run(true, 9);
        assert!(
            roaming.handoffs > 100,
            "dwell 2 time units over a ~6000-unit run"
        );
        assert!(roaming.mean_read_latency > fixed.mean_read_latency);
        assert_eq!(fixed.handoffs, 0);
    }

    #[test]
    fn mobility_is_deterministic_per_seed() {
        let a = mobile_run(true, 5);
        let b = mobile_run(true, 5);
        assert_eq!(a, b);
        let c = mobile_run(true, 6);
        assert_ne!(a.handoffs, c.handoffs);
    }

    #[test]
    fn handoff_always_moves_to_a_different_cell() {
        // With two cells the MC must alternate; verified indirectly via the
        // latency mix: both cells' latencies must appear.
        let spec = PolicySpec::St1;
        let mut sim = SimBuilder::new(spec)
            .and_then(|b| b.latency(0.0))
            .and_then(|b| b.mobility(vec![0.0, 1.0], 5.0, 3))
            .unwrap()
            .simulation();
        let mut workload = crate::workload::PoissonWorkload::from_theta(0.2, 0.0, 7);
        let report = sim.run(&mut workload, 400);
        // All requests are reads (θ = 0); mean read latency is a mix of
        // 2·0.0 and 2·1.0 round trips — strictly between the extremes.
        assert!(report.mean_read_latency > 0.1 && report.mean_read_latency < 1.9);
        assert!(report.handoffs > 50);
    }

    #[test]
    fn invalid_mobility_parameters_are_rejected() {
        let spec = PolicySpec::St1;
        let fresh = || SimBuilder::new(spec).unwrap();
        assert_eq!(
            fresh().mobility(vec![], 1.0, 0).unwrap_err(),
            ConfigError::NoCells
        );
        assert_eq!(
            fresh().mobility(vec![0.1, -0.2], 1.0, 0).unwrap_err(),
            ConfigError::CellLatency { value: -0.2 }
        );
        assert_eq!(
            fresh().mobility(vec![0.1], 0.0, 0).unwrap_err(),
            ConfigError::HandoffRate { value: 0.0 }
        );
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::SimBuilder;
    use mdr_core::run_spec;

    fn faulty_config(spec: PolicySpec, rate: f64, seed: u64) -> SimConfig {
        let plan = FaultPlan::new(rate, 2.0, seed)
            .and_then(|p| p.with_crashes(0.4, 0.6))
            .and_then(|p| p.with_sc_outages(0.2))
            .and_then(|p| p.with_duplication(0.05, 0.05))
            .unwrap();
        SimBuilder::new(spec)
            .and_then(|b| b.faults(plan))
            .unwrap()
            .build()
    }

    fn faulty_run(spec: PolicySpec, rate: f64, seed: u64, n: usize) -> SimReport {
        let mut sim = Simulation::new(faulty_config(spec, rate, seed));
        let mut w = crate::workload::PoissonWorkload::from_theta(1.0, 0.4, 4711);
        sim.run(&mut w, n)
    }

    #[test]
    fn fault_schedules_are_deterministic() {
        // Acceptance criterion: identical (FaultPlan, seed) configurations
        // produce byte-identical reports — cost ledger included.
        let a = faulty_run(PolicySpec::SlidingWindow { k: 3 }, 0.05, 1, 4_000);
        let b = faulty_run(PolicySpec::SlidingWindow { k: 3 }, 0.05, 1, 4_000);
        assert_eq!(a, b);
        assert!(a.disconnects > 0);
        assert!(a.mc_crashes > 0);
        assert!(a.sc_outages > 0);
        // A different fault seed produces a different fault history.
        let c = faulty_run(PolicySpec::SlidingWindow { k: 3 }, 0.05, 2, 4_000);
        assert_ne!(a.disconnects, c.disconnects);
    }

    #[test]
    fn doze_outages_change_the_bill_but_not_the_actions() {
        // Pure dozes: no crashes, so the ledger must replay exactly against
        // the reference policy; only wasted (aborted) traffic is added.
        let plan = FaultPlan::new(0.05, 2.0, 3).unwrap();
        let spec = PolicySpec::SlidingWindow { k: 5 };
        let mut sim = SimBuilder::new(spec)
            .and_then(|b| b.faults(plan))
            .unwrap()
            .simulation();
        let mut w = crate::workload::PoissonWorkload::from_theta(1.0, 0.4, 99);
        let report = sim.run(&mut w, 6_000);
        assert_eq!(report.counts.total(), 6_000);
        assert!(report.disconnects > 0);
        assert_eq!(report.mc_crashes, 0);
        assert_eq!(report.reconciliations, 0);
        let reference = run_spec(spec, &report.schedule, CostModel::Connection);
        assert_eq!(
            report.counts, reference.counts,
            "actions unchanged by dozes"
        );
        // Aborted attempts inflate the bill beyond the ledger-derived count.
        let billed = report.data_messages + report.control_messages;
        let ledger = report.counts.data_messages() + report.counts.control_messages();
        assert_eq!(billed, ledger + report.aborted_messages);
        assert!(report.aborted_messages > 0);
        assert!(report.connections > report.counts.connections());
    }

    #[test]
    fn crash_recovery_keeps_the_oracle_equivalence() {
        // oracle_check is on by default: every completion asserts action and
        // replica-state equivalence with the reference policy, across
        // volatile/stable crashes, SC outages and reconciliations.
        for spec in PolicySpec::roster(&[1, 3], &[2]) {
            let report = faulty_run(spec, 0.08, 5, 5_000);
            assert_eq!(report.counts.total(), 5_000, "{spec}");
            assert!(report.mc_crashes > 0, "{spec}");
            assert!(report.reconciliations > 0, "{spec}");
            assert!(report.reconciliation_messages > 0, "{spec}");
        }
    }

    #[test]
    fn duplicates_and_reorders_are_discarded_without_billing() {
        let spec = PolicySpec::SlidingWindow { k: 3 };
        let run_with = |faults: Option<FaultPlan>| {
            let mut builder = SimBuilder::new(spec).unwrap();
            if let Some(plan) = faults {
                builder = builder.faults(plan).unwrap();
            }
            let mut sim = builder.simulation();
            let mut w = crate::workload::PoissonWorkload::from_theta(1.0, 0.4, 77);
            sim.run(&mut w, 5_000)
        };
        let clean = run_with(None);
        let plan = FaultPlan::new(0.0, 1.0, 8)
            .and_then(|p| p.with_duplication(0.3, 0.2))
            .unwrap();
        let noisy = run_with(Some(plan));
        // Ghost deliveries change nothing observable but the fault counters:
        // schedule, ledger, bill and connections are identical.
        assert_eq!(noisy.schedule, clean.schedule);
        assert_eq!(noisy.counts, clean.counts);
        assert_eq!(noisy.data_messages, clean.data_messages);
        assert_eq!(noisy.control_messages, clean.control_messages);
        assert_eq!(noisy.connections, clean.connections);
        assert!(noisy.duplicated_deliveries > 0);
        assert_eq!(noisy.discarded_deliveries, noisy.duplicated_deliveries);
    }

    #[test]
    fn an_inactive_fault_plan_is_identical_to_no_faults() {
        let spec = PolicySpec::T1 { m: 2 };
        let clean = {
            let mut sim = SimBuilder::new(spec).unwrap().simulation();
            let mut w = crate::workload::PoissonWorkload::from_theta(1.0, 0.5, 31);
            sim.run(&mut w, 3_000)
        };
        let inert = {
            let plan = FaultPlan::new(0.0, 1.0, 5).unwrap();
            let mut sim = SimBuilder::new(spec)
                .and_then(|b| b.faults(plan))
                .unwrap()
                .simulation();
            let mut w = crate::workload::PoissonWorkload::from_theta(1.0, 0.5, 31);
            sim.run(&mut w, 3_000)
        };
        assert_eq!(clean, inert);
        assert_eq!(inert.disconnects, 0);
    }

    #[test]
    fn time_limited_runs_terminate_under_faults() {
        // Link faults self-perpetuate; the run must still stop once the
        // workload is exhausted and nothing is in service.
        let mut sim = Simulation::new(faulty_config(PolicySpec::St2, 0.1, 9));
        let mut w = super::tests::Until {
            workload: crate::workload::PoissonWorkload::from_theta(5.0, 0.5, 17),
            end: 50.0,
        };
        let report = sim.run(&mut w, usize::MAX);
        let n = report.counts.total();
        assert!(n > 50, "{n}");
        assert!(report.makespan < 500.0, "{}", report.makespan);
    }

    #[test]
    fn faults_under_the_message_cost_model_stay_equivalent() {
        // Cost model only affects pricing, but exercise SW1's delete-request
        // optimization (the paper's ω-sensitive path) under crashes too.
        let report = faulty_run(PolicySpec::SlidingWindow { k: 1 }, 0.06, 13, 4_000);
        assert_eq!(report.counts.total(), 4_000);
        assert!(report.cost(CostModel::message(0.5)) > 0.0);
        assert!(report.mc_crashes > 0);
    }
}

#[cfg(test)]
mod arq_tests {
    use super::*;
    use crate::SimBuilder;
    use mdr_core::run_spec;

    fn arq_sim(spec: PolicySpec, arq: ArqConfig) -> Simulation {
        SimBuilder::new(spec)
            .and_then(|b| b.arq(arq))
            .unwrap()
            .simulation()
    }

    fn arq_run(spec: PolicySpec, arq: ArqConfig, n: usize) -> SimReport {
        let mut sim = arq_sim(spec, arq);
        let mut w = crate::workload::PoissonWorkload::from_theta(1.0, 0.4, 2024);
        sim.run(&mut w, n)
    }

    #[test]
    fn zero_loss_arq_changes_only_the_ack_traffic() {
        let lossless = {
            let mut sim = SimBuilder::new(PolicySpec::SlidingWindow { k: 5 })
                .unwrap()
                .simulation();
            let mut w = crate::workload::PoissonWorkload::from_theta(1.0, 0.4, 2024);
            sim.run(&mut w, 4_000)
        };
        let arq = ArqConfig::new(0.0, 1.0, 5).unwrap();
        let report = arq_run(PolicySpec::SlidingWindow { k: 5 }, arq, 4_000);
        // Same serialized order, same protocol actions, same data traffic.
        assert_eq!(report.schedule, lossless.schedule);
        assert_eq!(report.counts, lossless.counts);
        assert_eq!(report.data_messages, lossless.data_messages);
        assert_eq!(report.retransmissions, 0);
        assert_eq!(report.retry_escalations, 0);
        // The only addition: one explicit control-class ack per exchange
        // that nothing answers implicitly.
        assert!(report.arq_acks > 0);
        assert_eq!(
            report.control_messages,
            lossless.control_messages + report.arq_acks
        );
    }

    #[test]
    fn every_retransmission_redials_in_the_connection_tally() {
        // With pure ARQ loss (no faults, no topology, budget deep enough
        // that nothing escalates), the only extra connections a run can
        // accrue are retransmission re-dials — exactly one per
        // retransmitted attempt. Pins the connection-model billing of
        // the retry path.
        let arq = ArqConfig::new(0.5, 0.05, 17)
            .and_then(|a| a.with_retry_budget(30))
            .unwrap();
        let report = arq_run(PolicySpec::St2, arq, 300);
        assert!(report.retransmissions > 0, "loss must force retries");
        assert_eq!(report.retry_escalations, 0, "budget 30 never escalates");
        assert_eq!(
            report.connections,
            report.counts.connections() + report.retransmissions,
            "one re-dialed connection per retransmission, no more, no less"
        );
    }

    #[test]
    fn timed_retransmission_repairs_loss_without_changing_actions() {
        let spec = PolicySpec::SlidingWindow { k: 5 };
        let arq = ArqConfig::new(0.3, 0.05, 9)
            .and_then(|a| a.with_retry_budget(12))
            .unwrap();
        // The oracle check stays on: actions must match the reference
        // policy exactly even when every envelope plays the timeout game.
        let report = arq_run(spec, arq, 5_000);
        assert_eq!(report.counts.total(), 5_000);
        assert!(report.retransmissions > 0);
        let reference = run_spec(spec, &report.schedule, CostModel::Connection);
        assert_eq!(report.counts, reference.counts, "actions unchanged by ARQ");
    }

    /// Satellite: ω = 0 and ω = 1 ARQ runs satisfy the same closed-form
    /// billing identities as the fault-free path — every billed attempt is
    /// ledger traffic, a settled retransmission, aborted traffic,
    /// reconciliation traffic, or an ack; the cost models price exactly
    /// those buckets.
    #[test]
    fn billing_identities_hold_at_omega_extremes() {
        let arq = ArqConfig::new(0.25, 0.04, 3)
            .and_then(|a| a.with_backoff(2.0, 0.3))
            .unwrap();
        let report = arq_run(PolicySpec::SlidingWindow { k: 3 }, arq, 6_000);
        let billed = report.data_messages + report.control_messages;
        let ledger = report.counts.data_messages() + report.counts.control_messages();
        assert_eq!(
            billed,
            ledger
                + report.settled_retransmissions
                + report.aborted_messages
                + report.reconciliation_messages
                + report.arq_acks
        );
        // ω = 0: only data messages are priced; ω = 1: every message is.
        assert!((report.cost(CostModel::message(0.0)) - report.data_messages as f64).abs() < 1e-9);
        assert!((report.cost(CostModel::message(1.0)) - billed as f64).abs() < 1e-9);
        // The run performed online checks at every completion.
        assert!(report.invariant_checks >= 2 * 6_000);
    }

    /// Satellite (bugfix regression): a link at 100 % loss must not spin
    /// the event loop. The run terminates with typed shed outcomes and
    /// degraded reads, and the ledger stays finite and consistent.
    #[test]
    fn total_loss_terminates_with_shed_and_degraded_outcomes() {
        let arq = ArqConfig::new(1.0, 0.05, 1)
            .and_then(|a| a.with_retry_budget(3))
            .and_then(|a| a.with_degrade_deadline(1.0))
            .unwrap();
        // ST2 statically replicates at the MC: reads stay local through the
        // partition (degraded once past the deadline), writes need the wire
        // and are shed.
        let mut sim = arq_sim(PolicySpec::St2, arq);
        let sched = Schedule::alternating(Request::Read, 400);
        let mut w = crate::workload::TraceWorkload::new(sched, 0.05);
        let report = sim.run(&mut w, 400);
        assert!(report.retry_escalations >= 1);
        assert!(report.shed_requests() > 0, "writes must be shed");
        assert!(report.degraded_reads > 0, "reads must degrade, not block");
        assert!(report.staleness_sum > 0.0);
        // Nothing shed ever reached the schedule, the ledger, or the bill
        // as protocol traffic; what was billed is fully accounted for.
        assert_eq!(report.schedule.len() as u64, report.counts.total());
        let billed = report.data_messages + report.control_messages;
        let ledger = report.counts.data_messages() + report.counts.control_messages();
        assert_eq!(
            billed,
            ledger + report.settled_retransmissions + report.aborted_messages
        );
        assert_eq!(report.recoveries, 0, "a dead link never recovers");
        // Every request was either served or shed.
        assert_eq!(report.counts.total() + report.shed_requests(), 400);
    }

    #[test]
    fn escalation_feeds_the_reconnect_path_and_recovers() {
        // Budget 1 at 60 % loss: escalations are common, but the link is
        // not dead, so every declared partition eventually heals and every
        // request is served.
        let spec = PolicySpec::SlidingWindow { k: 3 };
        let arq = ArqConfig::new(0.6, 0.02, 17)
            .and_then(|a| a.with_retry_budget(1))
            .and_then(|a| a.with_degrade_deadline(1_000_000.0))
            .unwrap();
        let report = arq_run(spec, arq, 3_000);
        assert_eq!(report.counts.total(), 3_000);
        assert_eq!(report.shed_requests(), 0, "deadline far away: nothing shed");
        assert!(report.retry_escalations > 0);
        assert!(report.recoveries > 0);
        assert!(report.mean_time_to_recovery().is_some());
        // Each recovery adds the *outage duration* (now − since) to the
        // ledger, never a timestamp sum: outages are short next to the
        // run, so the mean must stay a small fraction of the makespan.
        let mean = report.mean_time_to_recovery().expect("recoveries observed");
        assert!(
            mean * 4.0 < report.makespan,
            "mean recovery {mean} vs makespan {}",
            report.makespan
        );
        assert!(
            report.aborted_messages > 0,
            "escalated exchanges waste traffic"
        );
        // Connection model: aborted setups and per-retransmit re-dials
        // surface as extra connections.
        assert!(report.connections > report.counts.connections());
        let reference = run_spec(spec, &report.schedule, CostModel::Connection);
        assert_eq!(report.counts, reference.counts);
    }

    /// Bugfix regression: at high loss and a tiny budget, an ARQ
    /// escalation can interrupt the reconciliation handshake a crash
    /// outage owes, leaving the protocol in its recovering state with
    /// locally-servable requests still queued. Draining that queue used
    /// to submit into the handshake and panic; the drain must instead
    /// stall until the handshake settles at the next link-up probe.
    #[test]
    fn escalation_during_reconciliation_stalls_the_drain() {
        let plan = FaultPlan::new(0.05, 2.0, 11 ^ 0xFA17)
            .and_then(|p| p.with_crashes(0.3, 0.5))
            .unwrap();
        let arq = ArqConfig::new(0.65, 0.1, 11 ^ 0xA6)
            .and_then(|a| a.with_backoff(2.0, 0.25))
            .and_then(|a| a.with_retry_budget(2))
            .and_then(|a| a.with_degrade_deadline(0.5))
            .unwrap();
        let mut sim = SimBuilder::new(PolicySpec::St2)
            .and_then(|b| b.latency(0.05))
            .and_then(|b| b.faults(plan))
            .and_then(|b| b.arq(arq))
            .unwrap()
            .simulation();
        let mut w = crate::workload::PoissonWorkload::from_theta(1.0, 0.4, 11);
        let report = sim.run(&mut w, 5_000);
        // The storm must actually compose the two layers: injected crash
        // outages owing handshakes AND budget-exhausted escalations.
        assert!(report.mc_crashes > 0);
        assert!(report.retry_escalations > 0);
        assert!(report.reconciliations > 0);
        assert!(report.shed_requests() > 0);
        // The run hit its service target (sheds ride on top of it under
        // an open Poisson workload), and the bill stays exact.
        assert_eq!(report.counts.total(), 5_000);
        let billed = report.data_messages + report.control_messages;
        let ledger = report.counts.data_messages() + report.counts.control_messages();
        assert_eq!(
            billed,
            ledger
                + report.settled_retransmissions
                + report.aborted_messages
                + report.reconciliation_messages
                + report.arq_acks
        );
    }

    #[test]
    fn arq_runs_are_deterministic_per_seed() {
        let arq = |seed| {
            ArqConfig::new(0.35, 0.03, seed)
                .and_then(|a| a.with_backoff(1.7, 0.25))
                .unwrap()
        };
        let a = arq_run(PolicySpec::SlidingWindow { k: 5 }, arq(21), 4_000);
        let b = arq_run(PolicySpec::SlidingWindow { k: 5 }, arq(21), 4_000);
        assert_eq!(a, b);
        let c = arq_run(PolicySpec::SlidingWindow { k: 5 }, arq(22), 4_000);
        assert_ne!(a.retransmissions, c.retransmissions);
    }
}

#[cfg(test)]
mod mutation_regressions {
    //! Seed-pinned counter and ledger-field regressions added after a
    //! `cargo xtask mutate` run surfaced surviving mutants in this file:
    //! the per-event counters below were reported but never asserted
    //! exactly, so off-by-one and sign mutations went unnoticed. Each
    //! test pins one deterministic run; float fields are compared by
    //! bit pattern (the runs are exactly reproducible by construction).

    use super::*;
    use crate::SimBuilder;

    #[test]
    fn handoff_count_is_pinned() {
        let mut sim = SimBuilder::new(PolicySpec::SlidingWindow { k: 3 })
            .and_then(|b| b.latency(0.02))
            .and_then(|b| b.mobility(vec![0.0, 0.05, 0.2], 0.5, 9))
            .unwrap()
            .simulation();
        let mut w = crate::workload::PoissonWorkload::from_theta(1.0, 0.4, 4242);
        let r = sim.run(&mut w, 4_000);
        assert_eq!(r.handoffs, 1_971);
    }

    #[test]
    fn disconnect_tallies_are_pinned() {
        let plan = FaultPlan::new(0.05, 2.0, 1)
            .and_then(|p| p.with_crashes(0.4, 0.6))
            .and_then(|p| p.with_sc_outages(0.2))
            .unwrap();
        let mut sim = SimBuilder::new(PolicySpec::SlidingWindow { k: 3 })
            .and_then(|b| b.faults(plan))
            .unwrap()
            .simulation();
        let mut w = crate::workload::PoissonWorkload::from_theta(1.0, 0.4, 4711);
        let r = sim.run(&mut w, 4_000);
        assert_eq!((r.disconnects, r.mc_crashes, r.sc_outages), (174, 72, 20));
    }

    /// Regression (mutation): a reconnection handshake's first send is an
    /// original attempt, not a retransmission. On a lossless ARQ link
    /// whose timeout outlasts every round trip nothing is retransmitted,
    /// so a crash-heavy run counts none.
    #[test]
    fn a_handshake_starts_at_its_first_attempt() {
        let plan = FaultPlan::new(0.05, 2.0, 1)
            .and_then(|p| p.with_crashes(0.4, 0.6))
            .and_then(|p| p.with_sc_outages(0.2))
            .unwrap();
        let mut sim = SimBuilder::new(PolicySpec::SlidingWindow { k: 3 })
            .and_then(|b| b.faults(plan))
            .and_then(|b| b.arq(ArqConfig::new(0.0, 1.0, 3)?))
            .unwrap()
            .simulation();
        let mut w = crate::workload::PoissonWorkload::from_theta(1.0, 0.4, 4711);
        let r = sim.run(&mut w, 4_000);
        assert!(r.reconciliations > 0);
        assert_eq!((r.retransmissions, r.retry_escalations), (0, 0));
    }

    /// Regression (mutation): a reconnection handshake's retransmissions
    /// count from its first attempt too. Crashes owe handshakes, and a
    /// lossy ARQ link retransmits some of them; a handshake sent as
    /// attempt 0 would count one retransmission fewer per lost first send
    /// and back its timer off one step late.
    #[test]
    fn handshake_retransmissions_count_from_the_first_attempt() {
        let plan = FaultPlan::new(0.05, 2.0, 1)
            .and_then(|p| p.with_crashes(0.4, 0.6))
            .unwrap();
        let mut sim = SimBuilder::new(PolicySpec::SlidingWindow { k: 3 })
            .and_then(|b| b.faults(plan))
            .and_then(|b| b.arq(ArqConfig::new(0.3, 1.0, 3)?))
            .unwrap()
            .simulation();
        let mut w = crate::workload::PoissonWorkload::from_theta(1.0, 0.4, 4711);
        let r = sim.run(&mut w, 4_000);
        assert_eq!(
            (
                r.reconciliations,
                r.reconciliation_messages,
                r.retransmissions
            ),
            (70, 194, 1_249)
        );
        assert_eq!(r.events_processed, 8_893);
    }

    /// Regression (mutation): only reads enter the read-latency mean. With
    /// long exchanges and volatile crashes, a write caught mid-exchange
    /// resumes as a silent local completion once the crash has retracted
    /// the replica (24 times in this run); counting those writes would
    /// move the pinned mean.
    #[test]
    fn resumed_local_writes_stay_out_of_the_read_latency() {
        let plan = FaultPlan::new(0.3, 2.0, 5 ^ 0xFA17)
            .and_then(|p| p.with_crashes(0.3, 1.0))
            .unwrap();
        let mut sim = SimBuilder::new(PolicySpec::SlidingWindow { k: 3 })
            .and_then(|b| b.latency(0.2))
            .and_then(|b| b.faults(plan))
            .unwrap()
            .simulation();
        let mut w = crate::workload::PoissonWorkload::from_theta(1.0, 0.5, 5);
        let r = sim.run(&mut w, 4_000);
        assert_eq!(r.mean_read_latency.to_bits(), 0x3ff0_9ea5_9a76_f82b);
    }

    #[test]
    fn mean_read_latency_is_pinned() {
        // SW3 mixes zero-latency local reads (which enter the divisor)
        // with wire reads and queueing delay, so both the latency sum
        // and the completed-reads count are load-bearing here.
        let mut sim = SimBuilder::new(PolicySpec::SlidingWindow { k: 3 })
            .and_then(|b| b.latency(0.05))
            .unwrap()
            .simulation();
        let mut w = crate::workload::PoissonWorkload::from_theta(2.0, 0.4, 77);
        let r = sim.run(&mut w, 3_000);
        assert!(r.queued_requests > 0);
        assert_eq!(r.mean_read_latency.to_bits(), 0x3fa2_b10a_251b_1c26);
    }

    #[test]
    fn arq_jitter_timing_is_pinned() {
        // Jitter stretches each RTO by `1 + jitter·u`; the retransmission
        // tally and the makespan both depend on the sign and size of that
        // stretch through every timeout on the critical path.
        let arq = ArqConfig::new(0.3, 0.05, 5)
            .and_then(|a| a.with_backoff(1.5, 0.4))
            .unwrap();
        let mut sim = SimBuilder::new(PolicySpec::SlidingWindow { k: 3 })
            .and_then(|b| b.latency(0.02))
            .and_then(|b| b.arq(arq))
            .unwrap()
            .simulation();
        let mut w = crate::workload::PoissonWorkload::from_theta(1.0, 0.4, 2024);
        let r = sim.run(&mut w, 1_500);
        assert_eq!(r.retransmissions, 490);
        assert_eq!(r.makespan.to_bits(), 0x4097_c13d_5150_a875);
    }

    #[test]
    fn degradation_starts_exactly_at_the_deadline() {
        // Dyadic timings make the partition's age hit the deadline to the
        // bit. The read arrives at 0.25; with every attempt lost, budget 1
        // and timeouts 0.25 then 0.5, ARQ escalates at 1.0, probes at 2.0,
        // and escalates again at 2.75 — exactly 1.75 into the partition —
        // where the read must be shed, not retried a third time.
        let arq = ArqConfig::new(1.0, 0.25, 3)
            .and_then(|a| a.with_retry_budget(1))
            .and_then(|a| a.with_degrade_deadline(1.75))
            .unwrap();
        let mut sim = SimBuilder::new(PolicySpec::St1)
            .and_then(|b| b.arq(arq))
            .unwrap()
            .simulation();
        let mut w = crate::workload::TraceWorkload::new("r".parse().unwrap(), 0.25);
        let r = sim.run(&mut w, 1);
        assert_eq!(r.retry_escalations, 2);
        assert_eq!(r.shed_requests(), 1);
        assert_eq!(r.shed[0].at.to_bits(), 2.75f64.to_bits());
    }

    #[test]
    fn degraded_staleness_sum_is_pinned() {
        // Each degraded read contributes `now − partition_start`; the sum
        // must stay below `degraded_reads × makespan` (and is pinned
        // exactly), so a sign flip in the subtraction cannot hide.
        let arq = ArqConfig::new(1.0, 0.05, 1)
            .and_then(|a| a.with_retry_budget(3))
            .and_then(|a| a.with_degrade_deadline(1.0))
            .unwrap();
        let mut sim = SimBuilder::new(PolicySpec::St2)
            .and_then(|b| b.arq(arq))
            .unwrap()
            .simulation();
        let sched = Schedule::alternating(Request::Read, 400);
        let mut w = crate::workload::TraceWorkload::new(sched, 0.05);
        let r = sim.run(&mut w, 400);
        assert_eq!(r.degraded_reads, 191);
        assert!(r.staleness_sum <= r.degraded_reads as f64 * r.makespan);
        assert_eq!(r.staleness_sum.to_bits(), 0x409c_1d00_0000_0000);
    }

    #[test]
    fn arq_delivery_includes_cell_latency() {
        // ARQ deliveries must *add* the current cell's extra latency —
        // every other ARQ test runs without mobility, where that term is
        // zero and a sign flip is invisible. The read-latency mean is
        // pinned from a run that spends time in the slow cells.
        let arq = ArqConfig::new(0.2, 0.05, 5)
            .and_then(|a| a.with_backoff(1.5, 0.3))
            .unwrap();
        let mut sim = SimBuilder::new(PolicySpec::SlidingWindow { k: 3 })
            .and_then(|b| b.latency(0.02))
            .and_then(|b| b.mobility(vec![0.0, 0.05, 0.2], 0.5, 9))
            .and_then(|b| b.arq(arq))
            .unwrap()
            .simulation();
        let mut w = crate::workload::PoissonWorkload::from_theta(1.0, 0.4, 2024);
        let r = sim.run(&mut w, 1_500);
        assert!(r.handoffs > 0 && r.retransmissions > 0);
        assert_eq!(r.retransmissions, 1_400);
        assert_eq!(r.mean_read_latency.to_bits(), 0x3fba_2603_ddf5_8473);
    }

    #[test]
    fn same_instant_staged_events_run_in_scheduling_order() {
        // Arrivals every 0.5 over a 0.25 link: each ST1 read's response
        // lands at the same instant as the next arrival. The arrival was
        // staged first, so it must be taken first and queue behind the
        // exchange the response then completes. A staged delivery that
        // reused the arrival's seq would win the tie and let every
        // arrival skip the queue.
        let mut sim = SimBuilder::new(PolicySpec::St1)
            .and_then(|b| b.latency(0.25))
            .unwrap()
            .simulation();
        let sched = Schedule::from_requests(vec![Request::Read; 100]);
        let mut w = crate::workload::TraceWorkload::new(sched, 0.5);
        let r = sim.run(&mut w, 100);
        assert_eq!(r.queued_requests, 99);
    }
}

#[cfg(test)]
mod topology_tests {
    use super::*;
    use crate::perf::BatchedF64;
    use crate::SimBuilder;

    fn topo_run(topology: Option<TopologyConfig>, seed: u64) -> SimReport {
        let mut builder = SimBuilder::new(PolicySpec::SlidingWindow { k: 5 })
            .and_then(|b| b.latency(0.02))
            .unwrap();
        if let Some(t) = topology {
            builder = builder.topology(t).unwrap();
        }
        let mut sim = builder.simulation();
        let mut workload = crate::workload::PoissonWorkload::from_theta(1.0, 0.4, seed);
        sim.run(&mut workload, 4_000)
    }

    /// A one-cell topology has no other cell to migrate to, so each
    /// migration draws only its next dwell: the migrations are exactly
    /// the Exp(rate) partial sums of the topology stream that fall within
    /// the run. (Regression, mutation: a destination draw there would
    /// shift every later dwell.)
    #[test]
    fn one_cell_migrations_draw_only_their_dwell() {
        let rate = 0.8;
        let r = topo_run(Some(TopologyConfig::new(1, rate, 2.0, 13).unwrap()), 4242);
        assert_eq!(r.handoffs_committed + r.handoffs_aborted, 0);
        let mut rng = BatchedF64::new(13);
        let (mut at, mut expected) = (0.0, 0);
        loop {
            at += -f64::ln(1.0 - rng.draw()) / rate;
            if at > r.makespan {
                break;
            }
            expected += 1;
        }
        assert!(expected > 1_000, "{expected}");
        assert_eq!(r.migrations, expected);
    }

    #[test]
    fn inert_topology_reproduces_the_single_cell_run_exactly() {
        // The acceptance bar for the whole layer: a plan with zero
        // migrations must schedule no events and draw no randomness, so
        // the report — schedule, ledger, float fields, everything —
        // matches the no-topology run bit for bit.
        let baseline = topo_run(None, 4242);
        let inert = topo_run(Some(TopologyConfig::new(4, 0.0, 1.0, 99).unwrap()), 4242);
        assert!(TopologyConfig::new(4, 0.0, 1.0, 99).unwrap().is_inert());
        assert_eq!(baseline, inert);
        assert_eq!(inert.migrations, 0);
        assert_eq!(inert.handoff_messages, 0);
    }

    #[test]
    fn lossless_handoffs_commit_and_bill_three_legs_per_commit() {
        let t = TopologyConfig::new(3, 0.5, 2.0, 7).unwrap();
        let r = topo_run(Some(t), 4242);
        assert!(r.migrations > 100, "dwell 2 over a ~4000-unit run");
        assert!(r.handoffs_committed > 0);
        // On a lossless backbone with no mid-flight migrations aborted
        // mid-air, settled legs are exactly 3 per commit; aborted flights
        // (migration re-fences) account for the rest.
        assert_eq!(
            r.handoff_messages,
            r.settled_handoff_messages + r.aborted_handoff_messages
        );
        assert_eq!(r.settled_handoff_messages, 3 * r.handoffs_committed);
        // Every commit away from a freshly-invalidated state strands one
        // stale replica at the origin.
        assert!(r.replicas_invalidated >= r.handoffs_committed);
    }

    #[test]
    fn topology_runs_are_deterministic_per_seed() {
        let t = || {
            TopologyConfig::new(3, 0.5, 2.0, 7)
                .unwrap()
                .with_loss(0.3)
                .unwrap()
        };
        let a = topo_run(Some(t()), 4242);
        let b = topo_run(Some(t()), 4242);
        assert_eq!(a, b);
        let c = topo_run(
            Some(
                TopologyConfig::new(3, 0.5, 2.0, 8)
                    .unwrap()
                    .with_loss(0.3)
                    .unwrap(),
            ),
            4242,
        );
        assert_ne!(a.migrations, c.migrations);
    }

    #[test]
    fn lossy_backbone_degrades_gracefully() {
        // Heavy backbone loss without ARQ: single-shot legs mostly die,
        // deadlines abort, ownership rolls back, reads are served stale
        // from the origin and wire-needing requests shed with a typed
        // outcome. The run still terminates and the handoff billing
        // identity holds at every completion (the monitor panics if not).
        let t = TopologyConfig::new(3, 0.5, 0.5, 7)
            .unwrap()
            .with_loss(0.8)
            .unwrap();
        let r = topo_run(Some(t), 4242);
        assert!(r.handoffs_aborted > 0);
        assert!(r.stale_reads > 0, "reads served stale from the origin cell");
        assert!(
            r.shed.iter().any(|s| s.reason == ShedReason::HandoffStuck),
            "stuck handoffs shed wire-needing requests with a typed outcome"
        );
        assert_eq!(
            r.handoff_messages,
            r.settled_handoff_messages + r.aborted_handoff_messages,
            "no flight left in the air at the end of this run"
        );
    }

    #[test]
    fn broadcast_invalidation_bills_rounds_not_replicas() {
        let per_cell = topo_run(Some(TopologyConfig::new(5, 0.5, 2.0, 7).unwrap()), 4242);
        let broadcast = topo_run(
            Some(
                TopologyConfig::new(5, 0.5, 2.0, 7)
                    .unwrap()
                    .with_broadcast_invalidation(),
            ),
            4242,
        );
        // Same seed, same flights: only the invalidation pricing differs.
        assert_eq!(per_cell.handoffs_committed, broadcast.handoffs_committed);
        assert_eq!(
            per_cell.replicas_invalidated,
            broadcast.replicas_invalidated
        );
        assert_eq!(
            per_cell.invalidation_messages,
            per_cell.replicas_invalidated
        );
        assert_eq!(
            broadcast.invalidation_messages,
            broadcast.invalidation_rounds
        );
        assert!(broadcast.invalidation_messages <= per_cell.invalidation_messages);
    }

    #[test]
    fn arq_transport_governs_backbone_retransmissions() {
        // With ARQ installed, lost legs retransmit under the transport's
        // own timeout law instead of waiting for the deadline: flights
        // commit despite heavy loss, at the price of extra backbone
        // attempts.
        let arq = ArqConfig::new(0.0, 0.05, 5).unwrap();
        let t = TopologyConfig::new(3, 0.5, 5.0, 7)
            .unwrap()
            .with_loss(0.5)
            .unwrap();
        let mut sim = SimBuilder::new(PolicySpec::SlidingWindow { k: 5 })
            .and_then(|b| b.latency(0.02))
            .and_then(|b| b.arq(arq))
            .and_then(|b| b.topology(t))
            .unwrap()
            .simulation();
        let mut w = crate::workload::PoissonWorkload::from_theta(1.0, 0.4, 4242);
        let r = sim.run(&mut w, 4_000);
        assert!(r.handoffs_committed > 0);
        assert!(
            r.settled_handoff_messages > 3 * r.handoffs_committed,
            "retransmitted legs settle with their flight"
        );
    }

    #[test]
    fn commit_ghosts_only_add_discards() {
        // Duplicated and reordered HandoffCommit copies land strictly
        // after the original and die on the epoch fence: the runs are
        // identical except for the discard tally (idempotence; the
        // proptest in properties.rs generalizes this).
        let clean = topo_run(Some(TopologyConfig::new(3, 0.5, 2.0, 7).unwrap()), 4242);
        let noisy = topo_run(
            Some(
                TopologyConfig::new(3, 0.5, 2.0, 7)
                    .unwrap()
                    .with_commit_ghosts(0.7, 0.5)
                    .unwrap(),
            ),
            4242,
        );
        assert!(noisy.handoff_discards > 0);
        assert_eq!(clean.handoffs_committed, noisy.handoffs_committed);
        assert_eq!(clean.handoff_messages, noisy.handoff_messages);
        assert_eq!(clean.schedule, noisy.schedule);
        assert_eq!(clean.counts, noisy.counts);
        assert_eq!(
            clean.makespan.to_bits(),
            noisy.makespan.to_bits(),
            "ghosts draw from their own stream and perturb nothing"
        );
    }

    #[test]
    fn reorder_only_ghosts_draw_only_the_reorder_channel() {
        // A ghost channel whose probability is exactly zero must not
        // consume a draw from the ghost stream: an extra draw for the
        // disabled duplication channel would shift every reorder decision,
        // and a discard tallied twice would double the count. The exact
        // tally is pinned as a regression value for the seeded run.
        let clean = topo_run(Some(TopologyConfig::new(3, 0.5, 2.0, 7).unwrap()), 4242);
        let t = TopologyConfig::new(3, 0.5, 2.0, 7)
            .unwrap()
            .with_commit_ghosts(0.0, 0.5)
            .unwrap();
        let r = topo_run(Some(t), 4242);
        assert_eq!(clean.handoffs_committed, r.handoffs_committed);
        assert_eq!(clean.makespan.to_bits(), r.makespan.to_bits());
        assert!(r.handoff_discards > 0);
        assert_eq!(r.handoff_discards, 1_066, "regression pin");
    }

    #[test]
    fn jittered_handoff_retries_follow_the_backoff_law() {
        // Handoff-leg retransmissions wait base · factor^(i−1) · (1 +
        // jitter · u) like every other ARQ envelope. Flipping the jitter
        // sign shortens every timeout, changing how many legs are resent
        // before the deadline; the seeded leg tally is pinned.
        let arq = ArqConfig::new(0.0, 0.05, 5)
            .and_then(|a| a.with_backoff(2.0, 0.8))
            .and_then(|a| a.with_retry_budget(5))
            .unwrap();
        let t = TopologyConfig::new(3, 0.5, 5.0, 7)
            .unwrap()
            .with_loss(0.5)
            .unwrap();
        let mut sim = SimBuilder::new(PolicySpec::SlidingWindow { k: 5 })
            .and_then(|b| b.latency(0.02))
            .and_then(|b| b.arq(arq))
            .and_then(|b| b.topology(t))
            .unwrap()
            .simulation();
        let mut w = crate::workload::PoissonWorkload::from_theta(1.0, 0.4, 4242);
        let r = sim.run(&mut w, 4_000);
        assert!(r.handoffs_committed > 0);
        assert_eq!(r.handoff_messages, 9_283, "regression pin");
        assert_eq!(r.settled_handoff_messages, 7_530, "regression pin");
    }

    /// Regression (mutation): a time-limited faulted run ends through the
    /// event loop's early stop — the link-fault process reschedules itself
    /// forever, so without that break the loop would chase `LinkDown`/
    /// `LinkUp` maintenance long after the last arrival. The fault tallies
    /// are pinned at the values the stop leaves behind; exiting later (or
    /// never) moves them.
    #[test]
    fn time_limited_faulted_runs_stop_once_drained() {
        let plan = FaultPlan::new(0.8, 0.3, 11).unwrap();
        let mut sim = SimBuilder::new(PolicySpec::SlidingWindow { k: 3 })
            .and_then(|b| b.latency(0.05))
            .and_then(|b| b.faults(plan))
            .unwrap()
            .simulation();
        let mut w = super::tests::Until {
            workload: crate::workload::PoissonWorkload::from_theta(1.0, 0.3, 9),
            end: 40.0,
        };
        let report = sim.run(&mut w, usize::MAX);
        assert!(report.counts.total() > 0);
        assert_eq!(report.disconnects, 24, "regression pin");
        assert_eq!(report.recoveries, 0, "regression pin");
    }

    /// Regression (mutation): the migration target draw maps a uniform
    /// variate onto the `cells - 1` *other* cells — §1's "moves from cell
    /// to cell" never stays put. Scaling by the wrong cell count (then
    /// clamping) would sometimes pick the MC's own cell, skipping the
    /// handoff; the flight counters are pinned to catch it.
    #[test]
    fn migration_targets_cover_other_cells_exactly() {
        let t = TopologyConfig::new(3, 0.8, 2.0, 13).unwrap();
        let r = topo_run(Some(t), 4242);
        assert!(r.migrations > 100);
        assert_eq!(r.migrations, 3_207, "regression pin");
        assert_eq!(r.handoffs_committed, 2_997, "regression pin");
        assert_eq!(r.replicas_invalidated, 3_034, "regression pin");
    }

    /// Regression (mutation): with two cells the one other cell is the
    /// only migration target, so every migration really moves the MC and
    /// ownership follows it. Skipping the target draw below three cells
    /// would leave the MC in place and commit nothing.
    #[test]
    fn two_cell_migrations_move_the_mc() {
        let t = TopologyConfig::new(2, 0.5, 2.0, 7).unwrap();
        let r = topo_run(Some(t), 4242);
        assert!(r.migrations > 100);
        assert_eq!(
            (r.migrations, r.handoffs_committed),
            (2_080, 1_969),
            "regression pin"
        );
    }

    /// Regression (mutation): MC-side timers rank after protocol events at
    /// the same instant ([`Wakeup::rank`]). At latency 0.25 and a
    /// 0.75 deadline the third leg of every lossless flight lands exactly
    /// on its deadline, so the commit must be handled first. Ranking the
    /// deadline with the protocol events would let the earlier-armed
    /// timer abort every flight.
    #[test]
    fn a_commit_that_lands_at_its_deadline_instant_commits() {
        let t = TopologyConfig::new(3, 0.5, 0.75, 7).unwrap();
        let mut sim = SimBuilder::new(PolicySpec::SlidingWindow { k: 3 })
            .and_then(|b| b.latency(0.25))
            .and_then(|b| b.topology(t))
            .unwrap()
            .simulation();
        let mut w = crate::workload::PoissonWorkload::from_theta(1.0, 0.4, 11);
        let r = sim.run(&mut w, 3_000);
        assert_eq!(r.handoffs_committed, 872, "regression pin");
    }

    /// A `HandoffStuck` shed needs a handoff aborted at least once, not
    /// one stuck past its deadline: a migration that fences a flight still
    /// in the air aborts it too. A lossless three-leg flight takes 0.06
    /// here, far under the 1.0 deadline, so every abort is a fence, and
    /// each fence catches exactly one leg in the air. That leg still lands
    /// and the epoch fence discards it, so with no commit ghosts the
    /// discards equal the aborts (regression: an abort that dropped the
    /// leg instead of queueing it would lose every one).
    #[test]
    fn a_fenced_handoff_sheds_like_a_stuck_one() {
        let t = TopologyConfig::new(3, 0.5, 1.0, 0xE15).unwrap();
        let mut sim = SimBuilder::new(PolicySpec::SlidingWindow { k: 1 })
            .and_then(|b| b.latency(0.02))
            .and_then(|b| b.topology(t))
            .unwrap()
            .simulation();
        let mut w = crate::workload::PoissonWorkload::from_theta(1.0, 0.4, 0xE15);
        let r = sim.run(&mut w, 8_000);
        assert_eq!(r.handoffs_aborted, 123, "regression pin");
        assert_eq!(r.handoff_discards, r.handoffs_aborted);
        let stuck = r
            .shed
            .iter()
            .filter(|s| s.reason == ShedReason::HandoffStuck)
            .count();
        assert_eq!((r.shed.len(), stuck), (1, 1), "regression pin");
    }
}

#[cfg(test)]
mod wakeup_props {
    //! The run loop compares one key for all wakeup slots and the queue:
    //! [`Cx`]'s cached minimum. Random walks over every way the slots and
    //! the queue change check that it always names the entry a reference
    //! heap of the live entries would pop next.

    use super::*;
    use proptest::prelude::*;

    /// A live entry of the reference model: its key, and its slot or
    /// `None` for a queued one.
    type Live = (u128, Option<Wakeup>);

    /// Queued entries carry their key's `seq` as the epoch, so a popped
    /// one can be told apart from every other.
    fn tagged(seq: u64) -> Event {
        Event::HandoffLegArrive {
            epoch: seq,
            leg: HandoffLeg::Request,
        }
    }

    fn reference_next(live: &[Live]) -> Option<Live> {
        live.iter().copied().min_by_key(|&(key, _)| key)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn cached_minimum_names_the_reference_heaps_next(
            steps in prop::collection::vec((0u8..6, 0usize..WAKEUPS, 0u8..3), 1..160),
        ) {
            let mut cx = Cx::new();
            let mut live: Vec<Live> = Vec::new();
            let mut seq = 0u64;
            for &(op, slot, tick) in &steps {
                let wakeup = Wakeup::ALL[slot];
                // Three instants only, so time ties are the rule and rank
                // and seq decide most picks.
                let at = f64::from(tick) * 0.5;
                let armed = live.iter().position(|&(_, s)| s == Some(wakeup));
                match op {
                    // Arm, or overwrite when already armed.
                    0 | 1 => {
                        seq += 1;
                        cx.arm(wakeup, at);
                        live.retain(|&(_, s)| s != Some(wakeup));
                        live.push((calendar::pack((at, wakeup.rank(), seq)), Some(wakeup)));
                    }
                    2 => {
                        cx.disarm(wakeup);
                        live.retain(|&(_, s)| s != Some(wakeup));
                    }
                    3 => {
                        if let Some(i) = armed {
                            let key = live[i].0;
                            cx.demote(wakeup, tagged(calendar::unpack(key).2));
                            live[i].1 = None;
                        }
                    }
                    4 => {
                        seq += 1;
                        cx.push_event(at, tagged(seq));
                        live.push((calendar::pack((at, PROTOCOL_RANK, seq)), None));
                    }
                    _ => {
                        let Some(next) = reference_next(&live) else {
                            prop_assert_eq!(cx.next, (NEVER, None));
                            continue;
                        };
                        live.retain(|&entry| entry != next);
                        match (cx.take_next(), next.1) {
                            (Due::Wakeup(got), Some(want)) => prop_assert_eq!(got, want),
                            (Due::Event(Event::HandoffLegArrive { epoch, .. }), None) => {
                                prop_assert_eq!(epoch, calendar::unpack(next.0).2);
                            }
                            _ => prop_assert!(false, "took the wrong kind of entry"),
                        }
                    }
                }
                prop_assert_eq!(cx.seq, seq);
                let want = reference_next(&live).unwrap_or((NEVER, None));
                prop_assert_eq!(cx.next, want);
                for w in Wakeup::ALL {
                    prop_assert_eq!(cx.is_armed(w), live.iter().any(|&(_, s)| s == Some(w)));
                }
            }
        }
    }
}
