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
use crate::faults::{ArqConfig, FaultKind, FaultPlan};
use crate::perf::{BatchedF64, PerfStats, Stopwatch};
use crate::protocol::{Envelope, ProtocolState, StepOutcome};
use crate::topology::{HandoffLeg, HandoffSnapshot, TopologyConfig};
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
    /// Optional *instant* lossy-link model: messages are lost independently
    /// and repeated until one attempt gets through, with the whole retry
    /// sequence resolved at send time (acknowledgements are free and
    /// unlosable). Every transmission attempt is billed, so loss inflates
    /// the message bill by ≈ 1/(1 − p) without changing the protocol's
    /// actions — the analysis extends to unreliable links by a
    /// multiplicative factor. For a transport that actually plays the
    /// timeout/retransmit game in simulated time — bounded retries,
    /// declared disconnections, degraded mode — use [`SimConfig::arq`];
    /// the two link models are mutually exclusive.
    pub loss: Option<LossConfig>,
    /// Optional deterministic ARQ transport (robustness extension, see
    /// `docs/faults.md`): per-envelope stop-and-wait acknowledgement,
    /// timeout-driven retransmission with exponential backoff and
    /// seed-derived jitter, a bounded retry budget escalating to a declared
    /// disconnection, and graceful degradation under sustained partition.
    /// Mutually exclusive with [`SimConfig::loss`].
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

/// Parameters of the cellular-mobility model.
#[derive(Debug, Clone)]
pub struct MobilityConfig {
    /// Extra one-way latency experienced in each cell (the cell count is
    /// this vector's length).
    pub cell_extra_latency: Vec<f64>,
    /// Rate of the exponential dwell time in a cell (handoffs per time
    /// unit).
    pub handoff_rate: f64,
    /// RNG seed for the movement process.
    pub seed: u64,
}

/// Parameters of the lossy-link model.
#[derive(Debug, Clone, Copy)]
pub struct LossConfig {
    /// Per-transmission loss probability in `[0, 1)`.
    pub loss_probability: f64,
    /// Sender timeout before each retransmission (time units).
    pub retry_timeout: f64,
    /// RNG seed for the loss process.
    pub seed: u64,
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
            && self.loss == other.loss
            && self.arq == other.arq
            && self.mobility == other.mobility
            && self.faults == other.faults
            && self.topology == other.topology
    }
}

impl Eq for SimConfig {}

/// See [`SimConfig`]'s `PartialEq`: total-order comparison on the latency
/// vector, exact equality elsewhere.
impl PartialEq for MobilityConfig {
    fn eq(&self, other: &Self) -> bool {
        self.cell_extra_latency.len() == other.cell_extra_latency.len()
            && self
                .cell_extra_latency
                .iter()
                .zip(&other.cell_extra_latency)
                .all(|(a, b)| a.total_cmp(b).is_eq())
            && self.handoff_rate.total_cmp(&other.handoff_rate).is_eq()
            && self.seed == other.seed
    }
}

impl Eq for MobilityConfig {}

/// See [`SimConfig`]'s `PartialEq`: total-order comparison on the float
/// fields, exact equality on the seed.
impl PartialEq for LossConfig {
    fn eq(&self, other: &Self) -> bool {
        self.loss_probability
            .total_cmp(&other.loss_probability)
            .is_eq()
            && self.retry_timeout.total_cmp(&other.retry_timeout).is_eq()
            && self.seed == other.seed
    }
}

impl Eq for LossConfig {}

impl SimConfig {
    /// Crate-internal default construction shared with the
    /// [`crate::SimBuilder`] front door.
    pub(crate) fn defaults(policy: PolicySpec) -> Self {
        SimConfig {
            policy,
            latency: 0.01,
            oracle_check: true,
            loss: None,
            arq: None,
            mobility: None,
            faults: None,
            topology: None,
        }
    }
}

/// Stopping rule for a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunLimit {
    /// Stop after this many relevant requests have been *served*.
    Requests(usize),
    /// Stop at the first arrival after this simulation time.
    Time(f64),
}

/// What happened during a run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// The serialized request order the run actually served.
    pub schedule: Schedule,
    /// Action tallies (prices derive from these).
    pub counts: ActionCounts,
    /// Wireless messages sent, by billing class.
    pub data_messages: u64,
    /// Control messages sent.
    pub control_messages: u64,
    /// Cellular connections used.
    pub connections: u64,
    /// Simulation time of the last served request's completion.
    pub makespan: f64,
    /// Mean time from a read's arrival to its completion (queueing +
    /// protocol latency).
    pub mean_read_latency: f64,
    /// Requests that had to queue behind an in-flight exchange.
    pub queued_requests: u64,
    /// Replica allocations performed.
    pub allocations: u64,
    /// Replica deallocations performed.
    pub deallocations: u64,
    /// Transmission attempts beyond each envelope's first — repeats by the
    /// instant loss model, or timed retransmissions by the ARQ transport
    /// (0 on a lossless link).
    pub retransmissions: u64,
    /// Retransmissions whose exchange eventually settled (completed or
    /// reconciled) rather than being aborted; together with
    /// `aborted_messages`, `reconciliation_messages` and `arq_acks` these
    /// close the billing identity `billed = ledger + settled retransmissions
    /// + aborted + reconciliation + acks`, which the online
    /// [`InvariantMonitor`] asserts at every completion.
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
/// a handoff stuck past its deadline (`docs/faults.md`, `docs/topology.md`).
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
    /// A cell handoff was stuck past its deadline: window ownership was
    /// mid-migration, so wire-needing requests could not be served
    /// correctly by either cell.
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
/// The simulator consults it at every completed request; each method
/// panics on violation, so a faulty run that mis-bills or splits the
/// replica state dies loudly at the first bad completion instead of
/// producing a quietly wrong report.
#[derive(Debug, Default, Clone)]
pub struct InvariantMonitor {
    checks: u64,
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

    /// Ledger-consistency check: every billed transmission attempt is
    /// accounted for exactly once, as ledger-derived protocol traffic, a
    /// settled retransmission, aborted at-risk traffic, reconciliation
    /// traffic, or a transport acknowledgement.
    ///
    /// # Panics
    ///
    /// Panics if the identity does not hold.
    pub fn check_billing(
        &mut self,
        billed: u64,
        ledger: u64,
        settled_retransmissions: u64,
        aborted: u64,
        reconciliation: u64,
        acks: u64,
    ) {
        self.checks += 1;
        assert_eq!(
            billed,
            ledger + settled_retransmissions + aborted + reconciliation + acks,
            "billing identity broken: {billed} billed vs {ledger} ledger + \
             {settled_retransmissions} settled retransmissions + {aborted} aborted + \
             {reconciliation} reconciliation + {acks} acks"
        );
    }

    /// Handoff-ledger consistency check (mobility extension): every billed
    /// backbone leg attempt is accounted for exactly once — settled with a
    /// committed flight, aborted with a fenced one, or still in the air —
    /// and the invalidation bill matches its class's pricing rule (one
    /// broadcast per round, or one unicast per dropped replica).
    ///
    /// # Panics
    ///
    /// Panics if either identity does not hold.
    pub fn check_handoff_billing(
        &mut self,
        billed: u64,
        settled: u64,
        aborted: u64,
        in_flight: u64,
        invalidation_billed: u64,
        invalidation_expected: u64,
    ) {
        self.checks += 1;
        assert_eq!(
            billed,
            settled + aborted + in_flight,
            "handoff billing identity broken: {billed} billed vs {settled} settled + \
             {aborted} aborted + {in_flight} in flight"
        );
        assert_eq!(
            invalidation_billed, invalidation_expected,
            "invalidation billing identity broken: {invalidation_billed} billed vs \
             {invalidation_expected} owed by the invalidation class's pricing rule"
        );
    }
}

#[derive(Debug)]
enum Event {
    Arrival(Arrival),
    /// An envelope reaches its destination. Validity is re-checked at
    /// delivery time ([`ProtocolState::receive`]): faults leave ghost
    /// deliveries in the queue — duplicates, reordered stale copies, and
    /// envelopes a disconnection destroyed — which self-discard against
    /// the protocol's epoch/sequence guards. The payload is a slot index
    /// into the simulation's [`EnvelopePool`], so a queued delivery is a
    /// handful of bytes instead of a cloned envelope.
    Deliver(u32),
    /// A ghost copy the network injected (duplication or stale reordering).
    /// Ghosts are never billed and are only counted as duplicated when they
    /// actually land (a run may end with ghosts still in the air). Ghost
    /// copies share the original delivery's pool slot.
    GhostDeliver(u32),
    /// The MC crosses into another cell.
    Handoff,
    /// A fault from the [`FaultPlan`] severs the link.
    LinkDown,
    /// The current outage ends and the link is re-established. The token
    /// guards against stale events: a declared (ARQ) partition and an
    /// injected outage can overlap, and only the newest scheduled link-up
    /// may fire.
    LinkUp {
        /// Matches the simulation's `link_token` when current.
        token: u64,
    },
    /// The ARQ retransmission timer for the outstanding envelope fires.
    /// Stale timers (the envelope was acknowledged, superseded, or destroyed
    /// by an outage in the meantime) are identified by id and ignored.
    ArqTimeout {
        /// Matches the outstanding transmission's timer id when current.
        timer: u64,
    },
    /// The topology's mobility plan moves the MC to another cell
    /// (mobility extension, `docs/topology.md`).
    Migrate,
    /// A handoff leg lands at its destination SC over the backbone.
    /// Stale copies — legs of an aborted (fenced) epoch, duplicated or
    /// reordered commits — self-discard against the epoch fence.
    HandoffLegArrive {
        /// The flight epoch stamped on the leg at send time.
        epoch: u64,
        /// Which of the three legs this is.
        leg: HandoffLeg,
    },
    /// The retransmission timer for an in-flight handoff leg fires (only
    /// scheduled when the ARQ transport is installed; its timeout law and
    /// retry budget govern backbone legs too). Stale timers — the leg
    /// landed, the flight advanced, or the epoch was fenced — are
    /// identified by (epoch, leg, attempt) and ignored.
    HandoffRetry {
        /// The flight epoch the timer belongs to.
        epoch: u64,
        /// The leg that was in the air when the timer was armed.
        leg: HandoffLeg,
        /// The attempt count when the timer was armed.
        attempt: u32,
    },
    /// The handoff deadline expires: if the flight with this epoch is
    /// still in the air, it aborts and rolls back to the origin cell.
    HandoffDeadline {
        /// The flight epoch the deadline was armed for.
        epoch: u64,
    },
}

impl Event {
    /// Actor rank for same-instant ties, the first tie-break after time
    /// in the [`CalendarQueue`]'s `(time, actor-id, seq)` order: the
    /// network/SC actor (an injected outage severing the link) resolves
    /// first, ordinary protocol and workload events second, and MC-side
    /// timers (retransmission timers, handoff deadlines) last. This pins
    /// the documented order for the corner where an SC outage and a
    /// simultaneous MC-side event land at the same instant — the outage
    /// wins, deterministically, instead of depending on scheduling order.
    fn actor_rank(&self) -> u8 {
        match self {
            Event::LinkDown => 0,
            Event::ArqTimeout { .. }
            | Event::HandoffRetry { .. }
            | Event::HandoffDeadline { .. } => 2,
            _ => PROTOCOL_RANK,
        }
    }
}

/// The [`Event::actor_rank`] of ordinary protocol and workload events —
/// in particular of arrivals and deliveries, the two event kinds the run
/// loop stages outside the calendar queue.
const PROTOCOL_RANK: u8 = 1;

/// Which source holds the earliest pending event: one of the two staged
/// slots, or the calendar queue's head.
#[derive(Clone, Copy)]
enum NextEvent {
    StagedArrival,
    StagedDelivery,
    Queue,
}

/// Slab of envelopes awaiting delivery. A transmission parks its envelope
/// here once and the scheduled [`Event::Deliver`]/[`Event::GhostDeliver`]
/// copies carry the slot index; the reference count (original + ghosts)
/// lets the last delivery move the envelope out without cloning — the hot
/// ghost-free path never copies an envelope at all. Slots are recycled
/// through a free list, so a long run touches a handful of slots forever.
struct EnvelopePool {
    slots: Vec<Option<Envelope>>,
    refs: Vec<u32>,
    free: Vec<u32>,
}

impl EnvelopePool {
    fn new() -> Self {
        EnvelopePool {
            slots: Vec::new(),
            refs: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Parks `envelope` under `refs` pending deliveries and returns its
    /// slot.
    fn insert(&mut self, envelope: Envelope, refs: u32) -> u32 {
        debug_assert!(refs >= 1, "a pooled envelope needs at least one taker");
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(envelope);
                self.refs[slot as usize] = refs;
                slot
            }
            None => {
                self.slots.push(Some(envelope));
                self.refs.push(refs);
                let Ok(slot) = u32::try_from(self.slots.len() - 1) else {
                    unreachable!("pool slots outnumbered u32::MAX in-flight envelopes")
                };
                slot
            }
        }
    }

    /// Redeems one scheduled delivery of the envelope in `slot`: the last
    /// taker moves the envelope out and recycles the slot, earlier takers
    /// (ghost copies sharing it) receive a clone.
    fn take(&mut self, slot: u32) -> Envelope {
        let index = slot as usize;
        self.refs[index] -= 1;
        if self.refs[index] == 0 {
            let Some(envelope) = self.slots[index].take() else {
                unreachable!("pool slot redeemed past its reference count")
            };
            self.free.push(slot);
            envelope
        } else {
            let Some(envelope) = self.slots[index].as_ref() else {
                unreachable!("pool slot redeemed past its reference count")
            };
            envelope.clone()
        }
    }
}

/// The simulator. Owns the two protocol nodes and the event queue.
pub struct Simulation {
    config: SimConfig,
    /// The protocol transition relation (both nodes + wire + ledger); the
    /// event loop only adds time, queueing and billing on top.
    protocol: ProtocolState,
    /// The per-request reference in oracle mode: a sans-io
    /// [`DecisionCore`] fed the same serialized request order, so every
    /// run doubles as an equivalence test of the decision engine.
    oracle: Option<DecisionCore>,
    events: CalendarQueue<Event>,
    /// Envelopes parked between transmission and delivery, indexed by the
    /// slot the queued [`Event::Deliver`]/[`Event::GhostDeliver`] carries.
    pool: EnvelopePool,
    seq: u64,
    /// The next workload arrival, staged outside the queue under the
    /// [`calendar::pack`]ed key (rank 1) the queued [`Event::Arrival`]
    /// would have carried. At most one future arrival is known at a time,
    /// so in the steady state arrivals never touch the queue at all: the
    /// run loop picks the earliest of the staged events and the queue head.
    staged_arrival: Option<(u128, Arrival)>,
    /// A ghost-free delivery staged outside the queue and the pool,
    /// same scheme. The §3 exchange serialization leaves at most one
    /// envelope in the air, so the fault-free hot path pays neither a
    /// queue round trip nor a pool slot per delivery; ghost-bearing
    /// deliveries (and a rare second in-flight envelope under ARQ
    /// retransmission) still go through the queue.
    staged_delivery: Option<(u128, Envelope)>,
    /// Events the run loop has processed over the simulation's lifetime
    /// (a deterministic fact of config + workload + seeds, surfaced on
    /// [`SimReport::events_processed`] and the [`perf`](crate::perf)
    /// measurements).
    events_processed: u64,
    /// Arrivals waiting for the in-flight exchange to finish.
    pending: VecDeque<Arrival>,
    in_flight: Option<Exchange>,
    now: f64,
    // accounting
    schedule: Schedule,
    data_messages: u64,
    control_messages: u64,
    queued_requests: u64,
    retransmissions: u64,
    link_rng: Option<BatchedF64>,
    mobility_rng: Option<BatchedF64>,
    current_cell: usize,
    /// Cached `cell_extra_latency[current_cell]` (0 without the mobility
    /// model), so the per-transmit hot path reads one `f64` instead of
    /// indexing through the config.
    cell_extra: f64,
    handoffs: u64,
    read_latency_sum: f64,
    reads_completed: u64,
    served: usize,
    /// Absolute request-count target for the current `run` call (serving
    /// stops exactly there, even mid-drain).
    target: usize,
    // --- fault injection (None / quiescent without a FaultPlan) ---
    fault_rng: Option<BatchedF64>,
    /// Whether the initial link-down has been scheduled (once per
    /// simulation, not per `run` call).
    fault_primed: bool,
    link_up: bool,
    /// Kind of the outage in progress, while the link is down.
    outage_kind: Option<FaultKind>,
    /// An exchange a disconnection aborted, waiting to be retried once the
    /// link (and any owed reconciliation) is back.
    suspended: Option<Exchange>,
    /// An MC crash owing a reconnection handshake at the next link-up;
    /// the flag records whether volatile state was lost.
    pending_crash: Option<bool>,
    /// Whether the reconnection handshake is on the wire right now.
    reconciling: bool,
    /// Whether the workload has no further arrivals to offer (lets the
    /// event loop stop instead of chasing self-perpetuating maintenance
    /// events forever).
    arrivals_done: bool,
    disconnects: u64,
    mc_crashes: u64,
    sc_outages: u64,
    duplicated_deliveries: u64,
    discarded_deliveries: u64,
    aborted_messages: u64,
    reconciliation_messages: u64,
    reconciliations: u64,
    /// Billed attempts of the exchange currently in flight — moved into
    /// `aborted_messages` if a disconnection kills the exchange.
    exchange_messages: u64,
    /// Retransmitted attempts within `exchange_messages` — settled into
    /// `settled_retransmissions` when the exchange completes.
    exchange_retrans: u64,
    /// Connections beyond the ledger-derived count: one per aborted
    /// exchange (the wasted setup), one per reconnection handshake, and one
    /// per ARQ retransmission (connection model: every retransmit re-dials).
    extra_connections: u64,
    // --- ARQ transport (None / quiescent without an ArqConfig) ---
    arq_rng: Option<BatchedF64>,
    /// The envelope currently awaiting acknowledgement, if any (stop-and-
    /// wait: at most one).
    arq_outstanding: Option<ArqOutstanding>,
    /// Monotone timer-id source; a timeout event whose id differs from the
    /// outstanding transmission's is stale and ignored.
    arq_timer_seq: u64,
    /// Monotone link-up token source (see [`Event::LinkUp`]).
    link_token: u64,
    /// Whether the current outage was declared by ARQ escalation rather
    /// than injected by the fault plan.
    declared_down: bool,
    /// When the partition in progress began (set at escalation or, with ARQ
    /// enabled, at an injected link-down; cleared at the first successful
    /// delivery after it).
    partitioned_since: Option<f64>,
    settled_retransmissions: u64,
    arq_acks: u64,
    retry_escalations: u64,
    shed: Vec<ShedRequest>,
    degraded_reads: u64,
    staleness_sum: f64,
    recovery_time_sum: f64,
    recoveries: u64,
    // --- multi-cell topology (None / quiescent without a TopologyConfig) ---
    /// Dwell times, destination cells, and handoff-leg loss/jitter draws.
    topology_rng: Option<BatchedF64>,
    /// Commit duplication/reordering draws. A separate stream so turning
    /// ghosts on cannot perturb the legs' loss fates — the idempotence
    /// property in `properties.rs` relies on this.
    topology_ghost_rng: Option<BatchedF64>,
    /// The cell the MC currently sits in (distinct from `current_cell`,
    /// the latency-only cellular model's position).
    mc_cell: usize,
    /// The cell whose SC currently owns the window and replica state.
    owner_cell: usize,
    /// Cells left holding a stale replica copy by an aborted transfer or
    /// a committed migration; cleared by invalidation on commit.
    stale_replica: Vec<bool>,
    /// The handoff flight currently in the air, if any.
    handoff: Option<HandoffFlight>,
    /// Monotone epoch source; every flight gets a fresh epoch and legs of
    /// older epochs self-discard (the fence).
    handoff_epoch: u64,
    /// Whether the last handoff attempt aborted with the MC still away
    /// from the owner cell: reads are served stale from the origin and
    /// wire-needing requests are shed with a typed outcome.
    handoff_stuck: bool,
    migrations: u64,
    handoffs_committed: u64,
    handoffs_aborted: u64,
    handoff_messages: u64,
    settled_handoff_messages: u64,
    aborted_handoff_messages: u64,
    invalidation_messages: u64,
    invalidation_rounds: u64,
    replicas_invalidated: u64,
    stale_reads: u64,
    handoff_discards: u64,
    monitor: InvariantMonitor,
}

/// Book-keeping for the envelope the ARQ transport currently has in the
/// air (stop-and-wait: the one unacknowledged transmission).
#[derive(Debug, Clone)]
struct ArqOutstanding {
    envelope: Envelope,
    /// Transmissions so far (1 = the original send).
    attempts: u32,
    /// Whether this envelope belongs to the reconnection handshake.
    reconciliation: bool,
    /// Id of the armed retransmission timer.
    timer: u64,
}

/// Book-keeping for the exchange currently on the wire.
#[derive(Debug, Clone, Copy)]
struct Exchange {
    request: Request,
    arrived_at: f64,
}

/// Book-keeping for the three-way handoff flight currently in the air
/// (mobility extension, `docs/topology.md`). At most one flight exists at
/// a time; a migration mid-flight fences the epoch and starts over.
#[derive(Debug, Clone)]
struct HandoffFlight {
    /// The cell ownership departs from (and rolls back to on abort).
    origin: usize,
    /// The cell ownership is migrating toward (always the MC's cell at
    /// initiation; a migration mid-flight aborts and re-initiates).
    target: usize,
    /// The fence: legs stamped with an older epoch self-discard.
    epoch: u64,
    /// The leg currently in the air.
    awaiting: HandoffLeg,
    /// Transmission attempts of the awaiting leg (1 = the original send);
    /// reset when the flight advances to the next leg.
    attempts: u32,
    /// Billed backbone attempts of this flight — settled on commit, moved
    /// to the aborted tally if the deadline or a migration fences it.
    messages: u64,
    /// Whether the state-transfer leg landed at the target (an abort then
    /// leaves an orphaned stale replica there to invalidate later).
    transfer_landed: bool,
    /// The window/replica state captured at initiation and shipped on the
    /// state-transfer leg.
    snapshot: HandoffSnapshot,
}

impl Simulation {
    /// Creates a simulation in the policy's initial state.
    pub fn new(config: SimConfig) -> Self {
        // Every stream head below goes through `BatchedF64::new`, which
        // seeds the same SplitMix64-expanded `StdRng` the unbatched
        // simulator used — stream identity is pinned by the ledger-digest
        // regression tests.
        let link_rng = config.loss.map(|l| BatchedF64::new(l.seed));
        let mobility_rng = config.mobility.as_ref().map(|m| BatchedF64::new(m.seed));
        let fault_rng = config.faults.as_ref().map(|f| BatchedF64::new(f.seed));
        let arq_rng = config.arq.as_ref().map(|a| BatchedF64::new(a.seed));
        let topology_rng = config.topology.as_ref().map(|t| BatchedF64::new(t.seed));
        // Salted so the ghost stream is independent of the leg stream.
        let topology_ghost_rng = config
            .topology
            .as_ref()
            .map(|t| BatchedF64::new(t.seed ^ 0x9e37_79b9_7f4a_7c15));
        let cell_extra = config
            .mobility
            .as_ref()
            .map_or(0.0, |m| m.cell_extra_latency[0]);
        let home_cell = config.topology.as_ref().map_or(0, |t| t.home_cell);
        let cells = config.topology.as_ref().map_or(1, |t| t.cells);
        Simulation {
            protocol: ProtocolState::new(config.policy),
            oracle: config.oracle_check.then(|| {
                let Ok(core) = DecisionCore::new(config.policy, CostModel::Connection) else {
                    panic!("the simulation config carries a validated policy spec");
                };
                core
            }),
            config,
            events: CalendarQueue::new(),
            pool: EnvelopePool::new(),
            seq: 0,
            staged_arrival: None,
            staged_delivery: None,
            events_processed: 0,
            pending: VecDeque::new(),
            in_flight: None,
            now: 0.0,
            schedule: Schedule::new(),
            data_messages: 0,
            control_messages: 0,
            queued_requests: 0,
            retransmissions: 0,
            link_rng,
            mobility_rng,
            current_cell: 0,
            cell_extra,
            handoffs: 0,
            read_latency_sum: 0.0,
            reads_completed: 0,
            served: 0,
            target: usize::MAX,
            fault_rng,
            fault_primed: false,
            link_up: true,
            outage_kind: None,
            suspended: None,
            pending_crash: None,
            reconciling: false,
            arrivals_done: false,
            disconnects: 0,
            mc_crashes: 0,
            sc_outages: 0,
            duplicated_deliveries: 0,
            discarded_deliveries: 0,
            aborted_messages: 0,
            reconciliation_messages: 0,
            reconciliations: 0,
            exchange_messages: 0,
            exchange_retrans: 0,
            extra_connections: 0,
            arq_rng,
            arq_outstanding: None,
            arq_timer_seq: 0,
            link_token: 0,
            declared_down: false,
            partitioned_since: None,
            settled_retransmissions: 0,
            arq_acks: 0,
            retry_escalations: 0,
            shed: Vec::new(),
            degraded_reads: 0,
            staleness_sum: 0.0,
            recovery_time_sum: 0.0,
            recoveries: 0,
            topology_rng,
            topology_ghost_rng,
            mc_cell: home_cell,
            owner_cell: home_cell,
            stale_replica: vec![false; cells],
            handoff: None,
            handoff_epoch: 0,
            handoff_stuck: false,
            migrations: 0,
            handoffs_committed: 0,
            handoffs_aborted: 0,
            handoff_messages: 0,
            settled_handoff_messages: 0,
            aborted_handoff_messages: 0,
            invalidation_messages: 0,
            invalidation_rounds: 0,
            replicas_invalidated: 0,
            stale_reads: 0,
            handoff_discards: 0,
            monitor: InvariantMonitor::new(),
        }
    }

    fn push_event(&mut self, at: f64, event: Event) {
        self.seq += 1;
        let rank = event.actor_rank();
        self.events.push(at, rank, self.seq, event);
    }

    /// Fetches the next arrival from the workload and stages it (or, when
    /// a staged arrival is already pending from an earlier `run` call,
    /// queues it behind that one). Consumes a `seq` either way, at the
    /// exact point the old queue-everything loop consumed it, so event
    /// keys — and therefore tie-breaks and digests — are unchanged.
    fn stage_next_arrival(&mut self, workload: &mut dyn ArrivalProcess, limit: RunLimit) {
        match workload.next_arrival() {
            Some(a) if !matches!(limit, RunLimit::Time(t) if a.time > t) => {
                if self.staged_arrival.is_none() {
                    self.seq += 1;
                    let key = calendar::pack((a.time, PROTOCOL_RANK, self.seq));
                    self.staged_arrival = Some((key, a));
                } else {
                    self.push_event(a.time, Event::Arrival(a));
                }
            }
            _ => self.arrivals_done = true,
        }
    }

    /// Processes one arrival: stage its successor first (so service never
    /// starves), then begin service, shed, or queue it.
    fn handle_arrival(
        &mut self,
        arrival: Arrival,
        workload: &mut dyn ArrivalProcess,
        limit: RunLimit,
    ) {
        self.stage_next_arrival(workload, limit);
        if self.can_begin_service(arrival.request) {
            self.begin_service(arrival);
        } else if self.degraded()
            && self.pending.is_empty()
            && self.suspended.is_none()
            && self.needs_wire(arrival.request)
        {
            // Degraded mode: a wire-needing request is shed with a typed
            // outcome instead of queueing behind a partition of unknown
            // length. (With a non-empty queue the earlier entries were
            // already shed or are locally servable, so this branch keeps
            // FIFO intact.)
            self.shed_request(arrival, ShedReason::DegradedPartition);
        } else if self.handoff_stuck
            && self.pending.is_empty()
            && self.suspended.is_none()
            && self.needs_wire(arrival.request)
        {
            // A handoff stuck past its deadline degrades the same way:
            // ownership is mid-migration, so a wire-needing request is
            // shed instead of queueing behind a handoff of unknown
            // length. Reads the MC can serve from its copy still go
            // through (stale, from the origin cell).
            self.shed_request(arrival, ShedReason::HandoffStuck);
        } else {
            self.queued_requests += 1;
            self.pending.push_back(arrival);
        }
    }

    /// Bills and schedules the delivery of an envelope the protocol just put
    /// on the wire. Under the lossy-link model the sender retransmits after
    /// each timeout until one attempt gets through; every attempt is billed.
    /// `reconciliation` routes the attempt tally to the handshake counters
    /// instead of the at-risk exchange tally.
    ///
    /// Under a fault plan the network may additionally inject ghost copies
    /// (duplication, stale reordering). Ghosts are scheduled but never
    /// billed: they are a delivery artifact, not a send, and the protocol's
    /// epoch/sequence guards discard them — which is exactly the property
    /// the `properties.rs` proptests pin down.
    fn transmit(&mut self, envelope: Envelope, reconciliation: bool) {
        if self.config.arq.is_some() {
            self.transmit_arq(envelope, reconciliation, 1);
            return;
        }
        let attempts = match (self.config.loss, &mut self.link_rng) {
            (Some(loss), Some(rng)) => {
                let mut attempts = 1u64;
                while rng.draw() < loss.loss_probability {
                    attempts += 1;
                }
                attempts
            }
            _ => 1,
        };
        self.retransmissions += attempts - 1;
        match envelope.message.class() {
            crate::wire::MessageClass::Data => self.data_messages += attempts,
            crate::wire::MessageClass::Control => self.control_messages += attempts,
            crate::wire::MessageClass::Invalidation => {
                // Invalidation traffic rides the wired backbone, never the
                // MC/SC wireless link this transport models.
                unreachable!("invalidation-class traffic on the wireless link")
            }
        }
        if reconciliation {
            self.reconciliation_messages += attempts;
        } else {
            self.exchange_messages += attempts;
            self.exchange_retrans += attempts - 1;
        }
        let retry_delay = (attempts - 1) as f64 * self.config.loss.map_or(0.0, |l| l.retry_timeout);
        let arrives = self.now + retry_delay + self.config.latency + self.cell_extra;
        self.schedule_delivery(envelope, arrives);
    }

    /// Parks the envelope in the pool and schedules its delivery plus any
    /// ghost copies (duplication, stale reordering) a fault plan asks for.
    /// Ghost fates are drawn up front so the pool slot's reference count
    /// covers every scheduled taker; the fault stream sees the draws in
    /// the same order as ever. Ghosts are scheduled but never billed: they
    /// are a delivery artifact, not a send, and the protocol's
    /// epoch/sequence guards discard them.
    fn schedule_delivery(&mut self, envelope: Envelope, arrives: f64) {
        let (duplicate, reorder) = match (self.config.faults.as_ref(), self.fault_rng.as_mut()) {
            (Some(plan), Some(rng)) => (
                plan.duplication > 0.0 && rng.draw() < plan.duplication,
                plan.reorder > 0.0 && rng.draw() < plan.reorder,
            ),
            _ => (false, false),
        };
        if !duplicate && !reorder && self.staged_delivery.is_none() {
            // The common ghost-free case: stage the sole in-flight
            // delivery outside the queue and the pool. It is consumed in
            // exact `(time, rank, seq)` order by the run loop's
            // three-way pick, under the very seq it would have queued
            // with — so billing, tie-breaks and digests are unchanged.
            self.seq += 1;
            let key = calendar::pack((arrives, PROTOCOL_RANK, self.seq));
            self.staged_delivery = Some((key, envelope));
            return;
        }
        let refs = 1 + u32::from(duplicate) + u32::from(reorder);
        let slot = self.pool.insert(envelope, refs);
        self.push_event(arrives, Event::Deliver(slot));
        let latency = self.config.latency;
        if duplicate {
            // The copy takes a marginally longer path and arrives right
            // behind the original: a straight duplicate.
            self.push_event(arrives + 0.25 * latency + 1e-6, Event::GhostDeliver(slot));
        }
        if reorder {
            // The copy is held up long enough to land behind *subsequent*
            // traffic: a genuinely out-of-order stale delivery.
            self.push_event(arrives + 2.5 * latency + 1e-3, Event::GhostDeliver(slot));
        }
    }

    /// One ARQ transmission attempt: bill it, draw its fate from the
    /// dedicated ARQ loss stream, schedule the delivery if it survives, and
    /// arm the backoff timer. `attempts` counts this transmission (1 = the
    /// original send); retransmissions re-enter here from
    /// [`Simulation::handle_arq_timeout`].
    fn transmit_arq(&mut self, envelope: Envelope, reconciliation: bool, attempts: u32) {
        let (Some(arq), Some(rng)) = (self.config.arq, self.arq_rng.as_mut()) else {
            unreachable!("ARQ transmission requires an ArqConfig")
        };
        // Two draws per attempt — loss fate, then jitter — so the stream
        // position is a function of the attempt count alone.
        let lost = rng.draw() < arq.loss_probability;
        let jitter_u = rng.draw();
        match envelope.message.class() {
            crate::wire::MessageClass::Data => self.data_messages += 1,
            crate::wire::MessageClass::Control => self.control_messages += 1,
            crate::wire::MessageClass::Invalidation => {
                // See `transmit`: the backbone class never enters the
                // wireless transport.
                unreachable!("invalidation-class traffic on the wireless link")
            }
        }
        if reconciliation {
            self.reconciliation_messages += 1;
        } else {
            self.exchange_messages += 1;
        }
        if attempts > 1 {
            self.retransmissions += 1;
            if !reconciliation {
                self.exchange_retrans += 1;
            }
            // Connection model: every retransmission re-dials.
            self.extra_connections += 1;
        }
        if !lost {
            let arrives = self.now + self.config.latency + self.cell_extra;
            // The outstanding slot keeps the owned envelope for
            // retransmission and ack-matching; only a delivered attempt
            // pays for a clone.
            self.schedule_delivery(envelope.clone(), arrives);
        }
        let rto = arq.timeout_for_attempt(attempts) * (1.0 + arq.jitter * jitter_u);
        self.arq_timer_seq += 1;
        let timer = self.arq_timer_seq;
        self.arq_outstanding = Some(ArqOutstanding {
            envelope,
            attempts,
            reconciliation,
            timer,
        });
        self.push_event(self.now + rto, Event::ArqTimeout { timer });
    }

    /// A retransmission timer fired. If the envelope it guarded is still
    /// unacknowledged, either retransmit (budget permitting) or escalate to
    /// a declared disconnection.
    fn handle_arq_timeout(&mut self, timer: u64) {
        let current = self
            .arq_outstanding
            .as_ref()
            .is_some_and(|out| out.timer == timer);
        if !current {
            return; // acknowledged, superseded, or destroyed: stale timer
        }
        let Some(out) = self.arq_outstanding.take() else {
            unreachable!("checked above")
        };
        let Some(arq) = self.config.arq else {
            unreachable!("ARQ timeout without an ArqConfig")
        };
        if out.attempts <= arq.retry_budget {
            self.transmit_arq(out.envelope, out.reconciliation, out.attempts + 1);
        } else {
            self.escalate_partition(out, arq);
        }
    }

    /// The retry budget is exhausted: declare the link disconnected, feed
    /// the exchange to the existing reconnect/suspend machinery, and probe
    /// for the link later (the backoff law continues past the budget).
    fn escalate_partition(&mut self, out: ArqOutstanding, arq: ArqConfig) {
        self.retry_escalations += 1;
        self.link_up = false;
        self.declared_down = true;
        // A declared partition behaves like a doze: both sides keep their
        // state; only the wire is gone.
        self.outage_kind = Some(FaultKind::Doze);
        if self.partitioned_since.is_none() {
            self.partitioned_since = Some(self.now);
        }
        if out.reconciliation {
            // The handshake gave out mid-flight: clear it off the wire; it
            // restarts wholesale at the next probe (`pending_crash` and the
            // protocol's `recovering` flag persist).
            let _ = self.protocol.disconnect();
            self.reconciling = false;
        } else {
            let aborted = self.protocol.disconnect();
            let Some(exchange) = self.in_flight.take() else {
                unreachable!("non-reconciliation ARQ traffic implies an exchange in flight")
            };
            debug_assert_eq!(aborted, Some(exchange.request));
            self.aborted_messages += self.exchange_messages;
            self.exchange_messages = 0;
            self.exchange_retrans = 0;
            self.extra_connections += 1; // the wasted connection setup
            self.suspended = Some(exchange);
        }
        if self.degraded() {
            self.degrade_pending();
        }
        let jitter_u = match self.arq_rng.as_mut() {
            Some(rng) => rng.draw(),
            None => 0.0,
        };
        let probe = arq.timeout_for_attempt(out.attempts + 1) * (1.0 + arq.jitter * jitter_u);
        self.link_token += 1;
        let token = self.link_token;
        self.push_event(self.now + probe, Event::LinkUp { token });
    }

    /// Whether the ARQ transport is in degraded mode: partitioned beyond
    /// the degradation deadline.
    fn degraded(&self) -> bool {
        match (self.config.arq.as_ref(), self.partitioned_since) {
            (Some(arq), Some(since)) if !self.link_up => self.now - since >= arq.degrade_deadline,
            _ => false,
        }
    }

    /// Whether serving `request` requires the wireless link in the current
    /// protocol state (the complement of local reads and silent writes).
    fn needs_wire(&self, request: Request) -> bool {
        match request {
            Request::Read => !self.protocol.mc().has_copy(),
            Request::Write => self.protocol.sc().mc_has_copy(),
        }
    }

    /// Sheds a request with a typed outcome: it never enters the schedule,
    /// the ledger, or the oracle.
    fn shed_request(&mut self, arrival: Arrival, reason: ShedReason) {
        self.shed.push(ShedRequest {
            at: self.now,
            request: arrival.request,
            reason,
        });
    }

    /// Degraded mode just engaged (or deepened): shed the suspended
    /// exchange and every queued request that needs the wire, then serve
    /// what can complete locally.
    fn degrade_pending(&mut self) {
        if let Some(exchange) = self.suspended.take() {
            // A suspended exchange needed the wire by construction.
            self.shed_request(
                Arrival {
                    time: exchange.arrived_at,
                    request: exchange.request,
                },
                ShedReason::DegradedPartition,
            );
        }
        let queued = std::mem::take(&mut self.pending);
        for arrival in queued {
            if self.needs_wire(arrival.request) {
                self.shed_request(arrival, ShedReason::DegradedPartition);
            } else {
                self.pending.push_back(arrival);
            }
        }
        self.drain_pending();
    }

    /// Bills the transport-level acknowledgement that closes a completed
    /// exchange (control class; never retransmitted, never acked).
    fn bill_ack(&mut self) {
        if self.config.arq.is_none() {
            return;
        }
        self.control_messages += 1;
        self.arq_acks += 1;
    }

    /// Runs the protocol over `workload` until `limit`, returning the
    /// report.
    ///
    /// # Panics
    ///
    /// Panics (in oracle mode) if the distributed execution ever diverges
    /// from the reference policy, or if a protocol invariant (single window
    /// owner, replica freshness) is violated.
    pub fn run(&mut self, workload: &mut dyn ArrivalProcess, limit: RunLimit) -> SimReport {
        self.target = match limit {
            RunLimit::Requests(n) => self.served.saturating_add(n),
            RunLimit::Time(_) => usize::MAX,
        };
        let target = self.target;
        self.arrivals_done = false;
        // Prime the movement process.
        if self.config.mobility.is_some() {
            self.schedule_next_handoff();
        }
        // Prime the topology's mobility plan. An inert plan (zero
        // migration rate) schedules nothing and draws nothing, so it
        // reproduces the single-cell run bit for bit.
        if self.topology_active() {
            self.schedule_next_migration();
        }
        // Prime the fault process (once per simulation).
        if !self.fault_primed {
            self.fault_primed = true;
            self.schedule_next_link_down();
        }
        // Prime the first arrival.
        self.stage_next_arrival(workload, limit);
        while self.served < target {
            // With no arrivals left and nothing in service, the only events
            // remaining are self-perpetuating maintenance (link faults,
            // handoffs) and ghost deliveries: stop instead of chasing them.
            if self.arrivals_done
                && self.in_flight.is_none()
                && self.suspended.is_none()
                && !self.reconciling
                && self.pending.is_empty()
            {
                break;
            }
            // Pick the earliest of the two staged events and the queue
            // head by their packed `(time, rank, seq)` keys (unique —
            // every event consumed a distinct seq).
            let mut best = self.events.peek_packed().map(|key| (key, NextEvent::Queue));
            if let Some((key, _)) = self.staged_delivery {
                if best.is_none_or(|(b, _)| key < b) {
                    best = Some((key, NextEvent::StagedDelivery));
                }
            }
            if let Some((key, _)) = self.staged_arrival {
                if best.is_none_or(|(b, _)| key < b) {
                    best = Some((key, NextEvent::StagedArrival));
                }
            }
            let Some((key, source)) = best else {
                break;
            };
            let (at, _, _) = calendar::unpack(key);
            debug_assert!(at >= self.now - 1e-9, "time went backwards");
            self.now = at.max(self.now);
            self.events_processed += 1;
            match source {
                NextEvent::StagedArrival => {
                    let Some((_, arrival)) = self.staged_arrival.take() else {
                        unreachable!("picked a staged arrival that is not there")
                    };
                    self.handle_arrival(arrival, workload, limit);
                    continue;
                }
                NextEvent::StagedDelivery => {
                    let Some((_, envelope)) = self.staged_delivery.take() else {
                        unreachable!("picked a staged delivery that is not there")
                    };
                    self.handle_delivery(&envelope);
                    continue;
                }
                NextEvent::Queue => {}
            }
            let Some((_, event)) = self.events.pop() else {
                unreachable!("picked a queue head from an empty queue")
            };
            match event {
                Event::Arrival(arrival) => self.handle_arrival(arrival, workload, limit),
                Event::Deliver(slot) => {
                    let envelope = self.pool.take(slot);
                    self.handle_delivery(&envelope);
                }
                Event::GhostDeliver(slot) => {
                    self.duplicated_deliveries += 1;
                    let envelope = self.pool.take(slot);
                    self.handle_delivery(&envelope);
                }
                Event::Handoff => {
                    self.perform_handoff();
                    self.schedule_next_handoff();
                }
                Event::LinkDown => self.handle_link_down(),
                Event::LinkUp { token } => self.handle_link_up(token),
                Event::ArqTimeout { timer } => self.handle_arq_timeout(timer),
                Event::Migrate => {
                    self.perform_migration();
                    self.schedule_next_migration();
                }
                Event::HandoffLegArrive { epoch, leg } => self.handle_handoff_leg(epoch, leg),
                Event::HandoffRetry {
                    epoch,
                    leg,
                    attempt,
                } => self.handle_handoff_retry(epoch, leg, attempt),
                Event::HandoffDeadline { epoch } => self.handle_handoff_deadline(epoch),
            }
        }
        self.report()
    }

    /// Runs like [`Simulation::run`] while timing the event loop: returns
    /// the usual deterministic report plus a [`PerfStats`] measurement
    /// (events processed by *this* call, wall time, events/sec). The
    /// report is bit-identical to what `run` produces — wall time never
    /// feeds simulation state, ledgers, or digests.
    pub fn run_timed(
        &mut self,
        workload: &mut dyn ArrivalProcess,
        limit: RunLimit,
    ) -> (SimReport, PerfStats) {
        let before = self.events_processed;
        let watch = Stopwatch::start();
        let report = self.run(workload, limit);
        let stats = watch.stats(self.events_processed - before);
        (report, stats)
    }

    /// Draws the next exponential dwell time and schedules the handoff.
    fn schedule_next_handoff(&mut self) {
        let (Some(mobility), Some(rng)) =
            (self.config.mobility.as_ref(), self.mobility_rng.as_mut())
        else {
            unreachable!("handoff scheduling requires the mobility model")
        };
        let rate = mobility.handoff_rate;
        let u = rng.draw();
        let dwell = -f64::ln(1.0 - u) / rate;
        self.push_event(self.now + dwell, Event::Handoff);
    }

    /// Moves the MC to a uniformly chosen *different* cell.
    fn perform_handoff(&mut self) {
        let (Some(mobility), Some(rng)) =
            (self.config.mobility.as_ref(), self.mobility_rng.as_mut())
        else {
            unreachable!("handoffs require the mobility model")
        };
        let cells = mobility.cell_extra_latency.len();
        if cells > 1 {
            let mut next = (rng.draw() * (cells - 1) as f64) as usize;
            if next >= self.current_cell {
                next += 1;
            }
            self.current_cell = next.min(cells - 1);
        }
        self.handoffs += 1;
        self.cell_extra = self
            .config
            .mobility
            .as_ref()
            .map_or(0.0, |m| m.cell_extra_latency[self.current_cell]);
    }

    /// Whether the multi-cell topology layer is live: configured and not
    /// inert (an inert plan must behave exactly like no plan at all).
    fn topology_active(&self) -> bool {
        self.config.topology.as_ref().is_some_and(|t| !t.is_inert())
    }

    /// Draws the next exponential dwell time and schedules the migration.
    fn schedule_next_migration(&mut self) {
        let (Some(topology), Some(rng)) =
            (self.config.topology.as_ref(), self.topology_rng.as_mut())
        else {
            unreachable!("migration scheduling requires a topology")
        };
        let u = rng.draw();
        let dwell = -f64::ln(1.0 - u) / topology.migration_rate;
        self.push_event(self.now + dwell, Event::Migrate);
    }

    /// Moves the MC to a uniformly chosen *different* cell and kicks off
    /// the ownership handoff. A migration while a flight is already in the
    /// air fences that flight's epoch (abort + rollback to the origin) and
    /// re-initiates toward the new cell, so a live flight always targets
    /// the MC's current cell.
    fn perform_migration(&mut self) {
        let (Some(topology), Some(rng)) =
            (self.config.topology.as_ref(), self.topology_rng.as_mut())
        else {
            unreachable!("migrations require a topology")
        };
        let cells = topology.cells;
        if cells > 1 {
            let mut next = (rng.draw() * (cells - 1) as f64) as usize;
            if next >= self.mc_cell {
                next += 1;
            }
            self.mc_cell = next.min(cells - 1);
        }
        self.migrations += 1;
        if self.handoff.is_some() {
            self.abort_handoff();
        }
        if self.mc_cell != self.owner_cell {
            self.initiate_handoff();
        } else {
            // Moved back into the owner cell: nothing left to migrate.
            self.handoff_stuck = false;
            self.drain_pending();
        }
    }

    /// Starts a fresh three-way handoff flight from the owner cell toward
    /// the MC's current cell under a new epoch, arms its deadline, and
    /// sends the first leg.
    fn initiate_handoff(&mut self) {
        let Some(topology) = self.config.topology.as_ref() else {
            unreachable!("handoffs require a topology")
        };
        debug_assert!(self.handoff.is_none(), "at most one flight in the air");
        debug_assert_ne!(self.owner_cell, self.mc_cell);
        self.handoff_epoch += 1;
        let epoch = self.handoff_epoch;
        let deadline = topology.handoff_deadline;
        self.handoff = Some(HandoffFlight {
            origin: self.owner_cell,
            target: self.mc_cell,
            epoch,
            awaiting: HandoffLeg::Request,
            attempts: 0,
            messages: 0,
            transfer_landed: false,
            snapshot: self.protocol.handoff_snapshot(),
        });
        self.push_event(self.now + deadline, Event::HandoffDeadline { epoch });
        self.send_handoff_leg(HandoffLeg::Request);
    }

    /// One backbone transmission attempt of the awaiting leg: bill it,
    /// draw its fate, schedule the arrival if it survives, and — with the
    /// ARQ transport installed — arm a retransmission timer under the
    /// transport's own timeout law and retry budget. Without ARQ a leg is
    /// sent once and the deadline abort is the only recovery.
    fn send_handoff_leg(&mut self, leg: HandoffLeg) {
        let (Some(topology), Some(rng)) = (self.config.topology, self.topology_rng.as_mut()) else {
            unreachable!("handoff legs require a topology")
        };
        // Two draws per attempt — loss fate, then retry jitter — mirroring
        // the ARQ transport so the stream position is a function of the
        // attempt count alone.
        let lost = rng.draw() < topology.loss_probability;
        let jitter_u = rng.draw();
        let Some(flight) = self.handoff.as_mut() else {
            unreachable!("sending a leg requires a flight in the air")
        };
        flight.attempts += 1;
        flight.messages += 1;
        let attempt = flight.attempts;
        let epoch = flight.epoch;
        self.handoff_messages += 1;
        if !lost {
            // Backbone legs ride SC-to-SC wiring at the base latency: no
            // cellular extra, no wireless billing.
            let arrives = self.now + self.config.latency;
            self.push_event(arrives, Event::HandoffLegArrive { epoch, leg });
            if leg == HandoffLeg::Commit {
                self.inject_commit_ghosts(epoch, arrives);
            }
        }
        if let Some(arq) = self.config.arq.as_ref() {
            if attempt <= arq.retry_budget {
                let rto = arq.timeout_for_attempt(attempt) * (1.0 + arq.jitter * jitter_u);
                self.push_event(
                    self.now + rto,
                    Event::HandoffRetry {
                        epoch,
                        leg,
                        attempt,
                    },
                );
            }
            // Budget exhausted: stop retransmitting and let the deadline
            // abort recover (graceful degradation, not escalation — the
            // wireless link is fine).
        }
    }

    /// Schedules ghost copies of a commit leg (duplication, stale
    /// reordering) when the topology asks for them, from the dedicated
    /// ghost stream. Ghost copies land strictly after the original, so
    /// the epoch fence discards every one of them — the idempotence
    /// property `properties.rs` pins down.
    fn inject_commit_ghosts(&mut self, epoch: u64, arrives: f64) {
        let (duplicate, reorder) = match (
            self.config.topology.as_ref(),
            self.topology_ghost_rng.as_mut(),
        ) {
            (Some(t), Some(rng)) if t.has_ghosts() => (
                t.commit_duplication > 0.0 && rng.draw() < t.commit_duplication,
                t.commit_reorder > 0.0 && rng.draw() < t.commit_reorder,
            ),
            _ => (false, false),
        };
        let latency = self.config.latency;
        let leg = HandoffLeg::Commit;
        if duplicate {
            self.push_event(
                arrives + 0.25 * latency + 1e-6,
                Event::HandoffLegArrive { epoch, leg },
            );
        }
        if reorder {
            self.push_event(
                arrives + 2.5 * latency + 1e-3,
                Event::HandoffLegArrive { epoch, leg },
            );
        }
    }

    /// A handoff leg landed. Stale copies — wrong epoch (fenced flight),
    /// wrong leg (duplicated or reordered copy of an already-processed
    /// one) — self-discard against the fence; a current leg advances the
    /// flight's state machine.
    fn handle_handoff_leg(&mut self, epoch: u64, leg: HandoffLeg) {
        let current = self
            .handoff
            .as_ref()
            .is_some_and(|f| f.epoch == epoch && f.awaiting == leg);
        if !current {
            self.handoff_discards += 1;
            return;
        }
        match leg {
            HandoffLeg::Request => {
                let Some(flight) = self.handoff.as_mut() else {
                    unreachable!("checked above")
                };
                flight.awaiting = HandoffLeg::Transfer;
                flight.attempts = 0;
                self.send_handoff_leg(HandoffLeg::Transfer);
            }
            HandoffLeg::Transfer => {
                let Some(flight) = self.handoff.as_mut() else {
                    unreachable!("checked above")
                };
                debug_assert!(
                    flight.snapshot.version <= self.protocol.sc().version(),
                    "the shipped snapshot cannot be newer than the SC"
                );
                flight.transfer_landed = true;
                flight.awaiting = HandoffLeg::Commit;
                flight.attempts = 0;
                self.send_handoff_leg(HandoffLeg::Commit);
            }
            HandoffLeg::Commit => self.commit_handoff(),
        }
    }

    /// A leg retransmission timer fired. If the flight, leg, and attempt
    /// count still match — the leg neither landed nor was fenced in the
    /// meantime — retransmit it.
    fn handle_handoff_retry(&mut self, epoch: u64, leg: HandoffLeg, attempt: u32) {
        let current = self
            .handoff
            .as_ref()
            .is_some_and(|f| f.epoch == epoch && f.awaiting == leg && f.attempts == attempt);
        if !current {
            return; // landed, advanced, or fenced: stale timer
        }
        self.send_handoff_leg(leg);
    }

    /// The deadline for the flight with `epoch` expired. If that flight is
    /// still in the air, abort it (rollback to the origin cell) and — with
    /// the MC still away from the owner — try again under a fresh epoch.
    fn handle_handoff_deadline(&mut self, epoch: u64) {
        let current = self.handoff.as_ref().is_some_and(|f| f.epoch == epoch);
        if !current {
            return; // committed or already fenced: stale deadline
        }
        self.abort_handoff();
        if self.mc_cell != self.owner_cell {
            self.initiate_handoff();
        }
    }

    /// Aborts the flight in the air: ownership rolls back to (stays at)
    /// the origin cell, the flight's billed legs move to the aborted
    /// tally, an orphaned transfer leaves a stale replica at the target,
    /// and the simulator enters the stuck-handoff degradation — reads are
    /// served stale from the origin and wire-needing requests shed.
    fn abort_handoff(&mut self) {
        let Some(flight) = self.handoff.take() else {
            return;
        };
        self.handoffs_aborted += 1;
        self.aborted_handoff_messages += flight.messages;
        if flight.transfer_landed {
            self.stale_replica[flight.target] = true;
        }
        self.handoff_stuck = true;
        // Degrade like a sustained partition: shed queued wire-needing
        // requests (typed outcome) and serve what completes locally, so
        // the queue cannot wedge behind a handoff of unknown length.
        let queued = std::mem::take(&mut self.pending);
        for arrival in queued {
            if self.needs_wire(arrival.request) {
                self.shed_request(arrival, ShedReason::HandoffStuck);
            } else {
                self.pending.push_back(arrival);
            }
        }
        self.drain_pending();
    }

    /// The commit leg landed at the target: ownership moves, the origin's
    /// replica goes stale, and invalidation traffic (the third message
    /// class) makes every non-owner cell drop its stale copy — one
    /// broadcast per commit round, or one unicast per stale replica.
    fn commit_handoff(&mut self) {
        let Some(flight) = self.handoff.take() else {
            unreachable!("committing requires a flight in the air")
        };
        debug_assert_eq!(
            flight.target, self.mc_cell,
            "a migration mid-flight re-fences the handoff"
        );
        self.settled_handoff_messages += flight.messages;
        self.handoffs_committed += 1;
        self.stale_replica[flight.origin] = true;
        self.owner_cell = flight.target;
        self.stale_replica[flight.target] = false;
        self.handoff_stuck = false;
        let stale = self.stale_replica.iter().filter(|s| **s).count() as u64;
        if stale > 0 {
            let broadcast = self
                .config
                .topology
                .as_ref()
                .is_some_and(|t| t.broadcast_invalidation);
            if broadcast {
                self.invalidation_messages += 1;
                self.invalidation_rounds += 1;
            } else {
                self.invalidation_messages += stale;
            }
            self.replicas_invalidated += stale;
            for s in &mut self.stale_replica {
                *s = false;
            }
        }
        self.drain_pending();
    }

    /// Whether a fresh arrival can enter service right now. FIFO order is
    /// sacrosanct (the §3 serialization is what the oracle equivalence is
    /// proved against), so nothing may overtake an in-flight, suspended, or
    /// queued request. During an outage only requests the protocol serves
    /// without the wire may proceed: local reads survive a doze or an SC
    /// outage (not an MC crash), silent writes need a live SC only.
    fn can_begin_service(&self, request: Request) -> bool {
        if self.in_flight.is_some() || self.suspended.is_some() || !self.pending.is_empty() {
            return false;
        }
        self.request_is_servable(request)
    }

    /// Whether the protocol can accept `request` in its current state:
    /// never during a reconciliation handshake (in flight or owed — the
    /// protocol rejects submissions while recovering), always on a live
    /// link, and during an outage only for the local-read / silent-write
    /// cases `can_begin_service` documents. Shared by the fresh-arrival
    /// gate and the queue drain so neither can overtake a handshake.
    fn request_is_servable(&self, request: Request) -> bool {
        if self.reconciling || self.protocol.recovering() {
            return false;
        }
        // A handoff stuck past its deadline blocks wire-needing requests:
        // ownership is mid-migration between cells, so neither SC may run
        // the exchange. Local reads still go through (served stale from
        // the origin cell) and silent writes complete on the MC alone.
        if self.handoff_stuck && self.needs_wire(request) {
            return false;
        }
        if self.link_up {
            return true;
        }
        match (self.outage_kind, request) {
            (Some(FaultKind::Doze | FaultKind::ScOutage), Request::Read) => {
                self.protocol.mc().has_copy()
            }
            (
                Some(FaultKind::Doze | FaultKind::CrashVolatile | FaultKind::CrashStable),
                Request::Write,
            ) => !self.protocol.sc().mc_has_copy(),
            _ => false,
        }
    }

    /// Starts serving one arrival by submitting it to the protocol. Local
    /// operations complete inline; remote ones put a message on the wire and
    /// park in `in_flight`.
    fn begin_service(&mut self, arrival: Arrival) {
        debug_assert!(self.in_flight.is_none());
        match self.protocol.submit(arrival.request) {
            StepOutcome::Completed(action) => {
                if action == Action::LocalRead {
                    self.reads_completed += 1; // zero added latency
                    if self.degraded() {
                        // Served from the replica while partitioned beyond
                        // the deadline: a degraded, staleness-tracked read.
                        let Some(since) = self.partitioned_since else {
                            unreachable!("degraded mode implies a partition start time")
                        };
                        self.degraded_reads += 1;
                        self.staleness_sum += self.now - since;
                    }
                    if self.mc_cell != self.owner_cell {
                        // Window ownership is away from (or migrating
                        // toward) the MC's cell: the read is served stale
                        // from the origin cell's state.
                        self.stale_reads += 1;
                    }
                }
                self.complete(arrival, action);
            }
            StepOutcome::Sent(envelope) => {
                debug_assert!(
                    self.link_up,
                    "wire traffic submitted while the link is down"
                );
                self.in_flight = Some(Exchange {
                    request: arrival.request,
                    arrived_at: arrival.time,
                });
                self.transmit(envelope, false);
            }
            StepOutcome::Reconciled => unreachable!("submit never reconciles"),
        }
    }

    /// Re-submits an exchange a disconnection aborted. Its queueing stats
    /// were recorded at the original submission and its schedule entry is
    /// recorded at completion; only the protocol work is redone. The
    /// recovery may have changed the
    /// allocation state enough that the retry now completes locally (e.g.
    /// a propagating write turns silent once the replica was retracted).
    fn resume_service(&mut self, exchange: Exchange) {
        debug_assert!(self.in_flight.is_none());
        match self.protocol.submit(exchange.request) {
            StepOutcome::Completed(action) => {
                if exchange.request == Request::Read {
                    self.read_latency_sum += self.now - exchange.arrived_at;
                    self.reads_completed += 1;
                }
                self.complete(
                    Arrival {
                        time: exchange.arrived_at,
                        request: exchange.request,
                    },
                    action,
                );
            }
            StepOutcome::Sent(envelope) => {
                self.in_flight = Some(exchange);
                self.transmit(envelope, false);
            }
            StepOutcome::Reconciled => unreachable!("submit never reconciles"),
        }
    }

    /// Handles a scheduled delivery by stepping the protocol's transition
    /// relation — if the envelope is still current. Ghost deliveries
    /// (duplicates, stale reorders, envelopes destroyed by a disconnection)
    /// are discarded by the protocol's epoch/sequence guards.
    fn handle_delivery(&mut self, envelope: &Envelope) {
        let Some(outcome) = self.protocol.receive(envelope) else {
            self.discarded_deliveries += 1;
            return;
        };
        if self.config.arq.is_some() {
            // The envelope got through: its retransmission timer is settled
            // (a response supersedes it below; a completion acks it
            // explicitly), and any partition in progress has healed.
            if self
                .arq_outstanding
                .as_ref()
                .is_some_and(|out| out.envelope == *envelope)
            {
                self.arq_outstanding = None;
            }
            if let Some(since) = self.partitioned_since.take() {
                self.recovery_time_sum += self.now - since;
                self.recoveries += 1;
            }
        }
        match outcome {
            StepOutcome::Sent(response) => {
                // The response acknowledges the delivered envelope
                // implicitly; its own timer takes over the outstanding slot.
                let reconciliation = self.reconciling;
                self.transmit(response, reconciliation);
            }
            StepOutcome::Completed(action) => {
                let Some(exchange) = self.in_flight else {
                    unreachable!("completion without an exchange in flight")
                };
                if matches!(action, Action::RemoteRead { .. }) {
                    self.read_latency_sum += self.now - exchange.arrived_at;
                    self.reads_completed += 1;
                }
                // Nothing speaks next in this exchange: close it with an
                // explicit transport-level acknowledgement.
                self.bill_ack();
                self.finish_exchange(action);
            }
            StepOutcome::Reconciled => {
                self.bill_ack();
                self.reconciling = false;
                self.pending_crash = None;
                self.reconciliations += 1;
                self.resume_after_outage();
            }
        }
    }

    fn finish_exchange(&mut self, action: Action) {
        let Some(exchange) = self.in_flight.take() else {
            unreachable!("no exchange to finish")
        };
        self.exchange_messages = 0;
        self.settled_retransmissions += self.exchange_retrans;
        self.exchange_retrans = 0;
        self.complete(
            Arrival {
                time: exchange.arrived_at,
                request: exchange.request,
            },
            action,
        );
        self.drain_pending();
    }

    /// Serves queued arrivals until one cannot be served in the current
    /// state (or none are left): local reads and silent writes complete
    /// inline and must not stall the queue. Stops at the first unservable
    /// head — e.g. when an ARQ escalation interrupted the reconciliation
    /// handshake, so the protocol is still recovering; the pending LinkUp
    /// probe re-drains once the handshake settles. Respects the request
    /// target exactly.
    fn drain_pending(&mut self) {
        while self.in_flight.is_none() && self.served < self.target {
            let servable = self
                .pending
                .front()
                .is_some_and(|next| self.request_is_servable(next.request));
            if !servable {
                break;
            }
            let Some(next) = self.pending.pop_front() else {
                unreachable!("checked above")
            };
            self.begin_service(next);
        }
    }

    /// Draws the waiting time to the next disconnection and schedules it.
    /// No-op without a fault plan (or at disconnect rate zero).
    fn schedule_next_link_down(&mut self) {
        let (Some(plan), Some(rng)) = (self.config.faults.as_ref(), self.fault_rng.as_mut()) else {
            return;
        };
        if plan.disconnect_rate <= 0.0 {
            return;
        }
        let u = rng.draw();
        let gap = -f64::ln(1.0 - u) / plan.disconnect_rate;
        self.push_event(self.now + gap, Event::LinkDown);
    }

    /// Classifies the outage that just began and draws its duration.
    fn draw_outage(&mut self) -> (FaultKind, f64) {
        let (Some(plan), Some(rng)) = (self.config.faults.as_ref(), self.fault_rng.as_mut()) else {
            unreachable!("link events require a fault plan")
        };
        let classify = rng.draw();
        let kind = if classify < plan.crash_probability {
            if rng.draw() < plan.volatile_probability {
                FaultKind::CrashVolatile
            } else {
                FaultKind::CrashStable
            }
        } else if classify < plan.crash_probability + plan.sc_outage_probability {
            FaultKind::ScOutage
        } else {
            FaultKind::Doze
        };
        let u = rng.draw();
        (kind, -f64::ln(1.0 - u) * plan.mean_outage)
    }

    /// The link goes down: classify the outage, destroy everything in
    /// flight (suspending a mid-exchange request for retry), and note a
    /// crash's owed reconciliation.
    fn handle_link_down(&mut self) {
        debug_assert!(
            self.link_up || self.declared_down,
            "link-down while already down"
        );
        self.link_up = false;
        // An injected outage supersedes a declared (ARQ) partition in
        // progress; the partition start time is kept for MTTR purposes.
        self.declared_down = false;
        if self.config.arq.is_some() {
            self.arq_outstanding = None; // in-air timers are now stale
            if self.partitioned_since.is_none() {
                self.partitioned_since = Some(self.now);
            }
        }
        let (kind, duration) = self.draw_outage();
        self.disconnects += 1;
        match kind {
            FaultKind::CrashVolatile | FaultKind::CrashStable => self.mc_crashes += 1,
            FaultKind::ScOutage => self.sc_outages += 1,
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
        if self.in_flight.is_some() {
            let aborted = self.protocol.disconnect();
            let Some(exchange) = self.in_flight.take() else {
                unreachable!("in_flight checked above")
            };
            debug_assert_eq!(aborted, Some(exchange.request));
            self.aborted_messages += self.exchange_messages;
            self.exchange_messages = 0;
            self.exchange_retrans = 0;
            self.extra_connections += 1; // the wasted connection setup
            self.suspended = Some(exchange);
        } else {
            // Clears a handshake (or nothing) off the wire; an interrupted
            // handshake restarts at the next link-up (`pending_crash` and
            // the protocol's `recovering` flag both persist).
            let _ = self.protocol.disconnect();
        }
        if matches!(kind, FaultKind::CrashVolatile | FaultKind::CrashStable) {
            let volatile = matches!(kind, FaultKind::CrashVolatile);
            // A second crash before the first reconciled keeps the stronger
            // (volatile) classification.
            self.pending_crash = Some(self.pending_crash.unwrap_or(false) || volatile);
            if volatile {
                // The oracle learns of the loss at crash time; the protocol
                // applies it when the handshake starts. No request is served
                // in between, so the two stay equivalent (and the policy
                // hook is idempotent over the gap).
                if let Some(oracle) = &mut self.oracle {
                    oracle.on_replica_lost();
                }
            }
        }
        self.reconciling = false;
        self.link_token += 1;
        let token = self.link_token;
        self.push_event(self.now + duration, Event::LinkUp { token });
    }

    /// The link comes back: bump the epoch (stale deliveries self-discard
    /// from here on), then either run the owed reconciliation handshake or
    /// resume service directly. Stale link-up events (an ARQ probe
    /// superseded by an injected outage, or vice versa) are ignored by
    /// token.
    fn handle_link_up(&mut self, token: u64) {
        if token != self.link_token {
            return;
        }
        debug_assert!(!self.link_up, "link-up while already up");
        // Healing a *declared* (ARQ-escalated) partition must not draw a
        // fresh disconnection: the up-period's injected LinkDown is still
        // in the queue and rescheduling would stack a duplicate that later
        // fires while the link is already down.
        let heals_injected = !self.declared_down;
        self.link_up = true;
        self.declared_down = false;
        self.outage_kind = None;
        self.protocol.reconnect();
        if heals_injected {
            self.schedule_next_link_down();
        }
        if let Some(volatile) = self.pending_crash {
            self.reconciling = true;
            match self.protocol.begin_reconciliation(volatile) {
                StepOutcome::Sent(envelope) => {
                    self.extra_connections += 1; // the handshake's connection
                    self.transmit(envelope, true);
                }
                outcome => unreachable!("reconciliation must start with a send: {outcome:?}"),
            }
        } else {
            self.resume_after_outage();
        }
    }

    /// Retries the suspended exchange (if any) and drains the queue —
    /// called at link-up for fault kinds that owe no handshake, and after
    /// `Reconciled` for the ones that do.
    fn resume_after_outage(&mut self) {
        if let Some(exchange) = self.suspended.take() {
            self.resume_service(exchange);
        }
        self.drain_pending();
    }

    /// Records the served request in the schedule (the protocol ledger
    /// already tallied the action) and re-checks all invariants. The
    /// schedule entry is made here, at completion, so shed requests never
    /// appear in it and `schedule.len()` always equals `counts.total()`.
    fn complete(&mut self, arrival: Arrival, action: Action) {
        self.schedule.push(arrival.request);
        self.served += 1;
        self.check_invariants(arrival.request, action);
    }

    fn check_invariants(&mut self, request: Request, action: Action) {
        // Protocol safety: replica agreement, freshness, single window
        // owner — checked online by the monitor, even mid-fault.
        self.monitor
            .check_completion(self.config.policy, &self.protocol, action);
        // Ledger consistency: every billed attempt is accounted for. The
        // at-risk tallies of the exchange that just completed were settled
        // before `complete` ran, so the identity is exact here.
        let counts = self.protocol.counts();
        self.monitor.check_billing(
            self.data_messages + self.control_messages,
            counts.data_messages() + counts.control_messages(),
            self.settled_retransmissions,
            self.aborted_messages + self.exchange_messages,
            self.reconciliation_messages,
            self.arq_acks,
        );
        // Handoff-ledger consistency (mobility extension): backbone legs
        // and invalidation traffic close their own identities — handoff
        // billing is a separate class, never mixed into the §3 wireless
        // bill above. Skipped for an inert plan, which must reproduce the
        // single-cell run exactly — including the check counter.
        if self.topology_active() {
            let in_flight = self.handoff.as_ref().map_or(0, |f| f.messages);
            let broadcast = self
                .config
                .topology
                .as_ref()
                .is_some_and(|t| t.broadcast_invalidation);
            let invalidation_expected = if broadcast {
                self.invalidation_rounds
            } else {
                self.replicas_invalidated
            };
            self.monitor.check_handoff_billing(
                self.handoff_messages,
                self.settled_handoff_messages,
                self.aborted_handoff_messages,
                in_flight,
                self.invalidation_messages,
                invalidation_expected,
            );
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
                self.protocol.mc().has_copy(),
                "replica state diverged"
            );
        }
    }

    fn report(&self) -> SimReport {
        let counts = self.protocol.counts();
        SimReport {
            schedule: self.schedule.clone(),
            counts,
            data_messages: self.data_messages,
            control_messages: self.control_messages,
            connections: counts.connections() + self.extra_connections,
            makespan: self.now,
            mean_read_latency: if self.reads_completed == 0 {
                0.0
            } else {
                self.read_latency_sum / self.reads_completed as f64
            },
            queued_requests: self.queued_requests,
            allocations: counts.allocations(),
            deallocations: counts.deallocations(),
            retransmissions: self.retransmissions,
            handoffs: self.handoffs,
            disconnects: self.disconnects,
            mc_crashes: self.mc_crashes,
            sc_outages: self.sc_outages,
            duplicated_deliveries: self.duplicated_deliveries,
            discarded_deliveries: self.discarded_deliveries,
            aborted_messages: self.aborted_messages,
            reconciliation_messages: self.reconciliation_messages,
            reconciliations: self.reconciliations,
            settled_retransmissions: self.settled_retransmissions,
            arq_acks: self.arq_acks,
            retry_escalations: self.retry_escalations,
            shed: self.shed.clone(),
            degraded_reads: self.degraded_reads,
            staleness_sum: self.staleness_sum,
            recovery_time_sum: self.recovery_time_sum,
            recoveries: self.recoveries,
            invariant_checks: self.monitor.checks(),
            events_processed: self.events_processed,
            migrations: self.migrations,
            handoffs_committed: self.handoffs_committed,
            handoffs_aborted: self.handoffs_aborted,
            handoff_messages: self.handoff_messages,
            settled_handoff_messages: self.settled_handoff_messages,
            aborted_handoff_messages: self.aborted_handoff_messages,
            invalidation_messages: self.invalidation_messages,
            invalidation_rounds: self.invalidation_rounds,
            replicas_invalidated: self.replicas_invalidated,
            stale_reads: self.stale_reads,
            handoff_discards: self.handoff_discards,
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
        sim.run(&mut workload, RunLimit::Requests(requests))
    }

    /// Convenience constructor-and-run: push an explicit schedule through
    /// the full protocol (near-zero latency so queueing never perturbs the
    /// serialized order).
    pub fn run_schedule(spec: PolicySpec, schedule: &Schedule) -> SimReport {
        let mut config = SimConfig::defaults(spec);
        config.latency = 0.001;
        let mut sim = Simulation::new(config);
        let mut workload = crate::workload::TraceWorkload::new(schedule.clone(), 1.0);
        sim.run(&mut workload, RunLimit::Requests(schedule.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimBuilder;
    use mdr_core::run_spec;

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
            sim.run(&mut w, RunLimit::Requests(sched.len()))
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
        let report = sim.run(&mut w, RunLimit::Requests(50));
        assert!(report.queued_requests > 0);
        assert_eq!(report.counts.total(), 50);
        // Serialization keeps the cost exactly reads × 1 connection.
        assert_eq!(report.cost(CostModel::Connection), 50.0);
    }

    #[test]
    fn time_limit_stops_the_run() {
        let mut sim = SimBuilder::new(PolicySpec::St2).unwrap().simulation();
        let mut w = crate::workload::PoissonWorkload::from_theta(10.0, 0.5, 3);
        let report = sim.run(&mut w, RunLimit::Time(5.0));
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
        assert_eq!(report.allocations, report.counts.allocations());
        assert_eq!(report.deallocations, report.counts.deallocations());
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
            loss: None,
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
        c.loss = Some(LossConfig {
            loss_probability: 0.1,
            retry_timeout: 0.5,
            seed: 1,
        });
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

    #[test]
    fn invariant_monitor_counts_handoff_billing_checks() {
        // The monitor's check tally feeds `SimReport::invariant_checks`;
        // a handoff-billing check that forgets to count itself would
        // under-report the run's online coverage.
        let mut monitor = InvariantMonitor::new();
        assert_eq!(monitor.checks(), 0);
        monitor.check_handoff_billing(3, 3, 0, 0, 5, 5);
        assert_eq!(monitor.checks(), 1);
        monitor.check_handoff_billing(7, 3, 3, 1, 0, 0);
        assert_eq!(monitor.checks(), 2);
    }
}

#[cfg(test)]
mod loss_tests {
    use super::*;
    use crate::faults::ConfigError;
    use crate::SimBuilder;
    use mdr_core::run_spec;

    fn lossy_run(loss: f64, seed: u64) -> SimReport {
        let spec = PolicySpec::SlidingWindow { k: 5 };
        let mut sim = SimBuilder::new(spec)
            .and_then(|b| b.loss(loss, 0.05, seed))
            .unwrap()
            .simulation();
        let mut workload = crate::workload::PoissonWorkload::from_theta(1.0, 0.4, 99);
        sim.run(&mut workload, RunLimit::Requests(8_000))
    }

    #[test]
    fn zero_loss_is_identical_to_the_lossless_link() {
        let lossless = {
            let mut sim = SimBuilder::new(PolicySpec::SlidingWindow { k: 5 })
                .unwrap()
                .simulation();
            let mut w = crate::workload::PoissonWorkload::from_theta(1.0, 0.4, 99);
            sim.run(&mut w, RunLimit::Requests(8_000))
        };
        let zero = lossy_run(0.0, 1);
        assert_eq!(zero.counts, lossless.counts);
        assert_eq!(zero.data_messages, lossless.data_messages);
        assert_eq!(zero.retransmissions, 0);
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
        // probability 0.7, so attempts per message average 1/0.7.
        let base = (lossy.counts.data_messages() + lossy.counts.control_messages()) as f64;
        let billed = (lossy.data_messages + lossy.control_messages) as f64;
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
        let spec = PolicySpec::St1;
        let fresh = || SimBuilder::new(spec).unwrap();
        assert_eq!(
            fresh().loss(1.0, 0.1, 0).unwrap_err(),
            ConfigError::LossProbability { value: 1.0 }
        );
        assert_eq!(
            fresh().loss(-0.1, 0.1, 0).unwrap_err(),
            ConfigError::LossProbability { value: -0.1 }
        );
        assert_eq!(
            fresh().loss(0.3, 0.0, 0).unwrap_err(),
            ConfigError::RetryTimeout { value: 0.0 }
        );
        assert!(matches!(
            fresh().loss(f64::NAN, 0.1, 0).unwrap_err(),
            ConfigError::LossProbability { .. }
        ));
        // The error is a value, not a panic: it displays its cause.
        let err = fresh().loss(1.0, 0.1, 0).unwrap_err();
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
        sim.run(&mut workload, RunLimit::Requests(6_000))
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
        let report = sim.run(&mut workload, RunLimit::Requests(400));
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
        sim.run(&mut w, RunLimit::Requests(n))
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
        let report = sim.run(&mut w, RunLimit::Requests(6_000));
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
            sim.run(&mut w, RunLimit::Requests(5_000))
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
            sim.run(&mut w, RunLimit::Requests(3_000))
        };
        let inert = {
            let plan = FaultPlan::new(0.0, 1.0, 5).unwrap();
            let mut sim = SimBuilder::new(spec)
                .and_then(|b| b.faults(plan))
                .unwrap()
                .simulation();
            let mut w = crate::workload::PoissonWorkload::from_theta(1.0, 0.5, 31);
            sim.run(&mut w, RunLimit::Requests(3_000))
        };
        assert_eq!(clean, inert);
        assert_eq!(inert.disconnects, 0);
    }

    #[test]
    fn time_limited_runs_terminate_under_faults() {
        // Link faults self-perpetuate; the run must still stop once the
        // workload is exhausted and nothing is in service.
        let mut sim = Simulation::new(faulty_config(PolicySpec::St2, 0.1, 9));
        let mut w = crate::workload::PoissonWorkload::from_theta(5.0, 0.5, 17);
        let report = sim.run(&mut w, RunLimit::Time(50.0));
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
        sim.run(&mut w, RunLimit::Requests(n))
    }

    #[test]
    fn zero_loss_arq_changes_only_the_ack_traffic() {
        let lossless = {
            let mut sim = SimBuilder::new(PolicySpec::SlidingWindow { k: 5 })
                .unwrap()
                .simulation();
            let mut w = crate::workload::PoissonWorkload::from_theta(1.0, 0.4, 2024);
            sim.run(&mut w, RunLimit::Requests(4_000))
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
        let report = sim.run(&mut w, RunLimit::Requests(400));
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
        let report = sim.run(&mut w, RunLimit::Requests(5_000));
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
        let r = sim.run(&mut w, RunLimit::Requests(4_000));
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
        let r = sim.run(&mut w, RunLimit::Requests(4_000));
        assert_eq!((r.disconnects, r.mc_crashes, r.sc_outages), (174, 72, 20));
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
        let r = sim.run(&mut w, RunLimit::Requests(3_000));
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
        let r = sim.run(&mut w, RunLimit::Requests(1_500));
        assert_eq!(r.retransmissions, 490);
        assert_eq!(r.makespan.to_bits(), 0x4097_c13d_5150_a875);
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
        let r = sim.run(&mut w, RunLimit::Requests(400));
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
        let r = sim.run(&mut w, RunLimit::Requests(1_500));
        assert!(r.handoffs > 0 && r.retransmissions > 0);
        assert_eq!(r.retransmissions, 1_400);
        assert_eq!(r.mean_read_latency.to_bits(), 0x3fba_2603_ddf5_8473);
    }
}

#[cfg(test)]
mod topology_tests {
    use super::*;
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
        sim.run(&mut workload, RunLimit::Requests(4_000))
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
        let r = sim.run(&mut w, RunLimit::Requests(4_000));
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
        let r = sim.run(&mut w, RunLimit::Requests(4_000));
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
        let mut w = crate::workload::PoissonWorkload::from_theta(1.0, 0.3, 9);
        let report = sim.run(&mut w, RunLimit::Time(40.0));
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
}
