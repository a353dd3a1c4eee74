//! Multi-cell topology and the fault-hardened handoff protocol
//! (mobility-layer extension; see `docs/topology.md`).
//!
//! The paper pins each MC to a single SC, but its motivation (§2, §8) is a
//! cellular architecture in which the MC roams between cells. This module
//! defines [`TopologyConfig`]: a set of SCs/cells plus a deterministic,
//! seed-driven mobility plan that migrates the MC between cells mid-run.
//! Whenever the MC's current cell differs from the cell that owns its
//! replica state, the simulator runs a three-way handoff over the wired
//! inter-SC backbone:
//!
//! ```text
//! owner cell                      target cell
//!     | -------- HandoffRequest ------> |   (control)
//!     | -------- StateTransfer -------> |   (data: version, window, streaks)
//!     | <------- HandoffCommit -------- |   (control)
//! ```
//!
//! Every leg is epoch-fenced: a leg carrying a stale handoff epoch — a
//! duplicate, a reordered copy, or the tail of an aborted attempt — is
//! discarded on arrival, so the protocol is idempotent under network
//! misbehaviour. A handoff that has not committed by its deadline aborts
//! and *rolls back* to the origin cell: ownership never moves until the
//! commit lands at the origin, so there is exactly one owner at every
//! instant. While a handoff is stuck (aborted at least once and not yet
//! re-committed), the MC degrades gracefully — reads are served stale from
//! the origin cell's replica and wire-bound requests are shed with a typed
//! outcome — instead of blocking the event loop.
//!
//! On commit the origin cell's replica goes stale (and so does any orphan
//! a previously aborted `StateTransfer` parked at a target cell); the
//! commit triggers invalidation so non-owner cells drop those stale
//! replicas — either one message per stale cell, or a single broadcast
//! (the third message class), whichever the configuration selects. The
//! choice is pure pricing: replica placement after invalidation is
//! identical either way, which is what experiment E19 measures.
//!
//! Everything here is deterministic: the same `(TopologyConfig, workload)`
//! pair reproduces the same migrations, leg losses and therefore a
//! byte-identical cost ledger. A plan with `migration_rate == 0` is
//! *inert*: it schedules no events, draws nothing from any RNG stream and
//! reproduces the single-cell ledger digest bit for bit.
//!
//! The module also holds §1's latency-only cellular walk
//! ([`MobilityConfig`]). At run time each walk is a crate-private layer,
//! `Mobility` or `Topology`, that owns its config and RNG streams; the
//! handoff protocol itself is the sans-io [`HandoffState`].

use crate::faults::{probability, ArqConfig, ConfigError, Ghosts};
use crate::perf::BatchedF64;
use crate::sim::{Cx, Event, InvariantMonitor, SimConfig, SimReport, Wakeup};

/// The three legs of the handoff protocol, in wire order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HandoffLeg {
    /// Origin → target: announce the migration, carrying the new epoch.
    Request,
    /// Origin → target: the replica snapshot (version, SWk window, T1/T2
    /// streaks) — the one data-class leg.
    Transfer,
    /// Target → origin: acknowledge the snapshot; ownership moves when
    /// this lands at the origin.
    Commit,
}

/// A multi-cell topology with a deterministic, seed-driven mobility plan.
///
/// Migrations arrive as a Poisson process at `migration_rate`; each one
/// moves the MC to a uniformly drawn *different* cell and (if the MC left
/// the owner cell) starts the three-way handoff described in the module
/// docs. All randomness — dwell times, destination cells, backbone leg
/// losses, commit ghosts — comes from dedicated RNG streams derived from
/// `seed`, so the plan never perturbs the workload, fault or ARQ streams.
///
/// ```
/// use mdr_sim::TopologyConfig;
///
/// let topology = TopologyConfig::new(3, 0.5, 2.0, 7)
///     .and_then(|t| t.with_home_cell(1))
///     .and_then(|t| t.with_loss(0.1));
/// assert!(topology.is_ok());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TopologyConfig {
    /// Number of cells (≥ 1). One cell makes every migration a no-op.
    pub cells: usize,
    /// The cell the MC starts in; its SC owns the replica state initially.
    pub home_cell: usize,
    /// Poisson rate of MC migrations (per time unit). Zero makes the plan
    /// inert: no events, no draws, the single-cell ledger exactly.
    pub migration_rate: f64,
    /// How long a handoff may stay uncommitted before it aborts and rolls
    /// back to the origin cell (epoch fence + re-initiation).
    pub handoff_deadline: f64,
    /// Invalidation mode on commit: `true` sends one broadcast to all
    /// cells, `false` sends one message per stale replica.
    pub broadcast_invalidation: bool,
    /// Per-attempt probability that a backbone handoff leg is lost.
    pub loss_probability: f64,
    /// Per-delivery probability that the network duplicates a
    /// `HandoffCommit` (the copy arrives right behind the original).
    pub commit_duplication: f64,
    /// Per-delivery probability that a stale `HandoffCommit` copy is
    /// reordered past later traffic (arrives much later).
    pub commit_reorder: f64,
    /// RNG seed for the mobility and backbone streams.
    pub seed: u64,
}

impl TopologyConfig {
    /// A topology of `cells` cells with the MC homed to cell 0, migrating
    /// at `migration_rate`, handoffs abandoned after `handoff_deadline`,
    /// per-cell invalidation and a lossless backbone. Refine with the
    /// `with_*` builders.
    ///
    /// # Errors
    ///
    /// [`ConfigError::NoCells`] for an empty topology,
    /// [`ConfigError::HandoffRate`] for a negative or non-finite migration
    /// rate, and [`ConfigError::HandoffDeadline`] for a non-positive or
    /// non-finite deadline.
    pub fn new(
        cells: usize,
        migration_rate: f64,
        handoff_deadline: f64,
        seed: u64,
    ) -> Result<Self, ConfigError> {
        if cells == 0 {
            return Err(ConfigError::NoCells);
        }
        if !(migration_rate >= 0.0 && migration_rate.is_finite()) {
            return Err(ConfigError::HandoffRate {
                value: migration_rate,
            });
        }
        if !(handoff_deadline > 0.0 && handoff_deadline.is_finite()) {
            return Err(ConfigError::HandoffDeadline {
                deadline: handoff_deadline,
                rto: 0.0,
            });
        }
        Ok(TopologyConfig {
            cells,
            home_cell: 0,
            migration_rate,
            handoff_deadline,
            broadcast_invalidation: false,
            loss_probability: 0.0,
            commit_duplication: 0.0,
            commit_reorder: 0.0,
            seed,
        })
    }

    /// Homes the MC (and the initial replica ownership) to `home_cell`.
    ///
    /// # Errors
    ///
    /// [`ConfigError::UnknownHomeCell`] if the index is out of range.
    pub fn with_home_cell(mut self, home_cell: usize) -> Result<Self, ConfigError> {
        if home_cell >= self.cells {
            return Err(ConfigError::UnknownHomeCell {
                home: home_cell,
                cells: self.cells,
            });
        }
        self.home_cell = home_cell;
        Ok(self)
    }

    /// Selects broadcast invalidation (one message per commit) instead of
    /// the per-cell default (one message per stale replica).
    #[must_use]
    pub fn with_broadcast_invalidation(mut self) -> Self {
        self.broadcast_invalidation = true;
        self
    }

    /// Sets the per-attempt loss probability of backbone handoff legs.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Probability`] for a value outside `[0, 1]`.
    pub fn with_loss(mut self, loss_probability: f64) -> Result<Self, ConfigError> {
        self.loss_probability = probability(loss_probability, "handoff loss probability")?;
        Ok(self)
    }

    /// Enables `HandoffCommit` duplication and stale reordering — network
    /// misbehaviour the epoch fence must absorb without observable effect.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Probability`] for a value outside `[0, 1]`.
    pub fn with_commit_ghosts(
        mut self,
        duplication: f64,
        reorder: f64,
    ) -> Result<Self, ConfigError> {
        self.commit_duplication = probability(duplication, "commit duplication probability")?;
        self.commit_reorder = probability(reorder, "commit reorder probability")?;
        Ok(self)
    }

    /// Whether this plan can migrate the MC at all. An inert plan
    /// schedules no events and draws nothing, reproducing the single-cell
    /// execution exactly.
    pub fn is_inert(&self) -> bool {
        // Validation pins the rate to [0, ∞), so ≤ 0 means exactly zero.
        self.migration_rate <= 0.0
    }
}

/// IEEE-754 total-order comparison on the float fields, exact equality on
/// everything else — same rationale as `SimConfig`'s `PartialEq`.
impl PartialEq for TopologyConfig {
    fn eq(&self, other: &Self) -> bool {
        self.cells == other.cells
            && self.home_cell == other.home_cell
            && self.migration_rate.total_cmp(&other.migration_rate).is_eq()
            && self
                .handoff_deadline
                .total_cmp(&other.handoff_deadline)
                .is_eq()
            && self.broadcast_invalidation == other.broadcast_invalidation
            && self
                .loss_probability
                .total_cmp(&other.loss_probability)
                .is_eq()
            && self
                .commit_duplication
                .total_cmp(&other.commit_duplication)
                .is_eq()
            && self.commit_reorder.total_cmp(&other.commit_reorder).is_eq()
            && self.seed == other.seed
    }
}

impl Eq for TopologyConfig {}

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

/// An exponential dwell at `rate` from one draw of `rng`: the waiting time
/// to a cell walk's next move.
fn dwell(rng: &mut BatchedF64, rate: f64) -> f64 {
    let u = rng.draw();
    -f64::ln(1.0 - u) / rate
}

/// A uniformly drawn cell of `cells` other than `current`, from one draw
/// of `rng`; a single cell stays put and draws nothing.
fn other_cell(rng: &mut BatchedF64, current: usize, cells: usize) -> usize {
    if cells > 1 {
        let mut next = (rng.draw() * (cells - 1) as f64) as usize;
        if next >= current {
            next += 1;
        }
        next.min(cells - 1)
    } else {
        current
    }
}

/// A [`MobilityConfig`] at run time: the config, its movement stream, and
/// the cell the MC sits in.
pub(crate) struct Mobility {
    config: MobilityConfig,
    rng: BatchedF64,
    cell: usize,
    /// Cached `cell_extra_latency[cell]`, so the per-transmit hot path
    /// reads one `f64` instead of indexing through the config.
    pub(crate) cell_extra: f64,
}

impl Mobility {
    pub(crate) fn new(config: MobilityConfig) -> Self {
        Mobility {
            rng: BatchedF64::new(config.seed),
            cell: 0,
            cell_extra: config.cell_extra_latency[0],
            config,
        }
    }

    /// Draws the next dwell time and arms the handoff.
    pub(crate) fn schedule_handoff(&mut self, cx: &mut Cx) {
        let dwell = dwell(&mut self.rng, self.config.handoff_rate);
        cx.arm(Wakeup::Handoff, cx.now + dwell);
    }

    /// Moves the MC to a uniformly chosen *different* cell, then schedules
    /// the next handoff.
    pub(crate) fn hand_off(&mut self, cx: &mut Cx) {
        let cells = &self.config.cell_extra_latency;
        self.cell = other_cell(&mut self.rng, self.cell, cells.len());
        self.cell_extra = cells[self.cell];
        cx.tally.handoffs += 1;
        self.schedule_handoff(cx);
    }
}

/// A live [`TopologyConfig`] at run time: the config, its two RNG
/// streams and the [`HandoffState`] it drives. Backbone legs ride
/// SC-to-SC wiring at the base link `latency`; with the ARQ transport
/// installed, its timeout law governs their retransmissions too. The
/// flight's leg, leg retry and deadline are armed in their [`Wakeup`]
/// slots only while it is in the air.
pub(crate) struct Topology {
    config: TopologyConfig,
    latency: f64,
    arq: Option<ArqConfig>,
    /// Dwell times, destination cells, and handoff-leg loss/jitter draws.
    rng: BatchedF64,
    /// Commit duplication/reordering draws. A separate stream so turning
    /// ghosts on cannot perturb the legs' loss fates — the idempotence
    /// property in `properties.rs` relies on this.
    ghost_rng: BatchedF64,
    /// The handoff protocol: where the MC and the window's owner sit, the
    /// stale replicas, the flight in the air and the stuck flag.
    pub(crate) state: HandoffState,
}

impl Topology {
    /// The layer for `sim`'s topology, or `None` without one or for an
    /// inert plan: one that never migrates must behave exactly like no
    /// plan at all, so it schedules nothing, draws nothing and runs no
    /// handoff-billing check.
    pub(crate) fn new(sim: &SimConfig) -> Option<Self> {
        let config = sim.topology.filter(|t| !t.is_inert())?;
        Some(Topology {
            config,
            latency: sim.latency,
            arq: sim.arq,
            rng: BatchedF64::new(config.seed),
            // Salted so the ghost stream is independent of the leg stream.
            ghost_rng: BatchedF64::new(config.seed ^ 0x9e37_79b9_7f4a_7c15),
            state: HandoffState::new(&config, sim.arq.map(|arq| arq.retry_budget)),
        })
    }

    /// Draws the next exponential dwell time and arms the migration.
    pub(crate) fn schedule_migration(&mut self, cx: &mut Cx) {
        let dwell = dwell(&mut self.rng, self.config.migration_rate);
        cx.arm(Wakeup::Migrate, cx.now + dwell);
    }

    /// Moves the MC to a uniformly chosen *different* cell. Returns
    /// whether that fenced a flight in the air, so the simulator degrades
    /// its queue before ownership follows the MC.
    pub(crate) fn migrate(&mut self, cx: &mut Cx) -> bool {
        let to = other_cell(&mut self.rng, self.state.mc_cell, self.config.cells);
        let fenced = self.state.migrate(to, &mut cx.tally);
        Self::retire(fenced, cx)
    }

    /// Ownership follows the MC ([`HandoffState::follow`]): a flight that
    /// sets off arms its deadline and sends its first leg. Returns whether
    /// one did.
    pub(crate) fn follow(&mut self, cx: &mut Cx) -> bool {
        if !self.state.follow() {
            return false;
        }
        cx.arm(
            Wakeup::HandoffDeadline,
            cx.now + self.config.handoff_deadline,
        );
        self.send(cx);
        true
    }

    /// Sends one more backbone attempt of the flight's awaiting leg — its
    /// first, or a retransmission when the retry timer fired: bill it,
    /// draw its fate, arm its landing (and queue any commit ghosts) if it
    /// survives, and arm its retransmission timer if the retry budget
    /// allows one. Without ARQ a leg is sent once and the deadline abort
    /// is the only recovery.
    pub(crate) fn send(&mut self, cx: &mut Cx) {
        // Two draws per attempt — loss fate, then retry jitter — mirroring
        // the ARQ transport so the stream position is a function of the
        // attempt count alone.
        let lost = self.rng.draw() < self.config.loss_probability;
        let jitter_u = self.rng.draw();
        let sent = self.state.send(&mut cx.tally);
        let (epoch, leg) = (sent.epoch, sent.leg);
        if !lost {
            let arrives = cx.now + self.latency;
            if cx.is_armed(Wakeup::HandoffLeg) {
                // A retransmission on a backbone slower than its timeout:
                // the earlier copy in the slot lands first and moves the
                // flight on, so this one lands stale.
                cx.push_event(arrives, Event::HandoffLegArrive { epoch, leg });
            } else {
                cx.arm(Wakeup::HandoffLeg, arrives);
            }
            if leg == HandoffLeg::Commit {
                // Ghost copies land strictly after the original, so the
                // epoch fence discards every one of them — the idempotence
                // property `properties.rs` pins down.
                let t = &self.config;
                let ghosts =
                    Ghosts::draw(&mut self.ghost_rng, t.commit_duplication, t.commit_reorder);
                for at in ghosts.arrivals(arrives, self.latency) {
                    cx.push_event(at, Event::HandoffLegArrive { epoch, leg });
                }
            }
        }
        // Past the budget no timer follows and the deadline abort recovers
        // (graceful degradation, not escalation: the wireless link is fine).
        if let Some(arq) = self.arq.filter(|_| sent.retry) {
            let at = cx.now + arq.jittered_timeout(sent.attempt, jitter_u);
            cx.arm(Wakeup::HandoffRetry, at);
        }
    }

    /// The leg slot fired: the copy in it is the flight's awaiting leg.
    /// Returns whether the flight committed, so the simulator drains its
    /// queue.
    pub(crate) fn land(&mut self, cx: &mut Cx) -> bool {
        let Some(&HandoffFlight {
            epoch, awaiting, ..
        }) = self.state.flight()
        else {
            unreachable!("the leg is armed only while its flight is in the air")
        };
        self.arrive(epoch, awaiting, cx)
    }

    /// A leg reaches its destination SC ([`HandoffState::arrive`]): an
    /// advanced flight sends its next leg, a committed one retires its
    /// timers. Returns whether the flight committed.
    pub(crate) fn arrive(&mut self, epoch: u64, leg: HandoffLeg, cx: &mut Cx) -> bool {
        match self.state.arrive(epoch, leg, &mut cx.tally) {
            LegLanding::Discarded => false,
            LegLanding::Advanced => {
                self.send(cx);
                false
            }
            LegLanding::Committed => {
                cx.disarm(Wakeup::HandoffRetry);
                cx.disarm(Wakeup::HandoffDeadline);
                true
            }
        }
    }

    /// The flight's deadline expired with it still in the air: it aborts,
    /// and the simulator degrades its queue while ownership chases the MC
    /// under a fresh epoch.
    pub(crate) fn expire(&mut self, cx: &mut Cx) {
        let flight = self.state.expire(&mut cx.tally);
        debug_assert!(flight.is_some(), "a deadline outlived its flight");
        Self::retire(flight, cx);
    }

    /// Retires the timers of a flight the state aborted, if any: its leg
    /// in the air moves to the queue, where it still lands and is
    /// discarded, and its retry and deadline go. Returns whether there
    /// was one.
    fn retire(aborted: Option<HandoffFlight>, cx: &mut Cx) -> bool {
        let Some(flight) = aborted else {
            return false;
        };
        if cx.is_armed(Wakeup::HandoffLeg) {
            let (epoch, leg) = (flight.epoch, flight.awaiting);
            cx.demote(Wakeup::HandoffLeg, Event::HandoffLegArrive { epoch, leg });
        }
        cx.disarm(Wakeup::HandoffRetry);
        cx.disarm(Wakeup::HandoffDeadline);
        true
    }
}

/// The three-way handoff flight in the air. At most one exists at a time;
/// a migration mid-flight fences it, and ownership chases the MC under a
/// fresh epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HandoffFlight {
    /// The cell ownership departs from (and stays at on abort).
    pub origin: usize,
    /// The cell ownership is migrating toward: the MC's cell.
    pub target: usize,
    /// The fence: only legs stamped with this epoch land.
    pub epoch: u64,
    /// The leg currently in the air.
    pub awaiting: HandoffLeg,
    /// Transmission attempts of the awaiting leg (1 = the original send);
    /// reset when the flight advances to the next leg.
    pub attempts: u32,
    /// Billed backbone attempts of this flight — settled on commit, moved
    /// to the aborted tally if the deadline or a migration fences it.
    pub messages: u64,
    /// Whether the state-transfer leg landed at the target (an abort then
    /// leaves an orphaned stale replica there to invalidate later).
    pub transfer_landed: bool,
}

/// One billed backbone attempt, as [`HandoffState::send`] returns it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LegSent {
    /// The flight's epoch, stamped on the leg.
    pub epoch: u64,
    /// Which leg was sent.
    pub leg: HandoffLeg,
    /// Transmission attempts of this leg so far (1 = the original send).
    pub attempt: u32,
    /// Whether a retransmission timer follows: the ARQ transport is
    /// installed and `attempt` is within its retry budget.
    pub retry: bool,
}

/// What a leg reaching its destination SC did, as
/// [`HandoffState::arrive`] returns it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LegLanding {
    /// It was not the flight's awaiting leg under the flight's epoch — a
    /// commit ghost, a retransmission queued behind an earlier copy, or
    /// the leg of a fenced flight — and the fence discarded it.
    Discarded,
    /// The flight moved on to its next leg, which the caller sends.
    Advanced,
    /// The commit landed and ownership moved to the MC's cell.
    Committed,
}

/// The multi-cell handoff protocol as a sans-io transition relation:
/// the MC's cell, the owner cell, the stale replicas, the flight in the
/// air, the epoch and the stuck flag.
///
/// It plays the part for the topology layer that
/// [`ProtocolState`](crate::ProtocolState) plays for the wireless link.
/// The simulator drives it in timestamp order and adds what it leaves
/// out: the RNG draws, the backbone latency and the timers. The bounded
/// model checker in `mdr-verify` drives it over every interleaving of
/// migrations, landings, losses, retries and deadlines. Every operation
/// counts into the caller's [`SimReport`], and equality and hashing cover
/// the whole state, so a checker can deduplicate it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HandoffState {
    /// Invalidation pricing: one broadcast per commit round, or one
    /// message per stale replica.
    broadcast_invalidation: bool,
    /// The ARQ transport's retry budget, which bounds each leg's
    /// retransmissions too; `None` without ARQ, when a leg is sent once.
    retry_budget: Option<u32>,
    /// The cell the MC currently sits in.
    mc_cell: usize,
    /// The cell whose SC currently owns the window and replica state.
    owner_cell: usize,
    /// Cells left holding a stale replica copy by an aborted transfer or
    /// a committed migration; cleared by invalidation on commit.
    stale_replica: Vec<bool>,
    /// The handoff flight currently in the air, if any.
    flight: Option<HandoffFlight>,
    /// Monotone epoch source; every flight gets a fresh epoch and legs of
    /// older epochs self-discard (the fence).
    epoch: u64,
    /// Whether the last handoff attempt aborted with the MC still away
    /// from the owner cell: reads are served stale from the origin and
    /// wire-needing requests are shed with a typed outcome.
    stuck: bool,
}

impl HandoffState {
    /// The state a run under `topology` starts in: the MC and the
    /// window's owner in the home cell, no stale replica, no flight.
    /// `retry_budget` is the ARQ transport's ([`ArqConfig::retry_budget`]),
    /// if one is installed: it bounds each leg's retransmissions.
    pub fn new(topology: &TopologyConfig, retry_budget: Option<u32>) -> Self {
        HandoffState {
            broadcast_invalidation: topology.broadcast_invalidation,
            retry_budget,
            mc_cell: topology.home_cell,
            owner_cell: topology.home_cell,
            stale_replica: vec![false; topology.cells],
            flight: None,
            epoch: 0,
            stuck: false,
        }
    }

    /// The cell the MC sits in.
    pub fn mc_cell(&self) -> usize {
        self.mc_cell
    }

    /// The cell whose SC owns the window and replica state.
    pub fn owner_cell(&self) -> usize {
        self.owner_cell
    }

    /// Per cell, whether it holds a stale replica awaiting invalidation.
    pub fn stale_replicas(&self) -> &[bool] {
        &self.stale_replica
    }

    /// The flight in the air, if any.
    pub fn flight(&self) -> Option<&HandoffFlight> {
        self.flight.as_ref()
    }

    /// Whether a handoff is stuck: aborted, and not re-committed since.
    pub fn stuck(&self) -> bool {
        self.stuck
    }

    /// Whether ownership is away from the MC's cell: a local read is then
    /// served stale from the origin cell's state.
    pub fn serves_stale(&self) -> bool {
        self.mc_cell != self.owner_cell
    }

    /// The MC moves to cell `to`. A flight in the air is fenced: it
    /// aborts as if its deadline expired. Returns the fenced flight, so
    /// the caller can retire its leg and timers.
    pub fn migrate(&mut self, to: usize, tally: &mut SimReport) -> Option<HandoffFlight> {
        self.mc_cell = to;
        tally.migrations += 1;
        self.expire(tally)
    }

    /// Ownership follows the MC. Away from the owner cell, a fresh flight
    /// sets off from the owner toward the MC's cell under a new epoch;
    /// back in the owner cell nothing is left to migrate and the stuck
    /// degradation ends. Returns whether a flight set off; the caller
    /// then sends its first leg.
    pub fn follow(&mut self) -> bool {
        debug_assert!(self.flight.is_none(), "at most one flight in the air");
        if !self.serves_stale() {
            self.stuck = false;
            return false;
        }
        self.epoch += 1;
        self.flight = Some(HandoffFlight {
            origin: self.owner_cell,
            target: self.mc_cell,
            epoch: self.epoch,
            awaiting: HandoffLeg::Request,
            attempts: 0,
            messages: 0,
            transfer_landed: false,
        });
        true
    }

    /// Bills one more backbone attempt of the flight's awaiting leg.
    ///
    /// # Panics
    ///
    /// Panics without a flight in the air.
    pub fn send(&mut self, tally: &mut SimReport) -> LegSent {
        let Some(flight) = &mut self.flight else {
            unreachable!("legs are sent only by a flight in the air")
        };
        flight.attempts += 1;
        flight.messages += 1;
        tally.handoff_messages += 1;
        LegSent {
            epoch: flight.epoch,
            leg: flight.awaiting,
            attempt: flight.attempts,
            retry: self
                .retry_budget
                .is_some_and(|budget| flight.attempts <= budget),
        }
    }

    /// Leg `leg` stamped with `epoch` reaches its destination SC. Only
    /// the flight's awaiting leg under the flight's epoch lands: a request
    /// or transfer moves the flight on to its next leg, a commit moves
    /// ownership. Any other leg is fenced off and counted as a discard.
    pub fn arrive(&mut self, epoch: u64, leg: HandoffLeg, tally: &mut SimReport) -> LegLanding {
        let Some(flight) = self
            .flight
            .as_mut()
            .filter(|f| (f.epoch, f.awaiting) == (epoch, leg))
        else {
            tally.handoff_discards += 1;
            return LegLanding::Discarded;
        };
        flight.awaiting = match flight.awaiting {
            HandoffLeg::Request => HandoffLeg::Transfer,
            HandoffLeg::Transfer => {
                flight.transfer_landed = true;
                HandoffLeg::Commit
            }
            HandoffLeg::Commit => {
                let flight = *flight;
                self.commit(flight, tally);
                return LegLanding::Committed;
            }
        };
        flight.attempts = 0;
        LegLanding::Advanced
    }

    /// The flight's deadline expired with it still in the air: it aborts.
    /// Ownership stays at the origin cell, the flight's billed legs move
    /// to the aborted tally, an orphaned transfer leaves a stale replica
    /// at the target, and the stuck-handoff degradation begins. Returns
    /// the aborted flight, if there was one.
    pub fn expire(&mut self, tally: &mut SimReport) -> Option<HandoffFlight> {
        let flight = self.flight.take()?;
        tally.handoffs_aborted += 1;
        tally.aborted_handoff_messages += flight.messages;
        if flight.transfer_landed {
            self.stale_replica[flight.target] = true;
        }
        self.stuck = true;
        Some(flight)
    }

    /// The commit leg landed: ownership moves, the origin's replica goes
    /// stale, and invalidation traffic (the third message class) makes
    /// every non-owner cell drop its stale copy — one broadcast per
    /// commit round, or one unicast per stale replica.
    fn commit(&mut self, flight: HandoffFlight, tally: &mut SimReport) {
        debug_assert_eq!(
            flight.target, self.mc_cell,
            "a migration mid-flight re-fences the handoff"
        );
        self.flight = None;
        tally.settled_handoff_messages += flight.messages;
        tally.handoffs_committed += 1;
        self.stale_replica[flight.origin] = true;
        self.owner_cell = flight.target;
        self.stale_replica[flight.target] = false;
        self.stuck = false;
        let stale = self.stale_replica.iter().filter(|s| **s).count() as u64;
        if stale > 0 {
            if self.broadcast_invalidation {
                tally.invalidation_messages += 1;
                tally.invalidation_rounds += 1;
            } else {
                tally.invalidation_messages += stale;
            }
            tally.replicas_invalidated += stale;
            self.stale_replica.fill(false);
        }
    }

    /// Handoff-ledger consistency, one check of `monitor`: every billed
    /// backbone leg attempt is settled with a committed flight, aborted
    /// with a fenced one, or still in the air, and the invalidation bill
    /// matches its pricing rule — one broadcast per round, or one unicast
    /// per dropped replica. Handoff billing is a class of its own, never
    /// mixed into the §3 wireless bill.
    ///
    /// # Panics
    ///
    /// Panics if either identity does not hold.
    pub fn check_billing(&self, monitor: &mut InvariantMonitor, tally: &SimReport) {
        monitor.checks += 1;
        let billed = tally.handoff_messages;
        let (settled, aborted) = (
            tally.settled_handoff_messages,
            tally.aborted_handoff_messages,
        );
        let in_flight = self.flight.as_ref().map_or(0, |f| f.messages);
        assert_eq!(
            billed,
            settled + aborted + in_flight,
            "handoff billing identity broken: {billed} billed vs {settled} settled + \
             {aborted} aborted + {in_flight} in flight"
        );
        let owed = if self.broadcast_invalidation {
            tally.invalidation_rounds
        } else {
            tally.replicas_invalidated
        };
        let invalidation = tally.invalidation_messages;
        assert_eq!(
            invalidation, owed,
            "invalidation billing identity broken: {invalidation} billed vs {owed} owed by the \
             invalidation class's pricing rule"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_topologies_build() {
        let topology = TopologyConfig::new(4, 0.5, 2.0, 7)
            .and_then(|t| t.with_home_cell(2))
            .and_then(|t| t.with_loss(0.2))
            .and_then(|t| t.with_commit_ghosts(0.1, 0.05))
            .unwrap()
            .with_broadcast_invalidation();
        assert_eq!(topology.cells, 4);
        assert_eq!(topology.home_cell, 2);
        assert!(topology.broadcast_invalidation);
        assert!(!topology.is_inert());
    }

    /// Satellite: zero cells is rejected with exactly `NoCells`.
    #[test]
    fn zero_cells_are_rejected() {
        let err = TopologyConfig::new(0, 0.5, 2.0, 0).unwrap_err();
        assert_eq!(err, ConfigError::NoCells);
        assert!(err.to_string().contains("at least one cell"), "{err}");
    }

    /// Satellite: homing the MC to a cell the topology does not contain is
    /// rejected with exactly `UnknownHomeCell`.
    #[test]
    fn unknown_home_cell_is_rejected() {
        for bad in [3, 4, usize::MAX] {
            let err = TopologyConfig::new(3, 0.5, 2.0, 0)
                .unwrap()
                .with_home_cell(bad)
                .unwrap_err();
            assert!(
                matches!(err, ConfigError::UnknownHomeCell { home, cells } if home == bad && cells == 3),
                "{err}"
            );
            assert!(err.to_string().contains("home cell"), "{err}");
        }
        assert!(TopologyConfig::new(3, 0.5, 2.0, 0)
            .unwrap()
            .with_home_cell(2)
            .is_ok());
    }

    /// Satellite: a non-positive or non-finite deadline is rejected with
    /// exactly `HandoffDeadline` (the deadline-vs-RTO cross-check lives in
    /// the builder, where the ARQ configuration is visible).
    #[test]
    fn handoff_deadline_is_validated() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = TopologyConfig::new(2, 0.5, bad, 0).unwrap_err();
            assert!(
                matches!(err, ConfigError::HandoffDeadline { deadline, .. } if deadline.total_cmp(&bad).is_eq()),
                "{err}"
            );
            assert!(err.to_string().contains("handoff deadline"), "{err}");
        }
    }

    #[test]
    fn migration_rate_is_validated() {
        for bad in [-0.1, f64::NAN, f64::INFINITY] {
            let err = TopologyConfig::new(2, bad, 2.0, 0).unwrap_err();
            assert!(
                matches!(err, ConfigError::HandoffRate { value } if value.total_cmp(&bad).is_eq()),
                "{err}"
            );
        }
        // Zero is legal: the inert plan.
        assert!(TopologyConfig::new(2, 0.0, 2.0, 0).unwrap().is_inert());
    }

    #[test]
    fn backbone_probabilities_are_validated() {
        let base = TopologyConfig::new(2, 0.5, 2.0, 0).unwrap();
        for bad in [-0.1, 1.1, f64::NAN] {
            assert!(base.with_loss(bad).is_err());
            assert!(base.with_commit_ghosts(bad, 0.0).is_err());
            assert!(base.with_commit_ghosts(0.0, bad).is_err());
        }
    }

    #[test]
    fn equality_is_total_order_on_floats() {
        let a = TopologyConfig::new(3, 0.5, 2.0, 9).unwrap();
        let b = TopologyConfig::new(3, 0.5, 2.0, 9).unwrap();
        assert_eq!(a, b);
        let c = TopologyConfig::new(3, 0.5, 2.0, 10).unwrap();
        assert_ne!(a, c);
    }

    /// A state over `cells` cells whose MC just moved to cell 1 and whose
    /// first flight set off toward it.
    fn in_flight(cells: usize, retry_budget: Option<u32>, tally: &mut SimReport) -> HandoffState {
        let topology = TopologyConfig::new(cells, 1.0, 1.0, 0).unwrap();
        let mut state = HandoffState::new(&topology, retry_budget);
        assert!(state.migrate(1, tally).is_none());
        assert!(state.follow());
        state
    }

    /// Only the awaiting leg under the flight's epoch lands; a wrong leg
    /// or a stale epoch is counted as a discard and changes nothing.
    #[test]
    fn arrive_lands_only_the_awaiting_leg_of_the_live_epoch() {
        let mut tally = SimReport::default();
        let mut state = in_flight(3, None, &mut tally);
        let sent = state.send(&mut tally);
        assert_eq!(
            (sent.epoch, sent.leg, sent.attempt),
            (1, HandoffLeg::Request, 1)
        );
        let before = state.clone();
        for (epoch, leg) in [(0, HandoffLeg::Request), (1, HandoffLeg::Transfer)] {
            assert_eq!(state.arrive(epoch, leg, &mut tally), LegLanding::Discarded);
        }
        assert_eq!((state.clone(), tally.handoff_discards), (before, 2));
        let landing = state.arrive(1, HandoffLeg::Request, &mut tally);
        assert_eq!(landing, LegLanding::Advanced);
        assert_eq!(
            state.flight().map(|f| f.awaiting),
            Some(HandoffLeg::Transfer)
        );
    }

    /// With ARQ, each leg arms a retry timer for its first `budget`
    /// attempts; the count restarts with the next leg. Without ARQ no
    /// leg arms one.
    #[test]
    fn the_retry_budget_bounds_each_legs_timers() {
        let mut tally = SimReport::default();
        let mut state = in_flight(2, Some(2), &mut tally);
        let retries: Vec<(u32, bool)> = (0..3)
            .map(|_| state.send(&mut tally))
            .map(|s| (s.attempt, s.retry))
            .collect();
        assert_eq!(retries, [(1, true), (2, true), (3, false)]);
        state.arrive(1, HandoffLeg::Request, &mut tally);
        let sent = state.send(&mut tally);
        assert_eq!(
            (sent.leg, sent.attempt, sent.retry),
            (HandoffLeg::Transfer, 1, true)
        );
        let mut tally = SimReport::default();
        let mut state = in_flight(2, None, &mut tally);
        assert!(!state.send(&mut tally).retry);
    }

    /// An abort keeps ownership at the origin, writes the flight's legs
    /// off, orphans a landed transfer and leaves the handoff stuck; the
    /// next commit invalidates every stale replica and settles its legs.
    #[test]
    fn an_abort_keeps_ownership_and_the_next_commit_invalidates() {
        let mut tally = SimReport::default();
        let mut state = in_flight(3, None, &mut tally);
        for leg in [HandoffLeg::Request, HandoffLeg::Transfer] {
            state.send(&mut tally);
            assert_eq!(state.arrive(1, leg, &mut tally), LegLanding::Advanced);
        }
        let aborted = state.expire(&mut tally).unwrap();
        assert_eq!((aborted.messages, aborted.transfer_landed), (2, true));
        assert_eq!((state.owner_cell(), state.stuck()), (0, true));
        assert_eq!(state.stale_replicas(), [false, true, false]);
        assert_eq!(
            (tally.handoffs_aborted, tally.aborted_handoff_messages),
            (1, 2)
        );
        // The MC moves on to cell 2; ownership chases it from cell 0.
        assert!(state.migrate(2, &mut tally).is_none());
        assert!(state.follow());
        for leg in [
            HandoffLeg::Request,
            HandoffLeg::Transfer,
            HandoffLeg::Commit,
        ] {
            let sent = state.send(&mut tally);
            assert_eq!((sent.epoch, sent.leg), (2, leg));
            state.arrive(2, leg, &mut tally);
        }
        assert_eq!((state.owner_cell(), state.stuck()), (2, false));
        assert!(state.flight().is_none());
        assert_eq!(state.stale_replicas(), [false; 3]);
        assert_eq!(
            (tally.handoffs_committed, tally.settled_handoff_messages),
            (1, 3)
        );
        // Cells 0 (the origin) and 1 (the orphan) were invalidated.
        assert_eq!(
            (tally.invalidation_messages, tally.replicas_invalidated),
            (2, 2)
        );
        let mut monitor = InvariantMonitor::new();
        state.check_billing(&mut monitor, &tally);
        assert_eq!(monitor.checks(), 1);
        // With the MC at home, nothing is left to migrate.
        assert!(!state.follow());
    }
}
