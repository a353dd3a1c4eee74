//! Deterministic fault injection for the simulator (fault-model extension;
//! see `docs/faults.md`).
//!
//! The paper's §3 execution model assumes a reliable, connected exchange:
//! every message eventually arrives, exactly once, in order. Mobile
//! computers violate every clause of that assumption in practice — they
//! doze to save battery, drive out of coverage, crash and reboot — so this
//! module defines [`FaultPlan`], a *seed-driven schedule* of such events
//! that the discrete-event simulator injects while the reconnection
//! protocol (`ProtocolState::receive`, `begin_reconciliation`) keeps the
//! execution equivalent to the fault-free serialized order.
//!
//! Everything here is deterministic: the same `(FaultPlan, workload seed)`
//! pair reproduces the same disconnection windows, crash kinds, ghost
//! deliveries and therefore a byte-identical cost ledger.

use crate::perf::BatchedF64;
use crate::protocol::Ticket;
use crate::sim::{Cx, Wakeup};
use std::error::Error;
use std::fmt;

/// An invalid simulation, sweep-grid or fault-plan parameter, reported as a
/// typed value instead of a panic so configuration errors are recoverable
/// (e.g. when the parameters come from CLI flags) and machine-matchable
/// (callers can branch on the variant, not on a message substring).
///
/// The enum is hand-implemented in the `thiserror` idiom — one variant per
/// failure, `Display` carrying the human message, `std::error::Error` for
/// `?`-composition — because the offline build vendors no proc-macro
/// crates (see `vendor/README` rationale in the workspace manifest).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A retry timeout that is not finite and positive.
    RetryTimeout {
        /// The rejected value.
        value: f64,
    },
    /// A link latency that is negative or not finite.
    Latency {
        /// The rejected value.
        value: f64,
    },
    /// A mobility model with an empty cell list.
    NoCells,
    /// A per-cell extra latency that is negative or not finite.
    CellLatency {
        /// The rejected value.
        value: f64,
    },
    /// A handoff rate that is not finite and positive.
    HandoffRate {
        /// The rejected value.
        value: f64,
    },
    /// A sliding-window size that is even or zero (§4 requires an odd
    /// window so the majority vote is never tied).
    EvenWindow {
        /// The rejected window size.
        k: usize,
    },
    /// A T1/T2 streak threshold of zero.
    ZeroThreshold,
    /// A named probability outside `[0, 1]`.
    Probability {
        /// Which probability was rejected (e.g. `"crash probability"`).
        what: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A disconnect rate that is negative or not finite.
    DisconnectRate {
        /// The rejected value.
        value: f64,
    },
    /// A mean outage duration that is not finite and positive.
    MeanOutage {
        /// The rejected value.
        value: f64,
    },
    /// Crash and SC-outage probabilities that sum past 1 (they classify
    /// disjoint outage kinds, so they must partition).
    FaultPartition {
        /// The offending sum.
        total: f64,
    },
    /// Two *different* fault plans installed on the same builder or grid —
    /// the engine cannot honour both schedules at once.
    ConflictingFaultPlans,
    /// A write fraction θ outside `[0, 1]`.
    Theta {
        /// The rejected value.
        value: f64,
    },
    /// A control-message weight ω outside `[0, 1]`.
    Omega {
        /// The rejected value.
        value: f64,
    },
    /// A workload arrival rate that is not finite and positive.
    Rate {
        /// The rejected value.
        value: f64,
    },
    /// An empty sweep-grid axis (every cross-product dimension needs at
    /// least one value).
    EmptyAxis {
        /// Which axis was empty (e.g. `"policies"`).
        what: &'static str,
    },
    /// A sweep count (replications, requests per cell) of zero.
    ZeroCount {
        /// Which count was zero.
        what: &'static str,
    },
    /// An ARQ backoff factor below 1 or not finite (the retransmission
    /// timeout must not shrink between attempts).
    BackoffFactor {
        /// The rejected value.
        value: f64,
    },
    /// An ARQ jitter fraction outside `[0, 1)`.
    Jitter {
        /// The rejected value.
        value: f64,
    },
    /// An ARQ retry budget of zero (at least the original transmission
    /// must be attempted before escalating to a declared disconnection).
    ZeroRetryBudget,
    /// An ARQ degradation deadline that is not finite and positive.
    DegradeDeadline {
        /// The rejected value.
        value: f64,
    },
    /// An MC homed to a cell index the topology does not contain.
    UnknownHomeCell {
        /// The rejected home-cell index.
        home: usize,
        /// How many cells the topology has.
        cells: usize,
    },
    /// A handoff deadline shorter than the ARQ transport's first
    /// retransmission timeout: the three-way handoff rides the ARQ link, so
    /// a deadline below one RTO would abort every handoff before its first
    /// retransmission could even fire.
    HandoffDeadline {
        /// The rejected deadline.
        deadline: f64,
        /// The ARQ transport's first retransmission timeout.
        rto: f64,
    },
    /// A serve-layer request named a tenant that was never opened (or was
    /// already closed).
    UnknownTenant {
        /// The tenant id the request named.
        tenant: String,
    },
    /// Opening one more tenant would exceed the serve layer's admission
    /// limit.
    TenantLimit {
        /// The configured maximum number of concurrent tenants.
        limit: usize,
    },
    /// A serve-layer request that could not be understood — malformed JSON,
    /// an unknown operation, or a field of the wrong shape. Carries the
    /// parse-level reason verbatim so operators can fix the producing
    /// client.
    BadDecisionRequest {
        /// What was wrong with the request.
        reason: String,
    },
    /// A decision-core snapshot whose format version this build does not
    /// speak.
    SnapshotVersion {
        /// The version the snapshot declared.
        found: u32,
        /// The newest version this build can restore.
        supported: u32,
    },
    /// The durability layer's data directory could not be created, read,
    /// or written.
    DataDir {
        /// The path that failed.
        path: String,
        /// The I/O-level reason, verbatim.
        reason: String,
    },
    /// A tenant's write-ahead journal failed recovery validation —
    /// a checksum mismatch, a sequence gap, an undecodable record, or a
    /// journal that does not begin with a tenant-creating operation. The
    /// tenant is quarantined; the daemon and other tenants continue.
    JournalCorrupt {
        /// The tenant whose journal failed.
        tenant: String,
        /// What the scan found.
        reason: String,
    },
    /// A checkpoint file whose format version this build does not speak.
    CheckpointVersion {
        /// The version the checkpoint declared.
        found: u32,
        /// The newest version this build can load.
        supported: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: ")?;
        match self {
            ConfigError::RetryTimeout { value } => {
                write!(f, "retry timeout must be finite and positive, got {value}")
            }
            ConfigError::Latency { value } => {
                write!(f, "latency must be finite and non-negative, got {value}")
            }
            ConfigError::NoCells => write!(f, "at least one cell required"),
            ConfigError::CellLatency { value } => {
                write!(
                    f,
                    "cell latencies must be finite and non-negative, got {value}"
                )
            }
            ConfigError::HandoffRate { value } => {
                write!(f, "handoff rate must be finite and positive, got {value}")
            }
            ConfigError::EvenWindow { k } => {
                write!(f, "window size must be odd and positive, got {k}")
            }
            ConfigError::ZeroThreshold => write!(f, "threshold m must be at least 1"),
            ConfigError::Probability { what, value } => {
                write!(f, "{what} must lie in [0, 1], got {value}")
            }
            ConfigError::DisconnectRate { value } => {
                write!(
                    f,
                    "disconnect rate must be finite and non-negative, got {value}"
                )
            }
            ConfigError::MeanOutage { value } => {
                write!(f, "mean outage must be finite and positive, got {value}")
            }
            ConfigError::FaultPartition { total } => {
                write!(
                    f,
                    "crash + SC-outage probabilities must not exceed 1, got {total}"
                )
            }
            ConfigError::ConflictingFaultPlans => {
                write!(f, "two different fault plans were installed; remove one")
            }
            ConfigError::Theta { value } => {
                write!(f, "write fraction θ must lie in [0, 1], got {value}")
            }
            ConfigError::Omega { value } => {
                write!(
                    f,
                    "control-message weight ω must lie in [0, 1], got {value}"
                )
            }
            ConfigError::Rate { value } => {
                write!(f, "arrival rate must be finite and positive, got {value}")
            }
            ConfigError::EmptyAxis { what } => {
                write!(f, "sweep axis {what:?} must name at least one value")
            }
            ConfigError::ZeroCount { what } => {
                write!(f, "{what} must be at least 1")
            }
            ConfigError::BackoffFactor { value } => {
                write!(
                    f,
                    "backoff factor must be finite and at least 1, got {value}"
                )
            }
            ConfigError::Jitter { value } => {
                write!(f, "jitter fraction must lie in [0, 1), got {value}")
            }
            ConfigError::ZeroRetryBudget => {
                write!(f, "retry budget must be at least 1")
            }
            ConfigError::DegradeDeadline { value } => {
                write!(
                    f,
                    "degradation deadline must be finite and positive, got {value}"
                )
            }
            ConfigError::UnknownHomeCell { home, cells } => {
                write!(
                    f,
                    "home cell {home} does not exist in a topology of {cells} cell(s)"
                )
            }
            ConfigError::HandoffDeadline { deadline, rto } => {
                write!(
                    f,
                    "handoff deadline {deadline} is shorter than the ARQ retransmission timeout {rto}"
                )
            }
            ConfigError::UnknownTenant { tenant } => {
                write!(f, "tenant {tenant:?} is not open")
            }
            ConfigError::TenantLimit { limit } => {
                write!(f, "tenant limit of {limit} reached; close a tenant first")
            }
            ConfigError::BadDecisionRequest { reason } => {
                write!(f, "malformed decision request: {reason}")
            }
            ConfigError::SnapshotVersion { found, supported } => {
                write!(
                    f,
                    "snapshot format version {found} is not supported (this build restores up to version {supported})"
                )
            }
            ConfigError::DataDir { path, reason } => {
                write!(f, "data directory {path:?} unusable: {reason}")
            }
            ConfigError::JournalCorrupt { tenant, reason } => {
                write!(f, "journal for tenant {tenant:?} is corrupt: {reason}")
            }
            ConfigError::CheckpointVersion { found, supported } => {
                write!(
                    f,
                    "checkpoint format version {found} is not supported (this build loads up to version {supported})"
                )
            }
        }
    }
}

impl Error for ConfigError {}

/// The kind of one connectivity fault drawn from a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The MC dozes (radio off): unreachable over the link, but its state
    /// survives and it keeps serving local reads.
    Doze,
    /// The SC is unreachable (backbone outage): no writes are served and
    /// nothing crosses the link, but the MC keeps serving local reads.
    ScOutage,
    /// The MC crashes and reboots, losing its volatile state: the replica
    /// and whatever window/streak bookkeeping it was in charge of.
    CrashVolatile,
    /// The MC crashes and reboots with its replica intact in stable
    /// storage; reconnection only re-validates it.
    CrashStable,
}

impl FaultKind {
    /// Short display name for logs and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Doze => "doze",
            FaultKind::ScOutage => "sc-outage",
            FaultKind::CrashVolatile => "crash-volatile",
            FaultKind::CrashStable => "crash-stable",
        }
    }
}

/// A deterministic, seed-driven schedule of faults for one simulation run.
///
/// Disconnections arrive as a Poisson process at `disconnect_rate`; each
/// outage lasts an exponential time with mean `mean_outage` and is
/// classified as an MC crash (volatile or stable), an SC outage, or a
/// plain doze by the configured probabilities. Independently, every
/// transmission may be duplicated or have a stale copy reordered past
/// later traffic — network misbehaviour that no retransmission scheme
/// repairs, exercised against the protocol's epoch/sequence guards.
///
/// ```
/// use mdr_sim::FaultPlan;
///
/// let plan = FaultPlan::new(0.01, 2.0, 7)
///     .and_then(|p| p.with_crashes(0.3, 0.5))
///     .and_then(|p| p.with_duplication(0.05, 0.05));
/// assert!(plan.is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Poisson rate of link-down events (per time unit). Zero disables
    /// disconnections (duplication/reordering may still fire).
    pub disconnect_rate: f64,
    /// Mean of the exponential outage duration (time units).
    pub mean_outage: f64,
    /// Probability that a disconnection is an MC crash.
    pub crash_probability: f64,
    /// Probability that an MC crash loses volatile state (vs. rebooting
    /// from stable storage).
    pub volatile_probability: f64,
    /// Probability that a disconnection is an SC outage.
    pub sc_outage_probability: f64,
    /// Per-transmission probability that the network duplicates the
    /// envelope (the copy arrives right behind the original).
    pub duplication: f64,
    /// Per-transmission probability that a stale copy is reordered past
    /// subsequent traffic (arrives much later).
    pub reorder: f64,
    /// RNG seed for the fault process.
    pub seed: u64,
}

/// `value` if it lies in `[0, 1]`, else a [`ConfigError::Probability`]
/// naming `what`.
pub(crate) fn probability(value: f64, what: &'static str) -> Result<f64, ConfigError> {
    if (0.0..=1.0).contains(&value) {
        Ok(value)
    } else {
        Err(ConfigError::Probability { what, value })
    }
}

impl FaultPlan {
    /// A plan of plain dozes: disconnections at `disconnect_rate` lasting
    /// `mean_outage` on average, no crashes, no SC outages, no
    /// duplication. Refine with the `with_*` builders.
    pub fn new(disconnect_rate: f64, mean_outage: f64, seed: u64) -> Result<Self, ConfigError> {
        if !(disconnect_rate >= 0.0 && disconnect_rate.is_finite()) {
            return Err(ConfigError::DisconnectRate {
                value: disconnect_rate,
            });
        }
        if !(mean_outage > 0.0 && mean_outage.is_finite()) {
            return Err(ConfigError::MeanOutage { value: mean_outage });
        }
        Ok(FaultPlan {
            disconnect_rate,
            mean_outage,
            crash_probability: 0.0,
            volatile_probability: 0.0,
            sc_outage_probability: 0.0,
            duplication: 0.0,
            reorder: 0.0,
            seed,
        })
    }

    /// Classifies a fraction of disconnections as MC crashes, of which
    /// `volatile_probability` lose volatile state.
    pub fn with_crashes(
        mut self,
        crash_probability: f64,
        volatile_probability: f64,
    ) -> Result<Self, ConfigError> {
        self.crash_probability = probability(crash_probability, "crash probability")?;
        self.volatile_probability = probability(volatile_probability, "volatile probability")?;
        self.check_partition()?;
        Ok(self)
    }

    /// Classifies a fraction of disconnections as SC outages.
    pub fn with_sc_outages(mut self, sc_outage_probability: f64) -> Result<Self, ConfigError> {
        self.sc_outage_probability = probability(sc_outage_probability, "SC outage probability")?;
        self.check_partition()?;
        Ok(self)
    }

    /// Enables per-transmission duplication and stale reordering.
    pub fn with_duplication(mut self, duplication: f64, reorder: f64) -> Result<Self, ConfigError> {
        self.duplication = probability(duplication, "duplication probability")?;
        self.reorder = probability(reorder, "reorder probability")?;
        Ok(self)
    }

    fn check_partition(&self) -> Result<(), ConfigError> {
        let total = self.crash_probability + self.sc_outage_probability;
        if total > 1.0 {
            return Err(ConfigError::FaultPartition { total });
        }
        Ok(())
    }

    /// Whether this plan can inject any fault at all (a plan of all-zero
    /// rates is equivalent to no plan).
    pub fn is_active(&self) -> bool {
        self.disconnect_rate > 0.0 || self.duplication > 0.0 || self.reorder > 0.0
    }
}

/// Configuration of the deterministic stop-and-wait ARQ transport
/// (robustness extension; see the "Transport" section of `docs/faults.md`).
///
/// This is the simulator's one model of a lossy link. Every envelope is
/// timed, retransmitted on timeout under an exponential-backoff law with
/// seed-derived jitter, and given up on after `retry_budget`
/// retransmissions — at which point the transport declares the link down
/// and escalates into the reconnection path. A declared
/// partition that outlives `degrade_deadline` puts the MC into degraded
/// mode: reads are served from the cached replica (staleness-tracked) and
/// requests that need the wire are shed with a typed outcome instead of
/// blocking the event loop. Because the budget is bounded, a loss
/// probability of exactly 1 is legal and the run still terminates.
///
/// All timing knobs are validated at construction; this module is the one
/// place in the workspace allowed to bind raw timeout constants (enforced
/// by `cargo xtask lint`).
///
/// ```
/// use mdr_sim::ArqConfig;
///
/// let arq = ArqConfig::new(0.2, 0.05, 7)
///     .and_then(|a| a.with_backoff(2.0, 0.1))
///     .and_then(|a| a.with_retry_budget(6))
///     .and_then(|a| a.with_degrade_deadline(2.0));
/// assert!(arq.is_ok());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ArqConfig {
    /// Per-attempt probability that the envelope (or its ack) is lost.
    /// The full closed interval `[0, 1]` is legal: the retry budget bounds
    /// every retransmission loop.
    pub loss_probability: f64,
    /// Retransmission timeout of the first attempt (time units).
    pub base_timeout: f64,
    /// Multiplicative backoff applied per retransmission (≥ 1).
    pub backoff_factor: f64,
    /// Uniform jitter fraction in `[0, 1)`: attempt `i` waits
    /// `base · factor^(i−1) · (1 + jitter · u)` with `u ~ U[0, 1)` drawn
    /// from the dedicated ARQ RNG stream.
    pub jitter: f64,
    /// Maximum retransmissions per envelope before the transport declares
    /// the link down (≥ 1).
    pub retry_budget: u32,
    /// How long a declared partition may last before the MC degrades:
    /// serving reads from its replica and shedding wire-bound requests.
    pub degrade_deadline: f64,
    /// RNG seed for the ARQ loss/jitter stream.
    pub seed: u64,
}

impl ArqConfig {
    /// An ARQ transport with the given per-attempt loss probability and
    /// base retransmission timeout: backoff factor 2, no jitter, a budget
    /// of 8 retransmissions, and a degradation deadline of 40 base
    /// timeouts. Refine with the `with_*` builders.
    pub fn new(loss_probability: f64, base_timeout: f64, seed: u64) -> Result<Self, ConfigError> {
        let loss_probability = probability(loss_probability, "ARQ loss probability")?;
        if !(base_timeout > 0.0 && base_timeout.is_finite()) {
            return Err(ConfigError::RetryTimeout {
                value: base_timeout,
            });
        }
        Ok(ArqConfig {
            loss_probability,
            base_timeout,
            backoff_factor: 2.0,
            jitter: 0.0,
            retry_budget: 8,
            degrade_deadline: 40.0 * base_timeout,
            seed,
        })
    }

    /// Sets the backoff law: the factor multiplying the timeout per
    /// retransmission (≥ 1) and the uniform jitter fraction in `[0, 1)`.
    pub fn with_backoff(mut self, factor: f64, jitter: f64) -> Result<Self, ConfigError> {
        if !(factor >= 1.0 && factor.is_finite()) {
            return Err(ConfigError::BackoffFactor { value: factor });
        }
        if !((0.0..1.0).contains(&jitter) && jitter.is_finite()) {
            return Err(ConfigError::Jitter { value: jitter });
        }
        self.backoff_factor = factor;
        self.jitter = jitter;
        Ok(self)
    }

    /// Sets the retransmission budget per envelope (≥ 1).
    pub fn with_retry_budget(mut self, budget: u32) -> Result<Self, ConfigError> {
        if budget == 0 {
            return Err(ConfigError::ZeroRetryBudget);
        }
        self.retry_budget = budget;
        Ok(self)
    }

    /// Sets the degradation deadline: how long a declared partition may
    /// last before the MC serves degraded reads and sheds wire-bound
    /// requests.
    pub fn with_degrade_deadline(mut self, deadline: f64) -> Result<Self, ConfigError> {
        if !(deadline > 0.0 && deadline.is_finite()) {
            return Err(ConfigError::DegradeDeadline { value: deadline });
        }
        self.degrade_deadline = deadline;
        Ok(self)
    }

    /// The retransmission timeout of attempt `attempt` (1-based) before
    /// jitter: `base_timeout · backoff_factor^(attempt − 1)`.
    pub fn timeout_for_attempt(&self, attempt: u32) -> f64 {
        self.base_timeout * self.backoff_factor.powi(attempt.saturating_sub(1) as i32)
    }

    /// The retransmission timeout of attempt `attempt` after jitter, for a
    /// uniform draw `u`: `timeout_for_attempt(attempt) · (1 + jitter · u)`.
    pub(crate) fn jittered_timeout(&self, attempt: u32, u: f64) -> f64 {
        self.timeout_for_attempt(attempt) * (1.0 + self.jitter * u)
    }
}

/// A [`FaultPlan`] at run time: the plan and its RNG stream. The one
/// stream feeds the link-down gaps, each outage's kind and length, and the
/// ghost fates of every wireless delivery, in the order the run asks for
/// them.
pub(crate) struct FaultProcess {
    plan: FaultPlan,
    rng: BatchedF64,
}

impl FaultProcess {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultProcess {
            rng: BatchedF64::new(plan.seed),
            plan,
        }
    }

    /// Draws the waiting time to the next disconnection and arms it.
    /// No-op at disconnect rate zero.
    pub(crate) fn schedule_link_down(&mut self, cx: &mut Cx) {
        if self.plan.disconnect_rate <= 0.0 {
            return;
        }
        debug_assert!(!cx.is_armed(Wakeup::LinkDown), "one link-down at a time");
        let u = self.rng.draw();
        let gap = -f64::ln(1.0 - u) / self.plan.disconnect_rate;
        cx.arm(Wakeup::LinkDown, cx.now + gap);
    }

    /// Classifies the outage that just began and draws its duration.
    pub(crate) fn draw_outage(&mut self) -> (FaultKind, f64) {
        let (plan, rng) = (&self.plan, &mut self.rng);
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

    /// Draws the ghost fates of one wireless delivery.
    pub(crate) fn ghosts(&mut self) -> Ghosts {
        Ghosts::draw(&mut self.rng, self.plan.duplication, self.plan.reorder)
    }
}

/// The ghost copies the network adds to one delivery. Ghosts are never
/// billed — a delivery artifact, not a send — and the receiver's guards
/// (epoch/sequence numbers, the handoff's epoch fence) discard them all.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Ghosts {
    pub(crate) duplicate: bool,
    pub(crate) reorder: bool,
}

impl Ghosts {
    /// Draws both fates from `rng`, the duplicate's first; a kind whose
    /// probability is zero draws nothing.
    pub(crate) fn draw(rng: &mut BatchedF64, duplication: f64, reorder: f64) -> Self {
        Ghosts {
            duplicate: duplication > 0.0 && rng.draw() < duplication,
            reorder: reorder > 0.0 && rng.draw() < reorder,
        }
    }

    /// When the ghosts of a delivery landing at `arrives` land, on a link
    /// of base `latency`: the duplicate takes a marginally longer path and
    /// arrives right behind the original; the reordered copy is held up
    /// long enough to land behind *subsequent* traffic.
    pub(crate) fn arrivals(self, arrives: f64, latency: f64) -> impl Iterator<Item = f64> {
        let duplicate = self.duplicate.then_some(arrives + 0.25 * latency + 1e-6);
        let reorder = self.reorder.then_some(arrives + 2.5 * latency + 1e-3);
        duplicate.into_iter().chain(reorder)
    }
}

/// An [`ArqConfig`] at run time: the config, its loss/jitter stream, and
/// the one envelope awaiting acknowledgement (stop-and-wait), whose
/// retransmission timer is armed exactly while it is outstanding.
pub(crate) struct Arq {
    pub(crate) config: ArqConfig,
    rng: BatchedF64,
    /// The envelope currently awaiting acknowledgement, if any.
    outstanding: Option<ArqOutstanding>,
}

/// Book-keeping for the envelope the ARQ transport currently has in the
/// air (stop-and-wait: the one unacknowledged transmission).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArqOutstanding {
    /// The envelope's ticket, re-sent on retransmission and matched on
    /// delivery.
    pub(crate) ticket: Ticket,
    /// Transmissions so far (1 = the original send).
    pub(crate) attempts: u32,
    /// Whether this envelope belongs to the reconnection handshake.
    pub(crate) reconciliation: bool,
}

impl Arq {
    pub(crate) fn new(config: ArqConfig) -> Self {
        Arq {
            config,
            rng: BatchedF64::new(config.seed),
            outstanding: None,
        }
    }

    /// One transmission attempt of `ticket` (`attempts` counts it, 1 = the
    /// original send): draws its loss fate, then its jitter — two draws, so
    /// the stream position is a function of the attempt count alone — and
    /// makes it the outstanding envelope. Returns whether it was lost, and
    /// when its retransmission timer fires; the caller arms
    /// [`Wakeup::ArqTimeout`] there once the delivery is scheduled.
    pub(crate) fn attempt(
        &mut self,
        now: f64,
        ticket: Ticket,
        reconciliation: bool,
        attempts: u32,
    ) -> (bool, f64) {
        let lost = self.rng.draw() < self.config.loss_probability;
        let rto = self.config.jittered_timeout(attempts, self.rng.draw());
        self.outstanding = Some(ArqOutstanding {
            ticket,
            attempts,
            reconciliation,
        });
        (lost, now + rto)
    }

    /// The envelope behind `ticket` got through: its timer is settled (a
    /// response supersedes it anyway; a completion acks it explicitly).
    pub(crate) fn acknowledge(&mut self, ticket: Ticket, cx: &mut Cx) {
        if self.outstanding.is_some_and(|out| out.ticket == ticket) {
            self.abandon(cx);
        }
    }

    /// Nothing is outstanding any more — acknowledged, or destroyed with
    /// the link — so no timer guards it.
    pub(crate) fn abandon(&mut self, cx: &mut Cx) {
        self.outstanding = None;
        cx.disarm(Wakeup::ArqTimeout);
    }

    /// The outstanding envelope's timer fired: the envelope, plus, once it
    /// has used up its retry budget, the delay of the probe that looks for
    /// the link after escalation (the backoff law continues past the
    /// budget).
    pub(crate) fn expire(&mut self) -> (ArqOutstanding, Option<f64>) {
        let Some(out) = self.outstanding.take() else {
            unreachable!("the ARQ timer is armed only while an envelope is outstanding")
        };
        let probe = (out.attempts > self.config.retry_budget).then(|| {
            self.config
                .jittered_timeout(out.attempts + 1, self.rng.draw())
        });
        (out, probe)
    }
}

/// Total-order float comparison, like [`FaultPlan`]'s `PartialEq`.
impl PartialEq for ArqConfig {
    fn eq(&self, other: &Self) -> bool {
        self.loss_probability
            .total_cmp(&other.loss_probability)
            .is_eq()
            && self.base_timeout.total_cmp(&other.base_timeout).is_eq()
            && self.backoff_factor.total_cmp(&other.backoff_factor).is_eq()
            && self.jitter.total_cmp(&other.jitter).is_eq()
            && self.retry_budget == other.retry_budget
            && self
                .degrade_deadline
                .total_cmp(&other.degrade_deadline)
                .is_eq()
            && self.seed == other.seed
    }
}

impl Eq for ArqConfig {}

/// See `SimConfig`'s `PartialEq`: IEEE-754 total-order comparison on the
/// float fields, exact equality on the seed, so the semantics of NaN and
/// signed zero are explicit rather than inherited from a derived float
/// `==` (which the workspace lint bans in accounting paths).
impl PartialEq for FaultPlan {
    fn eq(&self, other: &Self) -> bool {
        self.disconnect_rate
            .total_cmp(&other.disconnect_rate)
            .is_eq()
            && self.mean_outage.total_cmp(&other.mean_outage).is_eq()
            && self
                .crash_probability
                .total_cmp(&other.crash_probability)
                .is_eq()
            && self
                .volatile_probability
                .total_cmp(&other.volatile_probability)
                .is_eq()
            && self
                .sc_outage_probability
                .total_cmp(&other.sc_outage_probability)
                .is_eq()
            && self.duplication.total_cmp(&other.duplication).is_eq()
            && self.reorder.total_cmp(&other.reorder).is_eq()
            && self.seed == other.seed
    }
}

impl Eq for FaultPlan {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_plans_build() {
        let plan = FaultPlan::new(0.02, 1.5, 9)
            .and_then(|p| p.with_crashes(0.4, 0.7))
            .and_then(|p| p.with_sc_outages(0.2))
            .and_then(|p| p.with_duplication(0.1, 0.05))
            .unwrap();
        assert!(plan.is_active());
        assert_eq!(plan.seed, 9);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(FaultPlan::new(-0.1, 1.0, 0).is_err());
        assert!(FaultPlan::new(f64::NAN, 1.0, 0).is_err());
        assert!(FaultPlan::new(0.1, 0.0, 0).is_err());
        assert!(FaultPlan::new(0.1, f64::INFINITY, 0).is_err());
        let base = FaultPlan::new(0.1, 1.0, 0).unwrap();
        assert!(base.clone().with_crashes(1.2, 0.5).is_err());
        assert!(base.clone().with_crashes(0.5, -0.1).is_err());
        assert!(base.clone().with_duplication(0.5, 1.5).is_err());
        // Crash + SC-outage probabilities must partition.
        let crashy = base.with_crashes(0.8, 0.5).unwrap();
        assert!(crashy.with_sc_outages(0.3).is_err());
    }

    #[test]
    fn inactive_plans_are_detectable() {
        let plan = FaultPlan::new(0.0, 1.0, 0).unwrap();
        assert!(!plan.is_active());
        let dup = plan.with_duplication(0.2, 0.0).unwrap();
        assert!(dup.is_active());
    }

    #[test]
    fn equality_is_total_order_on_floats() {
        let a = FaultPlan::new(0.1, 2.0, 3).unwrap();
        let b = FaultPlan::new(0.1, 2.0, 3).unwrap();
        assert_eq!(a, b);
        let c = FaultPlan::new(0.1, 2.0, 4).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn kind_names_are_distinct() {
        use std::collections::HashSet;
        let names: HashSet<&str> = [
            FaultKind::Doze,
            FaultKind::ScOutage,
            FaultKind::CrashVolatile,
            FaultKind::CrashStable,
        ]
        .into_iter()
        .map(FaultKind::name)
        .collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn config_error_displays_its_message() {
        let err = FaultPlan::new(-1.0, 1.0, 0).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("invalid configuration"), "{text}");
        assert!(text.contains("disconnect rate"), "{text}");
    }

    #[test]
    fn unknown_tenant_names_the_tenant() {
        let err = ConfigError::UnknownTenant {
            tenant: "mc-7".to_owned(),
        };
        let text = err.to_string();
        assert!(text.starts_with("invalid configuration: "), "{text}");
        assert!(text.contains("\"mc-7\""), "{text}");
        assert!(text.contains("not open"), "{text}");
    }

    #[test]
    fn tenant_limit_reports_the_cap() {
        let err = ConfigError::TenantLimit { limit: 64 };
        let text = err.to_string();
        assert!(text.contains("tenant limit of 64"), "{text}");
        // Machine-matchable, not just a message substring.
        assert_eq!(err, ConfigError::TenantLimit { limit: 64 });
        assert_ne!(err, ConfigError::TenantLimit { limit: 65 });
    }

    #[test]
    fn bad_decision_request_carries_the_reason_verbatim() {
        let err = ConfigError::BadDecisionRequest {
            reason: "expected an object".to_owned(),
        };
        assert!(err.to_string().contains("expected an object"));
        assert!(err.to_string().contains("malformed decision request"));
    }

    #[test]
    fn snapshot_version_reports_both_versions() {
        let err = ConfigError::SnapshotVersion {
            found: 9,
            supported: 1,
        };
        let text = err.to_string();
        assert!(text.contains("version 9"), "{text}");
        assert!(text.contains("up to version 1"), "{text}");
    }

    #[test]
    fn data_dir_reports_path_and_reason() {
        let err = ConfigError::DataDir {
            path: "/var/mdr".to_owned(),
            reason: "permission denied".to_owned(),
        };
        let text = err.to_string();
        assert!(text.contains("\"/var/mdr\""), "{text}");
        assert!(text.contains("permission denied"), "{text}");
        assert_ne!(
            err,
            ConfigError::DataDir {
                path: "/var/mdr".to_owned(),
                reason: "disk full".to_owned(),
            }
        );
    }

    #[test]
    fn journal_corrupt_names_the_tenant_and_finding() {
        let err = ConfigError::JournalCorrupt {
            tenant: "mc-3".to_owned(),
            reason: "sequence gap at record 7".to_owned(),
        };
        let text = err.to_string();
        assert!(text.contains("\"mc-3\""), "{text}");
        assert!(text.contains("sequence gap at record 7"), "{text}");
        assert!(text.contains("corrupt"), "{text}");
    }

    #[test]
    fn checkpoint_version_reports_both_versions() {
        let err = ConfigError::CheckpointVersion {
            found: 4,
            supported: 1,
        };
        let text = err.to_string();
        assert!(text.contains("checkpoint format version 4"), "{text}");
        assert!(text.contains("up to version 1"), "{text}");
        assert_ne!(
            err,
            ConfigError::CheckpointVersion {
                found: 5,
                supported: 1,
            }
        );
    }

    #[test]
    fn valid_arq_configs_build() {
        let arq = ArqConfig::new(0.3, 0.05, 11)
            .and_then(|a| a.with_backoff(1.5, 0.2))
            .and_then(|a| a.with_retry_budget(4))
            .and_then(|a| a.with_degrade_deadline(3.0))
            .unwrap();
        assert_eq!(arq.retry_budget, 4);
        assert_eq!(arq.seed, 11);
        // Total loss is legal under a bounded budget.
        assert!(ArqConfig::new(1.0, 0.05, 0).is_ok());
    }

    /// The documented defaults are part of the API contract: geometric
    /// backoff ×2 with no jitter, a budget of 8 retransmissions, and
    /// degradation after 40 base timeouts.
    #[test]
    fn arq_defaults_are_pinned() {
        let arq = ArqConfig::new(0.1, 0.05, 7).unwrap();
        assert_eq!(arq.retry_budget, 8);
        assert!(arq.backoff_factor.total_cmp(&2.0).is_eq());
        assert!(arq.jitter.total_cmp(&0.0).is_eq());
        assert!(arq.degrade_deadline.total_cmp(&(40.0 * 0.05)).is_eq());
    }

    /// Satellite: `ConfigError::RetryTimeout` is wired end-to-end — a
    /// non-finite or non-positive base timeout is rejected with exactly
    /// that variant.
    #[test]
    fn arq_retry_timeout_is_validated() {
        for bad in [0.0, -0.5, f64::NAN, f64::INFINITY] {
            let err = ArqConfig::new(0.1, bad, 0).unwrap_err();
            assert!(
                matches!(err, ConfigError::RetryTimeout { value } if value.total_cmp(&bad).is_eq()),
                "{err}"
            );
            assert!(err.to_string().contains("retry timeout"), "{err}");
        }
    }

    #[test]
    fn arq_loss_probability_is_validated() {
        for bad in [-0.1, 1.1, f64::NAN] {
            let err = ArqConfig::new(bad, 0.05, 0).unwrap_err();
            assert!(
                matches!(err, ConfigError::Probability { what, .. } if what.contains("ARQ")),
                "{err}"
            );
        }
    }

    #[test]
    fn arq_backoff_factor_is_validated() {
        let base = ArqConfig::new(0.1, 0.05, 0).unwrap();
        for bad in [0.5, 0.0, -2.0, f64::NAN, f64::INFINITY] {
            let err = base.with_backoff(bad, 0.0).unwrap_err();
            assert!(
                matches!(err, ConfigError::BackoffFactor { value } if value.total_cmp(&bad).is_eq()),
                "{err}"
            );
        }
    }

    #[test]
    fn arq_jitter_is_validated() {
        let base = ArqConfig::new(0.1, 0.05, 0).unwrap();
        for bad in [-0.1, 1.0, 1.5, f64::NAN] {
            let err = base.with_backoff(2.0, bad).unwrap_err();
            assert!(
                matches!(err, ConfigError::Jitter { value } if value.total_cmp(&bad).is_eq()),
                "{err}"
            );
        }
    }

    #[test]
    fn arq_retry_budget_is_validated() {
        let base = ArqConfig::new(0.1, 0.05, 0).unwrap();
        assert_eq!(
            base.with_retry_budget(0).unwrap_err(),
            ConfigError::ZeroRetryBudget
        );
        assert!(base.with_retry_budget(1).is_ok());
    }

    #[test]
    fn arq_degrade_deadline_is_validated() {
        let base = ArqConfig::new(0.1, 0.05, 0).unwrap();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = base.with_degrade_deadline(bad).unwrap_err();
            assert!(
                matches!(err, ConfigError::DegradeDeadline { value } if value.total_cmp(&bad).is_eq()),
                "{err}"
            );
        }
    }

    #[test]
    fn arq_backoff_schedule_is_exponential() {
        let arq = ArqConfig::new(0.1, 0.05, 0)
            .and_then(|a| a.with_backoff(2.0, 0.0))
            .unwrap();
        assert!((arq.timeout_for_attempt(1) - 0.05).abs() < 1e-12);
        assert!((arq.timeout_for_attempt(2) - 0.10).abs() < 1e-12);
        assert!((arq.timeout_for_attempt(4) - 0.40).abs() < 1e-12);
    }

    #[test]
    fn arq_equality_is_total_order_on_floats() {
        let a = ArqConfig::new(0.1, 0.05, 3).unwrap();
        let b = ArqConfig::new(0.1, 0.05, 3).unwrap();
        assert_eq!(a, b);
        let c = ArqConfig::new(0.1, 0.05, 4).unwrap();
        assert_ne!(a, c);
    }
}
