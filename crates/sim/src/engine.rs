//! The decision core and the serving layer built on top of it.
//!
//! [`DecisionCore`] carves the per-request decision logic out of the
//! simulator into a sans-io state machine: an [`AllocationPolicy`] plus
//! billing ([`ActionCounts`] priced under one [`CostModel`]) and staleness
//! bookkeeping, behind one entry point —
//! [`decide`](DecisionCore::decide) — that returns a typed [`Decision`]
//! with exact cost attribution and no I/O, no clocks, and no randomness.
//! The simulator's oracle mode consumes a `DecisionCore` verbatim
//! (`crate::sim`), so the distributed protocol and the pure core are
//! checked against each other on every request of every simulated run.
//!
//! [`ServeEngine`] multiplexes many *tenants* — independent mobile
//! computers, each with its own `DecisionCore` — behind a newline-JSON
//! request/response wire format (`mdr serve` is a thin stdin/stdout loop
//! around [`ServeEngine::handle_line`]). The engine adds admission
//! control (a tenant cap and an optional decision budget, refusals
//! reported as typed shed outcomes rather than errors), per-tenant
//! snapshot/restore, and an optional §6-style adaptive mode that
//! re-selects the sliding-window size once a tenant's θ estimate
//! stabilizes.
//!
//! Everything here is deterministic: same inputs, same outputs, same
//! bytes — which is what lets `mdr bench --serve` pin a digest of the
//! whole wire conversation next to its throughput number.

use crate::builder::validate_policy;
use crate::faults::ConfigError;
use mdr_core::{
    Action, ActionCounts, AllocationPolicy, CostModel, PolicySpec, Request, RequestWindow,
    SlidingWindow, St1, St2, T1, T2,
};
use serde::{de_field, de_object, Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// The snapshot format version this build writes and restores.
pub const SNAPSHOT_VERSION: u32 = 1;

/// What a [`Decision`] means for the caller's replica management — the
/// action's allocation consequence, separated from its §3 wire shape so
/// serving layers can branch on intent without re-deriving it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Verdict {
    /// Serve the read from the local replica; no communication.
    ServeLocal,
    /// Forward the read to the stationary computer; no allocation change.
    ServeRemote,
    /// Forward the read and allocate a replica from the response (§4's
    /// save-indication piggyback).
    Allocate,
    /// Apply the write at the SC only; the MC holds no replica.
    Silent,
    /// Propagate the write to the MC's replica; the replica is kept.
    Propagate,
    /// Drop the MC's replica on this write — either the propagated-write
    /// + delete-request exchange or SW1's optimized bare delete-request.
    Deallocate,
}

impl Verdict {
    /// The verdict the §3 action implies.
    pub fn of(action: Action) -> Verdict {
        match action {
            Action::LocalRead => Verdict::ServeLocal,
            Action::RemoteRead { allocates: false } => Verdict::ServeRemote,
            Action::RemoteRead { allocates: true } => Verdict::Allocate,
            Action::SilentWrite => Verdict::Silent,
            Action::PropagatedWrite { deallocates: false } => Verdict::Propagate,
            Action::PropagatedWrite { deallocates: true } | Action::DeleteRequestWrite => {
                Verdict::Deallocate
            }
        }
    }

    /// A stable lower-case label (`serve-local`, `allocate`, …) used on
    /// the serve wire format.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::ServeLocal => "serve-local",
            Verdict::ServeRemote => "serve-remote",
            Verdict::Allocate => "allocate",
            Verdict::Silent => "silent",
            Verdict::Propagate => "propagate",
            Verdict::Deallocate => "deallocate",
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One decision of a [`DecisionCore`]: the §3 action taken, its verdict
/// for replica management, and its exact cost attribution under the
/// core's cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Position of this request in the core's stream (1-based: the first
    /// decision has `seq == 1`).
    pub seq: u64,
    /// The request that was decided.
    pub request: Request,
    /// The §3 communication action the policy took.
    pub action: Action,
    /// What the action means for the caller's replica.
    pub verdict: Verdict,
    /// Data messages this action puts on the link (§3 message model).
    pub data_messages: u64,
    /// Control messages this action puts on the link (§3 message model).
    pub control_messages: u64,
    /// Cellular connections this action requires (§3 connection model).
    pub connections: u64,
    /// The exact price of this action under the core's cost model.
    pub cost: f64,
    /// Whether the MC holds a replica *after* this decision.
    pub has_copy: bool,
    /// Writes the mobile side has not observed since it last saw the
    /// value (0 whenever this request itself brought it up to date).
    pub staleness: u64,
}

/// How a dynamic policy's mid-stream state is captured in a
/// [`CoreSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum PolicyState {
    /// ST1/ST2 (§2): no mutable state beyond the spec itself.
    Stateless,
    /// SWk (§4): the request window, oldest first, as `r`/`w` letters.
    Window {
        /// The window contents, e.g. `"wrr"` for k = 3.
        window: String,
    },
    /// T1m/T2m (§7.1): replica presence plus the current streak counter.
    Streak {
        /// Whether the MC holds a replica.
        has_copy: bool,
        /// Consecutive same-kind requests counted toward the threshold.
        streak: u64,
    },
}

/// A complete, restorable image of a [`DecisionCore`] — everything needed
/// to continue the decision stream exactly where it left off. Serialized
/// on the serve wire format's `snapshot` operation; integer-only except
/// for the cost model's ω (whose text form round-trips exactly), so a
/// snapshot → JSON → restore trip is lossless.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CoreSnapshot {
    /// Snapshot format version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// The policy the core runs.
    pub spec: PolicySpec,
    /// The cost model decisions are billed under.
    pub model: CostModel,
    /// Requests decided so far.
    pub decided: u64,
    /// Writes observed so far (the version counter of the data item).
    pub data_version: u64,
    /// The data version the mobile side last observed.
    pub replica_version: u64,
    /// The full action ledger up to the snapshot point.
    pub counts: ActionCounts,
    /// The policy's mid-stream state.
    pub state: PolicyState,
}

/// The concrete policy a [`DecisionCore`] runs. An enum (not a
/// `Box<dyn AllocationPolicy>`) so mid-stream state can be captured into
/// and rebuilt from a [`PolicyState`] without downcasting.
#[derive(Debug, Clone)]
enum PolicyKind {
    St1(St1),
    St2(St2),
    Sw(SlidingWindow),
    T1(T1),
    T2(T2),
}

impl PolicyKind {
    fn build(spec: PolicySpec) -> Result<PolicyKind, ConfigError> {
        validate_policy(spec)?;
        Ok(match spec {
            PolicySpec::St1 => PolicyKind::St1(St1::new()),
            PolicySpec::St2 => PolicyKind::St2(St2::new()),
            PolicySpec::SlidingWindow { k } => PolicyKind::Sw(SlidingWindow::new(k)),
            PolicySpec::T1 { m } => PolicyKind::T1(T1::new(m)),
            PolicySpec::T2 { m } => PolicyKind::T2(T2::new(m)),
        })
    }

    fn policy(&mut self) -> &mut dyn AllocationPolicy {
        match self {
            PolicyKind::St1(p) => p,
            PolicyKind::St2(p) => p,
            PolicyKind::Sw(p) => p,
            PolicyKind::T1(p) => p,
            PolicyKind::T2(p) => p,
        }
    }

    fn has_copy(&self) -> bool {
        match self {
            PolicyKind::St1(p) => p.has_copy(),
            PolicyKind::St2(p) => p.has_copy(),
            PolicyKind::Sw(p) => p.has_copy(),
            PolicyKind::T1(p) => p.has_copy(),
            PolicyKind::T2(p) => p.has_copy(),
        }
    }

    fn state(&self) -> PolicyState {
        match self {
            PolicyKind::St1(_) | PolicyKind::St2(_) => PolicyState::Stateless,
            PolicyKind::Sw(p) => PolicyState::Window {
                window: p
                    .window()
                    .to_requests()
                    .iter()
                    .map(|r| r.letter())
                    .collect(),
            },
            PolicyKind::T1(p) => PolicyState::Streak {
                has_copy: p.has_copy(),
                streak: p.streak() as u64,
            },
            PolicyKind::T2(p) => PolicyState::Streak {
                has_copy: p.has_copy(),
                streak: p.streak() as u64,
            },
        }
    }

    fn restore(spec: PolicySpec, state: &PolicyState) -> Result<PolicyKind, ConfigError> {
        let mismatch = || ConfigError::BadDecisionRequest {
            reason: format!("snapshot state does not match policy {spec}"),
        };
        match (spec, state) {
            (PolicySpec::St1 | PolicySpec::St2, PolicyState::Stateless) => PolicyKind::build(spec),
            (PolicySpec::SlidingWindow { k }, PolicyState::Window { window }) => {
                validate_policy(spec)?;
                if window.len() != k {
                    return Err(mismatch());
                }
                let requests: Vec<Request> = window
                    .chars()
                    .map(Request::from_letter)
                    .collect::<Result<_, _>>()
                    .map_err(|_| mismatch())?;
                Ok(PolicyKind::Sw(SlidingWindow::with_window(
                    RequestWindow::from_requests(&requests),
                )))
            }
            (PolicySpec::T1 { m }, &PolicyState::Streak { has_copy, streak }) => {
                validate_policy(spec)?;
                if streak >= m as u64 {
                    return Err(mismatch());
                }
                Ok(PolicyKind::T1(T1::with_state(m, has_copy, streak as usize)))
            }
            (PolicySpec::T2 { m }, &PolicyState::Streak { has_copy, streak }) => {
                validate_policy(spec)?;
                if streak >= m as u64 {
                    return Err(mismatch());
                }
                Ok(PolicyKind::T2(T2::with_state(m, has_copy, streak as usize)))
            }
            _ => Err(mismatch()),
        }
    }
}

/// The sans-io decision core: one [`AllocationPolicy`] plus billing and
/// staleness state, advanced one [`Request`] at a time through
/// [`decide`](DecisionCore::decide).
///
/// Determinism is the contract: a `DecisionCore` is a pure state machine
/// over its request stream, which is why the simulator can use one as the
/// per-request oracle (asserting the distributed protocol takes exactly
/// the same actions) and why serve-layer snapshots restore bit-for-bit.
///
/// ```
/// use mdr_core::{CostModel, PolicySpec, Request};
/// use mdr_sim::engine::{DecisionCore, Verdict};
///
/// let spec = PolicySpec::SlidingWindow { k: 3 };
/// let mut core = DecisionCore::new(spec, CostModel::message(0.5)).unwrap();
/// core.decide(Request::Read);
/// let d = core.decide(Request::Read); // reads take the window majority
/// assert_eq!(d.verdict, Verdict::Allocate);
/// assert_eq!(d.cost, 1.5); // data response + ω control request
/// ```
#[derive(Debug, Clone)]
pub struct DecisionCore {
    spec: PolicySpec,
    model: CostModel,
    policy: PolicyKind,
    decided: u64,
    counts: ActionCounts,
    /// Writes observed so far — the version counter of the data item.
    data_version: u64,
    /// The data version current when the mobile side last observed the
    /// value (served any read, or received a write propagation).
    replica_version: u64,
}

impl DecisionCore {
    /// Creates a core running `spec` billed under `model`, in the
    /// policy's §2/§4/§7.1 initial state.
    ///
    /// # Errors
    ///
    /// [`ConfigError::EvenWindow`] / [`ConfigError::ZeroThreshold`] when
    /// the spec's parameters violate the paper's constraints.
    pub fn new(spec: PolicySpec, model: CostModel) -> Result<DecisionCore, ConfigError> {
        Ok(DecisionCore {
            spec,
            model,
            policy: PolicyKind::build(spec)?,
            decided: 0,
            counts: ActionCounts::default(),
            data_version: 0,
            replica_version: 0,
        })
    }

    /// Decides one request: advances the policy, attributes the §3 cost,
    /// and updates the staleness counters. Never fails and never blocks —
    /// the caller owns all I/O.
    pub fn decide(&mut self, request: Request) -> Decision {
        let action = self.policy.policy().on_request(request);
        self.decided += 1;
        self.counts.record(action);
        if request.is_write() {
            self.data_version += 1;
        }
        // The mobile side is brought up to date by serving any read (local
        // replicas are kept fresh, remote reads return the current value)
        // and by every propagated write; only silent writes — and SW1's
        // bare delete-request, which carries no data — age it.
        let observed = match action {
            Action::LocalRead | Action::RemoteRead { .. } | Action::PropagatedWrite { .. } => true,
            Action::SilentWrite | Action::DeleteRequestWrite => false,
        };
        if observed {
            self.replica_version = self.data_version;
        }
        Decision {
            seq: self.decided,
            request,
            action,
            verdict: Verdict::of(action),
            data_messages: action.data_messages(),
            control_messages: action.control_messages(),
            connections: action.connections(),
            cost: self.model.price(action),
            has_copy: self.policy.has_copy(),
            staleness: self.data_version - self.replica_version,
        }
    }

    /// Informs the core that the MC's replica was lost outside the
    /// request stream (a volatile crash; see
    /// [`AllocationPolicy::on_replica_lost`]).
    pub fn on_replica_lost(&mut self) {
        self.policy.policy().on_replica_lost();
    }

    /// Whether the MC currently holds a replica.
    pub fn has_copy(&self) -> bool {
        self.policy.has_copy()
    }

    /// The policy spec this core runs.
    pub fn spec(&self) -> PolicySpec {
        self.spec
    }

    /// The cost model decisions are billed under.
    pub fn model(&self) -> CostModel {
        self.model
    }

    /// Requests decided so far.
    pub fn decided(&self) -> u64 {
        self.decided
    }

    /// The action ledger accumulated so far.
    pub fn counts(&self) -> &ActionCounts {
        &self.counts
    }

    /// The exact total billed so far — the §3 COST of the decided stream,
    /// recomputed from the integer ledger (not accumulated in floating
    /// point, so it is independent of decision batching).
    pub fn total_cost(&self) -> f64 {
        self.model.price_counts(&self.counts)
    }

    /// Writes observed so far (the data item's version counter).
    pub fn data_version(&self) -> u64 {
        self.data_version
    }

    /// The data version the mobile side last observed.
    pub fn replica_version(&self) -> u64 {
        self.replica_version
    }

    /// Captures a complete restorable image of this core.
    pub fn snapshot(&self) -> CoreSnapshot {
        CoreSnapshot {
            version: SNAPSHOT_VERSION,
            spec: self.spec,
            model: self.model,
            decided: self.decided,
            data_version: self.data_version,
            replica_version: self.replica_version,
            counts: self.counts,
            state: self.policy.state(),
        }
    }

    /// Rebuilds a core from a [`snapshot`](Self::snapshot), continuing
    /// the decision stream exactly where the image was taken.
    ///
    /// # Errors
    ///
    /// [`ConfigError::SnapshotVersion`] for a version this build does not
    /// speak; [`ConfigError::BadDecisionRequest`] when the embedded state
    /// does not match the embedded spec.
    pub fn restore(snapshot: &CoreSnapshot) -> Result<DecisionCore, ConfigError> {
        if snapshot.version != SNAPSHOT_VERSION {
            return Err(ConfigError::SnapshotVersion {
                found: snapshot.version,
                supported: SNAPSHOT_VERSION,
            });
        }
        if snapshot.replica_version > snapshot.data_version
            || snapshot.counts.total() != snapshot.decided
            || snapshot.counts.writes() != snapshot.data_version
        {
            return Err(ConfigError::BadDecisionRequest {
                reason: "snapshot counters are inconsistent".to_owned(),
            });
        }
        Ok(DecisionCore {
            spec: snapshot.spec,
            model: snapshot.model,
            policy: PolicyKind::restore(snapshot.spec, &snapshot.state)?,
            decided: snapshot.decided,
            counts: snapshot.counts,
            data_version: snapshot.data_version,
            replica_version: snapshot.replica_version,
        })
    }

    /// Switches the core to a different policy mid-stream, preserving the
    /// current replica state (the serve layer's §6 adaptive re-selection
    /// rides on this). The billing ledger and version counters continue
    /// uninterrupted; only the policy's *future* behaviour changes.
    ///
    /// Dynamic targets adopt the replica state exactly: SWk starts from a
    /// window that agrees with the current copy state, T1m/T2m from a
    /// zero streak. A static target imposes its own fixed allocation.
    ///
    /// # Errors
    ///
    /// Rejects invalid target parameters, like [`DecisionCore::new`].
    pub fn adopt(&mut self, spec: PolicySpec) -> Result<(), ConfigError> {
        validate_policy(spec)?;
        let has_copy = self.has_copy();
        let policy = match spec {
            PolicySpec::SlidingWindow { k } => PolicyKind::Sw(if has_copy {
                SlidingWindow::with_initial_copy(k)
            } else {
                SlidingWindow::new(k)
            }),
            PolicySpec::T1 { m } => PolicyKind::T1(T1::with_state(m, has_copy, 0)),
            PolicySpec::T2 { m } => PolicyKind::T2(T2::with_state(m, has_copy, 0)),
            PolicySpec::St1 | PolicySpec::St2 => PolicyKind::build(spec)?,
        };
        self.spec = spec;
        self.policy = policy;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The serving layer.
// ---------------------------------------------------------------------------

/// Admission and default-policy configuration for a [`ServeEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Maximum concurrently-open tenants; opens beyond it are shed.
    pub max_tenants: usize,
    /// Optional total decision budget; decisions beyond it are shed.
    pub decision_budget: Option<u64>,
    /// Policy for tenants that do not name one. The default is the
    /// (m+1)-competitive T1 with m = 2 — competitive-safe on any stream
    /// (§7.1), unlike the statics.
    pub default_policy: PolicySpec,
    /// Cost model for tenants that do not name one.
    pub default_model: CostModel,
    /// Whether tenants adapt their window size once θ̂ stabilizes (§6).
    pub adaptive: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_tenants: 64,
            decision_budget: None,
            default_policy: PolicySpec::T1 { m: 2 },
            default_model: CostModel::Connection,
            adaptive: false,
        }
    }
}

/// Decisions between θ̂ checkpoints of the adaptive serve mode (also
/// re-derived by journal replay, so recovery reconstructs the same
/// checkpoint bookkeeping the live engine had).
pub(crate) const ADAPT_INTERVAL: u64 = 64;
/// Two consecutive checkpoint estimates within this distance count as a
/// stable θ̂ (§6's "θ is fixed" precondition, made operational).
const ADAPT_TOLERANCE: f64 = 0.05;
/// Window sizes the adaptive mode selects among (§6: the interesting k
/// are small; AVG differences vanish as k grows).
const ADAPT_CANDIDATES: [usize; 5] = [1, 3, 5, 7, 9];

/// Per-tenant serve state: the decision core plus adaptive bookkeeping.
#[derive(Debug, Clone)]
struct Tenant {
    core: DecisionCore,
    /// θ̂ numerator/denominator at the previous adaptive checkpoint.
    checkpoint: Option<(u64, u64)>,
    /// Whether the §6 re-selection already happened (it fires once; the
    /// chosen window then stands, matching the paper's fixed-θ regime).
    adapted: bool,
}

/// One parsed serve-layer request (the `op` discriminates).
#[derive(Debug, Clone, PartialEq)]
pub enum ServeRequest {
    /// Open a tenant, optionally naming its policy and cost model.
    Open {
        /// Tenant id (any non-empty string).
        tenant: String,
        /// Policy notation (`SW5`, `T1(3)`, …); engine default if absent.
        policy: Option<String>,
        /// Cost model notation (`connection`, `message:0.4`); engine
        /// default if absent.
        model: Option<String>,
    },
    /// Decide one request for a tenant.
    Decide {
        /// Tenant id.
        tenant: String,
        /// The request, as the paper's `r`/`w` letter.
        request: char,
    },
    /// Report a tenant's ledger and state — or, with no tenant named,
    /// the daemon-level totals (tenant count, lifetime decisions, and the
    /// durability counters when the serving layer journals to disk).
    Stats {
        /// Tenant id; `None` asks for daemon-level stats.
        tenant: Option<String>,
    },
    /// Capture a tenant's restorable snapshot.
    Snapshot {
        /// Tenant id.
        tenant: String,
    },
    /// Open (or reopen) a tenant from a snapshot.
    Restore {
        /// Tenant id.
        tenant: String,
        /// A snapshot previously produced by [`ServeRequest::Snapshot`].
        snapshot: CoreSnapshot,
    },
    /// Close a tenant, releasing its slot.
    Close {
        /// Tenant id.
        tenant: String,
    },
    /// Stop the serve loop.
    Shutdown,
}

impl Deserialize for ServeRequest {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let fields = de_object(value, "ServeRequest")?;
        let op: String = de_field(fields, "op", "ServeRequest")?;
        match op.as_str() {
            "open" => Ok(ServeRequest::Open {
                tenant: de_field(fields, "tenant", "open")?,
                policy: de_field(fields, "policy", "open")?,
                model: de_field(fields, "model", "open")?,
            }),
            "decide" => Ok(ServeRequest::Decide {
                tenant: de_field(fields, "tenant", "decide")?,
                request: de_field(fields, "request", "decide")?,
            }),
            "stats" => Ok(ServeRequest::Stats {
                tenant: de_field(fields, "tenant", "stats")?,
            }),
            "snapshot" => Ok(ServeRequest::Snapshot {
                tenant: de_field(fields, "tenant", "snapshot")?,
            }),
            "restore" => Ok(ServeRequest::Restore {
                tenant: de_field(fields, "tenant", "restore")?,
                snapshot: de_field(fields, "snapshot", "restore")?,
            }),
            "close" => Ok(ServeRequest::Close {
                tenant: de_field(fields, "tenant", "close")?,
            }),
            "shutdown" => Ok(ServeRequest::Shutdown),
            other => Err(serde::Error::custom(format!(
                "unknown op {other:?}; expected open, decide, stats, snapshot, restore, close or shutdown"
            ))),
        }
    }

    /// The direct decoder: every op but `restore` from a flat object,
    /// with the tree path's field rules — the first of repeated keys
    /// wins, unknown keys are ignored, and `null` reads as absent.
    fn from_json(json: &str) -> Option<Self> {
        let fields = serde_json::FlatObject::parse(json)?;
        let field = |name| fields.get(name).map(str::to_owned);
        Some(match fields.get("op")? {
            "open" => ServeRequest::Open {
                tenant: field("tenant")?,
                policy: field("policy"),
                model: field("model"),
            },
            "decide" => {
                let mut letters = fields.get("request")?.chars();
                let (Some(request), None) = (letters.next(), letters.next()) else {
                    return None;
                };
                ServeRequest::Decide {
                    tenant: field("tenant")?,
                    request,
                }
            }
            "stats" => ServeRequest::Stats {
                tenant: field("tenant"),
            },
            "snapshot" => ServeRequest::Snapshot {
                tenant: field("tenant")?,
            },
            "close" => ServeRequest::Close {
                tenant: field("tenant")?,
            },
            "shutdown" => ServeRequest::Shutdown,
            // A restore's snapshot is nested, and an unknown op needs the
            // tree path's error text.
            _ => return None,
        })
    }
}

/// Why a serve-layer request was refused by admission control rather than
/// failed — typed, so clients can distinguish back-pressure from bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServeShedReason {
    /// The tenant cap is reached; closing a tenant frees a slot.
    TenantLimit,
    /// The engine's total decision budget is exhausted.
    BudgetExhausted,
}

impl ServeShedReason {
    /// The stable wire label (`tenant-limit`, `budget-exhausted`).
    pub fn label(self) -> &'static str {
        match self {
            ServeShedReason::TenantLimit => "tenant-limit",
            ServeShedReason::BudgetExhausted => "budget-exhausted",
        }
    }
}

/// One serve-layer response. `Error` is for requests the engine will
/// never accept (malformed, unknown tenant); `Shed` is admission control
/// declining work it would otherwise perform.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeResponse {
    /// A tenant was opened.
    Opened {
        /// Tenant id.
        tenant: String,
        /// The policy it runs (canonical notation).
        policy: String,
        /// The cost model it bills under.
        model: String,
    },
    /// A decision was made.
    Decided {
        /// Tenant id.
        tenant: String,
        /// The decision.
        decision: Decision,
    },
    /// A tenant's current ledger and state.
    Stats {
        /// Tenant id.
        tenant: String,
        /// The policy it currently runs (canonical notation — this moves
        /// when the adaptive mode re-selects the window).
        policy: String,
        /// Requests decided.
        decided: u64,
        /// Exact total cost billed.
        cost: f64,
        /// Whether the MC holds a replica.
        has_copy: bool,
        /// Writes observed (the item's version counter).
        data_version: u64,
        /// The version the mobile side last observed.
        replica_version: u64,
    },
    /// Daemon-level totals (the `stats` op with no tenant named).
    ServerStats {
        /// Currently-open tenants.
        tenants: usize,
        /// Decisions served over the engine's lifetime.
        decisions: u64,
        /// Journal/recovery counters; `None` when the engine runs without
        /// a durability layer (`mdr serve` without `--data-dir`).
        durability: Option<crate::journal::DurabilityStats>,
    },
    /// A tenant snapshot.
    Snapshot {
        /// Tenant id.
        tenant: String,
        /// The restorable image.
        snapshot: CoreSnapshot,
    },
    /// A tenant was restored from a snapshot.
    Restored {
        /// Tenant id.
        tenant: String,
        /// Requests the restored core had already decided.
        decided: u64,
    },
    /// A tenant was closed.
    Closed {
        /// Tenant id.
        tenant: String,
        /// Requests it decided over its lifetime.
        decided: u64,
        /// Its exact total bill.
        cost: f64,
    },
    /// The serve loop is stopping.
    Shutdown {
        /// Tenants still open at shutdown.
        tenants: usize,
        /// Decisions served over the engine's lifetime.
        decisions: u64,
    },
    /// Admission control declined the request.
    Shed {
        /// Why.
        reason: ServeShedReason,
        /// Human-readable detail.
        detail: String,
    },
    /// The request failed.
    Error {
        /// A stable machine-matchable code (`unknown-tenant`,
        /// `bad-request`, `tenant-exists`, `snapshot-version`,
        /// `bad-config`).
        code: String,
        /// Human-readable detail.
        detail: String,
    },
}

impl Serialize for ServeResponse {
    fn to_value(&self) -> Value {
        let obj = |pairs: Vec<(&str, Value)>| {
            Value::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
        };
        match self {
            ServeResponse::Opened {
                tenant,
                policy,
                model,
            } => obj(vec![
                ("ok", Value::String("open".to_owned())),
                ("tenant", tenant.to_value()),
                ("policy", policy.to_value()),
                ("model", model.to_value()),
            ]),
            ServeResponse::Decided { tenant, decision } => obj(vec![
                ("ok", Value::String("decision".to_owned())),
                ("tenant", tenant.to_value()),
                ("seq", decision.seq.to_value()),
                ("request", decision.request.letter().to_value()),
                ("action", Value::String(decision.action.to_string())),
                (
                    "verdict",
                    Value::String(decision.verdict.label().to_owned()),
                ),
                ("cost", decision.cost.to_value()),
                ("data", decision.data_messages.to_value()),
                ("control", decision.control_messages.to_value()),
                ("connections", decision.connections.to_value()),
                ("has_copy", decision.has_copy.to_value()),
                ("staleness", decision.staleness.to_value()),
            ]),
            ServeResponse::Stats {
                tenant,
                policy,
                decided,
                cost,
                has_copy,
                data_version,
                replica_version,
            } => obj(vec![
                ("ok", Value::String("stats".to_owned())),
                ("tenant", tenant.to_value()),
                ("policy", policy.to_value()),
                ("decided", decided.to_value()),
                ("cost", cost.to_value()),
                ("has_copy", has_copy.to_value()),
                ("data_version", data_version.to_value()),
                ("replica_version", replica_version.to_value()),
            ]),
            ServeResponse::ServerStats {
                tenants,
                decisions,
                durability,
            } => {
                let mut pairs = vec![
                    ("ok", Value::String("server-stats".to_owned())),
                    ("tenants", tenants.to_value()),
                    ("decisions", decisions.to_value()),
                ];
                if let Some(d) = durability {
                    pairs.extend(d.pairs());
                }
                obj(pairs)
            }
            ServeResponse::Snapshot { tenant, snapshot } => obj(vec![
                ("ok", Value::String("snapshot".to_owned())),
                ("tenant", tenant.to_value()),
                ("snapshot", snapshot.to_value()),
            ]),
            ServeResponse::Restored { tenant, decided } => obj(vec![
                ("ok", Value::String("restore".to_owned())),
                ("tenant", tenant.to_value()),
                ("decided", decided.to_value()),
            ]),
            ServeResponse::Closed {
                tenant,
                decided,
                cost,
            } => obj(vec![
                ("ok", Value::String("close".to_owned())),
                ("tenant", tenant.to_value()),
                ("decided", decided.to_value()),
                ("cost", cost.to_value()),
            ]),
            ServeResponse::Shutdown { tenants, decisions } => obj(vec![
                ("ok", Value::String("shutdown".to_owned())),
                ("tenants", tenants.to_value()),
                ("decisions", decisions.to_value()),
            ]),
            ServeResponse::Shed { reason, detail } => obj(vec![
                ("shed", Value::String(reason.label().to_owned())),
                ("detail", detail.to_value()),
            ]),
            ServeResponse::Error { code, detail } => obj(vec![
                ("err", code.to_value()),
                ("detail", detail.to_value()),
            ]),
        }
    }

    /// The direct printer, for decisions only: the hot response.
    fn to_json(&self) -> Option<String> {
        let ServeResponse::Decided { tenant, decision } = self else {
            return None;
        };
        let d = decision;
        let mut out = String::with_capacity(200 + tenant.len());
        out.push_str(r#"{"ok":"decision","tenant":"#);
        serde_json::write_string(&mut out, tenant);
        // The request letter, action and verdict labels are fixed ASCII
        // words that need no escaping.
        let _ = write!(
            out,
            r#","seq":{},"request":"{}","action":"{}","verdict":"{}","cost":"#,
            d.seq,
            d.request.letter(),
            d.action,
            d.verdict.label()
        );
        serde_json::write_float(&mut out, d.cost);
        let _ = write!(
            out,
            r#","data":{},"control":{},"connections":{},"has_copy":{},"staleness":{}}}"#,
            d.data_messages, d.control_messages, d.connections, d.has_copy, d.staleness
        );
        Some(out)
    }
}

/// A long-running, deterministic decision server: many tenants, each with
/// its own [`DecisionCore`], multiplexed behind a typed API
/// ([`apply`](Self::apply)) and a newline-JSON wire format
/// ([`handle_line`](Self::handle_line)).
///
/// `handle_line` never panics: malformed input becomes a
/// [`ConfigError::BadDecisionRequest`]-backed error response, and every
/// request — however broken — produces exactly one response line.
#[derive(Debug, Clone)]
pub struct ServeEngine {
    config: ServeConfig,
    tenants: BTreeMap<String, Tenant>,
    decisions: u64,
    done: bool,
}

impl ServeEngine {
    /// Creates an engine with the given admission/default configuration.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroCount`] when `max_tenants` is zero, and the
    /// default policy's own parameter errors.
    pub fn new(config: ServeConfig) -> Result<ServeEngine, ConfigError> {
        if config.max_tenants == 0 {
            return Err(ConfigError::ZeroCount {
                what: "tenant limit",
            });
        }
        // Validate the defaults once, up front, so a bad default policy
        // surfaces at startup rather than on the first defaulted open.
        PolicyKind::build(config.default_policy)?;
        Ok(ServeEngine {
            config,
            tenants: BTreeMap::new(),
            decisions: 0,
            done: false,
        })
    }

    /// Whether a shutdown request was processed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Decisions served over the engine's lifetime.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Currently-open tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The policy an open tenant currently runs (this moves when the
    /// adaptive mode re-selects the window), or `None` for a tenant that
    /// is not open. The durability layer compares it across a decision to
    /// journal adaptive re-selections as explicit records.
    pub fn tenant_policy(&self, tenant: &str) -> Option<PolicySpec> {
        self.tenants.get(tenant).map(|t| t.core.spec())
    }

    /// The decision core behind an open tenant (checkpoint serialization).
    pub(crate) fn tenant_core(&self, tenant: &str) -> Option<&DecisionCore> {
        self.tenants.get(tenant).map(|t| &t.core)
    }

    /// A tenant's adaptive bookkeeping: `(adapted, θ̂ checkpoint)`.
    pub(crate) fn adapt_state(&self, tenant: &str) -> Option<(bool, Option<(u64, u64)>)> {
        self.tenants.get(tenant).map(|t| (t.adapted, t.checkpoint))
    }

    /// Installs a recovered tenant directly, bypassing admission control:
    /// the tenant was admitted by a previous incarnation of the daemon, so
    /// recovery must not re-litigate it (a lowered `--max-tenants` would
    /// otherwise strand durable state on disk).
    pub(crate) fn install_tenant(
        &mut self,
        name: &str,
        core: DecisionCore,
        adapted: bool,
        checkpoint: Option<(u64, u64)>,
    ) {
        self.tenants.insert(
            name.to_owned(),
            Tenant {
                core,
                checkpoint,
                adapted,
            },
        );
    }

    /// Restores the lifetime decision counter after recovery (the sum of
    /// the recovered tenants' `decided` streams — decisions by tenants
    /// closed before the restart are not recoverable and stay forgotten).
    pub(crate) fn restore_lifetime(&mut self, decisions: u64) {
        self.decisions = decisions;
    }

    /// Replays one journaled decision, bypassing the budget (the work was
    /// already admitted and acknowledged by a previous incarnation) and
    /// the live adaptive trigger — re-selections are replayed from their
    /// own explicit journal records, so recovery is independent of the
    /// daemon's current `--adapt` setting. Only the θ̂ checkpoint
    /// bookkeeping is re-derived, exactly as [`Self::maybe_adapt`] would
    /// have recorded it.
    pub(crate) fn replay_decide(
        &mut self,
        tenant: &str,
        request: Request,
    ) -> Result<(), ConfigError> {
        let t = self.tenant(tenant)?;
        t.core.decide(request);
        if !t.adapted && t.core.decided() % ADAPT_INTERVAL == 0 {
            t.checkpoint = Some((t.core.counts().writes(), t.core.decided()));
        }
        self.decisions += 1;
        Ok(())
    }

    /// Replays one journaled §6 re-selection: adopt the recorded window
    /// and latch `adapted`, exactly as the live [`Self::maybe_adapt`] did
    /// when it wrote the record.
    pub(crate) fn replay_adopt(
        &mut self,
        tenant: &str,
        spec: PolicySpec,
    ) -> Result<(), ConfigError> {
        let t = self.tenant(tenant)?;
        t.core.adopt(spec)?;
        t.adapted = true;
        Ok(())
    }

    /// Replays one journaled `restore`, mirroring the live semantics
    /// minus admission control: over an open tenant it rewinds the core
    /// in place (adaptive latch preserved, θ̂ checkpoint cleared); for an
    /// absent tenant it installs a fresh one.
    pub(crate) fn replay_restore(
        &mut self,
        tenant: &str,
        snapshot: &CoreSnapshot,
    ) -> Result<(), ConfigError> {
        let core = DecisionCore::restore(snapshot)?;
        if let Some(existing) = self.tenants.get_mut(tenant) {
            existing.core = core;
            existing.checkpoint = None;
        } else {
            self.tenants.insert(
                tenant.to_owned(),
                Tenant {
                    core,
                    checkpoint: None,
                    adapted: false,
                },
            );
        }
        Ok(())
    }

    /// Drops a tenant without the `close` ceremony — the durability layer
    /// uses this to undo a partially-recovered or journal-failed tenant
    /// before quarantining its on-disk state.
    pub(crate) fn evict_tenant(&mut self, tenant: &str) -> bool {
        self.tenants.remove(tenant).is_some()
    }

    /// The typed error response that reports `err` on the wire.
    pub fn error(err: &ConfigError) -> ServeResponse {
        let code = match err {
            ConfigError::UnknownTenant { .. } => "unknown-tenant",
            ConfigError::BadDecisionRequest { .. } => "bad-request",
            ConfigError::SnapshotVersion { .. } => "snapshot-version",
            ConfigError::DataDir { .. } => "data-dir",
            ConfigError::JournalCorrupt { .. } => "journal-corrupt",
            ConfigError::CheckpointVersion { .. } => "checkpoint-version",
            _ => "bad-config",
        };
        ServeResponse::Error {
            code: code.to_owned(),
            detail: err.to_string(),
        }
    }

    fn tenant(&mut self, name: &str) -> Result<&mut Tenant, ConfigError> {
        self.tenants
            .get_mut(name)
            .ok_or_else(|| ConfigError::UnknownTenant {
                tenant: name.to_owned(),
            })
    }

    fn admit(&self, tenant: &str) -> Result<Option<ServeResponse>, ConfigError> {
        if tenant.is_empty() {
            return Err(ConfigError::BadDecisionRequest {
                reason: "tenant id must be non-empty".to_owned(),
            });
        }
        if self.tenants.contains_key(tenant) {
            return Ok(Some(ServeResponse::Error {
                code: "tenant-exists".to_owned(),
                detail: format!("tenant {tenant:?} is already open"),
            }));
        }
        if self.tenants.len() >= self.config.max_tenants {
            let limit = self.config.max_tenants;
            return Ok(Some(ServeResponse::Shed {
                reason: ServeShedReason::TenantLimit,
                detail: ConfigError::TenantLimit { limit }.to_string(),
            }));
        }
        Ok(None)
    }

    /// Re-selects a tenant's window size once its θ̂ estimate stabilizes
    /// (§6): at every checkpoint the write fraction over the tenant's
    /// whole stream is compared with the previous checkpoint's; once the
    /// two agree within tolerance, the SWk with the lowest expected cost
    /// ([`mdr_analysis::expected_cost`]) under the tenant's own cost
    /// model is adopted, replica state preserved.
    fn maybe_adapt(tenant: &mut Tenant) {
        if tenant.adapted || tenant.core.decided() % ADAPT_INTERVAL != 0 {
            return;
        }
        let decided = tenant.core.decided();
        let writes = tenant.core.counts().writes();
        let prev = tenant.checkpoint.replace((writes, decided));
        let Some((prev_writes, prev_decided)) = prev else {
            return;
        };
        let theta_now = writes as f64 / decided as f64;
        let theta_prev = prev_writes as f64 / prev_decided as f64;
        if (theta_now - theta_prev).abs() > ADAPT_TOLERANCE {
            return;
        }
        let model = tenant.core.model();
        let Some((best, _)) = ADAPT_CANDIDATES
            .iter()
            .map(|&k| {
                let spec = PolicySpec::SlidingWindow { k };
                (spec, mdr_analysis::expected_cost(spec, model, theta_now))
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
        else {
            unreachable!("ADAPT_CANDIDATES is a non-empty constant");
        };
        let Ok(()) = tenant.core.adopt(best) else {
            unreachable!("every adaptive candidate window is odd and positive");
        };
        tenant.adapted = true;
    }

    /// Applies one typed request, returning exactly one typed response.
    /// Infallible by construction: failures are data.
    pub fn apply(&mut self, request: &ServeRequest) -> ServeResponse {
        match self.try_apply(request) {
            Ok(response) => response,
            Err(e) => Self::error(&e),
        }
    }

    fn try_apply(&mut self, request: &ServeRequest) -> Result<ServeResponse, ConfigError> {
        match request {
            ServeRequest::Open {
                tenant,
                policy,
                model,
            } => {
                if let Some(refusal) = self.admit(tenant)? {
                    return Ok(refusal);
                }
                let spec = match policy {
                    None => self.config.default_policy,
                    Some(text) => text.parse().map_err(|e: mdr_core::ParsePolicyError| {
                        ConfigError::BadDecisionRequest {
                            reason: e.to_string(),
                        }
                    })?,
                };
                let model = match model {
                    None => self.config.default_model,
                    Some(text) => text.parse().map_err(|e: mdr_core::ParseModelError| {
                        ConfigError::BadDecisionRequest {
                            reason: e.to_string(),
                        }
                    })?,
                };
                let core = DecisionCore::new(spec, model)?;
                self.tenants.insert(
                    tenant.clone(),
                    Tenant {
                        core,
                        checkpoint: None,
                        adapted: false,
                    },
                );
                Ok(ServeResponse::Opened {
                    tenant: tenant.clone(),
                    policy: spec.to_string(),
                    model: model.to_string(),
                })
            }
            ServeRequest::Decide { tenant, request } => {
                if let Some(budget) = self.config.decision_budget {
                    if self.decisions >= budget {
                        return Ok(ServeResponse::Shed {
                            reason: ServeShedReason::BudgetExhausted,
                            detail: format!("decision budget of {budget} exhausted"),
                        });
                    }
                }
                let req = Request::from_letter(*request).map_err(|e| {
                    ConfigError::BadDecisionRequest {
                        reason: e.to_string(),
                    }
                })?;
                let adaptive = self.config.adaptive;
                let t = self.tenant(tenant)?;
                let decision = t.core.decide(req);
                if adaptive {
                    Self::maybe_adapt(t);
                }
                self.decisions += 1;
                Ok(ServeResponse::Decided {
                    tenant: tenant.clone(),
                    decision,
                })
            }
            ServeRequest::Stats { tenant: None } => Ok(ServeResponse::ServerStats {
                tenants: self.tenants.len(),
                decisions: self.decisions,
                durability: None,
            }),
            ServeRequest::Stats {
                tenant: Some(tenant),
            } => {
                let t = self.tenant(tenant)?;
                Ok(ServeResponse::Stats {
                    tenant: tenant.clone(),
                    policy: t.core.spec().to_string(),
                    decided: t.core.decided(),
                    cost: t.core.total_cost(),
                    has_copy: t.core.has_copy(),
                    data_version: t.core.data_version(),
                    replica_version: t.core.replica_version(),
                })
            }
            ServeRequest::Snapshot { tenant } => {
                let t = self.tenant(tenant)?;
                Ok(ServeResponse::Snapshot {
                    tenant: tenant.clone(),
                    snapshot: t.core.snapshot(),
                })
            }
            ServeRequest::Restore { tenant, snapshot } => {
                if let Some(existing) = self.tenants.get_mut(tenant) {
                    // Restoring over an open tenant rewinds it in place —
                    // no admission question arises.
                    existing.core = DecisionCore::restore(snapshot)?;
                    existing.checkpoint = None;
                } else {
                    if let Some(refusal) = self.admit(tenant)? {
                        return Ok(refusal);
                    }
                    let core = DecisionCore::restore(snapshot)?;
                    self.tenants.insert(
                        tenant.clone(),
                        Tenant {
                            core,
                            checkpoint: None,
                            adapted: false,
                        },
                    );
                }
                Ok(ServeResponse::Restored {
                    tenant: tenant.clone(),
                    decided: snapshot.decided,
                })
            }
            ServeRequest::Close { tenant } => {
                let t = self.tenant(tenant)?;
                let decided = t.core.decided();
                let cost = t.core.total_cost();
                self.tenants.remove(tenant);
                Ok(ServeResponse::Closed {
                    tenant: tenant.clone(),
                    decided,
                    cost,
                })
            }
            ServeRequest::Shutdown => {
                self.done = true;
                Ok(ServeResponse::Shutdown {
                    tenants: self.tenants.len(),
                    decisions: self.decisions,
                })
            }
        }
    }

    /// Handles one wire line: parse, apply, serialize. Total — any input
    /// byte sequence produces exactly one JSON response line, never a
    /// panic.
    pub fn handle_line(&mut self, line: &str) -> String {
        serve_line(line, |request| self.apply(request))
    }
}

/// The wire codec of both serving layers: decodes `line`, answers it with
/// `apply` (or with a `bad-request` error when it does not decode), and
/// encodes the response as one line of JSON.
pub(crate) fn serve_line(line: &str, apply: impl FnOnce(&ServeRequest) -> ServeResponse) -> String {
    let response = match serde_json::from_str::<ServeRequest>(line) {
        Ok(request) => apply(&request),
        Err(e) => ServeEngine::error(&ConfigError::BadDecisionRequest {
            reason: e.to_string(),
        }),
    };
    let Ok(wire) = serde_json::to_string(&response) else {
        unreachable!("every ServeResponse value serializes");
    };
    wire
}

// ---------------------------------------------------------------------------
// The serve benchmark workload.
// ---------------------------------------------------------------------------

/// Result of one [`run_serve_bench`] pass: how many decisions were
/// served and the FNV-1a digest of every response byte — the
/// determinism half of the `BENCH_serve.json` gate (any drift in wire
/// behaviour fails CI at any speed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeBenchReport {
    /// Decisions served (excludes opens and the shutdown).
    pub decisions: u64,
    /// FNV-1a over the bytes of every response line, in order.
    pub digest: u64,
}

/// Builds the deterministic benchmark session: `tenants` tenants with
/// write fractions fanned across (0, 1), `per_tenant` decide lines each,
/// round-robin interleaved, from a SplitMix64 stream on `seed`.
///
/// Generation is separated from [`run_serve_bench`] so the timed loop
/// measures only the serve path (JSON parse → decide → JSON print), not
/// workload synthesis.
pub fn serve_bench_lines(tenants: usize, per_tenant: usize, seed: u64) -> Vec<String> {
    // SplitMix64 — the standard 64-bit mixing constants; self-contained
    // so the bench needs no RNG plumbing and stays bit-stable forever.
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut lines = Vec::with_capacity(tenants * (per_tenant + 1) + 1);
    for t in 0..tenants {
        // Mixed roster: half the tenants on the competitive default, the
        // rest split between window and threshold policies.
        let policy = match t % 4 {
            0 => r#","policy":"T1(2)""#.to_owned(),
            1 => r#","policy":"SW5""#.to_owned(),
            2 => r#","policy":"SW1","model":"message:0.5""#.to_owned(),
            _ => r#","policy":"T2(3)","model":"message:0.25""#.to_owned(),
        };
        lines.push(format!(r#"{{"op":"open","tenant":"t{t}"{policy}}}"#));
    }
    for _round in 0..per_tenant {
        for t in 0..tenants {
            // Per-tenant write fraction, fanned across (0, 1).
            let theta = (t + 1) as f64 / (tenants + 1) as f64;
            let letter = if (next() >> 11) as f64 / (1u64 << 53) as f64 <= theta {
                'w'
            } else {
                'r'
            };
            lines.push(format!(
                r#"{{"op":"decide","tenant":"t{t}","request":"{letter}"}}"#
            ));
        }
    }
    lines.push(r#"{"op":"shutdown"}"#.to_owned());
    lines
}

/// Runs a prepared benchmark session through a fresh [`ServeEngine`],
/// digesting every response byte. This is the function `mdr bench
/// --serve` times; it is also exercised (undigested) by the CI smoke
/// job via `mdr serve` itself.
pub fn run_serve_bench(
    lines: &[String],
    config: ServeConfig,
) -> Result<ServeBenchReport, ConfigError> {
    let mut engine = ServeEngine::new(config)?;
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fnv = |bytes: &[u8]| {
        for &b in bytes {
            digest ^= u64::from(b);
            digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for line in lines {
        let response = engine.handle_line(line);
        fnv(response.as_bytes());
        fnv(b"\n");
    }
    Ok(ServeBenchReport {
        decisions: engine.decisions(),
        digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdr_core::Schedule;

    fn sched(s: &str) -> Schedule {
        s.parse().unwrap()
    }

    #[test]
    fn decisions_carry_exact_cost_attribution() {
        let spec = PolicySpec::SlidingWindow { k: 3 };
        let mut core = DecisionCore::new(spec, CostModel::message(0.5)).unwrap();
        let d = core.decide(Request::Read);
        assert_eq!(d.seq, 1);
        assert_eq!(d.verdict, Verdict::ServeRemote);
        assert_eq!(
            (d.data_messages, d.control_messages, d.connections),
            (1, 1, 1)
        );
        assert_eq!(d.cost, 1.5);
        let d = core.decide(Request::Read);
        assert_eq!(d.verdict, Verdict::Allocate);
        assert!(d.has_copy);
        let d = core.decide(Request::Read);
        assert_eq!(d.verdict, Verdict::ServeLocal);
        assert_eq!(d.cost, 0.0);
        assert_eq!(core.total_cost(), 3.0);
    }

    #[test]
    fn staleness_counts_unobserved_writes() {
        let mut core = DecisionCore::new(PolicySpec::St1, CostModel::Connection).unwrap();
        assert_eq!(core.decide(Request::Write).staleness, 1);
        assert_eq!(core.decide(Request::Write).staleness, 2);
        // A remote read returns the current value: staleness collapses.
        assert_eq!(core.decide(Request::Read).staleness, 0);
        assert_eq!(core.data_version(), 2);
        assert_eq!(core.replica_version(), 2);
    }

    #[test]
    fn replica_holding_cores_never_go_stale() {
        let mut core =
            DecisionCore::new(PolicySpec::SlidingWindow { k: 5 }, CostModel::Connection).unwrap();
        for r in &sched("rrrwwrwrwwrrrwwwwrrr") {
            let d = core.decide(r);
            if d.has_copy {
                assert_eq!(d.staleness, 0, "a held replica receives every write");
            }
        }
    }

    #[test]
    fn core_matches_reference_policy_run() {
        for spec in PolicySpec::roster(&[1, 3, 7], &[1, 3]) {
            let mut core = DecisionCore::new(spec, CostModel::message(0.25)).unwrap();
            let mut reference = spec.build();
            for r in &sched("rrwwrwrrrwwwrwrwrrwwrrrrwwww") {
                let d = core.decide(r);
                assert_eq!(d.action, reference.on_request(r), "{spec}");
                assert_eq!(d.has_copy, reference.has_copy(), "{spec}");
            }
        }
    }

    #[test]
    fn snapshots_restore_mid_stream() {
        for spec in PolicySpec::roster(&[1, 3, 5], &[2, 4]) {
            let stream = sched("rrwwrwrrrwwwrwrwrrwwrrrrwwww");
            let tail = sched("wwrrwrwrwwrr");
            let mut whole = DecisionCore::new(spec, CostModel::message(0.5)).unwrap();
            for r in &stream {
                whole.decide(r);
            }
            let snap = whole.snapshot();
            let mut restored = DecisionCore::restore(&snap).unwrap();
            for r in &tail {
                let a = whole.decide(r);
                let b = restored.decide(r);
                assert_eq!(a, b, "{spec}");
            }
            assert_eq!(whole.counts(), restored.counts(), "{spec}");
            assert_eq!(whole.snapshot(), restored.snapshot(), "{spec}");
        }
    }

    #[test]
    fn snapshot_version_mismatch_is_typed() {
        let core = DecisionCore::new(PolicySpec::St1, CostModel::Connection).unwrap();
        let mut snap = core.snapshot();
        snap.version = 99;
        assert_eq!(
            DecisionCore::restore(&snap).err(),
            Some(ConfigError::SnapshotVersion {
                found: 99,
                supported: SNAPSHOT_VERSION
            })
        );
    }

    #[test]
    fn inconsistent_snapshots_are_rejected() {
        let mut core =
            DecisionCore::new(PolicySpec::SlidingWindow { k: 3 }, CostModel::Connection).unwrap();
        core.decide(Request::Write);
        let mut snap = core.snapshot();
        snap.decided = 7;
        assert!(matches!(
            DecisionCore::restore(&snap),
            Err(ConfigError::BadDecisionRequest { .. })
        ));
        let mut snap = core.snapshot();
        snap.state = PolicyState::Window {
            window: "rw".to_owned(), // wrong length for k = 3
        };
        assert!(DecisionCore::restore(&snap).is_err());
        let mut snap = core.snapshot();
        snap.state = PolicyState::Streak {
            has_copy: false,
            streak: 0,
        };
        assert!(DecisionCore::restore(&snap).is_err(), "state/spec mismatch");
    }

    #[test]
    fn streaks_at_the_threshold_do_not_restore() {
        // A T1m/T2m streak runs from 0 to m − 1; a snapshot claiming m
        // was not taken from a running core.
        for spec in [PolicySpec::T1 { m: 2 }, PolicySpec::T2 { m: 2 }] {
            let mut snap = DecisionCore::new(spec, CostModel::Connection)
                .unwrap()
                .snapshot();
            for (streak, restores) in [(1, true), (2, false)] {
                snap.state = PolicyState::Streak {
                    has_copy: true,
                    streak,
                };
                let restored = DecisionCore::restore(&snap);
                assert_eq!(restored.is_ok(), restores, "{spec} with streak {streak}");
            }
        }
    }

    #[test]
    fn invalid_specs_are_rejected_with_config_errors() {
        assert_eq!(
            DecisionCore::new(PolicySpec::SlidingWindow { k: 4 }, CostModel::Connection)
                .err()
                .unwrap(),
            ConfigError::EvenWindow { k: 4 }
        );
        assert_eq!(
            DecisionCore::new(PolicySpec::T1 { m: 0 }, CostModel::Connection)
                .err()
                .unwrap(),
            ConfigError::ZeroThreshold
        );
        assert_eq!(
            DecisionCore::new(PolicySpec::T2 { m: 0 }, CostModel::Connection)
                .err()
                .unwrap(),
            ConfigError::ZeroThreshold
        );
        // `adopt` re-validates with the same rules: a running core must
        // reject the same degenerate specs it would reject at birth.
        let mut core = DecisionCore::new(PolicySpec::St1, CostModel::Connection).unwrap();
        assert_eq!(
            core.adopt(PolicySpec::T1 { m: 0 }).err().unwrap(),
            ConfigError::ZeroThreshold
        );
        assert_eq!(
            core.adopt(PolicySpec::T2 { m: 0 }).err().unwrap(),
            ConfigError::ZeroThreshold
        );
        assert_eq!(
            core.adopt(PolicySpec::SlidingWindow { k: 6 })
                .err()
                .unwrap(),
            ConfigError::EvenWindow { k: 6 }
        );
        assert_eq!(core.spec(), PolicySpec::St1, "failed adoption is a no-op");
    }

    /// `restore` decides a spec/state mismatch before any parameter check:
    /// a degenerate spec under the wrong state kind is a bad request, and
    /// under its own kind fails with the spec's config error.
    #[test]
    fn restore_checks_the_state_kind_before_the_parameters() {
        let mut snap = DecisionCore::new(PolicySpec::St1, CostModel::Connection)
            .unwrap()
            .snapshot();
        let restore = |snap: &CoreSnapshot| DecisionCore::restore(snap).err().unwrap();
        let window = PolicyState::Window {
            window: "rrrr".to_owned(),
        };
        let streak = PolicyState::Streak {
            has_copy: false,
            streak: 0,
        };
        snap.spec = PolicySpec::SlidingWindow { k: 4 };
        snap.state = streak.clone();
        assert!(matches!(
            restore(&snap),
            ConfigError::BadDecisionRequest { .. }
        ));
        snap.state = window.clone();
        assert_eq!(restore(&snap), ConfigError::EvenWindow { k: 4 });
        for spec in [PolicySpec::T1 { m: 0 }, PolicySpec::T2 { m: 0 }] {
            snap.spec = spec;
            snap.state = window.clone();
            assert!(matches!(
                restore(&snap),
                ConfigError::BadDecisionRequest { .. }
            ));
            snap.state = streak.clone();
            assert_eq!(restore(&snap), ConfigError::ZeroThreshold, "{spec}");
        }
    }

    #[test]
    fn adopt_preserves_replica_state() {
        let mut core =
            DecisionCore::new(PolicySpec::SlidingWindow { k: 3 }, CostModel::Connection).unwrap();
        core.decide(Request::Read);
        core.decide(Request::Read);
        assert!(core.has_copy());
        let before = core.decided();
        core.adopt(PolicySpec::SlidingWindow { k: 7 }).unwrap();
        assert!(core.has_copy(), "adoption must not drop the replica");
        assert_eq!(core.spec(), PolicySpec::SlidingWindow { k: 7 });
        assert_eq!(core.decided(), before, "ledger continues uninterrupted");
        // The adopted window agrees with the copy state, so the §4
        // invariant holds on the very next request.
        let d = core.decide(Request::Read);
        assert_eq!(d.verdict, Verdict::ServeLocal);
        assert!(core.adopt(PolicySpec::SlidingWindow { k: 2 }).is_err());
    }

    // -- the serving layer --

    fn engine() -> ServeEngine {
        ServeEngine::new(ServeConfig::default()).unwrap()
    }

    fn open(engine: &mut ServeEngine, tenant: &str, policy: &str) -> ServeResponse {
        engine.apply(&ServeRequest::Open {
            tenant: tenant.to_owned(),
            policy: Some(policy.to_owned()),
            model: None,
        })
    }

    #[test]
    fn tenants_are_isolated() {
        let mut e = engine();
        open(&mut e, "a", "SW3");
        open(&mut e, "b", "ST1");
        for _ in 0..2 {
            e.apply(&ServeRequest::Decide {
                tenant: "a".to_owned(),
                request: 'r',
            });
        }
        let ServeResponse::Stats {
            has_copy, decided, ..
        } = e.apply(&ServeRequest::Stats {
            tenant: Some("a".to_owned()),
        })
        else {
            panic!("expected stats");
        };
        assert!(has_copy);
        assert_eq!(decided, 2);
        let ServeResponse::Stats {
            has_copy, decided, ..
        } = e.apply(&ServeRequest::Stats {
            tenant: Some("b".to_owned()),
        })
        else {
            panic!("expected stats");
        };
        assert!(!has_copy);
        assert_eq!(decided, 0);
    }

    #[test]
    fn unknown_tenants_are_typed_errors() {
        let mut e = engine();
        let r = e.apply(&ServeRequest::Decide {
            tenant: "ghost".to_owned(),
            request: 'r',
        });
        let ServeResponse::Error { code, detail } = r else {
            panic!("expected an error, got {r:?}");
        };
        assert_eq!(code, "unknown-tenant");
        assert!(detail.contains("ghost"));
    }

    #[test]
    fn tenant_limit_sheds_typed() {
        let mut e = ServeEngine::new(ServeConfig {
            max_tenants: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        open(&mut e, "a", "ST1");
        let r = open(&mut e, "b", "ST1");
        assert!(
            matches!(
                r,
                ServeResponse::Shed {
                    reason: ServeShedReason::TenantLimit,
                    ..
                }
            ),
            "{r:?}"
        );
        // Closing frees the slot.
        e.apply(&ServeRequest::Close {
            tenant: "a".to_owned(),
        });
        assert!(matches!(
            open(&mut e, "b", "ST1"),
            ServeResponse::Opened { .. }
        ));
    }

    #[test]
    fn decision_budget_sheds_typed() {
        let mut e = ServeEngine::new(ServeConfig {
            decision_budget: Some(2),
            ..ServeConfig::default()
        })
        .unwrap();
        open(&mut e, "a", "ST1");
        let decide = ServeRequest::Decide {
            tenant: "a".to_owned(),
            request: 'r',
        };
        assert!(matches!(e.apply(&decide), ServeResponse::Decided { .. }));
        assert!(matches!(e.apply(&decide), ServeResponse::Decided { .. }));
        assert!(matches!(
            e.apply(&decide),
            ServeResponse::Shed {
                reason: ServeShedReason::BudgetExhausted,
                ..
            }
        ));
    }

    #[test]
    fn malformed_lines_never_panic() {
        let mut e = engine();
        for line in [
            "",
            "not json",
            "{}",
            r#"{"op":"frobnicate"}"#,
            r#"{"op":"decide"}"#,
            r#"{"op":"decide","tenant":"a","request":"x"}"#,
            r#"{"op":"open","tenant":"a","policy":"SW4"}"#,
            r#"{"op":"open","tenant":""}"#,
            r#"{"op":"restore","tenant":"a","snapshot":{"version":1}}"#,
            r#"{"op":"open","tenant":"a","model":"parsecs"}"#,
            "\u{0}\u{1}\u{2}",
        ] {
            let out = e.handle_line(line);
            assert!(out.starts_with(r#"{"err":"#), "line {line:?} -> {out}");
        }
        assert_eq!(e.tenant_count(), 0, "no malformed open may half-succeed");
    }

    #[test]
    fn wire_round_trip_decides() {
        let mut e = engine();
        let out =
            e.handle_line(r#"{"op":"open","tenant":"mc1","policy":"SW1","model":"message:0.5"}"#);
        assert_eq!(
            out,
            r#"{"ok":"open","tenant":"mc1","policy":"SW1","model":"message(ω=0.5)"}"#
        );
        let out = e.handle_line(r#"{"op":"decide","tenant":"mc1","request":"r"}"#);
        assert!(out.contains(r#""action":"remote-read+allocate""#), "{out}");
        assert!(out.contains(r#""verdict":"allocate""#), "{out}");
        assert!(out.contains(r#""cost":1.5"#), "{out}");
        let out = e.handle_line(r#"{"op":"decide","tenant":"mc1","request":"w"}"#);
        assert!(out.contains(r#""action":"delete-request-write""#), "{out}");
        assert!(out.contains(r#""cost":0.5"#), "{out}");
        let out = e.handle_line(r#"{"op":"shutdown"}"#);
        assert_eq!(out, r#"{"ok":"shutdown","tenants":1,"decisions":2}"#);
        assert!(e.is_done());
    }

    /// The direct decision printer sizes its buffer from the tenant name,
    /// which the wire does not bound: a name longer than the fixed part
    /// still prints whole.
    #[test]
    fn long_tenant_names_print_whole() {
        let mut e = engine();
        let tenant = "t".repeat(300);
        open(&mut e, &tenant, "SW1");
        let out = e.handle_line(&format!(
            r#"{{"op":"decide","tenant":"{tenant}","request":"r"}}"#
        ));
        assert!(out.contains(&format!(r#""tenant":"{tenant}""#)), "{out}");
        assert!(out.contains(r#""ok":"decision""#), "{out}");
    }

    #[test]
    fn serve_snapshot_restores_over_the_wire() {
        let mut e = engine();
        open(&mut e, "a", "T1(2)");
        for r in "rrwrr".chars() {
            e.apply(&ServeRequest::Decide {
                tenant: "a".to_owned(),
                request: r,
            });
        }
        let snap_line = e.handle_line(r#"{"op":"snapshot","tenant":"a"}"#);
        // Re-inject the snapshot JSON as a restore of a fresh tenant.
        let snapshot_json = snap_line
            .strip_prefix(r#"{"ok":"snapshot","tenant":"a","snapshot":"#)
            .and_then(|s| s.strip_suffix('}'))
            .expect("snapshot response shape");
        let restore_line = format!(r#"{{"op":"restore","tenant":"b","snapshot":{snapshot_json}}}"#);
        let out = e.handle_line(&restore_line);
        assert_eq!(out, r#"{"ok":"restore","tenant":"b","decided":5}"#);
        // The clone now decides identically to the original.
        for r in "wrwwrr".chars() {
            let a = e.handle_line(&format!(
                r#"{{"op":"decide","tenant":"a","request":"{r}"}}"#
            ));
            let b = e.handle_line(&format!(
                r#"{{"op":"decide","tenant":"b","request":"{r}"}}"#
            ));
            assert_eq!(
                a.replace(r#""tenant":"a""#, ""),
                b.replace(r#""tenant":"b""#, "")
            );
        }
    }

    #[test]
    fn adaptive_mode_adopts_the_best_window() {
        let mut e = ServeEngine::new(ServeConfig {
            adaptive: true,
            default_model: CostModel::Connection,
            ..ServeConfig::default()
        })
        .unwrap();
        open(&mut e, "a", "T1(2)");
        // A long read-heavy stream: θ̂ stabilizes near 0, where larger
        // windows and two-copies-like behaviour win.
        for i in 0..(ADAPT_INTERVAL * 3) {
            let letter = if i % 10 == 0 { 'w' } else { 'r' };
            e.apply(&ServeRequest::Decide {
                tenant: "a".to_owned(),
                request: letter,
            });
        }
        let ServeResponse::Stats { policy, .. } = e.apply(&ServeRequest::Stats {
            tenant: Some("a".to_owned()),
        }) else {
            panic!("expected stats");
        };
        assert!(
            policy.starts_with("SW"),
            "θ̂ stabilized, so the §6 re-selection must have fired; still {policy}"
        );
    }

    #[test]
    fn adaptive_checkpoints_fall_every_64_decisions() {
        // θ̂ is sampled every 64 decisions, and the window is re-selected
        // at the first sample that agrees with the one before: on a
        // read-only stream, decision 128. Journal replay re-derives the
        // same samples, so the schedule is part of the durable format.
        let mut e = ServeEngine::new(ServeConfig {
            adaptive: true,
            ..ServeConfig::default()
        })
        .unwrap();
        open(&mut e, "a", "T1(2)");
        let read = ServeRequest::Decide {
            tenant: "a".to_owned(),
            request: 'r',
        };
        for _ in 0..127 {
            e.apply(&read);
        }
        assert_eq!(e.tenant_policy("a"), Some(PolicySpec::T1 { m: 2 }));
        e.apply(&read);
        assert!(matches!(
            e.tenant_policy("a"),
            Some(PolicySpec::SlidingWindow { .. })
        ));
    }

    #[test]
    fn bench_session_is_deterministic() {
        let lines = serve_bench_lines(4, 100, 7);
        let a = run_serve_bench(&lines, ServeConfig::default()).unwrap();
        let b = run_serve_bench(&lines, ServeConfig::default()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.decisions, 400);
        // Pin the exact digest: the synthetic workload generator and the
        // response wire format are both part of the bench contract.
        assert_eq!(a.digest, 0xed27824f6d6b158f, "regression pin");
        let other = run_serve_bench(&serve_bench_lines(4, 100, 8), ServeConfig::default()).unwrap();
        assert_ne!(a.digest, other.digest, "the digest tracks the workload");
    }
}
