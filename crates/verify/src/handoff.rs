//! Bounded model checking of the multi-cell handoff protocol
//! (`docs/topology.md`): this module drives the simulator's own
//! [`HandoffState`] — the shipped transitions, not a model of them — over
//! every interleaving of:
//!
//! * a migration of the MC to each other cell;
//! * the leg in the air landing, or being lost when it is sent;
//! * the ARQ retry firing, within the retry budget;
//! * the deadline firing;
//! * a queued copy landing: a commit ghost, a retransmission queued
//!   behind the leg slot, or the demoted leg of a fenced flight.
//!
//! What the simulator's topology layer keeps around the state — the
//! copies on the backbone, the leg slot, the retry timer — the checker
//! keeps beside it, and imposes only the order shipped timing guarantees:
//! every leg crosses the backbone with the same latency, so copies land
//! in the order they were sent, and a commit ghost lands after its
//! original. Each reached state is deduplicated and judged by the
//! [`HandoffInvariant`]s, which are statements about the real state.

use mdr_sim::{
    HandoffLeg, HandoffState, InvariantMonitor, LegLanding, LegSent, SimReport, TopologyConfig,
};
use std::collections::HashSet;
use std::fmt;

/// The invariants the handoff checker enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HandoffInvariant {
    /// Billed legs = settled + aborted + in flight, and the invalidation
    /// bill matches its pricing rule ([`HandoffState::check_billing`]).
    BillingIdentity,
    /// No cell keeps a stale replica once a commit's invalidation ran.
    NoStaleAfterCommit,
    /// With no flight the owner is the MC's cell; a flight runs from the
    /// owner toward the MC's cell, which differs.
    OwnershipFollowsMc,
    /// Ownership moves exactly when one commit is counted, and a flight
    /// commits only after its state transfer has landed.
    CommitAfterTransfer,
    /// A stuck handoff has a flight in the air.
    StuckMeansInFlight,
    /// The leg in the slot lands and moves its flight on; a queued copy
    /// that lands is discarded and leaves the state unchanged.
    OnlyTheLegInTheAirLands,
}

impl fmt::Display for HandoffInvariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            HandoffInvariant::BillingIdentity => "billing-identity",
            HandoffInvariant::NoStaleAfterCommit => "no-stale-after-commit",
            HandoffInvariant::OwnershipFollowsMc => "ownership-follows-mc",
            HandoffInvariant::CommitAfterTransfer => "commit-after-transfer",
            HandoffInvariant::StuckMeansInFlight => "stuck-means-in-flight",
            HandoffInvariant::OnlyTheLegInTheAirLands => "only-the-leg-in-the-air-lands",
        };
        write!(f, "{name}")
    }
}

/// A counterexample: which invariant failed, why, and the transition
/// path that reached the bad state.
#[derive(Debug, Clone)]
pub struct HandoffViolation {
    /// The violated invariant.
    pub invariant: HandoffInvariant,
    /// Human-readable description of the bad state.
    pub detail: String,
    /// The transition names along the failing path.
    pub trace: Vec<String>,
}

impl fmt::Display for HandoffViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} violated after [{}]: {}",
            self.invariant,
            self.trace.join(" "),
            self.detail
        )
    }
}

/// One bounded handoff exploration: the topology, the transport and the
/// depth. Every exploration may lose legs and duplicate commits, within
/// fixed per-path budgets.
#[derive(Debug, Clone)]
pub struct HandoffConfig {
    /// Number of stationary cells (≥ 2 for any migration to exist).
    pub cells: usize,
    /// Exploration depth: number of transitions along any path.
    pub depth: usize,
    /// Broadcast invalidation instead of one message per stale replica.
    pub broadcast: bool,
    /// The ARQ transport's retry budget, which bounds each leg's
    /// retransmissions; `None` sends every leg once.
    pub retry_budget: Option<u32>,
}

impl HandoffConfig {
    /// An exploration over `cells` cells to `depth` with per-cell
    /// invalidation and no ARQ.
    pub fn new(cells: usize, depth: usize) -> Self {
        HandoffConfig {
            cells: cells.max(2),
            depth,
            broadcast: false,
            retry_budget: None,
        }
    }

    /// Prices invalidation as one broadcast per commit round.
    #[must_use]
    pub fn broadcast(mut self) -> Self {
        self.broadcast = true;
        self
    }

    /// Installs the ARQ transport: each leg's retry timer may fire twice.
    #[must_use]
    pub fn arq(mut self) -> Self {
        self.retry_budget = Some(2);
        self
    }
}

/// What one bounded handoff exploration found.
#[derive(Debug, Clone)]
pub struct HandoffReport {
    /// The exploration's configuration.
    pub config: HandoffConfig,
    /// Deduplicated states reached (including the initial state).
    pub states: usize,
    /// Transitions applied (including ones into already-seen states).
    pub transitions: usize,
    /// Commits reached along the explored transitions.
    pub commits: usize,
    /// Counterexamples found; empty means the run verified.
    pub violations: Vec<HandoffViolation>,
}

impl HandoffReport {
    /// Whether the exploration finished without a counterexample.
    pub fn verified(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Per-path budgets of the environment events that could otherwise
/// repeat without bound.
const MIGRATIONS: u8 = 3;
const DEADLINES: u8 = 2;
const LOSSES: u8 = 2;
const GHOSTS: u8 = 1; // `World::ghost` holds one released ghost

/// A leg copy on the backbone that was not lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct InAir {
    epoch: u64,
    leg: HandoffLeg,
    /// Whether it sits in the leg slot — it is the flight's awaiting leg —
    /// rather than in the queue.
    slot: bool,
    /// Whether the backbone duplicated it: a ghost lands after it.
    ghost: bool,
}

/// The fate of the leg a transition sends, if it sends one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Delivered,
    Lost,
    /// Delivered, and duplicated by the backbone (commit legs only).
    Ghosted,
}

/// What the checker explores: the shipped handoff state, what the
/// topology layer keeps around it, and the budgets left. Equality and
/// hashing drive deduplication. The run counters stay outside: the
/// billing identities compare them linearly, so two paths into one world
/// that both pass them stay equal under every continuation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct World {
    state: HandoffState,
    /// Copies on the backbone in send order, which is landing order.
    air: Vec<InAir>,
    /// The epoch of the commit ghost whose original landed: it may land
    /// at any time. The ghost budget allows one per path.
    ghost: Option<u64>,
    /// Whether the retry timer is armed.
    retry: bool,
    migrations_left: u8,
    deadlines_left: u8,
    losses_left: u8,
    ghosts_left: u8,
}

/// The environment events a world can take next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// The MC moves to this cell.
    Migrate(usize),
    /// The earliest copy on the backbone lands: the leg in the slot, or a
    /// queued copy sent before it.
    Land(InAir),
    /// The released commit ghost of this epoch lands.
    Ghost(u64),
    /// The retry timer fires.
    Retry,
    /// The deadline fires.
    Deadline,
}

impl World {
    fn initial(config: &HandoffConfig) -> Self {
        let Ok(topology) = TopologyConfig::new(config.cells, 1.0, 1.0, 0) else {
            unreachable!("the checker's topology is valid by construction")
        };
        let topology = if config.broadcast {
            topology.with_broadcast_invalidation()
        } else {
            topology
        };
        World {
            state: HandoffState::new(&topology, config.retry_budget),
            air: Vec::new(),
            ghost: None,
            retry: false,
            migrations_left: MIGRATIONS,
            deadlines_left: DEADLINES,
            losses_left: LOSSES,
            ghosts_left: GHOSTS,
        }
    }

    fn enabled(&self, config: &HandoffConfig) -> Vec<Step> {
        let mut steps = Vec::with_capacity(config.cells + 4);
        if self.migrations_left > 0 {
            let mc = self.state.mc_cell();
            steps.extend((0..config.cells).filter(|&c| c != mc).map(Step::Migrate));
        }
        if let Some(&first) = self.air.first() {
            steps.push(Step::Land(first));
        }
        steps.extend(self.ghost.map(Step::Ghost));
        if self.retry {
            steps.push(Step::Retry);
        }
        if self.deadlines_left > 0 && self.state.flight().is_some() {
            steps.push(Step::Deadline);
        }
        steps
    }

    /// Sends the flight's awaiting leg with `fate`, placing a surviving
    /// copy as the topology layer does: in the slot if it is free, else in
    /// the queue behind it.
    fn send(&mut self, fate: Fate, tally: &mut SimReport) -> LegSent {
        let sent = self.state.send(tally);
        if fate == Fate::Lost {
            self.losses_left -= 1;
        } else {
            let ghost = fate == Fate::Ghosted;
            self.ghosts_left -= u8::from(ghost);
            let slot = !self.air.iter().any(|c| c.slot);
            self.air.push(InAir {
                epoch: sent.epoch,
                leg: sent.leg,
                slot,
                ghost,
            });
        }
        self.retry = sent.retry;
        sent
    }

    /// Ownership follows the MC; a flight that sets off sends its first
    /// leg.
    fn follow(&mut self, fate: Fate, tally: &mut SimReport) -> Option<LegSent> {
        self.state.follow().then(|| self.send(fate, tally))
    }

    /// Retires an aborted flight's timers: the leg in the slot moves to
    /// the queue, and the retry timer goes.
    fn retire(&mut self) {
        for copy in &mut self.air {
            copy.slot = false;
        }
        self.retry = false;
    }

    /// A copy reaches its destination SC: an advanced flight sends its
    /// next leg, a committed one retires its retry timer.
    fn arrive(
        &mut self,
        epoch: u64,
        leg: HandoffLeg,
        fate: Fate,
        tally: &mut SimReport,
    ) -> Option<LegSent> {
        match self.state.arrive(epoch, leg, tally) {
            LegLanding::Discarded => None,
            LegLanding::Advanced => Some(self.send(fate, tally)),
            LegLanding::Committed => {
                self.retry = false;
                None
            }
        }
    }

    /// Applies `step`; a leg it sends gets `fate`. Returns the leg sent.
    fn apply(&mut self, step: Step, fate: Fate, tally: &mut SimReport) -> Option<LegSent> {
        match step {
            Step::Migrate(cell) => {
                self.migrations_left -= 1;
                if self.state.migrate(cell, tally).is_some() {
                    self.retire();
                }
                self.follow(fate, tally)
            }
            Step::Land(copy) => {
                self.air.remove(0);
                if copy.ghost {
                    self.ghost = Some(copy.epoch);
                }
                self.arrive(copy.epoch, copy.leg, fate, tally)
            }
            Step::Ghost(epoch) => {
                self.ghost = None;
                self.arrive(epoch, HandoffLeg::Commit, fate, tally)
            }
            Step::Retry => {
                self.retry = false;
                Some(self.send(fate, tally))
            }
            Step::Deadline => {
                self.deadlines_left -= 1;
                if self.state.expire(tally).is_some() {
                    self.retire();
                }
                self.follow(fate, tally)
            }
        }
    }
}

/// A world reached by a path, with the run counters the path produced.
#[derive(Clone)]
struct Node {
    world: World,
    tally: SimReport,
}

/// Judges the transition `parent` → `child` by `step`.
fn verify_step(parent: &Node, child: &Node, step: Step) -> Result<(), (HandoffInvariant, String)> {
    macro_rules! ensure {
        ($holds:expr, $invariant:ident, $($detail:tt)+) => {
            if !$holds {
                return Err((HandoffInvariant::$invariant, format!($($detail)+)));
            }
        };
    }
    let (before, state) = (&parent.world.state, &child.world.state);
    let billing = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        state.check_billing(&mut InvariantMonitor::new(), &child.tally);
    }));
    if let Err(panic) = billing {
        let detail = panic.downcast_ref::<String>().cloned().unwrap_or_default();
        return Err((HandoffInvariant::BillingIdentity, detail));
    }
    let commits = child.tally.handoffs_committed - parent.tally.handoffs_committed;
    let stale = state.stale_replicas();
    ensure!(
        commits == 0 || !stale.contains(&true),
        NoStaleAfterCommit,
        "stale replicas {stale:?} after a commit"
    );
    let (mc, owner) = (state.mc_cell(), state.owner_cell());
    let follows = match state.flight() {
        None => owner == mc,
        Some(f) => (f.origin, f.target) == (owner, mc) && owner != mc,
    };
    ensure!(
        follows,
        OwnershipFollowsMc,
        "{:?} while cell {owner} owns the window and the MC is in {mc}",
        state.flight()
    );
    let moved = owner != before.owner_cell();
    ensure!(
        moved == (commits == 1) && commits <= 1,
        CommitAfterTransfer,
        "ownership moved {} → {owner} with {commits} commit(s) counted",
        before.owner_cell()
    );
    ensure!(
        commits == 0 || before.flight().is_some_and(|f| f.transfer_landed),
        CommitAfterTransfer,
        "a flight committed before its state transfer landed"
    );
    ensure!(
        !state.stuck() || state.flight().is_some(),
        StuckMeansInFlight,
        "stuck with no flight in the air"
    );
    let discards = child.tally.handoff_discards - parent.tally.handoff_discards;
    match step {
        Step::Land(copy) if copy.slot => ensure!(
            discards == 0 && state != before,
            OnlyTheLegInTheAirLands,
            "the leg in the slot did not land"
        ),
        Step::Land(_) | Step::Ghost(_) => ensure!(
            discards == 1 && state == before,
            OnlyTheLegInTheAirLands,
            "a queued copy landed with {discards} discard(s) and moved the state"
        ),
        _ => {}
    }
    Ok(())
}

/// Runs one bounded handoff exploration.
pub fn check_handoff(config: &HandoffConfig) -> HandoffReport {
    let mut report = HandoffReport {
        config: config.clone(),
        states: 1,
        transitions: 0,
        commits: 0,
        violations: Vec::new(),
    };
    let initial = Node {
        world: World::initial(config),
        tally: SimReport::default(),
    };
    let mut seen = HashSet::new();
    seen.insert(initial.world.clone());
    dfs(config, &initial, 0, &mut seen, &mut Vec::new(), &mut report);
    report
}

fn dfs(
    config: &HandoffConfig,
    node: &Node,
    depth: usize,
    seen: &mut HashSet<World>,
    trace: &mut Vec<(Step, Fate)>,
    report: &mut HandoffReport,
) {
    if depth == config.depth {
        return;
    }
    for step in node.world.enabled(config) {
        for fate in [Fate::Delivered, Fate::Lost, Fate::Ghosted] {
            let budget = match fate {
                Fate::Delivered => true,
                Fate::Lost => node.world.losses_left > 0,
                Fate::Ghosted => node.world.ghosts_left > 0,
            };
            if !budget {
                continue;
            }
            let mut child = node.clone();
            let sent = child.world.apply(step, fate, &mut child.tally);
            // Any leg the step sends may be lost; only a commit ghosted.
            let befalls = match (fate, sent) {
                (Fate::Delivered, _) => true,
                (Fate::Lost, sent) => sent.is_some(),
                (Fate::Ghosted, sent) => sent.is_some_and(|s| s.leg == HandoffLeg::Commit),
            };
            if !befalls {
                continue;
            }
            report.transitions += 1;
            if child.tally.handoffs_committed > node.tally.handoffs_committed {
                report.commits += 1;
            }
            trace.push((step, fate));
            if let Err((invariant, detail)) = verify_step(node, &child, step) {
                let trace = trace.iter().map(|(step, fate)| match fate {
                    Fate::Delivered => format!("{step:?}"),
                    _ => format!("{step:?}:{fate:?}"),
                });
                report.violations.push(HandoffViolation {
                    invariant,
                    detail,
                    trace: trace.collect(),
                });
                return;
            }
            if seen.insert(child.world.clone()) {
                report.states += 1;
                dfs(config, &child, depth + 1, seen, trace, report);
                if !report.violations.is_empty() {
                    return;
                }
            }
            trace.pop();
        }
    }
}

/// Explores the handoff protocol over 2 and 3 cells, with per-cell and
/// broadcast invalidation, without and with the ARQ transport; returns
/// one report per run.
pub fn handoff_sweep(depth: usize) -> Vec<HandoffReport> {
    let mut reports = Vec::new();
    for cells in [2, 3] {
        for broadcast in [false, true] {
            let base = HandoffConfig::new(cells, depth);
            let base = if broadcast { base.broadcast() } else { base };
            reports.push(check_handoff(&base));
            reports.push(check_handoff(&base.arq()));
        }
    }
    reports
}
