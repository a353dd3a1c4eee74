//! Deterministic parallel sweep engine.
//!
//! A [`SweepGrid`] declares a cross-product of simulation cells —
//! policy × θ × cost model (ω) × fault plan × ARQ transport ×
//! replication — and executes
//! them across a thread pool with a hard guarantee: **the result is
//! byte-identical to the serial path regardless of thread count, chunk
//! size, or OS scheduling**. The guarantee rests on three design rules:
//!
//! 1. *Seeds are positional.* Every run's RNG seeds derive from the grid
//!    seed and the run's coordinates in the canonical enumeration order
//!    via the SplitMix64 finalizer ([`derive_seed`]) — never from a
//!    shared RNG, thread id, or clock. The workload seed depends only on
//!    the (θ, replication) coordinates, so cells that differ only in
//!    policy or fault plan replay the *same* arrival stream — paired
//!    comparisons, exactly as the per-experiment loops always did. A
//!    slot with several runs draws the head of its stream once, before
//!    the runs fan out, into a read-only table that every run of the slot
//!    replays ([`SharedStream`]).
//! 2. *Work is claimed, results are reassembled.* [`parallel_map`] lets
//!    workers race for fixed index chunks, but returns outputs in index
//!    order, so the caller never observes completion order.
//! 3. *Reduction is sequential.* The per-cell reports are folded into the
//!    [`SweepSummary`] in cell-index order on one thread in both the
//!    serial and parallel paths, so float non-associativity cannot leak
//!    scheduling noise into the statistics.
//!
//! The canonical cell order is policy (outermost) → θ → fault plan →
//! ARQ transport → replication → cost model (innermost). The cost model
//! only re-prices an
//! already-simulated run — ω is a billing parameter, not a protocol
//! parameter — so cells that differ only in the model share one
//! simulation run and *must* report identical ledgers.
//!
//! See `docs/sweeps.md` for the seed-derivation spec, the
//! [`SweepSummary`] reduction, and the migration table from the
//! deprecated per-experiment loops.

use crate::builder::{validate_latency, validate_policy};
use crate::faults::{ArqConfig, ConfigError, FaultPlan};
use crate::sim::{SimConfig, SimReport, Simulation};
use crate::topology::TopologyConfig;
use crate::workload::{PoissonWorkload, SharedStream};
use mdr_core::{CostModel, PolicySpec};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// The SplitMix64 output mixer (Steele, Lea & Flood, OOPSLA 2014): a
/// bijective avalanche over `u64` used to turn structured (seed, stream,
/// index) triples into statistically independent RNG seeds.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed streams keep the workload, fault and transport RNGs of one run
/// independent even though all derive from the same grid seed and
/// (θ, replication) coordinates.
pub mod streams {
    /// Arrival-process RNG.
    pub const WORKLOAD: u64 = 0;
    /// Fault-schedule RNG.
    pub const FAULT: u64 = 1;
    /// ARQ transport RNG (loss fates and backoff jitter).
    pub const ARQ: u64 = 2;
    /// Topology RNG (migration dwell times, destination cells, handoff-leg
    /// loss fates and ghost draws).
    pub const TOPOLOGY: u64 = 3;
}

/// Derives the RNG seed for (`stream`, `index`) under `grid_seed`.
///
/// Pure function of its arguments: the same triple always yields the same
/// seed, which is what makes sweep results independent of execution
/// order. Distinct triples map to distinct-looking seeds through a double
/// SplitMix64 pass.
pub fn derive_seed(grid_seed: u64, stream: u64, index: u64) -> u64 {
    splitmix64(grid_seed ^ splitmix64(index.wrapping_mul(2).wrapping_add(stream)))
}

/// Most arrivals a sweep draws ahead for its runs to share, over all its
/// slots: 16 bytes each, so the table never holds more than 1 MiB. Runs
/// that read further continue from their own clone of their slot's
/// generator.
const SHARED_TABLE_CAP: usize = 1 << 16;

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        // A panicking worker already aborts the test/process outcome; the
        // data itself is still consistent for the panic propagation path.
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Maps `f` over `0..n` using up to `threads` OS threads and returns the
/// results **in index order**.
///
/// `threads == 0` means "use the machine's available parallelism";
/// `chunk == 0` picks a chunk size of roughly four chunks per thread.
/// Workers claim fixed `[start, start + chunk)` index ranges from an
/// atomic cursor, so which thread computes which index is racy — but the
/// output vector is reassembled by index, and `f` receives only the
/// index, so the caller cannot observe the race. With one thread (or
/// `n <= 1`) no threads are spawned at all.
pub fn parallel_map<T, F>(n: usize, threads: usize, chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = if threads == 0 {
        available_threads()
    } else {
        threads
    };
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = if chunk == 0 {
        n.div_ceil(threads * 4).max(1)
    } else {
        chunk
    };
    let cursor = AtomicUsize::new(0);
    let chunks: Mutex<Vec<(usize, Vec<T>)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + chunk).min(n);
                let out: Vec<T> = (start..end).map(&f).collect();
                lock(&chunks).push((start, out));
            });
        }
    });
    let mut chunks = match chunks.into_inner() {
        Ok(chunks) => chunks,
        Err(poisoned) => poisoned.into_inner(),
    };
    chunks.sort_by_key(|&(start, _)| start);
    chunks.into_iter().flat_map(|(_, out)| out).collect()
}

/// Execution knobs for [`SweepGrid::run`]. `0` means "auto" for both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepOptions {
    /// Worker threads (`0` = available parallelism).
    pub threads: usize,
    /// Runs per work-stealing chunk (`0` = ~4 chunks per thread).
    pub chunk: usize,
}

/// A declarative parameter grid: the cross-product of every axis below,
/// enumerated policy → θ → fault plan → replication → cost model.
///
/// Construct with [`SweepGrid::new`] and the fallible axis setters (same
/// `Result<Self, ConfigError>` idiom as [`crate::SimBuilder`]), then
/// execute with [`SweepGrid::run`] or [`SweepGrid::run_serial`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    policies: Vec<PolicySpec>,
    thetas: Vec<f64>,
    models: Vec<CostModel>,
    faults: Vec<Option<FaultPlan>>,
    arqs: Vec<Option<ArqConfig>>,
    topologies: Vec<Option<TopologyConfig>>,
    replications: usize,
    requests: usize,
    latency: f64,
    oracle: bool,
    seed: u64,
}

impl SweepGrid {
    /// A 1×1×1×1×1 grid (ST1, θ = 0.5, connection model, no faults, one
    /// replication of 10 000 requests) under `seed`; grow it with the
    /// axis setters.
    pub fn new(seed: u64) -> SweepGrid {
        SweepGrid {
            policies: vec![PolicySpec::St1],
            thetas: vec![0.5],
            models: vec![CostModel::Connection],
            faults: vec![None],
            arqs: vec![None],
            topologies: vec![None],
            replications: 1,
            requests: 10_000,
            latency: 0.01,
            oracle: false,
            seed,
        }
    }

    /// Sets the policy axis.
    ///
    /// # Errors
    ///
    /// [`ConfigError::EmptyAxis`] on an empty list;
    /// [`ConfigError::EvenWindow`] / [`ConfigError::ZeroThreshold`] for a
    /// structurally invalid policy.
    pub fn policies(mut self, policies: Vec<PolicySpec>) -> Result<Self, ConfigError> {
        if policies.is_empty() {
            return Err(ConfigError::EmptyAxis { what: "policies" });
        }
        for &policy in &policies {
            validate_policy(policy)?;
        }
        self.policies = policies;
        Ok(self)
    }

    /// Sets the write-fraction axis.
    ///
    /// # Errors
    ///
    /// [`ConfigError::EmptyAxis`] on an empty list; [`ConfigError::Theta`]
    /// unless every θ lies in `[0, 1]`.
    pub fn thetas(mut self, thetas: Vec<f64>) -> Result<Self, ConfigError> {
        if thetas.is_empty() {
            return Err(ConfigError::EmptyAxis { what: "thetas" });
        }
        if let Some(&bad) = thetas.iter().find(|t| !(0.0..=1.0).contains(*t)) {
            return Err(ConfigError::Theta { value: bad });
        }
        self.thetas = thetas;
        Ok(self)
    }

    /// Sets the cost-model axis. Models are pricing-only: they re-bill the
    /// same simulated runs, they never change the protocol.
    ///
    /// # Errors
    ///
    /// [`ConfigError::EmptyAxis`] on an empty list; [`ConfigError::Omega`]
    /// unless every message model's ω is finite and non-negative.
    pub fn models(mut self, models: Vec<CostModel>) -> Result<Self, ConfigError> {
        if models.is_empty() {
            return Err(ConfigError::EmptyAxis { what: "models" });
        }
        for model in &models {
            if let CostModel::Message { omega } = model {
                if !(omega.is_finite() && *omega >= 0.0) {
                    return Err(ConfigError::Omega { value: *omega });
                }
            }
        }
        self.models = models;
        Ok(self)
    }

    /// Convenience: sets the model axis to `Message { omega }` for each ω.
    ///
    /// # Errors
    ///
    /// Same as [`SweepGrid::models`].
    pub fn omegas(self, omegas: Vec<f64>) -> Result<Self, ConfigError> {
        // Validate before mapping: `CostModel::message` itself panics on a
        // negative ω, and the sweep API promises errors, not panics.
        if let Some(&bad) = omegas.iter().find(|o| !(o.is_finite() && **o >= 0.0)) {
            return Err(ConfigError::Omega { value: bad });
        }
        self.models(omegas.into_iter().map(CostModel::message).collect())
    }

    /// Sets the fault-plan axis; `None` entries are fault-free baselines.
    /// Plans carry their own validation ([`FaultPlan::new`]); each run
    /// re-seeds its plan from the grid seed, so the plan's embedded seed
    /// is irrelevant here.
    ///
    /// # Errors
    ///
    /// [`ConfigError::EmptyAxis`] on an empty list.
    pub fn fault_plans(mut self, faults: Vec<Option<FaultPlan>>) -> Result<Self, ConfigError> {
        if faults.is_empty() {
            return Err(ConfigError::EmptyAxis {
                what: "fault plans",
            });
        }
        self.faults = faults;
        Ok(self)
    }

    /// Sets the ARQ transport axis; `None` entries run the perfect
    /// (instant, lossless) link. Configs carry their own validation
    /// ([`ArqConfig::new`]); each run re-seeds its transport RNG from the
    /// grid seed, so the config's embedded seed is irrelevant here.
    ///
    /// # Errors
    ///
    /// [`ConfigError::EmptyAxis`] on an empty list.
    pub fn arq_configs(mut self, arqs: Vec<Option<ArqConfig>>) -> Result<Self, ConfigError> {
        if arqs.is_empty() {
            return Err(ConfigError::EmptyAxis {
                what: "ARQ configs",
            });
        }
        self.arqs = arqs;
        Ok(self)
    }

    /// Sets the multi-cell topology axis; `None` entries run single-cell
    /// baselines. Configs carry their own validation
    /// ([`TopologyConfig::new`]); each run re-seeds its topology RNG from
    /// the grid seed, so the config's embedded seed is irrelevant here.
    ///
    /// # Errors
    ///
    /// [`ConfigError::EmptyAxis`] on an empty list.
    pub fn topology_configs(
        mut self,
        topologies: Vec<Option<TopologyConfig>>,
    ) -> Result<Self, ConfigError> {
        if topologies.is_empty() {
            return Err(ConfigError::EmptyAxis { what: "topologies" });
        }
        self.topologies = topologies;
        Ok(self)
    }

    /// Sets the number of independent replications per cell.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroCount`] for zero.
    pub fn replications(mut self, replications: usize) -> Result<Self, ConfigError> {
        if replications == 0 {
            return Err(ConfigError::ZeroCount {
                what: "replications",
            });
        }
        self.replications = replications;
        Ok(self)
    }

    /// Sets the number of served requests per run.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroCount`] for zero.
    pub fn requests(mut self, requests: usize) -> Result<Self, ConfigError> {
        if requests == 0 {
            return Err(ConfigError::ZeroCount { what: "requests" });
        }
        self.requests = requests;
        Ok(self)
    }

    /// Sets the one-way link latency for every cell.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Latency`] unless finite and non-negative.
    pub fn latency(mut self, latency: f64) -> Result<Self, ConfigError> {
        validate_latency(latency)?;
        self.latency = latency;
        Ok(self)
    }

    /// Enables the per-request oracle equivalence check inside every run
    /// (off by default in sweeps: it roughly doubles the work).
    ///
    /// # Errors
    ///
    /// Never fails today; `Result` keeps the setter idiom uniform.
    pub fn oracle(mut self, oracle: bool) -> Result<Self, ConfigError> {
        self.oracle = oracle;
        Ok(self)
    }

    /// The grid seed all per-run seeds derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of simulation runs (cells ÷ models — the model axis
    /// re-prices runs instead of re-simulating them).
    pub fn runs(&self) -> usize {
        self.policies.len()
            * self.thetas.len()
            * self.faults.len()
            * self.arqs.len()
            * self.topologies.len()
            * self.replications
    }

    /// Number of priced cells in the grid.
    pub fn cells(&self) -> usize {
        self.runs() * self.models.len()
    }

    /// The per-run request cap (the [`requests`](Self::requests) builder
    /// setting) — surfaced so measurement tooling can record the exact
    /// workload size alongside its timings.
    pub fn requests_per_run(&self) -> usize {
        self.requests
    }

    /// Decodes `run_index` into the run's position on each axis, in the
    /// canonical order policy → θ → fault → ARQ → topology → replication
    /// (replication varies fastest).
    fn decode(&self, run_index: usize) -> RunAt {
        let mut rest = run_index;
        let mut next = |len: usize| {
            let index = rest % len;
            rest /= len;
            index
        };
        let replication = next(self.replications);
        let topology = next(self.topologies.len());
        let arq = next(self.arqs.len());
        let fault = next(self.faults.len());
        let theta = next(self.thetas.len());
        RunAt {
            policy: rest,
            theta,
            fault,
            arq,
            topology,
            replication,
        }
    }

    /// The seed of `stream` for the run at `at`, whose index on the
    /// stream's own axis is `axis` (0 for the workload). The workload
    /// takes one stream slot per (θ, replication) — deliberately blind to
    /// the policy, fault, ARQ and topology axes, so every policy, fault
    /// plan, transport and topology at the same coordinates draws the same
    /// arrivals and the grid produces *paired* comparisons. A layer's
    /// stream takes one slot per (axis value, θ, replication): shared
    /// across policies and the other axes, so every policy faces the same
    /// outage schedule, loss fates and migrations, and distinct per axis
    /// value so plans, configs and topologies don't echo each other.
    /// `slot` is the run's (θ, replication) slot ([`Self::slot`]).
    fn stream_seed(&self, stream: u64, axis: usize, slot: usize) -> u64 {
        derive_seed(self.seed, stream, (axis * self.slots() + slot) as u64)
    }

    /// Number of (θ, replication) slots.
    fn slots(&self) -> usize {
        self.thetas.len() * self.replications
    }

    /// The (θ, replication) slot of the run at `at`; [`Self::theta_of`]
    /// inverts it.
    fn slot(&self, at: RunAt) -> usize {
        at.theta * self.replications + at.replication
    }

    /// The θ-axis index of `slot`.
    fn theta_of(&self, slot: usize) -> usize {
        slot / self.replications
    }

    /// The workload stream of `slot`, which every run at the slot reads.
    fn workload(&self, slot: usize) -> PoissonWorkload {
        let seed = self.stream_seed(streams::WORKLOAD, 0, slot);
        PoissonWorkload::from_theta(1.0, self.thetas[self.theta_of(slot)], seed)
    }

    /// Arrivals each slot draws ahead for its runs to share: the
    /// `requests + 1` a run that sheds nothing reads (it stages each
    /// arrival's successor as it handles it), as far as the slot's share
    /// of [`SHARED_TABLE_CAP`] goes. A slot with one run shares nothing,
    /// so it draws nothing ahead and its run reads the generator live.
    fn shared_prefix(&self) -> usize {
        if self.runs() == self.slots() {
            return 0;
        }
        self.requests
            .saturating_add(1)
            .min(SHARED_TABLE_CAP / self.slots())
    }

    /// Draws the head of every slot's workload stream once, across
    /// `threads` workers (one draws them all in slot order). A run that
    /// needs more than the shared prefix continues from its own clone of
    /// the slot's generator, so every run reads exactly the arrivals a
    /// fresh generator would draw.
    fn draw_streams(&self, threads: usize) -> Vec<SharedStream> {
        let n = self.shared_prefix();
        parallel_map(self.slots(), threads, 0, |slot| {
            SharedStream::draw(self.workload(slot), n)
        })
    }

    /// Executes the run at `run_index` on its slot's stream.
    fn execute_run(&self, run_index: usize, streams: &[SharedStream]) -> SimReport {
        let at = self.decode(run_index);
        let mut sim = Simulation::new(self.config(at));
        sim.run(&mut streams[self.slot(at)].replay(), self.requests)
    }

    /// The simulator configuration of the run at `at`, its layers seeded
    /// from the grid seed.
    fn config(&self, at: RunAt) -> SimConfig {
        let slot = self.slot(at);
        let mut config = SimConfig::defaults(self.policies[at.policy]);
        config.latency = self.latency;
        config.oracle_check = self.oracle;
        if let Some(plan) = &self.faults[at.fault] {
            let mut plan = plan.clone();
            plan.seed = self.stream_seed(streams::FAULT, at.fault, slot);
            config.faults = Some(plan);
        }
        if let Some(arq) = &self.arqs[at.arq] {
            let mut arq = *arq;
            arq.seed = self.stream_seed(streams::ARQ, at.arq, slot);
            config.arq = Some(arq);
        }
        if let Some(topology) = &self.topologies[at.topology] {
            let mut topology = *topology;
            topology.seed = self.stream_seed(streams::TOPOLOGY, at.topology, slot);
            config.topology = Some(topology);
        }
        config
    }

    /// Runs every cell serially on the calling thread. Reference path for
    /// the determinism guarantee: [`SweepGrid::run`] must produce a
    /// byte-identical [`SweepReport`] at any thread count.
    pub fn run_serial(&self) -> SweepReport {
        let streams = self.draw_streams(1);
        let reports: Vec<SimReport> = (0..self.runs())
            .map(|i| self.execute_run(i, &streams))
            .collect();
        self.assemble(reports)
    }

    /// Runs the grid across a thread pool and assembles the same
    /// [`SweepReport`] the serial path produces.
    pub fn run(&self, options: SweepOptions) -> SweepReport {
        let streams = self.draw_streams(options.threads);
        let reports = parallel_map(self.runs(), options.threads, options.chunk, |i| {
            self.execute_run(i, &streams)
        });
        self.assemble(reports)
    }

    /// Runs like [`SweepGrid::run`] while timing the whole sweep: returns
    /// the usual deterministic report plus a [`PerfStats`](crate::perf::PerfStats) measurement
    /// (events processed across every run, wall time, events/sec). The
    /// report is bit-identical to what `run` produces — wall time never
    /// feeds simulation state, ledgers, or digests.
    pub fn run_timed(&self, options: SweepOptions) -> (SweepReport, crate::perf::PerfStats) {
        let watch = crate::perf::Stopwatch::start();
        let report = self.run(options);
        let stats = watch.stats(report.events_processed);
        (report, stats)
    }

    /// Prices the runs under every cost model and folds the summary —
    /// sequentially, in cell-index order, on the calling thread. This is
    /// the *only* reduction path; determinism follows from `reports`
    /// already being in run-index order.
    fn assemble(&self, reports: Vec<SimReport>) -> SweepReport {
        let mut cells = Vec::with_capacity(self.cells());
        for (run_index, report) in reports.iter().enumerate() {
            let at = self.decode(run_index);
            let workload_seed = self.stream_seed(streams::WORKLOAD, 0, self.slot(at));
            for &model in &self.models {
                cells.push(CellReport {
                    policy: self.policies[at.policy],
                    theta: self.thetas[at.theta],
                    model,
                    fault_index: at.fault,
                    arq_index: at.arq,
                    topology_index: at.topology,
                    replication: at.replication,
                    workload_seed,
                    cost_per_request: report.try_cost_per_request(model),
                    report: report.clone(),
                });
            }
        }

        // Summary groups: (policy, θ, fault, ARQ, topology, model). The
        // replications of one group are consecutive runs, folded in
        // ascending order.
        let mut entries = Vec::new();
        for (group, runs) in reports.chunks(self.replications).enumerate() {
            let at = self.decode(group * self.replications);
            let (policy, theta) = (self.policies[at.policy], self.thetas[at.theta]);
            for &model in &self.models {
                let mut entry =
                    SweepEntry::empty(policy, theta, model, at.fault, at.arq, at.topology);
                let analytic = mdr_analysis::expected_cost(policy, model, theta);
                for report in runs {
                    entry.push(report, model, analytic);
                }
                entries.push(entry);
            }
        }
        let events_processed = reports.iter().map(|r| r.events_processed).sum();
        SweepReport {
            seed: self.seed,
            summary: SweepSummary { entries },
            cells,
            events_processed,
        }
    }
}

/// Streaming mean/variance accumulator (Welford), mergeable with Chan's
/// pairwise update so [`SweepSummary`] halves combine without revisiting
/// samples.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Moments {
    /// Sample count.
    pub n: u64,
    /// Sample mean.
    pub mean: f64,
    /// Sum of squared deviations from the mean (`M2` in Welford's terms).
    pub m2: f64,
}

impl Default for Moments {
    fn default() -> Self {
        Moments {
            n: 0,
            mean: 0.0,
            m2: 0.0,
        }
    }
}

impl Moments {
    /// Folds one sample in (Welford's update).
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Unbiased sample variance (0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n as f64 - 1.0)
        }
    }

    /// Standard error of the mean (0 with no samples).
    pub fn stderr(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.variance() / self.n as f64).sqrt()
        }
    }
}

/// Aggregate statistics for one (policy, θ, fault plan, ARQ config, cost
/// model) group of a sweep, folded over its replications.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct SweepEntry {
    /// Allocation policy.
    pub policy: PolicySpec,
    /// Write fraction.
    pub theta: f64,
    /// Pricing model (ω lives here).
    pub model: CostModel,
    /// Index into the grid's fault-plan axis (0 = first plan / baseline).
    pub fault_index: usize,
    /// Index into the grid's ARQ axis (0 = first config / perfect link).
    pub arq_index: usize,
    /// Index into the grid's topology axis (0 = first entry / single cell).
    pub topology_index: usize,
    /// Per-request cost across replications (empty runs excluded).
    pub cost_per_request: Moments,
    /// Measured cost ÷ the Eq. 2–8 analytic expectation for the same
    /// (policy, model, θ) — the fault-free competitive position of each
    /// run; faulted cells read as overhead ratios against the clean
    /// prediction. Skipped when the analytic cost is 0 or non-finite.
    pub competitive_ratio: Moments,
    /// Requests served, summed over replications.
    pub requests: u64,
    /// Billed data messages, summed.
    pub data_messages: u64,
    /// Billed control messages, summed.
    pub control_messages: u64,
    /// Connections used, summed.
    pub connections: u64,
    /// Link-layer retransmissions, summed.
    pub retransmissions: u64,
    /// Injected disconnection windows, summed.
    pub disconnects: u64,
    /// Completed reconnection handshakes, summed.
    pub reconciliations: u64,
    /// ARQ acknowledgements billed, summed.
    pub arq_acks: u64,
    /// Retry-budget exhaustions escalated to declared partitions, summed.
    pub retry_escalations: u64,
    /// Requests shed while degraded, summed.
    pub shed_requests: u64,
    /// Reads served locally while degraded, summed.
    pub degraded_reads: u64,
    /// Mean time to recovery per replication (runs that never recovered
    /// are excluded — `n` says how many replications saw a recovery).
    pub mttr: Moments,
    /// Shed fraction — shed ÷ (served + shed) — per replication.
    pub shed_rate: Moments,
    /// Mean staleness of degraded reads per replication (runs with no
    /// degraded reads are excluded).
    pub staleness: Moments,
    /// Inter-cell migrations, summed over replications.
    pub migrations: u64,
    /// Handoffs committed at the target cell, summed.
    pub handoffs_committed: u64,
    /// Handoffs aborted back to the origin cell, summed.
    pub handoffs_aborted: u64,
    /// Backbone handoff-class messages billed, summed.
    pub handoff_messages: u64,
    /// Invalidation-class messages billed on commit, summed.
    pub invalidation_messages: u64,
    /// Reads served from a non-owner cell's stale replica, summed.
    pub stale_reads: u64,
}

impl SweepEntry {
    fn empty(
        policy: PolicySpec,
        theta: f64,
        model: CostModel,
        fault_index: usize,
        arq_index: usize,
        topology_index: usize,
    ) -> SweepEntry {
        SweepEntry {
            policy,
            theta,
            model,
            fault_index,
            arq_index,
            topology_index,
            cost_per_request: Moments::default(),
            competitive_ratio: Moments::default(),
            requests: 0,
            data_messages: 0,
            control_messages: 0,
            connections: 0,
            retransmissions: 0,
            disconnects: 0,
            reconciliations: 0,
            arq_acks: 0,
            retry_escalations: 0,
            shed_requests: 0,
            degraded_reads: 0,
            mttr: Moments::default(),
            shed_rate: Moments::default(),
            staleness: Moments::default(),
            migrations: 0,
            handoffs_committed: 0,
            handoffs_aborted: 0,
            handoff_messages: 0,
            invalidation_messages: 0,
            stale_reads: 0,
        }
    }

    fn push(&mut self, report: &SimReport, model: CostModel, analytic: f64) {
        if let Some(cost) = report.try_cost_per_request(model) {
            self.cost_per_request.push(cost);
            if analytic.is_finite() && analytic > 0.0 {
                self.competitive_ratio.push(cost / analytic);
            }
        }
        self.requests += report.counts.total();
        self.data_messages += report.data_messages;
        self.control_messages += report.control_messages;
        self.connections += report.connections;
        self.retransmissions += report.retransmissions;
        self.disconnects += report.disconnects;
        self.reconciliations += report.reconciliations;
        self.arq_acks += report.arq_acks;
        self.retry_escalations += report.retry_escalations;
        self.shed_requests += report.shed_requests();
        self.degraded_reads += report.degraded_reads;
        if let Some(mttr) = report.mean_time_to_recovery() {
            self.mttr.push(mttr);
        }
        let offered = report.counts.total() + report.shed_requests();
        if offered > 0 {
            self.shed_rate
                .push(report.shed_requests() as f64 / offered as f64);
        }
        if let Some(staleness) = report.mean_staleness() {
            self.staleness.push(staleness);
        }
        self.migrations += report.migrations;
        self.handoffs_committed += report.handoffs_committed;
        self.handoffs_aborted += report.handoffs_aborted;
        self.handoff_messages += report.handoff_messages;
        self.invalidation_messages += report.invalidation_messages;
        self.stale_reads += report.stale_reads;
    }
}

/// The reduced statistics of a sweep: one [`SweepEntry`] per
/// (policy, θ, fault, model) group, in canonical grid order.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct SweepSummary {
    /// Group entries in canonical order.
    pub entries: Vec<SweepEntry>,
}

/// One run's position on each axis of its grid.
#[derive(Debug, Clone, Copy)]
struct RunAt {
    policy: usize,
    theta: usize,
    fault: usize,
    arq: usize,
    topology: usize,
    replication: usize,
}

/// One priced cell of a sweep: a simulated run billed under one model.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Allocation policy.
    pub policy: PolicySpec,
    /// Write fraction.
    pub theta: f64,
    /// Pricing model.
    pub model: CostModel,
    /// Index into the fault-plan axis.
    pub fault_index: usize,
    /// Index into the ARQ axis.
    pub arq_index: usize,
    /// Index into the topology axis.
    pub topology_index: usize,
    /// Replication number within the group.
    pub replication: usize,
    /// The derived arrival-process seed this run used.
    pub workload_seed: u64,
    /// Per-request cost, `None` for an empty run.
    pub cost_per_request: Option<f64>,
    /// The full simulation report (cells sharing a run carry clones of
    /// the same report).
    pub report: SimReport,
}

/// Everything a sweep produced: the full per-cell ledger plus the reduced
/// summary. Two `SweepReport`s compare equal iff every cell — schedule,
/// ledger, bill, fault counters — is identical.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// The grid seed the runs derived from.
    pub seed: u64,
    /// Per-cell results in canonical order (model innermost).
    pub cells: Vec<CellReport>,
    /// The sequential fold of the cells.
    pub summary: SweepSummary,
    /// Events the simulation loops processed, summed over every run —
    /// a deterministic fact of the grid (identical at any thread count),
    /// and the event count [`SweepGrid::run_timed`] measures throughput
    /// over.
    pub events_processed: u64,
}

/// One word of a cell's ledger: a count, or a real that the digest reads
/// by its bits.
#[derive(Debug, Clone, Copy, PartialEq)]
enum LedgerWord {
    Count(u64),
    Real(f64),
}

impl LedgerWord {
    /// The 64 bits the digest hashes.
    fn bits(self) -> u64 {
        match self {
            LedgerWord::Count(n) => n,
            LedgerWord::Real(x) => x.to_bits(),
        }
    }
}

impl fmt::Display for LedgerWord {
    /// A count in decimal; a real as a rounded decimal plus its exact bits.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            LedgerWord::Count(n) => write!(f, "{n}"),
            LedgerWord::Real(x) => write!(f, "{x:.6}({:#018x})", x.to_bits()),
        }
    }
}

/// Words in one cell's ledger.
const LEDGER_WORDS: usize = 47;

impl CellReport {
    /// The cell's ledger: every word [`SweepReport::ledger_digest`] hashes,
    /// by name, in hash order — the cell's coordinates and cost, then its
    /// report. [`SweepReport::ledger_lines`] prints the same list, so a
    /// word that moves the digest also moves the line and names itself.
    /// The report's `events_processed` and `invariant_checks` are work
    /// tallies, not outcomes, and stay out; so do the contents of
    /// `schedule` and `shed` beyond their lengths.
    fn ledger_words(&self) -> [(&'static str, LedgerWord); LEDGER_WORDS] {
        use LedgerWord::{Count, Real};
        // An empty run's cost hashes as all ones: the bits of a NaN.
        let cost = self.cost_per_request.unwrap_or(f64::from_bits(u64::MAX));
        let r = &self.report;
        let c = &r.counts;
        [
            ("seed", Count(self.workload_seed)),
            ("fault", Count(self.fault_index as u64)),
            ("arq", Count(self.arq_index as u64)),
            ("topo", Count(self.topology_index as u64)),
            ("cost", Real(cost)),
            ("counts.total", Count(c.total())),
            ("counts.data_messages", Count(c.data_messages())),
            ("counts.control_messages", Count(c.control_messages())),
            ("counts.connections", Count(c.connections())),
            ("counts.allocations", Count(c.allocations())),
            ("counts.deallocations", Count(c.deallocations())),
            ("data_messages", Count(r.data_messages)),
            ("control_messages", Count(r.control_messages)),
            ("connections", Count(r.connections)),
            ("retransmissions", Count(r.retransmissions)),
            ("handoffs", Count(r.handoffs)),
            ("disconnects", Count(r.disconnects)),
            ("mc_crashes", Count(r.mc_crashes)),
            ("sc_outages", Count(r.sc_outages)),
            ("duplicated_deliveries", Count(r.duplicated_deliveries)),
            ("discarded_deliveries", Count(r.discarded_deliveries)),
            ("aborted_messages", Count(r.aborted_messages)),
            ("reconciliation_messages", Count(r.reconciliation_messages)),
            ("reconciliations", Count(r.reconciliations)),
            ("queued_requests", Count(r.queued_requests)),
            ("settled_retransmissions", Count(r.settled_retransmissions)),
            ("arq_acks", Count(r.arq_acks)),
            ("retry_escalations", Count(r.retry_escalations)),
            ("shed.len", Count(r.shed_requests())),
            ("degraded_reads", Count(r.degraded_reads)),
            ("recoveries", Count(r.recoveries)),
            ("staleness_sum", Real(r.staleness_sum)),
            ("recovery_time_sum", Real(r.recovery_time_sum)),
            ("makespan", Real(r.makespan)),
            ("mean_read_latency", Real(r.mean_read_latency)),
            ("schedule.len", Count(r.schedule.len() as u64)),
            ("migrations", Count(r.migrations)),
            ("handoffs_committed", Count(r.handoffs_committed)),
            ("handoffs_aborted", Count(r.handoffs_aborted)),
            ("handoff_messages", Count(r.handoff_messages)),
            (
                "settled_handoff_messages",
                Count(r.settled_handoff_messages),
            ),
            (
                "aborted_handoff_messages",
                Count(r.aborted_handoff_messages),
            ),
            ("invalidation_messages", Count(r.invalidation_messages)),
            ("invalidation_rounds", Count(r.invalidation_rounds)),
            ("replicas_invalidated", Count(r.replicas_invalidated)),
            ("stale_reads", Count(r.stale_reads)),
            ("handoff_discards", Count(r.handoff_discards)),
        ]
    }
}

impl SweepReport {
    /// FNV-1a digest of the full cost ledger: every word that
    /// [`SweepReport::ledger_lines`] prints, in cell order. Two sweeps of
    /// the same grid must agree on this digest bit-for-bit whatever their
    /// thread counts; CI diffs it between `--threads 1` and `--threads 4`.
    pub fn ledger_digest(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for cell in &self.cells {
            for (_, word) in cell.ledger_words() {
                for byte in word.bits().to_le_bytes() {
                    hash ^= u64::from(byte);
                    hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
        }
        hash
    }

    /// One deterministic text line per cell — the human-diffable form of
    /// [`SweepReport::ledger_digest`]: the cell's policy, θ, model and
    /// replication, then every word the digest hashes as `name=value`.
    pub fn ledger_lines(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for cell in &self.cells {
            let _ = write!(
                out,
                "{} theta={} model={} rep={}",
                cell.policy, cell.theta, cell.model, cell.replication
            );
            for (name, word) in cell.ledger_words() {
                let _ = write!(out, " {name}={word}");
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_grid() -> SweepGrid {
        SweepGrid::new(0x5EED)
            .policies(vec![
                PolicySpec::St1,
                PolicySpec::SlidingWindow { k: 3 },
                PolicySpec::T2 { m: 2 },
            ])
            .and_then(|g| g.thetas(vec![0.2, 0.6]))
            .and_then(|g| g.models(vec![CostModel::Connection, CostModel::message(0.5)]))
            .and_then(|g| g.fault_plans(vec![None, Some(FaultPlan::new(0.05, 1.5, 0).unwrap())]))
            .and_then(|g| g.replications(2))
            .and_then(|g| g.requests(600))
            .unwrap()
    }

    #[test]
    fn derive_seed_is_stable_and_stream_separated() {
        // Golden values pin the derivation: changing it would silently
        // re-randomize every recorded sweep.
        let a = derive_seed(1, streams::WORKLOAD, 0);
        let b = derive_seed(1, streams::FAULT, 0);
        let c = derive_seed(1, streams::WORKLOAD, 1);
        let d = derive_seed(2, streams::WORKLOAD, 0);
        assert_eq!(a, derive_seed(1, streams::WORKLOAD, 0));
        assert!(a != b && a != c && a != d && b != c && b != d && c != d);
    }

    #[test]
    fn grid_counts() {
        let grid = small_grid();
        assert_eq!(grid.runs(), 3 * 2 * 2 * 2);
        assert_eq!(grid.cells(), grid.runs() * 2);
    }

    #[test]
    fn invalid_axes_are_typed_errors() {
        let grid = || SweepGrid::new(0);
        assert_eq!(
            grid().policies(vec![]).unwrap_err(),
            ConfigError::EmptyAxis { what: "policies" }
        );
        assert_eq!(
            grid()
                .policies(vec![PolicySpec::SlidingWindow { k: 2 }])
                .unwrap_err(),
            ConfigError::EvenWindow { k: 2 }
        );
        assert_eq!(
            grid().thetas(vec![0.2, 1.5]).unwrap_err(),
            ConfigError::Theta { value: 1.5 }
        );
        assert_eq!(
            grid().omegas(vec![-0.5]).unwrap_err(),
            ConfigError::Omega { value: -0.5 }
        );
        assert_eq!(
            grid().models(vec![]).unwrap_err(),
            ConfigError::EmptyAxis { what: "models" }
        );
        assert_eq!(
            grid().fault_plans(vec![]).unwrap_err(),
            ConfigError::EmptyAxis {
                what: "fault plans"
            }
        );
        assert_eq!(
            grid().arq_configs(vec![]).unwrap_err(),
            ConfigError::EmptyAxis {
                what: "ARQ configs"
            }
        );
        assert_eq!(
            grid().replications(0).unwrap_err(),
            ConfigError::ZeroCount {
                what: "replications"
            }
        );
        assert_eq!(
            grid().requests(0).unwrap_err(),
            ConfigError::ZeroCount { what: "requests" }
        );
        assert!(matches!(
            grid().latency(-1.0).unwrap_err(),
            ConfigError::Latency { .. }
        ));
    }

    #[test]
    fn policies_and_fault_plans_share_workload_seeds() {
        // Paired comparisons: the workload seed is a function of
        // (θ, replication) only, so cells that differ in policy or fault
        // plan replay the same arrival stream — and an inert fault plan is
        // indistinguishable from the fault-free baseline, counter for
        // counter.
        let report = small_grid().run_serial();
        let mut by_slot: std::collections::HashMap<(u64, usize), u64> =
            std::collections::HashMap::new();
        for cell in &report.cells {
            let slot = (cell.theta.to_bits(), cell.replication);
            let seed = *by_slot.entry(slot).or_insert(cell.workload_seed);
            assert_eq!(seed, cell.workload_seed, "slot {slot:?}");
        }
        assert_eq!(by_slot.len(), 2 * 2); // θ × replications

        let inert = FaultPlan::new(0.0, 1.0, 0).unwrap();
        let paired = SweepGrid::new(0xE17)
            .policies(vec![PolicySpec::SlidingWindow { k: 3 }])
            .and_then(|g| g.fault_plans(vec![None, Some(inert)]))
            .and_then(|g| g.requests(500))
            .unwrap()
            .run_serial();
        assert_eq!(
            paired.cells[0].report, paired.cells[1].report,
            "an inert plan must not perturb the paired baseline run"
        );
    }

    #[test]
    fn parallel_is_byte_identical_to_serial() {
        let grid = small_grid();
        let serial = grid.run_serial();
        for threads in [2, 3, 8] {
            for chunk in [0, 1, 5] {
                let parallel = grid.run(SweepOptions { threads, chunk });
                assert_eq!(serial, parallel, "threads={threads} chunk={chunk}");
                assert_eq!(serial.ledger_digest(), parallel.ledger_digest());
                assert_eq!(serial.ledger_lines(), parallel.ledger_lines());
            }
        }
    }

    #[test]
    fn omega_cells_share_their_run() {
        // The model axis is pricing-only: cells that differ only in ω must
        // carry identical simulation reports.
        let report = small_grid().run_serial();
        for pair in report.cells.chunks(2) {
            assert_eq!(pair[0].report, pair[1].report);
            assert!(pair[0].model != pair[1].model);
        }
    }

    fn arq_grid() -> SweepGrid {
        let lossy = ArqConfig::new(0.25, 0.5, 0)
            .and_then(|a| a.with_backoff(2.0, 0.25))
            .and_then(|a| a.with_retry_budget(6))
            .unwrap();
        SweepGrid::new(0xA6_0A)
            .policies(vec![PolicySpec::St1, PolicySpec::SlidingWindow { k: 3 }])
            .and_then(|g| g.thetas(vec![0.3]))
            .and_then(|g| g.arq_configs(vec![None, Some(lossy)]))
            .and_then(|g| g.replications(2))
            .and_then(|g| g.requests(500))
            .unwrap()
    }

    #[test]
    fn arq_axis_multiplies_runs_and_pairs_workloads() {
        let grid = arq_grid();
        // policies × θ × faults × ARQ configs × replications.
        #[allow(clippy::identity_op)]
        let expected_runs = 2 * 1 * 1 * 2 * 2;
        assert_eq!(grid.runs(), expected_runs);
        let report = grid.run_serial();
        // The transport axis is blind to the workload: paired cells replay
        // the same arrival stream, so the request schedule — which actions
        // serve which requests — is identical with and without ARQ; only
        // the wire traffic differs.
        for policy_index in 0..2 {
            for rep in 0..2 {
                let base = policy_index * 4 + rep;
                let bare = &report.cells[base];
                let arq = &report.cells[base + 2];
                assert_eq!((bare.arq_index, arq.arq_index), (0, 1));
                assert_eq!(bare.workload_seed, arq.workload_seed);
                assert_eq!(bare.report.schedule, arq.report.schedule);
                assert_eq!(bare.report.counts, arq.report.counts);
                assert!(arq.report.arq_acks > 0);
                assert_eq!(bare.report.arq_acks, 0);
            }
        }
        // Summary groups split by ARQ index and surface the new columns.
        assert_eq!(report.summary.entries.len(), 4);
        let lossy_entry = &report.summary.entries[1];
        assert_eq!(lossy_entry.arq_index, 1);
        assert!(lossy_entry.retransmissions > 0);
        assert!(lossy_entry.arq_acks > 0);
    }

    #[test]
    fn arq_cells_are_byte_identical_across_thread_counts() {
        // The E18 guarantee in miniature: a lossy-ARQ grid (timer events,
        // retransmissions, jitter draws) must still be byte-identical
        // between the serial path and any thread count.
        let grid = arq_grid();
        let serial = grid.run_serial();
        for threads in [2, 4] {
            let parallel = grid.run(SweepOptions { threads, chunk: 0 });
            assert_eq!(serial, parallel, "threads={threads}");
            assert_eq!(serial.ledger_digest(), parallel.ledger_digest());
            assert_eq!(serial.ledger_lines(), parallel.ledger_lines());
        }
    }

    #[test]
    fn arq_seeds_are_shared_across_policies_and_distinct_per_config() {
        let grid = arq_grid();
        let seed = |stream, run| {
            let at = grid.decode(run);
            let axis = match stream {
                streams::FAULT => at.fault,
                streams::ARQ => at.arq,
                _ => 0,
            };
            grid.stream_seed(stream, axis, grid.slot(at))
        };
        let arq_seed = |run| seed(streams::ARQ, run);
        // Runs: policy → θ → fault → arq → rep. Policy stride is 4.
        for run in 0..4 {
            assert_eq!(arq_seed(run), arq_seed(run + 4), "run {run}");
        }
        // Distinct ARQ index ⇒ distinct transport seed at equal slots.
        assert_ne!(arq_seed(0), arq_seed(2));
        // And the transport stream never collides with workload or fault.
        assert_ne!(arq_seed(0), seed(streams::WORKLOAD, 0));
        assert_ne!(arq_seed(0), seed(streams::FAULT, 0));
    }

    /// Asserts that every run of `report` equals the same run simulated
    /// alone on a fresh generator.
    fn assert_runs_equal_fresh_runs(grid: &SweepGrid, report: &SweepReport) {
        assert_eq!(report.cells.len(), grid.runs());
        for (run, cell) in report.cells.iter().enumerate() {
            let mut fresh = PoissonWorkload::from_theta(1.0, cell.theta, cell.workload_seed);
            let alone = Simulation::new(grid.config(grid.decode(run)))
                .run(&mut fresh, grid.requests_per_run());
            assert_eq!(alone, cell.report, "run {run}");
        }
    }

    #[test]
    fn runs_past_the_shared_prefix_equal_fresh_runs() {
        // A topology that migrates fast over a lossy backbone with a short
        // deadline sticks and sheds, so its runs read past the slot's
        // shared prefix and continue from their own clone of the
        // generator. Every run, the plain ones included, must equal the
        // same run simulated alone on a fresh generator.
        let sticky = TopologyConfig::new(3, 2.0, 0.2, 0)
            .and_then(|t| t.with_loss(0.5))
            .unwrap();
        let grid = SweepGrid::new(0x5EA1)
            .policies(vec![PolicySpec::St1, PolicySpec::SlidingWindow { k: 3 }])
            .and_then(|g| g.thetas(vec![0.3, 0.7]))
            .and_then(|g| g.topology_configs(vec![None, Some(sticky)]))
            .and_then(|g| g.replications(2))
            .and_then(|g| g.requests(400))
            .unwrap();
        assert_eq!(grid.shared_prefix(), 401);
        let report = grid.run_serial();
        let past = report
            .cells
            .iter()
            .filter(|c| c.report.shed_requests() > 0)
            .count();
        assert!(past > 0, "no run read past its shared prefix");
        assert_runs_equal_fresh_runs(&grid, &report);
    }

    #[test]
    fn runs_longer_than_the_capped_prefix_equal_fresh_runs() {
        // Four slots split the table, so each run reads past its slot's
        // quarter of it; on two workers.
        let grid = SweepGrid::new(0xCA9)
            .policies(vec![PolicySpec::St1, PolicySpec::SlidingWindow { k: 1 }])
            .and_then(|g| g.thetas(vec![0.4, 0.8]))
            .and_then(|g| g.replications(2))
            .and_then(|g| g.requests(SHARED_TABLE_CAP / 4 + 50))
            .unwrap();
        assert_eq!(grid.shared_prefix(), SHARED_TABLE_CAP / 4);
        let report = grid.run(SweepOptions {
            threads: 2,
            chunk: 0,
        });
        assert_runs_equal_fresh_runs(&grid, &report);
    }

    #[test]
    fn a_slot_with_one_run_shares_nothing() {
        let grid = SweepGrid::new(7)
            .policies(vec![PolicySpec::St2])
            .and_then(|g| g.thetas(vec![0.2, 0.6]))
            .and_then(|g| g.replications(2))
            .and_then(|g| g.requests(300))
            .unwrap();
        assert_eq!(grid.shared_prefix(), 0);
        assert_runs_equal_fresh_runs(&grid, &grid.run_serial());
    }

    #[test]
    fn the_shared_table_holds_at_most_a_mebibyte() {
        assert_eq!(
            SHARED_TABLE_CAP * std::mem::size_of::<crate::Arrival>(),
            1 << 20
        );
    }

    #[test]
    fn parallel_map_orders_results() {
        let out = parallel_map(103, 7, 4, |i| i * i);
        assert_eq!(out, (0..103).map(|i| i * i).collect::<Vec<_>>());
        let out = parallel_map(5, 0, 0, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
        assert!(parallel_map(0, 3, 1, |i| i).is_empty());
    }

    #[test]
    fn competitive_ratio_tracks_the_analytic_cost() {
        // Long fault-free runs must land near ratio 1 against Eq. 2–8.
        let report = SweepGrid::new(77)
            .policies(vec![PolicySpec::SlidingWindow { k: 5 }])
            .and_then(|g| g.thetas(vec![0.3]))
            .and_then(|g| g.replications(3))
            .and_then(|g| g.requests(20_000))
            .unwrap()
            .run_serial();
        let entry = &report.summary.entries[0];
        assert_eq!(entry.competitive_ratio.n, 3);
        assert!(
            (entry.competitive_ratio.mean - 1.0).abs() < 0.05,
            "ratio {}",
            entry.competitive_ratio.mean
        );
    }

    fn topology_grid() -> SweepGrid {
        let mobile = TopologyConfig::new(3, 0.4, 0.6, 0)
            .unwrap()
            .with_loss(0.2)
            .unwrap();
        SweepGrid::new(0x70_70)
            .policies(vec![PolicySpec::St1, PolicySpec::SlidingWindow { k: 3 }])
            .and_then(|g| g.thetas(vec![0.3]))
            .and_then(|g| g.topology_configs(vec![None, Some(mobile)]))
            .and_then(|g| g.replications(2))
            .and_then(|g| g.requests(500))
            .unwrap()
    }

    #[test]
    fn topology_axis_multiplies_runs_and_pairs_workloads() {
        let grid = topology_grid();
        // policies × θ × faults × ARQ × topologies × replications.
        #[allow(clippy::identity_op)]
        let expected_runs = 2 * 1 * 1 * 1 * 2 * 2;
        assert_eq!(grid.runs(), expected_runs);
        assert!(grid.topology_configs(vec![]).is_err());
        let grid = topology_grid();
        let report = grid.run_serial();
        // The topology axis is blind to the workload: paired cells replay
        // the same arrival stream; only mobility and its handoff traffic
        // differ.
        for policy_index in 0..2 {
            for rep in 0..2 {
                let base = policy_index * 4 + rep;
                let single = &report.cells[base];
                let multi = &report.cells[base + 2];
                assert_eq!((single.topology_index, multi.topology_index), (0, 1));
                assert_eq!(single.workload_seed, multi.workload_seed);
                assert_eq!(single.report.migrations, 0);
                assert!(multi.report.migrations > 0);
                assert!(multi.report.handoffs_committed > 0);
            }
        }
        // Summary groups split by topology index and surface the new
        // columns.
        assert_eq!(report.summary.entries.len(), 4);
        let mobile_entry = &report.summary.entries[1];
        assert_eq!(mobile_entry.topology_index, 1);
        assert!(mobile_entry.migrations > 0);
        assert!(mobile_entry.handoff_messages > 0);
        assert_eq!(report.summary.entries[0].handoff_messages, 0);
    }

    #[test]
    fn topology_cells_are_byte_identical_across_thread_counts() {
        // The E19 guarantee in miniature: a multi-cell grid with a lossy
        // backbone must stay byte-identical between the serial path and
        // any thread count.
        let grid = topology_grid();
        let serial = grid.run_serial();
        for threads in [2, 4] {
            let parallel = grid.run(SweepOptions { threads, chunk: 0 });
            assert_eq!(serial, parallel, "threads={threads}");
            assert_eq!(serial.ledger_digest(), parallel.ledger_digest());
            assert_eq!(serial.ledger_lines(), parallel.ledger_lines());
        }
    }

    #[test]
    fn inert_topology_cell_matches_the_none_cell() {
        // An inert mobility plan (zero migrations) must reproduce the
        // single-cell run exactly, counter for counter — the topology
        // layer is strictly opt-in.
        let inert = TopologyConfig::new(4, 0.0, 1.0, 7).unwrap();
        let report = SweepGrid::new(0xE19)
            .policies(vec![PolicySpec::SlidingWindow { k: 5 }])
            .and_then(|g| g.topology_configs(vec![None, Some(inert)]))
            .and_then(|g| g.requests(500))
            .unwrap()
            .run_serial();
        assert_eq!(report.cells.len(), 2);
        assert_eq!(
            report.cells[0].report, report.cells[1].report,
            "an inert topology must not perturb the paired single-cell run"
        );
        assert_eq!(
            report.cells[0].cost_per_request,
            report.cells[1].cost_per_request
        );
    }

    #[test]
    fn simultaneous_fault_resolution_order_is_pinned() {
        // Regression pin for the documented simultaneous-fault tie-break:
        // when an SC outage lands during an in-flight exchange at the same
        // instant as MC-crash bookkeeping, the network/SC side resolves
        // first (the outage tears the exchange off the wire) and only then
        // is the MC-side crash state applied — ordered by the event
        // queue's (time, actor-rank, seq) key. Any change to that order
        // shifts this ledger digest.
        let plan = FaultPlan::new(0.35, 1.2, 0)
            .and_then(|p| p.with_crashes(0.5, 0.5))
            .and_then(|p| p.with_sc_outages(0.5))
            .and_then(|p| p.with_duplication(0.2, 0.2))
            .unwrap();
        let report = SweepGrid::new(0xFA_01)
            .policies(vec![PolicySpec::SlidingWindow { k: 3 }, PolicySpec::St2])
            .and_then(|g| g.thetas(vec![0.4]))
            .and_then(|g| g.fault_plans(vec![Some(plan)]))
            .and_then(|g| g.replications(2))
            .and_then(|g| g.requests(1_500))
            .unwrap()
            .run_serial();
        let crashed: u64 = report.cells.iter().map(|c| c.report.mc_crashes).sum();
        let outages: u64 = report.cells.iter().map(|c| c.report.sc_outages).sum();
        assert!(crashed > 0 && outages > 0, "plan must exercise both faults");
        assert_eq!(report.ledger_digest(), 0x0ff8_4e7e_ee45_a9f4);
    }

    #[test]
    fn moments_match_the_two_pass_formulas() {
        let xs = [1.0, 4.0, 2.0, 8.0, 5.0];
        let mut m = Moments::default();
        for &x in &xs {
            m.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() as f64 - 1.0);
        assert!((m.mean - mean).abs() < 1e-12);
        assert!((m.variance() - var).abs() < 1e-12);
        assert!(m.stderr() > 0.0);
        assert_eq!(Moments::default().variance(), 0.0);
        assert_eq!(Moments::default().stderr(), 0.0);
    }

    /// The ledger's word under `name` on `line`, if the line prints one.
    fn ledger_word<'a>(line: &'a str, name: &str) -> Option<&'a str> {
        line.split(' ')
            .find_map(|word| word.strip_prefix(name)?.strip_prefix('='))
    }

    #[test]
    fn every_ledger_word_moves_the_digest_and_its_named_line() {
        use crate::sim::{ShedReason, ShedRequest};
        use mdr_core::Request;

        let grid = SweepGrid::new(0x1ED6)
            .policies(vec![PolicySpec::SlidingWindow { k: 3 }])
            .and_then(|g| g.thetas(vec![0.4]))
            .and_then(|g| g.fault_plans(vec![None, Some(FaultPlan::new(0.05, 1.5, 0)?)]))
            .and_then(|g| g.arq_configs(vec![None, Some(ArqConfig::new(0.25, 0.5, 0)?)]))
            .and_then(|g| {
                let mobile = TopologyConfig::new(3, 0.4, 0.6, 0)?.with_loss(0.2)?;
                g.topology_configs(vec![None, Some(mobile)])
            })
            .and_then(|g| g.requests(300))
            .unwrap();
        let base = grid.run_serial();
        let at = base
            .cells
            .iter()
            .position(|c| c.fault_index == 1 && c.arq_index == 1 && c.topology_index == 1)
            .unwrap();

        // Every report field, classified; no `..`, so a new field does not
        // compile here until it is perturbed below under its ledger name
        // or kept out of the ledger with a reason.
        let SimReport {
            // Hashed by its length (`schedule.len`); the served order itself
            // is kept out, and the `counts.*` totals it drives are in.
            schedule: _,
            counts: _,
            data_messages: _,
            control_messages: _,
            connections: _,
            makespan: _,
            mean_read_latency: _,
            queued_requests: _,
            retransmissions: _,
            settled_retransmissions: _,
            arq_acks: _,
            retry_escalations: _,
            // Hashed by its length (`shed.len`); when, what and why each
            // request was shed is kept out.
            shed: _,
            degraded_reads: _,
            staleness_sum: _,
            recovery_time_sum: _,
            recoveries: _,
            // Kept out: the monitor's own work, not an outcome of the run.
            invariant_checks: _,
            // Kept out: the loop's work, which a change that drops dead
            // timers may cut while every outcome holds.
            events_processed: _,
            handoffs: _,
            disconnects: _,
            mc_crashes: _,
            sc_outages: _,
            duplicated_deliveries: _,
            discarded_deliveries: _,
            aborted_messages: _,
            reconciliation_messages: _,
            reconciliations: _,
            migrations: _,
            handoffs_committed: _,
            handoffs_aborted: _,
            handoff_messages: _,
            settled_handoff_messages: _,
            aborted_handoff_messages: _,
            invalidation_messages: _,
            invalidation_rounds: _,
            replicas_invalidated: _,
            stale_reads: _,
            handoff_discards: _,
        } = &base.cells[at].report;

        type Perturb = fn(&mut CellReport);
        let perturbations: &[(&str, Perturb)] = &[
            ("seed", |c| c.workload_seed ^= 1),
            ("fault", |c| c.fault_index += 1),
            ("arq", |c| c.arq_index += 1),
            ("topo", |c| c.topology_index += 1),
            ("cost", |c| {
                c.cost_per_request = Some(c.cost_per_request.unwrap_or(0.0) + 1.0);
            }),
            ("counts.total", |c| c.report.counts.local_reads += 1),
            ("counts.data_messages", |c| {
                c.report.counts.propagated_writes += 1;
            }),
            ("counts.control_messages", |c| {
                c.report.counts.delete_request_writes += 1;
            }),
            ("counts.connections", |c| c.report.counts.remote_reads += 1),
            ("counts.allocations", |c| {
                c.report.counts.allocating_reads += 1;
            }),
            ("counts.deallocations", |c| {
                c.report.counts.deallocating_writes += 1;
            }),
            ("data_messages", |c| c.report.data_messages += 1),
            ("control_messages", |c| c.report.control_messages += 1),
            ("connections", |c| c.report.connections += 1),
            ("retransmissions", |c| c.report.retransmissions += 1),
            ("handoffs", |c| c.report.handoffs += 1),
            ("disconnects", |c| c.report.disconnects += 1),
            ("mc_crashes", |c| c.report.mc_crashes += 1),
            ("sc_outages", |c| c.report.sc_outages += 1),
            ("duplicated_deliveries", |c| {
                c.report.duplicated_deliveries += 1;
            }),
            ("discarded_deliveries", |c| {
                c.report.discarded_deliveries += 1;
            }),
            ("aborted_messages", |c| c.report.aborted_messages += 1),
            ("reconciliation_messages", |c| {
                c.report.reconciliation_messages += 1;
            }),
            ("reconciliations", |c| c.report.reconciliations += 1),
            ("queued_requests", |c| c.report.queued_requests += 1),
            ("settled_retransmissions", |c| {
                c.report.settled_retransmissions += 1;
            }),
            ("arq_acks", |c| c.report.arq_acks += 1),
            ("retry_escalations", |c| c.report.retry_escalations += 1),
            ("shed.len", |c| {
                c.report.shed.push(ShedRequest {
                    at: 0.0,
                    request: Request::Write,
                    reason: ShedReason::DegradedPartition,
                });
            }),
            ("degraded_reads", |c| c.report.degraded_reads += 1),
            ("recoveries", |c| c.report.recoveries += 1),
            ("staleness_sum", |c| c.report.staleness_sum += 1.0),
            ("recovery_time_sum", |c| c.report.recovery_time_sum += 1.0),
            ("makespan", |c| c.report.makespan += 1.0),
            ("mean_read_latency", |c| c.report.mean_read_latency += 1.0),
            ("schedule.len", |c| c.report.schedule.push(Request::Read)),
            ("migrations", |c| c.report.migrations += 1),
            ("handoffs_committed", |c| c.report.handoffs_committed += 1),
            ("handoffs_aborted", |c| c.report.handoffs_aborted += 1),
            ("handoff_messages", |c| c.report.handoff_messages += 1),
            ("settled_handoff_messages", |c| {
                c.report.settled_handoff_messages += 1;
            }),
            ("aborted_handoff_messages", |c| {
                c.report.aborted_handoff_messages += 1;
            }),
            ("invalidation_messages", |c| {
                c.report.invalidation_messages += 1;
            }),
            ("invalidation_rounds", |c| c.report.invalidation_rounds += 1),
            ("replicas_invalidated", |c| {
                c.report.replicas_invalidated += 1;
            }),
            ("stale_reads", |c| c.report.stale_reads += 1),
            ("handoff_discards", |c| c.report.handoff_discards += 1),
        ];

        let digest = base.ledger_digest();
        let lines = base.ledger_lines();
        let line = lines.lines().nth(at).unwrap();
        // The line prints the cell's identity, then exactly the perturbed
        // words, in hash order.
        let printed: Vec<&str> = line
            .split(' ')
            .skip_while(|word| !word.starts_with("rep="))
            .skip(1)
            .map(|word| word.split_once('=').unwrap().0)
            .collect();
        let perturbed: Vec<&str> = perturbations.iter().map(|(name, _)| *name).collect();
        assert_eq!(printed, perturbed);
        assert_eq!(perturbed.len(), LEDGER_WORDS);

        for (name, perturb) in perturbations {
            let mut moved = base.clone();
            perturb(&mut moved.cells[at]);
            assert_ne!(
                moved.ledger_digest(),
                digest,
                "{name} leaves the digest as it was"
            );
            let moved_lines = moved.ledger_lines();
            let moved_line = moved_lines.lines().nth(at).unwrap();
            assert_ne!(
                ledger_word(moved_line, name),
                ledger_word(line, name),
                "{name} leaves its word on the line as it was"
            );
        }
    }
}
