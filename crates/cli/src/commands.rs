//! The `mdr` subcommands. Each returns its report as a `String` so the
//! logic is unit-testable without capturing stdout.

use crate::parse::{parse_fsync, parse_model, parse_policy, Args, CliError};
use mdr_adversary::{cycle_ratio, exhaustive_search, generators, measure};
use mdr_analysis::dominance::{connection_winner, message_winner, Winner};
use mdr_analysis::window_choice::{min_beneficial_k, recommend_k};
use mdr_analysis::{average_expected_cost, competitive_factor, expected_cost};
use mdr_bench::sweep::{e17_fault_plan, e18_arq, preset, summary_table};
use mdr_bench::{BenchSnapshot, RunCfg};
use mdr_core::{trace_policy, CostModel, PolicySpec, Schedule};
use mdr_sim::engine::{run_serve_bench, serve_bench_lines, ServeConfig, ServeEngine};
use mdr_sim::perf::Stopwatch;
use mdr_sim::sweep::{SweepGrid, SweepOptions};
use mdr_sim::{
    ArqConfig, ConfigError, DurableServe, FaultPlan, JournalConfig, PoissonWorkload, SimBuilder,
    TopologyConfig,
};
use std::fmt::Write as _;

fn err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(msg.into()))
}

/// `mdr analyze --policy SW9 --model message:0.4 [--theta 0.3]`
fn analyze(args: &Args) -> Result<String, CliError> {
    let spec = parse_policy(args.required("policy")?)?;
    let model = parse_model(args.get_or("model", "connection"))?;
    let mut out = String::new();
    let _ = writeln!(out, "policy: {spec}   model: {model}");
    if let Some(theta) = args.flags.get("theta") {
        let theta: f64 = theta
            .parse()
            .map_err(|_| CliError(format!("invalid θ {theta:?}")))?;
        if !(0.0..=1.0).contains(&theta) {
            return err("θ must lie in [0, 1]");
        }
        let _ = writeln!(
            out,
            "expected cost per request at θ = {theta}: {:.6}",
            expected_cost(spec, model, theta)
        );
    }
    let _ = writeln!(
        out,
        "average expected cost (θ uniform): {:.6}",
        average_expected_cost(spec, model)
    );
    match competitive_factor(spec, model) {
        Some(c) => {
            let _ = writeln!(out, "competitiveness: {c:.4}-competitive");
        }
        None => {
            let _ = writeln!(
                out,
                "competitiveness: NOT competitive (worst case unbounded)"
            );
        }
    }
    Ok(out)
}

/// `mdr recommend --omega 0.4 [--theta 0.3] [--slack 0.10]`
fn recommend(args: &Args) -> Result<String, CliError> {
    let omega: f64 = args.number("omega", -1.0)?;
    let mut out = String::new();
    match args.flags.get("theta") {
        Some(theta) => {
            let theta: f64 = theta
                .parse()
                .map_err(|_| CliError(format!("invalid θ {theta:?}")))?;
            // Fixed, known θ: the dominance maps.
            if omega >= 0.0 {
                let w = message_winner(theta, omega);
                let _ = writeln!(
                    out,
                    "message model (ω = {omega}), θ = {theta} fixed: run {} \
                     (Figure 1 region; EXP = {:.4})",
                    name(w),
                    expected_cost(w.spec(), CostModel::message(omega), theta)
                );
            }
            let w = connection_winner(theta);
            let _ = writeln!(
                out,
                "connection model, θ = {theta} fixed: run {} (EXP = {:.4})",
                name(w),
                expected_cost(w.spec(), CostModel::Connection, theta)
            );
        }
        None => {
            // Drifting θ: the §9 guidance.
            let slack: f64 = args.number("slack", 0.10)?;
            let rec = recommend_k(slack);
            let _ = writeln!(
                out,
                "connection model, θ drifting: run SW{} \
                 (AVG within {:.1}% of the optimum, {}-competitive)",
                rec.k,
                rec.avg_excess * 100.0,
                rec.competitive_factor
            );
            if omega >= 0.0 {
                match min_beneficial_k(omega) {
                    None => {
                        let _ = writeln!(
                            out,
                            "message model (ω = {omega}), θ drifting: run SW1 \
                             (ω ≤ 0.4: best AVG of all windows, Corollary 3)"
                        );
                    }
                    Some(k0) => {
                        let _ = writeln!(
                            out,
                            "message model (ω = {omega}), θ drifting: run SWk with k ≥ {k0} \
                             (Corollary 4 threshold)"
                        );
                    }
                }
            }
        }
    }
    Ok(out)
}

/// `mdr simulate --policy SW9 --theta 0.3`: the protocol on a Poisson
/// workload, with the fault, ARQ and topology layers its flags (see
/// [`COMMANDS`]) turn on.
fn simulate(args: &Args) -> Result<String, CliError> {
    let spec = parse_policy(args.required("policy")?)?;
    let theta: f64 = args.number("theta", 0.5)?;
    if !(0.0..=1.0).contains(&theta) {
        return err("θ must lie in [0, 1]");
    }
    let requests: usize = args.number("requests", 50_000)?;
    let seed: u64 = args.number("seed", 42)?;
    let latency: f64 = args.number("latency", 0.01)?;
    let omega: f64 = args.number("omega", 0.5)?;
    let fault_rate: f64 = args.number("faults", 0.0)?;
    let mut builder = SimBuilder::new(spec).and_then(|b| b.latency(latency))?;
    if fault_rate > 0.0 {
        let outage: f64 = args.number("outage", 2.0)?;
        let crash: f64 = args.number("crash-prob", 0.3)?;
        let volatile: f64 = args.number("volatile-prob", 0.5)?;
        let plan = FaultPlan::new(fault_rate, outage, seed ^ 0xFA17)
            .and_then(|p| p.with_crashes(crash, volatile))?;
        builder = builder.faults(plan)?;
    }
    let arq_on = args.flags.contains_key("arq-loss");
    if arq_on {
        let arq_loss: f64 = args.number("arq-loss", 0.0)?;
        let timeout: f64 = args.number("arq-timeout", 0.2)?;
        let budget: u32 = args.number("arq-budget", 8)?;
        let backoff: f64 = args.number("arq-backoff", 2.0)?;
        let jitter: f64 = args.number("arq-jitter", 0.25)?;
        let mut arq = ArqConfig::new(arq_loss, timeout, seed ^ 0xA6)
            .and_then(|a| a.with_backoff(backoff, jitter))
            .and_then(|a| a.with_retry_budget(budget))?;
        if args.flags.contains_key("arq-deadline") {
            let deadline: f64 = args.number("arq-deadline", 0.0)?;
            arq = arq.with_degrade_deadline(deadline)?;
        }
        builder = builder.arq(arq)?;
    }
    let cells: usize = args.number("cells", 1)?;
    if cells > 1 {
        let mobility: f64 = args.number("mobility", 0.5)?;
        let deadline: f64 = args.number("handoff-deadline", 1.0)?;
        let handoff_loss: f64 = args.number("handoff-loss", 0.0)?;
        let mut topology = TopologyConfig::new(cells, mobility, deadline, seed ^ 0x70)
            .and_then(|t| t.with_loss(handoff_loss))?;
        if args.get_or("broadcast-inv", "off") == "on" {
            topology = topology.with_broadcast_invalidation();
        }
        builder = builder.topology(topology)?;
    }
    let mut sim = builder.simulation();
    let mut workload = PoissonWorkload::from_theta(1.0, theta, seed);
    let report = sim.run(&mut workload, requests);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "policy {spec} on {requests} Poisson requests (θ = {theta}, seed {seed})"
    );
    let _ = writeln!(
        out,
        "  connections: {}   data messages: {}   control messages: {}",
        report.connections, report.data_messages, report.control_messages
    );
    let _ = writeln!(
        out,
        "  cost/request: {:.4} (connection model), {:.4} (message model, ω = {omega})",
        report.cost_per_request(CostModel::Connection),
        report.cost_per_request(CostModel::message(omega)),
    );
    let _ = writeln!(
        out,
        "  replica: {} allocations, {} deallocations; mean read latency {:.4}; {} queued",
        report.counts.allocations(),
        report.counts.deallocations(),
        report.mean_read_latency,
        report.queued_requests
    );
    if fault_rate > 0.0 {
        let _ = writeln!(
            out,
            "  faults: {} disconnects ({} MC crashes), {} reconciliations",
            report.disconnects, report.mc_crashes, report.reconciliations
        );
        let _ = writeln!(
            out,
            "  recovery bill: {} aborted + {} handshake messages; {} stale deliveries discarded",
            report.aborted_messages, report.reconciliation_messages, report.discarded_deliveries
        );
    }
    if arq_on {
        let _ = writeln!(
            out,
            "  arq: {} retransmissions ({} settled), {} acks billed, {} retry escalations",
            report.retransmissions,
            report.settled_retransmissions,
            report.arq_acks,
            report.retry_escalations
        );
        let opt = |v: Option<f64>| v.map_or_else(|| "n/a".to_owned(), |x| format!("{x:.4}"));
        let _ = writeln!(
            out,
            "  degradation: {} shed, {} degraded reads; MTTR {}; mean staleness {}",
            report.shed_requests(),
            report.degraded_reads,
            opt(report.mean_time_to_recovery()),
            opt(report.mean_staleness())
        );
    }
    if cells > 1 {
        let _ = writeln!(
            out,
            "  mobility: {} migrations, {} handoffs committed, {} aborted, {} legs billed ({} stale-fence discards)",
            report.migrations,
            report.handoffs_committed,
            report.handoffs_aborted,
            report.handoff_messages,
            report.handoff_discards
        );
        let _ = writeln!(
            out,
            "  invalidation: {} messages over {} rounds ({} replicas dropped); {} stale reads served",
            report.invalidation_messages,
            report.invalidation_rounds,
            report.replicas_invalidated,
            report.stale_reads
        );
    }
    let _ = writeln!(
        out,
        "  theory: EXP = {:.4} (connection), {:.4} (message ω = {omega})",
        expected_cost(spec, CostModel::Connection, theta),
        expected_cost(spec, CostModel::message(omega), theta),
    );
    Ok(out)
}

fn parse_f64_list(raw: &str, what: &str) -> Result<Vec<f64>, CliError> {
    raw.split(',')
        .map(|x| {
            x.trim()
                .parse::<f64>()
                .map_err(|_| CliError(format!("invalid {what} {x:?}")))
        })
        .collect()
}

/// `mdr sweep --preset e17` (flags in [`COMMANDS`])
///
/// Stdout is deterministic: the same grid prints the same bytes at any
/// `--threads`, which is exactly what the CI determinism job diffs.
/// Timing goes to stderr so it never perturbs the diff.
fn sweep(args: &Args) -> Result<String, CliError> {
    let cfg = RunCfg {
        fast: args.get_or("full", "off") == "off",
    };
    let grid = match args.flags.get("preset") {
        Some(name) => {
            let Some(grid) = preset(name, cfg) else {
                return err(format!(
                    "unknown preset {name:?}; expected e6, e17, e18 or e19"
                ));
            };
            // Presets fix their axes; only the run sizes stay adjustable.
            grid
        }
        None => {
            let seed: u64 = args.number("seed", 0x5EED)?;
            let mut grid = SweepGrid::new(seed);
            if let Some(raw) = args.flags.get("policies") {
                let policies = raw
                    .split(',')
                    .map(|p| parse_policy(p.trim()))
                    .collect::<Result<Vec<_>, _>>()?;
                grid = grid.policies(policies)?;
            }
            if let Some(raw) = args.flags.get("thetas") {
                grid = grid.thetas(parse_f64_list(raw, "θ")?)?;
            }
            if let Some(raw) = args.flags.get("models") {
                let models = raw
                    .split(',')
                    .map(|m| parse_model(m.trim()))
                    .collect::<Result<Vec<_>, _>>()?;
                grid = grid.models(models)?;
            }
            if let Some(raw) = args.flags.get("omegas") {
                grid = grid.omegas(parse_f64_list(raw, "ω")?)?;
            }
            if let Some(raw) = args.flags.get("fault-rates") {
                // Each rate installs the E17 fault mix; rate 0 is the
                // inert plan, and a no-plan baseline is always first.
                let mut plans = vec![None];
                for rate in parse_f64_list(raw, "fault rate")? {
                    if !(0.0..1.0).contains(&rate) {
                        return err(format!("fault rate must lie in [0, 1), got {rate}"));
                    }
                    plans.push(Some(e17_fault_plan(rate)));
                }
                grid = grid.fault_plans(plans)?;
            }
            if let Some(raw) = args.flags.get("arq-losses") {
                // Each loss rate installs the E18 transport point
                // (budget 8, backoff 2, base timeout 0.2); a perfect-link
                // baseline is always first.
                let mut configs = vec![None];
                for loss in parse_f64_list(raw, "ARQ loss rate")? {
                    if !(0.0..1.0).contains(&loss) {
                        return err(format!("ARQ loss rate must lie in [0, 1), got {loss}"));
                    }
                    configs.push(Some(e18_arq(loss, 8, 2.0)));
                }
                grid = grid.arq_configs(configs)?;
            }
            if let Some(latency) = args.flags.get("latency") {
                let latency: f64 = latency
                    .parse()
                    .map_err(|_| CliError(format!("invalid latency {latency:?}")))?;
                grid = grid.latency(latency)?;
            }
            grid = grid.oracle(args.get_or("oracle", "off") == "on")?;
            grid
        }
    };
    let grid = run_sizes(args, grid)?;

    let options = SweepOptions {
        threads: args.number("threads", 0)?,
        chunk: args.number("chunk", 0)?,
    };
    let started = std::time::Instant::now();
    let report = grid.run(options);
    // Timing is scheduling noise — keep it off the deterministic stdout.
    eprintln!(
        "swept {} runs ({} cells) in {:.2?}",
        grid.runs(),
        grid.cells(),
        started.elapsed()
    );

    let mut out = String::new();
    match args.get_or("format", "table") {
        "table" => {
            let _ = writeln!(
                out,
                "sweep seed {:#x}: {} runs, {} cells",
                report.seed,
                grid.runs(),
                grid.cells()
            );
            let _ = write!(
                out,
                "{}",
                summary_table(
                    "summary (policy × θ × fault × arq × model)",
                    &report.summary
                )
                .render()
            );
            let _ = writeln!(out, "ledger digest: {:#018x}", report.ledger_digest());
        }
        "ledger" => {
            let _ = write!(out, "{}", report.ledger_lines());
            let _ = writeln!(out, "ledger digest: {:#018x}", report.ledger_digest());
        }
        "json" => {
            let summary = serde_json::to_string_pretty(&report.summary)
                .map_err(|e| CliError(format!("summary serialization failed: {e}")))?;
            let _ = writeln!(
                out,
                "{{\n\"seed\": {},\n\"digest\": \"{:#018x}\",\n\"summary\": {summary}\n}}",
                report.seed,
                report.ledger_digest()
            );
        }
        other => {
            return err(format!(
                "unknown format {other:?}; expected table, ledger or json"
            ))
        }
    }
    Ok(out)
}

/// Applies the `--replications` and `--requests` overrides that `sweep`
/// and `bench` accept: run sizes stay adjustable even on presets.
fn run_sizes(args: &Args, grid: SweepGrid) -> Result<SweepGrid, CliError> {
    let count = |flag: &str, what: &str| -> Result<Option<usize>, CliError> {
        let parse = |v: &String| {
            v.parse()
                .map_err(|_| CliError(format!("invalid {what} count {v:?}")))
        };
        args.flags.get(flag).map(parse).transpose()
    };
    let grid = match count("replications", "replication")? {
        Some(r) => grid.replications(r)?,
        None => grid,
    };
    Ok(match count("requests", "request")? {
        Some(n) => grid.requests(n)?,
        None => grid,
    })
}

/// `mdr bench --preset e17` (flags in [`COMMANDS`])
///
/// Measures a preset sweep with the typed perf API
/// ([`SweepGrid::run_timed`]) and renders a [`BenchSnapshot`]: events
/// processed, wall time, requests/sec, and the deterministic ledger digest.
/// With `--write-baseline on` the snapshot is written to the baseline
/// path (default `BENCH_<preset>.json`); otherwise, when the baseline
/// file exists, the measurement is gated against it — a throughput drop
/// beyond `--gate-pct` percent, or *any* ledger-digest drift, is an
/// error (non-zero exit), which is what the CI perf-gate job runs.
fn bench(args: &Args) -> Result<String, CliError> {
    let Some(preset_name) = args.flags.get("preset") else {
        return err("bench requires --preset e6|e17|e18|e19|serve");
    };
    if preset_name == "serve" {
        return bench_serve(args);
    }
    let cfg = RunCfg {
        fast: args.get_or("full", "off") == "off",
    };
    let Some(grid) = preset(preset_name, cfg) else {
        return err(format!(
            "unknown preset {preset_name:?}; expected e6, e17, e18, e19 or serve"
        ));
    };
    let grid = run_sizes(args, grid)?;
    let options = SweepOptions {
        threads: args.number("threads", 0)?,
        chunk: args.number("chunk", 0)?,
    };
    render_bench(args, || {
        let (report, stats) = grid.run_timed(options);
        Ok(BenchSnapshot::new(
            preset_name,
            cfg.fast,
            grid.requests_per_run(),
            grid.runs(),
            stats,
            report.ledger_digest(),
        ))
    })
}

/// `mdr bench --preset serve [--tenants N] [--requests R] [--seed S]`
///
/// The serving-layer benchmark: a deterministic multi-tenant session
/// (mixed policy roster, per-tenant write fractions fanned across (0, 1))
/// is pushed through [`ServeEngine::handle_line`] — the exact path `mdr
/// serve` runs — and timed end to end, JSON parse to JSON print. The
/// snapshot's requests/sec is therefore *decisions per second*, and its
/// digest is the FNV-1a hash of every response byte, so the committed
/// `BENCH_serve.json` pins the wire behaviour bit-for-bit: any drift
/// fails the gate at any speed.
fn bench_serve(args: &Args) -> Result<String, CliError> {
    let fast = args.get_or("full", "off") == "off";
    let tenants: usize = args.number("tenants", 8)?;
    let per_tenant: usize = args.number("requests", if fast { 5_000 } else { 50_000 })?;
    let seed: u64 = args.number("seed", 1994)?;
    if tenants == 0 || per_tenant == 0 {
        return err("--tenants and --requests must be at least 1");
    }
    // Workload synthesis is untimed: the clock covers only the serve path.
    let lines = serve_bench_lines(tenants, per_tenant, seed);
    render_bench(args, || {
        let watch = Stopwatch::start();
        let report = run_serve_bench(&lines, ServeConfig::default())?;
        let stats = watch.stats(report.decisions);
        let snapshot = BenchSnapshot::new("serve", fast, per_tenant, tenants, stats, report.digest);
        Ok(snapshot)
    })
}

/// How many passes `--write-baseline on` measures: one pass on a busy
/// host can read twice as fast or slow as the next.
const BASELINE_PASSES: usize = 7;

/// The pass of median throughput among `passes` (at least one), or an
/// error when they disagree on the ledger digest or the event count.
fn median_pass(mut passes: Vec<BenchSnapshot>) -> Result<BenchSnapshot, CliError> {
    let key = |p: &BenchSnapshot| (p.events, p.ledger_digest.clone());
    if passes.windows(2).any(|w| key(&w[0]) != key(&w[1])) {
        return err("baseline passes disagree on the ledger digest or the event count");
    }
    passes.sort_by(|a, b| a.requests_per_sec.total_cmp(&b.requests_per_sec));
    Ok(passes.swap_remove(passes.len() / 2))
}

/// Measures a [`BenchSnapshot`] with `pass`, renders it and applies the
/// baseline write/gate protocol shared by the sweep and serve benchmarks:
/// with `--write-baseline on` the median of [`BASELINE_PASSES`] passes is
/// written to the baseline path (default `BENCH_<preset>.json`);
/// otherwise an existing baseline gates one pass — throughput drops
/// beyond `--gate-pct`, or *any* digest drift, are errors.
fn render_bench(
    args: &Args,
    mut pass: impl FnMut() -> Result<BenchSnapshot, CliError>,
) -> Result<String, CliError> {
    let gate_pct: f64 = match args.flags.get("gate-pct") {
        Some(p) => p
            .parse()
            .map_err(|_| CliError(format!("invalid gate percentage {p:?}")))?,
        None => 10.0,
    };
    if !(0.0..100.0).contains(&gate_pct) {
        return err(format!(
            "gate percentage must lie in [0, 100), got {gate_pct}"
        ));
    }
    let write_baseline = args.get_or("write-baseline", "off") == "on";
    let passes = if write_baseline { BASELINE_PASSES } else { 1 };
    let snapshot = median_pass((0..passes).map(|_| pass()).collect::<Result<_, _>>()?)?;
    let baseline_path = match args.get_or("baseline", "") {
        "" => format!("BENCH_{}.json", snapshot.preset),
        path => path.to_owned(),
    };

    let mut out = String::new();
    match args.get_or("format", "table") {
        "table" => {
            let _ = writeln!(
                out,
                "bench {}/{}: {} runs x {} requests",
                snapshot.preset, snapshot.mode, snapshot.runs, snapshot.requests
            );
            let _ = writeln!(
                out,
                "events {}   wall {:.2} ms   throughput {:.0} requests/sec",
                snapshot.events,
                snapshot.wall_nanos as f64 / 1e6,
                snapshot.requests_per_sec
            );
            let _ = writeln!(out, "ledger digest: {}", snapshot.ledger_digest);
        }
        "json" => {
            let _ = write!(out, "{}", snapshot.to_json());
        }
        other => {
            return err(format!("unknown format {other:?}; expected table or json"));
        }
    }

    if write_baseline {
        std::fs::write(&baseline_path, snapshot.to_json())
            .map_err(|e| CliError(format!("cannot write baseline {baseline_path:?}: {e}")))?;
        let _ = writeln!(out, "baseline written: {baseline_path}");
        return Ok(out);
    }
    let explicit = args.flags.contains_key("baseline");
    match std::fs::read_to_string(&baseline_path) {
        Ok(text) => {
            let baseline = BenchSnapshot::parse(&text)
                .map_err(|e| CliError(format!("baseline {baseline_path:?}: {e}")))?;
            // The committed baseline is gated only at its own workload: a
            // pass of another size has nothing to compare against.
            if !explicit && !snapshot.same_workload(&baseline) {
                let _ = writeln!(
                    out,
                    "gate skipped: {baseline_path} measured {} requests x {} runs, this pass {} \
                     requests x {} runs (name it with --baseline to gate anyway)",
                    baseline.requests, baseline.runs, snapshot.requests, snapshot.runs
                );
                return Ok(out);
            }
            let verdict = snapshot.compare(&baseline, gate_pct);
            let _ = writeln!(out, "gate vs {baseline_path}: {}", verdict.render());
            if !verdict.passed() {
                // The rendered measurement still matters on failure:
                // print it before erroring so CI logs show the numbers.
                print!("{out}");
                return err(format!("perf gate failed: {}", verdict.render()));
            }
        }
        Err(_) if explicit => {
            return err(format!("cannot read baseline {baseline_path:?}"));
        }
        Err(_) => {
            let _ = writeln!(
                out,
                "no baseline at {baseline_path} (write one with --write-baseline on)"
            );
        }
    }
    Ok(out)
}

/// Builds the [`ServeConfig`] for `mdr serve` from its flags.
fn serve_config(args: &Args) -> Result<ServeConfig, CliError> {
    let mut config = ServeConfig::default();
    config.max_tenants = args.number("max-tenants", config.max_tenants)?;
    if config.max_tenants == 0 {
        return err("--max-tenants must be at least 1");
    }
    if let Some(budget) = args.flags.get("budget") {
        let budget: u64 = budget
            .parse()
            .map_err(|_| CliError(format!("invalid decision budget {budget:?}")))?;
        config.decision_budget = Some(budget);
    }
    if let Some(policy) = args.flags.get("policy") {
        config.default_policy = parse_policy(policy)?;
    }
    if let Some(model) = args.flags.get("model") {
        config.default_model = parse_model(model)?;
    }
    config.adaptive = args.get_or("adaptive", "off") == "on";
    Ok(config)
}

/// `mdr serve` (flags in [`COMMANDS`])
///
/// The long-running decision daemon: newline-JSON requests on stdin, one
/// JSON response per line on stdout, no async runtime — just a read loop
/// over a [`ServeEngine`]. Every line gets exactly one response (malformed
/// input becomes a typed error, admission refusals a typed shed); the
/// loop ends at EOF or after a `{"op":"shutdown"}` request. `--policy`
/// and `--model` set the defaults for tenants that do not name their own;
/// the built-in default is the competitive-safe T1(2) under the
/// connection model.
///
/// With `--data-dir`, the daemon is crash-safe: every acknowledged state
/// change is journaled to a per-tenant write-ahead log before the
/// response is produced, checkpoints compact the journals, and a restart
/// on the same directory recovers every tenant (replaying the journal
/// tail, truncating torn records, quarantining — never crashing on —
/// unrecoverable tenants). Shutdown and end-of-input both flush a final
/// checkpoint. The recovery summary goes to stderr; stdout carries only
/// the wire protocol.
fn serve(args: &Args) -> Result<String, CliError> {
    let config = serve_config(args)?;
    match args.flags.get("data-dir") {
        Some(dir) => serve_durable(args, config, &dir.clone()),
        None => {
            for flag in ["fsync", "checkpoint-every"] {
                if args.flags.contains_key(flag) {
                    return err(format!("--{flag} requires --data-dir"));
                }
            }
            let mut engine = ServeEngine::new(config)?;
            serve_loop(
                &mut engine,
                std::io::stdin().lock(),
                std::io::stdout().lock(),
            )
        }
    }
}

/// What the serve read loop needs from a daemon backend: the in-memory
/// engine and the durable wrapper both qualify.
trait LineServer {
    fn handle_line(&mut self, line: &str) -> String;
    fn is_done(&self) -> bool;
    /// Runs when stdin ends without a `shutdown` op.
    fn at_eof(&mut self) {}
}

impl LineServer for ServeEngine {
    fn handle_line(&mut self, line: &str) -> String {
        ServeEngine::handle_line(self, line)
    }
    fn is_done(&self) -> bool {
        ServeEngine::is_done(self)
    }
}

impl LineServer for DurableServe {
    fn handle_line(&mut self, line: &str) -> String {
        DurableServe::handle_line(self, line)
    }
    fn is_done(&self) -> bool {
        DurableServe::is_done(self)
    }
    fn at_eof(&mut self) {
        // End-of-input flushes like a shutdown: final checkpoint,
        // compacted journal, everything fsynced.
        self.finalize();
    }
}

/// The durable variant of the serve loop: recover, report to stderr,
/// then serve with the journal in the write path.
fn serve_durable(args: &Args, config: ServeConfig, dir: &str) -> Result<String, CliError> {
    let mut journal = JournalConfig::new(dir);
    if let Some(fsync) = args.flags.get("fsync") {
        journal.fsync = parse_fsync(fsync)?;
    }
    journal.checkpoint_every = args.number("checkpoint-every", journal.checkpoint_every)?;
    let watch = Stopwatch::start();
    let (mut serve, report) = DurableServe::open(config, journal)?;
    let recovery = watch.stats(report.tenants.len() as u64);
    let stats = serve.stats();
    eprintln!(
        "recovery: {} tenant(s) recovered, {} record(s) replayed, {} byte(s) truncated, \
         {} quarantined in {:.1} ms",
        stats.recovered_tenants,
        stats.replayed_records,
        stats.truncated_bytes,
        stats.quarantined_tenants,
        recovery.wall_nanos as f64 / 1e6,
    );
    for (name, outcome) in &report.tenants {
        if let mdr_sim::TenantRecovery::Quarantined { error } = outcome {
            eprintln!("quarantined tenant {name:?}: {error}");
        }
    }
    for dir_name in &report.skipped_dirs {
        eprintln!("skipped stray directory {dir_name:?} under tenants/");
    }
    serve_loop(
        &mut serve,
        std::io::stdin().lock(),
        std::io::stdout().lock(),
    )
}

/// The shared read loop over either serve backend, from `input` to
/// `output`. Lines are read as bytes, so a line that is not UTF-8 gets a
/// `bad-request` answer like any other malformed line rather than ending
/// the daemon.
///
/// Answers go out in at most two writes per read, not one per line. Each
/// time the loop refills its input buffer it counts the complete lines
/// buffered, B. It writes the answers to the first ⌈B/2⌉ together as
/// soon as the last of them is ready, and the rest before the next
/// refill, which could block. While it answers the second half, a
/// pipelining client reads the first and sends more, so the next refill
/// finds input waiting. A client that sends one line and waits sees
/// B = 1 and gets each answer at once. A `shutdown` answer is written at
/// once and ends the loop.
fn serve_loop(
    server: &mut impl LineServer,
    input: impl std::io::Read,
    mut output: impl std::io::Write,
) -> Result<String, CliError> {
    use std::io::BufRead as _;
    let mut input = std::io::BufReader::new(input);
    // The line being assembled and the answers not yet written.
    let (mut raw, mut held) = (Vec::new(), Vec::new());
    // Complete lines left in the first half of the current read.
    let mut first_half = 0usize;
    let mut shut_down = false;
    loop {
        if input.buffer().is_empty() {
            // The refill may block: hold no answer across it.
            write_answers(&mut output, &mut held)?;
            let fresh = refill(&mut input)?;
            if fresh.is_empty() {
                // End of input: an unterminated last line is still a line.
                if !raw.is_empty() {
                    answer_line(server, &raw, &mut held)?;
                    shut_down = server.is_done();
                }
                break;
            }
            first_half = fresh.iter().filter(|&&b| b == b'\n').count().div_ceil(2);
        }
        let buffered = input.buffer();
        let taken = buffered
            .iter()
            .position(|&b| b == b'\n')
            .map_or(buffered.len(), |at| at + 1);
        raw.extend_from_slice(&buffered[..taken]);
        input.consume(taken);
        if raw.last() != Some(&b'\n') {
            // A partial line: the rest comes with the next refill.
            continue;
        }
        answer_line(server, &raw, &mut held)?;
        raw.clear();
        if server.is_done() {
            shut_down = true;
            break;
        }
        if first_half > 0 {
            first_half -= 1;
            if first_half == 0 {
                write_answers(&mut output, &mut held)?;
            }
        }
    }
    write_answers(&mut output, &mut held)?;
    if !shut_down {
        server.at_eof();
    }
    // Responses were streamed in-loop; nothing is left to print.
    Ok(String::new())
}

/// Refills `input`'s empty buffer and returns it, empty at end of input.
/// A read that a signal interrupts is retried, as `BufRead::read_until`
/// does.
fn refill<R: std::io::Read>(input: &mut std::io::BufReader<R>) -> Result<&[u8], CliError> {
    use std::io::BufRead as _;
    loop {
        match input.fill_buf() {
            Ok(_) => return Ok(input.buffer()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(CliError(format!("cannot read stdin: {e}"))),
        }
    }
}

/// Appends the answer to one input line, newline-terminated, to `held`;
/// a blank line gets none.
fn answer_line(
    server: &mut impl LineServer,
    raw: &[u8],
    held: &mut Vec<u8>,
) -> Result<(), CliError> {
    // Strip the terminator as `BufRead::lines` does: `\n` or `\r\n`.
    let raw = raw
        .strip_suffix(b"\n")
        .map_or(raw, |line| line.strip_suffix(b"\r").unwrap_or(line));
    let response = match std::str::from_utf8(raw) {
        Ok(line) if line.trim().is_empty() => return Ok(()),
        Ok(line) => server.handle_line(line),
        Err(e) => {
            let reason = e.to_string();
            let refusal = ServeEngine::error(&ConfigError::BadDecisionRequest { reason });
            serde_json::to_string(&refusal).map_err(|e| CliError(e.to_string()))?
        }
    };
    held.extend_from_slice(response.as_bytes());
    held.push(b'\n');
    Ok(())
}

/// Writes and flushes the held answers, if any, in one `write_all`.
fn write_answers(output: &mut impl std::io::Write, held: &mut Vec<u8>) -> Result<(), CliError> {
    if held.is_empty() {
        return Ok(());
    }
    output
        .write_all(held)
        .and_then(|()| output.flush())
        .map_err(|e| CliError(format!("cannot write stdout: {e}")))?;
    held.clear();
    Ok(())
}

/// `mdr worst-case --policy SW5 --model message:0.5` (flags in
/// [`COMMANDS`])
fn worst_case(args: &Args) -> Result<String, CliError> {
    let spec = parse_policy(args.required("policy")?)?;
    let model = parse_model(args.get_or("model", "connection"))?;
    let max_len: usize = args.number("max-len", 13)?;
    if !(1..=20).contains(&max_len) {
        return err("--max-len must lie in 1..=20");
    }
    let cycles: usize = args.number("cycles", 300)?;
    let mut out = String::new();
    let _ = writeln!(out, "policy: {spec}   model: {model}");
    match competitive_factor(spec, model) {
        Some(claimed) => {
            let _ = writeln!(out, "claimed factor: {claimed:.4}");
            let schedule = generators::adversarial_for(spec, cycles);
            let warmup = Schedule::new();
            let r = cycle_ratio(spec, &warmup, &schedule, 1, model);
            let _ = writeln!(
                out,
                "ratio on the adversarial schedule ({} requests): {}",
                schedule.len(),
                r.ratio.map_or_else(|| "∞".into(), |x| format!("{x:.4}"))
            );
        }
        None => {
            let schedule = generators::adversarial_for(spec, 1_000);
            let r = measure(spec, &schedule, model);
            let _ = writeln!(
                out,
                "NOT competitive: on {} the policy pays {:.1} while OPT pays {:.1}",
                if matches!(spec, PolicySpec::St1) {
                    "r^1000"
                } else {
                    "w^1000"
                },
                r.policy_cost,
                r.opt_cost
            );
        }
    }
    let search = exhaustive_search(spec, model, max_len);
    let _ = writeln!(
        out,
        "exhaustive worst over all {} schedules (length ≤ {max_len}): ratio {} on {}",
        search.examined,
        search
            .worst
            .ratio
            .map_or_else(|| "∞".into(), |x| format!("{x:.4}")),
        search.worst_schedule
    );
    Ok(out)
}

/// `mdr trace --schedule rrwwr --policy SW3 [--model connection]`
fn trace(args: &Args) -> Result<String, CliError> {
    let spec = parse_policy(args.required("policy")?)?;
    let model = parse_model(args.get_or("model", "connection"))?;
    let schedule: Schedule = args
        .required("schedule")?
        .parse()
        .map_err(|e| CliError(format!("bad schedule: {e}")))?;
    let mut policy = spec.build();
    let steps = trace_policy(policy.as_mut(), &schedule, model);
    let mut out = String::new();
    let _ = writeln!(out, "{spec} on {schedule} under {model}:");
    let _ = writeln!(
        out,
        "{:>4}  {:>3}  {:<28} {:>8}  copy",
        "#", "req", "action", "cost"
    );
    let mut total = 0.0;
    for s in &steps {
        total += s.cost;
        let _ = writeln!(
            out,
            "{:>4}  {:>3}  {:<28} {:>8.3}  {}",
            s.index,
            s.request.to_string(),
            s.action.to_string(),
            s.cost,
            if s.copy_after { "yes" } else { "no" }
        );
    }
    let _ = writeln!(out, "total cost: {total:.3}");
    Ok(out)
}

/// `mdr multi --profile profile.json` — the JSON is a map from class names
/// like `"r{0,1}"` / `"w{2}"` to rates.
fn multi(args: &Args) -> Result<String, CliError> {
    let path = args.required("profile")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read {path:?}: {e}")))?;
    let raw: std::collections::BTreeMap<String, f64> =
        serde_json::from_str(&text).map_err(|e| CliError(format!("invalid JSON profile: {e}")))?;
    let mut entries = Vec::new();
    let mut n_objects = 0usize;
    for (class, rate) in &raw {
        let (kind, objs) = parse_class(class)?;
        n_objects = n_objects.max(objs.iter().copied().max().map_or(0, |m| m + 1));
        let set = mdr_multi::ObjectSet::from_objects(&objs);
        let op = match kind {
            'r' => mdr_multi::Operation::read(set),
            _ => mdr_multi::Operation::write(set),
        };
        entries.push((op, *rate));
    }
    if n_objects == 0 {
        return err("profile names no objects");
    }
    let profile = mdr_multi::OperationProfile::new(n_objects, entries);
    let (best, cost) = profile.optimal_allocation();
    let mut out = String::new();
    let _ = writeln!(out, "objects: {n_objects}   classes: {}", raw.len());
    let _ = writeln!(out, "optimal static allocation: replicate {}", best.0);
    let _ = writeln!(out, "expected cost per operation: {cost:.6}");
    let _ = writeln!(
        out,
        "for comparison: replicate nothing {:.6}, replicate all {:.6}",
        profile.expected_cost(mdr_multi::Allocation::EMPTY),
        profile.expected_cost(mdr_multi::Allocation::full(n_objects)),
    );
    Ok(out)
}

fn parse_class(s: &str) -> Result<(char, Vec<usize>), CliError> {
    let mut chars = s.chars();
    let kind = chars.next().unwrap_or(' ');
    if kind != 'r' && kind != 'w' {
        return err(format!("class {s:?} must start with 'r' or 'w'"));
    }
    let rest: String = chars.collect();
    let inner = rest
        .strip_prefix('{')
        .and_then(|r| r.strip_suffix('}'))
        .ok_or_else(|| CliError(format!("class {s:?} must look like r{{0,1}}")))?;
    let objs = inner
        .split(',')
        .map(|x| {
            x.trim()
                .parse::<usize>()
                .map_err(|_| CliError(format!("bad object index {x:?} in {s:?}")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((kind, objs))
}

fn name(w: Winner) -> &'static str {
    match w {
        Winner::St1 => "ST1",
        Winner::St2 => "ST2",
        Winner::Sw1 => "SW1",
    }
}

/// One `mdr` subcommand: its block of the help text, the flags it
/// accepts, and the function that runs it.
struct Command {
    name: &'static str,
    usage: &'static str,
    flags: &'static [&'static str],
    run: fn(&Args) -> Result<String, CliError>,
}

/// Every subcommand, in help order; [`dispatch`] and [`help`] both read it.
const COMMANDS: &[Command] = &[
    Command {
        name: "analyze",
        usage: "  analyze    --policy <P> [--model M] [--theta T]      closed-form costs & competitiveness
",
        flags: &["policy", "model", "theta"],
        run: analyze,
    },
    Command {
        name: "recommend",
        usage: "  recommend  [--theta T] [--omega W] [--slack S]       which policy to run (Figure 1 / §9)
",
        flags: &["theta", "omega", "slack"],
        run: recommend,
    },
    Command {
        name: "simulate",
        usage: "  simulate   --policy <P> [--theta T] [--requests N] [--seed S] [--omega W] [--latency L]
             [--faults RATE] [--outage T] [--crash-prob P] [--volatile-prob P]
             (RATE > 0 injects MC disconnections/crashes + reconnection recovery)
             [--arq-loss P] [--arq-timeout T] [--arq-budget N] [--arq-backoff F]
             [--arq-jitter J] [--arq-deadline D]
             (--arq-loss enables the timed ARQ transport: timeout/backoff
              retransmission, retry budgets, graceful degradation)
             [--cells N] [--mobility RATE] [--handoff-deadline D] [--handoff-loss P]
             [--broadcast-inv on]
             (--cells > 1 enables the multi-cell topology: seed-driven migration,
              epoch-fenced three-way handoff, stale-replica invalidation)
",
        flags: &[
            "policy",
            "theta",
            "requests",
            "seed",
            "omega",
            "latency",
            "faults",
            "outage",
            "crash-prob",
            "volatile-prob",
            "arq-loss",
            "arq-timeout",
            "arq-budget",
            "arq-backoff",
            "arq-jitter",
            "arq-deadline",
            "cells",
            "mobility",
            "handoff-deadline",
            "handoff-loss",
            "broadcast-inv",
        ],
        run: simulate,
    },
    Command {
        name: "sweep",
        usage: "  sweep      [--preset e6|e17|e18|e19] [--policies P1,P2] [--thetas ...] [--models ...]
             [--omegas ...] [--fault-rates ...] [--arq-losses ...] [--replications R]
             [--requests N] [--seed S] [--latency L] [--oracle on] [--threads T]
             [--chunk C] [--format table|ledger|json] [--full on]
             (deterministic parallel grid; stdout is byte-identical at any --threads)
",
        flags: &[
            "preset",
            "policies",
            "thetas",
            "models",
            "omegas",
            "fault-rates",
            "arq-losses",
            "replications",
            "requests",
            "seed",
            "latency",
            "oracle",
            "threads",
            "chunk",
            "format",
            "full",
        ],
        run: sweep,
    },
    Command {
        name: "bench",
        usage: "  bench      --preset e6|e17|e18|e19|serve [--baseline BENCH_e17.json] [--gate-pct 10]
             [--write-baseline on] [--full on] [--requests N] [--replications R]
             [--threads T] [--chunk C] [--format table|json]
             (typed perf measurement: events, wall time, requests/sec, ledger digest;
              gates against a committed BENCH_*.json — digest drift always fails;
              --write-baseline on records the median of 7 passes.
              --preset serve times the decision daemon: decisions/sec through the
              full JSON wire path, with [--tenants N] [--requests R] [--seed S])
",
        flags: &[
            "preset",
            "baseline",
            "gate-pct",
            "write-baseline",
            "full",
            "requests",
            "replications",
            "threads",
            "chunk",
            "format",
            "tenants",
            "seed",
        ],
        run: bench,
    },
    Command {
        name: "serve",
        usage: "  serve      [--max-tenants N] [--policy P] [--model M] [--budget N] [--adaptive on]
             [--data-dir DIR] [--fsync always|interval[:N]|never] [--checkpoint-every N]
             (long-running decision daemon: newline-JSON on stdin/stdout, one
              DecisionCore per tenant; open/decide/stats/snapshot/restore/close;
              --data-dir makes it crash-safe: write-ahead journal + checkpoints,
              recovery with quarantine on restart; see docs/serve.md)
",
        flags: &[
            "max-tenants",
            "policy",
            "model",
            "budget",
            "adaptive",
            "data-dir",
            "fsync",
            "checkpoint-every",
        ],
        run: serve,
    },
    Command {
        name: "worst-case",
        usage: "  worst-case --policy <P> [--model M] [--max-len L] [--cycles C]
",
        flags: &["policy", "model", "max-len", "cycles"],
        run: worst_case,
    },
    Command {
        name: "trace",
        usage: "  trace      --policy <P> --schedule rrwwr [--model M] per-request execution trace
",
        flags: &["policy", "schedule", "model"],
        run: trace,
    },
    Command {
        name: "multi",
        usage: "  multi      --profile profile.json                    §7.2 optimal multi-object allocation
",
        flags: &["profile"],
        run: multi,
    },
];

/// The table entry for a parsed command line, once every flag it names
/// is one the command accepts: a misspelled flag is an error, not a
/// silent default.
fn command_for(args: &Args) -> Result<&'static Command, CliError> {
    let Some(command) = COMMANDS.iter().find(|c| c.name == args.command) else {
        return err(format!(
            "unknown subcommand {:?}; see `mdr help`",
            args.command
        ));
    };
    match args
        .flags
        .keys()
        .find(|flag| !command.flags.contains(&flag.as_str()))
    {
        Some(flag) => err(format!("`mdr {}` has no flag --{flag}", command.name)),
        None => Ok(command),
    }
}

/// Dispatches a parsed command line.
pub(crate) fn dispatch(args: &Args) -> Result<String, CliError> {
    (command_for(args)?.run)(args)
}

/// The help text: every command's usage block between a fixed head and
/// tail.
pub(crate) fn help() -> String {
    let mut out = "mdr — data replication for mobile computers (SIGMOD 1994)

subcommands:
"
    .to_owned();
    for command in COMMANDS {
        out.push_str(command.usage);
    }
    out.push_str(
        "
policies: ST1, ST2, SW<k> (odd k), T1:<m>, T2:<m>
models:   connection | message:<omega>   (ω ∈ [0,1])
",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(argv: &[&str]) -> Result<String, CliError> {
        let v: Vec<String> = argv.iter().map(ToString::to_string).collect();
        dispatch(&Args::parse(&v).unwrap())
    }

    #[test]
    fn median_pass_takes_the_middle_and_rejects_disagreement() {
        let pass = |events: u64, ms: u64, digest: u64| {
            let stats = mdr_sim::perf::PerfStats {
                events,
                wall_nanos: ms * 1_000_000,
            };
            BenchSnapshot::new("e18", true, 2_000, 15, stats, digest)
        };
        let passes: Vec<_> = [5, 1, 4, 2, 3].map(|ms| pass(100, ms, 0xabc)).into();
        assert_eq!(median_pass(passes.clone()).unwrap(), passes[4]);
        for odd in [pass(99, 1, 0xabc), pass(100, 1, 0xdef)] {
            let mut passes = passes.clone();
            passes.push(odd);
            assert!(median_pass(passes).is_err());
        }
    }

    #[test]
    fn analyze_reports_formulas() {
        let out = run(&["analyze", "--policy", "SW9", "--theta", "0.3"]).unwrap();
        assert!(out.contains("expected cost"));
        assert!(out.contains("10.0000-competitive"));
        let out = run(&["analyze", "--policy", "ST1"]).unwrap();
        assert!(out.contains("NOT competitive"));
    }

    #[test]
    fn recommend_fixed_theta_uses_figure_1() {
        let out = run(&["recommend", "--theta", "0.6", "--omega", "0.4"]).unwrap();
        assert!(out.contains("run SW1"), "{out}");
        let out = run(&["recommend", "--theta", "0.9", "--omega", "0.4"]).unwrap();
        assert!(out.contains("run ST1"), "{out}");
    }

    #[test]
    fn recommend_drifting_uses_section_9() {
        let out = run(&["recommend", "--slack", "0.10"]).unwrap();
        assert!(out.contains("SW9"), "{out}");
        let out = run(&["recommend", "--omega", "0.8"]).unwrap();
        assert!(out.contains("k ≥ 7"), "{out}");
        let out = run(&["recommend", "--omega", "0.3"]).unwrap();
        assert!(out.contains("run SW1"), "{out}");
    }

    #[test]
    fn simulate_runs_and_reports() {
        let out = run(&[
            "simulate",
            "--policy",
            "SW3",
            "--theta",
            "0.4",
            "--requests",
            "2000",
            "--seed",
            "1",
        ])
        .unwrap();
        assert!(out.contains("cost/request"));
        assert!(out.contains("theory"));
    }

    #[test]
    fn simulate_with_faults_reports_recovery() {
        let argv = [
            "simulate",
            "--policy",
            "SW3",
            "--theta",
            "0.4",
            "--requests",
            "3000",
            "--seed",
            "7",
            "--latency",
            "0.05",
            "--faults",
            "0.05",
        ];
        let out = run(&argv).unwrap();
        assert!(out.contains("faults:"), "{out}");
        assert!(out.contains("reconciliations"), "{out}");
        assert!(out.contains("recovery bill"), "{out}");
        // Identical command lines replay identical reports (fault
        // determinism through the CLI surface).
        assert_eq!(out, run(&argv).unwrap());
        // An invalid fault mix is a friendly error, not a panic.
        assert!(run(&[
            "simulate",
            "--policy",
            "SW3",
            "--faults",
            "0.05",
            "--crash-prob",
            "1.5",
        ])
        .is_err());
    }

    #[test]
    fn simulate_with_arq_reports_transport() {
        let argv = [
            "simulate",
            "--policy",
            "SW3",
            "--theta",
            "0.4",
            "--requests",
            "3000",
            "--seed",
            "7",
            "--latency",
            "0.05",
            "--arq-loss",
            "0.2",
        ];
        let out = run(&argv).unwrap();
        assert!(out.contains("arq:"), "{out}");
        assert!(out.contains("retry escalations"), "{out}");
        assert!(out.contains("degradation:"), "{out}");
        // Identical command lines replay identical reports — the
        // transport's timers and jitter are seed-derived, not clocked.
        assert_eq!(out, run(&argv).unwrap());
        // The transport composes with the fault layer.
        let mut faulted: Vec<&str> = argv.to_vec();
        faulted.extend(["--faults", "0.05"]);
        let both = run(&faulted).unwrap();
        assert!(both.contains("faults:") && both.contains("arq:"), "{both}");
        // Invalid transport knobs are friendly errors, not panics.
        assert!(run(&["simulate", "--policy", "SW3", "--arq-loss", "1.5"]).is_err());
        assert!(run(&[
            "simulate",
            "--policy",
            "SW3",
            "--arq-loss",
            "0.2",
            "--arq-backoff",
            "0.5",
        ])
        .is_err());
    }

    #[test]
    fn simulate_with_topology_reports_mobility() {
        let argv = [
            "simulate",
            "--policy",
            "SW3",
            "--theta",
            "0.4",
            "--requests",
            "3000",
            "--seed",
            "7",
            "--latency",
            "0.05",
            "--cells",
            "4",
            "--mobility",
            "0.6",
            "--handoff-loss",
            "0.2",
        ];
        let out = run(&argv).unwrap();
        assert!(out.contains("mobility:"), "{out}");
        assert!(out.contains("invalidation:"), "{out}");
        // Identical command lines replay identical reports — migrations
        // and handoff legs are seed-derived, not clocked.
        assert_eq!(out, run(&argv).unwrap());
        // The topology composes with faults and the ARQ transport.
        let mut loaded: Vec<&str> = argv.to_vec();
        loaded.extend([
            "--faults",
            "0.05",
            "--arq-loss",
            "0.2",
            "--broadcast-inv",
            "on",
        ]);
        let all = run(&loaded).unwrap();
        assert!(
            all.contains("faults:") && all.contains("arq:") && all.contains("mobility:"),
            "{all}"
        );
        // Invalid topology knobs are friendly errors, not panics.
        assert!(run(&[
            "simulate",
            "--policy",
            "SW3",
            "--cells",
            "4",
            "--mobility",
            "-0.5"
        ])
        .is_err());
        assert!(run(&[
            "simulate",
            "--policy",
            "SW3",
            "--cells",
            "4",
            "--handoff-loss",
            "1.5",
        ])
        .is_err());
    }

    #[test]
    fn sweep_stdout_is_thread_count_invariant() {
        let base = [
            "sweep",
            "--policies",
            "ST1,SW3",
            "--thetas",
            "0.3,0.7",
            "--omegas",
            "0.5",
            "--requests",
            "800",
            "--seed",
            "9",
        ];
        let run_with = |threads: &str, format: &str| {
            let mut argv: Vec<&str> = base.to_vec();
            argv.extend(["--threads", threads, "--format", format]);
            run(&argv).unwrap()
        };
        for format in ["table", "ledger", "json"] {
            let serial = run_with("1", format);
            let parallel = run_with("4", format);
            assert_eq!(serial, parallel, "--format {format}");
        }
        assert!(run_with("1", "table").contains("ledger digest"));
        assert!(run_with("1", "ledger").contains("theta=0.3"));
        assert!(run_with("1", "json").contains("\"summary\""));
    }

    #[test]
    fn sweep_presets_and_errors() {
        let out = run(&[
            "sweep",
            "--preset",
            "e6",
            "--requests",
            "300",
            "--threads",
            "2",
        ])
        .unwrap();
        assert!(out.contains("SW7"), "{out}");
        let faulted = run(&[
            "sweep",
            "--policies",
            "SW3",
            "--fault-rates",
            "0.1",
            "--latency",
            "0.05",
            "--requests",
            "1500",
        ])
        .unwrap();
        assert!(faulted.contains("fault"), "{faulted}");
        assert!(run(&["sweep", "--preset", "bogus"]).is_err());
        assert!(run(&["sweep", "--thetas", "1.5"]).is_err());
        assert!(run(&["sweep", "--policies", "SW4"]).is_err());
        assert!(run(&["sweep", "--format", "xml"]).is_err());
        assert!(run(&["sweep", "--fault-rates", "2.0"]).is_err());
        assert!(run(&["sweep", "--arq-losses", "1.5"]).is_err());
    }

    #[test]
    fn sweep_arq_axis_is_thread_count_invariant() {
        let base = [
            "sweep",
            "--policies",
            "SW3",
            "--thetas",
            "0.4",
            "--arq-losses",
            "0.2",
            "--latency",
            "0.05",
            "--requests",
            "1000",
            "--seed",
            "3",
        ];
        let run_with = |threads: &str| {
            let mut argv: Vec<&str> = base.to_vec();
            argv.extend(["--threads", threads, "--format", "ledger"]);
            run(&argv).unwrap()
        };
        let serial = run_with("1");
        assert_eq!(serial, run_with("4"));
        assert!(serial.contains("arq=1"), "{serial}");
        // The e18 preset resolves and carries the ARQ axis too.
        let preset = run(&[
            "sweep",
            "--preset",
            "e18",
            "--requests",
            "400",
            "--threads",
            "2",
        ])
        .unwrap();
        assert!(preset.contains("arq"), "{preset}");
    }

    #[test]
    fn worst_case_reports_ratios() {
        let out = run(&[
            "worst-case",
            "--policy",
            "SW3",
            "--max-len",
            "10",
            "--cycles",
            "50",
        ])
        .unwrap();
        assert!(out.contains("claimed factor: 4.0000"), "{out}");
        assert!(out.contains("exhaustive worst"));
        let out = run(&["worst-case", "--policy", "ST2", "--max-len", "8"]).unwrap();
        assert!(out.contains("NOT competitive"), "{out}");
    }

    #[test]
    fn trace_prints_steps() {
        let out = run(&["trace", "--policy", "SW3", "--schedule", "rrw"]).unwrap();
        assert!(out.contains("remote-read+allocate"), "{out}");
        assert!(out.contains("total cost"));
    }

    #[test]
    fn multi_reads_json_profile() {
        let dir = std::env::temp_dir().join("mdr-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("profile.json");
        std::fs::write(
            &path,
            r#"{"r{0}": 8.0, "w{0}": 1.0, "r{1}": 1.0, "w{1}": 8.0, "r{0,1}": 1.0}"#,
        )
        .unwrap();
        let out = run(&["multi", "--profile", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("optimal static allocation"), "{out}");
        assert!(
            out.contains("{0}"),
            "replicate the read-heavy object: {out}"
        );
    }

    #[test]
    fn bad_inputs_give_friendly_errors() {
        assert!(run(&["bogus"]).is_err());
        assert!(run(&["analyze"]).is_err(), "missing --policy");
        assert!(run(&["analyze", "--policy", "SW4"]).is_err(), "even k");
        assert!(run(&["trace", "--policy", "SW3", "--schedule", "rxw"]).is_err());
        assert!(run(&["worst-case", "--policy", "SW3", "--max-len", "25"]).is_err());
    }

    #[test]
    fn a_misspelled_flag_fails() {
        let e = run(&["simulate", "--policy", "SW3", "--thetaa", "0.9"]).unwrap_err();
        assert_eq!(e.0, "`mdr simulate` has no flag --thetaa");
        let e = run(&["analyze", "--policy", "SW3", "--bogus", "1"]).unwrap_err();
        assert_eq!(e.0, "`mdr analyze` has no flag --bogus");
        // A flag of another command is just as unknown here.
        assert!(run(&[
            "trace",
            "--policy",
            "SW3",
            "--schedule",
            "rw",
            "--seed",
            "1"
        ])
        .is_err());
    }

    #[test]
    fn each_flag_list_is_the_flags_of_its_usage_block() {
        use std::collections::BTreeSet;
        for command in COMMANDS {
            assert!(
                command.usage.starts_with(&format!("  {} ", command.name)),
                "{}",
                command.usage
            );
            let documented: BTreeSet<&str> = command
                .usage
                .split("--")
                .skip(1)
                .filter_map(|rest| {
                    rest.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                        .next()
                })
                .collect();
            let accepted: BTreeSet<&str> = command.flags.iter().copied().collect();
            assert_eq!(accepted.len(), command.flags.len(), "{}", command.name);
            assert_eq!(documented, accepted, "{}", command.name);
        }
    }

    #[test]
    fn ci_and_perfbench_command_lines_are_accepted() {
        // The `mdr` lines of .github/workflows/ci.yml (shell variables and
        // matrix values filled in), and perfbench's durable `serve`.
        let lines = [
            "sweep --preset e6 --threads 1 --format ledger",
            "sweep --preset e19 --threads 4 --format ledger",
            "bench --preset e17 --baseline BENCH_e17.json --gate-pct 75",
            "bench --preset serve --baseline BENCH_serve.json --gate-pct 75",
            "serve",
            "serve --data-dir d",
            "serve --max-tenants 4",
            "simulate --policy T2:5 --theta 0.4 --requests 20000 --seed 94 --latency 0.05 \
             --faults 0.1 --arq-loss 0.2 --arq-budget 6 --arq-backoff 1.5 \
             --cells 4 --mobility 0.6 --handoff-loss 0.2",
            "serve --data-dir d --fsync interval:64 --checkpoint-every 1024",
        ];
        for line in lines {
            let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
            let args = Args::parse(&argv).unwrap();
            assert!(command_for(&args).is_ok(), "{line}");
        }
    }

    #[test]
    fn class_parser() {
        assert_eq!(parse_class("r{0,2}").unwrap(), ('r', vec![0, 2]));
        assert_eq!(parse_class("w{1}").unwrap(), ('w', vec![1]));
        assert!(parse_class("x{0}").is_err());
        assert!(parse_class("r0").is_err());
        assert!(parse_class("r{a}").is_err());
    }

    /// What the fake pipes of a `serve_loop` test saw, in order.
    #[derive(Debug)]
    enum Io {
        /// A `read` of the input and the bytes it returned.
        Read(Vec<u8>),
        /// A `write` to the output and the bytes it carried.
        Write(Vec<u8>),
    }

    type Log = std::rc::Rc<std::cell::RefCell<Vec<Io>>>;

    /// An input that returns one scripted chunk per `read`, then EOF.
    struct ScriptedInput {
        chunks: std::collections::VecDeque<Vec<u8>>,
        log: Log,
    }

    impl std::io::Read for ScriptedInput {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let chunk = self.chunks.pop_front().unwrap_or_default();
            buf[..chunk.len()].copy_from_slice(&chunk);
            let len = chunk.len();
            self.log.borrow_mut().push(Io::Read(chunk));
            Ok(len)
        }
    }

    /// An output that records each `write` call.
    struct RecordingOutput(Log);

    impl std::io::Write for RecordingOutput {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.borrow_mut().push(Io::Write(buf.to_vec()));
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Runs `serve_loop` over a fresh engine whose input returns `chunks`,
    /// one per read, and returns what the pipes saw.
    fn serve_chunks(config: ServeConfig, chunks: &[&[u8]]) -> Vec<Io> {
        let log = Log::default();
        let input = ScriptedInput {
            chunks: chunks.iter().map(|chunk| chunk.to_vec()).collect(),
            log: log.clone(),
        };
        let mut engine = ServeEngine::new(config).unwrap();
        serve_loop(&mut engine, input, RecordingOutput(log.clone())).unwrap();
        log.take()
    }

    fn newlines(bytes: &[u8]) -> usize {
        bytes.iter().filter(|&&b| b == b'\n').count()
    }

    /// The log as `r<lines>` per read and `w<answers>` per write.
    fn shape(log: &[Io]) -> Vec<String> {
        log.iter()
            .map(|io| match io {
                Io::Read(bytes) => format!("r{}", newlines(bytes)),
                Io::Write(bytes) => format!("w{}", newlines(bytes)),
            })
            .collect()
    }

    const OPEN: &str = "{\"op\":\"open\",\"tenant\":\"a\"}\n";
    const DECIDE: &str = "{\"op\":\"decide\",\"tenant\":\"a\",\"request\":\"r\"}\n";
    const SHUTDOWN: &str = "{\"op\":\"shutdown\"}\n";

    #[test]
    fn a_sixteen_line_read_is_answered_in_two_writes_of_eight() {
        let input = OPEN.to_owned() + &DECIDE.repeat(15);
        let log = serve_chunks(ServeConfig::default(), &[input.as_bytes()]);
        assert_eq!(shape(&log), ["r16", "w8", "w8", "r0"]);
    }

    #[test]
    fn one_line_reads_are_answered_before_the_next_read() {
        let d = DECIDE.as_bytes();
        let log = serve_chunks(ServeConfig::default(), &[OPEN.as_bytes(), d, d, d]);
        assert_eq!(
            shape(&log),
            ["r1", "w1", "r1", "w1", "r1", "w1", "r1", "w1", "r0"]
        );
    }

    #[test]
    fn answers_before_a_partial_line_are_written_before_the_read_that_completes_it() {
        let (head, tail) = DECIDE.split_at(DECIDE.len() / 2);
        let first = format!("{OPEN}{DECIDE}{head}");
        let log = serve_chunks(ServeConfig::default(), &[first.as_bytes(), tail.as_bytes()]);
        assert_eq!(shape(&log), ["r2", "w1", "w1", "r1", "w1", "r0"]);
    }

    #[test]
    fn a_shutdown_mid_batch_is_answered_and_ends_the_reads() {
        let first = format!("{OPEN}{DECIDE}{SHUTDOWN}{DECIDE}");
        let log = serve_chunks(
            ServeConfig::default(),
            &[first.as_bytes(), DECIDE.as_bytes()],
        );
        assert_eq!(shape(&log), ["r4", "w2", "w1"]);
        let Some(Io::Write(last)) = log.last() else {
            panic!("{log:?}");
        };
        assert!(last.starts_with(br#"{"ok":"shutdown""#), "{log:?}");
    }

    #[test]
    fn blank_lines_get_no_answer_but_still_end_a_half() {
        // Five lines, three in the first half; the third is blank, and so
        // is the last, and each still sends the answers before it.
        let input = format!("{OPEN}\n \r\n{DECIDE}\n");
        let log = serve_chunks(ServeConfig::default(), &[input.as_bytes()]);
        assert_eq!(shape(&log), ["r5", "w1", "w1", "r0"]);
    }

    #[test]
    fn an_interrupted_read_is_retried() {
        /// Fails its first read with `Interrupted`, then returns `OPEN`.
        struct Interrupted(bool);
        impl std::io::Read for Interrupted {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if !std::mem::replace(&mut self.0, true) {
                    return Err(std::io::ErrorKind::Interrupted.into());
                }
                buf[..OPEN.len()].copy_from_slice(OPEN.as_bytes());
                Ok(OPEN.len())
            }
        }
        let mut input = std::io::BufReader::new(Interrupted(false));
        assert_eq!(refill(&mut input).unwrap(), OPEN.as_bytes());
    }

    #[test]
    fn batched_output_is_the_concatenated_line_answers() {
        let config = ServeConfig {
            max_tenants: 4,
            ..ServeConfig::default()
        };
        let session = include_str!("../tests/fixtures/serve_session.in");
        let mut reference = ServeEngine::new(config).unwrap();
        let expected: String = session
            .lines()
            .map(|line| reference.handle_line(line) + "\n")
            .collect();
        // Cut the session at uneven points, many mid-line.
        let mut chunks = Vec::new();
        let mut rest = session.as_bytes();
        for size in [1, 5, 40, 120, 333, 2, 900].into_iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (chunk, tail) = rest.split_at(size.min(rest.len()));
            chunks.push(chunk);
            rest = tail;
        }
        let log = serve_chunks(config, &chunks);
        let (mut read, mut answered, mut writes, mut output) = (0, 0, 0, Vec::new());
        for io in &log {
            match io {
                Io::Read(bytes) => {
                    assert_eq!(answered, read, "an answer was held across a read");
                    read += newlines(bytes);
                    writes = 0;
                }
                Io::Write(bytes) => {
                    answered += newlines(bytes);
                    writes += 1;
                    assert!(writes <= 2, "more than two writes for one read");
                    output.extend_from_slice(bytes);
                }
            }
        }
        assert_eq!(String::from_utf8(output).unwrap(), expected);
    }
}
