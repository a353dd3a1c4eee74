//! The serve-mem and serve-durable workloads: `mdr serve` spawned by the
//! harness and driven over its pipes.

use crate::client::{
    run_session, serve_args, InProcess, Process, Record, Server, Session, CHUNK, FSYNC, WINDOW,
};
use crate::gen::{decide_of, roster, Mode, Plan, Step, TENANTS};
use crate::pins::Pins;
use crate::report::{Outcome, Split};
use crate::stats::{chunked, fast_rate, fast_setup, fast_time, fnv1a, median, Summary, FNV_BASIS};
use crate::trace::Tracer;
use mdr_core::{CostModel, PolicySpec, Request};
use mdr_sim::{
    DecisionCore, DurabilityStats, DurableServe, FsyncPolicy, ServeConfig, ServeEngine,
    ServeRequest, ServeResponse,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Crash points per serve-durable session, evenly spaced through the
/// decide stream. serve-mem sessions are never killed.
pub const CRASHES: usize = 4;
/// Start-up probes before each daemon session, besides the session's own
/// start: set-ups spread through the run, as the sessions are.
const SETUP_PROBES: usize = 2;
/// Rounds of the traced run.
const ROUNDS: usize = 3;
/// Lines per traced batch. It is at most the restore lag, so a restore's
/// snapshot response is always in an earlier batch.
const BATCH: usize = 64;

/// Decide lines per session: a session takes a second or two.
pub fn decides(mode: Mode) -> usize {
    match mode {
        Mode::Mem => 240_000,
        Mode::Durable => 120_000,
    }
}

/// The workload's name.
pub fn name(mode: Mode) -> &'static str {
    match mode {
        Mode::Mem => "serve-mem",
        Mode::Durable => "serve-durable",
    }
}

/// One session's traffic for `seed`, with the decide count divided by
/// `shrink` (1 for the workload itself).
pub fn plan(mode: Mode, seed: u64, shrink: usize) -> Plan {
    Plan {
        mode,
        seed,
        tenants: TENANTS,
        decides: decides(mode) / shrink.max(1),
        crashes: match mode {
            Mode::Mem => 0,
            Mode::Durable => CRASHES,
        },
    }
}

/// Fresh data directories under one per-run directory, all removed when
/// the run ends rather than after each session: on a file system mounted
/// with `discard`, freeing blocks mid-run would bill the next session's
/// fsyncs for this one's deletions.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
    next: u64,
}

impl Scratch {
    /// Data directories go under `parent`, in a directory no other
    /// `Scratch` of any process uses.
    pub fn new(parent: &Path) -> Scratch {
        static CREATED: AtomicU64 = AtomicU64::new(0);
        let n = CREATED.fetch_add(1, Ordering::Relaxed);
        Scratch {
            root: parent.join(format!("run-{}-{n}", std::process::id())),
            next: 0,
        }
    }

    /// A path that does not exist yet.
    pub fn fresh(&mut self) -> io::Result<PathBuf> {
        self.next += 1;
        let dir = self.root.join(format!("data-{}", self.next));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover directory under the build output is
        // harmless, and a panic here would abort.
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// A fresh data directory for serve-durable; none for serve-mem.
fn data_dir(mode: Mode, scratch: &mut Scratch) -> io::Result<Option<PathBuf>> {
    Ok(match mode {
        Mode::Mem => None,
        Mode::Durable => Some(scratch.fresh()?),
    })
}

/// What an in-process run of a session produced.
pub struct InProcessRun {
    /// The session; per-line hashes are kept when no expectation was given.
    pub session: Session,
    /// Wall time spent inside `handle_line`.
    pub busy_ns: u64,
    /// Mean `handle_line` time per line over each chunk of [`CHUNK`] lines.
    pub chunk_ns: Vec<f64>,
}

/// Runs `plan` in process through `ServeEngine` or `DurableServe`. Without
/// `expect` this is the reference the daemon's responses must reproduce
/// byte for byte, and it keeps every line's hash.
pub fn in_process(
    plan: &Plan,
    scratch: &mut Scratch,
    fsync: FsyncPolicy,
    expect: Option<&[u64]>,
) -> io::Result<InProcessRun> {
    let dir = data_dir(plan.mode, scratch)?;
    let mut server = match &dir {
        None => InProcess::mem()?,
        Some(dir) => InProcess::durable(dir, fsync)?,
    };
    let record = Record {
        expect,
        hashes: expect.is_none(),
    };
    let session = run_session(plan, &mut server, WINDOW, record);
    Ok(InProcessRun {
        session: session?,
        busy_ns: server.busy_ns,
        chunk_ns: server.chunk_ns,
    })
}

/// One session through a freshly spawned daemon, checked line by line
/// against `expect`. Returns the session and the daemon's peak RSS in KiB.
fn piped(
    plan: &Plan,
    mdr: &Path,
    scratch: &mut Scratch,
    expect: &[u64],
) -> io::Result<(Session, u64)> {
    let dir = data_dir(plan.mode, scratch)?;
    let mut server = Process::spawn(mdr, serve_args(dir.as_deref()))?;
    let record = Record {
        expect: Some(expect),
        hashes: false,
    };
    let session = run_session(plan, &mut server, WINDOW, record);
    Ok((session?, server.peak_rss_kb()))
}

/// Daemon CPU time from spawn to its first response, for a daemon that
/// only answers one `stats`.
fn setup_probe(mode: Mode, mdr: &Path, scratch: &mut Scratch) -> io::Result<Option<u64>> {
    let dir = data_dir(mode, scratch)?;
    let mut server = Process::spawn(mdr, serve_args(dir.as_deref()))?;
    let mut line = String::new();
    server.send(b"{\"op\":\"stats\"}\n")?;
    server.recv(&mut line)?;
    let cpu = server.idle_cpu_ns();
    server.send(b"{\"op\":\"shutdown\"}\n")?;
    server.recv(&mut line)?;
    server.finish()?;
    Ok(cpu)
}

/// Whether the reference itself is sound: no refusals, and at full size
/// the pinned digest when this seed is pinned.
fn reference_ok(plan: &Plan, session: &Session, pins: &Pins) -> bool {
    let (mode, seed) = (plan.mode, plan.seed);
    let full = plan.decides == decides(mode);
    let pinned = !full
        || pins
            .get(name(mode), &format!("seed-{seed}"))
            .is_none_or(|pin| pin == session.digest);
    if !pinned {
        eprintln!(
            "{}: seed {seed} response digest drifted from its pin",
            name(mode)
        );
    }
    if session.failures > 0 {
        eprintln!(
            "{}: {} err/shed responses in process",
            name(mode),
            session.failures
        );
    }
    pinned && session.failures == 0
}

/// The untraced run: the in-process reference, then start-up probes and
/// daemon sessions until `seconds` have passed. Throughput and latency are
/// wall time through the daemon's pipes, at the fast end of chunks of
/// [`CHUNK`] streamed lines (see [`fast_time`]). Set-up and recovery are the daemon's CPU
/// time from spawn to its first response, which the host's steal from this
/// machine does not inflate.
pub fn timed(
    mode: Mode,
    seed: u64,
    seconds: f64,
    mdr: &Path,
    scratch: &mut Scratch,
    pins: &Pins,
) -> io::Result<Outcome> {
    let plan = plan(mode, seed, 1);
    let mut reference = in_process(&plan, scratch, FSYNC, None)?;
    let expect = std::mem::take(&mut reference.session.hashes);
    let mut out = Outcome {
        correct: reference_ok(&plan, &reference.session, pins),
        attempted: reference.session.lines,
        failed: reference.session.failures,
        metrics: Vec::new(),
    };

    let mut setups = Vec::new();
    let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut recoveries, mut rss, mut sessions) = (Vec::new(), Vec::new(), 0);
    let started = Instant::now();
    while sessions == 0 || started.elapsed().as_secs_f64() < seconds {
        for _ in 0..SETUP_PROBES {
            setups.extend(setup_probe(mode, mdr, scratch)?.map(|ns| ns as f64));
        }
        let (s, peak_kb) = piped(&plan, mdr, scratch, &expect)?;
        sessions += 1;
        out.attempted += s.lines;
        out.failed += s.failures + s.mismatches;
        out.correct &= s.digest == reference.session.digest;
        rates.extend(&s.chunk_rates);
        p50s.extend(chunked(&s.latency_ns, CHUNK, 0.5));
        p99s.extend(chunked(&s.latency_ns, CHUNK, 0.99));
        setups.extend(s.setup_cpu_ns.map(|ns| ns as f64));
        recoveries.extend(s.recoveries_cpu_ns.iter().map(|&ns| ns as f64));
        rss.push(peak_kb as f64 / 1024.0);
    }

    let value = |s: Option<Summary>| s.map_or(0.0, |s| s.value);
    let chunks = p99s.len();
    let rate = value(fast_rate(&mut rates));
    let (p50, p99) = (
        value(fast_time(&mut p50s)) / 1e3,
        value(fast_time(&mut p99s)) / 1e3,
    );
    eprintln!(
        "{}: {sessions} daemon sessions, {rate:.0} lines/s; latency p50 {p50:.1} us, \
         p99 {p99:.1} us (fastest 1% of {chunks} chunks of {CHUNK} lines); \
         {} set-ups, {} recoveries",
        name(mode),
        setups.len(),
        recoveries.len()
    );
    out.push("setup_s", value(fast_setup(&mut setups)) / 1e9, "s");
    out.push("requests_per_s", rate, "1/s");
    out.push("latency_p50_us", p50, "us");
    out.push("peak_rss_mb", value(median(&mut rss)), "MB");
    // serve-durable, which `BENCHMARK.json` does not list, also reports
    // the tail its fsyncs and checkpoints set, and its recovery. The tail
    // of serve-mem is the host's scheduling, and is printed above only.
    if mode == Mode::Durable {
        out.push("latency_p99_us", p99, "us");
        out.push("recovery_s", value(median(&mut recoveries)) / 1e9, "s");
    }
    Ok(out)
}

/// Journal figures of a serve-durable replay.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalLayers {
    /// `DurableServe::apply` less `ServeEngine::apply`, per line.
    pub apply_ns: f64,
    /// `DurabilityStats` counts per thousand lines.
    pub fsyncs_per_kop: f64,
    /// See `fsyncs_per_kop`.
    pub checkpoints_per_kop: f64,
    /// See `fsyncs_per_kop`.
    pub appends_per_kop: f64,
    /// Bytes the durable engine wrote per decision: record frames and
    /// checkpoints.
    pub bytes_per_decision: f64,
    /// `DurableServe::open` on the crashed directory per replayed record.
    pub recovery_ns_per_record: f64,
}

/// Per-layer figures of one serve replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeLayers {
    /// `serde_json::from_str::<ServeRequest>`, per line.
    pub decode_ns: f64,
    /// `ServeEngine::apply`, per line.
    pub apply_ns: f64,
    /// `DecisionCore::decide` on standalone cores, per decide.
    pub decide_ns: f64,
    /// `serde_json::to_string(&ServeResponse)`, per line.
    pub encode_ns: f64,
    /// The daemon's per-line time less in-process `handle_line` time.
    pub stdio_ns: f64,
    /// Journal figures (serve-durable only).
    pub journal: Option<JournalLayers>,
    /// The daemon's ns per line, split by layer.
    pub split: Split,
    /// Wall time of the batched replay with spans over the same replay
    /// without them, less one.
    pub overhead_share: f64,
    /// Lines sent or replayed across every pass.
    pub lines: u64,
    /// Refused or mismatched responses across every pass.
    pub failed: u64,
    /// Whether every digest matched.
    pub correct: bool,
}

/// Bytes this process has passed to `write(2)` so far.
fn wchar() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|io| {
            io.lines()
                .find_map(|l| l.strip_prefix("wchar:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

enum Backend {
    Mem(ServeEngine),
    Durable {
        /// `None` only between a crash and the recovery that follows it.
        serve: Option<Box<DurableServe>>,
        /// The in-memory engine fed the same requests, to split the
        /// journal's share out of `DurableServe::apply`.
        twin: ServeEngine,
    },
}

fn engine() -> ServeEngine {
    ServeEngine::new(ServeConfig::default()).expect("the default serve config is valid")
}

fn open_durable(dir: &Path) -> io::Result<DurableServe> {
    DurableServe::open(
        ServeConfig::default(),
        crate::client::journal_config(dir, FSYNC),
    )
    .map(|(serve, _)| serve)
    .map_err(|e| io::Error::other(e.to_string()))
}

#[derive(Default)]
struct Counts {
    stats: DurabilityStats,
    replayed: u64,
    written: u64,
    /// Lines in each batch, indexed by the batch's span request id.
    batches: Vec<usize>,
    decisions: u64,
    failures: u64,
    mismatches: u64,
}

impl Counts {
    /// Adds another replay's counts; batch sizes are the same in every
    /// replay of one plan.
    fn merge(&mut self, other: Counts) {
        add(&mut self.stats, &other.stats);
        self.replayed += other.replayed;
        self.written += other.written;
        self.decisions += other.decisions;
        self.failures += other.failures;
        self.mismatches += other.mismatches;
        if self.batches.is_empty() {
            self.batches = other.batches;
        }
    }
}

fn add(into: &mut DurabilityStats, s: &DurabilityStats) {
    into.journal_appends += s.journal_appends;
    into.checkpoints += s.checkpoints;
    into.fsyncs += s.fsyncs;
}

/// Replays `plan` in process with a span around each batch's decode,
/// apply and encode, checking every response hash against `expect`.
fn layered(
    tracer: &mut Tracer,
    plan: &Plan,
    dir: Option<&Path>,
    expect: &[u64],
) -> io::Result<(u64, Counts)> {
    let mut backend = match dir {
        None => Backend::Mem(engine()),
        Some(dir) => Backend::Durable {
            serve: Some(Box::new(open_durable(dir)?)),
            twin: engine(),
        },
    };
    let mut counts = Counts::default();
    let mut snapshots: HashMap<usize, String> = HashMap::new();
    let mut steps = plan.steps().peekable();
    let mut batch: Vec<String> = Vec::with_capacity(BATCH);
    let mut line_no = 0usize;
    let mut id = 0u64;
    loop {
        batch.clear();
        while batch.len() < BATCH {
            match steps.peek() {
                None | Some(Step::Crash) => break,
                Some(_) => {}
            }
            match steps.next() {
                Some(Step::Line(text)) => batch.push(text),
                Some(Step::Restore { tenant, from }) => {
                    let snapshot = snapshots.remove(&from).ok_or_else(|| {
                        io::Error::other(format!("no snapshot response for line {from}"))
                    })?;
                    batch.push(format!(
                        r#"{{"op":"restore","tenant":"t{tenant}","snapshot":{snapshot}}}"#
                    ));
                }
                _ => unreachable!("peeked a line step"),
            }
        }
        if !batch.is_empty() {
            let requests: Vec<Result<ServeRequest, _>> = tracer.span("wire.decode", id, |_| {
                batch
                    .iter()
                    .map(|l| serde_json::from_str::<ServeRequest>(l))
                    .collect()
            });
            let refuse = |e: &serde_json::Error| ServeResponse::Error {
                code: "bad-request".to_owned(),
                detail: e.to_string(),
            };
            let responses: Vec<ServeResponse> = match &mut backend {
                Backend::Mem(engine) => tracer.span("engine.apply", id, |_| {
                    requests
                        .iter()
                        .map(|r| r.as_ref().map_or_else(refuse, |r| engine.apply(r)))
                        .collect()
                }),
                Backend::Durable { serve, twin } => {
                    let serve = serve.as_mut().expect("the durable engine is open");
                    tracer.span("engine.apply", id, |_| {
                        for r in requests.iter().flatten() {
                            black_box(twin.apply(r));
                        }
                    });
                    let before = wchar();
                    let responses = tracer.span("journal.apply", id, |_| {
                        requests
                            .iter()
                            .map(|r| r.as_ref().map_or_else(refuse, |r| serve.apply(r)))
                            .collect()
                    });
                    counts.written += wchar() - before;
                    responses
                }
            };
            let texts: Vec<String> = tracer.span("wire.encode", id, |_| {
                responses
                    .iter()
                    .map(|r| serde_json::to_string(r).expect("every ServeResponse serializes"))
                    .collect()
            });
            for text in texts {
                if expect.get(line_no) != Some(&fnv1a(FNV_BASIS, text.as_bytes())) {
                    counts.mismatches += 1;
                }
                if text.starts_with(r#"{"err""#) || text.starts_with(r#"{"shed""#) {
                    counts.failures += 1;
                } else if text.starts_with(r#"{"ok":"decision""#) {
                    counts.decisions += 1;
                } else if let Some(at) = text.find(r#","snapshot":"#) {
                    snapshots.insert(line_no, text[at + 12..text.len() - 1].to_owned());
                }
                line_no += 1;
            }
            counts.batches.push(batch.len());
            id += 1;
        }
        match steps.peek() {
            None => break,
            Some(Step::Line(_) | Step::Restore { .. }) => continue,
            Some(Step::Crash) => {}
        }
        steps.next();
        match &mut backend {
            Backend::Mem(_) => unreachable!("serve-mem plans have no crash points"),
            Backend::Durable { serve, .. } => {
                // Drop without finalising: what a kill leaves behind.
                if let Some(crashed) = serve.take() {
                    add(&mut counts.stats, crashed.stats());
                }
                let dir = dir.expect("a durable replay has a directory");
                let recovered = tracer.span("journal.recover", id, |_| open_durable(dir))?;
                counts.replayed += recovered.stats().replayed_records;
                *serve = Some(Box::new(recovered));
            }
        }
    }
    if let Backend::Durable {
        serve: Some(serve), ..
    } = &backend
    {
        add(&mut counts.stats, serve.stats());
    }
    Ok((line_no as u64, counts))
}

/// `DecisionCore::decide` over the session's decide stream, one
/// standalone core per tenant. Returns the decides made.
fn decide_cores(tracer: &mut Tracer, plan: &Plan) -> u64 {
    let mut cores: Vec<DecisionCore> = (0..plan.tenants)
        .map(|t| {
            let (policy, model) = roster(t);
            let policy: PolicySpec = policy.parse().expect("roster policies parse");
            let model: CostModel = model
                .unwrap_or("connection")
                .parse()
                .expect("roster models parse");
            DecisionCore::new(policy, model).expect("roster policies are valid")
        })
        .collect();
    let mut decides: Vec<(usize, Request)> = Vec::with_capacity(4096);
    let mut made = 0u64;
    let mut steps = plan.steps();
    loop {
        decides.clear();
        for step in steps.by_ref() {
            if let Step::Line(text) = step {
                if let Some((t, letter)) = decide_of(&text) {
                    let request = Request::from_letter(letter).expect("decide letters are r or w");
                    decides.push((t, request));
                    if decides.len() == decides.capacity() {
                        break;
                    }
                }
            }
        }
        if decides.is_empty() {
            return made;
        }
        tracer.span("engine.decide", made, |_| {
            for &(t, request) in &decides {
                black_box(cores[t].decide(request));
            }
        });
        made += decides.len() as u64;
    }
}

/// The traced run of one serve workload at `1/shrink` of its size, in
/// [`ROUNDS`] rounds: the same lines through `handle_line` in process, the
/// daemon over pipes, and a batched replay without and with a span per
/// batch and layer. Then standalone decision cores over the decide stream.
pub fn traced(
    tracer: &mut Tracer,
    mode: Mode,
    seed: u64,
    shrink: usize,
    mdr: &Path,
    scratch: &mut Scratch,
    pins: &Pins,
) -> io::Result<ServeLayers> {
    let plan = plan(mode, seed, shrink);
    let since = tracer.spans().len();
    let mut run = tracer.span("serve.handle_line", 0, |_| {
        in_process(&plan, scratch, FSYNC, None)
    })?;
    let reference = std::mem::take(&mut run.session);
    let mut correct = reference_ok(&plan, &reference, pins);
    // Every part of the split is measured in each of several rounds, so
    // that each can be taken at its fast end (see `fast_time`) from
    // samples spread over the same stretch of time.
    let (mut handle_chunks, mut process_rates) = (Vec::new(), Vec::new());
    let (mut busy_ns, mut stream_ns, mut streamed) = (0u64, 0u64, 0u64);
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let (mut lines, mut replayed) = (reference.lines, 0u64);
    let mut counts = Counts::default();
    let mut failed = reference.failures;
    for round in 0..ROUNDS {
        if round > 0 {
            run = tracer.span("serve.handle_line", round as u64, |_| {
                in_process(&plan, scratch, FSYNC, Some(&reference.hashes))
            })?;
            lines += run.session.lines;
            failed += run.session.failures + run.session.mismatches;
            correct &= run.session.digest == reference.digest;
        }
        handle_chunks.append(&mut run.chunk_ns);
        busy_ns += run.busy_ns;
        let (piped, _) = tracer.span("serve.process", round as u64, |_| {
            piped(&plan, mdr, scratch, &reference.hashes)
        })?;
        lines += piped.lines;
        failed += piped.failures + piped.mismatches;
        correct &= piped.digest == reference.digest;
        process_rates.extend(&piped.chunk_rates);
        stream_ns += piped.stream_ns;
        // Each incarnation's first line is timed as start-up, not as stream.
        streamed += piped.lines - 1 - plan.crashes as u64;

        // The same batched replay with tracing off, then on: the tracer's
        // overhead is the ratio of their wall times.
        let (untraced_dir, dir) = (data_dir(mode, scratch)?, data_dir(mode, scratch)?);
        let start = Instant::now();
        let (n, untraced) = layered(
            &mut Tracer::off(),
            &plan,
            untraced_dir.as_deref(),
            &reference.hashes,
        )?;
        untraced_s.push(start.elapsed().as_secs_f64());
        lines += n;
        failed += untraced.failures + untraced.mismatches;
        correct &= untraced.mismatches == 0;
        let start = Instant::now();
        let (n, traced) = layered(tracer, &plan, dir.as_deref(), &reference.hashes)?;
        traced_s.push(start.elapsed().as_secs_f64());
        replayed += n;
        counts.merge(traced);
    }
    lines += replayed;
    failed += counts.failures + counts.mismatches;
    correct &= counts.mismatches == 0;
    // Per-line times at the fast end of their chunks, or over whole
    // sessions when these are shorter than a chunk.
    let process_ns =
        fast_rate(&mut process_rates).map_or(stream_ns as f64 / streamed as f64, |r| 1e9 / r.value);
    let handle_ns = fast_time(&mut handle_chunks).map_or(
        busy_ns as f64 / (ROUNDS as u64 * reference.lines) as f64,
        |s| s.value,
    );
    let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let overhead_share = fastest(&traced_s) / fastest(&untraced_s) - 1.0;
    let decides = decide_cores(tracer, &plan);

    let per = |name: &str, n: f64| tracer.self_ns(name, since) as f64 / n.max(1.0);
    // A batch layer's time per line, at the fast end of its batches.
    let per_line = |name: &str| {
        let mut ns: Vec<f64> = tracer
            .self_times(name, since)
            .map(|(batch, ns)| ns as f64 / counts.batches[batch as usize] as f64)
            .collect();
        fast_time(&mut ns).map_or(0.0, |s| s.value)
    };
    let n = replayed as f64;
    let decode_ns = per_line("wire.decode");
    let apply_ns = per_line("engine.apply");
    let encode_ns = per_line("wire.encode");
    let stdio_ns = process_ns - handle_ns;
    let journal = (mode == Mode::Durable).then(|| {
        let kop = n / 1e3;
        JournalLayers {
            apply_ns: per_line("journal.apply") - apply_ns,
            fsyncs_per_kop: counts.stats.fsyncs as f64 / kop,
            checkpoints_per_kop: counts.stats.checkpoints as f64 / kop,
            appends_per_kop: counts.stats.journal_appends as f64 / kop,
            bytes_per_decision: counts.written as f64 / counts.decisions.max(1) as f64,
            recovery_ns_per_record: per("journal.recover", counts.replayed as f64),
        }
    });
    let journal_ns = journal.as_ref().map_or(0.0, |j| j.apply_ns);
    let mut layers = vec![("wire.decode", decode_ns), ("engine.apply", apply_ns)];
    if journal.is_some() {
        layers.push(("journal.apply", journal_ns));
    }
    layers.extend([("wire.encode", encode_ns), ("cli.stdio", stdio_ns)]);
    Ok(ServeLayers {
        decode_ns,
        apply_ns,
        decide_ns: per("engine.decide", decides as f64),
        encode_ns,
        stdio_ns,
        journal,
        split: Split {
            total_ns: process_ns,
            layers,
        },
        overhead_share,
        lines,
        failed,
        correct,
    })
}
