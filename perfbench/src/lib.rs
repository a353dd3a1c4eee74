//! End-to-end and per-layer benchmark of the sweep simulator and the
//! `mdr serve` decision daemon. See `perfbench/README.md`.

pub mod client;
pub mod gen;
pub mod pins;
pub mod report;
pub mod serve;
pub mod sim;
pub mod stats;
pub mod trace;

use gen::Mode;
use report::Outcome;
use serve::Scratch;
use std::io;
use std::path::PathBuf;
use trace::Tracer;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The E17, E18 and E19 preset grids on one thread.
    SimSweep,
    /// `mdr serve` with no data directory.
    ServeMem,
    /// `mdr serve --data-dir`, killed and restarted mid-session. Not in
    /// `BENCHMARK.json`: its fsync stalls follow the host's disk.
    ServeDurable,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SimSweep,
        Workload::ServeMem,
        Workload::ServeDurable,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimSweep => "sim-sweep",
            Workload::ServeMem => serve::name(Mode::Mem),
            Workload::ServeDurable => serve::name(Mode::Durable),
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// How long the measured section runs.
    pub seconds: f64,
    /// Run the traced replay instead of the timed run.
    pub trace: bool,
    /// The `mdr` binary.
    pub mdr: PathBuf,
    /// Where data directories and span files go.
    pub out: PathBuf,
}

/// Runs one invocation.
pub fn run(args: &Args) -> io::Result<Outcome> {
    std::fs::create_dir_all(&args.out)?;
    let pins = pins::Pins::shipped();
    let mut scratch = Scratch::new(&args.out);
    if !args.trace {
        return match args.workload {
            Workload::SimSweep => Ok(sim::timed(args.seconds, &pins)),
            Workload::ServeMem => serve::timed(
                Mode::Mem,
                args.seed,
                args.seconds,
                &args.mdr,
                &mut scratch,
                &pins,
            ),
            Workload::ServeDurable => serve::timed(
                Mode::Durable,
                args.seed,
                args.seconds,
                &args.mdr,
                &mut scratch,
                &pins,
            ),
        };
    }

    // The named workload is replayed at full size; every other layer is
    // measured on a reduced replay of the workload that exercises it, so
    // each traced run reports every layer.
    let mut tracer = Tracer::default();
    let w = args.workload;
    let (requests, rounds) = if w == Workload::SimSweep {
        (sim::REQUESTS, 20)
    } else {
        (sim::REQUESTS / 5, 20)
    };
    let sim = sim::traced(&mut tracer, requests, rounds, &pins);
    let shrink = |mine: bool| if mine { 1 } else { 10 };
    let wire_mode = if w == Workload::ServeDurable {
        Mode::Durable
    } else {
        Mode::Mem
    };
    let wire = serve::traced(
        &mut tracer,
        wire_mode,
        args.seed,
        shrink(w != Workload::SimSweep),
        &args.mdr,
        &mut scratch,
        &pins,
    )?;
    // serve-mem's traced run replays serve-durable at full size too, so
    // the journal layers have a full-size figure on a BENCHMARK.json
    // workload.
    let durable = if wire_mode == Mode::Durable {
        wire.clone()
    } else {
        let shrink = shrink(w == Workload::ServeMem);
        serve::traced(
            &mut tracer,
            Mode::Durable,
            args.seed,
            shrink,
            &args.mdr,
            &mut scratch,
            &pins,
        )?
    };
    let journal = durable
        .journal
        .clone()
        .expect("a serve-durable replay reports its journal");
    let spans = args
        .out
        .join(format!("trace-{}-{}.jsonl", w.name(), args.seed));
    tracer.write_jsonl(&spans)?;
    eprintln!("{}", sim.split.describe("sim ns/request"));
    eprintln!(
        "{}",
        wire.split
            .describe(&format!("{} ns/line", serve::name(wire_mode)))
    );
    eprintln!(
        "{} spans written to {}",
        tracer.spans().len(),
        spans.display()
    );

    let mut out = Outcome {
        correct: sim.drifted == 0 && wire.correct && durable.correct,
        attempted: sim.passes
            + wire.lines
            + if wire_mode == Mode::Durable {
                0
            } else {
                durable.lines
            },
        failed: sim.drifted
            + wire.failed
            + if wire_mode == Mode::Durable {
                0
            } else {
                durable.failed
            },
        metrics: Vec::new(),
    };
    out.push("workload.ns_per_arrival", sim.ns_per_arrival, "ns");
    out.push("calendar.ns_per_op", sim.calendar_ns_per_op, "ns");
    out.push("calendar.peek_ns", sim.calendar_peek_ns, "ns");
    out.push("protocol.ns_per_request", sim.protocol_ns_per_request, "ns");
    out.push("faults.ns_per_event", sim.faults_ns_per_event, "ns");
    out.push("arq.ns_per_event", sim.arq_ns_per_event, "ns");
    out.push("topology.ns_per_event", sim.topology_ns_per_event, "ns");
    out.push("sim.events_per_request", sim.events_per_request, "count");
    out.push("sim.ns_per_request", sim.split.total_ns, "ns");
    out.push("sim.residual_share", sim.split.residual_share(), "share");
    out.push("wire.decode_ns", wire.decode_ns, "ns");
    out.push("engine.apply_ns", wire.apply_ns, "ns");
    out.push("engine.decide_ns", wire.decide_ns, "ns");
    out.push("wire.encode_ns", wire.encode_ns, "ns");
    out.push("cli.stdio_ns", wire.stdio_ns, "ns");
    out.push("serve.ns_per_line", wire.split.total_ns, "ns");
    out.push("serve.residual_share", wire.split.residual_share(), "share");
    out.push("journal.apply_ns", journal.apply_ns, "ns");
    out.push("journal.fsyncs_per_kop", journal.fsyncs_per_kop, "1/kop");
    out.push(
        "journal.checkpoints_per_kop",
        journal.checkpoints_per_kop,
        "1/kop",
    );
    out.push("journal.appends_per_kop", journal.appends_per_kop, "1/kop");
    out.push(
        "journal.bytes_per_decision",
        journal.bytes_per_decision,
        "B",
    );
    out.push(
        "journal.recovery_ns_per_record",
        journal.recovery_ns_per_record,
        "ns",
    );
    out.push("trace.overhead_share", wire.overhead_share, "share");
    Ok(out)
}
