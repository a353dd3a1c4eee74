//! The sim-sweep workload: the shipped E17, E18 and E19 preset grids on
//! one thread.

use crate::pins::Pins;
use crate::report::{Outcome, Split};
use crate::stats::{fast_setup, fast_time};
use crate::trace::Tracer;
use mdr_bench::sweep::preset;
use mdr_bench::RunCfg;
use mdr_sim::calendar::CalendarQueue;
use mdr_sim::sweep::{SweepGrid, SweepOptions, SweepReport};
use mdr_sim::{ArrivalProcess, PoissonWorkload, ProtocolState};
use std::hint::black_box;
use std::time::Instant;

/// The presets, in the order every round runs them.
pub const PRESETS: [&str; 3] = ["e17", "e18", "e19"];
/// Requests per simulation run: above the CI size (4 000 for E17, 2 000
/// for E18 and E19), yet small enough that a pass lasts about 10 ms. Short
/// passes often fit in a quiet spell of the host, and a run makes hundreds
/// of each, so their fastest 1% rests on several passes.
pub const REQUESTS: usize = 5_000;
/// Set-up repetitions per run; the fast decile is reported.
const SETUPS: usize = 40;
/// Link latency of every preset grid (simulation time units).
const LATENCY: f64 = 0.05;

/// The shipped CI-size preset `name`.
pub fn ci_grid(name: &str) -> SweepGrid {
    preset(name, RunCfg { fast: true }).expect("every name in PRESETS is a shipped preset")
}

/// The shipped preset `name` with `requests` per run.
pub fn grid(name: &str, requests: usize) -> SweepGrid {
    ci_grid(name)
        .requests(requests)
        .expect("a positive request count is valid")
}

/// Pin key of preset `name` at `requests` per run.
pub fn pin_key(name: &str, requests: usize) -> String {
    format!("{name}-r{requests}")
}

/// Requests one pass of `grid` simulates.
pub fn requests(grid: &SweepGrid) -> u64 {
    (grid.runs() * grid.requests_per_run()) as u64
}

/// One single-threaded pass over `grid`, as the benchmark times it.
pub fn pass(grid: &SweepGrid) -> SweepReport {
    grid.run_timed(SweepOptions {
        threads: 1,
        chunk: 0,
    })
    .0
}

fn secs(ns: f64) -> f64 {
    ns / 1e9
}

/// CPU time of the calling thread, in nanoseconds. Unlike wall time it
/// excludes the time the host steals from this machine's virtual CPUs,
/// which on a shared host moves from one run to the next.
pub fn thread_cpu_ns() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout of
    // 64-bit Linux, and clock_gettime writes only through that pointer.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is always available on Linux");
    ts.tv_sec as f64 * 1e9 + ts.tv_nsec as f64
}

fn cpu_since(from: f64) -> f64 {
    thread_cpu_ns() - from
}

/// Peak resident set of this process, in MiB.
pub fn own_peak_rss_mb() -> f64 {
    crate::client::vm_hwm_kb(std::process::id()).unwrap_or(0) as f64 / 1024.0
}

/// The untraced run: set-up, then rounds of the three presets until
/// `seconds` of wall time have passed. Every figure is this thread's CPU
/// time, which on a dedicated core is its wall time, taken at the fast end
/// of its samples (see [`fast_time`]).
pub fn timed(seconds: f64, pins: &Pins) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let check = |out: &mut Outcome, name: &str, grid: &SweepGrid, report: &SweepReport| {
        out.attempted += 1;
        let key = pin_key(name, grid.requests_per_run());
        if !pins.matches("sim-sweep", &key, report.ledger_digest()) {
            eprintln!("sim-sweep: {key} ledger digest drifted");
            out.failed += 1;
        }
    };

    // Set-up: build the grids and run the CI-size presets once, so caches
    // and the allocator are warm before anything is timed. It is repeated
    // at even intervals through the run, so that the set-ups sample the
    // host's quiet and contended spells as the passes do.
    let set_up = |out: &mut Outcome| {
        let start = thread_cpu_ns();
        for name in PRESETS {
            black_box(grid(name, REQUESTS));
            let ci = ci_grid(name);
            let report = pass(&ci);
            check(out, name, &ci, &report);
        }
        cpu_since(start)
    };
    let mut setups = Vec::with_capacity(SETUPS);
    setups.push(set_up(&mut out));

    let mut pass_ns: [Vec<f64>; 3] = Default::default();
    let started = Instant::now();
    while pass_ns[0].is_empty() || started.elapsed().as_secs_f64() < seconds {
        for (i, name) in PRESETS.into_iter().enumerate() {
            let start = thread_cpu_ns();
            let g = grid(name, REQUESTS);
            let report = pass(&g);
            pass_ns[i].push(cpu_since(start));
            check(&mut out, name, &g, &report);
        }
        let due = (started.elapsed().as_secs_f64() / seconds * SETUPS as f64) as usize;
        if setups.len() < due.min(SETUPS) {
            setups.push(set_up(&mut out));
        }
    }
    while setups.len() < SETUPS {
        setups.push(set_up(&mut out));
    }

    // Each preset's pass time at the fast end, and from it the CPU time per
    // 1 000 of its requests. Over all requests of a round, each charged its
    // pass's mean, the percentiles of that time fall on whole presets.
    let rounds = pass_ns[0].len();
    let mut fast_ns = 0.0;
    let mut per_k_request_us = Vec::with_capacity(PRESETS.len());
    for (name, passes) in PRESETS.iter().zip(&mut pass_ns) {
        let ns = fast_time(passes).expect("at least one round").value;
        let simulated = requests(&grid(name, REQUESTS));
        fast_ns += ns;
        per_k_request_us.push((ns / 1e3 / (simulated as f64 / 1e3), simulated));
    }
    per_k_request_us.sort_by(|a, b| a.0.total_cmp(&b.0));
    let round_requests: u64 = per_k_request_us.iter().map(|&(_, n)| n).sum();
    let at = |q: f64| {
        let rank = q * round_requests as f64;
        let mut below = 0;
        per_k_request_us
            .iter()
            .find(|&&(_, n)| {
                below += n;
                below as f64 >= rank
            })
            .map_or(0.0, |&(us, _)| us)
    };
    let rate = round_requests as f64 / secs(fast_ns);
    let (p50, p99) = (at(0.5), at(0.99));
    eprintln!(
        "sim-sweep: {rounds} rounds; {rate:.0} requests/s; per 1k requests p50 {p50:.1} us, \
         p99 {p99:.1} us (fastest 1% of each preset's passes)"
    );
    out.push(
        "setup_s",
        secs(fast_setup(&mut setups).expect("set-ups ran").value),
        "s",
    );
    out.push("requests_per_s", rate, "1/s");
    out.push("latency_p50_us", p50, "us");
    out.push("peak_rss_mb", own_peak_rss_mb(), "MB");
    out
}

/// The layer each preset adds over its no-layer cell.
#[derive(Debug, Clone, Copy)]
enum Axis {
    Faults,
    Arq,
    Topology,
}

impl Axis {
    fn of(name: &str) -> Axis {
        match name {
            "e17" => Axis::Faults,
            "e18" => Axis::Arq,
            _ => Axis::Topology,
        }
    }

    /// `grid` with this axis cut to its no-layer cell.
    fn cut(self, grid: &SweepGrid) -> SweepGrid {
        let g = grid.clone();
        match self {
            Axis::Faults => g.fault_plans(vec![None]),
            Axis::Arq => g.arq_configs(vec![None]),
            Axis::Topology => g.topology_configs(vec![None]),
        }
        .expect("a single no-layer cell is a valid axis")
    }

    fn spans(self) -> (&'static str, &'static str) {
        match self {
            Axis::Faults => ("sweep.e17", "sweep.e17.cut"),
            Axis::Arq => ("sweep.e18", "sweep.e18.cut"),
            Axis::Topology => ("sweep.e19", "sweep.e19.cut"),
        }
    }
}

/// Per-layer figures of the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct SimLayers {
    /// `PoissonWorkload::next_arrival`.
    pub ns_per_arrival: f64,
    /// One `CalendarQueue` push, `peek_key` and pop.
    pub calendar_ns_per_op: f64,
    /// One `peek_key` on an empty queue.
    pub calendar_peek_ns: f64,
    /// `ProtocolState::submit` and `deliver` until idle.
    pub protocol_ns_per_request: f64,
    /// Marginal per-event cost of the fault, ARQ and topology layers.
    pub faults_ns_per_event: f64,
    /// See `faults_ns_per_event`.
    pub arq_ns_per_event: f64,
    /// See `faults_ns_per_event`.
    pub topology_ns_per_event: f64,
    /// Simulation events per simulated request.
    pub events_per_request: f64,
    /// End-to-end ns per simulated request, split by layer.
    pub split: Split,
    /// Passes run and passes whose digest drifted.
    pub passes: u64,
    /// See `passes`.
    pub drifted: u64,
}

/// Replays one sweep cell's inputs through the workload, calendar and
/// protocol layers. Returns (arrivals, calendar ops, requests); the
/// empty-queue peeks are as many as the arrivals.
fn replay_cell(
    tracer: &mut Tracer,
    cell: &mdr_sim::sweep::CellReport,
    requests: usize,
    id: u64,
) -> (u64, u64, u64) {
    let arrivals = tracer.span("workload", id, |_| {
        let mut w = PoissonWorkload::from_theta(1.0, cell.theta, cell.workload_seed);
        (0..requests)
            .map(|_| w.next_arrival().expect("Poisson arrivals never end").time)
            .collect::<Vec<f64>>()
    });
    // Each arrival is popped, then one message delivery a link latency
    // later — the sim's typical handful of pending events.
    let ops = tracer.span("calendar", id, |_| {
        let mut q: CalendarQueue<u8> = CalendarQueue::new();
        let mut seq = 0u64;
        let mut ops = 0u64;
        let mut next = arrivals.iter();
        if let Some(&t) = next.next() {
            q.push(t, 0, seq, 0);
            seq += 1;
        }
        while let Some(key) = q.peek_key() {
            black_box(key);
            let Some((at, kind)) = q.pop() else { break };
            ops += 1;
            if kind == 0 {
                q.push(at + LATENCY, 1, seq, 1);
                seq += 1;
                if let Some(&t) = next.next() {
                    q.push(t, 0, seq, 0);
                    seq += 1;
                }
            }
        }
        ops
    });
    // The sim peeks at the queue head once per event. In a no-layer cell
    // it stages the next arrival and the sole in-flight delivery outside
    // the queue, so that peek nearly always finds the queue empty.
    tracer.span("calendar.peek", id, |_| {
        let mut q: CalendarQueue<u8> = CalendarQueue::new();
        for _ in 0..arrivals.len() {
            black_box(black_box(&mut q).peek_key());
        }
    });
    let served = tracer.span("protocol", id, |_| {
        let mut p = ProtocolState::new(cell.policy);
        let mut n = 0u64;
        for request in &cell.report.schedule {
            p.submit(request);
            while !p.idle() {
                p.deliver(0);
            }
            n += 1;
        }
        black_box(p.counts());
        n
    });
    (arrivals.len() as u64, ops, served)
}

/// The traced run: `rounds` rounds, each of one pass of every preset at
/// `requests` per run, one of its no-layer cut, and one replay of every
/// cell's inputs through the workload, calendar and protocol layers. Each
/// figure is the fastest round's, for the reason given at [`fast_time`].
pub fn traced(tracer: &mut Tracer, requests: usize, rounds: usize, pins: &Pins) -> SimLayers {
    const REPLAYED: [&str; 4] = ["workload", "calendar", "calendar.peek", "protocol"];
    let mut passes = 0;
    let mut drifted = 0;
    let (mut arrivals, mut ops, mut replayed) = (0u64, 0u64, 0u64);
    let mut totals = Vec::new();
    let mut full: [Vec<f64>; 3] = Default::default();
    let mut cut: [Vec<f64>; 3] = Default::default();
    let mut layer_ns: [Vec<f64>; 4] = Default::default();
    let mut events = [0u64; 3];
    let mut simulated = 0u64;
    for round in 0..rounds.max(1) {
        let mut round_ns = 0.0;
        let mut reports = Vec::with_capacity(PRESETS.len());
        for (i, name) in PRESETS.into_iter().enumerate() {
            let axis = Axis::of(name);
            let (full_span, cut_span) = axis.spans();
            let g = grid(name, requests);
            let report = tracer.span(full_span, round as u64, |_| pass(&g));
            let full_ns = tracer.last_ns(full_span) as f64;
            passes += 1;
            if !pins.matches(
                "sim-sweep",
                &pin_key(name, requests),
                report.ledger_digest(),
            ) {
                drifted += 1;
            }
            let cut_grid = axis.cut(&g);
            let cut_report = tracer.span(cut_span, round as u64, |_| pass(&cut_grid));
            let cut_ns = tracer.last_ns(cut_span) as f64;
            full[i].push(full_ns / report.events_processed as f64);
            cut[i].push(cut_ns / cut_report.events_processed as f64);
            round_ns += full_ns;
            if round == 0 {
                events[i] = report.events_processed;
                simulated += self::requests(&g);
            }
            reports.push((report, g.requests_per_run()));
        }
        totals.push(round_ns);
        let mark = tracer.spans().len();
        for (i, (report, per_run)) in reports.iter().enumerate() {
            for (c, cell) in report.cells.iter().enumerate() {
                let id = (i * 1000 + c) as u64;
                let (a, o, r) = replay_cell(tracer, cell, *per_run, id);
                if round == 0 {
                    arrivals += a;
                    ops += o;
                    replayed += r;
                }
            }
        }
        for (ns, name) in layer_ns.iter_mut().zip(REPLAYED) {
            ns.push(tracer.self_ns(name, mark) as f64);
        }
    }
    let fastest = |v: &mut Vec<f64>| v.iter().copied().fold(f64::INFINITY, f64::min);
    let [workload_ns, calendar_ns, peek_ns, protocol_ns] = layer_ns.each_mut().map(fastest);
    let ns_per_arrival = workload_ns / arrivals.max(1) as f64;
    let calendar_ns_per_op = calendar_ns / ops.max(1) as f64;
    let calendar_peek_ns = peek_ns / arrivals.max(1) as f64;
    let protocol_ns_per_request = protocol_ns / replayed.max(1) as f64;
    let mut marginal = |i: usize| fastest(&mut full[i]) - fastest(&mut cut[i]);
    let [faults, arq, topology] = [marginal(0), marginal(1), marginal(2)];
    let all_events: u64 = events.iter().sum();
    let r = simulated.max(1) as f64;
    // The calendar is billed one empty-queue peek per event. The pushes
    // and pops of queued events (ghost copies, timers, link and handoff
    // events) belong to the fault, ARQ and topology layers: the no-layer
    // cut queues almost nothing, so they are inside those marginals.
    let split = Split {
        total_ns: fastest(&mut totals) / r,
        layers: vec![
            ("workload", ns_per_arrival * arrivals as f64 / r),
            ("calendar", calendar_peek_ns * all_events as f64 / r),
            ("protocol", protocol_ns_per_request * replayed as f64 / r),
            ("faults", faults * events[0] as f64 / r),
            ("arq", arq * events[1] as f64 / r),
            ("topology", topology * events[2] as f64 / r),
        ],
    };
    SimLayers {
        ns_per_arrival,
        calendar_ns_per_op,
        calendar_peek_ns,
        protocol_ns_per_request,
        faults_ns_per_event: faults,
        arq_ns_per_event: arq,
        topology_ns_per_event: topology,
        events_per_request: all_events as f64 / r,
        split,
        passes,
        drifted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark times the shipped presets, not a re-encoding: at equal
    /// request counts its passes reproduce `run_serial`'s ledger digests.
    #[test]
    fn passes_reconcile_with_run_serial_on_the_shipped_presets() {
        for name in PRESETS {
            let small = grid(name, 300);
            assert_eq!(
                pass(&small).ledger_digest(),
                small.run_serial().ledger_digest(),
                "{name}"
            );
        }
    }

    /// The benchmark times the shipped presets, not a re-encoding: at equal
    /// request counts its pinned digests are `run_serial`'s on
    /// `mdr_bench::sweep::preset`.
    #[test]
    fn pinned_digests_are_the_run_serial_digests() {
        let pins = Pins::shipped();
        for name in PRESETS {
            for requests in [ci_grid(name).requests_per_run(), REQUESTS] {
                let digest = grid(name, requests).run_serial().ledger_digest();
                assert!(
                    pins.matches("sim-sweep", &pin_key(name, requests), digest),
                    "{name}"
                );
            }
        }
        // The CI-size digests are also the committed BENCH_*.json ones.
        assert!(pins.matches("sim-sweep", "e17-r4000", 0x686f_e07d_53ce_b53e));
        assert!(pins.matches("sim-sweep", "e18-r2000", 0x734b_ebd2_ed35_1b61));
    }

    #[test]
    fn traced_layers_explain_most_of_the_end_to_end_time() {
        let mut tracer = Tracer::default();
        let layers = traced(&mut tracer, REQUESTS, 3, &Pins::shipped());
        assert_eq!((layers.passes, layers.drifted), (9, 0));
        let share = layers.split.residual_share();
        assert!((-0.2..=0.7).contains(&share), "residual share {share}");
        assert!(layers.ns_per_arrival > 0.0 && layers.protocol_ns_per_request > 0.0);
        assert!(layers.events_per_request > 1.0);
    }
}
