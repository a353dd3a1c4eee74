//! The closed-loop client and the two servers it drives: the real
//! `mdr serve` process over pipes, and the same engine in process (the
//! reference the process's responses are checked against).

use crate::gen::{Plan, Step};
use crate::stats::{fnv1a, FNV_BASIS};
use mdr_sim::{DurableServe, FsyncPolicy, JournalConfig, ServeConfig, ServeEngine};
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Lines the client keeps outstanding. Responses run to ~300 bytes and
/// requests to ~600 (a restore carrying its snapshot), so 32 lines fit in
/// both 64 KiB pipe buffers and the client can never deadlock the daemon.
pub const WINDOW: usize = 32;
/// Streamed lines per chunk of the throughput and latency figures: about
/// 15 ms, short enough to fit in a quiet spell of the host, with 40 lines
/// beyond the chunk's 99th percentile.
pub const CHUNK: usize = 4096;
/// Journal checkpoint cadence of serve-durable: the production default.
pub const CHECKPOINT_EVERY: u64 = 1024;
/// Journal fsync cadence of serve-durable: the production default.
pub const FSYNC: FsyncPolicy = FsyncPolicy::Interval(64);

/// A newline-JSON decision server the client can talk to.
pub trait Server {
    /// Sends request lines, each ending in `\n`.
    fn send(&mut self, lines: &[u8]) -> io::Result<()>;
    /// Reads the next response line into `line`, without its newline.
    fn recv(&mut self, line: &mut String) -> io::Result<()>;
    /// Kills the server and starts it again (on the same data directory).
    fn restart(&mut self) -> io::Result<()>;
    /// When the current incarnation was started.
    fn started(&self) -> Instant;
    /// Whether a whole response line can be read without blocking.
    fn ready(&self) -> bool;
    /// CPU time the current incarnation has used so far, once it is
    /// idle waiting for input; `None` when the server runs in process.
    fn idle_cpu_ns(&mut self) -> Option<u64> {
        None
    }
    /// Records the current incarnation's peak memory before it goes away.
    fn sample(&mut self) {}
    /// Waits for the server to end after its `shutdown` response.
    fn finish(&mut self) -> io::Result<()>;
}

/// What one session produced.
#[derive(Debug, Clone, Default)]
pub struct Session {
    /// Request lines sent.
    pub lines: u64,
    /// `decision` responses read.
    pub decisions: u64,
    /// `err` and `shed` responses.
    pub failures: u64,
    /// Responses whose hash differs from the expected one.
    pub mismatches: u64,
    /// FNV-1a over every response byte, each line followed by `\n`.
    pub digest: u64,
    /// Per-line FNV-1a hashes, when recorded.
    pub hashes: Vec<u64>,
    /// Session wall time less set-up and restarts.
    pub stream_ns: u64,
    /// Wall time from writing each streamed line to reading its response.
    /// An incarnation's first line, sent alone as the start-up probe, is
    /// left out.
    pub latency_ns: Vec<u32>,
    /// Responses read per wall second over each run of [`CHUNK`]
    /// streamed lines. A chunk never spans a restart.
    pub chunk_rates: Vec<f64>,
    /// Server CPU time up to its first response.
    pub setup_cpu_ns: Option<u64>,
    /// Server CPU time from each restart to the first response after it.
    pub recoveries_cpu_ns: Vec<u64>,
}

/// What the client records besides the digest.
#[derive(Debug, Clone, Copy, Default)]
pub struct Record<'a> {
    /// Per-line hashes to compare against.
    pub expect: Option<&'a [u64]>,
    /// Keep per-line hashes.
    pub hashes: bool,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn nanos(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Runs one session of `plan` against `server` in a closed loop with at
/// most `window` lines outstanding. Each incarnation's first line goes out
/// alone, so its response marks the end of start-up. A crash waits until
/// every response is read, so the kill lands after a known line.
pub fn run_session(
    plan: &Plan,
    server: &mut impl Server,
    window: usize,
    record: Record<'_>,
) -> io::Result<Session> {
    let mut steps = plan.steps().peekable();
    let session_start = server.started();
    let mut out = Session {
        digest: FNV_BASIS,
        ..Session::default()
    };
    let mut snapshots: HashMap<usize, String> = HashMap::new();
    let mut batch: Vec<u8> = Vec::new();
    let mut line = String::new();
    let (mut sent, mut read) = (0usize, 0usize);
    let mut probing = true;
    let mut crashed_at: Option<Instant> = None;
    let mut paused_ns = 0u64;
    let mut sent_at: VecDeque<Instant> = VecDeque::with_capacity(window);
    // Start of the current throughput chunk and the lines read since.
    let mut chunk: Option<(Instant, usize)> = None;
    loop {
        let limit = if probing { 1 } else { window.max(1) };
        batch.clear();
        let mut queued = 0;
        // Refill only once half the window has drained, so the daemon
        // always reads lines in batches of similar size: its per-line
        // read cost then does not depend on how promptly the client ran.
        let refill = sent - read <= limit / 2;
        while refill && sent + queued - read < limit {
            match steps.peek() {
                None => break,
                Some(Step::Crash) => {
                    if queued == 0 && sent == read {
                        steps.next();
                        chunk = None;
                        crashed_at = Some(Instant::now());
                        server.restart()?;
                        probing = true;
                    }
                    break;
                }
                Some(_) => {}
            }
            match steps.next() {
                Some(Step::Line(text)) => batch.extend_from_slice(text.as_bytes()),
                Some(Step::Restore { tenant, from }) => {
                    let snapshot = snapshots
                        .remove(&from)
                        .ok_or_else(|| bad(format!("no snapshot response for line {from}")))?;
                    write!(
                        batch,
                        r#"{{"op":"restore","tenant":"t{tenant}","snapshot":{snapshot}}}"#
                    )?;
                }
                _ => unreachable!("peeked a line step"),
            }
            batch.push(b'\n');
            queued += 1;
            if steps.peek().is_none() {
                server.sample();
            }
        }
        if queued > 0 {
            let now = Instant::now();
            sent_at.extend((0..queued).map(|_| now));
            server.send(&batch)?;
            sent += queued;
        }
        if read == sent {
            if steps.peek().is_none() {
                break;
            }
            continue;
        }
        // Block for one response, then take every other one already
        // buffered, so the freed slots go out in a single write.
        let mut blocking = true;
        while read < sent && (blocking || server.ready()) {
            blocking = false;
            server.recv(&mut line)?;
            let now = Instant::now();
            let written = sent_at
                .pop_front()
                .ok_or_else(|| bad("response to no line"))?;
            if probing {
                probing = false;
                let cpu = server.idle_cpu_ns();
                match crashed_at.take() {
                    Some(crash) => {
                        out.recoveries_cpu_ns.extend(cpu);
                        paused_ns += nanos(crash, Instant::now());
                    }
                    None => {
                        out.setup_cpu_ns = cpu;
                        paused_ns += nanos(session_start, Instant::now());
                    }
                }
            } else {
                let ns = nanos(written, now);
                out.latency_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
                match &mut chunk {
                    None => chunk = Some((now, 0)),
                    Some((start, n)) => {
                        *n += 1;
                        if *n == CHUNK {
                            out.chunk_rates
                                .push(CHUNK as f64 / (nanos(*start, now) as f64 / 1e9));
                            chunk = Some((now, 0));
                        }
                    }
                }
            }
            let hash = fnv1a(FNV_BASIS, line.as_bytes());
            out.digest = fnv1a(fnv1a(out.digest, line.as_bytes()), b"\n");
            if let Some(expect) = record.expect {
                if expect.get(read) != Some(&hash) {
                    out.mismatches += 1;
                }
            }
            if record.hashes {
                out.hashes.push(hash);
            }
            if line.starts_with(r#"{"err""#) || line.starts_with(r#"{"shed""#) {
                out.failures += 1;
            } else if line.starts_with(r#"{"ok":"decision""#) {
                out.decisions += 1;
            } else if line.starts_with(r#"{"ok":"snapshot""#) {
                let payload = line
                    .find(r#","snapshot":"#)
                    .and_then(|at| line.get(at + 12..line.len() - 1))
                    .ok_or_else(|| bad("snapshot response without a snapshot"))?;
                snapshots.insert(read, payload.to_owned());
            }
            read += 1;
        }
    }
    server.finish()?;
    out.lines = sent as u64;
    out.stream_ns = nanos(session_start, Instant::now()).saturating_sub(paused_ns);
    Ok(out)
}

// ---------------------------------------------------------------------------
// The in-process server.
// ---------------------------------------------------------------------------

/// The engine `mdr serve` wraps, driven in process.
#[derive(Debug)]
enum Backend {
    Mem(ServeEngine),
    Durable(DurableServe),
}

/// [`ServeEngine`] or [`DurableServe`] behind the [`Server`] trait. A
/// restart drops the durable engine without finalising it — what a kill
/// leaves behind, since journal appends are unbuffered writes — and
/// recovers from the same directory.
#[derive(Debug)]
pub struct InProcess {
    backend: Option<Backend>,
    journal: Option<JournalConfig>,
    responses: VecDeque<String>,
    started: Instant,
    /// Nanoseconds spent inside `handle_line`.
    pub busy_ns: u64,
    /// Mean `handle_line` time per line over each run of [`CHUNK`] lines.
    pub chunk_ns: Vec<f64>,
    chunk_busy_ns: u64,
    chunk_lines: usize,
}

fn to_io(e: mdr_sim::ConfigError) -> io::Error {
    io::Error::other(e.to_string())
}

/// The serve-durable journal configuration on `dir`.
pub fn journal_config(dir: &Path, fsync: FsyncPolicy) -> JournalConfig {
    let mut journal = JournalConfig::new(dir);
    journal.fsync = fsync;
    journal.checkpoint_every = CHECKPOINT_EVERY;
    journal
}

impl InProcess {
    /// An in-memory engine with the daemon's default configuration.
    pub fn mem() -> io::Result<InProcess> {
        let engine = ServeEngine::new(ServeConfig::default()).map_err(to_io)?;
        Ok(InProcess::with(Backend::Mem(engine), None))
    }

    /// A durable engine journaling to `dir` with `fsync`.
    pub fn durable(dir: &Path, fsync: FsyncPolicy) -> io::Result<InProcess> {
        let journal = journal_config(dir, fsync);
        let (serve, _) =
            DurableServe::open(ServeConfig::default(), journal.clone()).map_err(to_io)?;
        Ok(InProcess::with(Backend::Durable(serve), Some(journal)))
    }

    fn with(backend: Backend, journal: Option<JournalConfig>) -> InProcess {
        InProcess {
            backend: Some(backend),
            journal,
            responses: VecDeque::new(),
            started: Instant::now(),
            busy_ns: 0,
            chunk_ns: Vec::new(),
            chunk_busy_ns: 0,
            chunk_lines: 0,
        }
    }
}

impl Server for InProcess {
    fn send(&mut self, lines: &[u8]) -> io::Result<()> {
        let text = std::str::from_utf8(lines).map_err(|_| bad("request is not UTF-8"))?;
        for line in text.lines() {
            let start = Instant::now();
            let response = match &mut self.backend {
                Some(Backend::Mem(engine)) => engine.handle_line(line),
                Some(Backend::Durable(serve)) => serve.handle_line(line),
                None => return Err(bad("server is down")),
            };
            let ns = nanos(start, Instant::now());
            self.busy_ns += ns;
            self.chunk_busy_ns += ns;
            self.chunk_lines += 1;
            if self.chunk_lines == CHUNK {
                self.chunk_ns.push(self.chunk_busy_ns as f64 / CHUNK as f64);
                (self.chunk_busy_ns, self.chunk_lines) = (0, 0);
            }
            self.responses.push_back(response);
        }
        Ok(())
    }

    fn recv(&mut self, line: &mut String) -> io::Result<()> {
        *line = self
            .responses
            .pop_front()
            .ok_or_else(|| bad("no response pending"))?;
        Ok(())
    }

    fn restart(&mut self) -> io::Result<()> {
        self.responses.clear();
        self.backend = None;
        self.started = Instant::now();
        self.backend = Some(match &self.journal {
            None => Backend::Mem(ServeEngine::new(ServeConfig::default()).map_err(to_io)?),
            Some(journal) => {
                let (serve, _) =
                    DurableServe::open(ServeConfig::default(), journal.clone()).map_err(to_io)?;
                Backend::Durable(serve)
            }
        });
        Ok(())
    }

    fn started(&self) -> Instant {
        self.started
    }

    fn ready(&self) -> bool {
        !self.responses.is_empty()
    }

    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The `mdr serve` process.
// ---------------------------------------------------------------------------

/// `mdr serve` as a child process speaking over its stdin and stdout.
#[derive(Debug)]
pub struct Process {
    program: PathBuf,
    args: Vec<String>,
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    started: Instant,
    peak_kb: u64,
}

/// The `mdr serve` arguments for serve-mem (`None`) or serve-durable on
/// `dir`.
pub fn serve_args(dir: Option<&Path>) -> Vec<String> {
    let mut args = vec!["serve".to_owned()];
    if let Some(dir) = dir {
        args.extend([
            "--data-dir".to_owned(),
            dir.display().to_string(),
            "--fsync".to_owned(),
            "interval:64".to_owned(),
            "--checkpoint-every".to_owned(),
            CHECKPOINT_EVERY.to_string(),
        ]);
    }
    args
}

impl Process {
    /// Spawns `program args…`.
    pub fn spawn(program: &Path, args: Vec<String>) -> io::Result<Process> {
        let started = Instant::now();
        let (child, stdin, stdout) = Self::start(program, &args)?;
        Ok(Process {
            program: program.to_path_buf(),
            args,
            child,
            stdin: Some(stdin),
            stdout,
            started,
            peak_kb: 0,
        })
    }

    fn start(
        program: &Path,
        args: &[String],
    ) -> io::Result<(Child, ChildStdin, BufReader<ChildStdout>)> {
        let mut child = Command::new(program)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let (Some(stdin), Some(stdout)) = (child.stdin.take(), child.stdout.take()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(bad("child has no pipes"));
        };
        if let Err(e) = set_nonblocking(&stdout) {
            let _ = child.kill();
            let _ = child.wait();
            return Err(e);
        }
        Ok((child, stdin, BufReader::with_capacity(64 * 1024, stdout)))
    }
}

/// Puts the read end of the daemon's stdout pipe in non-blocking mode, so
/// that the client polls for responses instead of sleeping. A sleeping
/// client leaves its virtual CPU idle, and on a shared host the time to
/// wake an idle virtual CPU follows the host's load, not the daemon.
fn set_nonblocking(stdout: &ChildStdout) -> io::Result<()> {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn fcntl(fd: i32, cmd: i32, ...) -> i32;
    }
    const F_GETFL: i32 = 3;
    const F_SETFL: i32 = 4;
    const O_NONBLOCK: i32 = 0o4000;
    let fd = stdout.as_raw_fd();
    // SAFETY: `fd` is the open pipe `stdout` owns for the whole call, and
    // F_GETFL and F_SETFL take no pointer argument.
    let flags = unsafe { fcntl(fd, F_GETFL) };
    // SAFETY: as above; F_SETFL takes the flags as an int.
    if flags < 0 || unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// CPU time process `pid` has been charged, in nanoseconds: the first
/// field of `/proc/<pid>/schedstat`. It excludes time the host steals from
/// this machine's virtual CPUs. It is current for a process that is
/// sleeping and up to a scheduler tick stale for one that is running.
pub fn cpu_ns(pid: u32) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/schedstat")).ok()?;
    stat.split_whitespace().next()?.parse().ok()
}

/// Whether process `pid` is asleep (state `S` in `/proc/<pid>/stat`).
fn asleep(pid: u32) -> bool {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|stat| {
            stat.rsplit_once(") ")
                .map(|(_, rest)| rest.starts_with('S'))
        })
        .unwrap_or(false)
}

impl Process {
    /// Peak resident memory over every incarnation so far, in KiB.
    pub fn peak_rss_kb(&self) -> u64 {
        self.peak_kb
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, in KiB.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

impl Server for Process {
    fn send(&mut self, lines: &[u8]) -> io::Result<()> {
        match &mut self.stdin {
            Some(stdin) => stdin.write_all(lines),
            None => Err(bad("stdin already closed")),
        }
    }

    fn recv(&mut self, line: &mut String) -> io::Result<()> {
        line.clear();
        // `read_line` keeps the bytes it read before the pipe ran dry, so
        // each retry appends the rest of the line.
        loop {
            match self.stdout.read_line(line) {
                Ok(_) if line.ends_with('\n') => {
                    line.pop();
                    return Ok(());
                }
                Ok(_) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "mdr serve closed its output",
                    ))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::hint::spin_loop(),
                Err(e) => return Err(e),
            }
        }
    }

    fn restart(&mut self) -> io::Result<()> {
        self.sample();
        self.stdin = None;
        self.child.kill()?;
        self.child.wait()?;
        self.started = Instant::now();
        let (child, stdin, stdout) = Self::start(&self.program, &self.args)?;
        self.child = child;
        self.stdin = Some(stdin);
        self.stdout = stdout;
        Ok(())
    }

    fn started(&self) -> Instant {
        self.started
    }

    fn ready(&self) -> bool {
        self.stdout.buffer().contains(&b'\n')
    }

    fn idle_cpu_ns(&mut self) -> Option<u64> {
        // The daemon has answered every line sent; once it blocks on its
        // input its CPU clock is exact.
        let pid = self.child.id();
        for _ in 0..10_000 {
            if asleep(pid) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_micros(20));
        }
        cpu_ns(pid)
    }

    fn sample(&mut self) {
        if let Some(kb) = vm_hwm_kb(self.child.id()) {
            self.peak_kb = self.peak_kb.max(kb);
        }
    }

    fn finish(&mut self) -> io::Result<()> {
        self.stdin = None;
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(bad(format!("mdr serve exited with {status}")))
        }
    }
}

impl Drop for Process {
    fn drop(&mut self) {
        // Error paths must not leave a daemon behind; after `finish` the
        // child is already reaped and both calls are no-ops.
        self.stdin = None;
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Mode, TENANTS};

    /// `cat` echoes each request back as its response: a server that
    /// never answers before it has read, which is what the window must
    /// survive without a pipe-buffer deadlock.
    #[test]
    fn windowed_client_completes_against_an_echo_server() {
        let plan = Plan {
            mode: Mode::Mem,
            seed: 5,
            tenants: TENANTS,
            decides: 50_000,
            crashes: 0,
        };
        let mut cat = Process::spawn(Path::new("cat"), Vec::new()).expect("cat runs");
        let session =
            run_session(&plan, &mut cat, WINDOW, Record::default()).expect("the session completes");
        assert_eq!(session.lines, (TENANTS + 50_000 + 1) as u64);
        assert!(session.setup_cpu_ns.is_some());
        assert_eq!(session.latency_ns.len() as u64, session.lines - 1);
        assert_eq!(
            session.chunk_rates.len(),
            (session.lines as usize - 2) / CHUNK
        );
        let mut digest = FNV_BASIS;
        for step in plan.steps() {
            if let Step::Line(text) = step {
                digest = fnv1a(fnv1a(digest, text.as_bytes()), b"\n");
            }
        }
        assert_eq!(session.digest, digest);
    }

    /// The windowed in-process session digests responses exactly as the
    /// shipped `run_serve_bench` does over the same lines.
    #[test]
    fn in_process_session_matches_the_shipped_serve_bench() {
        let plan = Plan {
            mode: Mode::Mem,
            seed: 9,
            tenants: 16,
            decides: 1_600,
            crashes: 0,
        };
        let lines: Vec<String> = plan
            .steps()
            .filter_map(|s| match s {
                Step::Line(text) => Some(text),
                _ => None,
            })
            .collect();
        let shipped = mdr_sim::engine::run_serve_bench(&lines, ServeConfig::default()).unwrap();
        let mut server = InProcess::mem().unwrap();
        let session = run_session(&plan, &mut server, WINDOW, Record::default()).unwrap();
        assert_eq!(session.digest, shipped.digest);
        assert_eq!(session.decisions, shipped.decisions);
        assert_eq!(session.failures, 0);
    }
}
