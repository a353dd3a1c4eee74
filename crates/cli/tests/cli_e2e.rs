//! End-to-end tests of the `mdr` binary itself (spawned as a process).

use std::process::Command;

fn mdr(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_mdr"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn help_lists_every_subcommand() {
    let (stdout, _, ok) = mdr(&["help"]);
    assert!(ok);
    for cmd in [
        "analyze",
        "recommend",
        "simulate",
        "serve",
        "bench",
        "worst-case",
        "trace",
        "multi",
    ] {
        assert!(stdout.contains(cmd), "help should mention {cmd}:\n{stdout}");
    }
}

#[test]
fn no_args_prints_help() {
    let (stdout, _, ok) = mdr(&[]);
    assert!(ok);
    assert!(stdout.contains("subcommands"));
}

#[test]
fn analyze_pipeline_via_process() {
    let (stdout, _, ok) = mdr(&[
        "analyze",
        "--policy",
        "SW9",
        "--model",
        "message:0.4",
        "--theta",
        "0.3",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("expected cost per request"));
    assert!(stdout.contains("-competitive"));
}

#[test]
fn simulate_via_process() {
    let (stdout, _, ok) = mdr(&[
        "simulate",
        "--policy",
        "SW3",
        "--theta",
        "0.4",
        "--requests",
        "3000",
        "--seed",
        "5",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("cost/request"));
}

#[test]
fn trace_via_process() {
    let (stdout, _, ok) = mdr(&["trace", "--policy", "SW1", "--schedule", "rw"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("delete-request-write"));
}

#[test]
fn errors_exit_nonzero_with_guidance() {
    let (_, stderr, ok) = mdr(&["analyze", "--policy", "LFU"]);
    assert!(!ok);
    assert!(stderr.contains("unknown policy"), "{stderr}");
    assert!(stderr.contains("mdr help"));

    let (_, stderr, ok) = mdr(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown subcommand"), "{stderr}");
}

#[test]
fn recommend_matches_the_paper_guidance_via_process() {
    let (stdout, _, ok) = mdr(&["recommend", "--omega", "0.45"]);
    assert!(ok);
    assert!(
        stdout.contains("k ≥ 39"),
        "Corollary 4 quoted point:\n{stdout}"
    );
}

/// Spawns the binary with `input` piped to stdin.
fn mdr_with_stdin(args: &[&str], input: impl AsRef<[u8]>) -> (String, String, bool) {
    use std::io::Write as _;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_mdr"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(input.as_ref())
        .expect("stdin accepts the session");
    let out = child.wait_with_output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn serve_replays_the_pinned_fixture_session() {
    // The scripted tenant session and its byte-exact expected transcript
    // are pinned as fixtures; CI replays the same pair with a shell diff.
    let input = include_str!("fixtures/serve_session.in");
    let expected = include_str!("fixtures/serve_session.expected");
    let (stdout, stderr, ok) = mdr_with_stdin(&["serve", "--max-tenants", "4"], input);
    assert!(ok, "{stderr}");
    assert_eq!(
        stdout, expected,
        "serve wire output drifted from the pinned fixture"
    );
}

#[test]
fn durable_serve_survives_a_restart_with_identical_stats() {
    // Run 1 ends at EOF with *no* shutdown op — the daemon must still
    // flush the journal and cut a final checkpoint on its way out. Run 2
    // reopens the same --data-dir and must serve byte-identical
    // per-tenant stats. Both transcripts are pinned as fixtures.
    let dir = std::env::temp_dir().join(format!(
        "mdr-e2e-durable-{}-{}",
        std::process::id(),
        Box::leak(Box::new(0u8)) as *const u8 as usize,
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("utf-8 temp path");

    let input = include_str!("fixtures/durable_session_1.in");
    let expected = include_str!("fixtures/durable_session_1.expected");
    let (stdout, stderr, ok) = mdr_with_stdin(&["serve", "--data-dir", dir_arg], input);
    assert!(ok, "{stderr}");
    assert_eq!(stdout, expected, "first durable run drifted");
    assert!(
        stderr.contains("recovery: 0 tenant(s) recovered"),
        "{stderr}"
    );

    let input = include_str!("fixtures/durable_session_2.in");
    let expected = include_str!("fixtures/durable_session_2.expected");
    let (stdout, stderr, ok) = mdr_with_stdin(&["serve", "--data-dir", dir_arg], input);
    assert!(ok, "{stderr}");
    assert_eq!(stdout, expected, "stats changed across the restart");
    assert!(
        stderr.contains("recovery: 2 tenant(s) recovered"),
        "{stderr}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durability_flags_require_data_dir() {
    let (_, stderr, ok) = mdr_with_stdin(&["serve", "--fsync", "always"], "");
    assert!(!ok);
    assert!(stderr.contains("--fsync requires --data-dir"), "{stderr}");

    let (_, stderr, ok) = mdr_with_stdin(&["serve", "--checkpoint-every", "8"], "");
    assert!(!ok);
    assert!(
        stderr.contains("--checkpoint-every requires --data-dir"),
        "{stderr}"
    );
}

#[test]
fn serve_stops_at_eof_without_shutdown() {
    let (stdout, _, ok) = mdr_with_stdin(
        &["serve"],
        "{\"op\":\"open\",\"tenant\":\"a\",\"policy\":\"ST2\"}\n",
    );
    assert!(ok);
    assert!(stdout.contains("\"ok\":\"open\""), "{stdout}");
}

#[test]
fn serve_answers_a_non_utf8_line_and_keeps_serving() {
    let session = b"{\"op\":\"open\",\"tenant\":\"a\"}\n\xff\n{\"op\":\"shutdown\"}\n";
    let (stdout, stderr, ok) = mdr_with_stdin(&["serve"], session);
    assert!(ok, "{stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    assert!(lines[0].starts_with(r#"{"ok":"open""#), "{stdout}");
    assert!(
        lines[1].starts_with(r#"{"err":"bad-request","detail":"#) && lines[1].contains("utf-8"),
        "{stdout}"
    );
    assert!(lines[2].starts_with(r#"{"ok":"shutdown""#), "{stdout}");
}

/// A client that sends one line and waits for its answer, with a deadline
/// on every answer. A daemon that held an answer while it waited for more
/// input would fail here instead of hanging.
struct LockStep {
    child: std::process::Child,
    stdin: std::process::ChildStdin,
    answers: std::sync::mpsc::Receiver<String>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl LockStep {
    const DEADLINE: std::time::Duration = std::time::Duration::from_secs(5);

    fn spawn(args: &[&str]) -> Self {
        use std::io::BufRead as _;
        use std::process::Stdio;
        let mut child = Command::new(env!("CARGO_BIN_EXE_mdr"))
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("binary spawns");
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = child.stdout.take().expect("stdout is piped");
        let (sender, answers) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in std::io::BufReader::new(stdout)
                .lines()
                .map_while(Result::ok)
            {
                if sender.send(line).is_err() {
                    break;
                }
            }
        });
        LockStep {
            child,
            stdin,
            answers,
            reader: Some(reader),
        }
    }

    fn send(&mut self, bytes: &str) {
        use std::io::Write as _;
        self.stdin
            .write_all(bytes.as_bytes())
            .and_then(|()| self.stdin.flush())
            .expect("daemon reads its stdin");
    }

    /// The next answer, which must start with `prefix`.
    fn expect(&mut self, prefix: &str) {
        let answer = self
            .answers
            .recv_timeout(Self::DEADLINE)
            .unwrap_or_else(|e| panic!("no answer within {:?}: {e}", Self::DEADLINE));
        assert!(answer.starts_with(prefix), "{answer}");
    }
}

impl Drop for LockStep {
    fn drop(&mut self) {
        // The daemon's end closes its stdout, which ends the reader.
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

fn serve_in_lock_step(args: &[&str]) {
    const DECISION: &str = r#"{"ok":"decision""#;
    let mut daemon = LockStep::spawn(args);
    daemon.send("{\"op\":\"open\",\"tenant\":\"a\",\"policy\":\"SW3\"}\n");
    daemon.expect(r#"{"ok":"open""#);
    for i in 0..100 {
        let request = if i % 3 == 0 { "w" } else { "r" };
        daemon.send(&format!(
            "{{\"op\":\"decide\",\"tenant\":\"a\",\"request\":\"{request}\"}}\n"
        ));
        daemon.expect(DECISION);
    }
    // One write carries two whole lines and the head of a third: both
    // answers must come while the daemon waits for the rest.
    let line = r#"{"op":"decide","tenant":"a","request":"r"}"#;
    let (head, tail) = line.split_at(line.len() / 2);
    daemon.send(&format!("{line}\n{line}\n{head}"));
    daemon.expect(DECISION);
    daemon.expect(DECISION);
    daemon.send(&format!("{tail}\n"));
    daemon.expect(DECISION);
    daemon.send("{\"op\":\"shutdown\"}\n");
    daemon.expect(r#"{"ok":"shutdown""#);
    assert!(daemon.child.wait().expect("daemon exits").success());
}

#[test]
fn serve_answers_a_lock_step_client_line_by_line() {
    serve_in_lock_step(&["serve"]);
}

#[test]
fn durable_serve_answers_a_lock_step_client_line_by_line() {
    let dir = std::env::temp_dir().join(format!("mdr-e2e-lockstep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    serve_in_lock_step(&[
        "serve",
        "--data-dir",
        dir.to_str().expect("utf-8 temp path"),
    ]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_budget_sheds_via_process() {
    let session = "{\"op\":\"open\",\"tenant\":\"a\"}\n\
                   {\"op\":\"decide\",\"tenant\":\"a\",\"request\":\"r\"}\n\
                   {\"op\":\"decide\",\"tenant\":\"a\",\"request\":\"r\"}\n";
    let (stdout, _, ok) = mdr_with_stdin(&["serve", "--budget", "1"], session);
    assert!(ok);
    assert!(stdout.contains("\"shed\":\"budget-exhausted\""), "{stdout}");
}

/// `--write-baseline on` records the median of its passes, which agree,
/// and a later run of the same workload gates against it.
#[test]
fn bench_baseline_is_the_median_of_its_passes() {
    let path = std::env::temp_dir().join(format!("mdr-bench-median-{}.json", std::process::id()));
    let baseline = path.to_str().expect("temp path is UTF-8");
    let bench = [
        "bench",
        "--preset",
        "e6",
        "--requests",
        "50",
        "--baseline",
        baseline,
    ];
    let (stdout, stderr, ok) = mdr(&[&bench[..], &["--write-baseline", "on"]].concat());
    assert!(ok, "{stdout}{stderr}");
    assert!(stdout.contains("baseline written:"), "{stdout}");
    let (stdout, stderr, ok) = mdr(&[&bench[..], &["--gate-pct", "99"]].concat());
    let _ = std::fs::remove_file(&path);
    assert!(ok, "{stdout}{stderr}");
    assert!(
        stdout.contains("gate vs") && stdout.contains("PASS"),
        "{stdout}"
    );
}

/// Without `--baseline`, a committed `BENCH_<preset>.json` that measured
/// another workload skips the gate and says so; named explicitly, the same
/// baseline fails the gate as incomparable.
#[test]
fn bench_skips_an_implicit_baseline_of_another_workload() {
    let dir = std::env::temp_dir().join(format!("mdr-bench-implicit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_mdr"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("binary runs");
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            out.status.code(),
        )
    };
    let bench = ["bench", "--preset", "e6", "--requests"];
    let (stdout, code) = run(&[&bench[..], &["60", "--write-baseline", "on"]].concat());
    assert_eq!(code, Some(0), "{stdout}");
    let (implicit, code) = run(&[&bench[..], &["50"]].concat());
    assert_eq!(code, Some(0), "{implicit}");
    assert!(
        implicit.contains("gate skipped: BENCH_e6.json measured 60 requests"),
        "{implicit}"
    );
    let (explicit, code) = run(&[&bench[..], &["50", "--baseline", "BENCH_e6.json"]].concat());
    let _ = std::fs::remove_dir_all(&dir);
    assert_ne!(code, Some(0), "{explicit}");
    assert!(
        explicit.contains("INCOMPARABLE: workload mismatch"),
        "{explicit}"
    );
}

#[test]
fn bench_serve_reports_decisions_per_second() {
    let (stdout, _, ok) = mdr(&[
        "bench",
        "--preset",
        "serve",
        "--tenants",
        "2",
        "--requests",
        "200",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("bench serve/fast"), "{stdout}");
    assert!(stdout.contains("requests/sec"), "{stdout}");
    assert!(stdout.contains("ledger digest: 0x"), "{stdout}");
}
