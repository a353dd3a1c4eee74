//! End-to-end tests of the `mdr-verify` command line (spawned as a
//! process): the whole line is parsed before any checker runs.

use std::process::Command;

/// Runs `mdr-verify` with `args`: its exit code, stdout and stderr.
fn mdr_verify(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mdr-verify"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// An unknown or unusable flag anywhere on the line exits 2 with the
/// usage line, before any checker runs.
#[test]
fn bad_flags_exit_2_wherever_they_stand() {
    for args in [
        &["--handoff", "6", "--bogus"][..],
        &["--handoff", "--policy", "sw3"],
        &["--handoff", "6", "--depth", "4"],
        &["--handoff", "--faults"],
        &["--kill-suite", "--depth", "3"],
        &["--kill-suite", "--handoff"],
        &["--depth", "4", "--bogus"],
        &["--depth"],
        &["--depth", "four"],
    ] {
        let (code, stdout, stderr) = mdr_verify(args);
        assert_eq!(code, Some(2), "{args:?}: {stdout}");
        assert!(stdout.is_empty(), "{args:?} ran a checker: {stdout}");
        assert!(
            stderr.starts_with("usage: mdr-verify"),
            "{args:?}: {stderr}"
        );
    }
}

/// `--depth` bounds the handoff checker wherever it stands.
#[test]
fn depth_bounds_the_handoff_checker() {
    for args in [
        &["--handoff", "--depth", "3"],
        &["--depth", "3", "--handoff"],
    ] {
        let (code, stdout, _) = mdr_verify(args);
        assert_eq!(code, Some(0), "{args:?}: {stdout}");
        assert!(
            stdout.contains("total deduplicated handoff states at depth 3:"),
            "{args:?}: {stdout}"
        );
    }
}
