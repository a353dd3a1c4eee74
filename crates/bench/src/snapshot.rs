//! Typed benchmark snapshots — the `BENCH_*.json` schema.
//!
//! A [`BenchSnapshot`] records one measured sweep of a named preset:
//! what was run (preset, mode, per-run request cap, run count), what it
//! deterministically produced (events processed, ledger digest), and
//! how fast it went (wall nanoseconds, requests/sec). Snapshots are
//! written by `mdr bench --write-baseline`, committed as
//! `BENCH_e17.json` / `BENCH_e18.json`, and re-read by the CI perf gate,
//! which fails the build when a run regresses beyond its tolerance —
//! or, harder, when the ledger digest drifts at all.
//!
//! The schema is serde-typed end to end (the previous ad-hoc
//! `CRITERION_JSON` env-var plumbing wrote untyped strings nobody could
//! diff or gate): [`BenchSnapshot::to_json`] / [`BenchSnapshot::parse`]
//! round-trip the exact struct, and [`BenchSnapshot::compare`] renders a
//! [`RegressionVerdict`].
//!
//! Throughput is requests per second, not events per second: the
//! requests are the work, and the events are the simulator's means to
//! it, so an event the simulator learns to skip must not read as a
//! slowdown.

use mdr_sim::perf::PerfStats;

/// One measured benchmark run of a named sweep preset.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BenchSnapshot {
    /// Preset name (`e6`, `e17`, `e18`, `e19`).
    pub preset: String,
    /// Run size mode: `fast` (CI-sized) or `full` (publication-sized).
    pub mode: String,
    /// Per-run request cap the grid was built with.
    pub requests: usize,
    /// Simulation runs in the grid (cells ÷ models × replications).
    pub runs: usize,
    /// Events the simulation loops processed, summed over every run —
    /// deterministic: it must match between baseline and candidate or the
    /// comparison is meaningless.
    pub events: u64,
    /// Wall-clock nanoseconds the sweep took (measurement metadata).
    pub wall_nanos: u64,
    /// Throughput: `requests × runs / wall`, in requests per second.
    pub requests_per_sec: f64,
    /// FNV-1a digest of the full cost ledger, rendered as `0x`-hex —
    /// the determinism half of the gate: any drift is a hard failure
    /// regardless of speed.
    pub ledger_digest: String,
}

impl BenchSnapshot {
    /// Builds a snapshot from a measured sweep.
    pub fn new(
        preset: &str,
        fast: bool,
        requests: usize,
        runs: usize,
        stats: PerfStats,
        ledger_digest: u64,
    ) -> Self {
        BenchSnapshot {
            preset: preset.to_string(),
            mode: if fast { "fast" } else { "full" }.to_string(),
            requests,
            runs,
            events: stats.events,
            wall_nanos: stats.wall_nanos,
            requests_per_sec: per_sec((requests * runs) as u64, stats.wall_nanos),
            ledger_digest: format!("{ledger_digest:#018x}"),
        }
    }

    /// Renders the snapshot as pretty-printed JSON (the committed
    /// `BENCH_*.json` format), trailing newline included.
    pub fn to_json(&self) -> String {
        let Ok(mut json) = serde_json::to_string_pretty(self) else {
            unreachable!("a snapshot always serializes")
        };
        json.push('\n');
        json
    }

    /// Parses a snapshot from its JSON rendering.
    pub fn parse(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("malformed bench snapshot: {e}"))
    }

    /// Whether two snapshots measured the same workload — same preset,
    /// mode, request cap, and run count. Only such pairs are comparable.
    pub fn same_workload(&self, other: &BenchSnapshot) -> bool {
        self.preset == other.preset
            && self.mode == other.mode
            && self.requests == other.requests
            && self.runs == other.runs
    }

    /// Gates `self` (the candidate measurement) against `baseline`:
    ///
    /// * incomparable workloads or a ledger-digest drift fail hard —
    ///   a digest drift means the *simulation* changed, which no amount
    ///   of speed excuses;
    /// * a throughput drop of more than `gate_pct` percent below the
    ///   baseline is a regression;
    /// * anything else passes, with the speedup ratio reported.
    pub fn compare(&self, baseline: &BenchSnapshot, gate_pct: f64) -> RegressionVerdict {
        if !self.same_workload(baseline) {
            return RegressionVerdict::Incomparable {
                reason: format!(
                    "workload mismatch: candidate {}/{} ({} requests x {} runs) vs \
                     baseline {}/{} ({} requests x {} runs)",
                    self.preset,
                    self.mode,
                    self.requests,
                    self.runs,
                    baseline.preset,
                    baseline.mode,
                    baseline.requests,
                    baseline.runs,
                ),
            };
        }
        if self.ledger_digest != baseline.ledger_digest {
            return RegressionVerdict::DigestDrift {
                baseline: baseline.ledger_digest.clone(),
                candidate: self.ledger_digest.clone(),
            };
        }
        if self.events != baseline.events {
            return RegressionVerdict::Incomparable {
                reason: format!(
                    "event-count mismatch: candidate processed {} events, baseline {}",
                    self.events, baseline.events
                ),
            };
        }
        let speedup = if baseline.requests_per_sec > 0.0 {
            self.requests_per_sec / baseline.requests_per_sec
        } else {
            f64::INFINITY
        };
        let floor = 1.0 - gate_pct / 100.0;
        if speedup < floor {
            RegressionVerdict::Regression { speedup, gate_pct }
        } else {
            RegressionVerdict::Pass { speedup }
        }
    }
}

/// `count` per second over `wall_nanos`; zero when no time was observed
/// (a degenerate measurement, not a division error).
fn per_sec(count: u64, wall_nanos: u64) -> f64 {
    if wall_nanos == 0 {
        return 0.0;
    }
    count as f64 * 1e9 / wall_nanos as f64
}

/// The outcome of gating a candidate snapshot against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub enum RegressionVerdict {
    /// Throughput is at or above the gate floor; `speedup` is the
    /// candidate/baseline requests-per-second ratio (1.0 = parity).
    Pass {
        /// Candidate ÷ baseline throughput.
        speedup: f64,
    },
    /// Throughput fell more than `gate_pct` percent below the baseline.
    Regression {
        /// Candidate ÷ baseline throughput.
        speedup: f64,
        /// The tolerance that was exceeded.
        gate_pct: f64,
    },
    /// The ledger digest changed: the simulation itself drifted.
    DigestDrift {
        /// The committed baseline digest.
        baseline: String,
        /// The digest the candidate produced.
        candidate: String,
    },
    /// The snapshots did not measure the same workload.
    Incomparable {
        /// Human-readable mismatch description.
        reason: String,
    },
}

impl RegressionVerdict {
    /// Whether the gate passes (CI exit status).
    pub fn passed(&self) -> bool {
        matches!(self, RegressionVerdict::Pass { .. })
    }

    /// One-line human rendering.
    pub fn render(&self) -> String {
        match self {
            RegressionVerdict::Pass { speedup } => {
                format!("PASS: {speedup:.2}x baseline throughput")
            }
            RegressionVerdict::Regression { speedup, gate_pct } => {
                format!("REGRESSION: {speedup:.2}x baseline throughput, below the {gate_pct}% gate")
            }
            RegressionVerdict::DigestDrift {
                baseline,
                candidate,
            } => format!("DIGEST DRIFT: ledger {candidate} vs committed baseline {baseline}"),
            RegressionVerdict::Incomparable { reason } => format!("INCOMPARABLE: {reason}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(preset: &str, events: u64, wall_nanos: u64, digest: u64) -> BenchSnapshot {
        BenchSnapshot::new(
            preset,
            true,
            4_000,
            40,
            PerfStats { events, wall_nanos },
            digest,
        )
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let s = snap("e17", 1_234_567, 89_000_000, 0x686f_e07d_53ce_b53e);
        let parsed = BenchSnapshot::parse(&s.to_json()).expect("roundtrip parses");
        assert_eq!(parsed, s);
        assert!(s.to_json().contains("0x686fe07d53ceb53e"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(BenchSnapshot::parse("{}").is_err());
        assert!(BenchSnapshot::parse("not json").is_err());
    }

    #[test]
    fn equal_runs_pass_the_gate() {
        let base = snap("e17", 1_000, 1_000_000, 0xabc);
        let same = snap("e17", 1_000, 1_000_000, 0xabc);
        let verdict = same.compare(&base, 10.0);
        assert!(verdict.passed(), "{}", verdict.render());
    }

    #[test]
    fn slowdown_beyond_gate_is_a_regression() {
        let base = snap("e17", 1_000, 1_000_000, 0xabc);
        let slow = snap("e17", 1_000, 2_000_000, 0xabc); // 0.5x
        let verdict = slow.compare(&base, 10.0);
        assert_eq!(
            verdict,
            RegressionVerdict::Regression {
                speedup: 0.5,
                gate_pct: 10.0
            }
        );
        // A generous gate admits the same slowdown.
        assert!(slow.compare(&base, 60.0).passed());
    }

    #[test]
    fn digest_drift_fails_regardless_of_speed() {
        let base = snap("e17", 1_000, 1_000_000, 0xabc);
        let fast_but_wrong = snap("e17", 1_000, 1, 0xdef);
        assert!(matches!(
            fast_but_wrong.compare(&base, 10.0),
            RegressionVerdict::DigestDrift { .. }
        ));
    }

    #[test]
    fn different_workloads_are_incomparable() {
        let base = snap("e17", 1_000, 1_000_000, 0xabc);
        let other = snap("e18", 1_000, 1_000_000, 0xabc);
        assert!(matches!(
            other.compare(&base, 10.0),
            RegressionVerdict::Incomparable { .. }
        ));
        let fewer_events = snap("e17", 999, 1_000_000, 0xabc);
        assert!(matches!(
            fewer_events.compare(&base, 10.0),
            RegressionVerdict::Incomparable { .. }
        ));
    }

    #[test]
    fn throughput_is_requests_over_wall_time() {
        // 4,000 requests × 40 runs in 0.1 s, whatever the event count.
        let few = snap("e17", 1_000, 100_000_000, 0xa);
        let many = snap("e17", 9_000, 100_000_000, 0xa);
        assert!((few.requests_per_sec - 1.6e6).abs() < 1e-6);
        assert!((many.requests_per_sec - few.requests_per_sec).abs() < 1e-6);
        assert!(
            BenchSnapshot::new(
                "e17",
                true,
                1,
                1,
                PerfStats {
                    events: 0,
                    wall_nanos: 0
                },
                0
            )
            .requests_per_sec
            .abs()
                < 1e-12
        );
    }
}
