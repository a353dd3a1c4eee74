//! The seeded, streaming serve traffic generator.
//!
//! Lines are produced one at a time as the client sends them, so the
//! harness's memory does not grow with the session length. Tenants use the
//! four-policy roster of `mdr_sim::engine::serve_bench_lines` and its
//! per-tenant write fractions fanned across (0, 1). Unlike that stream,
//! each decide goes to a tenant drawn at random rather than round robin:
//! in lockstep, all tenants reach their journal fsync and checkpoint
//! intervals on the same round, and the stalls arrive in bursts whose
//! length, not the daemon, would set the tail latency.

use std::collections::VecDeque;

/// Tenants every session opens; the daemon's default tenant limit.
pub const TENANTS: usize = 64;
/// Decides between two snapshot → restore round trips (serve-durable).
pub const EXTRAS_EVERY: usize = 512;
/// Decides between a snapshot and the restore that replays it. It exceeds
/// any client window, so the snapshot's response has been read by the time
/// the restore is sent.
pub const RESTORE_LAG: usize = 64;
/// Decides between a snapshot and the close → open churn of another tenant.
const CHURN_AT: usize = 256;

/// Which daemon the traffic targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `mdr serve` without a data directory: decides only.
    Mem,
    /// `mdr serve --data-dir`: decides plus tenant churn and snapshot →
    /// restore round trips. Tenants survive a crash.
    Durable,
}

/// One session's traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Target daemon.
    pub mode: Mode,
    /// Seed of every draw.
    pub seed: u64,
    /// Tenants opened at the start.
    pub tenants: usize,
    /// Decide lines in the session.
    pub decides: usize,
    /// Crash points, evenly spaced through the decide stream.
    pub crashes: usize,
}

/// One thing the client does next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Send this request line (no trailing newline).
    Line(String),
    /// Send `restore` for tenant `t<tenant>` carrying the snapshot that the
    /// response to line number `from` returned.
    Restore {
        /// Tenant index.
        tenant: usize,
        /// Line number (0-based, over `Line` and `Restore` steps) of the
        /// `snapshot` request.
        from: usize,
    },
    /// Kill the daemon once every response so far is read, then start it
    /// again on the same data directory.
    Crash,
}

/// SplitMix64, as `serve_bench_lines` draws it.
#[derive(Debug, Clone)]
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Policy and cost model of roster slot `slot`, as `serve_bench_lines`
/// names them; `None` leaves the daemon's default (connection) model.
pub fn roster(slot: usize) -> (&'static str, Option<&'static str>) {
    match slot % 4 {
        0 => ("T1(2)", None),
        1 => ("SW5", None),
        2 => ("SW1", Some("message:0.5")),
        _ => ("T2(3)", Some("message:0.25")),
    }
}

/// The open line for tenant `t` under roster slot `slot`.
fn open_line(t: usize, slot: usize) -> String {
    let (policy, model) = roster(slot);
    let model = model.map_or(String::new(), |m| format!(r#","model":"{m}""#));
    format!(r#"{{"op":"open","tenant":"t{t}","policy":"{policy}"{model}}}"#)
}

impl Plan {
    /// The session's steps, generated lazily.
    pub fn steps(&self) -> Steps {
        let mut pending = VecDeque::new();
        for t in 0..self.tenants {
            pending.push_back(Step::Line(open_line(t, t)));
        }
        Steps {
            plan: *self,
            letters: SplitMix(self.seed),
            tenant_draws: SplitMix(self.seed ^ 0x7e4a_4175_7e4a_4175),
            extras: SplitMix(self.seed ^ 0x5eed_e47a_5eed_e47a),
            pending,
            decided: 0,
            lines: 0,
            generation: vec![0; self.tenants],
            snapshot: None,
            done: false,
        }
    }

    /// Whether decide number `d` is preceded by a crash.
    fn crash_before(&self, d: usize) -> bool {
        d > 0 && (1..=self.crashes).any(|k| d == k * self.decides / (self.crashes + 1))
    }
}

/// Iterator over a [`Plan`]'s steps.
#[derive(Debug, Clone)]
pub struct Steps {
    plan: Plan,
    letters: SplitMix,
    tenant_draws: SplitMix,
    extras: SplitMix,
    pending: VecDeque<Step>,
    decided: usize,
    /// Line numbers handed out so far.
    lines: usize,
    /// Per-tenant churn count, which rotates its roster slot.
    generation: Vec<usize>,
    /// The outstanding snapshot: (tenant, its line number).
    snapshot: Option<(usize, usize)>,
    done: bool,
}

impl Steps {
    fn queue_decide(&mut self) {
        let plan = self.plan;
        let d = self.decided;
        if plan.crash_before(d) {
            self.pending.push_back(Step::Crash);
        }
        if plan.mode == Mode::Durable && d > 0 {
            match d % EXTRAS_EVERY {
                0 => {
                    let t = self.extras.below(plan.tenants);
                    let queued = self.pending.iter().filter(|s| **s != Step::Crash).count();
                    let line = self.lines + queued;
                    self.snapshot = Some((t, line));
                    self.pending.push_back(Step::Line(format!(
                        r#"{{"op":"snapshot","tenant":"t{t}"}}"#
                    )));
                }
                RESTORE_LAG => {
                    if let Some((tenant, from)) = self.snapshot.take() {
                        self.pending.push_back(Step::Restore { tenant, from });
                    }
                }
                CHURN_AT => {
                    let t = self.extras.below(plan.tenants);
                    self.generation[t] += 1;
                    self.pending
                        .push_back(Step::Line(format!(r#"{{"op":"close","tenant":"t{t}"}}"#)));
                    self.pending
                        .push_back(Step::Line(open_line(t, t + self.generation[t])));
                }
                _ => {}
            }
        }
        let t = self.tenant_draws.below(plan.tenants);
        let theta = (t + 1) as f64 / (plan.tenants + 1) as f64;
        let letter = if (self.letters.next() >> 11) as f64 / (1u64 << 53) as f64 <= theta {
            'w'
        } else {
            'r'
        };
        self.pending.push_back(Step::Line(format!(
            r#"{{"op":"decide","tenant":"t{t}","request":"{letter}"}}"#
        )));
        self.decided += 1;
    }
}

impl Iterator for Steps {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        if self.pending.is_empty() && !self.done {
            if self.decided < self.plan.decides {
                self.queue_decide();
            } else {
                self.pending
                    .push_back(Step::Line(r#"{"op":"shutdown"}"#.to_owned()));
                self.done = true;
            }
        }
        let step = self.pending.pop_front()?;
        if !matches!(step, Step::Crash) {
            self.lines += 1;
        }
        Some(step)
    }
}

/// The tenant and letter of a decide line, for feeding standalone
/// decision cores.
pub fn decide_of(line: &str) -> Option<(usize, char)> {
    let rest = line.strip_prefix(r#"{"op":"decide","tenant":"t"#)?;
    let (tenant, rest) = rest.split_once('"')?;
    let letter = rest.strip_prefix(r#","request":""#)?.chars().next()?;
    Some((tenant.parse().ok()?, letter))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdr_sim::engine::serve_bench_lines;

    fn lines(plan: Plan) -> Vec<Step> {
        plan.steps().collect()
    }

    #[test]
    fn tenants_open_with_the_shipped_serve_bench_roster() {
        let plan = Plan {
            mode: Mode::Mem,
            seed: 42,
            tenants: 8,
            decides: 8 * 50,
            crashes: 0,
        };
        let ours: Vec<Step> = lines(plan).into_iter().take(8).collect();
        let shipped: Vec<Step> = serve_bench_lines(8, 50, 42)
            .into_iter()
            .take(8)
            .map(Step::Line)
            .collect();
        assert_eq!(ours, shipped);
        // Every tenant gets decides, and high-θ tenants write more.
        let mut writes = [0usize; 8];
        let mut decides = [0usize; 8];
        for step in lines(Plan {
            decides: 80_000,
            ..plan
        }) {
            if let Step::Line(text) = step {
                if let Some((t, letter)) = decide_of(&text) {
                    decides[t] += 1;
                    writes[t] += usize::from(letter == 'w');
                }
            }
        }
        assert!(decides.iter().all(|&n| n > 8_000));
        assert!(writes[0] * 4 < writes[7]);
    }

    #[test]
    fn same_seed_same_steps_other_seed_other_steps() {
        let plan = Plan {
            mode: Mode::Durable,
            seed: 7,
            tenants: TENANTS,
            decides: 5_000,
            crashes: 2,
        };
        assert_eq!(lines(plan), lines(plan));
        assert_ne!(lines(plan), lines(Plan { seed: 8, ..plan }));
    }

    #[test]
    fn durable_traffic_has_churn_round_trips_and_crashes() {
        let plan = Plan {
            mode: Mode::Durable,
            seed: 3,
            tenants: TENANTS,
            decides: 4 * EXTRAS_EVERY,
            crashes: 1,
        };
        let steps = lines(plan);
        let crashes = steps.iter().filter(|s| **s == Step::Crash).count();
        assert_eq!(crashes, 1);
        let text: Vec<&str> = steps
            .iter()
            .filter_map(|s| match s {
                Step::Line(l) => Some(l.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(
            text.iter()
                .filter(|l| l.contains(r#""op":"close""#))
                .count(),
            4
        );
        assert_eq!(
            text.iter()
                .filter(|l| l.contains(r#""op":"snapshot""#))
                .count(),
            3
        );
        // Every restore points back at its own snapshot line, far enough
        // behind that its response has been read.
        let numbered: Vec<&Step> = steps.iter().filter(|s| **s != Step::Crash).collect();
        let mut restores = 0;
        for (i, step) in numbered.iter().enumerate() {
            if let Step::Restore { tenant, from } = step {
                restores += 1;
                assert!(i - from > RESTORE_LAG);
                let Step::Line(l) = numbered[*from] else {
                    panic!("restore source is not a line")
                };
                assert_eq!(l, &format!(r#"{{"op":"snapshot","tenant":"t{tenant}"}}"#));
            }
        }
        assert_eq!(restores, 3);
        let decides = text.iter().filter(|l| decide_of(l).is_some()).count();
        assert_eq!(decides, plan.decides);
    }

    #[test]
    fn decide_lines_parse_back_to_tenant_and_letter() {
        assert_eq!(
            decide_of(r#"{"op":"decide","tenant":"t12","request":"w"}"#),
            Some((12, 'w'))
        );
        assert_eq!(decide_of(r#"{"op":"open","tenant":"t1"}"#), None);
    }
}
