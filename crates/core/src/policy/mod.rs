//! Online data-allocation policies.
//!
//! A policy decides, request by request, whether the mobile computer holds a
//! replica of the data item, and reports the communication [`Action`] each
//! request caused. All the algorithms analyzed in the paper are implemented
//! here:
//!
//! * [`St1`], [`St2`] — the static one-copy / two-copies methods (§2, §5.1);
//! * [`SlidingWindow`] — the SWk family (§4), including the optimized SW1;
//! * [`T1`], [`T2`] — the competitive-ized static methods T1m / T2m (§7.1).

mod adaptive;
mod sliding;
mod static_alloc;
mod tstatic;

pub use adaptive::AdaptivePolicy;
pub use sliding::SlidingWindow;
pub use static_alloc::{St1, St2};
pub use tstatic::{T1, T2};

use crate::action::Action;
use crate::request::Request;
use std::fmt;

/// An online replica-allocation policy (an *allocation method*, §2) for a
/// single data item and a single mobile computer.
///
/// Implementations are deterministic state machines: given the same request
/// sequence they produce the same actions, which is what makes the
/// worst-case (competitive) analysis well-defined.
pub trait AllocationPolicy {
    /// The value-level [`PolicySpec`] this policy instantiates, when it is
    /// one of the paper's §2/§7.1 methods. `PolicySpec` is the canonical
    /// policy identity — hashable, serializable, and displayable without
    /// allocating — so reports and configuration should carry the spec,
    /// not a name string. Extensions whose parameters have no faithful
    /// spec encoding (the §7.2 [`AdaptivePolicy`], whose cost model
    /// carries a real-valued ω) return `None` and provide their own
    /// `Display`.
    fn spec(&self) -> Option<PolicySpec>;

    /// Whether the mobile computer currently holds a replica.
    fn has_copy(&self) -> bool;

    /// Serves one request, updating the allocation state and returning the
    /// communication action it caused.
    fn on_request(&mut self, req: Request) -> Action;

    /// Informs the policy that the MC's replica was lost *outside* the
    /// request stream — a volatile MC crash, which is a fault-model
    /// extension beyond the reliable-exchange assumption of §3 (see
    /// `docs/faults.md`).
    ///
    /// The default is a no-op, which is correct for the static methods:
    /// ST1 (§2) never places a replica at the MC, and ST2 (§2) has the SC
    /// re-establish the replica during reconnection recovery, so the
    /// abstract two-copies state is restored before the next request is
    /// served. Dynamic policies override this to fall back to their
    /// cold-start allocation state.
    fn on_replica_lost(&mut self) {}

    /// Returns the policy to its initial state.
    fn reset(&mut self);
}

/// A value-level description of one of the paper's allocation methods
/// (§2, §7.1) — serializable, hashable, and convertible into a boxed
/// policy instance. This is what experiment configurations and reports
/// refer to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum PolicySpec {
    /// Static one-copy (`ST1`).
    St1,
    /// Static two-copies (`ST2`).
    St2,
    /// Sliding window with window size `k` (odd). `k = 1` is the optimized
    /// SW1 of §4.
    SlidingWindow {
        /// Window size (odd).
        k: usize,
    },
    /// `T1m`: one-copy until `m` consecutive reads, two-copies until the
    /// next write (§7.1).
    T1 {
        /// Consecutive-read threshold.
        m: usize,
    },
    /// `T2m`: two-copies until `m` consecutive writes, one-copy until the
    /// next read (§7.1).
    T2 {
        /// Consecutive-write threshold.
        m: usize,
    },
}

impl PolicySpec {
    /// Instantiates the described §2/§7.1 policy in its initial state.
    pub fn build(&self) -> Box<dyn AllocationPolicy> {
        match *self {
            PolicySpec::St1 => Box::new(St1::new()),
            PolicySpec::St2 => Box::new(St2::new()),
            PolicySpec::SlidingWindow { k } => Box::new(SlidingWindow::new(k)),
            PolicySpec::T1 { m } => Box::new(T1::new(m)),
            PolicySpec::T2 { m } => Box::new(T2::new(m)),
        }
    }

    /// All the policies the paper compares (§2, §7.1; the Figure 1 and
    /// Figure 2 contenders) for a given list of window sizes and
    /// T-thresholds.
    pub fn roster(window_sizes: &[usize], thresholds: &[usize]) -> Vec<PolicySpec> {
        let mut v = vec![PolicySpec::St1, PolicySpec::St2];
        v.extend(
            window_sizes
                .iter()
                .map(|&k| PolicySpec::SlidingWindow { k }),
        );
        v.extend(thresholds.iter().map(|&m| PolicySpec::T1 { m }));
        v.extend(thresholds.iter().map(|&m| PolicySpec::T2 { m }));
        v
    }
}

impl fmt::Display for PolicySpec {
    /// The paper's notation for each method (§2, §7.1): `ST1`, `ST2`,
    /// `SW<k>`, `T1(m)`, `T2(m)`. This rendering is pinned by reports and
    /// sweep-ledger fixtures, so it must never drift.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PolicySpec::St1 => f.write_str("ST1"),
            PolicySpec::St2 => f.write_str("ST2"),
            PolicySpec::SlidingWindow { k } => write!(f, "SW{k}"),
            PolicySpec::T1 { m } => write!(f, "T1({m})"),
            PolicySpec::T2 { m } => write!(f, "T2({m})"),
        }
    }
}

/// Error from parsing a [`PolicySpec`] out of its textual notation (the
/// paper's §2/§4/§7.1 names: ST1, ST2, SWk, T1m, T2m).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePolicyError(String);

impl fmt::Display for ParsePolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParsePolicyError {}

impl std::str::FromStr for PolicySpec {
    type Err = ParsePolicyError;

    /// Parses the paper's notation, case-insensitively: `ST1`, `ST2`,
    /// `SW<k>`, and `T1(m)` / `T2(m)` (also accepted with a colon,
    /// `T1:m`). The inverse of the `Display` impl, with the §4/§7.1
    /// parameter constraints enforced (odd positive `k`, `m ≥ 1`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let up = s.to_ascii_uppercase();
        if up == "ST1" {
            return Ok(PolicySpec::St1);
        }
        if up == "ST2" {
            return Ok(PolicySpec::St2);
        }
        if let Some(k) = up.strip_prefix("SW") {
            let k: usize = k
                .parse()
                .map_err(|_| ParsePolicyError(format!("invalid window size in {s:?}")))?;
            if k == 0 || k % 2 == 0 {
                return Err(ParsePolicyError(format!(
                    "window size must be odd and positive, got {k}"
                )));
            }
            return Ok(PolicySpec::SlidingWindow { k });
        }
        for (prefix, is_t1) in [("T1:", true), ("T2:", false), ("T1(", true), ("T2(", false)] {
            if let Some(rest) = up.strip_prefix(prefix) {
                let digits = rest.trim_end_matches(')');
                let m: usize = digits
                    .parse()
                    .map_err(|_| ParsePolicyError(format!("invalid threshold in {s:?}")))?;
                if m == 0 {
                    return Err(ParsePolicyError("threshold m must be at least 1".into()));
                }
                return Ok(if is_t1 {
                    PolicySpec::T1 { m }
                } else {
                    PolicySpec::T2 { m }
                });
            }
        }
        Err(ParsePolicyError(format!(
            "unknown policy {s:?}; expected ST1, ST2, SW<k>, T1(m) or T2(m)"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_the_papers_notation() {
        assert_eq!(PolicySpec::St1.to_string(), "ST1");
        assert_eq!(PolicySpec::St2.to_string(), "ST2");
        assert_eq!(PolicySpec::SlidingWindow { k: 1 }.to_string(), "SW1");
        assert_eq!(PolicySpec::SlidingWindow { k: 7 }.to_string(), "SW7");
        assert_eq!(PolicySpec::T1 { m: 3 }.to_string(), "T1(3)");
        assert_eq!(PolicySpec::T2 { m: 5 }.to_string(), "T2(5)");
    }

    #[test]
    fn built_policies_report_their_spec() {
        for spec in PolicySpec::roster(&[1, 3, 7], &[2, 5]) {
            assert_eq!(spec.build().spec(), Some(spec));
        }
    }

    #[test]
    fn from_str_inverts_display() {
        for spec in PolicySpec::roster(&[1, 3, 9], &[1, 4]) {
            assert_eq!(spec.to_string().parse::<PolicySpec>(), Ok(spec));
        }
        // The colon form and lower case are accepted too.
        assert_eq!("t1:5".parse::<PolicySpec>(), Ok(PolicySpec::T1 { m: 5 }));
        assert_eq!(
            "sw7".parse::<PolicySpec>(),
            Ok(PolicySpec::SlidingWindow { k: 7 })
        );
    }

    #[test]
    fn from_str_rejects_invalid_parameters() {
        assert!("SW4".parse::<PolicySpec>().is_err(), "even window");
        assert!("SW0".parse::<PolicySpec>().is_err());
        assert!("T1(0)".parse::<PolicySpec>().is_err());
        assert!("LRU".parse::<PolicySpec>().is_err());
        assert!("SWx".parse::<PolicySpec>().is_err());
    }

    #[test]
    fn roster_contains_all_families() {
        let roster = PolicySpec::roster(&[1, 3], &[2]);
        assert_eq!(
            roster,
            vec![
                PolicySpec::St1,
                PolicySpec::St2,
                PolicySpec::SlidingWindow { k: 1 },
                PolicySpec::SlidingWindow { k: 3 },
                PolicySpec::T1 { m: 2 },
                PolicySpec::T2 { m: 2 },
            ]
        );
    }

    #[test]
    fn replica_loss_hook_matches_each_policy_recovery_contract() {
        for spec in [
            PolicySpec::St1,
            PolicySpec::St2,
            PolicySpec::SlidingWindow { k: 3 },
            PolicySpec::T1 { m: 2 },
            PolicySpec::T2 { m: 2 },
        ] {
            let mut p = spec.build();
            // Drive each policy into a replica-holding state where possible.
            for _ in 0..4 {
                p.on_request(Request::Read);
            }
            p.on_replica_lost();
            match spec {
                // The static methods keep their abstract allocation state:
                // ST1 never had a replica and ST2's is re-established by the
                // reconnection recovery before the next request.
                PolicySpec::St1 => assert!(!p.has_copy()),
                PolicySpec::St2 => assert!(p.has_copy()),
                _ => assert!(!p.has_copy(), "{spec} must drop the replica"),
            }
        }
    }

    #[test]
    fn built_policies_start_in_initial_state() {
        assert!(!PolicySpec::St1.build().has_copy());
        assert!(PolicySpec::St2.build().has_copy());
        assert!(!PolicySpec::SlidingWindow { k: 3 }.build().has_copy());
        assert!(!PolicySpec::T1 { m: 2 }.build().has_copy());
        assert!(PolicySpec::T2 { m: 2 }.build().has_copy());
    }
}
