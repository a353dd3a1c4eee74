//! A dominance-guided adaptive policy — the §7.2 idea ("dynamically
//! calculate these frequencies [from a window], compute the expected costs
//! … and chose an appropriate future allocation method") applied to the
//! single-object case.
//!
//! **Extension, not in the paper.** The paper's SWk compares raw
//! read/write counts; this policy instead *estimates* θ from the window
//! and consults the paper's own dominance analysis (Theorem 6 regions in
//! the message model, the θ ≷ 1/2 rule in the connection model) to choose
//! which of the three basic schemes — one-copy, two-copies, or
//! drop-on-write (SW1-style) — to emulate next. Scheme changes take effect
//! at the natural free opportunities: allocation piggybacks on a remote
//! read, deallocation rides the next propagated write.
//!
//! The ablation experiment E11 measures what this buys (and costs)
//! relative to plain SWk.

use crate::action::Action;
use crate::cost::CostModel;
use crate::policy::{AllocationPolicy, PolicySpec};
use crate::request::Request;
use crate::window::RequestWindow;
use std::fmt;

/// The basic scheme the adaptive policy is currently emulating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TargetScheme {
    /// One-copy: shed the replica, serve reads remotely.
    OneCopy,
    /// Two-copies: hold the replica, absorb write propagations.
    TwoCopies,
    /// SW1-style: hold the replica only between a read and the next write.
    DropOnWrite,
}

/// Estimates θ from a window of the last `k` requests and emulates the
/// scheme the paper's dominance analysis (§7.2, Figure 1) says is cheapest
/// there.
///
/// ```
/// use mdr_core::{AdaptivePolicy, AllocationPolicy, CostModel, Request};
///
/// let mut p = AdaptivePolicy::new(15, CostModel::message(0.3));
/// for _ in 0..20 {
///     p.on_request(Request::Read); // read-heavy ⇒ converges to two-copies
/// }
/// assert!(p.has_copy());
/// ```
#[derive(Debug, Clone)]
pub struct AdaptivePolicy {
    window: RequestWindow,
    model: CostModel,
    has_copy: bool,
    target: TargetScheme,
}

impl AdaptivePolicy {
    /// Creates the §7.2 policy with an estimation window of `k` requests
    /// (odd, like SWk's) under `model`. Cold start: no replica, window full
    /// of writes.
    pub fn new(k: usize, model: CostModel) -> Self {
        let window = RequestWindow::filled(k, Request::Write);
        AdaptivePolicy {
            window,
            model,
            has_copy: false,
            target: TargetScheme::OneCopy,
        }
    }

    /// The estimated write fraction θ̂ from the current window — the
    /// "dynamically calculate these frequencies" step of §7.2.
    pub fn estimated_theta(&self) -> f64 {
        self.window.writes() as f64 / self.window.k() as f64
    }

    /// The scheme the dominance analysis picks for an estimated θ̂.
    ///
    /// Message model: Theorem 6's regions (ST1 above `(1+ω)/(1+2ω)`, ST2
    /// below `2ω/(1+2ω)`, SW1 between). Connection model: the §2.1 rule,
    /// with the SW1-style band degenerate (SW1 never strictly wins there),
    /// except that *exact* balance favours the drop-on-write middle ground.
    fn pick_scheme(&self) -> TargetScheme {
        let theta = self.estimated_theta();
        match self.model {
            CostModel::Connection => {
                if theta > 0.5 {
                    TargetScheme::OneCopy
                } else if theta < 0.5 {
                    TargetScheme::TwoCopies
                } else {
                    TargetScheme::DropOnWrite
                }
            }
            CostModel::Message { omega } => {
                let hi = (1.0 + omega) / (1.0 + 2.0 * omega);
                let lo = 2.0 * omega / (1.0 + 2.0 * omega);
                if theta > hi {
                    TargetScheme::OneCopy
                } else if theta < lo {
                    TargetScheme::TwoCopies
                } else {
                    TargetScheme::DropOnWrite
                }
            }
        }
    }
}

impl fmt::Display for AdaptivePolicy {
    /// `AD<k>[<model>]`, e.g. `AD9[connection]` — the label the E11
    /// ablation tables use. The policy has no [`PolicySpec`] encoding
    /// (its cost-model parameter carries a real-valued ω), so display
    /// identity lives here rather than on the spec.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AD{}[{}]", self.window.k(), self.model)
    }
}

impl AllocationPolicy for AdaptivePolicy {
    fn spec(&self) -> Option<PolicySpec> {
        // An extension beyond the paper's §2/§7.1 roster: θ-band emulation
        // parameterized by a CostModel, which PolicySpec cannot encode
        // faithfully (ω is a real). Identity comes from `Display`.
        None
    }

    fn has_copy(&self) -> bool {
        self.has_copy
    }

    fn on_request(&mut self, req: Request) -> Action {
        self.window.push(req);
        self.target = self.pick_scheme();
        match req {
            Request::Read => {
                if self.has_copy {
                    // Even a one-copy target keeps the replica through
                    // reads: dropping it here would gain nothing (the next
                    // write sheds it for free as part of its propagation).
                    Action::LocalRead
                } else {
                    let wants_copy = matches!(
                        self.target,
                        TargetScheme::TwoCopies | TargetScheme::DropOnWrite
                    );
                    if wants_copy {
                        self.has_copy = true;
                        Action::RemoteRead { allocates: true }
                    } else {
                        Action::RemoteRead { allocates: false }
                    }
                }
            }
            Request::Write => {
                if !self.has_copy {
                    return Action::SilentWrite;
                }
                match self.target {
                    TargetScheme::TwoCopies => Action::PropagatedWrite { deallocates: false },
                    TargetScheme::OneCopy | TargetScheme::DropOnWrite => {
                        // The side in charge of the estimate is the MC (it
                        // holds the replica), so the deallocation is its
                        // reply to the propagated write — unlike true SW1,
                        // where the SC knows k = 1 statically and can skip
                        // the data message.
                        self.has_copy = false;
                        Action::PropagatedWrite { deallocates: true }
                    }
                }
            }
        }
    }

    fn on_replica_lost(&mut self) {
        // A volatile MC crash loses both the replica and the MC-held
        // estimation window: fall back to the cold-start state, like SWk.
        // Without a replica the SC holds the window, which survives.
        if self.has_copy {
            let k = self.window.k();
            self.window = RequestWindow::filled(k, Request::Write);
            self.has_copy = false;
            self.target = TargetScheme::OneCopy;
        }
    }

    fn reset(&mut self) {
        let k = self.window.k();
        self.window = RequestWindow::filled(k, Request::Write);
        self.has_copy = false;
        self.target = TargetScheme::OneCopy;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_policy;
    use crate::schedule::Schedule;

    #[test]
    fn converges_to_two_copies_on_read_heavy_streams() {
        let mut p = AdaptivePolicy::new(9, CostModel::Connection);
        for _ in 0..20 {
            p.on_request(Request::Read);
        }
        assert!(p.has_copy());
        assert!(p.estimated_theta() < 0.2);
        // Reads are now free.
        assert_eq!(p.on_request(Request::Read), Action::LocalRead);
    }

    #[test]
    fn converges_to_one_copy_on_write_heavy_streams() {
        let mut p = AdaptivePolicy::new(9, CostModel::Connection);
        // Acquire a copy first…
        for _ in 0..20 {
            p.on_request(Request::Read);
        }
        // …then a write flood sheds it and keeps it shed.
        let mut dealloc_seen = false;
        for _ in 0..20 {
            let a = p.on_request(Request::Write);
            dealloc_seen |= a.deallocates();
        }
        assert!(dealloc_seen);
        assert!(!p.has_copy());
        assert_eq!(p.on_request(Request::Write), Action::SilentWrite);
    }

    #[test]
    fn middle_band_behaves_like_sw1_in_message_model() {
        // ω small ⇒ wide SW1 band; on alternating r/w the policy should
        // acquire on reads and shed on writes.
        let mut p = AdaptivePolicy::new(5, CostModel::message(0.1));
        // Prime the window into the middle band.
        let prime: Schedule = "rwrwr".parse().unwrap();
        for r in &prime {
            p.on_request(r);
        }
        let lo = 2.0 * 0.1 / 1.2;
        let hi = 1.1 / 1.2;
        assert!(p.estimated_theta() > lo && p.estimated_theta() < hi);
        // Now alternate: each read allocates (if shed), each write sheds.
        let a = p.on_request(Request::Write);
        if p.has_copy() {
            unreachable!("write in the middle band must shed the copy: {a}");
        }
        assert_eq!(
            p.on_request(Request::Read),
            Action::RemoteRead { allocates: true }
        );
        assert!(p.on_request(Request::Write).deallocates());
    }

    #[test]
    fn beats_both_statics_on_phase_switching_schedules() {
        let model = CostModel::Connection;
        // 200 reads then 200 writes, repeated.
        let s = Schedule::read_write_cycles(200, 200, 5);
        let mut adaptive = AdaptivePolicy::new(9, model);
        let cost = run_policy(&mut adaptive, &s, model).total_cost;
        let st1 = crate::run::run_spec(crate::policy::PolicySpec::St1, &s, model).total_cost;
        let st2 = crate::run::run_spec(crate::policy::PolicySpec::St2, &s, model).total_cost;
        assert!(cost < st1, "{cost} vs ST1 {st1}");
        assert!(cost < st2, "{cost} vs ST2 {st2}");
    }

    #[test]
    fn reset_restores_cold_start() {
        let mut p = AdaptivePolicy::new(7, CostModel::message(0.5));
        for _ in 0..10 {
            p.on_request(Request::Read);
        }
        assert!(p.has_copy());
        p.reset();
        assert!(!p.has_copy());
        assert_eq!(p.estimated_theta(), 1.0);
    }

    #[test]
    fn copy_state_changes_only_via_transition_actions() {
        let mut p = AdaptivePolicy::new(5, CostModel::message(0.4));
        let s: Schedule = "rrrwwwrrwwrwrwrrrrwwwwr".parse().unwrap();
        let mut prev = p.has_copy();
        for r in &s {
            let a = p.on_request(r);
            let now = p.has_copy();
            match (prev, now) {
                (false, true) => assert!(a.allocates()),
                (true, false) => assert!(a.deallocates()),
                _ => assert!(!a.allocates() && !a.deallocates()),
            }
            prev = now;
        }
    }

    #[test]
    fn display_carries_parameters() {
        let p = AdaptivePolicy::new(9, CostModel::Connection);
        assert_eq!(p.to_string(), "AD9[connection]");
        assert_eq!(p.spec(), None, "no faithful PolicySpec encoding exists");
    }
}
