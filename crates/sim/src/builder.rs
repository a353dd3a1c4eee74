//! The [`SimBuilder`] front door: one fallible builder for every
//! simulation knob.
//!
//! Historically a [`SimConfig`] was assembled through a patchwork of
//! `SimConfig::new` plus `with_latency` / `with_loss` / `with_mobility` /
//! `with_faults` / `without_oracle`, with a mix of panics and `Result`s.
//! The sweep engine (`crate::sweep`) needs every cell of a parameter grid
//! to be constructible from *one* fallible entry point, so the builder
//! unifies them: every setter validates its arguments and returns
//! `Result<Self, ConfigError>`, and [`SimBuilder::build`] is infallible
//! because nothing unvalidated can reach it.
//!
//! ```
//! use mdr_core::PolicySpec;
//! use mdr_sim::{ArqConfig, SimBuilder};
//!
//! let config = SimBuilder::new(PolicySpec::SlidingWindow { k: 5 })
//!     .and_then(|b| b.latency(0.02))
//!     .and_then(|b| b.arq(ArqConfig::new(0.1, 0.05, 7)?))
//!     .map(mdr_sim::SimBuilder::build);
//! assert!(config.is_ok());
//! // Even windows are rejected up front, not at `Simulation::new` time.
//! assert!(SimBuilder::new(PolicySpec::SlidingWindow { k: 4 }).is_err());
//! ```

use crate::faults::{ArqConfig, ConfigError, FaultPlan};
use crate::sim::{SimConfig, Simulation};
use crate::topology::{MobilityConfig, TopologyConfig};
use mdr_core::PolicySpec;

/// Checks the cross-knob constraint between a topology and the ARQ
/// transport: a handoff deadline shorter than the transport's *first*
/// retransmission timeout could never see a single retransmission before
/// aborting, which is always a misconfiguration.
fn validate_handoff_deadline(
    topology: &TopologyConfig,
    arq: &ArqConfig,
) -> Result<(), ConfigError> {
    let rto = arq.timeout_for_attempt(1);
    if topology.handoff_deadline < rto {
        return Err(ConfigError::HandoffDeadline {
            deadline: topology.handoff_deadline,
            rto,
        });
    }
    Ok(())
}

/// Checks the §2/§7.1 structural constraints on a policy description:
/// sliding windows must be odd (so the majority vote is never tied) and
/// T-policy streak thresholds must be at least 1.
pub(crate) fn validate_policy(policy: PolicySpec) -> Result<(), ConfigError> {
    match policy {
        PolicySpec::SlidingWindow { k } if k == 0 || k % 2 == 0 => {
            Err(ConfigError::EvenWindow { k })
        }
        PolicySpec::T1 { m } | PolicySpec::T2 { m } if m == 0 => Err(ConfigError::ZeroThreshold),
        _ => Ok(()),
    }
}

/// Checks a one-way link latency: finite and non-negative.
pub(crate) fn validate_latency(latency: f64) -> Result<(), ConfigError> {
    if latency >= 0.0 && latency.is_finite() {
        Ok(())
    } else {
        Err(ConfigError::Latency { value: latency })
    }
}

/// Checks the mobility parameters: at least one cell, finite non-negative
/// per-cell latencies, finite positive handoff rate.
pub(crate) fn validate_mobility(
    cell_extra_latency: &[f64],
    handoff_rate: f64,
) -> Result<(), ConfigError> {
    if cell_extra_latency.is_empty() {
        return Err(ConfigError::NoCells);
    }
    if let Some(&bad) = cell_extra_latency
        .iter()
        .find(|&&l| !(l >= 0.0 && l.is_finite()))
    {
        return Err(ConfigError::CellLatency { value: bad });
    }
    if handoff_rate <= 0.0 || !handoff_rate.is_finite() {
        return Err(ConfigError::HandoffRate {
            value: handoff_rate,
        });
    }
    Ok(())
}

/// The unified, fallible builder for [`SimConfig`].
///
/// Every setter consumes and returns the builder, so configurations chain
/// with `and_then`; every validation failure is a typed [`ConfigError`]
/// value rather than a panic. See the module docs for an example and
/// `docs/sweeps.md` for the migration table from the removed
/// `SimConfig::new` patchwork.
#[derive(Debug, Clone, PartialEq)]
pub struct SimBuilder {
    config: SimConfig,
}

impl SimBuilder {
    /// Starts a configuration for `policy` with the default link latency
    /// (0.01 time units) and the oracle equivalence check enabled.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::EvenWindow`] for an even (or zero) sliding
    /// window and [`ConfigError::ZeroThreshold`] for a zero T-policy
    /// threshold — the structural mistakes the removed `SimConfig::new`
    /// only caught by panicking deep inside `Simulation::new`.
    pub fn new(policy: PolicySpec) -> Result<Self, ConfigError> {
        validate_policy(policy)?;
        Ok(SimBuilder {
            config: SimConfig::defaults(policy),
        })
    }

    /// Sets the one-way message latency (time units).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Latency`] unless the latency is finite and
    /// non-negative.
    pub fn latency(mut self, latency: f64) -> Result<Self, ConfigError> {
        validate_latency(latency)?;
        self.config.latency = latency;
        Ok(self)
    }

    /// Enables or disables the in-process reference-policy oracle check
    /// (on by default; recommended everywhere but hot benches).
    ///
    /// # Errors
    ///
    /// Never fails today; returns `Result` for setter uniformity so caller
    /// chains read the same for every knob.
    pub fn oracle(mut self, enabled: bool) -> Result<Self, ConfigError> {
        self.config.oracle_check = enabled;
        Ok(self)
    }

    /// Installs the deterministic ARQ transport, the one model of a lossy
    /// link, from an already-validated [`ArqConfig`] (timed stop-and-wait
    /// retransmission with exponential backoff, bounded retries, declared
    /// disconnections and graceful degradation — see `docs/faults.md`).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::HandoffDeadline`] if a topology is already
    /// installed whose handoff deadline is shorter than the transport's
    /// first retransmission timeout (the same check as in
    /// [`SimBuilder::topology`]).
    pub fn arq(mut self, arq: ArqConfig) -> Result<Self, ConfigError> {
        if let Some(topology) = &self.config.topology {
            validate_handoff_deadline(topology, &arq)?;
        }
        self.config.arq = Some(arq);
        Ok(self)
    }

    /// Enables the cellular-mobility model.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::NoCells`], [`ConfigError::CellLatency`] or
    /// [`ConfigError::HandoffRate`] for an empty cell list, a negative or
    /// non-finite per-cell latency, or a non-positive handoff rate.
    pub fn mobility(
        mut self,
        cell_extra_latency: Vec<f64>,
        handoff_rate: f64,
        seed: u64,
    ) -> Result<Self, ConfigError> {
        validate_mobility(&cell_extra_latency, handoff_rate)?;
        self.config.mobility = Some(MobilityConfig {
            cell_extra_latency,
            handoff_rate,
            seed,
        });
        Ok(self)
    }

    /// Installs an already-validated fault plan.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ConflictingFaultPlans`] if a *different*
    /// plan is already installed (re-installing the identical plan is
    /// idempotent) — the simulator runs exactly one fault schedule.
    pub fn faults(mut self, faults: FaultPlan) -> Result<Self, ConfigError> {
        match &self.config.faults {
            Some(existing) if *existing != faults => Err(ConfigError::ConflictingFaultPlans),
            _ => {
                self.config.faults = Some(faults);
                Ok(self)
            }
        }
    }

    /// Installs an already-validated multi-cell topology with
    /// fault-hardened handoff (mobility extension, `docs/topology.md`).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::HandoffDeadline`] if the ARQ transport is
    /// already installed and the topology's handoff deadline is shorter
    /// than the transport's first retransmission timeout — such a flight
    /// would abort before a single backbone retransmission could fire.
    /// (The same check runs in [`SimBuilder::arq`] for the other
    /// installation order.)
    pub fn topology(mut self, topology: TopologyConfig) -> Result<Self, ConfigError> {
        if let Some(arq) = &self.config.arq {
            validate_handoff_deadline(&topology, arq)?;
        }
        self.config.topology = Some(topology);
        Ok(self)
    }

    /// Finishes the configuration. Infallible: every field was validated
    /// by the setter that produced it.
    pub fn build(self) -> SimConfig {
        self.config
    }

    /// Convenience: builds the configuration and wraps it in a fresh
    /// [`Simulation`] in the policy's initial state.
    pub fn simulation(self) -> Simulation {
        Simulation::new(self.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_the_internal_defaults() {
        let old = SimConfig::defaults(PolicySpec::St1);
        let new = SimBuilder::new(PolicySpec::St1).unwrap().build();
        assert_eq!(old, new);
    }

    #[test]
    fn setters_chain_and_validate() {
        let config = SimBuilder::new(PolicySpec::SlidingWindow { k: 3 })
            .and_then(|b| b.latency(0.5))
            .and_then(|b| b.oracle(false))
            .and_then(|b| b.arq(ArqConfig::new(0.2, 0.1, 9)?))
            .and_then(|b| b.mobility(vec![0.0, 0.1], 2.0, 4))
            .unwrap()
            .build();
        assert_eq!(config.latency, 0.5);
        assert!(!config.oracle_check);
        assert!(config.arq.is_some());
        assert!(config.mobility.is_some());
    }

    #[test]
    fn structural_policy_mistakes_are_typed_errors() {
        assert_eq!(
            SimBuilder::new(PolicySpec::SlidingWindow { k: 4 }).unwrap_err(),
            ConfigError::EvenWindow { k: 4 }
        );
        assert_eq!(
            SimBuilder::new(PolicySpec::SlidingWindow { k: 0 }).unwrap_err(),
            ConfigError::EvenWindow { k: 0 }
        );
        assert_eq!(
            SimBuilder::new(PolicySpec::T1 { m: 0 }).unwrap_err(),
            ConfigError::ZeroThreshold
        );
        assert_eq!(
            SimBuilder::new(PolicySpec::T2 { m: 0 }).unwrap_err(),
            ConfigError::ZeroThreshold
        );
    }

    #[test]
    fn conflicting_fault_plans_are_rejected_but_reinstall_is_idempotent() {
        let plan_a = FaultPlan::new(0.1, 1.0, 1).unwrap();
        let plan_b = FaultPlan::new(0.2, 1.0, 1).unwrap();
        let b = SimBuilder::new(PolicySpec::St2)
            .and_then(|b| b.faults(plan_a.clone()))
            .unwrap();
        assert_eq!(
            b.clone().faults(plan_b).unwrap_err(),
            ConfigError::ConflictingFaultPlans
        );
        assert!(b.faults(plan_a).is_ok(), "same plan twice is fine");
    }

    #[test]
    fn handoff_deadline_must_cover_the_arq_rto_in_either_order() {
        let arq = ArqConfig::new(0.1, 0.5, 3).unwrap();
        let rto = arq.timeout_for_attempt(1);
        let short = TopologyConfig::new(3, 0.5, rto / 2.0, 11).unwrap();
        // topology after arq
        assert!(matches!(
            SimBuilder::new(PolicySpec::St1)
                .and_then(|b| b.arq(arq))
                .and_then(|b| b.topology(short))
                .unwrap_err(),
            ConfigError::HandoffDeadline { deadline, rto: r }
                if deadline.total_cmp(&(rto / 2.0)).is_eq() && r.total_cmp(&rto).is_eq()
        ));
        // arq after topology
        assert!(matches!(
            SimBuilder::new(PolicySpec::St1)
                .and_then(|b| b.topology(short))
                .and_then(|b| b.arq(arq))
                .unwrap_err(),
            ConfigError::HandoffDeadline { .. }
        ));
        // A deadline covering the first RTO installs fine either way.
        let ample = TopologyConfig::new(3, 0.5, rto * 10.0, 11).unwrap();
        let built = SimBuilder::new(PolicySpec::St1)
            .and_then(|b| b.arq(arq))
            .and_then(|b| b.topology(ample))
            .unwrap()
            .build();
        assert!(built.topology.is_some() && built.arq.is_some());
    }

    #[test]
    fn simulation_convenience_runs() {
        use crate::workload::PoissonWorkload;
        let mut sim = SimBuilder::new(PolicySpec::St1).unwrap().simulation();
        let mut w = PoissonWorkload::from_theta(1.0, 0.2, 3);
        let report = sim.run(&mut w, 100);
        assert_eq!(report.counts.total(), 100);
    }
}
