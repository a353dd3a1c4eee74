//! # mobile-replication
//!
//! A complete, tested Rust implementation of the data-allocation algorithms
//! from **Yixiu Huang, A. Prasad Sistla, Ouri Wolfson, "Data Replication
//! for Mobile Computers", ACM SIGMOD 1994** — static and dynamic replica
//! allocation between a mobile computer and the stationary computer holding
//! an online database, optimized for wireless communication cost.
//!
//! This facade re-exports the workspace's public API:
//!
//! * [`core`] (from `mdr-core`) — requests, schedules, both cost models,
//!   and the policy families ST1 / ST2 / SWk / SW1 / T1m / T2m;
//! * [`analysis`] (from `mdr-analysis`) — every closed form of the paper:
//!   expected cost, average expected cost, competitiveness factors, the
//!   Figure 1 dominance map and the Figure 2 threshold `k₀(ω)`;
//! * [`sim`] (from `mdr-sim`) — the discrete-event MC/SC protocol
//!   simulator with Poisson workloads and invariant checking;
//! * [`adversary`] (from `mdr-adversary`) — the offline optimum and the
//!   worst-case/competitive-ratio tooling;
//! * [`multi`] (from `mdr-multi`) — the §7.2 multi-object extension.
//!
//! ## Quickstart
//!
//! ```
//! use mobile_replication::prelude::*;
//!
//! // Pick a policy for a workload whose write fraction drifts: §9 says a
//! // sliding window balancing AVG against competitiveness — e.g. k = 9.
//! let spec = PolicySpec::SlidingWindow { k: 9 };
//!
//! // What does theory predict at θ = 0.3 in the connection model?
//! let predicted = expected_cost(spec, CostModel::Connection, 0.3);
//!
//! // Run the actual distributed protocol on a Poisson workload.
//! let report = Simulation::run_poisson(spec, 0.3, 20_000, 7);
//! let measured = report.cost_per_request(CostModel::Connection);
//! assert!((measured - predicted).abs() < 0.02);
//! ```
//!
//! For parameter grids — many policies × θ × fault plans, fanned across
//! threads with byte-identical results at any thread count — see
//! [`sim::sweep::SweepGrid`] and `docs/sweeps.md`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod paper_map;

/// Core types and policies (re-export of `mdr-core`).
pub mod core {
    pub use mdr_core::*;
}

/// Closed-form analysis (re-export of `mdr-analysis`).
pub mod analysis {
    pub use mdr_analysis::*;
}

/// Discrete-event distributed simulator (re-export of `mdr-sim`).
pub mod sim {
    pub use mdr_sim::*;
}

/// Offline optimum and worst-case tooling (re-export of `mdr-adversary`).
pub mod adversary {
    pub use mdr_adversary::*;
}

/// Multi-object extension (re-export of `mdr-multi`).
pub mod multi {
    pub use mdr_multi::*;
}

/// The names most programs need.
pub mod prelude {
    pub use mdr_adversary::{measure, opt_cost};
    pub use mdr_analysis::{average_expected_cost, competitive_factor, expected_cost};
    pub use mdr_core::{
        run_spec, Action, AdaptivePolicy, AllocationPolicy, CostModel, PolicySpec, Request,
        RunOutcome, Schedule, SlidingWindow, St1, St2, T1, T2,
    };
    pub use mdr_sim::sweep::{SweepGrid, SweepOptions, SweepReport};
    pub use mdr_sim::{PoissonWorkload, SimBuilder, SimConfig, SimReport, Simulation};
}
