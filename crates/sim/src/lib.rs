//! # mdr-sim — a discrete-event mobile data-replication simulator
//!
//! The distributed substrate for **Huang, Sistla, Wolfson, "Data Replication
//! for Mobile Computers" (SIGMOD 1994)**: a mobile computer (MC) and a
//! stationary computer (SC) exchanging real protocol messages over a
//! latency-ful wireless link, driven by Poisson read/write arrivals.
//!
//! The §4 window-ownership protocol is implemented literally:
//!
//! * exactly one side is *in charge* of the k-bit request window at any
//!   time — the side that sees every relevant request;
//! * allocation piggybacks the save-indication and the window on the data
//!   response; deallocation ships the window back on the delete-request;
//! * SW1's optimized write sends a bare delete-request instead of the data.
//!
//! The simulator continuously checks protocol invariants (single window
//! owner, replica freshness, SC/MC replica agreement) and, in oracle mode,
//! asserts per-request equivalence with the pure-policy reference
//! implementation in `mdr-core`.
//!
//! ```
//! use mdr_core::{CostModel, PolicySpec};
//! use mdr_sim::Simulation;
//!
//! // 10k Poisson requests at write fraction θ = 0.3 under SW5.
//! let report = Simulation::run_poisson(PolicySpec::SlidingWindow { k: 5 }, 0.3, 10_000, 42);
//! let per_request = report.cost_per_request(CostModel::Connection);
//! assert!(per_request > 0.0 && per_request < 1.0);
//! ```
//!
//! Configurations beyond the defaults go through the [`SimBuilder`] front
//! door; parameter grids fan out on the deterministic [`sweep`] engine.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod builder;
pub mod calendar;
pub mod engine;
mod estimate;
mod faults;
pub mod journal;
mod link;
mod nodes;
pub mod perf;
mod protocol;
mod sim;
pub mod sweep;
mod topology;
mod wire;
mod workload;

pub use builder::SimBuilder;
pub use engine::{
    CoreSnapshot, Decision, DecisionCore, PolicyState, ServeBenchReport, ServeConfig, ServeEngine,
    ServeRequest, ServeResponse, ServeShedReason, Verdict,
};
pub use estimate::{estimate_average_cost, estimate_expected_cost, EstimatorConfig, Summary};
pub use faults::{ArqConfig, ConfigError, FaultKind, FaultPlan};
pub use journal::{
    DurabilityStats, DurableServe, FsyncPolicy, JournalConfig, RecoveryReport, TenantRecovery,
};
pub use link::{LinkState, LinkStep, RequestHandle, Restored, Timeout};
pub use nodes::{MobileNode, StationaryNode};
pub use protocol::{Envelope, ProtocolState, StepOutcome, Ticket};
pub use sim::{InvariantMonitor, ShedReason, ShedRequest, SimConfig, SimReport, Simulation};
pub use topology::{
    HandoffFlight, HandoffLeg, HandoffState, LegLanding, LegSent, MobilityConfig, TopologyConfig,
};
pub use wire::{Endpoint, MessageClass, WireMessage};
pub use workload::{
    Arrival, ArrivalProcess, DriftingPoisson, Period, PhasedWorkload, PoissonWorkload, Replay,
    SharedStream, TraceWorkload,
};
