//! # tetriserve-core
//!
//! The TetriServe scheduler — the paper's primary contribution — plus the
//! policy-agnostic serving framework that both TetriServe and the baselines
//! run on.
//!
//! ## Architecture (paper §3)
//!
//! * [`tracker`] — the **Request Tracker**: request metadata and execution
//!   state;
//! * [`scheduler`] — the **Scheduler**: deadline-aware GPU allocation
//!   ([`allocation`]), round options ([`options`]), the group-knapsack DP
//!   ([`dp`]), placement preservation ([`placement`]), elastic scale-up
//!   ([`elastic`]) and selective batching ([`batching`]);
//! * [`server`] — the serving loop driving the execution engine (the
//!   simulator crate) and the latent manager semantics;
//! * [`policy`] — the `Policy` trait abstraction baselines implement too;
//! * [`config`] — scheduler knobs matching the paper's ablations.
//!
//! # Examples
//!
//! ```
//! use tetriserve_core::{RequestSpec, Server, TetriServePolicy};
//! use tetriserve_costmodel::{ClusterSpec, DitModel, Profiler, Resolution, StageProfile};
//! use tetriserve_simulator::time::SimTime;
//! use tetriserve_simulator::trace::{RequestId, TenantId};
//!
//! let costs = Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic();
//! let policy = TetriServePolicy::with_defaults(&costs);
//! let report = Server::new(costs, policy).run(vec![RequestSpec {
//!     tenant: TenantId::UNTAGGED,
//!     id: RequestId(0),
//!     resolution: Resolution::R1024,
//!     arrival: SimTime::ZERO,
//!     deadline: SimTime::from_secs_f64(3.0),
//!     total_steps: 50,
//!     stages: StageProfile::FLAT,
//! }]);
//! assert_eq!(report.sar(), 1.0);
//! ```

#![warn(missing_docs)]

pub mod allocation;
pub mod audit;
pub mod batching;
pub mod config;
pub mod degrade;
pub mod dp;
pub mod elastic;
pub mod feasibility;
pub mod options;
pub mod placement;
pub mod policy;
mod proptests;
pub mod request;
pub mod scheduler;
pub mod server;
pub mod stage;
pub mod tracker;

pub use config::{AdmissionPolicy, TetriServeConfig};
pub use degrade::DegradePolicy;
pub use policy::{DispatchPlan, Policy, PolicyEvent, SchedContext};
pub use request::{RequestOutcome, RequestSpec};
pub use scheduler::TetriServePolicy;
pub use server::{ClusterLoad, ClusterSim, ServeReport, Server, ServerConfig};
pub use stage::{plan_stage_dispatch, PoolLayout};
pub use tracker::{MigratedRequest, RequestTracker};
