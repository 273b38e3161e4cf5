//! # tetriserve-fleet
//!
//! Deterministic multi-cluster co-simulation: the production framing of
//! the paper, where one *fleet* of heterogeneous clusters (e.g. two
//! 8×H100 nodes plus a 4×A40 node, each with its own cost table and
//! scheduling policy) serves a multiplexed mixed-DiT workload under a
//! single virtual clock.
//!
//! * [`driver`] — the lockstep [`FleetSim`]: arbitrates per-cluster event
//!   queues, whole-cluster outage drains, rebalance ticks and workload
//!   arrivals on one
//!   [`GlobalClock`](tetriserve_simulator::lockstep::GlobalClock), with
//!   deterministic tie-breaking (internal < outage < rebalance < arrival,
//!   then lowest cluster index);
//! * [`router`] — the [`Router`] contract plus four policies: round-robin,
//!   join-shortest-queue, power-of-two-choices, and deadline-aware
//!   (EDF-feasibility-gated, shedding fleet-wide only when *no* cluster
//!   can meet the deadline);
//! * [`rebalance`] — the pluggable [`Rebalancer`] contract and the
//!   [`EdfRebalancer`]: a periodic planner that migrates at-risk queued
//!   work (fresh or partially denoised) off backlogged or down clusters,
//!   charging every move its real cross-cluster latent hand-off delay
//!   (`tetriserve_costmodel::interconnect`) so migration is only taken
//!   when it beats waiting. A rebalancer never admits: the fleet sheds
//!   exactly the requests its router sheds, with or without one.
//!
//! Every fleet run yields a
//! [`FleetReport`](tetriserve_metrics::FleetReport) carrying three FNV-1a
//! digests — the routing-decision stream, the fleet-wide outcome set and
//! the enacted-migration stream — that are bit-identical across same-seed
//! runs; the determinism suites pin them.
//!
//! # Examples
//!
//! ```
//! use tetriserve_core::{Policy, RequestSpec, TetriServePolicy};
//! use tetriserve_costmodel::{ClusterSpec, DitModel, Profiler, Resolution, StageProfile};
//! use tetriserve_fleet::{FleetCluster, FleetSim, RoundRobinRouter};
//! use tetriserve_simulator::time::SimTime;
//! use tetriserve_simulator::trace::{RequestId, TenantId};
//!
//! let cluster = |name: &str| {
//!     let costs = Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic();
//!     let policy: Box<dyn Policy> = Box::new(TetriServePolicy::with_defaults(&costs));
//!     FleetCluster::new(name, costs, policy)
//! };
//! let arrivals = vec![RequestSpec {
//!     tenant: TenantId::UNTAGGED,
//!     id: RequestId(0),
//!     resolution: Resolution::R512,
//!     arrival: SimTime::ZERO,
//!     deadline: SimTime::from_secs_f64(30.0),
//!     total_steps: 50,
//!     stages: StageProfile::FLAT,
//! }];
//! let report = FleetSim::new(
//!     vec![cluster("a"), cluster("b")],
//!     RoundRobinRouter::new(),
//!     arrivals,
//!     vec![],
//! )
//! .run();
//! assert_eq!(report.total_requests(), 1);
//! assert_eq!(report.sar(), 1.0);
//! ```

#![warn(missing_docs)]

pub mod driver;
pub mod rebalance;
pub mod router;

pub use driver::{ArrivalSource, FleetCluster, FleetSim, ReplaySource};
pub use rebalance::{
    EdfRebalancer, FleetOracle, MigrationCandidate, MigrationDecision, Rebalancer, DEFAULT_CADENCE,
};
pub use router::{
    ClusterView, DeadlineAwareRouter, JoinShortestQueueRouter, PowerOfTwoRouter, RoundRobinRouter,
    RouteDecision, Router,
};
