//! # tetriserve-traffic
//!
//! The open-loop multi-tenant traffic frontend: live arrival streams,
//! tenant SLO classes, and the arrival shapes the fleet benchmarks
//! exercise.
//!
//! Prior layers generated workloads *offline* — materialise every
//! request, sort, replay. This crate closes the loop the other way:
//! a [`TrafficModel`] describes tenants declaratively
//! ([`TenantSpec`]: arrival shape, resolution mix, SLO class,
//! [`PriorityTier`]) and produces a lazy [`TrafficSource`] whose
//! requests are generated *as the fleet simulation advances*, one
//! buffered request per tenant, merged with the exact `(arrival, tenant
//! index)` tie-break contract of
//! [`tetriserve_workload::multiplex`]. [`StreamingArrivals`] adapts the
//! stream to the fleet driver's
//! [`ArrivalSource`](tetriserve_fleet::ArrivalSource), so million-request
//! runs never hold the workload in memory — and the online stream is
//! bit-identical to the offline generate-then-merge path, which the
//! determinism suite pins.
//!
//! Two arrival shapes live here because they compose over *any* base
//! process rather than being processes themselves:
//!
//! * [`DiurnalEnvelope`] / [`DiurnalModulated`] — a sinusoidal rate
//!   envelope applied as a deterministic time-warp (the bench harness's
//!   diurnal arrival kind; tenants carry no envelope);
//! * [`BurstCoupler`] / [`CoupledProcess`] — a shared two-state
//!   modulating timeline that lifts several tenants' rates *at once*,
//!   producing the correlated flash crowds that stress fleet routing.
//!
//! Tenant identity ([`TenantId`](tetriserve_simulator::trace::TenantId))
//! rides each request end-to-end for per-tenant SAR/goodput and fairness
//! accounting; it is attribution only — no scheduler or router decision
//! path may branch on it, and `tetrilint` polices this crate like every
//! other decision-path crate.

#![warn(missing_docs)]

pub mod coupler;
pub mod shapes;
pub mod source;
pub mod tenant;

pub use coupler::{BurstCoupler, CoupledProcess, CouplingSpec};
pub use shapes::{DiurnalEnvelope, DiurnalModulated};
pub use source::{to_spec, StreamingArrivals, TrafficModel, TrafficSource};
pub use tenant::{ArrivalShape, PriorityTier, TenantSpec};
