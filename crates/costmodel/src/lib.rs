//! # tetriserve-costmodel
//!
//! DiT performance model for the TetriServe reproduction.
//!
//! The paper's scheduler is driven entirely by a profiled cost model: the
//! per-step latency `T(k)` of each resolution at each sequence-parallel
//! degree, and the derived GPU-hours `k·T(k)` (§4.2.1). This crate provides
//! that model, calibrated to every quantitative anchor the paper publishes:
//!
//! * [`resolution`] — the four production resolutions and their latent token
//!   counts (`L = H·W/16²`, Table 1);
//! * [`flops`] — a quadratic FLOPs law fitted *exactly* to Table 1's TFLOPs
//!   column;
//! * [`model`] — FLUX.1-dev and SD3-Medium specs (and a builder for custom
//!   models);
//! * [`hardware`] — the 8×H100 and 4×A40 testbeds;
//! * [`comm`] — Ulysses / Ring sequence-parallel communication cost
//!   (Figure 2's shape);
//! * [`interconnect`] — cross-cluster latent hand-off pricing for the
//!   fleet rebalancer (α + volume over the datacenter link);
//! * [`efficiency`] — the occupancy curve behind sublinear scaling
//!   (Figure 3's shape);
//! * [`stage`] — the request stage profile (condition encode →
//!   denoise → VAE decode) and the video-DiT frame axis;
//! * [`steptime`] — the combined `T(resolution, k, batch, placement)`;
//! * [`profiler`] — the offline profiling pass and the [`CostTable`] lookup
//!   structure schedulers consult at runtime;
//! * [`calibration`] — executable verification of every paper anchor the
//!   model is calibrated against.
//!
//! # Examples
//!
//! ```
//! use tetriserve_costmodel::{ClusterSpec, DitModel, Profiler, Resolution};
//!
//! let table = Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic();
//! // More GPUs -> faster steps, but worse GPU-hours (Insight 2).
//! let t1 = table.step_time(Resolution::R1024, 1, 1);
//! let t8 = table.step_time(Resolution::R1024, 8, 1);
//! assert!(t8 < t1);
//! assert!(table.gpu_seconds(Resolution::R1024, 8) > table.gpu_seconds(Resolution::R1024, 1));
//! ```

#![warn(missing_docs)]

pub mod calibration;
pub mod comm;
pub mod efficiency;
pub mod flops;
pub mod hardware;
pub mod interconnect;
pub mod model;
pub mod profiler;
pub mod resolution;
pub mod stage;
pub mod steptime;

pub use calibration::{verify_flux_h100, verify_sd3_a40, CalibrationReport};
pub use comm::CommScheme;
pub use flops::FlopsModel;
pub use hardware::{ClusterSpec, GpuKind};
pub use interconnect::{handoff_time, InterClusterLink};
pub use model::DitModel;
pub use profiler::{measure_step_cv, CostRow, CostTable, Profiler, ResolutionRow};
pub use resolution::Resolution;
pub use stage::StageProfile;
