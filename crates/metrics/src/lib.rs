//! # tetriserve-metrics
//!
//! Post-processing of serving runs into the paper's metrics:
//!
//! * [`mod@sar`] — SLO Attainment Ratio, overall and per
//!   resolution (spider plots);
//! * [`latency`] — completed-request latency CDFs, percentiles and means
//!   (Figure 9, Table 5);
//! * [`timeseries`] — windowed SAR over time (Figure 10) and mean
//!   sequence-parallel degree over time (Figure 11);
//! * [`batching`] — selective-batching statistics from traces (§5);
//! * [`fleet`] — multi-cluster aggregation: fleet SAR/goodput and
//!   routing counts;
//! * [`tenancy`] — per-tenant SAR/goodput slices and the worst-tenant
//!   SAR;
//! * [`stages`] — stage share of the SLO budget (encode/denoise/decode)
//!   and stage-pool utilisation under disaggregated layouts;
//! * [`report`] — plain-text tables and ASCII charts used by the benchmark
//!   harness to print paper-style artefacts.
//!
//! The quality-debt counts of degraded serving (steps shed, rescued
//! requests, degraded completions, full-quality SAR) are methods on
//! `tetriserve_core::ServeReport`, not functions here.
//!
//! # Examples
//!
//! ```
//! use tetriserve_metrics::sar::sar;
//!
//! // An empty run trivially attains every SLO.
//! assert_eq!(sar(&[]), 1.0);
//! ```

#![warn(missing_docs)]

pub mod batching;
pub mod fleet;
pub mod latency;
pub mod report;
pub mod sar;
pub mod stages;
pub mod tenancy;
pub mod timeseries;

pub use batching::{batching_stats, BatchingStats};
pub use fleet::{ClusterReport, FleetReport};
pub use latency::LatencySummary;
pub use report::{bar_chart, fmt_sar, series, TextTable};
pub use sar::{mean_gpu_seconds, sar, sar_by_resolution};
pub use stages::{pool_utilization, stage_slo_share};
pub use tenancy::{tenant_summaries, worst_tenant_sar, TenantSummary};
pub use timeseries::{mean_sp_degree_series, windowed_sar};
