//! # fleetbench
//!
//! The repository benchmark: four open-loop workloads driven through the
//! serial fleet driver, end-to-end serving-quality and host-cost metrics,
//! and a traced run that attributes host time and allocations to each
//! layer through timing shims around the library's public seams. See
//! `README.md` next to this package's manifest for the workloads, the
//! metrics and the layer → end-to-end map.

pub mod alloc;
pub mod measure;
pub mod probe;
pub mod rep;
pub mod speed;
pub mod workloads;
