//! # tetriserve-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation. Each `benches/` target is one artefact (`cargo
//! bench` runs them all); [`experiment`] holds the shared runner and
//! [`figures`] the shared figure panels. Behaviour gates — who must beat
//! whom, with digests pinned — are tests in the root package, and host
//! cost is measured by `fleetbench/`.
//!
//! Absolute numbers will not match the authors' hardware — the substrate
//! is a calibrated simulator — but the comparative *shapes* (who wins, by
//! roughly what factor, where crossovers fall) are the reproduction
//! target. `EXPERIMENTS.md` at the repository root records paper-vs-
//! measured values per artefact.

#![warn(missing_docs)]

pub mod experiment;
pub mod figures;

pub use experiment::{ArrivalKind, Experiment, PolicyKind, SLO_SCALES};
