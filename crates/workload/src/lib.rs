//! # tetriserve-workload
//!
//! Workload generation for the TetriServe reproduction, matching §6.1 of
//! the paper:
//!
//! * [`arrival`] — Poisson (default 12 req/min), deterministic and bursty
//!   (MMPP) arrival processes (the diurnal envelope over any of them is
//!   `tetriserve_traffic::DiurnalModulated`);
//! * [`mix`] — Uniform, Skewed (`p_i ∝ exp(α·L_i/L_max)`), homogeneous and
//!   custom resolution mixes;
//! * [`slo`] — the per-resolution latency targets (1.5/2/3/5 s) with the
//!   SLO-scale sweep;
//! * [`prompt`] — a DiffusionDB-like synthetic prompt library with
//!   clustered CLIP-style embeddings (drawn only by the Nirvana
//!   integration);
//! * [`gen`] — the end-to-end trace generator;
//! * [`multiplex`] — merging independent tenant streams into one fleet
//!   arrival stream;
//! * [`trace_io`] — CSV persistence so exact request streams can be saved
//!   and replayed across machines;
//! * [`scenarios`] — curated named stress workloads (flash crowd,
//!   deadline cliff, elephants-and-mice).
//!
//! # Examples
//!
//! ```
//! use tetriserve_workload::arrival::PoissonProcess;
//! use tetriserve_workload::gen::TraceGen;
//! use tetriserve_workload::mix::ResolutionMix;
//! use tetriserve_workload::slo::SloPolicy;
//!
//! let mut gen = TraceGen::new(
//!     PoissonProcess::new(12.0),
//!     ResolutionMix::uniform(),
//!     SloPolicy::paper_targets().scaled(1.2),
//!     0,
//! );
//! let requests = gen.generate(300);
//! assert_eq!(requests.len(), 300);
//! ```

#![warn(missing_docs)]

pub mod arrival;
pub mod gen;
pub mod mix;
pub mod multiplex;
pub mod prompt;
pub mod scenarios;
pub mod slo;
pub mod trace_io;

pub use arrival::{ArrivalProcess, BurstyProcess, PoissonProcess, UniformProcess};
pub use gen::{GeneratedRequest, TraceGen};
pub use mix::ResolutionMix;
pub use prompt::{Embedding, PromptLibrary};
pub use slo::SloPolicy;
pub use trace_io::{from_csv, to_csv, ParseTraceError};
