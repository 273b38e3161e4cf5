//! # tetriserve-nirvana
//!
//! Approximate-caching acceleration (Nirvana, NSDI'24) as integrated in
//! §6.2 / Table 3 of the TetriServe paper: prompts are embedded, matched
//! against a fixed-size LRU cache of previously served prompts, and — when
//! a sufficiently similar neighbour exists — a prefix of the denoising
//! schedule is skipped (k ∈ {5, 10, 15, 20, 25} of N = 50 steps).
//!
//! TetriServe's scheduling is orthogonal: this crate only shortens request
//! schedules; the scheduler then adapts GPU parallelism to the reduced and
//! variable step counts, which is exactly the composition Table 3 measures.
//!
//! # Examples
//!
//! ```
//! use tetriserve_nirvana::{NirvanaCache, SkipPolicy};
//! use tetriserve_workload::prompt::PromptLibrary;
//!
//! let policy = SkipPolicy::paper_default();
//! let mut cache = NirvanaCache::new(64);
//! let mut prompts = PromptLibrary::diffusiondb_like(0);
//! let prompt = prompts.next_prompt();
//! // Cold cache: the full 50-step schedule runs.
//! assert_eq!(policy.effective_steps(&mut cache, &prompt, 50), 50);
//! ```

#![warn(missing_docs)]

pub mod accelerate;
pub mod cache;
pub mod skip;

pub use accelerate::{accelerate_trace, AcceleratedTrace, NirvanaConfig};
pub use cache::NirvanaCache;
pub use skip::SkipPolicy;
