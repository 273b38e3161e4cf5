//! # tetriserve-simulator
//!
//! Discrete-event GPU-cluster substrate for the TetriServe reproduction.
//!
//! The paper evaluates on 8×H100 and 4×A40 nodes; this crate replaces that
//! hardware with a deterministic simulator faithful to the *serving-visible*
//! behaviour of such nodes:
//!
//! * [`time`] / [`event`] — integer-microsecond clock and a deterministic
//!   future-event list;
//! * [`gpuset`] / [`topology`] — GPU sets and the two interconnect layouts
//!   (NVSwitch-everywhere H100, NVLink-paired A40 with PCIe crossings);
//! * [`group`] — NCCL process-group warm-up semantics (§5 of the paper);
//! * [`latent`] — the latent transfer-time model behind group hand-offs
//!   (§5, Table 4);
//! * [`engine`] — the worker pool that executes step dispatches with
//!   Table 1-calibrated jitter, remap stalls and group warm-up (VAE
//!   decodes queue on the serving loop's decode pool, not here);
//! * [`failure`] — straggler injection for graceful-degradation testing;
//! * [`trace`] — the event log the metrics crate mines for figures;
//! * [`rng`] — seeded randomness (Box–Muller normals, exponentials);
//! * [`digest`] — the shared FNV-1a decision-digest and splitmix64 seed
//!   machinery behind every reproducibility check;
//! * [`lockstep`] — arbitration rules for multi-engine co-simulation
//!   (the fleet layer's single virtual clock).
//!
//! Schedulers (both TetriServe and the fixed-SP baselines) drive the same
//! engine, so every policy comparison in the benchmark harness is
//! apples-to-apples.
//!
//! # Examples
//!
//! ```
//! use tetriserve_simulator::engine::{Engine, EngineConfig, StepDispatch};
//! use tetriserve_simulator::gpuset::GpuSet;
//! use tetriserve_simulator::time::{SimDuration, SimTime};
//! use tetriserve_simulator::topology::Topology;
//! use tetriserve_simulator::trace::{Batch, RequestId};
//!
//! let mut engine = Engine::new(Topology::h100_nvlink(8), EngineConfig::default());
//! let dispatch = StepDispatch {
//!     requests: Batch::one(RequestId(0)),
//!     gpus: GpuSet::contiguous(0, 2),
//!     steps: 10,
//!     per_step: SimDuration::from_millis(40),
//!     latent_bytes: 2 << 20,
//!     members: Default::default(),
//! };
//! let outcome = engine.submit(SimTime::ZERO, &dispatch)?;
//! // Ten jittered 40 ms steps on a pre-warmed pair: about 400 ms.
//! let busy = outcome.gpus_free_at.saturating_since(outcome.start);
//! assert!((busy.as_secs_f64() - 0.4).abs() < 0.01);
//! # Ok::<(), tetriserve_simulator::engine::SubmitError>(())
//! ```

#![warn(missing_docs)]

pub mod digest;
pub mod engine;
pub mod event;
pub mod failure;
pub mod gpuset;
pub mod group;
pub mod latent;
pub mod lockstep;
pub mod rng;
pub mod time;
pub mod topology;
pub mod trace;

pub use engine::{DispatchOutcome, Engine, EngineConfig, Member, StepDispatch, SubmitError};
pub use gpuset::{GpuId, GpuSet};
pub use time::{SimDuration, SimTime};
pub use topology::Topology;
pub use trace::{Batch, RequestId, TenantId, Trace, TraceEvent};
