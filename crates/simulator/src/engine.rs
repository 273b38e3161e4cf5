//! The distributed execution engine.
//!
// tetrilint: allow-file(slice-index) -- `busy_until`/`busy_time` are
// sized to the topology's GPU count at construction and every `GpuIndex`
// comes from that same topology.
//!
//! This is the simulator's stand-in for the paper's pool of GPU workers
//! (§3 "Execution Engine"). A scheduling policy hands the engine
//! [`StepDispatch`]es — "run these requests for `steps` diffusion steps on
//! this GPU set" — and the engine plays them out on simulated hardware:
//!
//! * it validates that no GPU is double-booked (a scheduler-bug tripwire);
//! * it charges *group warm-up* for cold process groups and *remap stalls*
//!   plus asynchronous *latent transfers* when a request's GPU set changes
//!   between consecutive dispatches (§4.2.3, §5);
//! * it perturbs each step with a small multiplicative jitter whose
//!   coefficient of variation matches the sub-percent stability the paper
//!   measures in Table 1;
//! * it serialises VAE decodes (§5 "VAE Decoder Sequential Execution").
//!
//! The engine itself is *passive*: it computes, at submit time, the exact
//! timeline a dispatch will follow and returns it in a [`DispatchOutcome`].
//! The serving loop turns those timelines into future events. This is sound
//! because dispatches are never cancelled mid-flight by the *scheduler* —
//! the round-based scheduler only preempts at round boundaries, i.e.
//! between dispatches — and because hard GPU faults come from the
//! statically known [`crate::failure::FailurePlan`], so a fault-induced
//! abort's exact instant is computable at submit time too: the outcome then
//! carries [`DispatchOutcome::aborted`], only the steps completed before
//! the fault count (step-level checkpointing), and the burned-but-useless
//! tail is charged as wasted GPU-seconds.

use crate::failure::FailurePlan;
use crate::gpuset::GpuSet;
use crate::group::ProcessGroupCache;
use crate::latent::transfer_time;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use crate::trace::{DispatchId, RequestId, Trace, TraceEvent};

use std::collections::{HashMap, HashSet};

/// Delay charged when a request resumes on a *different* GPU set than its
/// previous dispatch (distributed-context re-establishment). GPU placement
/// preservation exists to avoid exactly this cost.
pub(crate) const REMAP_STALL: SimDuration = SimDuration::from_millis(15);

/// First-collective latency on a cold process group (NCCL channel
/// initialisation).
pub(crate) const GROUP_WARMUP: SimDuration = SimDuration::from_millis(150);

/// Bandwidth, in GB/s, for re-materialising a latent from its host
/// checkpoint after its GPU group died (PCIe-class, much slower than
/// NVLink paths).
pub(crate) const HOST_RECOVERY_GBPS: f64 = 25.0;

/// Tunable engine behaviour.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Coefficient of variation of per-step execution jitter. The paper
    /// measures ≤ 0.7% across all resolutions and SP degrees (Table 1).
    pub step_noise_cv: f64,
    /// Seed for step jitter.
    pub seed: u64,
    /// Injected degradations (slowdowns and hard GPU faults); empty by
    /// default.
    pub failures: FailurePlan,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            step_noise_cv: 0.002,
            seed: 0x7e7215e7,
            failures: FailurePlan::none(),
        }
    }
}

/// A unit of work for the engine: `steps` diffusion steps for a batch of
/// requests on a fixed GPU set.
#[derive(Debug, Clone)]
pub struct StepDispatch {
    /// Requests advancing together (batched execution; usually one).
    pub requests: Vec<RequestId>,
    /// The GPU set executing the dispatch (the SP degree is its size).
    pub gpus: GpuSet,
    /// Number of diffusion steps to run.
    pub steps: u32,
    /// Expected per-step latency from the cost model (pre-jitter).
    pub per_step: SimDuration,
    /// Latent tensor size per request, for hand-off accounting.
    pub latent_bytes: u64,
    /// VAE decode latency applied to each member of `finishing`.
    pub decode_after: Option<SimDuration>,
    /// The subset of `requests` that complete with this dispatch (they run
    /// their final diffusion step here and proceed to VAE decode).
    pub finishing: Vec<RequestId>,
}

/// The fully resolved timeline of a submitted dispatch.
#[derive(Debug, Clone)]
pub struct DispatchOutcome {
    /// When execution began (after stalls, warm-up and latent waits).
    pub start: SimTime,
    /// When the GPUs become free (completion of the final step).
    pub gpus_free_at: SimTime,
    /// Per-request end-to-end completion (only when `decode_after` was set).
    pub request_done: Vec<(RequestId, SimTime)>,
    /// Total synchronous stall charged before the first step.
    pub stall: SimDuration,
    /// Longest latent transfer that gated the start.
    pub latent_wait: SimDuration,
    /// Set when a member GPU went down mid-flight and killed the dispatch;
    /// `gpus_free_at` is then the fault instant.
    pub aborted: Option<AbortInfo>,
}

/// How a dispatch died when a member GPU went down.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbortInfo {
    /// The fault instant.
    pub time: SimTime,
    /// The member GPUs down at the fault instant.
    pub down: GpuSet,
    /// Diffusion steps checkpointed before the fault.
    pub completed_steps: u32,
    /// GPU-seconds burned without producing a completed step, summed over
    /// all member GPUs.
    pub wasted_gpu_seconds: f64,
}

/// Errors returned by [`Engine::submit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The dispatch referenced GPUs outside the node.
    UnknownGpus(GpuSet),
    /// The GPU-set size was not a power of two (sequence parallelism
    /// requires it).
    NotPowerOfTwo(usize),
    /// One of the GPUs is still executing a previous dispatch.
    GpuBusy(GpuSet),
    /// One of the GPUs is down (hard fault) at submit time; schedulers
    /// should consult the health view and never target down GPUs.
    GpuDown(GpuSet),
    /// The dispatch had no requests or no steps.
    EmptyDispatch,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::UnknownGpus(g) => write!(f, "gpu set {g} outside the node"),
            SubmitError::NotPowerOfTwo(n) => {
                write!(f, "sequence parallel degree {n} is not a power of two")
            }
            SubmitError::GpuBusy(g) => write!(f, "gpu set {g} is still busy"),
            SubmitError::GpuDown(g) => write!(f, "gpu set {g} is down (hard fault)"),
            SubmitError::EmptyDispatch => write!(f, "dispatch has no requests or no steps"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// The simulated GPU worker pool.
#[derive(Debug)]
pub struct Engine {
    topology: Topology,
    config: EngineConfig,
    groups: ProcessGroupCache,
    rng: SimRng,
    busy_until: Vec<SimTime>,
    busy_time: Vec<SimDuration>,
    // Point-queried only (get/insert/remove) — hash order never escapes
    // these two, so same-seed runs are unaffected by their randomization.
    last_gpus: HashMap<RequestId, GpuSet>,
    needs_recovery: HashSet<RequestId>,
    decode_free_at: SimTime,
    next_dispatch: u64,
    trace: Trace,
}

impl Engine {
    /// Creates an engine over `topology` with the given behaviour and
    /// pre-warms the aligned power-of-two blocks (the "compact set of
    /// commonly used, overlapping groups" of §5).
    pub fn new(topology: Topology, config: EngineConfig) -> Self {
        let n = topology.n_gpus();
        let mut groups = ProcessGroupCache::new(GROUP_WARMUP);
        let mut k = 2;
        while k <= n {
            groups.prewarm(topology.aligned_blocks(k));
            k *= 2;
        }
        let rng = SimRng::seed_from_u64(config.seed);
        Engine {
            topology,
            config,
            groups,
            rng,
            busy_until: vec![SimTime::ZERO; n],
            busy_time: vec![SimDuration::ZERO; n],
            last_gpus: HashMap::new(),
            needs_recovery: HashSet::new(),
            decode_free_at: SimTime::ZERO,
            next_dispatch: 0,
            trace: Trace::new(),
        }
    }

    /// Submits a dispatch at simulated time `now` and resolves its timeline.
    ///
    /// # Errors
    ///
    /// Returns a [`SubmitError`] when the dispatch is malformed or any GPU
    /// in the set is still busy at `now` — the latter indicates a scheduler
    /// bug, since policies must only reuse GPUs after the corresponding
    /// dispatch-done event.
    pub fn submit(
        &mut self,
        now: SimTime,
        dispatch: &StepDispatch,
    ) -> Result<DispatchOutcome, SubmitError> {
        self.validate(now, dispatch)?;
        let id = DispatchId(self.next_dispatch);
        self.next_dispatch += 1;

        // Synchronous pre-delays: group warm-up and remap stall.
        let warmup = self.groups.ensure(dispatch.gpus);
        let mut remap = SimDuration::ZERO;
        let mut latent_wait = SimDuration::ZERO;
        for &req in &dispatch.requests {
            if let Some(&prev) = self.last_gpus.get(&req) {
                if prev != dispatch.gpus {
                    remap = REMAP_STALL;
                    let path = prev.union(dispatch.gpus);
                    let bw = self.topology.group_bandwidth_gbps(path);
                    let t = transfer_time(dispatch.latent_bytes, bw);
                    latent_wait = latent_wait.max(t);
                    self.trace.record(TraceEvent::LatentTransfer {
                        time: now,
                        request: req,
                        bytes: dispatch.latent_bytes,
                        duration: t,
                    });
                }
            }
        }
        // A request whose previous group died has no resident latent
        // anywhere on the cluster: re-materialise it from the host-side
        // step checkpoint over the (slow) recovery path.
        for &req in &dispatch.requests {
            if self.needs_recovery.remove(&req) {
                let t = transfer_time(dispatch.latent_bytes, HOST_RECOVERY_GBPS);
                latent_wait = latent_wait.max(t);
                self.trace.record(TraceEvent::LatentTransfer {
                    time: now,
                    request: req,
                    bytes: dispatch.latent_bytes,
                    duration: t,
                });
            }
        }
        // Latent transfers are asynchronous and overlap the stall; the step
        // cannot start before both complete.
        let stall = warmup + remap;
        let start = now + stall.max(latent_wait);

        // Read once: the dispatch occupies its GPUs from `now` without a
        // gap, so the first instant at or after `now` that a member GPU is
        // down is the abort instant of whichever interval reaches it
        // first. A fault landing during the pre-start stall kills the
        // dispatch before its first step.
        let failures = &self.config.failures;
        let down_at = failures.first_down_at_or_after(dispatch.gpus, now);
        let mut abort_at = down_at.filter(|&down| down < start);

        // Execute steps with per-step jitter. Stragglers are evaluated at
        // each step's start time, so a degradation window opening
        // mid-dispatch slows only the tail steps; the group slowdown is
        // re-read only for a step starting at or after the next timeline
        // break. A hard fault inside a step's half-open execution window
        // `[t, end)` (or at `t` for a zero-length step) aborts at the
        // fault instant and the step does not complete.
        let mut completed = 0;
        let mut t = start;
        if abort_at.is_none() {
            let (mut slowdown, mut next_break) = failures.group_slowdown_until(dispatch.gpus, t);
            for _ in 0..dispatch.steps {
                if t >= next_break {
                    (slowdown, next_break) = failures.group_slowdown_until(dispatch.gpus, t);
                }
                let jitter = self.rng.jitter_factor(self.config.step_noise_cv);
                let end = t + dispatch.per_step.mul_f64(jitter * slowdown);
                if let Some(down) = down_at.filter(|&down| down < end || down == t) {
                    abort_at = Some(down);
                    break;
                }
                t = end;
                completed += 1;
            }
        }
        let gpus_free_at = abort_at.unwrap_or(t);

        // Occupancy bookkeeping: aborted dispatches still burned the GPUs
        // up to the fault instant.
        for gpu in dispatch.gpus.iter() {
            self.busy_until[gpu.0] = gpus_free_at;
            self.busy_time[gpu.0] += gpus_free_at.saturating_since(now);
        }
        for &req in &dispatch.requests {
            if abort_at.is_some() {
                // The group is gone; the latent survives only as a host
                // checkpoint of the last completed step.
                self.last_gpus.remove(&req);
                self.needs_recovery.insert(req);
            } else if dispatch.finishing.contains(&req) {
                // A finished request never dispatches again, whether its
                // decode runs fused here or on a separate pool.
                self.last_gpus.remove(&req);
            } else {
                self.last_gpus.insert(req, dispatch.gpus);
            }
        }

        // Sequential per-request VAE decode (off the GPUs' critical path).
        // Aborted dispatches never reach the decoder.
        let mut request_done = Vec::new();
        if let Some(decode) = dispatch.decode_after {
            if abort_at.is_none() {
                for &req in &dispatch.finishing {
                    let begin = self.decode_free_at.max(gpus_free_at);
                    let done = begin + decode;
                    self.decode_free_at = done;
                    request_done.push((req, done));
                }
            }
        }

        // `t` is the end of the last completed step (`start` when none did).
        let useful_end = (completed > 0).then_some(t);
        let actual_mean = match useful_end {
            Some(end) => end.saturating_since(start) / u64::from(completed),
            None => SimDuration::ZERO,
        };
        // For a pre-start abort the planned start never happened; the
        // traced interval opens at the fault instant so audit intervals
        // stay well-formed (start ≤ end).
        let traced_start = abort_at.map_or(start, |a| start.min(a));
        self.trace.record(TraceEvent::DispatchStart {
            time: traced_start,
            dispatch: id,
            requests: dispatch.requests.clone(),
            gpus: dispatch.gpus,
            steps: completed,
            per_step: actual_mean,
        });
        let aborted = if let Some(abort) = abort_at {
            // Everything after the last checkpointed step — including any
            // pre-start stall when no step completed — bought nothing.
            let wasted_per_gpu = abort.saturating_since(useful_end.unwrap_or(now));
            let wasted_gpu_seconds = wasted_per_gpu.as_secs_f64() * dispatch.gpus.len() as f64;
            let down = self
                .config
                .failures
                .down_gpus(abort)
                .intersection(dispatch.gpus);
            self.trace.record(TraceEvent::DispatchAborted {
                time: abort,
                dispatch: id,
                down,
                completed_steps: completed,
                wasted_gpu_seconds,
            });
            Some(AbortInfo {
                time: abort,
                down,
                completed_steps: completed,
                wasted_gpu_seconds,
            })
        } else {
            self.trace.record(TraceEvent::DispatchDone {
                time: gpus_free_at,
                dispatch: id,
            });
            None
        };

        Ok(DispatchOutcome {
            start,
            gpus_free_at,
            request_done,
            stall,
            latent_wait,
            aborted,
        })
    }

    fn validate(&self, now: SimTime, dispatch: &StepDispatch) -> Result<(), SubmitError> {
        if dispatch.requests.is_empty() || dispatch.steps == 0 {
            return Err(SubmitError::EmptyDispatch);
        }
        debug_assert!(
            dispatch
                .finishing
                .iter()
                .all(|r| dispatch.requests.contains(r)),
            "finishing requests must be dispatch members"
        );
        let all = self.topology.all_gpus();
        if !all.is_superset_of(dispatch.gpus) || dispatch.gpus.is_empty() {
            return Err(SubmitError::UnknownGpus(dispatch.gpus));
        }
        let k = dispatch.gpus.len();
        if !k.is_power_of_two() {
            return Err(SubmitError::NotPowerOfTwo(k));
        }
        let down = self
            .config
            .failures
            .down_gpus(now)
            .intersection(dispatch.gpus);
        if !down.is_empty() {
            return Err(SubmitError::GpuDown(down));
        }
        let busy: GpuSet = dispatch
            .gpus
            .iter()
            .filter(|g| self.busy_until[g.0] > now)
            .collect();
        if !busy.is_empty() {
            return Err(SubmitError::GpuBusy(busy));
        }
        Ok(())
    }

    /// The GPU set a request last executed on, if it is mid-flight.
    pub fn last_placement(&self, request: RequestId) -> Option<GpuSet> {
        self.last_gpus.get(&request).copied()
    }

    /// The failure plan the engine executes against. A cluster reads its
    /// health and capacity views from this one copy.
    pub fn failures(&self) -> &FailurePlan {
        &self.config.failures
    }

    /// Mean GPU utilisation over `[0, horizon]`.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        assert!(
            horizon > SimTime::ZERO,
            "utilization horizon must be positive"
        );
        let total: f64 = self.busy_time.iter().map(|d| d.as_secs_f64()).sum();
        total / (horizon.as_secs_f64() * self.busy_until.len() as f64)
    }

    /// The execution trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Appends an externally produced event (the server's migration
    /// records) to the engine's trace, keeping one merged log.
    pub fn record(&mut self, event: TraceEvent) {
        self.trace.record(event);
    }

    /// Consumes the engine and returns its trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpuset::GpuId;

    fn engine() -> Engine {
        Engine::new(Topology::h100_nvlink(8), EngineConfig::default())
    }

    fn dispatch(reqs: &[u64], gpus: GpuSet, steps: u32, per_step_ms: u64) -> StepDispatch {
        StepDispatch {
            requests: reqs.iter().map(|&r| RequestId(r)).collect(),
            gpus,
            steps,
            per_step: SimDuration::from_millis(per_step_ms),
            latent_bytes: 2 << 20,
            decode_after: None,
            finishing: Vec::new(),
        }
    }

    #[test]
    fn simple_dispatch_timeline() {
        let mut e = engine();
        let d = dispatch(&[1], GpuSet::contiguous(0, 2), 5, 100);
        let out = e.submit(SimTime::ZERO, &d).unwrap();
        assert_eq!(out.start, SimTime::ZERO);
        // Jitter is ±0.2% so total is within 2% of 500 ms.
        let total = out.gpus_free_at.as_secs_f64();
        assert!((total - 0.5).abs() < 0.01, "total {total}");
        assert_eq!(out.stall, SimDuration::ZERO, "aligned block is pre-warmed");
    }

    #[test]
    fn double_booking_is_rejected() {
        let mut e = engine();
        let d = dispatch(&[1], GpuSet::contiguous(0, 2), 5, 100);
        e.submit(SimTime::ZERO, &d).unwrap();
        let d2 = dispatch(&[2], GpuSet::contiguous(1, 2), 1, 10);
        let err = e.submit(SimTime::from_millis(10), &d2).unwrap_err();
        assert!(matches!(err, SubmitError::GpuBusy(g) if g.contains(GpuId(1))));
        // After the first dispatch drains, the GPUs are reusable.
        let later = SimTime::from_secs_f64(0.6);
        assert!(e.submit(later, &d2).is_ok());
    }

    #[test]
    fn non_power_of_two_rejected() {
        let mut e = engine();
        let d = dispatch(&[1], GpuSet::contiguous(0, 3), 1, 10);
        assert_eq!(
            e.submit(SimTime::ZERO, &d).unwrap_err(),
            SubmitError::NotPowerOfTwo(3)
        );
    }

    #[test]
    fn foreign_and_empty_dispatches_rejected() {
        let mut e = Engine::new(Topology::a40_paired(4), EngineConfig::default());
        let d = dispatch(&[1], GpuSet::contiguous(2, 4), 1, 10);
        assert!(matches!(
            e.submit(SimTime::ZERO, &d).unwrap_err(),
            SubmitError::UnknownGpus(_)
        ));
        let d = dispatch(&[], GpuSet::contiguous(0, 1), 1, 10);
        assert_eq!(
            e.submit(SimTime::ZERO, &d).unwrap_err(),
            SubmitError::EmptyDispatch
        );
        let d = dispatch(&[1], GpuSet::contiguous(0, 1), 0, 10);
        assert_eq!(
            e.submit(SimTime::ZERO, &d).unwrap_err(),
            SubmitError::EmptyDispatch
        );
    }

    #[test]
    fn remap_charges_stall_and_latent_transfer() {
        let mut e = engine();
        let first = dispatch(&[1], GpuSet::contiguous(0, 2), 2, 50);
        let out1 = e.submit(SimTime::ZERO, &first).unwrap();
        // Same set again: placement preserved, no stall.
        let again = dispatch(&[1], GpuSet::contiguous(0, 2), 2, 50);
        let out2 = e.submit(out1.gpus_free_at, &again).unwrap();
        assert_eq!(out2.stall, SimDuration::ZERO);
        assert_eq!(out2.latent_wait, SimDuration::ZERO);
        // Different set: remap stall + latent transfer.
        let moved = dispatch(&[1], GpuSet::contiguous(4, 4), 2, 50);
        let out3 = e.submit(out2.gpus_free_at, &moved).unwrap();
        assert_eq!(out3.stall, REMAP_STALL);
        assert!(!out3.latent_wait.is_zero());
        assert!(out3.start >= out2.gpus_free_at + out3.stall);
        assert!(!e.trace().latent_transfer_total(RequestId(1)).is_zero());
    }

    #[test]
    fn cold_group_pays_warmup_once() {
        let mut e = engine();
        // Non-aligned 2-GPU group {1,2} is not pre-warmed.
        let odd = GpuSet::from_mask(0b110);
        let d = dispatch(&[9], odd, 1, 10);
        let out = e.submit(SimTime::ZERO, &d).unwrap();
        assert_eq!(out.stall, GROUP_WARMUP);
        let d2 = dispatch(&[9], odd, 1, 10);
        let out2 = e.submit(out.gpus_free_at, &d2).unwrap();
        assert_eq!(out2.stall, SimDuration::ZERO);
    }

    #[test]
    fn decode_serialises_and_completes_requests() {
        let mut e = engine();
        let mut d = dispatch(&[1, 2], GpuSet::contiguous(0, 1), 1, 10);
        d.decode_after = Some(SimDuration::from_millis(40));
        d.finishing = vec![RequestId(1), RequestId(2)];
        let out = e.submit(SimTime::ZERO, &d).unwrap();
        assert_eq!(out.request_done.len(), 2);
        let t1 = out.request_done[0].1;
        let t2 = out.request_done[1].1;
        // Decodes are sequential: the second finishes a full decode later.
        assert_eq!(t2.saturating_since(t1), SimDuration::from_millis(40));
        // Completed requests lose engine affinity.
        assert_eq!(e.last_placement(RequestId(1)), None);
    }

    #[test]
    fn finishing_without_fused_decode_drops_placement() {
        // Disaggregated layouts decode on a separate pool, so a finishing
        // dispatch carries no `decode_after`; its finishers still never
        // dispatch again and must not keep a placement.
        let mut e = engine();
        let gpus = GpuSet::contiguous(0, 2);
        let mut d = dispatch(&[1, 2], gpus, 3, 10);
        d.finishing = vec![RequestId(1)];
        let out = e.submit(SimTime::ZERO, &d).unwrap();
        assert!(out.request_done.is_empty());
        assert_eq!(e.last_placement(RequestId(1)), None);
        assert_eq!(e.last_placement(RequestId(2)), Some(gpus));
    }

    #[test]
    fn utilization_averages_busy_time_over_every_gpu() {
        let mut e = engine();
        let d = dispatch(&[1], GpuSet::contiguous(0, 4), 10, 100);
        let out = e.submit(SimTime::ZERO, &d).unwrap();
        let util = e.utilization(out.gpus_free_at);
        assert!((util - 0.5).abs() < 0.01, "util {util}");
    }

    #[test]
    fn same_seed_is_bit_reproducible() {
        let run = || {
            let mut e = engine();
            let d = dispatch(&[1], GpuSet::contiguous(0, 2), 20, 33);
            e.submit(SimTime::ZERO, &d).unwrap().gpus_free_at
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn straggler_slows_whole_group_dispatches() {
        use crate::failure::{FailurePlan, PerfFault};
        use crate::gpuset::GpuId;
        let config = EngineConfig {
            step_noise_cv: 0.0,
            failures: FailurePlan::none().with_perf_fault(PerfFault::straggler(
                GpuId(1),
                2.0,
                SimTime::ZERO,
                SimTime::from_secs_f64(10.0),
            )),
            ..EngineConfig::default()
        };
        let mut e = Engine::new(Topology::h100_nvlink(8), config);
        // The group containing the straggler runs at half speed…
        let slow = dispatch(&[1], GpuSet::contiguous(0, 2), 4, 100);
        let out = e.submit(SimTime::ZERO, &slow).unwrap();
        assert_eq!(out.gpus_free_at, SimTime::from_millis(800));
        // …a disjoint group is unaffected…
        let fine = dispatch(&[2], GpuSet::contiguous(4, 2), 4, 100);
        let out = e.submit(SimTime::ZERO, &fine).unwrap();
        assert_eq!(out.gpus_free_at, SimTime::from_millis(400));
        // …and after the window ends the slow GPUs recover.
        let later = SimTime::from_secs_f64(10.0);
        let healed = dispatch(&[3], GpuSet::contiguous(0, 2), 4, 100);
        let out = e.submit(later, &healed).unwrap();
        assert_eq!(out.gpus_free_at, later + SimDuration::from_millis(400));
    }

    #[test]
    fn straggler_opening_mid_dispatch_slows_only_tail_steps() {
        use crate::failure::{FailurePlan, PerfFault};
        use crate::gpuset::GpuId;
        // Window opens at 200 ms, halfway through a 4×100 ms dispatch: the
        // first two steps run at full speed, the last two at half, so the
        // dispatch ends at 600 ms (800 ms if every step slowed, 400 ms if
        // none did).
        let config = EngineConfig {
            step_noise_cv: 0.0,
            failures: FailurePlan::none().with_perf_fault(PerfFault::straggler(
                GpuId(0),
                2.0,
                SimTime::from_millis(200),
                SimTime::from_secs_f64(10.0),
            )),
            ..EngineConfig::default()
        };
        let mut e = Engine::new(Topology::h100_nvlink(8), config);
        let d = dispatch(&[1], GpuSet::contiguous(0, 2), 4, 100);
        let out = e.submit(SimTime::ZERO, &d).unwrap();
        assert_eq!(out.gpus_free_at, SimTime::from_millis(600));
    }

    fn faulty_engine(failures: crate::failure::FailurePlan) -> Engine {
        let config = EngineConfig {
            step_noise_cv: 0.0,
            failures,
            ..EngineConfig::default()
        };
        Engine::new(Topology::h100_nvlink(8), config)
    }

    #[test]
    fn fault_mid_dispatch_aborts_and_checkpoints_completed_steps() {
        use crate::failure::{FailurePlan, GpuFault};
        use crate::gpuset::GpuId;
        // GPU 1 dies at 250 ms, mid-way through step 3 of a 5×100 ms run.
        let plan = FailurePlan::none()
            .with_fault(GpuFault::permanent(GpuId(1), SimTime::from_millis(250)));
        let mut e = faulty_engine(plan);
        let d = dispatch(&[7], GpuSet::contiguous(0, 2), 5, 100);
        let out = e.submit(SimTime::ZERO, &d).unwrap();
        let abort = out.aborted.expect("dispatch must abort");
        assert_eq!(abort.time, SimTime::from_millis(250));
        assert_eq!(abort.completed_steps, 2);
        assert_eq!(abort.down, GpuSet::single(GpuId(1)));
        assert_eq!(out.gpus_free_at, SimTime::from_millis(250));
        assert!(out.request_done.is_empty());
        // 50 ms of partial step burned on each of 2 GPUs.
        assert!((abort.wasted_gpu_seconds - 0.1).abs() < 1e-9);
        assert_eq!(e.trace().aborted_count(), 1);
        // The request lost its group affinity and must re-materialise its
        // latent from the host checkpoint on its next dispatch.
        assert_eq!(e.last_placement(RequestId(7)), None);
        let retry = dispatch(&[7], GpuSet::contiguous(4, 2), 3, 100);
        let out2 = e.submit(SimTime::from_millis(300), &retry).unwrap();
        assert!(out2.aborted.is_none());
        assert!(
            out2.latent_wait
                >= crate::latent::transfer_time(retry.latent_bytes, HOST_RECOVERY_GBPS),
            "recovery must pay the host re-materialisation transfer"
        );
    }

    #[test]
    fn submit_onto_down_gpu_is_rejected_until_recovery() {
        use crate::failure::{FailurePlan, GpuFault};
        use crate::gpuset::GpuId;
        let plan = FailurePlan::none().with_fault(GpuFault::transient(
            GpuId(0),
            SimTime::from_millis(100),
            SimTime::from_millis(500),
        ));
        let mut e = faulty_engine(plan);
        let d = dispatch(&[1], GpuSet::contiguous(0, 2), 1, 10);
        let err = e.submit(SimTime::from_millis(200), &d).unwrap_err();
        assert_eq!(err, SubmitError::GpuDown(GpuSet::single(GpuId(0))));
        // After the transient outage clears, the GPU serves again.
        assert!(e.submit(SimTime::from_millis(500), &d).is_ok());
        assert_eq!(
            e.failures().down_gpus(SimTime::from_millis(200)),
            GpuSet::single(GpuId(0))
        );
        assert!(e.failures().down_gpus(SimTime::from_millis(500)).is_empty());
    }

    #[test]
    fn fault_during_prestart_stall_wastes_everything() {
        use crate::failure::{FailurePlan, GpuFault};
        use crate::gpuset::GpuId;
        // Cold (non-aligned) group pays 150 ms warm-up; GPU 2 dies 50 ms in.
        let plan =
            FailurePlan::none().with_fault(GpuFault::permanent(GpuId(2), SimTime::from_millis(50)));
        let mut e = faulty_engine(plan);
        let odd = GpuSet::from_mask(0b110);
        let d = dispatch(&[3], odd, 4, 100);
        let out = e.submit(SimTime::ZERO, &d).unwrap();
        let abort = out.aborted.expect("fault in warm-up must abort");
        assert_eq!(abort.completed_steps, 0);
        assert_eq!(abort.time, SimTime::from_millis(50));
        assert_eq!(out.gpus_free_at, SimTime::from_millis(50));
        // 50 ms × 2 GPUs, all wasted.
        assert!((abort.wasted_gpu_seconds - 0.1).abs() < 1e-9);
    }

    /// A noise-free engine running a `steps`-step dispatch of 100 ms
    /// steps on GPUs {0,1} at time zero.
    fn run_on_gpus_0_1(failures: FailurePlan, steps: u32) -> DispatchOutcome {
        let mut e = faulty_engine(failures);
        let d = dispatch(&[1], GpuSet::contiguous(0, 2), steps, 100);
        e.submit(SimTime::ZERO, &d).unwrap()
    }

    #[test]
    fn straggler_window_inside_a_dispatch_slows_only_the_steps_it_covers() {
        use crate::failure::PerfFault;
        // Steps start at 0, 100, 200, 400, 500 and 600 ms: only the one
        // starting at 200 ms lies in the window. Reading the slowdown once
        // would end at 600 ms, never clearing it at 800 ms or later.
        let plan = FailurePlan::none().with_perf_fault(PerfFault::straggler(
            GpuId(0),
            2.0,
            SimTime::from_millis(150),
            SimTime::from_millis(350),
        ));
        let out = run_on_gpus_0_1(plan, 6);
        assert!(out.aborted.is_none());
        assert_eq!(out.gpus_free_at, SimTime::from_millis(700));
    }

    #[test]
    fn fault_opening_as_a_step_starts_aborts_it_with_nothing_wasted() {
        use crate::failure::GpuFault;
        let plan = FailurePlan::none().with_fault(GpuFault::transient(
            GpuId(1),
            SimTime::from_millis(200),
            SimTime::from_millis(300),
        ));
        let out = run_on_gpus_0_1(plan, 4);
        let abort = out.aborted.expect("dispatch must abort");
        assert_eq!(abort.time, SimTime::from_millis(200));
        assert_eq!(abort.completed_steps, 2);
        assert_eq!(abort.down, GpuSet::single(GpuId(1)));
        assert_eq!(abort.wasted_gpu_seconds, 0.0);
        assert_eq!(out.gpus_free_at, SimTime::from_millis(200));
    }

    #[test]
    fn fault_outside_the_dispatch_never_aborts_it() {
        use crate::failure::GpuFault;
        let plan = FailurePlan::none()
            .with_fault(GpuFault::transient(
                GpuId(2),
                SimTime::from_millis(50),
                SimTime::from_millis(150),
            ))
            .with_fault(GpuFault::permanent(GpuId(3), SimTime::from_millis(250)));
        let out = run_on_gpus_0_1(plan, 4);
        assert!(out.aborted.is_none());
        assert_eq!(out.gpus_free_at, SimTime::from_millis(400));
    }

    #[test]
    fn earlier_of_two_member_faults_aborts_the_dispatch() {
        use crate::failure::GpuFault;
        // Listed later-first: the abort follows time, not plan order.
        let plan = FailurePlan::none()
            .with_fault(GpuFault::permanent(GpuId(1), SimTime::from_millis(250)))
            .with_fault(GpuFault::transient(
                GpuId(0),
                SimTime::from_millis(150),
                SimTime::from_millis(400),
            ));
        let out = run_on_gpus_0_1(plan, 4);
        let abort = out.aborted.expect("dispatch must abort");
        assert_eq!(abort.time, SimTime::from_millis(150));
        assert_eq!(abort.completed_steps, 1);
        assert_eq!(abort.down, GpuSet::single(GpuId(0)));
        // 50 ms of the second step burned on each of 2 GPUs.
        assert!((abort.wasted_gpu_seconds - 0.1).abs() < 1e-9);
    }

    #[test]
    fn fault_opening_as_warm_up_ends_aborts_a_zero_length_step() {
        use crate::failure::GpuFault;
        // The cold group {1,2} starts stepping at 150 ms, the instant GPU
        // 2 goes down: the stall's window `[0, 150)` misses it, and the
        // first zero-length step `[150, 150)` aborts at its start.
        let plan = FailurePlan::none()
            .with_fault(GpuFault::permanent(GpuId(2), SimTime::from_millis(150)));
        let mut e = faulty_engine(plan);
        let d = dispatch(&[3], GpuSet::from_mask(0b110), 4, 0);
        let out = e.submit(SimTime::ZERO, &d).unwrap();
        assert_eq!(out.start, SimTime::from_millis(150));
        let abort = out.aborted.expect("dispatch must abort");
        assert_eq!(abort.time, SimTime::from_millis(150));
        assert_eq!(abort.completed_steps, 0);
    }

    #[test]
    fn fault_runs_are_bit_reproducible() {
        use crate::failure::{FailurePlan, GpuFault};
        use crate::gpuset::GpuId;
        let run = || {
            let plan = FailurePlan::none().with_fault(GpuFault::transient(
                GpuId(1),
                SimTime::from_millis(120),
                SimTime::from_millis(300),
            ));
            let config = EngineConfig {
                failures: plan,
                ..EngineConfig::default()
            };
            let mut e = Engine::new(Topology::h100_nvlink(8), config);
            let d = dispatch(&[1], GpuSet::contiguous(0, 2), 5, 100);
            let out = e.submit(SimTime::ZERO, &d).unwrap();
            let retry = dispatch(&[1], GpuSet::contiguous(4, 2), 3, 100);
            let out2 = e.submit(SimTime::from_millis(400), &retry).unwrap();
            (
                out.aborted.map(|a| (a.time, a.completed_steps)),
                out2.gpus_free_at,
            )
        };
        assert_eq!(run(), run());
    }
}
