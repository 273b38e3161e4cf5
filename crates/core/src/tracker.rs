//! The Request Tracker (§3 of the paper).
//!
//! Maintains metadata on every request the server has accepted: resolution,
//! deadline, execution phase and remaining steps. Scheduling policies read
//! pending requests from the tracker and the serving loop writes execution
//! progress back into it.

use std::collections::{BTreeMap, BTreeSet};

use tetriserve_simulator::gpuset::GpuSet;
use tetriserve_simulator::time::SimTime;
use tetriserve_simulator::trace::RequestId;

use crate::request::{RequestOutcome, RequestSpec};

/// Execution phase of a tracked request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Waiting for GPUs (either never started or paused between rounds).
    Queued,
    /// A dispatch is currently executing steps for this request.
    Running,
    /// All steps and the VAE decode finished at the given time.
    Done(SimTime),
    /// Terminal: dispatches for this request were aborted by GPU faults
    /// more times than the retry budget allows.
    Failed,
    /// Terminal: admission control shed the request as infeasible under
    /// the current healthy capacity.
    Shed,
}

/// A request plus its live execution state.
#[derive(Debug, Clone)]
pub struct TrackedRequest {
    /// The immutable request description.
    pub spec: RequestSpec,
    /// Diffusion steps still to execute.
    pub remaining_steps: u32,
    /// Current phase.
    pub phase: Phase,
    /// GPU set of the most recent dispatch, for placement preservation.
    pub last_gpus: Option<GpuSet>,
    /// GPU-seconds consumed so far.
    pub gpu_seconds: f64,
    /// Σ (degree × steps) over executed dispatches.
    pub sp_degree_step_sum: u64,
    /// Fault-induced dispatch aborts survived so far.
    pub retries: u32,
    /// Steps removed from the budget by the degrade ladder (deadline
    /// rescue); the request completes after
    /// `total_steps − steps_shed` executed steps.
    pub steps_shed: u32,
    /// When the request becomes eligible for denoise scheduling. Equal to
    /// the arrival for flat requests; pushed later by the
    /// condition-encode stage's completion for stage-gated requests.
    pub encode_ready: SimTime,
    /// When the condition-encode stage finished (`None` for flat
    /// requests, which carry no explicit encode stage).
    pub encode_done: Option<SimTime>,
    /// When the final denoise step finished and the request handed off to
    /// the VAE-decode stage.
    pub denoise_done: Option<SimTime>,
}

impl TrackedRequest {
    /// Whether the request still has steps to run and is not mid-dispatch.
    /// Stage-gated requests only become schedulable once their
    /// condition-encode stage completes (`encode_ready`, which equals the
    /// arrival for flat requests).
    pub fn is_schedulable(&self, now: SimTime) -> bool {
        self.phase == Phase::Queued && self.remaining_steps > 0 && self.encode_ready <= now
    }

    /// Steps executed so far (total minus shed minus still-remaining).
    pub fn steps_executed(&self) -> u32 {
        self.spec.total_steps - self.steps_shed - self.remaining_steps
    }

    /// Whether the deadline has already passed at `now`.
    pub fn is_past_deadline(&self, now: SimTime) -> bool {
        now > self.spec.deadline
    }
}

/// The portable state of a queued request being migrated between
/// clusters: the spec plus every piece of execution accounting that must
/// survive the hand-off. The latent tensor itself is not modeled as data
/// — its size only prices the transfer delay (see
/// `tetriserve_costmodel::interconnect`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigratedRequest {
    /// The immutable request description (original arrival and deadline —
    /// migration never resets SLO accounting).
    pub spec: RequestSpec,
    /// Diffusion steps still to execute on the target cluster.
    pub remaining_steps: u32,
    /// GPU-seconds already consumed on previous clusters.
    pub gpu_seconds: f64,
    /// Σ (degree × steps) over dispatches executed so far.
    pub sp_degree_step_sum: u64,
    /// Fault-induced dispatch aborts survived so far.
    pub retries: u32,
    /// Steps shed by the degrade ladder on previous clusters; quality
    /// debt survives the hand-off (migration never restores shed steps).
    pub steps_shed: u32,
}

impl MigratedRequest {
    /// Whether the request has executed no steps yet — a fresh migration
    /// ships no latent tensor and pays only the hand-off launch latency.
    pub fn is_fresh(&self) -> bool {
        self.remaining_steps + self.steps_shed == self.spec.total_steps
    }
}

/// Tracks all requests across their lifecycle.
///
/// Alongside the id-keyed map, the tracker maintains an **incremental live
/// index**: a `(deadline, id)`-ordered set of every *live* request (queued
/// or running with steps remaining) plus O(1) aggregate counters. The
/// index is what makes the EDF feasibility machinery
/// ([`crate::feasibility`]) O(live backlog) per scan instead of O(every
/// request ever admitted) — the difference between quadratic and linear
/// total work over a long serving run. Every mutator keeps the index in
/// sync; `debug_assert`s (and a proptest in `crate::proptests`) cross-check
/// it against a full recompute so feasibility verdicts stay bit-identical
/// to the pre-index implementation.
#[derive(Debug, Default)]
pub struct RequestTracker {
    requests: BTreeMap<RequestId, TrackedRequest>,
    /// Live requests — `(Queued | Running) && remaining_steps > 0` — in
    /// `(deadline, id)` order: exactly the canonical EDF scan order, so
    /// iterating the index needs no sort.
    live: BTreeSet<(SimTime, RequestId)>,
    /// Non-terminal requests (queued or running, *including* those with
    /// zero steps remaining that are awaiting their decode `Complete`).
    active: usize,
    /// Requests currently executing a dispatch (any remaining count).
    running: usize,
}

impl RequestTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        RequestTracker::default()
    }

    /// Registers an accepted request.
    ///
    /// # Panics
    ///
    /// Panics if the id is already tracked or the step count is zero.
    pub fn admit(&mut self, spec: RequestSpec) {
        assert!(spec.total_steps > 0, "request must have at least one step");
        let prev = self.requests.insert(
            spec.id,
            TrackedRequest {
                spec,
                remaining_steps: spec.total_steps,
                phase: Phase::Queued,
                last_gpus: None,
                gpu_seconds: 0.0,
                sp_degree_step_sum: 0,
                retries: 0,
                steps_shed: 0,
                encode_ready: spec.arrival,
                encode_done: None,
                denoise_done: None,
            },
        );
        assert!(prev.is_none(), "request {} admitted twice", spec.id);
        self.live.insert((spec.deadline, spec.id));
        self.active += 1;
    }

    /// Records the condition-encode stage's completion: the request
    /// becomes schedulable for denoise at `at`.
    ///
    /// # Panics
    ///
    /// Panics if the request is unknown.
    pub fn set_encode_ready(&mut self, id: RequestId, at: SimTime) {
        let r = self
            .requests
            .get_mut(&id)
            .unwrap_or_else(|| panic!("unknown request {id}"));
        r.encode_ready = at;
        r.encode_done = Some(at);
    }

    /// Records the final denoise step's completion — the hand-off into
    /// the VAE-decode stage.
    ///
    /// # Panics
    ///
    /// Panics if the request is unknown.
    pub fn note_denoise_done(&mut self, id: RequestId, at: SimTime) {
        let r = self
            .requests
            .get_mut(&id)
            .unwrap_or_else(|| panic!("unknown request {id}"));
        r.denoise_done = Some(at);
    }

    /// Immutable view of a request.
    pub fn get(&self, id: RequestId) -> Option<&TrackedRequest> {
        self.requests.get(&id)
    }

    /// Replaces the contents of `out` with the ids of requests schedulable
    /// at `now`, in admission (id) order. Schedulable requests are a subset
    /// of the live index (queued with steps remaining), so this is O(live
    /// backlog), not O(all requests); a caller that reuses `out` across
    /// calls allocates only when the backlog outgrows it.
    pub fn schedulable_ids_into(&self, now: SimTime, out: &mut Vec<RequestId>) {
        out.clear();
        out.extend(
            self.live
                .iter()
                // tetrilint: allow(taint-panic) -- live-index ids are inserted and removed in lockstep with the requests map
                .filter(|&&(_, id)| self.requests[&id].is_schedulable(now))
                .map(|&(_, id)| id),
        );
        out.sort_unstable();
    }

    /// Marks the request as running a dispatch of `steps` steps at the
    /// given placement, recording the accounting for it.
    ///
    /// # Panics
    ///
    /// Panics if the request is unknown, not queued, or `steps` exceeds its
    /// remaining work.
    pub fn start_dispatch(&mut self, id: RequestId, gpus: GpuSet, steps: u32, gpu_seconds: f64) {
        let r = self
            .requests
            .get_mut(&id)
            .unwrap_or_else(|| panic!("unknown request {id}"));
        assert_eq!(r.phase, Phase::Queued, "{id} must be queued to dispatch");
        assert!(
            steps > 0 && steps <= r.remaining_steps,
            "{id}: dispatching {steps} of {} remaining steps",
            r.remaining_steps
        );
        r.phase = Phase::Running;
        r.last_gpus = Some(gpus);
        r.remaining_steps -= steps;
        r.gpu_seconds += gpu_seconds;
        r.sp_degree_step_sum += gpus.len() as u64 * u64::from(steps);
        let key = (r.spec.deadline, id);
        let emptied = r.remaining_steps == 0;
        self.running += 1;
        if emptied {
            self.live.remove(&key);
        }
    }

    /// Marks a dispatch finished; the request returns to the queue unless
    /// out of steps.
    ///
    /// # Panics
    ///
    /// Panics if the request is not running.
    pub fn finish_dispatch(&mut self, id: RequestId) {
        let r = self
            .requests
            .get_mut(&id)
            .unwrap_or_else(|| panic!("unknown request {id}"));
        assert_eq!(r.phase, Phase::Running, "{id} must be running");
        r.phase = Phase::Queued;
        self.running -= 1;
    }

    /// Records a fault-aborted dispatch: the `lost_steps` that never ran
    /// are restored (steps completed before the fault stay checkpointed),
    /// the placement affinity is dropped (the group is gone), the retry
    /// counter is bumped, and the request re-enters the queue with its
    /// original deadline so the next round can re-plan it.
    ///
    /// # Panics
    ///
    /// Panics if the request is not running or `lost_steps` exceeds the
    /// steps deducted at dispatch start.
    pub fn abort_dispatch(&mut self, id: RequestId, gpus: GpuSet, lost_steps: u32) {
        let r = self
            .requests
            .get_mut(&id)
            .unwrap_or_else(|| panic!("unknown request {id}"));
        assert_eq!(r.phase, Phase::Running, "{id} must be running to abort");
        assert!(
            u64::from(r.remaining_steps) + u64::from(lost_steps) + u64::from(r.steps_shed)
                <= u64::from(r.spec.total_steps),
            "{id}: restoring {lost_steps} lost steps exceeds the schedule"
        );
        let was_empty = r.remaining_steps == 0;
        r.remaining_steps += lost_steps;
        r.sp_degree_step_sum = r
            .sp_degree_step_sum
            .saturating_sub(gpus.len() as u64 * u64::from(lost_steps));
        r.last_gpus = None;
        r.retries += 1;
        r.phase = Phase::Queued;
        let key = (r.spec.deadline, id);
        let revived = was_empty && r.remaining_steps > 0;
        self.running -= 1;
        if revived {
            self.live.insert(key);
        }
    }

    /// Terminally fails a request whose retry budget is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if the request is unknown or already done.
    pub fn fail(&mut self, id: RequestId) {
        let r = self
            .requests
            .get_mut(&id)
            .unwrap_or_else(|| panic!("unknown request {id}"));
        assert!(
            !matches!(r.phase, Phase::Done(_)),
            "{id} cannot fail after completing"
        );
        let was = r.phase;
        r.phase = Phase::Failed;
        if matches!(was, Phase::Queued | Phase::Running) {
            self.active -= 1;
            if was == Phase::Running {
                self.running -= 1;
            }
            if r.remaining_steps > 0 {
                self.live.remove(&(r.spec.deadline, id));
            }
        }
    }

    /// Sheds a queued request (admission control). Only requests that have
    /// not started executing may be shed (a degraded-but-unstarted budget
    /// still counts as no progress).
    ///
    /// # Panics
    ///
    /// Panics if the request is unknown, not queued, or already started.
    pub fn shed(&mut self, id: RequestId) {
        let r = self
            .requests
            .get_mut(&id)
            .unwrap_or_else(|| panic!("unknown request {id}"));
        assert_eq!(r.phase, Phase::Queued, "{id} must be queued to shed");
        assert_eq!(
            r.remaining_steps + r.steps_shed,
            r.spec.total_steps,
            "{id} already made progress; shedding it would waste work"
        );
        r.phase = Phase::Shed;
        self.active -= 1;
        self.live.remove(&(r.spec.deadline, id));
    }

    /// Removes `steps` denoise steps from a queued request's remaining
    /// budget (the degrade ladder's deadline rescue). The request still
    /// completes normally — just with fewer total steps; the shed count
    /// is carried into its outcome as quality debt.
    ///
    /// # Panics
    ///
    /// Panics if the request is unknown, not queued, `steps` is zero, or
    /// shedding would leave no remaining work (the dispatch→complete path
    /// needs at least one step to fire).
    pub fn shed_steps(&mut self, id: RequestId, steps: u32) {
        let r = self
            .requests
            .get_mut(&id)
            .unwrap_or_else(|| panic!("unknown request {id}"));
        assert_eq!(r.phase, Phase::Queued, "{id} must be queued to degrade");
        assert!(steps > 0, "{id}: degrading by zero steps");
        assert!(
            steps < r.remaining_steps,
            "{id}: shedding {steps} of {} remaining steps would leave no work",
            r.remaining_steps
        );
        // Still live (the assert above guarantees remaining > 0): the index
        // key is deadline-based, so shrinking the budget leaves it alone.
        r.remaining_steps -= steps;
        r.steps_shed += steps;
    }

    /// Removes a fresh, still-queued request from the tracker entirely and
    /// returns its spec — fleet re-routing after a whole-cluster outage
    /// hands the request to another cluster, so it must not appear in this
    /// cluster's outcomes.
    ///
    /// # Panics
    ///
    /// Panics if the request is unknown, not queued, or has already
    /// executed steps (progress is never discarded by re-routing).
    pub fn extract(&mut self, id: RequestId) -> RequestSpec {
        let r = self
            .requests
            .remove(&id)
            .unwrap_or_else(|| panic!("unknown request {id}"));
        assert_eq!(r.phase, Phase::Queued, "{id} must be queued to extract");
        assert_eq!(
            r.remaining_steps + r.steps_shed,
            r.spec.total_steps,
            "{id} already made progress; extracting it would waste work"
        );
        self.active -= 1;
        self.live.remove(&(r.spec.deadline, id));
        // The unchanged spec ships: re-routing to a cluster with headroom
        // forgives any degradation this cluster had planned.
        r.spec
    }

    /// Removes a queued request — fresh *or* partially denoised — from the
    /// tracker and returns its portable migration state. Unlike
    /// [`extract`](Self::extract), progress is allowed: the rebalancer
    /// ships the latent alongside the request (and is charged for it), so
    /// nothing is wasted. The request must not be mid-dispatch.
    ///
    /// # Panics
    ///
    /// Panics if the request is unknown or not queued.
    pub fn extract_queued(&mut self, id: RequestId) -> MigratedRequest {
        let r = self
            .requests
            .remove(&id)
            .unwrap_or_else(|| panic!("unknown request {id}"));
        assert_eq!(r.phase, Phase::Queued, "{id} must be queued to migrate");
        self.active -= 1;
        if r.remaining_steps > 0 {
            self.live.remove(&(r.spec.deadline, id));
        }
        MigratedRequest {
            spec: r.spec,
            remaining_steps: r.remaining_steps,
            gpu_seconds: r.gpu_seconds,
            sp_degree_step_sum: r.sp_degree_step_sum,
            retries: r.retries,
            steps_shed: r.steps_shed,
        }
    }

    /// Admits a request migrated in from another cluster, preserving its
    /// execution accounting (progress, GPU-seconds, degree sum, retries).
    /// Conservation pairing of [`extract_queued`](Self::extract_queued):
    /// an extract on the source followed by `admit_migrated` on the
    /// target keeps the request's fleet-wide outcome identity intact.
    ///
    /// # Panics
    ///
    /// Panics if the id is already tracked or no steps remain.
    pub fn admit_migrated(&mut self, m: MigratedRequest) {
        assert!(
            m.remaining_steps > 0,
            "request {} migrated with no work remaining",
            m.spec.id
        );
        assert!(
            u64::from(m.remaining_steps) + u64::from(m.steps_shed) <= u64::from(m.spec.total_steps),
            "request {} migrated with more steps than it started with",
            m.spec.id
        );
        let prev = self.requests.insert(
            m.spec.id,
            TrackedRequest {
                spec: m.spec,
                remaining_steps: m.remaining_steps,
                phase: Phase::Queued,
                last_gpus: None,
                gpu_seconds: m.gpu_seconds,
                sp_degree_step_sum: m.sp_degree_step_sum,
                retries: m.retries,
                steps_shed: m.steps_shed,
                // A migrated request is immediately denoise-eligible: its
                // encode (if any) ran on the source cluster, and the
                // latent hand-off already priced the transfer.
                encode_ready: m.spec.arrival,
                encode_done: None,
                denoise_done: None,
            },
        );
        assert!(prev.is_none(), "request {} admitted twice", m.spec.id);
        self.live.insert((m.spec.deadline, m.spec.id));
        self.active += 1;
    }

    /// Marks the request fully complete (after VAE decode).
    ///
    /// # Panics
    ///
    /// Panics if the request is unknown or already done.
    pub fn complete(&mut self, id: RequestId, at: SimTime) {
        let r = self
            .requests
            .get_mut(&id)
            .unwrap_or_else(|| panic!("unknown request {id}"));
        assert!(!matches!(r.phase, Phase::Done(_)), "{id} completed twice");
        assert_eq!(r.remaining_steps, 0, "{id} completed with steps remaining");
        let was = r.phase;
        r.phase = Phase::Done(at);
        if matches!(was, Phase::Queued | Phase::Running) {
            self.active -= 1;
            if was == Phase::Running {
                self.running -= 1;
            }
        }
    }

    /// Number of requests still in flight (terminal phases — done, failed,
    /// shed — do not count; the serving loop stops ticking without them).
    /// O(1) — maintained incrementally by every mutator.
    pub fn active_count(&self) -> usize {
        self.active
    }

    /// Requests currently executing a dispatch, including ones on their
    /// final dispatch (zero steps remaining). O(1).
    pub fn running_count(&self) -> usize {
        self.running
    }

    /// Live requests — queued or running with steps remaining — in
    /// `(deadline, id)` order: the canonical EDF scan order, pre-sorted by
    /// the incremental index.
    pub fn live(&self) -> impl Iterator<Item = &TrackedRequest> {
        // tetrilint: allow(taint-panic) -- live-index ids are inserted and removed in lockstep with the requests map
        self.live.iter().map(move |(_, id)| &self.requests[id])
    }

    /// Size of the live index. O(1).
    pub fn live_len(&self) -> usize {
        self.live.len()
    }

    /// Full-recompute cross-check of the incremental index and counters:
    /// `true` iff membership, order and every aggregate agree with a scan
    /// over all tracked requests. The feasibility layer `debug_assert`s
    /// this (via entry comparison) and `crate::proptests` drives it under
    /// arbitrary mutation sequences.
    pub fn index_is_consistent(&self) -> bool {
        let expect: BTreeSet<(SimTime, RequestId)> = self
            .requests
            .values()
            .filter(|r| matches!(r.phase, Phase::Queued | Phase::Running) && r.remaining_steps > 0)
            .map(|r| (r.spec.deadline, r.spec.id))
            .collect();
        let active = self
            .requests
            .values()
            .filter(|r| matches!(r.phase, Phase::Queued | Phase::Running))
            .count();
        let running = self
            .requests
            .values()
            .filter(|r| r.phase == Phase::Running)
            .count();
        expect == self.live && active == self.active && running == self.running
    }

    /// Iterates over all tracked requests in id order.
    pub fn iter(&self) -> impl Iterator<Item = &TrackedRequest> {
        self.requests.values()
    }

    /// Total number of tracked requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether no requests are tracked.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Final outcomes for every tracked request.
    pub fn outcomes(&self) -> Vec<RequestOutcome> {
        self.requests
            .values()
            .map(|r| RequestOutcome {
                tenant: r.spec.tenant,
                id: r.spec.id,
                resolution: r.spec.resolution,
                arrival: r.spec.arrival,
                deadline: r.spec.deadline,
                completion: match r.phase {
                    Phase::Done(t) => Some(t),
                    _ => None,
                },
                gpu_seconds: r.gpu_seconds,
                steps_executed: r.steps_executed(),
                sp_degree_step_sum: r.sp_degree_step_sum,
                retries: r.retries,
                shed: r.phase == Phase::Shed,
                steps_shed: r.steps_shed,
                encode_done: r.encode_done,
                denoise_done: r.denoise_done,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetriserve_costmodel::{Resolution, StageProfile};
    use tetriserve_simulator::trace::TenantId;

    fn spec(id: u64) -> RequestSpec {
        RequestSpec {
            tenant: TenantId::UNTAGGED,
            id: RequestId(id),
            resolution: Resolution::R256,
            arrival: SimTime::from_secs_f64(1.0),
            deadline: SimTime::from_secs_f64(2.5),
            total_steps: 10,
            stages: StageProfile::FLAT,
        }
    }

    fn schedulable(t: &RequestTracker, now: SimTime) -> Vec<RequestId> {
        let mut ids = Vec::new();
        t.schedulable_ids_into(now, &mut ids);
        ids
    }

    #[test]
    fn lifecycle_round_trip() {
        let mut t = RequestTracker::new();
        t.admit(spec(1));
        assert_eq!(t.active_count(), 1);
        // Not schedulable before arrival.
        assert!(schedulable(&t, SimTime::ZERO).is_empty());
        let now = SimTime::from_secs_f64(1.0);
        assert_eq!(schedulable(&t, now), vec![RequestId(1)]);

        t.start_dispatch(RequestId(1), GpuSet::contiguous(0, 2), 4, 0.5);
        assert!(schedulable(&t, now).is_empty(), "running requests hidden");
        t.finish_dispatch(RequestId(1));
        assert_eq!(t.get(RequestId(1)).unwrap().remaining_steps, 6);
        assert_eq!(t.get(RequestId(1)).unwrap().sp_degree_step_sum, 8);

        t.start_dispatch(RequestId(1), GpuSet::contiguous(0, 4), 6, 1.0);
        t.finish_dispatch(RequestId(1));
        t.complete(RequestId(1), SimTime::from_secs_f64(2.0));
        assert_eq!(t.active_count(), 0);

        let out = t.outcomes();
        assert_eq!(out.len(), 1);
        assert!(out[0].met_slo());
        assert_eq!(out[0].steps_executed, 10);
        assert!((out[0].mean_sp_degree() - 3.2).abs() < 1e-12);
        assert!((out[0].gpu_seconds - 1.5).abs() < 1e-12);
    }

    #[test]
    fn encode_gate_delays_schedulability() {
        let mut t = RequestTracker::new();
        t.admit(RequestSpec {
            stages: StageProfile::video(4),
            ..spec(1)
        });
        let arrival = SimTime::from_secs_f64(1.0);
        // Until the encode completes, the gate sits at the arrival.
        assert_eq!(schedulable(&t, arrival), vec![RequestId(1)]);
        let encoded = SimTime::from_secs_f64(1.2);
        t.set_encode_ready(RequestId(1), encoded);
        assert!(schedulable(&t, arrival).is_empty(), "gated on encode");
        assert_eq!(schedulable(&t, encoded), vec![RequestId(1)]);

        t.start_dispatch(RequestId(1), GpuSet::contiguous(0, 2), 10, 1.0);
        t.finish_dispatch(RequestId(1));
        let denoised = SimTime::from_secs_f64(2.0);
        t.note_denoise_done(RequestId(1), denoised);
        t.complete(RequestId(1), SimTime::from_secs_f64(2.3));
        let out = t.outcomes();
        assert_eq!(out[0].encode_done, Some(encoded));
        assert_eq!(out[0].denoise_done, Some(denoised));
        let (e, d, v) = out[0].stage_breakdown().unwrap();
        assert_eq!(e + d + v, out[0].latency().unwrap());
    }

    #[test]
    fn flat_requests_carry_no_stage_timestamps() {
        let mut t = RequestTracker::new();
        t.admit(spec(1));
        t.start_dispatch(RequestId(1), GpuSet::contiguous(0, 1), 10, 1.0);
        t.finish_dispatch(RequestId(1));
        t.complete(RequestId(1), SimTime::from_secs_f64(2.0));
        let out = t.outcomes();
        assert_eq!(out[0].encode_done, None);
    }

    #[test]
    fn past_deadline_detection() {
        let mut t = RequestTracker::new();
        t.admit(spec(1));
        let r = t.get(RequestId(1)).unwrap();
        assert!(!r.is_past_deadline(SimTime::from_secs_f64(2.5)));
        assert!(r.is_past_deadline(SimTime::from_secs_f64(2.6)));
    }

    #[test]
    fn schedulable_in_id_order() {
        let mut t = RequestTracker::new();
        for id in [3u64, 1, 2] {
            t.admit(spec(id));
        }
        let ids = schedulable(&t, SimTime::from_secs_f64(1.0));
        assert_eq!(ids, vec![RequestId(1), RequestId(2), RequestId(3)]);
    }

    #[test]
    #[should_panic(expected = "admitted twice")]
    fn double_admit_panics() {
        let mut t = RequestTracker::new();
        t.admit(spec(1));
        t.admit(spec(1));
    }

    #[test]
    #[should_panic(expected = "remaining steps")]
    fn over_dispatch_panics() {
        let mut t = RequestTracker::new();
        t.admit(spec(1));
        t.start_dispatch(RequestId(1), GpuSet::contiguous(0, 1), 11, 0.0);
    }

    #[test]
    #[should_panic(expected = "must be queued")]
    fn dispatch_while_running_panics() {
        let mut t = RequestTracker::new();
        t.admit(spec(1));
        t.start_dispatch(RequestId(1), GpuSet::contiguous(0, 1), 2, 0.0);
        t.start_dispatch(RequestId(1), GpuSet::contiguous(0, 1), 2, 0.0);
    }

    #[test]
    fn abort_restores_lost_steps_and_bumps_retries() {
        let mut t = RequestTracker::new();
        t.admit(spec(1));
        let gpus = GpuSet::contiguous(0, 2);
        // Dispatch 6 steps; the fault lands after 2 complete → 4 lost.
        t.start_dispatch(RequestId(1), gpus, 6, 0.8);
        t.abort_dispatch(RequestId(1), gpus, 4);
        let r = t.get(RequestId(1)).unwrap();
        assert_eq!(r.remaining_steps, 8, "10 − 6 + 4 restored");
        assert_eq!(r.retries, 1);
        assert_eq!(r.phase, Phase::Queued, "re-enters the schedulable set");
        assert_eq!(r.last_gpus, None, "placement affinity dropped");
        // Only the 2 checkpointed steps count toward the degree sum.
        assert_eq!(r.sp_degree_step_sum, 4);
        // GPU-seconds burned before the fault stay charged.
        assert!((r.gpu_seconds - 0.8).abs() < 1e-12);
        let now = SimTime::from_secs_f64(1.0);
        assert_eq!(schedulable(&t, now), vec![RequestId(1)]);
    }

    #[test]
    fn failed_and_shed_are_terminal() {
        let mut t = RequestTracker::new();
        t.admit(spec(1));
        t.admit(spec(2));
        t.shed(RequestId(1));
        t.start_dispatch(RequestId(2), GpuSet::contiguous(0, 1), 2, 0.1);
        t.abort_dispatch(RequestId(2), GpuSet::contiguous(0, 1), 2);
        t.fail(RequestId(2));
        assert_eq!(t.active_count(), 0, "terminal phases are not active");
        let now = SimTime::from_secs_f64(1.0);
        assert!(schedulable(&t, now).is_empty());
        let out = t.outcomes();
        let shed = out.iter().find(|o| o.id == RequestId(1)).unwrap();
        assert!(shed.shed && shed.completion.is_none());
        assert_eq!(shed.steps_executed, 0);
        let failed = out.iter().find(|o| o.id == RequestId(2)).unwrap();
        assert!(!failed.shed && failed.completion.is_none());
        assert_eq!(failed.retries, 1);
    }

    #[test]
    #[should_panic(expected = "already made progress")]
    fn shedding_started_requests_panics() {
        let mut t = RequestTracker::new();
        t.admit(spec(1));
        t.start_dispatch(RequestId(1), GpuSet::contiguous(0, 1), 2, 0.1);
        t.finish_dispatch(RequestId(1));
        t.shed(RequestId(1));
    }

    #[test]
    fn shed_steps_shrinks_budget_and_tracks_debt() {
        let mut t = RequestTracker::new();
        t.admit(spec(1));
        t.shed_steps(RequestId(1), 4);
        let r = t.get(RequestId(1)).unwrap();
        assert_eq!(r.remaining_steps, 6);
        assert_eq!(r.steps_shed, 4);
        assert_eq!(r.steps_executed(), 0, "degradation is not execution");
        // The degraded request completes after only 6 executed steps.
        t.start_dispatch(RequestId(1), GpuSet::contiguous(0, 2), 6, 0.5);
        t.finish_dispatch(RequestId(1));
        t.complete(RequestId(1), SimTime::from_secs_f64(2.0));
        let out = t.outcomes();
        assert_eq!(out[0].steps_executed, 6);
        assert_eq!(out[0].steps_shed, 4);
        assert!(out[0].was_degraded());
        assert!(out[0].met_slo());
    }

    #[test]
    fn shed_steps_compose_across_rescues() {
        let mut t = RequestTracker::new();
        t.admit(spec(1));
        t.start_dispatch(RequestId(1), GpuSet::contiguous(0, 1), 2, 0.1);
        t.finish_dispatch(RequestId(1));
        t.shed_steps(RequestId(1), 3);
        t.shed_steps(RequestId(1), 2);
        let r = t.get(RequestId(1)).unwrap();
        assert_eq!(r.remaining_steps, 3, "10 − 2 run − 5 shed");
        assert_eq!(r.steps_shed, 5);
        assert_eq!(r.steps_executed(), 2);
    }

    #[test]
    fn degraded_fresh_request_can_still_be_shed_whole() {
        let mut t = RequestTracker::new();
        t.admit(spec(1));
        t.shed_steps(RequestId(1), 4);
        // No steps executed — whole-request shedding wastes no work.
        t.shed(RequestId(1));
        let out = t.outcomes();
        assert!(out[0].shed);
        assert_eq!(out[0].steps_executed, 0);
    }

    #[test]
    #[should_panic(expected = "leave no work")]
    fn shedding_every_remaining_step_panics() {
        let mut t = RequestTracker::new();
        t.admit(spec(1));
        t.shed_steps(RequestId(1), 10);
    }

    #[test]
    #[should_panic(expected = "must be queued to degrade")]
    fn shed_steps_mid_dispatch_panics() {
        let mut t = RequestTracker::new();
        t.admit(spec(1));
        t.start_dispatch(RequestId(1), GpuSet::contiguous(0, 1), 2, 0.1);
        t.shed_steps(RequestId(1), 1);
    }

    #[test]
    fn migration_carries_quality_debt() {
        let mut src = RequestTracker::new();
        src.admit(spec(1));
        src.shed_steps(RequestId(1), 3);
        let m = src.extract_queued(RequestId(1));
        assert_eq!(m.steps_shed, 3);
        assert!(m.is_fresh(), "degraded but unstarted ships no latent");
        let mut dst = RequestTracker::new();
        dst.admit_migrated(m);
        dst.start_dispatch(RequestId(1), GpuSet::contiguous(0, 1), 7, 0.7);
        dst.finish_dispatch(RequestId(1));
        dst.complete(RequestId(1), SimTime::from_secs_f64(2.0));
        let out = dst.outcomes();
        assert_eq!(out[0].steps_executed, 7);
        assert_eq!(out[0].steps_shed, 3, "debt survives the hand-off");
    }

    #[test]
    fn migration_round_trip_preserves_accounting() {
        let mut src = RequestTracker::new();
        src.admit(spec(1));
        // Two steps execute on the source, then the request re-queues.
        src.start_dispatch(RequestId(1), GpuSet::contiguous(0, 2), 2, 0.4);
        src.finish_dispatch(RequestId(1));
        let m = src.extract_queued(RequestId(1));
        assert!(src.get(RequestId(1)).is_none(), "gone from the source");
        assert!(!m.is_fresh());
        assert_eq!(m.remaining_steps, 8);
        assert_eq!(m.sp_degree_step_sum, 4);
        assert!((m.gpu_seconds - 0.4).abs() < 1e-12);

        let mut dst = RequestTracker::new();
        dst.admit_migrated(m);
        let r = dst.get(RequestId(1)).unwrap();
        assert_eq!(r.phase, Phase::Queued);
        assert_eq!(r.remaining_steps, 8);
        assert_eq!(r.sp_degree_step_sum, 4);
        assert!((r.gpu_seconds - 0.4).abs() < 1e-12);
        assert_eq!(r.last_gpus, None, "placement never crosses clusters");
        // The outcome on the target credits the source's progress.
        dst.start_dispatch(RequestId(1), GpuSet::contiguous(0, 2), 8, 1.0);
        dst.finish_dispatch(RequestId(1));
        dst.complete(RequestId(1), SimTime::from_secs_f64(2.0));
        let out = dst.outcomes();
        assert_eq!(out[0].steps_executed, 10);
        assert!((out[0].gpu_seconds - 1.4).abs() < 1e-12);
    }

    #[test]
    fn fresh_extract_queued_matches_extract() {
        let mut t = RequestTracker::new();
        t.admit(spec(3));
        let m = t.extract_queued(RequestId(3));
        assert!(m.is_fresh());
        assert_eq!(m.remaining_steps, m.spec.total_steps);
        assert_eq!(m.retries, 0);
    }

    #[test]
    #[should_panic(expected = "must be queued to migrate")]
    fn extract_queued_running_request_panics() {
        let mut t = RequestTracker::new();
        t.admit(spec(1));
        t.start_dispatch(RequestId(1), GpuSet::contiguous(0, 1), 2, 0.0);
        let _ = t.extract_queued(RequestId(1));
    }

    #[test]
    #[should_panic(expected = "no work remaining")]
    fn admit_migrated_without_work_panics() {
        let mut t = RequestTracker::new();
        t.admit_migrated(MigratedRequest {
            spec: spec(1),
            remaining_steps: 0,
            gpu_seconds: 1.0,
            sp_degree_step_sum: 10,
            retries: 0,
            steps_shed: 0,
        });
    }

    #[test]
    fn unfinished_requests_have_no_completion() {
        let mut t = RequestTracker::new();
        t.admit(spec(7));
        let out = t.outcomes();
        assert_eq!(out[0].completion, None);
        assert!(!out[0].met_slo());
    }
}
