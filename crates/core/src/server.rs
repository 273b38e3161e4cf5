//! The serving loop: policies × engine × tracker.
//!
//! [`ClusterSim`] is the steppable core: it owns the event queue (arrivals,
//! dispatch completions, request completions, round ticks), asks the policy
//! for dispatch plans at the triggers the policy subscribes to, converts
//! plans into engine dispatches — computing the *placement-accurate*
//! per-step latency, latent sizes and decode cost from the cost model — and
//! folds the engine's resolved timelines back into future events. One call
//! to [`ClusterSim::step`] processes exactly one event, which is what lets
//! the fleet layer interleave many clusters under a single virtual clock.
//!
//! [`Server`] is the single-cluster harness every experiment runs on: it
//! feeds a whole workload into a `ClusterSim`, drains it to completion and
//! returns the [`ServeReport`]. Its event ordering (fault transitions, then
//! arrivals, then the initial tick) is exactly the pre-fleet behaviour, so
//! all single-cluster digests are unchanged.

use tetriserve_costmodel::steptime::step_time_on;
use tetriserve_costmodel::CostTable;
use tetriserve_simulator::engine::{Engine, EngineConfig, StepDispatch};
use tetriserve_simulator::event::EventQueue;
use tetriserve_simulator::gpuset::GpuSet;
use tetriserve_simulator::time::{SimDuration, SimTime};
use tetriserve_simulator::topology::Topology;
use tetriserve_simulator::trace::{RequestId, Trace, TraceEvent};

use crate::config::AdmissionPolicy;
use crate::degrade::DegradePolicy;
use crate::feasibility::{self, DemandEntry};
use crate::policy::{validate_plans, DispatchPlan, Policy, PolicyEvent, SchedContext};
use crate::request::{RequestOutcome, RequestSpec};
use crate::stage::{plan_stage_dispatch, PoolLayout};
use crate::tracker::{MigratedRequest, Phase, RequestTracker};

/// Hard cap on the events one cluster processes, guarding against
/// non-terminating policies.
const MAX_EVENTS: u64 = 50_000_000;

/// Server behaviour knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Engine behaviour (noise, stalls, warm-up, injected faults).
    pub engine: EngineConfig,
    /// What to do when the backlog is infeasible under healthy capacity.
    pub admission: AdmissionPolicy,
    /// Fault-abort retries allowed per request before it is terminally
    /// failed (bounds the work a flapping GPU can burn on one request).
    pub max_retries: u32,
    /// Deadline-rescue step shedding: when set, EDF infeasibility first
    /// shrinks step budgets toward the per-class quality floors and only
    /// sheds whole requests (under [`AdmissionPolicy::ShedInfeasible`])
    /// when even the floor cannot make the deadline. `None` (the default)
    /// preserves the exact shed-only behaviour.
    pub degrade: Option<DegradePolicy>,
    /// How GPUs are assigned to pipeline stages. [`PoolLayout::Unified`]
    /// (the default) runs every stage on the shared GPU set with the
    /// engine's fused tail decode — the pre-stage behaviour bit-for-bit.
    /// [`PoolLayout::Disaggregated`] carves dedicated encode/decode pools
    /// out of the cluster; the denoise packer plans over the remainder
    /// and finished requests hand off to a decode slot instead of
    /// serializing on the engine's single fused decoder.
    pub pool: PoolLayout,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            engine: EngineConfig::default(),
            admission: AdmissionPolicy::AdmitAll,
            max_retries: 3,
            degrade: None,
            pool: PoolLayout::Unified,
        }
    }
}

/// The result of serving a workload.
#[derive(Debug)]
pub struct ServeReport {
    /// Per-request outcomes, in request-id order.
    pub outcomes: Vec<RequestOutcome>,
    /// The engine's execution trace.
    pub trace: Trace,
    /// Mean GPU utilisation over the makespan.
    pub utilization: f64,
    /// Time the last request completed (or the last event fired).
    pub makespan: SimTime,
    /// Name of the policy that produced this report.
    pub policy: String,
    /// Number of scheduling passes the policy executed.
    pub sched_calls: u64,
    /// Dispatches killed mid-flight by hard GPU faults.
    pub aborted_dispatches: usize,
    /// GPU-seconds burned by aborted dispatches without producing a
    /// completed (checkpointed) step.
    pub wasted_gpu_seconds: f64,
    /// Requests dropped by admission control ([`AdmissionPolicy`]).
    pub shed_requests: usize,
    /// Events the cluster's serving loop processed.
    pub events: u64,
    /// EDF feasibility scans issued through the reusable scratch.
    pub feas_calls: u64,
    /// Scratch buffer growths — zero in steady state once warmed up
    /// (the zero-allocation hot-path invariant, like `PackScratch`).
    pub feas_grow_events: u64,
    /// The pool layout the run served under.
    pub pool: PoolLayout,
    /// Busy-seconds accumulated on the condition-encode pool (zero when
    /// the workload has no explicit encode stages).
    pub encode_busy_seconds: f64,
    /// Busy-seconds accumulated on the dedicated decode pool (zero under
    /// the unified layout, whose decodes run fused in the engine).
    pub decode_busy_seconds: f64,
}

impl ServeReport {
    /// Fraction of requests that met their SLO (the paper's SAR metric).
    /// Shed and failed requests never complete, so they count against SAR.
    pub fn sar(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 1.0;
        }
        self.outcomes.iter().filter(|o| o.met_slo()).count() as f64 / self.outcomes.len() as f64
    }

    /// Goodput under faults: SLO-met requests delivered per second of
    /// serving makespan. Unlike SAR this rewards finishing *more* work in
    /// the same wall-clock, so shedding hopeless requests to save others
    /// shows up as a gain rather than a wash.
    pub fn goodput(&self) -> f64 {
        let met = self.outcomes.iter().filter(|o| o.met_slo()).count();
        met as f64 / self.makespan.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// Total fault-induced dispatch retries across all requests.
    pub fn total_retries(&self) -> u64 {
        self.outcomes.iter().map(|o| u64::from(o.retries)).sum()
    }

    /// Requests the degrade ladder shed steps from (whether or not they
    /// went on to complete).
    pub fn rescued_requests(&self) -> usize {
        self.outcomes.iter().filter(|o| o.was_degraded()).count()
    }

    /// SLO-met completions that were served degraded (fewer than their
    /// requested steps).
    pub fn degraded_completions(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.met_slo() && o.was_degraded())
            .count()
    }

    /// Total steps the degrade ladder removed — the run's quality debt,
    /// in steps.
    pub fn quality_debt_steps(&self) -> u64 {
        self.outcomes.iter().map(|o| u64::from(o.steps_shed)).sum()
    }

    /// SAR counting only *full-quality* completions: an SLO met via
    /// degradation counts against this metric. Equals [`sar`](Self::sar)
    /// exactly on a degradation-free run.
    pub fn full_quality_sar(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 1.0;
        }
        self.outcomes
            .iter()
            .filter(|o| o.met_slo() && !o.was_degraded())
            .count() as f64
            / self.outcomes.len() as f64
    }
}

/// A router-visible snapshot of one cluster's instantaneous load, exported
/// for fleet-level placement decisions. All fields are derived from state
/// the cluster already maintains; computing a snapshot never mutates the
/// simulation.
#[derive(Debug, Clone, Copy)]
pub struct ClusterLoad {
    /// Effective serving capacity in nominal-GPU units: the healthy
    /// denoise set derated by active slowdown faults. Exactly the healthy
    /// GPU count when no slowdown is active.
    pub effective_gpus: f64,
    /// Live requests waiting for GPUs.
    pub queued: usize,
    /// Live requests currently executing a dispatch.
    pub running: usize,
    /// Cheapest deadline-respecting GPU-second demand of the live backlog
    /// (the EDF admission currency; see [`crate::feasibility`]).
    pub backlog_gpu_seconds: f64,
}

impl ClusterLoad {
    /// Live requests (queued + running) — the join-shortest-queue metric.
    pub fn depth(&self) -> usize {
        self.queued + self.running
    }

    /// Outstanding GPU-seconds per effective GPU — a capacity-normalised
    /// pressure metric that makes heterogeneous clusters comparable. A
    /// throttled cluster reads as more loaded than its healthy count
    /// suggests, steering the fleet router away from it.
    pub fn pressure(&self) -> f64 {
        self.backlog_gpu_seconds / self.effective_gpus.max(1.0)
    }
}

#[derive(Debug)]
enum Event {
    Arrival(RequestSpec),
    DispatchDone {
        gpus: GpuSet,
        requests: Vec<RequestId>,
    },
    DispatchAborted {
        gpus: GpuSet,
        requests: Vec<RequestId>,
        lost_steps: u32,
    },
    Complete(RequestId),
    /// A condition-encode stage finished: the request is now eligible for
    /// denoise scheduling, so event-driven policies re-plan.
    StageReady(RequestId),
    Tick,
    GpuDown,
    GpuUp,
    /// A cross-cluster migration's latent hand-off completes and the
    /// request re-enters this cluster's queue.
    Migration(MigratedRequest),
}

/// One cluster's serving loop as an explicitly steppable state machine.
///
/// Lifecycle: [`new`](ClusterSim::new) → any number of
/// [`push_arrival`](ClusterSim::push_arrival) → [`start`](ClusterSim::start)
/// → [`step`](ClusterSim::step) until it returns `false` (arrivals may keep
/// being pushed between steps, at or after the cluster's current time) →
/// [`finish`](ClusterSim::finish).
pub struct ClusterSim<P: Policy> {
    costs: CostTable,
    policy: P,
    config: ServerConfig,
    topology: Topology,
    /// GPUs the denoise packer plans over: all of them under
    /// [`PoolLayout::Unified`], the carve-out remainder under
    /// [`PoolLayout::Disaggregated`].
    denoise_gpus: usize,
    /// Per-slot `free_at` times of the condition-encode pool. The unified
    /// layout models one shared encode unit (encodes serialize on it),
    /// mirroring the engine's single fused decoder.
    encode_pool: Vec<SimTime>,
    /// Per-slot `free_at` times of the dedicated decode pool (empty under
    /// the unified layout, whose decodes run fused in the engine).
    decode_pool: Vec<SimTime>,
    encode_busy: SimDuration,
    decode_busy: SimDuration,
    engine: Engine,
    tracker: RequestTracker,
    events: EventQueue<Event>,
    free: GpuSet,
    down: GpuSet,
    arrivals_pending: u64,
    processed: u64,
    last_time: SimTime,
    sched_calls: u64,
    /// High-water mark of event times processed so far — the cluster's
    /// local clock. Never decreases.
    cursor: SimTime,
    started: bool,
    /// Whether a `Tick` event is sitting in the queue. Round-driven
    /// policies keep a single tick in flight; when the chain dies on an
    /// idle cluster, a later [`push_arrival`](ClusterSim::push_arrival)
    /// re-seeds it.
    tick_pending: bool,
    /// Reusable demand-entry buffer for the per-pass EDF scans — the
    /// steady-state event loop refills it instead of allocating.
    feas: feasibility::FeasScratch,
}

impl<P: Policy> ClusterSim<P> {
    /// Creates a cluster simulation. Health transitions from the statically
    /// known failure plan are queued immediately, before any arrival, so
    /// that on timestamp ties the health view updates before any scheduling
    /// pass runs.
    pub fn new(costs: CostTable, policy: P, config: ServerConfig) -> Self {
        let topology = costs.cluster().topology();
        let engine = Engine::new(topology.clone(), config.engine.clone());
        let mut events: EventQueue<Event> = EventQueue::new();
        for fault in engine.failures().faults() {
            events.push(fault.down_from, Event::GpuDown);
            if let Some(up) = fault.up_at {
                events.push(up, Event::GpuUp);
            }
        }
        let denoise_gpus = config.pool.denoise_gpus(topology.n_gpus());
        let (encode_slots, decode_slots) = config.pool.pool_sizes();
        ClusterSim {
            costs,
            policy,
            config,
            topology,
            denoise_gpus,
            // Even the unified layout owns one encode unit: encode-staged
            // requests serialize on it, mirroring the fused decoder.
            encode_pool: vec![SimTime::ZERO; encode_slots.max(1)],
            decode_pool: vec![SimTime::ZERO; decode_slots],
            encode_busy: SimDuration::ZERO,
            decode_busy: SimDuration::ZERO,
            engine,
            tracker: RequestTracker::new(),
            events,
            free: GpuSet::first_n(denoise_gpus),
            down: GpuSet::EMPTY,
            arrivals_pending: 0,
            processed: 0,
            last_time: SimTime::ZERO,
            sched_calls: 0,
            cursor: SimTime::ZERO,
            started: false,
            tick_pending: false,
            feas: feasibility::FeasScratch::new(),
        }
    }

    /// Pre-sizes the EDF scratch for a live backlog of up to `max_live`
    /// requests so even the first rescue pass allocates nothing
    /// (`tests/fleet_determinism.rs` gates `feas_grow_events == 0` after
    /// this).
    pub fn warm_up_scratch(&mut self, max_live: usize) {
        self.feas.warm_up(max_live);
    }

    /// Queues a request that reaches this cluster at `at`. May be called
    /// before `start` (batch mode) or between steps (fleet mode). A fresh
    /// request reaches its cluster at `spec.arrival`; a request re-routed
    /// off a failed cluster reaches its new one later, but keeps its
    /// arrival for latency and SLO accounting. If the round-tick chain
    /// died while the cluster sat idle, this re-seeds it so the new work
    /// gets scheduled.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in the cluster's past.
    pub fn push_arrival(&mut self, spec: RequestSpec, at: SimTime) {
        assert!(
            at >= self.cursor,
            "arrival at {at} is in the cluster's past (cursor {})",
            self.cursor
        );
        self.events.push(at, Event::Arrival(spec));
        self.arrivals_pending += 1;
        self.reseed_tick_at(at);
    }

    /// Restarts a dead round-tick chain at the first grid point at or
    /// after `at`. Re-seeds from the injection instant, not the cursor: an
    /// idle cluster's cursor lags the fleet's global clock, and a tick
    /// between the two would run in the global past. The chain restarts at
    /// the first grid point at or after `at` — exactly where an
    /// always-alive batch-mode chain would next do meaningful work (grid
    /// points are ≥ 1 µs apart, so probing 1 µs early lands on `at` itself
    /// when it is on-grid).
    fn reseed_tick_at(&mut self, at: SimTime) {
        if !self.started || self.tick_pending {
            return;
        }
        let next = if at == SimTime::ZERO {
            self.policy.next_tick(SimTime::ZERO).map(|_| SimTime::ZERO)
        } else {
            // tetrilint: allow(sim-time-monotonicity) -- at != ZERO here,
            // so the raw-micros probe cannot underflow; it intentionally
            // lands 1 µs early so an on-grid `at` yields a tick at `at`.
            let probe = SimTime::from_micros(at.as_micros() - 1);
            self.policy.next_tick(probe)
        };
        if let Some(next) = next {
            // A tick at the cursor is legal: it queues behind the event
            // being processed at the same timestamp.
            assert!(next >= self.cursor, "round ticks must not rewind time");
            self.events.push(next, Event::Tick);
            self.tick_pending = true;
        }
    }

    /// Removes a queued request (fresh or partially denoised) from this
    /// cluster for migration, returning its portable state. The request
    /// disappears from this cluster's outcomes entirely — conservation is
    /// restored when the fleet driver injects it into the target cluster.
    /// Records a [`TraceEvent::MigrationOut`] at `at`.
    ///
    /// # Panics
    ///
    /// Panics if the request is unknown or not currently queued.
    pub fn extract_request(&mut self, id: RequestId, at: SimTime) -> MigratedRequest {
        let m = self.tracker.extract_queued(id);
        self.engine.record(TraceEvent::MigrationOut {
            time: at.max(self.cursor),
            request: id,
            remaining_steps: m.remaining_steps,
        });
        m
    }

    /// Schedules a migrated-in request to re-enter this cluster's queue at
    /// `at + delay` (the cross-cluster latent hand-off completion). The
    /// original arrival and deadline are preserved — migration never
    /// resets SLO accounting — and a dead round-tick chain is re-seeded
    /// from the hand-off completion, mirroring
    /// [`push_arrival`](ClusterSim::push_arrival).
    ///
    /// # Panics
    ///
    /// Panics if the hand-off would complete in this cluster's past.
    pub fn inject_request(&mut self, m: MigratedRequest, at: SimTime, delay: SimDuration) {
        let ready = at + delay;
        assert!(
            ready >= self.cursor,
            "migration lands at {} in the cluster's past (cursor {})",
            ready,
            self.cursor
        );
        self.events.push(ready, Event::Migration(m));
        self.arrivals_pending += 1;
        self.reseed_tick_at(ready);
    }

    /// Seeds the initial round tick (round-driven policies tick from t = 0)
    /// and marks the simulation live. Idempotent.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        if self.policy.next_tick(SimTime::ZERO).is_some() {
            // Round grid starts at t = 0.
            self.events.push(SimTime::ZERO, Event::Tick);
            self.tick_pending = true;
        }
    }

    /// The cluster's local clock: the latest event time processed.
    pub fn now(&self) -> SimTime {
        self.cursor
    }

    /// When the next internal event fires, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    /// The cost table this cluster schedules against.
    pub fn costs(&self) -> &CostTable {
        &self.costs
    }

    /// Denoise-pool GPUs not hard-faulted at `at` per the static failure
    /// plan — the capacity the EDF feasibility scans run against. Under
    /// the unified layout the denoise pool is the whole cluster.
    pub fn healthy_count_at(&self, at: SimTime) -> usize {
        let down = self.engine.failures().down_gpus(at);
        GpuSet::first_n(self.denoise_gpus).difference(down).len()
    }

    /// Effective serving capacity at `at` in nominal-GPU units: the
    /// healthy denoise set derated by active slowdown faults. Exactly
    /// `healthy_count_at(at) as f64` when no slowdown is active, so the
    /// capacity-form EDF scans it feeds are bit-identical to the integer
    /// forms on slowdown-free runs.
    pub fn effective_capacity_at(&self, at: SimTime) -> f64 {
        // `effective_capacity` counts only the members up at `at`.
        self.engine
            .failures()
            .effective_capacity(GpuSet::first_n(self.denoise_gpus), at)
    }

    /// Every queued request with work remaining, in id order, as
    /// `(spec, remaining_steps)` — the movable set a fleet rebalancer may
    /// migrate (running requests are pinned to their dispatch). The live
    /// index yields deadline order; the sort restores the id order the
    /// pre-index scan produced.
    pub fn queued_movable(&self) -> Vec<(RequestSpec, u32)> {
        let mut movable: Vec<(RequestSpec, u32)> = self
            .tracker
            .live()
            .filter(|r| r.phase == Phase::Queued)
            .map(|r| (r.spec, r.remaining_steps))
            .collect();
        movable.sort_unstable_by_key(|(s, _)| s.id);
        movable
    }

    /// Queued requests inside the violating EDF prefix at `at`: the
    /// backlog this cluster cannot deliver by its deadlines under current
    /// healthy capacity (all of it, during a whole-cluster outage).
    /// Running requests are excluded — they cannot be migrated.
    pub fn at_risk_queued(&self, at: SimTime) -> Vec<RequestId> {
        let at = at.max(self.cursor);
        let entries = feasibility::live_entries(&self.tracker, at, &self.costs);
        let at_risk = feasibility::edf_at_risk_len(entries, at, self.effective_capacity_at(at));
        self.tracker
            .live()
            .take(at_risk)
            .filter(|r| r.phase == Phase::Queued)
            .map(|r| r.spec.id)
            .collect()
    }

    /// Snapshot of the cluster's load as of `at` (≥ the local clock), for
    /// router decisions.
    pub fn load(&self, at: SimTime) -> ClusterLoad {
        self.snapshot(at, None).0
    }

    /// The router's view of this cluster for one arrival: the load
    /// snapshot as of `at` (≥ the local clock), and whether the cluster
    /// could take `spec` on top of its live backlog and still meet every
    /// deadline under the EDF cumulative-demand test, against the
    /// slowdown-derated capacity. One walk of the live index builds both.
    pub fn route_view(&self, spec: &RequestSpec, at: SimTime) -> (ClusterLoad, bool) {
        self.snapshot(at, Some(spec))
    }

    /// [`load`](ClusterSim::load) plus, for an `arrival`, its admission
    /// verdict (`true` without one). The derated capacity is read once;
    /// everything else is O(1) or the one [`feasibility::scan_backlog`]
    /// walk of the tracker's live index — a route must not scan every
    /// request ever admitted.
    fn snapshot(&self, at: SimTime, arrival: Option<&RequestSpec>) -> (ClusterLoad, bool) {
        let at = at.max(self.cursor);
        let effective_gpus = self.effective_capacity_at(at);
        let probe = arrival.map(|spec| {
            (
                feasibility::arrival_entry(&self.costs, spec, at),
                effective_gpus,
            )
        });
        let scan = feasibility::scan_backlog(&self.tracker, at, &self.costs, probe);
        let load = ClusterLoad {
            effective_gpus,
            queued: scan.queued,
            running: scan.running,
            backlog_gpu_seconds: scan.gpu_seconds,
        };
        (load, scan.feasible)
    }

    /// The fleet rebalancer's admission probe: whether the live backlog at
    /// `at` plus the hypothetical `extra` stays EDF-feasible with
    /// `committed` GPU-seconds already promised to this cluster, against
    /// `capacity` nominal GPUs. `extra` is merged into the live index at
    /// its `(deadline, id)` slot rather than pushed and sorted — the same
    /// merge the router's verdict in [`route_view`](ClusterSim::route_view)
    /// uses. Pure read, allocation-free.
    ///
    /// `at` must not lie before [`now`](ClusterSim::now), and `extra` must
    /// be priced at that same instant.
    pub fn feasible_with(
        &self,
        at: SimTime,
        extra: DemandEntry,
        committed: f64,
        capacity: f64,
    ) -> bool {
        debug_assert!(at >= self.cursor, "feasibility probe in the cluster's past");
        let entries = feasibility::live_entries_with(&self.tracker, at, &self.costs, extra);
        feasibility::edf_violations(entries, at, capacity, committed)
            .next()
            .is_none()
    }

    /// Removes and returns every queued request that has made no progress
    /// (fleet re-routing after a whole-cluster outage). Requests holding
    /// checkpointed steps stay: their progress would be lost elsewhere.
    pub fn drain_queued_fresh(&mut self) -> Vec<RequestSpec> {
        // Fresh queued work is a subset of the live index (fresh implies
        // steps remaining); the sort restores the pre-index id order.
        let mut ids: Vec<RequestId> = self
            .tracker
            .live()
            .filter(|r| r.phase == Phase::Queued && r.steps_executed() == 0)
            .map(|r| r.spec.id)
            .collect();
        ids.sort_unstable();
        ids.into_iter().map(|id| self.tracker.extract(id)).collect()
    }

    /// Terminally fails every live request that still has steps to run —
    /// the fleet driver calls this on a *permanent* whole-cluster outage,
    /// after the outage's fault events have aborted all in-flight
    /// dispatches: checkpointed partial work can never resume on a dead
    /// cluster, and without this the round-tick chain would spin forever
    /// waiting for capacity that never returns. Requests that already
    /// finished their steps (awaiting only the decode `Complete` event)
    /// are left to complete. Returns the number of requests failed.
    pub fn fail_incomplete(&mut self) -> usize {
        // The live index *is* the incomplete set; sorted for the
        // pre-index id order (failures are unordered, but determinism of
        // any traced side effects is cheap to keep).
        let mut ids: Vec<RequestId> = self.tracker.live().map(|r| r.spec.id).collect();
        ids.sort_unstable();
        for &id in &ids {
            self.tracker.fail(id);
        }
        ids.len()
    }

    /// Runs the rescue ladder ([`feasibility::degrade_or_shed`]) whenever
    /// the backlog may have turned infeasible: at admission, on a fault
    /// transition, and when a migration lands. Capacity is the
    /// slowdown-derated effective count, so throttled GPUs trigger the
    /// ladder exactly like lost ones.
    fn rescue_pass(&mut self, now: SimTime) {
        let shed = self.config.admission == AdmissionPolicy::ShedInfeasible;
        if self.config.degrade.is_none() && !shed {
            return;
        }
        let healthy = GpuSet::first_n(self.denoise_gpus).difference(self.down);
        let capacity = self.engine.failures().effective_capacity(healthy, now);
        feasibility::degrade_or_shed(
            &mut self.tracker,
            now,
            capacity,
            &self.costs,
            self.config.degrade.as_ref(),
            shed,
            &mut self.feas,
        );
    }

    /// Schedules an arriving request's condition-encode stage on the
    /// encode pool: earliest-free slot, gate the denoise on its
    /// completion, and wake the policy when the gate opens.
    fn dispatch_encode(&mut self, spec: RequestSpec, now: SimTime) {
        let duration = self.costs.encode_time(spec.resolution);
        let (slot, _start, done) = plan_stage_dispatch(&self.encode_pool, now, duration);
        // tetrilint: allow(taint-panic) -- slot was computed from this very pool one line up
        self.encode_pool[slot] = done;
        self.encode_busy += duration;
        self.tracker.set_encode_ready(spec.id, done);
        self.events.push(done, Event::StageReady(spec.id));
    }

    /// Hands a denoise-complete request to the dedicated decode pool
    /// (disaggregated layouts only): earliest-free slot runs its
    /// frame-scaled VAE decode, and the request completes when the slot
    /// finishes — the denoise gang was already freed by `DispatchDone`.
    fn dispatch_decode(&mut self, id: RequestId, now: SimTime) {
        // tetrilint: allow(taint-panic) -- caller just observed the id in the tracker
        let r = self.tracker.get(id).expect("decoding an unknown request");
        let duration = self
            .costs
            .decode_time(r.spec.resolution, r.spec.stages.frames);
        let (slot, _start, done) = plan_stage_dispatch(&self.decode_pool, now, duration);
        // tetrilint: allow(taint-panic) -- slot was computed from this very pool one line up
        self.decode_pool[slot] = done;
        self.decode_busy += duration;
        self.events.push(done, Event::Complete(id));
    }

    /// Processes one event. Returns `false` when the queue is empty.
    ///
    /// # Panics
    ///
    /// Panics if a policy emits an invalid plan, or the event cap is
    /// exceeded.
    pub fn step(&mut self) -> bool {
        let Some((now, event)) = self.events.pop() else {
            return false;
        };
        self.processed += 1;
        assert!(
            self.processed <= MAX_EVENTS,
            "event cap exceeded: the policy appears not to terminate"
        );
        self.cursor = self.cursor.max(now);
        // Health transitions on an idle server must not inflate the
        // makespan (a recovery scheduled long after the last request
        // finished is not serving time).
        let is_health = matches!(event, Event::GpuDown | Event::GpuUp);
        if !is_health || self.arrivals_pending > 0 || !self.tracker.is_empty() {
            self.last_time = self.last_time.max(now);
        }

        let trigger = match event {
            Event::Arrival(spec) => self.on_arrival(spec, now),
            Event::Migration(m) => self.on_migration(m, now),
            Event::StageReady(id) => self.on_stage_ready(id, now),
            Event::DispatchDone { gpus, requests } => self.on_dispatch_done(gpus, &requests, now),
            Event::DispatchAborted {
                gpus,
                requests,
                lost_steps,
            } => self.on_dispatch_aborted(gpus, &requests, lost_steps),
            Event::GpuDown => self.on_gpu_down(now),
            Event::GpuUp => self.on_gpu_up(now),
            Event::Complete(id) => self.on_complete(id, now),
            Event::Tick => self.on_tick(now),
        };
        if trigger.is_some_and(|t| self.policy.reacts_to(t)) {
            for plan in self.schedule(now) {
                self.submit(plan, now);
            }
        }
        true
    }

    fn on_arrival(&mut self, spec: RequestSpec, now: SimTime) -> Option<PolicyEvent> {
        self.tracker.admit(spec);
        if spec.stages.encode {
            self.dispatch_encode(spec, now);
        }
        self.admitted(now)
    }

    fn on_migration(&mut self, m: MigratedRequest, now: SimTime) -> Option<PolicyEvent> {
        // Same admission discipline as a fresh arrival: the migrated
        // request itself holds progress and is immune to shedding, but its
        // demand may push *fresh* queued work over the feasibility edge.
        self.tracker.admit_migrated(m);
        self.admitted(now)
    }

    /// The admit tail Arrival and Migration share: settle the pending
    /// count, run the rescue ladder against the grown backlog, and wake
    /// the policy.
    fn admitted(&mut self, now: SimTime) -> Option<PolicyEvent> {
        // push_arrival / inject_request counted every Arrival and
        // Migration event; a zero count here means one was processed
        // twice or the counter was decremented on a path that never
        // queued one (the classic underflow when a migration lands after
        // its source already accounted it).
        debug_assert!(
            self.arrivals_pending > 0,
            "arrivals_pending underflow admitting an arrival or migration"
        );
        self.arrivals_pending -= 1;
        self.rescue_pass(now);
        Some(PolicyEvent::Arrival)
    }

    fn on_stage_ready(&self, id: RequestId, now: SimTime) -> Option<PolicyEvent> {
        // The request's encode gate just opened (set at dispatch time);
        // wake event-driven policies so it gets planned.
        debug_assert!(
            self.tracker.get(id).is_none_or(|r| r.encode_ready <= now),
            "stage-ready event fired before its encode gate opened"
        );
        Some(PolicyEvent::Arrival)
    }

    fn on_dispatch_done(
        &mut self,
        gpus: GpuSet,
        requests: &[RequestId],
        now: SimTime,
    ) -> Option<PolicyEvent> {
        // A fault opening exactly as the dispatch ends keeps the GPU out
        // of the pool (windows are half-open, so the dispatch itself still
        // completes).
        self.free = self.free.union(gpus).difference(self.down);
        for &id in requests {
            self.tracker.finish_dispatch(id);
            if self.tracker.get(id).is_some_and(|r| r.remaining_steps == 0) {
                // Uniform stage transition: the denoise stage is over.
                // Unified layouts already priced the fused decode into the
                // dispatch timeline; disaggregated ones hand off to a
                // decode-pool slot here.
                self.tracker.note_denoise_done(id, now);
                if !self.decode_pool.is_empty() {
                    self.dispatch_decode(id, now);
                }
            }
        }
        Some(PolicyEvent::DispatchDone)
    }

    fn on_dispatch_aborted(
        &mut self,
        gpus: GpuSet,
        requests: &[RequestId],
        lost_steps: u32,
    ) -> Option<PolicyEvent> {
        self.free = self.free.union(gpus).difference(self.down);
        for &id in requests {
            self.tracker.abort_dispatch(id, gpus, lost_steps);
            if self
                .tracker
                .get(id)
                .is_some_and(|r| r.retries > self.config.max_retries)
            {
                self.tracker.fail(id);
            }
        }
        Some(PolicyEvent::DispatchDone)
    }

    fn on_gpu_down(&mut self, now: SimTime) -> Option<PolicyEvent> {
        self.refresh_health(now);
        self.rescue_pass(now);
        // Wake event-driven policies so queued work re-plans around the
        // shrunk capacity at once; round-driven policies pick it up at the
        // next tick.
        Some(PolicyEvent::DispatchDone)
    }

    fn on_gpu_up(&mut self, now: SimTime) -> Option<PolicyEvent> {
        self.refresh_health(now);
        Some(PolicyEvent::DispatchDone)
    }

    /// The health refresh GpuDown and GpuUp share: re-read the down set
    /// from the failure plan at `now` and return every denoise-pool GPU
    /// that left it to the free pool, `free = (free ∪ (was \ down)) \ down`.
    ///
    /// Recomputing rather than toggling one GPU keeps overlapping fault
    /// windows on one GPU down until the *last* one closes, and one event
    /// settles every transition at its instant: a window closing exactly
    /// when another GPU's opens is returned by whichever of the coincident
    /// events fires first, so the other finds nothing left to do. A GPU
    /// can only return idle: while down it is excluded from every plan,
    /// so no dispatch holds it at `up_at`.
    fn refresh_health(&mut self, now: SimTime) {
        let was = self.down;
        self.down = self.engine.failures().down_gpus(now);
        // Only denoise-pool GPUs are ever free: a recovered encode or
        // decode pool GPU must not reach the packer.
        let recovered = was
            .difference(self.down)
            .intersection(GpuSet::first_n(self.denoise_gpus));
        self.free = self.free.union(recovered).difference(self.down);
    }

    fn on_complete(&mut self, id: RequestId, now: SimTime) -> Option<PolicyEvent> {
        self.tracker.complete(id, now);
        None
    }

    fn on_tick(&mut self, now: SimTime) -> Option<PolicyEvent> {
        self.tick_pending = false;
        if self.arrivals_pending > 0 || !self.tracker.is_empty() {
            if let Some(next) = self.policy.next_tick(now) {
                assert!(next > now, "round ticks must advance time");
                self.events.push(next, Event::Tick);
                self.tick_pending = true;
            }
        }
        Some(PolicyEvent::RoundTick)
    }

    /// One scheduling pass: asks the policy for plans at `now`, counts
    /// the pass, and validates the plans against the context the policy
    /// saw.
    ///
    /// # Panics
    ///
    /// Panics if the policy emits an invalid plan.
    fn schedule(&mut self, now: SimTime) -> Vec<DispatchPlan> {
        let ctx = SchedContext {
            now,
            free: self.free,
            healthy: GpuSet::first_n(self.denoise_gpus).difference(self.down),
            n_gpus: self.denoise_gpus,
            tracker: &self.tracker,
            costs: &self.costs,
            failures: self.engine.failures(),
        };
        let plans = self.policy.schedule(&ctx);
        self.sched_calls += 1;
        if let Err(e) = validate_plans(&plans, &ctx) {
            panic!("policy {} emitted invalid plans: {e}", self.policy.name());
        }
        plans
    }

    /// Turns one plan into an engine dispatch at `now`: prices its
    /// placement-accurate per-step time (frame-scaled for video) and tail
    /// decode, charges the GPU-seconds, and queues the dispatch's end
    /// (done or aborted) and its requests' completions.
    ///
    /// # Panics
    ///
    /// Panics if the engine rejects the plan, which validation rules out.
    fn submit(&mut self, plan: DispatchPlan, now: SimTime) {
        let model = self.costs.model();
        let cluster = self.costs.cluster();
        // A plan with no requests (or one referencing an id the tracker no
        // longer holds) schedules nothing; skipping it leaves the work
        // queued for the rescue pass rather than panicking mid-round.
        let Some(resolution) = plan
            .requests
            .first()
            .and_then(|&id| self.tracker.get(id))
            .map(|r| r.spec.resolution)
        else {
            return;
        };
        let batch = plan.batch();
        // Video requests denoise every frame: the dispatch's wall clock
        // scales by the widest frame count in the batch. Integer-exact, so
        // single-frame batches are untouched.
        let frames = plan
            .requests
            .iter()
            .filter_map(|&id| self.tracker.get(id))
            .map(|r| r.spec.stages.frames)
            .max()
            .unwrap_or(1);
        let per_step = step_time_on(
            model,
            resolution,
            plan.gpus,
            batch,
            cluster,
            &self.topology,
            self.costs.scheme(),
        ) * u64::from(frames);
        let finishing: Vec<RequestId> = plan
            .requests
            .iter()
            .copied()
            .filter(|&id| {
                self.tracker
                    .get(id)
                    .is_some_and(|r| r.remaining_steps == plan.steps)
            })
            .collect();
        // Unified layouts fuse the frame-scaled VAE decode onto the
        // finishing gang (the engine serializes them on its decoder);
        // disaggregated layouts hand finishers to the decode pool at
        // `DispatchDone`, freeing the denoise gang immediately.
        let decode_after = if finishing.is_empty() || !self.decode_pool.is_empty() {
            None
        } else {
            Some(self.costs.decode_time(resolution, frames))
        };
        let dispatch = StepDispatch {
            requests: plan.requests,
            gpus: plan.gpus,
            steps: plan.steps,
            per_step,
            latent_bytes: model.latent_bytes(resolution),
            decode_after,
            finishing,
        };
        let outcome = self
            .engine
            .submit(now, &dispatch)
            .unwrap_or_else(|e| panic!("engine rejected a validated plan: {e}"));

        // Accounting: GPU-seconds split evenly across the batch.
        let span = outcome.gpus_free_at.saturating_since(now).as_secs_f64();
        let gpu_seconds = plan.gpus.len() as f64 * span / f64::from(batch);
        for &id in &dispatch.requests {
            self.tracker
                .start_dispatch(id, plan.gpus, plan.steps, gpu_seconds);
        }
        self.free = self.free.difference(plan.gpus);
        let (gpus, requests) = (plan.gpus, dispatch.requests);
        if let Some(abort) = outcome.aborted {
            let lost_steps = plan.steps - abort.completed_steps;
            let ended = Event::DispatchAborted {
                gpus,
                requests,
                lost_steps,
            };
            self.events.push(abort.time, ended);
        } else {
            self.events
                .push(outcome.gpus_free_at, Event::DispatchDone { gpus, requests });
        }
        for (id, done) in outcome.request_done {
            self.events.push(done, Event::Complete(id));
        }
    }

    /// Consumes the simulation and produces the final report.
    pub fn finish(self) -> ServeReport {
        let makespan = self.last_time.max(SimTime::from_micros(1));
        let utilization = self.engine.utilization(makespan);
        let outcomes = self.tracker.outcomes();
        let policy = self.policy.name();
        let trace = self.engine.into_trace();
        let aborted_dispatches = trace.aborted_count();
        let wasted_gpu_seconds = trace.wasted_gpu_seconds();
        let shed_requests = outcomes.iter().filter(|o| o.shed).count();
        ServeReport {
            outcomes,
            trace,
            utilization,
            makespan,
            policy,
            sched_calls: self.sched_calls,
            aborted_dispatches,
            wasted_gpu_seconds,
            shed_requests,
            events: self.processed,
            feas_calls: self.feas.calls(),
            feas_grow_events: self.feas.grow_events(),
            pool: self.config.pool,
            encode_busy_seconds: self.encode_busy.as_secs_f64(),
            decode_busy_seconds: self.decode_busy.as_secs_f64(),
        }
    }
}

/// The single-cluster serving harness.
pub struct Server<P: Policy> {
    costs: CostTable,
    policy: P,
    config: ServerConfig,
}

impl<P: Policy> Server<P> {
    /// Creates a server with default configuration.
    pub fn new(costs: CostTable, policy: P) -> Self {
        Server {
            costs,
            policy,
            config: ServerConfig::default(),
        }
    }

    /// Creates a server with an explicit configuration.
    pub fn with_config(costs: CostTable, policy: P, config: ServerConfig) -> Self {
        Server {
            costs,
            policy,
            config,
        }
    }

    /// Mutable access to the configuration before running.
    pub fn config_mut(&mut self) -> &mut ServerConfig {
        &mut self.config
    }

    /// Serves `specs` to completion and reports per-request outcomes.
    ///
    /// # Panics
    ///
    /// Panics if a policy emits an invalid plan, or the event cap is
    /// exceeded.
    pub fn run<I: IntoIterator<Item = RequestSpec>>(self, specs: I) -> ServeReport {
        let mut sim = ClusterSim::new(self.costs, self.policy, self.config);
        for spec in specs {
            sim.push_arrival(spec, spec.arrival);
        }
        sim.start();
        while sim.step() {}
        sim.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TetriServeConfig;
    use crate::scheduler::TetriServePolicy;
    use tetriserve_costmodel::{ClusterSpec, DitModel, Profiler, Resolution, StageProfile};
    use tetriserve_simulator::trace::TenantId;

    fn costs() -> CostTable {
        Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic()
    }

    fn spec(id: u64, res: Resolution, arrival_s: f64, slo_s: f64) -> RequestSpec {
        RequestSpec {
            tenant: TenantId::UNTAGGED,
            id: RequestId(id),
            resolution: res,
            arrival: SimTime::from_secs_f64(arrival_s),
            deadline: SimTime::from_secs_f64(arrival_s + slo_s),
            total_steps: 50,
            stages: StageProfile::FLAT,
        }
    }

    fn serve(specs: Vec<RequestSpec>) -> ServeReport {
        let c = costs();
        let policy = TetriServePolicy::with_defaults(&c);
        Server::new(c, policy).run(specs)
    }

    #[test]
    fn single_request_completes_within_slo() {
        let report = serve(vec![spec(0, Resolution::R256, 0.0, 1.5)]);
        assert_eq!(report.outcomes.len(), 1);
        let o = &report.outcomes[0];
        assert!(o.met_slo(), "outcome {o:?}");
        assert_eq!(o.steps_executed, 50);
        assert!(o.gpu_seconds > 0.0);
        assert_eq!(report.sar(), 1.0);
    }

    #[test]
    fn all_resolutions_complete_under_generous_slos() {
        let report = serve(vec![
            spec(0, Resolution::R256, 0.0, 60.0),
            spec(1, Resolution::R512, 0.1, 60.0),
            spec(2, Resolution::R1024, 0.2, 60.0),
            spec(3, Resolution::R2048, 0.3, 60.0),
        ]);
        assert_eq!(report.sar(), 1.0, "outcomes: {:?}", report.outcomes);
        assert!(report.outcomes.iter().all(|o| o.steps_executed == 50));
    }

    #[test]
    fn urgent_2048_meets_its_tight_slo_alone() {
        let report = serve(vec![spec(0, Resolution::R2048, 0.0, 5.0)]);
        let o = &report.outcomes[0];
        assert!(o.met_slo(), "latency {:?}", o.latency());
        // It must have run wide to make it.
        assert!(
            o.mean_sp_degree() > 6.0,
            "mean degree {}",
            o.mean_sp_degree()
        );
    }

    #[test]
    fn impossible_slo_is_missed_but_still_served() {
        let report = serve(vec![spec(0, Resolution::R2048, 0.0, 1.0)]);
        let o = &report.outcomes[0];
        assert!(!o.met_slo());
        assert!(o.completion.is_some(), "best-effort still completes");
        assert_eq!(o.steps_executed, 50);
    }

    #[test]
    fn figure_1_toy_example() {
        // Three requests with different sizes and deadlines arriving over
        // time — the motivating example where static parallelism fails but
        // step-level adaptation meets all three (SLO scale 1.3×: the
        // workload is feasible only with per-step degree adaptation).
        let report = serve(vec![
            spec(0, Resolution::R512, 0.0, 2.0 * 1.3),
            spec(1, Resolution::R1024, 0.0, 3.0 * 1.3),
            spec(2, Resolution::R2048, 1.0, 5.0 * 1.3),
        ]);
        assert_eq!(report.sar(), 1.0, "outcomes: {:#?}", report.outcomes);
    }

    #[test]
    fn deterministic_given_seed() {
        let specs = vec![
            spec(0, Resolution::R512, 0.0, 2.0),
            spec(1, Resolution::R1024, 0.3, 3.0),
        ];
        let r1 = serve(specs.clone());
        let r2 = serve(specs);
        let c1: Vec<_> = r1.outcomes.iter().map(|o| o.completion).collect();
        let c2: Vec<_> = r2.outcomes.iter().map(|o| o.completion).collect();
        assert_eq!(c1, c2);
    }

    #[test]
    fn utilization_is_sane() {
        let report = serve(vec![spec(0, Resolution::R1024, 0.0, 3.0)]);
        assert!(report.utilization > 0.0 && report.utilization <= 1.0);
        assert!(report.makespan > SimTime::ZERO);
    }

    #[test]
    fn scheduling_passes_are_counted() {
        let report = serve(vec![
            spec(0, Resolution::R1024, 0.0, 3.0),
            spec(1, Resolution::R512, 0.2, 2.0),
        ]);
        assert!(report.sched_calls > 0);
    }

    #[test]
    fn empty_workload_returns_empty_report() {
        let report = serve(vec![]);
        assert!(report.outcomes.is_empty());
        assert_eq!(report.sar(), 1.0);
    }

    fn serve_with(specs: Vec<RequestSpec>, tweak: impl FnOnce(&mut ServerConfig)) -> ServeReport {
        let c = costs();
        let policy = TetriServePolicy::with_defaults(&c);
        let mut server = Server::new(c, policy);
        tweak(server.config_mut());
        server.run(specs)
    }

    #[test]
    fn transient_fault_mid_run_is_survived() {
        use tetriserve_simulator::failure::GpuFault;
        use tetriserve_simulator::gpuset::GpuId;
        // GPU 3 dies at 0.5 s — mid-flight for this workload — and returns
        // at 5 s. Every request must still finish all 50 steps.
        let report = serve_with(
            vec![
                spec(0, Resolution::R512, 0.0, 30.0),
                spec(1, Resolution::R1024, 0.1, 30.0),
                spec(2, Resolution::R2048, 0.2, 40.0),
            ],
            |cfg| {
                cfg.engine.failures = cfg.engine.failures.clone().with_fault(GpuFault::transient(
                    GpuId(3),
                    SimTime::from_secs_f64(0.5),
                    SimTime::from_secs_f64(5.0),
                ));
            },
        );
        assert!(
            report.aborted_dispatches > 0,
            "the fault must land mid-dispatch for this test to bite"
        );
        assert!(report.wasted_gpu_seconds > 0.0);
        assert!(report.total_retries() > 0);
        assert_eq!(report.shed_requests, 0, "AdmitAll never sheds");
        assert!(
            report
                .outcomes
                .iter()
                .all(|o| o.completion.is_some() && o.steps_executed == 50),
            "{:#?}",
            report.outcomes
        );
    }

    #[test]
    fn recovered_steps_count_as_goodput_not_waste() {
        use tetriserve_simulator::failure::GpuFault;
        use tetriserve_simulator::gpuset::GpuId;
        use tetriserve_simulator::trace::TraceEvent;
        // Same shape as the survival test above, but the fault lands at
        // 0.3 s — mid-way through the opening full-cluster dispatch — so
        // the aborted dispatch has checkpointed steps.
        // Those steps must be counted exactly once toward the request's 50
        // (goodput), and `wasted_gpu_seconds` must cover only the tail
        // after the last checkpointed step — never the recovered work.
        let report = serve_with(
            vec![
                spec(0, Resolution::R512, 0.0, 30.0),
                spec(1, Resolution::R1024, 0.1, 30.0),
                spec(2, Resolution::R2048, 0.2, 40.0),
            ],
            |cfg| {
                cfg.engine.failures = cfg.engine.failures.clone().with_fault(GpuFault::transient(
                    GpuId(3),
                    SimTime::from_secs_f64(0.3),
                    SimTime::from_secs_f64(5.0),
                ));
            },
        );
        assert!(
            report.aborted_dispatches > 0,
            "fault must land mid-dispatch"
        );
        assert!(
            report.outcomes.iter().all(|o| o.met_slo()),
            "generous SLOs: every request recovers and meets its deadline\n{:#?}",
            report.outcomes
        );
        assert!(report.goodput() > 0.0);

        // Index DispatchStart events by id: the paired start of an aborted
        // dispatch records only the checkpointed steps.
        let mut starts = std::collections::BTreeMap::new();
        for e in report.trace.events() {
            if let TraceEvent::DispatchStart {
                time,
                dispatch,
                requests,
                gpus,
                steps,
                per_step,
            } = e
            {
                starts.insert(
                    *dispatch,
                    (*time, requests.clone(), *gpus, *steps, *per_step),
                );
            }
        }

        let mut event_waste = 0.0;
        let mut checkpointed_abort = false;
        for e in report.trace.events() {
            let TraceEvent::DispatchAborted {
                time,
                dispatch,
                completed_steps,
                wasted_gpu_seconds,
                ..
            } = e
            else {
                continue;
            };
            event_waste += wasted_gpu_seconds;
            let (start, _, gpus, steps, per_step) = &starts[dispatch];
            assert_eq!(steps, completed_steps, "start records checkpointed steps");
            if *completed_steps == 0 {
                continue;
            }
            checkpointed_abort = true;
            // Waste is exactly the span after the last checkpointed step,
            // over every member GPU — the recovered prefix is excluded.
            let useful_end =
                start.as_secs_f64() + per_step.as_secs_f64() * f64::from(*completed_steps);
            let expected = gpus.len() as f64 * (time.as_secs_f64() - useful_end);
            assert!(
                (wasted_gpu_seconds - expected).abs() < 5e-3,
                "waste {wasted_gpu_seconds} != tail {expected}"
            );
            let full_span = gpus.len() as f64 * (time.as_secs_f64() - start.as_secs_f64());
            assert!(
                *wasted_gpu_seconds < full_span,
                "checkpointed work must not be double-counted as waste"
            );
        }
        assert!(checkpointed_abort, "need an abort with checkpointed steps");
        assert!((event_waste - report.wasted_gpu_seconds).abs() < 1e-9);

        // Conservation: per request, checkpointed + retried steps sum to
        // exactly 50 — recovered steps are never re-executed.
        for o in &report.outcomes {
            let executed: u32 = starts
                .values()
                .filter(|(_, reqs, ..)| reqs.contains(&o.id))
                .map(|(_, _, _, steps, _)| *steps)
                .sum();
            assert_eq!(executed, 50, "request {:?}", o.id);
        }
    }

    #[test]
    fn permanent_fault_excludes_the_gpu_from_all_placements() {
        use tetriserve_simulator::failure::GpuFault;
        use tetriserve_simulator::gpuset::GpuId;
        use tetriserve_simulator::trace::TraceEvent;
        let report = serve_with(
            vec![
                spec(0, Resolution::R1024, 0.0, 30.0),
                spec(1, Resolution::R2048, 0.1, 40.0),
            ],
            |cfg| {
                cfg.engine.failures = cfg
                    .engine
                    .failures
                    .clone()
                    .with_fault(GpuFault::permanent(GpuId(7), SimTime::ZERO));
            },
        );
        assert!(report.outcomes.iter().all(|o| o.completion.is_some()));
        let dead = GpuSet::single(GpuId(7));
        for e in report.trace.events() {
            if let TraceEvent::DispatchStart { gpus, .. } = e {
                assert!(
                    gpus.is_disjoint(dead),
                    "dispatch placed on a permanently dead GPU"
                );
            }
        }
    }

    #[test]
    fn fault_runs_are_bit_for_bit_deterministic() {
        use tetriserve_simulator::failure::GpuFault;
        use tetriserve_simulator::gpuset::GpuId;
        let specs = vec![
            spec(0, Resolution::R512, 0.0, 30.0),
            spec(1, Resolution::R1024, 0.2, 30.0),
            spec(2, Resolution::R2048, 0.4, 40.0),
        ];
        let fault = |cfg: &mut ServerConfig| {
            cfg.engine.failures = cfg.engine.failures.clone().with_fault(GpuFault::transient(
                GpuId(2),
                SimTime::from_secs_f64(0.6),
                SimTime::from_secs_f64(4.0),
            ));
        };
        let a = serve_with(specs.clone(), fault);
        let b = serve_with(specs, fault);
        let ca: Vec<_> = a
            .outcomes
            .iter()
            .map(|o| (o.completion, o.retries))
            .collect();
        let cb: Vec<_> = b
            .outcomes
            .iter()
            .map(|o| (o.completion, o.retries))
            .collect();
        assert_eq!(ca, cb);
        assert_eq!(a.aborted_dispatches, b.aborted_dispatches);
        assert_eq!(
            a.wasted_gpu_seconds.to_bits(),
            b.wasted_gpu_seconds.to_bits()
        );
    }

    #[test]
    fn coincident_health_events_return_every_recovered_gpu() {
        use tetriserve_simulator::failure::{FailurePlan, GpuFault};
        use tetriserve_simulator::gpuset::GpuId;
        // GPU 0 dies at 1 s exactly as GPU 1's window closes. Whichever
        // of the coincident GpuDown and GpuUp fires first must hand GPU 1
        // back: 7 free GPUs in either fault order.
        let secs = SimTime::from_secs_f64;
        let free_after = |faults: &[GpuFault]| {
            let c = costs();
            let policy = TetriServePolicy::with_defaults(&c);
            let mut config = ServerConfig::default();
            config.engine.failures = faults
                .iter()
                .fold(FailurePlan::none(), |plan, &f| plan.with_fault(f));
            let mut sim = ClusterSim::new(c, policy, config);
            sim.start();
            while sim.step() {}
            sim.free.len()
        };
        let faults = [
            GpuFault::permanent(GpuId(0), secs(1.0)),
            GpuFault::transient(GpuId(1), secs(0.5), secs(1.0)),
        ];
        assert_eq!(free_after(&faults), 7);
        assert_eq!(free_after(&[faults[1], faults[0]]), 7);
    }

    #[test]
    fn recovered_pool_gpu_stays_out_of_the_denoise_pool() {
        use tetriserve_simulator::failure::{FailurePlan, GpuFault};
        use tetriserve_simulator::gpuset::GpuId;
        // GPU 7 belongs to the disaggregated decode pool. When its fault
        // window closes it must not join the denoise packer's free set,
        // or the next plan would place denoise steps on it.
        let c = costs();
        let policy = TetriServePolicy::with_defaults(&c);
        let mut config = ServerConfig {
            pool: PoolLayout::disaggregated_default(),
            ..ServerConfig::default()
        };
        config.engine.failures = FailurePlan::none().with_fault(GpuFault::transient(
            GpuId(7),
            SimTime::from_secs_f64(0.5),
            SimTime::from_secs_f64(1.0),
        ));
        let mut sim = ClusterSim::new(c, policy, config);
        for i in 0..3 {
            let s = spec(i, Resolution::R1024, 1.0 + 0.1 * i as f64, 60.0);
            sim.push_arrival(s, s.arrival);
        }
        sim.start();
        while sim.step() {
            assert!(sim.free.len() <= 5);
        }
        assert!(sim.finish().outcomes.iter().all(|o| o.met_slo()));
    }

    #[test]
    fn retry_budget_exhaustion_fails_the_request() {
        use tetriserve_simulator::failure::GpuFault;
        use tetriserve_simulator::gpuset::GpuId;
        // Every GPU flaps in lock-step, killing each attempt; with a zero
        // retry budget the request terminally fails instead of looping.
        let report = serve_with(vec![spec(0, Resolution::R2048, 0.0, 60.0)], |cfg| {
            cfg.max_retries = 0;
            let mut failures = cfg.engine.failures.clone();
            for g in 0..8 {
                failures = failures.with_fault(GpuFault::transient(
                    GpuId(g),
                    SimTime::from_secs_f64(0.2),
                    SimTime::from_secs_f64(0.3),
                ));
            }
            cfg.engine.failures = failures;
        });
        let o = &report.outcomes[0];
        assert!(o.completion.is_none(), "{o:?}");
        assert!(!o.shed);
        assert_eq!(o.retries, 1, "one abort, then the budget is gone");
        assert_eq!(report.sar(), 0.0);
    }

    #[test]
    fn shed_infeasible_beats_admit_all_under_overload() {
        // A 3× overload burst of big requests with tight deadlines: serving
        // everyone best-effort makes everyone late, shedding the hopeless
        // tail saves the head.
        let burst: Vec<RequestSpec> = (0..12)
            .map(|i| spec(i, Resolution::R2048, 0.0, 10.0))
            .collect();
        let admit_all = serve_with(burst.clone(), |_| ());
        let shedding = serve_with(burst, |cfg| {
            cfg.admission = AdmissionPolicy::ShedInfeasible;
        });
        assert_eq!(admit_all.shed_requests, 0);
        assert!(shedding.shed_requests > 0, "overload must trigger shedding");
        assert!(
            shedding.sar() > admit_all.sar(),
            "shed {} vs admit-all {}",
            shedding.sar(),
            admit_all.sar()
        );
        // Shed requests never executed a step (no work wasted on them).
        assert!(shedding
            .outcomes
            .iter()
            .filter(|o| o.shed)
            .all(|o| o.steps_executed == 0));
    }

    #[test]
    fn feasible_load_is_never_shed() {
        let report = serve_with(
            vec![
                spec(0, Resolution::R256, 0.0, 60.0),
                spec(1, Resolution::R1024, 0.5, 60.0),
            ],
            |cfg| {
                cfg.admission = AdmissionPolicy::ShedInfeasible;
            },
        );
        assert_eq!(report.shed_requests, 0);
        assert_eq!(report.sar(), 1.0);
    }

    #[test]
    fn degrade_rescues_overload_without_shedding() {
        use crate::degrade::DegradePolicy;
        // Two hero images that *almost* fit back-to-back at SP=8 (4.48 s
        // each against an 8.4 s deadline): full quality makes the second
        // one ~2 s late, but shedding a third of its steps (floor 0.5 →
        // ≥ 25 of 50) pulls it well inside the deadline without crowding
        // the first one out. Quality bends so requests don't break.
        let burst: Vec<RequestSpec> = (0..2)
            .map(|i| spec(i, Resolution::R2048, 0.0, 8.4))
            .collect();
        let admit_all = serve_with(burst.clone(), |_| ());
        let degraded = serve_with(burst, |cfg| {
            cfg.degrade = Some(DegradePolicy::uniform(0.5));
        });
        assert_eq!(degraded.shed_requests, 0, "AdmitAll never sheds");
        assert!(degraded.rescued_requests() > 0, "overload must degrade");
        assert!(degraded.quality_debt_steps() > 0);
        assert!(
            degraded.sar() > admit_all.sar(),
            "degraded {} vs admit-all {}",
            degraded.sar(),
            admit_all.sar()
        );
        // The quality floor (0.5) is never pierced: every completion ran
        // at least ⌈50 × 0.5⌉ = 25 steps, and executed + shed always
        // accounts for the full request.
        for o in degraded.outcomes.iter().filter(|o| o.completion.is_some()) {
            assert!(o.steps_executed >= 25, "{o:?}");
            assert_eq!(o.steps_executed + o.steps_shed, 50, "{o:?}");
        }
    }

    #[test]
    fn degrade_before_shed_keeps_more_requests_than_shed_only() {
        use crate::degrade::DegradePolicy;
        let burst: Vec<RequestSpec> = (0..12)
            .map(|i| spec(i, Resolution::R2048, 0.0, 10.0))
            .collect();
        let shed_only = serve_with(burst.clone(), |cfg| {
            cfg.admission = AdmissionPolicy::ShedInfeasible;
        });
        let ladder = serve_with(burst, |cfg| {
            cfg.admission = AdmissionPolicy::ShedInfeasible;
            cfg.degrade = Some(DegradePolicy::paper_classes());
        });
        assert!(shed_only.shed_requests > 0);
        assert!(
            ladder.shed_requests < shed_only.shed_requests,
            "degrading first must save requests from the shedder: {} vs {}",
            ladder.shed_requests,
            shed_only.shed_requests
        );
        assert!(
            ladder.sar() >= shed_only.sar(),
            "ladder {} vs shed-only {}",
            ladder.sar(),
            shed_only.sar()
        );
        assert!(ladder.quality_debt_steps() > 0, "the rescue has a price");
    }

    /// A finished outcome for the quality-accounting tests: 50 requested
    /// steps, `shed_steps` of them removed by the ladder, completing
    /// before or after a 10 s deadline.
    fn finished(id: u64, met: bool, shed_steps: u32) -> RequestOutcome {
        RequestOutcome {
            tenant: TenantId::UNTAGGED,
            id: RequestId(id),
            resolution: Resolution::R512,
            arrival: SimTime::ZERO,
            deadline: SimTime::from_secs_f64(10.0),
            completion: Some(SimTime::from_secs_f64(if met { 5.0 } else { 15.0 })),
            gpu_seconds: 1.0,
            steps_executed: 50 - shed_steps,
            sp_degree_step_sum: u64::from(50 - shed_steps),
            retries: 0,
            shed: false,
            steps_shed: shed_steps,
            encode_done: None,
            denoise_done: None,
        }
    }

    #[test]
    fn degraded_accounting_splits_sar() {
        let mut report = serve(Vec::new());
        report.outcomes = vec![
            finished(0, true, 0),  // full-quality hit
            finished(1, true, 5),  // degraded hit
            finished(2, false, 5), // degraded miss
            finished(3, false, 0), // full-quality miss
        ];
        assert_eq!(report.rescued_requests(), 2);
        assert_eq!(report.degraded_completions(), 1);
        assert_eq!(report.sar(), 0.5);
        assert_eq!(report.full_quality_sar(), 0.25);
        assert_eq!(report.quality_debt_steps(), 10);
    }

    #[test]
    fn empty_report_is_perfect() {
        let report = serve(Vec::new());
        assert!(report.outcomes.is_empty());
        assert_eq!(report.sar(), 1.0);
        assert_eq!(report.full_quality_sar(), 1.0);
        assert_eq!(report.quality_debt_steps(), 0);
    }

    #[test]
    fn degrade_policy_is_inert_on_feasible_load() {
        use crate::degrade::DegradePolicy;
        // A workload with ample headroom: the ladder must never fire, and
        // the report must be indistinguishable from a no-degrade run.
        let specs = vec![
            spec(0, Resolution::R256, 0.0, 60.0),
            spec(1, Resolution::R1024, 0.5, 60.0),
            spec(2, Resolution::R2048, 1.0, 60.0),
        ];
        let plain = serve_with(specs.clone(), |_| ());
        let with_policy = serve_with(specs, |cfg| {
            cfg.degrade = Some(DegradePolicy::paper_classes());
        });
        assert_eq!(with_policy.quality_debt_steps(), 0);
        assert_eq!(with_policy.rescued_requests(), 0);
        assert_eq!(with_policy.full_quality_sar(), with_policy.sar());
        let a: Vec<_> = plain
            .outcomes
            .iter()
            .map(|o| (o.completion, o.steps_executed, o.gpu_seconds.to_bits()))
            .collect();
        let b: Vec<_> = with_policy
            .outcomes
            .iter()
            .map(|o| (o.completion, o.steps_executed, o.gpu_seconds.to_bits()))
            .collect();
        assert_eq!(a, b, "an idle ladder must be bit-invisible");
    }

    #[test]
    fn straggler_triggers_degradation_under_pressure() {
        use crate::degrade::DegradePolicy;
        use tetriserve_simulator::failure::PerfFault;
        use tetriserve_simulator::gpuset::GpuId;
        // A load that fits nominal capacity but not a cluster whose GPUs
        // are all running at one third speed: only the slowdown-aware
        // admission scan notices, and the ladder sheds steps to cope.
        let specs: Vec<RequestSpec> = (0..2)
            .map(|i| spec(i, Resolution::R2048, 0.0, 12.0))
            .collect();
        let tweak_faults = |cfg: &mut ServerConfig| {
            let mut failures = cfg.engine.failures.clone();
            for g in 0..8 {
                failures =
                    failures.with_perf_fault(PerfFault::brownout(GpuId(g), 3.0, SimTime::ZERO));
            }
            cfg.engine.failures = failures;
        };
        let nominal = serve_with(specs.clone(), |cfg| {
            cfg.degrade = Some(DegradePolicy::paper_classes());
        });
        assert_eq!(
            nominal.quality_debt_steps(),
            0,
            "fits at nominal speed — no rescue needed"
        );
        let browned = serve_with(specs, |cfg| {
            tweak_faults(cfg);
            cfg.degrade = Some(DegradePolicy::paper_classes());
        });
        assert!(
            browned.quality_debt_steps() > 0,
            "the derated capacity must trigger the ladder"
        );
    }

    #[test]
    fn ablated_configs_still_serve_correctly() {
        for cfg in [
            TetriServeConfig::schedule_only(),
            TetriServeConfig::with_placement(),
        ] {
            let c = costs();
            let policy = TetriServePolicy::new(cfg, &c);
            let report = Server::new(c, policy).run(vec![
                spec(0, Resolution::R512, 0.0, 4.0),
                spec(1, Resolution::R1024, 0.1, 6.0),
            ]);
            assert!(
                report.outcomes.iter().all(|o| o.completion.is_some()),
                "cfg {cfg:?}: {:?}",
                report.outcomes
            );
        }
    }

    fn stepwise(costs: CostTable) -> ClusterSim<TetriServePolicy> {
        let policy = TetriServePolicy::with_defaults(&costs);
        ClusterSim::new(costs, policy, ServerConfig::default())
    }

    #[test]
    fn incremental_injection_matches_batch_run() {
        // Fleet mode: arrivals injected just-in-time between steps must
        // serve identically to the batch run that queues them all up front.
        let specs = vec![
            spec(0, Resolution::R512, 0.0, 4.0),
            spec(1, Resolution::R1024, 2.0, 6.0),
            spec(2, Resolution::R256, 9.0, 3.0),
        ];
        let batch = serve(specs.clone());

        let mut sim = stepwise(costs());
        sim.start();
        let mut pending: std::collections::VecDeque<_> = specs.into_iter().collect();
        loop {
            // Inject every arrival due before (or at) the next internal
            // event, mirroring the fleet driver's arbitration.
            while let Some(next) = pending.front() {
                let due = sim.next_event_time().is_none_or(|t| next.arrival <= t);
                if due {
                    let spec = pending.pop_front().expect("front exists");
                    sim.push_arrival(spec, spec.arrival);
                } else {
                    break;
                }
            }
            if !sim.step() {
                if let Some(spec) = pending.pop_front() {
                    sim.push_arrival(spec, spec.arrival);
                } else {
                    break;
                }
            }
        }
        let stepped = sim.finish();
        let a: Vec<_> = batch.outcomes.iter().map(|o| o.completion).collect();
        let b: Vec<_> = stepped.outcomes.iter().map(|o| o.completion).collect();
        assert_eq!(a, b);
        assert!(stepped.outcomes.iter().all(|o| o.met_slo()));
    }

    #[test]
    fn drained_cluster_holds_no_request() {
        use tetriserve_simulator::rng::SimRng;
        // Every request leaves the tracker's map when it finishes, so a
        // cluster whose event queue ran dry holds nothing in flight, and
        // its report still accounts for every arrival.
        let mut rng = SimRng::seed_from_u64(0xd7a1_4ed0);
        let mut sim = stepwise(costs());
        sim.start();
        let n = 300;
        let mut arrival = 0.0;
        for id in 0..n {
            arrival += rng.exponential(3.0);
            let res = Resolution::PRODUCTION[rng.below(4)];
            let s = spec(id, res, arrival, 2.0 + 10.0 * rng.uniform());
            sim.push_arrival(s, s.arrival);
        }
        while sim.step() {}
        assert!(
            sim.tracker.is_empty(),
            "{} requests still tracked",
            sim.tracker.len()
        );
        let report = sim.finish();
        assert!(report
            .outcomes
            .iter()
            .map(|o| o.id)
            .eq((0..n).map(RequestId)));
        assert!(report.outcomes.iter().all(|o| o.completion.is_some()));
    }

    #[test]
    fn load_snapshot_reflects_backlog() {
        let mut sim = stepwise(costs());
        sim.start();
        sim.push_arrival(spec(0, Resolution::R1024, 0.0, 30.0), SimTime::ZERO);
        sim.push_arrival(spec(1, Resolution::R2048, 0.0, 40.0), SimTime::ZERO);
        // Process the two arrival events (plus the initial tick) without
        // letting any dispatch finish.
        for _ in 0..3 {
            assert!(sim.step());
        }
        let load = sim.load(sim.now());
        assert_eq!(load.depth(), 2, "{load:?}");
        assert!(load.backlog_gpu_seconds > 0.0);
        assert!(load.pressure() > 0.0);
        // A route view carries the same snapshot; only the verdict is extra.
        let (view, _) = sim.route_view(&spec(2, Resolution::R512, 0.0, 20.0), sim.now());
        assert_eq!(format!("{view:?}"), format!("{load:?}"));
    }

    #[test]
    fn empty_backlog_reads_negative_zero_demand() {
        // The backlog demand is summed from −0.0 as `Iterator::sum` does;
        // the router orders pressure with `total_cmp`, which tells −0.0
        // from +0.0.
        let sim = stepwise(costs());
        let load = sim.load(SimTime::ZERO);
        assert_eq!(load.backlog_gpu_seconds.to_bits(), (-0.0f64).to_bits());
        assert_eq!(load.pressure().to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn route_view_verdict_tracks_capacity() {
        let sim = stepwise(costs());
        let easy = spec(0, Resolution::R256, 0.0, 60.0);
        assert!(sim.route_view(&easy, SimTime::ZERO).1);
        // No deadline horizon at all → zero capacity by any deadline.
        let hopeless = spec(1, Resolution::R2048, 0.0, 0.0);
        assert!(!sim.route_view(&hopeless, SimTime::ZERO).1);
        // The fleet's probe underneath: the caller supplies committed
        // demand and capacity.
        let entry = feasibility::arrival_entry(sim.costs(), &easy, SimTime::ZERO);
        assert!(sim.feasible_with(SimTime::ZERO, entry, 0.0, 8.0));
        assert!(!sim.feasible_with(SimTime::ZERO, entry, 1e9, 8.0));
        assert!(!sim.feasible_with(SimTime::ZERO, entry, 0.0, 0.0));
    }

    #[test]
    fn zero_retry_budget_never_redispatches_aborted_work() {
        use tetriserve_simulator::failure::GpuFault;
        use tetriserve_simulator::gpuset::GpuId;
        use tetriserve_simulator::trace::TraceEvent;
        // A bounded retry budget of zero means an aborted dispatch is
        // terminal: the request fails on the spot and must never appear in
        // a later DispatchStart. (An off-by-one in the `retries >
        // max_retries` comparison would grant one silent extra retry.)
        let fault = |cfg: &mut ServerConfig| {
            cfg.engine.failures = cfg.engine.failures.clone().with_fault(GpuFault::transient(
                GpuId(3),
                SimTime::from_secs_f64(0.5),
                SimTime::from_secs_f64(5.0),
            ));
        };
        let specs = || {
            vec![
                spec(0, Resolution::R512, 0.0, 30.0),
                spec(1, Resolution::R1024, 0.1, 30.0),
                spec(2, Resolution::R2048, 0.2, 40.0),
            ]
        };
        let report = serve_with(specs(), |cfg| {
            cfg.max_retries = 0;
            fault(cfg);
        });
        assert!(report.aborted_dispatches > 0, "fault must land mid-flight");

        // Map dispatch ids to their request sets and find, per aborted
        // request, the abort time and any dispatch started after it.
        let mut starts: std::collections::BTreeMap<
            tetriserve_simulator::DispatchId,
            (SimTime, Vec<RequestId>),
        > = std::collections::BTreeMap::new();
        for e in report.trace.events() {
            if let TraceEvent::DispatchStart {
                time,
                dispatch,
                requests,
                ..
            } = e
            {
                starts.insert(*dispatch, (*time, requests.clone()));
            }
        }
        let mut aborted: std::collections::BTreeMap<RequestId, SimTime> =
            std::collections::BTreeMap::new();
        for e in report.trace.events() {
            if let TraceEvent::DispatchAborted { time, dispatch, .. } = e {
                for id in &starts[dispatch].1 {
                    aborted.insert(*id, *time);
                }
            }
        }
        assert!(!aborted.is_empty());
        for (&id, &abort_time) in &aborted {
            assert!(
                !starts
                    .values()
                    .any(|(t, reqs)| *t > abort_time && reqs.contains(&id)),
                "request {id} was re-dispatched after its abort despite max_retries = 0"
            );
            let o = report
                .outcomes
                .iter()
                .find(|o| o.id == id)
                .expect("aborted request has an outcome");
            assert!(o.completion.is_none(), "request {id} must fail terminally");
            assert_eq!(o.retries, 1, "the abort itself is counted");
        }

        // Control: a budget of one lets the same aborts retry and finish.
        let generous = serve_with(specs(), |cfg| {
            cfg.max_retries = 1;
            fault(cfg);
        });
        assert!(generous.aborted_dispatches > 0);
        assert!(
            generous.outcomes.iter().all(|o| o.completion.is_some()),
            "one retry suffices here: {:#?}",
            generous.outcomes
        );
    }

    #[test]
    fn migration_landing_keeps_arrival_accounting_balanced() {
        // Satellite audit of `arrivals_pending`: drive every path that
        // touches the counter — plain arrivals, a drain/re-route, and a
        // migration hand-off that lands *after* the source already
        // accounted the extraction — through one pair of clusters. The
        // `debug_assert`s in `step()` fire on any underflow; the outcome
        // checks pin conservation.
        let mut a = stepwise(costs());
        let mut b = stepwise(costs());
        a.start();
        b.start();
        a.push_arrival(spec(0, Resolution::R512, 0.0, 30.0), SimTime::ZERO);
        a.push_arrival(spec(1, Resolution::R1024, 0.0, 30.0), SimTime::ZERO);
        a.push_arrival(spec(2, Resolution::R256, 0.0, 30.0), SimTime::ZERO);
        // Admit all three on A without letting any dispatch finish.
        for _ in 0..4 {
            assert!(a.step());
        }
        let now = a.now();
        // Path 1: migrate one queued request A → B with a latent delay.
        let movable = a.queued_movable();
        assert!(!movable.is_empty(), "need queued work to migrate");
        let id = movable[0].0.id;
        let m = a.extract_request(id, now);
        b.inject_request(m, now, SimDuration::from_millis(250));
        // Path 2: drain the remaining fresh queued work and re-route it to
        // B as ordinary arrivals (the outage re-route path).
        for s in a.drain_queued_fresh() {
            b.push_arrival(s, s.arrival.max(b.now()).max(now));
        }
        while a.step() {}
        while b.step() {}
        let (ra, rb) = (a.finish(), b.finish());
        assert_eq!(
            ra.outcomes.len() + rb.outcomes.len(),
            3,
            "every request is accounted exactly once across the pair"
        );
        assert!(
            rb.outcomes.iter().any(|o| o.id == id),
            "the migrated request must complete on B"
        );
        assert!(rb.outcomes.iter().all(|o| o.completion.is_some()));
    }

    #[test]
    fn inflight_handoff_to_idle_cluster_extends_makespan() {
        use tetriserve_simulator::failure::GpuFault;
        use tetriserve_simulator::gpuset::GpuId;
        // The idle-health makespan gate: health transitions on an idle
        // cluster must not inflate the makespan — but a hand-off *in
        // flight* toward an otherwise-idle cluster counts as pending work
        // (`arrivals_pending > 0`), so a fault window opening before the
        // landing still extends serving time, and one opening after the
        // migrated request finished does not.
        // A fresh migrated request, as the fleet driver would hand over.
        let m = MigratedRequest {
            spec: spec(0, Resolution::R512, 0.0, 300.0),
            remaining_steps: 50,
            gpu_seconds: 0.0,
            sp_degree_step_sum: 0,
            retries: 0,
            steps_shed: 0,
        };

        let c = costs();
        let policy = TetriServePolicy::with_defaults(&c);
        let mut config = ServerConfig::default();
        // One fault window while the hand-off is in flight, one long
        // after the cluster went idle again.
        for (down, up) in [(5.0, 7.0), (500.0, 600.0)] {
            config.engine.failures =
                config
                    .engine
                    .failures
                    .clone()
                    .with_fault(GpuFault::transient(
                        GpuId(0),
                        SimTime::from_secs_f64(down),
                        SimTime::from_secs_f64(up),
                    ));
        }
        let mut target = ClusterSim::new(c, policy, config);
        target.start();
        // Hand-off dispatched at t = 0, landing at t = 10 s.
        target.inject_request(m, SimTime::ZERO, SimDuration::from_secs_f64(10.0));
        while target.step() {}
        let report = target.finish();
        assert!(
            report.outcomes.iter().all(|o| o.completion.is_some()),
            "{:#?}",
            report.outcomes
        );
        assert!(
            report.makespan > SimTime::from_secs_f64(10.0),
            "the landing and service must extend the makespan past the \
             hand-off completion, got {}",
            report.makespan
        );
        assert!(
            report.makespan < SimTime::from_secs_f64(500.0),
            "a health transition after the cluster went idle must not \
             inflate the makespan, got {}",
            report.makespan
        );
    }

    #[test]
    fn drain_queued_fresh_extracts_unstarted_work() {
        let mut sim = stepwise(costs());
        sim.start();
        sim.push_arrival(spec(0, Resolution::R512, 0.0, 30.0), SimTime::ZERO);
        sim.push_arrival(spec(1, Resolution::R1024, 0.0, 30.0), SimTime::ZERO);
        // Admit both without scheduling: process only the arrival events
        // (the tick at t = 0 pops first; stop before any dispatch ends).
        for _ in 0..3 {
            assert!(sim.step());
        }
        let drained = sim.drain_queued_fresh();
        // Whatever was dispatched by the t = 0 tick stays; the rest leaves
        // untouched with full step budgets.
        assert!(drained.iter().all(|s| s.total_steps == 50));
        let load = sim.load(sim.now());
        assert_eq!(load.queued, 0, "no fresh queued work remains");
    }
}
