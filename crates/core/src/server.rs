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

use std::cell::Cell;

use tetriserve_costmodel::steptime::PlacedStepTimes;
use tetriserve_costmodel::CostTable;
use tetriserve_simulator::engine::{Engine, EngineConfig, Member, StepDispatch, MAX_BATCH};
use tetriserve_simulator::event::EventQueue;
use tetriserve_simulator::gpuset::GpuSet;
use tetriserve_simulator::time::{SimDuration, SimTime};
use tetriserve_simulator::topology::Topology;
use tetriserve_simulator::trace::{Batch, RequestId, Trace, TraceEvent};

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
    /// How GPUs are assigned to pipeline stages. Under
    /// [`PoolLayout::Unified`] (the default) the denoise packer owns every
    /// GPU, and encodes and decodes queue on one virtual slot each that
    /// holds no GPU. [`PoolLayout::Disaggregated`] carves dedicated
    /// encode and decode GPUs out of the cluster, one slot per GPU, and
    /// the packer plans over the rest. The layout sizes the pools and
    /// nothing else: every decode queues when its request's denoise ends.
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
    /// Busy-seconds accumulated on the VAE-decode pool, under either
    /// layout (the unified layout's decode slot holds no GPU, so
    /// `pool_utilization` reports no utilisation for it).
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
    /// serving makespan. Unlike SAR this rewards completing *more* work in
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
        requests: Batch,
    },
    DispatchAborted {
        gpus: GpuSet,
        requests: Batch,
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
    /// Per-slot `free_at` times of the condition-encode pool: one virtual
    /// slot that holds no GPU under the unified layout, so encodes
    /// serialise on it.
    encode_pool: Vec<SimTime>,
    /// Per-slot `free_at` times of the VAE-decode pool: one virtual slot
    /// that holds no GPU under the unified layout, like the encode pool.
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
    /// Each dispatch's placed per-step time, priced once per shape.
    step_times: PlacedStepTimes,
    /// The denoise pool's last effective capacity read from the failure
    /// plan, with the fault-timeline interval `[from, until)` it holds
    /// over: `(from, until, capacity)`. Route views and at-risk probes
    /// reuse it while their instant stays inside; a `Cell` because they
    /// take `&self`.
    capacity: Cell<(SimTime, SimTime, f64)>,
}

impl<P: Policy> ClusterSim<P> {
    /// Creates a cluster simulation. Health transitions from the statically
    /// known failure plan are queued immediately, before any arrival, so
    /// that on timestamp ties the health view updates before any scheduling
    /// pass runs.
    ///
    /// # Panics
    ///
    /// Panics if the cost table profiles batches wider than the engine's
    /// inline [`MAX_BATCH`].
    pub fn new(costs: CostTable, policy: P, config: ServerConfig) -> Self {
        assert!(
            costs.max_batch() as usize <= MAX_BATCH,
            "cost table profiles batches of {}, more than a dispatch holds ({MAX_BATCH})",
            costs.max_batch()
        );
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
        let step_times = PlacedStepTimes::new(&costs);
        ClusterSim {
            costs,
            policy,
            config,
            topology,
            denoise_gpus,
            // The unified layout has no stage GPUs, so each stage pool is
            // one virtual slot its work serialises on.
            encode_pool: vec![SimTime::ZERO; encode_slots.max(1)],
            decode_pool: vec![SimTime::ZERO; decode_slots.max(1)],
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
            step_times,
            // An empty interval: the first query reads the plan.
            capacity: Cell::new((SimTime::MAX, SimTime::ZERO, 0.0)),
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
    ///
    /// Read from the failure plan once per fault state: the answer is
    /// reused for any instant inside the timeline interval it holds over.
    pub fn effective_capacity_at(&self, at: SimTime) -> f64 {
        let (from, until, capacity) = self.capacity.get();
        if from <= at && at < until {
            return capacity;
        }
        // `effective_capacity_during` counts only the members up at `at`.
        let (capacity, held) = self
            .engine
            .failures()
            .effective_capacity_during(GpuSet::first_n(self.denoise_gpus), at);
        self.capacity.set((held.start, held.end, capacity));
        capacity
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

    /// Reserves request `id`'s VAE decode of `duration` on the
    /// earliest-free decode slot, starting no earlier than `now`, and
    /// queues the request's completion for when the decode ends. Every
    /// decode goes through here, when its denoise ends; the denoise gang
    /// is already free.
    fn reserve_decode(&mut self, id: RequestId, now: SimTime, duration: SimDuration) {
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
            let Some(r) = self.tracker.get(id).filter(|r| r.remaining_steps == 0) else {
                continue;
            };
            // The denoise stage is over: the latent takes a decode slot
            // now, in member order, at the request's own frame count.
            let (res, frames) = (r.spec.resolution, r.spec.stages.frames);
            self.tracker.note_denoise_done(id, now);
            self.reserve_decode(id, now, self.costs.decode_time(res, frames));
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
    /// placement-accurate per-step time (frame-scaled for video), charges
    /// the GPU-seconds, and queues the dispatch's end (done or aborted).
    ///
    /// # Panics
    ///
    /// Panics if the engine rejects the plan, which validation rules out.
    fn submit(&mut self, plan: DispatchPlan, now: SimTime) {
        // A plan with no requests (or one referencing an id the tracker no
        // longer holds) schedules nothing; skipping it leaves the work
        // queued for the rescue pass rather than panicking mid-round. The
        // first member's shape is the batch's: validation keeps one
        // resolution and one frame count per batch.
        let Some((resolution, frames)) = plan
            .requests
            .first()
            .and_then(|&id| self.tracker.get(id))
            .map(|r| (r.spec.resolution, r.spec.stages.frames))
        else {
            return;
        };
        let batch = plan.batch();
        // The engine prices the dispatch with where each member's latent
        // lives.
        let mut members = [Member::default(); MAX_BATCH];
        for (&id, member) in plan.requests.iter().zip(&mut members) {
            let Some(r) = self.tracker.get(id) else {
                continue;
            };
            *member = Member {
                last_gpus: r.last_gpus,
                needs_recovery: r.needs_recovery,
            };
        }
        // Video requests denoise every frame (integer-exact, so image
        // dispatches are untouched).
        let per_step =
            self.step_times
                .get(&self.costs, &self.topology, resolution, plan.gpus, batch)
                * u64::from(frames);
        let dispatch = StepDispatch {
            requests: plan.requests,
            gpus: plan.gpus,
            steps: plan.steps,
            per_step,
            latent_bytes: self.costs.model().latent_bytes(resolution),
            members,
        };
        let outcome = self
            .engine
            .submit(now, &dispatch)
            .unwrap_or_else(|e| panic!("engine rejected a validated plan: {e}"));

        // Accounting: GPU-seconds split evenly across the batch.
        let span = outcome.gpus_free_at.saturating_since(now).as_secs_f64();
        let gpu_seconds = plan.gpus.len() as f64 * span / f64::from(batch);
        for &id in dispatch.requests.iter() {
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
        let specs = vec![
            spec(0, Resolution::R512, 0.0, 30.0),
            spec(1, Resolution::R1024, 0.1, 30.0),
            spec(2, Resolution::R2048, 0.2, 40.0),
        ];
        let report = serve_with(specs.clone(), |cfg| {
            // Without jitter every step takes exactly its cost-table time.
            cfg.engine.step_noise_cv = 0.0;
            cfg.engine.failures = cfg.engine.failures.clone().with_fault(GpuFault::transient(
                GpuId(3),
                SimTime::from_secs_f64(0.3),
                SimTime::from_secs_f64(5.0),
            ));
        });
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

        let costs = costs();
        let mut event_waste = 0.0;
        let mut checkpointed_abort = false;
        for e in report.trace.events() {
            let TraceEvent::DispatchStart {
                time,
                end,
                requests,
                gpus,
                down,
                steps,
                wasted_gpu_seconds,
            } = e
            else {
                continue;
            };
            event_waste += wasted_gpu_seconds;
            if down.is_empty() {
                assert_eq!(*wasted_gpu_seconds, 0.0, "a clean dispatch wastes nothing");
                continue;
            }
            if *steps == 0 {
                continue;
            }
            checkpointed_abort = true;
            // On h100x8 a step's time depends only on the resolution, the
            // degree and the batch, so the last checkpoint is exactly
            // `steps` cost-table steps after the start. Waste is the span
            // after it, over every member GPU — the recovered prefix is
            // excluded.
            let resolution = specs[requests[0].0 as usize].resolution;
            let per_step = costs.step_time(resolution, gpus.len(), requests.len() as u32);
            let checkpoint = *time + per_step * u64::from(*steps);
            let expected = gpus.len() as f64 * end.saturating_since(checkpoint).as_secs_f64();
            assert!(
                (wasted_gpu_seconds - expected).abs() < 1e-9,
                "waste {wasted_gpu_seconds} != tail {expected}"
            );
            let full_span = gpus.len() as f64 * end.saturating_since(*time).as_secs_f64();
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
            let executed: u32 = report
                .trace
                .events()
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::DispatchStart {
                        requests, steps, ..
                    } if requests.contains(&o.id) => Some(*steps),
                    _ => None,
                })
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(300))]

        /// The capacity a cluster reuses across one fault state is the
        /// failure plan's answer at every instant, `f64`s compared by
        /// bits: random hard faults and slowdowns on a 10 ms grid (so
        /// windows share endpoints), both pool layouts, instants asked in
        /// time order with every window endpoint ±1 µs, then again in the
        /// generated order (earlier and later states interleaved).
        #[test]
        fn prop_reused_capacity_is_the_failure_plans(
            perf in proptest::collection::vec(
                (0usize..8, 1.0f64..4.0, 0u64..30, 1u64..20, 0u32..3),
                0..=8,
            ),
            hard in proptest::collection::vec(
                (0usize..8, 0u64..30, 1u64..20, proptest::prelude::any::<bool>()),
                0..=8,
            ),
            instants in proptest::collection::vec(0u64..600_000, 1..40),
            disaggregated in proptest::prelude::any::<bool>(),
        ) {
            use tetriserve_simulator::failure::{FailurePlan, GpuFault, PerfFault};
            use tetriserve_simulator::gpuset::GpuId;

            let grid = |k: u64| SimTime::from_millis(10 * k);
            let mut plan = FailurePlan::none();
            let mut probes: Vec<SimTime> =
                instants.iter().map(|&us| SimTime::from_micros(us)).collect();
            for &(g, factor, start, len, kind) in &perf {
                let (from, until) = (grid(start), grid(start + len));
                plan = plan.with_perf_fault(match kind {
                    0 => PerfFault::straggler(GpuId(g), factor, from, until),
                    1 => PerfFault::throttle(GpuId(g), factor, from, until),
                    _ => PerfFault::brownout(GpuId(g), factor, from),
                });
                probes.extend([from, until]);
            }
            for &(g, start, len, permanent) in &hard {
                let (from, until) = (grid(start), grid(start + len));
                plan = plan.with_fault(if permanent {
                    GpuFault::permanent(GpuId(g), from)
                } else {
                    GpuFault::transient(GpuId(g), from, until)
                });
                probes.extend([from, until]);
            }
            let tick = SimDuration::from_micros(1);
            let mut in_order: Vec<SimTime> =
                probes.iter().flat_map(|&t| [t - tick, t, t + tick]).collect();
            in_order.sort_unstable();
            let mut config = ServerConfig::default();
            config.engine.failures = plan.clone();
            if disaggregated {
                config.pool = PoolLayout::disaggregated_default();
            }
            let c = costs();
            let policy = TetriServePolicy::with_defaults(&c);
            let sim = ClusterSim::new(c, policy, config);
            let denoise = GpuSet::first_n(sim.denoise_gpus);
            let generated = instants.iter().map(|&us| SimTime::from_micros(us));
            for t in in_order.into_iter().chain(generated) {
                proptest::prop_assert_eq!(
                    sim.effective_capacity_at(t).to_bits(),
                    plan.effective_capacity(denoise, t).to_bits(),
                    "at {}", t
                );
            }
        }
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

        // Find, per aborted request, the abort time; then any dispatch
        // started after it.
        let mut starts: Vec<(SimTime, &Batch)> = Vec::new();
        let mut aborted: std::collections::BTreeMap<RequestId, SimTime> =
            std::collections::BTreeMap::new();
        for e in report.trace.events() {
            if let TraceEvent::DispatchStart {
                time,
                end,
                requests,
                down,
                ..
            } = e
            {
                starts.push((*time, requests));
                if !down.is_empty() {
                    aborted.extend(requests.iter().map(|&id| (id, *end)));
                }
            }
        }
        assert!(!aborted.is_empty());
        for (&id, &abort_time) in &aborted {
            assert!(
                !starts
                    .iter()
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

    /// Submits a fixed list of plans, in order, each as soon as all its
    /// requests are schedulable and its GPU set is free, so a test chooses
    /// exactly how requests are batched and where they run.
    struct Scripted(std::collections::VecDeque<DispatchPlan>);

    impl Policy for Scripted {
        fn name(&self) -> String {
            "scripted".to_owned()
        }

        fn reacts_to(&self, _: PolicyEvent) -> bool {
            true
        }

        fn next_tick(&self, _: SimTime) -> Option<SimTime> {
            None
        }

        fn schedule(&mut self, ctx: &SchedContext<'_>) -> Vec<DispatchPlan> {
            let Some(plan) = self.0.front() else {
                return Vec::new();
            };
            let ready = plan.requests.iter().all(|&id| {
                ctx.tracker
                    .get(id)
                    .is_some_and(|r| r.is_schedulable(ctx.now))
            });
            if !ready || !ctx.free.is_superset_of(plan.gpus) {
                return Vec::new();
            }
            self.0.pop_front().into_iter().collect()
        }
    }

    /// A plan running `steps` steps of the requests `ids`, batched in
    /// that member order, on `gpus`.
    fn plan(ids: &[u64], gpus: GpuSet, steps: u32) -> DispatchPlan {
        DispatchPlan {
            requests: ids.iter().map(|&id| RequestId(id)).collect(),
            gpus,
            steps,
        }
    }

    /// Serves `specs` along the scripted `plans` to the end.
    fn scripted(
        specs: &[RequestSpec],
        plans: Vec<DispatchPlan>,
        config: ServerConfig,
    ) -> ClusterSim<Scripted> {
        let mut sim = ClusterSim::new(costs(), Scripted(plans.into()), config);
        for &s in specs {
            sim.push_arrival(s, s.arrival);
        }
        sim.start();
        while sim.step() {}
        sim
    }

    /// Serves one fresh 50-step request of `res` along `script` and returns
    /// the report: the dispatches' `(submitted, started, ended)` times in
    /// order, and the request's latent transfers as `(time, duration)`.
    #[allow(clippy::type_complexity)]
    fn scripted_run(
        res: Resolution,
        script: &[(GpuSet, u32)],
        config: ServerConfig,
    ) -> (
        ClusterSim<Scripted>,
        Vec<(SimTime, SimTime)>,
        Vec<(SimTime, SimDuration)>,
    ) {
        let plans = script
            .iter()
            .map(|&(gpus, steps)| plan(&[0], gpus, steps))
            .collect();
        let sim = scripted(&[spec(0, res, 0.0, 60.0)], plans, config);
        let mut spans = Vec::new();
        let mut transfers = Vec::new();
        for e in sim.engine.trace().events() {
            match *e {
                TraceEvent::DispatchStart { time, end, .. } => spans.push((time, end)),
                TraceEvent::LatentTransfer {
                    time,
                    request,
                    duration,
                    ..
                } => {
                    assert_eq!(request, RequestId(0));
                    transfers.push((time, duration));
                }
                TraceEvent::MigrationOut { .. } => {}
            }
        }
        (sim, spans, transfers)
    }

    #[test]
    fn moved_request_pays_one_remap_stall_and_one_latent_transfer() {
        // Twice on {0,1}, then on {4..8}: only the move is charged, with
        // the engine's 15 ms remap stall (the NVLink latent transfer it
        // overlaps is far shorter) and one `LatentTransfer` record.
        let pair = GpuSet::contiguous(0, 2);
        let script = [(pair, 2), (pair, 2), (GpuSet::contiguous(4, 4), 2)];
        let (_, spans, transfers) =
            scripted_run(Resolution::R256, &script, ServerConfig::default());
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].0, SimTime::ZERO, "aligned blocks are pre-warmed");
        assert_eq!(spans[1].0, spans[0].1, "staying put costs nothing");
        assert_eq!(spans[2].0, spans[1].1 + SimDuration::from_millis(15));
        assert_eq!(transfers.len(), 1, "{transfers:?}");
        assert_eq!(
            transfers[0].0, spans[1].1,
            "charged when the move is submitted"
        );
        assert!(transfers[0].1 < SimDuration::from_millis(15));
    }

    #[test]
    fn aborted_request_pays_host_recovery_exactly_once() {
        use tetriserve_simulator::failure::{FailurePlan, GpuFault};
        use tetriserve_simulator::gpuset::GpuId;
        use tetriserve_simulator::latent::transfer_time;
        // GPU 1 dies 50 ms into the first dispatch: the retry on {4,5}
        // re-materialises the latent from the host checkpoint (25 GB/s)
        // before its first step, and the dispatch after it pays nothing.
        let mut config = ServerConfig::default();
        config.engine.failures = FailurePlan::none().with_fault(GpuFault::transient(
            GpuId(1),
            SimTime::from_millis(50),
            SimTime::from_secs_f64(30.0),
        ));
        let (res, pair) = (Resolution::R1024, GpuSet::contiguous(4, 2));
        let script = [(GpuSet::contiguous(0, 2), 5), (pair, 2), (pair, 2)];
        let (sim, spans, transfers) = scripted_run(res, &script, config);
        assert_eq!(sim.engine.trace().aborted_count(), 1);
        assert_eq!(spans[0].1, SimTime::from_millis(50), "aborted at the fault");
        let recovery = transfer_time(costs().model().latent_bytes(res), 25.0);
        assert_eq!(transfers, vec![(spans[0].1, recovery)]);
        assert_eq!(spans[1].0, spans[0].1 + recovery);
        assert_eq!(spans[2].0, spans[1].1, "recovered once, then resident");
    }

    #[test]
    fn finished_request_keeps_no_placement() {
        // A decode on the GPU-less slot (unified) or on a decode GPU
        // (disaggregated): once the request completes, nothing on the
        // cluster remembers where it ran.
        for pool in [PoolLayout::Unified, PoolLayout::disaggregated_default()] {
            let config = ServerConfig {
                pool,
                ..ServerConfig::default()
            };
            let script = [
                (GpuSet::contiguous(0, 2), 30),
                (GpuSet::contiguous(0, 2), 20),
            ];
            let (sim, spans, transfers) = scripted_run(Resolution::R512, &script, config);
            assert_eq!(spans.len(), 2);
            assert!(transfers.is_empty());
            assert!(sim.tracker.get(RequestId(0)).is_none(), "{pool:?}");
            assert!(sim.tracker.is_empty());
            let report = sim.finish();
            assert_eq!(report.outcomes[0].steps_executed, 50);
            assert!(report.outcomes[0].completion.is_some());
        }
    }

    /// A 50-step request of `res` arriving at zero with `steps` denoise
    /// steps and `frames` output frames (no encode stage).
    fn clip(id: u64, res: Resolution, steps: u32, frames: u32) -> RequestSpec {
        RequestSpec {
            total_steps: steps,
            stages: StageProfile {
                encode: false,
                frames,
            },
            ..spec(id, res, 0.0, 600.0)
        }
    }

    /// Each outcome's `(denoise done, completion)`, in request-id order.
    fn decode_spans<P: Policy>(sim: ClusterSim<P>) -> Vec<(SimTime, SimTime)> {
        let report = sim.finish();
        report
            .outcomes
            .iter()
            .map(|o| {
                let done = o.denoise_done.expect("denoised");
                (done, o.completion.expect("completed"))
            })
            .collect()
    }

    #[test]
    fn unified_batch_decodes_one_after_another_in_member_order() {
        // Both members finish on the same dispatch; the one batched first
        // decodes first, the other a full decode later.
        let res = Resolution::R512;
        let specs = [clip(0, res, 50, 1), clip(1, res, 50, 1)];
        let sim = scripted(
            &specs,
            vec![plan(&[1, 0], GpuSet::contiguous(0, 2), 50)],
            ServerConfig::default(),
        );
        let d = costs().decode_time(res, 1);
        let spans = decode_spans(sim);
        let free = spans[0].0;
        assert_eq!(spans[1], (free, free + d));
        assert_eq!(spans[0], (free, free + d + d));
    }

    #[test]
    fn decodes_queue_in_completion_order_on_both_layouts() {
        // Request 0's dispatch is submitted first; the batch of two
        // 8-frame clips is submitted second and frees its GPUs first. On
        // either layout each member decodes from its own denoise end, in
        // member order, at its own frame count: on the one unified slot
        // the second clip waits for the first, on the two decode GPUs
        // both run at once, and request 0 finds a free slot either way.
        let res = Resolution::R256;
        let specs = [clip(0, res, 100, 1), clip(1, res, 5, 8), clip(2, res, 5, 8)];
        let c = costs();
        let (d1, d8) = (c.decode_time(res, 1), c.decode_time(res, 8));
        // The second clip's wait for a free slot.
        for (pool, wait) in [
            (PoolLayout::Unified, d8),
            (PoolLayout::disaggregated_default(), SimDuration::ZERO),
        ] {
            let plans = vec![
                plan(&[0], GpuSet::contiguous(0, 1), 100),
                plan(&[1, 2], GpuSet::contiguous(2, 2), 5),
            ];
            let config = ServerConfig {
                pool,
                ..ServerConfig::default()
            };
            let spans = decode_spans(scripted(&specs, plans, config));
            let free = spans[1].0;
            assert_eq!(spans[2].0, free, "one batch");
            assert_eq!(spans[1].1, free + d8, "{pool:?}");
            assert_eq!(spans[2].1, free + wait + d8, "{pool:?}");
            assert!(spans[2].1 < spans[0].0, "{pool:?}: {spans:?}");
            assert_eq!(spans[0].1, spans[0].0 + d1, "{pool:?}");
        }
    }

    #[test]
    fn aborted_dispatch_queues_no_decode() {
        use tetriserve_simulator::failure::{FailurePlan, GpuFault};
        use tetriserve_simulator::gpuset::GpuId;
        // GPU 1 dies mid-way through the request's only dispatch, which
        // would have finished it; with no retry budget it fails, and no
        // decode was reserved or completed for it.
        for pool in [PoolLayout::Unified, PoolLayout::disaggregated_default()] {
            let mut config = ServerConfig {
                pool,
                max_retries: 0,
                ..ServerConfig::default()
            };
            config.engine.failures = FailurePlan::none().with_fault(GpuFault::transient(
                GpuId(1),
                SimTime::from_millis(500),
                SimTime::from_secs_f64(30.0),
            ));
            let res = Resolution::R512;
            let sim = scripted(
                &[clip(0, res, 50, 1)],
                vec![plan(&[0], GpuSet::contiguous(0, 2), 50)],
                config,
            );
            assert!(
                sim.decode_pool.iter().all(|&free| free == SimTime::ZERO),
                "{pool:?}"
            );
            let report = sim.finish();
            assert_eq!(report.aborted_dispatches, 1, "{pool:?}");
            let o = &report.outcomes[0];
            assert_eq!((o.completion, o.denoise_done), (None, None), "{pool:?}");
        }
    }
}
