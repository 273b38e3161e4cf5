//! A warm TetriServe scheduling pass allocates nothing unless it emits
//! plans, and then only the plan list it returns; a warm single-request
//! engine dispatch allocates nothing but the trace's amortised growth; a
//! warm streamed arrival source allocates nothing but its burst coupler's
//! amortised timeline growth; and a rebalancer tick that finds nothing at
//! risk allocates nothing.
//!
//! The serving loop calls `Policy::schedule` at every round boundary and
//! on every arrival and dispatch completion, and most of those passes
//! return no plan; every plan it does emit becomes one `Engine::submit`.
//! This binary installs a counting global allocator that counts per thread
//! (the test harness runs tests on parallel threads) and checks, after one
//! warm-up pass or dispatch has sized the buffers, that such passes make
//! no heap allocation at all, that a one-plan pass allocates exactly its
//! returned `Vec` (the plan holds its lone request inline), and that
//! dispatches allocate only when the trace grows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tetriserve::core::{
    DispatchPlan, Policy, RequestSpec, RequestTracker, SchedContext, TetriServePolicy,
};
use tetriserve::costmodel::{ClusterSpec, CostTable, DitModel, Profiler, Resolution, StageProfile};
use tetriserve::fleet::{
    ArrivalSource, EdfRebalancer, FleetOracle, MigrationCandidate, Rebalancer,
};
use tetriserve::simulator::engine::{Engine, EngineConfig, StepDispatch};
use tetriserve::simulator::failure::FailurePlan;
use tetriserve::simulator::gpuset::{GpuId, GpuSet};
use tetriserve::simulator::time::{SimDuration, SimTime};
use tetriserve::simulator::trace::{Batch, RequestId, TenantId, TraceEvent};
use tetriserve::traffic::{
    ArrivalShape, CouplingSpec, PriorityTier, StreamingArrivals, TenantSpec, TrafficModel,
};
use tetriserve::workload::ResolutionMix;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to [`System`], counting `alloc`, `alloc_zeroed` and `realloc`
/// calls made by the current thread.
struct PerThreadCounter;

fn note_allocation() {
    // `try_with`: a thread being torn down may still free or allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter has no effect on memory.
unsafe impl GlobalAlloc for PerThreadCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: PerThreadCounter = PerThreadCounter;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn costs() -> CostTable {
    Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic()
}

fn admit(tracker: &mut RequestTracker, id: u64, res: Resolution, arrival: SimTime, slo_s: f64) {
    tracker.admit(RequestSpec {
        tenant: TenantId::UNTAGGED,
        id: RequestId(id),
        resolution: res,
        arrival,
        deadline: arrival + SimDuration::from_secs_f64(slo_s),
        total_steps: 50,
        stages: StageProfile::FLAT,
    });
}

/// Runs one warm-up pass and then one measured pass on the same snapshot,
/// returning the measured pass's plans and heap allocations.
fn measured_pass(
    policy: &mut TetriServePolicy,
    tracker: &RequestTracker,
    costs: &CostTable,
    now: SimTime,
    free: GpuSet,
) -> (Vec<DispatchPlan>, u64) {
    let failures = FailurePlan::none();
    let ctx = SchedContext {
        now,
        free,
        healthy: GpuSet::first_n(8),
        n_gpus: 8,
        tracker,
        costs,
        failures: &failures,
    };
    let warm_up = policy.schedule(&ctx);
    let before = allocations();
    let plans = policy.schedule(&ctx);
    let made = allocations() - before;
    assert_eq!(plans, warm_up, "the same snapshot plans the same way twice");
    (plans, made)
}

/// A tracker with a mixed backlog that arrived at t = 0.
fn mixed_backlog() -> RequestTracker {
    let mut tracker = RequestTracker::new();
    admit(&mut tracker, 1, Resolution::R2048, SimTime::ZERO, 5.0);
    admit(&mut tracker, 2, Resolution::R1024, SimTime::ZERO, 3.0);
    admit(&mut tracker, 3, Resolution::R256, SimTime::ZERO, 1.5);
    tracker
}

#[test]
fn all_gpus_busy_pass_allocates_nothing() {
    let c = costs();
    let mut policy = TetriServePolicy::with_defaults(&c);
    let tracker = mixed_backlog();
    let (plans, made) = measured_pass(&mut policy, &tracker, &c, SimTime::ZERO, GpuSet::EMPTY);
    assert!(plans.is_empty());
    assert_eq!(made, 0, "a pass with every GPU busy allocated");
}

#[test]
fn nothing_schedulable_pass_allocates_nothing() {
    let c = costs();
    let mut policy = TetriServePolicy::with_defaults(&c);
    let mut tracker = mixed_backlog();
    // Every tracked request is either running or has not arrived yet.
    for id in 1..=3 {
        tracker.start_dispatch(
            RequestId(id),
            GpuSet::single(GpuId(id as usize - 1)),
            5,
            0.0,
        );
    }
    admit(
        &mut tracker,
        4,
        Resolution::R512,
        SimTime::from_secs_f64(9.0),
        2.0,
    );
    let free = GpuSet::first_n(8).difference(GpuSet::first_n(3));
    let (plans, made) = measured_pass(&mut policy, &tracker, &c, SimTime::ZERO, free);
    assert!(plans.is_empty());
    assert_eq!(made, 0, "a pass with nothing schedulable allocated");
}

#[test]
fn mid_round_sliver_pass_allocates_nothing() {
    // With a millisecond of the round left no step fits, so the backfill
    // pass builds and packs option sets for the whole backlog and still
    // returns no plan.
    let c = costs();
    let mut policy = TetriServePolicy::with_defaults(&c);
    let sliver = SimTime::ZERO + policy.tau() * 3 - SimDuration::from_millis(1);
    let mut tracker = RequestTracker::new();
    admit(&mut tracker, 1, Resolution::R2048, sliver, 5.0);
    admit(&mut tracker, 2, Resolution::R1024, sliver, 4.0);
    admit(&mut tracker, 3, Resolution::R512, sliver, 8.0);
    let (plans, made) = measured_pass(&mut policy, &tracker, &c, sliver, GpuSet::first_n(8));
    assert!(plans.is_empty(), "{plans:?}");
    assert_eq!(made, 0, "a mid-round sliver pass allocated");
}

#[test]
fn plan_emitting_pass_allocates_only_its_output() {
    // Pinned: the returned plan list. The plan's lone request is held
    // inline, and the assignments it was converted from live in a buffer
    // the policy reuses.
    let c = costs();
    let mut policy = TetriServePolicy::with_defaults(&c);
    let mut tracker = RequestTracker::new();
    admit(&mut tracker, 1, Resolution::R2048, SimTime::ZERO, 5.0);
    let (plans, made) = measured_pass(&mut policy, &tracker, &c, SimTime::ZERO, GpuSet::first_n(8));
    assert_eq!(plans.len(), 1);
    assert_eq!(plans[0].degree(), 8);
    assert_eq!(made, 1, "{plans:?}");
}

#[test]
fn warm_engine_submit_allocates_only_trace_growth() {
    // One request stepping on all 8 GPUs, one step per dispatch. Its
    // `DispatchStart` record holds the lone request inline, and the
    // engine keeps no per-request state, so the only allocations are the
    // trace's own growth by doubling, a handful of times over the run.
    const SUBMITS: u64 = 64;
    let c = costs();
    let mut engine = Engine::new(c.cluster().topology(), EngineConfig::default());
    let mut dispatch = StepDispatch {
        requests: Batch::one(RequestId(1)),
        gpus: GpuSet::first_n(8),
        steps: 1,
        per_step: c.step_time(Resolution::R1024, 8, 1),
        latent_bytes: c.model().latent_bytes(Resolution::R1024),
        members: Default::default(),
    };
    let mut at = engine
        .submit(SimTime::ZERO, &dispatch)
        .expect("warm-up dispatch")
        .gpus_free_at;
    // Every later dispatch finds the latent where the last one left it.
    dispatch.members[0].last_gpus = Some(dispatch.gpus);
    let before = allocations();
    for _ in 0..SUBMITS {
        at = engine.submit(at, &dispatch).expect("dispatch").gpus_free_at;
    }
    let made = allocations() - before;
    assert!(made <= 8, "{made} allocations over {SUBMITS} warm submits");
}

#[test]
fn warm_streamed_arrivals_allocate_only_coupler_growth() {
    // Five tenants shaped like the `tenants-video` benchmark workload: a
    // Poisson tenant, an MMPP tenant on the skewed mix, two tenants on one
    // shared burst coupler, and an 8-frame video tenant. A generated
    // request carries no prompt embedding, so the only allocations left
    // are the coupler's knot timeline growing by doubling, a handful of
    // times per 10,000 pulls.
    const PULLS: usize = 10_000;
    let model = TrafficModel::new(vec![
        TenantSpec::new("interactive", 9.0, 1).with_tier(PriorityTier::Interactive),
        TenantSpec::new("batch", 5.0, 2)
            .with_shape(ArrivalShape::Bursty {
                mean_rate_per_min: 5.0,
            })
            .with_mix(ResolutionMix::skewed())
            .with_tier(PriorityTier::Batch),
        TenantSpec::new("flash-a", 4.0, 3).coupled(),
        TenantSpec::new("flash-b", 4.0, 4).coupled(),
        TenantSpec::new("video", 1.5, 5)
            .with_mix(ResolutionMix::weighted(
                "Clip",
                [(Resolution::R256, 1.0), (Resolution::R512, 1.0)],
            ))
            .video(8),
    ])
    .with_coupling(CouplingSpec::standard(6));
    let mut source = StreamingArrivals::new(model.online(1_000 + PULLS), 50);
    for _ in 0..1_000 {
        source.next_spec().expect("warm-up spec");
    }
    let before = allocations();
    for _ in 0..PULLS {
        source.peek_time().expect("peek");
        source.next_spec().expect("spec");
    }
    let made = allocations() - before;
    assert!(made <= 8, "{made} allocations over {PULLS} streamed specs");
}

/// A three-cluster fleet with queued work but nothing at risk: the state
/// of almost every planning tick.
struct NothingAtRisk;

impl FleetOracle for NothingAtRisk {
    fn clusters(&self) -> usize {
        3
    }
    fn up(&self, _: usize) -> bool {
        true
    }
    fn pressure(&self, i: usize) -> f64 {
        i as f64
    }
    fn queued_movable(&self, _: usize) -> Vec<MigrationCandidate> {
        Vec::new()
    }
    fn at_risk(&self, _: usize) -> Vec<RequestId> {
        Vec::new()
    }
    fn candidate_feasible_on(&self, _: usize, _: &MigrationCandidate, _: f64) -> bool {
        true
    }
    fn candidate_demand_on(&self, _: usize, _: &MigrationCandidate) -> f64 {
        0.0
    }
}

#[test]
fn empty_planning_tick_allocates_nothing() {
    // Most planning ticks find no cluster at risk; such a tick returns an
    // empty plan without building a target list.
    let mut rebalancer = EdfRebalancer::new();
    let before = allocations();
    let plan = rebalancer.plan(SimTime::from_millis(7_000), &NothingAtRisk);
    let made = allocations() - before;
    assert!(plan.is_empty());
    assert_eq!(made, 0, "an empty planning tick allocated");
}

#[test]
fn trace_records_stay_within_a_cache_line() {
    // A `DispatchStart` record holds its request list as a 16-byte batch
    // (one request inline, more boxed), not a 24-byte `Vec`.
    assert!(std::mem::size_of::<TraceEvent>() <= 64);
}
