//! Graceful-degradation tests: inject a straggler GPU mid-run and verify
//! the serving stack keeps functioning — every request still completes,
//! determinism is preserved, and TetriServe's adaptivity limits the damage
//! relative to a static policy.

use tetriserve::baselines::FixedSpPolicy;
use tetriserve::core::{Policy, RequestSpec, ServeReport, Server, TetriServePolicy};
use tetriserve::costmodel::{ClusterSpec, CostTable, DitModel, Profiler};
use tetriserve::simulator::failure::{FailurePlan, GpuFault, PerfFault};
use tetriserve::simulator::gpuset::GpuId;
use tetriserve::simulator::time::SimTime;
use tetriserve::workload::{PoissonProcess, PromptLibrary, ResolutionMix, SloPolicy, TraceGen};
use tetriserve_simulator::trace::{RequestId, TenantId};

fn costs() -> CostTable {
    Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic()
}

fn workload(n: usize, slo_scale: f64) -> Vec<RequestSpec> {
    let mut gen = TraceGen::new(
        PoissonProcess::new(12.0),
        ResolutionMix::uniform(),
        SloPolicy::paper_targets().scaled(slo_scale),
        PromptLibrary::diffusiondb_like(99),
        99,
    );
    gen.generate(n)
        .into_iter()
        .map(|r| RequestSpec {
            tenant: TenantId::UNTAGGED,
            id: RequestId(r.id),
            resolution: r.resolution,
            arrival: SimTime::from_secs_f64(r.arrival_s),
            deadline: SimTime::from_secs_f64(r.deadline_s),
            total_steps: 50,
            stages: tetriserve::costmodel::StageProfile::FLAT,
        })
        .collect()
}

/// One GPU at 3× slowdown for the first ten minutes.
fn throttled_plan() -> FailurePlan {
    FailurePlan::none().with_perf_fault(PerfFault::straggler(
        GpuId(5),
        3.0,
        SimTime::ZERO,
        SimTime::from_secs_f64(600.0),
    ))
}

fn serve_with_failures<P: Policy>(policy: P, plan: FailurePlan, n: usize) -> ServeReport {
    let mut server = Server::new(costs(), policy);
    server.config_mut().engine.failures = plan;
    server.run(workload(n, 1.5))
}

#[test]
fn all_requests_complete_despite_the_straggler() {
    let c = costs();
    let report = serve_with_failures(TetriServePolicy::with_defaults(&c), throttled_plan(), 80);
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
fn straggler_costs_some_attainment_but_not_collapse() {
    let c = costs();
    let healthy = serve_with_failures(
        TetriServePolicy::with_defaults(&c),
        FailurePlan::none(),
        100,
    );
    let degraded = serve_with_failures(TetriServePolicy::with_defaults(&c), throttled_plan(), 100);
    assert!(degraded.sar() <= healthy.sar() + 1e-9);
    assert!(
        degraded.sar() > healthy.sar() * 0.6,
        "one slow GPU of eight must not collapse SAR: healthy {} degraded {}",
        healthy.sar(),
        degraded.sar()
    );
}

#[test]
fn wide_static_policies_expose_more_surface_to_the_straggler() {
    // Fixed SP=8 puts every dispatch on the throttled GPU; TetriServe's
    // narrow allocations often avoid it entirely.
    let c = costs();
    let tetri = serve_with_failures(TetriServePolicy::with_defaults(&c), throttled_plan(), 100);
    let sp8 = serve_with_failures(FixedSpPolicy::new(8), throttled_plan(), 100);
    assert!(
        tetri.sar() >= sp8.sar(),
        "tetri {} vs sp8 {}",
        tetri.sar(),
        sp8.sar()
    );
}

#[test]
fn failure_runs_are_deterministic() {
    let c = costs();
    let a = serve_with_failures(TetriServePolicy::with_defaults(&c), throttled_plan(), 60);
    let b = serve_with_failures(TetriServePolicy::with_defaults(&c), throttled_plan(), 60);
    let ca: Vec<_> = a.outcomes.iter().map(|o| o.completion).collect();
    let cb: Vec<_> = b.outcomes.iter().map(|o| o.completion).collect();
    assert_eq!(ca, cb);
}

// ---------------------------------------------------------------------------
// Hard GPU faults: crashes, permanent loss, flapping, and determinism.
// ---------------------------------------------------------------------------

/// GPU 2 crashes inside the busy period (arrivals ramp up around t ≈ 9 s
/// at this arrival rate) and recovers ten seconds later.
fn crash_plan() -> FailurePlan {
    FailurePlan::none().with_fault(GpuFault::transient(
        GpuId(2),
        SimTime::from_secs_f64(10.0),
        SimTime::from_secs_f64(20.0),
    ))
}

#[test]
fn mid_run_crash_loses_no_requests() {
    let c = costs();
    let report = serve_with_failures(TetriServePolicy::with_defaults(&c), crash_plan(), 60);
    // The fault lands inside the busy period, so some dispatch must abort…
    assert!(report.aborted_dispatches > 0, "fault did not bite");
    assert!(report.wasted_gpu_seconds > 0.0);
    // …yet every request still finishes its full schedule: aborted work
    // re-enters the next round with its checkpointed steps preserved.
    assert!(
        report
            .outcomes
            .iter()
            .all(|o| o.completion.is_some() && o.steps_executed == 50),
        "{:#?}",
        report
            .outcomes
            .iter()
            .filter(|o| o.completion.is_none())
            .collect::<Vec<_>>()
    );
}

#[test]
fn permanent_loss_serves_on_the_surviving_gpus() {
    use tetriserve::simulator::trace::TraceEvent;
    let c = costs();
    let plan =
        FailurePlan::none().with_fault(GpuFault::permanent(GpuId(6), SimTime::from_secs_f64(12.0)));
    let report = serve_with_failures(TetriServePolicy::with_defaults(&c), plan, 60);
    assert!(
        report
            .outcomes
            .iter()
            .all(|o| o.completion.is_some() && o.steps_executed == 50),
        "permanent single-GPU loss must not strand requests"
    );
    // After the fault instant no dispatch ever touches the dead GPU.
    let dead = tetriserve::simulator::gpuset::GpuSet::single(GpuId(6));
    for e in report.trace.events() {
        if let TraceEvent::DispatchStart { time, gpus, .. } = e {
            if *time >= SimTime::from_secs_f64(12.0) {
                assert!(gpus.is_disjoint(dead), "dispatch at {time:?} uses dead GPU");
            }
        }
    }
}

#[test]
fn flapping_gpu_is_survivable_and_bounded_by_the_retry_budget() {
    let c = costs();
    // GPU 0 flaps every two seconds across the busy period.
    let mut plan = FailurePlan::none();
    for k in 0..60u64 {
        let t0 = 2.0 * k as f64 + 9.0;
        plan = plan.with_fault(GpuFault::transient(
            GpuId(0),
            SimTime::from_secs_f64(t0),
            SimTime::from_secs_f64(t0 + 0.5),
        ));
    }
    let report = serve_with_failures(TetriServePolicy::with_defaults(&c), plan, 60);
    // Every outcome either completed or exhausted its retry budget — the
    // flapping GPU can burn at most (max_retries + 1) attempts per request.
    for o in &report.outcomes {
        assert!(
            o.completion.is_some() || o.retries >= 1,
            "incomplete without any abort: {o:?}"
        );
        assert!(o.retries <= 4, "retry budget exceeded: {o:?}");
    }
    // The vast majority still completes: one flapping GPU of eight is an
    // annoyance, not an outage.
    let done = report
        .outcomes
        .iter()
        .filter(|o| o.completion.is_some())
        .count();
    assert!(
        done * 10 >= report.outcomes.len() * 9,
        "only {done}/{} completed",
        report.outcomes.len()
    );
}

#[test]
fn hard_fault_runs_are_deterministic() {
    let c = costs();
    let a = serve_with_failures(TetriServePolicy::with_defaults(&c), crash_plan(), 60);
    let b = serve_with_failures(TetriServePolicy::with_defaults(&c), crash_plan(), 60);
    let ca: Vec<_> = a
        .outcomes
        .iter()
        .map(|o| (o.completion, o.retries, o.gpu_seconds.to_bits()))
        .collect();
    let cb: Vec<_> = b
        .outcomes
        .iter()
        .map(|o| (o.completion, o.retries, o.gpu_seconds.to_bits()))
        .collect();
    assert_eq!(ca, cb);
    assert_eq!(a.aborted_dispatches, b.aborted_dispatches);
    assert_eq!(
        a.wasted_gpu_seconds.to_bits(),
        b.wasted_gpu_seconds.to_bits(),
        "wasted-GPU-seconds must be bit-for-bit reproducible"
    );
}

#[test]
fn fault_traces_still_audit_clean() {
    use tetriserve::core::audit::audit;
    let c = costs();
    let report = serve_with_failures(TetriServePolicy::with_defaults(&c), crash_plan(), 60);
    let violations = audit(&report.trace, &report.outcomes);
    assert!(violations.is_empty(), "{violations:#?}");
}
