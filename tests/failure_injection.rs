//! Graceful-degradation tests: inject a straggler GPU mid-run and verify
//! the serving stack keeps functioning — every request still completes,
//! determinism is preserved, and TetriServe's adaptivity limits the damage
//! relative to a static policy. Seeded mixed fault schedules then serve
//! shed-only and with the degrade ladder under the run-level invariants,
//! and a pinned straggler scenario gates the ladder's SAR win.

use tetriserve::baselines::FixedSpPolicy;
use tetriserve::bench::{ArrivalKind, Experiment};
use tetriserve::core::{
    AdmissionPolicy, DegradePolicy, Policy, RequestSpec, ServeReport, Server, TetriServePolicy,
};
use tetriserve::costmodel::{ClusterSpec, CostTable, DitModel, Profiler, Resolution};
use tetriserve::simulator::digest::{fnv1a, SplitMix, FNV_OFFSET};
use tetriserve::simulator::failure::{FailurePlan, GpuFault, PerfFault};
use tetriserve::simulator::gpuset::GpuId;
use tetriserve::simulator::time::SimTime;
use tetriserve::traffic::to_spec;
use tetriserve::workload::{PoissonProcess, ResolutionMix, SloPolicy, TraceGen};
use tetriserve_simulator::trace::{RequestId, TenantId};

fn costs() -> CostTable {
    Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic()
}

fn workload(n: usize, slo_scale: f64) -> Vec<RequestSpec> {
    let mut gen = TraceGen::new(
        PoissonProcess::new(12.0),
        ResolutionMix::uniform(),
        SloPolicy::paper_targets().scaled(slo_scale),
        99,
    );
    gen.generate(n).iter().map(|r| to_spec(r, 50)).collect()
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

// ---------------------------------------------------------------------------
// Mixed hard + slowdown fault schedules, shed-only vs the degrade ladder.
// ---------------------------------------------------------------------------

/// Derives the mixed fault schedule for one seed. Deterministic in
/// `(seed, n_gpus, horizon_s)`; hard faults touch at most a quarter of
/// the node so the cluster always retains serving capacity.
fn chaos_plan(seed: u64, n_gpus: usize, horizon_s: f64) -> FailurePlan {
    let mut rng = SplitMix(seed ^ 0x00c4_a05f_a017_5eed);
    let mut plan = FailurePlan::none();
    let span = |r: u64, lo: f64, hi: f64| lo + (r & 0xffff) as f64 / 65535.0 * (hi - lo);

    // Hard faults: 1–2 distinct GPUs, mostly transient.
    let n_hard = 1 + (rng.next_u64() % 2) as usize;
    for i in 0..n_hard {
        let r = rng.next_u64();
        // Distinct by construction: hard faults stride the lower GPUs.
        let gpu = GpuId((r % (n_gpus as u64 / 2)) as usize / 2 + i * 2);
        let from = SimTime::from_secs_f64(span(r >> 16, 0.1, 0.5) * horizon_s);
        if r.is_multiple_of(4) {
            plan = plan.with_fault(GpuFault::permanent(gpu, from));
        } else {
            let width = span(r >> 32, 0.05, 0.3) * horizon_s;
            let up = SimTime::from_secs_f64(from.as_secs_f64() + width);
            plan = plan.with_fault(GpuFault::transient(gpu, from, up));
        }
    }

    // Slowdown faults: 2–4 draws across the three kinds, anywhere on the
    // node (they may overlap each other and the hard faults — the engine
    // takes the max slowdown, and a down GPU simply never dispatches).
    let n_perf = 2 + (rng.next_u64() % 3) as usize;
    for _ in 0..n_perf {
        let r = rng.next_u64();
        let gpu = GpuId((r % n_gpus as u64) as usize);
        let from = SimTime::from_secs_f64(span(r >> 8, 0.0, 0.6) * horizon_s);
        let width = span(r >> 24, 0.1, 0.4) * horizon_s;
        let until = SimTime::from_secs_f64(from.as_secs_f64() + width);
        plan = plan.with_perf_fault(match r % 3 {
            0 => PerfFault::straggler(gpu, span(r >> 40, 1.2, 2.5), from, until),
            1 => PerfFault::throttle(gpu, span(r >> 40, 1.5, 3.0), from, until),
            _ => PerfFault::brownout(gpu, span(r >> 40, 1.2, 1.8), from),
        });
    }
    plan
}

/// Serves `specs` under TetriServe with `ShedInfeasible` admission, the
/// fault `plan` and an optional degrade ladder.
fn serve_faulted(
    specs: Vec<RequestSpec>,
    plan: &FailurePlan,
    degrade: Option<DegradePolicy>,
) -> ServeReport {
    let c = costs();
    let mut server = Server::new(c.clone(), TetriServePolicy::with_defaults(&c));
    let cfg = server.config_mut();
    cfg.engine.failures = plan.clone();
    cfg.admission = AdmissionPolicy::ShedInfeasible;
    cfg.degrade = degrade;
    server.run(specs)
}

/// FNV-1a over per-request (id, completion µs or MAX, executed steps,
/// shed steps).
fn chaos_digest(report: &ServeReport) -> u64 {
    let mut d = FNV_OFFSET;
    for o in &report.outcomes {
        d = fnv1a(d, o.id.0);
        d = fnv1a(d, o.completion.map_or(u64::MAX, |t| t.as_micros()));
        d = fnv1a(d, u64::from(o.steps_executed));
        d = fnv1a(d, u64::from(o.steps_shed));
    }
    d
}

/// The invariants every serving run keeps, fault schedule or not: one
/// outcome per request, a clean audit, exact step accounting, no
/// completion below its quality floor, and goodput at most the offered
/// rate.
fn assert_serving_invariants(
    label: &str,
    report: &ServeReport,
    n_requests: usize,
    floors: Option<&DegradePolicy>,
) {
    assert_eq!(report.outcomes.len(), n_requests, "{label}: conservation");
    let violations = tetriserve::core::audit::audit(&report.trace, &report.outcomes);
    assert!(violations.is_empty(), "{label}: {violations:#?}");
    for o in &report.outcomes {
        let accounted = o.steps_executed + o.steps_shed;
        assert!(accounted <= 50, "{label}: {o:?} over-accounts steps");
        if o.completion.is_some() {
            assert_eq!(accounted, 50, "{label}: {o:?} under-accounts steps");
            if let Some(policy) = floors {
                assert!(
                    o.steps_executed >= policy.min_steps(o.resolution, 50),
                    "{label}: {o:?} pierced its quality floor"
                );
            }
        }
    }
    // Goodput and the offered rate divide by the same makespan, so this
    // reduces to met ≤ offered, checked in the published ratio form.
    let offered = report.outcomes.len() as f64 / report.makespan.as_secs_f64().max(f64::EPSILON);
    assert!(
        report.goodput() <= offered + 1e-9,
        "{label}: goodput {} exceeds offered {offered}",
        report.goodput()
    );
}

/// One seed's 40-request Poisson workload at 18 req/min and the mixed
/// fault schedule drawn over it.
fn seeded_schedule(seed: u64) -> (Vec<RequestSpec>, FailurePlan) {
    let exp = Experiment {
        n_requests: 40,
        rate_per_min: 18.0,
        arrival: ArrivalKind::Poisson,
        seed,
        ..Experiment::paper_default()
    };
    let specs = exp.to_specs(&exp.generate_requests());
    // The schedule spans the arrival window plus drain room.
    let horizon = specs
        .iter()
        .map(|s| s.deadline.as_secs_f64())
        .fold(0.0, f64::max);
    let plan = chaos_plan(seed, exp.cluster.topology().n_gpus(), horizon);
    (specs, plan)
}

#[test]
fn seeded_fault_schedules_keep_every_serving_invariant() {
    // Each seed draws one fault schedule over a 40-request Poisson
    // workload at 18 req/min, served shed-only, with the paper's degrade
    // classes, and once more with them to pin replay determinism.
    let pinned = [
        (0xc4a0_5001, 0x05f7_6b7d_c4ec_6b3a, 0xef72_2038_96b2_f75f),
        (0xc4a0_5002, 0x57a1_2aa5_cc98_7815, 0xc8a0_b989_755b_d30d),
        (0xc4a0_5003, 0xb506_a13d_e437_6b8a, 0x0eed_b1c1_90d2_ca48),
    ];
    for (seed, shed_only_digest, degrade_digest) in pinned {
        let (specs, plan) = seeded_schedule(seed);
        let ladder = DegradePolicy::paper_classes();

        let shed_only = serve_faulted(specs.clone(), &plan, None);
        let degraded = serve_faulted(specs.clone(), &plan, Some(ladder.clone()));
        let replay = serve_faulted(specs, &plan, Some(ladder.clone()));
        assert_serving_invariants("shed-only", &shed_only, 40, None);
        assert_serving_invariants("degrade", &degraded, 40, Some(&ladder));
        assert_eq!(
            chaos_digest(&degraded),
            chaos_digest(&replay),
            "seed {seed:#x}: degrade replay diverged"
        );
        assert_eq!(
            chaos_digest(&shed_only),
            shed_only_digest,
            "seed {seed:#x}: shed-only digest moved"
        );
        assert_eq!(
            chaos_digest(&degraded),
            degrade_digest,
            "seed {seed:#x}: degrade digest moved"
        );
    }
}

#[test]
fn abort_records_name_the_members_down_at_their_end() {
    use tetriserve::simulator::trace::TraceEvent;
    // A dispatch a fault killed records the member GPUs down at its end,
    // the fault instant, and those records are exactly the dispatches the
    // report counts as aborted.
    let mut killed_total = 0;
    for seed in [0xc4a0_5001, 0xc4a0_5002, 0xc4a0_5003] {
        let (specs, plan) = seeded_schedule(seed);
        let report = serve_faulted(specs, &plan, None);
        let mut killed = 0;
        for e in report.trace.events() {
            let TraceEvent::DispatchStart {
                end, gpus, down, ..
            } = e
            else {
                continue;
            };
            if down.is_empty() {
                continue;
            }
            assert_eq!(
                *down,
                plan.down_gpus(*end).intersection(*gpus),
                "seed {seed:#x}: dispatch on {gpus} killed at {end:?}"
            );
            killed += 1;
        }
        assert_eq!(killed, report.aborted_dispatches, "seed {seed:#x}");
        killed_total += killed;
    }
    assert!(
        killed_total > 0,
        "the seeded schedules must kill a dispatch"
    );
}

#[test]
fn degrade_ladder_beats_shed_only_on_the_pinned_straggler() {
    // Two hero images against a node where every GPU straggles at 1.6×
    // step time for the whole run. At nominal speed both fit; derated,
    // the EDF scan can deliver ~60 nominal GPU-seconds by the deadline —
    // less than the ~69 two full-quality requests demand, but more than
    // the ~52 left after degrading the second one toward its floor.
    // Shed-only has no middle rung: it drops the second request whole.
    let specs: Vec<RequestSpec> = (0..2)
        .map(|i| RequestSpec {
            tenant: TenantId::UNTAGGED,
            id: RequestId(i),
            resolution: Resolution::R2048,
            arrival: SimTime::ZERO,
            deadline: SimTime::from_secs_f64(15.0),
            total_steps: 50,
            stages: tetriserve::costmodel::StageProfile::FLAT,
        })
        .collect();
    let plan = (0..8).fold(FailurePlan::none(), |plan, g| {
        plan.with_perf_fault(PerfFault::straggler(
            GpuId(g),
            1.6,
            SimTime::ZERO,
            SimTime::from_secs_f64(600.0),
        ))
    });
    let shed_only = serve_faulted(specs.clone(), &plan, None);
    let degraded = serve_faulted(specs, &plan, Some(DegradePolicy::uniform(0.5)));
    let debt = degraded.quality_debt_steps();
    assert!(
        degraded.sar() > shed_only.sar() && debt <= 200,
        "degrade SAR {} must strictly beat shed-only {} within 200 debt steps (spent {debt})",
        degraded.sar(),
        shed_only.sar()
    );
    assert_eq!((degraded.sar(), shed_only.sar(), debt), (1.0, 0.5, 10));
}
