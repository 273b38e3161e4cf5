//! Same-seed, same-process determinism of the fleet layer, the outage
//! re-routing semantics, and the fleet's behaviour gates.
//!
//! Fleet runs fold two FNV-1a digests — the routing-decision stream and
//! the fleet-wide outcome set. Both must be bit-identical across
//! back-to-back same-seed runs *in one process*: per-instance hasher
//! seeds, iteration-order leaks, or wall-clock leaking into decisions all
//! show up here immediately. Every scenario's digests are also pinned as
//! literals, so a change that moves arbitration order in every run alike
//! still fails.
//!
//! Most scenarios run on [`hetero_fleet`]: two 8×H100 nodes and one
//! ~6.6×-slower 4×A40 node. On it the suite gates that
//!
//! * deadline-aware routing strictly beats round-robin on SAR, and on
//!   worst-tenant SAR when four tenants stream in online;
//! * the EDF rebalancer strictly beats static routing through a
//!   two-minute outage of cluster 0;
//! * an overloaded run (50 req/s, about 93% shed) never grows a warmed
//!   feasibility scratch.
//!
//! A video tenant streamed onto a fleet whose second node runs
//! disaggregated stage pools has its digests pinned too: it is the one
//! fleet scenario where decode order shows in the outcomes.

use tetriserve::core::{
    AdmissionPolicy, Policy, PoolLayout, RequestSpec, ServerConfig, TetriServePolicy,
};
use tetriserve::costmodel::{
    ClusterSpec, DitModel, InterClusterLink, Profiler, Resolution, StageProfile,
};
use tetriserve::fleet::{
    ClusterView, DeadlineAwareRouter, EdfRebalancer, FleetCluster, FleetSim,
    JoinShortestQueueRouter, PowerOfTwoRouter, RoundRobinRouter, RouteDecision, Router,
};
use tetriserve::metrics::FleetReport;
use tetriserve::simulator::digest::SplitMix;
use tetriserve::simulator::failure::ClusterOutage;
use tetriserve::simulator::time::SimTime;
use tetriserve::simulator::trace::{RequestId, TenantId};
use tetriserve::traffic::{
    to_spec, ArrivalShape, CouplingSpec, PriorityTier, StreamingArrivals, TenantSpec, TrafficModel,
};
use tetriserve::workload::multiplex::merge_streams;
use tetriserve::workload::{BurstyProcess, PoissonProcess, ResolutionMix, SloPolicy, TraceGen};

/// Seed of the three-tenant fleet scenario.
const FLEET_SEED: u64 = 0xf1ee7;

/// One `spec` cluster running TetriServe under `config`.
fn cluster(name: &str, spec: ClusterSpec, config: ServerConfig) -> FleetCluster {
    let costs = Profiler::new(DitModel::flux_dev(), spec).analytic();
    let policy: Box<dyn Policy> = Box::new(TetriServePolicy::with_defaults(&costs));
    FleetCluster {
        name: name.to_owned(),
        costs,
        policy,
        config,
    }
}

fn h100_cluster(name: &str) -> FleetCluster {
    cluster(name, ClusterSpec::h100x8(), ServerConfig::default())
}

/// The heterogeneous fleet — two 8×H100 nodes and one 4×A40 node, each
/// running TetriServe under `config`.
fn hetero_fleet(config: ServerConfig) -> Vec<FleetCluster> {
    vec![
        cluster("h100x8-a", ClusterSpec::h100x8(), config.clone()),
        cluster("h100x8-b", ClusterSpec::h100x8(), config.clone()),
        cluster("a40x4", ClusterSpec::a40x4(), config),
    ]
}

fn spec(id: u64, arrival_s: f64, slo_s: f64) -> RequestSpec {
    RequestSpec {
        tenant: TenantId::UNTAGGED,
        id: RequestId(id),
        resolution: Resolution::R1024,
        arrival: SimTime::from_secs_f64(arrival_s),
        deadline: SimTime::from_secs_f64(arrival_s + slo_s),
        total_steps: 50,
        stages: StageProfile::FLAT,
    }
}

/// The three-tenant fleet workload: two Poisson tenants and one bursty
/// tenant, 20 requests each at 16 req/min with paper SLOs ×1.2, merged
/// in arrival order.
fn fleet_workload() -> Vec<RequestSpec> {
    let slo = SloPolicy::paper_targets().scaled(1.2);
    let tenant = |sub: u64| {
        TraceGen::new(
            PoissonProcess::new(16.0),
            ResolutionMix::uniform(),
            slo.clone(),
            FLEET_SEED ^ sub,
        )
        .generate(20)
    };
    let bursty = TraceGen::new(
        BurstyProcess::standard(16.0),
        ResolutionMix::uniform(),
        slo.clone(),
        FLEET_SEED ^ 3,
    )
    .generate(20);
    let streams = vec![
        tenant(1).into_iter(),
        tenant(2).into_iter(),
        bursty.into_iter(),
    ];
    merge_streams(streams)
        .map(|r| to_spec(&r, DitModel::flux_dev().steps))
        .collect()
}

/// The fleet scenario: [`fleet_workload`] on [`hetero_fleet`] while
/// cluster 0 is down from 30 s until `up_s`.
fn fleet_scenario<R: Router>(router: R, up_s: f64) -> FleetSim<R> {
    let outage = ClusterOutage::transient(
        0,
        SimTime::from_secs_f64(30.0),
        SimTime::from_secs_f64(up_s),
    );
    FleetSim::new(
        hetero_fleet(ServerConfig::default()),
        router,
        fleet_workload(),
        vec![outage],
    )
}

/// The one-minute outage every router is compared on.
const OUTAGE_UP_S: f64 = 90.0;
/// The two-minute outage, past most SLO deadlines: static routing strands
/// the work it aborted on cluster 0 until recovery.
const SKEWED_OUTAGE_UP_S: f64 = 150.0;

/// Requests that met their SLO, fleet-wide.
fn met_slo(report: &FleetReport) -> usize {
    report.all_outcomes().iter().filter(|o| o.met_slo()).count()
}

/// The four shipped routers, in canonical order.
fn routers() -> Vec<Box<dyn Router>> {
    vec![
        Box::new(RoundRobinRouter::new()),
        Box::new(JoinShortestQueueRouter::new()),
        Box::new(PowerOfTwoRouter::new(FLEET_SEED)),
        Box::new(DeadlineAwareRouter::new()),
    ]
}

#[test]
fn same_seed_fleet_digests_are_bit_identical_in_process() {
    // Every router over the fleet scenario, twice back to back in one
    // process: each routing digest AND outcome digest must match bit for
    // bit. This is the fleet analogue of the single-cluster
    // `determinism_digests` suite and catches per-instance hash seeding
    // anywhere in the routing or aggregation path. Each router's
    // (routing, outcome) digests are pinned as literals too; on this
    // scenario deadline-aware sheds 4 of 60 requests.
    let pinned = [
        ("round-robin", 0x34f5_06c4_b9dc_b939, 0x58de_49ac_d6b9_0641),
        (
            "join-shortest-queue",
            0x7bc3_9afb_5846_b283,
            0x423d_c8c7_fa43_8ecb,
        ),
        ("power-of-two", 0x684d_62fd_192d_6227, 0x1108_46a2_6c29_f010),
        (
            "deadline-aware",
            0xe3cd_1aab_808e_bce5,
            0x73b7_e76c_447b_b91e,
        ),
    ];
    let run = |router| fleet_scenario(router, OUTAGE_UP_S).run();
    for ((ra, rb), (name, routing, outcome)) in routers().into_iter().zip(routers()).zip(pinned) {
        let (ra, rb) = (run(ra), run(rb));
        assert_eq!(ra.router, name);
        assert_eq!(ra.routing_digest, routing, "{name}: routing digest moved");
        assert_eq!(ra.outcome_digest, outcome, "{name}: outcome digest moved");
        assert_eq!(
            ra.routing_digest, rb.routing_digest,
            "{name}: routing digest drifted between same-seed runs"
        );
        assert_eq!(
            ra.outcome_digest, rb.outcome_digest,
            "{name}: outcome digest drifted between same-seed runs"
        );
        let routed = |r: &FleetReport| r.clusters.iter().map(|c| c.routed).collect::<Vec<_>>();
        assert_eq!(routed(&ra), routed(&rb), "{name}");
        assert_eq!(ra.rerouted, rb.rerouted, "{name}");
        assert_eq!(met_slo(&ra), met_slo(&rb), "{name}");
    }
}

#[test]
fn deadline_aware_beats_round_robin_on_the_bench_scenario() {
    // The fleet layer's core claim, pinned at integration level on the
    // heterogeneous three-cluster scenario: EDF-feasibility-gated routing
    // strictly beats load-blind round-robin on SLO attainment.
    let rr = fleet_scenario(RoundRobinRouter::new(), OUTAGE_UP_S).run();
    let da = fleet_scenario(DeadlineAwareRouter::new(), OUTAGE_UP_S).run();
    assert!(
        da.sar() > rr.sar(),
        "deadline-aware {} vs round-robin {}",
        da.sar(),
        rr.sar()
    );
}

#[test]
fn rebalancing_strictly_beats_static_on_the_skewed_outage() {
    // Static deadline-aware routing leaves the partially denoised work
    // the outage aborted on cluster 0's queue until it recovers; the EDF
    // rebalancer migrates it to the survivors, paying the latent hand-off
    // delay per move.
    let fixed = fleet_scenario(DeadlineAwareRouter::new(), SKEWED_OUTAGE_UP_S).run();
    let rebalanced = fleet_scenario(DeadlineAwareRouter::new(), SKEWED_OUTAGE_UP_S)
        .with_rebalancer(
            Box::new(EdfRebalancer::new()),
            InterClusterLink::datacenter(),
        )
        .run();
    assert!(
        rebalanced.sar() > fixed.sar(),
        "rebalanced sar {} must strictly beat static sar {}",
        rebalanced.sar(),
        fixed.sar()
    );
    assert!(rebalanced.migrations >= 1, "the rebalancer must migrate");

    assert_eq!(fixed.routing_digest, 0x7c50_7986_42fc_b680);
    assert_eq!(fixed.outcome_digest, 0xd8d4_cc9c_0024_96e4);
    assert_eq!((met_slo(&fixed), fixed.total_requests()), (53, 60));
    assert_eq!(rebalanced.routing_digest, 0x7c50_7986_42fc_b680);
    assert_eq!(rebalanced.outcome_digest, 0x01dc_b1fa_df3f_33fa);
    assert_eq!(rebalanced.migration_digest, 0xe265_6bbe_4324_452e);
    assert_eq!(rebalanced.migrations, 1);
    assert_eq!(
        (met_slo(&rebalanced), rebalanced.total_requests()),
        (54, 60)
    );
}

/// The overload workload: exponential interarrivals at 50 req/s and
/// uniform production resolutions, both drawn from one [`SplitMix`]
/// stream, with paper SLO budgets ×1.2. Sorted by `(arrival, id)` by
/// construction.
fn overload_workload(n: usize) -> Vec<RequestSpec> {
    let slo = SloPolicy::paper_targets().scaled(1.2);
    let mut rng = SplitMix(0x51_be7c);
    let mut t = 0.0f64;
    (0..n)
        .map(|id| {
            let r = rng.next_u64();
            let resolution = Resolution::PRODUCTION[(r % 4) as usize];
            // Inverse-CDF exponential draw from the word's top 53 bits,
            // clamped away from 0 so ln() stays finite.
            let u = ((r >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
            t += -u.ln() / 50.0;
            let arrival = SimTime::from_secs_f64(t);
            RequestSpec {
                tenant: TenantId::UNTAGGED,
                id: RequestId(id as u64),
                resolution,
                arrival,
                deadline: arrival + slo.budget(resolution),
                total_steps: DitModel::flux_dev().steps,
                stages: StageProfile::FLAT,
            }
        })
        .collect()
}

#[test]
fn warmed_feasibility_scratch_never_grows_under_overload() {
    // 20k requests far above fleet capacity with per-cluster
    // `ShedInfeasible` admission: the feasibility path stays hot, and
    // after the warm-up the steady-state event loop must not grow it.
    let mut sim = FleetSim::new(
        hetero_fleet(ServerConfig {
            admission: AdmissionPolicy::ShedInfeasible,
            ..ServerConfig::default()
        }),
        DeadlineAwareRouter::new(),
        overload_workload(20_000),
        vec![],
    );
    sim.warm_up_scratch(1 << 14);
    let report = sim.run();
    let feas_calls: u64 = report.clusters.iter().map(|c| c.report.feas_calls).sum();
    let grow_events: u64 = report
        .clusters
        .iter()
        .map(|c| c.report.feas_grow_events)
        .sum();
    assert_eq!(grow_events, 0, "feasibility scratch grew after warm-up");
    assert!(feas_calls > 0, "the feasibility path must be exercised");
    let completed = report
        .all_outcomes()
        .iter()
        .filter(|o| o.completion.is_some())
        .count();
    assert!(report.total_shed() > 0, "the overload must shed");
    assert_eq!((completed, report.total_shed()), (1415, 18_585));
    assert_eq!(report.routing_digest, 0xc6fc_5665_0977_3f36);
    assert_eq!(report.outcome_digest, 0xb6bb_b128_aac2_3d52);
}

/// Four tenants streamed online: an interactive tight-SLO Poisson tenant,
/// a batch-tier bursty tenant on the skewed mix, and two standard-tier
/// flash tenants whose bursts share one coupled timeline.
fn traffic_model() -> TrafficModel {
    const SEED: u64 = 0x7a_ff1c;
    let slo = SloPolicy::paper_targets().scaled(1.2);
    TrafficModel::new(vec![
        TenantSpec::new("interactive", 14.0, SEED ^ 1)
            .with_tier(PriorityTier::Interactive)
            .with_slo(slo.clone()),
        TenantSpec::new("batch", 8.0, SEED ^ 2)
            .with_shape(ArrivalShape::Bursty {
                mean_rate_per_min: 8.0,
            })
            .with_mix(ResolutionMix::skewed())
            .with_tier(PriorityTier::Batch)
            .with_slo(slo.clone()),
        TenantSpec::new("flash-a", 8.0, SEED ^ 3)
            .with_slo(slo.clone())
            .coupled(),
        TenantSpec::new("flash-b", 8.0, SEED ^ 4)
            .with_slo(slo)
            .coupled(),
    ])
    .with_coupling(CouplingSpec::standard(SEED ^ 5))
}

/// Streams 96 requests of [`traffic_model`] into [`hetero_fleet`].
fn run_traffic(router: impl Router) -> FleetReport {
    let source = StreamingArrivals::new(traffic_model().online(96), DitModel::flux_dev().steps);
    FleetSim::streaming(
        hetero_fleet(ServerConfig::default()),
        router,
        Box::new(source),
        vec![],
    )
    .run()
}

/// `tenants-video` in miniature: an interactive image tenant, a bursty
/// batch image tenant on the skewed mix, and an interactive 8-frame video
/// tenant on small clips, whose budgets stretch with its frame count.
fn video_traffic_model() -> TrafficModel {
    const SEED: u64 = 0x71de_0c11;
    const FRAMES: u32 = 8;
    let targets = |scale: f64| {
        SloPolicy::from_targets([
            (Resolution::R256, 1.5 * scale),
            (Resolution::R512, 2.0 * scale),
            (Resolution::R1024, 3.0 * scale),
            (Resolution::R2048, 5.0 * scale),
        ])
    };
    let clips = ResolutionMix::weighted("Clip", [(Resolution::R256, 1.0), (Resolution::R512, 1.0)]);
    TrafficModel::new(vec![
        TenantSpec::new("interactive", 14.0, SEED ^ 1)
            .with_tier(PriorityTier::Interactive)
            .with_slo(targets(1.2)),
        TenantSpec::new("batch", 8.0, SEED ^ 2)
            .with_shape(ArrivalShape::Bursty {
                mean_rate_per_min: 8.0,
            })
            .with_mix(ResolutionMix::skewed())
            .with_tier(PriorityTier::Batch)
            .with_slo(targets(1.2)),
        TenantSpec::new("video", 16.0, SEED ^ 3)
            .with_mix(clips)
            .with_tier(PriorityTier::Interactive)
            .with_slo(targets(1.2 * f64::from(FRAMES)))
            .video(FRAMES),
    ])
}

#[test]
fn video_tenant_on_a_disaggregated_node_keeps_its_fleet_digests() {
    // Unified nodes reserve a decode when its dispatch is submitted,
    // disaggregated ones when the dispatch is done. Reserving the
    // disaggregated node's decodes at submit too moves the outcome
    // digest here while SAR stays put, so the digests are the check.
    let run = || {
        let fleet = hetero_fleet(ServerConfig {
            admission: AdmissionPolicy::ShedInfeasible,
            ..ServerConfig::default()
        })
        .into_iter()
        .enumerate()
        .map(|(i, mut c)| {
            if i == 1 {
                c.config.pool = PoolLayout::disaggregated_default();
            }
            c
        })
        .collect();
        let source = StreamingArrivals::new(
            video_traffic_model().online(400),
            DitModel::flux_dev().steps,
        );
        FleetSim::streaming(fleet, DeadlineAwareRouter::new(), Box::new(source), vec![]).run()
    };
    let report = run();
    let disaggregated = &report.clusters[1].report;
    assert!(
        disaggregated.decode_busy_seconds > 0.0,
        "the decode pool ran"
    );
    assert!(
        disaggregated
            .outcomes
            .iter()
            .any(|o| o.completion.is_some() && o.tenant == TenantId(2)),
        "a video request completed on the disaggregated node"
    );
    assert_eq!(
        report.routing_digest, 0x02fe_bfa5_635c_ff2d,
        "routing digest moved"
    );
    assert_eq!(
        report.outcome_digest, 0x7740_0971_86eb_c8ee,
        "outcome digest moved"
    );
    let again = run();
    assert_eq!(
        (again.routing_digest, again.outcome_digest),
        (report.routing_digest, report.outcome_digest)
    );
}

#[test]
fn deadline_aware_beats_round_robin_on_worst_tenant_sar() {
    // When both flash tenants spike at once, round-robin keeps shipping
    // tight-deadline work to the slow A40 node; the deadline-aware
    // router's feasibility gate routes around it.
    let rr = run_traffic(RoundRobinRouter::new());
    let da = run_traffic(DeadlineAwareRouter::new());
    assert!(
        da.worst_tenant_sar() > rr.worst_tenant_sar(),
        "deadline-aware worst-tenant SAR {} must strictly beat round-robin {}",
        da.worst_tenant_sar(),
        rr.worst_tenant_sar()
    );
    let pinned = [
        (
            &rr,
            0x5aee_c287_272d_0ee6,
            0x6ba9_39cd_76be_a5c8,
            7.0 / 15.0,
        ),
        (
            &da,
            0xf596_e2fb_8ba4_7236,
            0xa590_543a_3bd8_95c3,
            9.0 / 15.0,
        ),
    ];
    for (report, routing, outcome, worst) in pinned {
        let name = &report.router;
        assert_eq!(
            report.routing_digest, routing,
            "{name}: routing digest moved"
        );
        assert_eq!(
            report.outcome_digest, outcome,
            "{name}: outcome digest moved"
        );
        assert_eq!(report.worst_tenant_sar(), worst, "{name}");
        let tenants = report.tenant_summaries();
        assert_eq!(tenants.len(), 4, "{name}: every tenant appears");
        assert!(tenants.iter().all(|t| t.requests > 0), "{name}");
    }
    // A second run of each router agrees on every per-tenant summary.
    assert_eq!(
        run_traffic(RoundRobinRouter::new()).tenant_summaries(),
        rr.tenant_summaries()
    );
    assert_eq!(
        run_traffic(DeadlineAwareRouter::new()).tenant_summaries(),
        da.tenant_summaries()
    );
}

#[test]
fn outage_reroutes_queued_work_to_the_surviving_cluster() {
    // A router that pins every request to cluster 0 while it is up. The
    // outage fires while later arrivals are still queued fresh behind the
    // first request's dispatch, so they MUST move to cluster 1 and
    // complete there.
    struct PinFirstUp;
    impl Router for PinFirstUp {
        fn name(&self) -> String {
            "pin-first-up".to_owned()
        }
        fn route(&mut self, _spec: &RequestSpec, views: &[ClusterView]) -> RouteDecision {
            views
                .iter()
                .find(|v| v.up)
                .map_or(RouteDecision::Shed, |v| RouteDecision::To(v.index))
        }
    }
    let arrivals = vec![
        spec(0, 0.0, 120.0),
        spec(1, 0.05, 120.0),
        spec(2, 0.10, 120.0),
        spec(3, 0.15, 120.0),
    ];
    let outage = ClusterOutage::permanent(0, SimTime::from_secs_f64(0.5));
    let report = FleetSim::new(
        vec![h100_cluster("a"), h100_cluster("b")],
        PinFirstUp,
        arrivals,
        vec![outage],
    )
    .run();
    assert!(
        report.rerouted > 0,
        "the outage must find queued fresh work to move"
    );
    assert_eq!(report.clusters[1].rerouted_in, report.rerouted);
    assert!(
        !report.clusters[1].report.outcomes.is_empty(),
        "re-routed work must land on the surviving cluster"
    );
    assert!(
        report.clusters[1]
            .report
            .outcomes
            .iter()
            .all(|o| o.completion.is_some()),
        "re-routed work must complete on the surviving cluster"
    );
    // Nothing is lost: every request either completed somewhere, was
    // terminally failed on the dead cluster, or was shed.
    assert_eq!(report.total_requests(), 4);
    // Requests 1–3 were queued fresh behind request 0 when cluster 0 went
    // down, so exactly they move. They keep their original arrivals, so
    // their latency counts the time they queued on the failed cluster.
    let mut moved = report.clusters[1].report.outcomes.clone();
    moved.sort_unstable_by_key(|o| o.id);
    let ids: Vec<RequestId> = moved.iter().map(|o| o.id).collect();
    assert_eq!(ids, [RequestId(1), RequestId(2), RequestId(3)]);
    for (o, arrival_s) in moved.iter().zip([0.05, 0.10, 0.15]) {
        let arrival = SimTime::from_secs_f64(arrival_s);
        assert_eq!(o.arrival, arrival, "re-routes keep their arrival: {o:?}");
        let done = o.completion.expect("re-routed work completes");
        assert_eq!(o.latency(), Some(done.saturating_since(arrival)), "{o:?}");
    }
}

#[test]
fn outage_rerouting_is_deterministic() {
    let sim = || {
        let arrivals: Vec<RequestSpec> = (0..12)
            .map(|i| spec(i, f64::from(i as u32) * 0.2, 30.0))
            .collect();
        let outage =
            ClusterOutage::transient(0, SimTime::from_secs_f64(1.0), SimTime::from_secs_f64(5.0));
        FleetSim::new(
            vec![h100_cluster("a"), h100_cluster("b")],
            DeadlineAwareRouter::new(),
            arrivals,
            vec![outage],
        )
    };
    let (a, b) = (sim().run(), sim().run());
    assert_eq!(a.routing_digest, b.routing_digest);
    assert_eq!(a.outcome_digest, b.outcome_digest);
    assert_eq!(a.rerouted, b.rerouted);
    assert_eq!(a.routing_digest, 0xa34e_fd54_3d31_8c11);
    assert_eq!(a.outcome_digest, 0x4ce5_4881_7b6c_32eb);

    // The same scenario with the rebalancer attached also pins rebalance
    // ticks, migrations and rescue routing.
    let r = sim()
        .with_rebalancer(
            Box::new(EdfRebalancer::new()),
            InterClusterLink::datacenter(),
        )
        .run();
    assert_eq!(r.migrations, 2);
    assert_eq!(r.routing_digest, 0xa34e_fd54_3d31_8c11);
    assert_eq!(r.outcome_digest, 0xfe81_c784_3ac9_700a);
    assert_eq!(r.migration_digest, 0x94c8_ec63_a16f_7adb);
}
