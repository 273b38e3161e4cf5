//! Same-seed, same-process determinism of the fleet layer, plus the
//! outage re-routing semantics.
//!
//! Fleet runs fold two FNV-1a digests — the routing-decision stream and
//! the fleet-wide outcome set. Both must be bit-identical across
//! back-to-back same-seed runs *in one process*: per-instance hasher
//! seeds, iteration-order leaks, or wall-clock leaking into decisions all
//! show up here immediately. The smoke fleet's and the outage scenario's
//! digests are also pinned as literals, so a change that moves
//! arbitration order in every run alike still fails.

use tetriserve::bench::fleet::{run_fleet_perf, run_router, FleetPerfConfig};
use tetriserve::core::{Policy, RequestSpec, TetriServeConfig, TetriServePolicy};
use tetriserve::costmodel::{ClusterSpec, DitModel, InterClusterLink, Profiler, Resolution};
use tetriserve::fleet::{
    ClusterView, DeadlineAwareRouter, EdfRebalancer, FleetCluster, FleetSim, RouteDecision, Router,
};
use tetriserve::simulator::failure::ClusterOutage;
use tetriserve::simulator::time::SimTime;
use tetriserve::simulator::trace::{RequestId, TenantId};

fn h100_cluster(name: &str) -> FleetCluster {
    let costs = Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic();
    let policy: Box<dyn Policy> =
        Box::new(TetriServePolicy::new(TetriServeConfig::default(), &costs));
    FleetCluster::new(name, costs, policy)
}

fn spec(id: u64, arrival_s: f64, slo_s: f64) -> RequestSpec {
    RequestSpec {
        tenant: TenantId::UNTAGGED,
        id: RequestId(id),
        resolution: Resolution::R1024,
        arrival: SimTime::from_secs_f64(arrival_s),
        deadline: SimTime::from_secs_f64(arrival_s + slo_s),
        total_steps: 50,
        stages: tetriserve::costmodel::StageProfile::FLAT,
    }
}

#[test]
fn same_seed_fleet_digests_are_bit_identical_in_process() {
    // Two full harness runs back to back in one process: every router's
    // routing digest AND outcome digest must match bit for bit. This is
    // the fleet analogue of the single-cluster `determinism_digests`
    // suite and catches per-instance hash seeding anywhere in the
    // routing or aggregation path. The heterogeneous smoke fleet (2×H100
    // plus 1×A40, where deadline-aware sheds 4 of 60 requests) pins each
    // router's (routing, outcome) digests as literals too.
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
    let config = FleetPerfConfig::smoke();
    let a = run_fleet_perf(&config, "smoke");
    let b = run_fleet_perf(&config, "smoke");
    assert_eq!(a.routers.len(), 4);
    for ((ra, rb), (name, routing, outcome)) in a.routers.iter().zip(&b.routers).zip(pinned) {
        assert_eq!(ra.router, name);
        assert_eq!(ra.routing_digest, routing, "{name}: routing digest moved");
        assert_eq!(ra.outcome_digest, outcome, "{name}: outcome digest moved");
        assert_eq!(ra.router, rb.router);
        assert_eq!(
            ra.routing_digest, rb.routing_digest,
            "{}: routing digest drifted between same-seed runs",
            ra.router
        );
        assert_eq!(
            ra.outcome_digest, rb.outcome_digest,
            "{}: outcome digest drifted between same-seed runs",
            ra.router
        );
        assert_eq!(ra.routed, rb.routed, "{}", ra.router);
        assert_eq!(ra.rerouted, rb.rerouted, "{}", ra.router);
        assert!((ra.sar - rb.sar).abs() == 0.0, "{}", ra.router);
    }
}

#[test]
fn deadline_aware_beats_round_robin_on_the_bench_scenario() {
    // The fleet layer's core claim, pinned at integration level on the
    // heterogeneous three-cluster scenario: EDF-feasibility-gated routing
    // strictly beats load-blind round-robin on SLO attainment.
    let config = FleetPerfConfig::smoke();
    let rr = run_router(
        &config,
        Box::new(tetriserve::fleet::RoundRobinRouter::new()),
    );
    let da = run_router(&config, Box::new(DeadlineAwareRouter::new()));
    assert!(
        da.sar() > rr.sar(),
        "deadline-aware {} vs round-robin {}",
        da.sar(),
        rr.sar()
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
    // Re-routed requests arrive at the outage instant, never before.
    for o in &report.clusters[1].report.outcomes {
        if o.id != RequestId(0) {
            assert!(o.arrival >= SimTime::ZERO);
        }
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
