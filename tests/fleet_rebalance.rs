//! Integration suite for the fleet rebalancer: same-seed determinism
//! with migration in play, request conservation across extract/inject
//! under randomised workloads, a pinned scenario where migration
//! provably rescues deadlines static routing misses, and the admission
//! contract that a rebalancer never overrides a router's `Shed`.

use proptest::prelude::*;

use tetriserve::core::{Policy, RequestSpec, TetriServeConfig, TetriServePolicy};
use tetriserve::costmodel::{ClusterSpec, DitModel, InterClusterLink, Profiler, Resolution};
use tetriserve::fleet::{
    ClusterView, EdfRebalancer, FleetCluster, FleetSim, RouteDecision, Router,
};
use tetriserve::metrics::FleetReport;
use tetriserve::simulator::failure::ClusterOutage;
use tetriserve::simulator::time::{SimDuration, SimTime};
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

/// A router that pins every request to the first *up* cluster — the
/// adversarial placement that loads one cluster while others idle, so the
/// rebalancer (not the router) has to fix the imbalance.
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

/// The pinned rescue scenario: everything lands on cluster 0, whose EDF
/// backlog cannot meet every deadline alone; cluster 1 idles. Static
/// routing never reconsiders placement, so the queue tail misses. The
/// rebalancer's first planning ticks migrate the at-risk tail to
/// cluster 1, where the post-hand-off feasibility test passes.
fn rescue_workload() -> Vec<RequestSpec> {
    // ~6.4 GPU-s each (50 R1024 steps at sp=1) — 24 requests is ~154 GPU-s
    // of demand against ~80 GPU-s of single-cluster capacity inside the
    // 10 s budget, so cluster 0 alone provably cannot meet every deadline.
    (0u64..24).map(|i| spec(i, i as f64 * 0.1, 10.0)).collect()
}

fn run_static(arrivals: Vec<RequestSpec>, outages: Vec<ClusterOutage>) -> FleetReport {
    FleetSim::new(
        vec![h100_cluster("a"), h100_cluster("b")],
        PinFirstUp,
        arrivals,
        outages,
    )
    .run()
}

fn run_rebalanced(arrivals: Vec<RequestSpec>, outages: Vec<ClusterOutage>) -> FleetReport {
    FleetSim::new(
        vec![h100_cluster("a"), h100_cluster("b")],
        PinFirstUp,
        arrivals,
        outages,
    )
    .with_rebalancer(
        Box::new(EdfRebalancer::new()),
        InterClusterLink::datacenter(),
    )
    .run()
}

#[test]
fn same_seed_rebalanced_digests_are_bit_identical_in_process() {
    // Two identical rebalanced runs back to back in one process: routing,
    // outcome AND migration digests must match bit for bit — the planner,
    // the hand-off pricing and the enactment order are all deterministic
    // state machines.
    let run = || {
        run_rebalanced(
            rescue_workload(),
            vec![ClusterOutage::transient(
                0,
                SimTime::from_secs_f64(3.0),
                SimTime::from_secs_f64(20.0),
            )],
        )
    };
    let (a, b) = (run(), run());
    assert_eq!(a.routing_digest, b.routing_digest);
    assert_eq!(a.outcome_digest, b.outcome_digest);
    assert_eq!(a.migration_digest, b.migration_digest);
    assert_eq!(a.migrations, b.migrations);
    assert!(a.migrations > 0, "the scenario must actually migrate");
    assert!(
        a.migration_digest != 0,
        "enacted migrations must fold into the digest"
    );
}

#[test]
fn migration_rescues_deadlines_static_routing_misses() {
    // The tentpole claim, pinned: same workload, same router, same (lack
    // of) outage — adding only the rebalancer strictly raises SLO
    // attainment, and some specific request that missed its deadline under
    // static routing makes it after migrating.
    let stat = run_static(rescue_workload(), vec![]);
    let reb = run_rebalanced(rescue_workload(), vec![]);

    assert_eq!(stat.total_requests(), 24);
    assert_eq!(reb.total_requests(), 24, "migration must conserve requests");
    assert!(reb.migrations > 0, "the rebalancer must migrate the tail");
    assert!(
        reb.sar() > stat.sar(),
        "rebalanced sar {} must strictly beat static sar {}",
        reb.sar(),
        stat.sar()
    );

    let missed_static: Vec<RequestId> = stat
        .all_outcomes()
        .iter()
        .filter(|o| !o.met_slo())
        .map(|o| o.id)
        .collect();
    assert!(
        !missed_static.is_empty(),
        "the pinned workload must overload cluster 0 statically"
    );
    let rebalanced_outcomes = reb.all_outcomes();
    let rescued = missed_static.iter().any(|&id| {
        rebalanced_outcomes
            .iter()
            .any(|o| o.id == id && o.met_slo())
    });
    assert!(
        rescued,
        "at least one statically-missed request must meet its deadline after migration"
    );
    // The rescue really went through cluster 1's queue.
    assert!(
        reb.clusters[1].migrated_in > 0,
        "migrations must land on the idle cluster"
    );
}

#[test]
fn rebalancer_off_matches_the_static_driver_bit_for_bit() {
    // A fleet with no rebalancer attached must reproduce the static
    // driver exactly — rank-2 candidates never exist, and the migration
    // digest stays at its empty-fold value.
    let outage = vec![ClusterOutage::transient(
        0,
        SimTime::from_secs_f64(1.0),
        SimTime::from_secs_f64(4.0),
    )];
    let (a, b) = (
        run_static(rescue_workload(), outage.clone()),
        run_static(rescue_workload(), outage),
    );
    assert_eq!(a.routing_digest, b.routing_digest);
    assert_eq!(a.outcome_digest, b.outcome_digest);
    assert_eq!(a.migrations, 0);
    assert_eq!(a.migration_digest, b.migration_digest);
}

#[test]
fn a_rebalancer_never_overrides_a_router_shed() {
    // Admission is the router's alone: with two idle clusters that could
    // serve every request, a router that sheds everything still sheds
    // everything once a rebalancer is attached — no request is placed
    // and nothing migrates.
    struct ShedAll;
    impl Router for ShedAll {
        fn name(&self) -> String {
            "shed-all".to_owned()
        }
        fn route(&mut self, _spec: &RequestSpec, _views: &[ClusterView]) -> RouteDecision {
            RouteDecision::Shed
        }
    }
    let arrivals = || (0u64..8).map(|i| spec(i, i as f64 * 0.5, 60.0)).collect();
    let fleet = || {
        FleetSim::new(
            vec![h100_cluster("a"), h100_cluster("b")],
            ShedAll,
            arrivals(),
            vec![],
        )
    };
    let stat = fleet().run();
    let reb = fleet()
        .with_rebalancer(
            Box::new(EdfRebalancer::new()),
            InterClusterLink::datacenter(),
        )
        .run();
    assert_eq!(reb.fleet_shed.len(), 8, "every router shed must stand");
    assert_eq!(reb.migrations, 0);
    assert!(reb.clusters.iter().all(|c| c.routed == 0));
    assert_eq!(reb.routing_digest, stat.routing_digest);
}

#[test]
fn transient_outage_migrates_partial_work_off_the_down_cluster() {
    // Work with checkpointed progress cannot be drained at the outage
    // (the fresh-work drain skips it) and cannot run on a cluster with
    // zero healthy GPUs — under static routing it waits out the whole
    // window. With the rebalancer, the down cluster's entire queue is
    // at-risk (healthy = 0), so the partial work migrates, pays the
    // latent hand-off, and finishes elsewhere.
    let arrivals: Vec<RequestSpec> = (0u64..8).map(|i| spec(i, i as f64 * 0.1, 40.0)).collect();
    let outage = vec![ClusterOutage::transient(
        0,
        SimTime::from_secs_f64(2.0),
        SimTime::from_secs_f64(60.0),
    )];
    let stat = run_static(arrivals.clone(), outage.clone());
    let reb = run_rebalanced(arrivals, outage);
    assert!(reb.migrations > 0, "the outage must trigger migrations");
    assert!(
        reb.sar() >= stat.sar(),
        "rebalanced sar {} must not lose to static sar {}",
        reb.sar(),
        stat.sar()
    );
    assert!(
        reb.migrated_gpu_seconds > 0.0,
        "partially-denoised work must carry its executed GPU-seconds across"
    );
    // Partial work ships real latent: at least one hand-off paid more
    // than the bare launch latency.
    assert!(reb
        .handoff_delays
        .iter()
        .any(|&d| d > SimDuration::from_micros(250)));
}

#[test]
fn custom_cadence_is_respected_deterministically() {
    let run = |cadence_ms: u64| {
        FleetSim::new(
            vec![h100_cluster("a"), h100_cluster("b")],
            PinFirstUp,
            rescue_workload(),
            vec![],
        )
        .with_rebalancer(
            Box::new(EdfRebalancer::with_cadence(SimDuration::from_millis(
                cadence_ms,
            ))),
            InterClusterLink::datacenter(),
        )
        .run()
    };
    let fast = run(250);
    let slow = run(4_000);
    // Both deterministic; a faster planning clock can only catch at-risk
    // work earlier, never later.
    assert!(fast.migrations >= slow.migrations);
    assert_eq!(run(250).migration_digest, fast.migration_digest);
}

/// Strategy for the conservation proptest: 1–12 requests with arbitrary
/// millisecond arrivals and budgets, plus an arbitrary transient outage
/// window on cluster 0. Requests are sorted and re-id'd so the fleet
/// driver's (arrival, id) precondition holds.
fn conservation_strategy() -> impl Strategy<Value = (Vec<RequestSpec>, u64, u64)> {
    (
        proptest::collection::vec((0u64..20_000, 5_000u64..60_000), 1..12),
        0u64..10_000,
        1u64..30_000,
    )
        .prop_map(|(raw, down_ms, window_ms)| {
            let mut arrivals: Vec<(u64, u64)> = raw;
            arrivals.sort_unstable();
            let specs = arrivals
                .into_iter()
                .enumerate()
                .map(|(i, (arrival_ms, budget_ms))| RequestSpec {
                    tenant: TenantId::UNTAGGED,
                    id: RequestId(i as u64),
                    resolution: Resolution::R1024,
                    arrival: SimTime::from_millis(arrival_ms),
                    deadline: SimTime::from_millis(arrival_ms + budget_ms),
                    total_steps: 50,
                    stages: tetriserve::costmodel::StageProfile::FLAT,
                })
                .collect();
            (specs, down_ms, window_ms)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Migration never creates, loses or duplicates a request: every
    /// input id appears in the fleet-wide outcome set exactly once, no
    /// matter when the outage lands or how the rebalancer shuffles the
    /// queues mid-flight.
    #[test]
    fn migration_conserves_requests(case in conservation_strategy()) {
        let (specs, down_ms, window_ms) = case;
        let outage = ClusterOutage::transient(
            0,
            SimTime::from_millis(down_ms),
            SimTime::from_millis(down_ms + window_ms),
        );
        let n = specs.len();
        let report = run_rebalanced(specs, vec![outage]);
        let outcomes = report.all_outcomes();
        prop_assert_eq!(outcomes.len(), n, "requests created or lost");
        for (i, o) in outcomes.iter().enumerate() {
            prop_assert_eq!(o.id, RequestId(i as u64), "id duplicated or dropped");
        }
        // Per-cluster accounting matches the fleet fold.
        let per_cluster: usize = report
            .clusters
            .iter()
            .map(|c| c.report.outcomes.len())
            .sum();
        prop_assert_eq!(per_cluster + report.fleet_shed.len(), n);
    }
}
