//! Deterministic fleet perf/routing harness (`BENCH_fleet.json`).
//!
//! The production framing of the paper: a heterogeneous three-cluster
//! fleet — two 8×H100 nodes and one 4×A40 node, all serving FLUX.1-dev —
//! takes a multiplexed three-tenant workload (two Poisson tenants and one
//! bursty tenant) while one H100 cluster suffers a transient
//! whole-cluster outage mid-run. Every shipped [`Router`] serves the
//! *identical* workload, so the artefact compares routing policies on SLO
//! attainment, goodput, shedding, re-routing volume and cross-cluster
//! load imbalance.
//!
//! The scenario is deliberately heterogeneity-hostile to load-blind
//! routing: the A40 node is ~6.6× slower per step than an H100 node, so
//! tight-SLO high-resolution requests sent there by round-robin complete
//! far past their deadlines, while the deadline-aware router's EDF
//! feasibility gate never routes them to a cluster that cannot make the
//! deadline.
//!
//! A second scenario — the *skewed outage* — pits the fleet rebalancer
//! against static routing: the same workload, but cluster 0 stays down
//! for two minutes. Static deadline-aware routing strands the partially
//! denoised work the outage aborted onto cluster 0's queue until it
//! recovers — deadline misses by construction — while the rebalancing
//! fleet migrates it to the survivors, paying the real latent hand-off
//! delay per move. The harness (and CI) fail unless rebalancing strictly
//! beats static on SLO attainment here.
//!
//! Three digests pin determinism per run: the routing-decision stream,
//! the fleet-wide outcome fold, and (for rebalanced runs) the
//! enacted-migration stream (all FNV-1a, same constants as
//! `BENCH_scheduler.json`). [`FleetPerfReport::to_json`] renders the
//! `tetriserve-bench-fleet/v2` schema without a serialisation dependency.

use tetriserve_core::{Policy, RequestSpec, ServerConfig, TetriServeConfig, TetriServePolicy};
use tetriserve_costmodel::{ClusterSpec, DitModel, InterClusterLink, Profiler};
use tetriserve_fleet::{
    DeadlineAwareRouter, EdfRebalancer, FleetCluster, FleetSim, JoinShortestQueueRouter,
    PowerOfTwoRouter, RoundRobinRouter, Router,
};
use tetriserve_metrics::FleetReport;
use tetriserve_simulator::failure::ClusterOutage;
use tetriserve_simulator::time::SimTime;
use tetriserve_simulator::trace::RequestId;
use tetriserve_workload::arrival::{BurstyProcess, PoissonProcess};
use tetriserve_workload::gen::TraceGen;
use tetriserve_workload::mix::ResolutionMix;
use tetriserve_workload::multiplex::merge_streams;
use tetriserve_workload::prompt::PromptLibrary;
use tetriserve_workload::slo::SloPolicy;

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct FleetPerfConfig {
    /// Workload seed (each tenant derives its own sub-seed from it).
    pub seed: u64,
    /// Requests per tenant (three tenants).
    pub per_tenant: usize,
    /// Mean per-tenant Poisson rate, requests/minute.
    pub rate_per_min: f64,
    /// SLO scale multiplier.
    pub slo_scale: f64,
}

impl FleetPerfConfig {
    /// The full measurement: 80 requests × 3 tenants.
    pub fn full() -> FleetPerfConfig {
        FleetPerfConfig {
            seed: 0xf1ee7,
            per_tenant: 80,
            rate_per_min: 16.0,
            slo_scale: 1.2,
        }
    }

    /// CI-sized smoke run: same shape, 20 requests × 3 tenants.
    pub fn smoke() -> FleetPerfConfig {
        FleetPerfConfig {
            per_tenant: 20,
            ..FleetPerfConfig::full()
        }
    }
}

/// One router's results on the shared scenario.
#[derive(Debug)]
pub struct RouterResult {
    /// Router display name.
    pub router: String,
    /// Fleet SLO attainment (fleet-shed requests count against it).
    pub sar: f64,
    /// SLO-met requests per second of fleet makespan.
    pub goodput: f64,
    /// Requests shed anywhere (fleet router + per-cluster admission).
    pub shed: usize,
    /// Requests re-routed after the outage.
    pub rerouted: usize,
    /// Coefficient of variation of per-GPU busy time across clusters.
    pub load_imbalance: f64,
    /// Requests initially routed to each cluster, in cluster order.
    pub routed: Vec<usize>,
    /// FNV-1a digest over the routing-decision stream.
    pub routing_digest: u64,
    /// FNV-1a digest over fleet-wide outcomes.
    pub outcome_digest: u64,
}

/// Rebalancer-vs-static comparison on the skewed-outage scenario: the
/// same deadline-aware router and workload, with and without the EDF
/// rebalancer (which also enables fleet-coordinated admission).
#[derive(Debug)]
pub struct RebalanceComparison {
    /// Static deadline-aware routing (no rebalancer).
    pub static_da: RouterResult,
    /// Deadline-aware routing plus the EDF rebalancer.
    pub rebalanced: RouterResult,
    /// Migrations the rebalancer enacted.
    pub migrations: usize,
    /// Shed-bound requests coordinated admission placed instead.
    pub rescues: usize,
    /// GPU-seconds of executed work carried across clusters.
    pub migrated_gpu_seconds: f64,
    /// Hand-off delay histogram (`<1ms, <10ms, <100ms, <1s, ≥1s`).
    pub handoff_histogram: [usize; 5],
    /// FNV-1a digest over the enacted-migration stream.
    pub migration_digest: u64,
}

/// The full harness output.
#[derive(Debug)]
pub struct FleetPerfReport {
    /// Seed the run used.
    pub seed: u64,
    /// `"full"` or `"smoke"`.
    pub mode: String,
    /// Cluster labels, in fleet order.
    pub clusters: Vec<String>,
    /// Total requests in the multiplexed workload.
    pub requests: usize,
    /// One entry per router, in the canonical order.
    pub routers: Vec<RouterResult>,
    /// The skewed-outage rebalancing comparison.
    pub rebalance: RebalanceComparison,
}

/// The three-cluster heterogeneous fleet every router is judged on.
fn build_fleet() -> Vec<FleetCluster> {
    let h100 = |name: &str| {
        let costs = Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic();
        let policy: Box<dyn Policy> =
            Box::new(TetriServePolicy::new(TetriServeConfig::default(), &costs));
        FleetCluster {
            name: name.to_owned(),
            costs,
            policy,
            config: ServerConfig::default(),
        }
    };
    let a40 = {
        let costs = Profiler::new(DitModel::flux_dev(), ClusterSpec::a40x4()).analytic();
        let policy: Box<dyn Policy> =
            Box::new(TetriServePolicy::new(TetriServeConfig::default(), &costs));
        FleetCluster {
            name: "a40x4".to_owned(),
            costs,
            policy,
            config: ServerConfig::default(),
        }
    };
    vec![h100("h100x8-a"), h100("h100x8-b"), a40]
}

/// The multiplexed three-tenant workload: two Poisson tenants and one
/// bursty tenant, identical for every router.
pub fn fleet_workload(config: &FleetPerfConfig) -> Vec<RequestSpec> {
    let slo = SloPolicy::paper_targets().scaled(config.slo_scale);
    let stream = |sub: u64| -> TraceGen<PoissonProcess> {
        TraceGen::new(
            PoissonProcess::new(config.rate_per_min),
            ResolutionMix::uniform(),
            slo.clone(),
            PromptLibrary::diffusiondb_like(config.seed ^ sub),
            config.seed ^ sub,
        )
    };
    let mut bursty = TraceGen::new(
        BurstyProcess::standard(config.rate_per_min),
        ResolutionMix::uniform(),
        slo.clone(),
        PromptLibrary::diffusiondb_like(config.seed ^ 3),
        config.seed ^ 3,
    );
    let streams = vec![
        stream(1).generate(config.per_tenant).into_iter(),
        stream(2).generate(config.per_tenant).into_iter(),
        bursty.generate(config.per_tenant).into_iter(),
    ];
    let steps = DitModel::flux_dev().steps;
    merge_streams(streams)
        .map(|r| RequestSpec {
            tenant: r.tenant,
            id: RequestId(r.id),
            resolution: r.resolution,
            arrival: SimTime::from_secs_f64(r.arrival_s),
            deadline: SimTime::from_secs_f64(r.deadline_s),
            total_steps: steps,
            stages: r.stages,
        })
        .collect()
}

/// The scenario's outage: cluster 0 — the node load-aware routers
/// concentrate work on — is down for a one-minute window in the thick of
/// the arrival stream. Its in-flight work aborts and retries on the
/// spot; queued *fresh* work (none executed yet) re-routes to survivors.
/// TetriServe clusters backfill arrivals into dispatches almost
/// immediately, so the re-route count is usually zero here — the window
/// exercises the outage path (aborts, routing around a down cluster)
/// rather than guaranteeing re-routes; `tests/fleet_determinism.rs`
/// constructs a guaranteed-re-route case with a pinned router.
fn scenario_outage() -> ClusterOutage {
    ClusterOutage::transient(
        0,
        SimTime::from_secs_f64(30.0),
        SimTime::from_secs_f64(90.0),
    )
}

/// The rebalancer's showcase: the same outage cluster, but down for two
/// minutes instead of one — past most SLO deadlines. Static routing
/// leaves the partially denoised requests the outage aborted (progress
/// checkpointed, so the fresh-work drain cannot move them) stranded on
/// cluster 0's queue until recovery; a rebalancing fleet migrates them to
/// the survivors within one planning cadence, each move charged its
/// latent hand-off delay.
pub fn scenario_skewed_outage() -> ClusterOutage {
    ClusterOutage::transient(
        0,
        SimTime::from_secs_f64(30.0),
        SimTime::from_secs_f64(150.0),
    )
}

/// Runs one router over the shared scenario.
pub fn run_router(config: &FleetPerfConfig, router: Box<dyn Router>) -> FleetReport {
    FleetSim::new(
        build_fleet(),
        router,
        fleet_workload(config),
        vec![scenario_outage()],
    )
    .run()
}

/// Runs the deadline-aware router over the skewed-outage scenario twice —
/// statically and with the EDF rebalancer on the datacenter link — and
/// summarizes both.
pub fn run_rebalance_comparison(config: &FleetPerfConfig) -> RebalanceComparison {
    let arrivals = fleet_workload(config);
    let outages = vec![scenario_skewed_outage()];
    let static_report = FleetSim::new(
        build_fleet(),
        Box::new(DeadlineAwareRouter::new()) as Box<dyn Router>,
        arrivals.clone(),
        outages.clone(),
    )
    .run();
    let rebalanced_report = FleetSim::new(
        build_fleet(),
        Box::new(DeadlineAwareRouter::new()) as Box<dyn Router>,
        arrivals,
        outages,
    )
    .with_rebalancer(
        Box::new(EdfRebalancer::new()),
        InterClusterLink::datacenter(),
    )
    .run();
    RebalanceComparison {
        static_da: summarize(&static_report),
        rebalanced: summarize(&rebalanced_report),
        migrations: rebalanced_report.migrations,
        rescues: rebalanced_report.rescues,
        migrated_gpu_seconds: rebalanced_report.migrated_gpu_seconds,
        handoff_histogram: rebalanced_report.handoff_delay_histogram(),
        migration_digest: rebalanced_report.migration_digest,
    }
}

fn summarize(report: &FleetReport) -> RouterResult {
    RouterResult {
        router: report.router.clone(),
        sar: report.sar(),
        goodput: report.goodput(),
        shed: report.total_shed(),
        rerouted: report.rerouted,
        load_imbalance: report.load_imbalance(),
        routed: report.clusters.iter().map(|c| c.routed).collect(),
        routing_digest: report.routing_digest,
        outcome_digest: report.outcome_digest,
    }
}

/// Runs every shipped router over the identical scenario.
pub fn run_fleet_perf(config: &FleetPerfConfig, mode: &str) -> FleetPerfReport {
    let routers: Vec<Box<dyn Router>> = vec![
        Box::new(RoundRobinRouter::new()),
        Box::new(JoinShortestQueueRouter::new()),
        Box::new(PowerOfTwoRouter::new(config.seed)),
        Box::new(DeadlineAwareRouter::new()),
    ];
    let mut results = Vec::with_capacity(routers.len());
    let mut clusters = Vec::new();
    let mut requests = 0;
    for router in routers {
        let report = run_router(config, router);
        clusters = report.clusters.iter().map(|c| c.name.clone()).collect();
        requests = report.total_requests();
        results.push(summarize(&report));
    }
    FleetPerfReport {
        seed: config.seed,
        mode: mode.to_owned(),
        clusters,
        requests,
        routers: results,
        rebalance: run_rebalance_comparison(config),
    }
}

/// Renders one router summary as a single-line JSON object.
fn router_json(r: &RouterResult) -> String {
    let routed: Vec<String> = r.routed.iter().map(usize::to_string).collect();
    format!(
        "{{\"router\": \"{}\", \"sar\": {:.6}, \"goodput\": {:.6}, \
         \"shed\": {}, \"rerouted\": {}, \"load_imbalance\": {:.6}, \
         \"routed\": [{}], \"routing_digest\": \"{:#018x}\", \
         \"outcome_digest\": \"{:#018x}\"}}",
        r.router,
        r.sar,
        r.goodput,
        r.shed,
        r.rerouted,
        r.load_imbalance,
        routed.join(", "),
        r.routing_digest,
        r.outcome_digest,
    )
}

impl FleetPerfReport {
    /// Renders the `BENCH_fleet.json` artefact (schema v2: v1's router
    /// table plus the skewed-outage rebalancing comparison).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"tetriserve-bench-fleet/v2\",\n");
        out.push_str(&format!("  \"seed\": \"{:#x}\",\n", self.seed));
        out.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        let names: Vec<String> = self.clusters.iter().map(|c| format!("\"{c}\"")).collect();
        out.push_str(&format!("  \"clusters\": [{}],\n", names.join(", ")));
        out.push_str(&format!("  \"requests\": {},\n", self.requests));
        out.push_str("  \"routers\": [\n");
        for (i, r) in self.routers.iter().enumerate() {
            out.push_str(&format!(
                "    {}{}\n",
                router_json(r),
                if i + 1 == self.routers.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n");
        let rb = &self.rebalance;
        let hist: Vec<String> = rb.handoff_histogram.iter().map(usize::to_string).collect();
        out.push_str("  \"rebalance\": {\n");
        out.push_str("    \"scenario\": \"skewed-outage\",\n");
        out.push_str(&format!(
            "    \"static\": {},\n",
            router_json(&rb.static_da)
        ));
        out.push_str(&format!(
            "    \"rebalanced\": {},\n",
            router_json(&rb.rebalanced)
        ));
        out.push_str(&format!("    \"migrations\": {},\n", rb.migrations));
        out.push_str(&format!("    \"rescues\": {},\n", rb.rescues));
        out.push_str(&format!(
            "    \"migrated_gpu_seconds\": {:.6},\n",
            rb.migrated_gpu_seconds
        ));
        out.push_str(&format!(
            "    \"handoff_delay_histogram\": [{}],\n",
            hist.join(", ")
        ));
        out.push_str(&format!(
            "    \"migration_digest\": \"{:#018x}\"\n",
            rb.migration_digest
        ));
        out.push_str("  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_and_multiplexed() {
        let config = FleetPerfConfig::smoke();
        let a = fleet_workload(&config);
        let b = fleet_workload(&config);
        assert_eq!(a.len(), 60);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(a
            .iter()
            .enumerate()
            .all(|(i, s)| s.id == RequestId(i as u64)));
    }

    #[test]
    fn deadline_aware_beats_round_robin_on_the_heterogeneous_fleet() {
        let config = FleetPerfConfig::smoke();
        let rr = run_router(&config, Box::new(RoundRobinRouter::new()));
        let da = run_router(&config, Box::new(DeadlineAwareRouter::new()));
        assert!(
            da.sar() > rr.sar(),
            "deadline-aware {} must strictly beat round-robin {}",
            da.sar(),
            rr.sar()
        );
    }

    #[test]
    fn every_router_is_digest_stable() {
        let config = FleetPerfConfig::smoke();
        let a = run_fleet_perf(&config, "smoke");
        let b = run_fleet_perf(&config, "smoke");
        for (ra, rb) in a.routers.iter().zip(&b.routers) {
            assert_eq!(ra.routing_digest, rb.routing_digest, "{}", ra.router);
            assert_eq!(ra.outcome_digest, rb.outcome_digest, "{}", ra.router);
        }
        // Re-routes are rare under TetriServe clusters — arrivals backfill
        // into dispatches almost immediately, so the outage usually finds
        // no *queued fresh* work to move. A guaranteed re-route with a
        // pinned router lives in the fleet determinism integration suite;
        // here we only pin that the count itself is deterministic.
        for (ra, rb) in a.routers.iter().zip(&b.routers) {
            assert_eq!(ra.rerouted, rb.rerouted, "{}", ra.router);
        }
    }

    #[test]
    fn json_schema_is_well_formed() {
        let report = run_fleet_perf(&FleetPerfConfig::smoke(), "smoke");
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"tetriserve-bench-fleet/v2\""));
        assert!(json.contains("\"router\": \"round-robin\""));
        assert!(json.contains("\"router\": \"deadline-aware\""));
        assert_eq!(
            json.matches("\"routing_digest\"").count(),
            6,
            "one digest per router, plus the static/rebalanced pair"
        );
        assert!(json.contains("\"rebalance\": {"));
        assert!(json.contains("\"scenario\": \"skewed-outage\""));
        assert!(json.contains("\"migration_digest\""));
        assert!(json.contains("\"router\": \"deadline-aware+edf-rebalance\""));
    }

    #[test]
    fn rebalancing_strictly_beats_static_on_the_skewed_outage() {
        let cmp = run_rebalance_comparison(&FleetPerfConfig::smoke());
        assert!(
            cmp.rebalanced.sar > cmp.static_da.sar,
            "rebalanced sar {} must strictly beat static sar {}",
            cmp.rebalanced.sar,
            cmp.static_da.sar
        );
        assert!(cmp.migrations > 0, "the showcase must actually migrate");
        assert_eq!(
            cmp.handoff_histogram.iter().sum::<usize>(),
            cmp.migrations,
            "every migration lands in exactly one histogram bucket"
        );
    }

    #[test]
    fn rebalance_comparison_is_digest_stable() {
        let config = FleetPerfConfig::smoke();
        let a = run_rebalance_comparison(&config);
        let b = run_rebalance_comparison(&config);
        assert_eq!(a.rebalanced.routing_digest, b.rebalanced.routing_digest);
        assert_eq!(a.rebalanced.outcome_digest, b.rebalanced.outcome_digest);
        assert_eq!(a.migration_digest, b.migration_digest);
        assert_eq!(a.migrations, b.migrations);
    }
}
