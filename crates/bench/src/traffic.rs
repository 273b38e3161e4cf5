//! Multi-tenant traffic harness (`BENCH_traffic.json`).
//!
//! The open-loop frontend's showcase: the heterogeneous three-cluster
//! fleet serves four tenants *streamed online* — requests are generated
//! as the lockstep clock advances, never materialised up front:
//!
//! * `interactive` — Interactive tier (paper-tight SLOs), steady
//!   Poisson;
//! * `batch` — Batch tier (2.5× budgets), skewed mix, MMPP-bursty;
//! * `flash-a` / `flash-b` — Standard tier, both warped by one shared
//!   [`BurstCoupler`](tetriserve_traffic::BurstCoupler) timeline, so
//!   their flash crowds land *simultaneously*.
//!
//! The correlated surge is the stressor: when both flash tenants spike
//! at once, round-robin keeps shipping tight-deadline work to the ~6.6×
//! slower A40 node and the surge tenants' SAR collapses, while the
//! deadline-aware router's feasibility gate routes around it. The
//! artefact therefore compares routers on *fairness*: worst-tenant SAR
//! and Jain's index over the per-tenant SAR vector, alongside fleet SAR
//! and goodput. CI fails unless deadline-aware strictly beats
//! round-robin on worst-tenant SAR, and unless two in-process runs agree
//! bit-for-bit on every digest and per-tenant metric.

use tetriserve_core::{Policy, ServerConfig, TetriServeConfig, TetriServePolicy};
use tetriserve_costmodel::{ClusterSpec, DitModel, Profiler};
use tetriserve_fleet::{DeadlineAwareRouter, FleetCluster, FleetSim, RoundRobinRouter, Router};
use tetriserve_metrics::{FleetReport, TenantSummary};
use tetriserve_traffic::{
    ArrivalShape, CouplingSpec, PriorityTier, StreamingArrivals, TenantSpec, TrafficModel,
};
use tetriserve_workload::mix::ResolutionMix;
use tetriserve_workload::slo::SloPolicy;

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct TrafficPerfConfig {
    /// Seed for tenant sub-seeds and the shared burst coupler.
    pub seed: u64,
    /// Total fleet-wide requests pulled from the merged stream.
    pub total: usize,
    /// Base SLO scale multiplier (tiers scale on top of this).
    pub slo_scale: f64,
}

impl TrafficPerfConfig {
    /// The full measurement: 320 streamed requests across four tenants.
    pub fn full() -> TrafficPerfConfig {
        TrafficPerfConfig {
            seed: 0x7aff1c,
            total: 320,
            slo_scale: 1.2,
        }
    }

    /// CI-sized smoke run: same shape, 96 requests.
    pub fn smoke() -> TrafficPerfConfig {
        TrafficPerfConfig {
            total: 96,
            ..TrafficPerfConfig::full()
        }
    }
}

/// The four-tenant traffic model every router is judged on.
pub fn traffic_model(config: &TrafficPerfConfig) -> TrafficModel {
    let slo = SloPolicy::paper_targets().scaled(config.slo_scale);
    TrafficModel::new(vec![
        TenantSpec::new("interactive", 14.0, config.seed ^ 1)
            .with_tier(PriorityTier::Interactive)
            .with_slo(slo.clone()),
        TenantSpec::new("batch", 8.0, config.seed ^ 2)
            .with_shape(ArrivalShape::Bursty {
                mean_rate_per_min: 8.0,
            })
            .with_mix(ResolutionMix::skewed())
            .with_tier(PriorityTier::Batch)
            .with_slo(slo.clone()),
        TenantSpec::new("flash-a", 8.0, config.seed ^ 3)
            .with_slo(slo.clone())
            .coupled(),
        TenantSpec::new("flash-b", 8.0, config.seed ^ 4)
            .with_slo(slo)
            .coupled(),
    ])
    .with_coupling(CouplingSpec::standard(config.seed ^ 5))
}

/// The heterogeneous fleet: two 8×H100 nodes and one ~6.6×-slower 4×A40
/// node, mirroring the `BENCH_fleet.json` scenario.
fn build_fleet() -> Vec<FleetCluster> {
    let node = |name: &str, spec: ClusterSpec| {
        let costs = Profiler::new(DitModel::flux_dev(), spec).analytic();
        let policy: Box<dyn Policy> =
            Box::new(TetriServePolicy::new(TetriServeConfig::default(), &costs));
        FleetCluster {
            name: name.to_owned(),
            costs,
            policy,
            config: ServerConfig::default(),
        }
    };
    vec![
        node("h100x8-a", ClusterSpec::h100x8()),
        node("h100x8-b", ClusterSpec::h100x8()),
        node("a40x4", ClusterSpec::a40x4()),
    ]
}

/// Streams the shared traffic model into the fleet under one router.
pub fn run_traffic_router(config: &TrafficPerfConfig, router: Box<dyn Router>) -> FleetReport {
    let source = StreamingArrivals::new(
        traffic_model(config).online(config.total),
        DitModel::flux_dev().steps,
    );
    FleetSim::streaming(build_fleet(), router, Box::new(source), vec![]).run()
}

/// One tenant's slice in a router's run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSlice {
    /// Tenant name from the traffic model (stream-index order).
    pub name: String,
    /// Service tier label.
    pub tier: String,
    /// Requests attributed to the tenant.
    pub requests: usize,
    /// Requests shed before execution.
    pub shed: usize,
    /// The tenant's SLO attainment.
    pub sar: f64,
    /// The tenant's SLO-met completions per second.
    pub goodput: f64,
}

/// One router's results on the shared streamed scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficRouterResult {
    /// Router display name.
    pub router: String,
    /// Fleet-wide SLO attainment.
    pub sar: f64,
    /// Fleet-wide SLO-met requests per second.
    pub goodput: f64,
    /// Minimum per-tenant SAR — the fairness floor.
    pub worst_tenant_sar: f64,
    /// Jain's index over the per-tenant SAR vector.
    pub fairness: f64,
    /// Per-tenant slices, in tenant-index order.
    pub tenants: Vec<TenantSlice>,
    /// FNV-1a digest over the routing-decision stream.
    pub routing_digest: u64,
    /// FNV-1a digest over fleet-wide outcomes.
    pub outcome_digest: u64,
}

/// The full harness output.
#[derive(Debug)]
pub struct TrafficPerfReport {
    /// Seed the run used.
    pub seed: u64,
    /// `"full"` or `"smoke"`.
    pub mode: String,
    /// Total streamed requests.
    pub requests: usize,
    /// Tenant names, in stream-index order.
    pub tenant_names: Vec<String>,
    /// One entry per router, in the canonical order.
    pub routers: Vec<TrafficRouterResult>,
}

fn summarize(config: &TrafficPerfConfig, report: &FleetReport) -> TrafficRouterResult {
    let model = traffic_model(config);
    let summaries: Vec<TenantSummary> = report.tenant_summaries();
    let tenants = summaries
        .iter()
        .map(|s| {
            let spec = &model.tenants()[s.tenant.0 as usize];
            TenantSlice {
                name: spec.name.clone(),
                tier: spec.tier.label().to_owned(),
                requests: s.requests,
                shed: s.shed,
                sar: s.sar,
                goodput: s.goodput,
            }
        })
        .collect();
    TrafficRouterResult {
        router: report.router.clone(),
        sar: report.sar(),
        goodput: report.goodput(),
        worst_tenant_sar: report.worst_tenant_sar(),
        fairness: report.sar_fairness(),
        tenants,
        routing_digest: report.routing_digest,
        outcome_digest: report.outcome_digest,
    }
}

/// Runs round-robin and deadline-aware routing over the identical
/// streamed scenario.
pub fn run_traffic_perf(config: &TrafficPerfConfig, mode: &str) -> TrafficPerfReport {
    let routers: Vec<Box<dyn Router>> = vec![
        Box::new(RoundRobinRouter::new()),
        Box::new(DeadlineAwareRouter::new()),
    ];
    let mut results = Vec::with_capacity(routers.len());
    let mut requests = 0;
    for router in routers {
        let report = run_traffic_router(config, router);
        requests = report.total_requests();
        results.push(summarize(config, &report));
    }
    TrafficPerfReport {
        seed: config.seed,
        mode: mode.to_owned(),
        requests,
        tenant_names: traffic_model(config)
            .tenants()
            .iter()
            .map(|t| t.name.clone())
            .collect(),
        routers: results,
    }
}

fn tenant_json(t: &TenantSlice) -> String {
    format!(
        "{{\"name\": \"{}\", \"tier\": \"{}\", \"requests\": {}, \
         \"shed\": {}, \"sar\": {:.6}, \"goodput\": {:.6}}}",
        t.name, t.tier, t.requests, t.shed, t.sar, t.goodput,
    )
}

fn router_json(r: &TrafficRouterResult) -> String {
    let tenants: Vec<String> = r.tenants.iter().map(tenant_json).collect();
    format!(
        "{{\"router\": \"{}\", \"sar\": {:.6}, \"goodput\": {:.6}, \
         \"worst_tenant_sar\": {:.6}, \"fairness\": {:.6}, \
         \"tenants\": [{}], \"routing_digest\": \"{:#018x}\", \
         \"outcome_digest\": \"{:#018x}\"}}",
        r.router,
        r.sar,
        r.goodput,
        r.worst_tenant_sar,
        r.fairness,
        tenants.join(", "),
        r.routing_digest,
        r.outcome_digest,
    )
}

impl TrafficPerfReport {
    /// Renders the `BENCH_traffic.json` artefact
    /// (schema `tetriserve-bench-traffic/v1`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"tetriserve-bench-traffic/v1\",\n");
        out.push_str(&format!("  \"seed\": \"{:#x}\",\n", self.seed));
        out.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        out.push_str(&format!("  \"requests\": {},\n", self.requests));
        let names: Vec<String> = self
            .tenant_names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect();
        out.push_str(&format!("  \"tenants\": [{}],\n", names.join(", ")));
        out.push_str("  \"routers\": [\n");
        for (i, r) in self.routers.iter().enumerate() {
            out.push_str(&format!(
                "    {}{}\n",
                router_json(r),
                if i + 1 == self.routers.len() { "" } else { "," },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamed_workload_is_deterministic() {
        let config = TrafficPerfConfig::smoke();
        let a = traffic_model(&config)
            .online(config.total)
            .collect::<Vec<_>>();
        let b = traffic_model(&config)
            .online(config.total)
            .collect::<Vec<_>>();
        assert_eq!(a, b);
        assert_eq!(a.len(), config.total);
    }

    #[test]
    fn deadline_aware_beats_round_robin_on_worst_tenant_sar() {
        let config = TrafficPerfConfig::smoke();
        let rr = run_traffic_router(&config, Box::new(RoundRobinRouter::new()));
        let da = run_traffic_router(&config, Box::new(DeadlineAwareRouter::new()));
        assert!(
            da.worst_tenant_sar() > rr.worst_tenant_sar(),
            "deadline-aware worst-tenant SAR {} must strictly beat round-robin {}",
            da.worst_tenant_sar(),
            rr.worst_tenant_sar()
        );
    }

    #[test]
    fn per_tenant_metrics_are_digest_stable() {
        let config = TrafficPerfConfig::smoke();
        let a = run_traffic_perf(&config, "smoke");
        let b = run_traffic_perf(&config, "smoke");
        for (ra, rb) in a.routers.iter().zip(&b.routers) {
            assert_eq!(ra.routing_digest, rb.routing_digest, "{}", ra.router);
            assert_eq!(ra.outcome_digest, rb.outcome_digest, "{}", ra.router);
            assert_eq!(ra, rb, "per-tenant metrics must be bit-identical");
        }
    }

    #[test]
    fn every_tenant_appears_in_every_summary() {
        let config = TrafficPerfConfig::smoke();
        let report = run_traffic_perf(&config, "smoke");
        for r in &report.routers {
            assert_eq!(r.tenants.len(), 4, "{}", r.router);
            assert!(r.tenants.iter().all(|t| t.requests > 0), "{}", r.router);
        }
    }

    #[test]
    fn json_schema_is_well_formed() {
        let report = run_traffic_perf(&TrafficPerfConfig::smoke(), "smoke");
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"tetriserve-bench-traffic/v1\""));
        assert!(json.contains("\"router\": \"round-robin\""));
        assert!(json.contains("\"router\": \"deadline-aware\""));
        assert!(json.contains("\"worst_tenant_sar\""));
        assert!(json.contains("\"name\": \"flash-a\""));
        assert_eq!(json.matches("\"tier\"").count(), 8, "4 tenants × 2 routers");
    }
}
