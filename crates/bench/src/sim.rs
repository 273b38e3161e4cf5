//! Million-request simulator throughput harness (`BENCH_sim.json`).
//!
//! The other `perf_*` harnesses measure *scheduling* cost; this one
//! measures the *simulator itself*: how many requests per host second the
//! fleet co-simulation sustains end to end. It drives a synthetic
//! SplitMix workload of ≥1M requests (full mode) through the
//! heterogeneous three-cluster fleet under the deadline-aware router with
//! [`AdmissionPolicy::ShedInfeasible`] on every cluster, using the serial
//! fleet driver with pre-warmed feasibility scratch.
//!
//! Two regressions are gated:
//!
//! 1. **Throughput floor** — `sim_requests_per_sec` must not fall below a
//!    conservative per-mode floor (set at ~1/5 of the measured rate, so
//!    machine noise never trips it but a quadratic regression — e.g. the
//!    full-tracker feasibility scan this harness was built to kill —
//!    does).
//! 2. **Zero-allocation steady state** — the per-cluster
//!    [`FeasScratch`](tetriserve_core::feasibility::FeasScratch) is
//!    pre-sized before the run, so `feas_grow_events` summed over the
//!    fleet must be exactly 0.
//!
//! The routing and outcome digests depend only on the seed; the tests
//! below run the harness twice and require them bit-identical.
//!
//! Wall-clock fields (`host_seconds`, `sim_requests_per_sec`) vary run to
//! run; every other field is deterministic.
//!
//! [`SimPerfReport::to_json`] renders the `tetriserve-bench-sim/v1`
//! schema without a serialisation dependency.

use std::time::Instant;

use tetriserve_core::{
    AdmissionPolicy, Policy, RequestSpec, ServerConfig, TetriServeConfig, TetriServePolicy,
};
use tetriserve_costmodel::{ClusterSpec, DitModel, Profiler, Resolution};
use tetriserve_fleet::{DeadlineAwareRouter, FleetCluster, FleetSim};
use tetriserve_metrics::FleetReport;
use tetriserve_simulator::digest::SplitMix;
use tetriserve_simulator::time::SimTime;
use tetriserve_simulator::trace::{RequestId, TenantId};
use tetriserve_workload::slo::SloPolicy;

/// Live requests the per-cluster feasibility scratch is pre-sized for.
/// Admission sheds the infeasible tail, so the true live high-water mark
/// stays orders of magnitude below this; the margin makes the
/// zero-grow-events gate robust to workload retuning.
pub const SCRATCH_WARM: usize = 1 << 14;

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct SimPerfConfig {
    /// Workload seed (drives interarrivals and resolutions).
    pub seed: u64,
    /// Total requests driven through the fleet.
    pub requests: usize,
    /// Fleet-wide mean arrival rate, requests/second. Deliberately far
    /// above fleet capacity so admission control and shedding stay hot —
    /// the worst case for the feasibility path.
    pub rate_per_sec: f64,
    /// SLO scale multiplier over the paper's base targets.
    pub slo_scale: f64,
    /// Gate: minimum simulated requests per host second.
    pub floor_rps: f64,
}

impl SimPerfConfig {
    /// The full measurement: one million requests.
    pub fn full() -> SimPerfConfig {
        SimPerfConfig {
            seed: 0x51b_e7c,
            requests: 1_000_000,
            rate_per_sec: 50.0,
            slo_scale: 1.2,
            floor_rps: 8_000.0,
        }
    }

    /// CI-sized smoke run: same seed and rate, 20k requests.
    pub fn smoke() -> SimPerfConfig {
        SimPerfConfig {
            requests: 20_000,
            floor_rps: 2_000.0,
            ..SimPerfConfig::full()
        }
    }
}

/// The harness output — the `BENCH_sim.json` artefact.
#[derive(Debug, Clone)]
pub struct SimPerfReport {
    /// Seed the run used.
    pub seed: u64,
    /// `"full"` or `"smoke"`.
    pub mode: String,
    /// Requests driven through the fleet.
    pub requests: usize,
    /// Requests that completed inside the horizon.
    pub completed: usize,
    /// Requests shed anywhere (fleet router + cluster admission).
    pub shed: usize,
    /// Fleet SLO attainment.
    pub sar: f64,
    /// Simulated horizon (fleet makespan), seconds.
    pub sim_horizon_s: f64,
    /// Host wall-clock for the measured run, seconds.
    pub host_seconds: f64,
    /// The headline: requests per host second.
    pub sim_requests_per_sec: f64,
    /// Simulator events processed across all clusters.
    pub events: u64,
    /// High-water mark of the fleet-wide live backlog.
    pub peak_backlog: usize,
    /// Feasibility-scratch fills across the fleet.
    pub feas_calls: u64,
    /// Scratch growths across the fleet — the zero-allocation gate
    /// demands exactly 0 after the pre-run warm-up.
    pub feas_grow_events: u64,
    /// Heap allocations the scratch reuse avoided.
    pub feas_allocations_avoided: u64,
    /// FNV-1a digest over the routing-decision stream (pinned per seed).
    pub routing_digest: u64,
    /// FNV-1a digest over fleet-wide outcomes (pinned per seed).
    pub outcome_digest: u64,
    /// The throughput floor this run was gated against.
    pub floor_rps: f64,
}

/// The deterministic synthetic workload: exponential interarrivals at
/// `rate_per_sec` and uniform production resolutions, both drawn from one
/// [`SplitMix`] stream, with the paper's per-resolution SLO budgets.
/// Sorted by `(arrival, id)` by construction.
pub fn synthetic_workload(config: &SimPerfConfig) -> Vec<RequestSpec> {
    let slo = SloPolicy::paper_targets().scaled(config.slo_scale);
    let steps = DitModel::flux_dev().steps;
    let mut rng = SplitMix(config.seed);
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(config.requests);
    for id in 0..config.requests {
        let r = rng.next_u64();
        let res = Resolution::PRODUCTION[(r % 4) as usize];
        // Inverse-CDF exponential draw from the word's top 53 bits,
        // clamped away from 0 so ln() stays finite.
        let u = ((r >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
        t += -u.ln() / config.rate_per_sec;
        let arrival = SimTime::from_secs_f64(t);
        out.push(RequestSpec {
            tenant: TenantId::UNTAGGED,
            id: RequestId(id as u64),
            resolution: res,
            arrival,
            deadline: arrival + slo.budget(res),
            total_steps: steps,
            stages: tetriserve_costmodel::StageProfile::FLAT,
        });
    }
    out
}

/// The same heterogeneous fleet as `BENCH_fleet.json` — two 8×H100 nodes
/// and one 4×A40 node — but with `ShedInfeasible` admission so the live
/// backlog stays bounded under the deliberately overloaded arrival rate.
fn build_fleet() -> Vec<FleetCluster> {
    let cluster = |name: &str, spec: ClusterSpec| {
        let costs = Profiler::new(DitModel::flux_dev(), spec).analytic();
        let policy: Box<dyn Policy> =
            Box::new(TetriServePolicy::new(TetriServeConfig::default(), &costs));
        FleetCluster {
            name: name.to_owned(),
            costs,
            policy,
            config: ServerConfig {
                admission: AdmissionPolicy::ShedInfeasible,
                ..ServerConfig::default()
            },
        }
    };
    vec![
        cluster("h100x8-a", ClusterSpec::h100x8()),
        cluster("h100x8-b", ClusterSpec::h100x8()),
        cluster("a40x4", ClusterSpec::a40x4()),
    ]
}

/// Runs the workload through the fleet once.
pub fn run_sim_once(config: &SimPerfConfig) -> FleetReport {
    let mut sim = FleetSim::new(
        build_fleet(),
        DeadlineAwareRouter::new(),
        synthetic_workload(config),
        vec![],
    );
    sim.warm_up_scratch(SCRATCH_WARM);
    sim.run()
}

/// Runs the measured harness: the fleet driver over the configured
/// workload, timed wall-clock, folded into the report.
pub fn run_sim_perf(config: &SimPerfConfig, mode: &str) -> SimPerfReport {
    // tetrilint: allow(wall-clock) -- this *is* the measurement: host
    // seconds per simulated request. Digests are folded from simulated
    // time only and never depend on it.
    let started = Instant::now();
    let report = run_sim_once(config);
    let host_seconds = started.elapsed().as_secs_f64();

    let completed = report
        .all_outcomes()
        .iter()
        .filter(|o| o.completion.is_some())
        .count();
    let events: u64 = report.clusters.iter().map(|c| c.report.events).sum();
    let feas_calls: u64 = report.clusters.iter().map(|c| c.report.feas_calls).sum();
    let feas_grow_events: u64 = report
        .clusters
        .iter()
        .map(|c| c.report.feas_grow_events)
        .sum();
    let feas_allocations_avoided: u64 = report
        .clusters
        .iter()
        .map(|c| c.report.feas_allocations_avoided)
        .sum();
    SimPerfReport {
        seed: config.seed,
        mode: mode.to_owned(),
        requests: config.requests,
        completed,
        shed: report.total_shed(),
        sar: report.sar(),
        sim_horizon_s: report.makespan().as_secs_f64(),
        host_seconds,
        sim_requests_per_sec: config.requests as f64 / host_seconds.max(f64::MIN_POSITIVE),
        events,
        peak_backlog: report.peak_backlog,
        feas_calls,
        feas_grow_events,
        feas_allocations_avoided,
        routing_digest: report.routing_digest,
        outcome_digest: report.outcome_digest,
        floor_rps: config.floor_rps,
    }
}

impl SimPerfReport {
    /// The regression gates: the throughput floor and the
    /// zero-allocation steady state. `Err` carries a human-readable
    /// description of the first violated gate.
    pub fn check_gates(&self) -> Result<(), String> {
        if self.feas_grow_events != 0 {
            return Err(format!(
                "feasibility scratch grew {} time(s) after warm-up; the \
                 steady-state event loop must be allocation-free",
                self.feas_grow_events
            ));
        }
        if self.sim_requests_per_sec < self.floor_rps {
            return Err(format!(
                "simulated {:.0} requests/s, below the {:.0} floor",
                self.sim_requests_per_sec, self.floor_rps
            ));
        }
        Ok(())
    }

    /// Renders the `BENCH_sim.json` artefact (schema
    /// `tetriserve-bench-sim/v1`, documented in DESIGN.md).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": \"tetriserve-bench-sim/v1\",\n");
        s.push_str(&format!("  \"seed\": \"{:#x}\",\n", self.seed));
        s.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        s.push_str(&format!("  \"requests\": {},\n", self.requests));
        s.push_str(&format!("  \"completed\": {},\n", self.completed));
        s.push_str(&format!("  \"shed\": {},\n", self.shed));
        s.push_str(&format!("  \"sar\": {:.6},\n", self.sar));
        s.push_str(&format!(
            "  \"sim_horizon_s\": {:.3},\n",
            self.sim_horizon_s
        ));
        s.push_str(&format!("  \"host_seconds\": {:.3},\n", self.host_seconds));
        s.push_str(&format!(
            "  \"sim_requests_per_sec\": {:.1},\n",
            self.sim_requests_per_sec
        ));
        s.push_str(&format!("  \"floor_rps\": {:.1},\n", self.floor_rps));
        s.push_str(&format!("  \"events\": {},\n", self.events));
        s.push_str(&format!("  \"peak_backlog\": {},\n", self.peak_backlog));
        s.push_str(&format!(
            "  \"feasibility_scratch\": {{\"calls\": {}, \"grow_events\": {}, \
             \"allocations_avoided\": {}}},\n",
            self.feas_calls, self.feas_grow_events, self.feas_allocations_avoided
        ));
        s.push_str(&format!(
            "  \"routing_digest\": \"{:#018x}\",\n",
            self.routing_digest
        ));
        s.push_str(&format!(
            "  \"outcome_digest\": \"{:#018x}\"\n",
            self.outcome_digest
        ));
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny config for debug-mode tests: the incremental-vs-full
    /// feasibility `debug_assert` cross-check makes debug runs
    /// intentionally quadratic, so keep the request count small.
    fn tiny() -> SimPerfConfig {
        SimPerfConfig {
            requests: 400,
            floor_rps: 0.0,
            ..SimPerfConfig::smoke()
        }
    }

    #[test]
    fn workload_is_deterministic_and_sorted() {
        let config = tiny();
        let a = synthetic_workload(&config);
        let b = synthetic_workload(&config);
        assert_eq!(a.len(), 400);
        assert_eq!(a, b);
        assert!(a
            .windows(2)
            .all(|w| (w[0].arrival, w[0].id) <= (w[1].arrival, w[1].id)));
        assert!(a.iter().all(|s| s.deadline > s.arrival));
        // All four production resolutions appear.
        for res in Resolution::PRODUCTION {
            assert!(a.iter().any(|s| s.resolution == res), "{res} missing");
        }
    }

    #[test]
    fn harness_is_digest_stable_and_allocation_free() {
        let config = tiny();
        let a = run_sim_perf(&config, "test");
        let b = run_sim_perf(&config, "test");
        assert_eq!(a.routing_digest, b.routing_digest);
        assert_eq!(a.outcome_digest, b.outcome_digest);
        assert_eq!(a.events, b.events);
        assert_eq!(a.peak_backlog, b.peak_backlog);
        assert_eq!(a.feas_grow_events, 0, "scratch must not grow after warm-up");
        assert!(a.feas_calls > 0, "the feasibility path must be exercised");
        assert!(a.peak_backlog > 0, "the overload must build a backlog");
        // The overloaded rate must actually shed — that is the hot path
        // this harness exists to keep fast.
        assert!(a.shed > 0);
        a.check_gates().expect("gates must pass at floor 0");
    }

    #[test]
    fn gates_catch_violations() {
        let config = tiny();
        let mut report = run_sim_perf(&config, "test");
        report.floor_rps = f64::INFINITY;
        assert!(report.check_gates().unwrap_err().contains("below"));
        report.floor_rps = 0.0;
        report.feas_grow_events = 3;
        assert!(report.check_gates().unwrap_err().contains("grew"));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let json = run_sim_perf(&tiny(), "smoke").to_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"schema\": \"tetriserve-bench-sim/v1\""));
        assert!(json.contains("\"mode\": \"smoke\""));
        assert!(json.contains("\"sim_requests_per_sec\""));
        assert!(json.contains("\"routing_digest\": \"0x"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }
}
