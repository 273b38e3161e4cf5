//! One repetition: build a workload's inputs, drive the serial fleet
//! driver to completion, assemble the report, and check the outputs.
//!
//! Only the serial `FleetSim` driver is measured. The parallel lockstep
//! driver spawns a thread scope for every window between arrivals, so on a
//! small host it largely measures the OS scheduler; a change that wants to
//! claim a parallel-driver gain adds its own workload for it.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use tetriserve_core::audit::audit;
use tetriserve_core::{RequestOutcome, ServeReport};
use tetriserve_costmodel::InterClusterLink;
use tetriserve_fleet::{DeadlineAwareRouter, FleetSim, Router};
use tetriserve_metrics::{
    pool_utilization, stage_slo_share, worst_tenant_sar, FleetReport, LatencySummary,
};
use tetriserve_simulator::digest::{fnv1a, FNV_OFFSET};
use tetriserve_simulator::trace::{RequestId, TraceEvent};

use crate::alloc;
use crate::probe::{self, Profile, TimedRouter};
use crate::workloads::{self, Inputs, Workload, SCRATCH_WARM};

/// The serving-quality side of one run, as a user of the fleet sees it.
/// Deterministic for a given workload and seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Requests the source sent.
    pub sent: usize,
    /// Requests that completed (on time or late).
    pub completed: usize,
    /// Requests shed by the router or by cluster admission.
    pub shed: usize,
    /// Requests that neither completed nor were shed (fault retries
    /// exhausted).
    pub failed: usize,
    /// Completed by the deadline ÷ sent.
    pub sar: f64,
    /// Minimum per-tenant SAR.
    pub worst_tenant_sar: f64,
    /// Completed by the deadline with no steps shed ÷ sent.
    pub full_quality_sar: f64,
    /// SLO-met completions per simulated second of makespan.
    pub goodput_rps: f64,
    /// Median arrival → completion latency over completed requests, sim s.
    pub latency_p50_s: f64,
    /// 99th-percentile latency over completed requests, sim s.
    pub latency_p99_s: f64,
    /// SAR of each tenant, in tenant-id order.
    pub tenant_sars: Vec<f64>,
}

impl Summary {
    /// Report assembly: the outcome set, SAR, tenant summaries and latency
    /// percentiles, through the metrics crate's public API. This is the
    /// work `report.ns` times.
    pub fn assemble(report: &FleetReport) -> (Summary, Vec<RequestOutcome>) {
        let outcomes = report.all_outcomes();
        let tenants = report.tenant_summaries();
        let latency = LatencySummary::from_outcomes(&outcomes);
        let count = |f: fn(&RequestOutcome) -> bool| outcomes.iter().filter(|o| f(o)).count();
        let sent = outcomes.len();
        let summary = Summary {
            sent,
            completed: latency.len(),
            shed: count(|o| o.shed),
            failed: count(|o| !o.shed && o.completion.is_none()),
            sar: report.sar(),
            worst_tenant_sar: worst_tenant_sar(&tenants),
            full_quality_sar: count(|o| o.met_slo() && o.steps_shed == 0) as f64
                / sent.max(1) as f64,
            goodput_rps: report.goodput(),
            latency_p50_s: latency.percentile(50.0).unwrap_or(0.0),
            latency_p99_s: latency.percentile(99.0).unwrap_or(0.0),
            tenant_sars: tenants.iter().map(|t| t.sar).collect(),
        };
        (summary, outcomes)
    }
}

/// Simulator-side counts one run leaves in its reports, summed over the
/// fleet. Deterministic for a given workload and seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Totals {
    /// Events the clusters' serving loops processed.
    pub events: u64,
    /// Records in the clusters' execution traces.
    pub trace_records: u64,
    /// EDF feasibility scans.
    pub feas_scans: u64,
    /// `Policy::schedule` calls the servers counted.
    pub sched_calls: u64,
    /// Requests shed by cluster admission (not by the router).
    pub cluster_sheds: u64,
    /// Dispatches aborted by GPU faults.
    pub aborted: u64,
    /// Fault-induced dispatch retries.
    pub retries: u64,
    /// GPU-seconds burned by aborted dispatches.
    pub wasted_gpu_s: f64,
    /// Requests the degrade ladder shed steps from.
    pub rescued: u64,
    /// SLO-met completions served degraded.
    pub degraded_completions: u64,
    /// Steps the degrade ladder removed.
    pub debt_steps: u64,
    /// Migrations the rebalancer enacted.
    pub migrations: u64,
    /// Requests coordinated admission placed instead of shedding.
    pub rescues: u64,
    /// Mean encode-pool busy fraction over disaggregated clusters.
    pub encode_util: f64,
    /// Mean decode-pool busy fraction over disaggregated clusters.
    pub decode_util: f64,
    /// Mean share of each completed request's SLO budget spent denoising.
    pub denoise_share: f64,
}

impl Totals {
    fn of(report: &FleetReport, outcomes: &[RequestOutcome]) -> Totals {
        let sum = |f: fn(&ServeReport) -> u64| report.clusters.iter().map(|c| f(&c.report)).sum();
        let pools: Vec<(f64, f64)> = report
            .clusters
            .iter()
            .filter(|c| c.report.pool.is_disaggregated())
            .map(|c| pool_utilization(&c.report))
            .collect();
        // `fold` from +0.0: an empty f64 `sum` is -0.0.
        let mean = |f: fn(&(f64, f64)) -> f64| {
            pools.iter().map(f).fold(0.0, |a, b| a + b) / pools.len().max(1) as f64
        };
        Totals {
            events: sum(|r| r.events),
            trace_records: sum(|r| r.trace.len() as u64),
            feas_scans: sum(|r| r.feas_calls),
            sched_calls: sum(|r| r.sched_calls),
            cluster_sheds: sum(|r| r.shed_requests as u64),
            aborted: sum(|r| r.aborted_dispatches as u64),
            retries: sum(|r| r.total_retries()),
            wasted_gpu_s: report
                .clusters
                .iter()
                .map(|c| c.report.wasted_gpu_seconds)
                .sum(),
            rescued: sum(|r| r.rescued_requests() as u64),
            degraded_completions: sum(|r| r.degraded_completions() as u64),
            debt_steps: sum(|r| r.quality_debt_steps()),
            migrations: report.migrations as u64,
            rescues: report.rescues as u64,
            encode_util: mean(|p| p.0),
            decode_util: mean(|p| p.1),
            denoise_share: stage_slo_share(outcomes).1,
        }
    }
}

/// Fingerprints of one run's decisions and outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digests {
    /// The driver's routing-decision digest.
    pub routing: u64,
    /// The driver's `(id, completion)` outcome digest.
    pub outcome: u64,
    /// The driver's migration digest.
    pub migration: u64,
    /// Every outcome field the metrics read: tenant, completion, steps
    /// executed and shed, retries, shed flag and stage timestamps.
    pub detail: u64,
}

impl Digests {
    fn of(report: &FleetReport, outcomes: &[RequestOutcome]) -> Digests {
        let micros =
            |t: Option<tetriserve_simulator::time::SimTime>| t.map_or(u64::MAX, |t| t.as_micros());
        let mut detail = FNV_OFFSET;
        for o in outcomes {
            for word in [
                o.id.0,
                u64::from(o.tenant.0),
                micros(o.completion),
                u64::from(o.steps_executed),
                u64::from(o.steps_shed),
                u64::from(o.retries),
                u64::from(o.shed),
                micros(o.encode_done),
                micros(o.denoise_done),
            ] {
                detail = fnv1a(detail, word);
            }
        }
        Digests {
            routing: report.routing_digest,
            outcome: report.outcome_digest,
            migration: report.migration_digest,
            detail,
        }
    }
}

/// One repetition's measurements.
#[derive(Debug)]
pub struct Rep {
    /// Host seconds building the inputs and the fleet, before `run()`.
    pub setup_s: f64,
    /// Host seconds inside `FleetSim::run`.
    pub run_s: f64,
    /// Host seconds assembling the report ([`Summary::assemble`]).
    pub report_s: f64,
    /// Heap allocations inside `FleetSim::run`.
    pub run_allocs: u64,
    /// Heap allocations during report assembly.
    pub report_allocs: u64,
    /// Serving-quality metrics.
    pub summary: Summary,
    /// Simulator-side counts.
    pub totals: Totals,
    /// Decision and outcome fingerprints.
    pub digests: Digests,
    /// The seam recording, for traced repetitions.
    pub profile: Option<Profile>,
    /// The host's slowdown against the reference kernel around this
    /// repetition ([`crate::speed::slowdown`]); 1.0 until the caller
    /// measures it.
    pub slowdown: f64,
}

impl Rep {
    /// Host seconds the user waits for results: the run plus report
    /// assembly.
    pub fn host_s(&self) -> f64 {
        self.run_s + self.report_s
    }

    /// Heap allocations during the run plus report assembly.
    pub fn allocs(&self) -> u64 {
        self.run_allocs + self.report_allocs
    }
}

/// Runs one repetition of `workload` with `requests` requests. A traced
/// repetition runs through the timing shims. With `audit` set, every
/// cluster's trace is also checked with the core auditor, which compares
/// every pair of dispatches and so suits only small runs.
///
/// Fails when the outputs break request conservation or the audit.
pub fn run(
    workload: Workload,
    seed: u64,
    requests: usize,
    traced: bool,
    audit: bool,
) -> Result<Rep, String> {
    let started = Instant::now();
    let inputs = workloads::build(workload, seed, requests);
    if traced {
        drive(
            probe::instrument(inputs),
            TimedRouter(DeadlineAwareRouter::new()),
            started,
            requests,
            true,
            audit,
        )
    } else {
        drive(
            inputs,
            DeadlineAwareRouter::new(),
            started,
            requests,
            false,
            audit,
        )
    }
}

fn drive<R: Router>(
    inputs: Inputs,
    router: R,
    started: Instant,
    requests: usize,
    traced: bool,
    audit_traces: bool,
) -> Result<Rep, String> {
    let mut sim = FleetSim::streaming(inputs.clusters, router, inputs.source, inputs.outages);
    if let Some(rebalancer) = inputs.rebalancer {
        sim = sim.with_rebalancer(rebalancer, InterClusterLink::datacenter());
    }
    sim.warm_up_scratch(SCRATCH_WARM);
    let setup_s = started.elapsed().as_secs_f64();

    if traced {
        probe::begin();
    }
    let allocs_before = alloc::count();
    let run_started = Instant::now();
    let report = sim.run();
    let run_s = run_started.elapsed().as_secs_f64();
    let run_allocs = alloc::count() - allocs_before;
    let profile = traced.then(probe::end);

    let allocs_before = alloc::count();
    let report_started = Instant::now();
    let (summary, outcomes) = Summary::assemble(&report);
    let report_s = report_started.elapsed().as_secs_f64();
    let report_allocs = alloc::count() - allocs_before;

    check_conservation(&summary, &outcomes, requests)?;
    let totals = Totals::of(&report, &outcomes);
    if let Some(p) = &profile {
        // The shims must have seen every request and every scheduling pass
        // the servers counted, or the layer shares would be incomplete.
        let policy_calls = p.layer(probe::Layer::Policy).calls;
        if p.counts.sent != requests as u64 || policy_calls != totals.sched_calls {
            return Err(format!(
                "the shims saw {} requests and {policy_calls} scheduling passes, \
                 expected {requests} and {}",
                p.counts.sent, totals.sched_calls
            ));
        }
    }
    if audit_traces {
        audit_fleet(&report, &outcomes)?;
    }
    Ok(Rep {
        setup_s,
        run_s,
        report_s,
        run_allocs,
        report_allocs,
        totals,
        digests: Digests::of(&report, &outcomes),
        summary,
        profile,
        slowdown: 1.0,
    })
}

/// Runs the core auditor on every cluster's trace. A migrated request
/// executes steps on two clusters but reports them in one outcome, so the
/// per-cluster step check leaves migrated requests out and their steps
/// are conserved across the fleet's traces instead.
fn audit_fleet(report: &FleetReport, outcomes: &[RequestOutcome]) -> Result<(), String> {
    let events = || report.clusters.iter().flat_map(|c| c.report.trace.events());
    let migrated: BTreeSet<RequestId> = events()
        .filter_map(|e| match e {
            TraceEvent::MigrationOut { request, .. } => Some(*request),
            _ => None,
        })
        .collect();
    for c in &report.clusters {
        let stayed: Vec<RequestOutcome> = c
            .report
            .outcomes
            .iter()
            .filter(|o| !migrated.contains(&o.id))
            .copied()
            .collect();
        let violations = audit(&c.report.trace, &stayed);
        if let Some(first) = violations.first() {
            return Err(format!(
                "audit of cluster {}: {} violation(s), first {first:?}",
                c.name,
                violations.len()
            ));
        }
    }
    let mut traced_steps: BTreeMap<RequestId, u64> = BTreeMap::new();
    for e in events() {
        if let TraceEvent::DispatchStart {
            requests, steps, ..
        } = e
        {
            for r in requests.iter().filter(|r| migrated.contains(r)) {
                *traced_steps.entry(*r).or_default() += u64::from(*steps);
            }
        }
    }
    for o in outcomes.iter().filter(|o| migrated.contains(&o.id)) {
        let traced = traced_steps.get(&o.id).copied().unwrap_or(0);
        if traced != u64::from(o.steps_executed) {
            return Err(format!(
                "migrated request {} ran {traced} traced steps but reports {}",
                o.id.0, o.steps_executed
            ));
        }
    }
    Ok(())
}

/// Every sent request has exactly one outcome, and each outcome is
/// exactly one of completed, shed or failed.
fn check_conservation(
    summary: &Summary,
    outcomes: &[RequestOutcome],
    requests: usize,
) -> Result<(), String> {
    if outcomes.len() != requests {
        return Err(format!(
            "request conservation: {} outcomes for {requests} requests sent",
            outcomes.len()
        ));
    }
    // Sources number requests 0..n and `all_outcomes` sorts by id, so any
    // lost or duplicated request shows as a gap here.
    if let Some((i, o)) = outcomes
        .iter()
        .enumerate()
        .find(|(i, o)| o.id.0 != *i as u64)
    {
        return Err(format!(
            "request conservation: outcome {i} belongs to request {}",
            o.id.0
        ));
    }
    if let Some(o) = outcomes.iter().find(|o| o.shed && o.completion.is_some()) {
        return Err(format!("request {} was shed and completed", o.id.0));
    }
    if summary.completed + summary.shed + summary.failed != summary.sent {
        return Err(format!(
            "request conservation: {} completed + {} shed + {} failed != {} sent",
            summary.completed, summary.shed, summary.failed, summary.sent
        ));
    }
    Ok(())
}
