//! EDF-RSSP: an earliest-deadline-first extension of RSSP (not in the
//! paper; an ablation this reproduction adds).
//!
//! RSSP is deadline-*blind* FIFO; TetriServe is deadline-aware *and*
//! adapts parallelism per step. EDF-RSSP sits between them: requests run at
//! RSSP's static per-resolution degrees, but the queue is ordered by
//! deadline and hopeless requests (those that cannot meet their deadline
//! even if started now) are deferred behind savable ones. Comparing the
//! three separates how much of TetriServe's win comes from deadline
//! awareness alone versus step-level parallelism adaptation.

use std::collections::BTreeMap;

use tetriserve_core::policy::{DispatchPlan, Policy, PolicyEvent, SchedContext};
use tetriserve_costmodel::{CostTable, Resolution};
use tetriserve_simulator::time::{SimDuration, SimTime};
use tetriserve_simulator::trace::Batch;

use crate::rssp::RsspPolicy;

/// The EDF-ordered static-degree baseline.
#[derive(Debug, Clone)]
pub struct EdfRsspPolicy {
    inner: RsspPolicy,
}

impl EdfRsspPolicy {
    /// Derives the per-resolution degree table exactly like
    /// [`RsspPolicy::from_profile`].
    pub fn from_profile(
        costs: &CostTable,
        slo_targets: &BTreeMap<Resolution, SimDuration>,
    ) -> Self {
        EdfRsspPolicy {
            inner: RsspPolicy::from_profile(costs, slo_targets),
        }
    }

    /// The static degree for a resolution.
    pub fn degree_for(&self, res: Resolution) -> usize {
        self.inner.degree_for(res)
    }
}

impl Policy for EdfRsspPolicy {
    fn name(&self) -> String {
        "EDF-RSSP".to_owned()
    }

    fn reacts_to(&self, event: PolicyEvent) -> bool {
        matches!(event, PolicyEvent::Arrival | PolicyEvent::DispatchDone)
    }

    fn next_tick(&self, _now: SimTime) -> Option<SimTime> {
        None
    }

    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Vec<DispatchPlan> {
        let mut plans = Vec::new();
        let mut free = ctx.free;
        let topo = ctx.costs.cluster().topology();

        // EDF with hopeless-deferral: savable requests (deadline still
        // reachable if started now) sorted by deadline, then the rest.
        let mut queue = Vec::new();
        ctx.tracker.schedulable_ids_into(ctx.now, &mut queue);
        queue.sort_by_key(|id| {
            let r = ctx.tracker.get(*id).expect("tracked");
            let k = self.degree_for(r.spec.resolution);
            let service =
                ctx.costs.step_time(r.spec.resolution, k, 1) * u64::from(r.remaining_steps);
            let hopeless = ctx.now + service > r.spec.deadline;
            (hopeless, r.spec.deadline, *id)
        });

        for id in queue {
            let r = ctx.tracker.get(id).expect("tracked");
            let k = self.degree_for(r.spec.resolution);
            let Some(block) = topo.aligned_blocks(k).find(|b| free.is_superset_of(*b)) else {
                // Unlike FIFO, EDF skips a request whose block size is
                // unavailable and tries narrower later arrivals.
                continue;
            };
            free = free.difference(block);
            plans.push(DispatchPlan {
                requests: Batch::one(id),
                gpus: block,
                steps: r.remaining_steps,
            });
        }
        plans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetriserve_core::request::RequestSpec;
    use tetriserve_core::server::Server;
    use tetriserve_core::tracker::RequestTracker;
    use tetriserve_costmodel::{ClusterSpec, DitModel, Profiler};
    use tetriserve_simulator::gpuset::GpuSet;
    use tetriserve_simulator::trace::{RequestId, TenantId};

    fn costs() -> CostTable {
        Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic()
    }

    fn slo_targets() -> BTreeMap<Resolution, SimDuration> {
        BTreeMap::from([
            (Resolution::R256, SimDuration::from_secs_f64(1.5)),
            (Resolution::R512, SimDuration::from_secs_f64(2.0)),
            (Resolution::R1024, SimDuration::from_secs_f64(3.0)),
            (Resolution::R2048, SimDuration::from_secs_f64(5.0)),
        ])
    }

    fn spec(id: u64, res: Resolution, arrival: f64, slo: f64) -> RequestSpec {
        RequestSpec {
            tenant: TenantId::UNTAGGED,
            id: RequestId(id),
            resolution: res,
            arrival: SimTime::from_secs_f64(arrival),
            deadline: SimTime::from_secs_f64(arrival + slo),
            total_steps: 50,
            stages: tetriserve_costmodel::StageProfile::FLAT,
        }
    }

    #[test]
    fn orders_by_deadline_not_arrival() {
        let c = costs();
        let mut tracker = RequestTracker::new();
        // Request 0 arrives first but has a later deadline than request 1.
        tracker.admit(spec(0, Resolution::R512, 0.0, 10.0));
        tracker.admit(spec(1, Resolution::R512, 0.0, 2.0));
        let mut p = EdfRsspPolicy::from_profile(&c, &slo_targets());
        let failures = tetriserve_simulator::failure::FailurePlan::none();
        let ctx = SchedContext {
            now: SimTime::ZERO,
            free: GpuSet::single(tetriserve_simulator::gpuset::GpuId(0)),
            healthy: GpuSet::first_n(8),
            n_gpus: 8,
            tracker: &tracker,
            costs: &c,
            failures: &failures,
        };
        let plans = p.schedule(&ctx);
        assert_eq!(plans.len(), 1, "only one free GPU");
        assert_eq!(*plans[0].requests, [RequestId(1)], "tighter deadline first");
    }

    #[test]
    fn hopeless_requests_yield_to_savable_ones() {
        let c = costs();
        let mut tracker = RequestTracker::new();
        // Hopeless: a 2048² with 1 s left (needs ~4.5 s at SP=8).
        tracker.admit(spec(0, Resolution::R2048, 0.0, 1.0));
        // Savable 2048² with a fresh 5 s budget.
        tracker.admit(spec(1, Resolution::R2048, 0.0, 5.0));
        let mut p = EdfRsspPolicy::from_profile(&c, &slo_targets());
        let failures = tetriserve_simulator::failure::FailurePlan::none();
        let ctx = SchedContext {
            now: SimTime::ZERO,
            free: GpuSet::first_n(8),
            healthy: GpuSet::first_n(8),
            n_gpus: 8,
            tracker: &tracker,
            costs: &c,
            failures: &failures,
        };
        let plans = p.schedule(&ctx);
        assert_eq!(
            *plans[0].requests,
            [RequestId(1)],
            "savable first despite later deadline"
        );
    }

    #[test]
    fn edf_beats_fifo_rssp_under_contention() {
        // A late-arriving tight request behind a loose head: FIFO kills it,
        // EDF saves it.
        let c = costs();
        let specs = vec![
            spec(0, Resolution::R1024, 0.0, 30.0), // loose head
            spec(1, Resolution::R1024, 0.1, 3.0),  // tight follower
        ];
        let edf = Server::new(c.clone(), EdfRsspPolicy::from_profile(&c, &slo_targets()))
            .run(specs.clone());
        let fifo = Server::new(c.clone(), RsspPolicy::from_profile(&c, &slo_targets())).run(specs);
        assert!(
            edf.sar() >= fifo.sar(),
            "edf {} fifo {}",
            edf.sar(),
            fifo.sar()
        );
        assert!(
            edf.outcomes[1].met_slo(),
            "EDF must prioritise the tight follower: {:?}",
            edf.outcomes[1]
        );
    }

    #[test]
    fn still_static_in_parallelism() {
        // Every executed step of a request runs at its resolution's fixed
        // degree — no adaptation.
        let c = costs();
        let report = Server::new(c.clone(), EdfRsspPolicy::from_profile(&c, &slo_targets()))
            .run(vec![spec(0, Resolution::R1024, 0.0, 3.0)]);
        let expect =
            EdfRsspPolicy::from_profile(&c, &slo_targets()).degree_for(Resolution::R1024) as f64;
        assert!((report.outcomes[0].mean_sp_degree() - expect).abs() < 1e-9);
    }
}
