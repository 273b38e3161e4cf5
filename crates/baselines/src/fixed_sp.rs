//! The xDiT fixed-sequence-parallelism baseline.
//!
//! Models xDiT as evaluated in the paper (§6.1 "Baselines"): a constant SP
//! degree `k` for every request, non-preemptive execution, FIFO admission.
//! The node is statically partitioned into `N/k` worker slots of `k`
//! adjacent GPUs each; an arriving request is dispatched *in its entirety*
//! onto the first free slot and holds it until completion. Everything the
//! paper criticises about this design — head-of-line blocking behind large
//! requests, idle GPUs when the queue holds only small requests, no
//! deadline awareness — emerges naturally.

use tetriserve_core::policy::{DispatchPlan, Policy, PolicyEvent, SchedContext};
use tetriserve_simulator::gpuset::GpuSet;
use tetriserve_simulator::time::SimTime;
use tetriserve_simulator::trace::Batch;

/// xDiT with a fixed sequence-parallel degree.
#[derive(Debug, Clone)]
pub struct FixedSpPolicy {
    degree: usize,
}

impl FixedSpPolicy {
    /// Creates the baseline with the given constant degree.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero or not a power of two.
    pub fn new(degree: usize) -> Self {
        assert!(
            degree > 0 && degree.is_power_of_two(),
            "sequence parallel degree must be a positive power of two, got {degree}"
        );
        FixedSpPolicy { degree }
    }

    /// The constant degree.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The static GPU slots this degree partitions an `n`-GPU node into.
    pub fn slots(&self, n_gpus: usize) -> Vec<GpuSet> {
        (0..n_gpus / self.degree)
            .map(|i| GpuSet::contiguous(i * self.degree, self.degree))
            .collect()
    }
}

impl Policy for FixedSpPolicy {
    fn name(&self) -> String {
        format!("xDiT SP={}", self.degree)
    }

    fn reacts_to(&self, event: PolicyEvent) -> bool {
        matches!(event, PolicyEvent::Arrival | PolicyEvent::DispatchDone)
    }

    fn next_tick(&self, _now: SimTime) -> Option<SimTime> {
        None // purely event-driven
    }

    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Vec<DispatchPlan> {
        let mut plans = Vec::new();
        let mut free = ctx.free;
        // FIFO by request id (ids are assigned in arrival order by the
        // workload generator).
        let mut queue = Vec::new();
        ctx.tracker.schedulable_ids_into(ctx.now, &mut queue);
        for id in queue {
            // First statically partitioned slot that is entirely free.
            let Some(slot) = self
                .slots(ctx.n_gpus)
                .into_iter()
                .find(|s| free.is_superset_of(*s))
            else {
                break; // head-of-line blocking: FIFO never skips
            };
            let r = ctx.tracker.get(id).expect("schedulable id is tracked");
            free = free.difference(slot);
            plans.push(DispatchPlan {
                requests: Batch::one(id),
                gpus: slot,
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
    use tetriserve_costmodel::{ClusterSpec, DitModel, Profiler, Resolution};
    use tetriserve_simulator::trace::{RequestId, TenantId};

    fn costs() -> tetriserve_costmodel::CostTable {
        Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic()
    }

    fn spec(id: u64, res: Resolution, arrival_s: f64, slo_s: f64) -> RequestSpec {
        RequestSpec {
            tenant: TenantId::UNTAGGED,
            id: RequestId(id),
            resolution: res,
            arrival: SimTime::from_secs_f64(arrival_s),
            deadline: SimTime::from_secs_f64(arrival_s + slo_s),
            total_steps: 50,
            stages: tetriserve_costmodel::StageProfile::FLAT,
        }
    }

    #[test]
    fn slots_partition_the_node() {
        let p = FixedSpPolicy::new(2);
        let slots = p.slots(8);
        assert_eq!(slots.len(), 4);
        let union = slots.iter().fold(GpuSet::EMPTY, |a, s| a.union(*s));
        assert_eq!(union, GpuSet::first_n(8));
    }

    #[test]
    fn whole_request_runs_on_one_slot() {
        let c = costs();
        let report =
            Server::new(c, FixedSpPolicy::new(4)).run(vec![spec(0, Resolution::R1024, 0.0, 3.0)]);
        let o = &report.outcomes[0];
        assert!(o.met_slo(), "{o:?}");
        assert_eq!(o.steps_executed, 50);
        assert!((o.mean_sp_degree() - 4.0).abs() < 1e-9, "constant degree");
    }

    #[test]
    fn sp1_meets_small_but_misses_large() {
        // The Figure 1 / Figure 4 story: SP=1 is fine for 256² but
        // hopeless for 2048².
        let c = costs();
        let report = Server::new(c, FixedSpPolicy::new(1)).run(vec![
            spec(0, Resolution::R256, 0.0, 1.5),
            spec(1, Resolution::R2048, 0.0, 5.0),
        ]);
        assert!(report.outcomes[0].met_slo());
        assert!(!report.outcomes[1].met_slo());
    }

    #[test]
    fn sp8_meets_large_but_serialises_everything() {
        // SP=8 has one slot: requests run one-at-a-time, so a burst of
        // small requests queues behind each other (head-of-line blocking).
        let c = costs();
        let burst: Vec<_> = (0..6)
            .map(|i| spec(i, Resolution::R512, 0.0, 2.0))
            .collect();
        let report = Server::new(c, FixedSpPolicy::new(8)).run(burst);
        let met = report.outcomes.iter().filter(|o| o.met_slo()).count();
        assert!(met < 6, "serialisation must cost SLOs, met {met}/6");
        // And all of them eventually complete.
        assert!(report.outcomes.iter().all(|o| o.completion.is_some()));
    }

    #[test]
    fn head_of_line_blocking_is_real() {
        // SP=4 (two slots). Two big requests occupy both slots; a tiny
        // request behind them waits even though it only needs a moment.
        let c = costs();
        let report = Server::new(c, FixedSpPolicy::new(4)).run(vec![
            spec(0, Resolution::R2048, 0.0, 30.0),
            spec(1, Resolution::R2048, 0.0, 30.0),
            spec(2, Resolution::R256, 0.1, 1.5),
        ]);
        assert!(!report.outcomes[2].met_slo(), "{:?}", report.outcomes[2]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_degree() {
        FixedSpPolicy::new(3);
    }

    #[test]
    fn event_driven_not_round_driven() {
        let p = FixedSpPolicy::new(2);
        assert_eq!(p.next_tick(SimTime::ZERO), None);
        assert!(p.reacts_to(PolicyEvent::Arrival));
        assert!(p.reacts_to(PolicyEvent::DispatchDone));
        assert!(!p.reacts_to(PolicyEvent::RoundTick));
    }

    #[test]
    fn schedules_fifo_into_free_slots() {
        let c = costs();
        let mut tracker = RequestTracker::new();
        for id in 0..3 {
            tracker.admit(spec(id, Resolution::R512, 0.0, 5.0));
        }
        let mut p = FixedSpPolicy::new(4);
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
        assert_eq!(plans.len(), 2, "two SP=4 slots");
        assert_eq!(*plans[0].requests, [RequestId(0)]);
        assert_eq!(*plans[1].requests, [RequestId(1)]);
    }
}
