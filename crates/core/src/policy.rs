//! The scheduling-policy abstraction.
//!
//! Every scheduler in this reproduction — TetriServe itself, the fixed-SP
//! xDiT baselines and RSSP — implements [`Policy`] and runs on the *same*
//! serving loop and execution engine, so comparisons are apples-to-apples.
//!
//! A policy declares which events wake it (round ticks for TetriServe;
//! arrivals and dispatch completions for the non-preemptive baselines) and,
//! when woken, converts tracker state into [`DispatchPlan`]s.

use tetriserve_costmodel::{CostTable, Resolution};
use tetriserve_simulator::failure::FailurePlan;
use tetriserve_simulator::gpuset::GpuSet;
use tetriserve_simulator::time::{SimDuration, SimTime};
use tetriserve_simulator::trace::RequestId;

use crate::tracker::RequestTracker;

/// Why the serving loop is invoking the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyEvent {
    /// A new request arrived.
    Arrival,
    /// A dispatch finished and freed its GPUs.
    DispatchDone,
    /// A scheduling-round boundary.
    RoundTick,
}

/// A policy's instruction to the serving loop: run `steps` steps for the
/// (possibly batched) `requests` on `gpus`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchPlan {
    /// Requests batched into this dispatch (same resolution; usually one).
    pub requests: Vec<RequestId>,
    /// GPU set to execute on; its size is the sequence-parallel degree.
    pub gpus: GpuSet,
    /// Diffusion steps to run for each batched request.
    pub steps: u32,
}

impl DispatchPlan {
    /// The sequence-parallel degree of the plan.
    pub fn degree(&self) -> usize {
        self.gpus.len()
    }

    /// The batch size of the plan.
    pub fn batch(&self) -> u32 {
        self.requests.len() as u32
    }
}

/// Everything a policy may consult when scheduling.
#[derive(Debug)]
pub struct SchedContext<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// GPUs idle right now. Always a subset of `healthy`: the serving loop
    /// removes a GPU from the free pool the moment it goes down.
    pub free: GpuSet,
    /// GPUs not hard-faulted right now — the health view. Policies must
    /// not plan around more capacity than this (e.g. when sizing degrees),
    /// and must never place work outside it.
    pub healthy: GpuSet,
    /// Total GPUs in the node (including any currently down).
    pub n_gpus: usize,
    /// Live request state.
    pub tracker: &'a RequestTracker,
    /// The profiled cost model.
    pub costs: &'a CostTable,
    /// The run's failure plan — the degradation view. Policies price
    /// steps through [`SchedContext::effective_step_time`] so packing
    /// stays honest when part of the cluster is throttled.
    pub failures: &'a FailurePlan,
}

impl SchedContext<'_> {
    /// Effective step time for `res` at degree `k`, batch `batch`, when
    /// executed on `gpus` right now: the nominal cost-table entry scaled
    /// by the group slowdown — the max member slowdown, because a
    /// sequence-parallel step synchronises on its slowest shard. Identical
    /// to the nominal time when no slowdown is active.
    pub fn effective_step_time(
        &self,
        res: Resolution,
        k: usize,
        batch: u32,
        gpus: GpuSet,
    ) -> SimDuration {
        // tetrilint: allow(nominal-step-time) -- this IS the effective accessor
        let nominal = self.costs.step_time(res, k, batch);
        let slow = self.failures.group_slowdown(gpus, self.now);
        if slow > 1.0 {
            nominal.mul_f64(slow)
        } else {
            nominal
        }
    }
}

/// A scheduling policy.
pub trait Policy {
    /// Short name for reports (e.g. `"TetriServe"`, `"xDiT SP=4"`).
    fn name(&self) -> String;

    /// Whether `event` should trigger a scheduling pass.
    fn reacts_to(&self, event: PolicyEvent) -> bool;

    /// The next round boundary after `now`, for round-driven policies.
    /// Event-driven policies return `None`.
    fn next_tick(&self, now: SimTime) -> Option<SimTime>;

    /// Produces dispatch plans for the current instant. Plans must use only
    /// GPUs in `ctx.free`, must not overlap each other, and must only
    /// reference schedulable requests.
    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Vec<DispatchPlan>;
}

/// Boxed policies forward to the inner policy, so heterogeneous clusters
/// (each with its own policy type) can share one driver — the fleet layer
/// holds `ClusterSim<Box<dyn Policy>>`.
impl<P: Policy + ?Sized> Policy for Box<P> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn reacts_to(&self, event: PolicyEvent) -> bool {
        (**self).reacts_to(event)
    }

    fn next_tick(&self, now: SimTime) -> Option<SimTime> {
        (**self).next_tick(now)
    }

    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Vec<DispatchPlan> {
        (**self).schedule(ctx)
    }
}

/// Validates a batch of plans against the context.
///
/// Used by the serving loop in debug builds to catch policy bugs early.
/// Returns a description of the first violation found.
pub fn validate_plans(plans: &[DispatchPlan], ctx: &SchedContext<'_>) -> Result<(), String> {
    let mut used = GpuSet::EMPTY;
    for plan in plans {
        if plan.requests.is_empty() {
            return Err("plan has no requests".into());
        }
        if plan.steps == 0 {
            return Err("plan has zero steps".into());
        }
        if !plan.degree().is_power_of_two() {
            return Err(format!("degree {} is not a power of two", plan.degree()));
        }
        if !ctx.healthy.is_superset_of(plan.gpus) {
            return Err(format!(
                "plan uses down gpus {}",
                plan.gpus.difference(ctx.healthy)
            ));
        }
        if !ctx.free.is_superset_of(plan.gpus) {
            return Err(format!(
                "plan uses busy gpus {}",
                plan.gpus.difference(ctx.free)
            ));
        }
        if !used.is_disjoint(plan.gpus) {
            return Err(format!("plans overlap on {}", used.intersection(plan.gpus)));
        }
        used = used.union(plan.gpus);
        let mut res = None;
        for &id in &plan.requests {
            let r = ctx
                .tracker
                .get(id)
                .ok_or_else(|| format!("plan references unknown request {id}"))?;
            if !r.is_schedulable(ctx.now) {
                return Err(format!("request {id} is not schedulable"));
            }
            if plan.steps > r.remaining_steps {
                return Err(format!(
                    "plan runs {} steps but {id} has {} remaining",
                    plan.steps, r.remaining_steps
                ));
            }
            if let Some(prev) = res {
                if prev != r.spec.resolution {
                    return Err(format!("batched requests mix resolutions in plan for {id}"));
                }
            }
            res = Some(r.spec.resolution);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestSpec;
    use tetriserve_costmodel::{ClusterSpec, DitModel, Profiler, Resolution, StageProfile};
    use tetriserve_simulator::trace::TenantId;

    fn ctx_fixture() -> (RequestTracker, CostTable) {
        let mut tracker = RequestTracker::new();
        for (id, res) in [
            (1u64, Resolution::R256),
            (2, Resolution::R256),
            (3, Resolution::R512),
        ] {
            tracker.admit(RequestSpec {
                tenant: TenantId::UNTAGGED,
                id: RequestId(id),
                resolution: res,
                arrival: SimTime::ZERO,
                deadline: SimTime::from_secs_f64(5.0),
                total_steps: 50,
                stages: StageProfile::FLAT,
            });
        }
        let costs = Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic();
        (tracker, costs)
    }

    fn plan(ids: &[u64], gpus: GpuSet, steps: u32) -> DispatchPlan {
        DispatchPlan {
            requests: ids.iter().map(|&i| RequestId(i)).collect(),
            gpus,
            steps,
        }
    }

    #[test]
    fn valid_plans_pass() {
        let (tracker, costs) = ctx_fixture();
        let failures = FailurePlan::none();
        let ctx = SchedContext {
            now: SimTime::ZERO,
            free: GpuSet::first_n(8),
            healthy: GpuSet::first_n(8),
            n_gpus: 8,
            tracker: &tracker,
            costs: &costs,
            failures: &failures,
        };
        let plans = vec![
            plan(&[1, 2], GpuSet::contiguous(0, 2), 10),
            plan(&[3], GpuSet::contiguous(2, 4), 5),
        ];
        assert_eq!(validate_plans(&plans, &ctx), Ok(()));
        assert_eq!(plans[0].batch(), 2);
        assert_eq!(plans[1].degree(), 4);
    }

    #[test]
    fn violations_are_caught() {
        let (tracker, costs) = ctx_fixture();
        let failures = FailurePlan::none();
        let ctx = SchedContext {
            now: SimTime::ZERO,
            free: GpuSet::first_n(4),
            healthy: GpuSet::first_n(8)
                .difference(GpuSet::single(tetriserve_simulator::gpuset::GpuId(7))),
            n_gpus: 8,
            tracker: &tracker,
            costs: &costs,
            failures: &failures,
        };
        // Down GPUs (outside the health view).
        let e = validate_plans(&[plan(&[1], GpuSet::contiguous(7, 1), 1)], &ctx).unwrap_err();
        assert!(e.contains("down"), "{e}");
        // Busy GPUs.
        let e = validate_plans(&[plan(&[1], GpuSet::contiguous(4, 2), 1)], &ctx).unwrap_err();
        assert!(e.contains("busy"), "{e}");
        // Overlapping plans.
        let e = validate_plans(
            &[
                plan(&[1], GpuSet::contiguous(0, 2), 1),
                plan(&[3], GpuSet::contiguous(1, 2), 1),
            ],
            &ctx,
        )
        .unwrap_err();
        assert!(e.contains("overlap"), "{e}");
        // Unknown request.
        let e = validate_plans(&[plan(&[99], GpuSet::contiguous(0, 1), 1)], &ctx).unwrap_err();
        assert!(e.contains("unknown"), "{e}");
        // Too many steps.
        let e = validate_plans(&[plan(&[1], GpuSet::contiguous(0, 1), 51)], &ctx).unwrap_err();
        assert!(e.contains("remaining"), "{e}");
        // Mixed-resolution batch.
        let e = validate_plans(&[plan(&[1, 3], GpuSet::contiguous(0, 1), 1)], &ctx).unwrap_err();
        assert!(e.contains("mix"), "{e}");
        // Non-power-of-two degree.
        let e = validate_plans(&[plan(&[1], GpuSet::contiguous(0, 3), 1)], &ctx).unwrap_err();
        assert!(e.contains("power of two"), "{e}");
    }
}
