//! The TetriServe policy: deadline-aware round-based scheduling (§4.2).
//!
//! Every round boundary the policy:
//!
//! 1. computes each pending request's **deadline-aware minimal-GPU-hour
//!    allocation plan** (§4.2.1, [`crate::allocation`]);
//! 2. builds the per-round **option sets** with survival indicators
//!    (Algorithm 1 lines 1–12, [`crate::options`]);
//! 3. runs the **group-knapsack DP** to pick at most one option per request
//!    under the free-GPU capacity (Algorithm 1 lines 13–22, [`crate::dp`]);
//! 4. maps widths to concrete GPU sets with **placement preservation**
//!    (§4.2.3, [`crate::placement`]);
//! 5. hands leftover capacity to **best-effort** late requests (≤ 1 GPU
//!    each, §4.2.2) —
//! 6. merges SLO-safe **selective batches** (§5, [`crate::batching`]); and
//! 7. applies **work-conserving elastic scale-up** (§4.2.3,
//!    [`crate::elastic`]).

use std::collections::HashMap;

use tetriserve_costmodel::CostTable;
use tetriserve_simulator::gpuset::GpuSet;
use tetriserve_simulator::time::{SimDuration, SimTime};
use tetriserve_simulator::trace::RequestId;

use crate::allocation::min_gpu_hour_plan_capped;
use crate::batching::{merge_batches, BatchDeadline};
use crate::config::{TetriServeConfig, ELASTIC_MIN_BENEFIT, RECONFIG_ALLOWANCE};
use crate::dp::{pack_round_into, PackScratch, Packing};
use crate::elastic::elastic_scale_up;
use crate::options::{build_options, RequestOptions};
use crate::placement::{place, Assignment, PlacementRequest};
use crate::policy::{DispatchPlan, Policy, PolicyEvent, SchedContext};

/// The TetriServe deadline-aware round-based scheduler.
///
/// Every working buffer of a scheduling pass is owned by the policy and
/// reused, so once the buffers have grown to the largest backlog seen, a
/// pass allocates only the plans it returns. Each buffer is cleared before
/// it is read, so no state carries from one pass to the next.
#[derive(Debug, Clone)]
pub struct TetriServePolicy {
    config: TetriServeConfig,
    tau: SimDuration,
    /// Reusable knapsack working memory: after the first round the packing
    /// step performs no heap allocation (see [`PackScratch`]).
    scratch: PackScratch,
    packing: Packing,
    /// Ids schedulable this pass.
    ids: Vec<RequestId>,
    /// Option sets of packable requests. A pass overwrites a prefix,
    /// handing each slot's option list back to [`build_options`]; slots
    /// past it are stale and never read, but keep their lists for the
    /// next pass with a longer backlog.
    packable: Vec<RequestOptions>,
    /// Late requests as `(deadline, id)`: sorted, the best-effort EDF order.
    best_effort: Vec<(SimTime, RequestId)>,
    /// Width-only requests the packer chose to run.
    placement: Vec<PlacementRequest>,
}

impl TetriServePolicy {
    /// Creates the policy, deriving the round length from the cost table.
    pub fn new(config: TetriServeConfig, costs: &CostTable) -> Self {
        TetriServePolicy {
            config,
            tau: config.round_length(costs),
            scratch: PackScratch::new(),
            packing: Packing::default(),
            ids: Vec::new(),
            packable: Vec::new(),
            best_effort: Vec::new(),
            placement: Vec::new(),
        }
    }

    /// Creates the policy with the paper-recommended defaults.
    pub fn with_defaults(costs: &CostTable) -> Self {
        TetriServePolicy::new(TetriServeConfig::default(), costs)
    }

    /// The round length τ.
    pub fn tau(&self) -> SimDuration {
        self.tau
    }

    /// The active configuration.
    pub fn config(&self) -> &TetriServeConfig {
        &self.config
    }
}

impl Policy for TetriServePolicy {
    fn name(&self) -> String {
        "TetriServe".to_owned()
    }

    fn reacts_to(&self, event: PolicyEvent) -> bool {
        // Round boundaries do the global repacking; arrivals and dispatch
        // completions trigger work-conserving *backfill* passes that only
        // dispatch up to the next boundary, so admission latency is not
        // quantised to τ while the round discipline is preserved.
        matches!(
            event,
            PolicyEvent::RoundTick | PolicyEvent::Arrival | PolicyEvent::DispatchDone
        )
    }

    fn next_tick(&self, now: SimTime) -> Option<SimTime> {
        // Next boundary of the τ grid (anchored at t = 0) strictly after
        // `now`. Ticks always fire on-grid, so for the serving loop's
        // tick-chain this equals `now + τ`; the grid form matters when the
        // chain is re-seeded mid-round (a fleet arrival after an idle gap)
        // — an off-grid chain would never hit `at_boundary` again.
        let tau_us = self.tau.as_micros();
        Some(SimTime::from_micros(
            (now.as_micros() / tau_us + 1) * tau_us,
        ))
    }

    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Vec<DispatchPlan> {
        let now = ctx.now;
        // The round grid is anchored at t = 0 with period τ. At a boundary
        // the scheduling window is a full round; mid-round (backfill) it is
        // the residual time to the next boundary.
        let tau_us = self.tau.as_micros();
        let rem_us = now.as_micros() % tau_us;
        let at_boundary = rem_us == 0;
        let window = if at_boundary {
            self.tau
        } else {
            SimDuration::from_micros(tau_us - rem_us)
        };
        let t_next = now + window;
        let costs = ctx.costs;

        // Health view: never plan around parallelism that down GPUs cannot
        // provide. With everything down, or every GPU busy, there is
        // nothing to schedule: a zero-capacity pack selects no option and
        // best effort needs a free GPU.
        if ctx.healthy.is_empty() || ctx.free.is_empty() {
            return Vec::new();
        }
        let healthy_cap = ctx.healthy.len().min(ctx.n_gpus);

        // ── 1+2: allocation plans and option sets. ──────────────────────
        let mut n_packable = 0;
        self.best_effort.clear();
        ctx.tracker.schedulable_ids_into(now, &mut self.ids);
        for &id in &self.ids {
            // tetrilint: allow(unwrap) -- id came from this tracker's own
            // schedulable_ids_into() one statement up.
            let r = ctx.tracker.get(id).expect("schedulable id is tracked");
            if r.is_past_deadline(now) {
                self.best_effort.push((r.spec.deadline, id));
                continue;
            }
            // Budget for the tail VAE decode (it is on the completion path
            // even though it is off the GPUs' critical path), and inflate
            // step times by the round headroom so the plan retains exactly
            // the margin round quantisation will consume.
            let frames = r.spec.stages.frames;
            let decode = costs.decode_time(r.spec.resolution, frames);
            // Planning works in single-frame step times; a video request's
            // dispatches run `frames`× longer, so shrink the slack budget by
            // the same factor (exact identity at frames = 1).
            let slack =
                r.spec.deadline.saturating_since(now).saturating_sub(decode) / u64::from(frames);
            let mut plan = min_gpu_hour_plan_capped(
                r.spec.resolution,
                r.remaining_steps,
                slack,
                costs,
                crate::config::ROUND_HEADROOM,
                healthy_cap,
            );
            if !plan.feasible {
                // Infeasible with quantisation margin — retry at the knife
                // edge before writing the request off. Only a request that
                // misses even the un-inflated bound is definitely late
                // (§4.2.2: at most one GPU, best effort).
                plan = min_gpu_hour_plan_capped(
                    r.spec.resolution,
                    r.remaining_steps,
                    slack,
                    costs,
                    1.0,
                    healthy_cap,
                );
                if !plan.feasible {
                    self.best_effort.push((r.spec.deadline, id));
                    continue;
                }
            }
            let mut opts = build_options(
                id,
                r.spec.resolution,
                r.spec.deadline,
                &plan,
                window,
                t_next,
                costs,
                healthy_cap,
                r.last_gpus.map(|g| g.len()),
                RECONFIG_ALLOWANCE,
                at_boundary,
                self.packable
                    .get_mut(n_packable)
                    .map(|slot| std::mem::take(&mut slot.options))
                    .unwrap_or_default(),
            );
            opts.progress =
                f64::from(r.spec.total_steps - r.remaining_steps) / f64::from(r.spec.total_steps);
            match self.packable.get_mut(n_packable) {
                Some(slot) => *slot = opts,
                None => self.packable.push(opts),
            }
            n_packable += 1;
        }
        let packable = self.packable.get(..n_packable).unwrap_or_default();

        // ── 3: group-knapsack packing over the free capacity. ───────────
        pack_round_into(
            packable,
            ctx.free.len(),
            &mut self.scratch,
            &mut self.packing,
        );

        // ── 4: placement with preservation. ─────────────────────────────
        let topology = costs.cluster().topology();
        self.placement.clear();
        for (opts, choice) in packable.iter().zip(&self.packing.choices) {
            let option = opts.option(choice.option_index);
            if option.segment.is_none() {
                continue;
            }
            // tetrilint: allow(unwrap) -- packable was built from tracked
            // ids in pass 1 and the tracker is not mutated in between.
            let r = ctx.tracker.get(opts.id).expect("packed id is tracked");
            self.placement.push(PlacementRequest {
                id: opts.id,
                resolution: opts.resolution,
                width: option.width,
                steps: option.steps,
                remaining_before: r.remaining_steps,
                previous: r.last_gpus,
            });
        }
        let mut assignments = place(
            &self.placement,
            ctx.free,
            self.config.placement_preservation,
            &topology,
        );
        let mut free = ctx.free;
        for a in &assignments {
            free = free.difference(a.gpus);
        }

        // ── 5: best-effort for late requests (§4.2.2): at most one GPU,
        // EDF order, never displacing packed work. With elastic scale-up
        // enabled, only the EDF head runs per round: admitting several late
        // requests at once would let the elastic pass split the node
        // between them, and for large resolutions fragmented halves cost
        // far more GPU-hours than serving the late queue one request at a
        // time at full width — under saturation that fragmentation
        // cascades into collapse. Without elastic scale-up nothing widens
        // the head, so the late requests run 1 GPU each in parallel (the
        // paper's literal reading).
        self.best_effort.sort_unstable();
        let late_cap = if self.config.elastic_scale_up {
            1
        } else {
            usize::MAX
        };
        for &(_, id) in self.best_effort.iter().take(late_cap) {
            let Some(gpu_lowest) = free.lowest() else {
                break;
            };
            // tetrilint: allow(unwrap) -- best_effort holds tracked ids
            // collected in pass 1.
            let r = ctx.tracker.get(id).expect("tracked");
            // Prefer the previously used GPU when it is free and single.
            let gpu = match r.last_gpus {
                Some(prev) if prev.len() == 1 && free.is_superset_of(prev) => prev,
                _ => GpuSet::single(gpu_lowest),
            };
            // Effective, not nominal: sizing against a throttled GPU's
            // nominal speed would overrun the boundary and hold the GPU
            // into the next round's packing.
            let t1 = ctx.effective_step_time(r.spec.resolution, 1, 1, gpu);
            let mut steps = (window.div_floor(t1) as u32).min(r.remaining_steps);
            if steps == 0 {
                if !at_boundary {
                    continue; // backfill never crosses the boundary
                }
                steps = 1;
            }
            free = free.difference(gpu);
            assignments.push(Assignment {
                requests: vec![id],
                resolution: r.spec.resolution,
                gpus: gpu,
                steps,
                remaining_before: r.remaining_steps,
            });
        }

        // ── 6: selective continuous batching (a lone assignment has
        // nothing to merge with). ─────────────────────────────────────────
        if self.config.selective_batching && assignments.len() >= 2 {
            let deadlines: HashMap<RequestId, BatchDeadline> = assignments
                .iter()
                .flat_map(|a| a.requests.iter())
                .map(|&id| {
                    // tetrilint: allow(unwrap) -- assignments only carry
                    // ids the tracker handed out this round.
                    let r = ctx.tracker.get(id).expect("tracked");
                    (
                        id,
                        BatchDeadline {
                            deadline: r.spec.deadline,
                            remaining: r.remaining_steps,
                        },
                    )
                })
                .collect();
            let tau_eff = window.saturating_sub(RECONFIG_ALLOWANCE);
            let freed = merge_batches(&mut assignments, &deadlines, costs, tau_eff, t_next);
            free = free.union(freed);
        }

        // ── 7: work-conserving elastic scale-up. ────────────────────────
        if self.config.elastic_scale_up {
            elastic_scale_up(
                &mut assignments,
                &mut free,
                costs,
                &topology,
                window.saturating_sub(RECONFIG_ALLOWANCE),
                ELASTIC_MIN_BENEFIT,
            );
        }

        assignments
            .into_iter()
            .map(|a| DispatchPlan {
                requests: a.requests,
                gpus: a.gpus,
                steps: a.steps,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestSpec;
    use crate::tracker::RequestTracker;
    use tetriserve_costmodel::{ClusterSpec, DitModel, Profiler, Resolution, StageProfile};
    use tetriserve_simulator::failure::FailurePlan;
    use tetriserve_simulator::gpuset::GpuId;
    use tetriserve_simulator::rng::SimRng;
    use tetriserve_simulator::time::SimDuration;
    use tetriserve_simulator::trace::TenantId;

    fn costs() -> CostTable {
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
            stages: StageProfile::FLAT,
        }
    }

    fn run_round(
        policy: &mut TetriServePolicy,
        tracker: &RequestTracker,
        costs: &CostTable,
        now: SimTime,
    ) -> Vec<DispatchPlan> {
        let failures = FailurePlan::none();
        let ctx = SchedContext {
            now,
            free: GpuSet::first_n(8),
            healthy: GpuSet::first_n(8),
            n_gpus: 8,
            tracker,
            costs,
            failures: &failures,
        };
        let plans = policy.schedule(&ctx);
        crate::policy::validate_plans(&plans, &ctx).expect("plans are valid");
        plans
    }

    #[test]
    fn urgent_large_request_gets_max_parallelism() {
        let c = costs();
        let mut policy = TetriServePolicy::with_defaults(&c);
        let mut tracker = RequestTracker::new();
        tracker.admit(spec(1, Resolution::R2048, 0.0, 5.0));
        let plans = run_round(&mut policy, &tracker, &c, SimTime::ZERO);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].degree(), 8, "2048² in 5 s needs SP=8");
        assert!(plans[0].steps >= 1);
    }

    #[test]
    fn relaxed_small_request_stays_narrow() {
        // Elastic scale-up disabled so we observe the allocator's choice:
        // without deadline pressure the minimal-GPU-hour degree (SP=1) wins.
        let c = costs();
        let cfg = TetriServeConfig {
            elastic_scale_up: false,
            ..TetriServeConfig::default()
        };
        let mut policy = TetriServePolicy::new(cfg, &c);
        let mut tracker = RequestTracker::new();
        tracker.admit(spec(1, Resolution::R256, 0.0, 10.0));
        let plans = run_round(&mut policy, &tracker, &c, SimTime::ZERO);
        assert_eq!(plans.len(), 1);
        assert_eq!(
            plans[0].degree(),
            1,
            "no deadline pressure -> min GPU-hours"
        );
    }

    #[test]
    fn deadline_critical_request_wins_the_contended_round() {
        // A 2048² at SLO 5 s dies unless it runs *now* at SP=8, while the
        // smaller requests survive waiting a round. The DP must give the
        // whole node to the large request.
        let c = costs();
        let mut policy = TetriServePolicy::with_defaults(&c);
        let mut tracker = RequestTracker::new();
        tracker.admit(spec(1, Resolution::R2048, 0.0, 5.0));
        tracker.admit(spec(2, Resolution::R1024, 0.0, 3.0));
        tracker.admit(spec(3, Resolution::R256, 0.0, 1.5));
        tracker.admit(spec(4, Resolution::R512, 0.0, 2.0));
        let plans = run_round(&mut policy, &tracker, &c, SimTime::ZERO);
        let used: usize = plans
            .iter()
            .map(|p| p.degree() * p.requests.len().min(1))
            .sum();
        assert!(used <= 8);
        let p1 = plans
            .iter()
            .find(|p| p.requests.contains(&RequestId(1)))
            .expect("2048² must run this round");
        // Its mixed-degree plan lets it start at SP=4 (Figure 6's shape) or
        // take the whole node — either way it must make progress now.
        assert!(p1.degree() >= 4, "{plans:?}");
    }

    #[test]
    fn mixed_workload_fills_capacity_when_everyone_fits() {
        // Without the monster request, the three smaller ones pack together.
        let c = costs();
        let mut policy = TetriServePolicy::with_defaults(&c);
        let mut tracker = RequestTracker::new();
        tracker.admit(spec(2, Resolution::R1024, 0.0, 3.0));
        tracker.admit(spec(3, Resolution::R256, 0.0, 1.5));
        tracker.admit(spec(4, Resolution::R512, 0.0, 2.0));
        let plans = run_round(&mut policy, &tracker, &c, SimTime::ZERO);
        let scheduled: usize = plans.iter().map(|p| p.requests.len()).sum();
        assert_eq!(scheduled, 3, "{plans:?}");
        let mut union = GpuSet::EMPTY;
        for p in &plans {
            assert!(union.is_disjoint(p.gpus));
            union = union.union(p.gpus);
        }
        assert!(union.len() <= 8);
    }

    #[test]
    fn past_deadline_requests_run_best_effort_on_one_gpu() {
        let c = costs();
        let mut policy = TetriServePolicy::with_defaults(&c);
        let mut tracker = RequestTracker::new();
        tracker.admit(spec(1, Resolution::R1024, 0.0, 3.0));
        // Far past its deadline; probe at a round boundary (multiple of τ).
        let now = SimTime::ZERO + policy.tau() * 20;
        let plans = run_round(&mut policy, &tracker, &c, now);
        assert_eq!(plans.len(), 1);
        // Best-effort starts at 1 GPU; elastic scale-up may widen it since
        // the cluster is otherwise idle (work conservation, §4.2.3).
        assert!(plans[0].degree() >= 1);
        let without_elastic = {
            let cfg = TetriServeConfig {
                elastic_scale_up: false,
                ..TetriServeConfig::default()
            };
            let mut p = TetriServePolicy::new(cfg, &c);
            run_round(&mut p, &tracker, &c, now)
        };
        assert_eq!(without_elastic[0].degree(), 1, "≤1 GPU without elastic");
    }

    #[test]
    fn definitely_late_does_not_steal_from_savable() {
        let c = costs();
        let mut policy = TetriServePolicy::with_defaults(&c);
        let mut tracker = RequestTracker::new();
        // Impossible: 2048² in 1 s.
        tracker.admit(spec(1, Resolution::R2048, 0.0, 1.0));
        // Savable but needs the full node: another 2048² in 5 s.
        tracker.admit(spec(2, Resolution::R2048, 0.0, 5.0));
        let plans = run_round(&mut policy, &tracker, &c, SimTime::ZERO);
        let p2 = plans
            .iter()
            .find(|p| p.requests.contains(&RequestId(2)))
            .expect("savable request scheduled");
        assert_eq!(p2.degree(), 8, "savable request gets the full node");
        assert!(
            !plans.iter().any(|p| p.requests.contains(&RequestId(1))),
            "doomed request must not displace the savable one: {plans:?}"
        );
    }

    #[test]
    fn batching_merges_identical_small_requests() {
        let c = costs();
        let mut policy = TetriServePolicy::with_defaults(&c);
        let mut tracker = RequestTracker::new();
        for id in 0..12 {
            tracker.admit(spec(id, Resolution::R256, 0.0, 10.0));
        }
        let plans = run_round(&mut policy, &tracker, &c, SimTime::ZERO);
        // 12 relaxed 256² requests on 8 GPUs: batching must kick in.
        assert!(
            plans.iter().any(|p| p.requests.len() > 1),
            "expected at least one batched dispatch: {plans:?}"
        );
        let total: usize = plans.iter().map(|p| p.requests.len()).sum();
        assert!(total <= 12);
    }

    #[test]
    fn elastic_scale_up_uses_idle_gpus() {
        let c = costs();
        let mut tracker = RequestTracker::new();
        // One relaxed 1024²: min-GPU-hours says SP=1, but the other 7 GPUs
        // are idle — elastic scale-up should widen it.
        tracker.admit(spec(1, Resolution::R1024, 0.0, 30.0));
        let mut with = TetriServePolicy::with_defaults(&c);
        let plans = run_round(&mut with, &tracker, &c, SimTime::ZERO);
        assert!(plans[0].degree() > 1, "idle GPUs reclaimed: {plans:?}");

        let cfg = TetriServeConfig {
            elastic_scale_up: false,
            ..TetriServeConfig::default()
        };
        let mut without = TetriServePolicy::new(cfg, &c);
        let plans = run_round(&mut without, &tracker, &c, SimTime::ZERO);
        assert_eq!(plans[0].degree(), 1);
    }

    #[test]
    fn round_tick_chain_is_tau_spaced() {
        let c = costs();
        let policy = TetriServePolicy::with_defaults(&c);
        let t0 = SimTime::ZERO;
        let t1 = policy.next_tick(t0).unwrap();
        let t2 = policy.next_tick(t1).unwrap();
        assert_eq!(t1.saturating_since(t0), policy.tau());
        assert_eq!(t2.saturating_since(t1), policy.tau());
        assert!(policy.reacts_to(PolicyEvent::RoundTick));
        // Arrivals and completions trigger backfill passes too.
        assert!(policy.reacts_to(PolicyEvent::Arrival));
        assert!(policy.reacts_to(PolicyEvent::DispatchDone));
    }

    #[test]
    fn backfill_dispatches_fresh_arrivals_mid_round() {
        // A request arriving mid-round on an idle cluster must not wait for
        // the next boundary: the backfill pass sizes a dispatch to the
        // residual window.
        let c = costs();
        let mut policy = TetriServePolicy::with_defaults(&c);
        let mut tracker = RequestTracker::new();
        let mid = SimTime::ZERO + policy.tau() / 2;
        tracker.admit(RequestSpec {
            tenant: TenantId::UNTAGGED,
            id: RequestId(1),
            resolution: Resolution::R2048,
            arrival: mid,
            deadline: mid + SimDuration::from_secs_f64(5.0),
            total_steps: 50,
            stages: StageProfile::FLAT,
        });
        let failures = FailurePlan::none();
        let ctx = SchedContext {
            now: mid,
            free: GpuSet::first_n(8),
            healthy: GpuSet::first_n(8),
            n_gpus: 8,
            tracker: &tracker,
            costs: &c,
            failures: &failures,
        };
        let plans = policy.schedule(&ctx);
        crate::policy::validate_plans(&plans, &ctx).expect("valid");
        assert_eq!(plans.len(), 1, "backfill must start the request now");
        // The dispatch fits the residual half-round window.
        let per = c.step_time(Resolution::R2048, plans[0].degree(), 1);
        let window = policy.tau() / 2;
        assert!(
            per * u64::from(plans[0].steps) <= window,
            "backfill dispatch must not cross the boundary: {} × {} > {}",
            per,
            plans[0].steps,
            window
        );
    }

    #[test]
    fn backfill_never_emits_boundary_crossing_work() {
        // With only a sliver of the round left, nothing fits and the
        // backfill pass must stay silent rather than hold GPUs into the
        // next round's packing.
        let c = costs();
        let mut policy = TetriServePolicy::with_defaults(&c);
        let mut tracker = RequestTracker::new();
        let sliver = SimTime::ZERO + policy.tau() - SimDuration::from_millis(1);
        tracker.admit(RequestSpec {
            tenant: TenantId::UNTAGGED,
            id: RequestId(1),
            resolution: Resolution::R2048,
            arrival: sliver,
            deadline: sliver + SimDuration::from_secs_f64(5.0),
            total_steps: 50,
            stages: StageProfile::FLAT,
        });
        let failures = FailurePlan::none();
        let ctx = SchedContext {
            now: sliver,
            free: GpuSet::first_n(8),
            healthy: GpuSet::first_n(8),
            n_gpus: 8,
            tracker: &tracker,
            costs: &c,
            failures: &failures,
        };
        let plans = policy.schedule(&ctx);
        assert!(plans.is_empty(), "{plans:?}");
    }

    /// One tracker snapshot for the warm-versus-fresh test: requests at
    /// every stage of life on an 8-GPU node or a 5-GPU disaggregated
    /// denoise pool, some running (their GPUs busy), some with a previous
    /// placement, some past their deadline.
    fn random_snapshot(
        rng: &mut SimRng,
        snap: u64,
        tau: SimDuration,
    ) -> (RequestTracker, SimTime, GpuSet, GpuSet, usize) {
        let boundary = SimTime::ZERO + tau * (1 + rng.below(40) as u64);
        // Round boundaries, mid-round backfills and end-of-round slivers.
        let now = match snap % 3 {
            0 => boundary,
            1 => {
                boundary
                    + SimDuration::from_micros(1 + rng.below(tau.as_micros() as usize - 1) as u64)
            }
            _ => boundary + tau - SimDuration::from_millis(1),
        };
        let pool = if snap % 4 == 3 { 5 } else { 8 };
        let mut healthy = GpuSet::first_n(pool);
        if snap.is_multiple_of(5) {
            healthy = healthy.difference(GpuSet::single(GpuId(rng.below(pool))));
        }
        let mut tracker = RequestTracker::new();
        let mut busy = GpuSet::EMPTY;
        for id in 0..rng.below(10) as u64 {
            let arrival =
                SimTime::from_micros(now.as_micros().saturating_sub(rng.below(8_000_000) as u64));
            // SLOs from 0.5 s to 20 s: requests that arrived long ago with
            // a short SLO are past their deadline.
            let slo = SimDuration::from_micros(500_000 + rng.below(19_500_000) as u64);
            tracker.admit(RequestSpec {
                tenant: TenantId::UNTAGGED,
                id: RequestId(id),
                resolution: Resolution::PRODUCTION[rng.below(4)],
                arrival,
                deadline: arrival + slo,
                total_steps: 50,
                stages: StageProfile::FLAT,
            });
            let width = 1 << rng.below(3);
            let steps = 1 + rng.below(30) as u32;
            match rng.below(3) {
                // Ran earlier: fewer steps left and a previous placement.
                0 => {
                    let block = GpuSet::contiguous(width * rng.below(pool / width), width);
                    tracker.start_dispatch(RequestId(id), block, steps, 0.0);
                    tracker.finish_dispatch(RequestId(id));
                }
                // Running now: its GPUs are busy.
                1 => {
                    if let Some(gpus) = healthy.difference(busy).take_lowest(width) {
                        tracker.start_dispatch(RequestId(id), gpus, steps, 0.0);
                        busy = busy.union(gpus);
                    }
                }
                _ => {}
            }
        }
        (tracker, now, healthy.difference(busy), healthy, pool)
    }

    #[test]
    fn warm_policy_plans_exactly_like_a_fresh_one() {
        // A policy reuses its per-pass buffers; none of that state may
        // reach a decision. Drive one long-lived policy per config through
        // a seeded sequence of unrelated snapshots and compare every pass
        // with a policy built fresh for that snapshot.
        let c = costs();
        let configs = [
            TetriServeConfig::default(),
            TetriServeConfig {
                elastic_scale_up: false,
                ..TetriServeConfig::default()
            },
        ];
        let mut warm: Vec<TetriServePolicy> = configs
            .iter()
            .map(|&cfg| TetriServePolicy::new(cfg, &c))
            .collect();
        let tau = warm[0].tau();
        let failures = FailurePlan::none();
        let mut rng = SimRng::seed_from_u64(0x7e7215e7);
        let (mut with_plans, mut without, mut late, mut busy) = (0, 0, 0, 0);
        for snap in 0..300 {
            let (tracker, now, free, healthy, n_gpus) = random_snapshot(&mut rng, snap, tau);
            if tracker
                .live()
                .any(|r| r.is_schedulable(now) && r.is_past_deadline(now))
            {
                late += 1;
            }
            if free != healthy {
                busy += 1;
            }
            let ctx = SchedContext {
                now,
                free,
                healthy,
                n_gpus,
                tracker: &tracker,
                costs: &c,
                failures: &failures,
            };
            for (policy, &cfg) in warm.iter_mut().zip(&configs) {
                let plans = policy.schedule(&ctx);
                crate::policy::validate_plans(&plans, &ctx).expect("valid plans");
                let fresh = TetriServePolicy::new(cfg, &c).schedule(&ctx);
                assert_eq!(plans, fresh, "snapshot {snap} at {now}");
                if plans.is_empty() {
                    without += 1;
                } else {
                    with_plans += 1;
                }
            }
        }
        assert!(
            with_plans > 100 && without > 100 && late > 50 && busy > 50,
            "{with_plans} with plans, {without} without, {late} late, {busy} busy"
        );
    }

    #[test]
    fn empty_queue_schedules_nothing() {
        let c = costs();
        let mut policy = TetriServePolicy::with_defaults(&c);
        let tracker = RequestTracker::new();
        let plans = run_round(&mut policy, &tracker, &c, SimTime::ZERO);
        assert!(plans.is_empty());
    }
}
