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

use tetriserve_costmodel::CostTable;
use tetriserve_simulator::gpuset::GpuSet;
use tetriserve_simulator::time::{SimDuration, SimTime};
use tetriserve_simulator::trace::{Batch, RequestId};

use crate::allocation::min_gpu_hour_plan_capped;
use crate::batching::merge_batches;
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
/// pass allocates only the plan list it returns (and the request list of
/// each multi-request batch it forms). Each buffer is cleared before it is
/// read, so no state carries from one pass to the next.
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
    /// The pass's assignments: placement fills it, best effort appends,
    /// batching and scale-up rewrite it, and the returned plans drain it.
    assignments: Vec<Assignment>,
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
            assignments: Vec::new(),
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

    /// The round window at `now`: whether `now` is a round boundary, and
    /// the time to the next one. The grid is anchored at t = 0 with period
    /// τ, so at a boundary the window is a full round; mid-round
    /// (backfill) it is the residual time to the next boundary.
    fn window_at(&self, now: SimTime) -> (bool, SimDuration) {
        let tau_us = self.tau.as_micros();
        let rem_us = now.as_micros() % tau_us;
        if rem_us == 0 {
            (true, self.tau)
        } else {
            (false, SimDuration::from_micros(tau_us - rem_us))
        }
    }

    /// Whether a pass over the schedulable ids in `self.ids` provably
    /// plans nothing: nothing is schedulable, or, off a round boundary,
    /// the window is shorter than every schedulable request's batch-1
    /// step at the widest useful degree a free set can run — at most
    /// `min(|free|, healthy cap)` GPUs wide ([`T_min`] itself when every
    /// GPU is free). This is exact: an option's degree is a useful degree
    /// of the row capped at the healthy cap, and step times fall along
    /// the row, so every option the packer could fit into the free set
    /// steps at least that long; an option's window `τ_eff` is at most
    /// the window, and a backfill pass never takes a step that crosses
    /// the boundary, so no such option is built; best effort's effective
    /// single-GPU step is at least the nominal `T(1)`, the row's first
    /// step, so it skips every late request.
    ///
    /// [`T_min`]: tetriserve_costmodel::ResolutionRow::t_min
    fn cannot_plan(&self, ctx: &SchedContext<'_>, at_boundary: bool, window: SimDuration) -> bool {
        if self.ids.is_empty() {
            return true;
        }
        if at_boundary {
            return false;
        }
        let widest = ctx.free.len().min(ctx.healthy.len()).min(ctx.n_gpus);
        self.ids.iter().all(|&id| {
            let Some(r) = ctx.tracker.get(id) else {
                return false;
            };
            // tetrilint: allow(nominal-step-time) -- a lower bound: slowdowns only lengthen steps, so a window shorter than a nominal step is shorter than its effective step too
            let row = ctx.costs.row(r.spec.resolution);
            let fastest_fitting = row
                .capped(widest)
                .last()
                .map_or(row.t_min, |d| SimDuration::from_micros(d.step_us));
            window < fastest_fitting
        })
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
        // Health view: never plan around parallelism that down GPUs cannot
        // provide. With everything down, or every GPU busy, there is
        // nothing to schedule: a zero-capacity pack selects no option and
        // best effort needs a free GPU.
        if ctx.healthy.is_empty() || ctx.free.is_empty() {
            return Vec::new();
        }
        let (at_boundary, window) = self.window_at(ctx.now);
        ctx.tracker.schedulable_ids_into(ctx.now, &mut self.ids);
        if self.cannot_plan(ctx, at_boundary, window) {
            return Vec::new();
        }
        self.plan_schedulable(ctx, at_boundary, window)
    }
}

impl TetriServePolicy {
    /// The pass body: plans the schedulable ids in `self.ids` at
    /// `ctx.now`, whose round window is `window`. Needs a free and
    /// healthy GPU.
    ///
    /// Returns early when nothing fits: if no packable request has an
    /// option besides *none* at most `ctx.free.len()` GPUs wide, packing
    /// and placement are skipped, and if best effort then adds no
    /// assignment either, the pass returns no plan. Both are exact. The
    /// packer skips every option wider than its capacity, so it would
    /// choose *none* for every request and placement would assign nothing;
    /// selective batching needs two assignments, and elastic scale-up only
    /// widens existing ones.
    fn plan_schedulable(
        &mut self,
        ctx: &SchedContext<'_>,
        at_boundary: bool,
        window: SimDuration,
    ) -> Vec<DispatchPlan> {
        let n_packable = self.build_option_sets(ctx, at_boundary, window);
        let capacity = ctx.free.len();
        let packable = self.packable.get(..n_packable).unwrap_or_default();
        let mut free = if packable.iter().any(|o| o.any_fits(capacity)) {
            self.pack_and_place(ctx, n_packable)
        } else {
            self.assignments.clear();
            ctx.free
        };
        self.add_best_effort(ctx, at_boundary, window, &mut free);
        if self.assignments.is_empty() {
            return Vec::new();
        }
        self.finish_plans(ctx, window, free)
    }

    /// [`plan_schedulable`](Self::plan_schedulable) without its early
    /// returns: every stage runs on every pass.
    #[cfg(test)]
    fn plan_schedulable_without_exit(
        &mut self,
        ctx: &SchedContext<'_>,
        at_boundary: bool,
        window: SimDuration,
    ) -> Vec<DispatchPlan> {
        let n_packable = self.build_option_sets(ctx, at_boundary, window);
        let mut free = self.pack_and_place(ctx, n_packable);
        self.add_best_effort(ctx, at_boundary, window, &mut free);
        self.finish_plans(ctx, window, free)
    }

    /// Stages 1 and 2: each schedulable request's allocation plan and
    /// option set. Writes the option sets of packable requests to the
    /// front of `self.packable`, returning their count, and the late
    /// requests to `self.best_effort`.
    fn build_option_sets(
        &mut self,
        ctx: &SchedContext<'_>,
        at_boundary: bool,
        window: SimDuration,
    ) -> usize {
        let now = ctx.now;
        let t_next = now + window;
        let costs = ctx.costs;
        let healthy_cap = ctx.healthy.len().min(ctx.n_gpus);
        let mut n_packable = 0;
        self.best_effort.clear();
        for &id in &self.ids {
            // tetrilint: allow(unwrap) -- id came from this tracker's own
            // schedulable_ids_into() just before the pass body.
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
        n_packable
    }

    /// Stages 3 and 4: packs the first `n_packable` option sets into the
    /// free capacity and places the chosen widths, overwriting
    /// `self.assignments`. Returns the GPUs left free.
    fn pack_and_place(&mut self, ctx: &SchedContext<'_>, n_packable: usize) -> GpuSet {
        let packable = self.packable.get(..n_packable).unwrap_or_default();

        // ── 3: group-knapsack packing over the free capacity. ───────────
        pack_round_into(
            packable,
            ctx.free.len(),
            &mut self.scratch,
            &mut self.packing,
        );

        // ── 4: placement with preservation. ─────────────────────────────
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
        place(
            &self.placement,
            ctx.free,
            self.config.placement_preservation,
            &ctx.costs.cluster().topology(),
            &mut self.assignments,
        );
        let mut free = ctx.free;
        for a in &self.assignments {
            free = free.difference(a.gpus);
        }
        free
    }

    /// Stage 5: best effort for late requests (§4.2.2): at most one GPU,
    /// EDF order, never displacing packed work. Appends to
    /// `self.assignments` and takes the GPUs it uses out of `free`.
    ///
    /// With elastic scale-up enabled, only the EDF head runs per round:
    /// admitting several late requests at once would let the elastic pass
    /// split the node between them, and for large resolutions fragmented
    /// halves cost far more GPU-hours than serving the late queue one
    /// request at a time at full width — under saturation that
    /// fragmentation cascades into collapse. Without elastic scale-up
    /// nothing widens the head, so the late requests run 1 GPU each in
    /// parallel (the paper's literal reading).
    fn add_best_effort(
        &mut self,
        ctx: &SchedContext<'_>,
        at_boundary: bool,
        window: SimDuration,
        free: &mut GpuSet,
    ) {
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
            *free = free.difference(gpu);
            self.assignments.push(Assignment {
                requests: Batch::one(id),
                resolution: r.spec.resolution,
                gpus: gpu,
                steps,
                remaining_before: r.remaining_steps,
            });
        }
    }

    /// Stages 6 and 7 over `self.assignments`, with `free` the GPUs
    /// nothing uses, then the plans they become.
    fn finish_plans(
        &mut self,
        ctx: &SchedContext<'_>,
        window: SimDuration,
        mut free: GpuSet,
    ) -> Vec<DispatchPlan> {
        let costs = ctx.costs;

        // ── 6: selective continuous batching (a lone assignment has
        // nothing to merge with). ─────────────────────────────────────────
        if self.config.selective_batching && self.assignments.len() >= 2 {
            let tau_eff = window.saturating_sub(RECONFIG_ALLOWANCE);
            let freed = merge_batches(
                &mut self.assignments,
                ctx.tracker,
                costs,
                tau_eff,
                ctx.now + window,
            );
            free = free.union(freed);
        }

        // ── 7: work-conserving elastic scale-up. ────────────────────────
        if self.config.elastic_scale_up {
            elastic_scale_up(
                &mut self.assignments,
                &mut free,
                costs,
                &costs.cluster().topology(),
                window.saturating_sub(RECONFIG_ALLOWANCE),
                ELASTIC_MIN_BENEFIT,
            );
        }

        self.assignments
            .drain(..)
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

    /// The h100x8 or a40x4 cost table, profiled once per test thread.
    fn cluster_costs(a40: bool) -> CostTable {
        thread_local! {
            static TABLES: [CostTable; 2] = [
                costs(),
                Profiler::new(DitModel::flux_dev(), ClusterSpec::a40x4()).analytic(),
            ];
        }
        TABLES.with(|t| t[usize::from(a40)].clone())
    }

    /// One guarded pass and one unguarded pass over the same snapshot:
    /// whether the guard fired, the body's plans, and the guarded pass's.
    fn guarded_and_unguarded(
        policy: &mut TetriServePolicy,
        ctx: &SchedContext<'_>,
    ) -> (bool, Vec<DispatchPlan>, Vec<DispatchPlan>) {
        let (at_boundary, window) = policy.window_at(ctx.now);
        ctx.tracker.schedulable_ids_into(ctx.now, &mut policy.ids);
        let fires = policy.cannot_plan(ctx, at_boundary, window);
        let unguarded = policy.plan_schedulable(ctx, at_boundary, window);
        let guarded = policy.schedule(ctx);
        (fires, unguarded, guarded)
    }

    #[test]
    fn prop_early_return_only_skips_passes_that_plan_nothing() {
        // Whenever the early return fires, the pass body it skips would
        // have returned no plan; and the guarded pass always plans what
        // the body plans, over 600 generated snapshots. Backlogs mix the
        // production resolutions, 1–50 remaining steps, previous
        // placements and deadlines before and after `now`; `now` lies on
        // the τ grid, a few µs either side of a backlog request's `T_min`
        // before the next boundary, anywhere in the round, in a sliver
        // shorter than every `T_min`, or a few µs either side of a
        // request's fastest step on at most `min(|free|, healthy cap)`
        // GPUs (the free-set bound's knife edge). A plain loop over
        // proptest strategies, so the run can count where the free-set
        // bound fires and `T_min` alone would not.
        use proptest::prelude::{any, Strategy, TestRng};

        const CASES: u32 = 600;
        let strategy = (
            any::<bool>(),
            proptest::collection::vec(((0usize..4, 1u32..=50), (0usize..4, 0u64..25_000)), 1..=8),
            (1u64..40, 0u32..5, 0usize..8, 0u64..5),
            (1u64..256, 1u64..256),
            0.0f64..1.0,
        );
        let mut rng = TestRng::from_name("scheduler::early_return");
        let (mut cases, mut fired, mut only_free_bound) = (0u32, 0u32, 0u32);
        while cases < CASES {
            let input = strategy.generate(&mut rng);
            let (a40, backlog, clock, masks, offset_frac) = input.clone();
            let (round, regime, pick, jitter) = clock;
            let (healthy_mask, free_mask) = masks;
            let c = cluster_costs(a40);
            let n = if a40 { 4 } else { 8 };
            let healthy = GpuSet::from_mask(healthy_mask).intersection(GpuSet::first_n(n));
            let free = GpuSet::from_mask(free_mask).intersection(healthy);
            if free.is_empty() {
                continue;
            }
            let mut policy = TetriServePolicy::with_defaults(&c);
            let tau = policy.tau();
            let boundary = SimTime::ZERO + tau * round;
            let res_of = |i: usize| Resolution::PRODUCTION[i];
            let t_min_of = |i: usize| c.t_min(res_of(i));
            // The batch-1 step at the widest useful degree a backfill
            // option can run on these free GPUs.
            let widest = free.len().min(healthy.len());
            let fitting_of = |i: usize| {
                let d = c
                    .row(res_of(i))
                    .capped(widest)
                    .last()
                    .expect("degree 1 fits");
                SimDuration::from_micros(d.step_us)
            };
            let min_t_min = backlog
                .iter()
                .map(|&((r, _), _)| t_min_of(r))
                .min()
                .unwrap();
            let to_next = |window: SimDuration| boundary + tau - window;
            let near = |t: SimDuration| {
                to_next(t + SimDuration::from_micros(jitter) - SimDuration::from_micros(2))
            };
            let picked = backlog[pick % backlog.len()].0 .0;
            let now = match regime {
                0 => boundary,
                // A backlog request's T_min before the boundary, −2..+2 µs.
                1 => near(t_min_of(picked)),
                2 => to_next(SimDuration::from_micros(
                    1 + (offset_frac * (tau.as_micros() - 1) as f64) as u64,
                )),
                3 => to_next(SimDuration::from_micros(
                    1 + (offset_frac * (min_t_min.as_micros() - 1) as f64) as u64,
                )),
                // Its fastest step on the free GPUs, −2..+2 µs.
                _ => near(fitting_of(picked)),
            };
            let mut tracker = RequestTracker::new();
            for (id, &((r, remaining), (placement, slack_ms))) in backlog.iter().enumerate() {
                let id = RequestId(id as u64);
                // Arrived up to 10 s ago, due from 10 s ago to 15 s ahead
                // but not before it arrived.
                let arrival = SimTime::from_micros(now.as_micros().saturating_sub(slack_ms * 400));
                let due = SimTime::from_micros(
                    (now.as_micros() + slack_ms * 1_000).saturating_sub(10_000_000),
                );
                tracker.admit(RequestSpec {
                    tenant: TenantId::UNTAGGED,
                    id,
                    resolution: res_of(r),
                    arrival,
                    deadline: due.max(arrival),
                    total_steps: 50,
                    stages: StageProfile::FLAT,
                });
                if remaining < 50 {
                    let width = (1usize << placement).min(n);
                    tracker.start_dispatch(id, GpuSet::contiguous(0, width), 50 - remaining, 0.0);
                    tracker.finish_dispatch(id);
                }
            }
            let failures = FailurePlan::none();
            let ctx = SchedContext {
                now,
                free,
                healthy,
                n_gpus: n,
                tracker: &tracker,
                costs: &c,
                failures: &failures,
            };
            let (fires, unguarded, guarded) = guarded_and_unguarded(&mut policy, &ctx);
            if fires {
                assert!(
                    unguarded.is_empty(),
                    "guard skipped {unguarded:?}: {input:?}"
                );
                fired += 1;
                // Whether `T_min` alone would have fired.
                let (_, window) = policy.window_at(now);
                let below_t_min = policy
                    .ids
                    .iter()
                    .all(|&id| window < c.t_min(tracker.get(id).expect("tracked").spec.resolution));
                only_free_bound += u32::from(!below_t_min);
            }
            if regime == 3 {
                assert!(fires, "a sliver shorter than every T_min: {input:?}");
            }
            assert_eq!(guarded, unguarded, "{input:?}");
            cases += 1;
        }
        assert!(
            fired >= CASES / 5 && only_free_bound >= 30,
            "the guard fired on {fired} of {CASES} passes, {only_free_bound} of them \
             past every T_min"
        );
    }

    #[test]
    fn prop_nothing_fits_exit_plans_what_the_full_body_plans() {
        // The pass body with its early returns plans exactly what every
        // stage would have planned, over 600 generated snapshots: backlogs
        // of images and 8-frame clips, late requests, previous placements,
        // free sets smaller than the healthy set (so options can be wider
        // than the free GPUs), hard faults and stragglers, `now` on and off
        // the τ grid (and a few µs either side of a backlog request's step
        // time at some degree before the boundary), all four elastic ×
        // batching configurations, on h100x8 and a40x4. A plain loop over
        // proptest strategies, so the run can count how often the exit
        // fires.
        use proptest::prelude::{any, Strategy, TestRng};
        use tetriserve_simulator::failure::{GpuFault, PerfFault};

        const CASES: u32 = 600;
        let strategy = (
            (any::<bool>(), any::<bool>(), any::<bool>()),
            proptest::collection::vec(
                (
                    (0usize..4, 1u32..=50, any::<bool>()),
                    (0usize..4, 0u64..10_000, 200u64..25_000, 0u32..4),
                ),
                1..=8,
            ),
            (
                1u64..40,
                0u32..3,
                (0usize..8, 0usize..4),
                (0u64..5, 0.0f64..1.0),
            ),
            (1u64..256, 0u32..4, 0u64..256, 0u64..256),
            (1.0f64..3.0, 0u32..4),
        );
        let mut rng = TestRng::from_name("scheduler::nothing_fits_exit");
        let (mut cases, mut planned) = (0u32, 0u32);
        // Passes that skipped packing; of those, the ones that still
        // planned late work, and the ones whose only options besides
        // *none* were wider than the free GPUs.
        let (mut skipped, mut late_planned, mut too_wide) = (0u32, 0u32, 0u32);
        while cases < CASES {
            let input = strategy.generate(&mut rng);
            let (
                (a40, elastic_scale_up, selective_batching),
                backlog,
                clock,
                masks,
                (slow, all_tight),
            ) = input.clone();
            let (round, regime, (pick, degree), (jitter, offset_frac)) = clock;
            let (free_mask, free_cap, down_mask, slow_mask) = masks;
            let c = cluster_costs(a40);
            let n = if a40 { 4 } else { 8 };
            let config = TetriServeConfig {
                elastic_scale_up,
                selective_batching,
                ..TetriServeConfig::default()
            };
            let mut policy = TetriServePolicy::new(config, &c);
            let tau = policy.tau();
            let boundary = SimTime::ZERO + tau * round;
            let res_of = |i: usize| Resolution::PRODUCTION[i];
            let now = match regime {
                0 => boundary,
                // A backlog request's step time at some degree before the
                // next boundary, −2..+2 µs.
                1 => {
                    let res = res_of(backlog[pick % backlog.len()].0 .0);
                    let t = c.step_time(res, (1 << degree).min(n), 1);
                    boundary + tau - (t + SimDuration::from_micros(jitter))
                        + SimDuration::from_micros(2)
                }
                _ => {
                    boundary
                        + SimDuration::from_micros(
                            1 + (offset_frac * (tau.as_micros() - 1) as f64) as u64,
                        )
                }
            };
            let mut failures = FailurePlan::none();
            for g in 0..n {
                let until = now + SimDuration::from_secs_f64(1.0);
                if down_mask & (1 << g) != 0 {
                    failures =
                        failures.with_fault(GpuFault::transient(GpuId(g), SimTime::ZERO, until));
                }
                if slow_mask & (1 << g) != 0 {
                    failures = failures.with_perf_fault(PerfFault::straggler(
                        GpuId(g),
                        slow,
                        SimTime::ZERO,
                        until,
                    ));
                }
            }
            let healthy = GpuSet::first_n(n).difference(failures.down_gpus(now));
            let free = GpuSet::from_mask(free_mask).intersection(healthy);
            if free.is_empty() {
                continue;
            }
            // At most 1, 2, 4 or 8 of the healthy GPUs in the mask are free.
            let free = free
                .take_lowest(free.len().min(1 << free_cap))
                .expect("takes no more than the set holds");
            let mut tracker = RequestTracker::new();
            for (id, &((r, remaining, video), (placement, ago_ms, slo_ms, tight))) in
                backlog.iter().enumerate()
            {
                let id = RequestId(id as u64);
                let res = res_of(r);
                let stages = if video {
                    StageProfile::video(8)
                } else {
                    StageProfile::FLAT
                };
                // Arrived up to 10 s ago with a 0.2–25 s budget: some are
                // past their deadline. One in four (every request in one
                // case in four) is instead due a few µs after its remaining
                // steps at the fastest degree, and its decode, could
                // finish, so its only option besides *none* is that degree.
                let arrival = SimTime::from_micros(now.as_micros().saturating_sub(ago_ms * 1_000));
                let deadline = if tight == 0 || all_tight == 0 {
                    now + c.decode_time(res, stages.frames)
                        + c.t_min(res) * u64::from(remaining * stages.frames)
                        + SimDuration::from_micros(jitter)
                } else {
                    arrival + SimDuration::from_millis(slo_ms)
                };
                tracker.admit(RequestSpec {
                    tenant: TenantId::UNTAGGED,
                    id,
                    resolution: res,
                    arrival,
                    deadline,
                    total_steps: 50,
                    stages,
                });
                if remaining < 50 {
                    let width = (1usize << placement).min(n);
                    tracker.start_dispatch(id, GpuSet::contiguous(0, width), 50 - remaining, 0.0);
                    tracker.finish_dispatch(id);
                }
            }
            let ctx = SchedContext {
                now,
                free,
                healthy,
                n_gpus: n,
                tracker: &tracker,
                costs: &c,
                failures: &failures,
            };
            let (at_boundary, window) = policy.window_at(now);
            tracker.schedulable_ids_into(now, &mut policy.ids);
            let full = policy.plan_schedulable_without_exit(&ctx, at_boundary, window);
            let packs = policy.scratch.calls();
            let plans = policy.plan_schedulable(&ctx, at_boundary, window);
            assert_eq!(plans, full, "case {cases} at {now}: {input:?}");
            crate::policy::validate_plans(&plans, &ctx).expect("valid plans");
            cases += 1;
            if policy.scratch.calls() == packs {
                skipped += 1;
                late_planned += u32::from(!plans.is_empty());
                let n_packable = policy.ids.len() - policy.best_effort.len();
                too_wide += u32::from(
                    policy.packable[..n_packable]
                        .iter()
                        .any(|o| o.options.len() > 1),
                );
            }
            planned += u32::from(!plans.is_empty());
        }
        assert!(
            skipped >= CASES / 5 && late_planned >= 10 && too_wide >= 10 && planned >= CASES / 5,
            "{skipped} passes skipped packing ({late_planned} of them planned late work, \
             {too_wide} had only too-wide options), {planned} of {CASES} planned"
        );
    }

    /// A pass at `now` over `tracker` with the given free and healthy sets
    /// and no faults.
    fn pass(
        policy: &mut TetriServePolicy,
        tracker: &RequestTracker,
        costs: &CostTable,
        now: SimTime,
        free: GpuSet,
    ) -> Vec<DispatchPlan> {
        let failures = FailurePlan::none();
        let ctx = SchedContext {
            now,
            free,
            healthy: GpuSet::first_n(8),
            n_gpus: 8,
            tracker,
            costs,
            failures: &failures,
        };
        let plans = policy.schedule(&ctx);
        crate::policy::validate_plans(&plans, &ctx).expect("valid plans");
        plans
    }

    #[test]
    fn backfill_whose_only_option_is_wider_than_the_free_gpus_skips_packing() {
        // A 2048² due one fastest-degree run (plus decode) from now can
        // only run 8 wide; with 4 GPUs free nothing fits, so the pass
        // plans nothing without calling the packer.
        let c = costs();
        let mut policy = TetriServePolicy::with_defaults(&c);
        let res = Resolution::R2048;
        let now = SimTime::ZERO + policy.tau() * 5 + policy.tau() / 4;
        let mut tracker = RequestTracker::new();
        tracker.admit(RequestSpec {
            deadline: now + c.decode_time(res, 1) + c.t_min(res) * 50,
            ..spec(1, res, now.as_secs_f64(), 0.0)
        });
        let packs = policy.scratch.calls();
        let plans = pass(&mut policy, &tracker, &c, now, GpuSet::first_n(4));
        assert!(plans.is_empty(), "{plans:?}");
        assert_eq!(policy.scratch.calls(), packs, "the packer ran");
        let widths: Vec<usize> = policy.packable[0].options.iter().map(|o| o.width).collect();
        assert_eq!(widths, [0, 8], "the only option besides none is 8 wide");
        // With all 8 GPUs free the same pass packs and plans it.
        let plans = pass(&mut policy, &tracker, &c, now, GpuSet::first_n(8));
        assert_eq!(plans.len(), 1, "{plans:?}");
        assert_eq!(plans[0].degree(), 8);
        assert_eq!(policy.scratch.calls(), packs + 1);
    }

    #[test]
    fn backfill_whose_only_work_is_a_late_request_still_plans_it() {
        // Nothing is packable, so packing is skipped, but the late
        // request's one-GPU step fits the residual window: best effort
        // still runs it.
        let c = costs();
        let mut policy = TetriServePolicy::with_defaults(&c);
        let res = Resolution::R256;
        let now = SimTime::ZERO + policy.tau() * 20 + policy.tau() / 4;
        let (_, window) = policy.window_at(now);
        assert!(c.step_time(res, 1, 1) <= window);
        let mut tracker = RequestTracker::new();
        tracker.admit(spec(1, res, 0.0, 1.5));
        let packs = policy.scratch.calls();
        let plans = pass(&mut policy, &tracker, &c, now, GpuSet::first_n(8));
        assert_eq!(plans.len(), 1, "{plans:?}");
        assert_eq!(plans[0].requests, Batch::one(RequestId(1)));
        assert_eq!(policy.scratch.calls(), packs, "nothing was packable");
    }

    #[test]
    fn window_of_exactly_t_min_still_plans() {
        // A one-step request due exactly one fastest step (plus its
        // decode) from now can only run at its fastest degree, and a
        // window of exactly T_min fits that one step: the guard's `<`
        // must not fire.
        let c = costs();
        let mut policy = TetriServePolicy::with_defaults(&c);
        let res = Resolution::R256;
        let t_min = c.t_min(res);
        let now = SimTime::ZERO + policy.tau() * 3 - t_min;
        let mut tracker = RequestTracker::new();
        tracker.admit(RequestSpec {
            tenant: TenantId::UNTAGGED,
            id: RequestId(1),
            resolution: res,
            arrival: now,
            deadline: now + c.decode_time(res, 1) + t_min,
            total_steps: 1,
            stages: StageProfile::FLAT,
        });
        let failures = FailurePlan::none();
        let ctx = SchedContext {
            now,
            free: GpuSet::first_n(8),
            healthy: GpuSet::first_n(8),
            n_gpus: 8,
            tracker: &tracker,
            costs: &c,
            failures: &failures,
        };
        assert_eq!(policy.window_at(now), (false, t_min));
        let (fires, unguarded, guarded) = guarded_and_unguarded(&mut policy, &ctx);
        assert!(!fires);
        assert_eq!(unguarded.len(), 1, "{unguarded:?}");
        assert_eq!(unguarded[0].degree(), c.fastest_degree(res));
        assert_eq!(guarded, unguarded);
        // One microsecond less and no step fits: the guard fires.
        let ctx = SchedContext {
            now: now + SimDuration::from_micros(1),
            ..ctx
        };
        let (fires, unguarded, _) = guarded_and_unguarded(&mut policy, &ctx);
        assert!(fires && unguarded.is_empty(), "{unguarded:?}");
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
