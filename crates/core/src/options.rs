//! Per-round option construction (Algorithm 1, lines 1–12).
//!
//! For each pending request the scheduler builds an option set
//! `O_i = {none} ∪ {m | q_i^m > 0 ∧ A_i^m ≤ N}` from its deadline-aware
//! allocation plan. Each option records:
//!
//! * `q_i^m = min(s_i^m, ⌊τ / T_i(A_i^m)⌋)` — steps completable this round;
//! * `w_i(o)` — GPU width consumed (0 for *none*);
//! * `sv_i(o)` — the survival indicator: with the optimistic residual bound
//!   `LB_i(o) = (Σ_m s̃_i^m(o)) · T_i^min`, the request *survives* iff
//!   `t_{r+1} + LB_i(o) ≤ D_i`.

use tetriserve_costmodel::{CostTable, Resolution};
use tetriserve_simulator::time::{SimDuration, SimTime};
use tetriserve_simulator::trace::RequestId;

use crate::allocation::AllocationPlan;

/// One entry of a request's per-round option set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundOption {
    /// Index into the allocation plan's segments; `None` is the *none*
    /// option (no GPUs this round).
    pub segment: Option<usize>,
    /// GPU width `w_i(o)`.
    pub width: usize,
    /// Steps `q_i^m` this option completes within the round.
    pub steps: u32,
    /// Survival indicator `sv_i(o)`.
    pub survives: bool,
}

/// A request's full option set for one round.
#[derive(Debug, Clone)]
pub struct RequestOptions {
    /// The request.
    pub id: RequestId,
    /// Its resolution (for batching decisions downstream).
    pub resolution: Resolution,
    /// The options, with *none* always first.
    pub options: Vec<RoundOption>,
    /// Fastest profiled per-step time `T_i^min`.
    pub t_min: SimDuration,
    /// Total remaining steps before this round.
    pub remaining_steps: u32,
    /// Fraction of the request already executed, in `[0, 1]` (investment
    /// protection tie-break in the packer).
    pub progress: f64,
    /// The absolute deadline.
    pub deadline: SimTime,
}

impl RequestOptions {
    /// The option with the given index.
    pub fn option(&self, idx: usize) -> RoundOption {
        // tetrilint: allow(taint-panic) -- accessor contract: callers index 0..len from this struct's own enumeration
        self.options[idx]
    }

    /// Whether *any* option (including none) survives — if not, the request
    /// is definitely late and belongs in the best-effort pool.
    pub fn any_survives(&self) -> bool {
        self.options.iter().any(|o| o.survives)
    }

    /// Whether an option besides *none* is at most `capacity` GPUs wide.
    /// If not, a packer with `capacity` GPUs can only choose *none*.
    pub(crate) fn any_fits(&self, capacity: usize) -> bool {
        self.options
            .iter()
            .any(|o| o.segment.is_some() && o.width <= capacity)
    }
}

/// Builds the option set for one request from its allocation plan.
///
/// `tau` is the scheduling window — the full round length at a boundary, or
/// the residual time to the next boundary during a mid-round backfill pass
/// — and `t_next` its end. When an option's degree differs from
/// `prev_width` (the request's current placement), the dispatch will pay a
/// reconfiguration stall, so `reconfig_allowance` is subtracted from the
/// window when sizing `q` — otherwise the stalled dispatch overruns the
/// round boundary and blocks the next round's packing.
///
/// With `allow_boundary_crossing` (round boundaries only), a request none
/// of whose degrees fit the window still gets a single boundary-crossing
/// step so slow requests are never starved; backfill passes disable it so
/// opportunistic work never holds GPUs into the next round's packing.
///
/// `buf` becomes the returned option list: it is cleared first, so a
/// scheduler can hand back the list of an earlier round and build the
/// option set without allocating (`Vec::new()` when there is none).
///
/// # Panics
///
/// Panics if the plan has no segments.
#[allow(clippy::too_many_arguments)]
pub fn build_options(
    id: RequestId,
    resolution: Resolution,
    deadline: SimTime,
    plan: &AllocationPlan,
    tau: SimDuration,
    t_next: SimTime,
    costs: &CostTable,
    n_gpus: usize,
    prev_width: Option<usize>,
    reconfig_allowance: SimDuration,
    allow_boundary_crossing: bool,
    buf: Vec<RoundOption>,
) -> RequestOptions {
    let segments = plan.segments();
    assert!(!segments.is_empty(), "allocation plan has no segments");
    let t_min = costs.t_min(resolution);
    let remaining: u32 = plan.total_steps();

    let survives_with = |steps_left: u32| -> bool {
        let lb = t_min * u64::from(steps_left);
        t_next + lb <= deadline
    };

    // Option "none": no progress this round.
    let mut options = buf;
    options.clear();
    options.push(RoundOption {
        segment: None,
        width: 0,
        steps: 0,
        survives: survives_with(remaining),
    });

    for (m, seg) in segments.iter().enumerate() {
        if seg.steps == 0 || seg.degree > n_gpus {
            continue;
        }
        let t = costs.step_time(resolution, seg.degree, 1);
        // Budget for the remap stall a placement change will incur. Fresh
        // requests (no previous placement) pay no remap cost.
        let tau_eff = match prev_width {
            Some(w) if w != seg.degree => tau.saturating_sub(reconfig_allowance),
            _ => tau,
        };
        // An option may absorb steps planned at *lower* degrees too:
        // running a step wider than planned only shortens it, so the
        // deadline still holds (it merely costs extra GPU-hours). Without
        // this, a nearly exhausted fast segment strands its last steps
        // into an extra round and the quantisation misses the deadline.
        let absorbable: u32 = segments
            .iter()
            .filter(|s| s.degree <= seg.degree)
            .map(|s| s.steps)
            .sum();
        let q = (tau_eff.div_floor(t) as u32).min(absorbable);
        if q == 0 {
            // Cannot finish even one step within the window at this degree;
            // Algorithm 1 discards such options — except when *no* degree
            // fits in a full round, where we still allow a single
            // boundary-crossing step so very slow requests are not starved
            // forever. Backfill passes never cross the boundary.
            let any_fits = segments.iter().any(|s| {
                s.steps > 0 && tau_eff.div_floor(costs.step_time(resolution, s.degree, 1)) >= 1
            });
            if any_fits || !allow_boundary_crossing {
                continue;
            }
        }
        let q = q.max(1);
        options.push(RoundOption {
            segment: Some(m),
            width: seg.degree,
            steps: q,
            survives: survives_with(remaining - q),
        });
    }

    RequestOptions {
        id,
        resolution,
        options,
        t_min,
        remaining_steps: remaining,
        progress: 0.0,
        deadline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::min_gpu_hour_plan;
    use tetriserve_costmodel::{ClusterSpec, DitModel, Profiler};

    fn costs() -> CostTable {
        Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic()
    }

    fn tau(costs: &CostTable) -> SimDuration {
        // Five steps of the slowest resolution at its fastest degree.
        costs.t_min(Resolution::R2048) * 5
    }

    #[test]
    fn none_is_always_first() {
        let c = costs();
        let plan = min_gpu_hour_plan(Resolution::R512, 50, SimDuration::from_secs(10), &c);
        let opts = build_options(
            RequestId(1),
            Resolution::R512,
            SimTime::from_secs_f64(10.0),
            &plan,
            tau(&c),
            SimTime::from_secs_f64(0.5),
            &c,
            8,
            None,
            SimDuration::ZERO,
            true,
            Vec::new(),
        );
        assert_eq!(opts.options[0].segment, None);
        assert_eq!(opts.options[0].width, 0);
        assert_eq!(opts.options[0].steps, 0);
    }

    #[test]
    fn q_matches_algorithm_one() {
        let c = costs();
        let plan = min_gpu_hour_plan(Resolution::R256, 50, SimDuration::from_secs(2), &c);
        let t = tau(&c);
        let opts = build_options(
            RequestId(1),
            Resolution::R256,
            SimTime::from_secs_f64(2.0),
            &plan,
            t,
            SimTime::ZERO + t,
            &c,
            8,
            None,
            SimDuration::ZERO,
            true,
            Vec::new(),
        );
        // Plan is [50 @ SP1]; q = min(50, ⌊τ/T(1)⌋).
        let expect_q = (t.div_floor(c.step_time(Resolution::R256, 1, 1)) as u32).min(50);
        let run = opts.options[1];
        assert_eq!(run.width, 1);
        assert_eq!(run.steps, expect_q);
        assert!(expect_q >= 5, "τ fits several small steps");
    }

    #[test]
    fn survival_tracks_residual_lower_bound() {
        let c = costs();
        let res = Resolution::R1024;
        let t = tau(&c);
        // Deadline that only survives if this round makes progress: the
        // residual bound after running must fit, but not after idling.
        let t_min = c.t_min(res);
        let remaining = 30u32;
        let plan = min_gpu_hour_plan(res, remaining, SimDuration::from_secs(60), &c);
        let q = (t.div_floor(c.step_time(res, 1, 1)) as u32).min(remaining);
        assert!(q >= 1);
        let t_next = SimTime::ZERO + t;
        // Deadline between LB(run) and LB(none).
        let lb_none = t_min * u64::from(remaining);
        let lb_run = t_min * u64::from(remaining - q);
        let deadline =
            t_next + SimDuration::from_micros((lb_none.as_micros() + lb_run.as_micros()) / 2);
        let opts = build_options(
            RequestId(2),
            res,
            deadline,
            &plan,
            t,
            t_next,
            &c,
            8,
            None,
            SimDuration::ZERO,
            true,
            Vec::new(),
        );
        assert!(!opts.options[0].survives, "idling misses");
        assert!(opts.options[1].survives, "running survives");
        assert!(opts.any_survives());
    }

    #[test]
    fn definitely_late_has_no_surviving_option() {
        let c = costs();
        let plan = min_gpu_hour_plan(Resolution::R2048, 50, SimDuration::from_millis(10), &c);
        assert!(!plan.feasible);
        let t = tau(&c);
        let opts = build_options(
            RequestId(3),
            Resolution::R2048,
            SimTime::from_millis(10),
            &plan,
            t,
            SimTime::ZERO + t,
            &c,
            8,
            None,
            SimDuration::ZERO,
            true,
            Vec::new(),
        );
        assert!(!opts.any_survives());
    }

    #[test]
    fn wide_segments_are_dropped_on_small_nodes() {
        let c = costs();
        let plan = min_gpu_hour_plan(Resolution::R2048, 50, SimDuration::from_secs(5), &c);
        assert!(plan.segments().iter().any(|s| s.degree == 8));
        let t = tau(&c);
        // On a 4-GPU budget any SP=8 segment is unusable (A_i^m ≤ N fails).
        let opts = build_options(
            RequestId(4),
            Resolution::R2048,
            SimTime::from_secs_f64(5.0),
            &plan,
            t,
            SimTime::ZERO + t,
            &c,
            4,
            None,
            SimDuration::ZERO,
            true,
            Vec::new(),
        );
        assert!(
            opts.options.iter().all(|o| o.width <= 4),
            "no option may exceed the node: {:?}",
            opts.options
        );
    }

    #[test]
    fn slow_step_requests_get_a_boundary_crossing_option() {
        // τ of one 2048-step is shorter than a 2048 SP=1 step, yet the
        // request must still be runnable (best-effort requests run at SP=1).
        let c = costs();
        let plan = min_gpu_hour_plan(Resolution::R2048, 10, SimDuration::from_secs(3600), &c);
        assert_eq!(plan.segments()[0].degree, 1);
        let small_tau = c.t_min(Resolution::R2048); // < T(2048, SP=1)
        let opts = build_options(
            RequestId(5),
            Resolution::R2048,
            SimTime::from_secs_f64(3600.0),
            &plan,
            small_tau,
            SimTime::ZERO + small_tau,
            &c,
            8,
            None,
            SimDuration::ZERO,
            true,
            Vec::new(),
        );
        let run = opts.options.iter().find(|o| o.segment.is_some()).unwrap();
        assert_eq!(run.steps, 1, "one boundary-crossing step allowed");
    }
}
