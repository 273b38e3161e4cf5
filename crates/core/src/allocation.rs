//! Deadline-aware GPU allocation (§4.2.1).
//!
//! For each request, find the step-level allocation plan `{(s^m, A^m)}`
//! that minimises total GPU-hours `Σ s^m · A^m · T(A^m)` subject to the
//! deadline `Σ s^m · T(A^m) ≤ slack`.
//!
//! Because the per-step GPU-hour rate `g(k) = k·T(k)` is increasing in `k`
//! while the per-step latency `T(k)` is decreasing (Insight 2), this is a
//! tiny linear program whose optimum mixes **at most two degrees**: run as
//! many steps as possible at a cheap degree, and the rest at a faster one
//! that pulls the completion time under the deadline — exactly the
//! behaviour Figure 6 of the paper illustrates ("GPU allocations with two
//! parallelism degrees that just meet their deadlines"). With at most four
//! candidate degrees we simply enumerate all single degrees and ordered
//! pairs and keep the cheapest feasible plan, which is exact.

use std::fmt;

use tetriserve_costmodel::{CostTable, Resolution};
use tetriserve_simulator::gpuset::GpuSet;
use tetriserve_simulator::time::SimDuration;

/// One segment of an allocation plan: `steps` steps at `degree` GPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSegment {
    /// Number of steps to run at this degree (`s^m`).
    pub steps: u32,
    /// Sequence-parallel degree (`A^m`).
    pub degree: usize,
}

/// A request's deadline-aware allocation plan: at most two segments, held
/// inline so planning a request never touches the heap.
#[derive(Clone, Copy)]
pub struct AllocationPlan {
    /// Segment storage; only the first `len` entries are meaningful.
    segs: [AllocSegment; 2],
    len: usize,
    /// Whether the plan meets the deadline. When `false` the request is
    /// *definitely late* — even maximal parallelism cannot save it — and
    /// the segments fall back to best-effort at the fastest degree.
    pub feasible: bool,
}

impl AllocationPlan {
    /// A one-segment plan.
    fn single(seg: AllocSegment, feasible: bool) -> Self {
        AllocationPlan {
            segs: [seg, seg],
            len: 1,
            feasible,
        }
    }

    /// A feasible two-segment plan, `lo` first.
    fn pair(lo: AllocSegment, hi: AllocSegment) -> Self {
        AllocationPlan {
            segs: [lo, hi],
            len: 2,
            feasible: true,
        }
    }

    /// Plan segments ordered cheap-degree-first (the execution order in
    /// Figure 6: start narrow, scale up toward the deadline).
    pub fn segments(&self) -> &[AllocSegment] {
        self.segs.get(..self.len).unwrap_or_default()
    }

    /// Total steps across segments.
    pub fn total_steps(&self) -> u32 {
        self.segments().iter().map(|s| s.steps).sum()
    }

    /// Estimated runtime of the plan.
    pub fn runtime(&self, res: Resolution, costs: &CostTable) -> SimDuration {
        self.segments()
            .iter()
            .map(|s| costs.step_time(res, s.degree, 1) * u64::from(s.steps))
            .sum()
    }

    /// Estimated GPU-seconds of the plan.
    pub fn gpu_seconds(&self, res: Resolution, costs: &CostTable) -> f64 {
        self.segments()
            .iter()
            .map(|s| costs.gpu_seconds(res, s.degree) * f64::from(s.steps))
            .sum()
    }
}

impl PartialEq for AllocationPlan {
    fn eq(&self, other: &Self) -> bool {
        self.segments() == other.segments() && self.feasible == other.feasible
    }
}

impl fmt::Debug for AllocationPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AllocationPlan")
            .field("segments", &self.segments())
            .field("feasible", &self.feasible)
            .finish()
    }
}

/// Degrees worth considering, ascending: those that strictly improve
/// latency over every smaller degree (a degree that is both slower *and*
/// wider is dominated and never useful).
pub fn useful_degrees(res: Resolution, costs: &CostTable) -> impl Iterator<Item = usize> + '_ {
    useful_step_times(res, costs).map(|(k, _)| k)
}

/// [`useful_degrees`] paired with each degree's single-request step time.
fn useful_step_times(
    res: Resolution,
    costs: &CostTable,
) -> impl Iterator<Item = (usize, SimDuration)> + '_ {
    let mut best = SimDuration::MAX;
    costs.degrees().iter().filter_map(move |&k| {
        let t = costs.step_time(res, k, 1);
        if t < best {
            best = t;
            Some((k, t))
        } else {
            None
        }
    })
}

/// Computes the minimal-GPU-hour plan for `remaining_steps` steps of `res`
/// that completes within `slack`.
///
/// # Examples
///
/// ```
/// use tetriserve_core::allocation::min_gpu_hour_plan;
/// use tetriserve_costmodel::{ClusterSpec, DitModel, Profiler, Resolution};
/// use tetriserve_simulator::time::SimDuration;
///
/// let costs = Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic();
/// // A relaxed 1024² request runs on one GPU (minimal GPU-hours)…
/// let relaxed = min_gpu_hour_plan(Resolution::R1024, 50, SimDuration::from_secs(60), &costs);
/// assert_eq!(relaxed.segments()[0].degree, 1);
/// // …while a 5-second 2048² deadline forces wide execution.
/// let tight = min_gpu_hour_plan(Resolution::R2048, 50, SimDuration::from_secs(5), &costs);
/// assert!(tight.feasible);
/// assert_eq!(tight.segments().last().unwrap().degree, 8);
/// ```
///
/// # Panics
///
/// Panics if `remaining_steps` is zero.
pub fn min_gpu_hour_plan(
    res: Resolution,
    remaining_steps: u32,
    slack: SimDuration,
    costs: &CostTable,
) -> AllocationPlan {
    min_gpu_hour_plan_capped(res, remaining_steps, slack, costs, 1.0, usize::MAX)
}

/// Like [`min_gpu_hour_plan`], but inflates step times by `headroom` in
/// every feasibility check and considers no degree wider than
/// `max_degree`.
///
/// Round-based execution loses a small fraction of each round to the bubble
/// between the last completed step and the round boundary; the scheduler
/// passes its round headroom here so plans keep exactly the margin that
/// quantisation will consume. Plan *costs* still use true step times.
///
/// The scheduler passes the healthy GPU count as `max_degree` so plans
/// never rely on parallelism that hard-faulted GPUs cannot provide. A plan
/// that was feasible at full width may become infeasible under the cap; it
/// then falls back to best effort at the widest healthy degree.
///
/// # Panics
///
/// Panics if `remaining_steps` is zero, `headroom < 1.0`, `max_degree` is
/// below the narrowest profiled degree, or the cost table has more useful
/// degrees than the powers of two up to [`GpuSet::MAX_GPUS`].
pub fn min_gpu_hour_plan_capped(
    res: Resolution,
    remaining_steps: u32,
    slack: SimDuration,
    costs: &CostTable,
    headroom: f64,
    max_degree: usize,
) -> AllocationPlan {
    assert!(remaining_steps > 0, "allocation needs at least one step");
    assert!(headroom >= 1.0, "headroom must be ≥ 1.0, got {headroom}");
    // Read each capped degree's inflated step time and GPU-seconds once;
    // the enumeration below then only does arithmetic on this table.
    let mut table = [DegreeCost::default(); MAX_DEGREES];
    let mut capped = useful_step_times(res, costs).filter(|&(k, _)| k <= max_degree);
    let mut n = 0;
    for (slot, (degree, t)) in table.iter_mut().zip(capped.by_ref()) {
        *slot = DegreeCost {
            degree,
            t_us: (t.as_micros() as f64 * headroom).ceil() as u64,
            gpu_seconds: costs.gpu_seconds(res, degree),
        };
        n += 1;
    }
    assert!(
        capped.next().is_none(),
        "more than {MAX_DEGREES} useful degrees"
    );
    let degrees = table.get(..n).unwrap_or_default();
    let Some(fastest) = degrees.last() else {
        panic!("degree cap {max_degree} excludes every profiled degree");
    };
    let steps = u64::from(remaining_steps);
    let slack_us = slack.as_micros();

    let mut best: Option<(f64, AllocationPlan)> = None;
    let mut consider = |cost: f64, plan: AllocationPlan| {
        if best.as_ref().is_none_or(|&(c, _)| cost < c) {
            best = Some((cost, plan));
        }
    };

    // Single-degree plans.
    for d in degrees {
        if steps * d.t_us <= slack_us {
            consider(
                d.gpu_seconds * steps as f64,
                AllocationPlan::single(
                    AllocSegment {
                        steps: remaining_steps,
                        degree: d.degree,
                    },
                    true,
                ),
            );
        }
    }

    // Two-degree mixes: s_lo steps at the cheaper degree, the rest at the
    // faster one. For each pair, the GPU-hour-minimal split maximises the
    // cheap-segment length subject to the deadline.
    for (i, lo) in degrees.iter().enumerate() {
        for hi in degrees.iter().skip(i + 1) {
            debug_assert!(
                lo.t_us > hi.t_us,
                "degrees are filtered to strictly improve"
            );
            if steps * hi.t_us > slack_us {
                continue; // even all-fast misses
            }
            // s_lo·t_lo + (S−s_lo)·t_hi ≤ slack  ⇒  s_lo ≤ (slack − S·t_hi)/(t_lo − t_hi)
            let s_lo = ((slack_us - steps * hi.t_us) / (lo.t_us - hi.t_us)).min(steps);
            let s_hi = steps - s_lo;
            if s_lo == 0 || s_hi == 0 {
                continue; // degenerates to a single-degree plan
            }
            let cost = lo.gpu_seconds * s_lo as f64 + hi.gpu_seconds * s_hi as f64;
            consider(
                cost,
                AllocationPlan::pair(
                    AllocSegment {
                        steps: s_lo as u32,
                        degree: lo.degree,
                    },
                    AllocSegment {
                        steps: s_hi as u32,
                        degree: hi.degree,
                    },
                ),
            );
        }
    }

    match best {
        Some((_, plan)) => plan,
        // Definitely late: best effort at the fastest degree.
        None => AllocationPlan::single(
            AllocSegment {
                steps: remaining_steps,
                degree: fastest.degree,
            },
            false,
        ),
    }
}

/// Capacity of the plan search's degree table: every cluster's degree
/// axis is the powers of two up to its GPU count, and a node has at most
/// [`GpuSet::MAX_GPUS`] GPUs.
const MAX_DEGREES: usize = GpuSet::MAX_GPUS.ilog2() as usize + 1;

/// One degree the plan search may use, with the numbers it reads.
#[derive(Debug, Clone, Copy, Default)]
struct DegreeCost {
    degree: usize,
    /// Step time inflated by the headroom, in µs (feasibility checks).
    t_us: u64,
    /// Un-inflated GPU-seconds per step (plan cost).
    gpu_seconds: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetriserve_costmodel::{ClusterSpec, CommScheme, CostRow, DitModel, Profiler};

    /// The plan search as it was before its per-degree lookups were
    /// hoisted into a table: every candidate re-reads the cost table and
    /// builds its own segment list. Kept as the oracle the hoisted search
    /// must match exactly.
    fn reference_plan_capped(
        res: Resolution,
        remaining_steps: u32,
        slack: SimDuration,
        costs: &CostTable,
        headroom: f64,
        max_degree: usize,
    ) -> (Vec<AllocSegment>, bool) {
        let mut degrees: Vec<usize> = Vec::new();
        let mut fastest = SimDuration::MAX;
        for &k in costs.degrees() {
            let t = costs.step_time(res, k, 1);
            if t < fastest {
                fastest = t;
                degrees.push(k);
            }
        }
        degrees.retain(|&k| k <= max_degree);
        assert!(!degrees.is_empty());
        let steps = u64::from(remaining_steps);
        let slack_us = slack.as_micros();
        let inflate = |t: SimDuration| (t.as_micros() as f64 * headroom).ceil() as u64;

        let mut best: Option<(f64, Vec<AllocSegment>)> = None;
        let mut consider = |cost: f64, segs: Vec<AllocSegment>| {
            let better = match &best {
                None => true,
                Some((c, _)) => cost < *c,
            };
            if better {
                best = Some((cost, segs));
            }
        };
        for &k in &degrees {
            let t = inflate(costs.step_time(res, k, 1));
            if steps * t <= slack_us {
                consider(
                    costs.gpu_seconds(res, k) * steps as f64,
                    vec![AllocSegment {
                        steps: remaining_steps,
                        degree: k,
                    }],
                );
            }
        }
        for (i, &k_lo) in degrees.iter().enumerate() {
            for &k_hi in degrees.iter().skip(i + 1) {
                let t_lo = inflate(costs.step_time(res, k_lo, 1));
                let t_hi = inflate(costs.step_time(res, k_hi, 1));
                if steps * t_hi > slack_us {
                    continue;
                }
                let s_lo = ((slack_us - steps * t_hi) / (t_lo - t_hi)).min(steps);
                let s_hi = steps - s_lo;
                if s_lo == 0 || s_hi == 0 {
                    continue;
                }
                let cost = costs.gpu_seconds(res, k_lo) * s_lo as f64
                    + costs.gpu_seconds(res, k_hi) * s_hi as f64;
                consider(
                    cost,
                    vec![
                        AllocSegment {
                            steps: s_lo as u32,
                            degree: k_lo,
                        },
                        AllocSegment {
                            steps: s_hi as u32,
                            degree: k_hi,
                        },
                    ],
                );
            }
        }
        match best {
            Some((_, segments)) => (segments, true),
            None => (
                vec![AllocSegment {
                    steps: remaining_steps,
                    degree: *degrees.last().unwrap(),
                }],
                false,
            ),
        }
    }

    fn costs() -> CostTable {
        Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic()
    }

    fn a40_costs() -> CostTable {
        Profiler::new(DitModel::sd3_medium(), ClusterSpec::a40x4()).analytic()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        /// The hoisted search returns exactly the reference's plan on both
        /// testbeds, for random slacks and for slacks on and next to each
        /// degree's all-steps knife edge, where the `≤` tests flip.
        #[test]
        fn prop_hoisted_search_matches_reference(
            a40 in proptest::prelude::any::<bool>(),
            res_idx in 0usize..4,
            steps in 1u32..=50,
            slack_us in 0u64..=60_000_000,
            headroom_idx in 0usize..2,
            cap_idx in 0usize..4,
        ) {
            let c = if a40 { a40_costs() } else { costs() };
            let res = Resolution::PRODUCTION[res_idx];
            let headroom = [1.0, crate::config::ROUND_HEADROOM][headroom_idx];
            let cap = [1, 2, 4, 8][cap_idx];
            let edges = useful_degrees(res, &c).flat_map(|k| {
                let t = (c.step_time(res, k, 1).as_micros() as f64 * headroom).ceil() as u64;
                let edge = u64::from(steps) * t;
                [edge - 1, edge, edge + 1]
            });
            for slack in std::iter::once(slack_us).chain(edges) {
                let slack = SimDuration::from_micros(slack);
                let plan = min_gpu_hour_plan_capped(res, steps, slack, &c, headroom, cap);
                let (segments, feasible) =
                    reference_plan_capped(res, steps, slack, &c, headroom, cap);
                proptest::prop_assert_eq!(plan.segments(), &segments[..]);
                proptest::prop_assert_eq!(plan.feasible, feasible);
            }
        }
    }

    #[test]
    fn exact_cost_ties_keep_the_first_candidate() {
        // Under perfect linear scaling every degree costs the same
        // GPU-seconds per step, so candidate plans tie exactly. The search
        // keeps the first tied candidate in enumeration order (narrowest
        // single degree first), exactly as the reference does.
        let rows: Vec<CostRow> = Resolution::PRODUCTION
            .iter()
            .zip(1u64..)
            .flat_map(|(res, scale)| {
                [1usize, 2, 4, 8].map(|k| CostRow {
                    tokens: res.tokens(),
                    degree: k,
                    batch: 1,
                    step_micros: 80_000 * scale / k as u64,
                })
            })
            .collect();
        let c = CostTable::from_rows(
            DitModel::flux_dev(),
            ClusterSpec::h100x8(),
            CommScheme::Ulysses,
            &rows,
        );
        for res in Resolution::PRODUCTION {
            assert_eq!(c.gpu_seconds(res, 1), c.gpu_seconds(res, 8), "{res}");
            for steps in 1..=50 {
                for slack_ms in (0..=20_000).step_by(250) {
                    let slack = SimDuration::from_millis(slack_ms);
                    let plan = min_gpu_hour_plan(res, steps, slack, &c);
                    let (segments, feasible) =
                        reference_plan_capped(res, steps, slack, &c, 1.0, usize::MAX);
                    assert_eq!(plan.segments(), &segments[..], "{res} {steps} {slack}");
                    assert_eq!(plan.feasible, feasible);
                }
            }
        }
        let relaxed = min_gpu_hour_plan(Resolution::R2048, 50, SimDuration::from_secs(60), &c);
        assert_eq!(relaxed.segments()[0].degree, 1);
    }

    #[test]
    fn useful_degrees_are_all_degrees_on_h100() {
        // With the calibrated model, T(k) strictly decreases for every
        // production resolution, so all four degrees are useful.
        let c = costs();
        for res in Resolution::PRODUCTION {
            assert_eq!(
                useful_degrees(res, &c).collect::<Vec<_>>(),
                vec![1, 2, 4, 8],
                "{res}"
            );
        }
    }

    #[test]
    fn loose_deadline_uses_one_gpu() {
        let c = costs();
        let plan = min_gpu_hour_plan(Resolution::R1024, 50, SimDuration::from_secs(60), &c);
        assert!(plan.feasible);
        assert_eq!(
            plan.segments(),
            [AllocSegment {
                steps: 50,
                degree: 1
            }]
        );
    }

    #[test]
    fn tight_deadline_forces_max_parallelism() {
        let c = costs();
        // 2048² in 5 s: nearly every step must run at SP=8 (a couple may
        // slip to SP=4 to shave GPU-hours — Figure 6's mixed-degree shape).
        let plan = min_gpu_hour_plan(Resolution::R2048, 50, SimDuration::from_secs(5), &c);
        assert!(plan.feasible);
        assert!(plan.runtime(Resolution::R2048, &c) <= SimDuration::from_secs(5));
        let sp8_steps: u32 = plan
            .segments()
            .iter()
            .filter(|s| s.degree == 8)
            .map(|s| s.steps)
            .sum();
        assert!(sp8_steps >= 40, "plan {plan:?}");
        assert_eq!(plan.segments().last().unwrap().degree, 8);
    }

    #[test]
    fn intermediate_deadline_mixes_two_degrees() {
        let c = costs();
        // Pick a slack between the all-SP4 and all-SP8 runtimes of 2048².
        let t4 = c.step_time(Resolution::R2048, 4, 1) * 50;
        let t8 = c.step_time(Resolution::R2048, 8, 1) * 50;
        let mid = SimDuration::from_micros((t4.as_micros() + t8.as_micros()) / 2);
        let plan = min_gpu_hour_plan(Resolution::R2048, 50, mid, &c);
        assert!(plan.feasible);
        assert_eq!(plan.segments().len(), 2, "plan {plan:?}");
        let degs: Vec<usize> = plan.segments().iter().map(|s| s.degree).collect();
        assert_eq!(degs, vec![4, 8]);
        assert_eq!(plan.total_steps(), 50);
        // Meets the deadline with the mixed plan…
        assert!(plan.runtime(Resolution::R2048, &c) <= mid);
        // …and costs less GPU time than running everything at SP8.
        let all_fast = 50.0 * c.gpu_seconds(Resolution::R2048, 8);
        assert!(plan.gpu_seconds(Resolution::R2048, &c) < all_fast);
    }

    #[test]
    fn mixed_plan_is_optimal_among_all_splits() {
        // Brute-force every (s at k_lo, rest at k_hi) split over every pair
        // and confirm the planner's cost matches the minimum.
        let c = costs();
        let res = Resolution::R1024;
        let steps = 30u32;
        let slack = SimDuration::from_secs_f64(2.0);
        let plan = min_gpu_hour_plan(res, steps, slack, &c);
        assert!(plan.feasible);
        let degrees: Vec<usize> = useful_degrees(res, &c).collect();
        let mut brute_best = f64::INFINITY;
        for &a in &degrees {
            for &b in &degrees {
                for s_a in 0..=steps {
                    let s_b = steps - s_a;
                    let t = c.step_time(res, a, 1) * u64::from(s_a)
                        + c.step_time(res, b, 1) * u64::from(s_b);
                    if t <= slack {
                        let cost = c.gpu_seconds(res, a) * f64::from(s_a)
                            + c.gpu_seconds(res, b) * f64::from(s_b);
                        brute_best = brute_best.min(cost);
                    }
                }
            }
        }
        let got = plan.gpu_seconds(res, &c);
        assert!(
            (got - brute_best).abs() / brute_best < 1e-9,
            "planner {got}, brute force {brute_best}"
        );
    }

    #[test]
    fn impossible_deadline_reports_infeasible_with_fastest_fallback() {
        let c = costs();
        let plan = min_gpu_hour_plan(Resolution::R2048, 50, SimDuration::from_millis(100), &c);
        assert!(!plan.feasible);
        assert_eq!(
            plan.segments()[0].degree,
            8,
            "fallback runs at T_min degree"
        );
        assert_eq!(plan.total_steps(), 50);
    }

    #[test]
    fn small_resolution_never_over_parallelises() {
        // Figure 6: R1 (256²) is fixed at SP=1 because its deadline is
        // satisfiable there and higher degrees waste GPU-hours.
        let c = costs();
        let plan = min_gpu_hour_plan(Resolution::R256, 50, SimDuration::from_millis(1500), &c);
        assert!(plan.feasible);
        assert_eq!(plan.segments().len(), 1);
        assert_eq!(plan.segments()[0].degree, 1);
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn zero_steps_rejected() {
        min_gpu_hour_plan(Resolution::R256, 0, SimDuration::from_secs(1), &costs());
    }

    #[test]
    fn degree_cap_excludes_unhealthy_widths() {
        let c = costs();
        // 2048² in 5 s needs SP=8 — but with only 4 healthy GPUs the plan
        // must cap at SP=4 and report infeasibility honestly.
        let plan =
            min_gpu_hour_plan_capped(Resolution::R2048, 50, SimDuration::from_secs(5), &c, 1.0, 4);
        assert!(plan.segments().iter().all(|s| s.degree <= 4), "{plan:?}");
        assert!(!plan.feasible, "SP=4 cannot make a 5 s 2048² deadline");
        // A relaxed deadline stays feasible under the same cap.
        let plan = min_gpu_hour_plan_capped(
            Resolution::R2048,
            50,
            SimDuration::from_secs(60),
            &c,
            1.0,
            4,
        );
        assert!(plan.feasible);
        assert!(plan.segments().iter().all(|s| s.degree <= 4));
        // An uncapped call is unchanged.
        let full = min_gpu_hour_plan(Resolution::R2048, 50, SimDuration::from_secs(5), &c);
        assert!(full.feasible);
    }

    #[test]
    #[should_panic(expected = "excludes every profiled degree")]
    fn cap_below_narrowest_degree_rejected() {
        min_gpu_hour_plan_capped(
            Resolution::R256,
            10,
            SimDuration::from_secs(1),
            &costs(),
            1.0,
            0,
        );
    }
}
