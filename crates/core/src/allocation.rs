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

use tetriserve_costmodel::{CostTable, Resolution, ResolutionRow, MAX_USEFUL_DEGREES};
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

    /// Estimated GPU-seconds of the plan: `k · T(k)` per step (batch 1).
    pub fn gpu_seconds(&self, res: Resolution, costs: &CostTable) -> f64 {
        self.segments()
            .iter()
            .map(|s| {
                let per_step = s.degree as f64 * costs.step_time(res, s.degree, 1).as_secs_f64();
                per_step * f64::from(s.steps)
            })
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

/// Whether the plan search settles `steps` steps of `row` within `slack`
/// at the row's narrowest degree without enumerating: GPU-seconds rise
/// along the row and all the steps fit at that degree under `headroom`.
///
/// That single-degree plan is then the first candidate the search visits,
/// and no other costs less as computed: a wider single degree costs more
/// before rounding and rounding is monotone, a pair whose cheap degree is
/// the narrowest one degenerates to it, and any other pair costs more by
/// a rise that
/// [`GPU_SECONDS_RISE_MARGIN`](tetriserve_costmodel::GPU_SECONDS_RISE_MARGIN)
/// keeps above what float rounding can erase (DESIGN.md §10.1). So the
/// strict `<` keeps it.
fn runs_at_narrowest(row: &ResolutionRow, steps: u32, slack: SimDuration, headroom: f64) -> bool {
    row.degrees().first().is_some_and(|d| {
        row.gpu_seconds_rising()
            && u64::from(steps) * inflate_us(d.step_us, headroom) <= slack.as_micros()
    })
}

/// `⌈us × headroom⌉` in µs, exactly `(us as f64 * headroom).ceil() as
/// u64` (saturating at `u64::MAX`), without a libm `ceil` call: a
/// non-negative product truncates toward zero, and the truncation is the
/// ceiling unless it fell below the product.
fn inflate_us(us: u64, headroom: f64) -> u64 {
    let x = us as f64 * headroom;
    let t = x as u64;
    t.saturating_add(u64::from((t as f64) < x))
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
/// Panics if `remaining_steps` is zero, `headroom < 1.0`, `res` was not
/// profiled, or `max_degree` is below the narrowest profiled degree.
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
    let row = costs.row(res);
    let degrees = row.capped(max_degree);
    let (Some(narrowest), Some(fastest)) = (degrees.first(), degrees.last()) else {
        panic!("degree cap {max_degree} excludes every profiled degree");
    };
    if runs_at_narrowest(row, remaining_steps, slack, headroom) {
        return AllocationPlan::single(
            AllocSegment {
                steps: remaining_steps,
                degree: narrowest.degree,
            },
            true,
        );
    }
    // Inflate each capped degree's step time once; the enumeration below
    // then only does arithmetic on the row and these.
    let mut t_us = [0u64; MAX_USEFUL_DEGREES];
    for (t, d) in t_us.iter_mut().zip(degrees) {
        *t = inflate_us(d.step_us, headroom);
    }
    let steps = u64::from(remaining_steps);
    let slack_us = slack.as_micros();

    let mut best: Option<(f64, AllocationPlan)> = None;
    let mut consider = |cost: f64, plan: AllocationPlan| {
        if best.as_ref().is_none_or(|&(c, _)| cost < c) {
            best = Some((cost, plan));
        }
    };

    // Single-degree plans.
    for (d, &t) in degrees.iter().zip(&t_us) {
        if steps * t <= slack_us {
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
    for (i, (lo, &t_lo)) in degrees.iter().zip(&t_us).enumerate() {
        for (hi, &t_hi) in degrees.iter().zip(&t_us).skip(i + 1) {
            debug_assert!(t_lo > t_hi, "degrees are filtered to strictly improve");
            if steps * t_hi > slack_us {
                continue; // even all-fast misses
            }
            // s_lo·t_lo + (S−s_lo)·t_hi ≤ slack  ⇒  s_lo ≤ (slack − S·t_hi)/(t_lo − t_hi)
            let s_lo = ((slack_us - steps * t_hi) / (t_lo - t_hi)).min(steps);
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

#[cfg(test)]
pub(crate) mod tests {
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
                    gpu_seconds(costs, res, k) * steps as f64,
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
                let cost = gpu_seconds(costs, res, k_lo) * s_lo as f64
                    + gpu_seconds(costs, res, k_hi) * s_hi as f64;
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

    /// GPU-seconds per step of `res` at degree `k`: `k · T(k)` (batch 1).
    fn gpu_seconds(costs: &CostTable, res: Resolution, k: usize) -> f64 {
        k as f64 * costs.step_time(res, k, 1).as_secs_f64()
    }

    /// The useful degrees of `res`, ascending.
    fn degrees_of(costs: &CostTable, res: Resolution) -> Vec<usize> {
        costs.row(res).degrees().iter().map(|d| d.degree).collect()
    }

    fn costs() -> CostTable {
        Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic()
    }

    fn a40_costs() -> CostTable {
        Profiler::new(DitModel::sd3_medium(), ClusterSpec::a40x4()).analytic()
    }

    /// How each degree's step time moves from the next narrower one's in
    /// [`uncalibrated_table`].
    pub(crate) type Move = (u8, u64);

    /// A batch-1 cost table nobody calibrated. Each production resolution
    /// gets a base step time at the narrowest of the degrees set in
    /// `degree_mask` (bit `i` is degree `2^i`, up to 8), and each wider
    /// degree's step time comes from its narrower neighbour's `t` by one
    /// move `(kind, x)`: 0 ties `t`; 1 rises to `t + x + 1`; 2 keeps
    /// GPU-seconds level (`t·k_prev/k`); 3 raises them by `x + 1` µs of
    /// step time, so by less than the rise margin on slow bases and more
    /// on fast ones; 4 lowers them by `x + 1` µs; 5 halves the step
    /// time whatever the degree ratio.
    pub(crate) fn uncalibrated_table(degree_mask: u8, grid: &[(u64, Vec<Move>)]) -> CostTable {
        let degrees: Vec<usize> = (0..4)
            .filter(|i| degree_mask & (1 << i) != 0)
            .map(|i| 1 << i)
            .collect();
        let rows: Vec<CostRow> = Resolution::PRODUCTION
            .iter()
            .zip(grid)
            .flat_map(|(res, (base, moves))| {
                let mut t = *base;
                let mut prev = degrees[0];
                degrees.iter().zip(moves).map(move |(&k, &(kind, x))| {
                    if k != prev {
                        let level = t * prev as u64 / k as u64;
                        t = match kind {
                            0 => t,
                            1 => t + x + 1,
                            2 => level,
                            3 => level + x + 1,
                            4 => level.saturating_sub(x + 1).max(1),
                            _ => (t / 2).max(1),
                        };
                        prev = k;
                    }
                    CostRow {
                        tokens: res.tokens(),
                        degree: k,
                        batch: 1,
                        step_micros: t,
                    }
                })
            })
            .collect();
        CostTable::from_rows(
            DitModel::flux_dev(),
            ClusterSpec::h100x8(),
            CommScheme::Ulysses,
            &rows,
        )
    }

    /// Strategy for [`uncalibrated_table`]'s grid: per resolution a base
    /// step time of 1 µs to 2.5 s and four moves.
    pub(crate) fn grid_strategy() -> impl proptest::prelude::Strategy<Value = Vec<(u64, Vec<Move>)>>
    {
        proptest::collection::vec(
            (
                1u64..=2_500_000,
                proptest::collection::vec((0u8..6, 0u64..1_000), 4),
            ),
            4,
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        /// The row-reading search returns exactly the reference's plan on
        /// both testbeds and on uncalibrated tables (step times that tie
        /// or rise with degree, GPU-seconds that tie, rise or fall, degree
        /// sets with gaps), for random slacks and for slacks on and next
        /// to each degree's all-steps knife edge, where the `≤` tests flip.
        #[test]
        fn prop_hoisted_search_matches_reference(
            table in 0u8..4,
            degree_mask in 1u8..16,
            grid in grid_strategy(),
            res_idx in 0usize..4,
            steps in 1u32..=50,
            slack_us in 0u64..=60_000_000,
            headroom_idx in 0usize..2,
            cap_idx in 0usize..4,
        ) {
            let c = match table {
                0 => costs(),
                1 => a40_costs(),
                _ => uncalibrated_table(degree_mask, &grid),
            };
            let res = Resolution::PRODUCTION[res_idx];
            let headroom = [1.0, crate::config::ROUND_HEADROOM][headroom_idx];
            let cap = [1, 2, 4, 8][cap_idx];
            proptest::prop_assume!(cap >= c.degrees()[0]);
            let edges = degrees_of(&c, res).into_iter().flat_map(|k| {
                let t = (c.step_time(res, k, 1).as_micros() as f64 * headroom).ceil() as u64;
                let edge = u64::from(steps) * t;
                [edge.saturating_sub(1), edge, edge + 1]
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

        /// The narrowest-degree shortcut on the search's largest step
        /// counts: on a row whose GPU-seconds rise, a request whose steps
        /// all fit at its narrowest degree under the headroom gets exactly
        /// the reference's plan, all steps at degree 1, for up to four
        /// million steps on fast rows (where rounding erases the most).
        #[test]
        fn prop_narrowest_degree_shortcut_matches_reference(
            table in 0u8..4,
            grid in grid_strategy(),
            res_idx in 0usize..4,
            steps in 1u32..=u32::MAX,
            extra_us in 0u64..1_000_000,
            headroom_idx in 0usize..2,
            cap_idx in 0usize..4,
        ) {
            let c = match table {
                0 => costs(),
                1 => a40_costs(),
                _ => uncalibrated_table(0b1111, &grid),
            };
            let res = Resolution::PRODUCTION[res_idx];
            let row = c.row(res);
            proptest::prop_assume!(row.gpu_seconds_rising());
            let headroom = [1.0, crate::config::ROUND_HEADROOM][headroom_idx];
            let cap = [1, 2, 4, 8][cap_idx];
            // Large step counts on fast rows only, so the slack fits a u64.
            let steps = steps % if row.degrees()[0].step_us > 1_000 { 50 } else { 4_000_000 } + 1;
            let edge = u64::from(steps) * inflate_us(row.degrees()[0].step_us, headroom);
            let slack = SimDuration::from_micros(edge + extra_us % (edge + 1));
            proptest::prop_assert!(runs_at_narrowest(row, steps, slack, headroom));
            let plan = min_gpu_hour_plan_capped(res, steps, slack, &c, headroom, cap);
            let (segments, feasible) = reference_plan_capped(res, steps, slack, &c, headroom, cap);
            proptest::prop_assert_eq!(plan.segments(), &segments[..]);
            proptest::prop_assert!(plan.feasible && feasible);
            proptest::prop_assert_eq!(plan.segments(), [AllocSegment { steps, degree: 1 }]);
        }
    }

    #[test]
    fn rise_flag_needs_every_adjacent_rise_to_clear_the_margin() {
        // Batch-1 rows for one resolution at degrees 1 and 2: T(1) = 1 s,
        // so GPU-seconds are 1.0 at degree 1 and 2·T(2) at degree 2.
        let row_with = |t2_us: u64| {
            let rows: Vec<CostRow> = [(1, 1_000_000), (2, t2_us)]
                .map(|(degree, step_micros)| CostRow {
                    tokens: Resolution::R256.tokens(),
                    degree,
                    batch: 1,
                    step_micros,
                })
                .to_vec();
            let c = CostTable::from_rows(
                DitModel::flux_dev(),
                ClusterSpec::h100x8(),
                CommScheme::Ulysses,
                &rows,
            );
            *c.row(Resolution::R256)
        };
        // A tie, a rise of 2e-6 (below the margin's 1.5e-5), and a fall.
        for t2 in [500_000, 500_001, 499_000] {
            let row = row_with(t2);
            assert_eq!(row.degrees().len(), 2, "{t2}");
            assert!(!row.gpu_seconds_rising(), "{t2}");
        }
        // A rise of 2e-5 clears it.
        assert!(row_with(500_010).gpu_seconds_rising());
        // A degree no faster than degree 1 is not in the row at all, and
        // a row of one degree rises vacuously.
        let row = row_with(1_000_000);
        assert_eq!(row.degrees().len(), 1);
        assert!(row.gpu_seconds_rising());
        // The calibrated rows all rise.
        for c in [costs(), a40_costs()] {
            for res in Resolution::PRODUCTION {
                assert!(c.row(res).gpu_seconds_rising(), "{res}");
            }
        }
    }

    #[test]
    fn inflation_is_the_float_ceiling() {
        let ceil = |us: u64, h: f64| (us as f64 * h).ceil() as u64;
        let values = [
            0,
            1,
            49,
            50,
            999_999,
            (1 << 53) - 1,
            1 << 53,
            (1 << 53) + 1,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        for us in values
            .into_iter()
            .chain((0..10_000).map(|i| i * 7_919 + 13))
        {
            for h in [
                1.0,
                crate::config::ROUND_HEADROOM,
                1.5,
                3.0,
                1.0 + f64::EPSILON,
                4096.5,
            ] {
                assert_eq!(inflate_us(us, h), ceil(us, h), "{us} × {h}");
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
            assert_eq!(gpu_seconds(&c, res, 1), gpu_seconds(&c, res, 8), "{res}");
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
    fn every_degree_is_useful_on_h100() {
        // With the calibrated model, T(k) strictly decreases for every
        // production resolution, so all four degrees are useful.
        let c = costs();
        for res in Resolution::PRODUCTION {
            assert_eq!(degrees_of(&c, res), vec![1, 2, 4, 8], "{res}");
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
        let all_fast = 50.0 * gpu_seconds(&c, Resolution::R2048, 8);
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
        let degrees = degrees_of(&c, res);
        let mut brute_best = f64::INFINITY;
        for &a in &degrees {
            for &b in &degrees {
                for s_a in 0..=steps {
                    let s_b = steps - s_a;
                    let t = c.step_time(res, a, 1) * u64::from(s_a)
                        + c.step_time(res, b, 1) * u64::from(s_b);
                    if t <= slack {
                        let cost = gpu_seconds(&c, res, a) * f64::from(s_a)
                            + gpu_seconds(&c, res, b) * f64::from(s_b);
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
