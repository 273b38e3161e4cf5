//! EDF cumulative-demand feasibility — the admission machinery behind
//! deadline-aware shedding, the degrade ladder and fleet-level routing.
//!
//! The test is the classic earliest-deadline-first capacity argument:
//! walk live requests in deadline order accumulating each one's cheapest
//! deadline-respecting GPU-second demand; the backlog is infeasible the
//! moment the running total exceeds what the healthy GPUs can deliver by
//! that deadline. `edf_violations` is that scan, written once, and every
//! decision built on it calls it: the fleet router's admission verdict for
//! "this backlog plus one more request" (`scan_backlog`, the one walk of
//! the live index that also yields a route view's counts and backlog
//! demand), the rebalancer's probes (`ClusterSim::feasible_with` over
//! `live_entries_with`, sharing the same merge), the at-risk prefix the
//! rebalancer migrates from (`edf_at_risk_len`), and the serving loop's
//! degrade-before-shed ladder (`degrade_or_shed`).

use std::cmp::Ordering;

use tetriserve_costmodel::stage::frame_scaled;
use tetriserve_costmodel::{CostTable, Resolution, ResolutionRow, StageProfile};
use tetriserve_simulator::time::SimTime;
use tetriserve_simulator::trace::RequestId;

use crate::config::ROUND_HEADROOM;
use crate::degrade::DegradePolicy;
use crate::request::RequestSpec;
use crate::tracker::{Phase, RequestTracker, TrackedRequest};

/// Fraction of raw healthy GPU-seconds the admission test counts as
/// deliverable. A real round-based schedule never converts 100% of the EDF
/// capacity bound into diffusion steps: round-boundary quantization,
/// placement fragmentation and VAE decodes all eat into it.
pub const ADMISSION_UTILIZATION: f64 = 0.8;

/// One live request's entry in the EDF cumulative-demand scan.
#[derive(Debug, Clone, Copy)]
pub struct DemandEntry {
    /// The request.
    pub id: RequestId,
    /// Absolute completion deadline.
    pub deadline: SimTime,
    /// Cheapest deadline-respecting GPU-second demand for the remaining
    /// steps (see [`cheapest_step_demand`]).
    pub demand: f64,
    /// Seconds of headroom beyond running flat-out at the fastest degree;
    /// negative means no degree can make the deadline.
    pub slack: f64,
    /// Whether the request has executed no steps yet (only fresh requests
    /// may be shed or re-routed — progress is never thrown away).
    pub fresh: bool,
}

/// The cheapest per-step GPU-second cost among parallelism degrees that
/// can still finish `remaining` steps — frame-scaled, plus the tail
/// stages of the chain (per-frame VAE decode and, when the profile
/// carries one, the condition encode) — inside `horizon` seconds with
/// jitter headroom. A tight deadline forces a wide (less GPU-efficient)
/// degree, so this is *not* the global optimum. When no degree can make
/// it, falls back to the fastest degree; the caller's negative slack
/// makes such a request the first shedding victim anyway.
///
/// Every input comes precomputed from the resolution's cost-table `row`
/// (`CostTable::row`), and only its useful degrees are priced: a
/// dominated degree, no faster than some narrower one, fits no horizon
/// that narrower degree misses and never costs fewer GPU-seconds, and
/// both comparisons are monotone in floating point, so skipping it
/// leaves every price bit-identical. For [`StageProfile::FLAT`] every
/// stage term is the exact identity (`frames = 1`, encode = `0.0`), so
/// verdicts are bit-identical to the pre-stage formula.
pub fn cheapest_step_demand(
    row: &ResolutionRow,
    stages: StageProfile,
    remaining: u32,
    horizon: f64,
) -> f64 {
    let remaining_f = f64::from(remaining);
    let frames_f = stages.frame_factor();
    let decode = frame_scaled(row.decode, stages.frames).as_secs_f64();
    let encode = if stages.encode {
        row.encode.as_secs_f64()
    } else {
        0.0
    };
    // Demand is denominated in nominal GPU-seconds; the capacity side of
    // the EDF scan carries the slowdown derating.
    let per_step = row
        .degrees()
        .iter()
        .filter(|d| {
            remaining_f * d.step_secs * ROUND_HEADROOM * frames_f + decode + encode <= horizon
        })
        .map(|d| d.gpu_seconds)
        .fold(f64::INFINITY, f64::min);
    if per_step.is_finite() {
        per_step
    } else {
        row.fastest().gpu_seconds
    }
}

/// Builds the demand entry for one request's remaining work at `now`.
/// Frame-scaled throughout: a video request demands `frames ×` the
/// GPU-seconds of its image twin and burns slack `frames ×` faster.
#[allow(clippy::too_many_arguments)]
pub fn demand_entry(
    costs: &CostTable,
    id: RequestId,
    res: Resolution,
    stages: StageProfile,
    remaining: u32,
    deadline: SimTime,
    now: SimTime,
    fresh: bool,
) -> DemandEntry {
    // tetrilint: allow(nominal-step-time) -- demand is priced in nominal GPU-seconds by design; the EDF scan derates the capacity side instead
    let row = costs.row(res);
    let horizon = deadline.saturating_since(now).as_secs_f64();
    let per_step = cheapest_step_demand(row, stages, remaining, horizon);
    let frames_f = stages.frame_factor();
    DemandEntry {
        id,
        deadline,
        demand: f64::from(remaining) * per_step * frames_f,
        // Nominal `T^min`: slack ranks victims, and nominal keeps the
        // ranking stable under slowdowns.
        slack: horizon - f64::from(remaining) * row.t_min.as_secs_f64() * frames_f,
        fresh,
    }
}

/// The demand entry of a request arriving fresh at `now` with its whole
/// step budget ahead of it — the admission probe's hypothetical extra.
pub fn arrival_entry(costs: &CostTable, spec: &RequestSpec, now: SimTime) -> DemandEntry {
    demand_entry(
        costs,
        spec.id,
        spec.resolution,
        spec.stages,
        spec.total_steps,
        spec.deadline,
        now,
        true,
    )
}

fn tracked_entry(r: &TrackedRequest, now: SimTime, costs: &CostTable) -> DemandEntry {
    demand_entry(
        costs,
        r.spec.id,
        r.spec.resolution,
        r.spec.stages,
        r.remaining_steps,
        r.spec.deadline,
        now,
        // Degraded-but-unstarted still counts as fresh: no executed
        // steps means shedding or re-routing it wastes no work.
        r.phase == Phase::Queued && r.steps_executed() == 0,
    )
}

/// Demand entries for every live (queued or running, work remaining)
/// request in the tracker, in (deadline, id) — EDF scan — order.
///
/// Iterates the tracker's incremental live index (already in scan order,
/// so no sort), making each scan O(live backlog) instead of O(every
/// request ever admitted). Lazy, so a scan that stops at its first
/// violation prices no entry past it. [`FeasScratch::fill`] cross-checks
/// the result bit-for-bit against [`live_entries_full`] in debug builds.
pub fn live_entries<'a>(
    tracker: &'a RequestTracker,
    now: SimTime,
    costs: &'a CostTable,
) -> impl Iterator<Item = DemandEntry> + 'a {
    tracker.live().map(move |r| tracked_entry(r, now, costs))
}

/// The pre-index full recompute of [`live_entries`]: scans every
/// in-flight request and sorts. Kept as the ground truth the incremental
/// index is cross-checked against (`debug_assert` in
/// [`FeasScratch::fill`], plus the proptest in `crate::proptests`);
/// verdicts must stay bit-identical.
pub fn live_entries_full(
    tracker: &RequestTracker,
    now: SimTime,
    costs: &CostTable,
) -> Vec<DemandEntry> {
    let mut live: Vec<DemandEntry> = tracker
        .iter()
        .filter(|r| r.remaining_steps > 0)
        .map(|r| tracked_entry(r, now, costs))
        .collect();
    sort_entries(&mut live);
    live
}

/// Whether two entry slices are bit-identical: same order, same ids and
/// deadlines, and the floating-point fields equal down to the bit pattern
/// (`to_bits`, so NaN-safe and stricter than `==`).
pub fn entries_bit_identical(a: &[DemandEntry], b: &[DemandEntry]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.id == y.id
                && x.deadline == y.deadline
                && x.demand.to_bits() == y.demand.to_bits()
                && x.slack.to_bits() == y.slack.to_bits()
                && x.fresh == y.fresh
        })
}

/// Reusable demand-entry scratch for the serving loop's rescue ladder
/// (`degrade_or_shed`), with the same counter discipline as the
/// packer's `PackScratch`: after [`warm_up`](FeasScratch::warm_up) (or
/// one cold pass at the high-water backlog), every refill reuses the
/// buffer — zero heap allocations in the steady-state event loop, and
/// `grow_events` counts the exceptions.
#[derive(Debug, Default)]
pub struct FeasScratch {
    entries: Vec<DemandEntry>,
    calls: u64,
    grow_events: u64,
}

impl FeasScratch {
    /// An empty scratch; the first fills size it.
    pub fn new() -> Self {
        FeasScratch::default()
    }

    /// Pre-sizes the buffer for a live backlog of up to `max_live`
    /// entries so even the first pass allocates nothing.
    pub fn warm_up(&mut self, max_live: usize) {
        if self.entries.capacity() < max_live {
            self.entries.reserve_exact(max_live - self.entries.len());
        }
    }

    /// Refills the scratch with the tracker's live entries at `now` (EDF
    /// scan order) and returns them. Reuses the buffer: no allocation
    /// unless the live backlog outgrew every previous pass.
    pub fn fill(
        &mut self,
        tracker: &RequestTracker,
        now: SimTime,
        costs: &CostTable,
    ) -> &[DemandEntry] {
        self.calls += 1;
        let cap = self.entries.capacity();
        self.entries.clear();
        self.entries.extend(live_entries(tracker, now, costs));
        debug_assert!(
            entries_bit_identical(&self.entries, &live_entries_full(tracker, now, costs)),
            "incremental live index diverged from the full recompute"
        );
        if self.entries.capacity() > cap {
            self.grow_events += 1;
        }
        &self.entries
    }

    /// Scans issued through this scratch.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Buffer growths — zero in steady state once warmed up.
    pub fn grow_events(&self) -> u64 {
        self.grow_events
    }
}

/// Sorts entries into the canonical EDF scan order (deadline, then id).
pub fn sort_entries(entries: &mut [DemandEntry]) {
    entries.sort_by(|a, b| a.deadline.cmp(&b.deadline).then(a.id.cmp(&b.id)));
}

/// The EDF cumulative-demand scan — the one place the capacity test is
/// written. Walks `entries` (in EDF scan order) accumulating demand from
/// `committed` GPU-seconds, and yields `(index, overshoot)` for every
/// entry at whose deadline the running total exceeds what `capacity`
/// nominal GPUs deliver, derated by [`ADMISSION_UTILIZATION`].
///
/// `capacity` is fractional: callers pass `FailurePlan::effective_capacity`
/// to keep admission honest under slowdown faults (demand stays in
/// nominal GPU-seconds, the same currency), or a whole healthy count.
/// `committed` is work promised to this capacity that `entries` does not
/// hold yet — the fleet rebalancer's migrations already committed to a
/// target *within the same tick* land before any scanned deadline, so
/// they compete for the same capacity. `committed = 0.0` is bit-identical
/// to an unseeded scan. Lazy: a verdict stops at the first violation.
pub(crate) fn edf_violations<I>(
    entries: I,
    now: SimTime,
    capacity: f64,
    committed: f64,
) -> impl Iterator<Item = (usize, f64)>
where
    I: IntoIterator<Item = DemandEntry>,
{
    let mut demand = committed;
    entries.into_iter().enumerate().filter_map(move |(i, e)| {
        demand += e.demand;
        let deliverable =
            capacity * e.deadline.saturating_since(now).as_secs_f64() * ADMISSION_UTILIZATION;
        (demand > deliverable).then_some((i, demand - deliverable))
    })
}

/// Length of the violating EDF prefix: if the scan last exceeds capacity
/// at index `j`, all of `entries[..=j]` are "at risk" — the backlog
/// through deadline `j` cannot be delivered, and any of those requests is
/// a candidate to be moved elsewhere (moving a later one frees capacity
/// for the whole prefix). Zero when the backlog is feasible. Zero
/// capacity puts every entry with positive demand at risk — which is
/// exactly what the fleet rebalancer wants during a whole-cluster outage.
pub(crate) fn edf_at_risk_len(
    entries: impl IntoIterator<Item = DemandEntry>,
    now: SimTime,
    capacity: f64,
) -> usize {
    edf_violations(entries, now, capacity, 0.0)
        .last()
        .map_or(0, |(j, _)| j + 1)
}

/// What one walk of a cluster's live index yields at a routing instant
/// ([`scan_backlog`]): the counts and backlog demand of a route view, and
/// the admission verdict for the routed request.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BacklogScan {
    /// Live requests waiting for GPUs.
    pub queued: usize,
    /// Requests executing a dispatch, including final dispatches with no
    /// steps remaining (the tracker's O(1) count; they are not live).
    pub running: usize,
    /// Cheapest deadline-respecting GPU-second demand of the live backlog,
    /// summed in EDF order from `-0.0` as `Iterator::sum` does, so an
    /// empty backlog reads `-0.0`.
    pub gpu_seconds: f64,
    /// Whether the backlog plus the probed arrival passes the EDF test;
    /// `true` when no arrival was probed.
    pub feasible: bool,
}

/// One walk of the tracker's live index at `now`: prices every live
/// request once and folds the prices into a route view's counts, its
/// backlog GPU-seconds and — when `probe` carries an arrival entry priced
/// at `now` and a capacity — the admission verdict for the backlog plus
/// that arrival. The arrival is merged at its `(deadline, id)` slot and
/// the merged stream goes through [`edf_violations`]; the walk runs on
/// past a violation so the counts and the sum cover the whole backlog.
/// Pure read, allocation-free.
pub(crate) fn scan_backlog(
    tracker: &RequestTracker,
    now: SimTime,
    costs: &CostTable,
    probe: Option<(DemandEntry, f64)>,
) -> BacklogScan {
    let mut queued = 0;
    // `Sum for f64` folds from −0.0: an empty backlog keeps that sign,
    // which the router's `total_cmp` on pressure sees.
    let mut gpu_seconds = -0.0;
    let mut live = tracker.live().map(|r| {
        queued += usize::from(r.phase == Phase::Queued);
        let e = tracked_entry(r, now, costs);
        gpu_seconds += e.demand;
        e
    });
    let feasible = probe.is_none_or(|(arrival, capacity)| {
        edf_violations(merge_at_slot(live.by_ref(), arrival), now, capacity, 0.0)
            .next()
            .is_none()
    });
    // The verdict stops pulling at the first violation; the counts and the
    // sum still need the rest of the backlog.
    live.for_each(drop);
    BacklogScan {
        queued,
        running: tracker.running_count(),
        gpu_seconds,
        feasible,
    }
}

/// `live` (in EDF scan order) with `extra` merged in at its
/// `(deadline, id)` slot — "the backlog plus one request" without
/// collecting the backlog, pushing and re-sorting. On a full key tie
/// `extra` goes after the live entry, exactly where a stable sort of the
/// pushed vector puts it.
fn merge_at_slot(
    live: impl Iterator<Item = DemandEntry>,
    extra: DemandEntry,
) -> impl Iterator<Item = DemandEntry> {
    let key = |e: &DemandEntry| (e.deadline, e.id);
    let mut live = live.peekable();
    let mut extra = Some(extra);
    std::iter::from_fn(move || {
        let live_first = match (&extra, live.peek()) {
            (Some(x), Some(e)) => key(e) <= key(x),
            (Some(_), None) => false,
            (None, _) => true,
        };
        if live_first {
            live.next()
        } else {
            extra.take()
        }
    })
}

/// The tracker's live entries at `now` with `extra` merged in at its
/// `(deadline, id)` slot — the rebalancer's admission probe (see
/// [`merge_at_slot`]).
pub(crate) fn live_entries_with<'a>(
    tracker: &'a RequestTracker,
    now: SimTime,
    costs: &'a CostTable,
    extra: DemandEntry,
) -> impl Iterator<Item = DemandEntry> + 'a {
    merge_at_slot(live_entries(tracker, now, costs), extra)
}

/// One rung's relief at a capacity violation.
enum Relief {
    /// Shrink a queued request's remaining budget by this many steps.
    Degrade(RequestId, u32),
    /// Drop a not-yet-started request whole.
    Shed(RequestId),
}

/// Victim order on both rungs: least slack first; on ties the newest
/// admission goes (reject the incoming request rather than break an
/// older commitment).
fn least_salvageable(a: &DemandEntry, b: &DemandEntry) -> Ordering {
    a.slack.total_cmp(&b.slack).then(b.id.cmp(&a.id))
}

/// The rescue ladder (DESIGN.md §14), run by the serving loop whenever
/// the backlog may have turned infeasible: at admission, on a fault
/// transition, and when a migration lands.
///
/// At each violation of the scan, in deadline order, the first rung (only
/// with a `degrade` policy) shrinks a queued prefix member's step budget
/// toward its class quality floor — enough steps to cover the overshoot,
/// never past the floor. The second (only if `shed_at_floor`, i.e. the
/// admission policy drops requests at all) sheds the least salvageable
/// *not-yet-started* request in the prefix: requests holding
/// checkpointed steps are never shed, since dropping them would waste
/// finished work. A violation neither rung can relieve is left standing
/// and the scan moves on to one it can. After every action the backlog is
/// rescanned, until it is feasible or nothing more can be relieved.
pub(crate) fn degrade_or_shed(
    tracker: &mut RequestTracker,
    now: SimTime,
    capacity: f64,
    costs: &CostTable,
    degrade: Option<&DegradePolicy>,
    shed_at_floor: bool,
    scratch: &mut FeasScratch,
) {
    loop {
        let live = scratch.fill(tracker, now, costs);
        let relief =
            edf_violations(live.iter().copied(), now, capacity, 0.0).find_map(|(i, overshoot)| {
                let prefix = live.iter().take(i + 1);
                if let Some(relief) =
                    degrade.and_then(|p| degrade_victim(tracker, prefix.clone(), p, overshoot))
                {
                    return Some(relief);
                }
                if !shed_at_floor {
                    return None;
                }
                prefix
                    .filter(|e| e.fresh)
                    .min_by(|a, b| least_salvageable(a, b))
                    .map(|e| Relief::Shed(e.id))
            });
        match relief {
            Some(Relief::Degrade(id, steps)) => tracker.shed_steps(id, steps),
            Some(Relief::Shed(id)) => tracker.shed(id),
            None => break,
        }
    }
}

/// The ladder's first rung at one violation: the least salvageable queued
/// member of `prefix` with steps above its floor, and how many to shed.
/// Running requests are pinned (their dispatch already holds its step
/// count); queued ones may shed down to `max(floor − executed, 1)`
/// remaining steps.
fn degrade_victim<'a>(
    tracker: &RequestTracker,
    prefix: impl Iterator<Item = &'a DemandEntry>,
    policy: &DegradePolicy,
    overshoot: f64,
) -> Option<Relief> {
    let (e, sheddable, remaining) = prefix
        .filter_map(|e| {
            let r = tracker.get(e.id)?;
            if r.phase != Phase::Queued {
                return None;
            }
            let min_steps = policy.min_steps(r.spec.resolution, r.spec.total_steps);
            let floor_remaining = min_steps.saturating_sub(r.steps_executed()).max(1);
            let sheddable = r.remaining_steps.saturating_sub(floor_remaining);
            (sheddable > 0).then_some((e, sheddable, r.remaining_steps))
        })
        .min_by(|(a, ..), (b, ..)| least_salvageable(a, b))?;
    // Shed just enough of the victim's steps to cover the overshoot at
    // its cheapest per-step demand, clamped to the floor; the rescan sheds
    // more (or picks the next victim) if that was not enough.
    let per_step = e.demand / f64::from(remaining);
    let needed = (overshoot / per_step).ceil();
    let steps = if needed >= f64::from(sheddable) {
        sheddable
    } else {
        (needed as u32).max(1)
    };
    Some(Relief::Degrade(e.id, steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::tests::{grid_strategy, uncalibrated_table};
    use tetriserve_costmodel::{ClusterSpec, DitModel, Profiler};
    use tetriserve_simulator::time::SimDuration;
    use tetriserve_simulator::trace::TenantId;

    fn costs() -> CostTable {
        Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic()
    }

    fn tracked(ids: &[(u64, f64)]) -> RequestTracker {
        let mut t = RequestTracker::new();
        for &(id, slo) in ids {
            t.admit(RequestSpec {
                tenant: TenantId::UNTAGGED,
                id: RequestId(id),
                resolution: Resolution::R1024,
                arrival: SimTime::ZERO,
                deadline: SimTime::from_secs_f64(slo),
                total_steps: 50,
                stages: StageProfile::FLAT,
            });
        }
        t
    }

    fn live(t: &RequestTracker, c: &CostTable) -> Vec<DemandEntry> {
        live_entries(t, SimTime::ZERO, c).collect()
    }

    #[test]
    fn relaxed_backlog_is_feasible() {
        let c = costs();
        let t = tracked(&[(0, 60.0), (1, 70.0)]);
        let entries = live(&t, &c);
        assert_eq!(entries.len(), 2);
        assert!(entries.windows(2).all(|w| w[0].deadline <= w[1].deadline));
        assert_eq!(edf_violations(entries, SimTime::ZERO, 8.0, 0.0).count(), 0);
    }

    #[test]
    fn overload_is_infeasible_and_relieved_by_capacity() {
        let c = costs();
        let ids: Vec<(u64, f64)> = (0..40).map(|i| (i, 3.0)).collect();
        let t = tracked(&ids);
        let entries = live(&t, &c);
        let violations =
            |capacity| edf_violations(entries.iter().copied(), SimTime::ZERO, capacity, 0.0);
        assert!(violations(1.0).next().is_some());
        // The same backlog on a vastly bigger node would be fine.
        assert!(violations(4096.0).next().is_none());
    }

    #[test]
    fn tight_deadline_prices_a_wider_degree() {
        let c = costs();
        // With an impossible horizon the fallback charges the fastest
        // degree, which costs at least as many GPU-seconds per step as the
        // relaxed-case optimum.
        let row = c.row(Resolution::R2048);
        let relaxed = cheapest_step_demand(row, StageProfile::FLAT, 50, 1e9);
        let hopeless = cheapest_step_demand(row, StageProfile::FLAT, 50, 0.001);
        assert!(hopeless >= relaxed);
    }

    #[test]
    fn frames_multiply_demand_and_burn_slack() {
        let c = costs();
        let entry = |stages| {
            demand_entry(
                &c,
                RequestId(0),
                Resolution::R512,
                stages,
                50,
                SimTime::from_secs_f64(120.0),
                SimTime::ZERO,
                true,
            )
        };
        let flat = entry(StageProfile::FLAT);
        let one_frame = entry(StageProfile::video(1));
        let video = entry(StageProfile::video(8));
        // A single-frame video prices its denoise like the flat request
        // (the encode only tightens the degree filter, not the demand).
        assert_eq!(one_frame.demand.to_bits(), flat.demand.to_bits());
        assert!((video.demand / flat.demand - 8.0).abs() < 1e-9);
        assert!(video.slack < flat.slack);
    }

    #[test]
    fn flat_profile_is_bit_identical_to_one_frame_no_encode() {
        let c = costs();
        // The FLAT constant and a literal {encode: false, frames: 1} must
        // be indistinguishable in every formula.
        let explicit = StageProfile {
            encode: false,
            frames: 1,
        };
        for res in [Resolution::R256, Resolution::R1024, Resolution::R2048] {
            for horizon in [0.5, 5.0, 500.0] {
                let a = cheapest_step_demand(c.row(res), StageProfile::FLAT, 50, horizon);
                let b = cheapest_step_demand(c.row(res), explicit, 50, horizon);
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn at_risk_prefix_matches_feasibility_verdict() {
        let c = costs();
        let ids: Vec<(u64, f64)> = (0..40).map(|i| (i, 3.0)).collect();
        let t = tracked(&ids);
        let entries = live(&t, &c);
        let risk = |capacity| edf_at_risk_len(entries.iter().copied(), SimTime::ZERO, capacity);
        // Feasible backlog: nothing at risk.
        assert_eq!(risk(4096.0), 0);
        // Infeasible on one GPU: the prefix through the last violation.
        let last = edf_violations(entries.iter().copied(), SimTime::ZERO, 1.0, 0.0).last();
        assert_eq!(risk(1.0), last.expect("one GPU is overloaded").0 + 1);
        // Zero healthy GPUs: everything with demand is at risk.
        assert_eq!(risk(0.0), entries.len());
    }

    #[test]
    fn extra_demand_tightens_the_scan() {
        let c = costs();
        let t = tracked(&[(0, 30.0), (1, 30.0)]);
        let entries = live(&t, &c);
        let violations =
            |committed| edf_violations(entries.iter().copied(), SimTime::ZERO, 8.0, committed);
        assert_eq!(violations(0.0).count(), 0);
        // A huge in-flight migration load makes the same backlog
        // infeasible at the very first deadline.
        let (first, overshoot) = violations(1e9).next().expect("committed demand overflows");
        assert_eq!(first, 0);
        assert!(overshoot > 0.0);
    }

    #[test]
    fn demand_scales_with_remaining_steps() {
        let c = costs();
        let e10 = demand_entry(
            &c,
            RequestId(0),
            Resolution::R512,
            StageProfile::FLAT,
            10,
            SimTime::from_secs_f64(60.0),
            SimTime::ZERO,
            true,
        );
        let e50 = demand_entry(
            &c,
            RequestId(0),
            Resolution::R512,
            StageProfile::FLAT,
            50,
            SimTime::from_secs_f64(60.0),
            SimTime::ZERO,
            true,
        );
        assert!(e50.demand > e10.demand);
        assert!(e50.slack < e10.slack);
    }

    /// The pre-row [`cheapest_step_demand`], which took the table and a
    /// resolution and re-derived every degree's step time, GPU-seconds,
    /// the decode and the encode from the table and the model on each
    /// call, over every profiled degree: the reference the row-based
    /// pricing must match bit for bit.
    fn reference_step_demand(
        costs: &CostTable,
        res: Resolution,
        stages: StageProfile,
        remaining: u32,
        horizon: f64,
    ) -> f64 {
        let remaining_f = f64::from(remaining);
        let frames_f = stages.frame_factor();
        let gpu_seconds = |k: usize| k as f64 * costs.step_time(res, k, 1).as_secs_f64();
        let tflops = costs.cluster().gpu.effective_tflops();
        let decode = costs
            .model()
            .decode_time_frames(res, tflops, stages.frames)
            .as_secs_f64();
        let encode = if stages.encode {
            costs.model().encode_time(res, tflops).as_secs_f64()
        } else {
            0.0
        };
        let per_step = costs
            .degrees()
            .iter()
            .filter(|&&k| {
                remaining_f * costs.step_time(res, k, 1).as_secs_f64() * ROUND_HEADROOM * frames_f
                    + decode
                    + encode
                    <= horizon
            })
            .map(|&k| gpu_seconds(k))
            .fold(f64::INFINITY, f64::min);
        if per_step.is_finite() {
            per_step
        } else {
            let fastest = costs
                .degrees()
                .iter()
                .copied()
                .min_by_key(|&k| costs.step_time(res, k, 1))
                .expect("cost table has at least one degree");
            gpu_seconds(fastest)
        }
    }

    fn a40_costs() -> CostTable {
        Profiler::new(DitModel::sd3_medium(), ClusterSpec::a40x4()).analytic()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        /// Row-based pricing returns exactly the reference's demand on
        /// both production tables and on uncalibrated tables (step times
        /// that tie or rise with degree, so wider degrees that are no
        /// faster, GPU-seconds that tie, rise or fall, degree sets with
        /// gaps), for every production resolution, the flat,
        /// encode-gated and 8-frame profiles and 1..=50 remaining steps,
        /// at a random horizon and at each degree's knife edge ±1 µs —
        /// both as a raw `f64` horizon and on the microsecond deadline
        /// grid `demand_entry` prices from.
        #[test]
        fn prop_row_pricing_matches_reference(
            table in 0u8..4,
            degree_mask in 1u8..16,
            grid in grid_strategy(),
            res_idx in 0usize..4,
            stages_idx in 0usize..3,
            remaining in 1u32..=50,
            horizon_us in 0u64..=120_000_000,
        ) {
            let c = match table {
                0 => costs(),
                1 => a40_costs(),
                _ => uncalibrated_table(degree_mask, &grid),
            };
            let res = Resolution::PRODUCTION[res_idx];
            let stages =
                [StageProfile::FLAT, StageProfile::with_encode(), StageProfile::video(8)][stages_idx];
            let tflops = c.cluster().gpu.effective_tflops();
            let tail = c.model().decode_time_frames(res, tflops, stages.frames).as_secs_f64()
                + if stages.encode {
                    c.model().encode_time(res, tflops).as_secs_f64()
                } else {
                    0.0
                };
            let edges: Vec<f64> = c
                .degrees()
                .iter()
                .map(|&k| {
                    f64::from(remaining)
                        * c.step_time(res, k, 1).as_secs_f64()
                        * ROUND_HEADROOM
                        * stages.frame_factor()
                        + tail
                })
                .collect();
            let raw = edges.iter().flat_map(|&e| [e - 1e-6, e, e + 1e-6]);
            let grid: Vec<u64> = std::iter::once(horizon_us)
                .chain(edges.iter().flat_map(|&e| {
                    let us = (e * 1e6).round() as u64;
                    [us.saturating_sub(1), us, us + 1]
                }))
                .collect();
            let on_grid = grid.iter().map(|&us| SimDuration::from_micros(us).as_secs_f64());
            for horizon in raw.chain(on_grid) {
                let got = cheapest_step_demand(c.row(res), stages, remaining, horizon);
                let want = reference_step_demand(&c, res, stages, remaining, horizon);
                proptest::prop_assert_eq!(got.to_bits(), want.to_bits(), "horizon {}", horizon);
            }
            let frames_f = stages.frame_factor();
            for &us in &grid {
                let deadline = SimTime::from_micros(us);
                let e = demand_entry(
                    &c,
                    RequestId(7),
                    res,
                    stages,
                    remaining,
                    deadline,
                    SimTime::ZERO,
                    true,
                );
                let horizon = deadline.saturating_since(SimTime::ZERO).as_secs_f64();
                let per_step = reference_step_demand(&c, res, stages, remaining, horizon);
                let demand = f64::from(remaining) * per_step * frames_f;
                let slack = horizon - f64::from(remaining) * c.t_min(res).as_secs_f64() * frames_f;
                proptest::prop_assert_eq!(e.demand.to_bits(), demand.to_bits());
                proptest::prop_assert_eq!(e.slack.to_bits(), slack.to_bits());
            }
        }
    }
}
