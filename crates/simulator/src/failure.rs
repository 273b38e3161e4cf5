//! Failure and degradation injection.
//!
//! Real clusters misbehave: a GPU thermally throttles, a link flaps, a
//! neighbour tenant saturates the switch — and sometimes a GPU falls off
//! the bus entirely. The serving stack should degrade gracefully rather
//! than collapse. This module injects two failure classes:
//!
//! * **Performance faults** ([`PerfFault`]) — per-GPU multiplicative
//!   slowdowns over a time window: a transient *straggler* (ECC retries, a
//!   neighbour on the switch), a *throttle* (thermal/power capping) or a
//!   permanent *brownout* (a device that will run slow until it is
//!   swapped, `until = None`). All three degrade through the same factor,
//!   which the engine folds into dispatch execution: a sequence-parallel
//!   step runs at the pace of its slowest member, so one slow GPU drags
//!   every group it joins (exactly why placement matters).
//! * **Hard faults** ([`GpuFault`]) — a GPU goes *down* at a point in time,
//!   either transiently (XID reset, driver restart: it recovers at
//!   `up_at`) or permanently (`up_at = None`). A dispatch whose group
//!   contains a down GPU aborts at the fault instant; the scheduler must
//!   re-plan around the hole.
//!
//! No query scans the fault lists. Every window is half-open, so fault
//! state is piecewise-constant and changes only at window endpoints. On
//! its first query a [`FailurePlan`] derives a *fault timeline*: the
//! sorted distinct endpoints and, for each interval between two of them,
//! the down [`GpuSet`] and every GPU's slowdown factor, in flat storage.
//! Each query then starts with one binary search; finding when a GPU set
//! is next down walks the later intervals' down sets from there. The
//! answers are bit-identical to the scans they replaced: a max over
//! finite factors is exact in any order, and capacity sums in the same
//! ascending-GPU order. The engine goes one step further and reads the
//! timeline once per dispatch (see [`FailurePlan::first_down_at_or_after`]
//! and [`FailurePlan::group_slowdown_until`]).

use std::ops::Range;
use std::sync::OnceLock;

use crate::gpuset::{GpuId, GpuSet};
use crate::time::SimTime;

/// Whether a `[from, until)` window covers `time` (half-open semantics
/// shared by slowdowns and fault outages).
pub fn is_active_at(from: SimTime, until: Option<SimTime>, time: SimTime) -> bool {
    time >= from && until.is_none_or(|u| time < u)
}

/// The physical cause of a [`PerfFault`]. All kinds degrade identically
/// through the multiplicative factor; the kind is taxonomy for traces and
/// chaos-schedule reporting, not behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerfFaultKind {
    /// A transient per-device slowdown (ECC retries, noisy neighbour).
    Straggler,
    /// Thermal or power capping over a window.
    Throttle,
    /// A permanent degradation: the device runs slow until replaced.
    Brownout,
}

/// A multiplicative slowdown on one GPU over a time window, open-ended
/// (`until = None`) for a permanent brownout.
///
/// Composes with other `PerfFault`s by *max* inside
/// [`FailurePlan::group_slowdown`]; the factor is validated at
/// construction to be finite and ≥ 1.0, so the effective speed
/// `1.0 / factor` is always in `(0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfFault {
    /// The degraded GPU.
    pub gpu: GpuId,
    /// Multiplicative step-time factor (> 1 = slower).
    pub factor: f64,
    /// When the degradation begins.
    pub from: SimTime,
    /// When the degradation ends (exclusive), or `None` for a permanent
    /// brownout.
    pub until: Option<SimTime>,
    /// What kind of degradation this models.
    pub kind: PerfFaultKind,
}

impl PerfFault {
    fn checked(
        gpu: GpuId,
        factor: f64,
        from: SimTime,
        until: Option<SimTime>,
        kind: PerfFaultKind,
    ) -> Self {
        assert!(
            factor >= 1.0 && factor.is_finite(),
            "slowdown factor must be ≥ 1.0 and finite, got {factor}"
        );
        if let Some(u) = until {
            assert!(from < u, "perf-fault window must be non-empty");
        }
        PerfFault {
            gpu,
            factor,
            from,
            until,
            kind,
        }
    }

    /// A transient straggler over `[from, until)`.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1.0`, `factor` is not finite, or the window is
    /// empty.
    pub fn straggler(gpu: GpuId, factor: f64, from: SimTime, until: SimTime) -> Self {
        PerfFault::checked(gpu, factor, from, Some(until), PerfFaultKind::Straggler)
    }

    /// A thermal/power throttle over `[from, until)`.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1.0`, `factor` is not finite, or the window is
    /// empty.
    pub fn throttle(gpu: GpuId, factor: f64, from: SimTime, until: SimTime) -> Self {
        PerfFault::checked(gpu, factor, from, Some(until), PerfFaultKind::Throttle)
    }

    /// A permanent brownout starting at `from`.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1.0` or `factor` is not finite.
    pub fn brownout(gpu: GpuId, factor: f64, from: SimTime) -> Self {
        PerfFault::checked(gpu, factor, from, None, PerfFaultKind::Brownout)
    }

    /// Whether the fault affects `gpu` at `time`.
    pub fn affects(&self, gpu: GpuId, time: SimTime) -> bool {
        self.gpu == gpu && is_active_at(self.from, self.until, time)
    }
}

/// A hard GPU outage: the GPU is unusable from `down_from` until `up_at`
/// (exclusive), or forever when `up_at` is `None` (permanent loss).
///
/// Any dispatch whose group contains the GPU at the moment it goes down is
/// aborted by the engine; submitting onto a down GPU is rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuFault {
    /// The failed GPU.
    pub gpu: GpuId,
    /// When the GPU goes down.
    pub down_from: SimTime,
    /// When the GPU comes back (exclusive), or `None` for permanent loss.
    pub up_at: Option<SimTime>,
}

impl GpuFault {
    /// A transient outage over `[down_from, up_at)`.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    pub fn transient(gpu: GpuId, down_from: SimTime, up_at: SimTime) -> Self {
        assert!(down_from < up_at, "fault window must be non-empty");
        GpuFault {
            gpu,
            down_from,
            up_at: Some(up_at),
        }
    }

    /// A permanent loss starting at `down_from`.
    pub fn permanent(gpu: GpuId, down_from: SimTime) -> Self {
        GpuFault {
            gpu,
            down_from,
            up_at: None,
        }
    }

    /// Whether the GPU is down at `time`.
    pub fn is_down_at(&self, time: SimTime) -> bool {
        is_active_at(self.down_from, self.up_at, time)
    }
}

/// A whole-cluster outage for fleet-level co-simulation: every GPU of the
/// named cluster goes down at `down_from` (a rack power or network-fabric
/// event rather than a single device falling off the bus).
///
/// The fleet driver expands an outage into per-GPU [`GpuFault`]s on the
/// affected cluster's failure plan — so the cluster's own engine aborts
/// in-flight dispatches and its policy sees zero healthy GPUs through the
/// ordinary single-cluster machinery — and additionally re-routes the
/// cluster's queued-but-unstarted requests to surviving clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterOutage {
    /// Index of the affected cluster in the fleet.
    pub cluster: usize,
    /// When the cluster goes dark.
    pub down_from: SimTime,
    /// When it returns (exclusive), or `None` for a permanent loss.
    pub up_at: Option<SimTime>,
}

impl ClusterOutage {
    /// A transient outage over `[down_from, up_at)`.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    pub fn transient(cluster: usize, down_from: SimTime, up_at: SimTime) -> Self {
        assert!(down_from < up_at, "outage window must be non-empty");
        ClusterOutage {
            cluster,
            down_from,
            up_at: Some(up_at),
        }
    }

    /// A permanent loss starting at `down_from`.
    pub fn permanent(cluster: usize, down_from: SimTime) -> Self {
        ClusterOutage {
            cluster,
            down_from,
            up_at: None,
        }
    }

    /// Whether the cluster is dark at `time`.
    pub fn is_down_at(&self, time: SimTime) -> bool {
        is_active_at(self.down_from, self.up_at, time)
    }

    /// Expands the outage into one [`GpuFault`] per GPU of an
    /// `n_gpus`-wide cluster.
    pub fn to_gpu_faults(&self, n_gpus: usize) -> Vec<GpuFault> {
        (0..n_gpus)
            .map(|g| GpuFault {
                gpu: GpuId(g),
                down_from: self.down_from,
                up_at: self.up_at,
            })
            .collect()
    }
}

/// A set of injected degradations and outages.
///
/// Every query reads the plan's fault timeline (see the module docs). It
/// is derived from the fault lists on the first query, and each builder
/// resets it, so building a plan stays a plain push.
#[derive(Debug, Clone, Default)]
pub struct FailurePlan {
    perf_faults: Vec<PerfFault>,
    faults: Vec<GpuFault>,
    timeline: OnceLock<FaultTimeline>,
}

impl FailurePlan {
    /// An empty plan (no failures).
    pub fn none() -> Self {
        FailurePlan::default()
    }

    /// Adds a performance fault.
    pub fn with_perf_fault(mut self, p: PerfFault) -> Self {
        self.perf_faults.push(p);
        self.timeline = OnceLock::new();
        self
    }

    /// Adds a hard fault.
    pub fn with_fault(mut self, f: GpuFault) -> Self {
        self.faults.push(f);
        self.timeline = OnceLock::new();
        self
    }

    fn timeline(&self) -> &FaultTimeline {
        self.timeline
            .get_or_init(|| FaultTimeline::new(&self.perf_faults, &self.faults))
    }

    /// Effective serving capacity of a GPU set at `time` in
    /// "nominal-GPU" units: the sum of each *up* member's speed, `1 /` its
    /// slowdown (the maximum over its active perf faults, base 1.0), so a
    /// fault-free set of `n` GPUs reports exactly `n as f64` and digests
    /// of degradation-free runs are unchanged.
    pub fn effective_capacity(&self, gpus: GpuSet, time: SimTime) -> f64 {
        self.effective_capacity_during(gpus, time).0
    }

    /// [`FailurePlan::effective_capacity`] at `time`, and the timeline
    /// interval `[from, until)` around `time` over which it holds (`from`
    /// is `SimTime::ZERO` before the first break, `until` is
    /// `SimTime::MAX` after the last one). A caller may reuse the answer
    /// for any instant inside the interval.
    pub fn effective_capacity_during(&self, gpus: GpuSet, time: SimTime) -> (f64, Range<SimTime>) {
        let timeline = self.timeline();
        let i = timeline.breaks_upto(time);
        let (down, factors) = timeline.state(i);
        // From 0.0 in ascending GPU order: the sum every digest was
        // pinned with (`Sum for f64` starts from -0.0).
        let capacity = gpus
            .difference(down)
            .iter()
            .fold(0.0, |cap, g| cap + 1.0 / factor(factors, g));
        let from = i
            .checked_sub(1)
            .and_then(|j| timeline.breaks.get(j))
            .copied()
            .unwrap_or(SimTime::ZERO);
        let until = timeline.breaks.get(i).copied().unwrap_or(SimTime::MAX);
        (capacity, from..until)
    }

    /// The execution slowdown of a group dispatch running at `time`:
    /// the *maximum* member slowdown, because a sequence-parallel step
    /// synchronises on its slowest shard.
    pub fn group_slowdown(&self, gpus: GpuSet, time: SimTime) -> f64 {
        self.group_slowdown_until(gpus, time).0
    }

    /// [`FailurePlan::group_slowdown`] at `time`, and the next timeline
    /// break after `time` (`SimTime::MAX` when there is none). The factor
    /// holds until that break, so a dispatch re-reads it only for a step
    /// starting at or after it.
    pub fn group_slowdown_until(&self, gpus: GpuSet, time: SimTime) -> (f64, SimTime) {
        let timeline = self.timeline();
        let i = timeline.breaks_upto(time);
        let factors = timeline.state(i).1;
        let slowdown = gpus
            .iter()
            .fold(1.0f64, |max, g| max.max(factor(factors, g)));
        let next = timeline.breaks.get(i).copied().unwrap_or(SimTime::MAX);
        (slowdown, next)
    }

    /// The set of GPUs down at `time`.
    pub fn down_gpus(&self, time: SimTime) -> GpuSet {
        self.timeline().at(time).0
    }

    /// The earliest instant at or after `from` at which any member of
    /// `gpus` is down, if any: `from` itself when a member is down
    /// already, else the `down_from` of the first member fault opening
    /// later.
    pub fn first_down_at_or_after(&self, gpus: GpuSet, from: SimTime) -> Option<SimTime> {
        let timeline = self.timeline();
        let i = timeline.breaks_upto(from);
        if !timeline.state(i).0.is_disjoint(gpus) {
            return Some(from);
        }
        timeline
            .breaks
            .iter()
            .zip(&timeline.down)
            .skip(i)
            .find(|(_, down)| !down.is_disjoint(gpus))
            .map(|(&at, _)| at)
    }

    /// The configured hard faults.
    pub fn faults(&self) -> &[GpuFault] {
        &self.faults
    }
}

/// A plan's fault state as a step function of time.
///
/// Windows are half-open, so the state changes only at window endpoints:
/// state `j` holds over `[breaks[j], breaks[j + 1])`, the last one
/// forever, and no fault is active before `breaks[0]`. An empty plan
/// holds no state and allocates nothing.
#[derive(Debug, Clone)]
struct FaultTimeline {
    /// Every distinct window endpoint, ascending.
    breaks: Vec<SimTime>,
    /// The GPUs down in each state.
    down: Vec<GpuSet>,
    /// Each state's per-GPU slowdown factors, `width` to a state.
    factors: Vec<f64>,
    /// One past the highest GPU a perf fault names; no GPU from here on
    /// ever slows down.
    width: usize,
}

impl FaultTimeline {
    fn new(perf_faults: &[PerfFault], faults: &[GpuFault]) -> Self {
        let mut breaks = Vec::with_capacity(2 * (perf_faults.len() + faults.len()));
        for p in perf_faults {
            breaks.push(p.from);
            breaks.extend(p.until);
        }
        for f in faults {
            breaks.push(f.down_from);
            breaks.extend(f.up_at);
        }
        breaks.sort_unstable();
        breaks.dedup();
        let down = breaks
            .iter()
            .map(|&t| {
                faults
                    .iter()
                    .filter(|f| f.is_down_at(t))
                    .map(|f| f.gpu)
                    .collect()
            })
            .collect();
        let width = perf_faults.iter().map(|p| p.gpu.0 + 1).max().unwrap_or(0);
        let mut factors = Vec::with_capacity(breaks.len() * width);
        for &t in &breaks {
            factors.extend((0..width).map(|g| {
                perf_faults
                    .iter()
                    .filter(|p| p.affects(GpuId(g), t))
                    .fold(1.0f64, |max, p| max.max(p.factor))
            }));
        }
        FaultTimeline {
            breaks,
            down,
            factors,
            width,
        }
    }

    /// How many breaks lie at or before `time`: state `i - 1` holds at
    /// `time` (no state when `i` is 0), and `breaks[i]` is the next one.
    fn breaks_upto(&self, time: SimTime) -> usize {
        self.breaks.partition_point(|&b| b <= time)
    }

    /// The down set and slowdown factors once the first `i` breaks have
    /// passed.
    fn state(&self, i: usize) -> (GpuSet, &[f64]) {
        let Some(j) = i.checked_sub(1) else {
            return (GpuSet::EMPTY, &[]);
        };
        let down = self.down.get(j).copied().unwrap_or_default();
        let factors = self
            .factors
            .get(j * self.width..i * self.width)
            .unwrap_or_default();
        (down, factors)
    }

    /// The down set and slowdown factors at `time`.
    fn at(&self, time: SimTime) -> (GpuSet, &[f64]) {
        self.state(self.breaks_upto(time))
    }
}

/// `gpu`'s slowdown in one state's factor row.
fn factor(factors: &[f64], gpu: GpuId) -> f64 {
    factors.get(gpu.0).copied().unwrap_or(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    fn window(a: u64, b: u64) -> (SimTime, SimTime) {
        (SimTime::from_millis(a), SimTime::from_millis(b))
    }

    /// The linear scans the queries ran before the fault timeline, kept
    /// as the reference it must match bit for bit.
    mod scan {
        use super::*;

        pub fn slowdown(plan: &FailurePlan, gpu: GpuId, time: SimTime) -> f64 {
            let mut factor = 1.0f64;
            for p in &plan.perf_faults {
                if p.affects(gpu, time) {
                    factor = factor.max(p.factor);
                }
            }
            factor
        }

        pub fn effective_speed(plan: &FailurePlan, gpu: GpuId, time: SimTime) -> f64 {
            1.0 / slowdown(plan, gpu, time)
        }

        pub fn effective_capacity(plan: &FailurePlan, gpus: GpuSet, time: SimTime) -> f64 {
            let mut cap = 0.0f64;
            for g in gpus.iter() {
                if !is_down(plan, g, time) {
                    cap += effective_speed(plan, g, time);
                }
            }
            cap
        }

        pub fn group_slowdown(plan: &FailurePlan, gpus: GpuSet, time: SimTime) -> f64 {
            let mut factor = 1.0f64;
            for p in &plan.perf_faults {
                if gpus.iter().any(|g| p.affects(g, time)) {
                    factor = factor.max(p.factor);
                }
            }
            factor
        }

        pub fn is_down(plan: &FailurePlan, gpu: GpuId, time: SimTime) -> bool {
            plan.faults
                .iter()
                .any(|f| f.gpu == gpu && f.is_down_at(time))
        }

        pub fn down_gpus(plan: &FailurePlan, time: SimTime) -> GpuSet {
            plan.faults
                .iter()
                .filter(|f| f.is_down_at(time))
                .map(|f| f.gpu)
                .collect()
        }

        pub fn first_down_within(
            plan: &FailurePlan,
            gpus: GpuSet,
            from: SimTime,
            until: SimTime,
        ) -> Option<SimTime> {
            let mut earliest: Option<SimTime> = None;
            for f in &plan.faults {
                if !gpus.contains(f.gpu) {
                    continue;
                }
                let hit = if f.is_down_at(from) {
                    Some(from)
                } else if f.down_from > from && f.down_from < until {
                    Some(f.down_from)
                } else {
                    None
                };
                if let Some(t) = hit {
                    earliest = Some(earliest.map_or(t, |e| e.min(t)));
                }
            }
            earliest
        }
    }

    /// A 10 ms grid point: generated windows land on a coarse grid so
    /// they overlap, share endpoints and start at 0 often.
    fn grid(k: u64) -> SimTime {
        SimTime::from_millis(10 * k)
    }

    /// Perf faults are `(gpu, factor, start, length, kind)` with kind 0 a
    /// straggler, 1 a throttle and 2 a brownout; hard faults are `(gpu,
    /// start, length, kind)` with kind 0 permanent. Returns the plan and
    /// the instants to probe around: each window's start and end (where
    /// it would end, for an open-ended fault).
    fn generated_plan(
        perf: &[(usize, f64, u64, u64, u32)],
        hard: &[(usize, u64, u64, u32)],
    ) -> (FailurePlan, Vec<SimTime>) {
        let mut plan = FailurePlan::none();
        let mut endpoints = Vec::new();
        for &(g, factor, start, len, kind) in perf {
            let (from, until) = (grid(start), grid(start + len));
            plan = plan.with_perf_fault(match kind {
                0 => PerfFault::straggler(GpuId(g), factor, from, until),
                1 => PerfFault::throttle(GpuId(g), factor, from, until),
                _ => PerfFault::brownout(GpuId(g), factor, from),
            });
            endpoints.extend([from, until]);
        }
        for &(g, start, len, kind) in hard {
            let (from, until) = (grid(start), grid(start + len));
            plan = plan.with_fault(if kind == 0 {
                GpuFault::permanent(GpuId(g), from)
            } else {
                GpuFault::transient(GpuId(g), from, until)
            });
            endpoints.extend([from, until]);
        }
        (plan, endpoints)
    }

    /// Every query `plan` answers at `t` equals the reference scan's
    /// answer, `f64`s compared by bits.
    fn matches_the_scans(
        plan: &FailurePlan,
        t: SimTime,
        masks: &[u64],
        span: SimDuration,
    ) -> Result<(), TestCaseError> {
        // GPUs 8 and 9 carry no fault: the path past a factor row's end.
        for g in (0..10).map(GpuId) {
            let single = GpuSet::single(g);
            prop_assert_eq!(
                plan.group_slowdown(single, t).to_bits(),
                scan::slowdown(plan, g, t).to_bits()
            );
            prop_assert_eq!(plan.down_gpus(t).contains(g), scan::is_down(plan, g, t));
        }
        prop_assert_eq!(plan.down_gpus(t), scan::down_gpus(plan, t));
        for gpus in masks.iter().map(|&m| GpuSet::from_mask(m)) {
            let capacity = scan::effective_capacity(plan, gpus, t);
            prop_assert_eq!(
                plan.effective_capacity(gpus, t).to_bits(),
                capacity.to_bits()
            );
            // The capacity holds from the interval's first instant to its
            // last.
            let (during, held) = plan.effective_capacity_during(gpus, t);
            prop_assert_eq!(during.to_bits(), capacity.to_bits());
            prop_assert!(held.contains(&t));
            let last = held.end - SimDuration::from_micros(1);
            for edge in [held.start, last] {
                prop_assert_eq!(
                    scan::effective_capacity(plan, gpus, edge).to_bits(),
                    capacity.to_bits()
                );
            }
            let slowdown = scan::group_slowdown(plan, gpus, t);
            prop_assert_eq!(plan.group_slowdown(gpus, t).to_bits(), slowdown.to_bits());
            // The factor holds up to the next break.
            let (until_factor, next) = plan.group_slowdown_until(gpus, t);
            prop_assert_eq!(until_factor.to_bits(), slowdown.to_bits());
            prop_assert!(next > t);
            if next < SimTime::MAX {
                let last = next - SimDuration::from_micros(1);
                prop_assert_eq!(
                    scan::group_slowdown(plan, gpus, last).to_bits(),
                    slowdown.to_bits()
                );
            }
            let first_down = plan.first_down_at_or_after(gpus, t);
            prop_assert_eq!(
                first_down,
                scan::first_down_within(plan, gpus, t, SimTime::MAX)
            );
            // Normal, empty and inverted windows: the engine's abort test
            // (`at == t || at < until`) on the one answer finds what a
            // scan of each window finds.
            for until in [t + span, t, t - span] {
                prop_assert_eq!(
                    first_down.filter(|&at| at == t || at < until),
                    scan::first_down_within(plan, gpus, t, until),
                    "window [{:?}, {:?}) of {:?}",
                    t,
                    until,
                    gpus
                );
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        /// The timeline answers every query exactly as the linear scans
        /// did, at random instants and at every window endpoint ±1 µs.
        #[test]
        fn prop_timeline_matches_the_linear_scans(
            perf in proptest::collection::vec(
                (0usize..8, 1.0f64..4.0, 0u64..30, 1u64..20, 0u32..3),
                0..=10,
            ),
            hard in proptest::collection::vec((0usize..8, 0u64..30, 1u64..20, 0u32..4), 0..=10),
            instants in proptest::collection::vec(0u64..600_000, 1..8),
            masks in proptest::collection::vec(0u64..256, 1..5),
            span in 0u64..300_000,
        ) {
            let (plan, endpoints) = generated_plan(&perf, &hard);
            let tick = SimDuration::from_micros(1);
            let probes = instants
                .iter()
                .map(|&us| SimTime::from_micros(us))
                .chain(endpoints.iter().flat_map(|&e| [e - tick, e, e + tick]));
            for t in probes {
                matches_the_scans(&plan, t, &masks, SimDuration::from_micros(span))?;
            }
        }
    }

    #[test]
    fn group_takes_the_slowest_member() {
        let (from, until) = window(0, 1000);
        let plan = FailurePlan::none()
            .with_perf_fault(PerfFault::straggler(GpuId(0), 1.5, from, until))
            .with_perf_fault(PerfFault::straggler(GpuId(1), 3.0, from, until));
        let both = GpuSet::contiguous(0, 2);
        assert_eq!(plan.group_slowdown(both, SimTime::from_millis(10)), 3.0);
        let only_first = GpuSet::single(GpuId(0));
        assert_eq!(
            plan.group_slowdown(only_first, SimTime::from_millis(10)),
            1.5
        );
        let unaffected = GpuSet::contiguous(4, 2);
        assert_eq!(
            plan.group_slowdown(unaffected, SimTime::from_millis(10)),
            1.0
        );
    }

    #[test]
    fn empty_plan_is_identity() {
        let plan = FailurePlan::none();
        assert_eq!(plan.group_slowdown(GpuSet::first_n(8), SimTime::ZERO), 1.0);
        assert!(plan.down_gpus(SimTime::ZERO).is_empty());
        assert_eq!(
            plan.first_down_at_or_after(GpuSet::first_n(8), SimTime::ZERO),
            None
        );
    }

    #[test]
    fn transient_fault_window_semantics() {
        let (from, until) = window(100, 200);
        let f = GpuFault::transient(GpuId(2), from, until);
        assert!(!f.is_down_at(SimTime::from_millis(99)));
        assert!(f.is_down_at(SimTime::from_millis(100)));
        assert!(f.is_down_at(SimTime::from_millis(199)));
        assert!(!f.is_down_at(SimTime::from_millis(200)));
    }

    #[test]
    fn permanent_fault_never_recovers() {
        let f = GpuFault::permanent(GpuId(7), SimTime::from_millis(50));
        assert!(!f.is_down_at(SimTime::from_millis(49)));
        assert!(f.is_down_at(SimTime::from_millis(50)));
        assert!(f.is_down_at(SimTime::from_secs_f64(1e6)));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_fault_window_rejected() {
        let t = SimTime::from_millis(5);
        GpuFault::transient(GpuId(0), t, t);
    }

    #[test]
    fn down_gpus_tracks_windows() {
        let (from, until) = window(100, 200);
        let plan = FailurePlan::none()
            .with_fault(GpuFault::transient(GpuId(1), from, until))
            .with_fault(GpuFault::permanent(GpuId(4), SimTime::from_millis(150)));
        assert!(plan.down_gpus(SimTime::from_millis(50)).is_empty());
        assert_eq!(
            plan.down_gpus(SimTime::from_millis(150)),
            GpuSet::single(GpuId(1)).with(GpuId(4))
        );
        assert_eq!(
            plan.down_gpus(SimTime::from_millis(300)),
            GpuSet::single(GpuId(4))
        );
    }

    #[test]
    fn first_down_at_or_after_finds_earliest_hit() {
        let ms = SimTime::from_millis;
        let plan = FailurePlan::none()
            .with_fault(GpuFault::transient(GpuId(1), ms(100), ms(200)))
            .with_fault(GpuFault::permanent(GpuId(2), ms(80)));
        let group = GpuSet::contiguous(0, 4);
        // Both faults open later: the earliest wins.
        assert_eq!(plan.first_down_at_or_after(group, ms(0)), Some(ms(80)));
        // A fault already active at `from` yields `from`.
        assert_eq!(plan.first_down_at_or_after(group, ms(90)), Some(ms(90)));
        // Disjoint group is unaffected.
        assert_eq!(
            plan.first_down_at_or_after(GpuSet::contiguous(4, 2), SimTime::ZERO),
            None
        );
        // Only GPU 1's window touches {0, 1}; after it closes nothing does.
        let pair = GpuSet::contiguous(0, 2);
        assert_eq!(plan.first_down_at_or_after(pair, ms(0)), Some(ms(100)));
        assert_eq!(plan.first_down_at_or_after(pair, ms(200)), None);
    }

    proptest! {
        /// Overlapping stragglers on one GPU compose by *max* over the
        /// windows active at the query instant — never by sum or product.
        #[test]
        fn prop_overlapping_stragglers_take_max(
            s1 in 1u64..400, f1 in 0u64..1000, w1 in 1u64..1000,
            s2 in 1u64..400, f2 in 0u64..1000, w2 in 1u64..1000,
            t in 0u64..2200,
        ) {
            let sl1 = 1.0 + s1 as f64 / 100.0;
            let sl2 = 1.0 + s2 as f64 / 100.0;
            let (a1, b1) = (SimTime::from_millis(f1), SimTime::from_millis(f1 + w1));
            let (a2, b2) = (SimTime::from_millis(f2), SimTime::from_millis(f2 + w2));
            let plan = FailurePlan::none()
                .with_perf_fault(PerfFault::straggler(GpuId(0), sl1, a1, b1))
                .with_perf_fault(PerfFault::straggler(GpuId(0), sl2, a2, b2));
            let time = SimTime::from_millis(t);
            let mut expect = 1.0f64;
            if is_active_at(a1, Some(b1), time) {
                expect = expect.max(sl1);
            }
            if is_active_at(a2, Some(b2), time) {
                expect = expect.max(sl2);
            }
            prop_assert_eq!(plan.group_slowdown(GpuSet::single(GpuId(0)), time), expect);
        }

        /// A fault and a straggler on the same GPU stay independent views:
        /// the down set tracks the outage window exactly, and whenever the
        /// GPU is down any execution window starting then reports an
        /// immediate hit (the engine aborts rather than running slowly).
        #[test]
        fn prop_fault_and_straggler_on_same_gpu(
            sd in 1u64..400, sf in 0u64..1000, sw in 1u64..1000,
            ff in 0u64..1000, fw in 1u64..1000, t in 0u64..2200,
        ) {
            let plan = FailurePlan::none()
                .with_perf_fault(PerfFault::straggler(
                    GpuId(3),
                    1.0 + sd as f64 / 100.0,
                    SimTime::from_millis(sf),
                    SimTime::from_millis(sf + sw),
                ))
                .with_fault(GpuFault::transient(
                    GpuId(3),
                    SimTime::from_millis(ff),
                    SimTime::from_millis(ff + fw),
                ));
            let time = SimTime::from_millis(t);
            let g = GpuSet::single(GpuId(3));
            let down = is_active_at(
                SimTime::from_millis(ff),
                Some(SimTime::from_millis(ff + fw)),
                time,
            );
            prop_assert_eq!(plan.down_gpus(time).contains(GpuId(3)), down);
            if down {
                prop_assert_eq!(plan.first_down_at_or_after(g, time), Some(time));
            }
            prop_assert!(plan.group_slowdown(g, time) >= 1.0);
        }

        /// Overlapping perf faults and hard faults on the same GPU, under
        /// arbitrary window overlap: the slowdown is always finite and at
        /// least 1, so the speed is in `(0, 1]`, a down GPU is never
        /// dispatchable (any window starting inside the outage reports an
        /// immediate hit), and capacity never counts a down GPU.
        #[test]
        fn prop_perf_and_hard_faults_never_break_speed_or_dispatch(
            pf1 in 1u64..500, pfrom1 in 0u64..1000, pw1 in 1u64..1000,
            pf2 in 1u64..500, pfrom2 in 0u64..1000,
            sf in 1u64..500, sfrom in 0u64..1000, sw in 1u64..1000,
            ff in 0u64..1000, fw in 1u64..1000,
            t in 0u64..2500,
        ) {
            let plan = FailurePlan::none()
                .with_perf_fault(PerfFault::throttle(
                    GpuId(2),
                    1.0 + pf1 as f64 / 100.0,
                    SimTime::from_millis(pfrom1),
                    SimTime::from_millis(pfrom1 + pw1),
                ))
                .with_perf_fault(PerfFault::brownout(
                    GpuId(2),
                    1.0 + pf2 as f64 / 100.0,
                    SimTime::from_millis(pfrom2),
                ))
                .with_perf_fault(PerfFault::straggler(
                    GpuId(2),
                    1.0 + sf as f64 / 100.0,
                    SimTime::from_millis(sfrom),
                    SimTime::from_millis(sfrom + sw),
                ))
                .with_fault(GpuFault::transient(
                    GpuId(2),
                    SimTime::from_millis(ff),
                    SimTime::from_millis(ff + fw),
                ));
            let time = SimTime::from_millis(t);
            let g = GpuSet::single(GpuId(2));
            let slow = plan.group_slowdown(g, time);
            prop_assert!(slow >= 1.0 && slow.is_finite());
            let down = plan.down_gpus(time).contains(GpuId(2));
            if down {
                // The engine aborts instead of dispatching: any window
                // starting now reports an immediate hit …
                prop_assert_eq!(plan.first_down_at_or_after(g, time), Some(time));
                // … and capacity never counts the down GPU.
                prop_assert_eq!(plan.effective_capacity(g, time), 0.0);
            } else {
                let cap = plan.effective_capacity(g, time);
                prop_assert!(cap > 0.0 && cap <= 1.0);
            }
        }

        /// A group whose members are all down can never begin a dispatch:
        /// any window starting inside the outage reports an immediate
        /// abort, and the group is usable again exactly at `up_at`.
        #[test]
        fn prop_fully_down_group_never_dispatches(
            mask in 1u64..256, ff in 0u64..1000, fw in 1u64..1000, dt in 0u64..1000,
        ) {
            let group = GpuSet::from_mask(mask);
            let from = SimTime::from_millis(ff);
            let until = SimTime::from_millis(ff + fw);
            let mut plan = FailurePlan::none();
            for g in group.iter() {
                plan = plan.with_fault(GpuFault::transient(g, from, until));
            }
            let t = SimTime::from_millis(ff + dt % fw);
            prop_assert!(plan.down_gpus(t).is_superset_of(group));
            prop_assert_eq!(plan.first_down_at_or_after(group, t), Some(t));
            prop_assert!(plan.down_gpus(until).intersection(group).is_empty());
            prop_assert_eq!(plan.first_down_at_or_after(group, until), None);
        }
    }

    #[test]
    fn perf_fault_kinds_share_window_semantics() {
        let (from, until) = window(100, 200);
        for p in [
            PerfFault::straggler(GpuId(3), 2.0, from, until),
            PerfFault::throttle(GpuId(3), 2.0, from, until),
        ] {
            assert!(!p.affects(GpuId(3), SimTime::from_millis(99)));
            assert!(p.affects(GpuId(3), SimTime::from_millis(100)));
            assert!(p.affects(GpuId(3), SimTime::from_millis(199)));
            assert!(!p.affects(GpuId(3), SimTime::from_millis(200)));
            assert!(!p.affects(GpuId(2), SimTime::from_millis(150)));
        }
    }

    #[test]
    fn brownout_never_recovers() {
        let p = PerfFault::brownout(GpuId(1), 1.5, SimTime::from_millis(50));
        assert_eq!(p.kind, PerfFaultKind::Brownout);
        assert!(!p.affects(GpuId(1), SimTime::from_millis(49)));
        assert!(p.affects(GpuId(1), SimTime::from_secs_f64(1e9)));
    }

    #[test]
    #[should_panic(expected = "≥ 1.0")]
    fn perf_fault_speedups_rejected() {
        let (from, until) = window(0, 1);
        PerfFault::throttle(GpuId(0), 0.9, from, until);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_perf_fault_window_rejected() {
        let t = SimTime::from_millis(5);
        PerfFault::straggler(GpuId(0), 2.0, t, t);
    }

    #[test]
    fn perf_faults_and_stragglers_compose_by_max() {
        let (from, until) = window(0, 1000);
        let plan = FailurePlan::none()
            .with_perf_fault(PerfFault::straggler(GpuId(0), 1.5, from, until))
            .with_perf_fault(PerfFault::throttle(GpuId(0), 2.5, from, until))
            .with_perf_fault(PerfFault::brownout(
                GpuId(1),
                4.0,
                SimTime::from_millis(500),
            ));
        let t_early = SimTime::from_millis(100);
        let t_late = SimTime::from_millis(800);
        let gpu = |g| GpuSet::single(GpuId(g));
        assert_eq!(plan.group_slowdown(gpu(0), t_early), 2.5);
        assert_eq!(plan.group_slowdown(gpu(1), t_early), 1.0);
        assert_eq!(plan.group_slowdown(gpu(1), t_late), 4.0);
        let both = GpuSet::contiguous(0, 2);
        assert_eq!(plan.group_slowdown(both, t_late), 4.0);
    }

    #[test]
    fn capacity_derates_slow_gpus_and_skips_down_ones() {
        let (from, until) = window(0, 1000);
        let plan = FailurePlan::none()
            .with_perf_fault(PerfFault::throttle(GpuId(0), 2.0, from, until))
            .with_fault(GpuFault::transient(GpuId(1), from, until));
        let t = SimTime::from_millis(100);
        assert_eq!(plan.effective_capacity(GpuSet::single(GpuId(0)), t), 0.5);
        assert_eq!(plan.effective_capacity(GpuSet::single(GpuId(2)), t), 1.0);
        // 4-GPU set: gpu0 at half speed, gpu1 down, gpus 2-3 nominal.
        let set = GpuSet::first_n(4);
        assert_eq!(plan.effective_capacity(set, t), 2.5);
        // Outside every window the set reports exactly its size.
        let after = SimTime::from_millis(2000);
        assert_eq!(plan.effective_capacity(set, after), 4.0);
        // Fault-free plans report exactly n for any n.
        assert_eq!(
            FailurePlan::none().effective_capacity(GpuSet::first_n(8), t),
            8.0
        );
    }

    #[test]
    fn cluster_outage_expands_to_per_gpu_faults() {
        let (from, until) = window(100, 200);
        let outage = ClusterOutage::transient(2, from, until);
        assert!(!outage.is_down_at(SimTime::from_millis(99)));
        assert!(outage.is_down_at(SimTime::from_millis(100)));
        assert!(!outage.is_down_at(SimTime::from_millis(200)));
        let faults = outage.to_gpu_faults(4);
        assert_eq!(faults.len(), 4);
        let mut plan = FailurePlan::none();
        for f in faults {
            assert_eq!(f.down_from, from);
            assert_eq!(f.up_at, Some(until));
            plan = plan.with_fault(f);
        }
        // Every GPU of the cluster is dark for the whole window.
        assert_eq!(
            plan.down_gpus(SimTime::from_millis(150)),
            GpuSet::first_n(4)
        );
        assert!(plan.down_gpus(SimTime::from_millis(200)).is_empty());
    }

    #[test]
    fn permanent_cluster_outage_never_recovers() {
        let outage = ClusterOutage::permanent(0, SimTime::from_millis(50));
        assert!(outage.is_down_at(SimTime::from_secs_f64(1e9)));
        assert!(outage.to_gpu_faults(8).iter().all(|f| f.up_at.is_none()));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_outage_window_rejected() {
        let t = SimTime::from_millis(5);
        ClusterOutage::transient(0, t, t);
    }

    #[test]
    fn fault_and_straggler_compose_on_the_same_gpu() {
        let (from, until) = window(0, 1000);
        let plan = FailurePlan::none()
            .with_perf_fault(PerfFault::straggler(GpuId(0), 2.0, from, until))
            .with_fault(GpuFault::transient(
                GpuId(0),
                SimTime::from_millis(500),
                SimTime::from_millis(600),
            ));
        let g = GpuSet::single(GpuId(0));
        // Before the outage: straggling but up.
        assert_eq!(plan.group_slowdown(g, SimTime::from_millis(100)), 2.0);
        assert!(!plan.down_gpus(SimTime::from_millis(100)).contains(GpuId(0)));
        // During the outage: down (slowdown is irrelevant; the engine
        // aborts instead of executing).
        assert!(plan.down_gpus(SimTime::from_millis(550)).contains(GpuId(0)));
    }
}
