//! Cross-module property tests for the scheduler's building blocks.
//!
//! These complement the per-module unit tests with randomised invariants:
//! the allocator never violates the deadline it claims to meet and never
//! beats a brute-force optimum; placement never overlaps and always
//! preserves when it can; the option builder respects Algorithm 1's
//! definitions for arbitrary plans.

#![cfg(test)]

use proptest::prelude::*;

use tetriserve_costmodel::{ClusterSpec, CostTable, DitModel, Profiler, Resolution, StageProfile};
use tetriserve_simulator::gpuset::GpuSet;
use tetriserve_simulator::time::{SimDuration, SimTime};
use tetriserve_simulator::topology::Topology;
use tetriserve_simulator::trace::{RequestId, TenantId};

use crate::allocation::{min_gpu_hour_plan, useful_degrees};
use crate::feasibility;
use crate::options::build_options;
use crate::placement::{place, PlacementRequest};
use crate::request::RequestSpec;
use crate::scheduler::TetriServePolicy;
use crate::server::{Server, ServerConfig};
use crate::stage::PoolLayout;
use crate::tracker::{Phase, RequestTracker};

fn costs() -> CostTable {
    Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic()
}

fn resolution_strategy() -> impl Strategy<Value = Resolution> {
    (0usize..4).prop_map(|i| Resolution::PRODUCTION[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A feasible plan's claimed runtime really fits the slack, covers all
    /// steps, uses only profiled degrees, and its GPU-second cost is
    /// optimal among all two-degree splits (brute force).
    #[test]
    fn prop_allocation_sound_and_optimal(
        res in resolution_strategy(),
        steps in 1u32..60,
        slack_ms in 50u64..20_000,
    ) {
        let c = costs();
        let slack = SimDuration::from_millis(slack_ms);
        let plan = min_gpu_hour_plan(res, steps, slack, &c);
        prop_assert_eq!(plan.total_steps(), steps);
        let degrees: Vec<usize> = useful_degrees(res, &c).collect();
        for seg in plan.segments() {
            prop_assert!(degrees.contains(&seg.degree));
        }
        if plan.feasible {
            prop_assert!(plan.runtime(res, &c) <= slack);
            // Brute-force optimum over all ordered two-degree splits.
            let mut best = f64::INFINITY;
            for &a in &degrees {
                for &b in &degrees {
                    for s_a in 0..=steps {
                        let s_b = steps - s_a;
                        let t = c.step_time(res, a, 1) * u64::from(s_a)
                            + c.step_time(res, b, 1) * u64::from(s_b);
                        if t <= slack {
                            let cost = c.gpu_seconds(res, a) * f64::from(s_a)
                                + c.gpu_seconds(res, b) * f64::from(s_b);
                            best = best.min(cost);
                        }
                    }
                }
            }
            let got = plan.gpu_seconds(res, &c);
            prop_assert!(
                got <= best * (1.0 + 1e-9),
                "plan cost {got} must match brute force {best}"
            );
        } else {
            // Infeasible means even the fastest degree misses.
            let fastest = *degrees.last().unwrap();
            let t = c.step_time(res, fastest, 1) * u64::from(steps);
            prop_assert!(t > slack);
        }
    }

    /// The incremental live index and the full-tracker recompute agree —
    /// bit-identical demand entries, the same EDF violations (so the same
    /// verdict and at-risk prefix), and the same merged entries and
    /// admission-probe verdict for the backlog plus one request — under
    /// arbitrary interleavings of every
    /// tracker mutation (admit, dispatch, abort, fail, shed, degrade,
    /// migrate out/in, complete, encode gating), with terminal requests
    /// accumulating in the tracker exactly as they do over a long serving
    /// run. The one walk a route view is built from (`scan_backlog`)
    /// matches the separate reads it replaced, bit for bit.
    #[test]
    fn prop_incremental_feasibility_matches_full_recompute(
        ops in proptest::collection::vec((0u8..11, any::<u32>()), 1..60),
        capacity in 1.0f64..16.0,
        committed in (0u32..5).prop_map(|k| f64::from(k) * 10.0),
    ) {
        let c = costs();
        let mut tracker = RequestTracker::new();
        let mut next_id = 0u64;
        let mut now = SimTime::ZERO;

        // Ids currently in a given phase, queried fresh each op.
        let ids_in = |t: &RequestTracker, want: fn(&Phase) -> bool| -> Vec<RequestId> {
            t.iter()
                .filter(|r| want(&r.phase))
                .map(|r| r.spec.id)
                .collect()
        };
        let pick = |v: &[RequestId], r: u32| v[r as usize % v.len()];

        for (op, r) in ops {
            now += SimDuration::from_millis(u64::from(r % 200));
            let queued = ids_in(&tracker, |p| *p == Phase::Queued);
            let running = ids_in(&tracker, |p| *p == Phase::Running);
            match op {
                // Dispatch part of a queued request's budget.
                0 if !queued.is_empty() => {
                    let id = pick(&queued, r);
                    let rem = tracker.get(id).unwrap().remaining_steps;
                    if rem == 0 {
                        tracker.complete(id, now);
                    } else {
                        let steps = 1 + r % rem;
                        let gpus = GpuSet::contiguous(0, 1 << (r % 3));
                        tracker.start_dispatch(id, gpus, steps, 0.25);
                    }
                }
                // Finish a running dispatch.
                1 if !running.is_empty() => {
                    tracker.finish_dispatch(pick(&running, r));
                }
                // Fault-abort a running dispatch, restoring lost steps.
                2 if !running.is_empty() => {
                    let id = pick(&running, r);
                    let t = tracker.get(id).unwrap();
                    let executed = t.steps_executed();
                    let lost = r % (executed + 1);
                    tracker.abort_dispatch(id, GpuSet::contiguous(0, 1), lost);
                }
                // Terminal failure from either live phase.
                3 if !queued.is_empty() || !running.is_empty() => {
                    let pool = if queued.is_empty() { &running } else { &queued };
                    tracker.fail(pick(pool, r));
                }
                // Admission-shed a still-fresh queued request.
                4 => {
                    let fresh: Vec<RequestId> = queued
                        .iter()
                        .copied()
                        .filter(|&id| {
                            let t = tracker.get(id).unwrap();
                            t.remaining_steps + t.steps_shed == t.spec.total_steps
                        })
                        .collect();
                    if !fresh.is_empty() {
                        tracker.shed(pick(&fresh, r));
                    }
                }
                // Degrade ladder: shed steps from a queued budget.
                5 => {
                    let thick: Vec<RequestId> = queued
                        .iter()
                        .copied()
                        .filter(|&id| tracker.get(id).unwrap().remaining_steps >= 2)
                        .collect();
                    if !thick.is_empty() {
                        let id = pick(&thick, r);
                        let rem = tracker.get(id).unwrap().remaining_steps;
                        tracker.shed_steps(id, 1 + r % (rem - 1));
                    }
                }
                // Migration round-trip: extract and re-admit (deadline
                // unchanged — the index key must survive the cycle).
                6 => {
                    let movable: Vec<RequestId> = queued
                        .iter()
                        .copied()
                        .filter(|&id| tracker.get(id).unwrap().remaining_steps > 0)
                        .collect();
                    if !movable.is_empty() {
                        let m = tracker.extract_queued(pick(&movable, r));
                        tracker.admit_migrated(m);
                    }
                }
                // Complete a drained request.
                7 => {
                    let done_ready: Vec<RequestId> = queued
                        .iter()
                        .copied()
                        .filter(|&id| tracker.get(id).unwrap().remaining_steps == 0)
                        .collect();
                    if !done_ready.is_empty() {
                        tracker.complete(pick(&done_ready, r), now);
                    }
                }
                // Gate a queued request on a condition encode that
                // finishes after `now`.
                8 if !queued.is_empty() => {
                    let until = now + SimDuration::from_millis(1 + u64::from(r % 500));
                    tracker.set_encode_ready(pick(&queued, r), until);
                }
                // Default (and fall-through when a pool was empty): admit.
                _ => {
                    let res = Resolution::PRODUCTION[(r % 4) as usize];
                    tracker.admit(RequestSpec {
                        tenant: TenantId::UNTAGGED,
                        id: RequestId(next_id),
                        resolution: res,
                        arrival: now,
                        deadline: now + SimDuration::from_millis(100 + u64::from(r % 9000)),
                        total_steps: 1 + r % 50,
                        stages: [
                            StageProfile::FLAT,
                            StageProfile::with_encode(),
                            StageProfile::video(8),
                        ][(r / 7 % 3) as usize],
                    });
                    next_id += 1;
                }
            }

            prop_assert!(tracker.index_is_consistent(), "index drifted after op {op}");
            let inc: Vec<_> = feasibility::live_entries(&tracker, now, &c).collect();
            let full = feasibility::live_entries_full(&tracker, now, &c);
            prop_assert!(
                feasibility::entries_bit_identical(&inc, &full),
                "incremental {inc:?} != full {full:?}"
            );
            let violations = |entries: &[feasibility::DemandEntry]| {
                feasibility::edf_violations(entries.iter().copied(), now, capacity, 0.0)
                    .map(|(i, overshoot)| (i, overshoot.to_bits()))
                    .collect::<Vec<_>>()
            };
            prop_assert_eq!(violations(&inc), violations(&full));

            // The merged admission probe against collect-push-sort-scan:
            // one extra request whose deadline ties a live entry's (when
            // there is one) and whose id may sort before, after or onto
            // it, and committed demand.
            let deadline = full
                .get(r as usize % full.len().max(1))
                .map_or(now + SimDuration::from_millis(500), |e| e.deadline);
            let extra = feasibility::demand_entry(
                &c,
                RequestId(u64::from(r) % (next_id + 1)),
                Resolution::PRODUCTION[(r % 4) as usize],
                StageProfile::FLAT,
                1 + r % 50,
                deadline,
                now,
                true,
            );
            let mut pushed = full;
            pushed.push(extra);
            feasibility::sort_entries(&mut pushed);
            let merged: Vec<_> = feasibility::live_entries_with(&tracker, now, &c, extra).collect();
            prop_assert!(
                feasibility::entries_bit_identical(&merged, &pushed),
                "merged {merged:?} != pushed and sorted {pushed:?}"
            );
            let verdict = |entries: Vec<feasibility::DemandEntry>| {
                feasibility::edf_violations(entries, now, capacity, committed)
                    .next()
                    .is_none()
            };
            prop_assert_eq!(verdict(merged), verdict(pushed));

            // The route view's one walk against the reads it replaced: the
            // live-index counts, the running counter, the `Sum` of the
            // live demand (−0.0 on an empty backlog) and the merged probe
            // through `edf_violations`.
            let queued_live = tracker.live().filter(|r| r.phase == Phase::Queued).count();
            let running_now = tracker.iter().filter(|r| r.phase == Phase::Running).count();
            let gpu_seconds: f64 = feasibility::live_entries(&tracker, now, &c)
                .map(|e| e.demand)
                .sum();
            let feasible = feasibility::edf_violations(
                feasibility::live_entries_with(&tracker, now, &c, extra),
                now,
                capacity,
                0.0,
            )
            .next()
            .is_none();
            let probed = feasibility::scan_backlog(&tracker, now, &c, Some((extra, capacity)));
            let unprobed = feasibility::scan_backlog(&tracker, now, &c, None);
            for scan in [probed, unprobed] {
                prop_assert_eq!(scan.queued, queued_live);
                prop_assert_eq!(scan.running, running_now);
                prop_assert_eq!(scan.gpu_seconds.to_bits(), gpu_seconds.to_bits());
            }
            if tracker.live_len() == 0 {
                prop_assert_eq!(probed.gpu_seconds.to_bits(), (-0.0f64).to_bits());
            }
            prop_assert_eq!(probed.feasible, feasible);
            prop_assert!(unprobed.feasible);
        }
    }

    /// Placement never overlaps, respects widths, stays within the free
    /// pool, and preserves a previous same-width placement when free.
    #[test]
    fn prop_placement_invariants(
        widths in proptest::collection::vec(0usize..3, 1..5), // 2^w ∈ {1,2,4}
        preserve in any::<bool>(),
        prev_start in 0usize..7,
    ) {
        let topo = Topology::h100_nvlink(8);
        let widths: Vec<usize> = widths.into_iter().map(|w| 1usize << w).collect();
        prop_assume!(widths.iter().sum::<usize>() <= 8);
        let prev_width = widths[0];
        prop_assume!(prev_start + prev_width <= 8);
        let previous = GpuSet::contiguous(prev_start, prev_width);
        let reqs: Vec<PlacementRequest> = widths
            .iter()
            .enumerate()
            .map(|(i, &w)| PlacementRequest {
                id: RequestId(i as u64),
                resolution: Resolution::R512,
                width: w,
                steps: 5,
                remaining_before: 50,
                previous: if i == 0 { Some(previous) } else { None },
            })
            .collect();
        let out = place(&reqs, GpuSet::first_n(8), preserve, &topo);
        prop_assert_eq!(out.len(), reqs.len());
        let mut used = GpuSet::EMPTY;
        for (a, r) in out.iter().zip(&reqs) {
            prop_assert_eq!(a.gpus.len(), r.width);
            prop_assert!(used.is_disjoint(a.gpus), "overlap at {:?}", a.gpus);
            used = used.union(a.gpus);
        }
        if preserve {
            prop_assert_eq!(out[0].gpus, previous, "same-width previous set must be kept");
        }
    }

    /// Algorithm 1 option construction: none is first with zero width, `q`
    /// never exceeds remaining steps, widths come from the plan, and the
    /// survival indicator matches its definition.
    #[test]
    fn prop_options_match_algorithm_one(
        res in resolution_strategy(),
        steps in 1u32..60,
        slack_ms in 100u64..20_000,
        deadline_ms in 100u64..30_000,
        gran in 1u64..8,
    ) {
        let c = costs();
        let plan = min_gpu_hour_plan(res, steps, SimDuration::from_millis(slack_ms), &c);
        let tau = c.t_min(Resolution::R2048) * gran;
        let t_next = SimTime::ZERO + tau;
        let deadline = SimTime::from_millis(deadline_ms);
        let opts = build_options(
            RequestId(0),
            res,
            deadline,
            &plan,
            tau,
            t_next,
            &c,
            8,
            None,
            SimDuration::ZERO,
            true,
            Vec::new(),
        );
        prop_assert_eq!(opts.options[0].width, 0);
        prop_assert_eq!(opts.options[0].steps, 0);
        let t_min = c.t_min(res);
        for o in &opts.options {
            prop_assert!(o.steps <= steps);
            if o.segment.is_some() {
                prop_assert!(plan.segments().iter().any(|s| s.degree == o.width));
                prop_assert!(o.steps >= 1);
            }
            // sv_i(o) = [t_next + (remaining - q)·T_min <= D_i]
            let lb = t_min * u64::from(steps - o.steps);
            prop_assert_eq!(o.survives, t_next + lb <= deadline);
        }
    }
}

fn stage_profile_strategy(max_frames: u32) -> impl Strategy<Value = StageProfile> {
    (any::<bool>(), 1u32..max_frames).prop_map(|(encode, frames)| StageProfile { encode, frames })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Frame-count scaling of decode demand is monotone and exactly
    /// integer (`frames == 1` is the flat identity, bit-for-bit).
    #[test]
    fn prop_frame_scaling_is_monotone(
        res in resolution_strategy(),
        frames in 1u32..64,
    ) {
        let c = costs();
        let tflops = c.cluster().gpu.effective_tflops();
        let m = c.model();
        let base = m.decode_time_frames(res, tflops, 1);
        let lo = m.decode_time_frames(res, tflops, frames);
        let hi = m.decode_time_frames(res, tflops, frames + 1);
        prop_assert!(lo <= hi, "decode demand must not shrink with more frames");
        prop_assert_eq!(lo, base * u64::from(frames));
        let p_lo = StageProfile { encode: false, frames };
        let p_hi = StageProfile { encode: false, frames: frames + 1 };
        prop_assert!(p_lo.frame_factor() <= p_hi.frame_factor());
        prop_assert_eq!(StageProfile::FLAT.frame_factor().to_bits(), 1.0f64.to_bits());
    }
}

proptest! {
    // Each case runs a full serving simulation; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Stage-chain conservation end to end: for every *served* request,
    /// the encode + denoise + decode durations reported by
    /// `stage_breakdown` sum exactly (integer microseconds) to the
    /// request's end-to-end latency — under both pool layouts, arbitrary
    /// stage profiles, and whatever queueing/retries the run produced.
    #[test]
    fn prop_stage_breakdown_conserves_served_latency(
        n in 1usize..8,
        offset_ms in 0u64..500,
        slo_s in 2.0f64..30.0,
        profile in stage_profile_strategy(5),
        disagg in any::<bool>(),
    ) {
        let c = costs();
        let policy = TetriServePolicy::with_defaults(&c);
        let mut server = Server::with_config(c, policy, ServerConfig::default());
        if disagg {
            server.config_mut().pool = PoolLayout::disaggregated_default();
        }
        let specs: Vec<RequestSpec> = (0..n)
            .map(|i| {
                let arrival = SimTime::from_micros((offset_ms + 137 * i as u64) * 1_000);
                RequestSpec {
                    tenant: TenantId::UNTAGGED,
                    id: RequestId(i as u64),
                    resolution: Resolution::PRODUCTION[i % 4],
                    arrival,
                    deadline: arrival + SimDuration::from_secs_f64(slo_s),
                    total_steps: 30,
                    stages: profile,
                }
            })
            .collect();
        let report = server.run(specs);
        prop_assert_eq!(report.outcomes.len(), n);
        for o in &report.outcomes {
            if let Some(done) = o.completion {
                let (e, dn, dc) = o.stage_breakdown().unwrap();
                let latency = done.saturating_since(o.arrival);
                prop_assert_eq!(e + dn + dc, latency, "breakdown must conserve latency: {:?}", o);
            }
        }
    }
}
