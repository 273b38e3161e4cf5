//! Selective continuous batching (§5).
//!
//! Batching diffusion steps is only effective for identical small-resolution
//! requests that would otherwise under-utilise their GPUs. After the packer
//! selects assignments, this pass merges same-resolution, same-frame-count,
//! same-degree, small-resolution assignments into shared dispatches — but
//! *only* when the cost model says the slower batched step flips nobody's
//! deadline survival. A batch never mixes frame counts: a dispatch runs
//! every step once per frame, so an image batched with an 8-frame clip
//! would run eight times slower. Freed GPU sets flow back to the caller for
//! the elastic scale-up pass.
//!
//! Batch formation is part of the scheduling decision path, so the pass
//! visits candidate groups in (tokens, frames, degree) order, never in
//! std's per-instance-randomized hash order, and the same seed therefore
//! always forms the same batches. One sort of the candidates by (tokens,
//! frames, degree, remaining steps, index) lays each group out as one
//! contiguous run in that order, so the pass needs no map and allocates
//! only the request list of each batch it forms.
//!
//! Within a group, candidates are visited smallest-remaining-first, so
//! requests at similar progress co-batch: survival-compatible requests
//! are adjacent instead of interleaved with incompatible ones, and the
//! members closest to completion finish inside the round and vacate
//! their GPU sets at the earliest round boundary (see DESIGN.md §8 for
//! why the ordering is ascending, not descending).

// tetrilint: allow-file(slice-index) -- every index is produced by
// enumerate() over `assignments` or by group membership built from those
// same indices earlier in this pass.

use tetriserve_costmodel::CostTable;
use tetriserve_simulator::gpuset::GpuSet;
use tetriserve_simulator::time::{SimDuration, SimTime};
use tetriserve_simulator::trace::Batch;

use crate::placement::Assignment;
use crate::tracker::RequestTracker;

/// Largest latent length considered "small" enough to batch (covers the
/// 256² and 512² production resolutions).
pub const BATCHABLE_TOKEN_LIMIT: u64 = 1024;

/// Merges batchable assignments in place. Returns the GPU sets freed by
/// merging (to be handed to elastic scale-up). Frame counts, deadlines
/// and remaining steps are read from `tracker`.
///
/// Requests are merged only when all of the following hold:
///
/// * same resolution, same frame count and same degree, resolution ≤ the
///   batchable limit;
/// * the merged batch stays within the profiled batch envelope;
/// * with the slower batched step time, every member still satisfies the
///   survival bound `t_next + (remaining − q_b) · T_min ≤ D_i`.
///
/// Absorbed assignments leave the list by `swap_remove`, highest index
/// first.
///
/// # Panics
///
/// Panics if there are more than [`GpuSet::MAX_GPUS`] assignments (the
/// assignments of one pass hold disjoint, non-empty GPU sets).
pub fn merge_batches(
    assignments: &mut Vec<Assignment>,
    tracker: &RequestTracker,
    costs: &CostTable,
    tau: SimDuration,
    t_next: SimTime,
) -> GpuSet {
    assert!(
        assignments.len() <= GpuSet::MAX_GPUS,
        "{} assignments exceed {} GPUs",
        assignments.len(),
        GpuSet::MAX_GPUS
    );
    let mut freed = GpuSet::EMPTY;
    // Candidates as (group, remaining steps, index), sorted so each group
    // is one run in ascending group order and, within it, ascending
    // remaining steps with ties in index order.
    let mut order = [(Group::default(), 0, 0); GpuSet::MAX_GPUS];
    let mut n = 0;
    for (i, a) in assignments.iter().enumerate() {
        if a.resolution.tokens() <= BATCHABLE_TOKEN_LIMIT && a.requests.len() == 1 {
            order[n] = (group_of(a, tracker), a.remaining_before, i);
            n += 1;
        }
    }
    let candidates = &mut order[..n];
    candidates.sort_unstable();

    // Bit `i` set: assignment `i` joined another's batch.
    let mut absorbed = 0u64;
    let mut members = [0usize; GpuSet::MAX_GPUS];
    let mut rest: &[(Group, u32, usize)] = candidates;
    while let Some(&(group, _, first)) = rest.first() {
        let len = rest.iter().take_while(|c| c.0 == group).count();
        let (run, tail) = rest.split_at(len);
        rest = tail;
        if run.len() < 2 {
            continue;
        }
        // Size-aware ordering: visit candidates by ascending remaining
        // steps. `q_b` is capped by a batch's *minimum* remaining, so a
        // nearly-done member caps a fresh batch's per-round progress and
        // the survival bound vetoes mixed merges; sorting by remaining
        // puts survival-compatible candidates next to each other instead
        // of interleaved with incompatible ones. Ascending (not the
        // classic FFD descending): the open batch's host is then the
        // member closest to completion, which finishes inside the round
        // and vacates its GPU set at the earliest boundary — descending
        // was tried and strands nearly-done requests solo behind a wall
        // of fresh batches, starving small requests under mixed load
        // (the elephants-and-mice stress scenario catches this, as does
        // maximal multi-open-batch packing, which over-batches: each
        // merge is individually SLO-safe under the optimistic solo-rate
        // residual bound, but the slower batched rounds compound). Ties
        // keep packer index order, so the pass stays deterministic.
        //
        // `members[..batch]` is the open batch, its host first; a trial
        // writes the candidate one past it.
        members[0] = first;
        let mut batch = 1;
        for &(_, _, cand) in &run[1..] {
            if batch as u32 + 1 > costs.max_batch() {
                // Current batch is full; the candidate hosts a new batch.
                commit(
                    assignments,
                    &members[..batch],
                    &mut absorbed,
                    &mut freed,
                    tracker,
                    costs,
                    tau,
                    t_next,
                );
                members[0] = cand;
                batch = 1;
                continue;
            }
            members[batch] = cand;
            if batch_survives(assignments, &members[..=batch], tracker, costs, tau, t_next) {
                batch += 1;
            }
        }
        commit(
            assignments,
            &members[..batch],
            &mut absorbed,
            &mut freed,
            tracker,
            costs,
            tau,
            t_next,
        );
    }

    while absorbed != 0 {
        let i = (u64::BITS - 1 - absorbed.leading_zeros()) as usize;
        assignments.swap_remove(i);
        absorbed &= !(1 << i);
    }
    freed
}

/// A batching group: (tokens, frames, degree). Only assignments of one
/// group share a dispatch.
type Group = (u64, Option<u32>, usize);

/// The group of a single-request assignment. Its frame count is read
/// from `tracker`; an untracked request has none, so it never shares a
/// group with a tracked one (and [`batch_survives`] vetoes it anyway).
fn group_of(a: &Assignment, tracker: &RequestTracker) -> Group {
    let frames = tracker.get(a.requests[0]).map(|r| r.spec.stages.frames);
    (a.resolution.tokens(), frames, a.gpus.len())
}

/// Checks the survival bound for every member of a trial batch.
fn batch_survives(
    assignments: &[Assignment],
    members: &[usize],
    tracker: &RequestTracker,
    costs: &CostTable,
    tau: SimDuration,
    t_next: SimTime,
) -> bool {
    let host = &assignments[members[0]];
    let batch = members.len() as u32;
    let Some(t_b) = costs.try_step_time(host.resolution, host.gpus.len(), batch) else {
        return false;
    };
    let q_b = (tau.div_floor(t_b) as u32).min(min_remaining(assignments, members));
    if q_b == 0 {
        return false;
    }
    let t_min = costs.t_min(host.resolution);
    members.iter().all(|&i| {
        // A member the tracker does not hold cannot be proven SLO-safe —
        // veto the batch rather than panic mid-round.
        let Some(r) = tracker.get(assignments[i].requests[0]) else {
            return false;
        };
        let residual = t_min * u64::from(r.remaining_steps.saturating_sub(q_b));
        t_next + residual <= r.spec.deadline
    })
}

fn min_remaining(assignments: &[Assignment], members: &[usize]) -> u32 {
    members
        .iter()
        .map(|&i| assignments[i].remaining_before)
        .min()
        .unwrap_or(0)
}

/// Applies a grown batch: the host (`members[0]`) absorbs the other
/// members, which are marked absorbed and their GPUs freed.
#[allow(clippy::too_many_arguments)]
fn commit(
    assignments: &mut [Assignment],
    members: &[usize],
    absorbed: &mut u64,
    freed: &mut GpuSet,
    tracker: &RequestTracker,
    costs: &CostTable,
    tau: SimDuration,
    t_next: SimTime,
) {
    let [host, rest @ ..] = members else {
        return;
    };
    if rest.is_empty() {
        return;
    }
    debug_assert!(batch_survives(
        assignments,
        members,
        tracker,
        costs,
        tau,
        t_next
    ));
    let batch = members.len() as u32;
    let res = assignments[*host].resolution;
    let degree = assignments[*host].gpus.len();
    let t_b = costs.step_time(res, degree, batch);
    let min_rem = min_remaining(assignments, members);
    let q_b = (tau.div_floor(t_b) as u32).min(min_rem);
    // Every member is a single-request candidate.
    let ids: Batch = members
        .iter()
        .map(|&i| assignments[i].requests[0])
        .collect();
    for &i in rest {
        *freed = freed.union(assignments[i].gpus);
        *absorbed |= 1 << i;
    }
    let a = &mut assignments[*host];
    a.requests = ids;
    a.steps = q_b;
    a.remaining_before = min_rem;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestSpec;
    use tetriserve_costmodel::{ClusterSpec, DitModel, Profiler, Resolution, StageProfile};
    use tetriserve_simulator::trace::{RequestId, TenantId};

    fn costs() -> CostTable {
        Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic()
    }

    fn assignment(id: u64, res: Resolution, start: usize, width: usize, steps: u32) -> Assignment {
        Assignment {
            requests: Batch::one(RequestId(id)),
            resolution: res,
            gpus: GpuSet::contiguous(start, width),
            steps,
            remaining_before: 50,
        }
    }

    /// A fresh 50-step 256² request rendering `frames` frames.
    fn spec(id: u64, deadline: SimTime, frames: u32) -> RequestSpec {
        RequestSpec {
            tenant: TenantId::UNTAGGED,
            id: RequestId(id),
            resolution: Resolution::R256,
            arrival: SimTime::ZERO,
            deadline,
            total_steps: 50,
            stages: StageProfile {
                encode: false,
                frames,
            },
        }
    }

    /// A tracker holding fresh 50-step images with the given deadlines.
    fn tracker(deadlines: &[(u64, SimTime)]) -> RequestTracker {
        let mut t = RequestTracker::new();
        for &(id, deadline) in deadlines {
            t.admit(spec(id, deadline, 1));
        }
        t
    }

    fn loose(ids: &[u64]) -> Vec<(u64, SimTime)> {
        ids.iter()
            .map(|&i| (i, SimTime::from_secs_f64(1_000.0)))
            .collect()
    }

    fn loose_deadlines(ids: &[u64]) -> RequestTracker {
        tracker(&loose(ids))
    }

    #[test]
    fn merges_identical_small_requests() {
        let c = costs();
        let tau = c.t_min(Resolution::R2048) * 5;
        let mut asg = vec![
            assignment(1, Resolution::R256, 0, 1, 10),
            assignment(2, Resolution::R256, 1, 1, 10),
        ];
        let freed = merge_batches(
            &mut asg,
            &loose_deadlines(&[1, 2]),
            &c,
            tau,
            SimTime::ZERO + tau,
        );
        assert_eq!(asg.len(), 1);
        assert_eq!(asg[0].requests.len(), 2);
        assert_eq!(freed.len(), 1, "one GPU set freed");
        assert!(asg[0].steps >= 1);
    }

    #[test]
    fn never_merges_across_resolutions_frames_or_degrees() {
        // Each of 2–4 differs from request 1 in one way only: request 4
        // is a 256² 8-frame clip on an equal-width assignment, which the
        // batch would slow eight times.
        let c = costs();
        let tau = c.t_min(Resolution::R2048) * 5;
        let mut asg = vec![
            assignment(1, Resolution::R256, 0, 1, 10),
            assignment(2, Resolution::R512, 1, 1, 10),
            assignment(3, Resolution::R256, 2, 2, 10),
            assignment(4, Resolution::R256, 4, 1, 10),
        ];
        let mut tracker = loose_deadlines(&[1, 2, 3]);
        tracker.admit(spec(4, SimTime::from_secs_f64(1_000.0), 8));
        let freed = merge_batches(&mut asg, &tracker, &c, tau, SimTime::ZERO + tau);
        assert_eq!(asg.len(), 4, "nothing mergeable");
        assert!(freed.is_empty());
    }

    #[test]
    fn large_resolutions_are_never_batched() {
        let c = costs();
        let tau = c.t_min(Resolution::R2048) * 5;
        let mut asg = vec![
            assignment(1, Resolution::R2048, 0, 4, 2),
            assignment(2, Resolution::R2048, 4, 4, 2),
        ];
        let freed = merge_batches(
            &mut asg,
            &loose_deadlines(&[1, 2]),
            &c,
            tau,
            SimTime::ZERO + tau,
        );
        assert_eq!(asg.len(), 2);
        assert!(freed.is_empty());
    }

    #[test]
    fn tight_deadline_vetoes_the_merge() {
        let c = costs();
        let tau = c.t_min(Resolution::R2048) * 5;
        let t_next = SimTime::ZERO + tau;
        let mut asg = vec![
            assignment(1, Resolution::R512, 0, 1, 12),
            assignment(2, Resolution::R512, 1, 1, 12),
        ];
        // Request 1's deadline is so tight that the batched residual bound
        // fails (it needs every round at full solo progress).
        let mut deadlines = loose(&[2]);
        let t_min = c.t_min(Resolution::R512);
        // Batched q is smaller than solo q; craft a deadline satisfied only
        // by the solo progress.
        let t_solo = c.step_time(Resolution::R512, 1, 1);
        let q_solo = (tau.div_floor(t_solo) as u32).min(50);
        let t_b = c.step_time(Resolution::R512, 1, 2);
        let q_b = (tau.div_floor(t_b) as u32).min(50);
        assert!(q_b < q_solo, "batched steps are slower");
        let mid_steps = (q_b + q_solo) / 2;
        deadlines.push((1, t_next + t_min * u64::from(50 - mid_steps)));
        let freed = merge_batches(&mut asg, &tracker(&deadlines), &c, tau, t_next);
        assert_eq!(asg.len(), 2, "SLO-compromising batch must be rejected");
        assert!(freed.is_empty());
    }

    #[test]
    fn size_aware_ordering_frees_at_least_as_many_gpu_sets_as_first_fit() {
        let c = costs(); // max batch 4
        let tau = c.t_min(Resolution::R2048) * 5;
        let t_next = SimTime::ZERO + tau;
        // Eight single-GPU mice, alternating fresh (rem 50, deadline
        // requiring a full fresh batch's per-round progress) and
        // nearly-done (rem 2, loose). Index-order first-fit grows the
        // fresh batch while rejecting every interleaved nearly-done
        // candidate (joining one caps q_b at 2 and breaks the fresh
        // deadlines), then strands three of the four nearly-done solo —
        // one committed batch, three freed GPU sets. The size-aware
        // ordering visits the four nearly-done first, then the four
        // fresh, so both quartets co-batch: two full batches, six freed
        // sets.
        let mut asg: Vec<Assignment> = (0..8)
            .map(|i| assignment(i as u64 + 1, Resolution::R256, i, 1, 10))
            .collect();
        for i in [1usize, 3, 5, 7] {
            asg[i].remaining_before = 2;
        }
        let t_b4 = c.step_time(Resolution::R256, 1, 4);
        let q_quad = (tau.div_floor(t_b4) as u32).min(50);
        assert!(
            q_quad > 2,
            "a fresh batch must advance past a nearly-done member's cap"
        );
        let t_min = c.t_min(Resolution::R256);
        // Tight: exactly the residual a four-fresh-member batch leaves
        // (smaller fresh batches step faster, so they pass too). A batch
        // capped at q_b = 2 by a nearly-done member fails this.
        let tight = t_next + t_min * u64::from(50 - q_quad);
        let mut deadlines = loose(&[2, 4, 6, 8]);
        deadlines.extend([1, 3, 5, 7].map(|id| (id, tight)));
        let freed = merge_batches(&mut asg, &tracker(&deadlines), &c, tau, t_next);
        assert_eq!(asg.len(), 2, "two full batches of four");
        assert_eq!(
            freed.len(),
            6,
            "size-aware ordering frees six GPU sets; index-order first-fit freed three"
        );
        for a in &asg {
            assert_eq!(a.requests.len(), 4);
            let want: &[u64] = if a.requests.contains(&RequestId(1)) {
                &[1, 3, 5, 7]
            } else {
                &[2, 4, 6, 8]
            };
            for id in want {
                assert!(a.requests.contains(&RequestId(*id)), "{:?}", a.requests);
            }
        }
    }

    /// The pass as it was first written — a `BTreeMap` of candidate
    /// groups, a stable sort per group, trial `Vec`s and a removal list —
    /// kept as the reference the map-free pass must match.
    fn reference_merge(
        assignments: &mut Vec<Assignment>,
        tracker: &RequestTracker,
        costs: &CostTable,
        tau: SimDuration,
        t_next: SimTime,
    ) -> GpuSet {
        let mut freed = GpuSet::EMPTY;
        let mut groups: std::collections::BTreeMap<(u64, Option<u32>, usize), Vec<usize>> =
            std::collections::BTreeMap::new();
        for (i, a) in assignments.iter().enumerate() {
            if a.resolution.tokens() <= BATCHABLE_TOKEN_LIMIT && a.requests.len() == 1 {
                let frames = tracker.get(a.requests[0]).map(|r| r.spec.stages.frames);
                groups
                    .entry((a.resolution.tokens(), frames, a.gpus.len()))
                    .or_default()
                    .push(i);
            }
        }
        let mut remove: Vec<usize> = Vec::new();
        let mut commit = |assignments: &mut Vec<Assignment>, members: &[usize]| {
            if members.len() < 2 {
                return;
            }
            let host = members[0];
            let t_b = costs.step_time(
                assignments[host].resolution,
                assignments[host].gpus.len(),
                members.len() as u32,
            );
            let q_b = (tau.div_floor(t_b) as u32).min(min_remaining(assignments, members));
            let mut ids = Vec::new();
            let mut min_rem = u32::MAX;
            for &i in members {
                ids.extend(assignments[i].requests.iter().copied());
                min_rem = min_rem.min(assignments[i].remaining_before);
                if i != host {
                    freed = freed.union(assignments[i].gpus);
                    remove.push(i);
                }
            }
            let a = &mut assignments[host];
            a.requests = Batch::from(ids);
            a.steps = q_b;
            a.remaining_before = min_rem;
        };
        for mut idxs in groups.into_values() {
            if idxs.len() < 2 {
                continue;
            }
            idxs.sort_by_key(|&i| assignments[i].remaining_before);
            let mut members = vec![idxs[0]];
            for &cand in &idxs[1..] {
                if members.len() as u32 + 1 > costs.max_batch() {
                    commit(assignments, &members);
                    members = vec![cand];
                    continue;
                }
                let mut trial = members.clone();
                trial.push(cand);
                if batch_survives(assignments, &trial, tracker, costs, tau, t_next) {
                    members = trial;
                }
            }
            commit(assignments, &members);
        }
        remove.sort_unstable_by(|a, b| b.cmp(a));
        for i in remove {
            assignments.swap_remove(i);
        }
        freed
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(500))]

        /// The map-free pass forms the same batches, frees the same GPUs
        /// and leaves the same assignments in the same order as the
        /// reference, over mixed resolutions, frame counts, degrees,
        /// progress and deadlines from hopeless to loose.
        #[test]
        fn prop_map_free_merge_matches_the_reference(
            specs in proptest::collection::vec(
                (
                    (0usize..3, 0usize..2, 1u32..=50),
                    (1u32..30, 0u64..60, 0u32..8, 0usize..2),
                ),
                2..=16,
            ),
            tau_halves in 1u64..=10,
        ) {
            let c = costs();
            let tau = c.t_min(Resolution::R2048) * tau_halves / 2;
            let t_next = SimTime::ZERO + tau;
            let res = [Resolution::R256, Resolution::R512, Resolution::R1024];
            let frames = [1, 8];
            let mut asg = Vec::new();
            let mut tracker = RequestTracker::new();
            let mut start = 0;
            for (id, &((r, w, remaining), (steps, slack, untracked, f))) in specs.iter().enumerate() {
                let (id, width) = (RequestId(id as u64), 1 << w);
                let gpus = GpuSet::contiguous(start, width);
                start += width;
                asg.push(Assignment {
                    requests: Batch::one(id),
                    resolution: res[r],
                    gpus,
                    steps,
                    remaining_before: remaining,
                });
                if untracked == 0 {
                    continue; // vetoes any batch it would join
                }
                tracker.admit(RequestSpec {
                    tenant: TenantId::UNTAGGED,
                    id,
                    resolution: res[r],
                    arrival: SimTime::ZERO,
                    deadline: t_next + c.t_min(res[r]) * slack,
                    total_steps: 50,
                    stages: StageProfile {
                        encode: false,
                        frames: frames[f],
                    },
                });
                if remaining < 50 {
                    tracker.start_dispatch(id, gpus, 50 - remaining, 0.0);
                    tracker.finish_dispatch(id);
                }
            }
            let mut want = asg.clone();
            let want_freed = reference_merge(&mut want, &tracker, &c, tau, t_next);
            let freed = merge_batches(&mut asg, &tracker, &c, tau, t_next);
            proptest::prop_assert_eq!(freed, want_freed);
            proptest::prop_assert_eq!(asg, want);
        }
    }

    #[test]
    fn batch_respects_profiled_envelope() {
        let c = costs(); // max batch 4
        let tau = c.t_min(Resolution::R2048) * 5;
        let mut asg: Vec<Assignment> = (0..6)
            .map(|i| assignment(i as u64, Resolution::R256, i, 1, 10))
            .collect();
        let ids: Vec<u64> = (0..6).collect();
        merge_batches(
            &mut asg,
            &loose_deadlines(&ids),
            &c,
            tau,
            SimTime::ZERO + tau,
        );
        assert!(asg.iter().all(|a| a.requests.len() <= 4));
        let total: usize = asg.iter().map(|a| a.requests.len()).sum();
        assert_eq!(total, 6, "no request lost");
    }
}
