//! The group-knapsack round packer (Algorithm 1, lines 13–22).
//!
// tetrilint: allow-file(slice-index) -- the DP/choice buffers are sized
// to requests × (capacity+1) at entry (PackScratch::ensure) and every
// index below is bounded by those two dimensions; bounds checks here are
// on the scheduling hot path.
//!
//! Each request is a *group*: choose at most one of its options (a GPU
//! allocation for this round, or *none*). An option consumes `w_i(o)` GPUs
//! and yields a binary survival value `sv_i(o)`. The DP maximises the number
//! of surviving requests under the round's GPU capacity in `O(R·N·|O|)`
//! time — the tractable replacement for the exponential exhaustive search
//! quantified in Table 6.
//!
//! Survival counts are the primary objective, exactly as in the paper. Many
//! packings tie on survivors (a request with a loose deadline survives
//! whether or not it runs), so a small secondary score breaks ties toward
//! *running* requests and making more step progress — without it the packer
//! could lawfully idle the whole cluster, which the paper's work-conserving
//! design clearly does not intend.

use tetriserve_simulator::trace::RequestId;

use crate::options::RequestOptions;

/// Score granted per surviving request. Dwarfs every tie-break term so the
/// DP's primary objective is exactly Algorithm 1's.
const SURVIVAL_SCORE: i64 = 1 << 40;
/// Tie-break bonus when the request survives only *because* it runs (its
/// *none* option would be late). Surviving by running is robust; surviving
/// by waiting rests on the optimistic residual bound, so among equal
/// survivor counts we prefer packings that secure the critical requests.
const CRITICAL_SCORE: i64 = 1 << 30;
/// Investment protection: among critical survivors that cannot all fit,
/// prefer saving the request with more *executed* work. Abandoning a
/// mid-flight request both wastes its sunk GPU-seconds and leaves a
/// best-effort zombie consuming capacity, so the sacrifice (when one is
/// forced) should fall on the least-started request.
const PROGRESS_SCALE: i64 = 1 << 28;
/// Tie-break score for choosing to run at all (work conservation).
const RUN_SCORE: i64 = 1 << 20;

/// The packer's decision for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Choice {
    /// The request.
    pub id: RequestId,
    /// Index into the request's option list (0 is always *none*).
    pub option_index: usize,
}

/// Result of packing one round.
#[derive(Debug, Clone, Default)]
pub struct Packing {
    /// Chosen option per request, in input order.
    pub choices: Vec<Choice>,
    /// Number of requests whose chosen option survives.
    pub survivors: u32,
    /// Total GPUs consumed.
    pub gpus_used: usize,
}

/// Reusable working memory for [`pack_round_into`].
///
/// The round loop calls the packer every boundary and backfill pass; with a
/// warm scratch the packer performs **zero heap allocations** per call. The
/// scratch also counts its own behaviour so tests can assert that
/// steady-state invariant.
#[derive(Debug, Clone, Default)]
pub struct PackScratch {
    /// `dp[c]`: best prefix score at exactly `c` GPUs.
    dp: Vec<i64>,
    /// Double buffer for the DP sweep.
    next: Vec<i64>,
    /// Flat choice matrix: `choice[i * (capacity + 1) + c]`.
    choice: Vec<u32>,
    /// Packer invocations through this scratch.
    calls: u64,
    /// Calls resolved by the unconstrained early exit (no DP sweep).
    early_exits: u64,
    /// Calls in which some buffer had to grow (0 once warm).
    grow_events: u64,
}

impl PackScratch {
    /// Fresh, empty scratch.
    pub fn new() -> PackScratch {
        PackScratch::default()
    }

    /// Packer invocations through this scratch.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Calls resolved without a DP sweep (total demand fit capacity).
    pub fn early_exits(&self) -> u64 {
        self.early_exits
    }

    /// Calls in which a scratch buffer had to grow. Zero in steady state:
    /// once the buffers have seen the high-water queue size, packing
    /// allocates nothing.
    pub fn grow_events(&self) -> u64 {
        self.grow_events
    }

    /// Pre-sizes every buffer for instances up to `max_requests` requests
    /// and `capacity` GPUs, so that no subsequent call grows the scratch —
    /// even the first call to take the DP path. Without this, a run whose
    /// early calls all take the early exit would pay its one-time DP-buffer
    /// growth on the first *contended* round instead of at startup. The
    /// pre-sizing is not counted as a grow event.
    pub fn warm_up(&mut self, max_requests: usize, capacity: usize) {
        let mut _grew = false;
        Self::reserve_exact_len(&mut self.dp, capacity + 1, 0, &mut _grew);
        Self::reserve_exact_len(&mut self.next, capacity + 1, 0, &mut _grew);
        Self::reserve_exact_len(
            &mut self.choice,
            max_requests * (capacity + 1),
            NO_CHOICE,
            &mut _grew,
        );
    }

    /// Clears `buf` and resizes it to `n`, noting whether backing storage
    /// had to grow.
    fn reserve_exact_len<T: Copy>(buf: &mut Vec<T>, n: usize, fill: T, grew: &mut bool) {
        if buf.capacity() < n {
            *grew = true;
        }
        buf.clear();
        buf.resize(n, fill);
    }
}

fn option_value(survives: bool, runs: bool, none_survives: bool, steps: u32, progress: f64) -> i64 {
    let mut v = 0;
    if survives {
        v += SURVIVAL_SCORE;
        if runs && !none_survives {
            v += CRITICAL_SCORE + (progress.clamp(0.0, 1.0) * PROGRESS_SCALE as f64) as i64;
        }
    }
    if runs {
        // Work conservation plus a slight preference for more progress.
        v += RUN_SCORE + i64::from(steps.min(1 << 16));
    }
    v
}

/// Packs the round: selects at most one option per request such that total
/// width ≤ `capacity`, maximising survivors (then work done).
///
/// Convenience wrapper over [`pack_round_into`] that allocates fresh
/// working memory. Hot callers (the round loop) should hold a
/// [`PackScratch`] and a reusable [`Packing`] instead.
///
/// # Panics
///
/// Panics if any request has an empty option list (the *none* option must
/// always be present).
pub fn pack_round(requests: &[RequestOptions], capacity: usize) -> Packing {
    let mut scratch = PackScratch::new();
    let mut out = Packing::default();
    pack_round_into(requests, capacity, &mut scratch, &mut out);
    out
}

/// Sentinel for "no option reaches this DP state".
const NO_CHOICE: u32 = u32::MAX;

/// Packs the round into caller-provided scratch and output buffers.
///
/// Identical semantics to [`pack_round`], but with a warm scratch the call
/// performs no heap allocation: the DP rows, the flat choice matrix and the
/// output choice vector are all reused across rounds.
///
/// Two structural shortcuts keep the common case cheap:
///
/// * **Early exit** — when every request's individually best (value-maximal,
///   then narrowest) feasible option fits `capacity` *jointly*, the GPU
///   constraint is slack and that per-request selection is globally optimal;
///   no DP sweep runs. This is the usual case away from saturation.
/// * **Flat choice matrix** — the DP's reconstruction table is one
///   contiguous `requests × (capacity + 1)` buffer instead of a `Vec` of
///   `Vec`s, so the sweep walks linear memory.
///
/// # Panics
///
/// Panics if any request has an empty option list.
pub fn pack_round_into(
    requests: &[RequestOptions],
    capacity: usize,
    scratch: &mut PackScratch,
    out: &mut Packing,
) {
    let n = capacity;
    let neg = i64::MIN / 4;
    scratch.calls += 1;
    let mut grew = false;
    PackScratch::reserve_exact_len(
        &mut out.choices,
        requests.len(),
        Choice {
            id: RequestId(0),
            option_index: 0,
        },
        &mut grew,
    );
    out.survivors = 0;
    out.gpus_used = 0;

    // ── Early exit: is the capacity constraint slack? ───────────────────
    // Each request's unconstrained best is its value-maximal feasible
    // option (ties: narrowest, then first — matching the DP's preference
    // for fewer GPUs on equal score). The per-request maxima bound the
    // total, so if they jointly fit, they are the optimum.
    let mut fits = true;
    let mut width_sum = 0usize;
    for (i, req) in requests.iter().enumerate() {
        assert!(
            !req.options.is_empty(),
            "request {} has an empty option set",
            req.id
        );
        debug_assert_eq!(
            req.options[0].width, 0,
            "request {}: the none option must have width 0 (the packer scores \
             width-0 prefixes as idle)",
            req.id
        );
        let none_survives = req.options[0].survives;
        let mut best_oi = 0usize;
        let mut best_v = i64::MIN;
        let mut best_w = usize::MAX;
        for (oi, opt) in req.options.iter().enumerate() {
            if opt.width > n {
                continue;
            }
            let v = option_value(
                opt.survives,
                opt.segment.is_some(),
                none_survives,
                opt.steps,
                req.progress,
            );
            if v > best_v || (v == best_v && opt.width < best_w) {
                best_v = v;
                best_w = opt.width;
                best_oi = oi;
            }
        }
        width_sum += best_w;
        if width_sum > n {
            fits = false;
            break;
        }
        out.choices[i] = Choice {
            id: req.id,
            option_index: best_oi,
        };
    }
    if fits {
        scratch.early_exits += 1;
        finalise(requests, out);
        scratch.grow_events += u64::from(grew);
        return;
    }

    // ── Full group-knapsack DP. ─────────────────────────────────────────
    PackScratch::reserve_exact_len(&mut scratch.dp, n + 1, neg, &mut grew);
    PackScratch::reserve_exact_len(&mut scratch.next, n + 1, neg, &mut grew);
    PackScratch::reserve_exact_len(
        &mut scratch.choice,
        requests.len() * (n + 1),
        NO_CHOICE,
        &mut grew,
    );
    // dp[c]: best score over the processed prefix among selections whose
    // widths sum to *exactly* c GPUs; unreachable sums stay at `neg`. The
    // final scan over all c (preferring smaller c on ties) yields the
    // ≤-capacity optimum.
    scratch.dp[0] = 0;

    for (i, req) in requests.iter().enumerate() {
        let none_survives = req.options[0].survives;
        let row = &mut scratch.choice[i * (n + 1)..(i + 1) * (n + 1)];
        for (c, slot) in row.iter_mut().enumerate() {
            let mut best = neg;
            let mut best_oi = NO_CHOICE;
            for (oi, opt) in req.options.iter().enumerate() {
                if opt.width > c {
                    continue;
                }
                let base = scratch.dp[c - opt.width];
                if base == neg {
                    continue;
                }
                let v = base
                    + option_value(
                        opt.survives,
                        opt.segment.is_some(),
                        none_survives,
                        opt.steps,
                        req.progress,
                    );
                if v > best {
                    best = v;
                    best_oi = oi as u32;
                }
            }
            scratch.next[c] = best;
            *slot = best_oi;
        }
        std::mem::swap(&mut scratch.dp, &mut scratch.next);
    }

    // Best capacity; ties prefer fewer GPUs (cheaper, frees room for the
    // elastic pass).
    let mut best_c = 0;
    for c in 0..=n {
        if scratch.dp[c] > scratch.dp[best_c] {
            best_c = c;
        }
    }

    // Reconstruct back-to-front.
    let mut c = best_c;
    for (i, req) in requests.iter().enumerate().rev() {
        let oi = scratch.choice[i * (n + 1) + c];
        assert_ne!(oi, NO_CHOICE, "unreachable DP state during reconstruction");
        let oi = oi as usize;
        out.choices[i] = Choice {
            id: req.id,
            option_index: oi,
        };
        c -= req.options[oi].width;
    }
    debug_assert_eq!(c, 0, "reconstruction must consume exactly best_c GPUs");

    finalise(requests, out);
    scratch.grow_events += u64::from(grew);
}

/// Fills the derived `survivors` / `gpus_used` fields from the choices.
fn finalise(requests: &[RequestOptions], out: &mut Packing) {
    out.survivors = requests
        .iter()
        .zip(&out.choices)
        .filter(|(r, ch)| r.options[ch.option_index].survives)
        .count() as u32;
    out.gpus_used = requests
        .iter()
        .zip(&out.choices)
        .map(|(r, ch)| r.options[ch.option_index].width)
        .sum();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::RoundOption;
    use proptest::prelude::*;
    use tetriserve_costmodel::Resolution;
    use tetriserve_simulator::time::{SimDuration, SimTime};

    /// Hand-built request with explicit options: (width, steps, survives).
    fn req(id: u64, none_survives: bool, opts: &[(usize, u32, bool)]) -> RequestOptions {
        let mut options = vec![RoundOption {
            segment: None,
            width: 0,
            steps: 0,
            survives: none_survives,
        }];
        options.extend(opts.iter().enumerate().map(|(m, &(w, q, sv))| RoundOption {
            segment: Some(m),
            width: w,
            steps: q,
            survives: sv,
        }));
        RequestOptions {
            id: RequestId(id),
            resolution: Resolution::R256,
            options,
            t_min: SimDuration::from_millis(10),
            remaining_steps: 50,
            progress: 0.0,
            deadline: SimTime::from_secs_f64(5.0),
        }
    }

    #[test]
    fn prefers_more_survivors_over_any_single_request() {
        // One request could take all 8 GPUs and survive; two others each
        // need 4 to survive. DP must pick the pair.
        let requests = vec![
            req(1, false, &[(8, 5, true)]),
            req(2, false, &[(4, 5, true)]),
            req(3, false, &[(4, 5, true)]),
        ];
        let p = pack_round(&requests, 8);
        assert_eq!(p.survivors, 2);
        let widths: Vec<usize> = p
            .choices
            .iter()
            .zip(&requests)
            .map(|(c, r)| r.options[c.option_index].width)
            .collect();
        assert_eq!(widths, vec![0, 4, 4]);
    }

    #[test]
    fn capacity_is_respected() {
        let requests: Vec<_> = (0..10).map(|i| req(i, false, &[(2, 5, true)])).collect();
        let p = pack_round(&requests, 8);
        assert!(p.gpus_used <= 8);
        assert_eq!(p.survivors, 4, "four 2-wide requests fit in 8 GPUs");
    }

    #[test]
    fn work_conservation_breaks_ties() {
        // Request survives either way; the packer should still run it.
        let requests = vec![req(1, true, &[(1, 10, true)])];
        let p = pack_round(&requests, 8);
        assert_eq!(p.choices[0].option_index, 1, "idle packing is wasteful");
        assert_eq!(p.gpus_used, 1);
    }

    #[test]
    fn doomed_requests_do_not_consume_gpus() {
        // No option survives: the DP gains nothing from running it, so the
        // GPU should go to the request that needs it.
        let requests = vec![
            req(1, false, &[(8, 1, false)]), // doomed even with all GPUs
            req(2, false, &[(8, 5, true)]),
        ];
        let p = pack_round(&requests, 8);
        assert_eq!(p.survivors, 1);
        assert_eq!(p.choices[0].option_index, 0);
        assert_eq!(p.choices[1].option_index, 1);
    }

    #[test]
    fn picks_cheaper_of_two_surviving_options() {
        // Both options survive; ties resolve toward the one that leaves the
        // most total score — widths don't matter beyond feasibility, but
        // packing the second request requires choosing the narrow option.
        let requests = vec![
            req(1, false, &[(8, 2, true), (4, 1, true)]),
            req(2, false, &[(4, 5, true)]),
        ];
        let p = pack_round(&requests, 8);
        assert_eq!(p.survivors, 2);
        assert_eq!(p.gpus_used, 8);
    }

    #[test]
    fn empty_input_packs_nothing() {
        let p = pack_round(&[], 8);
        assert_eq!(p.survivors, 0);
        assert_eq!(p.gpus_used, 0);
        assert!(p.choices.is_empty());
    }

    #[test]
    fn zero_capacity_selects_all_none() {
        let requests = vec![
            req(1, true, &[(1, 5, true)]),
            req(2, false, &[(1, 5, true)]),
        ];
        let p = pack_round(&requests, 0);
        assert!(p.choices.iter().all(|c| c.option_index == 0));
        assert_eq!(p.survivors, 1);
    }

    #[test]
    fn early_exit_fires_when_capacity_is_slack_and_matches_dp() {
        // Plenty of GPUs: every request's best option fits jointly, so the
        // early exit must fire and still produce the DP's answer.
        let requests = vec![
            req(1, false, &[(2, 5, true)]),
            req(2, false, &[(1, 5, true), (2, 6, true)]),
            req(3, true, &[(1, 10, true)]),
        ];
        let mut scratch = PackScratch::new();
        let mut out = Packing::default();
        pack_round_into(&requests, 16, &mut scratch, &mut out);
        assert_eq!(scratch.calls(), 1);
        assert_eq!(scratch.early_exits(), 1, "slack capacity must early-exit");
        let reference = pack_round(&requests, 16);
        assert_eq!(out.survivors, reference.survivors);
        assert_eq!(out.gpus_used, reference.gpus_used);
        let picks: Vec<usize> = out.choices.iter().map(|c| c.option_index).collect();
        let ref_picks: Vec<usize> = reference.choices.iter().map(|c| c.option_index).collect();
        assert_eq!(picks, ref_picks);
    }

    #[test]
    fn warm_scratch_performs_no_further_allocation() {
        let requests: Vec<_> = (0..10).map(|i| req(i, false, &[(2, 5, true)])).collect();
        let mut scratch = PackScratch::new();
        let mut out = Packing::default();
        pack_round_into(&requests, 8, &mut scratch, &mut out);
        let after_warmup = scratch.grow_events();
        assert!(after_warmup >= 1, "cold scratch must grow at least once");
        for _ in 0..50 {
            pack_round_into(&requests, 8, &mut scratch, &mut out);
        }
        assert_eq!(
            scratch.grow_events(),
            after_warmup,
            "steady-state rounds must not grow any scratch buffer"
        );
        assert_eq!(scratch.calls(), 51);
    }

    #[test]
    fn warm_up_pre_sizes_for_the_dp_path() {
        // An early-exit call does not touch the DP buffers, so without
        // warm-up the first *contended* call would grow them mid-run.
        let mut scratch = PackScratch::new();
        let mut out = Packing::default();
        scratch.warm_up(10, 8);
        out.choices.reserve(10);
        // Slack round (early exit), then a contended round (DP path).
        let slack: Vec<_> = (0..3).map(|i| req(i, false, &[(2, 5, true)])).collect();
        pack_round_into(&slack, 8, &mut scratch, &mut out);
        assert_eq!(scratch.early_exits(), 1);
        let contended: Vec<_> = (0..10).map(|i| req(i, false, &[(2, 5, true)])).collect();
        pack_round_into(&contended, 8, &mut scratch, &mut out);
        assert_eq!(
            scratch.grow_events(),
            0,
            "a warmed scratch never grows, even on its first DP-path call"
        );
    }

    #[test]
    fn smaller_warm_rounds_reuse_the_scratch() {
        // Shrinking the instance must not count as growth: buffers are
        // resized down within existing capacity.
        let big: Vec<_> = (0..12).map(|i| req(i, false, &[(2, 5, true)])).collect();
        let small: Vec<_> = (0..3).map(|i| req(i, false, &[(2, 5, true)])).collect();
        let mut scratch = PackScratch::new();
        let mut out = Packing::default();
        pack_round_into(&big, 8, &mut scratch, &mut out);
        let grown = scratch.grow_events();
        pack_round_into(&small, 4, &mut scratch, &mut out);
        assert_eq!(scratch.grow_events(), grown);
        assert_eq!(out.choices.len(), small.len());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "none option must have width 0")]
    fn nonzero_width_none_option_is_rejected_in_debug() {
        let bad = RequestOptions {
            id: RequestId(7),
            resolution: Resolution::R256,
            options: vec![RoundOption {
                segment: None,
                width: 1, // violates the none-option invariant
                steps: 0,
                survives: true,
            }],
            t_min: SimDuration::from_millis(10),
            remaining_steps: 50,
            progress: 0.0,
            deadline: SimTime::from_secs_f64(5.0),
        };
        let _ = pack_round(&[bad], 4);
    }

    proptest! {
        /// The DP never exceeds capacity, never returns an invalid option
        /// index, and matches a brute-force enumeration of survivors on
        /// small instances.
        #[test]
        fn prop_matches_bruteforce(
            capacity in 1usize..9,
            specs in proptest::collection::vec(
                (
                    proptest::collection::vec((1usize..9, 1u32..20, any::<bool>()), 0..3),
                    any::<bool>(),
                ),
                0..6,
            )
        ) {
            let requests: Vec<RequestOptions> = specs
                .iter()
                .enumerate()
                .map(|(i, (opts, none_sv))| req(i as u64, *none_sv, opts))
                .collect();
            let p = pack_round(&requests, capacity);
            prop_assert!(p.gpus_used <= capacity);
            for (r, c) in requests.iter().zip(&p.choices) {
                prop_assert!(c.option_index < r.options.len());
            }

            // Brute force maximum survivors.
            fn brute(reqs: &[RequestOptions], cap: usize) -> u32 {
                if reqs.is_empty() {
                    return 0;
                }
                let (head, tail) = reqs.split_first().unwrap();
                let mut best = 0;
                for opt in &head.options {
                    if opt.width > cap {
                        continue;
                    }
                    let rest = brute(tail, cap - opt.width);
                    best = best.max(rest + u32::from(opt.survives));
                }
                best
            }
            let (head, tail) = (p.survivors, brute(&requests, capacity));
            prop_assert_eq!(head, tail, "DP survivors must be optimal");
        }

        /// The early-exit and DP paths agree: the selected options always
        /// reach the brute-force-optimal *total score*, and among
        /// score-optimal selections use the fewest GPUs. Generous capacities
        /// exercise the early exit, tight ones the DP sweep.
        #[test]
        fn prop_early_exit_and_dp_are_score_and_width_optimal(
            capacity in 0usize..33,
            specs in proptest::collection::vec(
                (
                    proptest::collection::vec((1usize..9, 1u32..20, any::<bool>()), 0..3),
                    any::<bool>(),
                ),
                0..6,
            )
        ) {
            let requests: Vec<RequestOptions> = specs
                .iter()
                .enumerate()
                .map(|(i, (opts, none_sv))| req(i as u64, *none_sv, opts))
                .collect();

            let mut scratch = PackScratch::new();
            let mut out = Packing::default();
            pack_round_into(&requests, capacity, &mut scratch, &mut out);

            let score_of = |reqs: &[RequestOptions], picks: &[Choice]| -> i64 {
                reqs.iter()
                    .zip(picks)
                    .map(|(r, c)| {
                        let o = &r.options[c.option_index];
                        option_value(
                            o.survives,
                            o.segment.is_some(),
                            r.options[0].survives,
                            o.steps,
                            r.progress,
                        )
                    })
                    .sum()
            };
            let got = score_of(&requests, &out.choices);

            // Brute force: (max total score, min total width at that score).
            fn brute(reqs: &[RequestOptions], cap: usize) -> (i64, usize) {
                if reqs.is_empty() {
                    return (0, 0);
                }
                let (head, tail) = reqs.split_first().unwrap();
                let mut best = (i64::MIN, usize::MAX);
                for opt in &head.options {
                    if opt.width > cap {
                        continue;
                    }
                    let (rest_v, rest_w) = brute(tail, cap - opt.width);
                    let v = rest_v
                        + option_value(
                            opt.survives,
                            opt.segment.is_some(),
                            head.options[0].survives,
                            opt.steps,
                            head.progress,
                        );
                    let w = rest_w + opt.width;
                    if v > best.0 || (v == best.0 && w < best.1) {
                        best = (v, w);
                    }
                }
                best
            }
            let (best_v, best_w) = brute(&requests, capacity);
            prop_assert_eq!(got, best_v, "selection must reach the optimal total score");
            prop_assert_eq!(
                out.gpus_used, best_w,
                "ties must resolve to the fewest GPUs"
            );
        }
    }
}
