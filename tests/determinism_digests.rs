//! Same-seed, same-process determinism of the scheduling stack, and the
//! packer's zero-allocation steady state.
//!
//! std's `HashMap` seeds its hasher *per map instance*, so two runs inside
//! one process see different hash orders — any decision path that lets a
//! hash-map iteration order reach its output diverges between back-to-back
//! same-seed runs and breaks the PR-2 digest comparisons. Batch formation
//! in `crates/core/src/batching.rs` iterated a `HashMap` until this PR; it
//! happened to be order-insensitive (groups merge independently, removals
//! are sorted, freed sets union commutatively) but was one refactor away
//! from not being. That is exactly why `tetrilint`'s `unordered-iter` rule
//! bans the *pattern* statically instead of trusting a dynamic test to
//! catch the leak: this test pins the end-to-end property, the lint keeps
//! the ways to break it out of the tree.
//!
//! Two fixed-seed workloads are digested:
//!
//! * the **round loop** — the Table 6 scenario (allocation plan + option
//!   build + pack per request) for `ROUNDS` rounds after one warm-up
//!   round per queue depth, through one [`PackScratch`] pre-sized per
//!   depth, exactly as the serving loop packs. Every chosen option is
//!   folded into an FNV-1a decision digest;
//! * a 20-request `Experiment::paper_default()` serve under TetriServe,
//!   folded over per-request completion times.
//!
//! Both digests are pinned as literals, so a change that moves decisions
//! in every run alike still fails.

use tetriserve::bench::{Experiment, PolicyKind};
use tetriserve::core::allocation::min_gpu_hour_plan;
use tetriserve::core::dp::{pack_round_into, PackScratch, Packing};
use tetriserve::core::options::build_options;
use tetriserve::core::TetriServeConfig;
use tetriserve::costmodel::{ClusterSpec, CostTable, DitModel, Profiler, Resolution};
use tetriserve::simulator::digest::{fnv1a, SplitMix, FNV_OFFSET};
use tetriserve::simulator::time::{SimDuration, SimTime};
use tetriserve::simulator::trace::RequestId;

/// Workload seed of the round loop and the serve.
const SEED: u64 = 0xd17;
/// Rounds per queue depth after the warm-up round.
const ROUNDS: u32 = 25;

/// One queue depth's round loop.
struct RoundLoop {
    /// FNV-1a over every (round, request, option, width, steps) choice.
    decision_digest: u64,
    /// Scratch growths after the warm-up round; 0 when packing is
    /// allocation-free in steady state.
    steady_grow_events: u64,
}

/// Runs `ROUNDS + 1` rounds at `depth` through the shared `scratch`.
fn round_loop(
    costs: &CostTable,
    seed: u64,
    depth: usize,
    scratch: &mut PackScratch,
    packing: &mut Packing,
) -> RoundLoop {
    let tau = costs.t_min(Resolution::R2048) * 5;
    // Pre-size for this depth so even the first DP-path round (which may
    // come long after the early-exit rounds) allocates nothing.
    scratch.warm_up(depth, 8);
    let mut rng = SplitMix(seed ^ depth as u64);
    let mut decision_digest = FNV_OFFSET;
    let mut steady_grow_events = 0;
    for round in 0..=ROUNDS {
        let grow_before = scratch.grow_events();
        let packable: Vec<_> = (0..depth)
            .map(|i| {
                let r = rng.next_u64();
                let res = Resolution::PRODUCTION[(r % 4) as usize];
                // Deadlines spread 3–8 s; progress spread over a 50-step
                // denoise. Both deterministic in (seed, depth, round, i).
                let slack = SimDuration::from_secs_f64(3.0 + (r >> 8 & 0xff) as f64 / 51.0);
                let remaining = 10 + (r >> 16 & 0x1f) as u32;
                let plan = min_gpu_hour_plan(res, remaining, slack, costs);
                let mut opts = build_options(
                    RequestId(i as u64),
                    res,
                    SimTime::ZERO + slack,
                    &plan,
                    tau,
                    SimTime::ZERO + tau,
                    costs,
                    8,
                    None,
                    SimDuration::ZERO,
                    true,
                    Vec::new(),
                );
                opts.progress = f64::from(50 - remaining) / 50.0;
                opts
            })
            .collect();
        pack_round_into(&packable, 8, scratch, packing);
        for (req, choice) in packable.iter().zip(&packing.choices) {
            let opt = &req.options[choice.option_index];
            decision_digest = fnv1a(decision_digest, round.into());
            decision_digest = fnv1a(decision_digest, choice.id.0);
            decision_digest = fnv1a(decision_digest, choice.option_index as u64);
            decision_digest = fnv1a(decision_digest, opt.width as u64);
            decision_digest = fnv1a(decision_digest, opt.steps.into());
        }
        if round > 0 {
            steady_grow_events += scratch.grow_events() - grow_before;
        }
    }
    RoundLoop {
        decision_digest,
        steady_grow_events,
    }
}

/// The round loop at each depth, in order, through one shared scratch.
fn round_loops(seed: u64, depths: &[usize]) -> Vec<RoundLoop> {
    let costs = Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic();
    let mut scratch = PackScratch::new();
    let mut packing = Packing::default();
    depths
        .iter()
        .map(|&d| round_loop(&costs, seed, d, &mut scratch, &mut packing))
        .collect()
}

/// Serves 20 paper-default requests under TetriServe; returns the outcome
/// digest over (id, completion µs or MAX), the completed count and the
/// scheduler passes.
fn serve() -> (u64, usize, usize) {
    let exp = Experiment {
        n_requests: 20,
        seed: SEED,
        ..Experiment::paper_default()
    };
    let report = exp.run(&PolicyKind::TetriServe(TetriServeConfig::default()));
    let mut digest = FNV_OFFSET;
    for o in &report.outcomes {
        digest = fnv1a(digest, o.id.0);
        digest = fnv1a(digest, o.completion.map_or(u64::MAX, |t| t.as_micros()));
    }
    let completed = report
        .outcomes
        .iter()
        .filter(|o| o.completion.is_some())
        .count();
    (digest, completed, report.trace.sched_pass_count())
}

#[test]
fn same_seed_twice_in_one_process_is_bit_identical() {
    let depths = [4, 16];
    let a = round_loops(SEED, &depths);
    let b = round_loops(SEED, &depths);

    // Round-loop packing decisions: every (round, request, option, width,
    // steps) tuple hashed in order.
    let pinned = [0x697c_39d3_412f_e919, 0x7e6c_bddc_f7a3_bd95];
    for (((ra, rb), depth), digest) in a.iter().zip(&b).zip(depths).zip(pinned) {
        assert_eq!(
            ra.decision_digest, rb.decision_digest,
            "decision digest diverged at queue depth {depth} — a decision path \
             is leaking HashMap iteration order or other ambient state",
        );
        assert_eq!(
            ra.decision_digest, digest,
            "queue depth {depth}: decision digest moved"
        );
    }

    // End-to-end serve (scheduler + batching + engine): the per-request
    // completion times must match to the microsecond.
    let (digest_a, completed_a, passes_a) = serve();
    let (digest_b, completed_b, passes_b) = serve();
    assert_eq!(
        digest_a, digest_b,
        "outcome digest diverged between two same-seed serves in one \
         process — batching/scheduling is not order-deterministic"
    );
    assert_eq!(completed_a, completed_b);
    assert_eq!(passes_a, passes_b);
    assert_eq!(
        digest_a, 0xf7f7_6ac9_9a98_904d,
        "serve outcome digest moved"
    );
    assert_eq!(completed_a, 20, "every request completes");
}

#[test]
fn warm_pack_scratch_never_grows_after_the_warm_up_round() {
    let depths = [4, 16, 64];
    let loops = round_loops(SEED, &depths);
    for (r, depth) in loops.iter().zip(depths) {
        assert_eq!(
            r.steady_grow_events, 0,
            "queue depth {depth}: pack_round_into grew its scratch after warm-up"
        );
    }
    assert_eq!(loops[2].decision_digest, 0x5bbc_945a_bcf9_f406);
}

#[test]
fn decision_digest_depends_on_the_seed() {
    let a = round_loops(SEED, &[16]);
    let b = round_loops(SEED + 1, &[16]);
    assert_ne!(
        a[0].decision_digest, b[0].decision_digest,
        "the digest must actually depend on the workload"
    );
}
