//! Deterministic scheduler perf-regression harness (Table 6 companion).
//!
//! Two measurements, both fixed-seed:
//!
//! 1. **Round loop** — the Table 6 scenario driven for many rounds per
//!    queue depth: per round it rebuilds allocation plans + option sets
//!    and packs them through [`pack_round_into`] with a shared
//!    [`PackScratch`]. Reports wall-clock per round, the pack counters
//!    (calls, early exits, steady-state grow events, allocations avoided)
//!    and a FNV-1a **decision digest** over every chosen option — the
//!    digest must be identical across runs with the same seed, so perf
//!    refactors that change *scheduling decisions* are caught immediately.
//! 2. **End-to-end serve** — a small [`Experiment`] under TetriServe; the
//!    scheduler-pass trace records ([`TraceEvent::SchedPass`]) give the
//!    per-pass wall aggregate, and an outcome digest pins determinism of
//!    the full pipeline.
//!
//! [`PerfReport::to_json`] renders the `BENCH_scheduler.json` artefact
//! (schema documented in DESIGN.md) without any serialisation dependency.
//!
//! Wall-clock fields vary run to run; every other field is deterministic.
//!
//! [`TraceEvent::SchedPass`]: tetriserve_simulator::trace::TraceEvent

use std::time::Instant;

use tetriserve_core::allocation::min_gpu_hour_plan;
use tetriserve_core::dp::{pack_round_into, PackScratch, Packing};
use tetriserve_core::options::build_options;
use tetriserve_core::TetriServeConfig;
use tetriserve_costmodel::{ClusterSpec, CostTable, DitModel, Profiler, Resolution};
use tetriserve_simulator::digest::{fnv1a, SplitMix, FNV_OFFSET};
use tetriserve_simulator::time::{SimDuration, SimTime};
use tetriserve_simulator::trace::RequestId;

use crate::{Experiment, PolicyKind};

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct PerfConfig {
    /// Workload seed (drives resolutions, deadlines and progress).
    pub seed: u64,
    /// Timed rounds per queue depth (one untimed warm-up precedes them).
    pub rounds: u32,
    /// Queue depths to sweep (ascending keeps scratch growth monotone).
    pub queue_depths: Vec<usize>,
    /// Requests in the end-to-end serve measurement.
    pub serve_requests: usize,
}

impl PerfConfig {
    /// The full measurement: Table 6's depths, 200 rounds each.
    pub fn full() -> PerfConfig {
        PerfConfig {
            seed: 0xd17,
            rounds: 200,
            queue_depths: vec![4, 16, 64],
            serve_requests: 60,
        }
    }

    /// A CI-sized smoke run (same seed, fewer rounds and requests).
    pub fn smoke() -> PerfConfig {
        PerfConfig {
            rounds: 25,
            queue_depths: vec![4, 16],
            serve_requests: 20,
            ..PerfConfig::full()
        }
    }
}

/// One queue depth's round-loop measurement.
#[derive(Debug, Clone)]
pub struct RoundLoopResult {
    /// Requests per round.
    pub queue_depth: usize,
    /// Timed rounds.
    pub rounds: u32,
    /// Mean wall-clock per round (plan + options + pack), microseconds.
    pub mean_round_us: f64,
    /// Worst timed round, microseconds.
    pub max_round_us: f64,
    /// FNV-1a digest over every (round, request, option, width, steps).
    pub decision_digest: u64,
    /// `pack_round_into` calls (warm-up + timed).
    pub pack_calls: u64,
    /// Rounds resolved by the slack-capacity early exit.
    pub early_exits: u64,
    /// Scratch growths during the *timed* rounds — the zero-allocation
    /// hot-path invariant demands this is 0.
    pub grow_events_steady: u64,
    /// Heap allocations the scratch reuse avoided vs the allocate-per-call
    /// implementation.
    pub allocations_avoided: u64,
}

/// The end-to-end serve measurement.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Requests served.
    pub requests: usize,
    /// Requests that completed inside the horizon.
    pub completed: usize,
    /// Scheduler passes recorded in the trace.
    pub sched_passes: u64,
    /// Total host wall-clock inside `Policy::schedule`, microseconds.
    pub sched_wall_us: f64,
    /// FNV-1a digest over per-request completion times (simulated µs).
    pub outcome_digest: u64,
}

/// The full harness output.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Seed the run used.
    pub seed: u64,
    /// `"full"` or `"smoke"`.
    pub mode: String,
    /// Round-loop sweep, one entry per queue depth.
    pub round_loop: Vec<RoundLoopResult>,
    /// End-to-end serve measurement.
    pub serve: ServeSummary,
}

/// Runs the round loop at one queue depth.
fn run_round_loop(
    costs: &CostTable,
    config: &PerfConfig,
    queue_depth: usize,
    scratch: &mut PackScratch,
    packing: &mut Packing,
) -> RoundLoopResult {
    let tau = costs.t_min(Resolution::R2048) * 5;
    // Pre-size for this depth so even the first DP-path round (which may
    // come long after the early-exit rounds) allocates nothing.
    scratch.warm_up(queue_depth, 8);
    let mut rng = SplitMix(config.seed ^ queue_depth as u64);
    let mut digest = FNV_OFFSET;
    let mut total = std::time::Duration::ZERO;
    let mut max_round = std::time::Duration::ZERO;
    let calls_before = scratch.calls();
    let exits_before = scratch.early_exits();
    let avoided_before = scratch.allocations_avoided();
    let mut grow_steady = 0u64;

    // Warm-up round + timed rounds. The warm-up sizes the scratch; the
    // timed rounds must then run allocation-free inside the packer.
    for round in 0..=config.rounds {
        let timed = round > 0;
        let grow_before = scratch.grow_events();
        // tetrilint: allow(wall-clock) -- this *is* the measurement: host
        // wall time per scheduler round (Table 6). Decisions are digested
        // separately and never depend on it.
        let started = Instant::now();
        let packable: Vec<_> = (0..queue_depth)
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
        let elapsed = started.elapsed();
        for (req, choice) in packable.iter().zip(&packing.choices) {
            let opt = &req.options[choice.option_index];
            digest = fnv1a(digest, round.into());
            digest = fnv1a(digest, choice.id.0);
            digest = fnv1a(digest, choice.option_index as u64);
            digest = fnv1a(digest, opt.width as u64);
            digest = fnv1a(digest, opt.steps.into());
        }
        if timed {
            total += elapsed;
            max_round = max_round.max(elapsed);
            grow_steady += scratch.grow_events() - grow_before;
        }
    }

    RoundLoopResult {
        queue_depth,
        rounds: config.rounds,
        mean_round_us: total.as_secs_f64() * 1e6 / f64::from(config.rounds),
        max_round_us: max_round.as_secs_f64() * 1e6,
        decision_digest: digest,
        pack_calls: scratch.calls() - calls_before,
        early_exits: scratch.early_exits() - exits_before,
        grow_events_steady: grow_steady,
        allocations_avoided: scratch.allocations_avoided() - avoided_before,
    }
}

/// Runs the end-to-end serve measurement.
fn run_serve(config: &PerfConfig) -> ServeSummary {
    let exp = Experiment {
        n_requests: config.serve_requests,
        seed: config.seed,
        ..Experiment::paper_default()
    };
    let report = exp.run(&PolicyKind::TetriServe(TetriServeConfig::default()));
    let mut digest = FNV_OFFSET;
    let mut completed = 0usize;
    for o in &report.outcomes {
        digest = fnv1a(digest, o.id.0);
        match o.completion {
            Some(t) => {
                completed += 1;
                digest = fnv1a(digest, t.as_micros());
            }
            None => digest = fnv1a(digest, u64::MAX),
        }
    }
    ServeSummary {
        requests: report.outcomes.len(),
        completed,
        sched_passes: report.trace.sched_pass_count() as u64,
        sched_wall_us: report.trace.sched_wall_total().as_secs_f64() * 1e6,
        outcome_digest: digest,
    }
}

/// Runs the full harness.
pub fn run_perf(config: &PerfConfig, mode: &str) -> PerfReport {
    let costs = Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic();
    let mut scratch = PackScratch::new();
    let mut packing = Packing::default();
    let round_loop = config
        .queue_depths
        .iter()
        .map(|&d| run_round_loop(&costs, config, d, &mut scratch, &mut packing))
        .collect();
    PerfReport {
        seed: config.seed,
        mode: mode.to_owned(),
        round_loop,
        serve: run_serve(config),
    }
}

impl PerfReport {
    /// Renders the `BENCH_scheduler.json` document (schema
    /// `tetriserve-bench-scheduler/v1`, see DESIGN.md). Hand-rolled JSON:
    /// every value is a number, string or flat object, so no escaping
    /// beyond the fixed keys is needed.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": \"tetriserve-bench-scheduler/v1\",\n");
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        s.push_str("  \"round_loop\": [\n");
        for (i, r) in self.round_loop.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"queue_depth\": {}, \"rounds\": {}, \"mean_round_us\": {:.3}, \
                 \"max_round_us\": {:.3}, \"decision_digest\": \"{:#018x}\", \
                 \"pack_calls\": {}, \"early_exits\": {}, \"grow_events_steady\": {}, \
                 \"allocations_avoided\": {}}}{}\n",
                r.queue_depth,
                r.rounds,
                r.mean_round_us,
                r.max_round_us,
                r.decision_digest,
                r.pack_calls,
                r.early_exits,
                r.grow_events_steady,
                r.allocations_avoided,
                if i + 1 < self.round_loop.len() {
                    ","
                } else {
                    ""
                },
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"serve\": {{\"requests\": {}, \"completed\": {}, \"sched_passes\": {}, \
             \"sched_wall_us\": {:.3}, \"outcome_digest\": \"{:#018x}\"}}\n",
            self.serve.requests,
            self.serve.completed,
            self.serve.sched_passes,
            self.serve.sched_wall_us,
            self.serve.outcome_digest,
        ));
        s.push('}');
        s.push('\n');
        s
    }

    /// The hot-path invariant: zero scratch growth during timed rounds.
    pub fn steady_state_allocation_free(&self) -> bool {
        self.round_loop.iter().all(|r| r.grow_events_steady == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_decisions() {
        let cfg = PerfConfig {
            rounds: 8,
            queue_depths: vec![4, 16],
            serve_requests: 10,
            ..PerfConfig::smoke()
        };
        let a = run_perf(&cfg, "test");
        let b = run_perf(&cfg, "test");
        for (ra, rb) in a.round_loop.iter().zip(&b.round_loop) {
            assert_eq!(ra.decision_digest, rb.decision_digest);
            assert_eq!(ra.pack_calls, rb.pack_calls);
            assert_eq!(ra.early_exits, rb.early_exits);
            assert_eq!(ra.allocations_avoided, rb.allocations_avoided);
        }
        assert_eq!(a.serve.outcome_digest, b.serve.outcome_digest);
        assert_eq!(a.serve.sched_passes, b.serve.sched_passes);
        assert_eq!(a.serve.completed, b.serve.completed);
    }

    #[test]
    fn different_seed_changes_decisions() {
        let cfg = PerfConfig {
            rounds: 8,
            queue_depths: vec![16],
            serve_requests: 10,
            ..PerfConfig::smoke()
        };
        let other = PerfConfig {
            seed: cfg.seed + 1,
            ..cfg.clone()
        };
        let a = run_perf(&cfg, "test");
        let b = run_perf(&other, "test");
        assert_ne!(
            a.round_loop[0].decision_digest, b.round_loop[0].decision_digest,
            "the digest must actually depend on the workload"
        );
    }

    #[test]
    fn steady_state_is_allocation_free() {
        let cfg = PerfConfig {
            rounds: 12,
            queue_depths: vec![4, 16, 64],
            serve_requests: 10,
            ..PerfConfig::smoke()
        };
        let report = run_perf(&cfg, "test");
        assert!(
            report.steady_state_allocation_free(),
            "pack_round grew its scratch during timed rounds: {:?}",
            report.round_loop
        );
        for r in &report.round_loop {
            // Warm-up + timed rounds all went through the shared scratch.
            assert_eq!(r.pack_calls, u64::from(cfg.rounds) + 1);
            assert!(r.allocations_avoided > 0);
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let cfg = PerfConfig {
            rounds: 2,
            queue_depths: vec![4],
            serve_requests: 5,
            ..PerfConfig::smoke()
        };
        let json = run_perf(&cfg, "smoke").to_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"schema\": \"tetriserve-bench-scheduler/v1\""));
        assert!(json.contains("\"mode\": \"smoke\""));
        assert!(json.contains("\"decision_digest\": \"0x"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }
}
