//! Cache-accelerated serving: integrate Nirvana-style approximate caching
//! (skip denoising prefixes for prompts similar to recently served ones)
//! with TetriServe's scheduling, and show the two compose — the paper's
//! Table 3 experiment.
//!
//! Run with: `cargo run --example cache_accelerated [--release]`

use tetriserve_bench::{Experiment, PolicyKind};
use tetriserve_core::TetriServeConfig;
use tetriserve_metrics::sar::sar;
use tetriserve_nirvana::{accelerate_trace, NirvanaConfig};
use tetriserve_workload::mix::ResolutionMix;
use tetriserve_workload::prompt::PromptLibrary;

fn main() {
    let base = Experiment {
        mix: ResolutionMix::skewed(),
        ..Experiment::paper_default()
    };

    // What does the cache do to the schedule lengths?
    let acc = accelerate_trace(
        base.n_requests,
        base.model.steps,
        PromptLibrary::diffusiondb_like(base.seed),
        &NirvanaConfig::default(),
    );
    println!(
        "Nirvana cache: hit rate {:.0}%, mean effective steps {:.1} of {}\n",
        acc.hit_rate * 100.0,
        acc.mean_steps,
        base.model.steps
    );

    // Serve with and without the cache, under RSSP and TetriServe.
    let cached = Experiment {
        nirvana: Some(NirvanaConfig::default()),
        ..base.clone()
    };
    println!("{:<22} {:>8}", "configuration", "SAR");
    for (name, exp, policy) in [
        ("RSSP", &base, PolicyKind::Rssp),
        (
            "TetriServe",
            &base,
            PolicyKind::TetriServe(TetriServeConfig::default()),
        ),
        ("RSSP + Nirvana", &cached, PolicyKind::Rssp),
        (
            "TetriServe + Nirvana",
            &cached,
            PolicyKind::TetriServe(TetriServeConfig::default()),
        ),
    ] {
        let report = exp.run(&policy);
        println!("{name:<22} {:>8.2}", sar(&report.outcomes));
    }
    println!("\nCache-based step reduction and deadline-aware scheduling are orthogonal:");
    println!("the combination should top both individual techniques (paper Table 3).");
}
