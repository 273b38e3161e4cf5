//! **Table 5** — Ablation of scheduling mechanisms — round-based DP alone,
//! with GPU placement preservation, with elastic scale-up — reporting SAR
//! and mean latency on the Uniform and Skewed mixes at SLO scales 1.0× and
//! 1.5×.
//!
//! Paper shape: placement preservation improves SAR and/or mean latency in
//! most settings; elastic scale-up consistently raises SAR further; the
//! full system is best everywhere.

use tetriserve_bench::{Experiment, PolicyKind};
use tetriserve_core::TetriServeConfig;
use tetriserve_metrics::latency::LatencySummary;
use tetriserve_metrics::report::TextTable;
use tetriserve_metrics::sar::sar;
use tetriserve_workload::mix::ResolutionMix;

fn main() {
    let variants = [
        ("TetriServe schedule", TetriServeConfig::schedule_only()),
        ("+ Placement", TetriServeConfig::with_placement()),
        ("+ Elastic Scale-Up", TetriServeConfig::default()),
    ];
    for (mix_name, mix) in [
        ("Uniform", ResolutionMix::uniform()),
        ("Skewed", ResolutionMix::skewed()),
    ] {
        let mut table = TextTable::new(
            format!("Table 5 ({mix_name} mix): SAR / mean latency (s)"),
            ["Variant", "SLO=1.0x", "SLO=1.5x"],
        );
        for (name, cfg) in &variants {
            let mut cells = vec![(*name).to_owned()];
            for scale in [1.0, 1.5] {
                let exp = Experiment {
                    mix: mix.clone(),
                    slo_scale: scale,
                    ..Experiment::paper_default()
                };
                let report = exp.run(&PolicyKind::TetriServe(*cfg));
                let s = sar(&report.outcomes);
                let lat = LatencySummary::from_outcomes(&report.outcomes)
                    .mean()
                    .unwrap_or(f64::NAN);
                cells.push(format!("{s:.2} / {lat:.2}"));
            }
            table.row(cells);
        }
        println!("{}", table.render());
    }
    println!(
        "Paper reference (Table 5): full system best, e.g. uniform 1.0x: 0.54 -> 0.56 -> 0.63."
    );
}
