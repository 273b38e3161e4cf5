//! Shared figure-rendering routines for the bench targets.
//!
//! Figures 7, 8 and 12 share a structure — SAR vs SLO scale for the full
//! policy set, plus per-resolution spiders at the tightest and loosest
//! scales — so the rendering lives here.

use tetriserve_costmodel::Resolution;
use tetriserve_metrics::report::TextTable;
use tetriserve_metrics::sar::{sar, sar_by_resolution};

use crate::experiment::{Experiment, PolicyKind, SLO_SCALES};

/// Prints the "(a) SAR vs SLO scale" panel: one row per policy, one column
/// per scale. Returns the `(policy, scale, sar)` samples for further
/// assertions or summaries.
pub fn print_sar_vs_scale(title: &str, base: &Experiment) -> Vec<(String, f64, f64)> {
    let policies = PolicyKind::standard_set(&base.cluster);
    // Sweep scales in parallel (each scale already parallelises policies).
    let rows: Vec<(f64, Vec<(String, f64)>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = SLO_SCALES
            .iter()
            .map(|&scale| {
                let exp = Experiment {
                    slo_scale: scale,
                    ..base.clone()
                };
                let policies = policies.clone();
                scope.spawn(move || {
                    let sars = exp
                        .run_policies(&policies)
                        .into_iter()
                        .map(|(label, report)| (label, sar(&report.outcomes)))
                        .collect::<Vec<_>>();
                    (scale, sars)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker ok"))
            .collect()
    });

    let mut header = vec!["Policy".to_owned()];
    header.extend(SLO_SCALES.iter().map(|s| format!("{s:.1}x")));
    let mut table = TextTable::new(title, header);
    let mut samples = Vec::new();
    for policy in &policies {
        let label = policy.label();
        let mut cells = vec![label.clone()];
        for (scale, sars) in &rows {
            let v = sars
                .iter()
                .find(|(l, _)| *l == label)
                .map(|(_, s)| *s)
                .expect("every policy ran");
            cells.push(format!("{v:.2}"));
            samples.push((label.clone(), *scale, v));
        }
        table.row(cells);
    }
    println!("{}", table.render());
    samples
}

/// Prints the per-resolution spider panels at the given SLO scales.
pub fn print_spiders(title_prefix: &str, base: &Experiment, scales: &[f64]) {
    let policies = PolicyKind::standard_set(&base.cluster);
    for &scale in scales {
        let exp = Experiment {
            slo_scale: scale,
            ..base.clone()
        };
        let mut table = TextTable::new(
            format!("{title_prefix}: per-resolution SAR at SLO {scale:.1}x"),
            ["Policy", "256", "512", "1024", "2048"],
        );
        for (label, report) in exp.run_policies(&policies) {
            let by = sar_by_resolution(&report.outcomes);
            let mut row = vec![label];
            for res in Resolution::PRODUCTION {
                row.push(format!("{:.2}", by.get(&res).copied().unwrap_or(0.0)));
            }
            table.row(row);
        }
        println!("{}", table.render());
    }
}

/// Summarises TetriServe's margin over the strongest baseline across the
/// swept scales.
pub fn print_margin_summary(samples: &[(String, f64, f64)]) {
    let mut best_gain = f64::MIN;
    let mut best_scale = 0.0;
    let mut mean_gain = 0.0;
    let mut n = 0;
    for &scale in &SLO_SCALES {
        let tetri = samples
            .iter()
            .find(|(l, s, _)| l == "TetriServe" && *s == scale)
            .map(|(_, _, v)| *v)
            .expect("TetriServe ran");
        let best_other = samples
            .iter()
            .filter(|(l, s, _)| l != "TetriServe" && *s == scale)
            .map(|(_, _, v)| *v)
            .fold(0.0f64, f64::max);
        let gain = tetri - best_other;
        mean_gain += gain;
        n += 1;
        if gain > best_gain {
            best_gain = gain;
            best_scale = scale;
        }
    }
    mean_gain /= n as f64;
    println!(
        "TetriServe vs best baseline: mean {:+.1} pp across scales, peak {:+.1} pp at {:.1}x\n",
        mean_gain * 100.0,
        best_gain * 100.0,
        best_scale
    );
}
