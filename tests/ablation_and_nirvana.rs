//! Integration tests for the Table 5 ablation and the Table 3 Nirvana
//! composition.

use tetriserve::bench::{Experiment, PolicyKind};
use tetriserve::core::TetriServeConfig;
use tetriserve::metrics::sar::sar;
use tetriserve::nirvana::NirvanaConfig;
use tetriserve::workload::ResolutionMix;

fn skewed(n: usize) -> Experiment {
    Experiment {
        mix: ResolutionMix::skewed(),
        n_requests: n,
        ..Experiment::paper_default()
    }
}

#[test]
fn full_system_tops_the_ablation() {
    // Table 5's ordering on the contended Skewed mix: the full system
    // (placement + elastic) must beat the bare round scheduler.
    let exp = skewed(150);
    let bare = sar(&exp
        .run(&PolicyKind::TetriServe(TetriServeConfig::schedule_only()))
        .outcomes);
    let full = sar(&exp
        .run(&PolicyKind::TetriServe(TetriServeConfig::default()))
        .outcomes);
    assert!(
        full > bare,
        "full system {full} must beat schedule-only {bare}"
    );
}

#[test]
fn elastic_scale_up_reduces_mean_latency() {
    // Table 5: elastic scale-up's work conservation cuts latency sharply.
    let exp = skewed(150);
    let without = exp.run(&PolicyKind::TetriServe(TetriServeConfig::with_placement()));
    let with = exp.run(&PolicyKind::TetriServe(TetriServeConfig::default()));
    let ml = |r: &tetriserve::core::ServeReport| {
        tetriserve::metrics::LatencySummary::from_outcomes(&r.outcomes)
            .mean()
            .unwrap()
    };
    assert!(
        ml(&with) < ml(&without),
        "elastic {} vs placement-only {}",
        ml(&with),
        ml(&without)
    );
}

#[test]
fn nirvana_composition_matches_table3_ordering() {
    // RSSP < TetriServe; X < X+Nirvana; TetriServe+Nirvana best overall.
    let base = skewed(150);
    let cached = Experiment {
        nirvana: Some(NirvanaConfig::default()),
        ..base.clone()
    };
    let tetri = PolicyKind::TetriServe(TetriServeConfig::default());
    let rssp_plain = sar(&base.run(&PolicyKind::Rssp).outcomes);
    let tetri_plain = sar(&base.run(&tetri).outcomes);
    let rssp_cached = sar(&cached.run(&PolicyKind::Rssp).outcomes);
    let tetri_cached = sar(&cached.run(&tetri).outcomes);

    assert!(tetri_plain > rssp_plain, "{tetri_plain} vs {rssp_plain}");
    assert!(rssp_cached > rssp_plain, "{rssp_cached} vs {rssp_plain}");
    assert!(
        tetri_cached >= tetri_plain,
        "{tetri_cached} vs {tetri_plain}"
    );
    let all = [rssp_plain, tetri_plain, rssp_cached, tetri_cached];
    assert!(
        tetri_cached >= all.into_iter().fold(0.0, f64::max),
        "combined system must be best: {all:?}"
    );
}

#[test]
fn nirvana_reduces_executed_steps() {
    let base = skewed(100);
    let cached = Experiment {
        nirvana: Some(NirvanaConfig::default()),
        ..base.clone()
    };
    let tetri = PolicyKind::TetriServe(TetriServeConfig::default());
    let steps = |r: &tetriserve::core::ServeReport| -> u64 {
        r.outcomes.iter().map(|o| u64::from(o.steps_executed)).sum()
    };
    let plain = steps(&base.run(&tetri));
    let accel = steps(&cached.run(&tetri));
    assert!(
        accel < plain * 9 / 10,
        "cache should skip >10% of steps: {accel} vs {plain}"
    );
    // The cache is warmed on earlier prompts than the live ones, so no
    // live request finds a copy of its own prompt: if every one did, each
    // would take the 25-step top skip and run exactly half its steps.
    assert!(
        accel > plain / 2,
        "live prompts must not be warm-up copies: {accel} vs {plain}"
    );
}
