//! Curated workload scenarios.
//!
//! Named, documented request-stream constructors for stress shapes this
//! reproduction adds beyond the paper's defaults (which
//! `Experiment::paper_default()` builds, with either mix). Each returns
//! plain [`GeneratedRequest`]s so any harness can serve them.

use tetriserve_costmodel::{Resolution, StageProfile};
use tetriserve_simulator::trace::TenantId;

use crate::arrival::BurstyProcess;
use crate::gen::{GeneratedRequest, TraceGen};
use crate::mix::ResolutionMix;
use crate::slo::SloPolicy;

/// A flash crowd: strong MMPP bursts (6× for 10% of the time) over the
/// Uniform mix — harsher than §6.3's default burstiness.
pub fn flash_crowd(n: usize, mean_rate_per_min: f64, seed: u64) -> Vec<GeneratedRequest> {
    TraceGen::new(
        BurstyProcess::new(mean_rate_per_min, 6.0, 0.1, 10.0),
        ResolutionMix::uniform(),
        SloPolicy::paper_targets().scaled(1.5),
        seed,
    )
    .generate(n)
}

/// A deadline cliff: `n` requests of one resolution arriving in a tight
/// window, all due at (nearly) the same absolute time — the pure packing
/// stress where the group-knapsack structure matters most.
///
/// # Panics
///
/// Panics if `window_s` or `common_slo_s` is not positive.
pub fn deadline_cliff(
    n: usize,
    res: Resolution,
    window_s: f64,
    common_slo_s: f64,
    seed: u64,
) -> Vec<GeneratedRequest> {
    assert!(
        window_s > 0.0 && common_slo_s > 0.0,
        "positive window and SLO required"
    );
    let mut rng = tetriserve_simulator::rng::SimRng::seed_from_u64(seed);
    let deadline = window_s + common_slo_s;
    (0..n as u64)
        .map(|id| {
            let arrival_s = rng.uniform() * window_s;
            GeneratedRequest {
                id,
                tenant: TenantId::UNTAGGED,
                arrival_s,
                resolution: res,
                deadline_s: deadline,
                stages: StageProfile::FLAT,
            }
        })
        .collect()
}

/// Alternating elephants and mice: 2048² requests interleaved with bursts
/// of 256² ones — the head-of-line-blocking shape from Figure 1.
pub fn elephants_and_mice(pairs: usize) -> Vec<GeneratedRequest> {
    let slo = SloPolicy::paper_targets();
    let mut out = Vec::with_capacity(pairs * 4);
    let mut id = 0u64;
    for p in 0..pairs {
        let base = p as f64 * 20.0;
        let mut push = |arrival_s: f64, res: Resolution| {
            out.push(GeneratedRequest {
                id,
                tenant: TenantId::UNTAGGED,
                arrival_s,
                resolution: res,
                deadline_s: arrival_s + slo.budget(res).as_secs_f64(),
                stages: StageProfile::FLAT,
            });
            id += 1;
        };
        push(base, Resolution::R2048);
        push(base + 0.5, Resolution::R256);
        push(base + 1.0, Resolution::R256);
        push(base + 1.5, Resolution::R256);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_cliff_shares_one_deadline() {
        let cliff = deadline_cliff(12, Resolution::R512, 2.0, 3.0, 7);
        assert_eq!(cliff.len(), 12);
        let d0 = cliff[0].deadline_s;
        assert!(cliff.iter().all(|r| (r.deadline_s - d0).abs() < 1e-9));
        assert!(cliff.iter().all(|r| r.arrival_s <= 2.0));
        assert!(cliff.iter().all(|r| r.resolution == Resolution::R512));
    }

    #[test]
    fn elephants_and_mice_interleave() {
        let w = elephants_and_mice(5);
        assert_eq!(w.len(), 20);
        let elephants = w
            .iter()
            .filter(|r| r.resolution == Resolution::R2048)
            .count();
        assert_eq!(elephants, 5);
        // Each mouse trails its elephant within two seconds.
        for chunk in w.chunks(4) {
            assert_eq!(chunk[0].resolution, Resolution::R2048);
            assert!(chunk[3].arrival_s - chunk[0].arrival_s < 2.0);
        }
    }

    #[test]
    fn flash_crowd_is_rate_preserving() {
        let w = flash_crowd(600, 12.0, 9);
        let span_min = w.last().unwrap().arrival_s / 60.0;
        let rate = w.len() as f64 / span_min;
        assert!((rate - 12.0).abs() < 2.0, "rate {rate}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn cliff_rejects_bad_window() {
        deadline_cliff(1, Resolution::R256, 0.0, 1.0, 0);
    }
}
