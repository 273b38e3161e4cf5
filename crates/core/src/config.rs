//! TetriServe scheduler configuration.

use tetriserve_costmodel::CostTable;
use tetriserve_simulator::time::SimDuration;

/// Tunables of the TetriServe policy. The booleans correspond one-to-one to
/// the ablation rows of Table 5; the step granularity is the knob swept in
/// Figure 15.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TetriServeConfig {
    /// Diffusion steps per scheduling round for the slowest resolution —
    /// the round length is `granularity × T_min(largest resolution)`
    /// (§4.2.2 "Round Duration": τ adapts to step execution times so that
    /// heterogeneous requests finish near round boundaries).
    pub step_granularity: u32,
    /// Keep requests on their previous GPU set across rounds (§4.2.3).
    pub placement_preservation: bool,
    /// Grant idle GPUs to requests that benefit (§4.2.3).
    pub elastic_scale_up: bool,
    /// Merge identical small-resolution steps when SLO-safe (§5).
    pub selective_batching: bool,
}

/// Minimum per-round latency saving for an elastic doubling to be worth the
/// remap cost it triggers.
pub(crate) const ELASTIC_MIN_BENEFIT: SimDuration = SimDuration::from_millis(30);

/// Dispatch-time budget reserved when a request's placement changes (remap
/// stall / group re-establishment), subtracted from τ when sizing such
/// dispatches so they do not overrun the round boundary.
pub(crate) const RECONFIG_ALLOWANCE: SimDuration = SimDuration::from_millis(20);

impl Default for TetriServeConfig {
    fn default() -> Self {
        TetriServeConfig {
            step_granularity: 5,
            placement_preservation: true,
            elastic_scale_up: true,
            selective_batching: true,
        }
    }
}

impl TetriServeConfig {
    /// The Table 5 ablation baseline: round-based DP scheduling only.
    pub fn schedule_only() -> Self {
        TetriServeConfig {
            placement_preservation: false,
            elastic_scale_up: false,
            ..TetriServeConfig::default()
        }
    }

    /// The Table 5 middle row: DP scheduling + placement preservation.
    pub fn with_placement() -> Self {
        TetriServeConfig {
            placement_preservation: true,
            elastic_scale_up: false,
            ..TetriServeConfig::default()
        }
    }

    /// Sets the step granularity (Figure 15 sweep).
    ///
    /// # Panics
    ///
    /// Panics if `granularity` is zero.
    pub fn granularity(mut self, granularity: u32) -> Self {
        assert!(granularity > 0, "step granularity must be positive");
        self.step_granularity = granularity;
        self
    }

    /// Computes the round length τ for this configuration against a
    /// profiled cost table: `granularity` steps of the slowest profiled
    /// resolution at its fastest degree, padded by [`ROUND_HEADROOM`].
    /// Every resolution can then make at least `granularity` steps of
    /// progress per round at full parallelism — and still finish *before*
    /// the next round boundary despite execution jitter, so placement
    /// preservation gives immediate progress at the boundary (§4.2.3).
    ///
    /// On nodes much wider than the paper's testbeds (e.g. 16 GPUs), the
    /// fastest degree of the big resolution is not the degree its SLO
    /// typically requires, so dispatches at the common degree tile the
    /// round poorly; raise `step_granularity` there so whole multiples of
    /// the slower step fit (see the `scale_out` integration test).
    pub fn round_length(&self, costs: &CostTable) -> SimDuration {
        let slowest = *costs
            .resolutions()
            .last()
            // tetrilint: allow(taint-panic) -- CostTable construction asserts a non-empty resolution axis
            .expect("cost table has at least one resolution");
        (costs.t_min(slowest) * u64::from(self.step_granularity)).mul_f64(ROUND_HEADROOM)
    }
}

/// Multiplicative headroom on the round length so that a round's worth of
/// jittered steps (CV ≤ 0.7%, Table 1) completes before the next boundary.
pub const ROUND_HEADROOM: f64 = 1.02;

/// How the server admits work when the backlog exceeds what the *healthy*
/// GPUs can finish in time.
///
/// Under hard GPU faults the node's deadline capacity shrinks; serving an
/// infeasible backlog best-effort drags every deadline down with it.
/// `ShedInfeasible` instead drops the least salvageable not-yet-started
/// requests so the remainder still meet their SLOs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Admit every request and serve best-effort, even when the backlog is
    /// provably infeasible (today's default behaviour).
    #[default]
    AdmitAll,
    /// When the EDF feasibility check fails against healthy capacity, shed
    /// queued requests with the least salvageable deadlines until the rest
    /// of the backlog fits.
    ShedInfeasible,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetriserve_costmodel::{ClusterSpec, DitModel, Profiler, Resolution};

    #[test]
    fn default_matches_paper_recommendations() {
        let c = TetriServeConfig::default();
        assert_eq!(c.step_granularity, 5, "Figure 15: 5 steps is most robust");
        assert!(c.placement_preservation);
        assert!(c.elastic_scale_up);
        assert!(c.selective_batching);
    }

    #[test]
    fn ablation_variants_toggle_the_right_features() {
        let base = TetriServeConfig::schedule_only();
        assert!(!base.placement_preservation && !base.elastic_scale_up);
        let mid = TetriServeConfig::with_placement();
        assert!(mid.placement_preservation && !mid.elastic_scale_up);
    }

    #[test]
    fn round_length_scales_with_granularity() {
        let costs = Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic();
        let tau1 = TetriServeConfig::default()
            .granularity(1)
            .round_length(&costs);
        let tau5 = TetriServeConfig::default()
            .granularity(5)
            .round_length(&costs);
        let ratio = tau5.as_secs_f64() / tau1.as_secs_f64();
        assert!((ratio - 5.0).abs() < 1e-3, "ratio {ratio}");
        // τ(1) is one max-parallelism step of the slowest resolution, plus
        // jitter headroom.
        let base = costs.t_min(Resolution::R2048).as_secs_f64();
        assert!((tau1.as_secs_f64() - base * ROUND_HEADROOM).abs() < 1e-6);
        // With the calibrated model: τ(5) ≈ 0.45 s on FLUX/H100.
        let secs = tau5.as_secs_f64();
        assert!(secs > 0.3 && secs < 0.7, "τ = {secs}s");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_granularity_rejected() {
        let _ = TetriServeConfig::default().granularity(0);
    }
}
