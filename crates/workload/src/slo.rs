//! SLO settings (§6.1 "SLO Settings").
//!
//! The paper grounds per-resolution latency targets in user-perceived
//! responsiveness: 1.5 s for 256², 2.0 s for 512², 3.0 s for 1024², capped
//! at 5.0 s for 2048², and sweeps an *SLO Scale* multiplier from 1.0× to
//! 1.5× relative to those bases.

use std::collections::BTreeMap;

use tetriserve_costmodel::Resolution;
use tetriserve_simulator::time::SimDuration;

/// Per-resolution deadline targets with a scale multiplier.
///
/// # Examples
///
/// ```
/// use tetriserve_workload::slo::SloPolicy;
/// use tetriserve_costmodel::Resolution;
/// use tetriserve_simulator::time::SimDuration;
///
/// let slo = SloPolicy::paper_targets().scaled(1.2);
/// assert_eq!(slo.budget(Resolution::R2048), SimDuration::from_secs_f64(6.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SloPolicy {
    base: BTreeMap<u64, f64>, // tokens -> base seconds
    scale: f64,
}

impl SloPolicy {
    /// The paper's base targets at scale 1.0×.
    pub fn paper_targets() -> Self {
        SloPolicy::from_targets([
            (Resolution::R256, 1.5),
            (Resolution::R512, 2.0),
            (Resolution::R1024, 3.0),
            (Resolution::R2048, 5.0),
        ])
    }

    /// Custom base targets (seconds) at scale 1.0×.
    ///
    /// # Panics
    ///
    /// Panics if any target is not positive and finite.
    pub fn from_targets<I: IntoIterator<Item = (Resolution, f64)>>(targets: I) -> Self {
        let base: BTreeMap<u64, f64> = targets
            .into_iter()
            .map(|(r, s)| {
                assert!(
                    s.is_finite() && s > 0.0,
                    "SLO target for {r} must be positive"
                );
                (r.tokens(), s)
            })
            .collect();
        assert!(!base.is_empty(), "SLO policy needs at least one target");
        SloPolicy { base, scale: 1.0 }
    }

    /// Returns a copy with the given SLO scale (the paper sweeps 1.0–1.5).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive and finite.
    pub fn scaled(&self, scale: f64) -> Self {
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
        SloPolicy {
            base: self.base.clone(),
            scale,
        }
    }

    /// The active scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The scaled SLO budget for a resolution.
    ///
    /// # Panics
    ///
    /// Panics if the resolution has no target.
    pub fn budget(&self, res: Resolution) -> SimDuration {
        let base = self
            .base
            .get(&res.tokens())
            .unwrap_or_else(|| panic!("no SLO target for {res}"));
        SimDuration::from_secs_f64(base * self.scale)
    }

    /// Base (unscaled) targets as a resolution-keyed map, for baselines
    /// that profile against them (e.g. RSSP).
    pub fn base_targets(&self) -> BTreeMap<Resolution, SimDuration> {
        Resolution::PRODUCTION
            .iter()
            .filter(|r| self.base.contains_key(&r.tokens()))
            .map(|&r| (r, SimDuration::from_secs_f64(self.base[&r.tokens()])))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_targets_match_section_6_1() {
        let slo = SloPolicy::paper_targets();
        assert_eq!(
            slo.budget(Resolution::R256),
            SimDuration::from_secs_f64(1.5)
        );
        assert_eq!(
            slo.budget(Resolution::R512),
            SimDuration::from_secs_f64(2.0)
        );
        assert_eq!(
            slo.budget(Resolution::R1024),
            SimDuration::from_secs_f64(3.0)
        );
        assert_eq!(
            slo.budget(Resolution::R2048),
            SimDuration::from_secs_f64(5.0)
        );
        assert_eq!(slo.scale(), 1.0);
    }

    #[test]
    fn scaling_multiplies_budgets() {
        let slo = SloPolicy::paper_targets().scaled(1.2);
        assert_eq!(
            slo.budget(Resolution::R1024),
            SimDuration::from_secs_f64(3.6)
        );
        // Scaling is non-destructive.
        assert_eq!(
            SloPolicy::paper_targets().budget(Resolution::R1024),
            SimDuration::from_secs_f64(3.0)
        );
    }

    #[test]
    fn base_targets_ignore_scale() {
        let slo = SloPolicy::paper_targets().scaled(1.5);
        let base = slo.base_targets();
        assert_eq!(base[&Resolution::R2048], SimDuration::from_secs_f64(5.0));
        assert_eq!(base.len(), 4);
    }

    #[test]
    #[should_panic(expected = "no SLO target")]
    fn missing_target_panics() {
        SloPolicy::from_targets([(Resolution::R256, 1.5)]).budget(Resolution::R2048);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_scale_rejected() {
        SloPolicy::paper_targets().scaled(0.0);
    }
}
