//! Resolution mixes (§6.1 "Workload and Dataset").
//!
//! * **Uniform** — equal probability across {256, 512, 1024, 2048};
//! * **Skewed** — `p_i ∝ exp(α · L_i / L_max)` with `α = 1.0` and
//!   `L_i = (H_i·W_i)/16²`, biasing toward larger resolutions;
//! * **Homogeneous** — a single resolution (Figure 14);
//! * **Weighted** — arbitrary weights for custom studies.

use tetriserve_costmodel::Resolution;
use tetriserve_simulator::rng::SimRng;

/// A distribution over output resolutions.
///
/// # Examples
///
/// ```
/// use tetriserve_workload::mix::ResolutionMix;
///
/// // The Skewed mix biases toward larger resolutions.
/// let skewed = ResolutionMix::skewed();
/// let ps: Vec<f64> = skewed.probabilities().iter().map(|&(_, p)| p).collect();
/// assert!(ps.windows(2).all(|w| w[0] < w[1]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ResolutionMix {
    name: String,
    entries: Vec<(Resolution, f64)>,
}

impl ResolutionMix {
    /// Equal weight across the four production resolutions.
    pub fn uniform() -> Self {
        ResolutionMix::weighted("Uniform", Resolution::PRODUCTION.iter().map(|&r| (r, 1.0)))
    }

    /// The paper's Skewed mix: `p_i ∝ exp(α·L_i/L_max)`, α = 1.0.
    pub fn skewed() -> Self {
        ResolutionMix::skewed_with_alpha(1.0)
    }

    /// Skewed mix with a custom exponent.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not finite.
    pub fn skewed_with_alpha(alpha: f64) -> Self {
        assert!(alpha.is_finite(), "alpha must be finite");
        let l_max = Resolution::PRODUCTION
            .iter()
            .map(|r| r.tokens())
            .max()
            .expect("production set is non-empty") as f64;
        ResolutionMix::weighted(
            format!("Skewed(α={alpha})"),
            Resolution::PRODUCTION
                .iter()
                .map(|&r| (r, (alpha * r.tokens() as f64 / l_max).exp())),
        )
    }

    /// A single-resolution workload (Figure 14).
    pub fn homogeneous(res: Resolution) -> Self {
        ResolutionMix::weighted(format!("Homogeneous({})", res.label()), [(res, 1.0)])
    }

    /// Arbitrary positive weights.
    ///
    /// # Panics
    ///
    /// Panics if no entry has positive weight, or any weight is negative or
    /// non-finite.
    pub fn weighted<I: IntoIterator<Item = (Resolution, f64)>>(
        name: impl Into<String>,
        weights: I,
    ) -> Self {
        let entries: Vec<(Resolution, f64)> = weights.into_iter().collect();
        assert!(
            entries.iter().all(|(_, w)| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
        let total: f64 = entries.iter().map(|(_, w)| w).sum();
        assert!(total > 0.0, "mix must have positive total weight");
        ResolutionMix {
            name: name.into(),
            entries: entries.into_iter().map(|(r, w)| (r, w / total)).collect(),
        }
    }

    /// Mix name for reports.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The `(resolution, probability)` entries.
    pub fn probabilities(&self) -> &[(Resolution, f64)] {
        &self.entries
    }

    /// Samples a resolution.
    pub fn sample(&self, rng: &mut SimRng) -> Resolution {
        let u = rng.uniform();
        let mut acc = 0.0;
        for &(res, p) in &self.entries {
            acc += p;
            if u < acc {
                return res;
            }
        }
        self.entries.last().expect("non-empty mix").0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn empirical(mix: &ResolutionMix, n: usize) -> BTreeMap<Resolution, f64> {
        let mut rng = SimRng::seed_from_u64(9);
        let mut counts: BTreeMap<Resolution, usize> = BTreeMap::new();
        for _ in 0..n {
            *counts.entry(mix.sample(&mut rng)).or_default() += 1;
        }
        counts
            .into_iter()
            .map(|(r, c)| (r, c as f64 / n as f64))
            .collect()
    }

    #[test]
    fn uniform_is_uniform() {
        let emp = empirical(&ResolutionMix::uniform(), 40_000);
        for (r, p) in emp {
            assert!((p - 0.25).abs() < 0.01, "{r}: {p}");
        }
    }

    #[test]
    fn skewed_matches_the_formula() {
        // p_i ∝ exp(L_i / L_max): weights exp(1/64), exp(1/16), exp(1/4), e.
        let mix = ResolutionMix::skewed();
        let weights: Vec<f64> = [256.0f64, 1024.0, 4096.0, 16384.0]
            .iter()
            .map(|l| (l / 16384.0f64).exp())
            .collect();
        let total: f64 = weights.iter().sum();
        for ((res, p), w) in mix.probabilities().iter().zip(&weights) {
            assert!((p - w / total).abs() < 1e-12, "{res}: {p} vs {}", w / total);
        }
        // Larger resolutions are strictly more likely.
        let ps: Vec<f64> = mix.probabilities().iter().map(|(_, p)| *p).collect();
        assert!(ps.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn homogeneous_always_returns_its_resolution() {
        let mix = ResolutionMix::homogeneous(Resolution::R1024);
        let mut rng = SimRng::seed_from_u64(4);
        for _ in 0..100 {
            assert_eq!(mix.sample(&mut rng), Resolution::R1024);
        }
        assert_eq!(mix.name(), "Homogeneous(1024)");
    }

    #[test]
    fn weighted_normalises() {
        let mix =
            ResolutionMix::weighted("custom", [(Resolution::R256, 3.0), (Resolution::R512, 1.0)]);
        let ps = mix.probabilities();
        assert!((ps[0].1 - 0.75).abs() < 1e-12);
        assert!((ps[1].1 - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive total weight")]
    fn all_zero_weights_rejected() {
        ResolutionMix::weighted("zero", [(Resolution::R256, 0.0)]);
    }
}
