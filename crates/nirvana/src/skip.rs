//! Similarity → skipped-steps policy.
//!
//! §6.2 of the TetriServe paper: "Based on prompt similarity, the system
//! determines how many initial diffusion steps can be skipped, yielding an
//! effective diffusion length of N − k steps, where k ∈ {5, 10, 15, 20, 25}
//! and N = 50 by default." Higher similarity permits reusing a later
//! (more-denoised) cached latent, i.e. skipping more steps.

use crate::cache::NirvanaCache;
use tetriserve_workload::prompt::Embedding;

/// Maps a cosine-similarity hit to the number of initial steps skipped.
#[derive(Debug, Clone)]
pub struct SkipPolicy {
    /// `(min_similarity, steps_skipped)` thresholds, descending by
    /// similarity.
    tiers: Vec<(f64, u32)>,
}

impl SkipPolicy {
    /// The paper's default tiers for a 50-step schedule:
    /// k ∈ {25, 20, 15, 10, 5} at descending similarity.
    pub fn paper_default() -> Self {
        SkipPolicy::new(vec![
            (0.99, 25),
            (0.98, 20),
            (0.97, 15),
            (0.95, 10),
            (0.92, 5),
        ])
    }

    /// Custom tiers, which must be strictly descending in similarity and
    /// non-increasing skips make no sense (higher similarity must skip at
    /// least as much).
    ///
    /// # Panics
    ///
    /// Panics if tiers are empty, not strictly descending in similarity,
    /// or not strictly descending in skipped steps.
    pub fn new(tiers: Vec<(f64, u32)>) -> Self {
        assert!(!tiers.is_empty(), "skip policy needs at least one tier");
        for w in tiers.windows(2) {
            assert!(
                w[0].0 > w[1].0 && w[0].1 > w[1].1,
                "tiers must descend in similarity and skipped steps: {tiers:?}"
            );
        }
        SkipPolicy { tiers }
    }

    /// The minimum similarity that produces any skip.
    pub fn min_useful_similarity(&self) -> f64 {
        self.tiers.last().expect("non-empty tiers").0
    }

    /// Steps skipped for a hit of the given similarity (0 below the lowest
    /// tier).
    pub fn steps_skipped(&self, similarity: f64) -> u32 {
        for &(min_sim, k) in &self.tiers {
            if similarity >= min_sim {
                return k;
            }
        }
        0
    }

    /// Looks up `embedding` in `cache` and returns the effective number of
    /// denoising steps out of `total_steps`, inserting the prompt into the
    /// cache afterwards (every served request populates the cache).
    ///
    /// # Panics
    ///
    /// Panics if the skips exceed `total_steps` (mis-matched schedule).
    pub fn effective_steps(
        &self,
        cache: &mut NirvanaCache,
        embedding: &Embedding,
        total_steps: u32,
    ) -> u32 {
        let skipped = cache
            .lookup(embedding, self.min_useful_similarity())
            .map(|sim| self.steps_skipped(sim))
            .unwrap_or(0);
        assert!(
            skipped < total_steps,
            "skip policy ({skipped}) must leave at least one step of {total_steps}"
        );
        cache.insert(embedding.clone());
        total_steps - skipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetriserve_workload::prompt::PromptLibrary;

    #[test]
    fn paper_tiers() {
        let p = SkipPolicy::paper_default();
        assert_eq!(p.steps_skipped(0.995), 25);
        assert_eq!(p.steps_skipped(0.985), 20);
        assert_eq!(p.steps_skipped(0.975), 15);
        assert_eq!(p.steps_skipped(0.96), 10);
        assert_eq!(p.steps_skipped(0.93), 5);
        assert_eq!(p.steps_skipped(0.80), 0);
        assert!((p.min_useful_similarity() - 0.92).abs() < 1e-12);
    }

    #[test]
    fn cold_cache_runs_full_schedule() {
        let p = SkipPolicy::paper_default();
        let mut cache = NirvanaCache::new(16);
        let mut lib = PromptLibrary::diffusiondb_like(1);
        let prompt = lib.next_prompt();
        assert_eq!(p.effective_steps(&mut cache, &prompt.embedding, 50), 50);
        // The prompt itself is now cached.
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn repeated_topic_prompts_skip_steps() {
        let p = SkipPolicy::paper_default();
        let mut cache = NirvanaCache::new(64);
        let mut lib = PromptLibrary::diffusiondb_like(2);
        // Warm with several prompts from topic 0.
        for _ in 0..10 {
            let prompt = lib.next_prompt_in(0);
            p.effective_steps(&mut cache, &prompt.embedding, 50);
        }
        let probe = lib.next_prompt_in(0);
        let eff = p.effective_steps(&mut cache, &probe.embedding, 50);
        assert!(eff < 50, "same-topic prompt should hit: {eff}");
        assert!(eff >= 25, "at most half the schedule is skipped");
    }

    #[test]
    fn cross_topic_prompts_do_not_skip() {
        let p = SkipPolicy::paper_default();
        let mut cache = NirvanaCache::new(64);
        let mut lib = PromptLibrary::diffusiondb_like(3);
        for _ in 0..10 {
            let prompt = lib.next_prompt_in(0);
            p.effective_steps(&mut cache, &prompt.embedding, 50);
        }
        let probe = lib.next_prompt_in(1);
        assert_eq!(p.effective_steps(&mut cache, &probe.embedding, 50), 50);
    }

    #[test]
    #[should_panic(expected = "descend")]
    fn unordered_tiers_rejected() {
        SkipPolicy::new(vec![(0.9, 5), (0.95, 10)]);
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn skips_cannot_consume_the_schedule() {
        let p = SkipPolicy::new(vec![(0.0, 10)]);
        let mut cache = NirvanaCache::new(4);
        let e = tetriserve_workload::prompt::Embedding::new(vec![1.0]);
        cache.insert(e.clone());
        p.effective_steps(&mut cache, &e, 10);
    }
}
