//! Applying Nirvana to a request trace.
//!
//! The serving-relevant effect of approximate caching is a per-request
//! reduction of the denoising schedule. [`accelerate_trace`] serves a
//! warm-up phase of prompts through the cache (as §6.2 warms with the
//! first 10 K requests), then one prompt per live request, and returns
//! each live request's effective step count — ready to be folded into
//! `RequestSpec::total_steps`.

use tetriserve_workload::prompt::PromptLibrary;

use crate::cache::NirvanaCache;
use crate::skip::SkipPolicy;

/// Configuration of the Nirvana integration.
#[derive(Debug, Clone)]
pub struct NirvanaConfig {
    /// Cache capacity in latent entries.
    pub cache_capacity: usize,
    /// Number of prompts served before the live requests to warm the
    /// cache (the paper warms with the first 10 K requests; with our
    /// 40-topic library a few hundred suffice to cover every topic).
    pub warmup_requests: usize,
    /// The similarity → skip tiers.
    pub skip: SkipPolicy,
}

impl Default for NirvanaConfig {
    fn default() -> Self {
        NirvanaConfig {
            cache_capacity: 512,
            warmup_requests: 400,
            skip: SkipPolicy::paper_default(),
        }
    }
}

/// Result of accelerating one trace.
#[derive(Debug, Clone)]
pub struct AcceleratedTrace {
    /// Effective steps per live request, in arrival order.
    pub effective_steps: Vec<u32>,
    /// Fraction of live requests that skip steps on a cache hit (warm-up
    /// excluded).
    pub hit_rate: f64,
    /// Mean effective steps.
    pub mean_steps: f64,
}

/// Serves `config.warmup_requests` prompts from `prompts` through an empty
/// cache, then the library's next `live_requests` prompts, one per live
/// request in arrival order, and returns the live requests' effective
/// step counts for a `total_steps`-step schedule.
///
/// Warm-up and live prompts come from one stream, so the cache is warmed
/// on earlier requests than the ones it serves, never on copies of them.
pub fn accelerate_trace(
    live_requests: usize,
    total_steps: u32,
    mut prompts: PromptLibrary,
    config: &NirvanaConfig,
) -> AcceleratedTrace {
    let mut cache = NirvanaCache::new(config.cache_capacity);
    let mut serve = || {
        let p = prompts.next_prompt();
        config
            .skip
            .effective_steps(&mut cache, &p.embedding, total_steps)
    };
    for _ in 0..config.warmup_requests {
        serve();
    }
    let effective_steps: Vec<u32> = (0..live_requests).map(|_| serve()).collect();
    let live = effective_steps.len().max(1) as f64;
    let hits = effective_steps.iter().filter(|&&s| s < total_steps).count();
    let mean_steps = effective_steps.iter().map(|&s| f64::from(s)).sum::<f64>() / live;
    AcceleratedTrace {
        effective_steps,
        hit_rate: hits as f64 / live,
        mean_steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accelerate(live: usize, seed: u64, config: &NirvanaConfig) -> AcceleratedTrace {
        accelerate_trace(live, 50, PromptLibrary::diffusiondb_like(seed), config)
    }

    #[test]
    fn warm_cache_skips_substantially() {
        let acc = accelerate(300, 11, &NirvanaConfig::default());
        assert_eq!(acc.effective_steps.len(), 300);
        assert!(acc.hit_rate > 0.5, "hit rate {}", acc.hit_rate);
        assert!(
            acc.mean_steps < 40.0,
            "warmed cache should skip steps on average: {}",
            acc.mean_steps
        );
        assert!(acc.effective_steps.iter().all(|&s| (25..=50).contains(&s)));
    }

    #[test]
    fn no_warmup_still_converges_within_trace() {
        let cfg = NirvanaConfig {
            warmup_requests: 0,
            ..NirvanaConfig::default()
        };
        let acc = accelerate(300, 13, &cfg);
        // Early requests run cold but later same-topic ones hit.
        assert_eq!(acc.effective_steps[0], 50);
        assert!(acc.mean_steps < 50.0);
    }

    #[test]
    fn live_prompts_follow_the_warm_up_ones_in_one_stream() {
        // Warming on the first 400 prompts and serving the next 100 runs
        // exactly as serving all 500 cold and keeping the last 100.
        let warm = accelerate(100, 17, &NirvanaConfig::default());
        let cold = accelerate(
            500,
            17,
            &NirvanaConfig {
                warmup_requests: 0,
                ..NirvanaConfig::default()
            },
        );
        assert_eq!(warm.effective_steps[..], cold.effective_steps[400..]);
    }

    #[test]
    fn deterministic_given_inputs() {
        let run = || accelerate(100, 5, &NirvanaConfig::default()).effective_steps;
        assert_eq!(run(), run());
    }
}
