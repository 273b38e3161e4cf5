//! Approximate latent cache with LRU eviction.
//!
//! Nirvana (Agarwal et al., NSDI'24) accelerates diffusion by reusing
//! intermediate denoising latents from previously served prompts: an
//! incoming prompt is embedded, matched against the cache, and — depending
//! on similarity — some prefix of its denoising steps is skipped. This
//! module provides the cache itself: fixed capacity, cosine
//! nearest-neighbour lookup, least-recently-used eviction (§6.2 of the
//! TetriServe paper: "we maintain a fixed-size cache with LRU eviction").

use std::collections::VecDeque;

use tetriserve_workload::prompt::Embedding;

/// A fixed-capacity embedding cache with LRU eviction.
#[derive(Debug, Clone)]
pub struct NirvanaCache {
    capacity: usize,
    /// Front = least recently used.
    entries: VecDeque<Embedding>,
    hits: u64,
    lookups: u64,
}

impl NirvanaCache {
    /// Creates a cache holding at most `capacity` latent entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        NirvanaCache {
            capacity,
            entries: VecDeque::new(),
            hits: 0,
            lookups: 0,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Finds the best-matching cached entry for `query` at or above
    /// `min_similarity`, refreshing its recency on a hit. Returns the
    /// cosine similarity.
    pub fn lookup(&mut self, query: &Embedding, min_similarity: f64) -> Option<f64> {
        self.lookups += 1;
        let mut best: Option<(usize, f64)> = None;
        for (i, e) in self.entries.iter().enumerate() {
            let sim = query.cosine(e);
            if sim >= min_similarity {
                match best {
                    Some((_, s)) if s >= sim => {}
                    _ => best = Some((i, sim)),
                }
            }
        }
        if let Some((i, sim)) = best {
            self.hits += 1;
            // Refresh recency: move the hit to the back (most recent).
            let e = self.entries.remove(i).expect("index is valid");
            self.entries.push_back(e);
            Some(sim)
        } else {
            None
        }
    }

    /// Inserts a served prompt's latent, evicting the least recently used
    /// entry if full.
    pub fn insert(&mut self, embedding: Embedding) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(embedding);
    }

    /// Fraction of lookups that hit (since construction).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emb(x: f32, y: f32) -> Embedding {
        Embedding::new(vec![x, y])
    }

    #[test]
    fn hit_and_miss() {
        let mut c = NirvanaCache::new(4);
        c.insert(emb(1.0, 0.0));
        assert!(c.lookup(&emb(1.0, 0.05), 0.9).unwrap() > 0.99);
        assert!(c.lookup(&emb(0.0, 1.0), 0.9).is_none());
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn returns_best_match() {
        let mut c = NirvanaCache::new(4);
        c.insert(emb(1.0, 0.0));
        c.insert(emb(0.8, 0.6)); // cos to (1,0) = 0.8
        let sim = c.lookup(&emb(1.0, 0.0), 0.5).unwrap();
        assert!((sim - 1.0).abs() < 1e-6, "best, not first: {sim}");
    }

    #[test]
    fn lru_evicts_the_oldest() {
        let mut c = NirvanaCache::new(2);
        c.insert(emb(1.0, 0.0));
        c.insert(emb(0.0, 1.0));
        c.insert(emb(-1.0, 0.0)); // evicts (1,0)
        assert_eq!(c.len(), 2);
        assert!(
            c.lookup(&emb(1.0, 0.0), 0.9).is_none(),
            "oldest was evicted"
        );
        assert!(c.lookup(&emb(0.0, 1.0), 0.9).is_some());
    }

    #[test]
    fn hits_refresh_recency() {
        let mut c = NirvanaCache::new(2);
        c.insert(emb(1.0, 0.0));
        c.insert(emb(0.0, 1.0));
        // Touch (1,0) so (0,1) becomes LRU.
        assert!(c.lookup(&emb(1.0, 0.0), 0.9).is_some());
        c.insert(emb(-1.0, 0.0)); // should evict (0,1)
        assert!(c.lookup(&emb(1.0, 0.0), 0.9).is_some());
        assert!(c.lookup(&emb(0.0, 1.0), 0.9).is_none());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        NirvanaCache::new(0);
    }
}
