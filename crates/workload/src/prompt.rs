//! Synthetic prompt library with clustered embeddings.
//!
//! The paper samples prompts from DiffusionDB and, for the Nirvana
//! integration (§6.2, Table 3), embeds each with CLIP to find similar
//! previously served prompts. DiffusionDB is not available offline, so we
//! generate a synthetic library with the property Nirvana actually
//! exploits: prompts arrive in *topic clusters* (users iterate on similar
//! prompts), so a meaningful fraction of requests has a close neighbour in
//! the recent past. Each prompt is a unit-norm vector drawn around one of
//! `n_clusters` random centroids with controllable within-cluster spread.

use tetriserve_simulator::rng::SimRng;

/// A unit-norm prompt embedding.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding(Vec<f32>);

impl Embedding {
    /// Wraps and L2-normalises a raw vector.
    ///
    /// # Panics
    ///
    /// Panics if the vector is empty or has zero norm.
    pub fn new(mut v: Vec<f32>) -> Self {
        assert!(!v.is_empty(), "embedding cannot be empty");
        let norm = v.iter().map(|x| (*x as f64).powi(2)).sum::<f64>().sqrt();
        assert!(norm > 0.0, "embedding cannot be the zero vector");
        for x in &mut v {
            *x = (*x as f64 / norm) as f32;
        }
        Embedding(v)
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Raw components.
    pub fn as_slice(&self) -> &[f32] {
        &self.0
    }

    /// Cosine similarity (both embeddings are unit-norm, so this is the dot
    /// product).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn cosine(&self, other: &Embedding) -> f64 {
        assert_eq!(self.dim(), other.dim(), "embedding dimension mismatch");
        self.0
            .iter()
            .zip(&other.0)
            .map(|(a, b)| *a as f64 * *b as f64)
            .sum()
    }
}

/// A synthetic prompt.
#[derive(Debug, Clone, PartialEq)]
pub struct Prompt {
    /// Index in the library.
    pub id: usize,
    /// CLIP-like embedding.
    pub embedding: Embedding,
}

/// Generates clustered prompts.
///
/// The library's own RNG draws every topic centroid first, then each
/// prompt's cluster and noise.
#[derive(Debug, Clone)]
pub struct PromptLibrary {
    /// One unit-norm centroid per topic cluster.
    centroids: Vec<Vec<f64>>,
    spread: f64,
    next_id: usize,
    rng: SimRng,
}

impl PromptLibrary {
    /// Creates a library of `n_clusters` topic centroids in `dim`
    /// dimensions; `spread` controls within-cluster noise (0 = identical
    /// prompts within a topic, larger = more diverse).
    ///
    /// # Panics
    ///
    /// Panics if `n_clusters` or `dim` is zero, or `spread` is negative.
    pub fn new(n_clusters: usize, dim: usize, spread: f64, seed: u64) -> Self {
        assert!(
            n_clusters > 0 && dim > 0,
            "need at least one cluster and dimension"
        );
        assert!(
            spread >= 0.0 && spread.is_finite(),
            "spread must be non-negative"
        );
        let mut rng = SimRng::seed_from_u64(seed);
        let centroids = (0..n_clusters)
            .map(|_| {
                let v: Vec<f64> = (0..dim).map(|_| rng.standard_normal()).collect();
                let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-9);
                v.into_iter().map(|x| x / norm).collect()
            })
            .collect();
        PromptLibrary {
            centroids,
            spread,
            next_id: 0,
            rng,
        }
    }

    /// A library shaped like iterative text-to-image traffic: 40 topics,
    /// 64-dimensional embeddings, tight within-topic spread.
    pub fn diffusiondb_like(seed: u64) -> Self {
        PromptLibrary::new(40, 64, 0.02, seed)
    }

    /// Draws the next prompt from a uniformly random cluster.
    pub fn next_prompt(&mut self) -> Prompt {
        let cluster = self.rng.below(self.centroids.len());
        self.next_prompt_in(cluster)
    }

    /// Draws the next prompt from a specific cluster.
    ///
    /// # Panics
    ///
    /// Panics if the cluster index is out of range.
    pub fn next_prompt_in(&mut self, cluster: usize) -> Prompt {
        assert!(
            cluster < self.centroids.len(),
            "cluster {cluster} out of range"
        );
        let centroid = &self.centroids[cluster];
        let v: Vec<f32> = centroid
            .iter()
            .map(|&c| (c + self.spread * self.rng.standard_normal()) as f32)
            .collect();
        let id = self.next_id;
        self.next_id += 1;
        Prompt {
            id,
            embedding: Embedding::new(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embeddings_are_unit_norm() {
        let e = Embedding::new(vec![3.0, 4.0]);
        assert!((e.cosine(&e) - 1.0).abs() < 1e-6);
        assert_eq!(e.dim(), 2);
    }

    #[test]
    fn cosine_detects_opposites() {
        let a = Embedding::new(vec![1.0, 0.0]);
        let b = Embedding::new(vec![-1.0, 0.0]);
        assert!((a.cosine(&b) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn same_cluster_is_more_similar_than_cross_cluster() {
        let mut lib = PromptLibrary::diffusiondb_like(7);
        let mut same = Vec::new();
        let mut cross = Vec::new();
        for _ in 0..200 {
            let a = lib.next_prompt_in(0);
            let b = lib.next_prompt_in(0);
            let c = lib.next_prompt_in(1);
            same.push(a.embedding.cosine(&b.embedding));
            cross.push(a.embedding.cosine(&c.embedding));
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&same) > mean(&cross) + 0.3,
            "same {} vs cross {}",
            mean(&same),
            mean(&cross)
        );
        assert!(
            mean(&same) > 0.95,
            "within-topic prompts are close: {}",
            mean(&same)
        );
    }

    #[test]
    fn prompt_ids_are_sequential() {
        let mut lib = PromptLibrary::new(2, 8, 0.1, 1);
        assert_eq!(lib.next_prompt().id, 0);
        assert_eq!(lib.next_prompt().id, 1);
        assert_eq!(lib.next_prompt().id, 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = PromptLibrary::diffusiondb_like(42);
        let mut b = PromptLibrary::diffusiondb_like(42);
        let pa = a.next_prompt();
        let pb = b.next_prompt();
        assert_eq!(pa, pb);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn cosine_rejects_dim_mismatch() {
        let a = Embedding::new(vec![1.0]);
        let b = Embedding::new(vec![1.0, 0.0]);
        a.cosine(&b);
    }

    #[test]
    #[should_panic(expected = "zero vector")]
    fn zero_embedding_rejected() {
        Embedding::new(vec![0.0, 0.0]);
    }
}
