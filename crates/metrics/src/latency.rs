//! End-to-end latency statistics: CDFs, percentiles, means.
//!
//! Figure 9 plots the latency CDF *over completed requests only*;
//! [`LatencySummary`] follows the same convention. It filters and sorts
//! the completions once and serves every statistic from the one sorted
//! vector.

use tetriserve_core::RequestOutcome;

/// Pre-sorted completed-request latencies: build once, query many times.
///
/// All statistics are answered from one ascending `Vec<f64>` produced at
/// construction; `percentile` is an index computation, `cdf_at` a binary
/// search per sample point, `mean` a cached value.
#[derive(Debug, Clone, Default)]
pub struct LatencySummary {
    /// Completed latencies in seconds, ascending.
    sorted: Vec<f64>,
    /// Cached sum of `sorted` (mean = sum / len).
    sum: f64,
}

impl LatencySummary {
    /// Filters completed requests out of `outcomes` and sorts their
    /// latencies once.
    pub fn from_outcomes(outcomes: &[RequestOutcome]) -> Self {
        LatencySummary::from_latencies(
            outcomes
                .iter()
                .filter_map(|o| o.latency().map(|d| d.as_secs_f64()))
                .collect(),
        )
    }

    /// Builds a summary from raw latency samples (seconds, any order).
    ///
    /// Uses `f64::total_cmp`, which agrees with `partial_cmp` on the
    /// finite values simulated latencies always are (and totally orders
    /// NaN instead of panicking, should a caller ever feed one in).
    pub fn from_latencies(mut latencies: Vec<f64>) -> Self {
        latencies.sort_by(f64::total_cmp);
        let sum = latencies.iter().sum();
        LatencySummary {
            sorted: latencies,
            sum,
        }
    }

    /// Number of completed requests in the summary.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether no request completed.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The sorted latencies (seconds, ascending).
    pub fn latencies(&self) -> &[f64] {
        &self.sorted
    }

    /// Mean latency; `None` when nothing completed.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sum / self.sorted.len() as f64)
        }
    }

    /// The `p`-th percentile (0–100, nearest-rank); `None` when nothing
    /// completed.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
        if self.sorted.is_empty() {
            return None;
        }
        let rank = ((p / 100.0) * self.sorted.len() as f64).ceil().max(1.0) as usize - 1;
        Some(self.sorted[rank.min(self.sorted.len() - 1)])
    }

    /// The empirical CDF as `(latency_s, P(X ≤ latency))` pairs (Figure 9).
    /// Empty when nothing completed.
    pub fn cdf(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, (i + 1) as f64 / n))
            .collect()
    }

    /// Samples the CDF at fixed latency points (shared x-axis across
    /// policies). Returns `None` when nothing completed, so callers can
    /// tell "no completions" apart from "every request was slower than the
    /// sample point" (both would otherwise read 0.0).
    pub fn cdf_at(&self, points_s: &[f64]) -> Option<Vec<(f64, f64)>> {
        if self.sorted.is_empty() {
            return None;
        }
        let n = self.sorted.len() as f64;
        Some(
            points_s
                .iter()
                .map(|&x| {
                    let below = self.sorted.partition_point(|&l| l <= x);
                    (x, below as f64 / n)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tetriserve_costmodel::Resolution;
    use tetriserve_simulator::time::SimTime;
    use tetriserve_simulator::trace::{RequestId, TenantId};

    fn outcome(id: u64, latency_s: Option<f64>) -> RequestOutcome {
        RequestOutcome {
            tenant: TenantId::UNTAGGED,
            id: RequestId(id),
            resolution: Resolution::R512,
            arrival: SimTime::from_secs_f64(10.0),
            deadline: SimTime::from_secs_f64(12.0),
            completion: latency_s.map(|l| SimTime::from_secs_f64(10.0 + l)),
            gpu_seconds: 1.0,
            steps_executed: 50,
            sp_degree_step_sum: 50,
            retries: 0,
            shed: false,
            steps_shed: 0,
            encode_done: None,
            denoise_done: None,
        }
    }

    fn summary(outcomes: &[RequestOutcome]) -> LatencySummary {
        LatencySummary::from_outcomes(outcomes)
    }

    #[test]
    fn completed_only_and_sorted() {
        let outcomes = vec![
            outcome(0, Some(3.0)),
            outcome(1, None),
            outcome(2, Some(1.0)),
        ];
        assert_eq!(summary(&outcomes).latencies(), [1.0, 3.0]);
    }

    #[test]
    fn mean_and_percentiles() {
        let outcomes: Vec<_> = (0..100).map(|i| outcome(i, Some(i as f64 + 1.0))).collect();
        let s = summary(&outcomes);
        assert!((s.mean().unwrap() - 50.5).abs() < 1e-9);
        assert_eq!(s.percentile(50.0), Some(50.0));
        assert_eq!(s.percentile(99.0), Some(99.0));
        assert_eq!(s.percentile(100.0), Some(100.0));
        assert_eq!(s.percentile(0.0), Some(1.0));
    }

    #[test]
    fn cdf_is_monotone_to_one() {
        let outcomes: Vec<_> = (0..10).map(|i| outcome(i, Some((i % 4) as f64))).collect();
        let cdf = summary(&outcomes).cdf();
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        assert!(cdf.windows(2).all(|w| w[0].1 <= w[1].1 && w[0].0 <= w[1].0));
    }

    #[test]
    fn cdf_at_fixed_points() {
        let outcomes = vec![
            outcome(0, Some(1.0)),
            outcome(1, Some(2.0)),
            outcome(2, Some(4.0)),
        ];
        let sampled = summary(&outcomes)
            .cdf_at(&[0.5, 1.0, 3.0, 10.0])
            .expect("completions exist");
        let ps: Vec<f64> = sampled.iter().map(|(_, p)| *p).collect();
        assert!((ps[0] - 0.0).abs() < 1e-12);
        assert!((ps[1] - 1.0 / 3.0).abs() < 1e-12);
        assert!((ps[2] - 2.0 / 3.0).abs() < 1e-12);
        assert!((ps[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_summary() {
        let s = summary(&[]);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.mean(), None);
        assert_eq!(s.percentile(50.0), None);
        assert!(s.cdf().is_empty());
        // An empty completion set must be distinguishable from every
        // request being slower than every sample point (P = 0.0).
        assert_eq!(s.cdf_at(&[1.0, 2.0]), None);
        // Uncompleted-only input masks the same way.
        assert_eq!(summary(&[outcome(0, None)]).cdf_at(&[1.0]), None);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn bad_percentile_rejected() {
        summary(&[]).percentile(101.0);
    }

    proptest! {
        /// Percentile edge cases: p=0 is the minimum, p=100 the maximum,
        /// every percentile is an actual sample (nearest-rank), and the
        /// result is monotone in p. Duplicates and single elements are
        /// covered by the generator ranges.
        #[test]
        fn prop_percentile_edges(
            lats in proptest::collection::vec(0u32..8, 1..40),
            p in 0u32..101,
        ) {
            let samples: Vec<f64> = lats.iter().map(|&l| f64::from(l)).collect();
            let s = LatencySummary::from_latencies(samples.clone());
            let p = f64::from(p);

            let lo = s.percentile(0.0).unwrap();
            let hi = s.percentile(100.0).unwrap();
            prop_assert_eq!(lo, s.latencies()[0], "p=0 is the minimum");
            prop_assert_eq!(hi, *s.latencies().last().unwrap(), "p=100 is the maximum");

            let v = s.percentile(p).unwrap();
            prop_assert!(samples.contains(&v), "nearest-rank returns a sample");
            prop_assert!(v >= lo && v <= hi);
            // Monotone in p.
            if p >= 1.0 {
                prop_assert!(s.percentile(p - 1.0).unwrap() <= v);
            }
        }

        /// A single-element summary answers every query with that element.
        #[test]
        fn prop_single_element(x in 0u32..1000, p in 0u32..101) {
            let s = LatencySummary::from_latencies(vec![f64::from(x)]);
            prop_assert_eq!(s.percentile(f64::from(p)), Some(f64::from(x)));
            prop_assert_eq!(s.mean(), Some(f64::from(x)));
            let cdf = s.cdf();
            prop_assert_eq!(cdf, vec![(f64::from(x), 1.0)]);
        }

        /// All-duplicate inputs: every percentile is the duplicated value
        /// and the CDF jumps straight to 1 at it.
        #[test]
        fn prop_duplicates(x in 0u32..100, n in 1usize..20, p in 0u32..101) {
            let s = LatencySummary::from_latencies(vec![f64::from(x); n]);
            prop_assert_eq!(s.percentile(f64::from(p)), Some(f64::from(x)));
            let at = s.cdf_at(&[f64::from(x)]).unwrap();
            prop_assert_eq!(at[0].1, 1.0);
        }
    }
}
