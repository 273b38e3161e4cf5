//! Request arrival processes.
//!
//! The paper's default workload is a Poisson process at 12 requests/minute
//! (§6.1); §6.3 additionally stresses *bursty* arrivals. The bursty process
//! here is a two-state Markov-modulated Poisson process (MMPP): a calm
//! state at a fraction of the mean rate and a burst state at a multiple of
//! it, switching with exponentially distributed sojourn times — a standard
//! model for flash crowds that preserves the long-run mean rate.

use tetriserve_simulator::rng::SimRng;

/// Generates inter-arrival gaps in seconds.
pub trait ArrivalProcess {
    /// The next inter-arrival gap, in seconds.
    fn next_gap(&mut self, rng: &mut SimRng) -> f64;

    /// Long-run mean rate in requests/minute (for reports).
    fn mean_rate_per_min(&self) -> f64;

    /// [`ArrivalProcess::next_gap`] with the stream invariant enforced:
    /// the gap must be finite and non-negative. A NaN gap from a buggy
    /// process (or a trace replay gone wrong) would otherwise corrupt the
    /// multiplex merge silently — `total_cmp` gives NaN a *position* in
    /// the order, so the merged stream would pass its own sortedness
    /// check while carrying a poisoned arrival time. Generators call this
    /// instead of `next_gap` so the failure is loud and at the source.
    ///
    /// # Panics
    ///
    /// Panics if the underlying process yields NaN, ±∞ or a negative gap.
    fn checked_gap(&mut self, rng: &mut SimRng) -> f64 {
        let gap = self.next_gap(rng);
        assert!(
            gap.is_finite() && gap >= 0.0,
            "arrival process yielded an invalid inter-arrival gap: {gap}"
        );
        gap
    }
}

impl<P: ArrivalProcess + ?Sized> ArrivalProcess for Box<P> {
    fn next_gap(&mut self, rng: &mut SimRng) -> f64 {
        (**self).next_gap(rng)
    }

    fn mean_rate_per_min(&self) -> f64 {
        (**self).mean_rate_per_min()
    }
}

/// Memoryless arrivals at a constant mean rate.
#[derive(Debug, Clone)]
pub struct PoissonProcess {
    rate_per_min: f64,
}

impl PoissonProcess {
    /// Creates a Poisson process with the given mean rate.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not positive and finite.
    pub fn new(rate_per_min: f64) -> Self {
        assert!(
            rate_per_min.is_finite() && rate_per_min > 0.0,
            "arrival rate must be positive, got {rate_per_min}"
        );
        PoissonProcess { rate_per_min }
    }
}

impl ArrivalProcess for PoissonProcess {
    fn next_gap(&mut self, rng: &mut SimRng) -> f64 {
        rng.exponential(60.0 / self.rate_per_min)
    }

    fn mean_rate_per_min(&self) -> f64 {
        self.rate_per_min
    }
}

/// Perfectly regular arrivals (useful for controlled experiments).
#[derive(Debug, Clone)]
pub struct UniformProcess {
    rate_per_min: f64,
}

impl UniformProcess {
    /// Creates a deterministic process with the given rate.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not positive and finite.
    pub fn new(rate_per_min: f64) -> Self {
        assert!(
            rate_per_min.is_finite() && rate_per_min > 0.0,
            "arrival rate must be positive, got {rate_per_min}"
        );
        UniformProcess { rate_per_min }
    }
}

impl ArrivalProcess for UniformProcess {
    fn next_gap(&mut self, _rng: &mut SimRng) -> f64 {
        60.0 / self.rate_per_min
    }

    fn mean_rate_per_min(&self) -> f64 {
        self.rate_per_min
    }
}

/// Two-state Markov-modulated Poisson process: calm / burst.
#[derive(Debug, Clone)]
pub struct BurstyProcess {
    mean_rate_per_min: f64,
    /// Burst-state rate multiplier relative to the mean.
    burst_factor: f64,
    /// Fraction of time spent in the burst state.
    burst_time_fraction: f64,
    /// Mean sojourn in the burst state, seconds.
    mean_burst_secs: f64,
    in_burst: bool,
    state_time_left: f64,
}

impl BurstyProcess {
    /// Creates a bursty process whose long-run mean is `mean_rate_per_min`:
    /// bursts run at `burst_factor ×` the mean for `mean_burst_secs` at a
    /// time, occupying `burst_time_fraction` of wall-clock time; the calm
    /// rate is derived so the long-run mean is preserved.
    ///
    /// # Panics
    ///
    /// Panics unless `burst_factor > 1`, `0 < burst_time_fraction < 1`,
    /// the implied calm rate is positive, and the other inputs are
    /// positive and finite.
    pub fn new(
        mean_rate_per_min: f64,
        burst_factor: f64,
        burst_time_fraction: f64,
        mean_burst_secs: f64,
    ) -> Self {
        assert!(mean_rate_per_min > 0.0 && mean_rate_per_min.is_finite());
        assert!(burst_factor > 1.0, "burst factor must exceed 1");
        assert!(
            burst_time_fraction > 0.0 && burst_time_fraction < 1.0,
            "burst time fraction must be in (0, 1)"
        );
        assert!(mean_burst_secs > 0.0 && mean_burst_secs.is_finite());
        let calm = Self::calm_rate(mean_rate_per_min, burst_factor, burst_time_fraction);
        assert!(
            calm > 0.0,
            "burst factor {burst_factor} at fraction {burst_time_fraction} leaves no calm traffic"
        );
        BurstyProcess {
            mean_rate_per_min,
            burst_factor,
            burst_time_fraction,
            mean_burst_secs,
            in_burst: false,
            state_time_left: 0.0,
        }
    }

    /// A moderate default: 4× bursts covering 20% of time, 15 s at a time.
    pub fn standard(mean_rate_per_min: f64) -> Self {
        BurstyProcess::new(mean_rate_per_min, 4.0, 0.2, 15.0)
    }

    fn calm_rate(mean: f64, factor: f64, fraction: f64) -> f64 {
        // mean = fraction·(factor·mean) + (1−fraction)·calm
        (mean - fraction * factor * mean) / (1.0 - fraction)
    }

    fn current_rate(&self) -> f64 {
        if self.in_burst {
            self.burst_factor * self.mean_rate_per_min
        } else {
            Self::calm_rate(
                self.mean_rate_per_min,
                self.burst_factor,
                self.burst_time_fraction,
            )
        }
    }

    fn mean_sojourn(&self) -> f64 {
        if self.in_burst {
            self.mean_burst_secs
        } else {
            // Calm sojourn keeps the burst time fraction.
            self.mean_burst_secs * (1.0 - self.burst_time_fraction) / self.burst_time_fraction
        }
    }
}

impl ArrivalProcess for BurstyProcess {
    fn next_gap(&mut self, rng: &mut SimRng) -> f64 {
        let mut gap = 0.0;
        loop {
            if self.state_time_left <= 0.0 {
                self.state_time_left = rng.exponential(self.mean_sojourn());
            }
            let candidate = rng.exponential(60.0 / self.current_rate());
            if candidate <= self.state_time_left {
                self.state_time_left -= candidate;
                return gap + candidate;
            }
            // State switches before the next arrival: advance and retry.
            gap += self.state_time_left;
            self.state_time_left = 0.0;
            self.in_burst = !self.in_burst;
        }
    }

    fn mean_rate_per_min(&self) -> f64 {
        self.mean_rate_per_min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_gap<P: ArrivalProcess>(p: &mut P, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::seed_from_u64(seed);
        (0..n).map(|_| p.next_gap(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn poisson_mean_matches_rate() {
        let mut p = PoissonProcess::new(12.0);
        let m = mean_gap(&mut p, 50_000, 1);
        assert!((m - 5.0).abs() < 0.1, "mean gap {m}");
        assert_eq!(p.mean_rate_per_min(), 12.0);
    }

    #[test]
    fn uniform_is_exact() {
        let mut p = UniformProcess::new(6.0);
        let mut rng = SimRng::seed_from_u64(2);
        assert_eq!(p.next_gap(&mut rng), 10.0);
        assert_eq!(p.next_gap(&mut rng), 10.0);
    }

    #[test]
    fn bursty_preserves_long_run_mean() {
        let mut p = BurstyProcess::standard(12.0);
        let m = mean_gap(&mut p, 100_000, 3);
        assert!((m - 5.0).abs() < 0.25, "mean gap {m}");
    }

    #[test]
    fn bursty_is_burstier_than_poisson() {
        // Coefficient of variation of gaps: Poisson = 1, MMPP > 1.
        let gaps = |p: &mut dyn ArrivalProcess, seed| {
            let mut rng = SimRng::seed_from_u64(seed);
            (0..50_000)
                .map(|_| p.next_gap(&mut rng))
                .collect::<Vec<_>>()
        };
        let cv = |v: &[f64]| {
            let m = v.iter().sum::<f64>() / v.len() as f64;
            let var = v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / v.len() as f64;
            var.sqrt() / m
        };
        let mut poisson = PoissonProcess::new(12.0);
        let mut bursty = BurstyProcess::standard(12.0);
        let cv_p = cv(&gaps(&mut poisson, 5));
        let cv_b = cv(&gaps(&mut bursty, 5));
        assert!((cv_p - 1.0).abs() < 0.05, "poisson cv {cv_p}");
        assert!(cv_b > 1.15, "bursty cv {cv_b}");
    }

    #[test]
    fn bursty_calm_rate_is_positive() {
        let p = BurstyProcess::new(12.0, 3.0, 0.25, 10.0);
        assert!(p.current_rate() > 0.0);
    }

    #[test]
    #[should_panic(expected = "calm")]
    fn impossible_burst_profile_rejected() {
        // 4× bursts for 30% of the time would require negative calm traffic.
        BurstyProcess::new(12.0, 4.0, 0.3, 10.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        PoissonProcess::new(0.0);
    }

    /// A process that emits a fixed (possibly pathological) gap sequence.
    struct CannedGaps {
        gaps: Vec<f64>,
        at: usize,
    }

    impl ArrivalProcess for CannedGaps {
        fn next_gap(&mut self, _rng: &mut SimRng) -> f64 {
            let g = self.gaps[self.at];
            self.at += 1;
            g
        }

        fn mean_rate_per_min(&self) -> f64 {
            1.0
        }
    }

    #[test]
    fn checked_gap_passes_finite_gaps_through() {
        let mut p = CannedGaps {
            gaps: vec![0.0, 1.5],
            at: 0,
        };
        let mut rng = SimRng::seed_from_u64(0);
        assert_eq!(p.checked_gap(&mut rng), 0.0);
        assert_eq!(p.checked_gap(&mut rng), 1.5);
    }

    #[test]
    #[should_panic(expected = "invalid inter-arrival gap")]
    fn checked_gap_rejects_nan() {
        let mut p = CannedGaps {
            gaps: vec![f64::NAN],
            at: 0,
        };
        p.checked_gap(&mut SimRng::seed_from_u64(0));
    }

    #[test]
    #[should_panic(expected = "invalid inter-arrival gap")]
    fn checked_gap_rejects_negative() {
        let mut p = CannedGaps {
            gaps: vec![-0.5],
            at: 0,
        };
        p.checked_gap(&mut SimRng::seed_from_u64(0));
    }

    #[test]
    #[should_panic(expected = "invalid inter-arrival gap")]
    fn checked_gap_rejects_infinity() {
        let mut p = CannedGaps {
            gaps: vec![f64::INFINITY],
            at: 0,
        };
        p.checked_gap(&mut SimRng::seed_from_u64(0));
    }

    #[test]
    fn boxed_process_forwards_trait_calls() {
        let mut boxed: Box<dyn ArrivalProcess> = Box::new(UniformProcess::new(6.0));
        let mut rng = SimRng::seed_from_u64(0);
        assert_eq!(boxed.next_gap(&mut rng), 10.0);
        assert_eq!(boxed.mean_rate_per_min(), 6.0);
    }
}
