//! The diurnal rate envelope: a sinusoidal time-warp over *any* base
//! arrival process — the repository's one diurnal model.
//!
//! Thinning a dominating Poisson process would model a daily cycle too,
//! but only a Poisson one: it cannot put a diurnal envelope *on top of*
//! an MMPP tenant or a coupled flash-crowd tenant. The envelope instead
//! warps the base process's arrival times through the cumulative
//! intensity
//!
//! ```text
//! Λ(t) = t − (a·T / 2π) · (cos(2πt/T) − 1),   Λ'(t) = 1 + a·sin(2πt/T)
//! ```
//!
//! so the instantaneous rate becomes `λ_base(t) · (1 + a·sin(2πt/T))` for
//! any base process, and over whole periods the mean is unchanged
//! (`Λ(kT) = kT`). The inverse has no closed form; it is found by
//! bisection with a fixed iteration budget — pure arithmetic, identical
//! on every platform, so the warp is bit-deterministic.

use tetriserve_simulator::rng::SimRng;
use tetriserve_workload::arrival::ArrivalProcess;

/// A sinusoidal rate envelope: amplitude `a ∈ [0, 1)` and period `T`
/// seconds. Amplitude 0 is the identity warp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalEnvelope {
    amplitude: f64,
    period_secs: f64,
}

impl DiurnalEnvelope {
    /// Creates an envelope.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ amplitude < 1` and the period is positive and
    /// finite.
    pub fn new(amplitude: f64, period_secs: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&amplitude),
            "amplitude must be in [0, 1), got {amplitude}"
        );
        assert!(
            period_secs.is_finite() && period_secs > 0.0,
            "period must be positive"
        );
        DiurnalEnvelope {
            amplitude,
            period_secs,
        }
    }

    /// The envelope's amplitude.
    pub fn amplitude(&self) -> f64 {
        self.amplitude
    }

    /// The envelope's period in seconds.
    pub fn period_secs(&self) -> f64 {
        self.period_secs
    }

    /// Cumulative intensity `Λ(t)`.
    fn cumulative(&self, t: f64) -> f64 {
        let w = 2.0 * std::f64::consts::PI / self.period_secs;
        t - self.amplitude / w * ((w * t).cos() - 1.0)
    }

    /// `Λ⁻¹(s)` by bisection. `Λ(t) − t ∈ [0, a·T/π]`, so the root lies
    /// in `[s − a·T/π, s]`; 64 halvings reach f64 resolution on any
    /// experiment-scale bracket.
    fn invert(&self, s: f64) -> f64 {
        let slack = self.amplitude * self.period_secs / std::f64::consts::PI;
        let (mut lo, mut hi) = ((s - slack).max(0.0), s);
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if self.cumulative(mid) < s {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

/// An [`ArrivalProcess`] whose base arrivals are warped through a
/// [`DiurnalEnvelope`]: the base keeps its own character (Poisson
/// memorylessness, MMPP bursts, coupled flash crowds) while its rate
/// swells and ebbs on the envelope's cycle.
#[derive(Debug)]
pub struct DiurnalModulated<P> {
    base: P,
    envelope: DiurnalEnvelope,
    /// Cumulative base position (`s`-space clock).
    base_clock: f64,
    /// Last emitted real arrival time (`t`-space clock).
    warped_clock: f64,
}

impl<P: ArrivalProcess> DiurnalModulated<P> {
    /// Wraps `base` in the envelope.
    pub fn new(base: P, envelope: DiurnalEnvelope) -> Self {
        DiurnalModulated {
            base,
            envelope,
            base_clock: 0.0,
            warped_clock: 0.0,
        }
    }
}

impl<P: ArrivalProcess> ArrivalProcess for DiurnalModulated<P> {
    fn next_gap(&mut self, rng: &mut SimRng) -> f64 {
        self.base_clock += self.base.checked_gap(rng);
        let t = self.envelope.invert(self.base_clock);
        // Λ is strictly increasing (amplitude < 1 keeps Λ' > 0), so t
        // never regresses; the clamp only absorbs bisection round-off.
        let gap = (t - self.warped_clock).max(0.0);
        self.warped_clock = t;
        gap
    }

    fn mean_rate_per_min(&self) -> f64 {
        self.base.mean_rate_per_min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetriserve_workload::arrival::{BurstyProcess, PoissonProcess, UniformProcess};

    #[test]
    fn cumulative_is_identity_at_whole_periods() {
        let e = DiurnalEnvelope::new(0.8, 600.0);
        for k in 1..5 {
            let t = k as f64 * 600.0;
            assert!((e.cumulative(t) - t).abs() < 1e-9);
        }
    }

    #[test]
    fn invert_round_trips() {
        let e = DiurnalEnvelope::new(0.7, 600.0);
        for s in [0.1, 17.3, 299.9, 600.0, 1234.5] {
            let t = e.invert(s);
            assert!((e.cumulative(t) - s).abs() < 1e-6, "Λ(Λ⁻¹({s}))");
        }
    }

    #[test]
    fn zero_amplitude_is_identity() {
        let e = DiurnalEnvelope::new(0.0, 600.0);
        let mut warped = DiurnalModulated::new(UniformProcess::new(6.0), e);
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..100 {
            let gap = warped.next_gap(&mut rng);
            assert!((gap - 10.0).abs() < 1e-6, "gap {gap}");
        }
    }

    #[test]
    fn envelope_preserves_long_run_mean() {
        let e = DiurnalEnvelope::new(0.8, 600.0);
        let mut p = DiurnalModulated::new(PoissonProcess::new(12.0), e);
        let mut rng = SimRng::seed_from_u64(2);
        let n = 100_000;
        let total: f64 = (0..n).map(|_| p.next_gap(&mut rng)).sum();
        let mean = total / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean gap {mean}");
    }

    #[test]
    fn envelope_modulates_an_mmpp_base() {
        // The whole point over thinning a Poisson process: an MMPP base
        // keeps its bursts *and* gains the diurnal cycle. Count arrivals
        // in the peak and trough half-periods.
        let e = DiurnalEnvelope::new(0.9, 1200.0);
        let mut p = DiurnalModulated::new(BurstyProcess::standard(30.0), e);
        let mut rng = SimRng::seed_from_u64(3);
        let (mut peak, mut trough) = (0usize, 0usize);
        let mut t = 0.0;
        for _ in 0..20_000 {
            t += p.next_gap(&mut rng);
            let phase = (t / 1200.0).fract();
            if phase < 0.5 {
                peak += 1; // sin > 0 half: rate above mean
            } else {
                trough += 1;
            }
        }
        assert!(
            peak as f64 > trough as f64 * 1.5,
            "peak {peak} vs trough {trough}"
        );
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn rejects_full_amplitude() {
        DiurnalEnvelope::new(1.0, 600.0);
    }
}
