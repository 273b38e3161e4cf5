//! Tenant specifications: who is sending traffic, at what rate and
//! shape, against which SLO class.
//!
//! A [`TenantSpec`] is a declarative description of one tenant's
//! open-loop stream — arrival shape, resolution mix, SLO class and
//! priority tier — plus an opt-in flag that ties it to the fleet-wide
//! shared [`BurstCoupler`](crate::coupler::BurstCoupler). The spec is
//! pure data; [`TrafficModel`](crate::source::TrafficModel) instantiates
//! the actual generators so that online and offline generation share one
//! construction path (and therefore one RNG draw sequence).

use tetriserve_costmodel::StageProfile;
use tetriserve_workload::arrival::{ArrivalProcess, BurstyProcess, PoissonProcess, UniformProcess};
use tetriserve_workload::mix::ResolutionMix;
use tetriserve_workload::slo::SloPolicy;

/// Service class a tenant pays for. The tier scales the tenant's SLO
/// budgets — attribution and accounting only; schedulers and routers
/// still see plain deadlines and never branch on the tier itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PriorityTier {
    /// Latency-sensitive product traffic: paper-default SLO budgets.
    Interactive,
    /// Default class: 1.5× the paper budgets.
    Standard,
    /// Throughput-oriented background work: 2.5× budgets.
    Batch,
}

impl PriorityTier {
    /// Multiplier applied on top of the tenant's own [`SloPolicy`] scale.
    pub fn slo_scale(self) -> f64 {
        match self {
            PriorityTier::Interactive => 1.0,
            PriorityTier::Standard => 1.5,
            PriorityTier::Batch => 2.5,
        }
    }

    /// Stable lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            PriorityTier::Interactive => "interactive",
            PriorityTier::Standard => "standard",
            PriorityTier::Batch => "batch",
        }
    }
}

/// Declarative arrival-process shape; instantiated per tenant so each
/// stream owns an independent process (and the generator its own RNG).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalShape {
    /// Memoryless arrivals at the given req/min rate.
    Poisson {
        /// Mean arrival rate, requests per minute.
        rate_per_min: f64,
    },
    /// Evenly spaced arrivals at the given req/min rate.
    Uniform {
        /// Arrival rate, requests per minute.
        rate_per_min: f64,
    },
    /// MMPP bursty arrivals (workload crate's `standard` profile) with
    /// the given long-run mean rate.
    Bursty {
        /// Long-run mean arrival rate, requests per minute.
        mean_rate_per_min: f64,
    },
}

impl ArrivalShape {
    /// Builds a fresh process for this shape.
    pub fn instantiate(self) -> Box<dyn ArrivalProcess> {
        match self {
            ArrivalShape::Poisson { rate_per_min } => Box::new(PoissonProcess::new(rate_per_min)),
            ArrivalShape::Uniform { rate_per_min } => Box::new(UniformProcess::new(rate_per_min)),
            ArrivalShape::Bursty { mean_rate_per_min } => {
                Box::new(BurstyProcess::standard(mean_rate_per_min))
            }
        }
    }

    /// The shape's long-run mean rate in requests per minute.
    pub fn mean_rate_per_min(self) -> f64 {
        match self {
            ArrivalShape::Poisson { rate_per_min } | ArrivalShape::Uniform { rate_per_min } => {
                rate_per_min
            }
            ArrivalShape::Bursty { mean_rate_per_min } => mean_rate_per_min,
        }
    }
}

/// One tenant's traffic contract.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Human-readable tenant name for reports.
    pub name: String,
    /// Arrival-process shape.
    pub shape: ArrivalShape,
    /// Resolution mix the tenant requests.
    pub mix: ResolutionMix,
    /// Base SLO policy before the tier multiplier.
    pub slo: SloPolicy,
    /// Service class (scales the SLO budgets).
    pub tier: PriorityTier,
    /// Per-tenant RNG seed: arrival gaps and mix samples.
    pub seed: u64,
    /// Whether this tenant's stream is warped by the model's shared
    /// burst coupler (correlated flash crowds across tenants).
    pub coupled: bool,
    /// Stage profile every request in this tenant's stream carries:
    /// [`StageProfile::FLAT`] for classic image tenants, a multi-frame
    /// profile with a conditioning encode for video tenants.
    pub stages: StageProfile,
}

impl TenantSpec {
    /// A standard-tier Poisson tenant with paper SLO targets and a
    /// uniform mix — the neutral starting point for builder tweaks.
    pub fn new(name: &str, rate_per_min: f64, seed: u64) -> Self {
        TenantSpec {
            name: name.to_string(),
            shape: ArrivalShape::Poisson { rate_per_min },
            mix: ResolutionMix::uniform(),
            slo: SloPolicy::paper_targets(),
            tier: PriorityTier::Standard,
            seed,
            coupled: false,
            stages: StageProfile::FLAT,
        }
    }

    /// Replaces the arrival shape.
    pub fn with_shape(mut self, shape: ArrivalShape) -> Self {
        self.shape = shape;
        self
    }

    /// Replaces the resolution mix.
    pub fn with_mix(mut self, mix: ResolutionMix) -> Self {
        self.mix = mix;
        self
    }

    /// Replaces the base SLO policy.
    pub fn with_slo(mut self, slo: SloPolicy) -> Self {
        self.slo = slo;
        self
    }

    /// Sets the service tier.
    pub fn with_tier(mut self, tier: PriorityTier) -> Self {
        self.tier = tier;
        self
    }

    /// Opts this tenant into the model's shared burst coupler.
    pub fn coupled(mut self) -> Self {
        self.coupled = true;
        self
    }

    /// Replaces the stage profile.
    pub fn with_stages(mut self, stages: StageProfile) -> Self {
        self.stages = stages;
        self
    }

    /// Marks this as a video tenant: every request denoises and decodes
    /// `frames` frames and pays a conditioning-encode stage up front.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero.
    pub fn video(mut self, frames: u32) -> Self {
        self.stages = StageProfile::video(frames);
        self
    }

    /// The SLO policy the tenant's requests actually carry: the base
    /// policy scaled by the tier multiplier.
    pub fn effective_slo(&self) -> SloPolicy {
        self.slo.scaled(self.tier.slo_scale())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetriserve_costmodel::Resolution;

    #[test]
    fn tier_scales_slo_budgets() {
        let spec = TenantSpec::new("batch", 6.0, 7).with_tier(PriorityTier::Batch);
        let base = spec.slo.budget(Resolution::R512).as_secs_f64();
        let eff = spec.effective_slo().budget(Resolution::R512).as_secs_f64();
        assert!((eff - base * 2.5).abs() < 1e-9, "{eff} vs {base}");
    }

    #[test]
    fn interactive_tier_is_identity() {
        let spec = TenantSpec::new("prod", 6.0, 7).with_tier(PriorityTier::Interactive);
        let base = spec.slo.budget(Resolution::R1024).as_secs_f64();
        let eff = spec.effective_slo().budget(Resolution::R1024).as_secs_f64();
        assert!((eff - base).abs() < 1e-9);
    }

    #[test]
    fn shape_reports_mean_rate() {
        assert!(
            (ArrivalShape::Bursty {
                mean_rate_per_min: 9.0
            }
            .mean_rate_per_min()
                - 9.0)
                .abs()
                < 1e-12
        );
        let p = ArrivalShape::Poisson { rate_per_min: 12.0 }.instantiate();
        assert!((p.mean_rate_per_min() - 12.0).abs() < 1e-9);
    }
}
