//! End-to-end request trace generation.
//!
//! Combines an arrival process, a resolution mix and an SLO policy into
//! the request stream an experiment serves. The paper's default workload
//! (§6.1) is 300 prompts arriving Poisson at 12 req/min. A request carries
//! no prompt: the only reader of prompt embeddings is Nirvana's cache,
//! which draws its own from a [`PromptLibrary`](crate::prompt::PromptLibrary).

use tetriserve_costmodel::{Resolution, StageProfile};
use tetriserve_simulator::rng::SimRng;
use tetriserve_simulator::trace::TenantId;

use crate::arrival::ArrivalProcess;
use crate::mix::ResolutionMix;
use crate::slo::SloPolicy;

/// One generated request, ready to be converted into a serving
/// `RequestSpec` (`tetriserve_traffic::to_spec`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratedRequest {
    /// Sequential id in arrival order.
    pub id: u64,
    /// Originating tenant. Single-stream generators emit
    /// [`TenantId::UNTAGGED`]; the multiplex merge (and the live
    /// `TrafficSource`) stamp the stream index here.
    pub tenant: TenantId,
    /// Arrival time in seconds from experiment start.
    pub arrival_s: f64,
    /// Output resolution.
    pub resolution: Resolution,
    /// Absolute deadline in seconds (arrival + scaled SLO budget).
    pub deadline_s: f64,
    /// Stage profile (conditioning encode / frame count) for the
    /// request's pipeline. [`StageProfile::FLAT`] for classic image
    /// requests.
    pub stages: StageProfile,
}

/// Generates request traces.
///
/// The generator is a *stateful stream*: [`TraceGen::next_request`] emits
/// one request and advances the internal clock, and
/// [`TraceGen::generate`] is just `n` pulls collected into a `Vec` — so an
/// online consumer pulling requests one at a time sees the bit-identical
/// sequence an offline batch generation would have produced.
#[derive(Debug)]
pub struct TraceGen<A: ArrivalProcess> {
    arrivals: A,
    mix: ResolutionMix,
    slo: SloPolicy,
    rng: SimRng,
    clock_s: f64,
    next_id: u64,
    tenant: TenantId,
    stages: StageProfile,
}

impl<A: ArrivalProcess> TraceGen<A> {
    /// Creates a generator; `seed` controls arrivals and mix sampling.
    pub fn new(arrivals: A, mix: ResolutionMix, slo: SloPolicy, seed: u64) -> Self {
        TraceGen {
            arrivals,
            mix,
            slo,
            rng: SimRng::seed_from_u64(seed),
            clock_s: 0.0,
            next_id: 0,
            tenant: TenantId::UNTAGGED,
            stages: StageProfile::FLAT,
        }
    }

    /// Tags every emitted request with `tenant` (the multiplex merge
    /// re-stamps stream indices, but a live per-tenant source wants its
    /// identity on the request from birth).
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// Stamps every emitted request with `stages` (e.g. a video tenant's
    /// frame count + conditioning encode). Defaults to
    /// [`StageProfile::FLAT`].
    pub fn with_stages(mut self, stages: StageProfile) -> Self {
        self.stages = stages;
        self
    }

    /// Generates the next request and advances the stream.
    ///
    /// # Panics
    ///
    /// Panics if the arrival process yields a non-finite or negative gap
    /// (see [`ArrivalProcess::checked_gap`]) — a NaN arrival would
    /// silently break the multiplex merge's total order downstream.
    pub fn next_request(&mut self) -> GeneratedRequest {
        self.clock_s += self.arrivals.checked_gap(&mut self.rng);
        let resolution = self.mix.sample(&mut self.rng);
        let budget = self.slo.budget(resolution).as_secs_f64();
        let id = self.next_id;
        self.next_id += 1;
        GeneratedRequest {
            id,
            tenant: self.tenant,
            arrival_s: self.clock_s,
            resolution,
            deadline_s: self.clock_s + budget,
            stages: self.stages,
        }
    }

    /// Generates the next `n` requests.
    pub fn generate(&mut self, n: usize) -> Vec<GeneratedRequest> {
        (0..n).map(|_| self.next_request()).collect()
    }

    /// The mean arrival rate, for reports.
    pub fn mean_rate_per_min(&self) -> f64 {
        self.arrivals.mean_rate_per_min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::PoissonProcess;

    fn gen(n: usize, seed: u64) -> Vec<GeneratedRequest> {
        let mut g = TraceGen::new(
            PoissonProcess::new(12.0),
            ResolutionMix::uniform(),
            SloPolicy::paper_targets(),
            seed,
        );
        g.generate(n)
    }

    #[test]
    fn arrivals_are_increasing_and_ids_sequential() {
        let reqs = gen(300, 1);
        assert_eq!(reqs.len(), 300);
        for w in reqs.windows(2) {
            assert!(w[1].arrival_s >= w[0].arrival_s);
            assert_eq!(w[1].id, w[0].id + 1);
        }
    }

    #[test]
    fn deadlines_follow_the_slo_policy() {
        let slo = SloPolicy::paper_targets();
        for r in gen(200, 2) {
            let budget = r.deadline_s - r.arrival_s;
            assert!(
                (budget - slo.budget(r.resolution).as_secs_f64()).abs() < 1e-9,
                "{}: {budget}",
                r.resolution
            );
        }
    }

    #[test]
    fn paper_default_runs_about_25_minutes() {
        // 300 requests at 12 req/min ≈ 1500 s.
        let reqs = gen(300, 3);
        let span = reqs.last().unwrap().arrival_s;
        assert!(span > 1100.0 && span < 1900.0, "span {span}");
    }

    #[test]
    fn deterministic_given_seed() {
        assert_eq!(gen(50, 7), gen(50, 7));
        assert_ne!(gen(50, 7), gen(50, 8));
    }
}
