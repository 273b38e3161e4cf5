//! End-to-end request trace generation.
//!
//! Combines an arrival process, a resolution mix, an SLO policy and the
//! prompt library into the request stream an experiment serves. The paper's
//! default workload (§6.1) is 300 prompts arriving Poisson at 12 req/min.
//!
//! Two pulls share one stream: [`TraceGen::next_request`] draws a prompt
//! for each request, for the readers of prompt embeddings (Nirvana's cache,
//! the curated scenarios, the `prompt_cluster` of a [`TraceRecord`]);
//! [`TraceGen::next_bare`] draws none, for the fleet's streamed arrivals,
//! which never read one. The prompt library owns its RNG, so both pulls
//! yield the same requests, and interleaving them leaves every prompt the
//! library hands out unchanged.

use tetriserve_costmodel::{Resolution, StageProfile};
use tetriserve_simulator::rng::SimRng;
use tetriserve_simulator::trace::TenantId;

use crate::arrival::ArrivalProcess;
use crate::mix::ResolutionMix;
use crate::prompt::{Prompt, PromptLibrary};
use crate::slo::SloPolicy;

/// One generated request, ready to be converted into a serving
/// `RequestSpec` by the experiment harness.
#[derive(Debug, Clone, PartialEq)]
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
    /// The prompt (embedding used by cache-based acceleration).
    pub prompt: Prompt,
    /// Stage profile (conditioning encode / frame count) for the
    /// request's pipeline. [`StageProfile::FLAT`] for classic image
    /// requests.
    pub stages: StageProfile,
}

/// A generated request before its prompt is drawn: every field of a
/// [`GeneratedRequest`] but the prompt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BareRequest {
    /// Sequential id in arrival order.
    pub id: u64,
    /// Originating tenant (see [`GeneratedRequest::tenant`]).
    pub tenant: TenantId,
    /// Arrival time in seconds from experiment start.
    pub arrival_s: f64,
    /// Output resolution.
    pub resolution: Resolution,
    /// Absolute deadline in seconds (arrival + scaled SLO budget).
    pub deadline_s: f64,
    /// Stage profile for the request's pipeline.
    pub stages: StageProfile,
}

/// A serialisable summary of a generated request (embedding elided).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TraceRecord {
    /// Sequential id in arrival order.
    pub id: u64,
    /// Arrival time in seconds.
    pub arrival_s: f64,
    /// Latent token count identifying the resolution.
    pub tokens: u64,
    /// Absolute deadline in seconds.
    pub deadline_s: f64,
    /// Prompt topic cluster.
    pub prompt_cluster: usize,
}

/// Generates request traces.
///
/// The generator is a *stateful stream*: [`TraceGen::next_request`] emits
/// one request and advances the internal clock, and
/// [`TraceGen::generate`] is just `n` pulls collected into a `Vec` — so an
/// online consumer pulling requests one at a time sees the bit-identical
/// sequence an offline batch generation would have produced.
/// [`TraceGen::next_bare`] advances the same stream without drawing a
/// prompt.
#[derive(Debug)]
pub struct TraceGen<A: ArrivalProcess> {
    arrivals: A,
    mix: ResolutionMix,
    slo: SloPolicy,
    prompts: PromptLibrary,
    rng: SimRng,
    clock_s: f64,
    next_id: u64,
    tenant: TenantId,
    stages: StageProfile,
}

impl<A: ArrivalProcess> TraceGen<A> {
    /// Creates a generator; `seed` controls arrivals and mix sampling
    /// (prompt randomness is owned by the library, which draws nothing
    /// until the first [`next_request`](Self::next_request)).
    pub fn new(
        arrivals: A,
        mix: ResolutionMix,
        slo: SloPolicy,
        prompts: PromptLibrary,
        seed: u64,
    ) -> Self {
        TraceGen {
            arrivals,
            mix,
            slo,
            prompts,
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

    /// Generates the next request and its prompt, and advances the stream.
    ///
    /// # Panics
    ///
    /// Panics if the arrival process yields a non-finite or negative gap
    /// (see [`ArrivalProcess::checked_gap`]) — a NaN arrival would
    /// silently break the multiplex merge's total order downstream.
    pub fn next_request(&mut self) -> GeneratedRequest {
        let r = self.next_bare();
        GeneratedRequest {
            id: r.id,
            tenant: r.tenant,
            arrival_s: r.arrival_s,
            resolution: r.resolution,
            deadline_s: r.deadline_s,
            prompt: self.prompts.next_prompt(),
            stages: r.stages,
        }
    }

    /// Generates the next request without drawing its prompt, and
    /// advances the stream: the request [`next_request`](Self::next_request)
    /// would have returned, minus the prompt.
    ///
    /// # Panics
    ///
    /// As [`next_request`](Self::next_request).
    pub fn next_bare(&mut self) -> BareRequest {
        self.clock_s += self.arrivals.checked_gap(&mut self.rng);
        let resolution = self.mix.sample(&mut self.rng);
        let budget = self.slo.budget(resolution).as_secs_f64();
        let id = self.next_id;
        self.next_id += 1;
        BareRequest {
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

impl GeneratedRequest {
    /// The request without its prompt.
    pub fn bare(&self) -> BareRequest {
        BareRequest {
            id: self.id,
            tenant: self.tenant,
            arrival_s: self.arrival_s,
            resolution: self.resolution,
            deadline_s: self.deadline_s,
            stages: self.stages,
        }
    }

    /// Serialisable summary (embedding elided).
    pub fn to_record(&self) -> TraceRecord {
        TraceRecord {
            id: self.id,
            arrival_s: self.arrival_s,
            tokens: self.resolution.tokens(),
            deadline_s: self.deadline_s,
            prompt_cluster: self.prompt.cluster,
        }
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
            PromptLibrary::diffusiondb_like(seed),
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

    #[test]
    fn bare_pulls_yield_the_same_requests_and_leave_prompts_unchanged() {
        // Every third pull draws no prompt; the requests match a stream
        // that draws every prompt, and the prompts that are drawn are the
        // library's first ones, in order.
        let full = gen(60, 5);
        let mut g = TraceGen::new(
            PoissonProcess::new(12.0),
            ResolutionMix::uniform(),
            SloPolicy::paper_targets(),
            PromptLibrary::diffusiondb_like(5),
            5,
        );
        let mut lib = PromptLibrary::diffusiondb_like(5);
        for (i, want) in full.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(g.next_bare(), want.bare());
            } else {
                let got = g.next_request();
                assert_eq!(got.bare(), want.bare());
                assert_eq!(got.prompt, lib.next_prompt());
            }
        }
    }

    #[test]
    fn records_summarise_requests() {
        let reqs = gen(5, 4);
        let rec = reqs[0].to_record();
        assert_eq!(rec.id, reqs[0].id);
        assert_eq!(rec.tokens, reqs[0].resolution.tokens());
        assert_eq!(rec.prompt_cluster, reqs[0].prompt.cluster);
    }
}
