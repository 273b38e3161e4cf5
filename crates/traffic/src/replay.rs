//! Trace-driven replay tenants: persisted CSV traces back into the
//! live traffic stack.
//!
//! The workload crate persists request streams as plain CSV
//! ([`tetriserve_workload::trace_io`]); this module closes the loop by
//! turning a saved trace into the same artefacts the generative
//! [`TrafficModel`](crate::TrafficModel) produces — a sorted
//! [`RequestSpec`] vector or a fleet [`ReplaySource`] — so a captured
//! production day can be replayed against any cluster or fleet
//! configuration bit-for-bit.
//!
//! Replayed requests are stamped with one tenant identity and one
//! [`StageProfile`] for the whole trace (the CSV dialect predates the
//! stage pipeline and carries neither), which mirrors how tenants are
//! declared in [`TenantSpec`](crate::TenantSpec): identity and stage
//! shape are per-tenant contracts, not per-request noise.

use tetriserve_core::RequestSpec;
use tetriserve_costmodel::StageProfile;
use tetriserve_fleet::ReplaySource;
use tetriserve_simulator::time::SimTime;
use tetriserve_simulator::trace::{RequestId, TenantId};
use tetriserve_workload::trace_io::{from_csv, ParseTraceError};
use tetriserve_workload::{resolution_for_tokens, TraceRecord};

/// One replay tenant: a parsed trace plus the identity and stage shape
/// its requests carry when served.
#[derive(Debug, Clone)]
pub struct ReplayTenant {
    /// Human-readable tenant name for reports.
    pub name: String,
    /// Identity stamped on every replayed request.
    pub tenant: TenantId,
    /// Stage profile stamped on every replayed request.
    pub stages: StageProfile,
    /// The trace, in file order.
    pub records: Vec<TraceRecord>,
}

impl ReplayTenant {
    /// Parses a CSV trace (the [`trace_io`](tetriserve_workload::trace_io)
    /// dialect) into a replay tenant with the [`StageProfile::FLAT`]
    /// shape.
    ///
    /// # Errors
    ///
    /// Returns the first [`ParseTraceError`] in the input.
    pub fn from_csv(name: &str, csv: &str, tenant: TenantId) -> Result<Self, ParseTraceError> {
        Ok(ReplayTenant {
            name: name.to_string(),
            tenant,
            stages: StageProfile::FLAT,
            records: from_csv(csv)?,
        })
    }

    /// Replaces the stage profile stamped on replayed requests (e.g. to
    /// replay an image trace as a video workload study).
    pub fn with_stages(mut self, stages: StageProfile) -> Self {
        self.stages = stages;
        self
    }

    /// Builds the serving specs: every record becomes a request with
    /// this tenant's identity and stage profile, running `total_steps`
    /// denoising steps. Specs are sorted by `(arrival, id)` — the order
    /// every driver requires.
    ///
    /// # Panics
    ///
    /// Panics if a record's token count does not map to a square
    /// resolution (already validated by the CSV parser, so unreachable
    /// for traces built via [`ReplayTenant::from_csv`]).
    pub fn specs(&self, total_steps: u32) -> Vec<RequestSpec> {
        let mut specs: Vec<RequestSpec> = self
            .records
            .iter()
            .map(|r| RequestSpec {
                tenant: self.tenant,
                id: RequestId(r.id),
                resolution: resolution_for_tokens(r.tokens)
                    .unwrap_or_else(|| panic!("record {} has bad token count {}", r.id, r.tokens)),
                arrival: SimTime::from_secs_f64(r.arrival_s),
                deadline: SimTime::from_secs_f64(r.deadline_s),
                total_steps,
                stages: self.stages,
            })
            .collect();
        specs.sort_by_key(|s| (s.arrival, s.id));
        specs
    }

    /// Wraps [`ReplayTenant::specs`] in the fleet driver's
    /// [`ReplaySource`].
    pub fn source(&self, total_steps: u32) -> ReplaySource {
        ReplaySource::new(self.specs(total_steps))
    }
}

/// Merges several replay tenants into one fleet-wide arrival vector,
/// sorted by `(arrival, id)`. Ids are **not** reassigned — a replayed
/// trace keeps its recorded identities, so cross-tenant traces must use
/// disjoint id ranges (asserted).
///
/// # Panics
///
/// Panics if two tenants' traces share a request id.
pub fn merge_replays(tenants: &[ReplayTenant], total_steps: u32) -> Vec<RequestSpec> {
    let mut specs: Vec<RequestSpec> = tenants.iter().flat_map(|t| t.specs(total_steps)).collect();
    specs.sort_by_key(|s| (s.arrival, s.id));
    let mut ids: Vec<u64> = specs.iter().map(|s| s.id.0).collect();
    ids.sort_unstable();
    assert!(
        ids.windows(2).all(|w| w[0] != w[1]),
        "replay tenants must use disjoint request id ranges"
    );
    specs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::to_spec;
    use tetriserve_workload::arrival::PoissonProcess;
    use tetriserve_workload::gen::TraceGen;
    use tetriserve_workload::mix::ResolutionMix;
    use tetriserve_workload::prompt::PromptLibrary;
    use tetriserve_workload::slo::SloPolicy;
    use tetriserve_workload::trace_io::to_csv;

    fn gen_requests(n: usize, seed: u64) -> Vec<tetriserve_workload::gen::GeneratedRequest> {
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
    fn csv_round_trip_reproduces_to_spec_exactly() {
        // Generate → persist → parse → specs must equal the direct
        // generator → to_spec path field for field (arrival/deadline to
        // the CSV's microsecond print precision, identity and
        // resolution exactly).
        let requests = gen_requests(120, 42);
        let csv = to_csv(&requests.iter().map(|r| r.to_record()).collect::<Vec<_>>());
        let tenant = ReplayTenant::from_csv("replay", &csv, TenantId::UNTAGGED).expect("parse");
        let specs = tenant.specs(50);
        assert_eq!(specs.len(), requests.len());
        for (s, r) in specs.iter().zip(&requests) {
            let direct = to_spec(r, 50);
            assert_eq!(s.id, direct.id);
            assert_eq!(s.resolution, direct.resolution);
            assert_eq!(s.tenant, TenantId::UNTAGGED);
            assert_eq!(s.stages, StageProfile::FLAT);
            assert_eq!(s.total_steps, 50);
            // CSV prints 6 fractional digits of seconds; SimTime is µs
            // resolution, so the round trip is exact at that grid.
            assert!(
                (s.arrival.as_secs_f64() - direct.arrival.as_secs_f64()).abs() < 1e-6,
                "arrival {} vs {}",
                s.arrival.as_secs_f64(),
                direct.arrival.as_secs_f64()
            );
            assert!((s.deadline.as_secs_f64() - direct.deadline.as_secs_f64()).abs() < 1e-6);
        }
    }

    #[test]
    fn replay_stamps_tenant_and_stages() {
        let requests = gen_requests(10, 7);
        let csv = to_csv(&requests.iter().map(|r| r.to_record()).collect::<Vec<_>>());
        let tenant = ReplayTenant::from_csv("video-replay", &csv, TenantId(3))
            .expect("parse")
            .with_stages(StageProfile::video(8));
        for s in tenant.specs(50) {
            assert_eq!(s.tenant, TenantId(3));
            assert_eq!(s.stages, StageProfile::video(8));
        }
    }

    #[test]
    fn replay_source_feeds_the_fleet_driver_contract() {
        use tetriserve_fleet::ArrivalSource;
        let requests = gen_requests(25, 9);
        let csv = to_csv(&requests.iter().map(|r| r.to_record()).collect::<Vec<_>>());
        let tenant = ReplayTenant::from_csv("replay", &csv, TenantId::UNTAGGED).expect("parse");
        let mut src = tenant.source(50);
        let mut last = SimTime::ZERO;
        let mut n = 0;
        while let Some(t) = src.peek_time() {
            let spec = src.next_spec().expect("peeked spec");
            assert_eq!(spec.arrival, t);
            assert!(spec.arrival >= last);
            last = spec.arrival;
            n += 1;
        }
        assert_eq!(n, 25);
    }

    #[test]
    fn merge_rejects_colliding_ids() {
        let requests = gen_requests(5, 1);
        let csv = to_csv(&requests.iter().map(|r| r.to_record()).collect::<Vec<_>>());
        let a = ReplayTenant::from_csv("a", &csv, TenantId(0)).expect("parse");
        let b = ReplayTenant::from_csv("b", &csv, TenantId(1)).expect("parse");
        let result = std::panic::catch_unwind(|| merge_replays(&[a, b], 50));
        assert!(result.is_err(), "duplicate ids must be rejected");
    }

    #[test]
    fn bad_csv_is_rejected() {
        assert!(ReplayTenant::from_csv("x", "not,a,trace", TenantId(0)).is_err());
    }
}
