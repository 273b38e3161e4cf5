//! The open-loop traffic frontend: per-tenant generators merged into one
//! live fleet arrival stream.
//!
//! [`TrafficModel`] is the declarative root: a set of [`TenantSpec`]s
//! plus an optional shared [`CouplingSpec`] for correlated flash crowds.
//! From one model you can produce:
//!
//! * [`TrafficModel::online`] — a lazy [`TrafficSource`] that pulls each
//!   tenant's next request on demand and merges streams with the same
//!   `(arrival, tenant index)` tie-break as
//!   [`tetriserve_workload::multiplex`]; wrap it in
//!   [`StreamingArrivals`] and the fleet driver consumes arrivals *as
//!   simulation advances* without ever materialising the workload;
//! * [`TrafficModel::offline`] — the classic eager generate-then-merge
//!   vector, for replay files and digests.
//!
//! Both paths build generators through one constructor and draw from the
//! same per-tenant RNG sequences, so for the same model the online
//! stream is **bit-identical** to a prefix of the offline one — the
//! determinism suite pins this. Neither draws a prompt: no fleet
//! component reads one.

use tetriserve_core::RequestSpec;
use tetriserve_fleet::ArrivalSource;
use tetriserve_simulator::time::SimTime;
use tetriserve_simulator::trace::{RequestId, TenantId};
use tetriserve_workload::arrival::ArrivalProcess;
use tetriserve_workload::gen::{GeneratedRequest, TraceGen};
use tetriserve_workload::multiplex::{merge_streams, LazyMerge};

use crate::coupler::{BurstCoupler, CoupledProcess, CouplingSpec};
use crate::tenant::TenantSpec;

/// A fleet-wide traffic description: the tenants plus the optional
/// shared burst coupler binding the `coupled` ones together.
#[derive(Debug, Clone)]
pub struct TrafficModel {
    tenants: Vec<TenantSpec>,
    coupling: Option<CouplingSpec>,
}

impl TrafficModel {
    /// A model over the given tenants with no cross-tenant coupling.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is empty.
    pub fn new(tenants: Vec<TenantSpec>) -> Self {
        assert!(
            !tenants.is_empty(),
            "traffic model needs at least one tenant"
        );
        TrafficModel {
            tenants,
            coupling: None,
        }
    }

    /// Attaches a shared burst coupler; tenants that opted in via
    /// [`TenantSpec::coupled`] surge together on its timeline.
    pub fn with_coupling(mut self, coupling: CouplingSpec) -> Self {
        self.coupling = Some(coupling);
        self
    }

    /// The tenant specs, in stream-index order (`TenantId(i)` ↔
    /// `tenants()[i]`).
    pub fn tenants(&self) -> &[TenantSpec] {
        &self.tenants
    }

    /// Builds one generator per tenant. This is the single construction
    /// path shared by [`online`](Self::online) and
    /// [`offline`](Self::offline): identical processes, identical seeds,
    /// identical RNG draw order — and a *fresh* coupler each call, so
    /// repeated builds replay the same correlated timeline.
    fn generators(&self) -> Vec<TraceGen<Box<dyn ArrivalProcess>>> {
        let coupler = self.coupling.map(BurstCoupler::new);
        self.tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let mut process = t.shape.instantiate();
                if t.coupled {
                    let coupler = coupler
                        .clone()
                        .expect("tenant opted into coupling but the model has no CouplingSpec");
                    process = Box::new(CoupledProcess::new(process, coupler));
                }
                TraceGen::new(process, t.mix.clone(), t.effective_slo(), t.seed)
                    .with_tenant(TenantId(i as u32))
                    .with_stages(t.stages)
            })
            .collect()
    }

    /// A lazy merged stream of the first `total` fleet-wide arrivals.
    pub fn online(&self, total: usize) -> TrafficSource {
        let streams = self.generators().into_iter().map(GenIter).collect();
        TrafficSource {
            merged: merge_streams(streams),
            remaining: total,
        }
    }

    /// Eagerly generates `per_tenant` requests per tenant and merges
    /// them with the same [`merge_streams`] as [`online`](Self::online).
    pub fn offline(&self, per_tenant: usize) -> Vec<GeneratedRequest> {
        let streams = self
            .generators()
            .into_iter()
            .map(|mut g| g.generate(per_tenant).into_iter())
            .collect();
        merge_streams(streams).collect()
    }
}

/// An unbounded iterator over one tenant's generator.
struct GenIter(TraceGen<Box<dyn ArrivalProcess>>);

impl Iterator for GenIter {
    type Item = GeneratedRequest;

    fn next(&mut self) -> Option<GeneratedRequest> {
        Some(self.0.next_request())
    }
}

impl std::fmt::Debug for GenIter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("GenIter")
    }
}

/// The live merged arrival stream: at most one buffered request per
/// tenant, fleet ids assigned in merge order, tenant identity stamped
/// from the stream index.
#[derive(Debug)]
pub struct TrafficSource {
    merged: LazyMerge<GenIter>,
    remaining: usize,
}

impl Iterator for TrafficSource {
    type Item = GeneratedRequest;

    fn next(&mut self) -> Option<GeneratedRequest> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.merged.next()
    }
}

/// Converts a generated request into the fleet's [`RequestSpec`],
/// carrying tenant identity and stages through. This is the one
/// conversion from a generated (or replayed) request into a spec.
pub fn to_spec(r: &GeneratedRequest, total_steps: u32) -> RequestSpec {
    RequestSpec {
        tenant: r.tenant,
        id: RequestId(r.id),
        resolution: r.resolution,
        arrival: SimTime::from_secs_f64(r.arrival_s),
        deadline: SimTime::from_secs_f64(r.deadline_s),
        total_steps,
        stages: r.stages,
    }
}

/// Adapts a [`TrafficSource`] to the fleet driver's [`ArrivalSource`]:
/// the driver peeks the next arrival time to schedule its tick, then
/// pulls the spec — generation happens online, as the clock advances.
#[derive(Debug)]
pub struct StreamingArrivals {
    source: TrafficSource,
    total_steps: u32,
    peeked: Option<RequestSpec>,
}

impl StreamingArrivals {
    /// Wraps `source`, stamping every request with `total_steps`
    /// denoising steps (the fleet's model depth).
    pub fn new(source: TrafficSource, total_steps: u32) -> Self {
        StreamingArrivals {
            source,
            total_steps,
            peeked: None,
        }
    }

    fn fill(&mut self) {
        if self.peeked.is_none() {
            self.peeked = self.source.next().map(|r| to_spec(&r, self.total_steps));
        }
    }
}

impl ArrivalSource for StreamingArrivals {
    fn peek_time(&mut self) -> Option<SimTime> {
        self.fill();
        self.peeked.as_ref().map(|s| s.arrival)
    }

    fn next_spec(&mut self) -> Option<RequestSpec> {
        self.fill();
        self.peeked.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::{ArrivalShape, PriorityTier};

    fn three_tenant_model() -> TrafficModel {
        TrafficModel::new(vec![
            TenantSpec::new("interactive", 10.0, 11).with_tier(PriorityTier::Interactive),
            TenantSpec::new("batch", 6.0, 22)
                .with_shape(ArrivalShape::Bursty {
                    mean_rate_per_min: 6.0,
                })
                .with_tier(PriorityTier::Batch),
            TenantSpec::new("flash", 8.0, 33).coupled(),
        ])
        .with_coupling(CouplingSpec::standard(0x5eed))
    }

    #[test]
    fn online_matches_offline_prefix_bit_for_bit() {
        let model = three_tenant_model();
        let total = 300;
        let online: Vec<GeneratedRequest> = model.online(total).collect();
        let offline = model.offline(total);
        assert_eq!(online.len(), total);
        for (a, b) in online.iter().zip(offline.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.tenant, b.tenant);
            assert_eq!(a.arrival_s.to_bits(), b.arrival_s.to_bits());
            assert_eq!(a.deadline_s.to_bits(), b.deadline_s.to_bits());
            assert_eq!(a.resolution, b.resolution);
            assert_eq!(a.stages, b.stages);
        }
    }

    #[test]
    fn online_stream_is_replayable() {
        let model = three_tenant_model();
        let a: Vec<GeneratedRequest> = model.online(200).collect();
        let b: Vec<GeneratedRequest> = model.online(200).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn tenants_are_stamped_by_stream_index() {
        let model = three_tenant_model();
        let mut seen = [false; 3];
        for r in model.online(200) {
            seen[r.tenant.0 as usize] = true;
        }
        assert_eq!(seen, [true, true, true]);
    }

    #[test]
    fn streaming_arrivals_peek_then_pull() {
        let model = three_tenant_model();
        let mut src = StreamingArrivals::new(model.online(10), 50);
        let mut last = SimTime::ZERO;
        for _ in 0..10 {
            let t = src.peek_time().expect("peek");
            let spec = src.next_spec().expect("spec");
            assert_eq!(spec.arrival, t);
            assert!(spec.arrival >= last, "stream must be time-ordered");
            assert_eq!(spec.total_steps, 50);
            last = spec.arrival;
        }
        assert!(src.peek_time().is_none());
        assert!(src.next_spec().is_none());
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn model_rejects_empty_tenant_list() {
        TrafficModel::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "no CouplingSpec")]
    fn coupled_tenant_without_coupler_panics() {
        let model = TrafficModel::new(vec![TenantSpec::new("t", 6.0, 1).coupled()]);
        let _ = model.online(1);
    }
}
