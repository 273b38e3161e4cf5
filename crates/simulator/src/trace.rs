//! Execution trace.
//!
//! The engine records what the rest of the system reads back: one record
//! per dispatch, holding its whole timeline and its fault (audited for
//! double-booking and mined for the sequence-parallel degree per executed
//! step, Figure 11), latent-transfer records (the per-hand-off overhead of
//! Table 4) and migration records (the fleet's migrated-step audit).

use crate::gpuset::GpuSet;
use crate::time::{SimDuration, SimTime};

/// Identifier of a serving request, assigned by the workload generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// The requests a dispatch advances together, in batch order.
///
/// A lone request — the common case — is held inline, and only a
/// multi-request batch is boxed, so plans, engine dispatches, serving
/// events and [`TraceEvent::DispatchStart`] records carry a single
/// request without a heap allocation. It dereferences to `[RequestId]`,
/// so readers index, iterate and search it like a slice. Equality is
/// slice equality.
#[derive(Clone)]
pub struct Batch(Members);

#[derive(Clone)]
enum Members {
    One(RequestId),
    // Never holds exactly one id: `Batch::from` keeps that case inline.
    Many(Box<[RequestId]>),
}

// The boxed slice's non-null pointer is the niche that tells the two
// cases apart, so a batch is no wider than the box alone.
const _: () = assert!(std::mem::size_of::<Batch>() == 16);

impl Batch {
    /// A batch of one request.
    pub fn one(id: RequestId) -> Batch {
        Batch(Members::One(id))
    }
}

impl std::ops::Deref for Batch {
    type Target = [RequestId];

    fn deref(&self) -> &[RequestId] {
        match &self.0 {
            Members::One(id) => std::slice::from_ref(id),
            Members::Many(ids) => ids,
        }
    }
}

impl<'a> IntoIterator for &'a Batch {
    type Item = &'a RequestId;
    type IntoIter = std::slice::Iter<'a, RequestId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl From<Vec<RequestId>> for Batch {
    fn from(ids: Vec<RequestId>) -> Batch {
        match *ids.as_slice() {
            [id] => Batch::one(id),
            _ => Batch(Members::Many(ids.into_boxed_slice())),
        }
    }
}

impl FromIterator<RequestId> for Batch {
    fn from_iter<I: IntoIterator<Item = RequestId>>(ids: I) -> Batch {
        Batch::from(ids.into_iter().collect::<Vec<_>>())
    }
}

impl PartialEq for Batch {
    fn eq(&self, other: &Batch) -> bool {
        **self == **other
    }
}

impl Eq for Batch {}

impl std::fmt::Debug for Batch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Identifier of the tenant (workload stream) a request belongs to.
///
/// Tenancy is *attribution only*: schedulers, routers and rebalancers must
/// never branch on it (the lint's determinism pass polices this), but the
/// metrics layer groups outcomes by tenant to report per-tenant SLO
/// attainment and fleet-level fairness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl TenantId {
    /// Sentinel for requests produced before tenancy existed (synthetic
    /// single-stream workloads, hand-built test specs). Untagged requests
    /// aggregate into one pseudo-tenant in per-tenant reports.
    pub const UNTAGGED: TenantId = TenantId(u32::MAX);

    /// Whether this id is the [`TenantId::UNTAGGED`] sentinel.
    pub fn is_untagged(self) -> bool {
        self == TenantId::UNTAGGED
    }
}

impl Default for TenantId {
    fn default() -> Self {
        TenantId::UNTAGGED
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_untagged() {
            write!(f, "tenant?")
        } else {
            write!(f, "tenant{}", self.0)
        }
    }
}

/// One recorded cluster event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// One dispatch: a contiguous run of steps on a fixed GPU set,
    /// possibly batched over several requests, from its first step to the
    /// instant its GPUs free. A fault that kills it mid-flight keeps the
    /// steps completed before it (step-level checkpointing); everything
    /// else — pre-start stalls and the partially executed step — is
    /// wasted.
    DispatchStart {
        /// When execution (after stalls/warm-up) began; the fault instant
        /// for a dispatch killed before its first step.
        time: SimTime,
        /// When its GPUs free: the last step's end, or the fault instant.
        end: SimTime,
        /// Batched requests advancing together.
        requests: Batch,
        /// GPUs executing the dispatch.
        gpus: GpuSet,
        /// The member GPUs whose fault killed the dispatch; empty when it
        /// ran every step.
        down: GpuSet,
        /// Diffusion steps completed (all of them unless a fault killed
        /// the dispatch).
        steps: u32,
        /// GPU-seconds burned without producing a completed step, summed
        /// over all member GPUs; zero unless a fault killed the dispatch.
        wasted_gpu_seconds: f64,
    },
    /// A latent moved between GPU groups because the placement changed.
    LatentTransfer {
        /// When the transfer started.
        time: SimTime,
        /// The request whose latent moved.
        request: RequestId,
        /// Latent size.
        bytes: u64,
        /// Time the transfer took.
        duration: SimDuration,
    },
    /// A queued request left this cluster for another one (fleet
    /// rebalancing).
    MigrationOut {
        /// When the request was extracted.
        time: SimTime,
        /// The migrated request.
        request: RequestId,
        /// Diffusion steps it still had to run.
        remaining_steps: u32,
    },
}

/// An append-only log of [`TraceEvent`]s in the order they were recorded,
/// which for dispatch records is submit order. Each record carries the
/// simulated instants it describes. The engine writes a dispatch's record
/// when the dispatch is submitted, so its `end` lies in the future and may
/// come after the `time` of records that follow it; readers that need
/// time order sort by it.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends an event.
    pub fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// All recorded events in insertion order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total latent-transfer time charged to `request`.
    pub fn latent_transfer_total(&self, request: RequestId) -> SimDuration {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::LatentTransfer {
                    request: r,
                    duration,
                    ..
                } if *r == request => Some(*duration),
                _ => None,
            })
            .sum()
    }

    /// Number of dispatches killed by GPU faults.
    pub fn aborted_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::DispatchStart { down, .. } if !down.is_empty()))
            .count()
    }

    /// Total GPU-seconds wasted across all aborted dispatches.
    pub fn wasted_gpu_seconds(&self) -> f64 {
        // fold, not sum: `Sum for f64` seeds with -0.0, which would make a
        // clean trace report "-0.000" wasted seconds. A dispatch that ran
        // every step adds exactly +0.0.
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::DispatchStart {
                    wasted_gpu_seconds, ..
                } => Some(*wasted_gpu_seconds),
                _ => None,
            })
            .fold(0.0, |acc, w| acc + w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_queries_events() {
        let mut t = Trace::new();
        t.record(TraceEvent::DispatchStart {
            time: SimTime::ZERO,
            end: SimTime::from_millis(50),
            requests: Batch::one(RequestId(1)),
            gpus: GpuSet::contiguous(0, 2),
            down: GpuSet::EMPTY,
            steps: 5,
            wasted_gpu_seconds: 0.0,
        });
        t.record(TraceEvent::LatentTransfer {
            time: SimTime::from_millis(1),
            request: RequestId(1),
            bytes: 1024,
            duration: SimDuration::from_micros(30),
        });
        t.record(TraceEvent::LatentTransfer {
            time: SimTime::from_millis(2),
            request: RequestId(2),
            bytes: 1024,
            duration: SimDuration::from_micros(99),
        });
        assert_eq!(t.len(), 3);
        assert!(matches!(t.events()[0], TraceEvent::DispatchStart { .. }));
        assert_eq!(
            t.latent_transfer_total(RequestId(1)),
            SimDuration::from_micros(30)
        );
    }

    #[test]
    fn batch_holds_one_request_inline_and_reads_as_a_slice() {
        let one = Batch::from(vec![RequestId(7)]);
        assert_eq!(one, Batch::one(RequestId(7)));
        assert!(matches!(one.0, Members::One(RequestId(7))));
        assert_eq!(*one, [RequestId(7)]);
        let many: Batch = [3, 1, 2].map(RequestId).into_iter().collect();
        assert_eq!(*many, [RequestId(3), RequestId(1), RequestId(2)]);
        assert!(many.contains(&RequestId(1)));
        assert_ne!(many, one);
        assert!(Batch::from(Vec::new()).is_empty());
        assert_eq!(
            format!("{many:?}"),
            "[RequestId(3), RequestId(1), RequestId(2)]"
        );
    }

    #[test]
    fn empty_trace_queries() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.latent_transfer_total(RequestId(0)), SimDuration::ZERO);
        assert_eq!(t.aborted_count(), 0);
        assert_eq!(t.wasted_gpu_seconds(), 0.0);
        // Positive zero specifically: -0.0 would render as "-0.000".
        assert!(t.wasted_gpu_seconds().is_sign_positive());
    }

    #[test]
    fn abort_totals_accumulate() {
        let mut t = Trace::new();
        let down = GpuSet::single(crate::gpuset::GpuId(3));
        for (down, wasted) in [(down, 0.25), (GpuSet::EMPTY, 0.0), (down, 1.5)] {
            t.record(TraceEvent::DispatchStart {
                time: SimTime::from_millis(60),
                end: SimTime::from_millis(100),
                requests: Batch::one(RequestId(1)),
                gpus: GpuSet::contiguous(2, 2),
                down,
                steps: 4,
                wasted_gpu_seconds: wasted,
            });
        }
        assert_eq!(t.aborted_count(), 2);
        assert!((t.wasted_gpu_seconds() - 1.75).abs() < 1e-12);
    }
}
