//! Execution trace.
//!
//! The engine records what the rest of the system reads back: dispatch
//! records (audited for double-booking and mined for the sequence-parallel
//! degree per executed step, Figure 11), latent-transfer records (the
//! per-hand-off overhead of Table 4) and migration records (the fleet's
//! migrated-step audit).

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

/// Identifier of one engine dispatch (a contiguous run of steps on a fixed
/// GPU set, possibly batched over several requests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DispatchId(pub u64);

/// One recorded cluster event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A dispatch began executing.
    DispatchStart {
        /// When execution (after stalls/warm-up) began.
        time: SimTime,
        /// The dispatch identifier.
        dispatch: DispatchId,
        /// Batched requests advancing together.
        requests: Vec<RequestId>,
        /// GPUs executing the dispatch.
        gpus: GpuSet,
        /// Number of diffusion steps executed.
        steps: u32,
        /// Actual (jittered) mean per-step latency.
        per_step: SimDuration,
    },
    /// A dispatch ran all its steps.
    DispatchDone {
        /// Completion time of the last step.
        time: SimTime,
        /// The dispatch identifier.
        dispatch: DispatchId,
    },
    /// A dispatch was killed mid-flight because a member GPU went down.
    /// Steps completed before the fault are checkpointed (the trace's
    /// paired `DispatchStart` records only those); everything else —
    /// pre-start stalls and the partially executed step — is wasted.
    DispatchAborted {
        /// The fault instant (the GPUs stop here).
        time: SimTime,
        /// The aborted dispatch.
        dispatch: DispatchId,
        /// The member GPUs that were down at the fault instant.
        down: GpuSet,
        /// Diffusion steps that completed before the fault.
        completed_steps: u32,
        /// GPU-seconds burned without producing a completed step
        /// (summed over all member GPUs).
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
/// simulated instant it describes, which may lie after the record that
/// follows it: the engine records a dispatch's `DispatchDone` when the
/// dispatch is submitted, stamped with its future end time. Readers key
/// records by dispatch id or sort them by time.
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
            .filter(|e| matches!(e, TraceEvent::DispatchAborted { .. }))
            .count()
    }

    /// Total GPU-seconds wasted across all aborted dispatches.
    pub fn wasted_gpu_seconds(&self) -> f64 {
        // fold, not sum: `Sum for f64` seeds with -0.0, which would make a
        // clean trace report "-0.000" wasted seconds.
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::DispatchAborted {
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
            dispatch: DispatchId(0),
            requests: vec![RequestId(1)],
            gpus: GpuSet::contiguous(0, 2),
            steps: 5,
            per_step: SimDuration::from_millis(10),
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
        for (d, wasted) in [(0u64, 0.25), (1, 1.5)] {
            t.record(TraceEvent::DispatchAborted {
                time: SimTime::from_millis(100),
                dispatch: DispatchId(d),
                down: GpuSet::single(crate::gpuset::GpuId(3)),
                completed_steps: 4,
                wasted_gpu_seconds: wasted,
            });
        }
        assert_eq!(t.aborted_count(), 2);
        assert!((t.wasted_gpu_seconds() - 1.75).abs() < 1e-12);
    }
}
