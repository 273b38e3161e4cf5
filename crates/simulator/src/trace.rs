//! Execution trace.
//!
//! The engine records everything that happens on the simulated cluster. The
//! metrics crate post-processes traces into the paper's figures: dispatch
//! records carry the sequence-parallel degree per executed step (Figure 11),
//! latent-transfer records carry the per-hand-off overhead (Table 4), and
//! stall records quantify what GPU placement preservation saves (Table 5).

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
    /// A request finished every diffusion step and its VAE decode.
    RequestDone {
        /// End-to-end completion time.
        time: SimTime,
        /// The finished request.
        request: RequestId,
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
    /// One scheduler pass ran (round boundary, arrival, or completion
    /// backfill). [`Trace::sched_wall_total`] sums them into the host
    /// time spent scheduling (Table 6); `wall` is *host* time — the only
    /// field in the trace measured off the simulated clock.
    SchedPass {
        /// Simulated time of the pass.
        time: SimTime,
        /// Requests the scheduler could see (active, not finished).
        queue_depth: usize,
        /// Dispatch plans the pass emitted.
        plans: usize,
        /// Host wall-clock time spent inside `Policy::schedule`.
        wall: std::time::Duration,
    },
    /// A queued request left this cluster for another one (fleet
    /// rebalancing). The paired [`TraceEvent::MigrationIn`] appears in the
    /// *target* cluster's trace once the latent hand-off completes.
    MigrationOut {
        /// When the request was extracted.
        time: SimTime,
        /// The migrated request.
        request: RequestId,
        /// Diffusion steps it still had to run.
        remaining_steps: u32,
    },
    /// A request migrated in from another cluster finished its latent
    /// hand-off and re-entered this cluster's queue.
    MigrationIn {
        /// When the hand-off completed (extraction time + delay).
        time: SimTime,
        /// The migrated request.
        request: RequestId,
        /// Latent bytes shipped (0 for a fresh request).
        bytes: u64,
        /// The cross-cluster hand-off delay that was charged.
        delay: SimDuration,
    },
    /// A dispatch was delayed before starting (remap stall or group warm-up).
    Stall {
        /// When the stall began.
        time: SimTime,
        /// The affected dispatch.
        dispatch: DispatchId,
        /// Stall length.
        duration: SimDuration,
        /// Why the dispatch stalled.
        reason: StallReason,
    },
}

/// Why a dispatch could not start immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// The request moved to a different GPU set and had to re-establish its
    /// distributed context.
    Remap,
    /// First collective on a cold process group (NCCL channel init).
    GroupWarmup,
}

/// An append-only log of [`TraceEvent`]s in non-decreasing time order per
/// producer.
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

    /// Iterates over dispatch-start records.
    pub fn dispatch_starts(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::DispatchStart { .. }))
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

    /// Number of scheduler passes recorded.
    pub fn sched_pass_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::SchedPass { .. }))
            .count()
    }

    /// Total host wall-clock time spent inside the scheduler across all
    /// recorded passes.
    pub fn sched_wall_total(&self) -> std::time::Duration {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::SchedPass { wall, .. } => Some(*wall),
                _ => None,
            })
            .sum()
    }

    /// Number of requests migrated *out of* this cluster.
    pub fn migration_out_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::MigrationOut { .. }))
            .count()
    }

    /// Number of requests migrated *into* this cluster.
    pub fn migration_in_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::MigrationIn { .. }))
            .count()
    }

    /// Total cross-cluster hand-off delay charged to inbound migrations.
    pub fn handoff_delay_total(&self) -> SimDuration {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::MigrationIn { delay, .. } => Some(*delay),
                _ => None,
            })
            .sum()
    }

    /// Total stall time across all dispatches, broken down by reason.
    pub fn stall_totals(&self) -> (SimDuration, SimDuration) {
        let mut remap = SimDuration::ZERO;
        let mut warmup = SimDuration::ZERO;
        for e in &self.events {
            if let TraceEvent::Stall {
                duration, reason, ..
            } = e
            {
                match reason {
                    StallReason::Remap => remap += *duration,
                    StallReason::GroupWarmup => warmup += *duration,
                }
            }
        }
        (remap, warmup)
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
        assert_eq!(t.dispatch_starts().count(), 1);
        assert_eq!(
            t.latent_transfer_total(RequestId(1)),
            SimDuration::from_micros(30)
        );
    }

    #[test]
    fn stall_totals_split_by_reason() {
        let mut t = Trace::new();
        for (d, reason) in [
            (5u64, StallReason::Remap),
            (7, StallReason::GroupWarmup),
            (3, StallReason::Remap),
        ] {
            t.record(TraceEvent::Stall {
                time: SimTime::ZERO,
                dispatch: DispatchId(0),
                duration: SimDuration::from_millis(d),
                reason,
            });
        }
        let (remap, warm) = t.stall_totals();
        assert_eq!(remap, SimDuration::from_millis(8));
        assert_eq!(warm, SimDuration::from_millis(7));
    }

    #[test]
    fn sched_pass_totals() {
        let mut t = Trace::new();
        for (ms, depth, plans) in [(0u64, 4usize, 2usize), (100, 7, 3)] {
            t.record(TraceEvent::SchedPass {
                time: SimTime::from_millis(ms),
                queue_depth: depth,
                plans,
                wall: std::time::Duration::from_micros(50),
            });
        }
        assert_eq!(t.sched_pass_count(), 2);
        assert_eq!(t.sched_wall_total(), std::time::Duration::from_micros(100));
        // Other accumulators ignore scheduler passes.
        assert_eq!(t.aborted_count(), 0);
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
    fn migration_totals_accumulate() {
        let mut t = Trace::new();
        t.record(TraceEvent::MigrationOut {
            time: SimTime::from_millis(10),
            request: RequestId(1),
            remaining_steps: 30,
        });
        t.record(TraceEvent::MigrationIn {
            time: SimTime::from_millis(11),
            request: RequestId(2),
            bytes: 1 << 20,
            delay: SimDuration::from_micros(300),
        });
        t.record(TraceEvent::MigrationIn {
            time: SimTime::from_millis(12),
            request: RequestId(3),
            bytes: 0,
            delay: SimDuration::from_micros(250),
        });
        assert_eq!(t.migration_out_count(), 1);
        assert_eq!(t.migration_in_count(), 2);
        assert_eq!(t.handoff_delay_total(), SimDuration::from_micros(550));
        // Migrations are not latent transfers (those are intra-cluster).
        assert_eq!(t.latent_transfer_total(RequestId(2)), SimDuration::ZERO);
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
