//! Post-hoc schedule auditing.
//!
//! A serving run leaves a full execution trace; this module re-derives the
//! cluster timeline from it and checks the invariants every valid schedule
//! must satisfy:
//!
//! * **No GPU oversubscription** — at no instant do two dispatches share a
//!   GPU;
//! * **Step conservation** — each request executes exactly its schedule;
//! * **Sequential steps** — a request never runs two dispatches
//!   concurrently (the paper's step-dependency constraint);
//! * **Power-of-two degrees** — every dispatch width is a legal
//!   sequence-parallel degree;
//! * **Well-formed intervals** — no dispatch record ends before it starts.
//!
//! The auditor is pure trace analysis: it catches scheduler *or* engine
//! bugs that unit tests on either side would miss, and the fuzz tests run
//! it over randomized workloads. Each dispatch record carries its whole
//! interval, from its first step to the instant its GPUs free, so the
//! auditor reads each interval from one record.

use tetriserve_simulator::gpuset::GpuSet;
use tetriserve_simulator::time::SimTime;
use tetriserve_simulator::trace::{Batch, RequestId, Trace, TraceEvent};

use crate::request::RequestOutcome;

/// A violated invariant found by the auditor. A dispatch is named by its
/// position among the trace's dispatch records, 0 for the first: the
/// order the engine submitted them in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditViolation {
    /// Two dispatches overlapped on at least one GPU.
    GpuOversubscribed {
        /// The two conflicting dispatches.
        dispatches: (usize, usize),
        /// The GPUs they share.
        overlap: GpuSet,
    },
    /// A request executed a different number of steps than reported.
    StepMismatch {
        /// The request.
        request: RequestId,
        /// Steps seen in the trace.
        traced: u64,
        /// Steps reported in the outcome.
        reported: u64,
    },
    /// A request had two dispatches in flight at once.
    ConcurrentSteps {
        /// The request.
        request: RequestId,
        /// The overlapping dispatches.
        dispatches: (usize, usize),
    },
    /// A dispatch used a width that is not a power of two.
    IllegalDegree {
        /// The dispatch.
        dispatch: usize,
        /// The offending width.
        width: usize,
    },
    /// A dispatch record ends before it starts.
    InvertedDispatch {
        /// The dispatch.
        dispatch: usize,
    },
}

/// One dispatch interval, read from its record.
struct Interval<'a> {
    start: SimTime,
    end: SimTime,
    gpus: GpuSet,
    requests: &'a Batch,
    steps: u32,
}

/// Audits a trace (and optionally outcomes) for scheduling invariants.
/// Returns every violation found (empty = clean).
pub fn audit(trace: &Trace, outcomes: &[RequestOutcome]) -> Vec<AuditViolation> {
    let mut violations = Vec::new();
    // An aborted dispatch's record holds only its checkpointed steps and
    // ends at the fault, so step conservation and the overlap checks hold
    // across faults too.
    let intervals: Vec<Interval<'_>> = trace
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::DispatchStart {
                time,
                end,
                requests,
                gpus,
                steps,
                ..
            } => Some(Interval {
                start: *time,
                end: *end,
                gpus: *gpus,
                requests,
                steps: *steps,
            }),
            _ => None,
        })
        .collect();
    for (d, iv) in intervals.iter().enumerate() {
        if !iv.gpus.len().is_power_of_two() {
            violations.push(AuditViolation::IllegalDegree {
                dispatch: d,
                width: iv.gpus.len(),
            });
        }
        if iv.end < iv.start {
            violations.push(AuditViolation::InvertedDispatch { dispatch: d });
        }
    }

    // Pairwise overlap checks (dispatch counts are modest: O(n²) is fine
    // and obviously correct).
    for (i, a) in intervals.iter().enumerate() {
        for (j, b) in intervals.iter().enumerate().skip(i + 1) {
            let time_overlap = a.start < b.end && b.start < a.end;
            if !time_overlap {
                continue;
            }
            let shared = a.gpus.intersection(b.gpus);
            if !shared.is_empty() {
                violations.push(AuditViolation::GpuOversubscribed {
                    dispatches: (i, j),
                    overlap: shared,
                });
            }
            for r in a.requests {
                if b.requests.contains(r) {
                    violations.push(AuditViolation::ConcurrentSteps {
                        request: *r,
                        dispatches: (i, j),
                    });
                }
            }
        }
    }

    // Step conservation against outcomes: every (request, steps) pair in
    // request order, summed over each outcome's run of pairs.
    let mut traced_steps: Vec<(RequestId, u64)> = intervals
        .iter()
        .flat_map(|iv| iv.requests.iter().map(|&r| (r, u64::from(iv.steps))))
        .collect();
    traced_steps.sort_unstable_by_key(|&(r, _)| r);
    for o in outcomes {
        let run = &traced_steps[traced_steps.partition_point(|&(r, _)| r < o.id)..];
        let traced: u64 = run
            .iter()
            .take_while(|(r, _)| *r == o.id)
            .map(|(_, s)| s)
            .sum();
        if traced != u64::from(o.steps_executed) {
            violations.push(AuditViolation::StepMismatch {
                request: o.id,
                traced,
                reported: u64::from(o.steps_executed),
            });
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetriserve_simulator::trace::TenantId;

    /// A record of request `req` running `steps` steps on `gpus` over
    /// `[t, end)` ms.
    fn dispatch(t: u64, end: u64, req: u64, gpus: GpuSet, steps: u32) -> TraceEvent {
        TraceEvent::DispatchStart {
            time: SimTime::from_millis(t),
            end: SimTime::from_millis(end),
            requests: Batch::one(RequestId(req)),
            gpus,
            down: GpuSet::EMPTY,
            steps,
            wasted_gpu_seconds: 0.0,
        }
    }

    fn trace_of(records: impl IntoIterator<Item = TraceEvent>) -> Trace {
        let mut trace = Trace::new();
        for r in records {
            trace.record(r);
        }
        trace
    }

    #[test]
    fn clean_trace_passes() {
        let trace = trace_of([
            dispatch(0, 50, 1, GpuSet::contiguous(0, 2), 5),
            dispatch(50, 100, 1, GpuSet::contiguous(2, 2), 5),
        ]);
        assert!(audit(&trace, &[]).is_empty());
    }

    #[test]
    fn detects_gpu_oversubscription() {
        let trace = trace_of([
            dispatch(0, 50, 1, GpuSet::contiguous(0, 4), 5),
            dispatch(10, 60, 2, GpuSet::contiguous(2, 4), 5),
        ]);
        let v = audit(&trace, &[]);
        assert!(
            v.iter().any(
                |x| matches!(x, AuditViolation::GpuOversubscribed { dispatches: (0, 1), overlap }
                    if *overlap == GpuSet::contiguous(2, 2))
            ),
            "{v:?}"
        );
    }

    #[test]
    fn back_to_back_on_same_gpus_is_legal() {
        let trace = trace_of([
            dispatch(0, 50, 1, GpuSet::contiguous(0, 2), 5),
            dispatch(50, 100, 2, GpuSet::contiguous(0, 2), 5),
        ]);
        assert!(
            audit(&trace, &[]).is_empty(),
            "touching intervals do not overlap"
        );
    }

    #[test]
    fn detects_concurrent_steps_of_one_request() {
        let trace = trace_of([
            dispatch(0, 50, 7, GpuSet::contiguous(0, 2), 5),
            dispatch(10, 60, 7, GpuSet::contiguous(4, 2), 5),
        ]);
        let v = audit(&trace, &[]);
        assert!(
            v.iter().any(
                |x| matches!(x, AuditViolation::ConcurrentSteps { request, .. }
                    if *request == RequestId(7))
            ),
            "{v:?}"
        );
    }

    #[test]
    fn detects_step_mismatch() {
        let trace = trace_of([
            dispatch(0, 50, 1, GpuSet::contiguous(0, 1), 5),
            dispatch(50, 80, 2, GpuSet::contiguous(0, 1), 3),
            dispatch(80, 90, 1, GpuSet::contiguous(0, 1), 1),
        ]);
        let outcome = |id: u64, steps_executed: u32| RequestOutcome {
            tenant: TenantId::UNTAGGED,
            id: RequestId(id),
            resolution: tetriserve_costmodel::Resolution::R256,
            arrival: SimTime::ZERO,
            deadline: SimTime::from_millis(100),
            completion: Some(SimTime::from_millis(95)),
            gpu_seconds: 0.1,
            steps_executed,
            sp_degree_step_sum: u64::from(steps_executed),
            retries: 0,
            shed: false,
            steps_shed: 0,
            encode_done: None,
            denoise_done: None,
        };
        // Request 1 ran 5 + 1 steps in two records but reports 7; request
        // 2 reports its 3; request 3 reports 2 it never ran.
        let v = audit(&trace, &[outcome(1, 7), outcome(2, 3), outcome(3, 2)]);
        assert_eq!(
            v,
            [
                AuditViolation::StepMismatch {
                    request: RequestId(1),
                    traced: 6,
                    reported: 7,
                },
                AuditViolation::StepMismatch {
                    request: RequestId(3),
                    traced: 0,
                    reported: 2,
                },
            ]
        );
    }

    #[test]
    fn aborted_dispatch_closes_its_interval() {
        // Dispatch 0 is killed by a fault at t = 30 after 2 checkpointed
        // steps (its record reports steps = 2 and ends at the fault);
        // dispatch 1 retries on other GPUs.
        let aborted = |gpus| TraceEvent::DispatchStart {
            time: SimTime::ZERO,
            end: SimTime::from_millis(30),
            requests: Batch::one(RequestId(1)),
            gpus,
            down: GpuSet::contiguous(0, 1),
            steps: 2,
            wasted_gpu_seconds: 0.02,
        };
        let trace = trace_of([
            aborted(GpuSet::contiguous(0, 2)),
            dispatch(30, 80, 1, GpuSet::contiguous(4, 2), 3),
        ]);
        assert!(audit(&trace, &[]).is_empty(), "{:?}", audit(&trace, &[]));
        // And the aborted interval still participates in overlap checks.
        let bad = trace_of([
            aborted(GpuSet::contiguous(0, 2)),
            dispatch(10, 40, 2, GpuSet::contiguous(1, 2), 2),
        ]);
        let v = audit(&bad, &[]);
        assert!(
            v.iter()
                .any(|x| matches!(x, AuditViolation::GpuOversubscribed { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn detects_inverted_and_illegal_dispatches() {
        let trace = trace_of([
            dispatch(0, 10, 1, GpuSet::contiguous(0, 3), 5), // width 3!
            dispatch(40, 20, 2, GpuSet::contiguous(4, 2), 5), // ends first
        ]);
        let v = audit(&trace, &[]);
        assert_eq!(
            v,
            [
                AuditViolation::IllegalDegree {
                    dispatch: 0,
                    width: 3
                },
                AuditViolation::InvertedDispatch { dispatch: 1 },
            ]
        );
    }
}
