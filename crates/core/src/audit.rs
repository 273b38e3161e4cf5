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
//!   sequence-parallel degree.
//!
//! The auditor is pure trace analysis: it catches scheduler *or* engine
//! bugs that unit tests on either side would miss, and the fuzz tests run
//! it over randomized workloads.

use std::collections::{BTreeMap, HashMap};

use tetriserve_simulator::gpuset::GpuSet;
use tetriserve_simulator::time::SimTime;
use tetriserve_simulator::trace::{Batch, DispatchId, RequestId, Trace, TraceEvent};

use crate::request::RequestOutcome;

/// A violated invariant found by the auditor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditViolation {
    /// Two dispatches overlapped on at least one GPU.
    GpuOversubscribed {
        /// The two conflicting dispatches.
        dispatches: (DispatchId, DispatchId),
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
        dispatches: (DispatchId, DispatchId),
    },
    /// A dispatch used a width that is not a power of two.
    IllegalDegree {
        /// The dispatch.
        dispatch: DispatchId,
        /// The offending width.
        width: usize,
    },
    /// A dispatch-start without a matching dispatch-done (or vice versa).
    UnbalancedDispatch {
        /// The dispatch.
        dispatch: DispatchId,
    },
}

/// One reconstructed dispatch interval.
#[derive(Debug, Clone)]
struct Interval {
    id: DispatchId,
    start: SimTime,
    end: SimTime,
    gpus: GpuSet,
    requests: Batch,
    steps: u32,
}

/// Audits a trace (and optionally outcomes) for scheduling invariants.
/// Returns every violation found (empty = clean).
pub fn audit(trace: &Trace, outcomes: &[RequestOutcome]) -> Vec<AuditViolation> {
    let mut violations = Vec::new();
    // Ordered map: leftover open dispatches are iterated below to emit
    // violations, and that report order must not depend on hash order.
    let mut open: BTreeMap<DispatchId, Interval> = BTreeMap::new();
    let mut closed: Vec<Interval> = Vec::new();

    for e in trace.events() {
        match e {
            TraceEvent::DispatchStart {
                time,
                dispatch,
                requests,
                gpus,
                steps,
                ..
            } => {
                if !gpus.len().is_power_of_two() {
                    violations.push(AuditViolation::IllegalDegree {
                        dispatch: *dispatch,
                        width: gpus.len(),
                    });
                }
                open.insert(
                    *dispatch,
                    Interval {
                        id: *dispatch,
                        start: *time,
                        end: SimTime::MAX,
                        gpus: *gpus,
                        requests: requests.clone(),
                        steps: *steps,
                    },
                );
            }
            // An abort closes its interval just like a completion: the
            // matching DispatchStart already records only the checkpointed
            // steps, so step conservation holds across faults too.
            TraceEvent::DispatchDone { time, dispatch }
            | TraceEvent::DispatchAborted { time, dispatch, .. } => match open.remove(dispatch) {
                Some(mut iv) => {
                    iv.end = *time;
                    closed.push(iv);
                }
                None => violations.push(AuditViolation::UnbalancedDispatch {
                    dispatch: *dispatch,
                }),
            },
            _ => {}
        }
    }
    for (id, _) in open {
        violations.push(AuditViolation::UnbalancedDispatch { dispatch: id });
    }

    // Pairwise overlap checks (dispatch counts are modest: O(n²) is fine
    // and obviously correct).
    for (i, a) in closed.iter().enumerate() {
        for b in &closed[i + 1..] {
            let time_overlap = a.start < b.end && b.start < a.end;
            if !time_overlap {
                continue;
            }
            let shared = a.gpus.intersection(b.gpus);
            if !shared.is_empty() {
                violations.push(AuditViolation::GpuOversubscribed {
                    dispatches: (a.id, b.id),
                    overlap: shared,
                });
            }
            for r in &a.requests {
                if b.requests.contains(r) {
                    violations.push(AuditViolation::ConcurrentSteps {
                        request: *r,
                        dispatches: (a.id, b.id),
                    });
                }
            }
        }
    }

    // Step conservation against outcomes. Hash order never escapes this
    // map: it is entry-accumulated then point-queried per outcome.
    let mut traced_steps: HashMap<RequestId, u64> = HashMap::new();
    for iv in &closed {
        for r in &iv.requests {
            *traced_steps.entry(*r).or_default() += u64::from(iv.steps);
        }
    }
    for o in outcomes {
        let traced = traced_steps.get(&o.id).copied().unwrap_or(0);
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
    use tetriserve_simulator::time::SimDuration;
    use tetriserve_simulator::trace::TenantId;

    fn start(t: u64, d: u64, req: u64, gpus: GpuSet, steps: u32) -> TraceEvent {
        TraceEvent::DispatchStart {
            time: SimTime::from_millis(t),
            dispatch: DispatchId(d),
            requests: Batch::one(RequestId(req)),
            gpus,
            steps,
            per_step: SimDuration::from_millis(10),
        }
    }

    fn done(t: u64, d: u64) -> TraceEvent {
        TraceEvent::DispatchDone {
            time: SimTime::from_millis(t),
            dispatch: DispatchId(d),
        }
    }

    #[test]
    fn clean_trace_passes() {
        let mut trace = Trace::new();
        trace.record(start(0, 0, 1, GpuSet::contiguous(0, 2), 5));
        trace.record(done(50, 0));
        trace.record(start(50, 1, 1, GpuSet::contiguous(2, 2), 5));
        trace.record(done(100, 1));
        assert!(audit(&trace, &[]).is_empty());
    }

    #[test]
    fn detects_gpu_oversubscription() {
        let mut trace = Trace::new();
        trace.record(start(0, 0, 1, GpuSet::contiguous(0, 4), 5));
        trace.record(start(10, 1, 2, GpuSet::contiguous(2, 4), 5));
        trace.record(done(50, 0));
        trace.record(done(60, 1));
        let v = audit(&trace, &[]);
        assert!(
            v.iter().any(
                |x| matches!(x, AuditViolation::GpuOversubscribed { overlap, .. }
                    if *overlap == GpuSet::contiguous(2, 2))
            ),
            "{v:?}"
        );
    }

    #[test]
    fn back_to_back_on_same_gpus_is_legal() {
        let mut trace = Trace::new();
        trace.record(start(0, 0, 1, GpuSet::contiguous(0, 2), 5));
        trace.record(done(50, 0));
        trace.record(start(50, 1, 2, GpuSet::contiguous(0, 2), 5));
        trace.record(done(100, 1));
        assert!(
            audit(&trace, &[]).is_empty(),
            "touching intervals do not overlap"
        );
    }

    #[test]
    fn detects_concurrent_steps_of_one_request() {
        let mut trace = Trace::new();
        trace.record(start(0, 0, 7, GpuSet::contiguous(0, 2), 5));
        trace.record(start(10, 1, 7, GpuSet::contiguous(4, 2), 5));
        trace.record(done(50, 0));
        trace.record(done(60, 1));
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
        let mut trace = Trace::new();
        trace.record(start(0, 0, 1, GpuSet::contiguous(0, 1), 5));
        trace.record(done(50, 0));
        let outcome = RequestOutcome {
            tenant: TenantId::UNTAGGED,
            id: RequestId(1),
            resolution: tetriserve_costmodel::Resolution::R256,
            arrival: SimTime::ZERO,
            deadline: SimTime::from_millis(100),
            completion: Some(SimTime::from_millis(60)),
            gpu_seconds: 0.1,
            steps_executed: 7, // trace says 5
            sp_degree_step_sum: 7,
            retries: 0,
            shed: false,
            steps_shed: 0,
            encode_done: None,
            denoise_done: None,
        };
        let v = audit(&trace, &[outcome]);
        assert!(
            v.iter().any(|x| matches!(
                x,
                AuditViolation::StepMismatch {
                    traced: 5,
                    reported: 7,
                    ..
                }
            )),
            "{v:?}"
        );
    }

    #[test]
    fn aborted_dispatch_closes_its_interval() {
        let mut trace = Trace::new();
        // Dispatch 0 is killed by a fault at t = 30 after 2 checkpointed
        // steps (its start event already reports steps = 2); dispatch 1
        // retries on other GPUs.
        trace.record(start(0, 0, 1, GpuSet::contiguous(0, 2), 2));
        trace.record(TraceEvent::DispatchAborted {
            time: SimTime::from_millis(30),
            dispatch: DispatchId(0),
            down: GpuSet::contiguous(0, 1),
            completed_steps: 2,
            wasted_gpu_seconds: 0.02,
        });
        trace.record(start(30, 1, 1, GpuSet::contiguous(4, 2), 3));
        trace.record(done(80, 1));
        assert!(audit(&trace, &[]).is_empty(), "{:?}", audit(&trace, &[]));
        // And the aborted interval still participates in overlap checks.
        let mut bad = Trace::new();
        bad.record(start(0, 0, 1, GpuSet::contiguous(0, 2), 2));
        bad.record(start(10, 1, 2, GpuSet::contiguous(1, 2), 2));
        bad.record(TraceEvent::DispatchAborted {
            time: SimTime::from_millis(30),
            dispatch: DispatchId(0),
            down: GpuSet::contiguous(0, 1),
            completed_steps: 2,
            wasted_gpu_seconds: 0.0,
        });
        bad.record(done(40, 1));
        let v = audit(&bad, &[]);
        assert!(
            v.iter()
                .any(|x| matches!(x, AuditViolation::GpuOversubscribed { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn detects_unbalanced_and_illegal_dispatches() {
        let mut trace = Trace::new();
        trace.record(start(0, 0, 1, GpuSet::contiguous(0, 3), 5)); // width 3!
        trace.record(done(10, 9)); // never started
        let v = audit(&trace, &[]);
        assert!(v
            .iter()
            .any(|x| matches!(x, AuditViolation::IllegalDegree { width: 3, .. })));
        assert!(v.iter().any(
            |x| matches!(x, AuditViolation::UnbalancedDispatch { dispatch } if dispatch.0 == 9)
        ));
        assert!(v.iter().any(
            |x| matches!(x, AuditViolation::UnbalancedDispatch { dispatch } if dispatch.0 == 0)
        ));
    }
}
