//! Time-series views of a serving run.
//!
//! * **Windowed SAR** — Figure 10 plots SAR over time under bursty traffic;
//!   we bucket requests by arrival time and compute per-window attainment.
//! * **Mean SP degree** — Figure 11 plots the average sequence-parallel
//!   degree TetriServe assigns over time, per resolution; we mine it from
//!   the execution trace's dispatch records.

use std::collections::BTreeMap;

use tetriserve_core::RequestOutcome;
use tetriserve_costmodel::Resolution;
use tetriserve_simulator::trace::{Trace, TraceEvent};

/// SAR per fixed-length arrival window: `(window_start_s, sar)` for every
/// window containing at least one request.
///
/// # Panics
///
/// Panics if `window_s` is not positive.
pub fn windowed_sar(outcomes: &[RequestOutcome], window_s: f64) -> Vec<(f64, f64)> {
    assert!(window_s > 0.0, "window must be positive");
    let mut buckets: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
    for o in outcomes {
        let w = (o.arrival.as_secs_f64() / window_s) as u64;
        let e = buckets.entry(w).or_insert((0, 0));
        e.1 += 1;
        if o.met_slo() {
            e.0 += 1;
        }
    }
    buckets
        .into_iter()
        .map(|(w, (m, n))| (w as f64 * window_s, m as f64 / n as f64))
        .collect()
}

/// Mean SP degree of steps *executed* in each time window, per resolution:
/// `resolution -> [(window_start_s, mean_degree)]`. Windows with no steps
/// for a resolution are omitted.
///
/// Step weight is attributed to the window containing the dispatch start;
/// dispatches are round-sized, so this matches the paper's sampling
/// granularity.
///
/// # Panics
///
/// Panics if `window_s` is not positive.
pub fn mean_sp_degree_series(
    trace: &Trace,
    resolution_of: &BTreeMap<tetriserve_simulator::trace::RequestId, Resolution>,
    window_s: f64,
) -> BTreeMap<Resolution, Vec<(f64, f64)>> {
    assert!(window_s > 0.0, "window must be positive");
    // (resolution, window) -> (Σ degree·steps, Σ steps)
    let mut acc: BTreeMap<(Resolution, u64), (u64, u64)> = BTreeMap::new();
    for e in trace.events() {
        let TraceEvent::DispatchStart {
            time,
            requests,
            gpus,
            steps,
            ..
        } = e
        else {
            continue;
        };
        let w = (time.as_secs_f64() / window_s) as u64;
        let degree = gpus.len() as u64;
        for r in requests {
            let Some(&res) = resolution_of.get(r) else {
                continue;
            };
            let entry = acc.entry((res, w)).or_insert((0, 0));
            entry.0 += degree * u64::from(*steps);
            entry.1 += u64::from(*steps);
        }
    }
    let mut out: BTreeMap<Resolution, Vec<(f64, f64)>> = BTreeMap::new();
    for ((res, w), (num, den)) in acc {
        out.entry(res)
            .or_default()
            .push((w as f64 * window_s, num as f64 / den as f64));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetriserve_simulator::gpuset::GpuSet;
    use tetriserve_simulator::time::{SimDuration, SimTime};
    use tetriserve_simulator::trace::{DispatchId, RequestId, TenantId};

    fn outcome(id: u64, arrival_s: f64, met: bool) -> RequestOutcome {
        RequestOutcome {
            tenant: TenantId::UNTAGGED,
            id: RequestId(id),
            resolution: Resolution::R512,
            arrival: SimTime::from_secs_f64(arrival_s),
            deadline: SimTime::from_secs_f64(arrival_s + 2.0),
            completion: Some(SimTime::from_secs_f64(
                arrival_s + if met { 1.0 } else { 3.0 },
            )),
            gpu_seconds: 1.0,
            steps_executed: 50,
            sp_degree_step_sum: 100,
            retries: 0,
            shed: false,
            steps_shed: 0,
            encode_done: None,
            denoise_done: None,
        }
    }

    #[test]
    fn windowed_sar_buckets_by_arrival() {
        let outcomes = vec![
            outcome(0, 1.0, true),
            outcome(1, 2.0, false),
            outcome(2, 12.0, true),
        ];
        let series = windowed_sar(&outcomes, 10.0);
        assert_eq!(series, vec![(0.0, 0.5), (10.0, 1.0)]);
    }

    #[test]
    fn sp_degree_series_from_trace() {
        let mut trace = Trace::new();
        let push = |trace: &mut Trace, t: f64, gpus: usize, steps: u32| {
            trace.record(TraceEvent::DispatchStart {
                time: SimTime::from_secs_f64(t),
                dispatch: DispatchId(0),
                requests: vec![RequestId(1)],
                gpus: GpuSet::contiguous(0, gpus),
                steps,
                per_step: SimDuration::from_millis(10),
            });
        };
        push(&mut trace, 0.5, 2, 10); // window 0: 2×10
        push(&mut trace, 0.9, 4, 10); // window 0: 4×10 -> mean 3
        push(&mut trace, 1.5, 8, 5); // window 1: mean 8
        let res_of = BTreeMap::from([(RequestId(1), Resolution::R1024)]);
        let series = mean_sp_degree_series(&trace, &res_of, 1.0);
        let points = &series[&Resolution::R1024];
        assert_eq!(points.len(), 2);
        assert!((points[0].1 - 3.0).abs() < 1e-12);
        assert!((points[1].1 - 8.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_requests_are_skipped() {
        let mut trace = Trace::new();
        trace.record(TraceEvent::DispatchStart {
            time: SimTime::ZERO,
            dispatch: DispatchId(0),
            requests: vec![RequestId(99)],
            gpus: GpuSet::contiguous(0, 2),
            steps: 1,
            per_step: SimDuration::from_millis(1),
        });
        let series = mean_sp_degree_series(&trace, &BTreeMap::new(), 1.0);
        assert!(series.is_empty());
    }
}
