//! An offline clairvoyant reference scheduler ("oracle").
//!
//! The NP-hardness result (§4.1) rules out computing true optima at any
//! interesting scale, but a *clairvoyant admission planner* — one that sees
//! every arrival in advance and books contiguous capacity at the cheapest
//! deadline-feasible degree, earliest-deadline-first — gives a strong
//! reference point that online schedulers can be measured against. The
//! `oracle_gap` bench reports TetriServe's attainment as a fraction of this
//! oracle's.
//!
//! The oracle is idealised in the online direction (full future knowledge,
//! no execution jitter, no reconfiguration stalls) but conservative in the
//! packing direction (whole requests get contiguous reservations at one
//! degree; no step-level splitting), so it is a reference, not a bound in
//! either strict sense. Both properties are documented at the call sites
//! that interpret the gap.

use tetriserve_simulator::time::{SimDuration, SimTime};

/// One offline request for the oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleRequest {
    /// Arrival time.
    pub arrival: SimTime,
    /// Deadline.
    pub deadline: SimTime,
    /// Service time at each allowed degree, aligned with
    /// [`OracleInstance::degrees`].
    pub service: [Option<SimDuration>; 8],
}

/// An offline instance.
#[derive(Debug, Clone)]
pub struct OracleInstance {
    /// GPU capacity.
    pub n_gpus: usize,
    /// Allowed degrees, ascending (≤ 8 entries).
    pub degrees: Vec<usize>,
    /// The requests.
    pub requests: Vec<OracleRequest>,
}

/// The oracle's decision for one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleBooking {
    /// Reserved start time.
    pub start: SimTime,
    /// Reserved degree.
    pub degree: usize,
    /// Completion time.
    pub end: SimTime,
}

/// The oracle's plan.
#[derive(Debug, Clone)]
pub struct OraclePlan {
    /// Booking per request (`None` = sacrificed).
    pub bookings: Vec<Option<OracleBooking>>,
    /// Number of requests served within their deadlines.
    pub served: u32,
}

impl OraclePlan {
    /// Attainment ratio over the instance.
    pub fn sar(&self, total: usize) -> f64 {
        if total == 0 {
            1.0
        } else {
            f64::from(self.served) / total as f64
        }
    }
}

/// A step-function capacity profile over time.
#[derive(Debug, Clone)]
struct CapacityProfile {
    /// Break points: (time, free GPUs from this time until the next point).
    points: Vec<(SimTime, usize)>,
}

impl CapacityProfile {
    fn new(n_gpus: usize) -> Self {
        CapacityProfile {
            points: vec![(SimTime::ZERO, n_gpus)],
        }
    }

    /// Free capacity at `t`.
    fn free_at(&self, t: SimTime) -> usize {
        match self.points.binary_search_by(|&(pt, _)| pt.cmp(&t)) {
            Ok(i) => self.points[i].1,
            Err(0) => self.points[0].1,
            Err(i) => self.points[i - 1].1,
        }
    }

    /// Earliest `start ≥ from` such that `width` GPUs are free over
    /// `[start, start + dur)` and `start + dur ≤ by`.
    fn earliest_fit(
        &self,
        from: SimTime,
        dur: SimDuration,
        width: usize,
        by: SimTime,
    ) -> Option<SimTime> {
        let mut candidate = from;
        loop {
            if candidate + dur > by {
                return None;
            }
            // Scan the window for the first under-capacity break point.
            let end = candidate + dur;
            let mut blocked_at: Option<SimTime> = None;
            if self.free_at(candidate) < width {
                blocked_at = Some(candidate);
            } else {
                for &(pt, free) in &self.points {
                    if pt > candidate && pt < end && free < width {
                        blocked_at = Some(pt);
                        break;
                    }
                }
            }
            match blocked_at {
                None => return Some(candidate),
                Some(b) => {
                    // Jump to the next point after the blockage where
                    // capacity recovers.
                    let next = self
                        .points
                        .iter()
                        .find(|&&(pt, free)| pt > b && free >= width)
                        .map(|&(pt, _)| pt)?;
                    candidate = next.max(from);
                }
            }
        }
    }

    /// Reserves `width` GPUs over `[start, start + dur)`.
    ///
    /// # Panics
    ///
    /// Panics if the window lacks capacity (callers must fit first).
    fn reserve(&mut self, start: SimTime, dur: SimDuration, width: usize) {
        let end = start + dur;
        // Ensure break points exist at start and end.
        for t in [start, end] {
            if let Err(i) = self.points.binary_search_by(|&(pt, _)| pt.cmp(&t)) {
                let level = self.points[i - 1].1;
                self.points.insert(i, (t, level));
            }
        }
        for (pt, free) in self.points.iter_mut() {
            if *pt >= start && *pt < end {
                assert!(*free >= width, "reservation exceeds capacity at {pt}");
                *free -= width;
            }
        }
    }
}

/// Plans the instance: earliest-deadline-first admission, each request at
/// the cheapest degree (fewest GPU-seconds) that still meets its deadline
/// given earlier reservations; unplaceable requests are sacrificed.
///
/// # Examples
///
/// ```
/// use tetriserve_exact::oracle::{plan_oracle, OracleInstance, OracleRequest};
/// use tetriserve_simulator::time::{SimDuration, SimTime};
///
/// let mut service = [None; 8];
/// service[0] = Some(SimDuration::from_millis(800)); // SP=1
/// service[1] = Some(SimDuration::from_millis(400)); // SP=2
/// let inst = OracleInstance {
///     n_gpus: 2,
///     degrees: vec![1, 2],
///     requests: vec![OracleRequest {
///         arrival: SimTime::ZERO,
///         deadline: SimTime::from_millis(500),
///         service,
///     }],
/// };
/// let plan = plan_oracle(&inst);
/// assert_eq!(plan.served, 1);
/// assert_eq!(plan.bookings[0].unwrap().degree, 2, "only SP=2 meets 500 ms");
/// ```
pub fn plan_oracle(inst: &OracleInstance) -> OraclePlan {
    assert!(inst.degrees.len() <= 8, "oracle supports at most 8 degrees");
    let mut order: Vec<usize> = (0..inst.requests.len()).collect();
    order.sort_by_key(|&i| (inst.requests[i].deadline, inst.requests[i].arrival));

    let mut profile = CapacityProfile::new(inst.n_gpus);
    let mut bookings: Vec<Option<OracleBooking>> = vec![None; inst.requests.len()];
    let mut served = 0;

    for i in order {
        let req = &inst.requests[i];
        // Candidate (gpu_seconds, degree, start) tuples; pick min cost.
        let mut best: Option<(f64, usize, SimTime, SimDuration)> = None;
        for (di, &k) in inst.degrees.iter().enumerate() {
            let Some(Some(dur)) = req.service.get(di).copied() else {
                continue;
            };
            if k > inst.n_gpus {
                continue;
            }
            let Some(start) = profile.earliest_fit(req.arrival, dur, k, req.deadline) else {
                continue;
            };
            let cost = k as f64 * dur.as_secs_f64();
            match best {
                Some((c, ..)) if c <= cost => {}
                _ => best = Some((cost, k, start, dur)),
            }
        }
        if let Some((_, k, start, dur)) = best {
            profile.reserve(start, dur, k);
            bookings[i] = Some(OracleBooking {
                start,
                degree: k,
                end: start + dur,
            });
            served += 1;
        }
    }

    OraclePlan { bookings, served }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(arrival_ms: u64, deadline_ms: u64, t1_ms: u64) -> OracleRequest {
        // Perfect halving across degrees 1/2/4/8.
        let mut service = [None; 8];
        for (i, k) in [1u64, 2, 4, 8].into_iter().enumerate() {
            service[i] = Some(SimDuration::from_millis(t1_ms / k));
        }
        OracleRequest {
            arrival: SimTime::from_millis(arrival_ms),
            deadline: SimTime::from_millis(deadline_ms),
            service,
        }
    }

    fn instance(requests: Vec<OracleRequest>) -> OracleInstance {
        OracleInstance {
            n_gpus: 8,
            degrees: vec![1, 2, 4, 8],
            requests,
        }
    }

    #[test]
    fn relaxed_request_books_the_narrowest_degree() {
        let plan = plan_oracle(&instance(vec![req(0, 10_000, 800)]));
        assert_eq!(plan.served, 1);
        assert_eq!(plan.bookings[0].unwrap().degree, 1);
    }

    #[test]
    fn tight_request_books_a_wide_degree() {
        // 800 ms of work due in 150 ms: needs SP=8 (100 ms).
        let plan = plan_oracle(&instance(vec![req(0, 150, 800)]));
        assert_eq!(plan.served, 1);
        assert_eq!(plan.bookings[0].unwrap().degree, 8);
    }

    #[test]
    fn parallel_requests_share_capacity() {
        // Eight relaxed requests, each SP=1, all fit side by side. (The
        // service time must divide evenly by every degree, or integer
        // rounding makes wider degrees spuriously cheaper.)
        let plan = plan_oracle(&instance((0..8).map(|_| req(0, 10_000, 800)).collect()));
        assert_eq!(plan.served, 8);
        let starts: Vec<SimTime> = plan.bookings.iter().map(|b| b.unwrap().start).collect();
        assert!(starts.iter().all(|&s| s == SimTime::ZERO), "{starts:?}");
    }

    #[test]
    fn overload_sacrifices_the_minimum() {
        // Two full-node requests with the same tight window: one must die.
        let plan = plan_oracle(&instance(vec![req(0, 110, 800), req(0, 110, 800)]));
        assert_eq!(plan.served, 1);
    }

    #[test]
    fn clairvoyance_orders_around_future_arrivals() {
        // A loose request and a later tight one: the oracle books the tight
        // window first (EDF), fitting both; naive FIFO at SP=8 would not.
        let loose = req(0, 2_000, 800); // deadline 2.0 s
        let tight = req(100, 300, 800); // needs SP=8 in [100, 300]
        let plan = plan_oracle(&instance(vec![loose, tight]));
        assert_eq!(plan.served, 2, "{plan:?}");
        let b_tight = plan.bookings[1].unwrap();
        // Any sufficiently wide degree works (SP=4 and SP=8 tie on cost).
        assert!(b_tight.degree >= 4, "{b_tight:?}");
        assert!(b_tight.end <= SimTime::from_millis(300));
    }

    #[test]
    fn reservations_never_oversubscribe() {
        let plan = plan_oracle(&instance(
            (0..20).map(|i| req(i * 37, i * 37 + 600, 400)).collect(),
        ));
        // Re-check capacity from the bookings.
        let mut events: Vec<(SimTime, i64)> = Vec::new();
        for b in plan.bookings.iter().flatten() {
            events.push((b.start, b.degree as i64));
            events.push((b.end, -(b.degree as i64)));
        }
        events.sort();
        let mut level = 0;
        for (_, d) in events {
            level += d;
            assert!(level <= 8, "oversubscribed: {level}");
        }
        assert!(plan.served >= 18, "served {}", plan.served);
    }

    #[test]
    fn sar_helper() {
        let plan = plan_oracle(&instance(vec![req(0, 10_000, 100)]));
        assert!((plan.sar(1) - 1.0).abs() < 1e-12);
        assert_eq!(plan_oracle(&instance(vec![])).sar(0), 1.0);
    }
}
