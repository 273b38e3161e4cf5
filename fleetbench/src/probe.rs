//! Timing shims around the library's public seams.
//!
//! The traced run wraps the arrival source, the router, every cluster's
//! policy and the rebalancer in the types below. Each wrapper forwards to
//! the wrapped value unchanged and records, per call, host nanoseconds and
//! heap allocations (deltas of [`alloc::count`]), plus a [`Span`] kept in
//! memory until the run ends. The admission/feasibility work has no seam of
//! its own: it is the gap between `next_spec` returning and `route` being
//! entered, in which the driver sums backlogs and asks every cluster for
//! `load` and `admission_feasible`.
//!
//! Nothing here changes a decision, so a traced run's digests must equal
//! the untraced run's; the benchmark checks that on every run.

use std::cell::RefCell;
use std::time::Instant;

use tetriserve_core::{DispatchPlan, Policy, PolicyEvent, RequestSpec, SchedContext};
use tetriserve_fleet::{
    ArrivalSource, ClusterView, FleetOracle, MigrationDecision, Rebalancer, RouteDecision, Router,
};
use tetriserve_simulator::time::{SimDuration, SimTime};

use crate::alloc;
use crate::workloads::Inputs;

/// A timed seam.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `ArrivalSource::peek_time` and `next_spec`.
    Source,
    /// The gap from `next_spec` returning to `route` being entered.
    Admission,
    /// `Router::route`.
    Router,
    /// `Policy::schedule`, on every cluster.
    Policy,
    /// `Rebalancer::plan`.
    Rebalance,
}

impl Layer {
    /// Every layer, in index order.
    pub const ALL: [Layer; 5] = [
        Layer::Source,
        Layer::Admission,
        Layer::Router,
        Layer::Policy,
        Layer::Rebalance,
    ];

    /// The name spans and reports use.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Source => "source",
            Layer::Admission => "admission",
            Layer::Router => "router",
            Layer::Policy => "policy",
            Layer::Rebalance => "rebalance",
        }
    }
}

/// Accumulated cost of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerStat {
    /// Host nanoseconds inside the layer.
    pub ns: u64,
    /// Timed calls (for `Admission`: arrivals whose gap was measured).
    pub calls: u64,
    /// Heap allocations made inside the layer.
    pub allocs: u64,
}

/// One timed call. Times are nanoseconds since the traced run started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer the call belongs to.
    pub layer: Layer,
    /// Start of the call.
    pub start_ns: u64,
    /// End of the call.
    pub end_ns: u64,
    /// The request the call handled (source, admission, router).
    pub request: Option<u64>,
    /// The cluster the call ran on (policy).
    pub cluster: Option<u32>,
}

/// Decision counts observed at the seams.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Requests the source handed out.
    pub sent: u64,
    /// Route decisions that shed the request fleet-wide.
    pub route_sheds: u64,
    /// Cluster views presented to the router.
    pub views: u64,
    /// Views whose cluster passed the EDF admission test.
    pub feasible_views: u64,
    /// Dispatch plans the policies returned.
    pub plans: u64,
    /// `schedule` calls that returned at least one plan.
    pub useful_calls: u64,
}

/// Everything one traced run recorded.
#[derive(Debug, Default)]
pub struct Profile {
    /// Per-layer totals, indexed by `Layer as usize`.
    pub layers: [LayerStat; 5],
    /// Decision counts.
    pub counts: Counts,
    /// Spans of every call except `peek_time`, which the driver makes once
    /// per loop iteration and which carries no request.
    pub spans: Vec<Span>,
    /// Allocations the recorder itself made (span storage growth); they
    /// happen outside every seam and are not the loop's.
    pub probe_allocs: u64,
}

impl Profile {
    /// One layer's totals.
    pub fn layer(&self, layer: Layer) -> LayerStat {
        self.layers[layer as usize]
    }

    /// Host nanoseconds inside every timed seam.
    pub fn seam_ns(&self) -> u64 {
        self.layers.iter().map(|l| l.ns).sum()
    }

    /// Allocations inside every timed seam.
    pub fn seam_allocs(&self) -> u64 {
        self.layers.iter().map(|l| l.allocs).sum()
    }
}

#[derive(Clone, Copy)]
struct Mark {
    at: Instant,
    allocs: u64,
}

fn mark() -> Mark {
    Mark {
        allocs: alloc::count(),
        at: Instant::now(),
    }
}

struct Recorder {
    origin: Instant,
    profile: Profile,
    /// Where the current arrival's admission gap began.
    gap: Option<Mark>,
}

impl Recorder {
    /// Adds one call's cost to its layer.
    fn add(&mut self, layer: Layer, from: Mark, to: Mark) {
        let stat = &mut self.profile.layers[layer as usize];
        stat.ns += nanos(to.at - from.at);
        stat.calls += 1;
        stat.allocs += to.allocs - from.allocs;
    }

    /// Adds one call's cost to its layer and records its span.
    fn close(
        &mut self,
        layer: Layer,
        from: Mark,
        to: Mark,
        request: Option<u64>,
        cluster: Option<u32>,
    ) {
        self.add(layer, from, to);
        let before = alloc::count();
        self.profile.spans.push(Span {
            layer,
            start_ns: nanos(from.at - self.origin),
            end_ns: nanos(to.at - self.origin),
            request,
            cluster,
        });
        self.profile.probe_allocs += alloc::count() - before;
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

fn with(f: impl FnOnce(&mut Recorder)) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            f(rec);
        }
    });
}

/// Starts recording on this thread, discarding any earlier recording.
pub fn begin() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            profile: Profile::default(),
            gap: None,
        });
    });
}

/// Stops recording and returns what was recorded (empty if nothing was
/// being recorded).
pub fn end() -> Profile {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.profile)
            .unwrap_or_default()
    })
}

/// Wraps every seam of `inputs` in its timing shim.
pub fn instrument(inputs: Inputs) -> Inputs {
    Inputs {
        clusters: inputs
            .clusters
            .into_iter()
            .enumerate()
            .map(|(i, mut c)| {
                c.policy = Box::new(TimedPolicy {
                    inner: c.policy,
                    cluster: u32::try_from(i).expect("cluster index fits u32"),
                });
                c
            })
            .collect(),
        source: Box::new(TimedSource(inputs.source)),
        outages: inputs.outages,
        rebalancer: inputs
            .rebalancer
            .map(|r| Box::new(TimedRebalancer(r)) as Box<dyn Rebalancer>),
    }
}

/// Times the arrival source and opens each arrival's admission gap.
pub struct TimedSource(pub Box<dyn ArrivalSource>);

impl ArrivalSource for TimedSource {
    fn peek_time(&mut self) -> Option<SimTime> {
        let from = mark();
        let t = self.0.peek_time();
        let to = mark();
        with(|rec| rec.add(Layer::Source, from, to));
        t
    }

    fn next_spec(&mut self) -> Option<RequestSpec> {
        let from = mark();
        let spec = self.0.next_spec();
        let to = mark();
        with(|rec| {
            rec.close(Layer::Source, from, to, spec.map(|s| s.id.0), None);
            if spec.is_some() {
                rec.profile.counts.sent += 1;
                rec.gap = Some(mark());
            }
        });
        spec
    }
}

/// Times the router, closing the admission gap its arrival opened.
pub struct TimedRouter<R>(pub R);

impl<R: Router> Router for TimedRouter<R> {
    fn name(&self) -> String {
        self.0.name()
    }

    fn route(&mut self, spec: &RequestSpec, views: &[ClusterView]) -> RouteDecision {
        let entered = mark();
        let id = spec.id.0;
        with(|rec| {
            // Outage re-routes reach the router without a `next_spec`, so
            // they carry no gap.
            if let Some(gap) = rec.gap.take() {
                rec.close(Layer::Admission, gap, entered, Some(id), None);
            }
        });
        let from = mark();
        let decision = self.0.route(spec, views);
        let to = mark();
        with(|rec| {
            rec.close(Layer::Router, from, to, Some(id), None);
            let counts = &mut rec.profile.counts;
            counts.views += views.len() as u64;
            counts.feasible_views += views.iter().filter(|v| v.feasible).count() as u64;
            if decision == RouteDecision::Shed {
                counts.route_sheds += 1;
            }
        });
        decision
    }
}

/// Times one cluster's policy.
pub struct TimedPolicy {
    inner: Box<dyn Policy>,
    cluster: u32,
}

impl Policy for TimedPolicy {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn reacts_to(&self, event: PolicyEvent) -> bool {
        self.inner.reacts_to(event)
    }

    fn next_tick(&self, now: SimTime) -> Option<SimTime> {
        self.inner.next_tick(now)
    }

    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Vec<DispatchPlan> {
        let from = mark();
        let plans = self.inner.schedule(ctx);
        let to = mark();
        let cluster = self.cluster;
        with(|rec| {
            rec.close(Layer::Policy, from, to, None, Some(cluster));
            rec.profile.counts.plans += plans.len() as u64;
            rec.profile.counts.useful_calls += u64::from(!plans.is_empty());
        });
        plans
    }
}

/// Times the rebalancer's planning ticks.
pub struct TimedRebalancer(pub Box<dyn Rebalancer>);

impl Rebalancer for TimedRebalancer {
    fn name(&self) -> String {
        self.0.name()
    }

    fn cadence(&self) -> SimDuration {
        self.0.cadence()
    }

    fn plan(&mut self, now: SimTime, oracle: &dyn FleetOracle) -> Vec<MigrationDecision> {
        let from = mark();
        let decisions = self.0.plan(now, oracle);
        let to = mark();
        with(|rec| rec.close(Layer::Rebalance, from, to, None, None));
        decisions
    }
}
