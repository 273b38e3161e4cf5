//! The lockstep fleet driver.
//!
//! [`FleetSim`] co-simulates N heterogeneous clusters — each with its own
//! cost table, policy and engine — under one deterministic virtual clock.
//! Each cluster is a steppable [`ClusterSim`]; the driver arbitrates which
//! cluster advances next by comparing four kinds of pending work:
//!
//! 1. **cluster-internal events** (dispatch completions, round ticks,
//!    fault transitions, migration landings) — via
//!    [`lockstep::next_source`], earliest time wins, ties break to the
//!    lowest cluster index;
//! 2. **whole-cluster outage drains** — at an outage's `down_from`,
//!    queued work that has made no progress is extracted and re-routed;
//! 3. **rebalance ticks** (only with a [`Rebalancer`] configured) — the
//!    periodic migration planner runs on its fleet-clock cadence;
//! 4. **workload arrivals** — routed at arrival time via the [`Router`].
//!
//! On timestamp ties the priority is internal < outage < rebalance <
//! arrival. Internal events first means the outage's own GPU-fault events
//! (pre-expanded into each cluster's failure plan) have already aborted
//! in-flight dispatches when the drain runs, so zero-checkpoint aborted
//! requests are back in the queue and get re-routed too. Outages before
//! arrivals means a request arriving at the instant a cluster dies is
//! never routed into it. Rebalance before arrivals means an arrival at a
//! planning instant is routed against post-migration queues. Without a
//! rebalancer there are never rank-2 candidates, so the arbitration — and
//! every digest — is bit-identical to the static PR 4 driver.
//!
//! Fresh workload is pulled lazily from an [`ArrivalSource`] — an offline
//! trace replays through [`ReplaySource`]; the live traffic frontend
//! generates each request as the clock reaches it. Re-routed work drained
//! at an outage goes into a separate re-route queue that wins arrival
//! ties against the source: each drained request is routed only after the
//! previous one's `Arrival` event (same timestamp, internal rank 0) has
//! been admitted by its target, so every routing decision in the drain
//! sees fresh load/feasibility views instead of a stale pre-drain
//! snapshot shared across the whole batch.
//!
//! Determinism: all inputs are sorted, all arbitration ties break on
//! indices, and the routers and rebalancers are deterministic state
//! machines — so the routing-decision digest, the fleet outcome digest
//! and the migration digest are bit-identical across same-seed runs.

// tetrilint: allow-file(slice-index) -- every cluster index here is either produced by enumerating this fleet's own cluster vec or asserted in range at entry (FleetSim::new outage check, enact_migration bounds asserts, route's router-decision assert)

use std::collections::VecDeque;

use tetriserve_core::feasibility::{self, DemandEntry};
use tetriserve_core::{ClusterSim, Policy, RequestOutcome, RequestSpec, ServerConfig};
use tetriserve_costmodel::interconnect::{handoff_time, InterClusterLink};
use tetriserve_costmodel::CostTable;
use tetriserve_metrics::{ClusterReport, FleetReport};
use tetriserve_simulator::digest::Digest;
use tetriserve_simulator::failure::ClusterOutage;
use tetriserve_simulator::lockstep::{next_source, GlobalClock};
use tetriserve_simulator::time::{SimDuration, SimTime};
use tetriserve_simulator::trace::RequestId;

use crate::admission;
use crate::rebalance::{FleetOracle, MigrationCandidate, MigrationDecision, Rebalancer};
use crate::router::{ClusterView, RouteDecision, Router};

/// One cluster's static description: everything needed to build its
/// [`ClusterSim`].
pub struct FleetCluster {
    /// Display label, e.g. `"h100x8-a"`.
    pub name: String,
    /// The cluster's cost table (encodes its topology and GPU model).
    pub costs: CostTable,
    /// The scheduling policy running inside the cluster.
    pub policy: Box<dyn Policy>,
    /// Server knobs (engine config, per-cluster admission, retries).
    pub config: ServerConfig,
}

impl FleetCluster {
    /// A cluster with default server knobs.
    pub fn new(name: impl Into<String>, costs: CostTable, policy: Box<dyn Policy>) -> Self {
        FleetCluster {
            name: name.into(),
            costs,
            policy,
            config: ServerConfig::default(),
        }
    }
}

/// The rebalancing configuration a fleet may carry: the pluggable policy,
/// the inter-cluster link its migrations are priced on, and the next
/// fleet-clock planning tick.
struct Rebalancing {
    rebalancer: Box<dyn Rebalancer>,
    link: InterClusterLink,
    next_tick: SimTime,
}

/// A pull-based supplier of fresh workload for the fleet driver.
///
/// The driver peeks the next arrival time to build its arbitration
/// candidate and consumes the request only when that candidate wins — so
/// an *online* source (the live multi-tenant traffic frontend) generates
/// each request lazily as the simulation reaches it, and an offline trace
/// replay is just the degenerate [`ReplaySource`]. Implementations must
/// yield non-decreasing arrival times, and `next_spec` must return the
/// request `peek_time` announced.
pub trait ArrivalSource {
    /// Arrival time of the next request without consuming it, or `None`
    /// when the source is exhausted.
    fn peek_time(&mut self) -> Option<SimTime>;

    /// Consumes and returns the next request.
    fn next_spec(&mut self) -> Option<RequestSpec>;
}

/// The offline-trace [`ArrivalSource`]: replays a pre-sorted spec vector.
pub struct ReplaySource {
    specs: VecDeque<RequestSpec>,
}

impl ReplaySource {
    /// Wraps a trace.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is not sorted by `(arrival, id)`.
    pub fn new(specs: Vec<RequestSpec>) -> Self {
        assert!(
            specs
                .windows(2)
                .all(|w| (w[0].arrival, w[0].id) <= (w[1].arrival, w[1].id)),
            "fleet arrivals must be sorted by (arrival, id)"
        );
        ReplaySource {
            specs: specs.into(),
        }
    }
}

impl ArrivalSource for ReplaySource {
    fn peek_time(&mut self) -> Option<SimTime> {
        self.specs.front().map(|s| s.arrival)
    }

    fn next_spec(&mut self) -> Option<RequestSpec> {
        self.specs.pop_front()
    }
}

/// The multi-cluster co-simulation.
pub struct FleetSim<R: Router> {
    clusters: Vec<ClusterSim<Box<dyn Policy>>>,
    names: Vec<String>,
    router: R,
    outages: Vec<ClusterOutage>,
    /// Outage drains not yet executed, sorted by (down_from, cluster).
    pending_outages: VecDeque<ClusterOutage>,
    /// Fresh workload, pulled lazily (offline traces ride a
    /// [`ReplaySource`]; the live traffic frontend generates on demand).
    source: Box<dyn ArrivalSource>,
    /// Outage-drained work awaiting re-routing. Re-routes win arrival
    /// ties against the source: a drained request (arrival reset to the
    /// drain instant) must route before any fresh arrival at the same
    /// timestamp, exactly as the old push-onto-the-front queue did.
    reroutes: VecDeque<RequestSpec>,
    /// Periodic migration planning; `None` reproduces the static driver
    /// bit for bit.
    rebalance: Option<Rebalancing>,
    /// The per-cluster snapshot the router reads, refilled on every route.
    views: Vec<ClusterView>,
    clock: GlobalClock,
    routed: Vec<usize>,
    rerouted_in: Vec<usize>,
    rerouted: usize,
    migrated_in: Vec<usize>,
    migrations: usize,
    rescues: usize,
    migrated_gpu_seconds: f64,
    handoff_delays: Vec<SimDuration>,
    fleet_shed: Vec<RequestOutcome>,
    routing_digest: Digest,
    migration_digest: Digest,
}

/// The read-only window a [`Rebalancer`] (and coordinated admission) gets
/// onto the live fleet: feasibility questions answered with the target
/// cluster's own cost table, hand-off delays priced on the configured
/// link, and a migrated candidate's deadline tightened by its transfer
/// time — so "move" only wins when it beats waiting.
struct DriverOracle<'a> {
    clusters: &'a [ClusterSim<Box<dyn Policy>>],
    outages: &'a [ClusterOutage],
    link: InterClusterLink,
    now: SimTime,
}

impl DriverOracle<'_> {
    /// Bytes on the wire for a candidate: fresh requests ship no latent.
    fn bytes_for(&self, c: &MigrationCandidate) -> u64 {
        if c.is_fresh() {
            0
        } else {
            self.clusters[c.from]
                .costs()
                .model()
                .latent_bytes(c.spec.resolution)
        }
    }

    /// The probe instant on cluster `to` and a migration candidate's
    /// demand entry there, priced with `to`'s own cost table. The migrated
    /// request cannot start on `to` until the hand-off lands, so its
    /// effective deadline tightens by the delay (saturating: an
    /// already-blown deadline stays blown).
    fn candidate_entry(&self, to: usize, c: &MigrationCandidate) -> (SimTime, DemandEntry) {
        let delay = self.handoff_delay(c);
        let sim = &self.clusters[to];
        let at = self.now.max(sim.now());
        let entry = feasibility::demand_entry(
            sim.costs(),
            c.spec.id,
            c.spec.resolution,
            c.spec.stages,
            c.remaining_steps,
            c.spec.deadline - delay,
            at,
            c.is_fresh(),
        );
        (at, entry)
    }
}

impl FleetOracle for DriverOracle<'_> {
    fn clusters(&self) -> usize {
        self.clusters.len()
    }

    fn up(&self, i: usize) -> bool {
        !self
            .outages
            .iter()
            .any(|o| o.cluster == i && o.is_down_at(self.now))
    }

    fn pressure(&self, i: usize) -> f64 {
        self.clusters[i].load(self.now).pressure()
    }

    fn queued_movable(&self, i: usize) -> Vec<MigrationCandidate> {
        self.clusters[i]
            .queued_movable()
            .into_iter()
            .map(|(spec, remaining_steps)| MigrationCandidate {
                spec,
                from: i,
                remaining_steps,
            })
            .collect()
    }

    fn at_risk(&self, i: usize) -> Vec<RequestId> {
        self.clusters[i].at_risk_queued(self.now)
    }

    fn handoff_delay(&self, c: &MigrationCandidate) -> SimDuration {
        handoff_time(self.bytes_for(c), &self.link)
    }

    fn candidate_feasible_on(
        &self,
        to: usize,
        c: &MigrationCandidate,
        extra_gpu_seconds: f64,
    ) -> bool {
        let sim = &self.clusters[to];
        let (at, entry) = self.candidate_entry(to, c);
        sim.feasible_with(
            at,
            entry,
            &[],
            extra_gpu_seconds,
            sim.healthy_count_at(at) as f64,
        )
    }

    fn candidate_demand_on(&self, to: usize, c: &MigrationCandidate) -> f64 {
        self.candidate_entry(to, c).1.demand
    }

    fn spec_feasible_on(&self, to: usize, spec: &RequestSpec, exclude: &[RequestId]) -> bool {
        let sim = &self.clusters[to];
        let at = self.now.max(sim.now());
        let entry = feasibility::arrival_entry(sim.costs(), spec, at);
        sim.feasible_with(at, entry, exclude, 0.0, sim.healthy_count_at(at) as f64)
    }
}

impl<R: Router> FleetSim<R> {
    /// Builds the fleet: expands each whole-cluster outage into per-GPU
    /// faults inside that cluster's failure plan (so the cluster's own
    /// engine and policy observe the outage through the ordinary
    /// single-cluster fault machinery), constructs every [`ClusterSim`]
    /// and seeds their initial round ticks.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals` is not sorted by `(arrival, id)` or an outage
    /// names a cluster index out of range.
    pub fn new(
        clusters: Vec<FleetCluster>,
        router: R,
        arrivals: Vec<RequestSpec>,
        outages: Vec<ClusterOutage>,
    ) -> Self {
        FleetSim::streaming(
            clusters,
            router,
            Box::new(ReplaySource::new(arrivals)),
            outages,
        )
    }

    /// Builds the fleet around a live [`ArrivalSource`] instead of a
    /// pre-generated trace: requests are pulled (and, for an online
    /// source, *generated*) one at a time as the lockstep clock reaches
    /// them. [`FleetSim::new`] is this with a [`ReplaySource`], so both
    /// paths share one arbitration and digest contract.
    ///
    /// # Panics
    ///
    /// Panics if an outage names a cluster index out of range.
    pub fn streaming(
        clusters: Vec<FleetCluster>,
        router: R,
        source: Box<dyn ArrivalSource>,
        mut outages: Vec<ClusterOutage>,
    ) -> Self {
        outages.sort_by_key(|o| (o.down_from, o.cluster));
        for o in &outages {
            assert!(
                o.cluster < clusters.len(),
                "outage names cluster {} but the fleet has {}",
                o.cluster,
                clusters.len()
            );
        }

        let mut names = Vec::with_capacity(clusters.len());
        let mut sims = Vec::with_capacity(clusters.len());
        for (i, mut c) in clusters.into_iter().enumerate() {
            let n_gpus = c.costs.cluster().topology().n_gpus();
            for o in outages.iter().filter(|o| o.cluster == i) {
                for fault in o.to_gpu_faults(n_gpus) {
                    c.config.engine.failures = c.config.engine.failures.clone().with_fault(fault);
                }
            }
            names.push(c.name);
            let mut sim = ClusterSim::new(c.costs, c.policy, c.config);
            sim.start();
            sims.push(sim);
        }

        let n = sims.len();
        FleetSim {
            clusters: sims,
            names,
            router,
            pending_outages: outages.iter().copied().collect(),
            outages,
            source,
            reroutes: VecDeque::new(),
            rebalance: None,
            views: Vec::with_capacity(n),
            clock: GlobalClock::new(),
            routed: vec![0; n],
            rerouted_in: vec![0; n],
            rerouted: 0,
            migrated_in: vec![0; n],
            migrations: 0,
            rescues: 0,
            migrated_gpu_seconds: 0.0,
            handoff_delays: Vec::new(),
            fleet_shed: Vec::new(),
            routing_digest: Digest::new(),
            migration_digest: Digest::new(),
        }
    }

    /// Attaches a periodic [`Rebalancer`] whose migrations are priced on
    /// `link`. Also enables fleet-coordinated admission: a request the
    /// router would shed is first offered to [`admission::coordinate`],
    /// and only shed if no cluster can serve it even after hypothetical
    /// rebalancing. The first planning tick fires one cadence after t = 0.
    pub fn with_rebalancer(
        mut self,
        rebalancer: Box<dyn Rebalancer>,
        link: InterClusterLink,
    ) -> Self {
        let next_tick = SimTime::ZERO + rebalancer.cadence();
        self.rebalance = Some(Rebalancing {
            rebalancer,
            link,
            next_tick,
        });
        self
    }

    /// Pre-sizes every cluster's feasibility scratch for up to `max_live`
    /// concurrently live requests, so the steady-state event loop makes no
    /// heap allocations (`tests/fleet_determinism.rs` gates on this).
    pub fn warm_up_scratch(&mut self, max_live: usize) {
        for c in &mut self.clusters {
            c.warm_up_scratch(max_live);
        }
    }

    /// Runs the co-simulation to completion and aggregates the fleet
    /// report.
    pub fn run(mut self) -> FleetReport {
        loop {
            let next_internal = next_source(self.clusters.iter().map(|c| c.next_event_time()));
            let internal_t = next_internal.map(|(_, t)| t);
            let outage_t = self.pending_outages.front().map(|o| o.down_from);
            // One arrival candidate covers both queues; re-routes win
            // ties (see the `reroutes` field docs). A source can never
            // beat a reroute outright: reroute arrivals are stamped with
            // their drain instant and the source's peek is ≥ the clock,
            // so `source_t < reroute_t` would need an arrival from the
            // past.
            let reroute_t = self.reroutes.front().map(|s| s.arrival);
            let source_t = self.source.peek_time();
            let arrival_t = match (reroute_t, source_t) {
                (Some(r), Some(s)) => Some(r.min(s)),
                (r, s) => r.or(s),
            };
            // Rebalance ticks only keep firing while some *other* work is
            // pending; otherwise an idle fleet would tick its planning
            // clock forever and the run would never terminate.
            let other_work = internal_t.is_some() || outage_t.is_some() || arrival_t.is_some();
            let rebalance_t = self
                .rebalance
                .as_ref()
                .filter(|_| other_work)
                .map(|r| r.next_tick);
            // Each candidate carries what its arm needs (the internal
            // event's cluster index rides along in `Tick::Internal`), so
            // no arm re-derives state from "rank N implies …" reasoning.
            #[derive(Clone, Copy)]
            enum Tick {
                Internal(usize),
                Outage,
                Rebalance,
                Arrival,
            }
            let candidates = [
                next_internal.map(|(i, t)| (t, 0u8, Tick::Internal(i))),
                outage_t.map(|t| (t, 1, Tick::Outage)),
                rebalance_t.map(|t| (t, 2, Tick::Rebalance)),
                arrival_t.map(|t| (t, 3, Tick::Arrival)),
            ];
            let Some((t, _, tick)) = candidates
                .into_iter()
                .flatten()
                .min_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)))
            else {
                break;
            };
            self.clock.advance_to(t);
            match tick {
                Tick::Internal(i) => {
                    self.clusters[i].step();
                }
                Tick::Outage => self.drain_outage(),
                Tick::Rebalance => self.do_rebalance(),
                Tick::Arrival => {
                    // Re-route priority on ties; the candidate was built
                    // from the same peeks, so an empty pair here would
                    // mean the selection raced a mutation — skipping (the
                    // candidate vanishes next iteration) degrades more
                    // gracefully than a mid-drive panic.
                    let take_reroute = match (reroute_t, source_t) {
                        (Some(r), Some(s)) => r <= s,
                        (r, _) => r.is_some(),
                    };
                    if take_reroute {
                        if let Some(spec) = self.reroutes.pop_front() {
                            self.rerouted += 1;
                            self.route(spec, true);
                        }
                    } else if let Some(spec) = self.source.next_spec() {
                        self.route(spec, false);
                    }
                }
            }
        }
        self.finish()
    }

    /// Runs one planning tick: asks the rebalancer for this instant's
    /// migrations (through a read-only oracle over the live clusters) and
    /// enacts them in plan order, then re-arms the fleet clock one cadence
    /// out.
    fn do_rebalance(&mut self) {
        let now = self.clock.now();
        let (decisions, link) = {
            // A planning tick without a rebalancer attached has nothing
            // to plan with — treat it as the no-op it is.
            let Some(reb) = self.rebalance.as_mut() else {
                return;
            };
            reb.next_tick = now + reb.rebalancer.cadence();
            let link = reb.link;
            let oracle = DriverOracle {
                clusters: &self.clusters,
                outages: &self.outages,
                link,
                now,
            };
            (reb.rebalancer.plan(now, &oracle), link)
        };
        for d in decisions {
            self.enact_migration(d, now, link);
        }
    }

    /// Enacts one migration: extracts the request from its source (trace:
    /// `MigrationOut`), prices the latent hand-off on the configured link,
    /// and schedules it to land on the target after that delay (trace:
    /// `MigrationIn`). Skipped — returning `false` — if the statically
    /// known outage plan says the target is (or will be, when the hand-off
    /// lands) inside an outage window: migrating into a dying cluster
    /// would strand the work all over again.
    fn enact_migration(
        &mut self,
        d: MigrationDecision,
        now: SimTime,
        link: InterClusterLink,
    ) -> bool {
        assert!(d.from != d.to, "migration from a cluster to itself");
        assert!(
            d.from < self.clusters.len() && d.to < self.clusters.len(),
            "migration names cluster {}→{} but the fleet has {}",
            d.from,
            d.to,
            self.clusters.len()
        );
        let Some((spec, remaining)) = self.clusters[d.from]
            .queued_movable()
            .into_iter()
            .find(|(s, _)| s.id == d.id)
        else {
            // The planner named a request that is no longer queued at the
            // source (e.g. an earlier rescue move this tick took it).
            return false;
        };
        let fresh = remaining == spec.total_steps;
        let bytes = if fresh {
            0
        } else {
            self.clusters[d.from]
                .costs()
                .model()
                .latent_bytes(spec.resolution)
        };
        let delay = handoff_time(bytes, &link);
        let landing = now + delay;
        if self
            .outages
            .iter()
            .any(|o| o.cluster == d.to && (o.is_down_at(now) || o.is_down_at(landing)))
        {
            return false;
        }
        let m = self.clusters[d.from].extract_request(d.id, now);
        self.migration_digest.push(now.as_micros());
        self.migration_digest.push(d.id.0);
        self.migration_digest.push(d.from as u64);
        self.migration_digest.push(d.to as u64);
        self.migration_digest.push(delay.as_micros());
        self.migrations += 1;
        self.migrated_gpu_seconds += m.gpu_seconds;
        self.handoff_delays.push(delay);
        self.migrated_in[d.to] += 1;
        self.clusters[d.to].inject_request(m, now, bytes, delay);
        true
    }

    /// Handles the earliest pending outage: extracts the dying cluster's
    /// fresh queued work (zero steps executed — including dispatches the
    /// outage's fault events just aborted at this same timestamp) and
    /// queues it for re-routing with the arrival time reset to *now*. For
    /// a *permanent* outage, requests with checkpointed progress are
    /// terminally failed — their partial work can never resume on a dead
    /// cluster, and leaving them live would keep its round-tick chain
    /// spinning forever. (A *transient* outage keeps them: its latent is
    /// still addressable, so the rebalancer may migrate the partial work
    /// off the down cluster.)
    ///
    /// The drained specs go onto the *front* of the arrival queue, in
    /// drain order, rather than being routed inline. Routing them inline
    /// made every drained request share one pre-drain load/feasibility
    /// snapshot: the second and later routes saw queues as they were
    /// before the first re-route landed, so a whole drained batch could
    /// dog-pile one cluster the stale view showed as empty. Queued as
    /// arrivals, each re-route is arbitrated separately — the previous
    /// one's `Arrival` event (same timestamp, internal rank 0) is
    /// admitted first — so every routing decision sees fresh views.
    fn drain_outage(&mut self) {
        // The rank-1 candidate was built from `pending_outages.front()`;
        // an empty queue means there is nothing to drain.
        let Some(outage) = self.pending_outages.pop_front() else {
            return;
        };
        let now = self.clock.now();
        let drained = self.clusters[outage.cluster].drain_queued_fresh();
        if outage.up_at.is_none() {
            self.clusters[outage.cluster].fail_incomplete();
        }
        for mut spec in drained.into_iter().rev() {
            spec.arrival = now;
            self.reroutes.push_front(spec);
        }
    }

    /// Routes one request: snapshots every cluster, asks the router, and
    /// folds the decision into the routing digest. Fleet-shed requests
    /// become synthetic outcomes that never reached any cluster.
    fn route(&mut self, spec: RequestSpec, reroute: bool) {
        let at = self.clock.now();
        let outages = &self.outages;
        self.views.clear();
        self.views
            .extend(self.clusters.iter().enumerate().map(|(i, c)| {
                let (load, feasible) = c.route_view(&spec, at);
                ClusterView {
                    index: i,
                    up: !outages.iter().any(|o| o.cluster == i && o.is_down_at(at)),
                    feasible,
                    load,
                }
            }));
        let decision = self.router.route(&spec, &self.views);

        self.routing_digest.push(spec.id.0);
        self.routing_digest.push(spec.arrival.as_micros());
        self.routing_digest.push(u64::from(reroute));
        match decision {
            RouteDecision::To(i) => {
                assert!(
                    i < self.views.len(),
                    "router chose cluster {i} of {}",
                    self.views.len()
                );
                assert!(
                    self.views[i].up,
                    "router sent request {} to down cluster {i}",
                    spec.id.0
                );
                self.routing_digest.push(i as u64);
                if reroute {
                    self.rerouted_in[i] += 1;
                } else {
                    self.routed[i] += 1;
                }
                self.clusters[i].push_arrival(spec);
            }
            RouteDecision::Shed => {
                // Fleet-coordinated admission: with a rebalancer attached,
                // shedding requires that *no* cluster can serve the
                // request even after hypothetical rebalancing. When a
                // rescue plan exists, enact its migrations and route to
                // the freed cluster instead.
                if let Some((plan, link)) = self.rescue_plan(&spec, at) {
                    for d in plan.moves {
                        self.enact_migration(d, at, link);
                    }
                    self.routing_digest.push(plan.to as u64);
                    self.rescues += 1;
                    if reroute {
                        self.rerouted_in[plan.to] += 1;
                    } else {
                        self.routed[plan.to] += 1;
                    }
                    self.clusters[plan.to].push_arrival(spec);
                    return;
                }
                self.routing_digest.push(u64::MAX);
                self.fleet_shed.push(RequestOutcome {
                    tenant: spec.tenant,
                    id: spec.id,
                    resolution: spec.resolution,
                    arrival: spec.arrival,
                    deadline: spec.deadline,
                    completion: None,
                    gpu_seconds: 0.0,
                    steps_executed: 0,
                    sp_degree_step_sum: 0,
                    retries: 0,
                    shed: true,
                    steps_shed: 0,
                    encode_done: None,
                    denoise_done: None,
                });
            }
        }
    }

    /// Asks [`admission::coordinate`] for a rescue plan for a request the
    /// router wants to shed, returning it with the link its migrations
    /// should be priced on. `None` without a rebalancer (coordinated
    /// admission rides on the same oracle and link).
    fn rescue_plan(
        &self,
        spec: &RequestSpec,
        at: SimTime,
    ) -> Option<(admission::RescuePlan, InterClusterLink)> {
        let reb = self.rebalance.as_ref()?;
        let oracle = DriverOracle {
            clusters: &self.clusters,
            outages: &self.outages,
            link: reb.link,
            now: at,
        };
        admission::coordinate(spec, &oracle).map(|plan| (plan, reb.link))
    }

    fn finish(self) -> FleetReport {
        let router = match &self.rebalance {
            Some(reb) => format!("{}+{}", self.router.name(), reb.rebalancer.name()),
            None => self.router.name(),
        };
        let mut clusters = Vec::with_capacity(self.clusters.len());
        for (i, sim) in self.clusters.into_iter().enumerate() {
            let n_gpus = sim.n_gpus();
            clusters.push(ClusterReport {
                name: self.names[i].clone(),
                n_gpus,
                routed: self.routed[i],
                rerouted_in: self.rerouted_in[i],
                migrated_in: self.migrated_in[i],
                report: sim.finish(),
            });
        }
        let mut report = FleetReport {
            router,
            clusters,
            fleet_shed: self.fleet_shed,
            rerouted: self.rerouted,
            migrations: self.migrations,
            rescues: self.rescues,
            migrated_gpu_seconds: self.migrated_gpu_seconds,
            handoff_delays: self.handoff_delays,
            routing_digest: self.routing_digest.value(),
            outcome_digest: 0,
            migration_digest: self.migration_digest.value(),
        };
        // Fold (id, completion µs or MAX) over id-sorted outcomes.
        let mut digest = Digest::new();
        for o in report.all_outcomes() {
            digest.push(o.id.0);
            digest.push(o.completion.map_or(u64::MAX, |t| t.as_micros()));
        }
        report.outcome_digest = digest.value();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{DeadlineAwareRouter, JoinShortestQueueRouter, RoundRobinRouter};
    use tetriserve_core::TetriServePolicy;
    use tetriserve_costmodel::{ClusterSpec, DitModel, Profiler, Resolution};
    use tetriserve_simulator::failure::{FailurePlan, GpuFault};
    use tetriserve_simulator::gpuset::GpuId;
    use tetriserve_simulator::trace::{RequestId, TenantId};

    fn h100x8(name: &str) -> FleetCluster {
        let costs = Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic();
        let policy: Box<dyn Policy> = Box::new(TetriServePolicy::with_defaults(&costs));
        FleetCluster::new(name, costs, policy)
    }

    fn two_clusters() -> Vec<FleetCluster> {
        vec![h100x8("h100x8-a"), h100x8("h100x8-b")]
    }

    fn spec(id: u64, arrival_s: f64, deadline_s: f64) -> RequestSpec {
        RequestSpec {
            tenant: TenantId::UNTAGGED,
            id: RequestId(id),
            resolution: Resolution::R1024,
            arrival: SimTime::from_secs_f64(arrival_s),
            deadline: SimTime::from_secs_f64(arrival_s + deadline_s),
            total_steps: 50,
            stages: tetriserve_costmodel::StageProfile::FLAT,
        }
    }

    #[test]
    fn round_robin_alternates_clusters() {
        let arrivals: Vec<RequestSpec> = (0..4).map(|i| spec(i, i as f64 * 0.5, 30.0)).collect();
        let report = FleetSim::new(two_clusters(), RoundRobinRouter::new(), arrivals, vec![]).run();
        assert_eq!(report.clusters[0].routed, 2);
        assert_eq!(report.clusters[1].routed, 2);
        assert_eq!(report.total_requests(), 4);
        assert_eq!(report.fleet_shed.len(), 0);
        assert!(report.sar() > 0.0);
    }

    #[test]
    fn all_requests_complete_on_an_uncontended_fleet() {
        let arrivals: Vec<RequestSpec> = (0..6).map(|i| spec(i, i as f64, 60.0)).collect();
        let report = FleetSim::new(
            two_clusters(),
            JoinShortestQueueRouter::new(),
            arrivals,
            vec![],
        )
        .run();
        let outcomes = report.all_outcomes();
        assert_eq!(outcomes.len(), 6);
        assert!(outcomes.iter().all(|o| o.completion.is_some()));
        assert_eq!(report.sar(), 1.0);
    }

    #[test]
    fn outage_reroutes_fresh_queued_work() {
        // Cluster 0 takes a request at t=0, then dies permanently at
        // t=0.5s while later work is queued behind it. The queued fresh
        // requests must move to cluster 1 and complete there.
        let arrivals: Vec<RequestSpec> =
            vec![spec(0, 0.0, 60.0), spec(1, 0.1, 60.0), spec(2, 0.2, 60.0)];
        // A router that pins everything to cluster 0 while it is up.
        struct PinFirstUp;
        impl Router for PinFirstUp {
            fn name(&self) -> String {
                "pin-first-up".to_owned()
            }
            fn route(&mut self, _spec: &RequestSpec, views: &[ClusterView]) -> RouteDecision {
                views
                    .iter()
                    .find(|v| v.up)
                    .map_or(RouteDecision::Shed, |v| RouteDecision::To(v.index))
            }
        }
        let outage = ClusterOutage::permanent(0, SimTime::from_secs_f64(0.5));
        let report = FleetSim::new(two_clusters(), PinFirstUp, arrivals, vec![outage]).run();
        assert!(report.rerouted > 0, "queued fresh work must be re-routed");
        assert_eq!(report.clusters[1].rerouted_in, report.rerouted);
        // Everything re-routed to cluster 1 completes there.
        assert!(report.clusters[1]
            .report
            .outcomes
            .iter()
            .all(|o| o.completion.is_some()));
        assert_eq!(report.total_requests(), 3);
    }

    #[test]
    fn deadline_aware_sheds_fleet_wide_only_when_nothing_is_feasible() {
        // An impossible deadline is infeasible on every cluster → shed at
        // the fleet level, never reaching a cluster.
        let arrivals = vec![spec(0, 0.0, 0.001)];
        let report =
            FleetSim::new(two_clusters(), DeadlineAwareRouter::new(), arrivals, vec![]).run();
        assert_eq!(report.fleet_shed.len(), 1);
        assert!(report.fleet_shed[0].shed);
        assert_eq!(report.clusters[0].routed + report.clusters[1].routed, 0);
    }

    #[test]
    fn gpu_fault_opening_as_an_outage_lifts_keeps_the_other_gpus() {
        // The driver appends an outage's per-GPU faults after the
        // cluster's own, so GPU 3's GpuDown at 5 s fires before the
        // outage's eight GpuUps at that instant. Every GPU but 3 must
        // still return: an urgent 2048² request arriving after the outage
        // needs the whole node to make its 5 s deadline, and its
        // 6 s one-GPU window has closed by then.
        let secs = SimTime::from_secs_f64;
        let mut cluster = h100x8("h100x8-a");
        cluster.config.engine.failures =
            FailurePlan::none().with_fault(GpuFault::transient(GpuId(3), secs(5.0), secs(6.0)));
        let urgent = RequestSpec {
            resolution: Resolution::R2048,
            ..spec(0, 10.0, 5.0)
        };
        let outage = ClusterOutage::transient(0, secs(1.0), secs(5.0));
        let report = FleetSim::new(
            vec![cluster],
            RoundRobinRouter::new(),
            vec![urgent],
            vec![outage],
        )
        .run();
        assert_eq!(report.sar(), 1.0, "{:?}", report.all_outcomes());
    }

    #[test]
    fn same_inputs_same_digests() {
        let run = || {
            let arrivals: Vec<RequestSpec> =
                (0..8).map(|i| spec(i, i as f64 * 0.3, 20.0)).collect();
            let outage = ClusterOutage::transient(
                0,
                SimTime::from_secs_f64(1.0),
                SimTime::from_secs_f64(3.0),
            );
            FleetSim::new(
                two_clusters(),
                DeadlineAwareRouter::new(),
                arrivals,
                vec![outage],
            )
            .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.routing_digest, b.routing_digest);
        assert_eq!(a.outcome_digest, b.outcome_digest);
        assert_eq!(a.sar(), b.sar());
    }
}
