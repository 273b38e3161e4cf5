//! The shared experiment runner behind every bench target.
//!
//! An [`Experiment`] describes one serving run the way §6.1 of the paper
//! describes its methodology: model + cluster, resolution mix, arrival
//! process and rate, SLO scale, request count, optional Nirvana
//! acceleration. [`Experiment::run`] executes it under any [`PolicyKind`]
//! on the simulated cluster and returns the serving report; sweeps fan out
//! over scoped threads so full figures regenerate in seconds.

use std::collections::BTreeMap;

use tetriserve_baselines::{EdfRsspPolicy, FixedSpPolicy, RsspPolicy};
use tetriserve_core::{RequestSpec, ServeReport, Server, TetriServeConfig, TetriServePolicy};
use tetriserve_costmodel::{ClusterSpec, CostTable, DitModel, Profiler, Resolution};
use tetriserve_nirvana::{accelerate_trace, NirvanaConfig};
use tetriserve_simulator::time::SimTime;
use tetriserve_simulator::trace::{RequestId, TenantId};
use tetriserve_traffic::{DiurnalEnvelope, DiurnalModulated};
use tetriserve_workload::arrival::{BurstyProcess, PoissonProcess, UniformProcess};
use tetriserve_workload::gen::{GeneratedRequest, TraceGen};
use tetriserve_workload::mix::ResolutionMix;
use tetriserve_workload::prompt::PromptLibrary;
use tetriserve_workload::slo::SloPolicy;

/// Which scheduler serves the workload.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyKind {
    /// TetriServe with the given configuration.
    TetriServe(TetriServeConfig),
    /// xDiT with a fixed sequence-parallel degree.
    FixedSp(usize),
    /// Resolution-Specific SP (oracle static table from offline profiling).
    Rssp,
    /// EDF-ordered RSSP (this reproduction's deadline-awareness ablation).
    EdfRssp,
}

impl PolicyKind {
    /// Display name matching the paper's legends.
    pub fn label(&self) -> String {
        match self {
            PolicyKind::TetriServe(_) => "TetriServe".to_owned(),
            PolicyKind::FixedSp(k) => format!("xDiT SP={k}"),
            PolicyKind::Rssp => "RSSP".to_owned(),
            PolicyKind::EdfRssp => "EDF-RSSP".to_owned(),
        }
    }

    /// The full comparison set of §6: xDiT SP ∈ {1,2,4,8} (clipped to the
    /// node size), RSSP, TetriServe.
    pub fn standard_set(cluster: &ClusterSpec) -> Vec<PolicyKind> {
        let mut out: Vec<PolicyKind> = cluster
            .sp_degrees()
            .into_iter()
            .map(PolicyKind::FixedSp)
            .collect();
        out.push(PolicyKind::Rssp);
        out.push(PolicyKind::TetriServe(TetriServeConfig::default()));
        out
    }
}

/// Arrival process selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalKind {
    /// Poisson arrivals (the §6.1 default).
    Poisson,
    /// Bursty MMPP arrivals (§6.3).
    Bursty,
    /// Deterministic, evenly spaced arrivals.
    Uniform,
    /// Sinusoidally modulated (diurnal) arrivals — an extension beyond the
    /// paper for slow load cycles.
    Diurnal,
}

/// One serving experiment.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// DiT model to serve.
    pub model: DitModel,
    /// Node to serve on.
    pub cluster: ClusterSpec,
    /// Resolution mix.
    pub mix: ResolutionMix,
    /// Arrival process shape.
    pub arrival: ArrivalKind,
    /// Mean arrival rate, requests/minute.
    pub rate_per_min: f64,
    /// SLO scale multiplier (the paper sweeps 1.0–1.5).
    pub slo_scale: f64,
    /// Number of requests (the paper uses 300).
    pub n_requests: usize,
    /// Workload seed.
    pub seed: u64,
    /// Optional Nirvana cache acceleration (Table 3).
    pub nirvana: Option<NirvanaConfig>,
}

impl Experiment {
    /// The §6.1 default: FLUX.1-dev on 8×H100, Uniform mix, Poisson
    /// 12 req/min, 300 requests, SLO scale 1.0.
    pub fn paper_default() -> Experiment {
        Experiment {
            model: DitModel::flux_dev(),
            cluster: ClusterSpec::h100x8(),
            mix: ResolutionMix::uniform(),
            arrival: ArrivalKind::Poisson,
            rate_per_min: 12.0,
            slo_scale: 1.0,
            n_requests: 300,
            seed: 0xd17,
            nirvana: None,
        }
    }

    /// The SD3-on-A40 variant (Figure 12).
    pub fn sd3_a40() -> Experiment {
        Experiment {
            model: DitModel::sd3_medium(),
            cluster: ClusterSpec::a40x4(),
            ..Experiment::paper_default()
        }
    }

    /// Profiles the cost table for this experiment's model and cluster.
    pub fn cost_table(&self) -> CostTable {
        Profiler::new(self.model.clone(), self.cluster).profile()
    }

    /// Generates the request trace (without serving it).
    pub fn generate_requests(&self) -> Vec<GeneratedRequest> {
        let slo = SloPolicy::paper_targets().scaled(self.slo_scale);
        let prompts = PromptLibrary::diffusiondb_like(self.seed);
        match self.arrival {
            ArrivalKind::Poisson => TraceGen::new(
                PoissonProcess::new(self.rate_per_min),
                self.mix.clone(),
                slo,
                prompts,
                self.seed,
            )
            .generate(self.n_requests),
            ArrivalKind::Bursty => TraceGen::new(
                BurstyProcess::standard(self.rate_per_min),
                self.mix.clone(),
                slo,
                prompts,
                self.seed,
            )
            .generate(self.n_requests),
            ArrivalKind::Uniform => TraceGen::new(
                UniformProcess::new(self.rate_per_min),
                self.mix.clone(),
                slo,
                prompts,
                self.seed,
            )
            .generate(self.n_requests),
            ArrivalKind::Diurnal => TraceGen::new(
                DiurnalModulated::new(
                    PoissonProcess::new(self.rate_per_min),
                    DiurnalEnvelope::new(0.8, 600.0),
                ),
                self.mix.clone(),
                slo,
                prompts,
                self.seed,
            )
            .generate(self.n_requests),
        }
    }

    /// Converts generated requests into serving specs, applying Nirvana
    /// step reduction when configured.
    pub fn to_specs(&self, requests: &[GeneratedRequest]) -> Vec<RequestSpec> {
        let steps: Vec<u32> = match &self.nirvana {
            Some(cfg) => {
                let mut warm = PromptLibrary::diffusiondb_like(self.seed);
                accelerate_trace(requests, self.model.steps, &mut warm, cfg).effective_steps
            }
            None => vec![self.model.steps; requests.len()],
        };
        requests
            .iter()
            .zip(steps)
            .map(|(r, total_steps)| RequestSpec {
                tenant: TenantId::UNTAGGED,
                id: RequestId(r.id),
                resolution: r.resolution,
                arrival: SimTime::from_secs_f64(r.arrival_s),
                deadline: SimTime::from_secs_f64(r.deadline_s),
                total_steps,
                stages: r.stages,
            })
            .collect()
    }

    /// Runs the experiment under `policy`.
    pub fn run(&self, policy: &PolicyKind) -> ServeReport {
        let specs = self.to_specs(&self.generate_requests());
        self.run_specs(policy, specs)
    }

    /// Runs several policies concurrently and returns `(label, report)` in
    /// the given order.
    pub fn run_policies(&self, policies: &[PolicyKind]) -> Vec<(String, ServeReport)> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = policies
                .iter()
                .map(|p| {
                    let exp = self.clone();
                    let p = p.clone();
                    scope.spawn(move || (p.label(), exp.run(&p)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker ok"))
                .collect()
        })
    }

    /// Builds serving specs from persisted workload records (see
    /// `tetriserve_workload::trace_io`), running every request for
    /// `total_steps` steps.
    ///
    /// # Panics
    ///
    /// Panics if a record's token count does not map to a square
    /// resolution (already validated by the CSV parser).
    pub fn specs_from_records(
        records: &[tetriserve_workload::TraceRecord],
        total_steps: u32,
    ) -> Vec<RequestSpec> {
        records
            .iter()
            .map(|r| RequestSpec {
                tenant: TenantId::UNTAGGED,
                id: RequestId(r.id),
                resolution: tetriserve_workload::resolution_for_tokens(r.tokens)
                    .unwrap_or_else(|| panic!("record {} has bad token count {}", r.id, r.tokens)),
                arrival: SimTime::from_secs_f64(r.arrival_s),
                deadline: SimTime::from_secs_f64(r.deadline_s),
                total_steps,
                stages: tetriserve_costmodel::StageProfile::FLAT,
            })
            .collect()
    }

    /// Runs `policy` over externally supplied specs (replay path).
    pub fn run_specs(&self, policy: &PolicyKind, specs: Vec<RequestSpec>) -> ServeReport {
        let costs = self.cost_table();
        match policy {
            PolicyKind::TetriServe(cfg) => {
                let p = TetriServePolicy::new(*cfg, &costs);
                Server::new(costs, p).run(specs)
            }
            PolicyKind::FixedSp(k) => Server::new(costs, FixedSpPolicy::new(*k)).run(specs),
            PolicyKind::Rssp => {
                let p =
                    RsspPolicy::from_profile(&costs, &SloPolicy::paper_targets().base_targets());
                Server::new(costs, p).run(specs)
            }
            PolicyKind::EdfRssp => {
                let p =
                    EdfRsspPolicy::from_profile(&costs, &SloPolicy::paper_targets().base_targets());
                Server::new(costs, p).run(specs)
            }
        }
    }

    /// Map from request id to resolution for trace post-processing
    /// (Figure 11).
    pub fn resolution_map(&self) -> BTreeMap<RequestId, Resolution> {
        self.generate_requests()
            .iter()
            .map(|r| (RequestId(r.id), r.resolution))
            .collect()
    }
}

/// The SLO-scale sweep of Figures 7/8/12.
pub const SLO_SCALES: [f64; 6] = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5];

#[cfg(test)]
mod tests {
    use super::*;
    use tetriserve_metrics::sar::sar;

    fn small(policy: PolicyKind) -> ServeReport {
        let exp = Experiment {
            n_requests: 40,
            ..Experiment::paper_default()
        };
        exp.run(&policy)
    }

    #[test]
    fn standard_set_covers_the_paper_baselines() {
        let set = PolicyKind::standard_set(&ClusterSpec::h100x8());
        let labels: Vec<String> = set.iter().map(|p| p.label()).collect();
        assert_eq!(
            labels,
            vec![
                "xDiT SP=1",
                "xDiT SP=2",
                "xDiT SP=4",
                "xDiT SP=8",
                "RSSP",
                "TetriServe"
            ]
        );
        // A40 node clips the degree set.
        assert_eq!(PolicyKind::standard_set(&ClusterSpec::a40x4()).len(), 5);
    }

    #[test]
    fn every_policy_serves_every_request() {
        for policy in [
            PolicyKind::TetriServe(TetriServeConfig::default()),
            PolicyKind::FixedSp(2),
            PolicyKind::Rssp,
        ] {
            let report = small(policy.clone());
            assert_eq!(report.outcomes.len(), 40, "{}", policy.label());
            assert!(
                report.outcomes.iter().all(|o| o.completion.is_some()),
                "{} left requests unserved",
                policy.label()
            );
        }
    }

    #[test]
    fn tetriserve_beats_fixed_sp_under_load() {
        // At 18 req/min the fixed strategies' rigidity costs them clearly;
        // at the default 12 req/min TetriServe ties or edges the best
        // fixed degree (the paper's Figure 13 shape).
        let exp = Experiment {
            n_requests: 120,
            rate_per_min: 18.0,
            ..Experiment::paper_default()
        };
        let reports = exp.run_policies(&PolicyKind::standard_set(&exp.cluster));
        let get = |label: &str| {
            reports
                .iter()
                .find(|(l, _)| l == label)
                .map(|(_, r)| sar(&r.outcomes))
                .unwrap()
        };
        let tetri = get("TetriServe");
        let best_fixed = ["xDiT SP=1", "xDiT SP=2", "xDiT SP=4", "xDiT SP=8"]
            .iter()
            .map(|l| get(l))
            .fold(0.0f64, f64::max);
        assert!(
            tetri > best_fixed,
            "TetriServe {tetri} must beat best fixed {best_fixed}"
        );
    }

    #[test]
    fn nirvana_improves_attainment() {
        let base = Experiment {
            n_requests: 120,
            ..Experiment::paper_default()
        };
        let cached = Experiment {
            nirvana: Some(NirvanaConfig::default()),
            ..base.clone()
        };
        let policy = PolicyKind::TetriServe(TetriServeConfig::default());
        let plain = sar(&base.run(&policy).outcomes);
        let accel = sar(&cached.run(&policy).outcomes);
        assert!(
            accel >= plain,
            "caching should not hurt: plain {plain}, nirvana {accel}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let policy = PolicyKind::TetriServe(TetriServeConfig::default());
        let a = small(policy.clone());
        let b = small(policy);
        let ca: Vec<_> = a.outcomes.iter().map(|o| o.completion).collect();
        let cb: Vec<_> = b.outcomes.iter().map(|o| o.completion).collect();
        assert_eq!(ca, cb);
    }

    #[test]
    fn slo_scale_loosens_deadlines() {
        let tight = Experiment::paper_default();
        let loose = Experiment {
            slo_scale: 1.5,
            ..Experiment::paper_default()
        };
        let rt = tight.generate_requests();
        let rl = loose.generate_requests();
        for (a, b) in rt.iter().zip(&rl) {
            let ba = a.deadline_s - a.arrival_s;
            let bb = b.deadline_s - b.arrival_s;
            assert!((bb / ba - 1.5).abs() < 1e-9);
        }
    }
}
