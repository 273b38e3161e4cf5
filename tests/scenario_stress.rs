//! Stress scenarios from the curated library, served end to end.

use tetriserve::baselines::FixedSpPolicy;
use tetriserve::core::audit::audit;
use tetriserve::core::{RequestSpec, Server, TetriServePolicy};
use tetriserve::costmodel::{ClusterSpec, DitModel, Profiler, Resolution};
use tetriserve::traffic::to_spec;
use tetriserve::workload::{scenarios, GeneratedRequest};

fn costs() -> tetriserve::costmodel::CostTable {
    Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic()
}

/// 50-step serving specs for a scenario's requests.
fn specs(requests: &[GeneratedRequest]) -> Vec<RequestSpec> {
    requests.iter().map(|r| to_spec(r, 50)).collect()
}

#[test]
fn feasible_deadline_cliff_is_fully_packed() {
    // Four 1024² requests sharing one deadline: two SP=4 pairs back to
    // back fit comfortably. TetriServe saves all four.
    let specs = specs(&scenarios::deadline_cliff(
        4,
        Resolution::R1024,
        1.0,
        5.0,
        5,
    ));
    let c = costs();
    let tetri = Server::new(c.clone(), TetriServePolicy::with_defaults(&c)).run(specs);
    assert_eq!(tetri.sar(), 1.0, "{:#?}", tetri.outcomes);
    assert!(audit(&tetri.trace, &tetri.outcomes).is_empty());
}

#[test]
fn overloaded_deadline_cliff_documents_the_fairness_limit() {
    // Eight identical-deadline 1024² requests overload the window. Fair
    // round-based progress thrashes here — every request advances, most
    // miss — while unfair FIFO-at-SP=8 pushes requests through one at a
    // time and saves more. This is a known weakness of deadline-driven
    // packing under overloaded *identical* deadlines (the survival bound
    // cannot distinguish the doomed from the savable); the paper's design
    // shares it. The test pins the behaviour so a future fix is visible.
    let specs = specs(&scenarios::deadline_cliff(
        8,
        Resolution::R1024,
        1.0,
        5.0,
        5,
    ));
    let c = costs();
    let tetri = Server::new(c.clone(), TetriServePolicy::with_defaults(&c)).run(specs.clone());
    let sp8 = Server::new(c, FixedSpPolicy::new(8)).run(specs);
    assert!(sp8.sar() > tetri.sar(), "{} vs {}", sp8.sar(), tetri.sar());
    // Everything still completes and the schedule is valid.
    assert!(tetri.outcomes.iter().all(|o| o.completion.is_some()));
    assert!(audit(&tetri.trace, &tetri.outcomes).is_empty());
}

#[test]
fn elephants_and_mice_all_survive_under_tetriserve() {
    // The Figure 1 head-of-line shape, repeated: big requests must not
    // starve the mice and vice versa.
    let specs = specs(&scenarios::elephants_and_mice(6));
    let c = costs();
    let report = Server::new(c.clone(), TetriServePolicy::with_defaults(&c)).run(specs.clone());
    let mice_met = report
        .outcomes
        .iter()
        .filter(|o| o.resolution == Resolution::R256 && o.met_slo())
        .count();
    assert!(mice_met >= 16, "mice survive the elephants: {mice_met}/18");
    // SP=1 FIFO starves the elephants completely.
    let sp1 = Server::new(c, FixedSpPolicy::new(1)).run(specs);
    let elephants_met = sp1
        .outcomes
        .iter()
        .filter(|o| o.resolution == Resolution::R2048 && o.met_slo())
        .count();
    assert_eq!(elephants_met, 0);
}

#[test]
fn flash_crowd_completes_everything() {
    let specs = specs(&scenarios::flash_crowd(120, 12.0, 17));
    let c = costs();
    let report = Server::new(c.clone(), TetriServePolicy::with_defaults(&c)).run(specs);
    assert!(report.outcomes.iter().all(|o| o.completion.is_some()));
    assert!(report.sar() > 0.5, "{}", report.sar());
    assert!(audit(&report.trace, &report.outcomes).is_empty());
}
