//! Turns repetitions into the named metrics the benchmark prints.
//!
//! Simulated metrics come from one repetition (every repetition of a seed
//! has the same digests, which the caller checks). Host metrics are
//! medians over the measured repetitions.

use crate::probe::Layer;
use crate::rep::Rep;

/// One named measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit of `value`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The end-to-end metrics of an untraced run. Each repetition's host times
/// are divided by the host's slowdown around it (see [`crate::speed`])
/// before taking the median.
pub fn end_to_end(reps: &[Rep], peak_rss_mb: f64) -> Vec<Metric> {
    let s = &reps[0].summary;
    let sent = s.sent as f64;
    let med = |f: fn(&Rep) -> f64| median(reps.iter().map(f).collect());
    vec![
        metric("sar", "ratio", s.sar),
        metric("worst_tenant_sar", "ratio", s.worst_tenant_sar),
        metric("full_quality_sar", "ratio", s.full_quality_sar),
        metric("goodput_rps", "req/sim-s", s.goodput_rps),
        metric("latency_p50_s", "sim-s", s.latency_p50_s),
        metric("latency_p99_s", "sim-s", s.latency_p99_s),
        metric("sim_rps", "req/s", sent / med(|r| r.host_s() / r.slowdown)),
        metric("allocs_per_req", "count", med(|r| r.allocs() as f64) / sent),
        metric("peak_rss_mb", "MiB", peak_rss_mb),
        metric("setup_s", "s", med(|r| r.setup_s / r.slowdown)),
    ]
}

/// The per-layer metrics of one traced repetition.
///
/// # Panics
///
/// Panics if `rep` was not traced.
pub fn layer_metrics(rep: &Rep) -> Vec<Metric> {
    let p = rep
        .profile
        .as_ref()
        .expect("per-layer metrics need a traced repetition");
    let t = &rep.totals;
    let c = &p.counts;
    let sent = rep.summary.sent as f64;
    let events = t.events as f64;
    let ns = |l: Layer| p.layer(l).ns as f64;
    let calls = |l: Layer| p.layer(l).calls as f64;
    let loop_allocs = rep
        .run_allocs
        .saturating_sub(p.seam_allocs() + p.probe_allocs);
    vec![
        metric("source.ns_per_req", "ns", ratio(ns(Layer::Source), sent)),
        metric(
            "source.allocs_per_req",
            "count",
            ratio(p.layer(Layer::Source).allocs as f64, sent),
        ),
        metric(
            "router.ns_per_call",
            "ns",
            ratio(ns(Layer::Router), calls(Layer::Router)),
        ),
        metric(
            "router.shed_frac",
            "ratio",
            ratio(c.route_sheds as f64, calls(Layer::Router)),
        ),
        metric(
            "admission.ns_per_arrival",
            "ns",
            ratio(ns(Layer::Admission), calls(Layer::Admission)),
        ),
        metric(
            "admission.feasible_frac",
            "ratio",
            ratio(c.feasible_views as f64, c.views as f64),
        ),
        metric(
            "admission.cluster_shed_per_kreq",
            "count",
            ratio(1000.0 * t.cluster_sheds as f64, sent),
        ),
        metric(
            "feas.scans_per_req",
            "count",
            ratio(t.feas_scans as f64, sent),
        ),
        metric(
            "policy.ns_per_call",
            "ns",
            ratio(ns(Layer::Policy), calls(Layer::Policy)),
        ),
        metric(
            "policy.calls_per_req",
            "count",
            ratio(calls(Layer::Policy), sent),
        ),
        metric(
            "policy.useful_frac",
            "ratio",
            ratio(c.useful_calls as f64, calls(Layer::Policy)),
        ),
        metric(
            "policy.plans_per_call",
            "count",
            ratio(c.plans as f64, calls(Layer::Policy)),
        ),
        metric(
            "policy.allocs_per_call",
            "count",
            ratio(p.layer(Layer::Policy).allocs as f64, calls(Layer::Policy)),
        ),
        metric("loop.events_per_req", "count", ratio(events, sent)),
        metric(
            "loop.self_ns_per_event",
            "ns",
            ratio(rep.run_s * 1e9 - p.seam_ns() as f64, events),
        ),
        metric(
            "loop.allocs_per_event",
            "count",
            ratio(loop_allocs as f64, events),
        ),
        metric(
            "trace.events_per_req",
            "count",
            ratio(t.trace_records as f64, sent),
        ),
        metric(
            "engine.aborted_per_kreq",
            "count",
            ratio(1000.0 * t.aborted as f64, sent),
        ),
        metric(
            "engine.retries_per_req",
            "count",
            ratio(t.retries as f64, sent),
        ),
        metric("engine.wasted_gpu_s", "gpu-s", t.wasted_gpu_s),
        metric(
            "degrade.rescued_frac",
            "ratio",
            ratio(t.rescued as f64, sent),
        ),
        metric(
            "degrade.useful_frac",
            "ratio",
            ratio(t.degraded_completions as f64, t.rescued as f64),
        ),
        metric(
            "degrade.debt_steps_per_req",
            "count",
            ratio(t.debt_steps as f64, sent),
        ),
        metric(
            "rebalance.ns_per_tick",
            "ns",
            ratio(ns(Layer::Rebalance), calls(Layer::Rebalance)),
        ),
        metric(
            "rebalance.migrations_per_kreq",
            "count",
            ratio(1000.0 * t.migrations as f64, sent),
        ),
        metric("rebalance.rescues", "count", t.rescues as f64),
        metric("stages.encode_util", "ratio", t.encode_util),
        metric("stages.decode_util", "ratio", t.decode_util),
        metric("stages.denoise_share", "ratio", t.denoise_share),
        metric("report.ns", "ns", rep.report_s * 1e9),
    ]
}

/// The per-layer metrics of a traced run: medians over the traced
/// repetitions, plus the observer cost measured against the untraced
/// repetitions interleaved with them.
pub fn per_layer(untraced: &[Rep], traced: &[Rep]) -> Vec<Metric> {
    let per_rep: Vec<Vec<Metric>> = traced.iter().map(layer_metrics).collect();
    let mut out: Vec<Metric> = per_rep[0]
        .iter()
        .enumerate()
        .map(|(i, m)| Metric {
            value: median(per_rep.iter().map(|r| r[i].value).collect()),
            ..*m
        })
        .collect();
    let run_s = |reps: &[Rep]| median(reps.iter().map(|r| r.run_s).collect());
    let plain = run_s(untraced);
    out.push(metric(
        "trace_overhead_frac",
        "ratio",
        (run_s(traced) - plain) / plain,
    ));
    out
}
