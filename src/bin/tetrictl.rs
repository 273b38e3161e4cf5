//! `tetrictl` — command-line driver for the TetriServe reproduction.
//!
//! ```text
//! tetrictl profile  [--model flux|sd3] [--cluster h100x8|a40x4]
//! tetrictl serve    [--policy tetriserve|sp1|sp2|sp4|sp8|rssp|edf]
//!                   [--model flux|sd3] [--cluster h100x8|a40x4]
//!                   [--mix uniform|skewed|256|512|1024|2048]
//!                   [--rate R] [--scale S] [--requests N] [--seed S]
//!                   [--bursty] [--nirvana]
//! tetrictl compare  [same workload flags]          # all policies, one table
//! tetrictl sweep    --over scales|rates [same workload flags]
//! tetrictl gen      [same workload flags]          # emit the workload as CSV
//! tetrictl serve --trace FILE ...                  # replay a saved CSV trace
//! ```
//!
//! Everything runs on the simulated cluster; no GPUs required.

use std::collections::BTreeMap;
use std::process::ExitCode;

use tetriserve::bench::{ArrivalKind, Experiment, PolicyKind, SLO_SCALES};
use tetriserve::core::TetriServeConfig;
use tetriserve::costmodel::{ClusterSpec, DitModel, Resolution};
use tetriserve::metrics::latency::LatencySummary;
use tetriserve::metrics::report::TextTable;
use tetriserve::metrics::sar::{sar, sar_by_resolution};
use tetriserve::nirvana::NirvanaConfig;
use tetriserve::traffic::to_spec;
use tetriserve::workload::ResolutionMix;

/// Parsed command line.
#[derive(Debug, Clone)]
struct Cli {
    command: Command,
    experiment: Experiment,
    policy: PolicyKind,
    sweep_over: SweepKind,
    trace_file: Option<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    Profile,
    Serve,
    Compare,
    Sweep,
    Gen,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SweepKind {
    Scales,
    Rates,
}

fn usage() -> String {
    "usage: tetrictl <profile|serve|compare|sweep> [flags]\n\
     flags: --model flux|sd3  --cluster h100x8|a40x4  --policy tetriserve|sp1|sp2|sp4|sp8|rssp|edf\n\
            --mix uniform|skewed|256|512|1024|2048  --rate R  --scale S  --requests N  --seed S\n\
            --bursty  --diurnal  --nirvana  --over scales|rates (sweep only)  --trace FILE (serve replay)"
        .to_owned()
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut it = args.iter();
    let command = match it.next().map(String::as_str) {
        Some("profile") => Command::Profile,
        Some("serve") => Command::Serve,
        Some("compare") => Command::Compare,
        Some("sweep") => Command::Sweep,
        Some("gen") => Command::Gen,
        other => return Err(format!("unknown command {other:?}\n{}", usage())),
    };

    let mut experiment = Experiment::paper_default();
    let mut policy = PolicyKind::TetriServe(TetriServeConfig::default());
    let mut sweep_over = SweepKind::Scales;
    let mut trace_file: Option<String> = None;
    let mut model_flag: Option<String> = None;
    let mut cluster_flag: Option<String> = None;

    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--model" => model_flag = Some(value()?),
            "--cluster" => cluster_flag = Some(value()?),
            "--policy" => {
                policy = match value()?.as_str() {
                    "tetriserve" => PolicyKind::TetriServe(TetriServeConfig::default()),
                    "rssp" => PolicyKind::Rssp,
                    "edf" => PolicyKind::EdfRssp,
                    s if s.starts_with("sp") => {
                        let k: usize = s[2..].parse().map_err(|_| format!("bad policy {s}"))?;
                        PolicyKind::FixedSp(k)
                    }
                    s => return Err(format!("unknown policy {s}")),
                }
            }
            "--mix" => {
                experiment.mix = match value()?.as_str() {
                    "uniform" => ResolutionMix::uniform(),
                    "skewed" => ResolutionMix::skewed(),
                    "256" => ResolutionMix::homogeneous(Resolution::R256),
                    "512" => ResolutionMix::homogeneous(Resolution::R512),
                    "1024" => ResolutionMix::homogeneous(Resolution::R1024),
                    "2048" => ResolutionMix::homogeneous(Resolution::R2048),
                    s => return Err(format!("unknown mix {s}")),
                }
            }
            "--rate" => {
                experiment.rate_per_min =
                    value()?.parse().map_err(|e| format!("bad --rate: {e}"))?
            }
            "--scale" => {
                experiment.slo_scale = value()?.parse().map_err(|e| format!("bad --scale: {e}"))?
            }
            "--requests" => {
                experiment.n_requests = value()?
                    .parse()
                    .map_err(|e| format!("bad --requests: {e}"))?
            }
            "--seed" => {
                experiment.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?
            }
            "--trace" => trace_file = Some(value()?),
            "--bursty" => experiment.arrival = ArrivalKind::Bursty,
            "--diurnal" => experiment.arrival = ArrivalKind::Diurnal,
            "--nirvana" => experiment.nirvana = Some(NirvanaConfig::default()),
            "--over" => {
                sweep_over = match value()?.as_str() {
                    "scales" => SweepKind::Scales,
                    "rates" => SweepKind::Rates,
                    s => return Err(format!("unknown sweep axis {s}")),
                }
            }
            s => return Err(format!("unknown flag {s}\n{}", usage())),
        }
    }

    // Model / cluster pairing: default FLUX on h100x8, SD3 on a40x4.
    match (model_flag.as_deref(), cluster_flag.as_deref()) {
        (None | Some("flux"), None | Some("h100x8")) => {}
        (Some("sd3"), None) | (Some("sd3"), Some("a40x4")) | (None, Some("a40x4")) => {
            experiment.model = DitModel::sd3_medium();
            experiment.cluster = ClusterSpec::a40x4();
        }
        (Some("sd3"), Some("h100x8")) => {
            experiment.model = DitModel::sd3_medium();
        }
        (Some("flux"), Some("a40x4")) => {
            experiment.cluster = ClusterSpec::a40x4();
        }
        (m, c) => return Err(format!("unsupported model/cluster combo {m:?}/{c:?}")),
    }

    Ok(Cli {
        command,
        experiment,
        policy,
        sweep_over,
        trace_file,
    })
}

fn cmd_profile(exp: &Experiment) {
    let costs = exp.cost_table();
    let mut table = TextTable::new(
        format!(
            "profiled step times (ms): {} on {}",
            costs.model().name,
            costs.cluster()
        ),
        {
            let mut h = vec!["resolution".to_owned()];
            h.extend(costs.degrees().iter().map(|k| format!("SP={k}")));
            h.push("T_min deg".to_owned());
            h
        },
    );
    for &res in costs.resolutions() {
        let mut row = vec![res.to_string()];
        for &k in costs.degrees() {
            row.push(format!("{:.2}", costs.step_time(res, k, 1).as_millis_f64()));
        }
        row.push(costs.fastest_degree(res).to_string());
        table.row(row);
    }
    println!("{}", table.render());
}

fn cmd_gen(exp: &Experiment) {
    print!("{}", tetriserve::workload::to_csv(&exp.generate_requests()));
}

fn cmd_serve(
    exp: &Experiment,
    policy: &PolicyKind,
    trace_file: Option<&str>,
) -> Result<(), String> {
    let report = match trace_file {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read trace {path}: {e}"))?;
            let requests =
                tetriserve::workload::from_csv(&text).map_err(|e| format!("bad trace: {e}"))?;
            let specs: Vec<_> = requests
                .iter()
                .map(|r| to_spec(r, exp.model.steps))
                .collect();
            let costs = exp.cost_table();
            if let Some(s) = specs
                .iter()
                .find(|s| !costs.resolutions().contains(&s.resolution))
            {
                return Err(format!(
                    "bad trace: request {} asks for {}, which the cost table does not profile",
                    s.id.0, s.resolution
                ));
            }
            exp.run_specs(policy, specs)
        }
        None => exp.run(policy),
    };
    println!(
        "{} served {} requests ({}, {:.0} req/min, SLO {:.1}x)",
        report.policy,
        report.outcomes.len(),
        exp.mix.name(),
        exp.rate_per_min,
        exp.slo_scale
    );
    let by: BTreeMap<_, _> = sar_by_resolution(&report.outcomes);
    let spider: Vec<String> = by
        .iter()
        .map(|(r, s)| format!("{}: {:.2}", r.label(), s))
        .collect();
    let lat = LatencySummary::from_outcomes(&report.outcomes);
    println!(
        "SAR {:.3} | mean latency {:.2}s | p99 {:.2}s | utilisation {:.0}%",
        sar(&report.outcomes),
        lat.mean().unwrap_or(f64::NAN),
        lat.percentile(99.0).unwrap_or(f64::NAN),
        report.utilization * 100.0
    );
    println!("per-resolution SAR: [{}]", spider.join("  "));
    Ok(())
}

fn cmd_compare(exp: &Experiment) {
    let mut table = TextTable::new(
        format!(
            "policy comparison ({}, {:.0} req/min, SLO {:.1}x)",
            exp.mix.name(),
            exp.rate_per_min,
            exp.slo_scale
        ),
        ["policy", "SAR", "mean lat (s)", "p99 (s)"],
    );
    for (label, report) in exp.run_policies(&PolicyKind::standard_set(&exp.cluster)) {
        let lat = LatencySummary::from_outcomes(&report.outcomes);
        table.row([
            label,
            format!("{:.3}", sar(&report.outcomes)),
            format!("{:.2}", lat.mean().unwrap_or(f64::NAN)),
            format!("{:.2}", lat.percentile(99.0).unwrap_or(f64::NAN)),
        ]);
    }
    println!("{}", table.render());
}

fn cmd_sweep(exp: &Experiment, over: SweepKind) {
    let policies = PolicyKind::standard_set(&exp.cluster);
    let points: Vec<(String, Experiment)> = match over {
        SweepKind::Scales => SLO_SCALES
            .iter()
            .map(|&s| {
                (
                    format!("{s:.1}x"),
                    Experiment {
                        slo_scale: s,
                        ..exp.clone()
                    },
                )
            })
            .collect(),
        SweepKind::Rates => [6.0, 9.0, 12.0, 18.0, 24.0]
            .iter()
            .map(|&r| {
                (
                    format!("{r:.0}/min"),
                    Experiment {
                        rate_per_min: r,
                        ..exp.clone()
                    },
                )
            })
            .collect(),
    };
    let mut header = vec!["policy".to_owned()];
    header.extend(points.iter().map(|(l, _)| l.clone()));
    let mut table = TextTable::new(format!("SAR sweep ({})", exp.mix.name()), header);
    let columns: Vec<Vec<(String, f64)>> = points
        .iter()
        .map(|(_, e)| {
            e.run_policies(&policies)
                .into_iter()
                .map(|(l, r)| (l, sar(&r.outcomes)))
                .collect()
        })
        .collect();
    for p in &policies {
        let label = p.label();
        let mut row = vec![label.clone()];
        for col in &columns {
            let v = col
                .iter()
                .find(|(l, _)| *l == label)
                .map(|(_, s)| *s)
                .unwrap();
            row.push(format!("{v:.2}"));
        }
        table.row(row);
    }
    println!("{}", table.render());
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match cli.command {
        Command::Profile => cmd_profile(&cli.experiment),
        Command::Serve => {
            if let Err(e) = cmd_serve(&cli.experiment, &cli.policy, cli.trace_file.as_deref()) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
        Command::Compare => cmd_compare(&cli.experiment),
        Command::Sweep => cmd_sweep(&cli.experiment, cli.sweep_over),
        Command::Gen => cmd_gen(&cli.experiment),
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_defaults() {
        let cli = parse(&argv("serve")).unwrap();
        assert_eq!(cli.command, Command::Serve);
        assert_eq!(
            cli.policy,
            PolicyKind::TetriServe(TetriServeConfig::default())
        );
        assert_eq!(cli.experiment.n_requests, 300);
        assert_eq!(cli.experiment.cluster, ClusterSpec::h100x8());
    }

    #[test]
    fn parses_full_flag_set() {
        let cli = parse(&argv(
            "serve --policy sp4 --mix skewed --rate 18 --scale 1.2 --requests 50 --seed 7 --bursty --nirvana",
        ))
        .unwrap();
        assert_eq!(cli.policy, PolicyKind::FixedSp(4));
        assert_eq!(cli.experiment.rate_per_min, 18.0);
        assert_eq!(cli.experiment.slo_scale, 1.2);
        assert_eq!(cli.experiment.n_requests, 50);
        assert_eq!(cli.experiment.seed, 7);
        assert_eq!(cli.experiment.arrival, ArrivalKind::Bursty);
        assert!(cli.experiment.nirvana.is_some());
        assert_eq!(cli.experiment.mix.name(), "Skewed(α=1)");
    }

    #[test]
    fn sd3_pairs_with_a40_by_default() {
        let cli = parse(&argv("profile --model sd3")).unwrap();
        assert_eq!(cli.experiment.cluster, ClusterSpec::a40x4());
        assert_eq!(cli.experiment.model.name, "SD3-Medium");
    }

    #[test]
    fn sweep_axis_parses() {
        let cli = parse(&argv("sweep --over rates")).unwrap();
        assert_eq!(cli.sweep_over, SweepKind::Rates);
        assert_eq!(cli.command, Command::Sweep);
    }

    #[test]
    fn gen_and_trace_flags_parse() {
        let cli = parse(&argv("gen --requests 5")).unwrap();
        assert_eq!(cli.command, Command::Gen);
        let cli = parse(&argv("serve --trace /tmp/t.csv")).unwrap();
        assert_eq!(cli.trace_file.as_deref(), Some("/tmp/t.csv"));
    }

    #[test]
    fn rejects_unknown_input() {
        assert!(parse(&argv("destroy")).is_err());
        assert!(parse(&argv("serve --policy sp3x")).is_err());
        assert!(parse(&argv("serve --rate")).is_err());
        assert!(parse(&argv("serve --frobnicate 1")).is_err());
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn homogeneous_mix_flags() {
        for (flag, label) in [("256", "Homogeneous(256)"), ("2048", "Homogeneous(2048)")] {
            let cli = parse(&argv(&format!("serve --mix {flag}"))).unwrap();
            assert_eq!(cli.experiment.mix.name(), label);
        }
    }
}
