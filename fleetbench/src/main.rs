//! The benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path fleetbench/Cargo.toml -- \
//!     --workload near-capacity --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints a readable summary, then, as the last line of standard output,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`
//! (end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`). Exits non-zero without a result when any output fails its
//! correctness check.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use fleetbench::alloc::{self, CountingAlloc};
use fleetbench::measure::{self, Metric};
use fleetbench::probe::{Layer, Profile};
use fleetbench::rep::{self, Rep};
use fleetbench::speed;
use fleetbench::workloads::{Workload, DEFAULT_SEED};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const USAGE: &str =
    "usage: fleetbench --workload <near-capacity|overload|tenants-video|chaos-fleet> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// Requests in the audit replica. The core auditor compares every pair of
/// dispatches on a cluster, so each run audits a smaller copy of its
/// workload — same generators, seed and fault density — and checks the
/// full-size repetitions for conservation and digest equality instead.
const AUDIT_REQUESTS: usize = 4_000;

/// Fewest measured repetitions of each kind, however long they take.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => {
                let parsed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                };
                seed = parsed.map_err(|e| format!("bad seed {value}: {e}"))?;
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fleetbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fleetbench: correctness check failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Every repetition of one seed must reproduce the reference outputs
/// exactly, traced or not.
fn same_outputs(reference: &Rep, rep: &Rep, what: &str) -> Result<(), String> {
    if rep.digests != reference.digests {
        return Err(format!(
            "{what} changed the digests: {:?}, reference {:?}",
            rep.digests, reference.digests
        ));
    }
    if rep.summary != reference.summary || rep.totals != reference.totals {
        return Err(format!("{what} changed the reported metrics"));
    }
    Ok(())
}

fn run(args: &Args) -> Result<String, String> {
    let (workload, seed) = (args.workload, args.seed);
    let requests = workload.requests();
    rep::run(workload, seed, AUDIT_REQUESTS, false, true)?;
    // The warm-up repetition fills caches and pins the outputs every
    // measured repetition must reproduce.
    let reference = rep::run(workload, seed, requests, false, false)?;
    // Read after a fixed sequence (the audit replica and one untraced
    // repetition): later repetitions only re-use freed memory, and how
    // many of them fit in `--seconds` depends on the host.
    let peak = alloc::peak_rss_mib().ok_or("VmHWM is unavailable")?;

    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut slowdown_before = speed::slowdown();
    while started.elapsed() < budget
        || untraced.len() < MIN_REPS
        || (args.trace && traced.len() < MIN_REPS)
    {
        // A traced run interleaves traced and untraced repetitions so the
        // observer cost compares like with like.
        let trace_this = args.trace && traced.len() < untraced.len();
        let mut rep = rep::run(workload, seed, requests, trace_this, false)?;
        let slowdown_after = speed::slowdown();
        rep.slowdown = (slowdown_before + slowdown_after) / 2.0;
        slowdown_before = slowdown_after;
        same_outputs(&reference, &rep, "a repetition")?;
        if trace_this {
            traced.push(rep);
        } else {
            untraced.push(rep);
        }
    }
    let allocs = untraced.iter().map(Rep::allocs);
    let (lo, hi) = (allocs.clone().min(), allocs.max());

    let mut measured = untraced.len() + traced.len();
    let metrics = if args.trace {
        print_breakdown(traced.last().expect("at least one traced repetition"));
        write_spans(workload, traced.last().and_then(|r| r.profile.as_ref()));
        measure::per_layer(&untraced, &traced)
    } else {
        let check = rep::run(workload, seed, requests, true, false)?;
        same_outputs(&reference, &check, "the traced repetition")?;
        measured += 1;
        let med = |f: fn(&Rep) -> f64| measure::median(untraced.iter().map(f).collect());
        println!(
            "host slowdown {:.3} against the reference kernel; unscaled sim_rps {:.1}",
            med(|r| r.slowdown),
            requests as f64 / med(Rep::host_s)
        );
        measure::end_to_end(&untraced, peak)
    };

    let s = &reference.summary;
    println!(
        "fleetbench {} seed {seed}: {} untraced + {} traced repetitions of {} requests",
        workload.name(),
        untraced.len(),
        traced.len(),
        s.sent
    );
    println!(
        "per repetition: sent {}, completed {}, shed {}, failed {}",
        s.sent, s.completed, s.shed, s.failed
    );
    // The engine keys a few std `HashMap`s by request id; their random
    // hash seed can move a rehash, so the count may differ by a handful of
    // allocations between otherwise identical repetitions.
    println!(
        "allocations per untraced repetition: {} to {}",
        lo.unwrap_or(0),
        hi.unwrap_or(0)
    );
    if s.tenant_sars.len() > 1 {
        println!("per-tenant SAR: {:.3?}", s.tenant_sars);
    }
    for m in &metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
    }
    let attempted = (s.sent * measured) as u64;
    let failed = (s.failed * measured) as u64;
    Ok(result_json(attempted, failed, &metrics))
}

/// Shows how the traced repetition's host time splits over the seams; the
/// loop's self time is the remainder, so the shares sum to 100%.
fn print_breakdown(rep: &Rep) {
    let p = rep
        .profile
        .as_ref()
        .expect("traced repetition carries a profile");
    let run_ns = rep.run_s * 1e9;
    let share = |ns: f64| 100.0 * ns / run_ns;
    print!("traced run {:.3} s:", rep.run_s);
    for layer in Layer::ALL {
        print!(" {} {:.1}%", layer.name(), share(p.layer(layer).ns as f64));
    }
    println!(
        " loop-self {:.1}% over {} events",
        share(run_ns - p.seam_ns() as f64),
        rep.totals.events
    );
}

/// Writes the traced repetition's spans as TSV under `out/` next to this
/// package's manifest. A failure to write only warns: the spans are a
/// by-product, not a result.
fn write_spans(workload: Workload, profile: Option<&Profile>) {
    let Some(profile) = profile else { return };
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    // One file per workload, overwritten by each traced run.
    let path: PathBuf = dir.join(format!("{}.spans.tsv", workload.name()));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(out, "layer\tstart_ns\tend_ns\trequest\tcluster")?;
        for s in &profile.spans {
            let opt = |v: Option<u64>| v.map_or_else(|| "-".to_owned(), |v| v.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                opt(s.request),
                opt(s.cluster.map(u64::from))
            )?;
        }
        out.flush()
    };
    match write() {
        Ok(()) => println!(
            "spans: {} written to {}",
            profile.spans.len(),
            path.display()
        ),
        Err(e) => eprintln!(
            "fleetbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
}

fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
