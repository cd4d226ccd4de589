//! `perfbench` — the repository's benchmark of the scenario pipeline.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: set-up (cold demand
//! synthesis), the warm sweep through `Runner::with_threads(T)`, and peak
//! memory, with T = min(2, cores). `--trace 1` runs the sweep's points
//! single-threaded through the benchmark's own mirror of the pipeline and
//! reports busy time and work counts per layer. Both check the pipeline's
//! output, print their lines by name with units, and end with one JSON
//! result line. See `README.md` beside this file.

mod host;
mod metrics;
mod trace;
mod workloads;

use host::{Host, RunState};
use metrics::{median, Outcome, END_TO_END, PER_LAYER};
use ssplane_demand::DemandModel;
use ssplane_scenario::Runner;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;
use workloads::Workload;

const USAGE: &str = "usage: perfbench --workload paper-sweep|mega-network|attack-search \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Fewest measured rounds (one synthesis, one pass) per run.
const MIN_ROUNDS: usize = 3;

/// The most threads a run uses.
const MAX_THREADS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::PaperSweep,
        seed: workloads::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes a whole number")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// The untraced run: an untimed one-thread reference pass that also fills
/// the runner's demand cache, then rounds of one cold demand synthesis
/// (set-up) and one warm pass at T threads until `seconds` have been
/// measured.
fn end_to_end(
    workload: Workload,
    seed: u64,
    seconds: f64,
    threads: usize,
) -> Result<Outcome, String> {
    let specs = workload.sweep(seed)?.expand().map_err(|e| e.to_string())?;
    let mut out = Outcome { correct: true, ..Outcome::default() };
    if specs.len() != workload.points() {
        out.problem(format!(
            "the sweep expanded to {} points, not {}",
            specs.len(),
            workload.points()
        ));
    }

    let reference = Runner::with_threads(1).run_specs(&specs);
    let reference_jsonl = reference.to_jsonl();
    let ok: Vec<_> = reference.reports.iter().filter_map(|r| r.as_ref().ok()).collect();
    for problem in workload.check_reports(&ok) {
        out.problem(problem);
    }

    // Rounds of one cold synthesis and one warm pass, so both samples
    // spread over the whole measured window. A round that would mostly
    // fall past the window's end is not started.
    let runner = Runner::with_threads(threads);
    let (mut setup, mut passes) = (Vec::new(), Vec::new());
    let measuring = Instant::now();
    let (mut round_s, mut peak_rss_mb) = (0.0, None);
    while passes.len() < MIN_ROUNDS || measuring.elapsed().as_secs_f64() + round_s / 2.0 < seconds {
        let round = Instant::now();
        let model = DemandModel::synthetic_seeded(black_box(workloads::DEMAND_SEED))
            .map_err(|e| e.to_string())?;
        setup.push(round.elapsed().as_secs_f64());
        black_box(model);

        let start = Instant::now();
        let pass = runner.run_specs(black_box(&specs));
        passes.push(start.elapsed().as_secs_f64());
        out.attempted += pass.reports.len();
        out.failed += pass.reports.iter().filter(|r| r.is_err()).count();
        if pass.to_jsonl() != reference_jsonl {
            out.problem(format!(
                "pass {} differs from the one-thread reference bytes",
                passes.len()
            ));
        }
        round_s = round.elapsed().as_secs_f64();
        if passes.len() == MIN_ROUNDS {
            // Read after a fixed amount of work, so the figure does not
            // depend on how many rounds the host's speed allowed.
            peak_rss_mb = host::peak_rss_mb();
        }
    }

    out.values.insert("setup_s", median(&setup));
    out.values.insert("sweep_s", median(&passes));
    out.values.insert("peak_rss_mb", peak_rss_mb.ok_or("cannot read peak memory")?);
    out.repeatable
        .insert("jsonl.fnv1a".into(), format!("{:016x}", host::fnv1a(reference_jsonl.as_bytes())));
    out.notes.push(format!(
        "jsonl: fnv1a={:016x} bytes={}",
        host::fnv1a(reference_jsonl.as_bytes()),
        reference_jsonl.len()
    ));
    out.notes.push(format!("setup samples: {setup:?}"));
    out.notes.push(format!(
        "sweep passes: {} in {:.3} s, samples {passes:?}",
        passes.len(),
        passes.iter().sum::<f64>()
    ));
    out.notes.push(format!(
        "failed_frac {} fraction ({} of {} points)",
        out.failed as f64 / out.attempted as f64,
        out.failed,
        out.attempted
    ));
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = host::nproc().min(MAX_THREADS);
    let host = Host::detect(threads);
    println!("{}", host.describe());
    println!(
        "workload: {} seed={} (default {}, held-out {}) seconds={} trace={}",
        args.workload.name(),
        args.seed,
        workloads::DEFAULT_SEED,
        workloads::HELD_OUT_SEED,
        args.seconds,
        u8::from(args.trace)
    );

    let (result, declared) = if args.trace {
        (trace::run(args.workload, args.seed, threads), PER_LAYER)
    } else {
        (end_to_end(args.workload, args.seed, args.seconds, threads), END_TO_END)
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let state = RunState::new(args.workload.name(), args.seed);
    for changed in state.check_and_record(&host.sources, &out.repeatable) {
        out.problem(changed);
    }

    for note in &out.notes {
        println!("{note}");
    }
    for metric in declared {
        println!(
            "{} {} {}",
            metric.name,
            out.values.get(metric.name).copied().unwrap_or(f64::NAN),
            metric.unit
        );
    }
    for problem in &out.problems {
        println!("INCORRECT: {problem}");
    }
    match out.result_line(declared) {
        Ok(line) => {
            println!("{line}");
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
