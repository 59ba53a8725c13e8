//! The front-door wall-clock benchmark.
//!
//! Five workloads, each played end to end through `FrontDoor::play` (or
//! `ChaosDoor::play`), every output checked; plus a traced run per workload
//! that attributes the wall time to layers from outside. See perf/README.md.
//!
//! ```text
//! frontdoor-bench                                   all workloads, end to end and traced
//! frontdoor-bench --workload W --seed N --seconds S --trace 0|1
//!                                                   one workload, one kind of run; the last
//!                                                   line of output is a JSON result
//! frontdoor-bench --repeat 2                        two full sets, compared with each other
//! frontdoor-bench --compare A.json B.json           parent vs change
//! frontdoor-bench --check                           every workload, small, < 10 s
//! frontdoor-bench --declaration                     prints BENCHMARK.json from the tables
//! frontdoor-bench --cliff NAME                      reproduces a known cliff (see README)
//! ```

mod cliffs;
mod compare;
mod e2e;
mod episode;
mod json;
mod ladder;
mod meter;
mod metrics;
mod oracle;
mod stats;
mod trace;
mod workload;

use json::Json;
use metrics::{Values, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{Spec, WORKLOADS};

#[global_allocator]
static ALLOCATOR: meter::CountingAllocator = meter::CountingAllocator;

/// Seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 0x5EED;
/// Seconds per run when `--seconds` is not given; `BENCHMARK.json` says the
/// same.
const DEFAULT_SECONDS: f64 = 20.0;
/// Episode size under `--check`.
const CHECK_REQUESTS: usize = 256;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    repeat: usize,
    check: bool,
    declaration: bool,
    cliff: Option<String>,
    compare: Option<(PathBuf, PathBuf)>,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        repeat: 1,
        check: false,
        declaration: false,
        cliff: None,
        compare: None,
        out: PathBuf::from("perf/out"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                let text = value("a number")?;
                let parsed = match text.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => text.parse(),
                };
                args.seed = parsed.map_err(|_| format!("--seed: not a number: {text}"))?;
            }
            "--seconds" => {
                let text = value("a number")?;
                args.seconds = text
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: not a positive number: {text}"))?;
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other}")),
                });
            }
            "--repeat" => {
                let text = value("a count")?;
                args.repeat = text
                    .parse()
                    .ok()
                    .filter(|n| (1..=8).contains(n))
                    .ok_or_else(|| format!("--repeat: expected 1..8, got {text}"))?;
            }
            "--check" => args.check = true,
            "--declaration" => args.declaration = true,
            "--cliff" => args.cliff = Some(value("a cliff name")?),
            "--compare" => {
                args.compare = Some((value("two files")?.into(), value("two files")?.into()));
            }
            "--out" => args.out = value("a directory")?.into(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if let Some((parent, change)) = &args.compare {
            run_compare(parent, change)
        } else if let Some(name) = &args.cliff {
            cliffs::run(name, args.seed).map(|()| true)
        } else if args.declaration {
            print!("{}", declaration().pretty());
            Ok(true)
        } else if args.check {
            run_check()
        } else if let Some(name) = &args.workload {
            run_one(name, &args)
        } else {
            run_all(&args)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("frontdoor-bench: {message}");
            ExitCode::FAILURE
        }
    }
}

// ----------------------------------------------------------------------
// One workload, one kind of run: the driver's contract.
// ----------------------------------------------------------------------

fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let spec = workload::find(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|spec| spec.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    let traced = args.trace.unwrap_or(false);
    let (values, attempted, failed, violations) = if traced {
        let outcome = ladder::run(
            spec,
            ladder::Options {
                seed: args.seed,
                seconds: args.seconds,
                requests: None,
                max_passes: None,
            },
        )?;
        write_trace(&args.out, spec, &outcome.spans)?;
        println!(
            "{}: traced, {} passes, {} spans; door pass requests submitted {} / succeeded {} / failed {}",
            spec.name,
            outcome.passes,
            outcome.spans.len(),
            outcome.submitted,
            outcome.succeeded,
            outcome.failed
        );
        metrics::print(PER_LAYER.iter().map(|m| m.0), &outcome.values);
        (
            metrics::to_json(PER_LAYER.iter().map(|m| m.0), &outcome.values)?,
            outcome.submitted,
            outcome.failed,
            outcome.violations,
        )
    } else {
        let outcome = e2e::run(
            spec,
            e2e::Options {
                seed: args.seed,
                rounds: e2e::Rounds::Timed(args.seconds),
                seeds: None,
                requests: None,
            },
        )?;
        print_end_to_end(spec, &outcome);
        (
            metrics::to_json(END_TO_END.iter().map(|m| m.name), &outcome.values)?,
            outcome.submitted,
            outcome.failed,
            outcome.violations,
        )
    };
    for violation in &violations {
        eprintln!("check failed: {violation}");
    }
    let correct = violations.is_empty();
    let line = Json::object()
        .with("correct", Json::Bool(correct))
        .with("attempted", Json::Num(attempted as f64))
        .with("failed", Json::Num(failed as f64))
        .with("metrics", values);
    println!("{}", line.compact());
    Ok(correct)
}

fn print_end_to_end(spec: &Spec, outcome: &e2e::Outcome) {
    println!(
        "{}: {} seeds x {} rounds; requests submitted {} / succeeded {} / failed {}",
        spec.name,
        outcome.seeds,
        outcome.rounds,
        outcome.submitted,
        outcome.succeeded,
        outcome.failed
    );
    println!(
        "  sim digests (round 0, per seed): {}",
        outcome.digests.join(" ")
    );
    metrics::print(
        END_TO_END
            .iter()
            .map(|m| m.name)
            .chain([metrics::FAIL_FRAC]),
        &outcome.values,
    );
}

fn write_trace(out: &Path, spec: &Spec, spans: &[trace::Span]) -> Result<(), String> {
    let path = out.join(format!("TRACE_{}.json", spec.name));
    write_file(&path, &trace::to_json(spec.name, spans).compact())
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

// ----------------------------------------------------------------------
// Every workload: RESULT.json.
// ----------------------------------------------------------------------

/// The harness diagnostics an end-to-end run measures better than a traced
/// one (more samples); in a full result they replace the traced run's.
const FROM_END_TO_END: [&str; 5] = [
    metrics::FAIL_FRAC,
    "bench.samples",
    "bench.episode_ms_p50",
    "bench.episode_ms_p90",
    "bench.round_spread",
];

struct Options {
    seed: u64,
    seconds: f64,
    check: bool,
}

/// Runs every workload end to end and traced. Returns the result document
/// and whether every check held.
fn full_set(options: &Options, out: Option<&Path>) -> Result<(Json, bool), String> {
    let mut workloads = Json::object();
    let mut correct = true;
    for spec in &WORKLOADS {
        let small = options.check.then_some(CHECK_REQUESTS);
        let end_to_end = e2e::run(
            spec,
            e2e::Options {
                seed: options.seed,
                rounds: if options.check {
                    e2e::Rounds::Fixed(1)
                } else {
                    e2e::Rounds::Timed(options.seconds)
                },
                seeds: options.check.then_some(1),
                requests: small,
            },
        )?;
        print_end_to_end(spec, &end_to_end);
        let traced = ladder::run(
            spec,
            ladder::Options {
                seed: options.seed,
                seconds: options.seconds,
                requests: small,
                max_passes: options.check.then_some(1),
            },
        )?;
        if let Some(out) = out {
            write_trace(out, spec, &traced.spans)?;
        }
        let mut per_layer: Values = traced.values.clone();
        for name in FROM_END_TO_END {
            if let Some(value) = end_to_end.values.get(name) {
                per_layer.insert(name, *value);
            }
        }
        println!(
            "  traced: {} passes, {} spans",
            traced.passes,
            traced.spans.len()
        );
        metrics::print(PER_LAYER.iter().map(|m| m.0), &per_layer);
        for violation in end_to_end.violations.iter().chain(&traced.violations) {
            eprintln!("check failed: {violation}");
            correct = false;
        }
        workloads.set(
            spec.name,
            Json::object()
                .with("why", Json::Str(spec.why.to_string()))
                .with(
                    "requests",
                    Json::object()
                        .with("submitted", Json::Num(end_to_end.submitted as f64))
                        .with("succeeded", Json::Num(end_to_end.succeeded as f64))
                        .with("failed", Json::Num(end_to_end.failed as f64)),
                )
                .with("seeds", Json::Num(end_to_end.seeds as f64))
                .with("rounds", Json::Num(end_to_end.rounds as f64))
                .with("traced_passes", Json::Num(traced.passes as f64))
                .with(
                    "sim_digests",
                    Json::Arr(end_to_end.digests.iter().cloned().map(Json::Str).collect()),
                )
                .with(
                    "end_to_end",
                    metrics::to_json(END_TO_END.iter().map(|m| m.name), &end_to_end.values)?,
                )
                .with(
                    "per_layer",
                    metrics::to_json(PER_LAYER.iter().map(|m| m.0), &per_layer)?,
                ),
        );
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let document = Json::object()
        .with("schema", Json::Str("guillotine-perf/1".to_string()))
        .with("seed", Json::Num(options.seed as f64))
        .with("seconds", Json::Num(options.seconds))
        .with("nproc", Json::Num(nproc as f64))
        .with(
            "rustc",
            Json::Str(std::env::var("FRONTDOOR_BENCH_RUSTC").unwrap_or_else(|_| "unknown".into())),
        )
        .with("workloads", workloads);
    Ok((document, correct))
}

fn run_all(args: &Args) -> Result<bool, String> {
    let options = Options {
        seed: args.seed,
        seconds: args.seconds,
        check: false,
    };
    let (first, mut ok) = full_set(&options, Some(&args.out))?;
    write_file(&args.out.join("RESULT.json"), &first.pretty())?;
    println!("wrote {}", args.out.join("RESULT.json").display());
    for repeat in 2..=args.repeat {
        let (again, correct) = full_set(&options, None)?;
        write_file(
            &args.out.join(format!("RESULT_{repeat}.json")),
            &again.pretty(),
        )?;
        println!("set 1 vs set {repeat}:");
        ok &= correct & compare::compare(&first, &again, true)?;
    }
    Ok(ok)
}

fn run_compare(parent: &Path, change: &Path) -> Result<bool, String> {
    let load = |path: &Path| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    compare::compare(&load(parent)?, &load(change)?, false)
}

// ----------------------------------------------------------------------
// --check: everything small, plus the schema.
// ----------------------------------------------------------------------

fn run_check() -> Result<bool, String> {
    let (document, correct) = full_set(
        &Options {
            seed: DEFAULT_SEED,
            seconds: 1.0,
            check: true,
        },
        None,
    )?;
    let mut problems = Vec::new();
    // The document must survive its own writer and parser.
    if Json::parse(&document.pretty()).as_ref() != Ok(&document) {
        problems.push("RESULT.json does not round-trip".to_string());
    }
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) => match Json::parse(&text) {
            Ok(declared) if declared == declaration() => {}
            Ok(_) => problems
                .push("BENCHMARK.json differs from `frontdoor-bench --declaration`".to_string()),
            Err(e) => problems.push(format!("BENCHMARK.json: {e}")),
        },
        // The declaration lives at the root of the repository; a check run
        // from elsewhere still checks everything else.
        Err(_) => println!("BENCHMARK.json not in the working directory; declaration not checked"),
    }
    for problem in &problems {
        eprintln!("check failed: {problem}");
    }
    println!(
        "check: {} workloads, {} end-to-end and {} per-layer metrics each",
        WORKLOADS.len(),
        END_TO_END.len(),
        PER_LAYER.len()
    );
    Ok(correct && problems.is_empty())
}

/// `BENCHMARK.json`, generated from the workload and metric tables so the
/// declaration cannot drift from what the binary measures.
fn declaration() -> Json {
    let text = |s: &str| Json::Str(s.to_string());
    Json::object()
        .with(
            "command",
            Json::Arr(vec![text("bash"), text("perf/run.sh")]),
        )
        .with("paths", Json::Arr(vec![text("perf")]))
        .with("run_seconds", Json::Num(DEFAULT_SECONDS))
        .with(
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|spec| {
                        Json::object()
                            .with("name", text(spec.name))
                            .with("why", text(spec.why))
                    })
                    .collect(),
            ),
        )
        .with(
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::object()
                            .with("name", text(m.name))
                            .with("unit", text(m.unit))
                            .with("better", text(m.better.as_str()))
                            .with("bound", Json::Num(m.bound))
                    })
                    .collect(),
            ),
        )
        .with(
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| {
                        Json::object()
                            .with("name", text(name))
                            .with("unit", text(unit))
                            .with("better", text(better.as_str()))
                    })
                    .collect(),
            ),
        )
}
