//! `perf` — the repository's one benchmark. See `README.md` beside this
//! package and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     [--workload NAME] [--seed 42] [--seconds 20] [--trace [0|1]] [--record FILE]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --compare A.jsonl B.jsonl
//! ```
//!
//! Without `--workload` all five run in turn, each in a process of its
//! own. Each run prints a table to standard error and, as the last line
//! of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with tracing off, the
//! per-layer metrics with `--trace`.

mod child;
mod compare;
mod inputs;
mod jobs;
mod json;
mod report;
mod serve;
mod spec;
mod stats;
mod trace;
mod trace_jobs;
mod trace_serve;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::Outcome;
use spec::{Kind, Workload, DEFAULT_SEED, RUN_SECONDS, WORKLOADS};

#[derive(Debug)]
struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        record: None,
        compare: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                parsed.workload = Some(spec::workload(&name).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload '{name}' (one of {})", names.join(", "))
                })?);
            }
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|_| "invalid --seed".to_string())?;
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds wants a whole number from 1 to 60")?;
            }
            "--trace" => {
                // The driver passes `--trace 0|1`; a bare `--trace` means 1.
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--record" => parsed.record = Some(PathBuf::from(value("a file")?)),
            "--compare" => {
                parsed.compare = Some((
                    PathBuf::from(value("two record files")?),
                    PathBuf::from(value("two record files")?),
                ));
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(parsed)
}

/// Runs one workload; `Err` is a harness failure (nothing measured).
fn run(workload: &Workload, args: &Args, ffmr: &Path, scratch: &Path) -> Result<Outcome, String> {
    match workload.kind {
        // A job workload has no input but its graph, which no seed moves.
        Kind::Job(spec) if args.trace => trace_jobs::trace_job(workload.name, &spec, ffmr, scratch),
        Kind::Job(spec) => jobs::run_end_to_end(&spec, args.seconds, ffmr, scratch),
        Kind::Serve(spec) if args.trace => {
            trace_serve::trace_serve(workload.name, spec, args.seed, ffmr, scratch)
        }
        Kind::Serve(spec) => serve::run_end_to_end(spec, args.seed, args.seconds, ffmr, scratch),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perf: {message}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match compare::run(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(message) => {
                eprintln!("perf: {message}");
                ExitCode::from(2)
            }
        };
    }

    let Some(workload) = args.workload else {
        return run_each_in_its_own_process(&raw);
    };

    let scratch = child::target_dir().join("perf");
    let ffmr = match std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))
        .and_then(|()| child::build_ffmr())
    {
        Ok(path) => path,
        Err(message) => {
            eprintln!("perf: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(workload, &args, &ffmr, &scratch) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perf: {}: {message}", workload.name);
            return ExitCode::from(2);
        }
    };
    eprint!("{}", outcome.render(workload, args.seed, args.trace));
    if let Some(path) = &args.record {
        let line = outcome.to_record(workload.name, args.seed, args.seconds, args.trace);
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"));
        if let Err(e) = appended {
            eprintln!("perf: cannot append to {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", outcome.to_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs this program once per workload with the same arguments. The
/// process-wide metrics registry the traced run reads is cumulative, so
/// a workload must not inherit another's counts.
fn run_each_in_its_own_process(raw: &[String]) -> ExitCode {
    let mut worst = 0;
    for workload in &WORKLOADS {
        let status = std::env::current_exe().and_then(|exe| {
            std::process::Command::new(exe)
                .args(raw)
                .args(["--workload", workload.name])
                .status()
        });
        match status {
            Ok(status) => worst = worst.max(status.code().map_or(2, |c| c.clamp(0, 2) as u8)),
            Err(e) => {
                eprintln!("perf: cannot run {}: {e}", workload.name);
                return ExitCode::from(2);
            }
        }
    }
    ExitCode::from(worst)
}
