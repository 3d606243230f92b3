//! The three job workloads, end to end: `ffmr maxflow` child processes
//! run one after another against an FB' edge-list file, each printed
//! flow value checked against the Dinic oracle.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use swgraph::{Capacity, FlowNetwork};

use crate::child::{self, JobRun, JOB_TIMEOUT};
use crate::inputs::{self, Graph, SUPER_W};
use crate::report::Outcome;
use crate::spec::{JobSpec, DIST_WORKERS, JOB_SETUP_REPEATS, JOB_THREADS, MIN_TIMED_JOBS};
use crate::stats::{median, smooth_p50, smooth_p95};

/// What set-up leaves for the timed part.
#[derive(Debug)]
pub struct JobInputs {
    pub net: FlowNetwork,
    pub input: PathBuf,
    /// The flow value every job must print.
    pub oracle: Capacity,
    /// FB' generation alone (also `swgraph.generate_s`).
    pub generate: Duration,
}

/// Everything before the first job: FB' generation, the edge-list
/// write, the oracle solve.
pub fn set_up(graph: Graph, scratch: &Path) -> Result<JobInputs, String> {
    let started = Instant::now();
    let net = inputs::generate(graph);
    let generate = started.elapsed();
    let input = inputs::write_graph(&net, scratch, graph)?;
    let oracle = inputs::batch_oracle(&net)?;
    Ok(JobInputs {
        net,
        input,
        oracle,
        generate,
    })
}

/// `ffmr maxflow --input FILE --w 64 --algorithm A`.
fn maxflow(ffmr: &Path, input: &Path, algorithm: &str) -> Command {
    let mut cmd = Command::new(ffmr);
    cmd.arg("maxflow")
        .arg("--input")
        .arg(input)
        .args(["--w", &SUPER_W.to_string()])
        .args(["--algorithm", algorithm]);
    cmd
}

/// The `ffmr maxflow` command line of this workload. A one-thread job
/// runs on one CPU ([`child::cpu_split`]); the distributed job's three
/// processes are left to the scheduler (confined, they take as long).
pub fn command(ffmr: &Path, spec: &JobSpec, input: &Path) -> Command {
    let mut cmd = maxflow(ffmr, input, spec.algorithm);
    if spec.distributed {
        cmd.args(["--workers", &DIST_WORKERS.to_string()]);
    } else {
        cmd.args(["--threads", &JOB_THREADS.to_string()]);
        if let Some((job_cpu, _)) = child::cpu_split() {
            job_cpu.confine(&mut cmd);
        }
    }
    cmd
}

/// Whether the job exited 0 and printed the oracle's flow value.
pub fn job_is_correct(run: &JobRun, oracle: Capacity) -> bool {
    run.ok && child::parse_max_flow(&run.stdout) == Some(oracle)
}

pub fn run_end_to_end(
    spec: &JobSpec,
    seconds: u64,
    ffmr: &Path,
    scratch: &Path,
) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(JOB_SETUP_REPEATS);
    let mut inputs = None;
    for _ in 0..JOB_SETUP_REPEATS {
        let started = Instant::now();
        inputs = Some(set_up(spec.graph, scratch)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("JOB_SETUP_REPEATS > 0");

    // One short untimed job first (in-memory Dinic on the same file)
    // pages in the binary and the input: users do not pay for a cold
    // page cache on every run, so neither does the measurement. It also
    // puts the oracle's value through the CLI's own parser and solver.
    let warm = child::run_job(&mut maxflow(ffmr, &inputs.input, "dinic"), scratch)?;
    if !job_is_correct(&warm, inputs.oracle) {
        return Err(format!(
            "warm-up job failed (exit ok: {}, oracle {}):\n{}{}",
            warm.ok, inputs.oracle, warm.stdout, warm.stderr
        ));
    }

    let budget = Duration::from_secs(seconds);
    let window = Instant::now();
    let mut runs: Vec<JobRun> = Vec::new();
    loop {
        runs.push(child::run_job(
            &mut command(ffmr, spec, &inputs.input),
            scratch,
        )?);
        // Stop when another job of typical length would overrun the window.
        let typical = median(
            &runs
                .iter()
                .map(|r| r.wall.as_secs_f64())
                .collect::<Vec<_>>(),
        );
        if runs.len() >= MIN_TIMED_JOBS
            && window.elapsed() + Duration::from_secs_f64(typical) > budget
        {
            break;
        }
    }
    let window = window.elapsed().as_secs_f64();

    let correct: Vec<bool> = runs
        .iter()
        .map(|r| job_is_correct(r, inputs.oracle))
        .collect();
    for (run, _) in runs.iter().zip(&correct).filter(|(_, ok)| !**ok) {
        eprintln!(
            "perf: job failed or printed a flow other than {}:\n{}{}",
            inputs.oracle, run.stdout, run.stderr
        );
    }
    let failed = correct.iter().filter(|ok| !**ok).count();
    // A failed job counts as slow as the time-out.
    let mut walls_ms: Vec<f64> = runs
        .iter()
        .zip(&correct)
        .map(|(r, ok)| if *ok { r.wall } else { JOB_TIMEOUT }.as_secs_f64() * 1e3)
        .collect();
    walls_ms.sort_by(f64::total_cmp);
    let rss_mib: Vec<f64> = runs
        .iter()
        .filter_map(|r| r.peak_rss_kib)
        .map(|kib| kib as f64 / 1024.0)
        .collect();

    let mut out = Outcome::new(failed == 0, runs.len() as u64, failed as u64);
    out.end_to_end("op_p50_ms", smooth_p50(&walls_ms));
    out.end_to_end("op_p95_ms", smooth_p95(&walls_ms));
    out.end_to_end("ops_per_s", (runs.len() - failed) as f64 / window);
    out.end_to_end(
        "peak_rss_mb",
        if rss_mib.is_empty() {
            0.0
        } else {
            median(&rss_mib)
        },
    );
    out.end_to_end("setup_s", median(&setups));
    out.note(format!(
        "{} timed jobs in {window:.2} s, wall min {:.1} ms / max {:.1} ms; oracle flow {} (Dinic, check_flow ok)",
        runs.len(),
        walls_ms[0],
        walls_ms[walls_ms.len() - 1],
        inputs.oracle
    ));
    Ok(out)
}
