//! `ffmr` — command-line max-flow on edge-list graphs.
//!
//! ```text
//! ffmr generate --model ba --vertices 1000 --out graph.txt [--param 3] [--seed 42]
//! ffmr info --input graph.txt
//! ffmr maxflow --input graph.txt --source 0 --sink 999 \
//!       [--algorithm ff5|ff1|parallel-pr|dinic|push-relabel|pregel]
//!       [--nodes 20] [--w 0] [--threads N] [--state FILE] [--resume]
//!       [--crash-after-round N] [--crash-in-round N]
//! ffmr serve --listen 127.0.0.1:7227 --graph fb=graph.txt [--graph ...]
//!       [--workers 4] [--queue 16] [--cache 256]
//! ffmr worker --connect HOST:PORT
//! ffmr query --addr 127.0.0.1:7227 --op maxflow --dataset fb \
//!       (--source S --sink T | --w N) [--algorithm auto|...] [--timeout-ms N]
//! ffmr stats --addr 127.0.0.1:7227 [--dataset fb] [--prometheus] [--watch]
//! ffmr report (--state FILE | --history FILE) [--base PATH] [--json]
//! ```
//!
//! `maxflow` and `serve` accept `--trace-file FILE` to record every span
//! (FF rounds, MapReduce phases, queries) as one JSON line each. An
//! option its subcommand does not read is an error.
//!
//! With `--w N` the source/sink arguments are ignored and a super
//! source/sink over `N` high-degree terminals each is attached (the
//! paper's Sec. V-A1 construction).
//!
//! `maxflow --algorithm ff1..ff5` is the paper's MapReduce driver on a
//! simulated cluster, with `--state`/`--resume` checkpoints and `report`.
//! `serve` holds each graph resident and answers every query in memory:
//! plain `maxflow` from a Gomory–Hu cut tree built in the background
//! (it prints a line when one is ready), everything else — `w` and
//! `mincut` queries too — by the certified local search between the
//! terminal sets on the snapshot; its `--algorithm` pins an in-memory
//! solver, run on one solver thread.
//!
//! `maxflow --workers N` runs the MapReduce rounds in *distributed
//! mode*: `N` separate `ffmr worker` OS processes are spawned against an
//! in-driver coordinator and execute every map/reduce task over TCP.
//! The simulated cost model, retries and output bytes are identical to
//! the in-process run. `ffmr worker --connect` joins a coordinator by
//! hand (e.g. from another terminal or machine); it needs no other
//! option: it long-polls the coordinator for tasks, each task's spec
//! arrives as the raw body of the reply, and its result goes back the
//! same way.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;

use ffmr::prelude::*;
use ffmr::{ffmr_core, maxflow, swgraph};

/// A subcommand: runs on the options given after its name.
type Command = fn(&Options) -> Result<(), String>;

/// The dispatch table — also the source of the usage line. Each entry
/// lists every option its subcommand reads; any other is an error.
const COMMANDS: &[(&str, Command, &[&str])] = &[
    (
        "generate",
        generate,
        &["model", "vertices", "out", "seed", "param"],
    ),
    ("info", info, &["input"]),
    (
        "maxflow",
        run_maxflow,
        &[
            "input",
            "algorithm",
            "source",
            "sink",
            "w",
            "seed",
            "nodes",
            "reducers",
            "threads",
            "state",
            "resume",
            "crash-after-round",
            "crash-in-round",
            "workers",
            "coordinator",
            "trace-file",
        ],
    ),
    (
        "serve",
        serve,
        &[
            "listen",
            "graph",
            "workers",
            "queue",
            "cache",
            "timeout-ms",
            "slow-query-ms",
            "slowlog-file",
            "trace-file",
            // Accepted and ignored: the daemon has no MapReduce route
            // any more, but `perfbench/src/serve.rs` still passes it.
            "mr-threshold",
        ],
    ),
    ("worker", worker, &["connect"]),
    ("query", query, QUERY_OPTIONS),
    ("slowlog", slowlog, &["addr", "limit", "json"]),
    (
        "stats",
        stats,
        &["addr", "dataset", "prometheus", "watch", "interval-ms"],
    ),
    ("top", top, &["connect", "watch", "interval-ms"]),
    ("report", report, &["state", "history", "base", "json"]),
];

/// `query`'s options: `--addr` and `--op` pick the daemon and the verb;
/// every later one is forwarded as a request field of the same name.
const QUERY_OPTIONS: &[&str] = &[
    "addr",
    "op",
    "dataset",
    "source",
    "sink",
    "w",
    "seed",
    "min-degree",
    "algorithm",
    "timeout-ms",
    "no-cache",
    "path",
    "ms",
    "format",
    "limit",
    "explain",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        let names: Vec<&str> = COMMANDS.iter().map(|&(name, ..)| name).collect();
        eprintln!(
            "usage: ffmr <{}> [options]  (--help for details)",
            names.join("|")
        );
        return ExitCode::from(2);
    };
    let result = match COMMANDS.iter().find(|(name, ..)| name == command) {
        Some(&(name, run, known)) => Options::parse(name, known, &args[1..]).and_then(|o| run(&o)),
        None if command == "--help" || command == "-h" => {
            print_help();
            Ok(())
        }
        None => Err(format!("unknown command '{command}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(1)
        }
    }
}

fn print_help() {
    println!(
        "ffmr — max-flow on small-world graphs (MapReduce / Pregel / sequential)\n\n\
         commands (an option a command does not read is an error):\n\
         \x20 generate --model ba|ws|er --vertices N --out FILE [--param P] [--seed S]\n\
         \x20 info     --input FILE\n\
         \x20 maxflow  --input FILE (--source S --sink T | --w N)\n\
         \x20          [--algorithm ff1..ff5|parallel-pr|dinic|push-relabel|pregel]\n\
         \x20          [--nodes N] [--reducers R] [--seed S] [--threads N]\n\
         \x20          [--state FILE] [--resume] [--crash-after-round N]\n\
         \x20          [--crash-in-round N] [--workers N]\n\
         \x20          [--coordinator HOST:PORT]\n\
         \x20 serve    --listen HOST:PORT --graph NAME=FILE [--graph ...]\n\
         \x20          [--workers N] [--queue N] [--cache N]\n\
         \x20          [--timeout-ms N] [--slow-query-ms N] [--slowlog-file FILE]\n\
         \x20          (every query is answered in memory: plain maxflow from a\n\
         \x20          cut tree once built, everything else by the local search\n\
         \x20          between the terminal sets; a pinned --algorithm runs on\n\
         \x20          one solver thread; ff1..ff5 are maxflow's)\n\
         \x20 worker   --connect HOST:PORT\n\
         \x20 query    --addr HOST:PORT --op maxflow|mincut|stats|slowlog|list|\n\
         \x20          load|reload|ping|shutdown [--dataset D] [--limit N]\n\
         \x20          (--source S --sink T | --w N)\n\
         \x20          [--algorithm auto|parallel-pr|dinic|...] [--seed S]\n\
         \x20          [--timeout-ms N] [--no-cache] [--explain]\n\
         \x20 slowlog  [--addr HOST:PORT] [--limit N] [--json]\n\
         \x20 stats    [--addr HOST:PORT] [--dataset D] [--prometheus] [--watch]\n\
         \x20          [--interval-ms N]\n\
         \x20 top      --connect HOST:PORT [--watch] [--interval-ms N]\n\
         \x20 report   (--state FILE | --history FILE) [--base PATH] [--json]\n\n\
         observability:\n\
         \x20 maxflow/serve also accept --trace-file FILE to write one JSON\n\
         \x20 line per span (FF rounds, MapReduce phases, queries); the file\n\
         \x20 rotates to FILE.1 at FFMR_TRACE_MAX_BYTES (default 64 MiB).\n\
         \x20 `stats --prometheus` prints the text exposition for scraping;\n\
         \x20 plain `stats` leads with a serving summary (plan mix,\n\
         \x20 local searches and their trivial-cut share, coalesce\n\
         \x20 rate) above the raw registry rows.\n\
         \x20 `query --explain` appends a per-query profile: the plan and\n\
         \x20 why, per-stage wall timings, and solver internals. The daemon\n\
         \x20 keeps every query over --slow-query-ms (default 250) in a\n\
         \x20 bounded ring (FFMR_SLOWLOG_CAP entries); `ffmr slowlog` lists\n\
         \x20 them and --slowlog-file persists them as rotating JSONL.\n\
         \x20 maxflow records a per-round job history (task timelines, skew,\n\
         \x20 stragglers, critical path) into the DFS beside its checkpoints;\n\
         \x20 `report --state FILE` renders it, `--json` dumps raw profiles.\n\
         \x20 In distributed mode the history carries per-dispatch notes with\n\
         \x20 worker attribution; `report` adds worker lanes and a blame\n\
         \x20 split, and `top --connect` shows live per-worker health\n\
         \x20 (heartbeat age, RTT, in-flight tasks, bytes moved).\n\n\
         fault tolerance:\n\
         \x20 FF runs checkpoint every round. --state FILE persists the\n\
         \x20 simulated DFS on exit (success or injected crash) and\n\
         \x20 --resume --state FILE continues from the newest checkpoint.\n\
         \x20 --crash-after-round/--crash-in-round N inject driver crashes.\n\n\
         distributed mode:\n\
         \x20 maxflow --workers N spawns N `ffmr worker` OS processes and\n\
         \x20 executes every map/reduce task in them over localhost TCP;\n\
         \x20 each task's spec and result cross the socket once, as raw\n\
         \x20 message bodies. `worker --connect` joins a fleet by hand.\n\
         \x20 A worker killed mid-round is detected (connection drop or\n\
         \x20 heartbeat silence) and its tasks are re-dispatched under the\n\
         \x20 Hadoop retry budget. Output is byte-identical to --threads 1."
    );
}

/// Default `--trace-file` size cap before rotation (64 MiB); override
/// with the `FFMR_TRACE_MAX_BYTES` environment variable (0 disables).
const TRACE_MAX_BYTES_DEFAULT: u64 = 64 * 1024 * 1024;

/// Installs the JSONL span sink when `--trace-file` was given. The sink
/// rotates `FILE` to `FILE.1` at the size cap so an unattended run
/// cannot fill the disk with spans.
fn install_trace_file(opts: &Options) -> Result<(), String> {
    if let Some(path) = opts.get("trace-file") {
        let max_bytes = match std::env::var("FFMR_TRACE_MAX_BYTES") {
            Ok(v) => v
                .trim()
                .parse::<u64>()
                .map_err(|_| format!("invalid FFMR_TRACE_MAX_BYTES '{v}'"))?,
            Err(_) => TRACE_MAX_BYTES_DEFAULT,
        };
        let sink = if max_bytes > 0 {
            ffmr::ffmr_obs::FileSink::with_max_bytes(path, max_bytes)
        } else {
            ffmr::ffmr_obs::FileSink::create(path)
        }
        .map_err(|e| format!("cannot create trace file {path}: {e}"))?;
        ffmr::ffmr_obs::set_sink(Some(std::sync::Arc::new(sink)));
        eprintln!("tracing spans to {path}");
    }
    Ok(())
}

/// Options that stand alone (no value argument follows them).
const FLAGS: &[&str] = &[
    "prometheus",
    "watch",
    "no-cache",
    "resume",
    "json",
    "explain",
];

/// Pulls `--name value` pairs (and bare `--flag`s) out of an argument
/// list.
#[derive(Debug)]
struct Options {
    pairs: Vec<(String, String)>,
}

impl Options {
    /// Parses `command`'s arguments; every option must be one of `known`.
    fn parse(command: &str, known: &[&str], args: &[String]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("expected --option, got '{key}'"));
            };
            if !known.contains(&name) {
                return Err(format!("unknown option --{name} for {command}"));
            }
            if FLAGS.contains(&name) {
                pairs.push((name.to_string(), "1".to_string()));
                continue;
            }
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Self { pairs })
    }

    fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Every value of a repeatable option (e.g. `--graph`).
    fn get_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.pairs
            .iter()
            .filter(move |(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("--{name} is required"))
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid --{name} '{v}'")),
        }
    }
}

fn generate(opts: &Options) -> Result<(), String> {
    let model = opts.required("model")?.to_string();
    let n: u64 = opts
        .required("vertices")?
        .parse()
        .map_err(|_| "invalid --vertices")?;
    let out = opts.required("out")?.to_string();
    let seed: u64 = opts.parsed("seed", 42)?;
    let param: u64 = opts.parsed("param", 3)?;

    let edges = match model.as_str() {
        "ba" => swgraph::gen::barabasi_albert(n, param, seed),
        "ws" => swgraph::gen::watts_strogatz(n, param.max(2) & !1, 0.1, seed),
        "er" => swgraph::gen::erdos_renyi(n, param * n, seed),
        other => return Err(format!("unknown model '{other}' (ba|ws|er)")),
    };
    let net = FlowNetwork::from_undirected_unit(n, &edges);
    let file = File::create(&out).map_err(|e| format!("cannot create {out}: {e}"))?;
    swgraph::io::write_edge_list(&net, BufWriter::new(file))
        .map_err(|e| format!("write failed: {e}"))?;
    println!(
        "wrote {} vertices / {} edges ({model}, seed {seed}) to {out}",
        n,
        edges.len()
    );
    Ok(())
}

fn load(path: &str) -> Result<FlowNetwork, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    swgraph::io::read_edge_list(BufReader::new(file))
        .map(swgraph::FlowNetworkBuilder::build)
        .map_err(|e| format!("parse failed: {e}"))
}

fn info(opts: &Options) -> Result<(), String> {
    let net = load(opts.required("input")?)?;
    let d = swgraph::bfs::estimate_diameter(&net, 8, 1);
    let comps = swgraph::props::component_sizes(&net);
    println!("vertices:            {}", net.num_vertices());
    println!("edge pairs:          {}", net.num_edge_pairs());
    println!("capacitated edges:   {}", net.num_capacitated_edges());
    println!(
        "average degree:      {:.2}",
        swgraph::props::average_degree(&net)
    );
    println!("max degree:          {}", swgraph::props::max_degree(&net));
    println!(
        "largest component:   {}",
        comps.first().copied().unwrap_or(0)
    );
    println!(
        "diameter (sampled):  >= {}, p90 {}",
        d.max_observed, d.effective_p90
    );
    println!(
        "clustering (sampled): {:.4}",
        swgraph::props::clustering_coefficient(&net, 200, 1)
    );
    Ok(())
}

fn run_maxflow(opts: &Options) -> Result<(), String> {
    install_trace_file(opts)?;
    let (net, s, t) = terminals(opts)?;
    let algorithm = opts.get("algorithm").unwrap_or("ff5");
    if let Ok(variant) = algorithm.parse::<FfVariant>() {
        return run_ff(opts, &net, s, t, variant);
    }
    if algorithm == "pregel" {
        let run = ffmr_core::pregel_ff::run_max_flow_pregel(&net, s, t, 10_000)
            .map_err(|e| e.to_string())?;
        println!(
            "max flow = {} ({} supersteps, {} messages)",
            run.max_flow_value, run.supersteps, run.total_messages
        );
        return Ok(());
    }
    let algo: Algorithm = algorithm.parse().map_err(|_| {
        let accepted: Vec<&str> = FfVariant::NAMES
            .into_iter()
            .chain(Algorithm::names())
            .chain(["pregel"])
            .collect();
        format!(
            "unknown algorithm '{algorithm}' (expected one of: {})",
            accepted.join(", ")
        )
    })?;
    if algo == Algorithm::ParallelPushRelabel {
        // The shared-memory parallel solver; --threads caps the worker
        // count (default: every core) without changing the answer.
        let mut threads: usize = opts.parsed("threads", 0)?;
        if threads == 0 {
            threads = std::thread::available_parallelism().map_or(1, |p| p.get());
        }
        let (flow, report) =
            maxflow::parallel_push_relabel::solve(&net, s, t, threads, &maxflow::Cancel::never())
                .expect("never-cancel solve cannot fail");
        let cut = maxflow::min_cut::extract_min_cut(&net, s, &flow);
        println!(
            "max flow = {} ({algo}, {threads} threads, {} passes, {} global relabels); \
             min cut crosses {} edges, source side has {} vertices",
            flow.value,
            report.phases,
            report.global_relabels,
            cut.cut_edges.len(),
            cut.source_side.len()
        );
        return Ok(());
    }
    let flow = algo.run(&net, s, t);
    let cut = maxflow::min_cut::extract_min_cut(&net, s, &flow);
    println!(
        "max flow = {} ({algo}); min cut crosses {} edges, source side has {} vertices",
        flow.value,
        cut.cut_edges.len(),
        cut.source_side.len()
    );
    Ok(())
}

/// The network and its terminals: `--source`/`--sink` on the input as
/// read, or super terminals over `--w` high-degree vertices per side.
fn terminals(opts: &Options) -> Result<(FlowNetwork, VertexId, VertexId), String> {
    let base = load(opts.required("input")?)?;
    let seed: u64 = opts.parsed("seed", 42)?;
    let w: usize = opts.parsed("w", 0)?;
    if w > 0 {
        let st = swgraph::super_st::attach_super_terminals(&base, w, 3, seed)
            .map_err(|e| e.to_string())?;
        println!(
            "attached super terminals over {w} high-degree vertices each (s = {}, t = {})",
            st.source, st.sink
        );
        return Ok((st.network, st.source, st.sink));
    }
    let vertex = |name: &str| -> Result<VertexId, String> {
        let id = opts.required(name)?.parse();
        Ok(VertexId::new(id.map_err(|_| format!("invalid --{name}"))?))
    };
    Ok((base, vertex("source")?, vertex("sink")?))
}

/// `maxflow --algorithm ff1..ff5`: the MR driver, fresh or `--resume`d
/// from a `--state` file, in process or over `--workers` processes.
fn run_ff(
    opts: &Options,
    net: &FlowNetwork,
    s: VertexId,
    t: VertexId,
    variant: FfVariant,
) -> Result<(), String> {
    let nodes: usize = opts.parsed("nodes", 20)?;
    let reducers: usize = opts.parsed("reducers", 8)?;
    // Record one flight-recorder event per task attempt so the
    // per-round history (readable with `ffmr report --state FILE`)
    // carries full task timelines.
    ffmr::ffmr_obs::events::recorder().set_enabled(true);
    let mut rt = MrRuntime::new(ClusterConfig::paper_cluster(nodes));
    let threads: usize = opts.parsed("threads", 0)?;
    if threads > 0 {
        // 1 pins service-call ordering (bit-reproducible runs).
        rt.set_worker_threads(Some(threads));
    }

    // Distributed mode: spawn real worker OS processes and route
    // every map/reduce task through them. The coordinator (and the
    // children, told to shut down on their next poll) are torn down
    // when `_dist` drops, including on the error paths below.
    let dist_workers: usize = opts.parsed("workers", 0)?;
    let _dist = if dist_workers > 0 {
        let mut coordinator_config = ffmr::ffmr_worker::CoordinatorConfig::default();
        if let Some(addr) = opts.get("coordinator") {
            // A pinned bind address lets `ffmr top --connect` (and
            // extra `ffmr worker` processes) find this run.
            coordinator_config.addr = addr.to_string();
        }
        let coordinator = ffmr::ffmr_worker::Coordinator::start(coordinator_config)
            .map_err(|e| format!("cannot start coordinator: {e}"))?;
        let addr = coordinator.local_addr().to_string();
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
        let mut children = Vec::new();
        for _ in 0..dist_workers {
            let child = std::process::Command::new(&exe)
                .arg("worker")
                .arg("--connect")
                .arg(&addr)
                .spawn()
                .map_err(|e| format!("cannot spawn worker process: {e}"))?;
            children.push(child);
        }
        if !coordinator.wait_for_workers(dist_workers, std::time::Duration::from_secs(10)) {
            return Err("worker processes did not register within 10s".into());
        }
        rt.set_task_executor(Some(coordinator.executor()));
        // Worker deaths surface as failed task attempts; give them
        // Hadoop's retry budget instead of the fail-fast default.
        rt.set_failure_policy(FailurePolicy::hadoop_default());
        println!("distributed mode: {dist_workers} worker processes via {addr}");
        Some(DistributedRun {
            coordinator: Some(coordinator),
            children,
        })
    } else {
        None
    };

    let mut config = FfConfig::new(s, t).variant(variant).reducers(reducers);
    if let Some(round) = opts.get("crash-after-round") {
        let round = round.parse().map_err(|_| "invalid --crash-after-round")?;
        config = config.crash_point(CrashPoint::AfterRound(round));
    }
    if let Some(round) = opts.get("crash-in-round") {
        let round = round.parse().map_err(|_| "invalid --crash-in-round")?;
        config = config.crash_point(CrashPoint::MidRound(round));
    }

    let state_file = opts.get("state");
    let result = if opts.has("resume") {
        let path = state_file.ok_or("--resume needs --state FILE")?;
        let image =
            std::fs::read(path).map_err(|e| format!("cannot read state file {path}: {e}"))?;
        *rt.dfs_mut() =
            Dfs::from_image(&image).map_err(|e| format!("corrupt state file {path}: {e}"))?;
        ffmr_core::resume_max_flow(&mut rt, &config)
    } else {
        ffmr_core::run_max_flow(&mut rt, net, &config)
    };

    // The DFS image outlives a finished run and an injected crash alike;
    // `--resume` picks the latter back up.
    if let (Some(path), Ok(_) | Err(FfError::CrashInjected { .. })) = (state_file, &result) {
        std::fs::write(path, rt.dfs().to_image())
            .map_err(|e| format!("cannot write state file {path}: {e}"))?;
    }
    match result {
        Ok(run) => {
            if let Some(round) = run.resumed_from {
                println!("resumed from round {round}");
            }
            println!(
                "max flow = {} ({} rounds, {:.1} simulated min on {nodes} nodes)",
                run.max_flow_value,
                run.num_flow_rounds(),
                run.total_sim_seconds / 60.0
            );
            Ok(())
        }
        Err(FfError::CrashInjected { round }) => Err(match state_file {
            Some(path) => format!(
                "injected driver crash at round {round}; state saved to {path} \
                 (resume with --resume --state {path})"
            ),
            None => {
                format!("injected driver crash at round {round} (no --state FILE, progress lost)")
            }
        }),
        Err(e) => Err(e.to_string()),
    }
}

/// Owns the distributed-mode coordinator and worker child processes for
/// one `maxflow --workers N` run; tears both down on drop so every exit
/// path (success, injected crash, error) reaps its children.
struct DistributedRun {
    coordinator: Option<ffmr::ffmr_worker::Coordinator>,
    children: Vec<std::process::Child>,
}

impl Drop for DistributedRun {
    fn drop(&mut self) {
        if let Some(coordinator) = self.coordinator.take() {
            // Workers get `shutdown 1` on their next poll and exit.
            coordinator.shutdown();
        }
        for child in &mut self.children {
            let _ = child.wait();
        }
    }
}

/// `ffmr worker` — join a coordinator and execute dispatched tasks
/// until it says shutdown or the process receives SIGINT/SIGTERM.
fn worker(opts: &Options) -> Result<(), String> {
    use ffmr::ffmr_worker::{self, JobKindRegistry, WorkerConfig};
    let addr = opts.required("connect")?.to_string();
    let config = WorkerConfig::new(addr.clone());

    ffmr_worker::signals::install();
    let mut registry = JobKindRegistry::new();
    registry.register(ffmr_core::FF_JOB_KIND, ffmr_core::ff_task_runner);
    eprintln!(
        "worker connecting to {addr} (job kinds: {})",
        registry.kinds().join(", ")
    );
    ffmr_worker::run_worker(&config, &registry).map_err(|e| e.to_string())
}

fn serve(opts: &Options) -> Result<(), String> {
    use ffmr::ffmr_service::{engine, server, GraphStore, QueryEngine};
    install_trace_file(opts)?;
    let listen = opts.get("listen").unwrap_or("127.0.0.1:7227").to_string();

    let store = std::sync::Arc::new(GraphStore::new());
    store.on_tree_ready(|name, epoch, built| {
        println!(
            "cut tree for '{name}' epoch {epoch} ready: depth {}, built in {} ms",
            built.tree.depth(),
            built.build_time.as_millis()
        );
    });
    let mut loaded = 0usize;
    for spec in opts.get_all("graph") {
        let (name, path) = spec
            .split_once('=')
            .ok_or_else(|| format!("--graph wants NAME=FILE, got '{spec}'"))?;
        store
            .load_from_path(name, path)
            .map_err(|e| e.to_string())?;
        let snap = store.get(name).expect("just loaded");
        println!(
            "loaded '{name}' from {path}: {} vertices, {} edges",
            snap.network.num_vertices(),
            snap.network.num_edge_pairs()
        );
        loaded += 1;
    }
    if loaded == 0 {
        return Err("serve needs at least one --graph NAME=FILE".into());
    }

    let engine_config = engine::EngineConfig {
        cache_capacity: opts.parsed("cache", 256)?,
        default_timeout: std::time::Duration::from_millis(opts.parsed("timeout-ms", 30_000u64)?),
        slow_query_threshold: std::time::Duration::from_millis(
            opts.parsed("slow-query-ms", 250u64)?,
        ),
        ..engine::EngineConfig::default()
    };
    let server_config = server::ServerConfig {
        workers: opts.parsed("workers", 4)?,
        queue_depth: opts.parsed("queue", 16)?,
    };
    let engine = std::sync::Arc::new(QueryEngine::new(store, engine_config));
    if let Some(path) = opts.get("slowlog-file") {
        let sink = ffmr::ffmr_obs::FileSink::create(path)
            .map_err(|e| format!("cannot create slowlog file {path}: {e}"))?;
        engine.slowlog().set_sink(Some(std::sync::Arc::new(sink)));
        println!(
            "slow queries (>= {}ms) persisted to {path}",
            opts.parsed("slow-query-ms", 250u64)?
        );
    }
    let handle = server::serve(listen.as_str(), engine, &server_config)
        .map_err(|e| format!("cannot bind {listen}: {e}"))?;
    println!(
        "ffmrd listening on {} ({} workers, queue {})",
        handle.local_addr(),
        server_config.workers,
        server_config.queue_depth
    );
    // Blocks until a client sends `shutdown` or the process receives
    // SIGINT/SIGTERM, then joins every thread.
    ffmr::ffmr_worker::signals::install();
    let signaled = loop {
        if ffmr::ffmr_worker::signals::requested() {
            break true;
        }
        if handle.shutdown_requested() {
            break false;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    };
    if signaled {
        println!("signal received; shutting down");
        handle.shutdown();
    } else {
        handle.wait();
    }
    println!("ffmrd stopped");
    Ok(())
}

fn query(opts: &Options) -> Result<(), String> {
    use ffmr::ffmr_service::{Client, Message};
    let addr = opts.get("addr").unwrap_or("127.0.0.1:7227");
    let op = opts.get("op").unwrap_or("maxflow");

    let mut request = Message::new(op);
    for &key in &QUERY_OPTIONS[2..] {
        if let Some(v) = opts.get(key) {
            request.push(key, v);
        }
    }

    let mut client = Client::connect(addr).map_err(|e| format!("cannot reach {addr}: {e}"))?;
    let response = client.request(&request).map_err(|e| e.to_string())?;
    // Only the echoed query profile gets the stage-tree rendering.
    let explain = opts.get("explain").is_some();
    println!("{}", response.head);
    for (k, v) in &response.fields {
        // The query profile rides the wire as one JSON line; render it
        // as a stage tree below instead of dumping the raw blob.
        if !(explain && k == "profile") {
            println!("{k} {v}");
        }
    }
    if explain {
        if let Some(line) = response.get("profile") {
            match ffmr::ffmr_obs::QueryProfile::from_json(line) {
                Ok(profile) => print_query_profile(&profile),
                Err(e) => eprintln!("warning: unparsable profile ({e}): {line}"),
            }
        }
    }
    if response.head == "ok" {
        Ok(())
    } else {
        Err(format!("server replied '{}'", response.head))
    }
}

/// Renders one `--explain` profile as a stage-timing tree: the plan and
/// why it was chosen, a proportional bar per pipeline stage, and the
/// solver's internal counters.
fn print_query_profile(p: &ffmr::ffmr_obs::QueryProfile) {
    const WIDTH: usize = 24;
    println!(
        "profile: {} on '{}' epoch {} — plan {} ({}), solver {}, cache {}{}",
        p.verb,
        p.dataset,
        p.epoch,
        p.plan,
        if p.plan_reason.is_empty() {
            "-"
        } else {
            &p.plan_reason
        },
        if p.solver.is_empty() { "-" } else { &p.solver },
        p.cache,
        if p.coalesced { ", coalesced" } else { "" },
    );
    println!("stage timings:");
    let widest = p.stages().iter().map(|(_, us)| *us).max().unwrap_or(0);
    for (stage, us) in p.stages() {
        // A nonzero stage always shows at least one cell.
        let cells = match widest {
            0 => 0,
            w => (us * WIDTH as u64).div_ceil(w) as usize,
        };
        println!(
            "  {stage:<13} {us:>10} us |{:<WIDTH$}|",
            "#".repeat(cells.min(WIDTH))
        );
    }
    print!("  {:<13} {:>10} us", "total", p.total_us);
    if p.deadline_ms > 0 {
        let budget_us = p.deadline_ms * 1_000;
        print!(
            " ({}% of the {} ms deadline)",
            (p.total_us * 100) / budget_us,
            p.deadline_ms
        );
    }
    println!();
    let counters = p.solver_counters();
    if counters.is_empty() {
        println!("solver internals: none recorded");
    } else {
        let rendered: Vec<String> = counters
            .iter()
            .map(|(name, v)| format!("{name} {v}"))
            .collect();
        println!("solver internals: {}", rendered.join(", "));
    }
    if let Some(error) = &p.error {
        println!("error: {error}");
    }
}

/// `ffmr slowlog` — lists the daemon's ring of queries that blew the
/// `--slow-query-ms` threshold, newest last; `--json` dumps the raw
/// profile lines for machines.
fn slowlog(opts: &Options) -> Result<(), String> {
    let addr = opts.get("addr").unwrap_or("127.0.0.1:7227");
    let mut request = ffmr::ffmr_service::Message::new("slowlog");
    if let Some(limit) = opts.get("limit") {
        request.push("limit", limit);
    }
    let json = opts.has("json");
    request_ok("slowlog", addr, "server", &request, None, |response| {
        print_slowlog(response, json);
    })
}

/// Renders one `slowlog` reply: the raw profile lines with `json`, else
/// a summary line and one row per captured query.
fn print_slowlog(response: &ffmr::ffmr_service::Message, json: bool) {
    if json {
        for (k, v) in &response.fields {
            if k == "entry" {
                println!("{v}");
            }
        }
        return;
    }
    println!(
        "slow queries: {} captured, {} dropped (ring capacity {}, threshold {} ms)",
        response.get("count").unwrap_or("0"),
        response.get("dropped").unwrap_or("0"),
        response.get("capacity").unwrap_or("?"),
        response.get("threshold-ms").unwrap_or("?"),
    );
    for (k, v) in &response.fields {
        if k != "entry" {
            continue;
        }
        match ffmr::ffmr_obs::QueryProfile::from_json(v) {
            Ok(p) => {
                let slowest = p
                    .stages()
                    .iter()
                    .max_by_key(|(_, us)| *us)
                    .map_or(("-", 0), |&(stage, us)| (stage, us));
                println!(
                    "  {:<7} {:<10} {:>10} us  plan {:<6} {:<12} {:<5}  slowest {} ({} us){}",
                    p.verb,
                    p.dataset,
                    p.total_us,
                    p.plan,
                    if p.solver.is_empty() { "-" } else { &p.solver },
                    p.outcome,
                    slowest.0,
                    slowest.1,
                    p.error
                        .as_deref()
                        .map_or_else(String::new, |e| format!("  [{e}]")),
                );
            }
            Err(e) => eprintln!("warning: unparsable entry ({e}): {v}"),
        }
    }
}

/// Scrapes the daemon's `stats` verb: flat `series value` lines by
/// default, the Prometheus text exposition with `--prometheus`, and a
/// periodic refresh with `--watch` that outlives daemon restarts (see
/// [`request_ok`]).
fn stats(opts: &Options) -> Result<(), String> {
    let addr = opts.get("addr").unwrap_or("127.0.0.1:7227");
    let prometheus = opts.has("prometheus");
    let interval = std::time::Duration::from_millis(opts.parsed("interval-ms", 2_000u64)?.max(100));
    let mut request = ffmr::ffmr_service::Message::new("stats");
    if let Some(dataset) = opts.get("dataset") {
        request.push("dataset", dataset);
    }
    if prometheus {
        request.push("format", "prometheus");
    }
    let watch = opts.has("watch").then_some(interval);
    request_ok("stats", addr, "server", &request, watch, |response| {
        if prometheus {
            print!("{}", response.joined_lines("prom"));
        } else {
            print_serving_summary(response);
            for (k, v) in &response.fields {
                println!("{k} {v}");
            }
        }
    })
}

/// The one request path of the client commands: sends `request` to
/// `addr` and renders the `ok` reply; any other reply is an error naming
/// `peer`. With `watch` the request repeats at that interval until
/// interrupted, and a dropped connection is redialed with backoff (one
/// notice line per outage) instead of ending the watch — a watch
/// outlives daemon restarts.
fn request_ok(
    cmd: &str,
    addr: &str,
    peer: &str,
    request: &ffmr::ffmr_service::Message,
    watch: Option<std::time::Duration>,
    mut render: impl FnMut(&ffmr::ffmr_service::Message),
) -> Result<(), String> {
    use ffmr::ffmr_service::Client;
    let mut client = Client::connect(addr).map_err(|e| format!("cannot reach {addr}: {e}"))?;
    loop {
        let response = match client.request(request) {
            Ok(response) => response,
            Err(e) if watch.is_some() => {
                eprintln!("{cmd}: connection to {addr} lost ({e}); reconnecting...");
                client = reconnect(addr);
                eprintln!("{cmd}: reconnected to {addr}");
                continue;
            }
            Err(e) => return Err(e.to_string()),
        };
        if response.head != "ok" {
            return Err(format!(
                "{peer} replied '{}': {}",
                response.head,
                response.get("message").unwrap_or("")
            ));
        }
        render(&response);
        let Some(interval) = watch else {
            return Ok(());
        };
        println!("---");
        std::thread::sleep(interval);
    }
}

/// The serving-tier counters an operator actually watches, derived from
/// the flat registry rows the `stats` verb returns: per-plan query mix,
/// the local searches and the share that stopped at a trivial cut, and
/// coalesce rate.
/// Printed above the raw rows so `stats --watch` reads like a dashboard.
fn print_serving_summary(response: &ffmr::ffmr_service::Message) {
    let num = |key: &str| -> u64 { response.get(key).and_then(|v| v.parse().ok()).unwrap_or(0) };
    let coalesced = num("ffmr_query_coalesced_total");
    let local = |outcome: &str| {
        num(&format!(
            "ffmr_local_searches_total{{outcome=\"{outcome}\"}}"
        ))
    };
    let trivial = local("trivial-cut");
    let searches = trivial + local("exhausted");

    // Plan mix: sum the `count=` of each per-plan latency histogram
    // (keys look like `ffmr_query_latency_us{plan="full",solver=...}`).
    let mut plans: Vec<(String, u64)> = Vec::new();
    for (k, v) in &response.fields {
        let Some(labels) = k.strip_prefix("ffmr_query_latency_us{") else {
            continue;
        };
        let Some(plan) = extract_label(labels, "plan") else {
            continue;
        };
        if plan == "-" {
            continue; // verbs that never pick a plan
        }
        let count: u64 = v
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix("count="))
            .and_then(|c| c.parse().ok())
            .unwrap_or(0);
        match plans.iter_mut().find(|(p, _)| *p == plan) {
            Some((_, n)) => *n += count,
            None => plans.push((plan.to_string(), count)),
        }
    }
    plans.sort();
    let queries: u64 = plans.iter().map(|(_, n)| n).sum();
    let pct = |part: u64, whole: u64| (part * 100).checked_div(whole).unwrap_or(0);
    let mix = if plans.is_empty() {
        "none".to_string()
    } else {
        plans
            .iter()
            .map(|(p, n)| format!("{p} {}%", pct(*n, queries)))
            .collect::<Vec<_>>()
            .join(" / ")
    };
    println!(
        "serving: {queries} flow queries | plan mix {mix} | \
         local search {searches} ({}% trivial cut) | \
         coalesced {}% ({coalesced})",
        pct(trivial, searches),
        pct(coalesced, queries.max(1)),
    );
}

/// Pulls one `name="value"` label out of a rendered label list like
/// `plan="full",solver="local",verb="maxflow"}`.
fn extract_label<'a>(labels: &'a str, name: &str) -> Option<&'a str> {
    let start = if labels.starts_with(&format!("{name}=\"")) {
        name.len() + 2
    } else {
        labels.find(&format!(",{name}=\""))? + name.len() + 3
    };
    let rest = &labels[start..];
    rest.split('"').next()
}

/// `ffmr top` — live cluster view over the coordinator's `workers`
/// verb: one row per worker with state, heartbeat age, RTT, estimated
/// clock offset, in-flight dispatches and task/byte totals. `--watch`
/// refreshes until interrupted (reconnecting like `stats --watch`).
fn top(opts: &Options) -> Result<(), String> {
    let addr = opts.required("connect")?;
    let interval = std::time::Duration::from_millis(opts.parsed("interval-ms", 1_000u64)?.max(100));
    let request = ffmr::ffmr_service::Message::new("workers");
    let watch = opts.has("watch").then_some(interval);
    request_ok("top", addr, "coordinator", &request, watch, |response| {
        print_worker_table(addr, response);
    })
}

/// Renders one `workers` response: a cluster summary line plus one row
/// per worker, grouped by the repeated `worker` field.
fn print_worker_table(addr: &str, response: &ffmr::ffmr_service::Message) {
    let queue_depth = response.get("queue-depth").unwrap_or("0");
    let mut rows: Vec<Vec<(&str, &str)>> = Vec::new();
    for (k, v) in &response.fields {
        if k == "worker" {
            rows.push(vec![(k.as_str(), v.as_str())]);
        } else if let Some(row) = rows.last_mut() {
            row.push((k.as_str(), v.as_str()));
        }
    }
    let live = rows.iter().filter(|r| field(r, "state") == "live").count();
    println!(
        "cluster @ {addr}: {live}/{} workers live, queue depth {queue_depth}",
        rows.len()
    );
    if rows.is_empty() {
        return;
    }
    println!(
        "  {:<7} {:<10} {:>9} {:>8} {:>10} {:>8} {:>8} {:>7} {:>10} {:>10}",
        "worker",
        "state",
        "hb-age-ms",
        "rtt-us",
        "offset-us",
        "inflight",
        "ok",
        "failed",
        "bytes-in",
        "bytes-out"
    );
    for row in &rows {
        println!(
            "  {:<7} {:<10} {:>9} {:>8} {:>10} {:>8} {:>8} {:>7} {:>10} {:>10}",
            field(row, "worker"),
            field(row, "state"),
            field(row, "hb-age-ms"),
            field(row, "rtt-us"),
            field(row, "offset-us"),
            field(row, "inflight"),
            field(row, "tasks-ok"),
            field(row, "tasks-failed"),
            field(row, "bytes-in"),
            field(row, "bytes-out")
        );
    }
}

fn field<'a>(row: &[(&'a str, &'a str)], key: &str) -> &'a str {
    row.iter().find(|(k, _)| *k == key).map_or("-", |(_, v)| v)
}

/// Redials `addr` until it answers, doubling the delay between attempts
/// from 200ms up to a 5s cap.
fn reconnect(addr: &str) -> ffmr::ffmr_service::Client {
    let mut backoff = std::time::Duration::from_millis(200);
    loop {
        std::thread::sleep(backoff);
        match ffmr::ffmr_service::Client::connect(addr) {
            Ok(client) => return client,
            Err(_) => backoff = (backoff * 2).min(std::time::Duration::from_secs(5)),
        }
    }
}

/// Renders the job history of an FF run: per-round task timelines
/// (Gantt), partition skew, stragglers and the critical path. Reads
/// either a `--state FILE` DFS image (as written by `maxflow --state`)
/// or a plain `--history FILE` JSONL copied out of the DFS; `--json`
/// re-emits the raw profile lines for machines.
fn report(opts: &Options) -> Result<(), String> {
    use ffmr::ffmr_obs::RoundProfile;

    let text = if let Some(path) = opts.get("history") {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
    } else if let Some(path) = opts.get("state") {
        let image =
            std::fs::read(path).map_err(|e| format!("cannot read state file {path}: {e}"))?;
        let dfs = Dfs::from_image(&image).map_err(|e| format!("corrupt state file {path}: {e}"))?;
        let base = opts.get("base").unwrap_or("ffmr");
        let blob = dfs.read_blob(&ffmr_core::history_path(base)).map_err(|_| {
            format!(
                "state file {path} has no job history under base '{base}' \
                     (was the run made with checkpointing on?)"
            )
        })?;
        String::from_utf8_lossy(blob).into_owned()
    } else {
        return Err("report needs --state FILE or --history FILE".into());
    };

    let mut profiles = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        profiles.push(
            RoundProfile::from_json(line).map_err(|e| format!("history line {}: {e}", i + 1))?,
        );
    }
    if profiles.is_empty() {
        return Err("history is empty".into());
    }

    // A closed pipe downstream (`ffmr report | head`) is a normal way to
    // read a long report — treat it as done, not as an error.
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    match write_report(&mut out, &profiles, opts.has("json")) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        Err(e) => Err(format!("cannot write report: {e}")),
        Ok(()) => Ok(()),
    }
}

/// Writes the parsed profiles to `out`, raw JSONL or rendered.
fn write_report(
    out: &mut impl Write,
    profiles: &[ffmr::ffmr_obs::RoundProfile],
    json: bool,
) -> std::io::Result<()> {
    if json {
        for p in profiles {
            writeln!(out, "{}", p.to_json())?;
        }
        return out.flush();
    }
    for p in profiles {
        render_profile(out, p)?;
    }
    let total_sim: f64 = profiles.iter().map(|p| p.sim_seconds).sum();
    let total_wall: f64 = profiles.iter().map(|p| p.wall_seconds).sum();
    writeln!(
        out,
        "total: {} rounds, {:.1}s simulated, {:.3}s wall",
        profiles.len(),
        total_sim,
        total_wall
    )?;
    out.flush()
}

/// Pretty-prints one round profile as a text Gantt plus summaries.
fn render_profile(out: &mut impl Write, p: &ffmr::ffmr_obs::RoundProfile) -> std::io::Result<()> {
    use ffmr::ffmr_obs::TaskOutcome;

    writeln!(
        out,
        "round {}  job {}  sim {:.1}s  wall {:.3}s  (map {:.1}s | shuffle {:.1}s | reduce {:.1}s)",
        p.round,
        p.job,
        p.sim_seconds,
        p.wall_seconds,
        p.map_seconds,
        p.shuffle_seconds,
        p.reduce_seconds
    )?;

    // ---- Gantt timeline over the event window on the simulated clock.
    // The window starts at the first task attempt, not at 0: the
    // constant per-round scheduling overhead before it would otherwise
    // squash every bar into the right margin on small runs.
    const WIDTH: usize = 40;
    const MAX_ROWS: usize = 64;
    let t0 = p
        .events
        .iter()
        .map(|e| e.sim_start)
        .fold(f64::INFINITY, f64::min);
    let t1 = p.events.iter().map(|e| e.sim_end).fold(0.0f64, f64::max);
    let window = (t1 - t0).max(1e-9);
    if p.events.is_empty() {
        writeln!(
            out,
            "  timeline: (no task events recorded — run with the flight recorder on)"
        )?;
    } else {
        writeln!(out, "  timeline (sim clock {t0:.1}s..{t1:.1}s):")?;
    }
    for e in p.events.iter().take(MAX_ROWS) {
        let clamp = |s: f64| (((s - t0) / window) * WIDTH as f64).round().max(0.0) as usize;
        // Keep the start cell on-canvas so even a zero-width attempt at
        // the very end of the round stays visible.
        let start = clamp(e.sim_start).min(WIDTH - 1);
        let end = clamp(e.sim_end).clamp(start, WIDTH);
        let fill = match e.outcome {
            TaskOutcome::Ok => '#',
            TaskOutcome::Failed => 'x',
        };
        let mut bar = String::with_capacity(WIDTH);
        for col in 0..WIDTH {
            // Zero-width attempts still get one visible cell.
            if col >= start && (col < end || col == start) {
                bar.push(fill);
            } else {
                bar.push(' ');
            }
        }
        let worker = e.worker.map_or_else(String::new, |w| format!(" w{w}"));
        writeln!(
            out,
            "  {:<7} t{:03} a{} |{bar}| {:>9.3} ms {}{worker}",
            e.phase,
            e.task,
            e.attempt,
            e.sim_seconds() * 1e3,
            e.outcome.as_str()
        )?;
    }
    if p.events.len() > MAX_ROWS {
        writeln!(
            out,
            "  ... ({} more attempts not shown)",
            p.events.len() - MAX_ROWS
        )?;
    }

    // ---- Summaries. The `skew:` and `critical path:` lines are always
    // printed (CI greps for them).
    match &p.skew {
        Some(s) => writeln!(
            out,
            "  skew: partition {} got {} B vs {:.0} B mean ({:.2}x)",
            s.partition, s.max_bytes, s.mean_bytes, s.ratio
        )?,
        None => writeln!(out, "  skew: n/a (no reduce input bytes recorded)")?,
    }
    if p.stragglers.is_empty() {
        writeln!(out, "  stragglers: none")?;
    }
    for s in &p.stragglers {
        let (took, threshold) = distinct_ms(s.seconds, s.threshold_seconds);
        writeln!(
            out,
            "  straggler: {} t{:03} a{} took {took} ms (threshold {threshold} ms)",
            s.phase, s.task, s.attempt
        )?;
    }
    if p.critical_path.is_empty() {
        writeln!(out, "  critical path: (no events recorded)")?;
    } else {
        let chain: Vec<String> = p
            .critical_path
            .iter()
            .map(|s| {
                format!(
                    "{} t{} a{} ({:.1}s..{:.1}s)",
                    s.phase, s.task, s.attempt, s.sim_start, s.sim_end
                )
            })
            .collect();
        writeln!(out, "  critical path: {}", chain.join(" -> "))?;
    }
    render_dist_sections(out, p)?;
    writeln!(out)
}

/// Renders two durations in milliseconds with the fewest decimals, three
/// at least, that tell them apart: a straggler must read larger than its
/// threshold even when both take a few microseconds.
fn distinct_ms(a_seconds: f64, b_seconds: f64) -> (String, String) {
    let (a, b) = (a_seconds * 1e3, b_seconds * 1e3);
    let mut decimals = 3;
    while decimals < 9 && format!("{a:.decimals$}") == format!("{b:.decimals$}") {
        decimals += 1;
    }
    (format!("{a:.decimals$}"), format!("{b:.decimals$}"))
}

/// The distributed-telemetry additions to a round report: per-worker
/// wall-clock Gantt lanes, the blame split, and the critical path
/// re-told as dispatch phases. Silent for local (note-free) rounds.
fn render_dist_sections(
    out: &mut impl Write,
    p: &ffmr::ffmr_obs::RoundProfile,
) -> std::io::Result<()> {
    const WIDTH: usize = 40;
    if !p.dispatches.is_empty() {
        let t0 = p.dispatches.iter().map(|n| n.queued_us).min().unwrap_or(0);
        let t1 = p
            .dispatches
            .iter()
            .map(|n| n.done_us.max(n.finished_us))
            .max()
            .unwrap_or(t0);
        let window = (t1.saturating_sub(t0)).max(1) as f64;
        let mut workers: Vec<u64> = p.dispatches.iter().map(|n| n.worker).collect();
        workers.sort_unstable();
        workers.dedup();
        writeln!(
            out,
            "  worker lanes (wall clock {:.3}s..{:.3}s, m=map r=reduce x=failed):",
            t0 as f64 / 1e6,
            t1 as f64 / 1e6
        )?;
        for &w in &workers {
            let mut lane = [' '; WIDTH];
            let mut tasks = 0usize;
            let mut busy_us = 0u64;
            for n in p.dispatches.iter().filter(|n| n.worker == w) {
                tasks += 1;
                busy_us += n.finished_us.saturating_sub(n.started_us);
                let clamp = |us: u64| {
                    (((us.saturating_sub(t0)) as f64 / window) * WIDTH as f64).round() as usize
                };
                let start = clamp(n.started_us).min(WIDTH - 1);
                let end = clamp(n.finished_us).clamp(start, WIDTH);
                let fill = if !n.ok {
                    'x'
                } else if n.phase == "map" {
                    'm'
                } else {
                    'r'
                };
                for cell in lane.iter_mut().take(end.max(start + 1)).skip(start) {
                    *cell = fill;
                }
            }
            writeln!(
                out,
                "  worker {w:<3} |{}| {tasks} dispatches, {:.3}s busy",
                lane.iter().collect::<String>(),
                busy_us as f64 / 1e6
            )?;
        }
    }
    if let Some(b) = &p.dist_blame {
        let total = b.total_seconds().max(1e-12);
        let pct = |share: f64| 100.0 * share / total;
        writeln!(
            out,
            "  blame: serialization {:.3}s ({:.0}%) | transfer {:.3}s ({:.0}%) | \
             dispatch-wait {:.3}s ({:.0}%) | compute {:.3}s ({:.0}%)",
            b.serialization_seconds,
            pct(b.serialization_seconds),
            b.transfer_seconds,
            pct(b.transfer_seconds),
            b.dispatch_wait_seconds,
            pct(b.dispatch_wait_seconds),
            b.compute_seconds,
            pct(b.compute_seconds)
        )?;
    }
    if !p.critical_path_dist.is_empty() {
        let chain: Vec<String> = p
            .critical_path_dist
            .iter()
            .map(|s| {
                format!(
                    "{} t{} w{} ({:.3}s..{:.3}s)",
                    s.phase,
                    s.task,
                    s.worker,
                    s.start_us as f64 / 1e6,
                    s.end_us as f64 / 1e6
                )
            })
            .collect();
        writeln!(out, "  dispatch path: {}", chain.join(" -> "))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(command: &str, args: &[&str]) -> Result<Options, String> {
        let &(name, _, known) = COMMANDS
            .iter()
            .find(|(name, ..)| *name == command)
            .expect("a subcommand");
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        Options::parse(name, known, &args)
    }

    #[test]
    fn unknown_options_are_errors_naming_the_subcommand() {
        let ff5 = ["--input", "rp.txt", "--algorithm", "ff5", "--w", "2"];
        let err = parse("maxflow", &[&ff5[..], &["--bogus-flag", "3"]].concat()).unwrap_err();
        assert_eq!(err, "unknown option --bogus-flag for maxflow");
        // A deleted bare flag is refused before it could swallow the
        // next argument as its value.
        let err = parse("maxflow", &["--speculate", "--input", "rp.txt"]).unwrap_err();
        assert_eq!(err, "unknown option --speculate for maxflow");
        let err = parse(
            "maxflow",
            &[&ff5[..], &["--slow-task", "reduce:1x10"]].concat(),
        )
        .unwrap_err();
        assert_eq!(err, "unknown option --slow-task for maxflow");
        // The daemon has one solver thread, not a sized pool.
        let err = parse("serve", &["--graph", "g=g.txt", "--threads", "2"]).unwrap_err();
        assert_eq!(err, "unknown option --threads for serve");
        // Nor a core planner to switch off: `--no-core` is gone from
        // both ends, and refused before it could swallow an argument.
        let err = parse("serve", &["--no-core", "--graph", "g=g.txt"]).unwrap_err();
        assert_eq!(err, "unknown option --no-core for serve");
        let err = parse("query", &["--op", "maxflow", "--no-core"]).unwrap_err();
        assert_eq!(err, "unknown option --no-core for query");
        // Another subcommand's option is unknown here too.
        let err = parse("info", &["--input", "g.txt", "--json"]).unwrap_err();
        assert_eq!(err, "unknown option --json for info");
    }

    #[test]
    fn every_subcommand_accepts_its_required_options() {
        let valid: [(&str, &[&str]); 10] = [
            (
                "generate",
                &["--model", "ba", "--vertices", "10", "--out", "g.txt"],
            ),
            ("info", &["--input", "g.txt"]),
            (
                "maxflow",
                &["--input", "g.txt", "--source", "0", "--sink", "9"],
            ),
            // `--mr-threshold` is the benchmark harness's daemon command line.
            (
                "serve",
                &["--graph", "g=g.txt", "--mr-threshold", "1000000"],
            ),
            ("worker", &["--connect", "127.0.0.1:1"]),
            ("query", &["--op", "ping"]),
            ("slowlog", &[]),
            ("stats", &[]),
            ("top", &["--connect", "127.0.0.1:1"]),
            ("report", &["--state", "x.dfs"]),
        ];
        assert_eq!(valid.len(), COMMANDS.len(), "one invocation per subcommand");
        for (command, args) in valid {
            let opts = parse(command, args).unwrap_or_else(|e| panic!("{command}: {e}"));
            for pair in args.chunks(2) {
                let name = pair[0].trim_start_matches("--");
                assert_eq!(opts.get(name), Some(pair[1]), "{command} --{name}");
            }
        }
    }
}
