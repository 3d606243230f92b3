//! What the benchmark runs and reports: the five workloads, the
//! end-to-end metrics with their regression bounds, the per-layer
//! metrics, and the sizes fixed for every host. `BENCHMARK.json` at the
//! repository root states the same tables for the driver; a unit test
//! keeps the two in step.

use crate::inputs::Graph;

/// Seconds one run measures when `--seconds` is absent (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;
pub const DEFAULT_SEED: u64 = 42;

// Sizes are fixed here, not derived from the host (2 cores where the
// first readings were taken).
/// `--threads` of the in-process batch jobs. One, not two: on two
/// threads of a 2-core host FF5's `aug_proc` accepts paths in
/// scheduling order, FB4' takes 8 or 9 rounds run to run and job times
/// range over 30 %; on one thread the work is the same every time and
/// what is left is the host's own noise. Such a job is confined to one
/// CPU (`child::cpu_split`).
pub const JOB_THREADS: usize = 1;
/// `--workers` of the distributed job: real `ffmr worker` processes.
pub const DIST_WORKERS: usize = 2;
/// Pairs in `serve-warm`'s pool, each queried once during set-up.
pub const WARM_POOL: u64 = 64;
/// Requests sent before the timed window opens, in seconds.
pub const SERVE_WARMUP_SECONDS: u64 = 2;
/// Set-up is run this many times per run; `setup_s` is the median.
/// (A serve set-up takes up to seconds, a job set-up a quarter of one.)
pub const JOB_SETUP_REPEATS: usize = 9;
pub const SERVE_SETUP_REPEATS: usize = 3;
/// Timed jobs per run at the least, however long they take.
pub const MIN_TIMED_JOBS: usize = 3;

/// One job workload's parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    pub graph: Graph,
    pub algorithm: &'static str,
    /// Run through `--workers N` OS processes instead of `--threads`.
    pub distributed: bool,
}

/// One serve workload's parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSpec {
    /// Pairs queried once during set-up and drawn again by nine requests
    /// in ten; 0 makes every request a never-repeated pair.
    pub pool: u64,
    /// Closed-loop connections of the load generator. The daemon they
    /// talk to runs on one CPU and they on the others
    /// (`child::cpu_split`). `serve-cold` has one: two cold solves that
    /// overlap share the daemon's CPU, how often they overlap is a
    /// matter of the two connections' phase, and `op_p95_ms` read
    /// 57–67 ms over six runs with two connections against 52.2–52.8 ms
    /// with one. `serve-warm` has two, so that requests can queue and
    /// coalesce; nine in ten of them cost the CPU microseconds.
    pub clients: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `ffmr maxflow --w 64` child processes, one after another.
    Job(JobSpec),
    /// Requests over loopback TCP to an `ffmr serve` daemon.
    Serve(ServeSpec),
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "batch-ff5-fb3",
        kind: Kind::Job(JobSpec {
            graph: Graph::Fb3,
            algorithm: "ff5",
            distributed: false,
        }),
        why: "The paper's headline path: FF5 on FB3' through the CLI on one thread; mapreduce and core (schimmy, aug_proc) do the work, service and worker none.",
    },
    Workload {
        name: "batch-ff1-fb2",
        kind: Kind::Job(JobSpec {
            graph: Graph::Fb2,
            algorithm: "ff1",
            distributed: false,
        }),
        why: "FF1 on FB2': 24 rounds, everything shuffled, no schimmy or aug_proc; shuffle-bound, so it bypasses FF5-only tricks and shows their tax.",
    },
    Workload {
        name: "dist-ff5-fb3",
        kind: Kind::Job(JobSpec {
            graph: Graph::Fb3,
            algorithm: "ff5",
            distributed: true,
        }),
        why: "The batch-ff5-fb3 job through 2 real ffmr worker processes over TCP: the worker dispatch plane adds most of the wall time, the MR compute is unchanged.",
    },
    Workload {
        name: "serve-cold",
        kind: Kind::Serve(ServeSpec {
            pool: 0,
            clients: 1,
        }),
        why: "Never-repeated (s,t) queries to ffmr serve over one TCP connection: each pays resolve, plan and a whole-graph solve; maxflow works, the cache is bypassed.",
    },
    Workload {
        name: "serve-warm",
        kind: Kind::Serve(ServeSpec {
            pool: WARM_POOL,
            clients: 2,
        }),
        why: "Two connections; 90% of queries repeat a warmed pool, 10% are fresh: socket, codec, queue, cache and coalescing do the work, the solver little.",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see, reported by every workload
/// with tracing off. An operation is one `ffmr maxflow` child process
/// (job workloads) or one request (serve workloads).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression: the one bound
    /// `BENCHMARK.json` can state per metric, so the widest any workload
    /// needs. The job workloads set it: their CPU-bound seconds spread up
    /// to 17 % between runs of one commit on the first host.
    pub bound: f64,
    /// The bound `--compare` holds the serve workloads to, whose
    /// latencies repeat within a tenth.
    pub serve_bound: f64,
    pub what: &'static str,
}

impl EndToEnd {
    /// The bound `--compare` applies on a workload of this kind.
    pub fn bound_on(&self, kind: &Kind) -> f64 {
        match kind {
            Kind::Job(_) => self.bound,
            Kind::Serve(_) => self.serve_bound,
        }
    }
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        serve_bound: 0.10,
        what: "median operation time (mean of the central fifth of the samples): spawn to exit of a job, send to decoded reply of a request",
    },
    EndToEnd {
        name: "op_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        serve_bound: 0.15,
        what: "95th percentile of the same (mean of the samples from the 92.5th to the 97.5th percentile; the slowest two of a few jobs); a failed operation counts as its time-out",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        serve_bound: 0.10,
        what: "correct operations completed per second of the timed window",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        serve_bound: 0.10,
        what: "VmHWM of the ffmr process under test (median over jobs; the daemon before shutdown; the driver only for dist)",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        serve_bound: 0.25,
        what: "median of nine (serve: three) set-ups: FB generation, edge-list write, oracle solve; for serve also daemon spawn to its listening line and the pool warm",
    },
];

/// A metric of a single layer (crate), from the traced run. A layer that
/// does no work on a workload reports 0 there.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // swgraph
    lower("swgraph.generate_s", "s"),
    lower("swgraph.parse_s", "s"),
    lower("swgraph.super_st_s", "s"),
    lower("swgraph.edge_pairs", "count"),
    // core
    lower("core.run_s", "s"),
    lower("core.round0_s", "s"),
    lower("core.rounds", "count"),
    lower("core.round_wall_max_s", "s"),
    lower("core.a_paths", "count"),
    lower("core.aug_max_queue", "count"),
    lower("core.driver_self_s", "s"),
    lower("core.checkpoint_s", "s"),
    lower("core.checkpoint_bytes", "bytes"),
    lower("core.bfs_s", "s"),
    lower("core.ff_over_bfs", "ratio"),
    // mapreduce
    lower("mapreduce.job_wall_s", "s"),
    lower("mapreduce.map_busy_s", "s"),
    lower("mapreduce.shuffle_busy_s", "s"),
    lower("mapreduce.reduce_busy_s", "s"),
    lower("mapreduce.map_output_records", "count"),
    lower("mapreduce.shuffle_bytes", "bytes"),
    lower("mapreduce.spill_runs", "count"),
    lower("mapreduce.merge_fanin_p50", "count"),
    lower("mapreduce.schimmy_bytes", "bytes"),
    lower("mapreduce.output_bytes", "bytes"),
    higher("mapreduce.shuffle_mb_per_s", "MiB/s"),
    lower("mapreduce.partition_skew_max", "ratio"),
    lower("mapreduce.failed_attempts", "count"),
    lower("mapreduce.sim_s", "s"),
    higher("mapreduce.threads2_speedup_x", "ratio"),
    // maxflow
    lower("maxflow.solve_us_p50.parallel-pr", "us"),
    lower("maxflow.solve_us_p50.push-relabel", "us"),
    lower("maxflow.solve_us_p50.dinic", "us"),
    lower("maxflow.pushes_per_solve", "count"),
    lower("maxflow.relabels_per_solve", "count"),
    lower("maxflow.global_relabels_per_solve", "count"),
    lower("maxflow.core_build_s", "s"),
    lower("maxflow.core_vertices", "count"),
    higher("maxflow.periphery_vertices", "count"),
    // service
    lower("service.execute_us_p50", "us"),
    lower("service.execute_us_p95", "us"),
    lower("service.wire_us_p50", "us"),
    lower("service.codec_ns", "ns"),
    lower("service.queue_wait_us_p95", "us"),
    lower("service.stage_us_p50.resolve", "us"),
    lower("service.stage_us_p50.plan", "us"),
    lower("service.stage_us_p50.solve", "us"),
    lower("service.stage_us_p50.cache_update", "us"),
    higher("service.cache_hit_ratio", "ratio"),
    higher("service.coalesced_ratio", "ratio"),
    higher("service.plan_direct", "count"),
    higher("service.plan_core", "count"),
    lower("service.plan_full", "count"),
    lower("service.shed", "count"),
    higher("service.server_cpu_util", "ratio"),
    // worker
    lower("worker.dispatch_overhead_x", "ratio"),
    lower("worker.dispatches", "count"),
    lower("worker.blob_get_bytes", "bytes"),
    lower("worker.blob_put_bytes", "bytes"),
    lower("worker.socket_bytes_per_shuffle_byte", "ratio"),
    lower("worker.blame_serialization_s", "s"),
    lower("worker.blame_transfer_s", "s"),
    lower("worker.blame_dispatch_wait_s", "s"),
    lower("worker.blame_compute_s", "s"),
    lower("worker.deaths", "count"),
    // cli
    lower("cli.process_overhead_s", "s"),
    // obs: guards the measurement itself
    lower("obs.trace_overhead_pct", "%"),
    lower("obs.unattributed_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "bad name {name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(unit), "bad unit {unit}");
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END
            .iter()
            .all(|m| m.serve_bound <= m.bound && m.bound <= 0.25));
    }

    /// `BENCHMARK.json` is what the driver reads; this file is what the
    /// program reports. They must list the same things.
    #[test]
    fn benchmark_json_states_the_same_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS as f64)
        );
        let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();

        let workloads = doc.get("workloads").and_then(Value::as_array).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (json, spec) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(text(json, "name"), spec.name);
            assert_eq!(text(json, "why"), spec.why);
        }
        let end_to_end = doc.get("end_to_end").and_then(Value::as_array).unwrap();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (json, spec) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(text(json, "name"), spec.name);
            assert_eq!(text(json, "unit"), spec.unit);
            assert_eq!(text(json, "better"), spec.better.as_str());
            assert_eq!(json.get("bound").and_then(Value::as_f64), Some(spec.bound));
        }
        let per_layer = doc.get("per_layer").and_then(Value::as_array).unwrap();
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (json, spec) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(text(json, "name"), spec.name);
            assert_eq!(text(json, "unit"), spec.unit);
            assert_eq!(text(json, "better"), spec.better.as_str());
        }
    }
}
