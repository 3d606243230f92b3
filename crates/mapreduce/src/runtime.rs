//! The job executor: really runs map → shuffle → reduce on host threads,
//! while pricing the job against the cluster cost model.
//!
//! The intermediate-data plane is Hadoop's sort/merge pipeline: map tasks
//! emit key-sorted, pre-encoded spill runs (one per reduce partition,
//! sorted inside the parallel map phase), the shuffle transposes spills
//! to per-reducer fetch lists and accounts bytes per spill, and reduce
//! tasks k-way merge the sorted runs — schimmy side input first, then
//! map-task index order — instead of re-sorting the whole partition. See
//! DESIGN.md § "Shuffle pipeline" for the format and the determinism
//! contract.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, VecDeque};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ffmr_sync::Mutex;

use std::sync::Arc;

use crate::cluster::{ClusterConfig, PhaseCost, TaskCost};
use crate::counters::Counters;
use crate::dfs::{Dfs, DfsFile, Partition};
use crate::error::{DecodeError, MrError};
use crate::exec::{
    Attempt, CapturedCalls, JobTaskRunner, MapTaskResult, MapTaskSpec, ReduceTaskResult,
    ReduceTaskSpec, TaskExecutor,
};
use crate::job::{Job, JobConfig};
use crate::record::{decode_exact, split_record, Datum, KeyDatum, SpillRun};
use crate::service::ServiceHandle;
use crate::stats::JobStats;

/// An environment-fault injector: `(phase, task, attempt) -> crash?`.
pub type FaultInjector = Arc<dyn Fn(&'static str, usize, u32) -> bool + Send + Sync>;

/// One attempt's host wall-clock window: `(start_us, end_us)` relative
/// to the job's `run()` entry, for the flight recorder.
type WallWindow = (u64, u64);

/// One task attempt's record: its wall-clock window and, when a worker
/// ran it, the dispatch note that came back with its result.
#[derive(Debug)]
struct AttemptRecord {
    wall: WallWindow,
    note: Option<ffmr_obs::DispatchNote>,
}

/// One task's record in the parallel runner: its result, its price
/// under the cost model and one record per attempt, the last of which
/// succeeded.
#[derive(Debug)]
struct TaskRecord<R> {
    result: R,
    cost: TaskCost,
    tries: Vec<AttemptRecord>,
}

impl<R> TaskRecord<R> {
    /// Slot time the task occupied: failed attempts held a slot for
    /// about as long as the successful one.
    fn occupancy(&self, cluster: &ClusterConfig) -> f64 {
        self.cost.seconds(cluster) * self.tries.len() as f64
    }
}

/// One task's outcome slot in the parallel runner.
type TaskSlot<R> = Option<Result<TaskRecord<R>, MrError>>;

/// Microseconds elapsed on `epoch`, saturating.
fn elapsed_us(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Decides how task failures are handled, mirroring Hadoop's
/// `mapred.map.max.attempts`: a failed task attempt
/// ([`MrError::TaskFailed`]: a panic in the user function, an injected
/// environment fault, a lost worker) is retried up to `max_attempts`
/// times before the whole job fails. Any other task error (a record that
/// does not decode, a run out of key order) would recur on every attempt,
/// so it fails the job at once. Failed attempts'
/// counter increments are discarded; their runtime is still charged to
/// the simulated clock (the slot was occupied).
#[derive(Clone)]
pub struct FailurePolicy {
    /// Attempts per task before the job fails (Hadoop's default is 4).
    pub max_attempts: u32,
    /// Environment-fault injector: `(phase, task, attempt) -> crash?`,
    /// consulted before each attempt. Deterministic injectors make fault
    /// tests reproducible.
    pub injector: Option<FaultInjector>,
}

impl std::fmt::Debug for FailurePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FailurePolicy")
            .field("max_attempts", &self.max_attempts)
            .field("injector", &self.injector.is_some())
            .finish()
    }
}

impl Default for FailurePolicy {
    fn default() -> Self {
        Self {
            max_attempts: 1,
            injector: None,
        }
    }
}

impl FailurePolicy {
    /// Hadoop's default: 4 attempts per task, no injected faults.
    #[must_use]
    pub fn hadoop_default() -> Self {
        Self {
            max_attempts: 4,
            injector: None,
        }
    }

    /// A policy that injects a fault whenever `f(phase, task, attempt)`
    /// says so, with the given attempt budget.
    #[must_use]
    pub fn with_injector(
        max_attempts: u32,
        f: impl Fn(&'static str, usize, u32) -> bool + Send + Sync + 'static,
    ) -> Self {
        Self {
            max_attempts,
            injector: Some(Arc::new(f)),
        }
    }
}

/// Executes jobs against a [`Dfs`] and accumulates simulated time.
///
/// See the [crate docs](crate) for a full word-count example.
pub struct MrRuntime {
    cluster: ClusterConfig,
    dfs: Dfs,
    worker_threads: Option<usize>,
    total_sim_seconds: f64,
    failure_policy: FailurePolicy,
    executor: Option<Arc<dyn TaskExecutor>>,
}

impl std::fmt::Debug for MrRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MrRuntime")
            .field("cluster", &self.cluster)
            .field("worker_threads", &self.worker_threads)
            .field("total_sim_seconds", &self.total_sim_seconds)
            .field("failure_policy", &self.failure_policy)
            .field("executor", &self.executor.is_some())
            .finish_non_exhaustive()
    }
}

impl MrRuntime {
    /// Creates a runtime simulating `cluster`.
    #[must_use]
    pub fn new(cluster: ClusterConfig) -> Self {
        Self {
            cluster,
            dfs: Dfs::new(),
            worker_threads: None,
            total_sim_seconds: 0.0,
            failure_policy: FailurePolicy::default(),
            executor: None,
        }
    }

    /// Installs (or clears) the task executor jobs with a
    /// [`WireSpec`](crate::WireSpec) are dispatched through —
    /// distributed mode's entry point. Jobs without a wire spec, and
    /// every runtime without an executor, run tasks in process exactly
    /// as before.
    pub fn set_task_executor(&mut self, executor: Option<Arc<dyn TaskExecutor>>) {
        self.executor = executor;
    }

    /// Whether a task executor is installed (drivers use this to decide
    /// whether to attach wire specs to their jobs).
    #[must_use]
    pub fn has_task_executor(&self) -> bool {
        self.executor.is_some()
    }

    /// Sets the task failure-handling policy (default: no retries).
    pub fn set_failure_policy(&mut self, policy: FailurePolicy) {
        self.failure_policy = policy;
    }

    /// The simulated cluster configuration.
    #[must_use]
    pub fn cluster(&self) -> &ClusterConfig {
        &self.cluster
    }

    /// Limits host worker threads (default: available parallelism).
    /// Changes wall-clock speed only: output, service-call order and
    /// simulated time are the same at any count.
    pub fn set_worker_threads(&mut self, n: Option<usize>) {
        self.worker_threads = n;
    }

    /// Shared access to the simulated DFS.
    #[must_use]
    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    /// Mutable access to the simulated DFS (for loading inputs, deleting
    /// intermediate round outputs, writing side blobs).
    pub fn dfs_mut(&mut self) -> &mut Dfs {
        &mut self.dfs
    }

    /// Simulated seconds accumulated across every job run so far.
    #[must_use]
    pub fn total_sim_seconds(&self) -> f64 {
        self.total_sim_seconds
    }

    /// Runs one job to completion: validate, plan splits, map, shuffle,
    /// reduce, then commit and price. Each stage is one function below;
    /// the map, shuffle and reduce stages open the `mr.map`, `mr.shuffle`
    /// and `mr.reduce` spans under this job's `mr.job`.
    ///
    /// # Errors
    /// Fails if the configuration is invalid, an input is missing, the
    /// output exists, a record fails to decode, a schimmy partition is out
    /// of key order, or a task fails every attempt.
    pub fn run<KI, VI, KM, VM, KO, VO>(
        &mut self,
        job: Job<KI, VI, KM, VM, KO, VO>,
    ) -> Result<JobStats, MrError>
    where
        KI: Datum,
        VI: Datum,
        KM: KeyDatum,
        VM: Datum,
        KO: Datum,
        VO: Datum,
    {
        let epoch = Instant::now();
        let cfg = job.config();
        let mut job_span = ffmr_obs::span("mr.job");
        job_span.field("job", &cfg.name);
        // The job span's id doubles as the trace id: every span this
        // process (and, via the dispatch protocol, every worker) opens
        // until the next job carries it, stitching one cross-process
        // trace per job. Zero when tracing is off — nothing to stitch.
        ffmr_obs::set_trace_id(job_span.id());

        let schimmy = self.validate(cfg)?;
        let splits = self.plan_splits(cfg)?;
        let side_bytes = cfg.side_blobs.iter().map(|p| self.dfs.blob_bytes(p)).sum();
        let executor = self.executor.clone();
        let run = JobRun::new(&job, executor.as_ref(), side_bytes, epoch);

        job.services.begin_round();
        let mut maps = self.map(&run, splits)?;
        let (fetches, shuffle_wall) = shuffle(&mut maps, cfg.reducers, epoch);
        let reduces = self.reduce(&run, &fetches, schimmy)?;
        job.services.end_round();

        self.commit_and_price(&run, &maps, shuffle_wall, reduces)
    }

    /// Validate: every check a job must pass, made before anything runs,
    /// so a rejected job leaves the DFS and its services untouched.
    /// Returns the schimmy file, if the job has one.
    fn validate(&self, cfg: &JobConfig) -> Result<Option<&DfsFile>, MrError> {
        if cfg.reducers == 0 {
            return Err(MrError::InvalidJob("reducers must be > 0".into()));
        }
        if cfg.inputs.is_empty() {
            return Err(MrError::InvalidJob("no input paths".into()));
        }
        if self.dfs.exists(&cfg.output) {
            return Err(MrError::OutputExists(cfg.output.clone()));
        }
        for input in &cfg.inputs {
            self.dfs.file(input)?;
        }
        // Schimmy: the matching partition of a previous output is merged
        // into each reducer without being shuffled, so the partitioning
        // must be the job's.
        let Some(path) = &cfg.schimmy else {
            return Ok(None);
        };
        let file = self.dfs.file(path)?;
        if file.partitions.len() != cfg.reducers {
            return Err(MrError::InvalidJob(format!(
                "schimmy input {path} has {} partitions, job has {} reducers",
                file.partitions.len(),
                cfg.reducers
            )));
        }
        Ok(Some(file))
    }

    /// Plan splits: one map task per block-sized, record-aligned input
    /// split (Hadoop's `InputSplit`), across all input files in order.
    fn plan_splits(&self, cfg: &JobConfig) -> Result<Vec<&[u8]>, MrError> {
        let block_bytes = (self.cluster.dfs_block_mb * 1024.0 * 1024.0).max(1.0) as usize;
        let mut splits = Vec::new();
        for input in &cfg.inputs {
            for partition in &self.dfs.file(input)?.partitions {
                splits.extend(partition.splits(block_bytes)?);
            }
        }
        Ok(splits)
    }

    /// Map (`mr.map`): one task per split. Each task's service calls are
    /// applied as soon as it and every lower-indexed task have completed
    /// (see `run_parallel`).
    fn map(
        &self,
        run: &JobRun<'_>,
        splits: Vec<&[u8]>,
    ) -> Result<Vec<TaskRecord<MapTaskResult>>, MrError> {
        let _span = ffmr_obs::span("mr.map");
        let map_task = |task: usize, split: &[u8]| {
            (run.map)(task, split).map(|result| {
                run.merge_counters(&result.counters);
                let cost = TaskCost {
                    read_bytes: split.len() as u64 + run.side_bytes,
                    write_bytes: result.spills.iter().map(SpillRun::bytes).sum(),
                    records: result.input_records + result.output_records,
                    allocs: result.allocs,
                };
                (result, cost)
            })
        };
        run_parallel(
            "map",
            self.worker_threads,
            &self.failure_policy,
            splits,
            map_task,
            |r: &mut MapTaskResult| apply_calls(run.services, &mut r.captured),
            run.epoch,
        )
    }

    /// Reduce (`mr.reduce`): one task per partition, each merging its
    /// fetch list with its schimmy partition. Tasks are dispatched by
    /// partition index and borrow their fetch list, so a retry re-runs
    /// off the same spills without deep-copying them.
    fn reduce(
        &self,
        run: &JobRun<'_>,
        fetches: &[Vec<SpillRun>],
        schimmy: Option<&DfsFile>,
    ) -> Result<Vec<TaskRecord<ReduceOutput>>, MrError> {
        let _span = ffmr_obs::span("mr.reduce");
        let reduce_task = |r: usize, _item: usize| {
            let spills = &fetches[r];
            // The fetch: account every spill from its per-run size
            // prefix (Hadoop's reduce-shuffle-bytes and the cross-node
            // subset) — no per-record iteration.
            let to_node = self.cluster.reduce_node(r);
            let mut out = ReduceOutput::default();
            let mut consumed = 0u64;
            for (map_idx, s) in spills.iter().enumerate() {
                out.fetched_bytes += s.bytes();
                consumed += s.records;
                if s.records > 0 {
                    out.spill_runs += 1;
                    if self.cluster.map_node(map_idx) != to_node {
                        out.cross_node_bytes += s.bytes();
                    }
                }
            }
            let schimmy_part = schimmy.map(|f| f.partitions[r].data.as_slice());
            out.schimmy_bytes = schimmy_part.map_or(0, |p| p.len() as u64);
            (run.reduce)(r, spills, schimmy_part).map(|task| {
                out.task = task;
                run.merge_counters(&out.task.counters);
                let cost = TaskCost {
                    read_bytes: out.fetched_bytes + out.schimmy_bytes,
                    write_bytes: out.task.data.len() as u64,
                    records: consumed + out.task.records,
                    allocs: out.task.allocs,
                };
                (out, cost)
            })
        };
        run_parallel(
            "reduce",
            self.worker_threads,
            &self.failure_policy,
            (0..fetches.len()).collect(),
            reduce_task,
            |r: &mut ReduceOutput| apply_calls(run.services, &mut r.task.captured),
            run.epoch,
        )
    }

    /// Commit and price: writes the output file, charges the job to the
    /// cluster cost model and the simulated clock, and assembles its
    /// stats and flight-recorder events.
    fn commit_and_price(
        &mut self,
        run: &JobRun<'_>,
        maps: &[TaskRecord<MapTaskResult>],
        shuffle_wall: WallWindow,
        reduces: Vec<TaskRecord<ReduceOutput>>,
    ) -> Result<JobStats, MrError> {
        let (cfg, cluster) = (run.cfg, &self.cluster);
        let mut stats = JobStats {
            name: cfg.name.clone(),
            map_tasks: maps.len(),
            reduce_tasks: reduces.len(),
            ..JobStats::default()
        };
        let mut map_phase = PhaseCost::new();
        for m in maps {
            // Failed attempts occupied a slot for about as long as the
            // successful one; charge them.
            map_phase.push_task(m.occupancy(cluster));
            stats.failed_attempts += m.tries.len() as u64 - 1;
            stats.map_input_records += m.result.input_records;
            stats.map_output_records += m.result.output_records;
            stats.input_bytes += m.cost.read_bytes - run.side_bytes;
            stats.spilled_bytes += m.cost.write_bytes; // exactly the spill bytes
        }
        stats.map_output_bytes = stats.spilled_bytes;

        let metrics = ffmr_obs::global();
        let mut reduce_phase = PhaseCost::new();
        let mut cross_node_bytes = 0u64;
        for r in &reduces {
            reduce_phase.push_task(r.occupancy(cluster));
            stats.failed_attempts += r.tries.len() as u64 - 1;
            stats.reduce_output_records += r.result.task.records;
            stats.output_bytes += r.cost.write_bytes;
            stats.schimmy_bytes += r.result.schimmy_bytes;
            stats.shuffle_bytes += r.result.fetched_bytes;
            cross_node_bytes += r.result.cross_node_bytes;
            stats.spill_runs += r.result.spill_runs;
            stats.merge_fanin_max = stats.merge_fanin_max.max(r.result.task.merge_fanin);
            metrics
                .histogram("ffmr_mr_merge_fanin", &[])
                .record(r.result.task.merge_fanin);
        }

        let mb = 1024.0 * 1024.0;
        let net_agg = cluster.net_mb_per_s * cluster.nodes as f64;
        let disk_agg = cluster.disk_mb_per_s * cluster.nodes as f64;
        let map_seconds = map_phase.makespan(cluster.total_map_slots());
        let shuffle_seconds = cross_node_bytes as f64 / mb / net_agg
            + cluster.sort_factor * stats.shuffle_bytes as f64 / mb / disk_agg;
        // Replication traffic for the extra DFS copies.
        let replication_seconds = stats.output_bytes as f64
            * f64::from(cluster.dfs_replication.saturating_sub(1))
            / mb
            / net_agg;
        stats.sim_seconds = cluster.round_overhead_s
            + map_seconds
            + shuffle_seconds
            + reduce_phase.makespan(cluster.total_reduce_slots())
            + replication_seconds;

        if ffmr_obs::events::recorder().enabled() {
            // One event per task attempt plus a synthetic shuffle-barrier
            // event, on the derived timeline: scheduling overhead, then
            // the map wave, the shuffle, the reduce wave (replication
            // follows).
            let map_end = cluster.round_overhead_s + map_seconds;
            let mut events = phase_events(
                cfg,
                "map",
                cluster.round_overhead_s,
                cluster,
                maps,
                run.side_bytes,
            );
            events.push(ffmr_obs::TaskEvent {
                job: cfg.name.clone(),
                phase: "shuffle".to_owned(),
                task: 0,
                attempt: 0,
                node: 0,
                partition: None,
                worker: None,
                sim_start: map_end,
                sim_end: map_end + shuffle_seconds,
                wall_start_us: shuffle_wall.0,
                wall_end_us: shuffle_wall.1,
                bytes_in: stats.shuffle_bytes,
                bytes_out: cross_node_bytes,
                outcome: ffmr_obs::TaskOutcome::Ok,
            });
            events.extend(phase_events(
                cfg,
                "reduce",
                map_end + shuffle_seconds,
                cluster,
                &reduces,
                0,
            ));
            stats.task_events = events;
            stats.dispatch_notes = dispatch_notes(maps, &reduces, run.epoch);
        }

        let partitions = reduces
            .into_iter()
            .map(|r| Partition {
                records: r.result.task.records,
                data: r.result.task.data,
            })
            .collect();
        self.dfs.insert_file(&cfg.output, DfsFile { partitions })?;
        self.total_sim_seconds += stats.sim_seconds;
        stats.counters = run.counters.snapshot();
        stats.wall_seconds = run.epoch.elapsed().as_secs_f64();
        fold_job_metrics(&stats);
        Ok(stats)
    }
}

/// Shuffle (`mr.shuffle`): moves the map tasks' spills into each
/// reducer's fetch list — pure buffer moves, O(map tasks × reducers), no
/// per-record work. Empty runs are kept so a fetch list's position i is
/// always map task i (the reduce task derives cross-node traffic from
/// it). Byte accounting and the sorted-run merge happen inside the
/// parallel reduce tasks — the per-reducer "fetch". Returns the fetch
/// lists and the stage's wall-clock window.
fn shuffle(
    maps: &mut [TaskRecord<MapTaskResult>],
    reducers: usize,
    epoch: Instant,
) -> (Vec<Vec<SpillRun>>, WallWindow) {
    let _span = ffmr_obs::span("mr.shuffle");
    let start = elapsed_us(epoch);
    let mut fetches: Vec<Vec<SpillRun>> = (0..reducers)
        .map(|_| Vec::with_capacity(maps.len()))
        .collect();
    for m in maps {
        for (p, spill) in std::mem::take(&mut m.result.spills).into_iter().enumerate() {
            fetches[p].push(spill);
        }
    }
    (fetches, (start, elapsed_us(epoch)))
}

/// A map task body: `(task, input split bytes)`.
type MapTaskFn<'a> = Box<dyn Fn(usize, &[u8]) -> Attempt<MapTaskResult> + Sync + 'a>;
/// A reduce task body: `(partition, fetched spills, schimmy partition bytes)`.
type ReduceTaskFn<'a> =
    Box<dyn Fn(usize, &[SpillRun], Option<&[u8]>) -> Attempt<ReduceTaskResult> + Sync + 'a>;

/// What the stages share for one job: its config and services, where its
/// tasks run, its counters, the side-blob bytes every map task reads
/// (charged per task) and the wall-clock epoch.
struct JobRun<'a> {
    cfg: &'a JobConfig,
    services: &'a ServiceHandle,
    map: MapTaskFn<'a>,
    reduce: ReduceTaskFn<'a>,
    counters: Counters,
    side_bytes: u64,
    epoch: Instant,
}

impl<'a> JobRun<'a> {
    /// Runs tasks through `executor` when the job declared a wire spec
    /// (both halves are needed to ship user code), else in process.
    fn new<KI, VI, KM, VM, KO, VO>(
        job: &'a Job<KI, VI, KM, VM, KO, VO>,
        executor: Option<&'a Arc<dyn TaskExecutor>>,
        side_bytes: u64,
        epoch: Instant,
    ) -> Self
    where
        KI: Datum,
        VI: Datum,
        KM: KeyDatum,
        VM: Datum,
        KO: Datum,
        VO: Datum,
    {
        let cfg = &job.config;
        let reducers = cfg.reducers;
        let (map, reduce): (MapTaskFn<'a>, ReduceTaskFn<'a>) = match executor.zip(cfg.wire.as_ref())
        {
            Some((executor, wire)) => (
                Box::new(move |task, input| {
                    let spec = MapTaskSpec {
                        task,
                        reducers,
                        input: input.to_vec(),
                    };
                    executor.execute_map(wire, spec)
                }),
                Box::new(move |task, spills, schimmy| {
                    let spec = ReduceTaskSpec {
                        task,
                        spills: spills.to_vec(),
                        schimmy: schimmy.map(<[u8]>::to_vec),
                    };
                    executor.execute_reduce(wire, spec)
                }),
            ),
            None => {
                // The typed task bodies live in `JobTaskRunner` — the
                // same code a remote worker runs after reconstructing the
                // job from its wire spec, which is what makes distributed
                // output byte-identical.
                let runner = Arc::new(JobTaskRunner::from_parts(
                    Arc::clone(&job.mapper),
                    Arc::clone(&job.reducer),
                    job.services.clone(),
                ));
                let reduce_runner = Arc::clone(&runner);
                let schimmy_path = cfg.schimmy.as_deref().unwrap_or_default();
                (
                    Box::new(move |task, input| runner.run_map_bytes(task, input, reducers).into()),
                    Box::new(move |task, spills, schimmy| {
                        let schimmy = schimmy.map(|data| (schimmy_path, data));
                        reduce_runner.run_reduce_parts(task, spills, schimmy).into()
                    }),
                )
            }
        };
        Self {
            cfg,
            services: &job.services,
            map,
            reduce,
            counters: Counters::new(),
            side_bytes,
            epoch,
        }
    }

    /// Merges one task attempt's counters — called on the attempt's
    /// success path, so retried attempts never double-count.
    fn merge_counters(&self, deltas: &[(String, u64)]) {
        for (name, delta) in deltas {
            self.counters.incr(name, *delta);
        }
    }
}

/// A reduce task's result plus what its fetch moved.
#[derive(Default)]
struct ReduceOutput {
    task: ReduceTaskResult,
    schimmy_bytes: u64,
    fetched_bytes: u64,
    cross_node_bytes: u64,
    spill_runs: u64,
}

/// Folds one job's statistics into the process-wide metrics registry —
/// the cumulative analogue of Hadoop's per-job counters page. Names
/// mirror [`JobStats`] fields (`mr_shuffle_bytes_total` ↔
/// `shuffle_bytes`, the paper's "Shuffle" column of Table I).
#[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
fn fold_job_metrics(stats: &JobStats) {
    let m = ffmr_obs::global();
    m.counter("ffmr_mr_jobs_total", &[]).inc();
    m.counter("ffmr_mr_map_input_records_total", &[])
        .add(stats.map_input_records);
    m.counter("ffmr_mr_map_output_records_total", &[])
        .add(stats.map_output_records);
    m.counter("ffmr_mr_shuffle_bytes_total", &[])
        .add(stats.shuffle_bytes);
    m.counter("ffmr_mr_spill_bytes_total", &[])
        .add(stats.spilled_bytes);
    m.counter("ffmr_mr_spill_runs_total", &[])
        .add(stats.spill_runs);
    m.counter("ffmr_mr_reduce_output_records_total", &[])
        .add(stats.reduce_output_records);
    m.counter("ffmr_mr_output_bytes_total", &[])
        .add(stats.output_bytes);
    m.counter("ffmr_mr_input_bytes_total", &[])
        .add(stats.input_bytes);
    m.counter("ffmr_mr_schimmy_bytes_total", &[])
        .add(stats.schimmy_bytes);
    m.counter("ffmr_mr_map_tasks_total", &[])
        .add(stats.map_tasks as u64);
    m.counter("ffmr_mr_reduce_tasks_total", &[])
        .add(stats.reduce_tasks as u64);
    m.counter("ffmr_mr_failed_attempts_total", &[])
        .add(stats.failed_attempts);
    m.counter("ffmr_mr_sim_millis_total", &[])
        .add((stats.sim_seconds * 1_000.0).max(0.0) as u64);
    m.histogram("ffmr_mr_job_wall_us", &[])
        .record((stats.wall_seconds * 1_000_000.0).max(0.0) as u64);
}

/// Greedy earliest-free-slot list schedule: returns, in task order, the
/// phase-relative start offset each occupancy gets when placed on the
/// soonest-free of `slots` slots. This reconstructs the shape of the
/// phase makespan model for the flight recorder's event timeline — it
/// is a visualization aid, not a second cost model (the charged phase
/// time stays `PhaseCost::makespan`).
fn list_schedule(occupancies: &[f64], slots: usize) -> Vec<f64> {
    let slots = slots.clamp(1, occupancies.len().max(1));
    let mut free = vec![0.0f64; slots];
    occupancies
        .iter()
        .map(|&occupancy| {
            let idx = free
                .iter()
                .enumerate()
                .min_by(|a, b| f64::total_cmp(a.1, b.1))
                .map_or(0, |(i, _)| i);
            let start = free[idx];
            free[idx] = start + occupancy;
            start
        })
        .collect()
}

/// The attempts' dispatch notes, map tasks then reduce tasks, each
/// task's attempts in order, rebased from the process epoch the
/// coordinator stamps them on onto this job's wall clock (the one
/// `wall_start_us`/`wall_end_us` use).
fn dispatch_notes(
    maps: &[TaskRecord<MapTaskResult>],
    reduces: &[TaskRecord<ReduceOutput>],
    epoch: Instant,
) -> Vec<ffmr_obs::DispatchNote> {
    let rebase = u64::try_from(
        epoch
            .saturating_duration_since(ffmr_obs::span::process_epoch())
            .as_micros(),
    )
    .unwrap_or(u64::MAX);
    let tries = maps.iter().flat_map(|t| &t.tries);
    let tries = tries.chain(reduces.iter().flat_map(|t| &t.tries));
    tries
        .filter_map(|t| t.note.clone())
        .map(|mut note| {
            note.rebase(rebase);
            note
        })
        .collect()
}

/// The flight-recorder events of one phase: per task, every failed
/// attempt, then the final attempt. A map event's `bytes_in` is its
/// split, without the `side_bytes` every map task also reads.
///
/// Timeline conventions (documented on [`ffmr_obs::TaskEvent`]):
/// attempts of one task run back to back on the slot the list schedule
/// assigned.
fn phase_events<R>(
    cfg: &JobConfig,
    phase: &'static str,
    phase_start: f64,
    cluster: &ClusterConfig,
    tasks: &[TaskRecord<R>],
    side_bytes: u64,
) -> Vec<ffmr_obs::TaskEvent> {
    use ffmr_obs::{TaskEvent, TaskOutcome};
    let is_reduce = phase == "reduce";
    let slots = if is_reduce {
        cluster.total_reduce_slots()
    } else {
        cluster.total_map_slots()
    };
    let occupancies: Vec<f64> = tasks.iter().map(|t| t.occupancy(cluster)).collect();
    let starts = list_schedule(&occupancies, slots);
    let mut out = Vec::with_capacity(tasks.len());
    for (i, t) in tasks.iter().enumerate() {
        let node = if is_reduce {
            cluster.reduce_node(i)
        } else {
            cluster.map_node(i)
        };
        let duration = t.cost.seconds(cluster);
        let last = t.tries.len() - 1;
        for (attempt, record) in t.tries.iter().enumerate() {
            let sim_start = phase_start + starts[i] + duration * attempt as f64;
            out.push(TaskEvent {
                job: cfg.name.clone(),
                phase: phase.to_owned(),
                task: i,
                attempt: attempt as u32,
                node,
                partition: is_reduce.then_some(i),
                worker: record.note.as_ref().map(|n| n.worker),
                sim_start,
                sim_end: sim_start + duration,
                wall_start_us: record.wall.0,
                wall_end_us: record.wall.1,
                bytes_in: t.cost.read_bytes - side_bytes,
                bytes_out: t.cost.write_bytes,
                outcome: if attempt == last {
                    TaskOutcome::Ok
                } else {
                    TaskOutcome::Failed
                },
            });
        }
    }
    out
}

/// Stable hash partitioner (deterministic across runs and platforms for a
/// given std release; FF only relies on within-run stability). Public so
/// schimmy side inputs — which must be hash-partitioned the same way as
/// the shuffle — can be prepared outside the runtime.
pub fn partition_of<K: Hash>(key: &K, partitions: usize) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % partitions as u64) as usize
}

/// One key-sorted encoded run staged in the reduce-side merge heap.
///
/// The current key is decoded once per record and *borrowed* for every
/// heap comparison; the value stays raw bytes until its group is
/// consumed, so comparisons never pay decode costs. The derived order is
/// `(key, rank)`: ranks are unique, so the byte fields never decide it.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct RunCursor<'a, K> {
    key: K,
    /// Tie-break on equal keys: 0 = schimmy, then 1 + map-task index.
    /// Combined with per-run stable sorting, this reproduces — byte for
    /// byte — the value order of a stable full-partition sort (schimmy
    /// first, then map-task order, then emission order).
    rank: usize,
    value: &'a [u8],
    rest: &'a [u8],
}

/// Why a reduce-side merge stopped.
#[derive(Debug)]
pub(crate) enum MergeError {
    /// A record of some run failed to decode.
    Decode(DecodeError),
    /// The run of this rank (0 = schimmy, 1 + map-task index) has a key
    /// lower than the key before it.
    Unsorted { rank: usize },
}

impl From<DecodeError> for MergeError {
    fn from(e: DecodeError) -> Self {
        Self::Decode(e)
    }
}

impl<'a, K: KeyDatum> RunCursor<'a, K> {
    /// Opens a cursor over an encoded run; `None` if the run is empty.
    fn open(rank: usize, mut data: &'a [u8]) -> Result<Option<Self>, DecodeError> {
        if data.is_empty() {
            return Ok(None);
        }
        let (kraw, value) = split_record(&mut data)?;
        Ok(Some(Self {
            key: decode_exact(kraw, "key")?,
            rank,
            value,
            rest: data,
        }))
    }

    /// Consumes the current record, returning its key, raw value and the
    /// advanced cursor (`None` at end of run). The one key comparison per
    /// record that keeps the merge honest: a next key lower than this one
    /// is [`MergeError::Unsorted`].
    fn consume(self) -> Result<(K, &'a [u8], Option<Self>), MergeError> {
        let next = Self::open(self.rank, self.rest)?;
        if next.as_ref().is_some_and(|n| n.key < self.key) {
            return Err(MergeError::Unsorted { rank: self.rank });
        }
        Ok((self.key, self.value, next))
    }
}

/// K-way-merges key-sorted encoded runs — the optional schimmy partition
/// (rank 0) plus one spill per map task, visited in map-task index order
/// — and invokes `f` once per distinct key with the grouped values. The
/// group buffer is drained and reused across keys, never reallocated.
/// Returns the merge fan-in (number of non-empty runs, schimmy included).
pub(crate) fn merge_sorted_runs<K: KeyDatum, V: Datum>(
    schimmy: Option<&[u8]>,
    spills: &[SpillRun],
    mut f: impl FnMut(&K, &mut dyn Iterator<Item = V>),
) -> Result<u64, MergeError> {
    let runs = schimmy.into_iter().map(|data| (0, data));
    let runs = runs.chain(spills.iter().enumerate().map(|(i, s)| (i + 1, &s.data[..])));
    // `Reverse`: the heap pops the minimum (key, rank).
    let mut heap: BinaryHeap<Reverse<RunCursor<'_, K>>> =
        BinaryHeap::with_capacity(spills.len() + 1);
    for (rank, data) in runs {
        heap.extend(RunCursor::open(rank, data)?.map(Reverse));
    }
    let fanin = heap.len() as u64;
    let mut values: Vec<V> = Vec::new();
    while let Some(Reverse(cursor)) = heap.pop() {
        let (key, v, next) = cursor.consume()?;
        values.push(decode_exact(v, "value")?);
        heap.extend(next.map(Reverse));
        while heap.peek().is_some_and(|c| c.0.key == key) {
            let (_, v, next) = heap.pop().expect("peeked").0.consume()?;
            values.push(decode_exact(v, "value")?);
            heap.extend(next.map(Reverse));
        }
        // Dropping the drain clears the buffer (allocation kept) even if
        // the reducer consumed only part of the group.
        f(&key, &mut values.drain(..));
    }
    Ok(fanin)
}

/// Applies one task's buffered service calls, service by service, and
/// leaves the buffer empty.
fn apply_calls(services: &ServiceHandle, captured: &mut CapturedCalls) -> Result<(), MrError> {
    for (name, calls) in std::mem::take(captured) {
        services.apply_calls(&name, &calls)?;
    }
    Ok(())
}

/// Commits the longest run of successful results starting at `*next`
/// (every slot below it is committed); stops at a missing or failed one.
/// A failed commit becomes that task's result, so it stops the run too.
fn commit_ready<R>(
    slots: &mut [TaskSlot<R>],
    next: &mut usize,
    commit: &mut impl FnMut(&mut R) -> Result<(), MrError>,
) {
    while let Some(Some(Ok(record))) = slots.get_mut(*next) {
        if let Err(e) = commit(&mut record.result) {
            slots[*next] = Some(Err(e));
            return;
        }
        *next += 1;
    }
}

/// Runs `f` over `items` on a small thread pool, preserving result order,
/// converting panics into [`MrError::TaskFailed`], and retrying failed
/// tasks per the [`FailurePolicy`]. `f` runs one attempt and returns
/// the task's result and cost with the attempt's dispatch note; each
/// task comes back as a [`TaskRecord`] with one [`AttemptRecord`] per
/// attempt, its wall-clock window on `epoch` beside its note.
///
/// `commit` runs on each successful result in task-index order, as soon
/// as that task and every lower-indexed one have completed — the barrier
/// discipline that makes service calls independent of the thread count.
/// With one worker nothing beyond the running task waits for it.
fn run_parallel<T, R, F, C>(
    phase: &'static str,
    worker_threads: Option<usize>,
    policy: &FailurePolicy,
    items: Vec<T>,
    f: F,
    mut commit: C,
    epoch: Instant,
) -> Result<Vec<TaskRecord<R>>, MrError>
where
    T: Send + Clone,
    R: Send,
    F: Fn(usize, T) -> Attempt<(R, TaskCost)> + Sync,
    C: FnMut(&mut R) -> Result<(), MrError> + Send,
{
    let n = items.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let workers = worker_threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
        .clamp(1, n);

    if workers == 1 {
        let mut out = Vec::with_capacity(n);
        for (i, item) in items.into_iter().enumerate() {
            let mut done = run_task_with_retry(phase, policy, i, item, &f, epoch)?;
            commit(&mut done.result)?;
            out.push(done);
        }
        return Ok(out);
    }

    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    // Result slots, the first uncommitted index, and the commit itself.
    let results: Mutex<(Vec<TaskSlot<R>>, usize, C)> =
        Mutex::new(((0..n).map(|_| None).collect(), 0, commit));

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let next = queue.lock().pop_front();
                let Some((i, item)) = next else { break };
                let result = run_task_with_retry(phase, policy, i, item, &f, epoch);
                let mut guard = results.lock();
                let (slots, committed, commit) = &mut *guard;
                slots[i] = Some(result);
                commit_ready(slots, committed, commit);
            });
        }
    });

    results
        .into_inner()
        .0
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or_else(|| {
                // A worker thread can only leave a slot empty by dying
                // before writing its result; surface that as a typed
                // task failure instead of aborting the process.
                Err(MrError::TaskFailed {
                    phase,
                    task: i,
                    message: "task produced no result (worker thread died)".into(),
                })
            })
        })
        .collect()
}

/// One task with the policy's retry budget, which only
/// [`MrError::TaskFailed`] attempts spend; returns its record, one
/// [`AttemptRecord`] per attempt made.
fn run_task_with_retry<T, R>(
    phase: &'static str,
    policy: &FailurePolicy,
    index: usize,
    item: T,
    f: &(impl Fn(usize, T) -> Attempt<(R, TaskCost)> + Sync),
    epoch: Instant,
) -> Result<TaskRecord<R>, MrError>
where
    T: Clone,
{
    let budget = policy.max_attempts.max(1);
    let mut attempt = 0u32;
    let mut item = Some(item);
    let mut tries: Vec<AttemptRecord> = Vec::with_capacity(1);
    loop {
        let started_us = elapsed_us(epoch);
        // Injected environment fault: the attempt dies before user code,
        // so no dispatch carries it.
        let injected = policy
            .injector
            .as_ref()
            .is_some_and(|inject| inject(phase, index, attempt));
        let Attempt { result, note } = if injected {
            Attempt::from(Err(MrError::TaskFailed {
                phase,
                task: index,
                message: format!("injected environment fault (attempt {attempt})"),
            }))
        } else if attempt + 1 >= budget {
            // Final permitted attempt: hand the input over by value so
            // single-attempt policies (the default) never deep-copy it.
            run_task(phase, index, item.take().expect("input unconsumed"), f)
        } else {
            run_task(
                phase,
                index,
                item.as_ref().expect("input unconsumed").clone(),
                f,
            )
        };
        tries.push(AttemptRecord {
            wall: (started_us, elapsed_us(epoch)),
            note,
        });
        attempt += 1;
        match result {
            Ok((result, cost)) => {
                return Ok(TaskRecord {
                    result,
                    cost,
                    tries,
                })
            }
            Err(MrError::TaskFailed { .. }) if attempt < budget => {} // retry
            Err(e) => return Err(e),
        }
    }
}

fn run_task<T, R>(
    phase: &'static str,
    index: usize,
    item: T,
    f: &(impl Fn(usize, T) -> Attempt<R> + Sync),
) -> Attempt<R> {
    match catch_unwind(AssertUnwindSafe(|| f(index, item))) {
        Ok(attempt) => attempt,
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic".to_string());
            Attempt::from(Err(MrError::TaskFailed {
                phase,
                task: index,
                message,
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioner_is_stable_and_in_range() {
        for k in 0u64..1000 {
            let p = partition_of(&k, 7);
            assert!(p < 7);
            assert_eq!(p, partition_of(&k, 7));
        }
    }

    /// A task body's result at no cost, run in process.
    fn free<R>(result: R) -> Attempt<(R, TaskCost)> {
        Ok((result, TaskCost::default())).into()
    }

    /// `run_parallel` over free task bodies, committing nothing.
    fn run_free<T: Send + Clone, R: Send>(
        phase: &'static str,
        threads: Option<usize>,
        policy: &FailurePolicy,
        items: Vec<T>,
        f: impl Fn(usize, T) -> R + Sync,
    ) -> Result<Vec<TaskRecord<R>>, MrError> {
        let f = |i, x| free(f(i, x));
        run_parallel(phase, threads, policy, items, f, |_| Ok(()), Instant::now())
    }

    fn spill_of(records: &[(u64, String)]) -> SpillRun {
        let mut run = SpillRun::default();
        for (k, v) in records {
            run.push(k, v);
        }
        run
    }

    fn collect_merge(
        schimmy: Option<Vec<(u64, String)>>,
        spills: &[SpillRun],
    ) -> (Vec<(u64, Vec<String>)>, u64) {
        let schimmy = schimmy.map(|recs| spill_of(&recs));
        let mut seen = Vec::new();
        let fanin = merge_sorted_runs(
            schimmy.as_ref().map(|s| &s.data[..]),
            spills,
            |k: &u64, vs| {
                seen.push((*k, vs.collect::<Vec<String>>()));
            },
        )
        .unwrap();
        (seen, fanin)
    }

    fn s(v: &str) -> String {
        v.to_string()
    }

    #[test]
    fn merge_unions_keys_schimmy_first_then_map_task_order() {
        let schimmy = vec![(1, s("m1")), (3, s("m3"))];
        let spills = [
            spill_of(&[(1, s("t0a")), (1, s("t0b")), (2, s("t0c"))]),
            spill_of(&[(1, s("t1a")), (4, s("t1b"))]),
        ];
        let (seen, fanin) = collect_merge(Some(schimmy), &spills);
        assert_eq!(fanin, 3);
        assert_eq!(
            seen,
            vec![
                (1, vec![s("m1"), s("t0a"), s("t0b"), s("t1a")]),
                (2, vec![s("t0c")]),
                (3, vec![s("m3")]),
                (4, vec![s("t1b")]),
            ]
        );
    }

    #[test]
    fn merge_handles_empty_runs() {
        let (seen, fanin) = collect_merge(None, &[]);
        assert!(seen.is_empty());
        assert_eq!(fanin, 0);

        // Empty spills don't count toward fan-in and don't disturb ranks.
        let spills = [
            SpillRun::default(),
            spill_of(&[(7, s("a"))]),
            SpillRun::default(),
            spill_of(&[(7, s("b"))]),
        ];
        let (seen, fanin) = collect_merge(None, &spills);
        assert_eq!(fanin, 2);
        assert_eq!(seen, vec![(7, vec![s("a"), s("b")])]);
    }

    #[test]
    fn merge_matches_stable_sort_reference() {
        // The contract the reduce path depends on: merging per-run
        // stable-sorted records equals one global stable sort of
        // (schimmy ++ run0 ++ run1 ++ ...).
        let schimmy = vec![(2, s("s0")), (5, s("s1"))];
        let runs = [
            vec![(1, s("a0")), (2, s("a1")), (2, s("a2")), (9, s("a3"))],
            vec![(2, s("b0")), (5, s("b1"))],
            vec![(0, s("c0")), (2, s("c1")), (10, s("c2"))],
        ];
        let mut reference: Vec<(u64, String)> = schimmy.clone();
        reference.extend(runs.iter().flatten().cloned());
        reference.sort_by_key(|r| r.0); // stable
        let mut expected: Vec<(u64, Vec<String>)> = Vec::new();
        for (k, v) in reference {
            match expected.last_mut() {
                Some((lk, vs)) if *lk == k => vs.push(v),
                _ => expected.push((k, vec![v])),
            }
        }
        let spills: Vec<SpillRun> = runs.iter().map(|r| spill_of(r)).collect();
        let (seen, fanin) = collect_merge(Some(schimmy), &spills);
        assert_eq!(fanin, 4);
        assert_eq!(seen, expected);
    }

    #[test]
    fn merge_rejects_a_run_out_of_key_order() {
        let sorted = spill_of(&[(1, s("a")), (4, s("b"))]);
        let unsorted = spill_of(&[(1, s("a")), (3, s("b")), (2, s("c"))]);
        let merge = |schimmy: Option<&SpillRun>, spills: &[SpillRun]| {
            merge_sorted_runs::<u64, String>(schimmy.map(|r| &r.data[..]), spills, |_, _| {})
        };
        assert!(matches!(
            merge(Some(&unsorted), std::slice::from_ref(&sorted)),
            Err(MergeError::Unsorted { rank: 0 })
        ));
        assert!(matches!(
            merge(Some(&sorted), &[sorted.clone(), unsorted]),
            Err(MergeError::Unsorted { rank: 2 })
        ));
        // Equal neighbours are in order.
        let ties = spill_of(&[(2, s("a")), (2, s("b"))]);
        assert_eq!(merge(Some(&ties), &[]).unwrap(), 1);
    }

    #[test]
    fn run_parallel_preserves_order() {
        let policy = FailurePolicy::default();
        let out = run_free("map", Some(4), &policy, (0..100).collect(), |i, x: i32| {
            i as i32 * 2 + x - x
        })
        .unwrap();
        let values: Vec<i32> = out.into_iter().map(|t| t.result).collect();
        assert_eq!(values, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn run_parallel_commits_in_task_order_as_prefixes_complete() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // Task 0 cannot finish before task 5 has: tasks 1..=5 complete
        // first, and their commits must wait for task 0's.
        let five_done = AtomicBool::new(false);
        let mut committed = Vec::new();
        let out = run_parallel(
            "reduce",
            Some(4),
            &FailurePolicy::default(),
            (0..12).collect(),
            |i, x: usize| {
                if i == 0 {
                    while !five_done.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                }
                if i == 5 {
                    five_done.store(true, Ordering::SeqCst);
                }
                free(x)
            },
            |x: &mut usize| {
                committed.push(*x);
                Ok(())
            },
            Instant::now(),
        )
        .unwrap();
        assert_eq!(out.len(), 12);
        assert_eq!(committed, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn run_parallel_surfaces_panics() {
        let policy = FailurePolicy::default();
        let err = run_free("reduce", Some(2), &policy, vec![1, 2, 3], |_, x: i32| {
            assert!(x != 2, "boom on two");
            x
        })
        .unwrap_err();
        match err {
            MrError::TaskFailed { phase, message, .. } => {
                assert_eq!(phase, "reduce");
                assert!(message.contains("boom"), "message: {message}");
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn run_parallel_empty() {
        let policy = FailurePolicy::default();
        let out = run_free("map", None, &policy, Vec::<i32>::new(), |_, x| x).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn retry_recovers_from_transient_faults() {
        // Fail every task's first attempt; all succeed on the second.
        let policy = FailurePolicy::with_injector(3, |_, _, attempt| attempt == 0);
        let out = run_free("map", Some(2), &policy, vec![10, 20, 30], |_, x: i32| x).unwrap();
        for t in out {
            assert!(t.result >= 10);
            assert_eq!(t.tries.len(), 2, "one record per attempt");
            assert!(
                t.tries.iter().all(|a| a.note.is_none()),
                "nothing dispatched"
            );
        }
    }

    #[test]
    fn retry_budget_exhaustion_fails_the_job() {
        let policy = FailurePolicy::with_injector(2, |_, task, _| task == 1);
        let err = run_free("map", Some(2), &policy, vec![1, 2, 3], |_, x: i32| x).unwrap_err();
        assert!(matches!(err, MrError::TaskFailed { task: 1, .. }));
    }

    #[test]
    fn user_panics_are_also_retried() {
        use std::sync::atomic::{AtomicU32, Ordering};
        static CALLS: AtomicU32 = AtomicU32::new(0);
        let policy = FailurePolicy::hadoop_default();
        let out = run_free("map", Some(1), &policy, vec![1], |_, x: i32| {
            assert!(CALLS.fetch_add(1, Ordering::SeqCst) >= 2, "flaky");
            x
        })
        .unwrap();
        assert_eq!((out[0].result, out[0].tries.len()), (1, 3));
    }

    #[test]
    fn list_schedule_packs_earliest_free_slot() {
        // Two slots, four unit tasks: starts 0,0,1,1.
        let starts = list_schedule(&[1.0, 1.0, 1.0, 1.0], 2);
        assert_eq!(starts, vec![0.0, 0.0, 1.0, 1.0]);
        // A long task occupies one slot while short ones cycle the other.
        let starts = list_schedule(&[10.0, 1.0, 1.0, 1.0], 2);
        assert_eq!(starts, vec![0.0, 0.0, 1.0, 2.0]);
        // Zero slots are clamped to one (serial).
        let starts = list_schedule(&[2.0, 3.0], 0);
        assert_eq!(starts, vec![0.0, 2.0]);
    }
}
