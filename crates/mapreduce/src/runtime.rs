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

use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, VecDeque};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ffmr_sync::Mutex;

use std::sync::Arc;

use crate::cluster::{ClusterConfig, PhaseCost, TaskCost};
use crate::counters::Counters;
use crate::dfs::{Dfs, DfsFile, InputSplit, Partition};
use crate::error::{DecodeError, MrError};
use crate::exec::{
    CapturedCalls, JobTaskRunner, MapTaskResult, MapTaskSpec, ReduceTaskSpec, TaskExecutor,
};
use crate::job::{Job, WireSpec};
use crate::record::{decode_exact, split_record, Datum, KeyDatum, SpillRun};
use crate::service::ServiceHandle;
use crate::stats::JobStats;

/// An environment-fault injector: `(phase, task, attempt) -> crash?`.
pub type FaultInjector = Arc<dyn Fn(&'static str, usize, u32) -> bool + Send + Sync>;

/// One attempt's host wall-clock window: `(start_us, end_us)` relative
/// to the job's `run()` entry, for the flight recorder.
type WallWindow = (u64, u64);

/// One task's outcome slot in the parallel runner.
type TaskSlot<R> = Option<Result<(R, u32, Vec<WallWindow>), MrError>>;

/// Microseconds elapsed on `epoch`, saturating.
fn elapsed_us(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Decides how task failures are handled, mirroring Hadoop's
/// `mapred.map.max.attempts`: a failed task attempt (a panic in the user
/// function, or an injected environment fault) is retried up to
/// `max_attempts` times before the whole job fails. Failed attempts'
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
        let mut dfs = Dfs::new();
        dfs.set_nodes(cluster.nodes);
        Self {
            cluster,
            dfs,
            worker_threads: None,
            total_sim_seconds: 0.0,
            failure_policy: FailurePolicy::default(),
            executor: None,
        }
    }

    /// Installs (or clears) the task executor jobs with a
    /// [`WireSpec`] are dispatched through —
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

    /// Runs one job to completion.
    ///
    /// # Errors
    /// Fails if the configuration is invalid, an input is missing, the
    /// output exists, a record fails to decode, or a task panics.
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
        let wall_start = Instant::now();
        let cfg = job.config().clone();
        let mut job_span = ffmr_obs::span("mr.job");
        job_span.field("job", &cfg.name);
        // The job span's id doubles as the trace id: every span this
        // process (and, via the dispatch protocol, every worker) opens
        // until the next job carries it, stitching one cross-process
        // trace per job. Zero when tracing is off — nothing to stitch.
        ffmr_obs::set_trace_id(job_span.id());
        if cfg.reducers == 0 {
            return Err(MrError::InvalidJob("reducers must be > 0".into()));
        }
        if cfg.inputs.is_empty() {
            return Err(MrError::InvalidJob("no input paths".into()));
        }
        if self.dfs.exists(&cfg.output) {
            return Err(MrError::OutputExists(cfg.output.clone()));
        }

        let counters = Counters::new();
        job.services.begin_round();

        // ------------------------------------------------- map phase
        // One map task per block-sized, record-aligned input split
        // (Hadoop's InputSplit), across all input files.
        let map_span = ffmr_obs::span("mr.map");
        let block_bytes = (self.cluster.dfs_block_mb * 1024.0 * 1024.0).max(1.0) as usize;
        let mut splits: Vec<InputSplit<'_>> = Vec::new();
        for input in &cfg.inputs {
            self.dfs.check_available(input)?;
            let file = self.dfs.file(input)?;
            for partition in &file.partitions {
                for (a, b, records) in partition.splits(block_bytes)? {
                    splits.push(InputSplit {
                        data: &partition.data[a..b],
                        records,
                    });
                }
            }
        }
        if let Some(schimmy) = &cfg.schimmy {
            self.dfs.check_available(schimmy)?;
        }
        let side_bytes: u64 = cfg.side_blobs.iter().map(|p| self.dfs.blob_bytes(p)).sum();

        let reducers = cfg.reducers;

        // The typed task bodies (decode → map → sort → combine → spill,
        // and the reduce merge) live in `JobTaskRunner` — the same code a
        // remote worker runs after reconstructing the job from its wire
        // spec, which is what makes distributed output byte-identical.
        let runner = JobTaskRunner::from_parts(
            Arc::clone(&job.mapper),
            job.combiner.clone(),
            Arc::clone(&job.reducer),
            job.services.clone(),
        );
        // Dispatch remotely only when both halves exist: an installed
        // executor and a job that declared how to rebuild its user code.
        let remote: Option<(&Arc<dyn TaskExecutor>, &WireSpec)> =
            self.executor.as_ref().zip(cfg.wire.as_ref());

        struct MapResult {
            inner: MapTaskResult,
            cost: TaskCost,
        }

        let map_fn = |task_idx: usize, split: InputSplit<'_>| -> Result<MapResult, MrError> {
            let inner = match remote {
                Some((executor, wire)) => executor.execute_map(
                    wire,
                    MapTaskSpec {
                        task: task_idx,
                        reducers,
                        input: split.data.to_vec(),
                    },
                )?,
                None => runner.run_map_bytes(task_idx, split.data, reducers)?,
            };
            // Merge counters here, on the attempt's success path, so
            // retried attempts never double-count.
            for (name, delta) in &inner.counters {
                counters.incr(name, *delta);
            }
            let spill_bytes: u64 = inner.spills.iter().map(SpillRun::bytes).sum();
            let cost = TaskCost {
                read_bytes: split.data.len() as u64 + side_bytes,
                write_bytes: spill_bytes,
                records: inner.input_records + inner.output_records,
                allocs: inner.allocs,
            };
            Ok(MapResult { inner, cost })
        };

        // Each map task's service calls are applied as soon as it and
        // every lower-indexed task have completed (see `run_parallel`).
        let map_results: Vec<(MapResult, u32, Vec<WallWindow>)> = run_parallel(
            "map",
            self.worker_threads,
            &self.failure_policy,
            splits,
            map_fn,
            |r: &mut MapResult| apply_calls(&job.services, &mut r.inner.captured),
            wall_start,
        )?;

        let map_durations: Vec<f64> = map_results
            .iter()
            .map(|(r, ..)| r.cost.seconds(&self.cluster))
            .collect();
        let map_attempts: Vec<u32> = map_results.iter().map(|(_, a, _)| *a).collect();

        let mut map_phase = PhaseCost::new();
        let mut map_input_records = 0u64;
        let mut map_output_records = 0u64;
        let mut input_bytes = 0u64;
        let mut spilled_bytes = 0u64;
        let mut failed_attempts = 0u64;
        let mut map_bytes: Vec<(u64, u64)> = Vec::with_capacity(map_results.len());
        for (i, (r, attempts, _)) in map_results.iter().enumerate() {
            // Failed attempts occupied a slot for about as long as the
            // successful one; charge them.
            map_phase.push_task(map_durations[i] * f64::from(*attempts));
            failed_attempts += u64::from(attempts - 1);
            map_input_records += r.inner.input_records;
            map_output_records += r.inner.output_records;
            input_bytes += r.cost.read_bytes - side_bytes;
            spilled_bytes += r.cost.write_bytes; // exactly the spill bytes
            map_bytes.push((r.cost.read_bytes - side_bytes, r.cost.write_bytes));
        }
        let map_tasks = map_results.len();
        drop(map_span);

        // ------------------------------------------------- shuffle
        // Transpose map outputs into each reducer's fetch list: pure
        // buffer moves, O(map_tasks x reducers), no per-record work.
        // Empty runs are kept so a fetch list's position i is always map
        // task i (the reduce task derives cross-node traffic from it).
        // Byte accounting and the sorted-run merge happen inside the
        // parallel reduce tasks below — the per-reducer "fetch".
        let shuffle_span = ffmr_obs::span("mr.shuffle");
        let shuffle_wall_start = elapsed_us(wall_start);
        let mut fetches: Vec<Vec<SpillRun>> = (0..reducers)
            .map(|_| Vec::with_capacity(map_tasks))
            .collect();
        let mut map_walls: Vec<Vec<WallWindow>> = Vec::with_capacity(map_tasks);
        for (result, _, walls) in map_results {
            map_walls.push(walls);
            for (p, spill) in result.inner.spills.into_iter().enumerate() {
                fetches[p].push(spill);
            }
        }
        let shuffle_wall_end = elapsed_us(wall_start);
        drop(shuffle_span);

        // ------------------------------------------------- reduce phase
        // (Per-task key sorting — Hadoop's sort phase — happens inside
        // each reduce task and is covered by this span.)
        let reduce_span = ffmr_obs::span("mr.reduce");
        // Schimmy: pull the matching partition of a previous output and
        // merge it with the shuffled records by key, without shuffling it.
        let schimmy_file: Option<&DfsFile> = match &cfg.schimmy {
            Some(path) => {
                let f = self.dfs.file(path)?;
                if f.partitions.len() != reducers {
                    return Err(MrError::InvalidJob(format!(
                        "schimmy input {} has {} partitions, job has {} reducers",
                        path,
                        f.partitions.len(),
                        reducers
                    )));
                }
                Some(f)
            }
            None => None,
        };

        struct ReduceResult {
            partition: Partition,
            output_records: u64,
            cost: TaskCost,
            schimmy_bytes: u64,
            fetched_bytes: u64,
            cross_node_bytes: u64,
            spill_runs: u64,
            merge_fanin: u64,
            captured: CapturedCalls,
        }

        // Reduce tasks are dispatched by partition index and borrow their
        // fetch list, so a retry re-runs off the same spills without
        // deep-copying them.
        let reduce_fn = |r: usize, _item: usize| -> Result<ReduceResult, MrError> {
            let spills = &fetches[r];
            // The fetch: account every spill from its per-run size
            // prefix (Hadoop's reduce-shuffle-bytes and the cross-node
            // subset) — no per-record iteration.
            let to_node = self.cluster.reduce_node(r);
            let mut fetched_bytes = 0u64;
            let mut cross_node_bytes = 0u64;
            let mut consumed = 0u64;
            let mut spill_runs = 0u64;
            for (map_idx, s) in spills.iter().enumerate() {
                fetched_bytes += s.bytes();
                consumed += s.records;
                if s.records > 0 {
                    spill_runs += 1;
                    if self.cluster.map_node(map_idx) != to_node {
                        cross_node_bytes += s.bytes();
                    }
                }
            }
            let schimmy_part = schimmy_file.map(|f| &f.partitions[r]);
            let schimmy_bytes = schimmy_part.map_or(0, |p| p.data.len() as u64);

            let inner = match remote {
                Some((executor, wire)) => executor.execute_reduce(
                    wire,
                    ReduceTaskSpec {
                        task: r,
                        spills: spills.clone(),
                        schimmy: schimmy_part.map(|p| p.data.clone()),
                    },
                )?,
                None => {
                    runner.run_reduce_parts(r, spills, schimmy_part.map(|p| p.data.as_slice()))?
                }
            };
            for (name, delta) in &inner.counters {
                counters.incr(name, *delta);
            }

            let output_records = inner.records;
            let cost = TaskCost {
                read_bytes: fetched_bytes + schimmy_bytes,
                write_bytes: inner.data.len() as u64,
                records: consumed + output_records,
                allocs: inner.allocs,
            };
            Ok(ReduceResult {
                partition: Partition {
                    data: inner.data,
                    records: output_records,
                    home_node: to_node,
                },
                output_records,
                cost,
                schimmy_bytes,
                fetched_bytes,
                cross_node_bytes,
                spill_runs,
                merge_fanin: inner.merge_fanin,
                captured: inner.captured,
            })
        };

        let reduce_results: Vec<(ReduceResult, u32, Vec<WallWindow>)> = run_parallel(
            "reduce",
            self.worker_threads,
            &self.failure_policy,
            (0..reducers).collect(),
            reduce_fn,
            |r: &mut ReduceResult| apply_calls(&job.services, &mut r.captured),
            wall_start,
        )?;

        let reduce_durations: Vec<f64> = reduce_results
            .iter()
            .map(|(res, ..)| res.cost.seconds(&self.cluster))
            .collect();
        let reduce_attempts: Vec<u32> = reduce_results.iter().map(|(_, a, _)| *a).collect();

        job.services.end_round();

        let metrics = ffmr_obs::global();
        let mut reduce_phase = PhaseCost::new();
        let mut reduce_output_records = 0u64;
        let mut output_bytes = 0u64;
        let mut schimmy_bytes = 0u64;
        let mut shuffle_bytes = 0u64;
        let mut cross_node_bytes = 0u64;
        let mut spill_runs = 0u64;
        let mut merge_fanin_max = 0u64;
        let mut partitions = Vec::with_capacity(reducers);
        let mut reduce_bytes: Vec<(u64, u64)> = Vec::with_capacity(reducers);
        let mut reduce_walls: Vec<Vec<WallWindow>> = Vec::with_capacity(reducers);
        for (i, (r, attempts, walls)) in reduce_results.into_iter().enumerate() {
            reduce_phase.push_task(reduce_durations[i] * f64::from(attempts));
            failed_attempts += u64::from(attempts - 1);
            reduce_output_records += r.output_records;
            output_bytes += r.partition.data.len() as u64;
            reduce_bytes.push((
                r.fetched_bytes + r.schimmy_bytes,
                r.partition.data.len() as u64,
            ));
            reduce_walls.push(walls);
            schimmy_bytes += r.schimmy_bytes;
            shuffle_bytes += r.fetched_bytes;
            cross_node_bytes += r.cross_node_bytes;
            spill_runs += r.spill_runs;
            merge_fanin_max = merge_fanin_max.max(r.merge_fanin);
            metrics
                .histogram("ffmr_mr_merge_fanin", &[])
                .record(r.merge_fanin);
            partitions.push(r.partition);
        }
        let reduce_tasks = partitions.len();
        self.dfs.insert_file(&cfg.output, DfsFile { partitions })?;
        drop(reduce_span);

        let mb = 1024.0 * 1024.0;
        let net_agg = self.cluster.net_mb_per_s * self.cluster.nodes as f64;
        let disk_agg = self.cluster.disk_mb_per_s * self.cluster.nodes as f64;
        let shuffle_seconds = cross_node_bytes as f64 / mb / net_agg
            + self.cluster.sort_factor * shuffle_bytes as f64 / mb / disk_agg;

        // Replication traffic for the extra DFS copies.
        let replication_seconds = output_bytes as f64
            * f64::from(self.cluster.dfs_replication.saturating_sub(1))
            / mb
            / net_agg;

        let sim_seconds = self.cluster.round_overhead_s
            + map_phase.makespan(self.cluster.total_map_slots())
            + shuffle_seconds
            + reduce_phase.makespan(self.cluster.total_reduce_slots())
            + replication_seconds;
        self.total_sim_seconds += sim_seconds;

        // ------------------------------------------- flight recorder
        // One event per task attempt plus a synthetic shuffle-barrier
        // event, on the derived timeline: scheduling overhead, then the
        // map wave, the shuffle, the reduce wave (replication follows).
        let recorder = ffmr_obs::events::recorder();
        // Drain unconditionally so notes never pile up across jobs when
        // the recorder is toggled mid-flight; they are empty in local
        // mode and when the coordinator saw the recorder disabled.
        let mut dispatch_notes: Vec<ffmr_obs::DispatchNote> = self
            .executor
            .as_ref()
            .map(|e| e.drain_dispatch_notes())
            .unwrap_or_default();
        let mut task_events: Vec<ffmr_obs::TaskEvent> = Vec::new();
        if recorder.enabled() {
            let map_start = self.cluster.round_overhead_s;
            let map_end = map_start + map_phase.makespan(self.cluster.total_map_slots());
            phase_events(
                &mut task_events,
                &cfg.name,
                "map",
                map_start,
                self.cluster.total_map_slots(),
                &self.cluster,
                &map_durations,
                &map_attempts,
                &map_walls,
                &map_bytes,
            );
            task_events.push(ffmr_obs::TaskEvent {
                job: cfg.name.clone(),
                phase: "shuffle".to_owned(),
                task: 0,
                attempt: 0,
                node: 0,
                partition: None,
                worker: None,
                sim_start: map_end,
                sim_end: map_end + shuffle_seconds,
                wall_start_us: shuffle_wall_start,
                wall_end_us: shuffle_wall_end,
                bytes_in: shuffle_bytes,
                bytes_out: cross_node_bytes,
                outcome: ffmr_obs::TaskOutcome::Ok,
            });
            phase_events(
                &mut task_events,
                &cfg.name,
                "reduce",
                map_end + shuffle_seconds,
                self.cluster.total_reduce_slots(),
                &self.cluster,
                &reduce_durations,
                &reduce_attempts,
                &reduce_walls,
                &reduce_bytes,
            );
            if !dispatch_notes.is_empty() {
                // The coordinator stamps notes on the process epoch
                // clock; rebase them onto this job's wall clock (the
                // timeline `wall_start_us`/`wall_end_us` use).
                let rebase = u64::try_from(
                    wall_start
                        .saturating_duration_since(ffmr_obs::span::process_epoch())
                        .as_micros(),
                )
                .unwrap_or(u64::MAX);
                for note in &mut dispatch_notes {
                    note.rebase(rebase);
                }
                attach_worker_attribution(&mut task_events, &dispatch_notes);
            }
        }

        let stats = JobStats {
            name: cfg.name,
            map_input_records,
            map_output_records,
            map_output_bytes: spilled_bytes,
            spilled_bytes,
            spill_runs,
            merge_fanin_max,
            shuffle_bytes,
            reduce_output_records,
            output_bytes,
            input_bytes,
            schimmy_bytes,
            map_tasks,
            reduce_tasks,
            failed_attempts,
            sim_seconds,
            wall_seconds: wall_start.elapsed().as_secs_f64(),
            counters: counters.snapshot(),
            task_events,
            dispatch_notes,
        };
        fold_job_metrics(&stats);
        Ok(stats)
    }
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

/// Stamps each task event with the worker that ran the matching
/// dispatch. Events and notes are both ordered attempt-by-attempt
/// within a `(phase, task)` pair, so pairing them positionally keeps
/// retries attributed to the right worker.
fn attach_worker_attribution(events: &mut [ffmr_obs::TaskEvent], notes: &[ffmr_obs::DispatchNote]) {
    use std::collections::HashMap;
    let mut per_task: HashMap<(&str, usize), std::collections::VecDeque<u64>> = HashMap::new();
    for note in notes {
        per_task
            .entry((note.phase.as_str(), note.task))
            .or_default()
            .push_back(note.worker);
    }
    for event in events {
        if let Some(queue) = per_task.get_mut(&(event.phase.as_str(), event.task)) {
            event.worker = queue.pop_front();
        }
    }
}

/// Assembles the flight-recorder events of one phase: per task, every
/// failed attempt, then the final attempt.
///
/// Timeline conventions (documented on [`ffmr_obs::TaskEvent`]):
/// attempts of one task run back to back on the slot the list schedule
/// assigned.
#[allow(clippy::too_many_arguments)]
fn phase_events(
    out: &mut Vec<ffmr_obs::TaskEvent>,
    job: &str,
    phase: &'static str,
    phase_start: f64,
    slots: usize,
    cluster: &ClusterConfig,
    durations: &[f64],
    attempts: &[u32],
    walls: &[Vec<WallWindow>],
    bytes: &[(u64, u64)],
) {
    use ffmr_obs::{TaskEvent, TaskOutcome};
    let is_reduce = phase == "reduce";
    let occupancies: Vec<f64> = durations
        .iter()
        .zip(attempts)
        .map(|(&d, &a)| d * f64::from(a))
        .collect();
    let starts = list_schedule(&occupancies, slots);
    let event = |task: usize, attempt: u32, node: usize| TaskEvent {
        job: job.to_owned(),
        phase: phase.to_owned(),
        task,
        attempt,
        node,
        partition: is_reduce.then_some(task),
        worker: None,
        sim_start: 0.0,
        sim_end: 0.0,
        wall_start_us: 0,
        wall_end_us: 0,
        bytes_in: bytes[task].0,
        bytes_out: bytes[task].1,
        outcome: TaskOutcome::Ok,
    };
    for (i, &duration) in durations.iter().enumerate() {
        let node = if is_reduce {
            cluster.reduce_node(i)
        } else {
            cluster.map_node(i)
        };
        let task_start = phase_start + starts[i];
        let failed = attempts[i].saturating_sub(1);
        let windows = &walls[i];
        for a in 0..failed {
            let s = task_start + duration * f64::from(a);
            let wall = windows.get(a as usize).copied().unwrap_or((0, 0));
            let mut ev = event(i, a, node);
            ev.sim_start = s;
            ev.sim_end = s + duration;
            ev.wall_start_us = wall.0;
            ev.wall_end_us = wall.1;
            ev.outcome = TaskOutcome::Failed;
            out.push(ev);
        }
        let final_start = task_start + duration * f64::from(failed);
        let wall = windows.last().copied().unwrap_or((0, 0));
        let mut ev = event(i, failed, node);
        ev.sim_start = final_start;
        ev.sim_end = final_start + duration;
        ev.wall_start_us = wall.0;
        ev.wall_end_us = wall.1;
        out.push(ev);
    }
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

/// Whether a run of records is already in non-decreasing key order.
pub(crate) fn is_key_sorted<K: Ord, V>(items: &[(K, V)]) -> bool {
    items.windows(2).all(|w| w[0].0 <= w[1].0)
}

/// Scans an encoded run's keys (values stay untouched) and reports
/// whether they are in non-decreasing order — the cheap pre-check that
/// lets a schimmy partition merge straight off its bytes.
pub(crate) fn encoded_keys_sorted<K: KeyDatum>(mut data: &[u8]) -> Result<bool, DecodeError> {
    let mut prev: Option<K> = None;
    while !data.is_empty() {
        let (kraw, _vraw) = split_record(&mut data)?;
        let key: K = decode_exact(kraw, "key")?;
        if prev.is_some_and(|p| p > key) {
            return Ok(false);
        }
        prev = Some(key);
    }
    Ok(true)
}

/// One key-sorted input run staged in the reduce-side merge heap.
///
/// The current key is decoded once per record and *borrowed* for every
/// heap comparison; for encoded runs the value stays raw bytes until its
/// group is consumed, so comparisons never pay decode costs.
pub(crate) struct RunCursor<'a, K, V> {
    /// Tie-break on equal keys: 0 = schimmy, then 1 + map-task index.
    /// Combined with per-run stable sorting, this reproduces — byte for
    /// byte — the value order of a stable full-partition sort (schimmy
    /// first, then map-task order, then emission order).
    rank: usize,
    key: K,
    tail: RunTail<'a, K, V>,
}

enum RunTail<'a, K, V> {
    /// A pre-encoded spill (or sorted schimmy partition) byte run.
    Encoded { value: &'a [u8], rest: &'a [u8] },
    /// An owned, already-decoded run (unsorted-schimmy fallback).
    Owned {
        value: V,
        rest: std::vec::IntoIter<(K, V)>,
    },
}

impl<'a, K: KeyDatum, V: Datum> RunCursor<'a, K, V> {
    /// Opens a cursor over an encoded run; `None` if the run is empty.
    pub(crate) fn from_encoded(
        rank: usize,
        mut data: &'a [u8],
    ) -> Result<Option<Self>, DecodeError> {
        if data.is_empty() {
            return Ok(None);
        }
        let (kraw, vraw) = split_record(&mut data)?;
        Ok(Some(Self {
            rank,
            key: decode_exact(kraw, "key")?,
            tail: RunTail::Encoded {
                value: vraw,
                rest: data,
            },
        }))
    }

    /// Opens a cursor over a decoded, key-sorted run.
    pub(crate) fn from_owned(rank: usize, records: Vec<(K, V)>) -> Option<Self> {
        let mut rest = records.into_iter();
        let (key, value) = rest.next()?;
        Some(Self {
            rank,
            key,
            tail: RunTail::Owned { value, rest },
        })
    }

    /// Consumes the current record, returning its key, decoded value and
    /// the advanced cursor (`None` at end of run).
    fn consume(self) -> Result<(K, V, Option<Self>), DecodeError> {
        match self.tail {
            RunTail::Encoded { value, rest } => {
                let v: V = decode_exact(value, "value")?;
                let next = Self::from_encoded(self.rank, rest)?;
                Ok((self.key, v, next))
            }
            RunTail::Owned { value, mut rest } => {
                let next = rest.next().map(|(key, v)| Self {
                    rank: self.rank,
                    key,
                    tail: RunTail::Owned { value: v, rest },
                });
                Ok((self.key, value, next))
            }
        }
    }
}

// The heap orders by (key, rank), inverted so `BinaryHeap` pops the
// minimum. Only `key` and `rank` participate — values never do.
impl<K: KeyDatum, V> PartialEq for RunCursor<'_, K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.rank == other.rank && self.key == other.key
    }
}
impl<K: KeyDatum, V> Eq for RunCursor<'_, K, V> {}
impl<K: KeyDatum, V> PartialOrd for RunCursor<'_, K, V> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: KeyDatum, V> Ord for RunCursor<'_, K, V> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .key
            .cmp(&self.key)
            .then_with(|| other.rank.cmp(&self.rank))
    }
}

/// K-way-merges key-sorted runs — the optional schimmy cursor (rank 0)
/// plus one spill per map task, visited in map-task index order — and
/// invokes `f` once per distinct key with the grouped values. The group
/// buffer is drained and reused across keys, never reallocated. Returns
/// the merge fan-in (number of non-empty runs, schimmy included).
pub(crate) fn merge_sorted_runs<K: KeyDatum, V: Datum>(
    schimmy: Option<RunCursor<'_, K, V>>,
    spills: &[SpillRun],
    mut f: impl FnMut(&K, &mut dyn Iterator<Item = V>),
) -> Result<u64, DecodeError> {
    let mut heap: BinaryHeap<RunCursor<'_, K, V>> = BinaryHeap::with_capacity(spills.len() + 1);
    let mut fanin = 0u64;
    if let Some(cursor) = schimmy {
        heap.push(cursor);
        fanin += 1;
    }
    for (map_idx, spill) in spills.iter().enumerate() {
        if let Some(cursor) = RunCursor::from_encoded(map_idx + 1, &spill.data)? {
            heap.push(cursor);
            fanin += 1;
        }
    }
    let mut values: Vec<V> = Vec::new();
    while let Some(cursor) = heap.pop() {
        let (key, v, next) = cursor.consume()?;
        values.push(v);
        if let Some(n) = next {
            heap.push(n);
        }
        while heap.peek().is_some_and(|c| c.key == key) {
            let (_, v, next) = heap.pop().expect("peeked").consume()?;
            values.push(v);
            if let Some(n) = next {
                heap.push(n);
            }
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
    while let Some(Some(Ok((result, ..)))) = slots.get_mut(*next) {
        if let Err(e) = commit(result) {
            slots[*next] = Some(Err(e));
            return;
        }
        *next += 1;
    }
}

/// Runs `f` over `items` on a small thread pool, preserving result order,
/// converting panics into [`MrError::TaskFailed`], and retrying failed
/// tasks per the [`FailurePolicy`]. Returns each result with the number
/// of attempts it took and each attempt's wall-clock window on `epoch`.
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
) -> Result<Vec<(R, u32, Vec<WallWindow>)>, MrError>
where
    T: Send + Clone,
    R: Send,
    F: Fn(usize, T) -> Result<R, MrError> + Sync,
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
            commit(&mut done.0)?;
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

/// One task with the policy's retry budget; returns the result, the
/// attempts consumed, and one wall-clock window per attempt.
fn run_task_with_retry<T, R>(
    phase: &'static str,
    policy: &FailurePolicy,
    index: usize,
    item: T,
    f: &(impl Fn(usize, T) -> Result<R, MrError> + Sync),
    epoch: Instant,
) -> Result<(R, u32, Vec<WallWindow>), MrError>
where
    T: Clone,
{
    let budget = policy.max_attempts.max(1);
    let mut attempt = 0u32;
    let mut item = Some(item);
    let mut windows: Vec<WallWindow> = Vec::with_capacity(1);
    loop {
        let started_us = elapsed_us(epoch);
        // Injected environment fault: the attempt dies before user code.
        let injected = policy
            .injector
            .as_ref()
            .is_some_and(|inject| inject(phase, index, attempt));
        let result = if injected {
            Err(MrError::TaskFailed {
                phase,
                task: index,
                message: format!("injected environment fault (attempt {attempt})"),
            })
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
        windows.push((started_us, elapsed_us(epoch)));
        attempt += 1;
        match result {
            Ok(r) => return Ok((r, attempt, windows)),
            Err(e) if attempt >= budget => return Err(e),
            Err(_) => {} // retry
        }
    }
}

fn run_task<T, R>(
    phase: &'static str,
    index: usize,
    item: T,
    f: &(impl Fn(usize, T) -> Result<R, MrError> + Sync),
) -> Result<R, MrError> {
    match catch_unwind(AssertUnwindSafe(|| f(index, item))) {
        Ok(result) => result,
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic".to_string());
            Err(MrError::TaskFailed {
                phase,
                task: index,
                message,
            })
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
        let cursor = schimmy.and_then(|recs| RunCursor::from_owned(0, recs));
        let mut seen = Vec::new();
        let fanin = merge_sorted_runs(cursor, spills, |k: &u64, vs| {
            seen.push((*k, vs.collect::<Vec<String>>()));
        })
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
    fn encoded_keys_sorted_detects_order() {
        let sorted = spill_of(&[(1, s("a")), (1, s("b")), (2, s("c"))]);
        assert!(encoded_keys_sorted::<u64>(&sorted.data).unwrap());
        let unsorted = spill_of(&[(2, s("a")), (1, s("b"))]);
        assert!(!encoded_keys_sorted::<u64>(&unsorted.data).unwrap());
        assert!(encoded_keys_sorted::<u64>(&[]).unwrap());
    }

    #[test]
    fn run_parallel_preserves_order() {
        let policy = FailurePolicy::default();
        let out = run_parallel(
            "map",
            Some(4),
            &policy,
            (0..100).collect(),
            |i, x: i32| Ok(i as i32 * 2 + x - x),
            |_| Ok(()),
            Instant::now(),
        )
        .unwrap();
        let values: Vec<i32> = out.into_iter().map(|(v, ..)| v).collect();
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
                Ok(x)
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
        let err = run_parallel(
            "reduce",
            Some(2),
            &policy,
            vec![1, 2, 3],
            |_, x: i32| {
                assert!(x != 2, "boom on two");
                Ok(x)
            },
            |_| Ok(()),
            Instant::now(),
        )
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
        let out: Vec<(i32, u32, Vec<WallWindow>)> = run_parallel(
            "map",
            None,
            &policy,
            Vec::<i32>::new(),
            |_, x| Ok(x),
            |_| Ok(()),
            Instant::now(),
        )
        .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn retry_recovers_from_transient_faults() {
        // Fail every task's first attempt; all succeed on the second.
        let policy = FailurePolicy::with_injector(3, |_, _, attempt| attempt == 0);
        let out = run_parallel(
            "map",
            Some(2),
            &policy,
            vec![10, 20, 30],
            |_, x: i32| Ok(x),
            |_| Ok(()),
            Instant::now(),
        )
        .unwrap();
        for (v, attempts, walls) in out {
            assert!(v >= 10);
            assert_eq!(attempts, 2);
            assert_eq!(walls.len(), 2, "one wall window per attempt");
        }
    }

    #[test]
    fn retry_budget_exhaustion_fails_the_job() {
        let policy = FailurePolicy::with_injector(2, |_, task, _| task == 1);
        let err = run_parallel(
            "map",
            Some(2),
            &policy,
            vec![1, 2, 3],
            |_, x: i32| Ok(x),
            |_| Ok(()),
            Instant::now(),
        )
        .unwrap_err();
        assert!(matches!(err, MrError::TaskFailed { task: 1, .. }));
    }

    #[test]
    fn user_panics_are_also_retried() {
        use std::sync::atomic::{AtomicU32, Ordering};
        static CALLS: AtomicU32 = AtomicU32::new(0);
        let policy = FailurePolicy::hadoop_default();
        let out = run_parallel(
            "map",
            Some(1),
            &policy,
            vec![1],
            |_, x: i32| {
                if CALLS.fetch_add(1, Ordering::SeqCst) < 2 {
                    panic!("flaky");
                }
                Ok(x)
            },
            |_| Ok(()),
            Instant::now(),
        )
        .unwrap();
        assert_eq!((out[0].0, out[0].1), (1, 3));
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
