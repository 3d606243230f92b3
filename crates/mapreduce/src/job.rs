//! Job descriptions: mappers, reducers and their contexts.
//!
//! A job is built in two stages so the intermediate and output record types
//! are inferred from the user functions:
//!
//! ```
//! use mapreduce::{JobBuilder, MapContext, ReduceContext};
//! let job = JobBuilder::new("count")
//!     .input("in")
//!     .output("out")
//!     .reducers(4)
//!     .map(|k: u64, v: u64, ctx: &mut MapContext<u64, u64>| ctx.emit(k % 2, v))
//!     .reduce(
//!         |k: &u64, vs: &mut dyn Iterator<Item = u64>, ctx: &mut ReduceContext<u64, u64>| {
//!             ctx.emit(*k, vs.sum::<u64>());
//!         },
//!     );
//! assert_eq!(job.config().name, "count");
//! ```

use std::borrow::Borrow;
use std::marker::PhantomData;
use std::sync::Arc;

use crate::counters::Counters;
use crate::error::MrError;
use crate::exec::CapturedCalls;
use crate::record::{decode_record, encode_record, Datum, KeyDatum};
use crate::service::{Service, ServiceHandle};

/// The `MAP` function of a job.
///
/// Implemented for any `Fn(KI, VI, &mut MapContext<KM, VM>)`; implement
/// the trait directly to override [`Mapper::finish_split`] (the in-mapper
/// combining pattern from Lin & Schatz, referenced by the paper).
pub trait Mapper<KI, VI, KM, VM>: Send + Sync
where
    KM: KeyDatum,
    VM: Datum,
{
    /// Processes one input record, emitting intermediate records. The
    /// record was decoded for this call alone, so the mapper owns it.
    fn map(&self, key: KI, value: VI, ctx: &mut MapContext<'_, KM, VM>);

    /// Called once after the last record of each input split; emit any
    /// split-local aggregates here.
    fn finish_split(&self, _ctx: &mut MapContext<'_, KM, VM>) {}
}

impl<F, KI, VI, KM, VM> Mapper<KI, VI, KM, VM> for F
where
    F: Fn(KI, VI, &mut MapContext<'_, KM, VM>) + Send + Sync,
    KM: KeyDatum,
    VM: Datum,
{
    fn map(&self, key: KI, value: VI, ctx: &mut MapContext<'_, KM, VM>) {
        self(key, value, ctx);
    }
}

/// The `REDUCE` function of a job. Values arrive grouped by key, in a
/// deterministic order: schimmy side-input records first, then each map
/// task's records in task-index order, each task's in emission order.
/// (Keys arrive in ascending order — the runtime k-way merges the map
/// tasks' key-sorted spill runs rather than re-sorting the partition.)
pub trait Reducer<KM, VM, KO, VO>: Send + Sync
where
    KO: Datum,
    VO: Datum,
{
    /// Processes one key group.
    fn reduce(
        &self,
        key: &KM,
        values: &mut dyn Iterator<Item = VM>,
        ctx: &mut ReduceContext<'_, KO, VO>,
    );
}

impl<F, KM, VM, KO, VO> Reducer<KM, VM, KO, VO> for F
where
    F: Fn(&KM, &mut dyn Iterator<Item = VM>, &mut ReduceContext<'_, KO, VO>) + Send + Sync,
    KO: Datum,
    VO: Datum,
{
    fn reduce(
        &self,
        key: &KM,
        values: &mut dyn Iterator<Item = VM>,
        ctx: &mut ReduceContext<'_, KO, VO>,
    ) {
        self(key, values, ctx);
    }
}

/// Emission context handed to mappers ([`MapContext`]) and to reducers
/// ([`ReduceContext`]).
///
/// Each emitted record is framed (`encode_record`) into one byte buffer
/// as it is emitted, and never encoded again: a reduce task's buffer is
/// its output partition, and a map task sorts an index of its frames by
/// key and copies them into its spill runs.
///
/// Counter increments and service calls are buffered locally and take
/// effect only when the task attempt *succeeds* — so retried task
/// attempts (see [`FailurePolicy`](crate::runtime::FailurePolicy)) never
/// double-count, matching Hadoop's exclusion of failed-attempt counters.
#[derive(Debug)]
pub struct TaskContext<'a, K, V> {
    /// Emitted records, framed back to back in emission order.
    pub(crate) frames: Vec<u8>,
    /// Map tasks only: each record's key and the byte range of its frame.
    pub(crate) index: Vec<(K, usize, usize)>,
    indexed: bool,
    records: u64,
    pub(crate) local_counters: Vec<(String, u64)>,
    pub(crate) calls: CapturedCalls,
    services: &'a ServiceHandle,
    allocs: u64,
    task: usize,
    value: PhantomData<fn(V)>,
}

/// The context a mapper emits intermediate records into.
pub type MapContext<'a, KM, VM> = TaskContext<'a, KM, VM>;

/// The context a reducer emits output records into.
pub type ReduceContext<'a, KO, VO> = TaskContext<'a, KO, VO>;

impl<'a, K, V> TaskContext<'a, K, V> {
    /// A context for task `task`; `indexed` keeps the per-record key
    /// index a map task sorts its spills by.
    pub(crate) fn new(services: &'a ServiceHandle, task: usize, indexed: bool) -> Self {
        Self {
            frames: Vec::new(),
            index: Vec::new(),
            indexed,
            records: 0,
            local_counters: Vec::new(),
            calls: Vec::new(),
            services,
            allocs: 0,
            task,
            value: PhantomData,
        }
    }

    /// Flushes this attempt's buffered counter increments into `counters`
    /// (the runtime calls this when the attempt succeeds; tests of
    /// mapper or reducer logic may call it manually).
    pub fn merge_counters_into(&self, counters: &Counters) {
        for (name, delta) in &self.local_counters {
            counters.incr(name, *delta);
        }
    }

    /// A standalone context for unit-testing mappers and reducers
    /// outside a job run. Increments stay buffered in the context;
    /// flush them with [`TaskContext::merge_counters_into`].
    #[must_use]
    pub fn for_testing(_counters: &Counters, services: &'a ServiceHandle) -> Self {
        Self::new(services, 0, false)
    }

    /// Number of records emitted so far.
    pub(crate) fn records(&self) -> u64 {
        self.records
    }

    /// Increments a named job counter (applied only if this task attempt
    /// succeeds).
    pub fn incr(&mut self, name: &str, delta: u64) {
        if let Some(entry) = self.local_counters.iter_mut().find(|(n, _)| n == name) {
            entry.1 += delta;
        } else {
            self.local_counters.push((name.to_owned(), delta));
        }
    }

    /// Typed access to an attached stateful service.
    ///
    /// # Errors
    /// [`MrError::ServiceMissing`] if not attached under `name`.
    pub fn service<T: Service>(&self, name: &str) -> Result<&T, MrError> {
        self.services.get(name)
    }

    /// Hands `call` to the service attached under `service` (FF2's
    /// `aug_proc`). The call is recorded in this attempt, encoded, and
    /// applied by the runtime through [`Service::apply_calls`] once the
    /// attempt has succeeded and every lower-indexed task of the phase has
    /// been applied — in task-index order, whatever the thread count or
    /// process the task ran in. A failed attempt's calls are dropped
    /// with its output.
    pub fn submit<T: Datum>(&mut self, service: &str, call: &T) {
        // Encoded past the last frame, so the payload is allocated once
        // at its exact size; the frames are left as they were.
        let end = self.frames.len();
        call.encode(&mut self.frames);
        let payload = self.frames[end..].to_vec();
        self.frames.truncate(end);
        match self.calls.iter_mut().find(|(name, _)| name == service) {
            Some((_, calls)) => calls.push(payload),
            None => self.calls.push((service.to_owned(), vec![payload])),
        }
    }

    /// Service calls [`TaskContext::submit`]ted so far, per service in
    /// first-call order (primarily for tests of user functions).
    #[must_use]
    pub fn submitted(&self) -> &[(String, Vec<Vec<u8>>)] {
        &self.calls
    }

    /// Records `n` short-lived allocations performed by the user function,
    /// feeding the FF4 allocation cost model.
    pub fn charge_allocs(&mut self, n: u64) {
        self.allocs += n;
    }

    /// Index of the map task or reduce partition this context belongs to.
    #[must_use]
    pub fn task(&self) -> usize {
        self.task
    }

    pub(crate) fn allocs(&self) -> u64 {
        self.allocs
    }
}

impl<K: Datum, V: Datum> TaskContext<'_, K, V> {
    /// Emits one record, owned or borrowed: its frame is written here,
    /// and the value is not kept.
    #[inline]
    pub fn emit(&mut self, key: K, value: impl Borrow<V>) {
        self.allocs += 1;
        self.records += 1;
        let start = self.frames.len();
        encode_record(&key, value.borrow(), &mut self.frames);
        if self.indexed {
            self.index.push((key, start, self.frames.len()));
        }
    }

    /// Records emitted so far, decoded from their frames in emission
    /// order (for tests of user functions).
    ///
    /// # Panics
    /// Never: every frame was written by [`TaskContext::emit`].
    #[must_use]
    pub fn emitted(&self) -> Vec<(K, V)> {
        let mut rest = self.frames.as_slice();
        let mut out = Vec::new();
        while !rest.is_empty() {
            out.push(decode_record(&mut rest).expect("emit wrote a whole frame"));
        }
        out
    }
}

/// How a job's user code travels to a remote worker process: a registered
/// job-kind name plus an opaque parameter blob the worker-side factory
/// turns back into mapper and reducer instances. Jobs without a wire
/// spec always execute in-process (closures cannot be shipped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSpec {
    /// Job-kind name, resolved by the worker's job-kind registry.
    pub kind: String,
    /// Opaque, kind-specific construction parameters.
    pub params: Vec<u8>,
}

/// Untyped job configuration shared by every stage of the builder.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Job name (for stats and diagnostics).
    pub name: String,
    /// Input record-file paths (read in order).
    pub inputs: Vec<String>,
    /// Output record-file path (must not exist).
    pub output: String,
    /// Number of reduce partitions.
    pub reducers: usize,
    /// Schimmy side input: a previous output, hash-partitioned the same
    /// way, merged into reducers without being shuffled (paper Sec. IV-B).
    pub schimmy: Option<String>,
    /// Side-file blobs each map task reads (e.g. `AugmentedEdges`); the
    /// cost model charges their bytes per map task.
    pub side_blobs: Vec<String>,
    /// Remote-execution description; `None` pins the job in-process even
    /// when the runtime has a task executor.
    pub wire: Option<WireSpec>,
}

/// First builder stage: paths, partitions, services.
#[derive(Debug, Default)]
pub struct JobBuilder {
    name: String,
    inputs: Vec<String>,
    output: String,
    reducers: usize,
    schimmy: Option<String>,
    side_blobs: Vec<String>,
    wire: Option<WireSpec>,
    services: ServiceHandle,
}

impl JobBuilder {
    /// Starts describing a job.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            reducers: 1,
            ..Self::default()
        }
    }

    /// Adds an input path (may be called repeatedly).
    #[must_use]
    pub fn input(mut self, path: impl Into<String>) -> Self {
        self.inputs.push(path.into());
        self
    }

    /// Sets the output path.
    #[must_use]
    pub fn output(mut self, path: impl Into<String>) -> Self {
        self.output = path.into();
        self
    }

    /// Sets the number of reduce partitions (default 1).
    #[must_use]
    pub fn reducers(mut self, n: usize) -> Self {
        self.reducers = n;
        self
    }

    /// Declares a schimmy side input (see [`JobConfig::schimmy`]).
    #[must_use]
    pub fn schimmy_input(mut self, path: impl Into<String>) -> Self {
        self.schimmy = Some(path.into());
        self
    }

    /// Declares a side-file blob read by every map task.
    #[must_use]
    pub fn side_blob(mut self, path: impl Into<String>) -> Self {
        self.side_blobs.push(path.into());
        self
    }

    /// Attaches a stateful service under `name`.
    #[must_use]
    pub fn attach_service(mut self, name: &str, service: Arc<dyn Service>) -> Self {
        self.services.attach(name, service);
        self
    }

    /// Declares how remote workers reconstruct this job's user code (see
    /// [`WireSpec`]). Without this, the job runs in-process even on a
    /// runtime with a task executor.
    #[must_use]
    pub fn wire(mut self, kind: impl Into<String>, params: Vec<u8>) -> Self {
        self.wire = Some(WireSpec {
            kind: kind.into(),
            params,
        });
        self
    }

    /// Supplies the `MAP` function, fixing the input and intermediate
    /// record types.
    pub fn map<M, KI, VI, KM, VM>(self, mapper: M) -> MappedJob<KI, VI, KM, VM>
    where
        M: Mapper<KI, VI, KM, VM> + 'static,
        KI: Datum,
        VI: Datum,
        KM: KeyDatum,
        VM: Datum,
    {
        MappedJob {
            config: JobConfig {
                name: self.name,
                inputs: self.inputs,
                output: self.output,
                reducers: self.reducers,
                schimmy: self.schimmy,
                side_blobs: self.side_blobs,
                wire: self.wire,
            },
            services: self.services,
            mapper: Arc::new(mapper),
        }
    }
}

/// Second builder stage: the mapper is fixed; add the reducer.
pub struct MappedJob<KI, VI, KM, VM>
where
    KM: KeyDatum,
    VM: Datum,
{
    pub(crate) config: JobConfig,
    pub(crate) services: ServiceHandle,
    pub(crate) mapper: Arc<dyn Mapper<KI, VI, KM, VM>>,
}

impl<KI, VI, KM, VM> MappedJob<KI, VI, KM, VM>
where
    KI: Datum,
    VI: Datum,
    KM: KeyDatum,
    VM: Datum,
{
    /// Supplies the `REDUCE` function, completing the job.
    pub fn reduce<R, KO, VO>(self, reducer: R) -> Job<KI, VI, KM, VM, KO, VO>
    where
        R: Reducer<KM, VM, KO, VO> + 'static,
        KO: Datum,
        VO: Datum,
    {
        Job {
            config: self.config,
            services: self.services,
            mapper: self.mapper,
            reducer: Arc::new(reducer),
        }
    }
}

/// A fully-described MapReduce job, ready for
/// [`MrRuntime::run`](crate::MrRuntime::run).
pub struct Job<KI, VI, KM, VM, KO, VO>
where
    KM: KeyDatum,
    VM: Datum,
{
    pub(crate) config: JobConfig,
    pub(crate) services: ServiceHandle,
    pub(crate) mapper: Arc<dyn Mapper<KI, VI, KM, VM>>,
    pub(crate) reducer: Arc<dyn Reducer<KM, VM, KO, VO>>,
}

impl<KI, VI, KM, VM, KO, VO> Job<KI, VI, KM, VM, KO, VO>
where
    KM: KeyDatum,
    VM: Datum,
{
    /// The job's configuration.
    #[must_use]
    pub fn config(&self) -> &JobConfig {
        &self.config
    }
}

impl<KI, VI, KM, VM, KO, VO> std::fmt::Debug for Job<KI, VI, KM, VM, KO, VO>
where
    KM: KeyDatum,
    VM: Datum,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("config", &self.config)
            .field("services", &self.services)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collects_config() {
        let job = JobBuilder::new("j")
            .input("a")
            .input("b")
            .output("o")
            .reducers(7)
            .schimmy_input("prev")
            .side_blob("delta")
            .map(|_k: u64, _v: u64, _ctx: &mut MapContext<'_, u64, u64>| {})
            .reduce(
                |_k: &u64,
                 _vs: &mut dyn Iterator<Item = u64>,
                 _ctx: &mut ReduceContext<'_, u64, u64>| {},
            );
        let cfg = job.config();
        assert_eq!(cfg.inputs, vec!["a", "b"]);
        assert_eq!(cfg.output, "o");
        assert_eq!(cfg.reducers, 7);
        assert_eq!(cfg.schimmy.as_deref(), Some("prev"));
        assert_eq!(cfg.side_blobs, vec!["delta"]);
    }

    #[test]
    fn contexts_collect_emissions_and_allocs() {
        let counters = Counters::new();
        let services = ServiceHandle::new();
        let mut ctx: MapContext<'_, u64, u64> = MapContext::new(&services, 3, true);
        ctx.emit(1, 2);
        ctx.emit(3, 4);
        ctx.charge_allocs(10);
        ctx.incr("seen", 2);
        ctx.incr("seen", 3);
        assert_eq!(ctx.records(), 2);
        assert_eq!(ctx.emitted(), vec![(1, 2), (3, 4)]);
        assert_eq!(ctx.frames, [1, 1, 1, 2, 1, 3, 1, 4]);
        assert_eq!(ctx.index, vec![(1, 0, 4), (3, 4, 8)]);
        assert_eq!(ctx.allocs(), 12);
        assert_eq!(ctx.task(), 3);
        assert_eq!(
            counters.value("seen"),
            0,
            "buffered until the attempt succeeds"
        );
        ctx.merge_counters_into(&counters);
        assert_eq!(counters.value("seen"), 5);
    }

    #[test]
    fn struct_mapper_with_finish_split() {
        struct Flusher;
        impl Mapper<u64, u64, u64, u64> for Flusher {
            fn map(&self, _k: u64, _v: u64, _ctx: &mut MapContext<'_, u64, u64>) {}
            fn finish_split(&self, ctx: &mut MapContext<'_, u64, u64>) {
                ctx.emit(99, 99);
            }
        }
        let services = ServiceHandle::new();
        let mut ctx = MapContext::new(&services, 0, true);
        Flusher.map(1, 1, &mut ctx);
        Flusher.finish_split(&mut ctx);
        assert_eq!(ctx.emitted(), vec![(99, 99)]);
    }
}
