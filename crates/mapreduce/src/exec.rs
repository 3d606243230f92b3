//! The task-execution boundary: one map or reduce task as a
//! self-contained unit of work, independent of where it runs.
//!
//! [`MrRuntime::run`](crate::MrRuntime::run) used to inline the task
//! bodies; they now live in [`JobTaskRunner`], a typed runner built from
//! a job's mapper/combiner/reducer. The in-process path calls it
//! directly on borrowed bytes. Distributed mode wraps the same runner
//! behind the byte-level [`TaskRunner`] trait: the driver serializes a
//! [`MapTaskSpec`]/[`ReduceTaskSpec`], a worker process reconstructs the
//! runner from the job's [`WireSpec`](crate::job::WireSpec) and returns a
//! serialized [`MapTaskResult`]/[`ReduceTaskResult`]. Because both modes
//! execute the identical runner over the identical bytes, distributed
//! output is byte-for-byte the in-process output, and the driver computes
//! the simulated cost model from the returned record/byte/alloc numbers
//! exactly as before.
//!
//! Stateful services are the one side channel, and it is the same in
//! both modes: a task never calls a live service object, it
//! [`submit`](crate::TaskContext::submit)s encoded calls into its context;
//! they ride home in the task result, and the runtime applies them in
//! task-index order (see [`Service::apply_calls`](crate::Service)).

use std::sync::Arc;

use crate::encode::{get_bytes, get_varint, put_bytes, put_varint};
use crate::error::{DecodeError, MrError};
use crate::job::{CombinerFn, MapContext, Mapper, ReduceContext, Reducer};
use crate::record::{decode_record, encode_record, Datum, KeyDatum, SpillRun};
use crate::runtime::RunCursor;
use crate::runtime::{encoded_keys_sorted, is_key_sorted, merge_sorted_runs, partition_of};
use crate::service::ServiceHandle;

/// One map task, fully described: which task it is, how many reduce
/// partitions it spills to, and the raw bytes of its input split.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MapTaskSpec {
    /// Map-task index.
    pub task: usize,
    /// Number of reduce partitions to spill into.
    pub reducers: usize,
    /// The input split's encoded records.
    pub input: Vec<u8>,
}

/// One task attempt's service calls: per service name (in first-call
/// order), the submitted payloads in call order — applied driver-side
/// only for the attempt that counts, so retried attempts stay
/// exactly-once.
pub type CapturedCalls = Vec<(String, Vec<Vec<u8>>)>;

/// What a map task produced, with the numbers the driver's cost model
/// and stats need.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MapTaskResult {
    /// One key-sorted spill run per reduce partition.
    pub spills: Vec<SpillRun>,
    /// Input records decoded.
    pub input_records: u64,
    /// Records emitted by the mapper (before any combiner).
    pub output_records: u64,
    /// Short-lived allocations charged (FF4 cost model input).
    pub allocs: u64,
    /// Buffered counter increments, merged by the driver only when this
    /// attempt wins (retry semantics).
    pub counters: Vec<(String, u64)>,
    /// Captured service calls, per service name, in call order.
    pub captured: CapturedCalls,
}

/// One reduce task: its partition index, the spill runs fetched from
/// every map task (position `i` = map task `i`, empty runs kept), and
/// the optional schimmy partition bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReduceTaskSpec {
    /// Reduce partition index.
    pub task: usize,
    /// Fetched spill runs in map-task order.
    pub spills: Vec<SpillRun>,
    /// Matching schimmy partition's encoded records, if the job has one.
    pub schimmy: Option<Vec<u8>>,
}

/// What a reduce task produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReduceTaskResult {
    /// The output partition's encoded records, in key order.
    pub data: Vec<u8>,
    /// Records in `data`.
    pub records: u64,
    /// Short-lived allocations charged.
    pub allocs: u64,
    /// Non-empty sorted runs merged (schimmy included).
    pub merge_fanin: u64,
    /// Buffered counter increments (see [`MapTaskResult::counters`]).
    pub counters: Vec<(String, u64)>,
    /// Captured service calls, per service name, in call order.
    pub captured: CapturedCalls,
}

/// Executes tasks given only bytes — the object-safe form of a job that a
/// worker process holds after reconstructing the user code from a
/// [`WireSpec`](crate::job::WireSpec).
pub trait TaskRunner: Send + Sync {
    /// Runs one map task.
    ///
    /// # Errors
    /// Decode failures and user-code errors, as [`MrError`].
    fn run_map(&self, spec: &MapTaskSpec) -> Result<MapTaskResult, MrError>;

    /// Runs one reduce task.
    ///
    /// # Errors
    /// Decode failures and user-code errors, as [`MrError`].
    fn run_reduce(&self, spec: &ReduceTaskSpec) -> Result<ReduceTaskResult, MrError>;
}

/// Dispatches tasks somewhere else — the seam between the runtime's
/// scheduler/cost model (always in the driver) and task execution (in
/// process by default, in `ffmr-worker` processes in distributed mode).
///
/// The runtime consults it only for jobs carrying a
/// [`WireSpec`](crate::job::WireSpec); everything else — split planning,
/// shuffle transposition, cost accounting and retries — stays
/// driver-side, so simulated costs are identical by construction.
pub trait TaskExecutor: Send + Sync {
    /// Executes one map task described by `wire` + `spec`.
    ///
    /// # Errors
    /// [`MrError::TaskFailed`] for attributable attempt failures (worker
    /// death, user-code panic) — these re-enter the retry policy — and
    /// [`MrError::Wire`] for non-attributable transport failures.
    fn execute_map(
        &self,
        wire: &crate::job::WireSpec,
        spec: MapTaskSpec,
    ) -> Result<MapTaskResult, MrError>;

    /// Executes one reduce task described by `wire` + `spec`.
    ///
    /// # Errors
    /// As [`TaskExecutor::execute_map`].
    fn execute_reduce(
        &self,
        wire: &crate::job::WireSpec,
        spec: ReduceTaskSpec,
    ) -> Result<ReduceTaskResult, MrError>;

    /// Hands over the per-dispatch telemetry notes accumulated since
    /// the last drain (queue/transfer/compute timings with worker
    /// attribution, on the executor's process-epoch clock). The default
    /// executor has none; the remote executor feeds the flight
    /// recorder's distributed lanes through this.
    fn drain_dispatch_notes(&self) -> Vec<ffmr_obs::DispatchNote> {
        Vec::new()
    }
}

/// The typed task bodies of one job: decode → map → sort → combine →
/// spill, and fetch → merge → reduce → encode. Used directly by the
/// in-process path and wrapped as a [`TaskRunner`] worker-side, so both
/// modes run the same code over the same bytes.
pub struct JobTaskRunner<KI, VI, KM, VM, KO, VO>
where
    KM: KeyDatum,
    VM: Datum,
{
    mapper: Arc<dyn Mapper<KI, VI, KM, VM>>,
    combiner: Option<CombinerFn<KM, VM>>,
    reducer: Arc<dyn Reducer<KM, VM, KO, VO>>,
    services: ServiceHandle,
}

impl<KI, VI, KM, VM, KO, VO> JobTaskRunner<KI, VI, KM, VM, KO, VO>
where
    KI: Datum,
    VI: Datum,
    KM: KeyDatum,
    VM: Datum,
    KO: Datum,
    VO: Datum,
{
    /// Builds a runner from user functions and the services their
    /// contexts give typed access to (worker-side: usually none).
    pub fn new<M, R>(mapper: M, reducer: R, services: ServiceHandle) -> Self
    where
        M: Mapper<KI, VI, KM, VM> + 'static,
        R: Reducer<KM, VM, KO, VO> + 'static,
    {
        Self {
            mapper: Arc::new(mapper),
            combiner: None,
            reducer: Arc::new(reducer),
            services,
        }
    }

    pub(crate) fn from_parts(
        mapper: Arc<dyn Mapper<KI, VI, KM, VM>>,
        combiner: Option<CombinerFn<KM, VM>>,
        reducer: Arc<dyn Reducer<KM, VM, KO, VO>>,
        services: ServiceHandle,
    ) -> Self {
        Self {
            mapper,
            combiner,
            reducer,
            services,
        }
    }

    /// Runs one map task over an input split's raw bytes.
    ///
    /// # Errors
    /// Record decode failures and mapper errors.
    pub fn run_map_bytes(
        &self,
        task: usize,
        input: &[u8],
        reducers: usize,
    ) -> Result<MapTaskResult, MrError> {
        let mut rest = input;
        let mut records: Vec<(KI, VI)> = Vec::new();
        while !rest.is_empty() {
            records.push(decode_record(&mut rest)?);
        }
        let input_records = records.len() as u64;
        let mut ctx = MapContext::new(&self.services, task);
        for (k, v) in &records {
            self.mapper.map(k, v, &mut ctx);
        }
        self.mapper.finish_split(&mut ctx);
        let output_records = ctx.out.len() as u64;
        let mut allocs = ctx.allocs() + input_records;
        let mut counters = std::mem::take(&mut ctx.local_counters);
        let mut captured = std::mem::take(&mut ctx.calls);
        let mut out = ctx.out;

        // Map-side sort (Hadoop's sort-at-map): the run is ordered here,
        // inside the already-parallel map phase; the combiner and the
        // reduce-side k-way merge both consume sorted runs. The sort is
        // stable, so equal keys keep emission order.
        out.sort_by(|a, b| a.0.cmp(&b.0));

        // Optional combiner, fed key groups off the sorted run.
        if let Some(comb) = &self.combiner {
            let mut cctx = MapContext::new(&self.services, task);
            // The combiner's calls follow the mapper's in one sequence.
            cctx.calls = captured;
            let mut group: Vec<VM> = Vec::new(); // reused across groups
            let mut it = out.into_iter().peekable();
            while let Some((key, first)) = it.next() {
                group.push(first);
                while it.peek().is_some_and(|(k, _)| *k == key) {
                    group.push(it.next().expect("peeked").1);
                }
                // Dropping the drain clears the buffer (allocation kept)
                // even if the combiner consumed only part.
                comb(&key, &mut group.drain(..), &mut cctx);
            }
            allocs += cctx.allocs();
            merge_counter_deltas(&mut counters, cctx.local_counters.drain(..));
            captured = cctx.calls;
            out = cctx.out;
            // Combiners normally emit per visited group, i.e. already in
            // key order; re-establish the invariant only when one emitted
            // out of order.
            if !is_key_sorted(&out) {
                out.sort_by(|a, b| a.0.cmp(&b.0));
            }
        }

        // Partition the sorted run into per-reducer spills; each spill
        // inherits the key order, so its byte run is ready to merge
        // without any reduce-side sort.
        let mut spills: Vec<SpillRun> = vec![SpillRun::default(); reducers];
        for (k, v) in &out {
            spills[partition_of(k, reducers)].push(k, v);
        }

        Ok(MapTaskResult {
            spills,
            input_records,
            output_records,
            allocs,
            counters,
            captured,
        })
    }

    /// Runs one reduce task over fetched spill runs plus an optional
    /// schimmy partition's raw bytes.
    ///
    /// # Errors
    /// Record decode failures and reducer errors.
    pub fn run_reduce_parts(
        &self,
        task: usize,
        spills: &[SpillRun],
        schimmy: Option<&[u8]>,
    ) -> Result<ReduceTaskResult, MrError> {
        let consumed: u64 = spills.iter().map(|s| s.records).sum();

        // Schimmy: the matching partition of a previous output is one
        // more sorted run in the merge heap (rank 0, so its values come
        // first within a key group). Already-sorted partitions — the
        // common case, since reduce outputs are written in key order —
        // merge straight off their encoded bytes; unsorted ones fall
        // back to decode + stable sort.
        let schimmy_run: Option<RunCursor<'_, KM, VM>> = match schimmy {
            Some(data) => {
                if encoded_keys_sorted::<KM>(data)? {
                    RunCursor::from_encoded(0, data)?
                } else {
                    let mut rest = data;
                    let mut recs: Vec<(KM, VM)> = Vec::new();
                    while !rest.is_empty() {
                        recs.push(decode_record(&mut rest)?);
                    }
                    recs.sort_by(|a, b| a.0.cmp(&b.0));
                    RunCursor::from_owned(0, recs)
                }
            }
            None => None,
        };

        let mut ctx = ReduceContext::new(&self.services, task);
        let merge_fanin = merge_sorted_runs(schimmy_run, spills, |key, values| {
            self.reducer.reduce(key, values, &mut ctx);
        })?;

        let records = ctx.out.len() as u64;
        let allocs = ctx.allocs() + consumed;
        let mut data = Vec::new();
        for (k, v) in &ctx.out {
            encode_record(k, v, &mut data);
        }
        Ok(ReduceTaskResult {
            data,
            records,
            allocs,
            merge_fanin,
            counters: std::mem::take(&mut ctx.local_counters),
            captured: std::mem::take(&mut ctx.calls),
        })
    }
}

impl<KI, VI, KM, VM, KO, VO> TaskRunner for JobTaskRunner<KI, VI, KM, VM, KO, VO>
where
    KI: Datum,
    VI: Datum,
    KM: KeyDatum,
    VM: Datum,
    KO: Datum,
    VO: Datum,
{
    fn run_map(&self, spec: &MapTaskSpec) -> Result<MapTaskResult, MrError> {
        self.run_map_bytes(spec.task, &spec.input, spec.reducers)
    }

    fn run_reduce(&self, spec: &ReduceTaskSpec) -> Result<ReduceTaskResult, MrError> {
        self.run_reduce_parts(spec.task, &spec.spills, spec.schimmy.as_deref())
    }
}

/// Folds counter deltas into `into`, summing duplicates by name.
fn merge_counter_deltas(into: &mut Vec<(String, u64)>, from: impl Iterator<Item = (String, u64)>) {
    for (name, delta) in from {
        if let Some(entry) = into.iter_mut().find(|(n, _)| *n == name) {
            entry.1 += delta;
        } else {
            into.push((name, delta));
        }
    }
}

// ---------------------------------------------------------------- codecs
//
// The distributed wire format for specs and results: the crate's varint
// primitives, no self-description. Both ends are the same build of this
// crate, and every decode is bounds-checked, so malformed input surfaces
// as `MrError::Wire`, never a panic.

fn put_str(s: &str, buf: &mut Vec<u8>) {
    put_bytes(s.as_bytes(), buf);
}

fn get_str(input: &mut &[u8]) -> Result<String, DecodeError> {
    let raw = get_bytes(input)?;
    String::from_utf8(raw.to_vec()).map_err(|_| DecodeError::new("non-UTF-8 string"))
}

fn put_spills(spills: &[SpillRun], buf: &mut Vec<u8>) {
    put_varint(spills.len() as u64, buf);
    for s in spills {
        put_varint(s.records, buf);
        put_bytes(&s.data, buf);
    }
}

fn get_spills(input: &mut &[u8]) -> Result<Vec<SpillRun>, DecodeError> {
    let n = get_varint(input)? as usize;
    let mut out = Vec::with_capacity(n.min(input.len().max(16)));
    for _ in 0..n {
        let records = get_varint(input)?;
        let data = get_bytes(input)?.to_vec();
        out.push(SpillRun { data, records });
    }
    Ok(out)
}

fn put_counters(counters: &[(String, u64)], buf: &mut Vec<u8>) {
    put_varint(counters.len() as u64, buf);
    for (name, v) in counters {
        put_str(name, buf);
        put_varint(*v, buf);
    }
}

fn get_counters(input: &mut &[u8]) -> Result<Vec<(String, u64)>, DecodeError> {
    let n = get_varint(input)? as usize;
    let mut out = Vec::with_capacity(n.min(input.len().max(16)));
    for _ in 0..n {
        let name = get_str(input)?;
        let v = get_varint(input)?;
        out.push((name, v));
    }
    Ok(out)
}

fn put_captured(captured: &CapturedCalls, buf: &mut Vec<u8>) {
    put_varint(captured.len() as u64, buf);
    for (name, calls) in captured {
        put_str(name, buf);
        put_varint(calls.len() as u64, buf);
        for call in calls {
            put_bytes(call, buf);
        }
    }
}

fn get_captured(input: &mut &[u8]) -> Result<CapturedCalls, DecodeError> {
    let n = get_varint(input)? as usize;
    let mut out = Vec::with_capacity(n.min(input.len().max(16)));
    for _ in 0..n {
        let name = get_str(input)?;
        let m = get_varint(input)? as usize;
        let mut calls = Vec::with_capacity(m.min(input.len().max(16)));
        for _ in 0..m {
            calls.push(get_bytes(input)?.to_vec());
        }
        out.push((name, calls));
    }
    Ok(out)
}

/// Rejects trailing bytes after a decoded value — a desynced or
/// truncated-then-padded frame must not pass silently.
fn finish<T>(v: T, rest: &[u8], what: &str) -> Result<T, DecodeError> {
    if rest.is_empty() {
        Ok(v)
    } else {
        Err(DecodeError::new(format!("trailing bytes after {what}")))
    }
}

impl MapTaskSpec {
    /// Serializes for the wire.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.input.len() + 16);
        put_varint(self.task as u64, &mut buf);
        put_varint(self.reducers as u64, &mut buf);
        put_bytes(&self.input, &mut buf);
        buf
    }

    /// Parses bytes written by [`MapTaskSpec::to_bytes`].
    ///
    /// # Errors
    /// On truncated or trailing bytes.
    pub fn from_bytes(mut input: &[u8]) -> Result<Self, DecodeError> {
        let task = get_varint(&mut input)? as usize;
        let reducers = get_varint(&mut input)? as usize;
        let data = get_bytes(&mut input)?.to_vec();
        finish(
            Self {
                task,
                reducers,
                input: data,
            },
            input,
            "map task spec",
        )
    }
}

impl MapTaskResult {
    /// Serializes for the wire.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_spills(&self.spills, &mut buf);
        put_varint(self.input_records, &mut buf);
        put_varint(self.output_records, &mut buf);
        put_varint(self.allocs, &mut buf);
        put_counters(&self.counters, &mut buf);
        put_captured(&self.captured, &mut buf);
        buf
    }

    /// Parses bytes written by [`MapTaskResult::to_bytes`].
    ///
    /// # Errors
    /// On truncated or trailing bytes.
    pub fn from_bytes(mut input: &[u8]) -> Result<Self, DecodeError> {
        let spills = get_spills(&mut input)?;
        let input_records = get_varint(&mut input)?;
        let output_records = get_varint(&mut input)?;
        let allocs = get_varint(&mut input)?;
        let counters = get_counters(&mut input)?;
        let captured = get_captured(&mut input)?;
        finish(
            Self {
                spills,
                input_records,
                output_records,
                allocs,
                counters,
                captured,
            },
            input,
            "map task result",
        )
    }
}

impl ReduceTaskSpec {
    /// Serializes for the wire.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_varint(self.task as u64, &mut buf);
        put_spills(&self.spills, &mut buf);
        match &self.schimmy {
            Some(data) => {
                put_varint(1, &mut buf);
                put_bytes(data, &mut buf);
            }
            None => put_varint(0, &mut buf),
        }
        buf
    }

    /// Parses bytes written by [`ReduceTaskSpec::to_bytes`].
    ///
    /// # Errors
    /// On truncated or trailing bytes.
    pub fn from_bytes(mut input: &[u8]) -> Result<Self, DecodeError> {
        let task = get_varint(&mut input)? as usize;
        let spills = get_spills(&mut input)?;
        let schimmy = match get_varint(&mut input)? {
            0 => None,
            1 => Some(get_bytes(&mut input)?.to_vec()),
            n => return Err(DecodeError::new(format!("bad schimmy tag {n}"))),
        };
        finish(
            Self {
                task,
                spills,
                schimmy,
            },
            input,
            "reduce task spec",
        )
    }
}

impl ReduceTaskResult {
    /// Serializes for the wire.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.data.len() + 32);
        put_bytes(&self.data, &mut buf);
        put_varint(self.records, &mut buf);
        put_varint(self.allocs, &mut buf);
        put_varint(self.merge_fanin, &mut buf);
        put_counters(&self.counters, &mut buf);
        put_captured(&self.captured, &mut buf);
        buf
    }

    /// Parses bytes written by [`ReduceTaskResult::to_bytes`].
    ///
    /// # Errors
    /// On truncated or trailing bytes.
    pub fn from_bytes(mut input: &[u8]) -> Result<Self, DecodeError> {
        let data = get_bytes(&mut input)?.to_vec();
        let records = get_varint(&mut input)?;
        let allocs = get_varint(&mut input)?;
        let merge_fanin = get_varint(&mut input)?;
        let counters = get_counters(&mut input)?;
        let captured = get_captured(&mut input)?;
        finish(
            Self {
                data,
                records,
                allocs,
                merge_fanin,
                counters,
                captured,
            },
            input,
            "reduce task result",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{MapContext, ReduceContext};

    fn sample_runner() -> JobTaskRunner<u64, u64, u64, u64, u64, u64> {
        JobTaskRunner::new(
            |k: &u64, v: &u64, ctx: &mut MapContext<'_, u64, u64>| {
                ctx.emit(*k % 3, *v);
                ctx.incr("mapped", 1);
            },
            |k: &u64, vs: &mut dyn Iterator<Item = u64>, ctx: &mut ReduceContext<'_, u64, u64>| {
                ctx.emit(*k, vs.sum::<u64>());
            },
            ServiceHandle::new(),
        )
    }

    fn encode_input(records: &[(u64, u64)]) -> Vec<u8> {
        let mut buf = Vec::new();
        for (k, v) in records {
            encode_record(k, v, &mut buf);
        }
        buf
    }

    #[test]
    fn map_then_reduce_round_trip() {
        let runner = sample_runner();
        let input = encode_input(&[(0, 10), (1, 20), (3, 30), (4, 40)]);
        let map = runner.run_map_bytes(0, &input, 2).unwrap();
        assert_eq!(map.input_records, 4);
        assert_eq!(map.output_records, 4);
        assert_eq!(map.counters, vec![("mapped".to_string(), 4)]);
        assert_eq!(map.spills.len(), 2);

        let total_records: u64 = map.spills.iter().map(|s| s.records).sum();
        assert_eq!(total_records, 4);

        // Feed every spill to one reducer: keys 0 and 1 sum their values.
        let mut all = Vec::new();
        for s in &map.spills {
            all.push(s.clone());
        }
        let red = runner.run_reduce_parts(0, &all, None).unwrap();
        let mut rest = red.data.as_slice();
        let mut seen = Vec::new();
        while !rest.is_empty() {
            seen.push(decode_record::<u64, u64>(&mut rest).unwrap());
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![(0, 40), (1, 60)]);
        assert_eq!(red.records, 2);
    }

    #[test]
    fn specs_and_results_round_trip_the_codec() {
        let ms = MapTaskSpec {
            task: 7,
            reducers: 3,
            input: vec![1, 2, 3],
        };
        assert_eq!(MapTaskSpec::from_bytes(&ms.to_bytes()).unwrap(), ms);

        let mr = MapTaskResult {
            spills: vec![
                SpillRun {
                    data: vec![9, 9],
                    records: 1,
                },
                SpillRun::default(),
            ],
            input_records: 5,
            output_records: 4,
            allocs: 11,
            counters: vec![("a".into(), 2), ("b c".into(), 3)],
            captured: vec![("aug".into(), vec![vec![1], vec![2, 3]])],
        };
        assert_eq!(MapTaskResult::from_bytes(&mr.to_bytes()).unwrap(), mr);

        let rs = ReduceTaskSpec {
            task: 2,
            spills: vec![SpillRun {
                data: vec![4],
                records: 1,
            }],
            schimmy: Some(vec![5, 6]),
        };
        assert_eq!(ReduceTaskSpec::from_bytes(&rs.to_bytes()).unwrap(), rs);

        let rr = ReduceTaskResult {
            data: vec![1, 2],
            records: 1,
            allocs: 3,
            merge_fanin: 2,
            counters: vec![],
            captured: vec![],
        };
        assert_eq!(ReduceTaskResult::from_bytes(&rr.to_bytes()).unwrap(), rr);
    }

    #[test]
    fn truncated_and_trailing_bytes_are_typed_errors() {
        let spec = MapTaskSpec {
            task: 1,
            reducers: 2,
            input: vec![7; 40],
        };
        let bytes = spec.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                MapTaskSpec::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        let mut padded = bytes;
        padded.push(0);
        assert!(MapTaskSpec::from_bytes(&padded).is_err(), "trailing byte");

        let result = ReduceTaskResult {
            data: vec![1],
            records: 1,
            allocs: 1,
            merge_fanin: 1,
            counters: vec![("n".into(), 1)],
            captured: vec![("s".into(), vec![vec![2]])],
        };
        let bytes = result.to_bytes();
        for cut in 0..bytes.len() {
            assert!(ReduceTaskResult::from_bytes(&bytes[..cut]).is_err());
        }
    }
}
