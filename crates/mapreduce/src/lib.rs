//! A deterministic, multi-threaded MapReduce runtime with a cluster cost model.
//!
//! This crate is the substrate for the FFMR reproduction (Halim, Yap, Wu,
//! ICDCS 2011): a Hadoop-like MapReduce framework that really executes the
//! map → shuffle → reduce dataflow on threads, while a *cluster cost model*
//! ([`ClusterConfig`]) charges simulated time for disk I/O, network shuffle,
//! per-record CPU and per-round scheduling overheads — the cost drivers the
//! paper identifies (its Sec. V-A3 shows runtime is approximately linear in
//! shuffle bytes plus fixed round overheads).
//!
//! # Architecture
//!
//! * [`dfs`] — a simulated distributed file system ([`Dfs`]) holding encoded
//!   record files partitioned like Hadoop `part-NNNNN` outputs.
//! * [`record`] — byte-exact encoding of keys and values ([`Datum`]); every
//!   byte that would cross a disk or the network is counted.
//! * [`job`] — [`JobBuilder`] describing one MR round: mapper, reducer,
//!   partition count, optional schimmy input, side files and services.
//! * [`runtime`] — [`MrRuntime::run`] executes a job in parallel and returns
//!   [`JobStats`] (record counts, shuffle bytes, simulated seconds).
//! * [`cluster`] — the cost model.
//! * [`service`] — the stateful extension point used by FF2's `aug_proc`.
//! * [`counters`] — Hadoop-style named counters, readable by the driver.
//!
//! # Example
//!
//! A word-count round:
//!
//! ```
//! use mapreduce::{ClusterConfig, Dfs, JobBuilder, MapContext, MrRuntime, ReduceContext};
//!
//! # fn main() -> Result<(), mapreduce::MrError> {
//! let mut rt = MrRuntime::new(ClusterConfig::small_cluster(4));
//! let words = vec![
//!     (0u64, "the quick brown fox".to_string()),
//!     (1u64, "the lazy dog".to_string()),
//! ];
//! rt.dfs_mut().write_records("input", 2, words.iter().cloned())?;
//!
//! let job = JobBuilder::new("wordcount")
//!     .input("input")
//!     .output("counts")
//!     .reducers(2)
//!     .map(|_k: u64, line: String, ctx: &mut MapContext<String, u64>| {
//!         for w in line.split_whitespace() {
//!             ctx.emit(w.to_string(), 1u64);
//!         }
//!     })
//!     .reduce(
//!         |word: &String,
//!          ones: &mut dyn Iterator<Item = u64>,
//!          ctx: &mut ReduceContext<String, u64>| {
//!             ctx.emit(word.clone(), ones.sum::<u64>());
//!         },
//!     );
//! let stats = rt.run(job)?;
//! assert_eq!(stats.reduce_output_records, 6); // 6 distinct words
//! let counts: Vec<(String, u64)> = rt.dfs().read_records("counts")?;
//! assert!(counts.contains(&("the".to_string(), 2)));
//! # Ok(())
//! # }
//! ```
//!
//! # Determinism
//!
//! Results are deterministic regardless of thread count: partitioning is
//! by key hash, map tasks emit key-sorted spill runs, and reducers k-way
//! merge those runs in map-task order (schimmy side input first), so the
//! same job on the same input produces byte-identical output. Calls into
//! stateful [`Service`]s (e.g. FF2's `aug_proc`) go through
//! [`TaskContext::submit`]: each task's calls are buffered with its
//! output and applied in task-index order at the barrier, so the service
//! sees one call sequence at any thread count, in process or in remote
//! workers. The thread count changes wall-clock speed only — never
//! simulated time or results:
//!
//! ```
//! # use mapreduce::{ClusterConfig, MrRuntime};
//! let mut rt = MrRuntime::new(ClusterConfig::small_cluster(2));
//! rt.set_worker_threads(Some(2)); // `None` (default): available parallelism
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod counters;
pub mod dfs;
pub mod driver;
pub mod encode;
pub mod error;
pub mod exec;
pub mod job;
pub mod record;
pub mod runtime;
pub mod service;
pub mod stats;

pub use cluster::ClusterConfig;
pub use counters::Counters;
pub use dfs::Dfs;
pub use error::MrError;
pub use exec::{
    Attempt, JobTaskRunner, MapTaskResult, MapTaskSpec, ReduceTaskResult, ReduceTaskSpec,
    TaskExecutor, TaskRunner,
};
pub use job::{JobBuilder, MapContext, Mapper, ReduceContext, Reducer, TaskContext, WireSpec};
pub use record::{Datum, KeyDatum, SpillRun};
pub use runtime::{partition_of, FailurePolicy, MrRuntime};
pub use service::{Service, ServiceHandle};
pub use stats::JobStats;
