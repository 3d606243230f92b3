//! Distributed execution for the FFMR runtime: real worker *processes*
//! running map/reduce task bodies over the wire.
//!
//! Everything else in this workspace simulates a cluster inside one
//! process; this crate makes the execution itself distributed while
//! leaving the simulation contract untouched. The pieces:
//!
//! * [`coordinator`] — the driver-side TCP server: task-dispatch queue,
//!   worker table with death detection, and the [`RemoteExecutor`] that
//!   plugs into
//!   [`MrRuntime::set_task_executor`](mapreduce::MrRuntime::set_task_executor);
//! * [`worker`] — the worker-process loop (`ffmr worker` runs this):
//!   register, ask for a task (its spec arrives as the reply's body),
//!   execute, report the result as the `task-done` body;
//! * [`registry`] — job-kind → runner factory, since closures cannot
//!   cross a process boundary;
//! * [`proto`] — the dispatch verbs and the task-body layout, on the
//!   ffmrd frame format with raw message bodies;
//! * [`signals`] — SIGINT/SIGTERM → atomic flag, the workspace's only
//!   `unsafe`.
//!
//! Determinism: the driver keeps every scheduling, costing and ordering
//! decision; workers compute pure `bytes → bytes` task functions and
//! capture their service calls for driver-side replay in task order. A
//! distributed run is therefore byte-identical to the in-process
//! `worker_threads = Some(1)` run — the cross-check the integration
//! tests enforce.
//!
//! # Example
//!
//! ```
//! use ffmr_worker::{Coordinator, CoordinatorConfig, JobKindRegistry, WorkerConfig};
//!
//! let coordinator = Coordinator::start(CoordinatorConfig::default()).unwrap();
//! let addr = coordinator.local_addr().to_string();
//! // In a real deployment this loop runs in `ffmr worker` processes:
//! let registry = JobKindRegistry::new();
//! let handle = std::thread::spawn(move || {
//!     ffmr_worker::run_worker(&WorkerConfig::new(addr), &registry)
//! });
//! assert!(coordinator.wait_for_workers(1, std::time::Duration::from_secs(5)));
//! coordinator.shutdown();
//! handle.join().unwrap().unwrap();
//! ```

#![warn(missing_docs)]

pub mod coordinator;
pub mod proto;
pub mod registry;
pub mod signals;
pub mod worker;

pub use coordinator::{Coordinator, CoordinatorConfig, RemoteExecutor};
pub use registry::{JobKindRegistry, RunnerFactory};
pub use worker::{run_worker, WorkerConfig};
