//! `ffmrd` — a resident max-flow query service.
//!
//! The batch tools in this workspace answer one max-flow question per
//! process, re-reading and re-partitioning the graph every time. This
//! crate keeps the graph *resident* and answers many questions against
//! it, which is how the paper's setting actually plays out: a social
//! network is loaded once and probed with a stream of `(source, sink)`
//! community/flow queries.
//!
//! Layering, bottom to top:
//!
//! * [`protocol`] — length-prefixed, line-oriented wire format
//!   (std-only; debuggable with a hex dump);
//! * [`store`] — named immutable graph snapshots behind `Arc`, swapped
//!   atomically on `load`/`reload` with a monotonically bumped epoch;
//! * [`cache`] — LRU memoization of answers keyed by dataset, epoch,
//!   query kind, and the *canonicalized* terminal sets (including the
//!   paper's Sec. V-A1 super-source/sink construction);
//! * [`engine`] — solver routing: sequential Dinic below a vertex
//!   threshold, the FF5 MapReduce driver above it, explicit algorithm
//!   pinning, per-query round/shuffle counters, and deadline
//!   cancellation through the core driver's hooks;
//! * [`server`] — TCP daemon: thread-per-connection front-end feeding a
//!   bounded worker pool, `busy` load shedding, graceful shutdown;
//! * [`client`] — the blocking client the `ffmr query` subcommand uses.

pub mod cache;
pub mod client;
pub mod engine;
pub mod protocol;
pub mod server;
pub mod store;

pub use cache::{CacheKey, CacheStats, CachedAnswer, FlowCache, Plan, QueryKind};
pub use client::Client;
pub use engine::{EngineConfig, QueryEngine};
pub use protocol::{
    error_response, read_frame, read_frame_polled, status, write_frame, Message, WireError,
    MAX_FRAME_BYTES,
};
pub use server::{serve, ServerConfig, ServerHandle};
pub use store::{GraphStore, Snapshot, StoreError};
