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
//!   (std-only; debuggable with a hex dump), with an optional raw body
//!   the distributed dispatch plane uses;
//! * [`store`] — named immutable graph snapshots behind `Arc`, swapped
//!   atomically on `load`/`reload` with a monotonically bumped epoch,
//!   each with a Gomory–Hu cut tree built in the background;
//! * [`cache`] — LRU memoization of answers keyed by dataset, epoch,
//!   query kind, and the *canonicalized* terminal sets (including the
//!   paper's Sec. V-A1 super-source/sink construction);
//! * [`engine`] — query routing, all in memory and on one route: plain
//!   `maxflow` read off the cut tree once it is built; every other query
//!   (`w` and `mincut` too) answered by the certified local search
//!   between its terminal sets on the snapshot itself; per-query
//!   deadline cancellation. Pinning a solver is `ffmr maxflow
//!   --algorithm`'s, and the daemon refuses it;
//! * [`server`] — TCP daemon: thread-per-connection front-end feeding a
//!   bounded worker pool, `busy` load shedding, graceful shutdown;
//! * [`client`] — the blocking client the `ffmr query` subcommand uses.

pub mod cache;
pub mod client;
pub mod engine;
pub mod protocol;
pub mod server;
pub mod store;

pub use cache::{CacheKey, CacheStats, CachedAnswer, FlowCache, QueryKind};
pub use client::Client;
pub use engine::{EngineConfig, QueryEngine};
pub use protocol::{
    error_response, read_frame, read_frame_polled, read_message, read_message_polled, status,
    write_frame, write_message, Message, WireError, MAX_FRAME_BYTES,
};
pub use server::{serve, ServerConfig, ServerHandle};
pub use store::{BuiltTree, CutTreeStatus, GraphStore, Snapshot, StoreError};
