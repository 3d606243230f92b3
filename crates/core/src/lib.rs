//! FFMR: the MapReduce-based Ford–Fulkerson maximum-flow algorithm for
//! large small-world network graphs (Halim, Yap & Wu, ICDCS 2011).
//!
//! The algorithm finds augmenting paths *incrementally and speculatively*:
//! every vertex holding an "excess path" (a partial path from the source,
//! or to the sink) extends it to its neighbors each MapReduce round.
//! Bi-directional search doubles the active frontier; storing multiple
//! excess paths per vertex keeps vertices active as the residual network
//! changes; an accumulator accepts conflict-free paths greedily. Five
//! variants ([`FfVariant`]) reproduce the paper's optimization ladder:
//!
//! | Variant | Adds |
//! |---------|------|
//! | FF1 | baseline: speculative execution + bi-directional search + multiple excess paths |
//! | FF2 | stateful `aug_proc` service accepting augmenting paths outside MR |
//! | FF3 | schimmy: master vertex records are never shuffled |
//! | FF4 | pooled objects (allocation elimination) |
//! | FF5 | `k = in-degree` + remembered extensions (no redundant re-sends) |
//!
//! # Example
//!
//! ```
//! use mapreduce::{ClusterConfig, MrRuntime};
//! use swgraph::{gen, FlowNetwork, VertexId};
//! use ffmr_core::{FfConfig, FfVariant};
//!
//! # fn main() -> Result<(), ffmr_core::FfError> {
//! let edges = gen::barabasi_albert(200, 3, 7);
//! let net = FlowNetwork::from_undirected_unit(200, &edges);
//! let st = swgraph::super_st::attach_super_terminals(&net, 2, 3, 1).unwrap();
//!
//! let mut rt = MrRuntime::new(ClusterConfig::small_cluster(4));
//! let config = FfConfig::new(st.source, st.sink).variant(FfVariant::ff5());
//! let run = ffmr_core::run_max_flow(&mut rt, &st.network, &config)?;
//! assert!(run.max_flow_value > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod accumulator;
pub mod algo;
pub mod aug_service;
pub mod augmented;
pub mod checkpoint;
pub mod error;
pub mod map_reduce_fns;
pub mod mr_bfs;
pub mod mr_min_cut;
pub mod mr_push_relabel;
pub mod path;
pub mod pregel_ff;
pub mod round0;
pub mod verify;
pub mod vertex;
pub mod wire;

pub use accumulator::Accumulator;
pub use algo::{
    history_path, resume_max_flow, run_max_flow, CrashPoint, FfConfig, FfRun, FfVariant, KPolicy,
    RoundStats, UnknownVariant,
};
pub use aug_service::AugProc;
pub use augmented::AugmentedEdges;
pub use error::FfError;
pub use path::{ExcessPath, PathEdge};
pub use vertex::{VertexEdge, VertexValue};
pub use wire::{ff_task_runner, ff_wire_params, FF_JOB_KIND};
