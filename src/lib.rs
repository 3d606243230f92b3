//! FFMR — a reproduction of *"A MapReduce-Based Maximum-Flow Algorithm
//! for Large Small-World Network Graphs"* (Halim, Yap & Wu, ICDCS 2011).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`mapreduce`] — the Hadoop-like MapReduce runtime + cluster cost model.
//! * [`swgraph`] — flow networks, small-world generators, BFS, analysis.
//! * [`maxflow`] — in-memory reference solvers (Dinic, sequential and
//!   parallel Push–Relabel), the certified local search, the cut tree
//!   and min-cut extraction.
//! * [`ffmr_core`] — the paper's contribution: the FF1–FF5 MapReduce
//!   max-flow variants, MR-BFS and the MR push–relabel baseline.
//! * [`ffmr_service`] — `ffmrd`, the resident query daemon: snapshot
//!   store with per-snapshot cut trees, solver auto-selection, flow
//!   cache, TCP protocol.
//! * [`ffmr_obs`] — zero-dependency metrics registry (counters, gauges,
//!   latency histograms) and JSONL span tracing, wired through the
//!   runtime, the FF driver, and the daemon.
//! * [`ffmr_worker`] — distributed mode: the task-dispatch coordinator
//!   and the `ffmr worker` process loop that executes map/reduce tasks
//!   over the wire.
//!
//! # Quickstart
//!
//! ```
//! use ffmr::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small-world social graph with unit friendship capacities.
//! let edges = swgraph::gen::barabasi_albert(500, 3, 42);
//! let net = FlowNetwork::from_undirected_unit(500, &edges);
//! let st = swgraph::super_st::attach_super_terminals(&net, 4, 3, 7)?;
//!
//! // Run FF5 on a simulated 20-node cluster.
//! let mut rt = MrRuntime::new(ClusterConfig::paper_cluster(20));
//! let config = FfConfig::new(st.source, st.sink).variant(FfVariant::ff5());
//! let run = ffmr_core::run_max_flow(&mut rt, &st.network, &config)?;
//!
//! // Cross-check against the in-memory oracle.
//! let oracle = maxflow::Algorithm::Dinic.run(&st.network, st.source, st.sink);
//! assert_eq!(run.max_flow_value, oracle.value);
//! println!("max flow {} in {} rounds", run.max_flow_value, run.num_flow_rounds());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use ffmr_core;
pub use ffmr_obs;
pub use ffmr_service;
pub use ffmr_worker;
pub use mapreduce;
pub use maxflow;
pub use pregel;
pub use swgraph;

/// The most common imports in one place.
pub mod prelude {
    pub use ffmr_core::{
        resume_max_flow, run_max_flow, AugProc, CrashPoint, ExcessPath, FfConfig, FfError, FfRun,
        FfVariant, KPolicy,
    };
    pub use mapreduce::{ClusterConfig, Dfs, FailurePolicy, JobBuilder, MrRuntime};
    pub use maxflow::{Algorithm, FlowResult};
    pub use swgraph::{Capacity, EdgeId, FlowNetwork, FlowNetworkBuilder, VertexId};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_usable() {
        use crate::prelude::*;
        let net = FlowNetwork::from_undirected_unit(2, &[(0, 1)]);
        let f = Algorithm::Dinic.run(&net, VertexId::new(0), VertexId::new(1));
        assert_eq!(f.value, 1);
    }
}
