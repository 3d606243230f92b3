//! One module per reproduced paper artifact plus ablations.

pub mod ablation_k;
pub mod ablation_search;
pub mod datasets;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod pregel_port;
pub mod pushrelabel;
pub mod table1;

use ffmr_core::{run_max_flow, FfConfig, FfRun, FfVariant};
use mapreduce::{ClusterConfig, MrRuntime};
use swgraph::super_st::SuperStNetwork;

use crate::profiles::Scale;

/// The scaled paper cluster on every host core (results are the same at
/// any thread count).
fn runtime(nodes: usize, scale: &Scale) -> MrRuntime {
    MrRuntime::new(ClusterConfig::scaled_paper_cluster(
        nodes,
        scale.sim_slowdown,
    ))
}

/// Runs one FFMR variant on a terminal-augmented network over a simulated
/// cluster of `nodes` slave nodes, returning the run and the runtime (for
/// DFS inspection).
///
/// # Panics
/// Panics if the run fails — experiments treat failures as fatal.
#[must_use]
pub fn run_variant(
    st: &SuperStNetwork,
    variant: FfVariant,
    nodes: usize,
    scale: &Scale,
) -> (FfRun, MrRuntime) {
    let mut rt = runtime(nodes, scale);
    let config = FfConfig::new(st.source, st.sink)
        .variant(variant)
        .reducers(scale.reducers)
        .max_rounds(500);
    let run = run_max_flow(&mut rt, &st.network, &config).expect("ffmr run");
    (run, rt)
}

/// Runs MR-BFS from the super source over the same network (the paper's
/// round/runtime lower bound).
///
/// # Panics
/// Panics if the run fails.
#[must_use]
pub fn run_bfs_baseline(
    st: &SuperStNetwork,
    nodes: usize,
    scale: &Scale,
) -> ffmr_core::mr_bfs::BfsRun {
    let mut rt = runtime(nodes, scale);
    ffmr_core::mr_bfs::run_bfs(&mut rt, &st.network, st.source, "bfs", scale.reducers)
        .expect("bfs run")
}
