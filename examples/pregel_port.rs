//! The paper's future-work claim, executed: FFMR translated to Pregel.
//!
//! Runs the same max-flow problem on the MapReduce runtime and on the
//! vertex-centric Pregel engine, then compares rounds vs supersteps,
//! records vs messages — and checks both against the sequential oracle.
//!
//! ```text
//! cargo run --release --example pregel_port
//! ```

use ffmr::prelude::*;
use ffmr::{ffmr_core, maxflow, swgraph};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 1_500;
    let edges = swgraph::gen::barabasi_albert(n, 4, 23);
    let net = FlowNetwork::from_undirected_unit(n, &edges);
    let st = swgraph::super_st::attach_super_terminals(&net, 6, 5, 3)?;
    println!(
        "graph: {} vertices, {} edges, super terminals w = 6",
        net.num_vertices(),
        net.num_edge_pairs()
    );

    // MapReduce host (FF2 — the closest feature level to the port).
    let mut rt = MrRuntime::new(ClusterConfig::paper_cluster(20));
    let config = FfConfig::new(st.source, st.sink).variant(FfVariant::ff2());
    let mr = ffmr_core::run_max_flow(&mut rt, &st.network, &config)?;
    let mr_records: u64 = mr.rounds.iter().map(|r| r.map_out_records).sum();
    println!(
        "mapreduce: |f*| = {} in {} rounds, {} intermediate records",
        mr.max_flow_value,
        mr.num_flow_rounds(),
        mr_records
    );

    // Pregel host.
    let pregel = ffmr_core::pregel_ff::run_max_flow_pregel(&st.network, st.source, st.sink, 500)?;
    println!(
        "pregel:    |f*| = {} in {} supersteps, {} messages, {} paths accepted",
        pregel.max_flow_value, pregel.supersteps, pregel.total_messages, pregel.accepted_paths
    );

    // Oracle.
    let oracle = maxflow::Algorithm::Dinic.run(&st.network, st.source, st.sink);
    assert_eq!(mr.max_flow_value, oracle.value);
    assert_eq!(pregel.max_flow_value, oracle.value);
    println!("dinic oracle agrees: {}", oracle.value);
    println!(
        "\nthe translation holds: same value, supersteps ≈ rounds ({} vs {}), and the \
         graph never round-trips through a distributed file system between supersteps",
        pregel.supersteps,
        mr.num_flow_rounds()
    );
    Ok(())
}
