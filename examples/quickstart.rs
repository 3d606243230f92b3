//! Quickstart: compute a maximum flow on a small-world social graph with
//! the FF5 MapReduce algorithm and cross-check it against the in-memory
//! Dinic oracle.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ffmr::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A synthetic social network: 2 000 users, preferential attachment,
    //    unit friendship capacities (the paper's experimental regime).
    let n = 2_000;
    let edges = swgraph::gen::barabasi_albert(n, 4, 42);
    let net = FlowNetwork::from_undirected_unit(n, &edges);
    println!(
        "graph: {} vertices, {} directed capacitated edges",
        net.num_vertices(),
        net.num_capacitated_edges()
    );

    // 2. Super source/sink over w = 8 high-degree terminals each
    //    (paper Sec. V-A1), to get a flow value above any single degree.
    let st = swgraph::super_st::attach_super_terminals(&net, 8, 5, 7)?;
    println!(
        "super terminals: s -> {:?}..., t <- {:?}...",
        &st.source_terminals[..3.min(st.source_terminals.len())],
        &st.sink_terminals[..3.min(st.sink_terminals.len())]
    );

    // 3. Run FF5 on a simulated 20-slave Hadoop-like cluster.
    let mut rt = MrRuntime::new(ClusterConfig::paper_cluster(20));
    let config = FfConfig::new(st.source, st.sink).variant(FfVariant::ff5());
    let run = ffmr::ffmr_core::run_max_flow(&mut rt, &st.network, &config)?;

    println!("\nround  a-paths  maxQ  map-out  shuffle-KB  sim-time");
    for r in &run.rounds {
        println!(
            "{:>5}  {:>7}  {:>4}  {:>7}  {:>10}  {:>7.1}s",
            r.round,
            r.a_paths,
            r.max_queue,
            r.map_out_records,
            r.shuffle_bytes / 1024,
            r.sim_seconds
        );
    }
    println!(
        "\nmax flow = {} in {} rounds ({:.1} simulated minutes)",
        run.max_flow_value,
        run.num_flow_rounds(),
        run.total_sim_seconds / 60.0
    );

    // 4. Cross-check against the sequential oracle.
    let oracle = maxflow::Algorithm::Dinic.run(&st.network, st.source, st.sink);
    assert_eq!(run.max_flow_value, oracle.value);
    println!("dinic oracle agrees: {}", oracle.value);
    Ok(())
}
