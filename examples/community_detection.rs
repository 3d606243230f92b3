//! Community identification by max-flow/min-cut (Flake, Lawrence & Giles,
//! SIGKDD 2000) — one of the applications motivating the paper.
//!
//! Two dense communities are planted and joined by a handful of bridge
//! edges. Computing the max flow from a seed member of one community to a
//! vertex of the other saturates exactly the sparse bridge; the min-cut's
//! source side recovers the seed's community.
//!
//! ```text
//! cargo run --release --example community_detection
//! ```

use std::collections::HashSet;

use ffmr::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Plant two Watts-Strogatz communities of 300 vertices each,
    // internally well connected (degree 8), bridged by 3 weak ties.
    let size = 300u64;
    let mut builder = FlowNetworkBuilder::new(2 * size);
    for &(u, v) in &swgraph::gen::watts_strogatz(size, 8, 0.1, 1) {
        builder.add_undirected(u, v, 1);
    }
    for &(u, v) in &swgraph::gen::watts_strogatz(size, 8, 0.1, 2) {
        builder.add_undirected(u + size, v + size, 1);
    }
    let bridges = [(10, size + 20), (150, size + 70), (250, size + 280)];
    for &(u, v) in &bridges {
        builder.add_undirected(u, v, 1);
    }
    let net = builder.build();
    println!(
        "planted 2 communities of {size}, {} bridges, {} edges total",
        bridges.len(),
        net.num_edge_pairs()
    );

    let seed = VertexId::new(5); // inside community A
    let probe = VertexId::new(size + 5); // inside community B

    // Max flow seed -> probe with the MapReduce algorithm.
    let mut rt = MrRuntime::new(ClusterConfig::paper_cluster(20));
    let config = FfConfig::new(seed, probe).variant(FfVariant::ff5());
    let run = ffmr::ffmr_core::run_max_flow(&mut rt, &net, &config)?;
    println!(
        "max flow {} in {} MR rounds (A->B bridge capacity is {})",
        run.max_flow_value,
        run.num_flow_rounds(),
        bridges.len()
    );
    assert_eq!(run.max_flow_value, bridges.len() as i64);

    // Extract the min cut ON THE CLUSTER too: a BFS over the residual
    // network in chained MR rounds (at the paper's scale the residual
    // does not fit in memory either).
    let mr_cut = ffmr::ffmr_core::mr_min_cut::run_min_cut(&mut rt, &run, seed.raw(), "cut", 8)?;
    println!(
        "distributed min-cut: value {} in {} extra MR rounds",
        mr_cut.value, mr_cut.rounds
    );
    assert_eq!(mr_cut.value, run.max_flow_value);
    let community: HashSet<u64> = mr_cut.source_side.iter().copied().collect();

    // Cross-check against the in-memory oracle's cut.
    let flow = maxflow::Algorithm::Dinic.run(&net, seed, probe);
    assert_eq!(flow.value, run.max_flow_value);
    let cut = maxflow::min_cut::extract_min_cut(&net, seed, &flow);
    assert_eq!(community.len(), cut.source_side.len());

    let in_a = community.iter().filter(|&&v| v < size).count();
    let in_b = community.len() - in_a;
    println!(
        "min-cut community around seed: {} members ({} from A, {} from B)",
        community.len(),
        in_a,
        in_b
    );
    println!(
        "cut crosses {} directed edges with total capacity {}",
        cut.cut_edges.len(),
        cut.value
    );
    assert_eq!(in_b, 0, "no community-B vertex leaks into the cut side");
    assert_eq!(in_a as u64, size, "community A recovered exactly");
    println!("community A recovered exactly by the min cut");
    Ok(())
}
