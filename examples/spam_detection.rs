//! Link-spam detection by max-flow (Saito, Toyoda, Kitsuregawa & Aihara,
//! AIRWEB 2007) — the first application the paper's abstract names:
//! "Maximum-flow algorithms are used to find spam sites...".
//!
//! A spam farm links densely within itself and funnels links toward a
//! boosted target page, but only a few *hijacked* pages link from the
//! honest web into the farm. Max-flow from a trusted seed toward the
//! boosted page saturates on those hijacked links; the min cut separates
//! the farm from the honest web.
//!
//! ```text
//! cargo run --release --example spam_detection
//! ```

use std::collections::HashSet;

use ffmr::prelude::*;
use ffmr::{ffmr_core, maxflow, swgraph};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let honest_n = 1_000u64;
    let farm_n = 150u64;
    let hijacked_links = 5u64;

    // Honest web: a small-world link graph.
    let mut b = FlowNetworkBuilder::new(honest_n + farm_n);
    for &(u, v) in &swgraph::gen::barabasi_albert(honest_n, 4, 17) {
        b.add_undirected(u, v, 1);
    }
    // The spam farm: densely interlinked, all boosting one target page.
    let boosted = honest_n; // farm page 0 is the boosted target
    for &(u, v) in &swgraph::gen::watts_strogatz(farm_n, 8, 0.2, 18) {
        b.add_undirected(honest_n + u, honest_n + v, 1);
    }
    for page in 1..farm_n {
        b.add_undirected(boosted, honest_n + page, 1);
    }
    // Hijacked honest pages that link into the farm.
    for i in 0..hijacked_links {
        b.add_undirected(100 + i * 31, honest_n + 10 + i, 1);
    }
    let net = b.build();
    println!(
        "{honest_n} honest pages, {farm_n}-page spam farm boosting page {boosted}, \
         {hijacked_links} hijacked in-links"
    );

    // Max-flow from a trusted seed to the boosted page, on MapReduce.
    let seed = VertexId::new(3);
    let target = VertexId::new(boosted);
    let mut rt = MrRuntime::new(ClusterConfig::paper_cluster(20));
    let config = FfConfig::new(seed, target).variant(FfVariant::ff5());
    let run = ffmr_core::run_max_flow(&mut rt, &net, &config)?;
    println!(
        "max flow seed -> boosted page = {} in {} MR rounds",
        run.max_flow_value,
        run.num_flow_rounds()
    );
    assert_eq!(
        run.max_flow_value, hijacked_links as i64,
        "flow is capped by the hijacked links"
    );

    // The min cut labels the farm.
    let flow = maxflow::Algorithm::Dinic.run(&net, seed, target);
    assert_eq!(flow.value, run.max_flow_value);
    let cut = maxflow::min_cut::extract_min_cut(&net, seed, &flow);
    let honest_side: HashSet<u64> = cut.source_side.iter().map(|v| v.raw()).collect();
    let farm_detected: Vec<u64> = (honest_n..honest_n + farm_n)
        .filter(|p| !honest_side.contains(p))
        .collect();
    println!(
        "min cut severs {} links; {} of {} farm pages isolated on the sink side",
        cut.cut_edges.len(),
        farm_detected.len(),
        farm_n
    );
    assert_eq!(farm_detected.len() as u64, farm_n, "entire farm detected");
    let honest_flagged = (0..honest_n).filter(|p| !honest_side.contains(p)).count();
    println!("honest pages misflagged: {honest_flagged}");
    assert_eq!(honest_flagged, 0, "no false positives");
    println!("spam farm isolated exactly, as in Saito et al.");
    Ok(())
}
