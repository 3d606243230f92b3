//! Sybil-resilient online content voting (Tran, Min, Li & Subramanian,
//! NSDI 2009 — "SumUp"), another application motivating the paper.
//!
//! Votes are collected as max-flow from a *vote collector* to the voters
//! over the social network. An attacker who creates arbitrarily many
//! sybil identities can still only deliver votes through the few *attack
//! edges* linking the sybil region to honest users — the max-flow value
//! from the collector into the sybil region is capped by that cut, no
//! matter how many sybils vote.
//!
//! ```text
//! cargo run --release --example content_voting
//! ```

use ffmr::prelude::*;
use swgraph::INFINITE_CAPACITY;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let honest_n = 800u64;
    let sybil_n = 400u64;
    let attack_edges = 4u64;

    // Honest region: a small-world social graph.
    let mut builder = FlowNetworkBuilder::new(honest_n + sybil_n + 2);
    for &(u, v) in &swgraph::gen::barabasi_albert(honest_n, 4, 10) {
        builder.add_undirected(u, v, 1);
    }
    // Sybil region: the attacker wires its fakes densely to each other.
    for &(u, v) in &swgraph::gen::barabasi_albert(sybil_n, 6, 11) {
        builder.add_undirected(honest_n + u, honest_n + v, 1);
    }
    // A few attack edges: real friendships the attacker managed to form.
    for i in 0..attack_edges {
        builder.add_undirected(50 + i * 7, honest_n + i, 1);
    }

    // The collector is an honest hub; voters connect to a virtual sink.
    let collector = 0u64;
    let sink = honest_n + sybil_n;
    // Scenario: every sybil votes, plus 30 honest voters.
    let honest_voters: Vec<u64> = (1..=30).map(|i| i * 13 % honest_n).collect();
    for &v in &honest_voters {
        builder.add_edge(v, sink, 1); // one vote per identity
    }
    for s in 0..sybil_n {
        builder.add_edge(honest_n + s, sink, 1);
    }
    // The collector itself has unbounded capacity to start flows.
    let source = honest_n + sybil_n + 1;
    builder.add_edge(source, collector, INFINITE_CAPACITY);
    let net = builder.build();

    println!(
        "{honest_n} honest users, {sybil_n} sybils voting through {attack_edges} attack edges"
    );

    // Count collectible votes with the MapReduce max-flow.
    let mut rt = MrRuntime::new(ClusterConfig::paper_cluster(20));
    let config = FfConfig::new(VertexId::new(source), VertexId::new(sink))
        .variant(FfVariant::ff5())
        .max_rounds(400);
    let run = ffmr::ffmr_core::run_max_flow(&mut rt, &net, &config)?;
    let oracle = maxflow::Algorithm::Dinic.run(&net, VertexId::new(source), VertexId::new(sink));
    assert_eq!(run.max_flow_value, oracle.value);

    println!(
        "collected {} votes in {} MR rounds",
        run.max_flow_value,
        run.num_flow_rounds()
    );

    // How many of those votes could possibly be sybil votes? Bounded by
    // the attack cut, not by the sybil count.
    let honest_votes = honest_voters.len() as i64;
    let sybil_votes_upper = attack_edges as i64;
    println!(
        "≤ {} honest votes + ≤ {} sybil votes (sybils cast {}, capped by the {} attack edges)",
        honest_votes, sybil_votes_upper, sybil_n, attack_edges
    );
    assert!(
        run.max_flow_value <= honest_votes + sybil_votes_upper,
        "sybil votes exceeded the attack-edge bound"
    );
    assert!(
        run.max_flow_value >= sybil_votes_upper,
        "attack edges saturated"
    );
    println!("sybil influence bounded as SumUp predicts");
    Ok(())
}
