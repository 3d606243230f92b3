//! Inputs: the FB' graph files, the oracle flow values and the request
//! streams. The program under test receives only the generated files
//! and requests, never a seed.
//!
//! The graphs are the repository's experiment dataset, `Scale::small()`
//! with its own generator seed, the same on every run. `--seed` draws
//! the request streams of the serve workloads; a job workload has no
//! other input than its graph and does not read it. The graph does not
//! follow `--seed` because FF5 on twelve FB3' graphs of equal size
//! takes from 1.02 s to 1.46 s (7 or 8 rounds; quartile distance 16 %
//! of the median), which is wider than any bound the metrics could
//! carry.

use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use ffmr_bench::{FbFamily, Scale};
use ffmr_prng::SplitMix64;
use maxflow::Algorithm;
use swgraph::{Capacity, FlowNetwork, VertexId};

/// Terminal fan-out of the batch jobs (`ffmr maxflow --w 64`).
pub const SUPER_W: usize = 64;
/// `ffmr maxflow`'s fixed `min_degree` and default `--seed` for the
/// super-terminal choice.
pub const SUPER_MIN_DEGREE: usize = 3;
pub const SUPER_SEED: u64 = 42;

/// Which subset of the `Scale::small()` FB' family a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Graph {
    /// n = 1 460, m ≈ 20.9 k edge pairs.
    Fb2,
    /// n = 1 940, m ≈ 41.2 k edge pairs.
    Fb3,
    /// n = 3 020, m ≈ 87.8 k edge pairs.
    Fb4,
}

impl Graph {
    fn subset(self) -> usize {
        match self {
            Graph::Fb2 => 1,
            Graph::Fb3 => 2,
            Graph::Fb4 => 3,
        }
    }

    pub fn file_name(self) -> &'static str {
        match self {
            Graph::Fb2 => "fb2.txt",
            Graph::Fb3 => "fb3.txt",
            Graph::Fb4 => "fb4.txt",
        }
    }
}

/// Generates the `Scale::small()` family and returns the wanted subset.
pub fn generate(graph: Graph) -> FlowNetwork {
    FbFamily::generate(Scale::small()).subset(graph.subset())
}

/// Writes `net` as the edge-list file the CLI and the daemon read.
pub fn write_graph(net: &FlowNetwork, dir: &Path, graph: Graph) -> Result<PathBuf, String> {
    let path = dir.join(graph.file_name());
    std::fs::File::create(&path)
        .and_then(|file| {
            let mut out = BufWriter::new(file);
            swgraph::io::write_edge_list(net, &mut out)?;
            out.flush()
        })
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// Reads an edge-list file as `ffmr maxflow` and `ffmr serve` do.
pub fn read_graph(path: &Path) -> Result<FlowNetwork, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    swgraph::io::read_edge_list(std::io::BufReader::new(file))
        .map(swgraph::FlowNetworkBuilder::build)
        .map_err(|e| format!("{}: parse failed: {e}", path.display()))
}

/// The flow value every `--w 64` job on `net` must print: Dinic on the
/// same super-terminal network, its flow checked for feasibility.
pub fn batch_oracle(net: &FlowNetwork) -> Result<Capacity, String> {
    let st = swgraph::super_st::attach_super_terminals(net, SUPER_W, SUPER_MIN_DEGREE, SUPER_SEED)
        .map_err(|e| format!("super terminals: {e}"))?;
    let flow = Algorithm::Dinic.run(&st.network, st.source, st.sink);
    maxflow::validate::check_flow(&st.network, st.source, st.sink, &flow)
        .map_err(|e| format!("oracle flow is infeasible: {e:?}"))?;
    Ok(flow.value)
}

/// The flow value a `maxflow` query for `(s, t)` must return, by
/// sequential push-relabel (the daemon answers with the parallel one).
pub fn query_oracle(net: &FlowNetwork, (s, t): (u64, u64)) -> Capacity {
    Algorithm::PushRelabel
        .run(net, VertexId::new(s), VertexId::new(t))
        .value
}

/// A never-repeating sequence of unordered vertex pairs `s < t`,
/// a pure function of `(seed, n, index)`: the unordered pairs are
/// numbered `0..n(n-1)/2` and walked with a seeded offset and a stride
/// coprime to their count, so no pair (in either direction, which the
/// daemon could answer from its cache) comes up twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairStream {
    pairs: u64,
    offset: u64,
    stride: u64,
}

impl PairStream {
    pub fn new(seed: u64, vertices: u64) -> Self {
        assert!(vertices >= 3, "need at least three vertices");
        let pairs = vertices * (vertices - 1) / 2;
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5eed_0f9a);
        let offset = rng.next_u64() % pairs;
        let mut stride = rng.next_u64() % pairs;
        while stride < 2 || gcd(stride, pairs) != 1 {
            stride = (stride + 1) % pairs;
        }
        Self {
            pairs,
            offset,
            stride,
        }
    }

    /// The `index`-th pair.
    pub fn pair(&self, index: u64) -> (u64, u64) {
        let wide = u128::from(self.offset) + u128::from(index) * u128::from(self.stride);
        let k = (wide % u128::from(self.pairs)) as u64;
        // Pair k is (s, t) with t(t-1)/2 <= k < t(t+1)/2 and s = k - t(t-1)/2.
        let mut t = ((1.0 + (1.0 + 8.0 * k as f64).sqrt()) / 2.0) as u64;
        while t * (t - 1) / 2 > k {
            t -= 1;
        }
        while t * (t + 1) / 2 <= k {
            t += 1;
        }
        (k - t * (t - 1) / 2, t)
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// What one load-generator connection sends, in order. `serve-cold`
/// draws only fresh pairs; `serve-warm` draws nine requests in ten from
/// a fixed pool of pairs (queried once before the window) and the tenth
/// fresh, decided by the connection's own seeded generator.
#[derive(Debug, Clone)]
pub struct RequestStream {
    pairs: PairStream,
    rng: SplitMix64,
    pool: u64,
    /// Index of this connection's next fresh pair; connections take
    /// every `step`-th index so they never collide.
    next_fresh: u64,
    step: u64,
}

impl RequestStream {
    /// `pool` = 0 makes every request a fresh pair. Pool pairs are
    /// stream indices `0..pool`; fresh pairs start `fresh_from` above
    /// them, so a second window against the same daemon can ask for
    /// pairs the first never sent.
    pub fn new(
        seed: u64,
        vertices: u64,
        pool: u64,
        fresh_from: u64,
        client: u64,
        clients: u64,
    ) -> Self {
        Self {
            pairs: PairStream::new(seed, vertices),
            rng: SplitMix64::seed_from_u64(seed.wrapping_add(client.wrapping_mul(0x9e37_79b9))),
            pool,
            next_fresh: pool + fresh_from + client,
            step: clients,
        }
    }

    /// The pool's pairs, in the order they are warmed.
    pub fn pool_pairs(seed: u64, vertices: u64, pool: u64) -> Vec<(u64, u64)> {
        let pairs = PairStream::new(seed, vertices);
        (0..pool).map(|i| pairs.pair(i)).collect()
    }

    pub fn next_pair(&mut self) -> (u64, u64) {
        if self.pool > 0 && !self.rng.next_u64().is_multiple_of(10) {
            return self.pairs.pair(self.rng.next_u64() % self.pool);
        }
        let index = self.next_fresh;
        self.next_fresh += self.step;
        self.pairs.pair(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn pair_stream_never_repeats_and_stays_in_range() {
        let n = 37;
        let stream = PairStream::new(3, n);
        let all = n * (n - 1) / 2;
        let mut seen = HashSet::new();
        for i in 0..all {
            let (s, t) = stream.pair(i);
            assert!(s < t && t < n, "({s},{t}) out of range");
            assert!(seen.insert((s, t)), "pair {i} repeats ({s},{t})");
        }
        assert_eq!(seen.len() as u64, all);
    }

    #[test]
    fn request_streams_depend_on_the_seed_only() {
        let draw = |seed, client| {
            let mut s = RequestStream::new(seed, 3020, 256, 0, client, 2);
            (0..500).map(|_| s.next_pair()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42, 0), draw(42, 0));
        assert_ne!(draw(42, 0), draw(43, 0));
        assert_ne!(draw(42, 0), draw(42, 1));
        assert_eq!(
            RequestStream::pool_pairs(42, 3020, 256),
            RequestStream::pool_pairs(42, 3020, 256)
        );
        assert_ne!(
            RequestStream::pool_pairs(42, 3020, 256),
            RequestStream::pool_pairs(7, 3020, 256)
        );
    }

    #[test]
    fn warm_stream_is_mostly_pool_and_cold_stream_is_all_fresh() {
        let pool: HashSet<_> = RequestStream::pool_pairs(9, 3020, 256)
            .into_iter()
            .collect();
        let mut warm = RequestStream::new(9, 3020, 256, 0, 0, 2);
        let hits = (0..10_000)
            .filter(|_| pool.contains(&warm.next_pair()))
            .count();
        assert!(
            (8_800..=9_200).contains(&hits),
            "{hits} pool draws of 10000"
        );

        let mut seen = HashSet::new();
        for client in 0..2 {
            let mut cold = RequestStream::new(9, 3020, 0, 0, client, 2);
            for _ in 0..5_000 {
                assert!(seen.insert(cold.next_pair()), "cold stream repeated a pair");
            }
        }
    }

    #[test]
    fn the_graph_is_the_same_every_time_and_the_oracle_accepts_it() {
        let net = generate(Graph::Fb3);
        assert_eq!(net, generate(Graph::Fb3));
        assert_eq!(net.num_vertices(), 1_940);
        assert!(batch_oracle(&net).unwrap() > 0);
    }
}
