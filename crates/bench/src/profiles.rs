//! Workload profiles: the FB1'..FB6' graph family and scale presets.

use swgraph::gen::{induced_prefix, social_crawl, FB_CHECKPOINTS};
use swgraph::FlowNetwork;

/// How far below the paper's sizes to run. `FB_CHECKPOINTS` is already
/// the paper divided by 1000; `denominator` divides again.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Extra divisor on the FB checkpoint sizes.
    pub denominator: u64,
    /// Default terminal fan-out `w` (the paper uses 128 for scaling runs).
    pub w: usize,
    /// Reduce partitions per MR round.
    pub reducers: usize,
    /// Degree threshold for terminal selection (paper: 3000 at full
    /// scale; scaled down with the graph).
    pub min_degree: usize,
    /// Generator seed.
    pub seed: u64,
    /// Data-cost inflation for the cluster model: the factor by which the
    /// workload's bytes were scaled down from the paper's (≈ 1000 x
    /// `denominator`, since `FB_CHECKPOINTS` is already the paper / 1000).
    pub sim_slowdown: f64,
}

impl Scale {
    /// Tiny graphs for CI and tests (seconds per experiment).
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            denominator: 400,
            w: 6,
            reducers: 4,
            min_degree: 6,
            seed: 42,
            sim_slowdown: 400_000.0,
        }
    }

    /// The default experiment scale: FB6' ≈ 8 K vertices / 600 K edges.
    #[must_use]
    pub fn small() -> Self {
        Self {
            denominator: 50,
            w: 64,
            reducers: 8,
            min_degree: 12,
            seed: 42,
            sim_slowdown: 50_000.0,
        }
    }

    /// The heaviest preset: FB6' ≈ 20 K vertices / 1.5 M edges.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            denominator: 20,
            w: 128,
            reducers: 16,
            min_degree: 20,
            seed: 42,
            sim_slowdown: 20_000.0,
        }
    }

    /// Parses a preset name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "smoke" => Some(Self::smoke()),
            "small" => Some(Self::small()),
            "paper" => Some(Self::paper()),
            _ => None,
        }
    }
}

/// The nested FB1' ⊂ … ⊂ FB6' graph family at one scale.
#[derive(Debug, Clone)]
pub struct FbFamily {
    edges: Vec<(u64, u64)>,
    /// `(name, vertex count)` per subset, in order.
    pub checkpoints: Vec<(&'static str, u64)>,
    scale: Scale,
}

impl FbFamily {
    /// Generates the family once; subsets are induced prefixes.
    #[must_use]
    pub fn generate(scale: Scale) -> Self {
        let edges = social_crawl(&FB_CHECKPOINTS, scale.denominator, 5_000, scale.seed);
        let checkpoints = FB_CHECKPOINTS
            .iter()
            .map(|c| (c.name, (c.vertices / scale.denominator).max(2)))
            .collect();
        Self {
            edges,
            checkpoints,
            scale,
        }
    }

    /// Number of subsets (6).
    #[must_use]
    pub fn len(&self) -> usize {
        self.checkpoints.len()
    }

    /// Whether the family is empty (never, but clippy insists).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.checkpoints.is_empty()
    }

    /// The scale this family was generated at.
    #[must_use]
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Subset `i` (0 = FB1') as a unit-capacity flow network.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn subset(&self, i: usize) -> FlowNetwork {
        let (_, n) = self.checkpoints[i];
        let edges = induced_prefix(&self.edges, n);
        FlowNetwork::from_undirected_unit(n, &edges)
    }

    /// Subset `i` with super terminals attached (`w` from the scale, or
    /// an override), using the same seed for nested-consistency (the
    /// paper uses "the same random w = 128 vertices ... for consistent
    /// results").
    ///
    /// # Panics
    /// Panics if terminal selection fails (graph too small for `w`).
    #[must_use]
    pub fn subset_with_terminals(&self, i: usize, w: usize) -> swgraph::super_st::SuperStNetwork {
        let net = self.subset(i);
        swgraph::super_st::attach_super_terminals(&net, w, self.scale.min_degree, self.scale.seed)
            .expect("terminal selection")
    }

    /// Name of subset `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn name(&self, i: usize) -> &'static str {
        self.checkpoints[i].0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_family_has_six_nested_subsets() {
        let fam = FbFamily::generate(Scale::smoke());
        assert_eq!(fam.len(), 6);
        let mut last_edges = 0;
        for i in 0..fam.len() {
            let net = fam.subset(i);
            assert!(net.num_edge_pairs() >= last_edges, "nested growth");
            last_edges = net.num_edge_pairs();
        }
    }

    #[test]
    fn terminals_attach_at_smoke_scale() {
        let fam = FbFamily::generate(Scale::smoke());
        let st = fam.subset_with_terminals(0, 2);
        assert_eq!(st.source_terminals.len(), 2);
    }

    #[test]
    fn scale_presets_parse() {
        assert_eq!(Scale::by_name("smoke"), Some(Scale::smoke()));
        assert_eq!(Scale::by_name("small"), Some(Scale::small()));
        assert_eq!(Scale::by_name("paper"), Some(Scale::paper()));
        assert_eq!(Scale::by_name("nope"), None);
    }
}
