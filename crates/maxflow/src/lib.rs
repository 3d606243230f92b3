//! Sequential maximum-flow reference algorithms.
//!
//! These are the in-memory baselines and correctness oracles for the FFMR
//! reproduction: Dinic \[30\], the test oracle, and the Push–Relabel
//! comparator the paper argues is MR-unsuitable \[13\], sequential and
//! parallel.
//!
//! All solvers share the [`FlowResult`] representation over
//! [`swgraph::FlowNetwork`]'s paired edges and are cross-validated against
//! each other in the test suite.
//!
//! There is one way to call a solver: pick an [`Algorithm`] and
//! [`run`](Algorithm::run) it (or [`run_with_report`](Algorithm::run_with_report)
//! for a [`Cancel`] token and the [`SolveReport`] counters) on the
//! calling thread. The solver modules are private;
//! [`parallel_push_relabel`] alone stays public for its explicit thread
//! count. `Algorithm`'s `Display`/`FromStr` pair is the
//! one table of solver names.
//!
//! [`local`] is not an `Algorithm`: it takes a source *set* and a sink
//! set, keeps its flow in a sparse overlay of the network, and answers
//! with a certificate, a minimum cut, beside the value. The daemon
//! answers every query its cut tree does not with it, and [`cut_tree`]
//! runs it n − 1 times to build a Gomory–Hu tree that answers every pair
//! of a symmetric network without a solve.
//!
//! # Example
//!
//! ```
//! use swgraph::{FlowNetwork, VertexId};
//! use maxflow::Algorithm;
//!
//! // Two disjoint unit paths from 0 to 3.
//! let net = FlowNetwork::from_undirected_unit(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]);
//! let (s, t) = (VertexId::new(0), VertexId::new(3));
//! for algorithm in Algorithm::ALL {
//!     let result = algorithm.run(&net, s, t);
//!     assert_eq!(result.value, 2, "{algorithm}");
//!     maxflow::validate::check_flow(&net, s, t, &result).unwrap();
//! }
//! assert_eq!("dinic".parse(), Ok(Algorithm::Dinic));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cancel;
pub mod contraction;
pub mod cut_tree;
mod dinic;
pub mod local;
pub mod min_cut;
pub mod parallel_push_relabel;
mod push_relabel;
pub mod report;
pub mod residual;
pub mod validate;

pub use cancel::{Cancel, Cancelled};
pub use report::SolveReport;
pub use residual::{FlowResult, Residual};

use swgraph::{FlowNetwork, VertexId};

/// Which in-memory algorithm to run — the solver API and, through
/// `Display`/`FromStr`, the one table of solver names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Algorithm {
    /// Dinic's layered blocking flow.
    Dinic,
    /// FIFO Push–Relabel with global-relabeling and gap heuristics.
    PushRelabel,
    /// Bulk-synchronous parallel Push–Relabel (deterministic for any
    /// thread count).
    ParallelPushRelabel,
}

impl Algorithm {
    /// Every implemented algorithm.
    pub const ALL: [Algorithm; 3] = [
        Algorithm::Dinic,
        Algorithm::PushRelabel,
        Algorithm::ParallelPushRelabel,
    ];

    /// Runs this algorithm on `net` from `s` to `t`.
    #[must_use]
    pub fn run(self, net: &FlowNetwork, s: VertexId, t: VertexId) -> FlowResult {
        let (result, _) = self
            .run_with_report(net, s, t, &Cancel::never())
            .expect("never-cancel solve cannot fail");
        result
    }

    /// Like [`Algorithm::run`] but polls `cancel` at the algorithm's
    /// natural progress boundary (augmenting path, discharge, pulse),
    /// returning [`Cancelled`] when the token fires, and also returns the
    /// solver's [`SolveReport`] execution counters.
    /// [`Algorithm::ParallelPushRelabel`] runs on every available core.
    pub fn run_with_report(
        self,
        net: &FlowNetwork,
        s: VertexId,
        t: VertexId,
        cancel: &Cancel,
    ) -> Result<(FlowResult, SolveReport), Cancelled> {
        match self {
            Algorithm::Dinic => dinic::solve(net, s, t, cancel),
            Algorithm::PushRelabel => push_relabel::solve(net, s, t, cancel),
            Algorithm::ParallelPushRelabel => {
                let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
                parallel_push_relabel::solve(net, s, t, threads, cancel)
            }
        }
    }

    /// [`Algorithm::name`] of every algorithm, in [`Algorithm::ALL`] order.
    pub fn names() -> impl Iterator<Item = &'static str> {
        Self::ALL.into_iter().map(Self::name)
    }

    /// The name this algorithm prints as and parses from.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Algorithm::Dinic => "dinic",
            Algorithm::PushRelabel => "push-relabel",
            Algorithm::ParallelPushRelabel => "parallel-pr",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Algorithm {
    type Err = UnknownAlgorithm;

    fn from_str(name: &str) -> Result<Self, Self::Err> {
        Self::ALL
            .into_iter()
            .find(|a| a.name() == name)
            .ok_or_else(|| UnknownAlgorithm(name.to_string()))
    }
}

/// The error parsing an [`Algorithm`] name returns; its message lists the
/// names that would have parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownAlgorithm(pub String);

impl std::fmt::Display for UnknownAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = Algorithm::names().collect();
        write!(
            f,
            "unknown algorithm '{}' (expected one of: {})",
            self.0,
            names.join(", ")
        )
    }
}

impl std::error::Error for UnknownAlgorithm {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_round_trips_through_display_and_from_str() {
        for a in Algorithm::ALL {
            assert_eq!(a.to_string().parse(), Ok(a));
        }
    }

    #[test]
    fn every_algorithm_returns_cancelled_at_an_expired_deadline() {
        let net = FlowNetwork::from_undirected_unit(200, &swgraph::gen::barabasi_albert(200, 3, 5));
        let expired = Cancel::after(std::time::Duration::ZERO);
        for algorithm in Algorithm::ALL {
            assert_eq!(
                algorithm.run_with_report(&net, VertexId::new(0), VertexId::new(199), &expired),
                Err(Cancelled),
                "{algorithm}"
            );
        }
    }

    #[test]
    fn unknown_name_error_lists_the_valid_ones() {
        let err = "bogus".parse::<Algorithm>().unwrap_err().to_string();
        assert!(err.contains("'bogus'"), "{err}");
        for name in Algorithm::names() {
            assert!(err.contains(name), "{err} should name {name}");
        }
    }
}
