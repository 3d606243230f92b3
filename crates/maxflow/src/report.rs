//! Per-solve execution counters, returned alongside [`FlowResult`].
//!
//! Every solver returns a [`SolveReport`] next to the flow (see
//! [`Algorithm::run_with_report`](crate::Algorithm::run_with_report)): the serving tier
//! (`ffmrd`) threads it into the per-query profile so `ffmr query
//! --explain` can name *where the work went* — BFS phases for Dinic,
//! pulses/pushes/relabels for push-relabel — without any solver-side
//! logging. The counters are deterministic for a given network and
//! terminal pair (for the parallel solver, for any thread count), so
//! they are safe to assert on in tests.
//!
//! [`FlowResult`]: crate::FlowResult

/// Deterministic execution counters for one max-flow solve.
///
/// Fields not meaningful for a given algorithm stay zero (e.g. an
/// augmenting-path solver never pushes excess, a push-relabel solver
/// never augments along paths).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveReport {
    /// Outer progress rounds: BFS phases (Dinic), discharge sweeps
    /// (sequential push-relabel), or bulk-synchronous pulses (parallel
    /// push-relabel).
    pub phases: u64,
    /// Augmenting paths pushed (Dinic and the local search).
    pub augmenting_paths: u64,
    /// Individual push operations applied (push-relabel family).
    pub pushes: u64,
    /// Individual relabel operations applied, gap lifts excluded
    /// (push-relabel family).
    pub relabels: u64,
    /// Global relabelings, including the initial one (push-relabel
    /// family).
    pub global_relabels: u64,
    /// Times the solver polled its [`Cancel`](crate::Cancel) token.
    pub cancel_polls: u64,
    /// Distinct vertices the search reached (local search).
    pub vertices_touched: u64,
    /// Arcs examined over all the search's BFS rounds (local search).
    pub arc_scans: u64,
}

impl SolveReport {
    /// The non-zero counters as `(name, value)` pairs, in declaration
    /// order — the shape the serving tier serializes into a profile.
    #[must_use]
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        [
            ("phases", self.phases),
            ("augmenting_paths", self.augmenting_paths),
            ("pushes", self.pushes),
            ("relabels", self.relabels),
            ("global_relabels", self.global_relabels),
            ("cancel_polls", self.cancel_polls),
            ("vertices_touched", self.vertices_touched),
            ("arc_scans", self.arc_scans),
        ]
        .into_iter()
        .filter(|&(_, v)| v != 0)
        .collect()
    }
}
