//! A vertex-centric bulk-synchronous-parallel graph engine in the style
//! of Pregel (Malewicz et al., the system the FFMR paper names as the
//! natural next host for its ideas: *"We believe the ideas presented in
//! this paper also translate to Pregel"*).
//!
//! The model: computation proceeds in *supersteps*. In each superstep,
//! every active vertex receives the messages sent to it in the previous
//! superstep, runs the user's [`VertexProgram::compute`], may mutate its
//! state, send messages along (or independently of) its edges, and vote
//! to halt. A vertex is reactivated by incoming messages. Between
//! supersteps an optional *master compute* folds the vertices'
//! contributions (Pregel's aggregators) and may broadcast a value to all
//! vertices or stop the computation — exactly the hook FFMR's augmenting
//! path acceptance needs.
//!
//! # Example: single-source shortest paths
//!
//! ```
//! use pregel::{ComputeContext, Engine, Graph, VertexProgram};
//!
//! struct Sssp;
//! impl VertexProgram for Sssp {
//!     type State = u64;          // best distance so far (u64::MAX = infinity)
//!     type Edge = u64;           // edge length
//!     type Message = u64;        // candidate distance
//!     type Contribution = ();
//!     type Broadcast = ();
//!
//!     fn compute(&self, ctx: &mut ComputeContext<'_, Self>, state: &mut u64, inbox: &[u64]) {
//!         let best = inbox.iter().copied().min().unwrap_or(u64::MAX);
//!         let improved = if ctx.superstep() == 0 && ctx.vertex_id() == 0 {
//!             *state = 0;
//!             true
//!         } else if best < *state {
//!             *state = best;
//!             true
//!         } else {
//!             false
//!         };
//!         if improved {
//!             for (to, len) in ctx.edges() {
//!                 ctx.send(to, state.saturating_add(len));
//!             }
//!         }
//!         ctx.vote_to_halt();
//!     }
//! }
//!
//! let mut graph = Graph::new();
//! graph.add_vertex(0, u64::MAX, vec![(1, 4), (2, 1)]);
//! graph.add_vertex(1, u64::MAX, vec![(3, 1)]);
//! graph.add_vertex(2, u64::MAX, vec![(1, 2), (3, 5)]);
//! graph.add_vertex(3, u64::MAX, vec![]);
//! let run = Engine::new(Sssp).run(&mut graph, 100).unwrap();
//! assert_eq!(*graph.state(3).unwrap(), 4); // 0 -> 2 -> 1 -> 3
//! assert!(run.supersteps <= 5);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod graph;
pub mod program;

pub use engine::{Engine, PregelError, RunStats, SuperstepStats};
pub use graph::Graph;
pub use program::{ComputeContext, MasterDecision, VertexProgram};
