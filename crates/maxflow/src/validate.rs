//! Flow-function validation: the three constraints from the paper's
//! Sec. II-A (capacity, skew symmetry, conservation) plus value
//! consistency, checked after every solve in tests.

use std::error::Error;
use std::fmt;

use swgraph::{Capacity, EdgeId, FlowNetwork, VertexId};

use crate::residual::FlowResult;

/// A violated flow constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FlowViolation {
    /// The flow vector length does not match the network.
    WrongShape {
        /// Expected directed-edge count.
        expected: usize,
        /// Actual flow vector length.
        actual: usize,
    },
    /// `f(e) > c(e)` on some edge.
    Capacity {
        /// The offending edge.
        edge: EdgeId,
        /// Flow on it.
        flow: Capacity,
        /// Its capacity.
        capacity: Capacity,
    },
    /// `f(e) != -f(e.reverse())`.
    SkewSymmetry {
        /// The offending edge.
        edge: EdgeId,
    },
    /// Net flow out of a non-terminal vertex is nonzero.
    Conservation {
        /// The offending vertex.
        vertex: VertexId,
        /// Its net outflow.
        net_out: Capacity,
    },
    /// The declared value differs from the measured net outflow at `s`.
    Value {
        /// Declared flow value.
        declared: Capacity,
        /// Measured net outflow at the source.
        measured: Capacity,
    },
}

impl fmt::Display for FlowViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowViolation::WrongShape { expected, actual } => {
                write!(
                    f,
                    "flow vector has {actual} entries, network has {expected}"
                )
            }
            FlowViolation::Capacity {
                edge,
                flow,
                capacity,
            } => write!(
                f,
                "capacity violated on {edge}: flow {flow} > cap {capacity}"
            ),
            FlowViolation::SkewSymmetry { edge } => {
                write!(f, "skew symmetry violated on {edge}")
            }
            FlowViolation::Conservation { vertex, net_out } => {
                write!(
                    f,
                    "conservation violated at {vertex}: net outflow {net_out}"
                )
            }
            FlowViolation::Value { declared, measured } => {
                write!(
                    f,
                    "declared value {declared} but measured {measured} at source"
                )
            }
        }
    }
}

impl Error for FlowViolation {}

/// Checks that `result` is a feasible flow from `s` to `t` on `net` and
/// that its declared value matches the source's net outflow.
///
/// Does **not** check maximality — pair it with an oracle (e.g. Dinic)
/// for that.
///
/// # Errors
/// The first [`FlowViolation`] found.
pub fn check_flow(
    net: &FlowNetwork,
    s: VertexId,
    t: VertexId,
    result: &FlowResult,
) -> Result<(), FlowViolation> {
    let m = net.num_directed_edges();
    if result.flows.len() != m {
        return Err(FlowViolation::WrongShape {
            expected: m,
            actual: result.flows.len(),
        });
    }
    for raw in 0..m as u64 {
        let e = EdgeId::new(raw);
        let f = result.flow(e);
        if f > net.capacity(e) {
            return Err(FlowViolation::Capacity {
                edge: e,
                flow: f,
                capacity: net.capacity(e),
            });
        }
        if f != -result.flow(e.reverse()) {
            return Err(FlowViolation::SkewSymmetry { edge: e });
        }
    }
    for u in 0..net.num_vertices() as u64 {
        let v = VertexId::new(u);
        if v == s || v == t {
            continue;
        }
        let net_out: Capacity = net.out_edges(v).map(|e| result.flow(e)).sum();
        if net_out != 0 {
            return Err(FlowViolation::Conservation { vertex: v, net_out });
        }
    }
    let measured: Capacity = if s.index() < net.num_vertices() {
        net.out_edges(s).map(|e| result.flow(e)).sum()
    } else {
        0
    };
    if measured != result.value {
        return Err(FlowViolation::Value {
            declared: result.value,
            measured,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Algorithm;

    fn path_net() -> FlowNetwork {
        FlowNetwork::from_undirected_unit(3, &[(0, 1), (1, 2)])
    }

    #[test]
    fn valid_flow_passes() {
        let net = path_net();
        let f = Algorithm::Dinic.run(&net, VertexId::new(0), VertexId::new(2));
        check_flow(&net, VertexId::new(0), VertexId::new(2), &f).unwrap();
    }

    #[test]
    fn catches_capacity_violation() {
        let net = path_net();
        let mut f = Algorithm::Dinic.run(&net, VertexId::new(0), VertexId::new(2));
        f.flows[0] = 99;
        f.flows[1] = -99;
        let err = check_flow(&net, VertexId::new(0), VertexId::new(2), &f).unwrap_err();
        assert!(matches!(err, FlowViolation::Capacity { .. }));
    }

    #[test]
    fn catches_skew_violation() {
        let net = path_net();
        let mut f = Algorithm::Dinic.run(&net, VertexId::new(0), VertexId::new(2));
        f.flows[1] = f.flows[0]; // should be the negation
        let err = check_flow(&net, VertexId::new(0), VertexId::new(2), &f).unwrap_err();
        assert!(matches!(err, FlowViolation::SkewSymmetry { .. }));
    }

    #[test]
    fn catches_conservation_violation() {
        let net = path_net();
        let zero = FlowResult {
            value: 0,
            flows: {
                let mut v = vec![0; net.num_directed_edges()];
                // 1 unit enters vertex 1 but never leaves.
                v[0] = 1;
                v[1] = -1;
                v
            },
        };
        let err = check_flow(&net, VertexId::new(0), VertexId::new(2), &zero).unwrap_err();
        assert!(matches!(err, FlowViolation::Conservation { .. }));
    }

    #[test]
    fn catches_value_mismatch() {
        let net = path_net();
        let mut f = Algorithm::Dinic.run(&net, VertexId::new(0), VertexId::new(2));
        f.value += 5;
        let err = check_flow(&net, VertexId::new(0), VertexId::new(2), &f).unwrap_err();
        assert!(matches!(err, FlowViolation::Value { .. }));
    }

    #[test]
    fn catches_wrong_shape() {
        let net = path_net();
        let bad = FlowResult {
            value: 0,
            flows: vec![0; 1],
        };
        let err = check_flow(&net, VertexId::new(0), VertexId::new(2), &bad).unwrap_err();
        assert!(matches!(err, FlowViolation::WrongShape { .. }));
    }

    #[test]
    fn violation_messages_are_informative() {
        let v = FlowViolation::Capacity {
            edge: EdgeId::new(4),
            flow: 7,
            capacity: 3,
        };
        let s = v.to_string();
        assert!(s.contains("e4") && s.contains('7') && s.contains('3'));
    }
}
