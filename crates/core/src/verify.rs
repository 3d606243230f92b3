//! Extraction and audit of the flow function computed by FFMR.
//!
//! A real deployment only needs the max-flow *value* (and the final
//! records stay in the DFS), but tests and the min-cut applications want
//! the full flow function — and want to audit it against the network.

use std::collections::HashMap;

use mapreduce::{Dfs, MrError};
use maxflow::FlowResult;
use swgraph::{Capacity, EdgeId, FlowNetwork, VertexId};

use crate::augmented::AugmentedEdges;
use crate::vertex::VertexValue;

/// Reads the final vertex records at `path`, folds in `pending` deltas
/// (the last round's acceptances no mapper applied), and reassembles the
/// flow function over `net`, its value measured as the net outflow at
/// `s`. Audit it with `maxflow::validate::check_flow`, and prove it
/// maximum with `maxflow::min_cut::extract_min_cut`.
///
/// # Errors
/// Fails if the records are missing/corrupt, reference unknown edges, or
/// the two endpoints of any edge disagree about its flow (which would
/// mean the residual views diverged — a bug this audit exists to catch).
pub fn extract_flow(
    dfs: &Dfs,
    path: &str,
    pending: &AugmentedEdges,
    net: &FlowNetwork,
    s: VertexId,
) -> Result<FlowResult, MrError> {
    let records: Vec<(u64, VertexValue)> = dfs.read_records(path)?;
    let m = net.num_directed_edges();
    let mut flows: Vec<Option<Capacity>> = vec![None; m];
    for (_, mut value) in records {
        value.apply_deltas(pending);
        for e in &value.edges {
            if e.eid.index() >= m {
                return Err(MrError::InvalidJob(format!(
                    "record references unknown edge {}",
                    e.eid
                )));
            }
            match flows[e.eid.index()] {
                None => flows[e.eid.index()] = Some(e.flow),
                Some(prev) if prev == e.flow => {}
                Some(prev) => {
                    return Err(MrError::InvalidJob(format!(
                        "inconsistent flow on {}: {} vs {}",
                        e.eid, prev, e.flow
                    )));
                }
            }
        }
    }
    // Cross-check skew symmetry between the two endpoints' copies.
    let flows: Vec<Capacity> = flows.into_iter().map(Option::unwrap_or_default).collect();
    for pair in 0..m / 2 {
        let e = EdgeId::new(2 * pair as u64);
        if flows[e.index()] != -flows[e.reverse().index()] {
            return Err(MrError::InvalidJob(format!(
                "skew symmetry broken on {e}: {} vs {}",
                flows[e.index()],
                flows[e.reverse().index()]
            )));
        }
    }
    let value = if s.index() < net.num_vertices() {
        net.out_edges(s).map(|e| flows[e.index()]).sum()
    } else {
        0
    };
    Ok(FlowResult { value, flows })
}

/// Summarizes excess-path storage across the final records — useful for
/// asserting the space behaviour of the k-policies.
#[must_use]
pub fn storage_histogram(dfs: &Dfs, path: &str) -> HashMap<u64, (usize, usize)> {
    let mut out = HashMap::new();
    if let Ok(records) = dfs.read_records::<u64, VertexValue>(path) {
        for (u, v) in records {
            out.insert(u, (v.source_paths.len(), v.sink_paths.len()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::{ExcessPath, PathEdge};
    use crate::vertex::VertexEdge;

    fn edge_copy(to: u64, eid: u64, flow: i64) -> VertexEdge {
        VertexEdge {
            to,
            eid: EdgeId::new(eid),
            flow,
            cap: 1,
            rev_cap: 1,
            sent_source: None,
            sent_sink: None,
        }
    }

    fn write_records(dfs: &mut Dfs, path: &str, records: Vec<(u64, VertexValue)>) {
        dfs.write_records(path, 2, records).unwrap();
    }

    #[test]
    fn extracts_consistent_flows() {
        let net = FlowNetwork::from_undirected_unit(2, &[(0, 1)]);
        let mut dfs = Dfs::new();
        write_records(
            &mut dfs,
            "final",
            vec![
                (
                    0,
                    VertexValue {
                        edges: vec![edge_copy(1, 0, 1)],
                        ..VertexValue::default()
                    },
                ),
                (
                    1,
                    VertexValue {
                        edges: vec![edge_copy(0, 1, -1)],
                        ..VertexValue::default()
                    },
                ),
            ],
        );
        let (s, t) = (VertexId::new(0), VertexId::new(1));
        let f = extract_flow(&dfs, "final", &AugmentedEdges::new(0), &net, s).unwrap();
        assert_eq!(f.flows, vec![1, -1]);
        assert_eq!(f.value, 1);
        maxflow::validate::check_flow(&net, s, t, &f).unwrap();
        let cut = maxflow::min_cut::extract_min_cut(&net, s, &f);
        assert!(!cut.source_side.contains(&t));
        assert_eq!(cut.value, f.value);
    }

    #[test]
    fn pending_deltas_are_folded_in() {
        let net = FlowNetwork::from_undirected_unit(2, &[(0, 1)]);
        let mut dfs = Dfs::new();
        write_records(
            &mut dfs,
            "final",
            vec![
                (
                    0,
                    VertexValue {
                        edges: vec![edge_copy(1, 0, 0)],
                        ..VertexValue::default()
                    },
                ),
                (
                    1,
                    VertexValue {
                        edges: vec![edge_copy(0, 1, 0)],
                        ..VertexValue::default()
                    },
                ),
            ],
        );
        let mut pending = AugmentedEdges::new(9);
        pending.add(EdgeId::new(0), 1);
        let f = extract_flow(&dfs, "final", &pending, &net, VertexId::new(0)).unwrap();
        assert_eq!(f.flows, vec![1, -1]);
    }

    #[test]
    fn detects_inconsistent_copies() {
        let net = FlowNetwork::from_undirected_unit(2, &[(0, 1)]);
        let mut dfs = Dfs::new();
        write_records(
            &mut dfs,
            "final",
            vec![
                (
                    0,
                    VertexValue {
                        edges: vec![edge_copy(1, 0, 1)],
                        ..VertexValue::default()
                    },
                ),
                (
                    1,
                    VertexValue {
                        edges: vec![edge_copy(0, 1, 0)], // should be -1
                        ..VertexValue::default()
                    },
                ),
            ],
        );
        assert!(extract_flow(
            &dfs,
            "final",
            &AugmentedEdges::new(0),
            &net,
            VertexId::new(0)
        )
        .is_err());
    }

    #[test]
    fn detects_unknown_edges() {
        let net = FlowNetwork::from_undirected_unit(2, &[(0, 1)]);
        let mut dfs = Dfs::new();
        write_records(
            &mut dfs,
            "final",
            vec![(
                0,
                VertexValue {
                    edges: vec![edge_copy(1, 99, 0)],
                    ..VertexValue::default()
                },
            )],
        );
        assert!(extract_flow(
            &dfs,
            "final",
            &AugmentedEdges::new(0),
            &net,
            VertexId::new(0)
        )
        .is_err());
    }

    #[test]
    fn a_zero_flow_leaves_the_sink_reachable() {
        let net = FlowNetwork::from_undirected_unit(3, &[(0, 1), (1, 2)]);
        let f = FlowResult {
            value: 0,
            flows: vec![0; net.num_directed_edges()],
        };
        let cut = maxflow::min_cut::extract_min_cut(&net, VertexId::new(0), &f);
        assert!(cut.source_side.contains(&VertexId::new(2)));
    }

    #[test]
    fn storage_histogram_reads_paths() {
        let mut dfs = Dfs::new();
        write_records(
            &mut dfs,
            "final",
            vec![(
                3,
                VertexValue {
                    source_paths: vec![ExcessPath::from_edges(vec![PathEdge {
                        eid: EdgeId::new(0),
                        from: 0,
                        to: 3,
                        cap: 1,
                        flow: 0,
                    }])],
                    sink_paths: Vec::new(),
                    edges: vec![edge_copy(0, 1, 0)],
                },
            )],
        );
        let hist = storage_histogram(&dfs, "final");
        assert_eq!(hist.get(&3), Some(&(1, 0)));
        assert!(storage_histogram(&dfs, "missing").is_empty());
    }
}
