//! FIFO Push–Relabel \[13\] with the global-relabeling and gap
//! heuristics \[28\] — the comparator the paper examined and rejected for
//! MapReduce (Sec. II): it is fast sequentially, but its active set is
//! often tiny relative to the graph, which is exactly what starves
//! parallel MR rounds.
//!
//! The heuristics mirror [`crate::parallel_push_relabel`] exactly (exact
//! heights from periodic reverse BFS off the sink and source, gap lifts
//! on vacated levels), so the sequential/parallel pair differ only in
//! scheduling.

use std::collections::VecDeque;

use swgraph::{Capacity, FlowNetwork, VertexId};

use crate::cancel::{Cancel, Cancelled};
use crate::report::SolveReport;
use crate::residual::{FlowResult, Residual};

/// Work (edges scanned + weighted relabels) between global relabelings,
/// as a multiple of `n + m` — the same budget the parallel twin uses.
const GLOBAL_RELABEL_FACTOR: u64 = 3;

/// Work-counter charge for one relabel (edge scans charge 1 each).
const RELABEL_WORK: u64 = 12;

/// How many FIFO discharges happen between [`Cancel`] polls: frequent
/// enough that a deadline lands within microseconds, rare enough that
/// the `Instant::now()` call is invisible in profiles.
const CANCEL_POLL_INTERVAL: u64 = 64;

/// Computes the maximum `s`–`t` flow with FIFO Push–Relabel. `cancel` is
/// polled every `CANCEL_POLL_INTERVAL` discharges; the report counts FIFO
/// sweeps (as phases), pushes, relabels, global relabels and cancel polls.
pub(crate) fn solve(
    net: &FlowNetwork,
    s: VertexId,
    t: VertexId,
    cancel: &Cancel,
) -> Result<(FlowResult, SolveReport), Cancelled> {
    let n = net.num_vertices();
    let mut residual = Residual::new(net);
    if s == t || n == 0 || s.index() >= n || t.index() >= n {
        return Ok((residual.into_result(s), SolveReport::default()));
    }
    let mut report = SolveReport::default();

    let mut height: Vec<usize> = vec![0; n];
    let mut excess: Vec<Capacity> = vec![0; n];
    let mut height_count: Vec<usize> = vec![0; 2 * n + 1];
    height[s.index()] = n;

    let mut queue: VecDeque<VertexId> = VecDeque::new();
    let mut in_queue = vec![false; n];

    // Saturate every source edge.
    for e in net.out_edges(s) {
        let cap = residual.residual_capacity(e);
        if cap > 0 {
            let v = net.head(e);
            residual.push(e, cap);
            // Terminal excess is never read (terminals are not queued) and
            // can exceed i64 range with multiple unbounded terminal edges,
            // so it is not tracked at all.
            if v != t && v != s {
                excess[v.index()] += cap;
                if !in_queue[v.index()] {
                    in_queue[v.index()] = true;
                    queue.push_back(v);
                }
            }
        }
    }

    // Exact initial heights, then the FIFO discharge loop with periodic
    // re-relabeling once enough work (edge scans + relabels) piles up.
    // A sweep ends when the vertices queued at its start are discharged.
    let m = net.num_directed_edges();
    let relabel_threshold = GLOBAL_RELABEL_FACTOR * (n + m) as u64;
    let mut work: u64 = 0;
    global_relabel(net, &residual, s, t, &mut height, &mut height_count);
    report.global_relabels += 1;
    let mut sweep_budget = queue.len();
    report.phases += 1;
    let mut discharges: u64 = 0;
    while let Some(u) = queue.pop_front() {
        // Poll on the first discharge (so an already-expired deadline
        // fails deterministically even on tiny graphs), then periodically.
        if discharges.is_multiple_of(CANCEL_POLL_INTERVAL) {
            report.cancel_polls += 1;
            cancel.check()?;
        }
        discharges += 1;
        in_queue[u.index()] = false;
        if work >= relabel_threshold {
            work = 0;
            global_relabel(net, &residual, s, t, &mut height, &mut height_count);
            report.global_relabels += 1;
        }
        discharge(
            net,
            &mut residual,
            &mut height,
            &mut excess,
            &mut height_count,
            &mut queue,
            &mut in_queue,
            &mut work,
            &mut report,
            u,
            s,
            t,
        );
        if sweep_budget <= 1 {
            sweep_budget = queue.len();
            if !queue.is_empty() {
                report.phases += 1;
            }
        } else {
            sweep_budget -= 1;
        }
    }

    Ok((residual.into_result(s), report))
}

/// Recomputes every height as its exact residual distance: `dist(v, t)`
/// for the sink-reaching side (reverse BFS from `t`, `s` excluded),
/// `n + dist(v, s)` for the rest (the excess-return phase), `2n` when
/// unreached by both. `s` stays pinned at `n`, `t` at `0`; valid labels
/// are lower bounds on these distances, so no height ever decreases.
fn global_relabel(
    net: &FlowNetwork,
    residual: &Residual<'_>,
    s: VertexId,
    t: VertexId,
    height: &mut [usize],
    height_count: &mut [usize],
) {
    let n = net.num_vertices();
    let dist_t = reverse_bfs(net, residual, t, s);
    let dist_s = reverse_bfs(net, residual, s, t);
    height_count.iter_mut().for_each(|c| *c = 0);
    for v in 0..n {
        let h = if v == s.index() {
            n
        } else if v == t.index() {
            0
        } else if dist_t[v] != usize::MAX {
            dist_t[v]
        } else if dist_s[v] != usize::MAX {
            n + dist_s[v]
        } else {
            2 * n
        };
        debug_assert!(h >= height[v], "global relabeling never lowers");
        height[v] = h;
        height_count[h] += 1;
    }
}

/// BFS from `root` along *reverse* residual arcs: `x` is at distance
/// `k+1` when some distance-`k` vertex `w` has a residual arc `x → w`.
/// `skip` (the opposite terminal) is never entered.
fn reverse_bfs(
    net: &FlowNetwork,
    residual: &Residual<'_>,
    root: VertexId,
    skip: VertexId,
) -> Vec<usize> {
    let mut dist = vec![usize::MAX; net.num_vertices()];
    dist[root.index()] = 0;
    let mut queue = VecDeque::new();
    queue.push_back(root);
    while let Some(w) = queue.pop_front() {
        for e in net.out_edges(w) {
            // `e` runs w → x; its pair is the arc x → w.
            if residual.residual_capacity(e.reverse()) > 0 {
                let x = net.head(e);
                if x != skip && dist[x.index()] == usize::MAX {
                    dist[x.index()] = dist[w.index()] + 1;
                    queue.push_back(x);
                }
            }
        }
    }
    dist
}

#[allow(clippy::too_many_arguments)]
fn discharge(
    net: &FlowNetwork,
    residual: &mut Residual<'_>,
    height: &mut [usize],
    excess: &mut [Capacity],
    height_count: &mut [usize],
    queue: &mut VecDeque<VertexId>,
    in_queue: &mut [bool],
    work: &mut u64,
    report: &mut SolveReport,
    u: VertexId,
    s: VertexId,
    t: VertexId,
) {
    let n = net.num_vertices();
    while excess[u.index()] > 0 {
        let mut min_height = usize::MAX;
        let mut pushed_any = false;
        for e in net.out_edges(u) {
            *work += 1;
            let rc = residual.residual_capacity(e);
            if rc <= 0 {
                continue;
            }
            let v = net.head(e);
            if height[u.index()] == height[v.index()] + 1 {
                let amount = rc.min(excess[u.index()]);
                residual.push(e, amount);
                excess[u.index()] -= amount;
                pushed_any = true;
                report.pushes += 1;
                // Terminal excess is untracked (see above).
                if v != s && v != t {
                    excess[v.index()] += amount;
                    if !in_queue[v.index()] && excess[v.index()] > 0 {
                        in_queue[v.index()] = true;
                        queue.push_back(v);
                    }
                }
                if excess[u.index()] == 0 {
                    break;
                }
            } else {
                min_height = min_height.min(height[v.index()]);
            }
        }
        if excess[u.index()] == 0 {
            break;
        }
        if !pushed_any {
            if min_height == usize::MAX {
                // Nowhere to push at all; excess is trapped (can happen
                // only transiently); stop discharging this vertex.
                break;
            }
            // Relabel with the gap heuristic.
            let old = height[u.index()];
            height_count[old] -= 1;
            let new = min_height + 1;
            height[u.index()] = new.min(2 * n);
            height_count[height[u.index()]] += 1;
            *work += RELABEL_WORK;
            report.relabels += 1;
            if height_count[old] == 0 && old < n {
                // Gap: every vertex above `old` (but below n) can never
                // reach t again; lift them above n to avoid useless work.
                for (w, h) in height.iter_mut().enumerate() {
                    if *h > old && *h < n && w != s.index() {
                        height_count[*h] -= 1;
                        *h = n + 1;
                        height_count[n + 1] += 1;
                    }
                }
            }
            if height[u.index()] >= 2 * n {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::check_flow;
    use crate::Algorithm;
    use swgraph::gen;
    use swgraph::FlowNetworkBuilder;

    #[test]
    fn clrs_network_value() {
        let mut b = FlowNetworkBuilder::new(6);
        b.add_edge(0, 1, 16);
        b.add_edge(0, 2, 13);
        b.add_edge(1, 2, 10);
        b.add_edge(2, 1, 4);
        b.add_edge(1, 3, 12);
        b.add_edge(3, 2, 9);
        b.add_edge(2, 4, 14);
        b.add_edge(4, 3, 7);
        b.add_edge(3, 5, 20);
        b.add_edge(4, 5, 4);
        let net = b.build();
        let f = Algorithm::PushRelabel.run(&net, VertexId::new(0), VertexId::new(5));
        assert_eq!(f.value, 23);
    }

    #[test]
    fn matches_dinic_on_random_graphs() {
        for seed in 0..15 {
            let edges = gen::erdos_renyi(30, 90, seed);
            let net = FlowNetwork::from_undirected_unit(30, &edges);
            let s = VertexId::new(0);
            let t = VertexId::new(29);
            let pr = Algorithm::PushRelabel.run(&net, s, t);
            let d = Algorithm::Dinic.run(&net, s, t);
            assert_eq!(pr.value, d.value, "seed {seed}");
        }
    }

    #[test]
    fn flow_function_is_valid() {
        let edges = gen::barabasi_albert(100, 3, 4);
        let net = FlowNetwork::from_undirected_unit(100, &edges);
        let s = VertexId::new(0);
        let t = VertexId::new(99);
        let f = Algorithm::PushRelabel.run(&net, s, t);
        check_flow(&net, s, t, &f).unwrap();
    }

    #[test]
    fn degenerate_cases() {
        let net = FlowNetwork::from_undirected_unit(2, &[(0, 1)]);
        assert_eq!(
            Algorithm::PushRelabel
                .run(&net, VertexId::new(0), VertexId::new(0))
                .value,
            0
        );
        assert_eq!(
            Algorithm::PushRelabel
                .run(&net, VertexId::new(7), VertexId::new(1))
                .value,
            0
        );
    }
}
