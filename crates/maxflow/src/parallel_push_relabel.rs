//! Synchronous (bulk-parallel) Push–Relabel in shared memory, after
//! Baumstark/Blelloch/Shun: the active frontier is discharged in
//! deterministic pulses — every worker plans pushes and relabels against
//! the *round-start* state into private per-chunk buffers, and the
//! buffers are applied in frontier order between pulses. The result is
//! bit-identical for any thread count.
//!
//! Heuristics match the sequential twin
//! ([`Algorithm::PushRelabel`](crate::Algorithm::PushRelabel)): exact
//! heights from a periodic global relabeling (reverse BFS from the sink,
//! then from the source for the excess-return phase — itself run as a
//! chunked parallel BFS) plus gap relabeling between pulses, so the two
//! solvers differ only in scheduling.
//!
//! No shared cell is ever written concurrently: each directed edge is
//! planned only by its unique tail, chunk outputs are private, and the
//! apply phase is sequential — lock-free by construction, with the
//! [`ffmr_sync`] primitives (one `RwLock` over the solver state, a
//! `Mutex`+`Condvar` chunk board) coordinating the workers.
//!
//! One entry drives the schedule and returns the same
//! `(FlowResult, SolveReport)` shape as every other solver: [`solve`],
//! which borrows the network and spawns scoped workers for the call.
//!
//! # Example
//! ```
//! use maxflow::{parallel_push_relabel, Cancel};
//! use swgraph::{FlowNetwork, VertexId};
//! let net = FlowNetwork::from_undirected_unit(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]);
//! let (s, t) = (VertexId::new(0), VertexId::new(3));
//! let (flow, report) = parallel_push_relabel::solve(&net, s, t, 2, &Cancel::never()).unwrap();
//! assert_eq!(flow.value, 2);
//! assert!(report.global_relabels >= 1);
//! ```

use ffmr_sync::{Condvar, Mutex, RwLock};
use swgraph::{Capacity, EdgeId, FlowNetwork, VertexId};

use crate::cancel::{Cancel, Cancelled};
use crate::report::SolveReport;
use crate::residual::FlowResult;

/// Work (edges scanned + weighted relabels) between global relabelings,
/// as a multiple of `n + m` — the same budget the sequential twin uses.
const GLOBAL_RELABEL_FACTOR: u64 = 3;

/// Frontier slice each discharge/BFS chunk covers. Fixed (and in
/// particular independent of the thread count) so the chunk decomposition
/// — and with it the apply order — never changes with parallelism.
const CHUNK: usize = 128;

/// Work-counter charge for one relabel (edges scanned charge 1 each).
const RELABEL_WORK: u64 = 12;

/// Computes the maximum `s`–`t` flow on `threads` scoped workers spawned
/// for this call (`threads <= 1` runs the identical pulse schedule
/// inline). The flow — value *and* per-edge assignment — and the report
/// are independent of `threads`. `cancel` is polled before every pulse
/// and every global-relabel BFS level, by the coordinator only.
pub fn solve(
    net: &FlowNetwork,
    s: VertexId,
    t: VertexId,
    threads: usize,
    cancel: &Cancel,
) -> Result<(FlowResult, SolveReport), Cancelled> {
    if is_degenerate(net, s, t) {
        return Ok(zero_flow(net));
    }
    let state = RwLock::new(State::new(net, s, t));
    if threads <= 1 {
        return Solver::new(net, s, t, &state).solve(&mut inline_executor(net, &state), cancel);
    }
    let board = Board::new();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| board.work(|job, i| compute_chunk(net, &state.read(), job, i)));
        }
        let out = Solver::new(net, s, t, &state).solve(&mut |job| board.execute(job), cancel);
        board.shutdown();
        out
    })
}

/// No flow can exist: identical or out-of-range terminals.
fn is_degenerate(net: &FlowNetwork, s: VertexId, t: VertexId) -> bool {
    let n = net.num_vertices();
    s == t || s.index() >= n || t.index() >= n
}

fn zero_flow(net: &FlowNetwork) -> (FlowResult, SolveReport) {
    let flows = vec![0; net.num_directed_edges()];
    (FlowResult { value: 0, flows }, SolveReport::default())
}

/// Solver state shared read-only with workers during a job and mutated
/// exclusively by the coordinator between jobs.
struct State {
    /// Per-directed-edge flow, skew-symmetric like [`crate::Residual`].
    flow: Vec<Capacity>,
    excess: Vec<Capacity>,
    height: Vec<u32>,
    /// Active vertices for the current discharge pulse, ascending.
    frontier: Vec<u32>,
    /// Current BFS level during a global relabeling.
    bfs_frontier: Vec<u32>,
    /// BFS distance scratch (`u32::MAX` = unreached).
    dist: Vec<u32>,
}

impl State {
    fn new(net: &FlowNetwork, s: VertexId, t: VertexId) -> Self {
        let n = net.num_vertices();
        let mut st = Self {
            flow: vec![0; net.num_directed_edges()],
            excess: vec![0; n],
            height: vec![0; n],
            frontier: Vec::new(),
            bfs_frontier: Vec::new(),
            dist: vec![u32::MAX; n],
        };
        // Saturate every source edge; terminal excess is untracked (it
        // is never read, and could overflow with several unbounded
        // terminal edges).
        for e in net.out_edges(s) {
            let cap = net.capacity(e);
            if cap > 0 {
                st.flow[e.index()] += cap;
                st.flow[e.reverse().index()] -= cap;
                let v = net.head(e);
                if v != s && v != t {
                    st.excess[v.index()] += cap;
                }
            }
        }
        st
    }

    fn residual(&self, net: &FlowNetwork, e: EdgeId) -> Capacity {
        net.capacity(e) - self.flow[e.index()]
    }
}

/// What one dispatched job asks the workers to compute.
#[derive(Debug, Clone, Copy)]
enum JobKind {
    /// Plan pushes/relabels for `state.frontier` chunks.
    Discharge,
    /// Expand `state.bfs_frontier` one level over reverse residual arcs.
    BfsExpand,
}

/// One parallel job: `chunks` slices of the relevant frontier.
#[derive(Debug, Clone, Copy)]
struct Job {
    kind: JobKind,
    chunks: usize,
}

/// Private output of one chunk, applied sequentially in chunk order.
#[derive(Debug, Default)]
struct ChunkOut {
    /// Planned pushes `(edge, amount)`; each edge appears at most once
    /// across all chunks because only its tail plans it.
    pushes: Vec<(EdgeId, Capacity)>,
    /// Planned relabels `(vertex, round-start height, new height)`.
    relabels: Vec<(u32, u32, u32)>,
    /// Edges scanned (the global-relabel trigger currency).
    work: u64,
    /// BFS: vertices adjacent to this chunk's slice (pre-dedup).
    candidates: Vec<u32>,
}

/// The chunk board: the coordinator posts a [`Job`], workers claim chunk
/// indices until they run out, and the last finished chunk wakes the
/// coordinator. The workers borrow the network and state from the
/// coordinator's stack.
struct Board {
    slot: Mutex<BoardSlot>,
    /// Workers wait here for a new job (or shutdown).
    work_ready: Condvar,
    /// The coordinator waits here for its last chunk.
    job_done: Condvar,
}

struct BoardSlot {
    posted: Option<Posted>,
    shutdown: bool,
}

/// A posted job and its chunks' progress.
struct Posted {
    job: Job,
    next_chunk: usize,
    remaining: usize,
    outputs: Vec<Option<ChunkOut>>,
}

impl Board {
    fn new() -> Self {
        Self {
            slot: Mutex::new(BoardSlot {
                posted: None,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            job_done: Condvar::new(),
        }
    }

    /// Posts `job`, blocks until every chunk is computed, and returns
    /// the outputs in chunk order.
    fn execute(&self, job: Job) -> Vec<ChunkOut> {
        if job.chunks == 0 {
            return Vec::new();
        }
        let mut slot = self.slot.lock();
        debug_assert!(slot.posted.is_none(), "one coordinator per board");
        slot.posted = Some(Posted {
            job,
            next_chunk: 0,
            remaining: job.chunks,
            outputs: (0..job.chunks).map(|_| None).collect(),
        });
        self.work_ready.notify_all();
        while slot.posted.as_ref().is_some_and(|p| p.remaining > 0) {
            self.job_done.wait(&mut slot);
        }
        let done = slot.posted.take().expect("slot owned by the coordinator");
        done.outputs
            .into_iter()
            .map(|o| o.expect("every chunk produced output"))
            .collect()
    }

    fn shutdown(&self) {
        self.slot.lock().shutdown = true;
        self.work_ready.notify_all();
    }

    /// Body of one worker: claim a chunk, `compute` it, deposit the
    /// output, repeat; park between jobs and return on shutdown. A
    /// claimed chunk pins its job on the board (the coordinator cannot
    /// observe `remaining == 0` until every claim is deposited), so the
    /// deposit always finds the job it claimed from.
    fn work(&self, compute: impl Fn(Job, usize) -> ChunkOut) {
        loop {
            let (job, index) = {
                let mut slot = self.slot.lock();
                loop {
                    if slot.shutdown {
                        return;
                    }
                    if let Some(p) = slot.posted.as_mut() {
                        if p.next_chunk < p.job.chunks {
                            let index = p.next_chunk;
                            p.next_chunk += 1;
                            break (p.job, index);
                        }
                    }
                    self.work_ready.wait(&mut slot);
                }
            };
            let out = compute(job, index);
            let mut slot = self.slot.lock();
            let p = slot.posted.as_mut().expect("claimed chunk pins its job");
            p.outputs[index] = Some(out);
            p.remaining -= 1;
            if p.remaining == 0 {
                self.job_done.notify_all();
            }
        }
    }
}

/// Single-threaded executor: computes every chunk inline, in order.
fn inline_executor<'a>(
    net: &'a FlowNetwork,
    state: &'a RwLock<State>,
) -> impl FnMut(Job) -> Vec<ChunkOut> + 'a {
    move |job| {
        let st = state.read();
        (0..job.chunks)
            .map(|i| compute_chunk(net, &st, job, i))
            .collect()
    }
}

fn compute_chunk(net: &FlowNetwork, st: &State, job: Job, index: usize) -> ChunkOut {
    let mut out = ChunkOut::default();
    match job.kind {
        JobKind::Discharge => {
            let lo = index * CHUNK;
            let hi = (lo + CHUNK).min(st.frontier.len());
            for &u in &st.frontier[lo..hi] {
                plan_discharge(net, st, u, &mut out);
            }
        }
        JobKind::BfsExpand => {
            let lo = index * CHUNK;
            let hi = (lo + CHUNK).min(st.bfs_frontier.len());
            for &w in &st.bfs_frontier[lo..hi] {
                // Reverse residual arcs into `w`: out-edge `e` of `w`
                // pairs with `e.reverse()`, the arc `head(e) → w`.
                for e in net.out_edges(VertexId::new(u64::from(w))) {
                    out.work += 1;
                    if st.residual(net, e.reverse()) > 0 {
                        let x = net.head(e);
                        if st.dist[x.index()] == u32::MAX {
                            out.candidates.push(x.index() as u32);
                        }
                    }
                }
            }
        }
    }
    out
}

/// Plans one active vertex's pulse against the round-start state:
/// saturating pushes down every admissible arc while excess lasts, and
/// a relabel proposal if excess remains. Writes only into `out`.
fn plan_discharge(net: &FlowNetwork, st: &State, u: u32, out: &mut ChunkOut) {
    let ui = u as usize;
    let mut remaining = st.excess[ui];
    debug_assert!(
        remaining > 0,
        "frontier holds only positive-excess vertices"
    );
    let hu = st.height[ui];
    let mut min_h = u32::MAX;
    for e in net.out_edges(VertexId::new(u64::from(u))) {
        out.work += 1;
        let rc = st.residual(net, e);
        if rc <= 0 {
            continue;
        }
        let hv = st.height[net.head(e).index()];
        if hu == hv + 1 {
            let amount = rc.min(remaining);
            remaining -= amount;
            out.pushes.push((e, amount));
            if remaining == 0 {
                // All excess placed: no relabel, and the residual min
                // is irrelevant — stop scanning.
                return;
            }
        } else {
            min_h = min_h.min(hv);
        }
    }
    // Excess remains, so every admissible arc above was saturated; the
    // surviving residual arcs all point at `min_h >= hu`, making the
    // proposal a strict increase.
    if min_h != u32::MAX {
        out.relabels.push((u, hu, min_h.saturating_add(1)));
    }
}

/// The pulse-loop coordinator. Owns the bookkeeping the apply phase
/// needs (height counts for the gap heuristic, scratch bitmaps) and
/// drives jobs through an executor closure — the board or the inline
/// runner — so the schedule is one piece of code for any thread count.
struct Solver<'a> {
    net: &'a FlowNetwork,
    s: VertexId,
    t: VertexId,
    n: usize,
    state: &'a RwLock<State>,
    /// Vertices per height, for the gap heuristic.
    height_count: Vec<usize>,
    /// Scratch: vertex received a push in the pulse being applied.
    received: Vec<bool>,
    /// Scratch: vertex already queued for the next frontier.
    queued: Vec<bool>,
    /// Work since the last global relabeling.
    work_since_relabel: u64,
    /// Work threshold that triggers the next global relabeling.
    relabel_threshold: u64,
    report: SolveReport,
}

type Executor<'e> = dyn FnMut(Job) -> Vec<ChunkOut> + 'e;

impl<'a> Solver<'a> {
    fn new(net: &'a FlowNetwork, s: VertexId, t: VertexId, state: &'a RwLock<State>) -> Self {
        let n = net.num_vertices();
        let m = net.num_directed_edges();
        Self {
            net,
            s,
            t,
            n,
            state,
            height_count: vec![0; 2 * n + 1],
            received: vec![false; n],
            queued: vec![false; n],
            work_since_relabel: 0,
            relabel_threshold: GLOBAL_RELABEL_FACTOR * (n + m) as u64,
            report: SolveReport::default(),
        }
    }

    fn solve(
        mut self,
        run: &mut Executor<'_>,
        cancel: &Cancel,
    ) -> Result<(FlowResult, SolveReport), Cancelled> {
        self.report.cancel_polls += 1;
        cancel.check()?;
        self.global_relabel(run, cancel)?;
        self.rebuild_frontier();
        loop {
            self.report.cancel_polls += 1;
            cancel.check()?;
            if self.state.read().frontier.is_empty() {
                break;
            }
            if self.work_since_relabel >= self.relabel_threshold {
                self.global_relabel(run, cancel)?;
                self.refilter_frontier();
                if self.state.read().frontier.is_empty() {
                    break;
                }
            }
            self.pulse(run);
            self.report.phases += 1;
        }
        let mut st = self.state.write();
        let value = self.net.out_edges(self.s).map(|e| st.flow[e.index()]).sum();
        let flows = std::mem::take(&mut st.flow);
        Ok((FlowResult { value, flows }, self.report))
    }

    /// One bulk-synchronous pulse: parallel planning over the frontier,
    /// then the sequential apply (pushes, then relabels + gap lifts),
    /// then the next frontier.
    fn pulse(&mut self, run: &mut Executor<'_>) {
        let chunks = {
            let st = self.state.read();
            st.frontier.len().div_ceil(CHUNK)
        };
        let outputs = run(Job {
            kind: JobKind::Discharge,
            chunks,
        });
        self.apply(&outputs);
    }

    /// Applies one pulse's buffered outputs in chunk order. Pushes land
    /// first (each planned against round-start residuals by its unique
    /// tail, so no arc over-subscribes); relabels follow, clamped to
    /// `round-start + 2` for push receivers — the newly created reverse
    /// arc back to a pusher at `h+1` caps how far the receiver may rise
    /// this pulse — and skipped entirely if a gap lift got there first.
    fn apply(&mut self, outputs: &[ChunkOut]) {
        let mut st = self.state.write();
        let st = &mut *st;
        let (si, ti) = (self.s.index(), self.t.index());
        let mut receivers: Vec<u32> = Vec::new();
        for out in outputs {
            self.work_since_relabel += out.work;
            for &(e, amount) in &out.pushes {
                debug_assert!(amount <= self.net.capacity(e) - st.flow[e.index()]);
                st.flow[e.index()] += amount;
                st.flow[e.reverse().index()] -= amount;
                let u = self.net.tail(e).index();
                let v = self.net.head(e).index();
                st.excess[u] -= amount;
                debug_assert!(st.excess[u] >= 0);
                if v != si && v != ti {
                    st.excess[v] += amount;
                    if !self.received[v] {
                        self.received[v] = true;
                        receivers.push(v as u32);
                    }
                }
                self.report.pushes += 1;
            }
        }
        let cap = (2 * self.n) as u32;
        for out in outputs {
            for &(u, old, proposal) in &out.relabels {
                let ui = u as usize;
                if st.height[ui] != old {
                    // A gap lift in this same apply already raised the
                    // vertex; the stale proposal no longer applies.
                    continue;
                }
                let mut new = proposal.min(cap);
                if self.received[ui] {
                    new = new.min(old + 2);
                }
                if new <= old {
                    continue;
                }
                self.height_count[old as usize] -= 1;
                self.height_count[new as usize] += 1;
                st.height[ui] = new;
                self.report.relabels += 1;
                self.work_since_relabel += RELABEL_WORK;
                if self.height_count[old as usize] == 0 && (old as usize) < self.n {
                    gap_lift(st, &mut self.height_count, self.n, old, si);
                }
            }
        }
        // Next frontier: pulse survivors plus push receivers, dedup'd
        // and sorted so the chunk decomposition stays canonical.
        let old_frontier = std::mem::take(&mut st.frontier);
        let mut next: Vec<u32> = Vec::with_capacity(old_frontier.len() + receivers.len());
        for &u in old_frontier.iter().chain(receivers.iter()) {
            let ui = u as usize;
            if !self.queued[ui] && st.excess[ui] > 0 && st.height[ui] < cap {
                self.queued[ui] = true;
                next.push(u);
            }
        }
        next.sort_unstable();
        for &u in &next {
            self.queued[u as usize] = false;
        }
        for &v in &receivers {
            self.received[v as usize] = false;
        }
        st.frontier = next;
    }

    /// Exact heights by two chunked reverse BFS waves: distance to `t`
    /// over residual arcs for the sink-reaching side, then `n +`
    /// distance to `s` for everyone else (the excess-return phase);
    /// unreached by both parks at `2n`. `s` stays pinned at `n`, `t` at
    /// `0`. Labels only ever increase (heights are valid lower bounds
    /// on the exact distances), so the relabel discipline is preserved.
    fn global_relabel(&mut self, run: &mut Executor<'_>, cancel: &Cancel) -> Result<(), Cancelled> {
        let n = self.n;
        let (si, ti) = (self.s.index(), self.t.index());
        let dist_t = self.reverse_bfs(run, self.t, si, cancel)?;
        let dist_s = self.reverse_bfs(run, self.s, ti, cancel)?;
        let mut st = self.state.write();
        self.height_count.iter_mut().for_each(|c| *c = 0);
        for v in 0..n {
            let h = if v == si {
                n as u32
            } else if v == ti {
                0
            } else if dist_t[v] != u32::MAX {
                dist_t[v]
            } else if dist_s[v] != u32::MAX {
                n as u32 + dist_s[v]
            } else {
                (2 * n) as u32
            };
            debug_assert!(h >= st.height[v], "global relabeling never lowers");
            st.height[v] = h;
            self.height_count[h as usize] += 1;
        }
        self.work_since_relabel = 0;
        self.report.global_relabels += 1;
        Ok(())
    }

    /// Level-synchronous reverse BFS from `root` over residual arcs
    /// (`x` joins level `k+1` when the arc `x → w` has residual capacity
    /// for some level-`k` vertex `w`), chunked through the executor.
    /// `skip` (the opposite terminal) is never entered.
    fn reverse_bfs(
        &mut self,
        run: &mut Executor<'_>,
        root: VertexId,
        skip: usize,
        cancel: &Cancel,
    ) -> Result<Vec<u32>, Cancelled> {
        {
            let mut st = self.state.write();
            st.dist.iter_mut().for_each(|d| *d = u32::MAX);
            st.dist[root.index()] = 0;
            st.bfs_frontier.clear();
            st.bfs_frontier.push(root.index() as u32);
        }
        let mut level = 0u32;
        loop {
            self.report.cancel_polls += 1;
            cancel.check()?;
            let chunks = {
                let st = self.state.read();
                st.bfs_frontier.len().div_ceil(CHUNK)
            };
            if chunks == 0 {
                break;
            }
            let outputs = run(Job {
                kind: JobKind::BfsExpand,
                chunks,
            });
            level += 1;
            let mut st = self.state.write();
            st.bfs_frontier.clear();
            let st = &mut *st;
            for out in &outputs {
                for &x in &out.candidates {
                    let xi = x as usize;
                    if xi != skip && st.dist[xi] == u32::MAX {
                        st.dist[xi] = level;
                        st.bfs_frontier.push(x);
                    }
                }
            }
        }
        Ok(self.state.read().dist.clone())
    }

    /// Initial frontier: every positive-excess non-terminal.
    fn rebuild_frontier(&mut self) {
        let mut st = self.state.write();
        let cap = (2 * self.n) as u32;
        let (si, ti) = (self.s.index(), self.t.index());
        let st = &mut *st;
        let (excess, height) = (&st.excess, &st.height);
        let next: Vec<u32> = (0..self.n)
            .filter(|&v| v != si && v != ti && excess[v] > 0 && height[v] < cap)
            .map(|v| v as u32)
            .collect();
        st.frontier = next;
    }

    /// Drops frontier entries a global relabeling pushed to `2n`.
    fn refilter_frontier(&mut self) {
        let mut st = self.state.write();
        let cap = (2 * self.n) as u32;
        let st = &mut *st;
        let height = &st.height;
        st.frontier.retain(|&u| height[u as usize] < cap);
    }
}

/// The gap heuristic: `old` just became unoccupied below `n`, so no
/// vertex strictly above it (and below `n`) can reach the sink any
/// more — lift them all past `n` in one sweep. Validity is preserved
/// because any residual arc out of a lifted vertex points at another
/// vertex above the gap (itself lifted or already at `>= n`).
fn gap_lift(st: &mut State, height_count: &mut [usize], n: usize, old: u32, s_index: usize) {
    for (w, h) in st.height.iter_mut().enumerate() {
        if *h > old && (*h as usize) < n && w != s_index {
            height_count[*h as usize] -= 1;
            *h = (n + 1) as u32;
            height_count[n + 1] += 1;
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

    fn solve_on(
        net: &FlowNetwork,
        s: VertexId,
        t: VertexId,
        threads: usize,
    ) -> (FlowResult, SolveReport) {
        solve(net, s, t, threads, &Cancel::never()).expect("never-cancel solve cannot fail")
    }

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
        for threads in [1, 2, 8] {
            let (flow, _) = solve_on(&net, VertexId::new(0), VertexId::new(5), threads);
            assert_eq!(flow.value, 23, "threads={threads}");
            check_flow(&net, VertexId::new(0), VertexId::new(5), &flow).unwrap();
        }
    }

    #[test]
    fn agrees_with_dinic_on_random_graphs() {
        for seed in 0..15 {
            let edges = gen::erdos_renyi(30, 90, seed);
            let net = FlowNetwork::from_undirected_unit(30, &edges);
            let s = VertexId::new(0);
            let t = VertexId::new(29);
            let f = Algorithm::ParallelPushRelabel.run(&net, s, t);
            let d = Algorithm::Dinic.run(&net, s, t);
            assert_eq!(f.value, d.value, "seed {seed}");
            check_flow(&net, s, t, &f).unwrap();
        }
    }

    #[test]
    fn flow_assignment_is_thread_count_invariant() {
        let edges = gen::barabasi_albert(300, 3, 9);
        let net = FlowNetwork::from_undirected_unit(300, &edges);
        let s = VertexId::new(0);
        let t = VertexId::new(299);
        let (reference, reference_report) = solve_on(&net, s, t, 1);
        check_flow(&net, s, t, &reference).unwrap();
        for threads in [2, 3, 8] {
            let (flow, report) = solve_on(&net, s, t, threads);
            assert_eq!(
                flow, reference,
                "threads={threads}: full per-edge assignment must match"
            );
            assert_eq!(report, reference_report, "threads={threads}");
        }
    }

    #[test]
    fn report_reflects_the_run() {
        let edges = gen::watts_strogatz(200, 4, 0.2, 3);
        let net = FlowNetwork::from_undirected_unit(200, &edges);
        let (flow, report) = solve_on(&net, VertexId::new(0), VertexId::new(199), 2);
        assert!(flow.value > 0);
        assert!(report.phases > 0);
        assert!(report.pushes > 0);
        assert!(report.global_relabels >= 1, "initial relabel counted");
    }

    #[test]
    fn degenerate_cases() {
        let net = FlowNetwork::from_undirected_unit(2, &[(0, 1)]);
        let value = |s, t| {
            solve_on(&net, VertexId::new(s), VertexId::new(t), 2)
                .0
                .value
        };
        assert_eq!(value(0, 0), 0);
        assert_eq!(value(7, 1), 0);
        assert_eq!(value(0, 9), 0);
    }

    #[test]
    fn disconnected_terminals_yield_zero() {
        // Two components: s in one, t in the other.
        let net = FlowNetwork::from_undirected_unit(4, &[(0, 1), (2, 3)]);
        let (flow, _) = solve_on(&net, VertexId::new(0), VertexId::new(3), 2);
        assert_eq!(flow.value, 0);
        check_flow(&net, VertexId::new(0), VertexId::new(3), &flow).unwrap();
    }

    #[test]
    fn expired_deadline_cancels_scoped_and_inline() {
        let edges = gen::barabasi_albert(200, 3, 5);
        let net = FlowNetwork::from_undirected_unit(200, &edges);
        let expired = Cancel::after(std::time::Duration::from_secs(0));
        for threads in [1, 2] {
            assert_eq!(
                solve(
                    &net,
                    VertexId::new(0),
                    VertexId::new(199),
                    threads,
                    &expired
                ),
                Err(Cancelled),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn directed_asymmetric_capacities() {
        let mut b = FlowNetworkBuilder::new(4);
        b.add_edge(0, 1, 7);
        b.add_edge(1, 2, 3);
        b.add_edge(1, 3, 5);
        b.add_edge(2, 3, 9);
        let net = b.build();
        let (f, _) = solve_on(&net, VertexId::new(0), VertexId::new(3), 2);
        assert_eq!(f.value, 7);
        check_flow(&net, VertexId::new(0), VertexId::new(3), &f).unwrap();
    }
}
