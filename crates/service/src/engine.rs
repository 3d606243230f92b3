//! The query engine: routes each request to the right solver and
//! memoizes answers.
//!
//! Every snapshot is one resident [`FlowNetwork`], so every query is
//! answered in memory; the paper's MapReduce driver is `ffmr maxflow
//! --algorithm ff1..ff5`, not a daemon route.
//!
//! A plain `maxflow` query (no `w`, `algorithm auto`) has one route:
//!
//! 1. the snapshot's Gomory–Hu [`CutTree`](maxflow::cut_tree::CutTree),
//!    once the store has built it: a walk of a few tree edges, answered
//!    with `plan tree`, `solver tree` by [`QueryEngine::execute_cached`]
//!    on the connection thread, and never read from or written to the
//!    cache;
//! 2. otherwise (snapshots with one-way capacities, and any query that
//!    arrives before the tree is ready) [`maxflow::local`] on the
//!    snapshot's own network: a bidirectional augmenting-path search
//!    that stops once the flow reaches `min(capacity out of s, capacity
//!    into t)` (that cut certifies it) or no path is left. Its answers
//!    carry the solver label `local`;
//! 3. otherwise — the search gave up past its work budget of a few
//!    passes over the arcs — [`FALLBACK`], sequential push-relabel.
//!
//! `mincut` and `w` queries go straight to step 3, and an explicit
//! `algorithm` value (`push-relabel`, `dinic`, `parallel-pr`) pins any
//! [`Algorithm`] instead. Every solve runs on the engine's one
//! [`SolverThread`], and every answer but the tree's is `plan full`.
//! Every response carries the chosen solver so clients can see what
//! answered a query. Both the tree and the search are the
//! structure-aware lesson of Bläsius/Friedrich/Weyand: on small-world
//! graphs most cuts sit at a terminal.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use ffmr_obs::{QueryProfile, SlowLog};
use maxflow::cut_tree;
use maxflow::local::{self, Certificate, LocalSearch};
use maxflow::{Algorithm, Cancel, SolveReport, SolverThread};
use swgraph::{FlowNetwork, VertexId};

use crate::cache::{CacheKey, CacheStats, CachedAnswer, FlowCache, QueryKind};
use crate::protocol::{error_response, status, Message};
use crate::store::{CutTreeStatus, GraphStore};

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Ignored: every query is solved in memory. Kept only until the
    /// `perfbench` harness, which still sets it, stops doing so.
    pub mr_threshold_vertices: usize,
    /// Ignored: every solve runs on the engine's one solver thread. Kept
    /// only until the `perfbench` harness, which still sets it, stops
    /// doing so.
    pub worker_threads: Option<usize>,
    /// Flow-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Per-query deadline when the request names none.
    pub default_timeout: Duration,
    /// Minimum degree for super-terminal selection (`--w` queries).
    pub super_min_degree: usize,
    /// Default selection seed for super-terminal queries.
    pub super_seed: u64,
    /// Queries whose end-to-end wall time (queue wait included) meets
    /// or exceeds this land in the slow-query ring served by the
    /// `slowlog` verb.
    pub slow_query_threshold: Duration,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            mr_threshold_vertices: 2_000,
            worker_threads: None,
            cache_capacity: 256,
            default_timeout: Duration::from_secs(30),
            super_min_degree: 3,
            super_seed: 42,
            slow_query_threshold: Duration::from_millis(250),
        }
    }
}

/// Executes protocol requests against a [`GraphStore`] and [`FlowCache`].
#[derive(Debug)]
pub struct QueryEngine {
    store: Arc<GraphStore>,
    cache: FlowCache,
    config: EngineConfig,
    /// The one thread every solve runs on, pinned or not.
    solver: SolverThread,
    /// Scratch for [`maxflow::local`] searches, one per engine thread
    /// searching at once: each is n-sized and reused, so a cold query
    /// allocates no graph-sized memory before the solve.
    local: Mutex<Vec<LocalSearch>>,
    /// Queries currently being solved, keyed by their cache key. A
    /// duplicate arriving while the leader is still solving waits for
    /// the leader's answer instead of solving again (single-flight).
    inflight: Mutex<HashMap<CacheKey, Arc<InflightSlot>>>,
    /// The per-query flight recorder: profiles of queries over
    /// [`EngineConfig::slow_query_threshold`], served by the `slowlog`
    /// verb. Capacity honors `FFMR_SLOWLOG_CAP`.
    slowlog: SlowLog,
}

/// Rendezvous for queries coalesced onto one in-flight solve.
#[derive(Debug)]
struct InflightSlot {
    /// `None` while the leader is solving; the final result after.
    done: Mutex<Option<Result<CachedAnswer, String>>>,
    ready: Condvar,
}

/// Whether this query leads the solve or follows an identical one.
enum InflightRole {
    Lead(Arc<InflightSlot>),
    Follow(Arc<InflightSlot>),
}

/// The solver an unpinned query falls back to when the local search does
/// not apply or gives up.
const FALLBACK: Algorithm = Algorithm::PushRelabel;

/// The `plan` of an answer read off the snapshot's cut tree.
const PLAN_TREE: &str = "tree";

/// The `plan` of every other answer: solved on the whole graph.
const PLAN_FULL: &str = "full";

/// Parses a request's `algorithm` field; `None` is `auto` (the default):
/// the cut tree or the local search where they apply, then [`FALLBACK`].
fn parse_algorithm(name: Option<&str>) -> Result<Option<Algorithm>, String> {
    let Some(name) = name.filter(|&n| n != "auto") else {
        return Ok(None);
    };
    name.parse().map(Some).map_err(|_| {
        let accepted: Vec<&str> = std::iter::once("auto").chain(Algorithm::names()).collect();
        format!(
            "unknown algorithm '{name}' (expected one of: {})",
            accepted.join(", ")
        )
    })
}

/// The per-request options of a flow query, parsed once.
struct QueryOptions {
    kind: QueryKind,
    /// The pinned solver, or `None` for `algorithm auto`.
    requested: Option<Algorithm>,
    use_cache: bool,
    timeout: Duration,
}

impl QueryOptions {
    fn parse(request: &Message, kind: QueryKind, config: &EngineConfig) -> Result<Self, String> {
        let timeout_ms: Option<u64> = request.get_parsed("timeout-ms")?;
        Ok(Self {
            kind,
            requested: parse_algorithm(request.get("algorithm"))?,
            use_cache: request.get("no-cache").is_none(),
            timeout: timeout_ms.map_or(config.default_timeout, Duration::from_millis),
        })
    }
}

/// A flow query up to its cache lookup ([`QueryEngine::prepare`]).
struct PreparedQuery {
    snap: Arc<crate::store::Snapshot>,
    resolved: ResolvedQuery,
    opts: QueryOptions,
    key: CacheKey,
}

/// The resolved terminals of a query: either the literal `s`/`t` pair or
/// a super source/sink construction over high-degree terminal sets.
struct ResolvedQuery {
    /// Network to solve on. A plain `s→t` query shares the snapshot's
    /// own `Arc` (no copy); only a `--w` query materializes a new
    /// (super-terminal-augmented) network.
    net: Arc<FlowNetwork>,
    source: VertexId,
    sink: VertexId,
    /// Canonical terminal vertex sets for the cache key.
    source_terminals: Vec<u64>,
    sink_terminals: Vec<u64>,
    /// Whether the terminals are a super source/sink construction.
    super_st: bool,
}

impl QueryEngine {
    /// Creates an engine over `store`.
    #[must_use]
    pub fn new(store: Arc<GraphStore>, config: EngineConfig) -> Self {
        Self {
            cache: FlowCache::new(config.cache_capacity),
            store,
            config,
            solver: SolverThread::spawn(),
            local: Mutex::new(Vec::new()),
            inflight: Mutex::new(HashMap::new()),
            slowlog: SlowLog::from_env(),
        }
    }

    /// The slow-query ring (install a JSONL sink here to persist
    /// over-threshold profiles).
    #[must_use]
    pub fn slowlog(&self) -> &SlowLog {
        &self.slowlog
    }

    /// The backing store (shared with admin paths).
    #[must_use]
    pub fn store(&self) -> &Arc<GraphStore> {
        &self.store
    }

    /// Cache observability counters.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Executes one request, returning the response message. Never
    /// panics on malformed input — protocol errors become `error`
    /// responses.
    #[must_use]
    pub fn execute(&self, request: &Message) -> Message {
        let started = Instant::now();
        let mut span = ffmr_obs::span("query");
        span.field("verb", &request.head);
        let result = match request.head.as_str() {
            "ping" => Ok(Message::new(status::OK).field("pong", 1)),
            "list" => Ok(self.list()),
            "stats" => self.stats(request),
            "slowlog" => self.slowlog_verb(request),
            "load" => self.load(request),
            "reload" => self.reload(request),
            "maxflow" => self.flow_query(request, QueryKind::MaxFlow),
            "mincut" => self.flow_query(request, QueryKind::MinCut),
            "sleep" => self.sleep(request),
            other => Err(format!("unknown request '{other}'")),
        };
        finish_request(request, started, span, result)
    }

    /// Answers a `maxflow`/`mincut` request without a solver: the reply
    /// [`execute`](Self::execute) would send when the snapshot's cut
    /// tree answers it or the flow cache hits, or `None` for anything
    /// else — a miss, `no-cache` before the tree is ready, a `w` query
    /// (its resolution copies the graph), another verb, a malformed
    /// request — which the caller then sends through `execute`. Only
    /// hits are counted here, so the cache's miss count stays one per
    /// query. No solver runs and no graph-sized memory is touched, which
    /// is what lets the server answer these on its connection threads.
    #[must_use]
    pub fn execute_cached(&self, request: &Message) -> Option<Message> {
        let kind = match request.head.as_str() {
            "maxflow" => QueryKind::MaxFlow,
            "mincut" => QueryKind::MinCut,
            _ => return None,
        };
        if request.get("w").is_some() {
            return None;
        }
        let started = Instant::now();
        let mut prof = new_profile(request);
        let response = self.inline_reply(request, kind, &mut prof)?;
        let mut span = ffmr_obs::span("query");
        span.field("verb", &request.head);
        let result = self.close_profile(request, started, prof, Ok(response));
        Some(finish_request(request, started, span, result))
    }

    fn list(&self) -> Message {
        let mut response = Message::new(status::OK);
        for (name, epoch, vertices, edges) in self.store.list() {
            response.push(
                "dataset",
                format!("{name} epoch={epoch} v={vertices} e={edges}"),
            );
        }
        response
    }

    fn stats(&self, request: &Message) -> Result<Message, String> {
        let mut response = Message::new(status::OK);
        if let Some(name) = request.get("dataset") {
            let snap = self
                .store
                .get(name)
                .ok_or_else(|| format!("unknown dataset '{name}'"))?;
            response.push("dataset", name);
            response.push("epoch", snap.epoch);
            response.push("vertices", snap.network.num_vertices());
            response.push("edge-pairs", snap.network.num_edge_pairs());
            response.push(
                "avg-degree",
                format!("{:.3}", swgraph::props::average_degree(&snap.network)),
            );
            response.push("max-degree", swgraph::props::max_degree(&snap.network));
            let status = snap.cut_tree_status();
            response.push("cut-tree", status.as_str());
            let (build_ms, depth) = match status {
                CutTreeStatus::Ready(built) => (
                    built.build_time.as_millis().to_string(),
                    built.tree.depth().to_string(),
                ),
                _ => ("-".to_string(), "-".to_string()),
            };
            response.push("cut-tree-build-ms", build_ms);
            response.push("cut-tree-depth", depth);
        }
        let cache = self.cache.stats();
        response.push("cache-hits", cache.hits);
        response.push("cache-misses", cache.misses);
        response.push("cache-entries", cache.entries);
        response.push("cache-evictions", cache.evictions);
        response.push("cache-invalidated", cache.invalidated);
        // Refresh the scrape-time gauges, then attach the full registry:
        // flat `series value` fields by default, or the Prometheus text
        // exposition as repeated one-line `prom` fields when asked
        // (values may contain spaces; lines may not contain newlines).
        let m = ffmr_obs::global();
        m.gauge("ffmr_cache_entries", &[])
            .set(i64::try_from(cache.entries).unwrap_or(i64::MAX));
        for (name, epoch, _, _) in self.store.list() {
            if let Some(snap) = self.store.get(&name) {
                m.gauge("ffmr_snapshot_epoch", &[("dataset", &name)])
                    .set(i64::try_from(epoch).unwrap_or(i64::MAX));
                m.gauge("ffmr_snapshot_age_seconds", &[("dataset", &name)])
                    .set(i64::try_from(snap.loaded_at.elapsed().as_secs()).unwrap_or(i64::MAX));
            }
        }
        if request.get("format") == Some("prometheus") {
            for line in m.render_prometheus().lines() {
                response.push("prom", line);
            }
        } else {
            for (key, value) in m.render_fields() {
                response.push(key, value);
            }
        }
        Ok(response)
    }

    /// Serves the slow-query ring: a `count` of retained entries plus
    /// up to `limit` (default 16) repeated `entry` fields, each one
    /// single-line [`QueryProfile`] JSON, newest last.
    fn slowlog_verb(&self, request: &Message) -> Result<Message, String> {
        let limit: usize = request.get_parsed("limit")?.unwrap_or(16);
        let entries = self.slowlog.snapshot();
        let mut response = Message::new(status::OK);
        response.push("count", entries.len());
        response.push("dropped", self.slowlog.dropped());
        response.push("capacity", self.slowlog.capacity());
        response.push("threshold-ms", self.config.slow_query_threshold.as_millis());
        let skip = entries.len().saturating_sub(limit);
        for profile in entries.iter().skip(skip) {
            response.push("entry", profile.to_json());
        }
        Ok(response)
    }

    fn load(&self, request: &Message) -> Result<Message, String> {
        let name = request.get("dataset").ok_or("load needs 'dataset'")?;
        let path = request.get("path").ok_or("load needs 'path'")?;
        let epoch = self
            .store
            .load_from_path(name, path)
            .map_err(|e| e.to_string())?;
        // The epoch bump already fences stale entries; the sweep frees
        // their memory immediately.
        self.cache.invalidate_dataset(name);
        let snap = self.store.get(name).expect("just loaded");
        Ok(Message::new(status::OK)
            .field("dataset", name)
            .field("epoch", epoch)
            .field("vertices", snap.network.num_vertices())
            .field("edge-pairs", snap.network.num_edge_pairs()))
    }

    fn reload(&self, request: &Message) -> Result<Message, String> {
        let name = request.get("dataset").ok_or("reload needs 'dataset'")?;
        if request.get("path").is_some() {
            // Silently ignoring the path would re-read the *recorded*
            // file — not what the caller asked for.
            return Err(
                "reload re-reads the recorded path; use 'load' to point at a new file".to_string(),
            );
        }
        let epoch = self.store.reload(name).map_err(|e| e.to_string())?;
        self.cache.invalidate_dataset(name);
        Ok(Message::new(status::OK)
            .field("dataset", name)
            .field("epoch", epoch))
    }

    /// Diagnostic: occupy a worker slot for `ms` milliseconds. Lets
    /// operators (and the test suite) probe queue-shedding behaviour
    /// without crafting an expensive graph query.
    fn sleep(&self, request: &Message) -> Result<Message, String> {
        let ms: u64 = request.get_parsed("ms")?.unwrap_or(100).min(60_000);
        std::thread::sleep(Duration::from_millis(ms));
        Ok(Message::new(status::OK).field("slept-ms", ms))
    }

    /// The profiled wrapper around the query path: assembles one
    /// [`QueryProfile`] per request (plan, plan reason, stage wall
    /// windows, solver internals), records the per-stage and
    /// deadline-budget histograms, lands over-threshold profiles in the
    /// slowlog — on the error path too, since timeouts are exactly the
    /// queries worth explaining — and echoes the profile on the
    /// response when the request carries the `explain` flag.
    fn flow_query(&self, request: &Message, kind: QueryKind) -> Result<Message, String> {
        let started = Instant::now();
        let mut prof = new_profile(request);
        let result = self.flow_query_profiled(request, kind, &mut prof);
        self.close_profile(request, started, prof, result)
    }

    /// Completes a flow query's profile: total and wall-clock stamps,
    /// outcome, stage and deadline histograms, the slowlog, and the
    /// `explain` echo on the response.
    fn close_profile(
        &self,
        request: &Message,
        started: Instant,
        mut prof: QueryProfile,
        result: Result<Message, String>,
    ) -> Result<Message, String> {
        prof.total_us = prof.queue_wait_us + elapsed_us(started);
        prof.unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX));
        match &result {
            Ok(_) => prof.outcome = "ok".to_string(),
            Err(message) => {
                prof.outcome = "error".to_string();
                prof.error = Some(message.clone());
            }
        }
        let m = ffmr_obs::global();
        for (stage, us) in prof.stages() {
            m.histogram("ffmr_query_stage_us", &[("stage", stage)])
                .record(us);
        }
        if prof.deadline_ms > 0 {
            // Percent of the deadline budget consumed before answering
            // (or dying) — the SLO headroom signal.
            m.histogram("ffmr_query_deadline_budget_pct", &[])
                .record((prof.total_us * 100) / (prof.deadline_ms * 1_000));
        }
        if prof.total_us
            >= u64::try_from(self.config.slow_query_threshold.as_micros()).unwrap_or(u64::MAX)
        {
            self.slowlog.record(prof.clone());
        }
        let mut response = result?;
        if request.get("explain").is_some() {
            // Push the pair directly: the profile line is single-line
            // by construction (its writer escapes newlines), and
            // `Message::push` would re-clone the ~300-byte string just
            // to sanitize it — measurable on the explain A/B guard.
            response
                .fields
                .push(("profile".to_string(), prof.to_json()));
        }
        Ok(response)
    }

    /// What a flow query settles before it can look in the cache: the
    /// snapshot, the resolved terminals, the options and the cache key.
    fn prepare(
        &self,
        request: &Message,
        kind: QueryKind,
        prof: &mut QueryProfile,
    ) -> Result<PreparedQuery, String> {
        let dataset = request.get("dataset").ok_or("query needs 'dataset'")?;
        let snap = self
            .store
            .get(dataset)
            .ok_or_else(|| format!("unknown dataset '{dataset}'"))?;
        prof.epoch = snap.epoch;

        let resolve_started = Instant::now();
        let resolved = self.resolve_terminals(request, &snap.network)?;
        prof.resolve_us = elapsed_us(resolve_started);
        let opts = QueryOptions::parse(request, kind, &self.config)?;
        let key = CacheKey::new(
            dataset,
            snap.epoch,
            kind,
            resolved.source_terminals.clone(),
            resolved.sink_terminals.clone(),
        );
        Ok(PreparedQuery {
            snap,
            resolved,
            opts,
            key,
        })
    }

    fn flow_query_profiled(
        &self,
        request: &Message,
        kind: QueryKind,
        prof: &mut QueryProfile,
    ) -> Result<Message, String> {
        let prepared = self.prepare(request, kind, prof)?;
        if let Some(reply) = tree_reply(&prepared, prof) {
            return Ok(reply);
        }
        let PreparedQuery {
            snap,
            resolved,
            opts,
            key,
        } = prepared;
        let dataset = snap.name.as_str();

        let use_cache = opts.use_cache;
        prof.cache = if use_cache { "miss" } else { "bypass" }.to_string();
        if use_cache {
            if let Some(hit) = self.cache.get(&key) {
                return Ok(hit_reply(&hit, kind, &resolved, dataset, snap.epoch, prof));
            }
        }
        prof.deadline_ms = u64::try_from(opts.timeout.as_millis()).unwrap_or(u64::MAX);
        prof.plan = PLAN_FULL.to_string();
        let compute = |prof: &mut QueryProfile| self.compute(&resolved, &opts, prof);

        // Single-flight: an identical cacheable query arriving while
        // another is solving waits for that answer instead of solving
        // again.
        let (answer, coalesced) = if use_cache {
            match self.join_or_lead(&key) {
                InflightRole::Lead(slot) => {
                    let result = compute(prof);
                    *slot.done.lock().expect("inflight slot") = Some(result.clone());
                    slot.ready.notify_all();
                    self.inflight.lock().expect("inflight map").remove(&key);
                    (result?, false)
                }
                InflightRole::Follow(slot) => {
                    let mut done = slot.done.lock().expect("inflight slot");
                    while done.is_none() {
                        done = slot.ready.wait(done).expect("inflight wait");
                    }
                    ffmr_obs::global()
                        .counter("ffmr_query_coalesced_total", &[])
                        .inc();
                    prof.coalesced = true;
                    prof.plan_reason = "coalesced-follower".to_string();
                    let answer = done.clone().expect("leader published")?;
                    prof.solver = answer.solver.to_string();
                    (answer, true)
                }
            }
        } else {
            (compute(prof)?, false)
        };
        prof.coalesced = coalesced;
        if use_cache && !coalesced {
            let put_started = Instant::now();
            self.cache.put(key, answer.clone());
            prof.cache_update_us += elapsed_us(put_started);
        }
        let mut response = render_answer(
            &answer, PLAN_FULL, kind, &resolved, dataset, snap.epoch, false,
        );
        push_serving_fields(&mut response, coalesced, prof.queue_wait_us);
        Ok(response)
    }

    /// The tree and cache-hit paths of
    /// [`flow_query_profiled`](Self::flow_query_profiled) on their own,
    /// for [`execute_cached`](Self::execute_cached): `None` unless the
    /// request is well formed and the tree answers it, or it uses the
    /// cache and hits.
    fn inline_reply(
        &self,
        request: &Message,
        kind: QueryKind,
        prof: &mut QueryProfile,
    ) -> Option<Message> {
        let q = self.prepare(request, kind, prof).ok()?;
        if let Some(reply) = tree_reply(&q, prof) {
            return Some(reply);
        }
        if !q.opts.use_cache {
            return None;
        }
        let hit = self.cache.get_hit(&q.key)?;
        Some(hit_reply(
            &hit,
            kind,
            &q.resolved,
            &q.snap.name,
            q.snap.epoch,
            prof,
        ))
    }

    /// Registers this query in the in-flight table, either as the leader
    /// (first arrival) or as a follower of an identical running query.
    fn join_or_lead(&self, key: &CacheKey) -> InflightRole {
        let mut inflight = self.inflight.lock().expect("inflight map");
        if let Some(slot) = inflight.get(key) {
            InflightRole::Follow(Arc::clone(slot))
        } else {
            let slot = Arc::new(InflightSlot {
                done: Mutex::new(None),
                ready: Condvar::new(),
            });
            inflight.insert(key.clone(), Arc::clone(&slot));
            InflightRole::Lead(slot)
        }
    }

    /// Answers a query the tree did not: an unpinned plain `maxflow`
    /// tries the certified local search on the snapshot first; anything
    /// else, and a search that gives up, is solved on the solver thread.
    fn compute(
        &self,
        q: &ResolvedQuery,
        opts: &QueryOptions,
        prof: &mut QueryProfile,
    ) -> Result<CachedAnswer, String> {
        let bypass = if opts.requested.is_some() {
            Some("algorithm-pinned")
        } else if q.super_st {
            Some("super-terminal-query")
        } else if opts.kind == QueryKind::MinCut {
            Some("mincut-needs-full-graph")
        } else {
            None
        };
        match bypass {
            Some(reason) => prof.plan_reason = reason.to_string(),
            // The search names how it ended in the plan reason.
            None => {
                if let Some(answer) = self.solve_local(q, opts, prof)? {
                    return Ok(answer);
                }
            }
        }
        self.solve(q, opts, prof)
    }

    fn resolve_terminals(
        &self,
        request: &Message,
        base: &Arc<FlowNetwork>,
    ) -> Result<ResolvedQuery, String> {
        let w: usize = request.get_parsed("w")?.unwrap_or(0);
        if w > 0 {
            let seed: u64 = request
                .get_parsed("seed")?
                .unwrap_or(self.config.super_seed);
            let min_degree: usize = request
                .get_parsed("min-degree")?
                .unwrap_or(self.config.super_min_degree);
            let st = swgraph::super_st::attach_super_terminals(base, w, min_degree, seed)
                .map_err(|e| e.to_string())?;
            return Ok(ResolvedQuery {
                net: Arc::new(st.network),
                source: st.source,
                sink: st.sink,
                source_terminals: st.source_terminals.iter().map(|v| v.raw()).collect(),
                sink_terminals: st.sink_terminals.iter().map(|v| v.raw()).collect(),
                super_st: true,
            });
        }
        let source: u64 = request
            .get_parsed("source")?
            .ok_or("query needs 'source'/'sink' or 'w'")?;
        let sink: u64 = request
            .get_parsed("sink")?
            .ok_or("query needs 'source'/'sink' or 'w'")?;
        if source == sink {
            return Err("source equals sink".into());
        }
        let n = base.num_vertices() as u64;
        if source >= n || sink >= n {
            return Err(format!("terminal outside the graph (0..{n})"));
        }
        Ok(ResolvedQuery {
            // Shares the snapshot's Arc — a plain query never copies
            // the graph.
            net: Arc::clone(base),
            source: VertexId::new(source),
            sink: VertexId::new(sink),
            source_terminals: vec![source],
            sink_terminals: vec![sink],
            super_st: false,
        })
    }

    /// Solves `q` on the solver thread with the solver `opts` pins, or
    /// [`FALLBACK`] under `auto`. Every in-memory solver polls a deadline
    /// at its natural progress boundaries; a query that blows its budget
    /// returns a timeout error instead of holding the connection hostage.
    fn solve(
        &self,
        q: &ResolvedQuery,
        opts: &QueryOptions,
        prof: &mut QueryProfile,
    ) -> Result<CachedAnswer, String> {
        let algo = opts.requested.unwrap_or(FALLBACK);
        prof.solver = algo.name().to_string();
        let cancel = Cancel::after(opts.timeout);
        let solve_started = Instant::now();
        let solved = self.solver.solve(algo, &q.net, q.source, q.sink, &cancel);
        prof.solve_us += elapsed_us(solve_started);
        let (flow, report) = solved.map_err(|_| timeout_message(opts.timeout))?;
        add_report(prof, &report);
        let mut answer = CachedAnswer {
            flow: flow.value,
            solver: algo.name(),
            cut_edges: None,
            cut_source_side: None,
        };
        if opts.kind == QueryKind::MinCut {
            let cut = maxflow::min_cut::extract_min_cut(&q.net, q.source, &flow);
            answer.cut_edges = Some(cut.cut_edges.len());
            answer.cut_source_side = Some(cut.source_side.len());
        }
        Ok(answer)
    }

    /// Runs the certified [`maxflow::local`] search on `q` with pooled
    /// scratch. `None` when it ran out of budget: the caller solves.
    fn solve_local(
        &self,
        q: &ResolvedQuery,
        opts: &QueryOptions,
        prof: &mut QueryProfile,
    ) -> Result<Option<CachedAnswer>, String> {
        let cancel = Cancel::after(opts.timeout);
        let solve_started = Instant::now();
        let mut search = self
            .local
            .lock()
            .expect("local scratch")
            .pop()
            .unwrap_or_default();
        let searched = search.run(&q.net, q.source, q.sink, &cancel);
        self.local.lock().expect("local scratch").push(search);
        prof.solve_us += elapsed_us(solve_started);
        let (found, report) = searched.map_err(|_| timeout_message(opts.timeout))?;
        add_report(prof, &report);
        let outcome = match found.as_ref().map(|f| &f.certificate) {
            Some(Certificate::SourceArcs | Certificate::SinkArcs) => "trivial-cut",
            Some(Certificate::SourceReach(_) | Certificate::SinkReach(_)) => "exhausted",
            None => "budget",
        };
        ffmr_obs::global()
            .counter("ffmr_local_searches_total", &[("outcome", outcome)])
            .inc();
        prof.plan_reason = format!("local-{outcome}");
        Ok(found.map(|found| {
            prof.solver = local::NAME.to_string();
            CachedAnswer {
                flow: found.value,
                solver: local::NAME,
                cut_edges: None,
                cut_source_side: None,
            }
        }))
    }
}

/// Folds one executed request into the process-wide registry: a per-verb
/// request counter, a per-verb error counter, and a per-plan/per-solver/
/// per-verb latency histogram (`-` for verbs that never pick one), so
/// the tree and full routes get separate SLO curves.
fn record_query_metrics(verb: &str, response: &Message, elapsed: Duration) {
    let m = ffmr_obs::global();
    m.counter("ffmr_requests_total", &[("verb", verb)]).inc();
    if response.head == status::ERROR {
        m.counter("ffmr_request_errors_total", &[("verb", verb)])
            .inc();
    }
    let solver = response.get("solver").unwrap_or("-");
    let plan = response.get("plan").unwrap_or("-");
    m.histogram(
        "ffmr_query_latency_us",
        &[("plan", plan), ("solver", solver), ("verb", verb)],
    )
    .record_duration(elapsed);
}

/// A fresh profile for a flow query request.
fn new_profile(request: &Message) -> QueryProfile {
    QueryProfile {
        verb: request.head.clone(),
        dataset: request.get("dataset").unwrap_or("").to_string(),
        plan: "-".to_string(),
        // The server injects the measured queue wait into the request
        // before execution; engine-inline callers have none.
        queue_wait_us: request
            .get_parsed("queue-wait-us")
            .ok()
            .flatten()
            .unwrap_or(0),
        ..QueryProfile::default()
    }
}

/// Turns a verb's result into the response: `elapsed-us` on success, an
/// `error` reply otherwise; closes the `query` span and records the
/// request metrics.
fn finish_request(
    request: &Message,
    started: Instant,
    mut span: ffmr_obs::Span,
    result: Result<Message, String>,
) -> Message {
    let response = match result {
        Ok(mut response) => {
            response.push("elapsed-us", started.elapsed().as_micros());
            response
        }
        Err(message) => error_response(message),
    };
    span.field("status", &response.head);
    drop(span);
    record_query_metrics(&request.head, &response, started.elapsed());
    response
}

/// The answer read off the snapshot's cut tree, when the query is one
/// the tree answers: plain `maxflow` under `algorithm auto`, and the
/// tree built. It bypasses the cache both ways: a walk costs less than a
/// lookup.
fn tree_reply(q: &PreparedQuery, prof: &mut QueryProfile) -> Option<Message> {
    let applies =
        q.opts.kind == QueryKind::MaxFlow && !q.resolved.super_st && q.opts.requested.is_none();
    if !applies {
        return None;
    }
    let tree = q.snap.cut_tree()?;
    let walk_started = Instant::now();
    let flow = tree.max_flow(q.resolved.source, q.resolved.sink);
    prof.solve_us = elapsed_us(walk_started);
    prof.plan = PLAN_TREE.to_string();
    prof.plan_reason = "cut-tree".to_string();
    prof.solver = cut_tree::NAME.to_string();
    prof.cache = "bypass".to_string();
    let answer = CachedAnswer {
        flow,
        solver: cut_tree::NAME,
        cut_edges: None,
        cut_source_side: None,
    };
    let mut response = render_answer(
        &answer,
        PLAN_TREE,
        q.opts.kind,
        &q.resolved,
        &q.snap.name,
        q.snap.epoch,
        false,
    );
    push_serving_fields(&mut response, false, prof.queue_wait_us);
    Some(response)
}

/// Renders a cache hit and notes it in the profile.
fn hit_reply(
    hit: &CachedAnswer,
    kind: QueryKind,
    resolved: &ResolvedQuery,
    dataset: &str,
    epoch: u64,
    prof: &mut QueryProfile,
) -> Message {
    prof.cache = "hit".to_string();
    prof.plan = PLAN_FULL.to_string();
    prof.plan_reason = "cache-hit".to_string();
    prof.solver = hit.solver.to_string();
    let mut response = render_answer(hit, PLAN_FULL, kind, resolved, dataset, epoch, true);
    push_serving_fields(&mut response, false, prof.queue_wait_us);
    response
}

/// Adds a solve's execution counters to the profile.
fn add_report(prof: &mut QueryProfile, report: &SolveReport) {
    prof.phases += report.phases;
    prof.augmenting_paths += report.augmenting_paths;
    prof.pushes += report.pushes;
    prof.relabels += report.relabels;
    prof.global_relabels += report.global_relabels;
    prof.cancel_polls += report.cancel_polls;
    prof.vertices_touched += report.vertices_touched;
    prof.arc_scans += report.arc_scans;
}

/// The error an in-memory solve cancelled at its deadline returns.
fn timeout_message(timeout: Duration) -> String {
    format!(
        "timeout after {}ms (in-memory solve cancelled at the deadline)",
        timeout.as_millis()
    )
}

/// Saturating microseconds since `since` — stage windows in a
/// [`QueryProfile`] never panic on clock weirdness.
fn elapsed_us(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// The uniform serving-metadata tail every query response carries —
/// `coalesced`, `queue_wait_us` — regardless of which path (cache hit,
/// coalesced follower, fresh solve) produced the answer. `render_answer`
/// already emitted `dataset`/`epoch`/`solver`/`plan`/`cached`; together
/// these form the documented field set in [`crate::protocol`].
fn push_serving_fields(response: &mut Message, coalesced: bool, queue_wait_us: u64) {
    response.push("coalesced", u8::from(coalesced));
    response.push("queue_wait_us", queue_wait_us);
}

fn render_answer(
    answer: &CachedAnswer,
    plan: &str,
    kind: QueryKind,
    q: &ResolvedQuery,
    dataset: &str,
    epoch: u64,
    cached: bool,
) -> Message {
    let mut response = Message::new(status::OK)
        .field("dataset", dataset)
        .field("epoch", epoch)
        .field("flow", answer.flow)
        .field("solver", answer.solver)
        .field("plan", plan)
        .field("cached", u8::from(cached));
    if kind == QueryKind::MinCut {
        if let (Some(edges), Some(side)) = (answer.cut_edges, answer.cut_source_side) {
            response.push("cut-edges", edges);
            response.push("cut-source-side", side);
        }
    }
    response.push("sources", join(&q.source_terminals));
    response.push("sinks", join(&q.sink_terminals));
    response
}

fn join(ids: &[u64]) -> String {
    let mut out = String::new();
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(&id.to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::one_way;
    use swgraph::gen;

    fn engine_with(net: FlowNetwork, config: EngineConfig) -> QueryEngine {
        let store = Arc::new(GraphStore::new());
        store.insert_network("g", net);
        QueryEngine::new(store, config)
    }

    /// An engine over `net` with its cut tree built.
    fn engine_with_tree(net: FlowNetwork, config: EngineConfig) -> QueryEngine {
        let engine = engine_with(net, config);
        let snap = engine.store().get("g").unwrap();
        let status = snap.await_cut_tree(Duration::from_secs(120));
        assert!(matches!(status, CutTreeStatus::Ready(_)), "{status:?}");
        engine
    }

    fn two_paths() -> FlowNetwork {
        FlowNetwork::from_undirected_unit(4, &[(0, 1), (1, 3), (0, 2), (2, 3)])
    }

    fn query(head: &str) -> Message {
        Message::new(head)
            .field("dataset", "g")
            .field("source", 0)
            .field("sink", 3)
    }

    #[test]
    fn maxflow_small_graph_takes_the_local_search_and_caches() {
        let engine = engine_with(one_way(&two_paths()), EngineConfig::default());
        let first = engine.execute(&query("maxflow"));
        assert_eq!(first.head, status::OK, "{first:?}");
        assert_eq!(first.get("flow"), Some("2"));
        assert_eq!(first.get("solver"), Some("local"));
        assert_eq!(first.get("plan"), Some("full"));
        assert_eq!(first.get("cached"), Some("0"));
        let second = engine.execute(&query("maxflow"));
        assert_eq!(second.get("cached"), Some("1"));
        assert_eq!(second.get("flow"), Some("2"));
        assert_eq!(engine.cache_stats().hits, 1);
    }

    #[test]
    fn maxflow_is_read_off_the_cut_tree_once_built() {
        let n = 300;
        let net = FlowNetwork::from_undirected_unit(n, &gen::barabasi_albert(n, 3, 21));
        let engine = engine_with_tree(net.clone(), EngineConfig::default());
        for (s, t) in [(0, n - 1), (5, 17), (n - 1, 0), (42, 43)] {
            let dinic = Algorithm::Dinic.run(&net, VertexId::new(s), VertexId::new(t));
            let q = Message::new("maxflow")
                .field("dataset", "g")
                .field("source", s)
                .field("sink", t)
                .field("explain", 1);
            for r in [engine.execute(&q), engine.execute_cached(&q).unwrap()] {
                assert_eq!(r.head, status::OK, "{r:?}");
                assert_eq!(r.get("flow"), Some(dinic.value.to_string().as_str()));
                assert_eq!(
                    (r.get("plan"), r.get("solver")),
                    (Some("tree"), Some("tree"))
                );
                assert_eq!(r.get("cached"), Some("0"), "{r:?}");
                let prof = ffmr_obs::QueryProfile::from_json(r.get("profile").unwrap()).unwrap();
                assert_eq!(prof.plan_reason, "cut-tree");
                assert_eq!(prof.cache, "bypass");
            }
        }
        // `no-cache` changes nothing: the tree never touches the cache.
        let r = engine.execute(&query("maxflow").field("no-cache", 1));
        assert_eq!(r.get("plan"), Some("tree"));
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
        let stats = engine.execute(&Message::new("stats").field("dataset", "g"));
        assert_eq!(stats.get("cut-tree"), Some("ready"));
        let depth: u32 = stats.get("cut-tree-depth").unwrap().parse().unwrap();
        assert!(depth >= 1, "{stats:?}");
        assert!(stats
            .get("cut-tree-build-ms")
            .unwrap()
            .parse::<u64>()
            .is_ok());
    }

    #[test]
    fn asymmetric_snapshots_never_build_a_tree() {
        let engine = engine_with(one_way(&two_paths()), EngineConfig::default());
        let snap = engine.store().get("g").unwrap();
        let status = snap.await_cut_tree(Duration::from_secs(120));
        assert!(matches!(status, CutTreeStatus::Asymmetric), "{status:?}");
        let stats = engine.execute(&Message::new("stats").field("dataset", "g"));
        assert_eq!(stats.get("cut-tree"), Some("asymmetric"));
        assert_eq!(stats.get("cut-tree-build-ms"), Some("-"));
        assert_eq!(stats.get("cut-tree-depth"), Some("-"));
        let r = engine.execute(&query("maxflow"));
        assert_eq!(r.get("flow"), Some("2"));
        assert_eq!(
            (r.get("plan"), r.get("solver")),
            (Some("full"), Some("local"))
        );
        assert!(engine
            .execute_cached(&query("maxflow").field("no-cache", 1))
            .is_none());
    }

    #[test]
    fn pinned_queries_bypass_the_tree() {
        let engine = engine_with_tree(two_paths(), EngineConfig::default());
        let w = Message::new("maxflow").field("dataset", "g").field("w", 1);
        for (q, plan, solver) in [
            (
                query("maxflow").field("algorithm", "dinic"),
                "full",
                "dinic",
            ),
            (query("maxflow").field("algorithm", "auto"), "tree", "tree"),
            (query("mincut"), "full", "push-relabel"),
            (w, "full", "push-relabel"),
        ] {
            let r = engine.execute(&q.field("no-cache", 1));
            assert_eq!(r.head, status::OK, "{r:?}");
            assert_eq!((r.get("plan"), r.get("solver")), (Some(plan), Some(solver)));
        }
        // Only the tree route is taken on the connection thread.
        for q in [
            query("maxflow").field("algorithm", "dinic"),
            query("mincut"),
        ] {
            assert!(engine.execute_cached(&q.field("no-cache", 1)).is_none());
        }
    }

    /// Regression: past 2 000 vertices the daemon used to hand unpinned
    /// queries to FF5 on a simulated cluster in the same process.
    #[test]
    fn snapshots_past_the_old_threshold_are_answered_in_memory() {
        let n = 2_500;
        let net = one_way(&FlowNetwork::from_undirected_unit(
            n,
            &gen::barabasi_albert(n, 3, 17),
        ));
        let dinic = Algorithm::Dinic.run(&net, VertexId::new(0), VertexId::new(n - 1));
        let dinic = dinic.value.to_string();
        let engine = engine_with(net, EngineConfig::default());
        let pair = |head| Message::new(head).field("dataset", "g").field("source", 0);
        let w = Message::new("maxflow").field("dataset", "g").field("w", 4);
        for (q, solver, flow) in [
            (pair("maxflow").field("sink", n - 1), "local", Some(&dinic)),
            (
                pair("mincut").field("sink", n - 1),
                "push-relabel",
                Some(&dinic),
            ),
            (w, "push-relabel", None),
        ] {
            let r = engine.execute(&q);
            assert_eq!(r.head, status::OK, "{r:?}");
            assert_eq!(r.get("solver"), Some(solver), "{q:?}");
            if let Some(flow) = flow {
                assert_eq!(r.get("flow"), Some(flow.as_str()), "{q:?}");
            }
        }
    }

    #[test]
    fn explicit_algorithms_agree() {
        let engine = engine_with(two_paths(), EngineConfig::default());
        // Every name in the name table, through the wire field.
        for solver in Algorithm::ALL {
            let algo = solver.name();
            assert_eq!(parse_algorithm(Some(algo)), Ok(Some(solver)));
            let mut q = query("maxflow").field("algorithm", algo);
            // Bypass the cache so every solver actually runs.
            q.push("no-cache", 1);
            let r = engine.execute(&q);
            assert_eq!(r.head, status::OK, "{algo}: {r:?}");
            assert_eq!(r.get("flow"), Some("2"), "{algo} disagrees");
            assert_eq!(r.get("solver"), Some(algo), "solver echoes the parsed name");
        }
    }

    #[test]
    fn unknown_algorithm_error_names_the_accepted_values() {
        let engine = engine_with(two_paths(), EngineConfig::default());
        // Beside a typo, the names of the deleted textbook solvers.
        for bad in [
            "bogus",
            "edmonds-karp",
            "ford-fulkerson",
            "capacity-scaling",
        ] {
            let r = engine.execute(&query("maxflow").field("algorithm", bad));
            assert_eq!(r.head, status::ERROR, "{r:?}");
            let message = r.get("message").unwrap();
            assert!(
                message.contains(&format!("unknown algorithm '{bad}'")),
                "{message}"
            );
            for name in Algorithm::names().chain(["auto"]) {
                assert!(message.contains(name), "{message} should name {name}");
            }
        }
        // The MapReduce variants are `ffmr maxflow`'s, not the daemon's.
        let r = engine.execute(&query("maxflow").field("algorithm", "ff5"));
        assert_eq!(r.head, status::ERROR, "{r:?}");
        let message = r.get("message").unwrap();
        assert!(message.contains("unknown algorithm 'ff5'"), "{message}");
    }

    #[test]
    fn mincut_returns_a_certificate() {
        let engine = engine_with(two_paths(), EngineConfig::default());
        let r = engine.execute(&query("mincut"));
        assert_eq!(r.head, status::OK, "{r:?}");
        assert_eq!(r.get("flow"), Some("2"));
        assert_eq!(r.get("solver"), Some("push-relabel"));
        assert_eq!(r.get("cut-edges"), Some("2"));
        let side: usize = r.get("cut-source-side").unwrap().parse().unwrap();
        assert!((1..4).contains(&side));
    }

    /// Unpinned `mincut` and `w` queries fall back to push-relabel, and
    /// answer what a pinned `parallel-pr` or `dinic` solve answers: the
    /// residual-reachable min cut is the same for every maximum flow.
    #[test]
    fn unpinned_fallback_answers_like_every_pinned_solver() {
        let n = 400;
        let net = FlowNetwork::from_undirected_unit(n, &gen::barabasi_albert(n, 3, 13));
        let engine = engine_with_tree(net, EngineConfig::default());
        let mincut = |s: u64, t: u64| {
            Message::new("mincut")
                .field("dataset", "g")
                .field("source", s)
                .field("sink", t)
        };
        let w = |seed: u64| {
            Message::new("maxflow")
                .field("dataset", "g")
                .field("w", 8)
                .field("seed", seed)
        };
        for q in [mincut(0, n - 1), mincut(5, 17), w(1), w(2)] {
            let unpinned = engine.execute(&q.clone().field("no-cache", 1));
            assert_eq!(unpinned.head, status::OK, "{unpinned:?}");
            assert_eq!(unpinned.get("solver"), Some("push-relabel"), "{q:?}");
            for pinned in ["parallel-pr", "dinic"] {
                let r = engine.execute(&q.clone().field("algorithm", pinned).field("no-cache", 1));
                assert_eq!(r.get("solver"), Some(pinned));
                for field in ["flow", "cut-edges", "cut-source-side", "sources", "sinks"] {
                    assert_eq!(r.get(field), unpinned.get(field), "{pinned} {field}: {q:?}");
                }
            }
        }
    }

    #[test]
    fn super_terminal_queries_canonicalize_into_the_cache() {
        let n = 300;
        let net = FlowNetwork::from_undirected_unit(n, &gen::barabasi_albert(n, 3, 7));
        let engine = engine_with(net, EngineConfig::default());
        let q = Message::new("maxflow")
            .field("dataset", "g")
            .field("w", 3)
            .field("seed", 11);
        let first = engine.execute(&q);
        assert_eq!(first.head, status::OK, "{first:?}");
        assert!(first.get("flow").unwrap().parse::<i64>().unwrap() > 0);
        assert_eq!(first.get("cached"), Some("0"));
        // Same w and seed → same resolved terminals → cache hit.
        let second = engine.execute(&q);
        assert_eq!(second.get("cached"), Some("1"));
        assert_eq!(second.get("sources"), first.get("sources"));
    }

    #[test]
    fn reload_invalidates_via_epoch() {
        let store = Arc::new(GraphStore::new());
        store.insert_network("g", one_way(&two_paths()));
        let engine = QueryEngine::new(Arc::clone(&store), EngineConfig::default());
        assert_eq!(engine.execute(&query("maxflow")).get("cached"), Some("0"));
        assert_eq!(engine.execute(&query("maxflow")).get("cached"), Some("1"));
        // Swap in a different graph under the same name: one unit path.
        let path = FlowNetwork::from_undirected_unit(4, &[(0, 1), (1, 3)]);
        store.insert_network("g", one_way(&path));
        let after = engine.execute(&query("maxflow"));
        assert_eq!(after.get("cached"), Some("0"), "epoch fenced the cache");
        assert_eq!(after.get("flow"), Some("1"), "answer is for the new graph");
    }

    #[test]
    fn malformed_requests_become_protocol_errors() {
        let engine = engine_with(two_paths(), EngineConfig::default());
        for (req, needle) in [
            (Message::new("maxflow"), "dataset"),
            (query("maxflow").field("algorithm", "quantum"), "algorithm"),
            (
                Message::new("maxflow")
                    .field("dataset", "missing")
                    .field("source", 0)
                    .field("sink", 1),
                "unknown dataset",
            ),
            (
                Message::new("maxflow")
                    .field("dataset", "g")
                    .field("source", 2)
                    .field("sink", 2),
                "source equals sink",
            ),
            (
                Message::new("maxflow")
                    .field("dataset", "g")
                    .field("source", 0)
                    .field("sink", 99),
                "outside",
            ),
            (Message::new("warp"), "unknown request"),
        ] {
            let r = engine.execute(&req);
            assert_eq!(r.head, status::ERROR, "{req:?} → {r:?}");
            assert!(r.get("message").unwrap().contains(needle), "{r:?}");
        }
    }

    #[test]
    fn stats_exposes_the_metrics_registry() {
        let engine = engine_with(one_way(&two_paths()), EngineConfig::default());
        let _ = engine.execute(&query("maxflow"));
        let _ = engine.execute(
            &query("maxflow")
                .field("algorithm", "parallel-pr")
                .field("no-cache", 1),
        );
        let stats = engine.execute(&Message::new("stats"));
        assert_eq!(stats.head, status::OK);
        // Flat registry series ride along with the legacy cache fields.
        assert!(
            stats
                .fields
                .iter()
                .any(|(k, _)| k.starts_with("ffmr_query_latency_us{")
                    && k.contains("verb=\"maxflow\"")),
            "{stats:?}"
        );
        assert!(stats.get("ffmr_cache_entries").is_some());
        // The auto route took the local search and the pinned one the
        // parallel solver: both labels show up in the per-solver latency
        // split, with the local outcome counter and the ffmr_pr_*
        // counters riding along in the registry dump.
        for solver in ["local", "parallel-pr"] {
            assert!(
                stats
                    .fields
                    .iter()
                    .any(|(k, _)| k.contains(&format!("solver=\"{solver}\""))),
                "{solver}: {stats:?}"
            );
        }
        assert!(
            stats
                .fields
                .iter()
                .any(|(k, _)| k == "ffmr_local_searches_total{outcome=\"trivial-cut\"}"),
            "{stats:?}"
        );
        assert!(
            stats
                .fields
                .iter()
                .any(|(k, _)| k.starts_with("ffmr_pr_discharge_passes_total")),
            "{stats:?}"
        );
        // `format prometheus` carries the text exposition as repeated
        // one-line `prom` fields.
        let prom = engine.execute(&Message::new("stats").field("format", "prometheus"));
        let text = prom.joined_lines("prom");
        assert!(
            text.contains("# TYPE ffmr_requests_total counter"),
            "{text}"
        );
        assert!(
            text.contains("ffmr_snapshot_epoch{dataset=\"g\"}"),
            "{text}"
        );
        assert!(text.contains("ffmr_query_latency_us_count{"), "{text}");
    }

    #[test]
    fn plain_queries_share_the_snapshot_arc() {
        // Regression: plain s→t queries used to clone the whole graph
        // per query. They must now borrow the snapshot's own Arc.
        let engine = engine_with(two_paths(), EngineConfig::default());
        let snap = engine.store().get("g").unwrap();
        let request = query("maxflow");
        let resolved = engine.resolve_terminals(&request, &snap.network).unwrap();
        assert!(
            Arc::ptr_eq(&resolved.net, &snap.network),
            "plain query must not copy the graph"
        );
        // Super-terminal queries still materialize an augmented graph.
        let super_request = Message::new("maxflow").field("dataset", "g").field("w", 1);
        let resolved = engine
            .resolve_terminals(&super_request, &snap.network)
            .unwrap();
        assert!(!Arc::ptr_eq(&resolved.net, &snap.network));
        assert_eq!(resolved.net.num_vertices(), 6, "base + super s + super t");
    }

    #[test]
    fn timeouts_cancel_in_memory_queries() {
        // Regression: `timeout-ms` was silently ignored on the
        // sequential route; the deadline now reaches the solver's
        // progress boundaries. An already-expired deadline must fail
        // deterministically even on a graph this small, for every
        // in-memory solver.
        let engine = engine_with(two_paths(), EngineConfig::default());
        let pinned = ["parallel-pr", "dinic", "push-relabel"]
            .map(|algo| query("maxflow").field("algorithm", algo));
        // A super-terminal query takes the fallback under `auto`.
        let super_st = Message::new("maxflow").field("dataset", "g").field("w", 1);
        for q in pinned.into_iter().chain([super_st]) {
            let q = q.field("timeout-ms", 0);
            let r = engine.execute(&q);
            assert_eq!(r.head, status::ERROR, "{q:?}: {r:?}");
            let message = r.get("message").unwrap();
            assert!(message.contains("timeout after 0ms"), "{q:?}: {message}");
        }
        // A sane deadline still answers.
        let r = engine.execute(&query("maxflow").field("timeout-ms", 30_000));
        assert_eq!(r.head, status::OK, "{r:?}");
    }

    /// An asymmetric snapshot (no cut tree) with the shapes a periphery
    /// contraction would peel — pendant vertices, a pendant path, two
    /// trees on one anchor — over a scale-free core: every unpinned plain
    /// `maxflow`, whether the local search or the fallback answered it,
    /// equals the same query pinned to Dinic.
    #[test]
    fn unpinned_plain_queries_answer_like_dinic_without_a_tree() {
        let core = 120;
        let mut b = swgraph::FlowNetworkBuilder::new(core + 16);
        for (i, &(u, v)) in gen::barabasi_albert(core, 2, 5).iter().enumerate() {
            b.add_undirected(u, v, 1 + (i as swgraph::Capacity * 7) % 5);
        }
        let c = core;
        // Pendant vertices on three core vertices.
        for (leaf, anchor, cap) in [(c, 3, 2), (c + 1, 40, 5), (c + 2, 77, 1)] {
            b.add_undirected(leaf, anchor, cap);
        }
        // A pendant path 9 - c+3 - c+4 - c+5 - c+6 with a narrow middle.
        for (k, cap) in [(3, 4), (4, 1), (5, 3), (6, 2)] {
            let prev = if k == 3 { 9 } else { c + k - 1 };
            b.add_undirected(prev, c + k, cap);
        }
        // Two trees on anchor 0: a star and a forked chain.
        for leaf in c + 8..c + 11 {
            b.add_undirected(c + 7, leaf, 2);
        }
        b.add_undirected(0, c + 7, 3);
        b.add_undirected(0, c + 11, 4);
        b.add_undirected(c + 11, c + 12, 2);
        b.add_undirected(c + 11, c + 13, 1);
        b.add_undirected(c + 13, c + 14, 3);
        b.add_undirected(c + 13, c + 15, 2);
        let net = one_way(&b.build());
        let n = net.num_vertices() as u64;
        let engine = engine_with(net, EngineConfig::default());
        let snap = engine.store().get("g").unwrap();
        let status = snap.await_cut_tree(Duration::from_secs(120));
        assert!(matches!(status, CutTreeStatus::Asymmetric), "{status:?}");

        let mut rng = ffmr_prng::SplitMix64::seed_from_u64(40);
        // Every pair among the grafted vertices and their anchors, then
        // seeded pairs over the whole graph.
        let grafted: Vec<u64> = [0, 3, 9, 40, 77].into_iter().chain(c..n).collect();
        let mut pairs: Vec<(u64, u64)> = Vec::new();
        for &s in &grafted {
            pairs.extend(grafted.iter().filter(|&&t| t != s).map(|&t| (s, t)));
        }
        pairs.truncate(120);
        while pairs.len() < 200 {
            let (s, t) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if s != t {
                pairs.push((s, t));
            }
        }
        let mut local = 0;
        for (s, t) in pairs {
            let ask = |q: Message| {
                let r = engine.execute(
                    &q.field("dataset", "g")
                        .field("source", s)
                        .field("sink", t)
                        .field("no-cache", 1),
                );
                assert_eq!(r.head, status::OK, "({s},{t}): {r:?}");
                r
            };
            let unpinned = ask(Message::new("maxflow"));
            let dinic = ask(Message::new("maxflow").field("algorithm", "dinic"));
            let solver = unpinned.get("solver").unwrap();
            assert!(matches!(solver, "local" | "push-relabel"), "{unpinned:?}");
            assert_eq!(unpinned.get("plan"), Some("full"), "{unpinned:?}");
            assert_eq!(
                unpinned.get("flow"),
                dinic.get("flow"),
                "({s},{t}) by {solver}"
            );
            local += usize::from(solver == "local");
        }
        assert!(local >= 150, "{local} of 200 answered by the local search");
    }

    #[test]
    fn pinned_solvers_bypass_the_local_search() {
        let engine = engine_with(two_paths(), EngineConfig::default());
        for solver in ["dinic", "parallel-pr", "push-relabel"] {
            let r = engine.execute(
                &query("maxflow")
                    .field("algorithm", solver)
                    .field("no-cache", 1)
                    .field("explain", 1),
            );
            assert_eq!(r.head, status::OK, "{r:?}");
            assert_eq!(r.get("flow"), Some("2"));
            assert_eq!(
                (r.get("plan"), r.get("solver")),
                (Some("full"), Some(solver))
            );
            let prof = ffmr_obs::QueryProfile::from_json(r.get("profile").unwrap()).unwrap();
            assert_eq!((prof.vertices_touched, prof.arc_scans), (0, 0), "{prof:?}");
            assert_eq!(prof.plan_reason, "algorithm-pinned", "{prof:?}");
        }
    }

    #[test]
    fn a_search_over_budget_falls_back_to_push_relabel() {
        // Two hubs sharing 50 unit middles: each augmenting path rescans
        // a hub's 50 arcs, so the search gives up and push-relabel
        // finishes.
        let mut b = swgraph::FlowNetworkBuilder::new(52);
        for m in 2..52 {
            b.add_undirected(0, m, 1);
            b.add_undirected(m, 1, 1);
        }
        let engine = engine_with(one_way(&b.build()), EngineConfig::default());
        let r = engine.execute(
            &Message::new("maxflow")
                .field("dataset", "g")
                .field("source", 0)
                .field("sink", 1)
                .field("explain", 1),
        );
        assert_eq!(r.head, status::OK, "{r:?}");
        assert_eq!(r.get("flow"), Some("50"));
        assert_eq!(r.get("solver"), Some("push-relabel"));
        assert_eq!(r.get("plan"), Some("full"));
        let prof = ffmr_obs::QueryProfile::from_json(r.get("profile").unwrap()).unwrap();
        assert_eq!(prof.plan_reason, "local-budget");
        assert!(prof.arc_scans > 0 && prof.pushes > 0, "{prof:?}");
    }

    #[test]
    fn coalesced_queries_share_one_solve() {
        let n = 300;
        let net = FlowNetwork::from_undirected_unit(n, &gen::barabasi_albert(n, 3, 9));
        let engine = Arc::new(engine_with(one_way(&net), EngineConfig::default()));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    engine.execute(
                        &Message::new("maxflow")
                            .field("dataset", "g")
                            .field("source", 0)
                            .field("sink", 299),
                    )
                })
            })
            .collect();
        let responses: Vec<Message> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        let flows: Vec<_> = responses.iter().map(|r| r.get("flow")).collect();
        assert!(flows.windows(2).all(|w| w[0] == w[1]), "{flows:?}");
        for r in &responses {
            assert_eq!(r.head, status::OK, "{r:?}");
            // Every concurrent duplicate either led the solve, followed
            // it (coalesced), or hit the cache after the leader's put.
            assert!(r.get("coalesced").is_some());
        }
    }

    #[test]
    fn stats_and_list_report_the_store() {
        let engine = engine_with(two_paths(), EngineConfig::default());
        let list = engine.execute(&Message::new("list"));
        assert_eq!(list.head, status::OK);
        assert!(list.get("dataset").unwrap().starts_with("g "));
        let stats = engine.execute(&Message::new("stats").field("dataset", "g"));
        assert_eq!(stats.get("vertices"), Some("4"));
    }

    #[test]
    fn every_query_response_carries_the_uniform_serving_fields() {
        let engine = engine_with(one_way(&two_paths()), EngineConfig::default());
        // Fresh solve, cache hit, tree answer: all carry the full set.
        let fresh = engine.execute(&query("maxflow"));
        let hit = engine.execute(&query("maxflow"));
        assert_eq!(hit.get("cached"), Some("1"));
        let tree = engine_with_tree(two_paths(), EngineConfig::default());
        let walked = tree.execute(&query("maxflow"));
        assert_eq!(walked.get("plan"), Some("tree"));
        for (r, label) in [(&fresh, "fresh"), (&hit, "cache-hit"), (&walked, "tree")] {
            for field in [
                "dataset",
                "epoch",
                "solver",
                "plan",
                "cached",
                "coalesced",
                "queue_wait_us",
            ] {
                assert!(r.get(field).is_some(), "{label} missing '{field}': {r:?}");
            }
        }
    }

    #[test]
    fn explain_attaches_a_parseable_profile() {
        let net = FlowNetwork::from_undirected_unit(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]);
        let engine = engine_with(one_way(&net), EngineConfig::default());
        let q = Message::new("maxflow")
            .field("dataset", "g")
            .field("source", 4)
            .field("sink", 0)
            .field("queue-wait-us", 1234)
            .field("explain", 1);
        let r = engine.execute(&q);
        assert_eq!(r.head, status::OK, "{r:?}");
        let prof = ffmr_obs::QueryProfile::from_json(r.get("profile").expect("explain profile"))
            .expect("profile parses");
        assert_eq!(prof.verb, "maxflow");
        assert_eq!(prof.dataset, "g");
        assert_eq!(prof.outcome, "ok");
        assert_eq!(Some(prof.plan.as_str()), r.get("plan"));
        assert_eq!(Some(prof.solver.as_str()), r.get("solver"));
        assert_eq!(prof.plan_reason, "local-trivial-cut");
        assert_eq!(prof.solver, "local");
        assert_eq!(prof.queue_wait_us, 1234);
        assert!(prof.total_us >= prof.queue_wait_us);
        assert!(
            prof.vertices_touched > 0 && prof.arc_scans > 0 && prof.augmenting_paths > 0,
            "the local search reports its internals: {prof:?}"
        );

        // Without the flag the response stays lean.
        let plain = engine.execute(&query("maxflow"));
        assert!(plain.get("profile").is_none());

        // A cache hit explains itself as such, on either entry.
        let r = engine.execute(&q);
        let prof =
            ffmr_obs::QueryProfile::from_json(r.get("profile").unwrap()).expect("hit profile");
        assert_eq!(prof.cache, "hit");
        assert_eq!(prof.plan_reason, "cache-hit");
        let fast = engine.execute_cached(&q).expect("a cached answer");
        assert_eq!(fast.get("flow"), r.get("flow"));
        let prof = ffmr_obs::QueryProfile::from_json(fast.get("profile").unwrap()).unwrap();
        assert_eq!(
            (prof.cache.as_str(), prof.solver.as_str()),
            ("hit", "local")
        );
    }

    #[test]
    fn execute_cached_answers_hits_only() {
        let engine = engine_with(one_way(&two_paths()), EngineConfig::default());
        assert!(engine.execute_cached(&query("maxflow")).is_none(), "cold");
        let stats = engine.cache_stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 0),
            "a fast-path miss is not counted"
        );
        let solved = engine.execute(&query("maxflow"));
        assert_eq!(engine.cache_stats().misses, 1);
        let hit = engine
            .execute_cached(&query("maxflow"))
            .expect("now cached");
        assert_eq!(hit.head, status::OK);
        assert_eq!(hit.get("cached"), Some("1"));
        for field in ["flow", "solver", "plan", "sources", "sinks"] {
            assert_eq!(hit.get(field), solved.get(field), "{field}");
        }
        assert!(hit.get("elapsed-us").is_some());
        assert_eq!(engine.cache_stats().hits, 1);
        // Everything else goes to `execute`: opted out, super-terminal,
        // other verbs, malformed, unknown dataset.
        for request in [
            query("maxflow").field("no-cache", 1),
            query("mincut"),
            Message::new("maxflow").field("dataset", "g").field("w", 1),
            Message::new("ping"),
            query("maxflow").field("algorithm", "bogus"),
            Message::new("maxflow").field("dataset", "nope"),
        ] {
            assert!(engine.execute_cached(&request).is_none(), "{request:?}");
        }
    }

    #[test]
    fn slowlog_records_over_threshold_queries_and_serves_them() {
        // A zero threshold turns every query into a "slow" one.
        let config = EngineConfig {
            slow_query_threshold: Duration::ZERO,
            ..EngineConfig::default()
        };
        let engine = engine_with(two_paths(), config);
        let empty = engine.execute(&Message::new("slowlog"));
        assert_eq!(empty.head, status::OK, "{empty:?}");
        assert_eq!(empty.get("count"), Some("0"));

        let ok = engine.execute(&query("maxflow"));
        assert_eq!(ok.head, status::OK);
        // A timed-out query is exactly the kind worth explaining later:
        // it must land in the slowlog too, profiled as an error.
        let err = engine.execute(
            &query("maxflow")
                .field("algorithm", "dinic")
                .field("no-cache", 1)
                .field("timeout-ms", 0),
        );
        assert_eq!(err.head, status::ERROR, "{err:?}");

        let log = engine.execute(&Message::new("slowlog"));
        assert_eq!(log.get("count"), Some("2"), "{log:?}");
        let entries: Vec<ffmr_obs::QueryProfile> = log
            .fields
            .iter()
            .filter(|(k, _)| k == "entry")
            .map(|(_, v)| ffmr_obs::QueryProfile::from_json(v).expect("entry parses"))
            .collect();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].outcome, "ok");
        assert_eq!(entries[1].outcome, "error");
        assert!(
            entries[1]
                .error
                .as_deref()
                .unwrap_or("")
                .contains("timeout"),
            "{:?}",
            entries[1].error
        );
        // `limit` trims to the newest entries.
        let limited = engine.execute(&Message::new("slowlog").field("limit", 1));
        let kept: Vec<_> = limited
            .fields
            .iter()
            .filter(|(k, _)| k == "entry")
            .collect();
        assert_eq!(kept.len(), 1);
        assert!(kept[0].1.contains("\"outcome\":\"error\""), "{:?}", kept[0]);
    }

    #[test]
    fn default_threshold_keeps_fast_queries_out_of_the_slowlog() {
        let engine = engine_with(two_paths(), EngineConfig::default());
        let r = engine.execute(&query("maxflow"));
        assert_eq!(r.head, status::OK);
        let log = engine.execute(&Message::new("slowlog"));
        assert_eq!(log.get("count"), Some("0"), "{log:?}");
    }
}
