//! The query engine: routes each request to the right solver and
//! memoizes answers.
//!
//! Every snapshot is one resident [`FlowNetwork`], so every query is
//! answered in memory; the paper's MapReduce driver is `ffmr maxflow
//! --algorithm ff1..ff5`, not a daemon route.
//!
//! A request takes two stages. [`QueryEngine::route`] runs on the
//! caller's thread (the daemon's connection thread): it parses the
//! request once, resolves its terminals, and answers everything that
//! needs no solver — the cheap verbs, malformed requests, cut-tree
//! answers and cache hits. What is left is a [`Work`] item: a prepared
//! flow query, or a `load`/`reload`/`sleep`. [`QueryEngine::run`] does
//! it on a pool worker, given how long it waited in the queue.
//! [`QueryEngine::execute`] is both stages on one thread.
//!
//! An unpinned query (`algorithm auto`, the default) has one route:
//!
//! 1. a plain `maxflow` is read off the snapshot's Gomory–Hu
//!    [`CutTree`](maxflow::cut_tree::CutTree) once the store has built
//!    it: a walk of a few tree edges in `route`, answered with `plan
//!    tree`, `solver tree`, and never read from or written to the cache;
//! 2. everything else — a plain query on a snapshot with one-way
//!    capacities or before its tree is ready, a `w` query, a `mincut` —
//!    is answered by [`maxflow::local`] on the snapshot's own network,
//!    from the query's source set to its sink set (one vertex each, or a
//!    `w` query's terminal sets). It grows search trees from both sets,
//!    keeps them across augmenting paths, and stops once the flow
//!    reaches the capacity leaving `S` or entering `T` (that cut
//!    certifies it) or one tree can grow no further (its vertices are a
//!    minimum-cut side). A `mincut` reply's side is the vertices the
//!    sources reach in the final residual graph. Its answers carry the
//!    solver label `local`.
//!
//! An explicit `algorithm` value (`push-relabel`, `dinic`,
//! `parallel-pr`) pins any [`Algorithm`] instead, solved on the engine's
//! one [`SolverThread`]; a pinned `w` query builds its super-terminal
//! copy of the network there, since a solver takes one source and one
//! sink. Every answer but the tree's is `plan full`, and every response
//! carries the solver so clients can see what answered a query. Both the
//! tree and the search are the structure-aware lesson of
//! Bläsius/Friedrich/Weyand: on small-world graphs most cuts sit at a
//! terminal.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use ffmr_obs::{QueryProfile, SlowLog};
use maxflow::cut_tree;
use maxflow::local::{self, Certificate, LocalSearch};
use maxflow::{Algorithm, Cancel, SolveReport, SolverThread};
use swgraph::{FlowNetwork, VertexId};

use crate::cache::{CacheKey, CacheStats, CachedAnswer, Claim, FlowCache, QueryKind};
use crate::protocol::{error_response, status, Message};
use crate::store::{CutTreeStatus, GraphStore, Snapshot};

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
    /// The one thread every pinned solve runs on.
    solver: SolverThread,
    /// Scratch for [`maxflow::local`] searches, one per engine thread
    /// searching at once: each is n-sized and reused, so a cold query
    /// allocates no graph-sized memory before the solve.
    local: Mutex<Vec<LocalSearch>>,
    /// The per-query flight recorder: profiles of queries over
    /// [`EngineConfig::slow_query_threshold`], served by the `slowlog`
    /// verb. Capacity honors `FFMR_SLOWLOG_CAP`.
    slowlog: SlowLog,
}

/// What [`QueryEngine::route`] makes of a request.
pub enum Route {
    /// The reply, made on the routing thread.
    Reply(Message),
    /// Work for a pool worker: hand it to [`QueryEngine::run`].
    Work(Work),
}

/// A request [`QueryEngine::route`] could not answer without a solver
/// or the disk: a flow query the cut tree and the cache did not answer,
/// or a `load`, `reload` or `sleep`.
pub struct Work {
    job: Job,
    /// Engine time `route` spent on the request.
    routed: Duration,
}

enum Job {
    Flow(Box<FlowJob>),
    Load { dataset: String, path: String },
    Reload { dataset: String },
    Sleep { ms: u64 },
}

/// A flow query as `route` leaves it: prepared, looked up and missed.
struct FlowJob {
    query: PreparedQuery,
    prof: QueryProfile,
    explain: bool,
}

impl Job {
    /// Parses a request for a verb other than the flow queries and the
    /// ones `route` answers itself.
    fn parse(request: &Message) -> Result<Self, String> {
        match request.head.as_str() {
            "load" => Ok(Job::Load {
                dataset: request.get("dataset").ok_or("load needs 'dataset'")?.into(),
                path: request.get("path").ok_or("load needs 'path'")?.into(),
            }),
            "reload" => {
                let dataset = request.get("dataset").ok_or("reload needs 'dataset'")?;
                if request.get("path").is_some() {
                    // Silently ignoring the path would re-read the
                    // *recorded* file — not what the caller asked for.
                    return Err(
                        "reload re-reads the recorded path; use 'load' to point at a new file"
                            .to_string(),
                    );
                }
                Ok(Job::Reload {
                    dataset: dataset.into(),
                })
            }
            "sleep" => Ok(Job::Sleep {
                ms: request.get_parsed("ms")?.unwrap_or(100).min(60_000),
            }),
            other => Err(format!("unknown request '{other}'")),
        }
    }

    fn verb(&self) -> &'static str {
        match self {
            Job::Flow(job) => match job.query.opts.kind {
                QueryKind::MaxFlow => "maxflow",
                QueryKind::MinCut => "mincut",
            },
            Job::Load { .. } => "load",
            Job::Reload { .. } => "reload",
            Job::Sleep { .. } => "sleep",
        }
    }
}

/// The `plan` of an answer read off the snapshot's cut tree.
const PLAN_TREE: &str = "tree";

/// The `plan` of every other answer: solved on the whole graph.
const PLAN_FULL: &str = "full";

/// Parses a request's `algorithm` field; `None` is `auto` (the default):
/// the cut tree where it applies, the local search otherwise.
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
    snap: Arc<Snapshot>,
    resolved: ResolvedQuery,
    opts: QueryOptions,
    key: CacheKey,
}

/// The resolved terminals of a query: either the literal `s`/`t` pair or
/// a super source/sink construction over high-degree terminal sets. No
/// network is built here: every unpinned query solves on the snapshot's
/// own, and a pinned `w` query's augmented copy is built only to be
/// solved.
struct ResolvedQuery {
    /// `s`, or the super source (vertex `n`) of a pinned `w` query's
    /// copy.
    source: VertexId,
    /// `t`, or the super sink (vertex `n + 1`) of that copy.
    sink: VertexId,
    /// Terminal vertex sets, in selection order; the cache key sorts
    /// its own copy.
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

    /// Executes one request, returning the response message: [`route`]
    /// and then, if it left work, [`run`] on the same thread with no
    /// queue wait. Never panics on malformed input — protocol errors
    /// become `error` responses.
    ///
    /// [`route`]: Self::route
    /// [`run`]: Self::run
    #[must_use]
    pub fn execute(&self, request: &Message) -> Message {
        match self.route(request) {
            Route::Reply(reply) => reply,
            Route::Work(work) => self.run(work, Duration::ZERO),
        }
    }

    /// The first stage of a request, cheap enough for a connection
    /// thread: parses it, answers the verbs that need no solver or disk
    /// (`ping`, `list`, `stats`, `slowlog`, and every malformed or
    /// unknown request), and for a flow query resolves its terminals and
    /// tries the cut tree and then the cache — one counted lookup. What
    /// it cannot answer comes back as [`Work`].
    #[must_use]
    pub fn route(&self, request: &Message) -> Route {
        let started = Instant::now();
        let result = match request.head.as_str() {
            "ping" => Ok(Message::new(status::OK).field("pong", 1)),
            "list" => Ok(self.list()),
            "stats" => self.stats(request),
            "slowlog" => self.slowlog_verb(request),
            "maxflow" => return self.route_flow(request, QueryKind::MaxFlow, started),
            "mincut" => return self.route_flow(request, QueryKind::MinCut, started),
            _ => match Job::parse(request) {
                Ok(job) => return work(job, started),
                Err(message) => Err(message),
            },
        };
        Route::Reply(finish_request(
            &request.head,
            ffmr_obs::span("query"),
            started.elapsed(),
            result,
        ))
    }

    /// The second stage: does what [`route`](Self::route) left, after it
    /// waited `queue_wait` for a worker. A flow query claims its key in
    /// the cache: it replies with the answer an identical query left
    /// there meanwhile, waits for one still solving, or solves (the local
    /// search, or the solver thread when pinned) and publishes the
    /// answer.
    #[must_use]
    pub fn run(&self, work: Work, queue_wait: Duration) -> Message {
        let started = Instant::now();
        let verb = work.job.verb();
        let span = ffmr_obs::span("query");
        let result = match work.job {
            Job::Flow(job) => {
                let FlowJob {
                    query,
                    mut prof,
                    explain,
                } = *job;
                prof.queue_wait_us = micros(queue_wait);
                let result = self.solve_flow(query, &mut prof);
                self.close_profile(prof, work.routed + started.elapsed(), explain, result)
            }
            Job::Load { dataset, path } => self.load(&dataset, &path),
            Job::Reload { dataset } => self.reload(&dataset),
            Job::Sleep { ms } => {
                // Diagnostic: occupies a worker so operators (and the
                // test suite) can probe queue shedding without crafting
                // an expensive graph query.
                std::thread::sleep(Duration::from_millis(ms));
                Ok(Message::new(status::OK).field("slept-ms", ms))
            }
        };
        finish_request(verb, span, work.routed + started.elapsed(), result)
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

    fn load(&self, name: &str, path: &str) -> Result<Message, String> {
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

    fn reload(&self, name: &str) -> Result<Message, String> {
        let epoch = self.store.reload(name).map_err(|e| e.to_string())?;
        self.cache.invalidate_dataset(name);
        Ok(Message::new(status::OK)
            .field("dataset", name)
            .field("epoch", epoch))
    }

    /// The flow-query half of [`route`](Self::route): prepares the
    /// query, then answers it from the cut tree or the cache, or leaves
    /// it as work. The profile opened here travels with the work, so a
    /// query has one profile whichever stage answers it.
    fn route_flow(&self, request: &Message, kind: QueryKind, started: Instant) -> Route {
        let mut prof = new_profile(request);
        let explain = request.get("explain").is_some();
        let result = match self.prepare(request, kind, &mut prof) {
            Ok(query) => match self.answer_inline(&query, &mut prof) {
                Some(reply) => Ok(reply),
                None => {
                    let job = FlowJob {
                        query,
                        prof,
                        explain,
                    };
                    return work(Job::Flow(Box::new(job)), started);
                }
            },
            Err(message) => Err(message),
        };
        let result = self.close_profile(prof, started.elapsed(), explain, result);
        Route::Reply(finish_request(
            &request.head,
            ffmr_obs::span("query"),
            started.elapsed(),
            result,
        ))
    }

    /// Completes a flow query's profile: total and wall-clock stamps,
    /// outcome, stage and deadline histograms, the slowlog, and the
    /// `explain` echo on the response. `engine` is the engine time so
    /// far, without the queue wait the profile already holds.
    fn close_profile(
        &self,
        mut prof: QueryProfile,
        engine: Duration,
        explain: bool,
        result: Result<Message, String>,
    ) -> Result<Message, String> {
        prof.total_us = prof.queue_wait_us + micros(engine);
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
                .record(prof.total_us.saturating_mul(100) / prof.deadline_ms.saturating_mul(1_000));
        }
        if prof.total_us >= micros(self.config.slow_query_threshold) {
            self.slowlog.record(prof.clone());
        }
        let mut response = result?;
        if explain {
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

    /// The reply the cut tree or the cache gives `q`, if either does.
    fn answer_inline(&self, q: &PreparedQuery, prof: &mut QueryProfile) -> Option<Message> {
        if let Some(reply) = tree_reply(q, prof) {
            return Some(reply);
        }
        prof.cache = if q.opts.use_cache { "miss" } else { "bypass" }.to_string();
        if !q.opts.use_cache {
            return None;
        }
        let hit = self.cache.get(&q.key)?;
        Some(hit_reply(&hit, q, prof))
    }

    /// Solves a query the tree and the cache did not answer, once its
    /// claim on the cache finds neither the answer nor an identical query
    /// solving; the leader publishes the answer to the cache.
    fn solve_flow(&self, q: PreparedQuery, prof: &mut QueryProfile) -> Result<Message, String> {
        prof.deadline_ms = u64::try_from(q.opts.timeout.as_millis()).unwrap_or(u64::MAX);
        prof.plan = PLAN_FULL.to_string();
        let (answer, coalesced) = if q.opts.use_cache {
            match self.cache.claim(&q.key) {
                Claim::Ready(hit) => return Ok(hit_reply(&hit, &q, prof)),
                Claim::Follow(follower) => {
                    let result = follower.wait();
                    ffmr_obs::global()
                        .counter("ffmr_query_coalesced_total", &[])
                        .inc();
                    prof.plan_reason = "coalesced-follower".to_string();
                    let answer = result?;
                    prof.solver = answer.solver.to_string();
                    (answer, true)
                }
                Claim::Lead(ticket) => {
                    let result = self.compute(&q, prof);
                    let publish_started = Instant::now();
                    ticket.publish(result.clone());
                    prof.cache_update_us += elapsed_us(publish_started);
                    (result?, false)
                }
            }
        } else {
            (self.compute(&q, prof)?, false)
        };
        prof.coalesced = coalesced;
        let mut response = render_answer(&answer, PLAN_FULL, &q, false);
        push_serving_fields(&mut response, coalesced, prof.queue_wait_us);
        Ok(response)
    }

    /// Answers a query the tree did not: the local search on the
    /// snapshot, or the pinned solver on the solver thread.
    fn compute(&self, q: &PreparedQuery, prof: &mut QueryProfile) -> Result<CachedAnswer, String> {
        let PreparedQuery {
            snap,
            resolved,
            opts,
            ..
        } = q;
        let Some(algo) = opts.requested else {
            return self.solve_local(&snap.network, resolved, opts, prof);
        };
        prof.plan_reason = "algorithm-pinned".to_string();
        let net = if resolved.super_st {
            // Built only here, by the query about to solve on it; the
            // copy is part of resolving the terminals.
            let copy_started = Instant::now();
            let net = snap
                .network
                .with_super_terminals(&resolved.source_terminals, &resolved.sink_terminals);
            prof.resolve_us += elapsed_us(copy_started);
            Arc::new(net)
        } else {
            Arc::clone(&snap.network)
        };
        self.solve(algo, &net, resolved, opts, prof)
    }

    fn resolve_terminals(
        &self,
        request: &Message,
        base: &FlowNetwork,
    ) -> Result<ResolvedQuery, String> {
        let raw = |ids: Vec<VertexId>| ids.into_iter().map(VertexId::raw).collect();
        let n = base.num_vertices() as u64;
        let w: usize = request.get_parsed("w")?.unwrap_or(0);
        if w > 0 {
            let seed: u64 = request
                .get_parsed("seed")?
                .unwrap_or(self.config.super_seed);
            let min_degree: usize = request
                .get_parsed("min-degree")?
                .unwrap_or(self.config.super_min_degree);
            let (sources, sinks) =
                swgraph::super_st::select_super_terminals(base, w, min_degree, seed)
                    .map_err(|e| e.to_string())?;
            return Ok(ResolvedQuery {
                source: VertexId::new(n),
                sink: VertexId::new(n + 1),
                source_terminals: raw(sources),
                sink_terminals: raw(sinks),
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
        if source >= n || sink >= n {
            return Err(format!("terminal outside the graph (0..{n})"));
        }
        Ok(ResolvedQuery {
            source: VertexId::new(source),
            sink: VertexId::new(sink),
            source_terminals: vec![source],
            sink_terminals: vec![sink],
            super_st: false,
        })
    }

    /// Solves `q` on `net` with `algo` on the solver thread. Every
    /// in-memory solver polls a deadline at its natural progress
    /// boundaries; a query that blows its budget returns a timeout error
    /// instead of holding the connection hostage.
    fn solve(
        &self,
        algo: Algorithm,
        net: &Arc<FlowNetwork>,
        q: &ResolvedQuery,
        opts: &QueryOptions,
        prof: &mut QueryProfile,
    ) -> Result<CachedAnswer, String> {
        prof.solver = algo.name().to_string();
        let cancel = Cancel::after(opts.timeout);
        let solve_started = Instant::now();
        let solved = self.solver.solve(algo, net, q.source, q.sink, &cancel);
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
            let cut = maxflow::min_cut::extract_min_cut(net, q.source, &flow);
            answer.cut_edges = Some(cut.cut_edges.len());
            answer.cut_source_side = Some(cut.source_side.len());
        }
        Ok(answer)
    }

    /// Runs the certified [`maxflow::local`] search on `q`'s terminal
    /// sets with pooled scratch; a `mincut` reads its side off the
    /// search's residual graph, counting a `w` query's super source as a
    /// pinned solve's copy does.
    fn solve_local(
        &self,
        net: &FlowNetwork,
        q: &ResolvedQuery,
        opts: &QueryOptions,
        prof: &mut QueryProfile,
    ) -> Result<CachedAnswer, String> {
        let ids = |raw: &[u64]| raw.iter().map(|&v| VertexId::new(v)).collect::<Vec<_>>();
        let (sources, sinks) = (ids(&q.source_terminals), ids(&q.sink_terminals));
        let cancel = Cancel::after(opts.timeout);
        let solve_started = Instant::now();
        let mut search = self
            .local
            .lock()
            .expect("local scratch")
            .pop()
            .unwrap_or_default();
        let searched = search.run(net, &sources, &sinks, &cancel);
        self.local.lock().expect("local scratch").push(search);
        prof.solve_us += elapsed_us(solve_started);
        let (found, report) = searched.map_err(|_| timeout_message(opts.timeout))?;
        add_report(prof, &report);
        let outcome = match found.certificate {
            Certificate::SourceArcs | Certificate::SinkArcs => "trivial-cut",
            Certificate::SourceReach(_) | Certificate::SinkReach(_) => "exhausted",
        };
        ffmr_obs::global()
            .counter("ffmr_local_searches_total", &[("outcome", outcome)])
            .inc();
        prof.plan_reason = format!("local-{outcome}");
        prof.solver = local::NAME.to_string();
        let mut answer = CachedAnswer {
            flow: found.value,
            solver: local::NAME,
            cut_edges: None,
            cut_source_side: None,
        };
        if opts.kind == QueryKind::MinCut {
            let cut = found.min_cut(net);
            answer.cut_edges = Some(cut.cut_edges.len());
            answer.cut_source_side = Some(cut.source_side.len() + usize::from(q.super_st));
        }
        Ok(answer)
    }
}

/// `route`'s hand-off: `job` with the engine time spent on it so far.
fn work(job: Job, started: Instant) -> Route {
    Route::Work(Work {
        job,
        routed: started.elapsed(),
    })
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

/// A fresh profile for a flow query request. Its queue wait stays 0
/// unless a worker runs the query after a wait.
fn new_profile(request: &Message) -> QueryProfile {
    QueryProfile {
        verb: request.head.clone(),
        dataset: request.get("dataset").unwrap_or("").to_string(),
        plan: "-".to_string(),
        ..QueryProfile::default()
    }
}

/// Turns a verb's result into the response: `elapsed-us` (engine time,
/// queue wait excluded) on success, an `error` reply otherwise; closes
/// the `query` span and records the request metrics.
fn finish_request(
    verb: &str,
    mut span: ffmr_obs::Span,
    elapsed: Duration,
    result: Result<Message, String>,
) -> Message {
    let response = match result {
        Ok(mut response) => {
            response.push("elapsed-us", elapsed.as_micros());
            response
        }
        Err(message) => error_response(message),
    };
    span.field("verb", verb);
    span.field("status", &response.head);
    drop(span);
    record_query_metrics(verb, &response, elapsed);
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
    let mut response = render_answer(&answer, PLAN_TREE, q, false);
    push_serving_fields(&mut response, false, prof.queue_wait_us);
    Some(response)
}

/// Renders a cache hit and notes it in the profile.
fn hit_reply(hit: &CachedAnswer, q: &PreparedQuery, prof: &mut QueryProfile) -> Message {
    prof.cache = "hit".to_string();
    prof.plan = PLAN_FULL.to_string();
    prof.plan_reason = "cache-hit".to_string();
    prof.solver = hit.solver.to_string();
    let mut response = render_answer(hit, PLAN_FULL, q, true);
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

/// Saturating microseconds in `d`.
fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Saturating microseconds since `since` — stage windows in a
/// [`QueryProfile`] never panic on clock weirdness.
fn elapsed_us(since: Instant) -> u64 {
    micros(since.elapsed())
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

fn render_answer(answer: &CachedAnswer, plan: &str, q: &PreparedQuery, cached: bool) -> Message {
    let mut response = Message::new(status::OK)
        .field("dataset", &q.snap.name)
        .field("epoch", q.snap.epoch)
        .field("flow", answer.flow)
        .field("solver", answer.solver)
        .field("plan", plan)
        .field("cached", u8::from(cached));
    if q.opts.kind == QueryKind::MinCut {
        if let (Some(edges), Some(side)) = (answer.cut_edges, answer.cut_source_side) {
            response.push("cut-edges", edges);
            response.push("cut-source-side", side);
        }
    }
    response.push("sources", join(&q.resolved.source_terminals));
    response.push("sinks", join(&q.resolved.sink_terminals));
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

    /// The reply [`QueryEngine::route`] gives on its own, or `None` when
    /// it leaves work for a pool worker.
    fn inline(engine: &QueryEngine, request: &Message) -> Option<Message> {
        match engine.route(request) {
            Route::Reply(reply) => Some(reply),
            Route::Work(_) => None,
        }
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
            for r in [engine.execute(&q), inline(&engine, &q).unwrap()] {
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
        assert!(inline(&engine, &query("maxflow").field("no-cache", 1)).is_none());
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
            (query("mincut"), "full", "local"),
            (w, "full", "local"),
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
            assert!(inline(&engine, &q.field("no-cache", 1)).is_none());
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
            (pair("mincut").field("sink", n - 1), "local", Some(&dinic)),
            (w, "local", None),
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
        assert_eq!(r.get("solver"), Some("local"));
        assert_eq!(r.get("cut-edges"), Some("2"));
        let side: usize = r.get("cut-source-side").unwrap().parse().unwrap();
        assert!((1..4).contains(&side));
    }

    /// Unpinned `mincut` and `w` queries are answered by the local search
    /// on the snapshot, and answer what a pinned `parallel-pr` or `dinic`
    /// solve answers: the residual-reachable min cut is the same for
    /// every maximum flow.
    #[test]
    fn unpinned_mincut_and_w_answer_like_every_pinned_solver() {
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
            assert_eq!(unpinned.get("solver"), Some("local"), "{q:?}");
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
    fn resolving_terminals_builds_no_network() {
        // Regression: plain s→t queries used to clone the whole graph
        // per query, and a `w` query copied it before its cache lookup.
        // Resolution now names the terminals only.
        let engine = engine_with(two_paths(), EngineConfig::default());
        let snap = engine.store().get("g").unwrap();
        let resolved = engine
            .resolve_terminals(&query("maxflow"), &snap.network)
            .unwrap();
        assert_eq!((resolved.source.raw(), resolved.sink.raw()), (0, 3));
        assert!(!resolved.super_st);
        // A super-terminal query names the super source and sink of the
        // network its solver will build, and the selected sets.
        let super_request = Message::new("maxflow").field("dataset", "g").field("w", 1);
        let resolved = engine
            .resolve_terminals(&super_request, &snap.network)
            .unwrap();
        assert_eq!((resolved.source.raw(), resolved.sink.raw()), (4, 5));
        let config = EngineConfig::default();
        let (sources, sinks) = swgraph::super_st::select_super_terminals(
            &snap.network,
            1,
            config.super_min_degree,
            config.super_seed,
        )
        .unwrap();
        let raw = |ids: Vec<VertexId>| ids.into_iter().map(VertexId::raw).collect::<Vec<_>>();
        assert_eq!(resolved.source_terminals, raw(sources));
        assert_eq!(resolved.sink_terminals, raw(sinks));
        let r = engine.execute(&super_request);
        assert_eq!(r.head, status::OK, "{r:?}");
        assert_eq!(r.get("flow"), Some("2"), "{r:?}");
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
        // A super-terminal query takes the local search under `auto`.
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
    /// `maxflow`, each answered by the local search, equals the same query
    /// pinned to Dinic.
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
            assert_eq!(
                (unpinned.get("plan"), unpinned.get("solver")),
                (Some("full"), Some("local")),
                "{unpinned:?}"
            );
            assert_eq!(unpinned.get("flow"), dinic.get("flow"), "({s},{t})");
        }
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
    fn two_hubs_sharing_their_middles_are_answered_by_the_search() {
        // Two hubs sharing 50 unit middles: each augmenting path ends on a
        // hub, and the search keeps its trees across the 50 of them.
        let mut b = swgraph::FlowNetworkBuilder::new(52);
        for m in 2..52 {
            b.add_undirected(0, m, 1);
            b.add_undirected(m, 1, 1);
        }
        let engine = engine_with(one_way(&b.build()), EngineConfig::default());
        let q = |head| {
            Message::new(head)
                .field("dataset", "g")
                .field("source", 0)
                .field("sink", 1)
                .field("no-cache", 1)
        };
        let r = engine.execute(&q("maxflow").field("explain", 1));
        assert_eq!(r.head, status::OK, "{r:?}");
        assert_eq!(r.get("flow"), Some("50"));
        assert_eq!(
            (r.get("plan"), r.get("solver")),
            (Some("full"), Some("local"))
        );
        let prof = ffmr_obs::QueryProfile::from_json(r.get("profile").unwrap()).unwrap();
        assert_eq!(prof.plan_reason, "local-trivial-cut");
        assert_eq!(prof.augmenting_paths, 50, "{prof:?}");
        let unpinned = engine.execute(&q("mincut"));
        let dinic = engine.execute(&q("mincut").field("algorithm", "dinic"));
        for field in ["flow", "cut-edges", "cut-source-side"] {
            assert_eq!(unpinned.get(field), dinic.get(field), "{field}");
        }
    }

    /// Seeded `w` mincuts (w ∈ {2, 8, 64}) and seeded `mincut` pairs on
    /// FB1'–FB3' and R-MAT 2^12: the local search's `flow`, `cut-edges`,
    /// `cut-source-side`, `sources` and `sinks` equal a pinned Dinic
    /// solve's, the `w` ones on the super-terminal copy.
    #[test]
    fn unpinned_w_and_mincut_queries_answer_like_dinic() {
        let scale = 50;
        let crawl = gen::social_crawl(&gen::FB_CHECKPOINTS[..3], scale, 5_000, 42);
        let fb = gen::FB_CHECKPOINTS[..3].iter().map(|checkpoint| {
            let n = (checkpoint.vertices / scale).max(2);
            FlowNetwork::from_undirected_unit(n, &gen::induced_prefix(&crawl, n))
        });
        let rmat = FlowNetwork::from_undirected_unit(1 << 12, &gen::rmat_graph500(12, 7));
        let mut rng = ffmr_prng::SplitMix64::seed_from_u64(49);
        for (g, net) in fb.chain([rmat]).enumerate() {
            let n = net.num_vertices() as u64;
            // One way on one edge: no cut tree to build meanwhile.
            let engine = engine_with(one_way(&net), EngineConfig::default());
            let mut queries: Vec<Message> = (0..50u64)
                .map(|i| {
                    Message::new("mincut")
                        .field("w", [2, 8, 64][i as usize % 3])
                        .field("seed", i)
                })
                .collect();
            while queries.len() < 70 {
                let (s, t) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if s != t {
                    queries.push(Message::new("mincut").field("source", s).field("sink", t));
                }
            }
            for q in queries {
                let q = q.field("dataset", "g").field("no-cache", 1);
                let unpinned = engine.execute(&q);
                assert_eq!(unpinned.head, status::OK, "graph {g} {q:?}: {unpinned:?}");
                assert_eq!(unpinned.get("solver"), Some("local"), "{q:?}");
                let dinic = engine.execute(&q.clone().field("algorithm", "dinic"));
                for field in ["flow", "cut-edges", "cut-source-side", "sources", "sinks"] {
                    assert_eq!(
                        unpinned.get(field),
                        dinic.get(field),
                        "graph {g} {field}: {q:?}"
                    );
                }
            }
        }
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
        }
        // Every concurrent duplicate but one followed the solve
        // (coalesced) or found its answer (cached).
        let led = responses
            .iter()
            .filter(|r| (r.get("cached"), r.get("coalesced")) == (Some("0"), Some("0")))
            .count();
        assert_eq!(led, 1, "{responses:?}");
    }

    /// Duplicates routed before the first is solved each leave work; run
    /// one after another, only the first solves and the rest find its
    /// answer in the cache.
    #[test]
    fn queued_duplicates_solve_once() {
        let n = 500;
        let net = FlowNetwork::from_undirected_unit(n, &gen::barabasi_albert(n, 3, 11));
        let engine = engine_with(one_way(&net), EngineConfig::default());
        let q = Message::new("maxflow")
            .field("dataset", "g")
            .field("source", 0)
            .field("sink", n - 1)
            .field("explain", 1);
        let works: Vec<Work> = (0..3)
            .map(|_| match engine.route(&q) {
                Route::Work(work) => work,
                Route::Reply(r) => panic!("nothing is cached yet: {r:?}"),
            })
            .collect();
        let replies: Vec<Message> = works
            .into_iter()
            .map(|work| engine.run(work, Duration::ZERO))
            .collect();
        fn served(r: &Message) -> [Option<&str>; 3] {
            [r.get("cached"), r.get("coalesced"), r.get("solver")]
        }
        assert_eq!(served(&replies[0]), [Some("0"), Some("0"), Some("local")]);
        for r in &replies[1..] {
            assert_eq!(served(r), [Some("1"), Some("0"), Some("local")], "{r:?}");
            assert_eq!(r.get("flow"), replies[0].get("flow"));
            let prof = ffmr_obs::QueryProfile::from_json(r.get("profile").unwrap()).unwrap();
            assert_eq!(
                (prof.plan_reason.as_str(), prof.cache.as_str()),
                ("cache-hit", "hit")
            );
        }
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 3, 1));
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
            .field("explain", 1);
        let Route::Work(work) = engine.route(&q) else {
            panic!("a cold query is left for a worker");
        };
        let r = engine.run(work, Duration::from_micros(1234));
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

        // A cache hit explains itself as such, answered by `route`.
        let fast = inline(&engine, &q).expect("a cached answer");
        assert_eq!(fast.get("flow"), r.get("flow"));
        let prof = ffmr_obs::QueryProfile::from_json(fast.get("profile").unwrap()).unwrap();
        assert_eq!(prof.plan_reason, "cache-hit");
        assert_eq!(
            (prof.cache.as_str(), prof.solver.as_str()),
            ("hit", "local")
        );
        assert_eq!(prof.queue_wait_us, 0);
    }

    /// Regression: the daemon used to forward the queue wait on the
    /// request as a `queue-wait-us` field, and the engine read the first
    /// one — so a client's own field set its profile's wait and total,
    /// and a fast query landed in the slowlog.
    #[test]
    fn a_request_cannot_set_its_own_queue_wait() {
        let engine = engine_with(one_way(&two_paths()), EngineConfig::default());
        let q = query("maxflow")
            .field("queue-wait-us", 999_999)
            .field("explain", 1);
        let profile = |r: &Message| {
            assert_eq!(r.head, status::OK, "{r:?}");
            ffmr_obs::QueryProfile::from_json(r.get("profile").unwrap()).unwrap()
        };
        let Route::Work(work) = engine.route(&q) else {
            panic!("a cold query is left for a worker");
        };
        let solved = engine.run(work, Duration::from_micros(7));
        assert_eq!(profile(&solved).queue_wait_us, 7);
        assert_eq!(solved.get("queue_wait_us"), Some("7"));
        let hit = engine.execute(&q);
        assert_eq!(hit.get("cached"), Some("1"));
        assert_eq!(profile(&hit).queue_wait_us, 0);
        assert!(profile(&hit).total_us < 999_999);
        let log = engine.execute(&Message::new("slowlog"));
        assert_eq!(log.get("count"), Some("0"), "{log:?}");
    }

    #[test]
    fn route_answers_without_a_solver_and_leaves_the_rest() {
        let engine = engine_with(one_way(&two_paths()), EngineConfig::default());
        let Route::Work(cold) = engine.route(&query("maxflow")) else {
            panic!("a cold query needs a solver");
        };
        let stats = engine.cache_stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 1),
            "route makes the query's one counted lookup"
        );
        let solved = engine.run(cold, Duration::ZERO);
        assert_eq!(
            engine.cache_stats().misses,
            1,
            "the worker does not look again"
        );
        let hit = inline(&engine, &query("maxflow")).expect("now cached");
        assert_eq!(hit.head, status::OK);
        assert_eq!(hit.get("cached"), Some("1"));
        for field in ["flow", "solver", "plan", "sources", "sinks"] {
            assert_eq!(hit.get(field), solved.get(field), "{field}");
        }
        assert!(hit.get("elapsed-us").is_some());
        assert_eq!(engine.cache_stats().hits, 1);
        // A cached super-terminal query is answered too: resolving it
        // picks terminals and copies no graph.
        let w = Message::new("maxflow").field("dataset", "g").field("w", 1);
        assert!(inline(&engine, &w).is_none(), "cold");
        let first = engine.execute(&w);
        let again = inline(&engine, &w).expect("cached");
        assert_eq!(again.get("cached"), Some("1"));
        for field in ["flow", "sources", "sinks"] {
            assert_eq!(again.get(field), first.get(field), "{field}");
        }
        // What needs a solver or the disk is left as work: opted out,
        // an uncached mincut, the admin verbs.
        for request in [
            query("maxflow").field("no-cache", 1),
            query("mincut"),
            Message::new("sleep").field("ms", 0),
            Message::new("reload").field("dataset", "g"),
        ] {
            assert!(inline(&engine, &request).is_none(), "{request:?}");
        }
        // Cheap verbs are answered; malformed and unknown requests get
        // their error without taking a worker.
        for (request, head) in [
            (Message::new("ping"), status::OK),
            (query("maxflow").field("algorithm", "bogus"), status::ERROR),
            (
                Message::new("maxflow").field("dataset", "nope"),
                status::ERROR,
            ),
            (Message::new("load").field("dataset", "g"), status::ERROR),
            (Message::new("warp"), status::ERROR),
        ] {
            let r = inline(&engine, &request).expect("answered inline");
            assert_eq!(r.head, head, "{request:?} → {r:?}");
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
