//! The FFMR driver: the paper's main program (Fig. 2) plus the variant
//! configuration ladder FF1–FF5.

use std::fmt;
use std::sync::Arc;

use mapreduce::driver::{collect_garbage, round_path, side_path};
use mapreduce::{JobBuilder, MrRuntime, Service};
use swgraph::{Capacity, FlowNetwork, VertexId};

use crate::aug_service::{AugProc, AUG_PROC};
use crate::augmented::AugmentedEdges;
use crate::checkpoint::{self, CheckpointManifest, ConfigTag};
use crate::error::FfError;
use crate::map_reduce_fns::{FfMapper, FfReducer, FfShared};
use crate::round0;

/// Where an injected driver crash fires. This is the fault-injection
/// analogue of the *driving program* dying — the blind spot of Hadoop's
/// task-level fault tolerance, which the per-round checkpoint manifest
/// (see [`crate::checkpoint`]) closes. Everything already durable in the
/// DFS survives the "crash"; [`resume_max_flow`] picks the run back up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Crash after round `N` fully completes: its checkpoint is written
    /// and garbage collection has run. Resume continues at round `N + 1`
    /// (or just reconstructs the result if `N` was the final round).
    /// `AfterRound(0)` crashes right after graph preparation.
    AfterRound(usize),
    /// Crash in the middle of round `N` (≥ 1): the round's MR job ran and
    /// its output file exists, but acceptance was never recorded and no
    /// checkpoint for `N` was written. Resume discards the half-finished
    /// output and re-executes round `N` from the round `N - 1` state.
    MidRound(usize),
}

/// Which optimizations are enabled (cumulative in the paper's ladder).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FfVariant {
    /// FF2: augmenting paths go to the stateful `aug_proc` service from
    /// the reduce phase instead of being shuffled to the sink's reducer.
    pub stateful_aug: bool,
    /// FF3: schimmy — master vertex records are never shuffled.
    pub schimmy: bool,
    /// FF4: pooled objects — allocation-free record handling.
    pub pooled_objects: bool,
    /// FF5: `k = in-degree` plus remembered extensions (no re-sends).
    pub remember_sent: bool,
}

impl FfVariant {
    /// FF1: the baseline design (Sec. III).
    #[must_use]
    pub fn ff1() -> Self {
        Self {
            stateful_aug: false,
            schimmy: false,
            pooled_objects: false,
            remember_sent: false,
        }
    }

    /// FF2 = FF1 + stateful `aug_proc` (Sec. IV-A).
    #[must_use]
    pub fn ff2() -> Self {
        Self {
            stateful_aug: true,
            ..Self::ff1()
        }
    }

    /// FF3 = FF2 + schimmy (Sec. IV-B).
    #[must_use]
    pub fn ff3() -> Self {
        Self {
            schimmy: true,
            ..Self::ff2()
        }
    }

    /// FF4 = FF3 + object-instantiation elimination (Sec. IV-C).
    #[must_use]
    pub fn ff4() -> Self {
        Self {
            pooled_objects: true,
            ..Self::ff3()
        }
    }

    /// FF5 = FF4 + redundant-message prevention (Sec. IV-D).
    #[must_use]
    pub fn ff5() -> Self {
        Self {
            remember_sent: true,
            ..Self::ff4()
        }
    }

    /// All five variants in ladder order, with their display labels.
    #[must_use]
    pub fn ladder() -> [(&'static str, FfVariant); 5] {
        [
            ("FF1", Self::ff1()),
            ("FF2", Self::ff2()),
            ("FF3", Self::ff3()),
            ("FF4", Self::ff4()),
            ("FF5", Self::ff5()),
        ]
    }

    /// The name this variant parses from (`--algorithm`, the daemon's
    /// `algorithm`/`solver` fields): `ff1`…`ff5` in ladder order, or
    /// `custom` for a flag combination off the ladder.
    #[must_use]
    pub fn name(self) -> &'static str {
        Self::ladder()
            .iter()
            .position(|&(_, v)| v == self)
            .map_or("custom", |i| Self::NAMES[i])
    }

    /// [`FfVariant::name`] of every [`FfVariant::ladder`] entry, in order.
    pub const NAMES: [&'static str; 5] = ["ff1", "ff2", "ff3", "ff4", "ff5"];
}

impl std::str::FromStr for FfVariant {
    type Err = UnknownVariant;

    fn from_str(name: &str) -> Result<Self, Self::Err> {
        Self::ladder()
            .into_iter()
            .map(|(_, v)| v)
            .find(|v| v.name() == name)
            .ok_or_else(|| UnknownVariant(name.to_string()))
    }
}

/// The error parsing an [`FfVariant`] name returns; its message lists the
/// names that would have parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownVariant(pub String);

impl std::fmt::Display for UnknownVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown FF variant '{}' (expected one of: {})",
            self.0,
            FfVariant::NAMES.join(", ")
        )
    }
}

impl std::error::Error for UnknownVariant {}

/// How many excess paths a vertex may store (paper Sec. III-B3 / IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KPolicy {
    /// At most this many source (and sink) paths per vertex.
    Fixed(usize),
    /// `k` = the vertex's degree, guaranteeing space for every neighbor's
    /// extension (the FF5 strategy).
    InDegree,
}

impl KPolicy {
    /// The limit for a vertex of the given degree.
    #[must_use]
    pub fn limit(self, degree: usize) -> usize {
        match self {
            KPolicy::Fixed(k) => k,
            KPolicy::InDegree => degree,
        }
    }
}

/// Runtime hooks into a driver run: a per-round progress callback,
/// invoked with the round's statistics after every completed round
/// (progress bars, live dashboards, adaptive schedulers).
#[derive(Clone, Default)]
pub struct FfHooks {
    /// Called after every completed round with its statistics.
    pub on_round: Option<RoundCallback>,
}

/// Shared per-round progress callback (see [`FfHooks::on_round`]).
pub type RoundCallback = Arc<dyn Fn(&RoundStats) + Send + Sync>;

impl FfHooks {
    fn report(&self, stats: &RoundStats) {
        if let Some(cb) = &self.on_round {
            cb(stats);
        }
    }
}

impl fmt::Debug for FfHooks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FfHooks")
            .field("on_round", &self.on_round.is_some())
            .finish()
    }
}

/// Configuration for one FFMR run.
#[derive(Debug, Clone)]
pub struct FfConfig {
    /// Source vertex.
    pub source: VertexId,
    /// Sink vertex.
    pub sink: VertexId,
    /// Enabled optimizations.
    pub variant: FfVariant,
    /// Excess-path storage policy (FF5 forces `InDegree`).
    pub k_policy: KPolicy,
    /// Bi-directional search (paper Sec. III-B2). Disabling it seeds no
    /// sink excess paths: augmenting paths are found only when source
    /// paths reach `t` — the ablation showing why the paper added it.
    pub bidirectional: bool,
    /// Extend every stored excess path per edge instead of one (paper
    /// Sec. III-B3 "decided to only pick one ... extending more than one
    /// excess path incurs overhead without much benefit").
    pub extend_all_paths: bool,
    /// Reduce partitions per round.
    pub reducers: usize,
    /// Safety cap on rounds (the paper sees ≤ ~20 even on 31B edges).
    pub max_rounds: usize,
    /// DFS chain base path.
    pub base_path: String,
    /// Keep this many recent round outputs in the DFS (≥ 2 for schimmy).
    pub keep_rounds: usize,
    /// Persist a checkpoint manifest to the DFS after every completed
    /// round (default: on), enabling [`resume_max_flow`]. The manifest is
    /// tiny (driver state only — the vertex records are already DFS
    /// files), so there is little reason to turn this off outside of
    /// micro-benchmarks.
    pub checkpoint: bool,
    /// Injected driver crash for fault-tolerance testing (default: none).
    pub crash_point: Option<CrashPoint>,
    /// Progress hooks (default: none).
    pub hooks: FfHooks,
}

impl FfConfig {
    /// A configuration with paper-faithful defaults (FF5, k = in-degree).
    #[must_use]
    pub fn new(source: VertexId, sink: VertexId) -> Self {
        Self {
            source,
            sink,
            variant: FfVariant::ff5(),
            k_policy: KPolicy::InDegree,
            bidirectional: true,
            extend_all_paths: false,
            reducers: 8,
            max_rounds: 200,
            base_path: "ffmr".to_string(),
            keep_rounds: 3,
            checkpoint: true,
            crash_point: None,
            hooks: FfHooks::default(),
        }
    }

    /// Selects the optimization ladder rung; FF5 switches the k-policy to
    /// `InDegree`, earlier rungs to a small fixed k (the paper's setup).
    #[must_use]
    pub fn variant(mut self, variant: FfVariant) -> Self {
        self.variant = variant;
        self.k_policy = if variant.remember_sent {
            KPolicy::InDegree
        } else {
            KPolicy::Fixed(4)
        };
        self
    }

    /// Overrides the excess-path storage policy.
    #[must_use]
    pub fn k_policy(mut self, policy: KPolicy) -> Self {
        self.k_policy = policy;
        self
    }

    /// Enables or disables bi-directional search.
    #[must_use]
    pub fn bidirectional(mut self, enabled: bool) -> Self {
        self.bidirectional = enabled;
        self
    }

    /// Extends all stored excess paths per edge instead of one.
    #[must_use]
    pub fn extend_all_paths(mut self, enabled: bool) -> Self {
        self.extend_all_paths = enabled;
        self
    }

    /// Sets the number of reduce partitions.
    #[must_use]
    pub fn reducers(mut self, reducers: usize) -> Self {
        self.reducers = reducers;
        self
    }

    /// Sets the round safety cap.
    #[must_use]
    pub fn max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Sets the DFS base path (needed when running several chains on one
    /// runtime).
    #[must_use]
    pub fn base_path(mut self, base: impl Into<String>) -> Self {
        self.base_path = base.into();
        self
    }

    /// Enables or disables per-round checkpointing.
    #[must_use]
    pub fn checkpoint(mut self, enabled: bool) -> Self {
        self.checkpoint = enabled;
        self
    }

    /// Injects a driver crash at the given point (fault-tolerance
    /// testing; see [`CrashPoint`]).
    #[must_use]
    pub fn crash_point(mut self, point: CrashPoint) -> Self {
        self.crash_point = Some(point);
        self
    }

    /// Installs a per-round progress callback.
    #[must_use]
    pub fn on_round(mut self, cb: impl Fn(&RoundStats) + Send + Sync + 'static) -> Self {
        self.hooks.on_round = Some(Arc::new(cb));
        self
    }
}

/// Statistics of one FFMR round (one row of the paper's Table I).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundStats {
    /// Round number (0 = graph preparation).
    pub round: usize,
    /// Augmenting paths accepted this round ("A-Paths").
    pub a_paths: u64,
    /// Flow value gained this round.
    pub value_gained: Capacity,
    /// Largest number of candidates one reduce task handed to `aug_proc`
    /// this round ("MaxQ"; the paper's RMI queue depth, made
    /// deterministic by task-order replay).
    pub max_queue: usize,
    /// Intermediate records emitted by mappers ("Map Out").
    pub map_out_records: u64,
    /// Bytes fetched by reducers ("Shuffle").
    pub shuffle_bytes: u64,
    /// Simulated runtime of the round in seconds.
    pub sim_seconds: f64,
    /// Host wall-clock the round actually took (the `ff.round` span
    /// duration: the MR job plus driver bookkeeping around it).
    pub wall_seconds: f64,
    /// `source move` counter at round end.
    pub source_move: u64,
    /// `sink move` counter at round end.
    pub sink_move: u64,
    /// Size of the graph file after this round (one replica).
    pub graph_bytes: u64,
}

/// The result of an FFMR run.
#[derive(Debug, Clone)]
pub struct FfRun {
    /// The computed maximum-flow value.
    pub max_flow_value: Capacity,
    /// Per-round statistics, including round #0.
    pub rounds: Vec<RoundStats>,
    /// Total simulated seconds across all rounds.
    pub total_sim_seconds: f64,
    /// Largest graph file observed across rounds ("Max Size").
    pub max_graph_bytes: u64,
    /// DFS path of the final vertex records.
    pub final_graph_path: String,
    /// Deltas accepted in the final round, not yet folded into
    /// `final_graph_path` (apply when extracting the flow function).
    pub pending_deltas: AugmentedEdges,
}

impl FfRun {
    /// Number of max-flow rounds (excluding round #0), the paper's
    /// primary complexity measure.
    #[must_use]
    pub fn num_flow_rounds(&self) -> usize {
        self.rounds.len().saturating_sub(1)
    }
}

/// Runs the FFMR algorithm on `net` under `config`, loading the graph
/// into the runtime's DFS and chaining rounds until the movement
/// counters signal termination (paper Fig. 2).
///
/// # Errors
/// Fails on invalid configuration, an MR job failure, or when
/// `max_rounds` is exceeded.
pub fn run_max_flow(
    rt: &mut MrRuntime,
    net: &FlowNetwork,
    config: &FfConfig,
) -> Result<FfRun, FfError> {
    if config.source == config.sink {
        return Err(FfError::InvalidConfig("source equals sink".into()));
    }
    if config.source.index() >= net.num_vertices() || config.sink.index() >= net.num_vertices() {
        return Err(FfError::InvalidConfig(
            "source or sink outside the network".into(),
        ));
    }
    round0::load_raw_edges(rt, net, &raw_input_path(&config.base_path), config.reducers)?;
    run_max_flow_from_input(rt, &raw_input_path(&config.base_path), config)
}

fn raw_input_path(base: &str) -> String {
    format!("{base}/raw-edges")
}

/// DFS blob path of the job-history file for a chain base path: one
/// [`ffmr_obs::RoundProfile`] JSON line per completed round, appended as
/// the run progresses (beside the round checkpoints). `ffmr report`
/// reads this file; a resumed run keeps extending it.
#[must_use]
pub fn history_path(base: &str) -> String {
    format!("{base}/history/rounds.jsonl")
}

/// Like [`run_max_flow`] but starting from an already-loaded raw edge
/// file (see [`round0::load_raw_edges`]).
///
/// # Errors
/// Same as [`run_max_flow`].
pub fn run_max_flow_from_input(
    rt: &mut MrRuntime,
    input_path: &str,
    config: &FfConfig,
) -> Result<FfRun, FfError> {
    let shared = make_shared(config);
    let aug = Arc::new(AugProc::default());

    let mut run_span = ffmr_obs::span("ff.run");
    run_span.field("source", config.source);
    run_span.field("sink", config.sink);

    // ---- Round 0: convert the raw edge list into vertex records.
    let round0_started = std::time::Instant::now();
    let mut stats0 = {
        let mut span = ffmr_obs::span("ff.round");
        span.field("round", 0);
        round0::run_round0(rt, input_path, &config.base_path, config.reducers, &shared)?
    };
    let graph0 = rt.dfs().file_bytes(&round_path(&config.base_path, 0));
    let mut state = LoopState {
        rounds: vec![RoundStats {
            round: 0,
            map_out_records: stats0.map_output_records,
            shuffle_bytes: stats0.shuffle_bytes,
            sim_seconds: stats0.sim_seconds,
            wall_seconds: round0_started.elapsed().as_secs_f64(),
            graph_bytes: graph0,
            ..RoundStats::default()
        }],
        total_value: 0,
        max_graph_bytes: graph0,
        deltas: Arc::new(AugmentedEdges::new(0)),
        next_round: 1,
    };
    config
        .hooks
        .report(state.rounds.last().expect("round 0 pushed"));
    record_history(
        rt,
        config,
        0,
        stats0.name.clone(),
        std::mem::take(&mut stats0.task_events),
        std::mem::take(&mut stats0.dispatch_notes),
        stats0.sim_seconds,
        round0_started.elapsed().as_secs_f64(),
    );
    if config.checkpoint {
        checkpoint::write_checkpoint(
            rt.dfs_mut(),
            &config.base_path,
            &manifest_from_state(config, &state, false),
        );
    }
    if config.crash_point == Some(CrashPoint::AfterRound(0)) {
        return Err(FfError::CrashInjected { round: 0 });
    }

    run_rounds(rt, config, &shared, &aug, &mut state, run_span)
}

/// Resumes a run from the checkpoint manifest in the runtime's DFS
/// (written by a previous run with [`FfConfig::checkpoint`] on, whose
/// driver then died — or was crash-injected — at any point after round
/// 0). Continues at the round after the last checkpointed one; if the
/// checkpointed run had already terminated, reconstructs its result
/// without running anything. The flow network itself is not needed: the
/// vertex records live in the DFS.
///
/// The `config` must describe the same problem as the original run
/// (source, sink, variant, reducers, search switches); hooks, crash
/// points and round limits may differ.
///
/// # Errors
/// [`FfError::Checkpoint`] when there is no manifest, it is corrupt, its
/// configuration fingerprint does not match `config`, or the
/// checkpointed graph file is gone; otherwise the same errors as
/// [`run_max_flow`].
pub fn resume_max_flow(rt: &mut MrRuntime, config: &FfConfig) -> Result<FfRun, FfError> {
    let manifest = checkpoint::read_checkpoint(rt.dfs(), &config.base_path)?;
    if manifest.tag != ConfigTag::of(config) {
        return Err(FfError::Checkpoint(
            "checkpoint was written by a different configuration".into(),
        ));
    }
    if !rt.dfs().exists(&manifest.graph_path) {
        return Err(FfError::Checkpoint(format!(
            "checkpointed graph {} is missing from the DFS",
            manifest.graph_path
        )));
    }
    ffmr_obs::global()
        .counter("ffmr_ff_resumes_total", &[])
        .inc();

    // Discard round outputs newer than the manifest: a mid-round crash
    // leaves the round's output file without a matching checkpoint, and
    // re-executing the round must start from a DFS identical to the one
    // the uninterrupted run saw.
    let round_prefix = format!("{}/round-", config.base_path);
    let stale: Vec<String> = rt
        .dfs()
        .list()
        .into_iter()
        .filter(|path| {
            path.strip_prefix(&round_prefix)
                .and_then(|n| n.parse::<usize>().ok())
                .is_some_and(|n| n > manifest.round)
        })
        .collect();
    for path in stale {
        rt.dfs_mut().delete(&path);
    }

    let mut run_span = ffmr_obs::span("ff.run");
    run_span.field("source", config.source);
    run_span.field("sink", config.sink);
    run_span.field("resumed_from", manifest.round);

    // Rewrite the job-history blob without any lines newer than the
    // manifest (a crash can leave the blob ahead of the checkpoint only
    // if ordering ever changes; filtering is cheap insurance either
    // way). Later rounds append to the filtered blob in place.
    if let Ok(bytes) = rt.dfs().read_blob(&history_path(&config.base_path)) {
        let mut history = String::new();
        for line in String::from_utf8_lossy(bytes).lines() {
            if ffmr_obs::RoundProfile::from_json(line).is_ok_and(|p| p.round <= manifest.round) {
                history.push_str(line);
                history.push('\n');
            }
        }
        rt.dfs_mut()
            .write_blob(&history_path(&config.base_path), history.into_bytes());
    }

    let finished = manifest.finished;
    let mut state = LoopState {
        next_round: manifest.round + 1,
        total_value: manifest.total_value,
        max_graph_bytes: manifest.max_graph_bytes,
        deltas: Arc::new(manifest.deltas),
        rounds: manifest.rounds,
    };
    if finished {
        return Ok(finish(config, &mut state, run_span));
    }
    let shared = make_shared(config);
    let aug = Arc::new(AugProc::default());
    run_rounds(rt, config, &shared, &aug, &mut state, run_span)
}

fn make_shared(config: &FfConfig) -> Arc<FfShared> {
    Arc::new(FfShared {
        source: config.source.raw(),
        sink: config.sink.raw(),
        variant: config.variant,
        k_policy: config.k_policy,
        bidirectional: config.bidirectional,
        extend_all_paths: config.extend_all_paths,
    })
}

/// The state of Fig. 2's main loop between rounds — exactly what a
/// checkpoint manifest persists.
struct LoopState {
    rounds: Vec<RoundStats>,
    total_value: Capacity,
    max_graph_bytes: u64,
    /// Accepted deltas of the last completed round, broadcast to the next
    /// round's mappers.
    deltas: Arc<AugmentedEdges>,
    next_round: usize,
}

/// Appends the round's flight-recorder profile to the [`history_path`]
/// blob (one JSONL line per round; a resumed run keeps appending to the
/// blob it finds). Runs only when checkpointing is on — history rides
/// the same durability switch.
#[allow(clippy::too_many_arguments)]
fn record_history(
    rt: &mut MrRuntime,
    config: &FfConfig,
    round: usize,
    job: String,
    events: Vec<ffmr_obs::TaskEvent>,
    dispatches: Vec<ffmr_obs::DispatchNote>,
    sim_seconds: f64,
    wall_seconds: f64,
) {
    if !config.checkpoint {
        return;
    }
    let profile = ffmr_obs::RoundProfile::compute_with_dispatches(
        round,
        job,
        events,
        dispatches,
        sim_seconds,
        wall_seconds,
    );
    let mut line = profile.to_json();
    line.push('\n');
    rt.dfs_mut()
        .append_blob(&history_path(&config.base_path), line.as_bytes());
}

/// Window of trailing flow-round wall times the anomaly sentinel
/// considers.
const ANOMALY_WINDOW: usize = 8;
/// A round is anomalous when its wall time exceeds this multiple of the
/// trailing median.
const ANOMALY_FACTOR: f64 = 4.0;
/// Rounds faster than this (seconds) are never flagged — sub-second
/// rounds jitter wildly on loaded hosts and the absolute cost is noise.
const ANOMALY_MIN_WALL: f64 = 0.25;

/// Whether `current` (a round's wall seconds) is anomalously slow
/// relative to the trailing median of `prior_walls` (previous flow
/// rounds, oldest first). Requires at least three samples in the window
/// so one slow warm-up round cannot become the whole baseline.
fn round_is_anomalous(prior_walls: &[f64], current: f64, factor: f64, min_wall: f64) -> bool {
    let tail = &prior_walls[prior_walls.len().saturating_sub(ANOMALY_WINDOW)..];
    if tail.len() < 3 || current < min_wall {
        return false;
    }
    let mut sorted = tail.to_vec();
    sorted.sort_by(f64::total_cmp);
    current > factor * sorted[sorted.len() / 2]
}

fn manifest_from_state(config: &FfConfig, state: &LoopState, finished: bool) -> CheckpointManifest {
    let last = state.rounds.last().map_or(0, |r| r.round);
    CheckpointManifest {
        tag: ConfigTag::of(config),
        round: last,
        finished,
        total_value: state.total_value,
        max_graph_bytes: state.max_graph_bytes,
        graph_path: round_path(&config.base_path, last),
        deltas: (*state.deltas).clone(),
        rounds: state.rounds.clone(),
    }
}

/// Rounds 1..: the Ford–Fulkerson loop, entered fresh (after round 0) or
/// from a resumed checkpoint.
fn run_rounds(
    rt: &mut MrRuntime,
    config: &FfConfig,
    shared: &Arc<FfShared>,
    aug: &Arc<AugProc>,
    state: &mut LoopState,
    run_span: ffmr_obs::Span,
) -> Result<FfRun, FfError> {
    loop {
        let round = state.next_round;
        if round > config.max_rounds {
            return Err(FfError::RoundLimitExceeded {
                limit: config.max_rounds,
            });
        }
        let round_started = std::time::Instant::now();
        let mut round_span = ffmr_obs::span("ff.round");
        round_span.field("round", round);
        aug.open_round(round);

        let input = round_path(&config.base_path, round - 1);
        let output = round_path(&config.base_path, round);
        let delta_blob_path = side_path(&config.base_path, "augmented", round - 1);
        rt.dfs_mut()
            .write_blob(&delta_blob_path, state.deltas.to_blob());

        let mapper = FfMapper {
            shared: Arc::clone(shared),
            deltas: Arc::clone(&state.deltas),
        };
        let reducer = FfReducer {
            shared: Arc::clone(shared),
            deltas: Arc::clone(&state.deltas),
        };

        let mut builder = JobBuilder::new(format!("{}-round-{round}", config.base_path))
            .input(&input)
            .output(&output)
            .reducers(config.reducers)
            .side_blob(&delta_blob_path)
            .attach_service(AUG_PROC, Arc::clone(aug) as Arc<dyn Service>);
        if config.variant.schimmy {
            builder = builder.schimmy_input(&input);
        }
        if rt.has_task_executor() {
            // Distributed mode: describe how a worker process rebuilds
            // this round's mapper/reducer. (Round 0's graph-prep job uses
            // closures and always runs in process.)
            builder = builder.wire(
                crate::wire::FF_JOB_KIND,
                crate::wire::ff_wire_params(shared, &state.deltas),
            );
        }
        let job = builder.map(mapper).reduce(reducer);
        let mut stats = rt.run(job).map_err(FfError::Mr)?;

        if config.crash_point == Some(CrashPoint::MidRound(round)) {
            // The driver "dies" after the MR job but before recording
            // acceptance: nothing of round `round` reaches a checkpoint.
            return Err(FfError::CrashInjected { round });
        }

        let acceptance = aug.close_round();
        state.total_value += acceptance.value_gained;
        let graph_bytes = rt.dfs().file_bytes(&output);
        state.max_graph_bytes = state.max_graph_bytes.max(graph_bytes);

        let som = stats.counter("source move");
        let sim = stats.counter("sink move");
        round_span.field("a_paths", acceptance.accepted_paths);
        drop(round_span);
        let wall_seconds = round_started.elapsed().as_secs_f64();

        // Regression sentinel: a flow round much slower than its recent
        // peers usually means contention or a perf regression, not more
        // work — the loop's per-round workload shrinks as frontiers
        // drain. Flag it but keep running.
        let prior_walls: Vec<f64> = state
            .rounds
            .iter()
            .filter(|r| r.round >= 1)
            .map(|r| r.wall_seconds)
            .collect();
        if round_is_anomalous(&prior_walls, wall_seconds, ANOMALY_FACTOR, ANOMALY_MIN_WALL) {
            ffmr_obs::global()
                .counter("ffmr_ff_round_anomaly_total", &[])
                .inc();
            eprintln!(
                "ffmr: round {round} wall time {wall_seconds:.3}s exceeds {ANOMALY_FACTOR}x \
                 the trailing median of recent rounds; possible regression or host contention"
            );
        }

        state.rounds.push(RoundStats {
            round,
            a_paths: acceptance.accepted_paths,
            value_gained: acceptance.value_gained,
            max_queue: acceptance.max_queue,
            map_out_records: stats.map_output_records,
            shuffle_bytes: stats.shuffle_bytes,
            sim_seconds: stats.sim_seconds,
            wall_seconds,
            source_move: som,
            sink_move: sim,
            graph_bytes,
        });
        config
            .hooks
            .report(state.rounds.last().expect("round pushed"));
        record_history(
            rt,
            config,
            round,
            stats.name.clone(),
            std::mem::take(&mut stats.task_events),
            std::mem::take(&mut stats.dispatch_notes),
            stats.sim_seconds,
            wall_seconds,
        );

        // Termination (paper Fig. 2 line 10): stop once either frontier
        // stops moving — with the robustness refinement that a round that
        // still accepted augmenting paths keeps the loop alive, since its
        // flow changes have not been applied yet. Without bi-directional
        // search there is no sink frontier to watch.
        let frontier_stuck = som == 0 || (config.bidirectional && sim == 0);
        let finished = frontier_stuck && acceptance.accepted_paths == 0;

        state.deltas = Arc::new(acceptance.deltas);
        if config.checkpoint {
            checkpoint::write_checkpoint(
                rt.dfs_mut(),
                &config.base_path,
                &manifest_from_state(config, state, finished),
            );
        }
        collect_garbage(rt.dfs_mut(), &config.base_path, round, config.keep_rounds);
        if config.crash_point == Some(CrashPoint::AfterRound(round)) {
            return Err(FfError::CrashInjected { round });
        }
        if finished {
            return Ok(finish(config, state, run_span));
        }
        state.next_round = round + 1;
    }
}

/// Emits the run-level metrics and assembles the result. `state.deltas`
/// holds the final round's acceptances, which no mapper has applied yet
/// (empty by construction of the termination test — or whatever the
/// checkpoint of a finished run recorded).
fn finish(config: &FfConfig, state: &mut LoopState, mut run_span: ffmr_obs::Span) -> FfRun {
    let final_round = state.rounds.last().map_or(0, |r| r.round);
    run_span.field("rounds", state.rounds.len());
    drop(run_span);
    let m = ffmr_obs::global();
    m.counter("ffmr_ff_runs_total", &[]).inc();
    m.counter("ffmr_ff_rounds_total", &[])
        .add(state.rounds.len() as u64);
    m.counter("ffmr_ff_apaths_total", &[])
        .add(state.rounds.iter().map(|r| r.a_paths).sum());
    m.histogram("ffmr_ff_run_rounds", &[])
        .record(state.rounds.len() as u64);
    FfRun {
        max_flow_value: state.total_value,
        total_sim_seconds: state.rounds.iter().map(|r| r.sim_seconds).sum(),
        max_graph_bytes: state.max_graph_bytes,
        final_graph_path: round_path(&config.base_path, final_round),
        pending_deltas: (*state.deltas).clone(),
        rounds: std::mem::take(&mut state.rounds),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_ladder_is_cumulative() {
        let ladder = FfVariant::ladder();
        assert_eq!(ladder.len(), 5);
        assert!(!FfVariant::ff1().stateful_aug);
        assert!(FfVariant::ff2().stateful_aug && !FfVariant::ff2().schimmy);
        assert!(FfVariant::ff3().schimmy && !FfVariant::ff3().pooled_objects);
        assert!(FfVariant::ff4().pooled_objects && !FfVariant::ff4().remember_sent);
        let ff5 = FfVariant::ff5();
        assert!(ff5.stateful_aug && ff5.schimmy && ff5.pooled_objects && ff5.remember_sent);
    }

    #[test]
    fn every_ladder_name_round_trips_through_from_str() {
        for (label, variant) in FfVariant::ladder() {
            assert_eq!(variant.name().parse(), Ok(variant));
            assert_eq!(variant.name(), label.to_lowercase());
        }
        let err = "ff6".parse::<FfVariant>().unwrap_err().to_string();
        for name in FfVariant::NAMES {
            assert!(err.contains(name), "{err} should name {name}");
        }
        let off_ladder = FfVariant {
            schimmy: true,
            ..FfVariant::ff1()
        };
        assert_eq!(off_ladder.name(), "custom");
    }

    #[test]
    fn k_policy_limits() {
        assert_eq!(KPolicy::Fixed(3).limit(100), 3);
        assert_eq!(KPolicy::InDegree.limit(100), 100);
    }

    #[test]
    fn config_variant_switches_k_policy() {
        let s = VertexId::new(0);
        let t = VertexId::new(1);
        let c1 = FfConfig::new(s, t).variant(FfVariant::ff1());
        assert_eq!(c1.k_policy, KPolicy::Fixed(4));
        let c5 = FfConfig::new(s, t).variant(FfVariant::ff5());
        assert_eq!(c5.k_policy, KPolicy::InDegree);
    }

    #[test]
    fn anomaly_sentinel_needs_samples_and_magnitude() {
        // Fewer than three prior flow rounds: never anomalous.
        assert!(!round_is_anomalous(&[1.0, 1.0], 100.0, 4.0, 0.25));
        // Median 1.0, factor 4: 4.1s trips the sentinel, 3.9s does not.
        let walls = [1.0, 1.0, 1.0];
        assert!(round_is_anomalous(&walls, 4.1, 4.0, 0.25));
        assert!(!round_is_anomalous(&walls, 3.9, 4.0, 0.25));
        // Below the absolute floor nothing is flagged, however relative
        // the blow-up.
        assert!(!round_is_anomalous(&[0.01, 0.01, 0.01], 0.2, 4.0, 0.25));
        // Only the trailing window counts: an ancient slow round ages out
        // of the baseline.
        let mut walls = vec![50.0];
        walls.extend(std::iter::repeat_n(1.0, ANOMALY_WINDOW));
        assert!(round_is_anomalous(&walls, 4.1, 4.0, 0.25));
    }

    #[test]
    fn history_path_sits_beside_checkpoints() {
        assert_eq!(history_path("ffmr"), "ffmr/history/rounds.jsonl");
    }

    #[test]
    fn invalid_configs_rejected() {
        let net = swgraph::FlowNetwork::from_undirected_unit(3, &[(0, 1), (1, 2)]);
        let mut rt = MrRuntime::new(mapreduce::ClusterConfig::small_cluster(2));
        let same = FfConfig::new(VertexId::new(0), VertexId::new(0));
        assert!(matches!(
            run_max_flow(&mut rt, &net, &same),
            Err(FfError::InvalidConfig(_))
        ));
        let oob = FfConfig::new(VertexId::new(0), VertexId::new(99));
        assert!(matches!(
            run_max_flow(&mut rt, &net, &oob),
            Err(FfError::InvalidConfig(_))
        ));
    }
}
