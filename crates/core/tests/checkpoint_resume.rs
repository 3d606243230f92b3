//! Crash-injection / resume equivalence: a driver that dies at *any*
//! round boundary (or mid-round) and is resumed from its checkpoint
//! manifest must produce exactly the run an uninterrupted driver would
//! have — same flow value, same round trajectory (simulated times
//! bit-equal), same final DFS contents.
//!
//! The driver "death" is made as faithful as the simulation allows: the
//! crashed runtime's DFS is serialized to a byte image, a *fresh*
//! runtime deserializes it (nothing survives in memory), and
//! [`resume_max_flow`] continues from there.
//!
//! Wall-clock fields (`wall_seconds`) are timing-dependent and excluded
//! from the comparison; everything else must match exactly.

use ffmr_core::{resume_max_flow, run_max_flow, CrashPoint, FfConfig, FfError, FfRun, FfVariant};
use mapreduce::{ClusterConfig, Dfs, FailurePolicy, MrRuntime};
use swgraph::{gen, FlowNetwork, VertexId};

fn net_for(seed: u64, n: u64) -> FlowNetwork {
    FlowNetwork::from_undirected_unit(n, &gen::barabasi_albert(n, 2, seed))
}

fn new_rt() -> MrRuntime {
    let mut rt = MrRuntime::new(ClusterConfig::small_cluster(4));
    rt.set_worker_threads(Some(1));
    rt
}

fn base_config(n: u64, variant: FfVariant) -> FfConfig {
    FfConfig::new(VertexId::new(0), VertexId::new(n - 1))
        .variant(variant)
        .reducers(3)
}

/// The record files of the namespace (blobs excluded: the checkpoint
/// manifest carries wall-clock fields that legitimately differ).
fn fingerprint(dfs: &Dfs) -> Vec<(String, u64, u64)> {
    dfs.list()
        .into_iter()
        .map(|p| {
            let bytes = dfs.file_bytes(&p);
            let records = dfs.file_records(&p);
            (p, bytes, records)
        })
        .collect()
}

fn assert_same_run(resumed: &FfRun, clean: &FfRun, context: &str) {
    assert_eq!(
        resumed.max_flow_value, clean.max_flow_value,
        "{context}: flow value"
    );
    assert_eq!(
        resumed.rounds.len(),
        clean.rounds.len(),
        "{context}: round count"
    );
    assert_eq!(
        resumed.final_graph_path, clean.final_graph_path,
        "{context}: final graph path"
    );
    assert_eq!(
        resumed.pending_deltas, clean.pending_deltas,
        "{context}: pending deltas"
    );
    assert_eq!(
        resumed.max_graph_bytes, clean.max_graph_bytes,
        "{context}: max graph bytes"
    );
    assert_eq!(
        resumed.total_sim_seconds.to_bits(),
        clean.total_sim_seconds.to_bits(),
        "{context}: total simulated seconds"
    );
    for (r, c) in resumed.rounds.iter().zip(&clean.rounds) {
        let round = c.round;
        assert_eq!(r.round, c.round, "{context}: round number");
        assert_eq!(r.a_paths, c.a_paths, "{context}: round {round} a_paths");
        assert_eq!(
            r.max_queue, c.max_queue,
            "{context}: round {round} max queue"
        );
        assert_eq!(
            r.value_gained, c.value_gained,
            "{context}: round {round} value"
        );
        assert_eq!(
            r.map_out_records, c.map_out_records,
            "{context}: round {round} map out"
        );
        assert_eq!(
            r.shuffle_bytes, c.shuffle_bytes,
            "{context}: round {round} shuffle"
        );
        assert_eq!(
            r.sim_seconds.to_bits(),
            c.sim_seconds.to_bits(),
            "{context}: round {round} sim seconds"
        );
        assert_eq!(
            r.source_move, c.source_move,
            "{context}: round {round} source move"
        );
        assert_eq!(
            r.sink_move, c.sink_move,
            "{context}: round {round} sink move"
        );
        assert_eq!(
            r.graph_bytes, c.graph_bytes,
            "{context}: round {round} graph bytes"
        );
    }
}

/// Runs to completion on a fresh runtime; returns the run and the DFS.
fn clean_run(net: &FlowNetwork, config: &FfConfig) -> (FfRun, MrRuntime) {
    let mut rt = new_rt();
    let run = run_max_flow(&mut rt, net, config).expect("uninterrupted run");
    assert_eq!(run.resumed_from, None);
    (run, rt)
}

/// Crashes at `point`, ships the DFS through a byte image into a fresh
/// runtime, resumes, and returns the resumed run and runtime.
fn crash_and_resume(net: &FlowNetwork, config: &FfConfig, point: CrashPoint) -> (FfRun, MrRuntime) {
    let mut rt = new_rt();
    let crashing = config.clone().crash_point(point);
    let expected_round = match point {
        CrashPoint::AfterRound(r) | CrashPoint::MidRound(r) => r,
    };
    match run_max_flow(&mut rt, net, &crashing) {
        Err(FfError::CrashInjected { round }) => assert_eq!(round, expected_round),
        other => panic!("expected injected crash at {point:?}, got {other:?}"),
    }

    // The driver process is gone; only the DFS image survives.
    let image = rt.dfs().to_image();
    drop(rt);
    let mut resumed_rt = new_rt();
    *resumed_rt.dfs_mut() = Dfs::from_image(&image).expect("DFS image round-trip");
    let run = resume_max_flow(&mut resumed_rt, config).expect("resumed run");
    // A mid-round crash leaves the previous round's checkpoint.
    let checkpointed = match point {
        CrashPoint::AfterRound(r) => r,
        CrashPoint::MidRound(r) => r - 1,
    };
    assert_eq!(run.resumed_from, Some(checkpointed), "{point:?}");
    (run, resumed_rt)
}

#[test]
fn resume_matches_uninterrupted_at_every_round_boundary() {
    for seed in [11u64, 23] {
        let n = 36;
        let net = net_for(seed, n);
        let config = base_config(n, FfVariant::ff5());
        let (clean, clean_rt) = clean_run(&net, &config);
        let last = clean.rounds.last().expect("rounds").round;
        assert!(last >= 2, "seed {seed}: want a multi-round run, got {last}");

        for crash_round in 0..=last {
            let point = CrashPoint::AfterRound(crash_round);
            let (resumed, resumed_rt) = crash_and_resume(&net, &config, point);
            let context = format!("seed {seed}, crash after round {crash_round}");
            assert_same_run(&resumed, &clean, &context);
            assert_eq!(
                fingerprint(resumed_rt.dfs()),
                fingerprint(clean_rt.dfs()),
                "{context}: DFS fingerprint"
            );
        }
    }
}

#[test]
fn resume_reexecutes_a_round_lost_mid_flight() {
    let n = 36;
    let net = net_for(11, n);
    let config = base_config(n, FfVariant::ff5());
    let (clean, clean_rt) = clean_run(&net, &config);
    let last = clean.rounds.last().expect("rounds").round;

    // Crash inside the first flow round and inside the final round: the
    // round's MR output exists but no checkpoint for it does, so resume
    // must discard it and re-execute.
    for crash_round in [1, last] {
        let point = CrashPoint::MidRound(crash_round);
        let (resumed, resumed_rt) = crash_and_resume(&net, &config, point);
        let context = format!("crash inside round {crash_round}");
        assert_same_run(&resumed, &clean, &context);
        assert_eq!(
            fingerprint(resumed_rt.dfs()),
            fingerprint(clean_rt.dfs()),
            "{context}: DFS fingerprint"
        );
    }
}

#[test]
fn resume_works_for_ff3_schimmy_runs() {
    let n = 30;
    let net = net_for(7, n);
    let config = base_config(n, FfVariant::ff3());
    let (clean, _) = clean_run(&net, &config);
    let (resumed, _) = crash_and_resume(&net, &config, CrashPoint::AfterRound(1));
    assert_same_run(&resumed, &clean, "ff3 crash after round 1");
}

#[test]
fn resume_rejects_missing_or_mismatched_checkpoints() {
    let n = 24;
    let net = net_for(5, n);
    let config = base_config(n, FfVariant::ff5());

    // No checkpoint at all.
    let mut rt = new_rt();
    assert!(matches!(
        resume_max_flow(&mut rt, &config),
        Err(FfError::Checkpoint(_))
    ));

    // Checkpointing disabled leaves nothing to resume from.
    let mut rt = new_rt();
    run_max_flow(&mut rt, &net, &config.clone().checkpoint(false)).expect("run");
    assert_eq!(rt.dfs().blob_bytes("ffmr/checkpoint"), 0);
    assert!(matches!(
        resume_max_flow(&mut rt, &config),
        Err(FfError::Checkpoint(_))
    ));

    // A different problem's checkpoint is refused, not silently reused.
    let mut rt = new_rt();
    match run_max_flow(
        &mut rt,
        &net,
        &config.clone().crash_point(CrashPoint::AfterRound(1)),
    ) {
        Err(FfError::CrashInjected { round: 1 }) => {}
        other => panic!("expected crash, got {other:?}"),
    }
    let other_sink = base_config(n, FfVariant::ff5()).bidirectional(false);
    assert!(matches!(
        resume_max_flow(&mut rt, &other_sink),
        Err(FfError::Checkpoint(_))
    ));
    // The matching configuration still resumes fine afterwards.
    let resumed = resume_max_flow(&mut rt, &config).expect("resume");
    let (clean, _) = clean_run(&net, &config);
    assert_same_run(&resumed, &clean, "resume after rejected mismatch");
}

/// A retried reduce attempt re-submits its augmenting-path candidates to
/// `aug_proc`; the route-level dedup must accept each candidate exactly
/// once, leaving the accepted paths and flow value identical to an
/// undisturbed run.
#[test]
fn task_retries_do_not_double_accept_paths() {
    let n = 30;
    let net = net_for(13, n);
    let config = base_config(n, FfVariant::ff5());
    let (clean, _) = clean_run(&net, &config);

    let mut rt = new_rt();
    // Reduce task 0's first attempt always crashes and is retried.
    rt.set_failure_policy(FailurePolicy::with_injector(3, |phase, task, attempt| {
        phase == "reduce" && task == 0 && attempt == 0
    }));

    let disturbed = run_max_flow(&mut rt, &net, &config).expect("disturbed run");
    assert_eq!(disturbed.max_flow_value, clean.max_flow_value);
    assert_eq!(disturbed.rounds.len(), clean.rounds.len());
    for (d, c) in disturbed.rounds.iter().zip(&clean.rounds) {
        assert_eq!(
            d.a_paths, c.a_paths,
            "round {}: duplicate submissions must be idempotent",
            c.round
        );
        assert_eq!(d.value_gained, c.value_gained, "round {}", c.round);
    }
}

/// The job-history file rides the checkpoint durability switch: it exists
/// after a clean run, and a crash-and-resume cycle reloads and keeps
/// extending it instead of starting over.
#[test]
fn job_history_survives_crash_and_resume() {
    let n = 36;
    let net = net_for(11, n);
    let config = base_config(n, FfVariant::ff5());
    let (clean, clean_rt) = clean_run(&net, &config);
    let last = clean.rounds.last().expect("rounds").round;

    let history = |rt: &MrRuntime| -> Vec<ffmr_obs::RoundProfile> {
        let bytes = rt
            .dfs()
            .read_blob(&ffmr_core::history_path("ffmr"))
            .expect("history blob");
        String::from_utf8_lossy(bytes)
            .lines()
            .map(|l| ffmr_obs::RoundProfile::from_json(l).expect("parseable profile line"))
            .collect()
    };
    // One line per round, in order, each with the wall time its
    // `RoundStats` reports — round 0 included.
    let assert_history_matches = |rt: &MrRuntime, run: &FfRun, context: &str| {
        let profiles = history(rt);
        let rounds: Vec<usize> = profiles.iter().map(|p| p.round).collect();
        assert_eq!(rounds, (0..=last).collect::<Vec<_>>(), "{context}");
        for (profile, stats) in profiles.iter().zip(&run.rounds) {
            assert_eq!(
                profile.wall_seconds.to_bits(),
                stats.wall_seconds.to_bits(),
                "{context}: round {} history wall_seconds",
                stats.round
            );
        }
    };
    assert_history_matches(&clean_rt, &clean, "clean run");

    // A mid-round crash loses the in-flight round; the resumed run must
    // re-execute it and end with one history line per round, no dupes.
    let (resumed, resumed_rt) = crash_and_resume(&net, &config, CrashPoint::MidRound(1));
    assert_history_matches(&resumed_rt, &resumed, "resumed run");

    // Checkpointing off writes no history at all.
    let mut rt = new_rt();
    run_max_flow(&mut rt, &net, &config.clone().checkpoint(false)).expect("run");
    assert!(rt
        .dfs()
        .read_blob(&ffmr_core::history_path("ffmr"))
        .is_err());
}
