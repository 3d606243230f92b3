//! `on_round` contract tests: the per-round progress callback fires exactly
//! once per executed round in order, and span tracing covers every round
//! with properly nested MapReduce phases.

use std::sync::{Arc, Mutex, MutexGuard};

use ffmr_core::{run_max_flow, FfConfig, FfVariant};
use mapreduce::{ClusterConfig, MrRuntime};
use swgraph::{FlowNetwork, VertexId};

/// Span tracing is process-global; serialize every test in this file so
/// one test's run can't leak spans into another's sink.
fn guard() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn two_paths() -> FlowNetwork {
    FlowNetwork::from_undirected_unit(4, &[(0, 1), (1, 3), (0, 2), (2, 3)])
}

#[test]
fn on_round_fires_once_per_round_in_order() {
    let _g = guard();
    let seen: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    let mut rt = MrRuntime::new(ClusterConfig::small_cluster(3));
    let config = {
        let seen = Arc::clone(&seen);
        FfConfig::new(VertexId::new(0), VertexId::new(3))
            .variant(FfVariant::ff5())
            .reducers(2)
            .on_round(move |stats| {
                assert!(stats.wall_seconds >= 0.0);
                seen.lock().unwrap().push(stats.round);
            })
    };
    let run = run_max_flow(&mut rt, &two_paths(), &config).expect("run succeeds");
    assert_eq!(run.max_flow_value, 2);
    let seen = seen.lock().unwrap();
    assert_eq!(
        seen.len(),
        run.rounds.len(),
        "exactly one callback per executed round: {seen:?}"
    );
    let expected: Vec<usize> = (0..seen.len()).collect();
    assert_eq!(
        *seen, expected,
        "round numbers are strictly increasing from 0"
    );
}

/// Pulls a bare numeric JSON member (`"key":42`) out of a span line.
fn num_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = line.split(&pat).nth(1)?;
    rest.split([',', '}']).next()?.trim().parse().ok()
}

/// Pulls a string JSON member (`"key":"v"`) out of a span line.
fn str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let rest = line.split(&pat).nth(1)?;
    Some(rest.split('"').next()?.to_string())
}

#[test]
fn trace_spans_cover_every_round_with_nested_phases() {
    let _g = guard();
    let sink = Arc::new(ffmr_obs::VecSink::new());
    ffmr_obs::set_sink(Some(Arc::clone(&sink) as Arc<dyn ffmr_obs::LineSink>));
    let mut rt = MrRuntime::new(ClusterConfig::small_cluster(3));
    let config = FfConfig::new(VertexId::new(0), VertexId::new(3))
        .variant(FfVariant::ff5())
        .reducers(2);
    let run = run_max_flow(&mut rt, &two_paths(), &config).expect("run succeeds");
    ffmr_obs::set_sink(None);
    let lines = sink.lines();
    let named = |name: &str| -> Vec<&String> {
        lines
            .iter()
            .filter(|l| str_field(l, "name").as_deref() == Some(name))
            .collect()
    };

    // One ff.round span per executed round, covering every round number.
    let round_spans = named("ff.round");
    assert_eq!(round_spans.len(), run.rounds.len(), "{lines:#?}");
    for r in &run.rounds {
        assert!(
            round_spans
                .iter()
                .any(|l| str_field(l, "round").as_deref() == Some(&r.round.to_string())),
            "round {} missing from the trace",
            r.round
        );
    }

    // Every MapReduce job nests under some ff.round span.
    for job in named("mr.job") {
        let parent = num_field(job, "parent").expect("mr.job has a parent");
        assert!(
            round_spans
                .iter()
                .any(|r| num_field(r, "id") == Some(parent)),
            "mr.job not nested under an ff.round: {job}"
        );
    }

    // Round 1 (a real flow round): the map/shuffle/reduce phase spans
    // nest under its job and their durations account for (sum to no more
    // than) the job, which fits inside the round.
    let round1 = round_spans
        .iter()
        .find(|l| str_field(l, "round").as_deref() == Some("1"))
        .expect("round 1 traced");
    let round1_id = num_field(round1, "id").unwrap();
    let job = named("mr.job")
        .into_iter()
        .find(|l| num_field(l, "parent") == Some(round1_id))
        .expect("round 1 ran one MR job");
    let job_id = num_field(job, "id").unwrap();
    let mut phase_sum = 0u64;
    for phase in ["mr.map", "mr.shuffle", "mr.reduce"] {
        let span = named(phase)
            .into_iter()
            .find(|l| num_field(l, "parent") == Some(job_id))
            .unwrap_or_else(|| panic!("{phase} span missing under round 1's job"));
        phase_sum += num_field(span, "dur_us").unwrap();
    }
    let job_dur = num_field(job, "dur_us").unwrap();
    let round_dur = num_field(round1, "dur_us").unwrap();
    // +3 µs slack: each duration rounds down independently.
    assert!(
        phase_sum <= job_dur + 3,
        "phase durations ({phase_sum}µs) exceed their job ({job_dur}µs)"
    );
    assert!(
        job_dur <= round_dur + 3,
        "job duration ({job_dur}µs) exceeds its round ({round_dur}µs)"
    );
}
