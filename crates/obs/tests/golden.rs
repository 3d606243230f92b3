//! Golden JSONL lines: every record `ffmr-obs` serializes, encoded from
//! one fixed sample and compared byte for byte against a literal
//! captured from the encoders as they were before they were rewritten
//! over the shared `json` writer. `ffmr report`, the `history` and
//! `slowlog` verbs, `--trace-file` and `--slowlog-file` all emit these
//! lines, so a changed byte here is a changed file format.

use std::sync::Arc;

use ffmr_obs::{
    DispatchNote, DistBlame, DistPathStep, PathStep, QueryProfile, RoundProfile, SkewReport,
    Straggler, TaskEvent, TaskOutcome,
};

/// Quote, backslash, newline, tab, carriage return, a control char and
/// a non-ASCII scalar: every branch of the string escaper.
const NASTY: &str = "a\"b\\c\nd\te\rf\u{1}g\u{e9}";

fn task_event() -> TaskEvent {
    TaskEvent {
        job: NASTY.into(),
        phase: "reduce".into(),
        task: 3,
        attempt: 1,
        node: 2,
        worker: Some(5),
        partition: Some(7),
        sim_start: f64::NAN,
        sim_end: 2.25,
        wall_start_us: 10,
        wall_end_us: 18_446_744_073_709_551_615,
        bytes_in: 100,
        bytes_out: 0,
        outcome: TaskOutcome::Failed,
    }
}

fn bare_task_event() -> TaskEvent {
    TaskEvent {
        job: "j".into(),
        phase: "map".into(),
        worker: None,
        partition: None,
        sim_start: 1.5,
        sim_end: 1e21,
        outcome: TaskOutcome::Ok,
        ..task_event()
    }
}

fn dispatch_note() -> DispatchNote {
    DispatchNote {
        phase: "map\t\"x\"".into(),
        task: 4,
        worker: 2,
        ok: true,
        queued_us: 1,
        done_us: 2_000,
        started_us: 300,
        finished_us: 1_900,
        fetch_us: 100,
        push_us: 50,
        ser_us: 20,
        bytes_in: 4_096,
        bytes_out: 512,
    }
}

fn full_round_profile() -> RoundProfile {
    RoundProfile {
        round: 7,
        job: NASTY.into(),
        sim_seconds: 14.0,
        wall_seconds: 0.25,
        map_seconds: f64::INFINITY,
        shuffle_seconds: 1.0,
        reduce_seconds: 0.1 + 0.2,
        skew: Some(SkewReport {
            partition: 1,
            max_bytes: 400,
            mean_bytes: 250.0,
            ratio: 1.6,
        }),
        stragglers: vec![
            Straggler {
                phase: "map".into(),
                task: 3,
                attempt: 0,
                seconds: 10.0,
                threshold_seconds: 1.65,
            },
            Straggler {
                phase: "re\\duce".into(),
                task: 0,
                attempt: 2,
                seconds: f64::NEG_INFINITY,
                threshold_seconds: 0.0,
            },
        ],
        critical_path: vec![
            PathStep {
                phase: "map".into(),
                task: 3,
                attempt: 1,
                sim_start: 1.0,
                sim_end: 4.0,
            },
            PathStep {
                phase: "shuffle".into(),
                task: 0,
                attempt: 0,
                sim_start: 4.0,
                sim_end: 5.5,
            },
        ],
        dispatches: vec![
            dispatch_note(),
            DispatchNote {
                ok: false,
                ..DispatchNote::default()
            },
        ],
        dist_blame: Some(DistBlame {
            serialization_seconds: 0.00004,
            transfer_seconds: 0.0003,
            dispatch_wait_seconds: 0.0005,
            compute_seconds: 0.0015,
        }),
        critical_path_dist: vec![
            DistPathStep {
                phase: "map/dispatch-wait".into(),
                task: 3,
                worker: 1,
                start_us: 0,
                end_us: 200,
            },
            DistPathStep {
                phase: "map/fetch".into(),
                task: 3,
                worker: 1,
                start_us: 200,
                end_us: 300,
            },
        ],
        events: vec![task_event(), bare_task_event()],
    }
}

fn minimal_round_profile() -> RoundProfile {
    RoundProfile::compute(0, "r0".into(), Vec::new(), 0.0, 0.0)
}

fn query_profile() -> QueryProfile {
    QueryProfile {
        verb: "maxflow".into(),
        dataset: NASTY.into(),
        epoch: 3,
        plan: "core".into(),
        plan_reason: "anchor-core-solve".into(),
        solver: "parallel-pr".into(),
        cache: "miss".into(),
        coalesced: true,
        outcome: "error".into(),
        error: Some("timeout after 250ms: \"slow\"\n".into()),
        unix_ms: 1_700_000_000_000,
        queue_wait_us: 12,
        resolve_us: 3,
        plan_us: 5,
        solve_us: 89_975,
        cache_update_us: 0,
        total_us: 90_000,
        deadline_ms: 30_000,
        phases: 7,
        augmenting_paths: 0,
        pushes: 41,
        relabels: 9,
        global_relabels: 2,
        cancel_polls: 8,
        vertices_touched: 0,
        arc_scans: 0,
    }
}

/// A local-search answer: its search counters are the optional members
/// the other samples omit.
fn local_query_profile() -> QueryProfile {
    QueryProfile {
        verb: "maxflow".into(),
        dataset: "fb4".into(),
        epoch: 1,
        plan: "core".into(),
        plan_reason: "local-trivial-cut".into(),
        solver: "local".into(),
        cache: "miss".into(),
        outcome: "ok".into(),
        unix_ms: 1_700_000_000_000,
        resolve_us: 1,
        plan_us: 1,
        solve_us: 92,
        cache_update_us: 2,
        total_us: 97,
        deadline_ms: 30_000,
        augmenting_paths: 46,
        cancel_polls: 46,
        vertices_touched: 1_553,
        arc_scans: 7_902,
        ..QueryProfile::default()
    }
}

/// A cut-tree answer: a walk, no solver counters, the cache bypassed.
fn tree_query_profile() -> QueryProfile {
    QueryProfile {
        verb: "maxflow".into(),
        dataset: "fb4".into(),
        epoch: 1,
        plan: "tree".into(),
        plan_reason: "cut-tree".into(),
        solver: "tree".into(),
        cache: "bypass".into(),
        outcome: "ok".into(),
        unix_ms: 1_700_000_000_000,
        resolve_us: 1,
        solve_us: 1,
        total_us: 3,
        ..QueryProfile::default()
    }
}

fn bare_query_profile() -> QueryProfile {
    QueryProfile {
        verb: "mincut".into(),
        outcome: "ok".into(),
        ..QueryProfile::default()
    }
}

const TASK_EVENT: &str = r#"{"job":"a\"b\\c\nd\te\rf\u0001gé","phase":"reduce","task":3,"attempt":1,"node":2,"worker":5,"partition":7,"sim_start":0,"sim_end":2.25,"wall_start_us":10,"wall_end_us":18446744073709551615,"bytes_in":100,"bytes_out":0,"outcome":"failed"}"#;

const BARE_TASK_EVENT: &str = r#"{"job":"j","phase":"map","task":3,"attempt":1,"node":2,"sim_start":1.5,"sim_end":1000000000000000000000,"wall_start_us":10,"wall_end_us":18446744073709551615,"bytes_in":100,"bytes_out":0,"outcome":"ok"}"#;

const DISPATCH_NOTE: &str = r#"{"phase":"map\t\"x\"","task":4,"worker":2,"ok":true,"queued_us":1,"done_us":2000,"started_us":300,"finished_us":1900,"fetch_us":100,"push_us":50,"ser_us":20,"bytes_in":4096,"bytes_out":512}"#;

const FULL_ROUND_PROFILE: &str = r#"{"round":7,"job":"a\"b\\c\nd\te\rf\u0001gé","sim_seconds":14,"wall_seconds":0.25,"map_seconds":0,"shuffle_seconds":1,"reduce_seconds":0.30000000000000004,"skew":{"partition":1,"max_bytes":400,"mean_bytes":250,"ratio":1.6},"stragglers":[{"phase":"map","task":3,"attempt":0,"seconds":10,"threshold_seconds":1.65},{"phase":"re\\duce","task":0,"attempt":2,"seconds":0,"threshold_seconds":0}],"critical_path":[{"phase":"map","task":3,"attempt":1,"sim_start":1,"sim_end":4},{"phase":"shuffle","task":0,"attempt":0,"sim_start":4,"sim_end":5.5}],"dispatches":[{"phase":"map\t\"x\"","task":4,"worker":2,"ok":true,"queued_us":1,"done_us":2000,"started_us":300,"finished_us":1900,"fetch_us":100,"push_us":50,"ser_us":20,"bytes_in":4096,"bytes_out":512},{"phase":"","task":0,"worker":0,"ok":false,"queued_us":0,"done_us":0,"started_us":0,"finished_us":0,"fetch_us":0,"push_us":0,"ser_us":0,"bytes_in":0,"bytes_out":0}],"dist_blame":{"serialization_seconds":0.00004,"transfer_seconds":0.0003,"dispatch_wait_seconds":0.0005,"compute_seconds":0.0015},"critical_path_dist":[{"phase":"map/dispatch-wait","task":3,"worker":1,"start_us":0,"end_us":200},{"phase":"map/fetch","task":3,"worker":1,"start_us":200,"end_us":300}],"events":[{"job":"a\"b\\c\nd\te\rf\u0001gé","phase":"reduce","task":3,"attempt":1,"node":2,"worker":5,"partition":7,"sim_start":0,"sim_end":2.25,"wall_start_us":10,"wall_end_us":18446744073709551615,"bytes_in":100,"bytes_out":0,"outcome":"failed"},{"job":"j","phase":"map","task":3,"attempt":1,"node":2,"sim_start":1.5,"sim_end":1000000000000000000000,"wall_start_us":10,"wall_end_us":18446744073709551615,"bytes_in":100,"bytes_out":0,"outcome":"ok"}]}"#;

const MINIMAL_ROUND_PROFILE: &str = r#"{"round":0,"job":"r0","sim_seconds":0,"wall_seconds":0,"map_seconds":0,"shuffle_seconds":0,"reduce_seconds":0,"stragglers":[],"critical_path":[],"events":[]}"#;

const QUERY_PROFILE: &str = r#"{"verb":"maxflow","dataset":"a\"b\\c\nd\te\rf\u0001gé","epoch":3,"plan":"core","plan_reason":"anchor-core-solve","solver":"parallel-pr","cache":"miss","coalesced":true,"outcome":"error","error":"timeout after 250ms: \"slow\"\n","unix_ms":1700000000000,"queue_wait_us":12,"resolve_us":3,"plan_us":5,"solve_us":89975,"cache_update_us":0,"total_us":90000,"deadline_ms":30000,"phases":7,"pushes":41,"relabels":9,"global_relabels":2,"cancel_polls":8}"#;

const LOCAL_QUERY_PROFILE: &str = r#"{"verb":"maxflow","dataset":"fb4","epoch":1,"plan":"core","plan_reason":"local-trivial-cut","solver":"local","cache":"miss","coalesced":false,"outcome":"ok","unix_ms":1700000000000,"queue_wait_us":0,"resolve_us":1,"plan_us":1,"solve_us":92,"cache_update_us":2,"total_us":97,"deadline_ms":30000,"augmenting_paths":46,"cancel_polls":46,"vertices_touched":1553,"arc_scans":7902}"#;

const TREE_QUERY_PROFILE: &str = r#"{"verb":"maxflow","dataset":"fb4","epoch":1,"plan":"tree","plan_reason":"cut-tree","solver":"tree","cache":"bypass","coalesced":false,"outcome":"ok","unix_ms":1700000000000,"queue_wait_us":0,"resolve_us":1,"plan_us":0,"solve_us":1,"cache_update_us":0,"total_us":3,"deadline_ms":0}"#;

const BARE_QUERY_PROFILE: &str = r#"{"verb":"mincut","dataset":"","epoch":0,"plan":"","plan_reason":"","solver":"","cache":"","coalesced":false,"outcome":"ok","unix_ms":0,"queue_wait_us":0,"resolve_us":0,"plan_us":0,"solve_us":0,"cache_update_us":0,"total_us":0,"deadline_ms":0}"#;

/// `start_us` and `dur_us` are clock readings; everything else in the
/// span line is pinned by the test (ids via `seed_ids`, the thread by
/// name).
const SPANS: [&str; 2] = [
    r#"{"name":"inner","id":1099511627777,"parent":1099511627776,"thread":"gold\"en\n","start_us":0,"dur_us":0}"#,
    r#"{"name":"outer \"span\"\t","id":1099511627776,"parent":9,"trace":77,"thread":"gold\"en\n","start_us":0,"dur_us":0,"round":"3","pa\\th\u0001":"a\"b\\c\nd\te\rf\u0001gé"}"#,
];

#[test]
fn encoders_emit_the_golden_lines() {
    assert_eq!(task_event().to_json(), TASK_EVENT);
    assert_eq!(bare_task_event().to_json(), BARE_TASK_EVENT);
    assert_eq!(dispatch_note().to_json(), DISPATCH_NOTE);
    assert_eq!(full_round_profile().to_json(), FULL_ROUND_PROFILE);
    assert_eq!(minimal_round_profile().to_json(), MINIMAL_ROUND_PROFILE);
    assert_eq!(query_profile().to_json(), QUERY_PROFILE);
    assert_eq!(bare_query_profile().to_json(), BARE_QUERY_PROFILE);
    assert_eq!(local_query_profile().to_json(), LOCAL_QUERY_PROFILE);
    assert_eq!(tree_query_profile().to_json(), TREE_QUERY_PROFILE);
}

/// Replaces the digits after `"key":` with a single `0`.
fn zero_member(line: &str, key: &str) -> String {
    let marker = format!("\"{key}\":");
    let at = line.find(&marker).expect("member present") + marker.len();
    let digits = line[at..].bytes().take_while(u8::is_ascii_digit).count();
    format!("{}0{}", &line[..at], &line[at + digits..])
}

#[test]
fn span_lines_match_the_golden_lines() {
    let sink = Arc::new(ffmr_obs::VecSink::new());
    ffmr_obs::set_sink(Some(sink.clone()));
    ffmr_obs::span::seed_ids(1 << 40);
    ffmr_obs::set_trace_id(77);
    std::thread::Builder::new()
        .name("gold\"en\n".into())
        .spawn(|| {
            let mut outer = ffmr_obs::span_child_of("outer \"span\"\t", 9);
            outer.field("round", 3);
            outer.field("pa\\th\u{1}", NASTY);
            ffmr_obs::set_trace_id(0);
            let _inner = ffmr_obs::span("inner");
        })
        .expect("spawn")
        .join()
        .expect("span thread");
    ffmr_obs::set_sink(None);
    let lines: Vec<String> = sink
        .lines()
        .iter()
        .map(|l| zero_member(&zero_member(l, "start_us"), "dur_us"))
        .collect();
    assert_eq!(lines, SPANS);
}

/// Every proper prefix of a line is rejected, and so is — or at least
/// survives — the line with any one byte overwritten by `}` or `"`
/// (an overwrite inside a string can leave a valid document).
fn assert_decoder_survives_damage<T>(line: &str, decode: impl Fn(&str) -> Result<T, String>) {
    assert!(decode(line).is_ok(), "{line}");
    for cut in (0..line.len()).filter(|&c| line.is_char_boundary(c)) {
        assert!(decode(&line[..cut]).is_err(), "prefix of {cut} bytes");
    }
    for at in 0..line.len() {
        for flip in [b'}', b'"'] {
            let mut bytes = line.as_bytes().to_vec();
            bytes[at] = flip;
            if let Ok(damaged) = String::from_utf8(bytes) {
                let _ = decode(&damaged);
            }
        }
    }
}

#[test]
fn decoders_reject_truncation_and_never_panic_on_damage() {
    for line in [TASK_EVENT, BARE_TASK_EVENT] {
        assert_decoder_survives_damage(line, TaskEvent::from_json);
    }
    for line in [FULL_ROUND_PROFILE, MINIMAL_ROUND_PROFILE] {
        assert_decoder_survives_damage(line, RoundProfile::from_json);
    }
    for line in [
        QUERY_PROFILE,
        BARE_QUERY_PROFILE,
        LOCAL_QUERY_PROFILE,
        TREE_QUERY_PROFILE,
    ] {
        assert_decoder_survives_damage(line, QueryProfile::from_json);
    }
}

#[test]
fn golden_lines_decode_to_their_samples() {
    // Non-finite floats are written as 0, so those samples do not
    // survive the trip; the finite ones must.
    assert_eq!(
        TaskEvent::from_json(BARE_TASK_EVENT).unwrap(),
        bare_task_event()
    );
    assert_eq!(
        RoundProfile::from_json(MINIMAL_ROUND_PROFILE).unwrap(),
        minimal_round_profile()
    );
    assert_eq!(
        QueryProfile::from_json(QUERY_PROFILE).unwrap(),
        query_profile()
    );
    assert_eq!(
        QueryProfile::from_json(BARE_QUERY_PROFILE).unwrap(),
        bare_query_profile()
    );
    assert_eq!(
        QueryProfile::from_json(LOCAL_QUERY_PROFILE).unwrap(),
        local_query_profile()
    );
    assert_eq!(
        QueryProfile::from_json(TREE_QUERY_PROFILE).unwrap(),
        tree_query_profile()
    );
    let full = RoundProfile::from_json(FULL_ROUND_PROFILE).unwrap();
    assert_eq!(full.job, NASTY);
    assert_eq!(full.map_seconds, 0.0, "inf was written as 0");
    assert_eq!(full.dispatches, full_round_profile().dispatches);
    assert_eq!(full.dist_blame, full_round_profile().dist_blame);
    assert_eq!(
        full.critical_path_dist,
        full_round_profile().critical_path_dist
    );
    assert_eq!(full.events[1], bare_task_event());
}
