//! Integration tests for the task-dispatch subsystem: a coordinator and
//! in-thread workers talking over real localhost TCP.

use std::sync::Arc;
use std::time::Duration;

use ffmr_service::{status, Client, Message};
use ffmr_worker::{run_worker, Coordinator, CoordinatorConfig, JobKindRegistry, WorkerConfig};
use mapreduce::{
    MapTaskResult, MapTaskSpec, MrError, ReduceTaskResult, ReduceTaskSpec, SpillRun, TaskExecutor,
    TaskRunner, WireSpec,
};

/// A deterministic test job: XORs every input byte with a mask taken
/// from the wire params.
struct XorRunner {
    mask: u8,
}

impl TaskRunner for XorRunner {
    fn run_map(&self, spec: &MapTaskSpec) -> Result<MapTaskResult, MrError> {
        let data: Vec<u8> = spec.input.iter().map(|b| b ^ self.mask).collect();
        let records = data.len() as u64;
        Ok(MapTaskResult {
            spills: vec![SpillRun { data, records }],
            input_records: 1,
            output_records: records,
            allocs: 0,
            counters: vec![("xor_bytes".to_string(), records)],
            captured: vec![("svc".to_string(), vec![vec![self.mask]])],
        })
    }

    fn run_reduce(&self, spec: &ReduceTaskSpec) -> Result<ReduceTaskResult, MrError> {
        let mut data = Vec::new();
        for run in &spec.spills {
            data.extend(run.data.iter().map(|b| b ^ self.mask));
        }
        let records = data.len() as u64;
        Ok(ReduceTaskResult {
            data,
            records,
            allocs: 0,
            merge_fanin: spec.spills.len() as u64,
            counters: Vec::new(),
            captured: Vec::new(),
        })
    }
}

fn test_registry() -> JobKindRegistry {
    let mut registry = JobKindRegistry::new();
    registry.register("xor", |params| {
        Ok(Box::new(XorRunner {
            mask: params.first().copied().unwrap_or(0),
        }) as Box<dyn TaskRunner>)
    });
    registry.register("boom", |_params| {
        struct Boom;
        impl TaskRunner for Boom {
            fn run_map(&self, _: &MapTaskSpec) -> Result<MapTaskResult, MrError> {
                panic!("synthetic task panic");
            }
            fn run_reduce(&self, _: &ReduceTaskSpec) -> Result<ReduceTaskResult, MrError> {
                panic!("synthetic task panic");
            }
        }
        Ok(Box::new(Boom) as Box<dyn TaskRunner>)
    });
    registry
}

fn spawn_worker(addr: String) -> std::thread::JoinHandle<Result<(), MrError>> {
    std::thread::spawn(move || run_worker(&WorkerConfig::new(addr), &test_registry()))
}

#[test]
fn executor_round_trips_map_and_reduce_through_a_worker() {
    let coordinator = Coordinator::start(CoordinatorConfig::default()).unwrap();
    let addr = coordinator.local_addr().to_string();
    let w1 = spawn_worker(addr.clone());
    let w2 = spawn_worker(addr);
    assert!(coordinator.wait_for_workers(2, Duration::from_secs(10)));

    let executor = coordinator.executor();
    let wire = WireSpec {
        kind: "xor".to_string(),
        params: vec![0x5a],
    };

    // 3 MiB: the task body and the result both cross several frames
    // (the cap is `MAX_FRAME_BYTES`, 1 MiB), in both directions.
    let input: Vec<u8> = (0..3u32 << 20).map(|i| (i % 251) as u8).collect();
    let map = executor
        .execute_map(
            &wire,
            MapTaskSpec {
                task: 0,
                reducers: 2,
                input: input.clone(),
            },
        )
        .result
        .unwrap();
    assert_eq!(map.spills.len(), 1);
    assert_eq!(map.spills[0].data.len(), input.len());
    assert!(map.spills[0]
        .data
        .iter()
        .zip(&input)
        .all(|(out, inp)| out == &(inp ^ 0x5a)));
    assert_eq!(map.counters, vec![("xor_bytes".to_string(), 3 << 20)]);
    assert_eq!(map.captured, vec![("svc".to_string(), vec![vec![0x5a]])]);

    let reduce = executor
        .execute_reduce(
            &wire,
            ReduceTaskSpec {
                task: 1,
                spills: map.spills,
                schimmy: None,
            },
        )
        .result
        .unwrap();
    assert_eq!(reduce.data, input, "xor twice is identity");
    assert_eq!(reduce.merge_fanin, 1);

    coordinator.shutdown();
    w1.join().unwrap().unwrap();
    w2.join().unwrap().unwrap();
}

/// A dispatch note comes back with the attempt it timed, measured on
/// the coordinator's own socket: its window runs from handing the task
/// out to reading the last byte of the `task-done`, and both body
/// transfers fit inside it.
#[test]
fn dispatch_notes_time_the_bodies_on_the_coordinator_socket() {
    ffmr_obs::events::recorder().set_enabled(true);
    let coordinator = Coordinator::start(CoordinatorConfig::default()).unwrap();
    let worker = spawn_worker(coordinator.local_addr().to_string());
    assert!(coordinator.wait_for_workers(1, Duration::from_secs(10)));

    let executor = coordinator.executor();
    let wire = WireSpec {
        kind: "xor".to_string(),
        params: vec![3],
    };
    let spec = MapTaskSpec {
        task: 5,
        reducers: 1,
        input: vec![1; 2 << 20],
    };
    let body = ffmr_worker::proto::encode_task_body(&wire.kind, &wire.params, &spec.to_bytes());
    let attempt = executor.execute_map(&wire, spec);
    let result = attempt.result.unwrap();
    let n = attempt.note.expect("a worker ran the attempt");
    assert_eq!(
        (n.phase.as_str(), n.task, n.worker, n.ok),
        ("map", 5, 0, true)
    );
    assert_eq!(n.bytes_in, body.len() as u64);
    assert_eq!(n.bytes_out, result.to_bytes().len() as u64);
    assert!(n.queued_us <= n.started_us, "{n:?}");
    assert!(
        n.started_us <= n.finished_us && n.finished_us <= n.done_us,
        "{n:?}"
    );
    assert!(n.fetch_us > 0 && n.push_us > 0, "{n:?}");
    assert!(n.transfer_us() <= n.finished_us - n.started_us, "{n:?}");

    coordinator.shutdown();
    worker.join().unwrap().unwrap();
}

#[test]
fn worker_panic_surfaces_as_task_failed_not_a_hang() {
    let coordinator = Coordinator::start(CoordinatorConfig::default()).unwrap();
    let addr = coordinator.local_addr().to_string();
    let worker = spawn_worker(addr);
    assert!(coordinator.wait_for_workers(1, Duration::from_secs(10)));

    let executor = coordinator.executor();
    let wire = WireSpec {
        kind: "boom".to_string(),
        params: Vec::new(),
    };
    let err = executor
        .execute_map(
            &wire,
            MapTaskSpec {
                task: 3,
                reducers: 1,
                input: vec![1, 2, 3],
            },
        )
        .result
        .unwrap_err();
    match err {
        MrError::TaskFailed { phase, message, .. } => {
            assert_eq!(phase, "map");
            // The worker's report names the task, not the dispatch id.
            assert!(
                message.contains("map task 3 failed: synthetic task panic"),
                "{message}"
            );
        }
        other => panic!("expected TaskFailed, got {other}"),
    }

    // The worker survives its task panicking and keeps serving.
    let ok = executor
        .execute_map(
            &WireSpec {
                kind: "xor".to_string(),
                params: vec![1],
            },
            MapTaskSpec {
                task: 0,
                reducers: 1,
                input: vec![0],
            },
        )
        .result
        .unwrap();
    assert_eq!(ok.spills[0].data, vec![1]);

    coordinator.shutdown();
    worker.join().unwrap().unwrap();
}

#[test]
fn unregistered_job_kind_fails_the_dispatch_with_a_typed_error() {
    let coordinator = Coordinator::start(CoordinatorConfig::default()).unwrap();
    let addr = coordinator.local_addr().to_string();
    let worker = spawn_worker(addr);
    assert!(coordinator.wait_for_workers(1, Duration::from_secs(10)));

    let err = coordinator
        .executor()
        .execute_map(
            &WireSpec {
                kind: "no-such-kind".to_string(),
                params: Vec::new(),
            },
            MapTaskSpec {
                task: 0,
                reducers: 1,
                input: Vec::new(),
            },
        )
        .result
        .unwrap_err();
    match err {
        MrError::TaskFailed { message, .. } => {
            assert!(message.contains("no-such-kind"), "{message}");
        }
        other => panic!("expected TaskFailed, got {other}"),
    }

    coordinator.shutdown();
    worker.join().unwrap().unwrap();
}

#[test]
fn connection_drop_fails_inflight_dispatches_for_retry() {
    let coordinator = Coordinator::start(CoordinatorConfig::default()).unwrap();
    let addr = coordinator.local_addr();

    // A fake worker that registers, grabs the dispatch, then vanishes
    // (dropping the TCP connection like a kill -9 would).
    let mut fake = Client::connect(addr).unwrap();
    let reply = fake.request(&Message::new("register")).unwrap();
    assert_eq!(reply.head, status::OK);
    let worker_id: u64 = reply.get_parsed("worker").unwrap().unwrap();

    let executor = coordinator.executor();
    let pending = std::thread::spawn(move || {
        executor.execute_map(
            &WireSpec {
                kind: "xor".to_string(),
                params: vec![1],
            },
            MapTaskSpec {
                task: 7,
                reducers: 1,
                input: vec![9],
            },
        )
    });

    // Poll until the dispatch is handed to the fake worker.
    loop {
        let resp = fake
            .request(&Message::new("task-request").field("worker", worker_id))
            .unwrap();
        assert_eq!(resp.head, status::OK);
        if resp.get("dispatch").is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(fake); // connection closed: the coordinator must declare death

    let attempt = pending.join().unwrap();
    // The lost attempt still reached a worker, so it has its note.
    let note = attempt
        .note
        .expect("the dead worker's attempt keeps its note");
    assert_eq!(
        (note.phase.as_str(), note.task, note.worker, note.ok),
        ("map", 7, worker_id, false)
    );
    assert!(note.started_us <= note.finished_us, "{note:?}");
    let err = attempt.result.unwrap_err();
    match err {
        MrError::TaskFailed {
            phase,
            task,
            message,
        } => {
            assert_eq!(phase, "map");
            assert_eq!(task, 7);
            assert!(message.contains("died"), "{message}");
        }
        other => panic!("expected TaskFailed, got {other}"),
    }
    assert_eq!(coordinator.worker_deaths(), 1);
    assert_eq!(coordinator.live_workers(), 0);
    coordinator.shutdown();
}

#[test]
fn heartbeat_silence_declares_a_worker_dead() {
    let coordinator = Coordinator::start(CoordinatorConfig {
        heartbeat_timeout: Duration::from_millis(250),
        ..CoordinatorConfig::default()
    })
    .unwrap();
    let addr = coordinator.local_addr();

    // This fake worker keeps its connection open but never heartbeats
    // after taking the task — only the monitor can catch it.
    let mut fake = Client::connect(addr).unwrap();
    let reply = fake.request(&Message::new("register")).unwrap();
    let worker_id: u64 = reply.get_parsed("worker").unwrap().unwrap();

    let executor = coordinator.executor();
    let pending = std::thread::spawn(move || {
        executor.execute_map(
            &WireSpec {
                kind: "xor".to_string(),
                params: vec![1],
            },
            MapTaskSpec {
                task: 0,
                reducers: 1,
                input: vec![9],
            },
        )
    });
    loop {
        let resp = fake
            .request(&Message::new("task-request").field("worker", worker_id))
            .unwrap();
        if resp.get("dispatch").is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let err = pending.join().unwrap().result.unwrap_err();
    match err {
        MrError::TaskFailed { message, .. } => {
            assert!(message.contains("heartbeat timeout"), "{message}");
        }
        other => panic!("expected TaskFailed, got {other}"),
    }

    // The zombie's later report refers to a retired dispatch id and is
    // acknowledged but ignored; its next task-request is rejected.
    let stale = fake
        .request(
            &Message::new("task-done")
                .field("worker", worker_id)
                .field("dispatch", 0)
                .field("status", "ok"),
        )
        .unwrap();
    assert_eq!(stale.head, status::OK);
    let rejected = fake
        .request(&Message::new("task-request").field("worker", worker_id))
        .unwrap();
    assert_eq!(rejected.head, status::ERROR);
    coordinator.shutdown();
}

#[test]
fn no_live_workers_times_out_instead_of_hanging() {
    let coordinator = Coordinator::start(CoordinatorConfig {
        dead_cluster_timeout: Duration::from_millis(300),
        ..CoordinatorConfig::default()
    })
    .unwrap();
    let err = coordinator
        .executor()
        .execute_map(
            &WireSpec {
                kind: "xor".to_string(),
                params: Vec::new(),
            },
            MapTaskSpec {
                task: 0,
                reducers: 1,
                input: Vec::new(),
            },
        )
        .result
        .unwrap_err();
    match err {
        MrError::TaskFailed { message, .. } => {
            assert!(message.contains("no live workers"), "{message}");
        }
        other => panic!("expected TaskFailed, got {other}"),
    }
    coordinator.shutdown();
}

#[test]
fn protocol_abuse_gets_error_responses_not_crashes() {
    let coordinator = Coordinator::start(CoordinatorConfig::default()).unwrap();
    let mut client = Client::connect(coordinator.local_addr()).unwrap();

    let cases = [
        Message::new("frobnicate"),
        Message::new("heartbeat"),
        Message::new("heartbeat").field("worker", "not-a-number"),
        // No worker has registered: task requests are refused at once,
        // not held in a long poll.
        Message::new("task-request").field("worker", 0),
        Message::new("task-request").field("worker", 999),
        Message::new("task-done").field("worker", 0),
    ];
    for request in cases {
        let resp = client.request(&request).unwrap();
        assert_eq!(resp.head, status::ERROR, "request {:?}", request.head);
        assert!(resp.get("message").is_some());
    }

    // A result body for a dispatch nobody handed out (as from a zombie
    // whose task was retried) is read off the socket, acked and dropped.
    let mut stale = Message::new("task-done")
        .field("worker", 0)
        .field("dispatch", 41)
        .field("status", "ok");
    stale.body = vec![0xab; (3 << 20) + 5];
    assert_eq!(client.request(&stale).unwrap().head, status::OK);

    // The connection is still healthy after all that abuse.
    let ok = client.request(&Message::new("register")).unwrap();
    assert_eq!(ok.head, status::OK);
    coordinator.shutdown();
}

#[test]
fn ff_round_task_is_byte_identical_local_and_remote() {
    use ffmr_core::map_reduce_fns::FfShared;
    use ffmr_core::{AugmentedEdges, FfVariant, KPolicy};

    let shared = FfShared {
        source: 0,
        sink: 5,
        variant: FfVariant::ff5(),
        k_policy: KPolicy::InDegree,
        bidirectional: true,
        extend_all_paths: false,
    };
    let params = ffmr_core::ff_wire_params(&shared, &AugmentedEdges::new(8));

    // One master record for the source vertex with two outgoing edges.
    let vertex = ffmr_core::VertexValue {
        source_paths: vec![ffmr_core::ExcessPath::empty()],
        sink_paths: Vec::new(),
        edges: (1u64..3)
            .map(|to| ffmr_core::VertexEdge {
                to,
                eid: swgraph::EdgeId::new(to),
                flow: 0,
                cap: 1,
                rev_cap: 1,
                sent_source: None,
                sent_sink: None,
            })
            .collect(),
    };
    let mut input = SpillRun::default();
    input.push(&0u64, &vertex);
    let spec = MapTaskSpec {
        task: 0,
        reducers: 4,
        input: input.data,
    };

    let local = ffmr_core::ff_task_runner(&params)
        .unwrap()
        .run_map(&spec)
        .unwrap();

    let coordinator = Coordinator::start(CoordinatorConfig::default()).unwrap();
    let addr = coordinator.local_addr().to_string();
    let worker = std::thread::spawn(move || {
        let mut registry = JobKindRegistry::new();
        registry.register(ffmr_core::FF_JOB_KIND, ffmr_core::ff_task_runner);
        run_worker(&WorkerConfig::new(addr), &registry)
    });
    assert!(coordinator.wait_for_workers(1, Duration::from_secs(10)));
    let remote = coordinator
        .executor()
        .execute_map(
            &WireSpec {
                kind: ffmr_core::FF_JOB_KIND.to_string(),
                params,
            },
            spec,
        )
        .result
        .unwrap();
    assert_eq!(local.to_bytes(), remote.to_bytes(), "task output diverged");

    coordinator.shutdown();
    worker.join().unwrap().unwrap();
}

/// `Arc<RemoteExecutor>` must be shareable across the runtime's task
/// threads.
#[test]
fn executor_is_shared_across_threads() {
    let coordinator = Coordinator::start(CoordinatorConfig::default()).unwrap();
    let addr = coordinator.local_addr().to_string();
    let w1 = spawn_worker(addr.clone());
    let w2 = spawn_worker(addr);
    assert!(coordinator.wait_for_workers(2, Duration::from_secs(10)));

    let executor: Arc<dyn TaskExecutor> = coordinator.executor();
    let handles: Vec<_> = (0..8u8)
        .map(|mask| {
            let executor = Arc::clone(&executor);
            std::thread::spawn(move || {
                executor.execute_map(
                    &WireSpec {
                        kind: "xor".to_string(),
                        params: vec![mask],
                    },
                    MapTaskSpec {
                        task: mask as usize,
                        reducers: 1,
                        input: vec![0u8; 64],
                    },
                )
            })
        })
        .collect();
    for (mask, handle) in handles.into_iter().enumerate() {
        let result = handle.join().unwrap().result.unwrap();
        assert!(result.spills[0].data.iter().all(|&b| b == mask as u8));
    }
    coordinator.shutdown();
    w1.join().unwrap().unwrap();
    w2.join().unwrap().unwrap();
}

/// Each attempt's note rides home with that attempt, so a retried task
/// is attributed attempt by attempt: an injected fault dies before any
/// dispatch and has no worker, and the retry that a worker ran carries
/// the worker of its own note.
#[test]
fn a_retried_attempt_is_attributed_to_the_worker_that_ran_it() {
    use ffmr_core::{FfConfig, FfVariant};
    use mapreduce::{ClusterConfig, FailurePolicy, MrRuntime};
    use swgraph::{FlowNetwork, VertexId};

    ffmr_obs::events::recorder().set_enabled(true);
    let coordinator = Coordinator::start(CoordinatorConfig::default()).unwrap();
    let addr = coordinator.local_addr().to_string();
    let worker = std::thread::spawn(move || {
        let mut registry = JobKindRegistry::new();
        registry.register(ffmr_core::FF_JOB_KIND, ffmr_core::ff_task_runner);
        run_worker(&WorkerConfig::new(addr), &registry)
    });
    assert!(coordinator.wait_for_workers(1, Duration::from_secs(10)));

    let n = 120;
    let net = FlowNetwork::from_undirected_unit(n, &swgraph::gen::barabasi_albert(n, 3, 13));
    let config = FfConfig::new(VertexId::new(0), VertexId::new(n - 1)).variant(FfVariant::ff5());
    let mut rt = MrRuntime::new(ClusterConfig::small_cluster(4));
    rt.set_task_executor(Some(coordinator.executor()));
    rt.set_failure_policy(FailurePolicy::with_injector(4, |p, t, a| {
        p == "map" && t == 0 && a == 0
    }));
    ffmr_core::run_max_flow(&mut rt, &net, &config).expect("run survives the injected fault");

    let history = rt
        .dfs()
        .read_blob(&ffmr_core::history_path(&config.base_path))
        .expect("history blob");
    let text = String::from_utf8(history.to_vec()).unwrap();
    let mut dispatched_rounds = 0;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let p = ffmr_obs::RoundProfile::from_json(line).expect("parse profile");
        // Round 0's graph-prep job runs in process: nothing dispatched.
        if p.dispatches.is_empty() {
            continue;
        }
        dispatched_rounds += 1;
        let map0: Vec<_> = p
            .events
            .iter()
            .filter(|e| e.phase == "map" && e.task == 0)
            .collect();
        assert_eq!(map0.len(), 2, "round {}: two attempts of map 0", p.round);
        assert_eq!(
            map0[0].worker, None,
            "round {}: the injected attempt",
            p.round
        );
        let notes: Vec<_> = p
            .dispatches
            .iter()
            .filter(|n| n.phase == "map" && n.task == 0)
            .collect();
        assert_eq!(notes.len(), 1, "round {}: one dispatch of map 0", p.round);
        assert_eq!(
            map0[1].worker,
            Some(notes[0].worker),
            "round {}: the dispatched attempt",
            p.round
        );
    }
    assert!(dispatched_rounds > 0, "no round went through the worker");

    coordinator.shutdown();
    worker.join().unwrap().unwrap();
}
