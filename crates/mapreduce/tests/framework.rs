//! End-to-end tests of the MapReduce runtime: dataflow correctness,
//! determinism, schimmy, services, counters, cost-model monotonicity and
//! failure injection.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mapreduce::{
    ClusterConfig, FailurePolicy, JobBuilder, MapContext, MrError, MrRuntime, ReduceContext,
    Service,
};

fn word_count_input() -> Vec<(u64, String)> {
    vec![
        (0, "a b c a".to_string()),
        (1, "b a".to_string()),
        (2, "c c c".to_string()),
        (3, String::new()),
    ]
}

fn run_word_count(rt: &mut MrRuntime) -> mapreduce::JobStats {
    rt.dfs_mut()
        .write_records("in", 3, word_count_input())
        .unwrap();
    let job = JobBuilder::new("wc")
        .input("in")
        .output("out")
        .reducers(4)
        .map(|_k: u64, line: String, ctx: &mut MapContext<String, u64>| {
            for w in line.split_whitespace() {
                ctx.emit(w.to_string(), 1);
            }
        })
        .reduce(
            |w: &String,
             vs: &mut dyn Iterator<Item = u64>,
             ctx: &mut ReduceContext<String, u64>| {
                ctx.emit(w.clone(), vs.sum::<u64>());
            },
        );
    rt.run(job).unwrap()
}

fn sorted_counts(rt: &MrRuntime) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = rt.dfs().read_records("out").unwrap();
    out.sort();
    out
}

#[test]
fn word_count_end_to_end() {
    let mut rt = MrRuntime::new(ClusterConfig::small_cluster(3));
    let stats = run_word_count(&mut rt);
    assert_eq!(
        sorted_counts(&rt),
        vec![
            ("a".to_string(), 3),
            ("b".to_string(), 2),
            ("c".to_string(), 4)
        ]
    );
    assert_eq!(stats.map_input_records, 4);
    assert_eq!(stats.map_output_records, 9);
    assert_eq!(stats.reduce_output_records, 3);
    assert_eq!(stats.map_tasks, 3);
    assert_eq!(stats.reduce_tasks, 4);
    assert!(stats.sim_seconds > 0.0);
    assert!(stats.shuffle_bytes > 0);
}

#[test]
fn deterministic_mode_reproduces_stats_exactly() {
    let run = || {
        let mut rt = MrRuntime::new(ClusterConfig::small_cluster(3));
        rt.set_worker_threads(Some(1));
        let stats = run_word_count(&mut rt);
        (stats.shuffle_bytes, stats.sim_seconds, sorted_counts(&rt))
    };
    let (b1, s1, r1) = run();
    let (b2, s2, r2) = run();
    assert_eq!(b1, b2);
    assert_eq!(s1, s2);
    assert_eq!(r1, r2);
}

#[test]
fn parallel_and_serial_agree_on_everything_deterministic() {
    let mut rt1 = MrRuntime::new(ClusterConfig::small_cluster(3));
    rt1.set_worker_threads(Some(1));
    let s1 = run_word_count(&mut rt1);
    let mut rt8 = MrRuntime::new(ClusterConfig::small_cluster(3));
    rt8.set_worker_threads(Some(8));
    let s8 = run_word_count(&mut rt8);
    assert_eq!(sorted_counts(&rt1), sorted_counts(&rt8));
    assert_eq!(s1.shuffle_bytes, s8.shuffle_bytes);
    assert_eq!(s1.map_output_records, s8.map_output_records);
}

#[test]
fn multi_round_chain_threads_output_to_input() {
    // Round 1: double every value; round 2: sum by parity of key.
    let mut rt = MrRuntime::new(ClusterConfig::small_cluster(2));
    rt.dfs_mut()
        .write_records("r0", 2, (0u64..10).map(|i| (i, i)))
        .unwrap();
    let j1 = JobBuilder::new("double")
        .input("r0")
        .output("r1")
        .reducers(3)
        .map(|k: u64, v: u64, ctx: &mut MapContext<u64, u64>| ctx.emit(k, v * 2))
        .reduce(
            |k: &u64, vs: &mut dyn Iterator<Item = u64>, ctx: &mut ReduceContext<u64, u64>| {
                for v in vs {
                    ctx.emit(*k, v);
                }
            },
        );
    rt.run(j1).unwrap();
    let j2 = JobBuilder::new("parity-sum")
        .input("r1")
        .output("r2")
        .reducers(2)
        .map(|k: u64, v: u64, ctx: &mut MapContext<u64, u64>| ctx.emit(k % 2, v))
        .reduce(
            |k: &u64, vs: &mut dyn Iterator<Item = u64>, ctx: &mut ReduceContext<u64, u64>| {
                ctx.emit(*k, vs.sum::<u64>());
            },
        );
    rt.run(j2).unwrap();
    let mut out: Vec<(u64, u64)> = rt.dfs().read_records("r2").unwrap();
    out.sort();
    // evens: 0+2+4+6+8 = 20 doubled = 40; odds: 1+3+5+7+9 = 25 doubled = 50.
    assert_eq!(out, vec![(0, 40), (1, 50)]);
}

#[test]
fn schimmy_merges_master_records_without_shuffling_them() {
    let mut rt = MrRuntime::new(ClusterConfig::small_cluster(2));
    let reducers = 3;

    // Produce a hash-partitioned "graph" file via an identity job.
    rt.dfs_mut()
        .write_records("raw", 2, (0u64..20).map(|i| (i, (i + 1) * 100)))
        .unwrap();
    let seed = JobBuilder::new("seed")
        .input("raw")
        .output("graph")
        .reducers(reducers)
        .map(|k: u64, v: u64, ctx: &mut MapContext<u64, u64>| ctx.emit(k, v))
        .reduce(
            |k: &u64, vs: &mut dyn Iterator<Item = u64>, ctx: &mut ReduceContext<u64, u64>| {
                for v in vs {
                    ctx.emit(*k, v);
                }
            },
        );
    rt.run(seed).unwrap();

    // Messages for a subset of keys only.
    rt.dfs_mut()
        .write_records("msgs", 2, vec![(3u64, 1u64), (7, 2), (3, 3)])
        .unwrap();

    // Schimmy job: masters come from "graph" (not shuffled), messages from
    // "msgs". Sum messages into the master value.
    let job = JobBuilder::new("apply")
        .input("msgs")
        .output("applied")
        .reducers(reducers)
        .schimmy_input("graph")
        .map(|k: u64, v: u64, ctx: &mut MapContext<u64, u64>| ctx.emit(k, v))
        .reduce(
            |k: &u64, vs: &mut dyn Iterator<Item = u64>, ctx: &mut ReduceContext<u64, u64>| {
                let all: Vec<u64> = vs.collect();
                // Master (>= 100) arrives first thanks to schimmy-first merge.
                assert!(all[0] >= 100, "master must come first for key {k}");
                ctx.emit(*k, all.iter().sum::<u64>());
            },
        );
    let stats = rt.run(job).unwrap();

    let mut out: Vec<(u64, u64)> = rt.dfs().read_records("applied").unwrap();
    out.sort();
    assert_eq!(out.len(), 20, "every master re-emitted");
    assert_eq!(out[3], (3, 404)); // 400 + 1 + 3
    assert_eq!(out[7], (7, 802)); // 800 + 2
    assert_eq!(out[5], (5, 600)); // untouched master
    assert!(stats.schimmy_bytes > 0);
    // Only the 3 small messages were shuffled, not the 20 masters.
    assert_eq!(stats.map_output_records, 3);
}

#[test]
fn schimmy_partition_mismatch_is_rejected() {
    let mut rt = MrRuntime::new(ClusterConfig::small_cluster(2));
    rt.dfs_mut()
        .write_records("graph", 2, vec![(1u64, 1u64)])
        .unwrap();
    rt.dfs_mut()
        .write_records("msgs", 1, vec![(1u64, 1u64)])
        .unwrap();
    let collector = Arc::new(Collector::default());
    let job = JobBuilder::new("bad")
        .input("msgs")
        .output("out")
        .reducers(5) // != 2 partitions of "graph"
        .schimmy_input("graph")
        .attach_service("collector", Arc::clone(&collector) as Arc<dyn Service>)
        .map(|k: u64, v: u64, ctx: &mut MapContext<u64, u64>| {
            ctx.submit("collector", &k);
            ctx.emit(k, v);
        })
        .reduce(
            |k: &u64, vs: &mut dyn Iterator<Item = u64>, ctx: &mut ReduceContext<u64, u64>| {
                ctx.emit(*k, vs.sum::<u64>());
            },
        );
    assert!(matches!(rt.run(job), Err(MrError::InvalidJob(_))));
    // Rejected before any side effect: the service never saw the round.
    assert_eq!(collector.rounds_begun.load(Ordering::SeqCst), 0);
    assert_eq!(collector.applied.load(Ordering::SeqCst), 0);
    assert!(!rt.dfs().exists("out"));
}

#[test]
fn schimmy_input_out_of_key_order_is_a_typed_error() {
    // `write_records` keeps insertion order, so this one-partition file
    // is not key-sorted the way a reduce phase would have written it.
    // The error is deterministic: under Hadoop's retry budget the reduce
    // task still runs once.
    let mut rt = MrRuntime::new(ClusterConfig::small_cluster(2));
    rt.set_failure_policy(FailurePolicy::hadoop_default());
    let reducer_calls = Arc::new(AtomicU64::new(0));
    let calls = Arc::clone(&reducer_calls);
    rt.dfs_mut()
        .write_records("graph", 1, vec![(5u64, 50u64), (2, 20), (9, 90)])
        .unwrap();
    rt.dfs_mut()
        .write_records("msgs", 1, vec![(2u64, 1u64)])
        .unwrap();
    let job = JobBuilder::new("unsorted")
        .input("msgs")
        .output("out")
        .reducers(1)
        .schimmy_input("graph")
        .map(|k: u64, v: u64, ctx: &mut MapContext<u64, u64>| ctx.emit(k, v))
        .reduce(
            move |k: &u64, vs: &mut dyn Iterator<Item = u64>, ctx: &mut ReduceContext<u64, u64>| {
                calls.fetch_add(1, Ordering::SeqCst);
                ctx.emit(*k, vs.sum::<u64>());
            },
        );
    let err = rt.run(job).unwrap_err();
    assert_eq!(reducer_calls.load(Ordering::SeqCst), 1, "no retry");
    match &err {
        MrError::UnsortedRun { run, partition } => {
            assert_eq!(run, "schimmy input graph");
            assert_eq!(*partition, 0);
        }
        other => panic!("expected UnsortedRun, got {other}"),
    }
    assert!(err.to_string().contains("graph"), "{err}");
    assert!(!rt.dfs().exists("out"));
}

#[derive(Default)]
struct Collector {
    submitted: AtomicU64,
    applied: AtomicU64,
    rounds_begun: AtomicU64,
    rounds_ended: AtomicU64,
}

impl Service for Collector {
    fn begin_round(&self) {
        self.rounds_begun.fetch_add(1, Ordering::SeqCst);
    }
    fn end_round(&self) {
        self.rounds_ended.fetch_add(1, Ordering::SeqCst);
    }
    fn apply_calls(&self, _calls: &[Vec<u8>]) -> Result<(), String> {
        self.applied.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[test]
fn services_are_reachable_from_map_and_reduce() {
    let mut rt = MrRuntime::new(ClusterConfig::small_cluster(2));
    rt.dfs_mut()
        .write_records("in", 2, (0u64..6).map(|i| (i, i)))
        .unwrap();
    let collector = Arc::new(Collector::default());
    let job = JobBuilder::new("svc")
        .input("in")
        .output("out")
        .reducers(2)
        .attach_service("collector", Arc::clone(&collector) as Arc<dyn Service>)
        .map(|k: u64, v: u64, ctx: &mut MapContext<u64, u64>| {
            let c: &Collector = ctx.service("collector").unwrap();
            c.submitted.fetch_add(1, Ordering::SeqCst);
            ctx.emit(k, v);
        })
        .reduce(
            |k: &u64, vs: &mut dyn Iterator<Item = u64>, ctx: &mut ReduceContext<u64, u64>| {
                let c: &Collector = ctx.service("collector").unwrap();
                c.submitted.fetch_add(10, Ordering::SeqCst);
                ctx.emit(*k, vs.sum::<u64>());
            },
        );
    rt.run(job).unwrap();
    assert_eq!(collector.submitted.load(Ordering::SeqCst), 6 + 60);
    assert_eq!(collector.rounds_begun.load(Ordering::SeqCst), 1);
    assert_eq!(collector.rounds_ended.load(Ordering::SeqCst), 1);
}

#[test]
fn missing_service_surfaces_as_error_in_task() {
    let mut rt = MrRuntime::new(ClusterConfig::small_cluster(2));
    rt.dfs_mut()
        .write_records("in", 1, vec![(1u64, 1u64)])
        .unwrap();
    let job = JobBuilder::new("no-svc")
        .input("in")
        .output("out")
        .reducers(1)
        .map(|k: u64, v: u64, ctx: &mut MapContext<u64, u64>| {
            let r: Result<&Collector, _> = ctx.service("ghost");
            assert!(r.is_err());
            ctx.emit(k, v);
        })
        .reduce(
            |k: &u64, vs: &mut dyn Iterator<Item = u64>, ctx: &mut ReduceContext<u64, u64>| {
                ctx.emit(*k, vs.sum::<u64>());
            },
        );
    rt.run(job).unwrap();
}

#[test]
fn counters_flow_back_in_stats() {
    let mut rt = MrRuntime::new(ClusterConfig::small_cluster(2));
    rt.dfs_mut()
        .write_records("in", 2, (0u64..10).map(|i| (i, i)))
        .unwrap();
    let job = JobBuilder::new("cnt")
        .input("in")
        .output("out")
        .reducers(2)
        .map(|k: u64, v: u64, ctx: &mut MapContext<u64, u64>| {
            if k.is_multiple_of(2) {
                ctx.incr("even", 1);
            }
            ctx.emit(k, v);
        })
        .reduce(
            |k: &u64, vs: &mut dyn Iterator<Item = u64>, ctx: &mut ReduceContext<u64, u64>| {
                ctx.incr("groups", 1);
                ctx.emit(*k, vs.sum::<u64>());
            },
        );
    let stats = rt.run(job).unwrap();
    assert_eq!(stats.counter("even"), 5);
    assert_eq!(stats.counter("groups"), 10);
    assert_eq!(stats.counter("missing"), 0);
}

#[test]
fn mapper_panic_fails_job_with_context() {
    let mut rt = MrRuntime::new(ClusterConfig::small_cluster(2));
    rt.dfs_mut()
        .write_records("in", 2, (0u64..4).map(|i| (i, i)))
        .unwrap();
    let job = JobBuilder::new("boom")
        .input("in")
        .output("out")
        .reducers(1)
        .map(|k: u64, _v: u64, _ctx: &mut MapContext<u64, u64>| {
            assert!(k != 2, "injected mapper failure");
        })
        .reduce(
            |k: &u64, vs: &mut dyn Iterator<Item = u64>, ctx: &mut ReduceContext<u64, u64>| {
                ctx.emit(*k, vs.sum::<u64>());
            },
        );
    match rt.run(job) {
        Err(MrError::TaskFailed { phase, message, .. }) => {
            assert_eq!(phase, "map");
            assert!(message.contains("injected mapper failure"));
        }
        other => panic!("expected TaskFailed, got {other:?}"),
    }
    // Failed job must not leave a partial output behind.
    assert!(!rt.dfs().exists("out"));
}

#[test]
fn reducer_panic_fails_job() {
    let mut rt = MrRuntime::new(ClusterConfig::small_cluster(2));
    rt.dfs_mut()
        .write_records("in", 1, vec![(1u64, 1u64)])
        .unwrap();
    let job = JobBuilder::new("boom2")
        .input("in")
        .output("out")
        .reducers(2)
        .map(|k: u64, v: u64, ctx: &mut MapContext<u64, u64>| ctx.emit(k, v))
        .reduce(
            |_k: &u64, _vs: &mut dyn Iterator<Item = u64>, _ctx: &mut ReduceContext<u64, u64>| {
                panic!("injected reducer failure");
            },
        );
    assert!(matches!(
        rt.run(job),
        Err(MrError::TaskFailed {
            phase: "reduce",
            ..
        })
    ));
}

#[test]
fn invalid_jobs_are_rejected_before_running() {
    let mut rt = MrRuntime::new(ClusterConfig::small_cluster(2));
    rt.dfs_mut()
        .write_records("in", 1, vec![(1u64, 1u64)])
        .unwrap();
    rt.dfs_mut()
        .write_records("occupied", 1, vec![(1u64, 1u64)])
        .unwrap();

    let mk = |input: &str, output: &str, reducers: usize| {
        JobBuilder::new("bad")
            .input(input)
            .output(output)
            .reducers(reducers)
            .map(|k: u64, v: u64, ctx: &mut MapContext<u64, u64>| ctx.emit(k, v))
            .reduce(
                |k: &u64, vs: &mut dyn Iterator<Item = u64>, ctx: &mut ReduceContext<u64, u64>| {
                    ctx.emit(*k, vs.sum::<u64>());
                },
            )
    };
    assert!(matches!(
        rt.run(mk("in", "out", 0)),
        Err(MrError::InvalidJob(_))
    ));
    assert!(matches!(
        rt.run(mk("ghost", "out", 1)),
        Err(MrError::FileNotFound(_))
    ));
    assert!(matches!(
        rt.run(mk("in", "occupied", 1)),
        Err(MrError::OutputExists(_))
    ));
}

#[test]
fn empty_input_produces_empty_output() {
    let mut rt = MrRuntime::new(ClusterConfig::small_cluster(2));
    rt.dfs_mut()
        .write_records::<u64, u64, _>("in", 3, Vec::new())
        .unwrap();
    let job = JobBuilder::new("empty")
        .input("in")
        .output("out")
        .reducers(2)
        .map(|k: u64, v: u64, ctx: &mut MapContext<u64, u64>| ctx.emit(k, v))
        .reduce(
            |k: &u64, vs: &mut dyn Iterator<Item = u64>, ctx: &mut ReduceContext<u64, u64>| {
                ctx.emit(*k, vs.sum::<u64>());
            },
        );
    let stats = rt.run(job).unwrap();
    assert_eq!(stats.map_input_records, 0);
    assert_eq!(stats.reduce_output_records, 0);
    assert_eq!(rt.dfs().file_records("out"), 0);
}

#[test]
fn skewed_keys_all_land_in_one_group() {
    let mut rt = MrRuntime::new(ClusterConfig::small_cluster(2));
    rt.dfs_mut()
        .write_records("in", 4, (0u64..100).map(|i| (i, 1u64)))
        .unwrap();
    let job = JobBuilder::new("skew")
        .input("in")
        .output("out")
        .reducers(8)
        .map(|_k: u64, v: u64, ctx: &mut MapContext<u64, u64>| ctx.emit(42, v))
        .reduce(
            |k: &u64, vs: &mut dyn Iterator<Item = u64>, ctx: &mut ReduceContext<u64, u64>| {
                ctx.emit(*k, vs.sum::<u64>());
            },
        );
    rt.run(job).unwrap();
    let out: Vec<(u64, u64)> = rt.dfs().read_records("out").unwrap();
    assert_eq!(out, vec![(42, 100)]);
}

#[test]
fn more_nodes_reduce_simulated_time_on_heavy_jobs() {
    let run_with = |nodes: usize| {
        let mut rt = MrRuntime::new(ClusterConfig::paper_cluster(nodes));
        rt.dfs_mut()
            .write_records("in", 64, (0u64..40_000).map(|i| (i, vec![0u8; 64])))
            .unwrap();
        let job = JobBuilder::new("heavy")
            .input("in")
            .output("out")
            .reducers(64)
            .map(|k: u64, v: Vec<u8>, ctx: &mut MapContext<u64, Vec<u8>>| {
                ctx.emit(k, v);
            })
            .reduce(
                |k: &u64,
                 vs: &mut dyn Iterator<Item = Vec<u8>>,
                 ctx: &mut ReduceContext<u64, u64>| {
                    ctx.emit(*k, vs.map(|v| v.len() as u64).sum::<u64>());
                },
            );
        rt.run(job).unwrap().sim_seconds
    };
    let t5 = run_with(5);
    let t20 = run_with(20);
    assert!(
        t20 < t5,
        "20 nodes ({t20}s) should beat 5 nodes ({t5}s) on a shuffle-heavy job"
    );
}

#[test]
fn small_dfs_blocks_create_more_map_tasks_with_identical_output() {
    let run_with_block = |block_mb: f64| {
        let mut cluster = ClusterConfig::small_cluster(3);
        cluster.dfs_block_mb = block_mb;
        let mut rt = MrRuntime::new(cluster);
        rt.dfs_mut()
            .write_records("in", 2, (0..500u64).map(|i| (i, vec![0u8; 40])))
            .unwrap();
        let job = JobBuilder::new("split")
            .input("in")
            .output("out")
            .reducers(4)
            .map(|k: u64, v: Vec<u8>, ctx: &mut MapContext<u64, u64>| {
                ctx.emit(k % 10, v.len() as u64);
            })
            .reduce(
                |k: &u64, vs: &mut dyn Iterator<Item = u64>, ctx: &mut ReduceContext<u64, u64>| {
                    ctx.emit(*k, vs.sum::<u64>());
                },
            );
        let stats = rt.run(job).unwrap();
        let mut out: Vec<(u64, u64)> = rt.dfs().read_records("out").unwrap();
        out.sort();
        (stats.map_tasks, out)
    };
    let (big_tasks, big_out) = run_with_block(64.0);
    let (small_tasks, small_out) = run_with_block(0.001); // ~1 KiB blocks
    assert_eq!(big_tasks, 2, "one split per partition at 64 MB blocks");
    assert!(
        small_tasks > 10,
        "1 KiB blocks must split ~21 KiB of data into many tasks ({small_tasks})"
    );
    assert_eq!(big_out, small_out, "splitting cannot change results");
}

#[test]
fn shuffle_bytes_scale_with_payload_size() {
    let run_payload = |len: usize| {
        let mut rt = MrRuntime::new(ClusterConfig::small_cluster(4));
        rt.dfs_mut()
            .write_records("in", 4, (0u64..100).map(|i| (i, vec![0u8; len])))
            .unwrap();
        let job = JobBuilder::new("payload")
            .input("in")
            .output("out")
            .reducers(4)
            .map(|k: u64, v: Vec<u8>, ctx: &mut MapContext<u64, Vec<u8>>| {
                ctx.emit(k, v);
            })
            .reduce(
                |k: &u64,
                 vs: &mut dyn Iterator<Item = Vec<u8>>,
                 ctx: &mut ReduceContext<u64, u64>| {
                    ctx.emit(*k, vs.count() as u64);
                },
            );
        rt.run(job).unwrap().shuffle_bytes
    };
    let small = run_payload(8);
    let large = run_payload(512);
    assert!(large > small * 10);
}

#[test]
fn flight_recorder_captures_task_timeline() {
    // The recorder is process-global: enabling it here may also populate
    // `task_events` for jobs run by concurrently executing tests, which
    // is harmless (nothing asserts the field is empty).
    ffmr_obs::events::recorder().set_enabled(true);
    let mut rt = MrRuntime::new(ClusterConfig::small_cluster(3));
    let stats = run_word_count(&mut rt);
    let events = &stats.task_events;

    let phase_count = |p: &str| events.iter().filter(|e| e.phase == p).count();
    assert_eq!(phase_count("map"), stats.map_tasks);
    assert_eq!(phase_count("shuffle"), 1);
    assert_eq!(phase_count("reduce"), stats.reduce_tasks);

    for e in events {
        assert_eq!(e.job, "wc");
        assert_eq!(e.outcome, ffmr_obs::TaskOutcome::Ok);
        assert!(e.sim_end >= e.sim_start, "timeline runs forward: {e:?}");
        assert!(e.wall_end_us >= e.wall_start_us);
        assert_eq!(e.partition.is_some(), e.phase == "reduce");
    }

    // Barrier ordering on the simulated timeline: every map attempt ends
    // by the time the shuffle starts, and every reduce attempt starts
    // once the shuffle ends.
    let shuffle = events.iter().find(|e| e.phase == "shuffle").unwrap();
    for e in events.iter().filter(|e| e.phase == "map") {
        assert!(e.sim_end <= shuffle.sim_start + 1e-9);
    }
    for e in events.iter().filter(|e| e.phase == "reduce") {
        assert!(e.sim_start >= shuffle.sim_end - 1e-9);
    }

    // Reduce inputs account for all fetched bytes.
    let fetched: u64 = events
        .iter()
        .filter(|e| e.phase == "reduce")
        .map(|e| e.bytes_in)
        .sum();
    assert!(fetched >= stats.shuffle_bytes);
}
