//! Property tests for the map-side-sort / reduce-side-merge pipeline.
//!
//! The determinism contract under test: k-way merging the map tasks'
//! key-sorted spill runs (schimmy side input first, then map-task index
//! order) produces *byte-identical* partition data to the reference
//! semantics — one global stable sort of the concatenated task outputs.
//!
//! Cases are drawn from a seeded [`SplitMix64`] stream (one seed per case
//! index), so every run covers the same deterministic corpus — a failure
//! reproduces by its case number alone.

use ffmr_prng::SplitMix64;
use mapreduce::encode::put_bytes;
use mapreduce::{
    partition_of, ClusterConfig, Datum, JobBuilder, JobTaskRunner, MapContext, MrRuntime,
    ReduceContext, ServiceHandle, SpillRun,
};

/// Random printable-ish value: varied lengths, including empty.
fn random_value(rng: &mut SplitMix64) -> String {
    let len = rng.gen_range(0u64..12) as usize;
    (0..len)
        .map(|_| char::from(b'a' + (rng.gen_range(0u64..26) as u8)))
        .collect()
}

/// One random corpus: records plus the job/geometry knobs for a case.
struct Case {
    records: Vec<(u64, String)>,
    input_partitions: usize,
    reducers: usize,
}

fn draw_case(case: u64) -> Case {
    let mut rng = SplitMix64::seed_from_u64(0x51f7_e000_0000_0000u64.wrapping_add(case));
    let n = rng.gen_range(0u64..120) as usize;
    let key_range = rng.gen_range(1u64..16);
    let records = (0..n)
        .map(|_| (rng.gen_range(0..key_range), random_value(&mut rng)))
        .collect();
    Case {
        records,
        input_partitions: rng.gen_range(1u64..4) as usize,
        reducers: rng.gen_range(1u64..6) as usize,
    }
}

/// Reference semantics of the shuffle: concatenate the map tasks' outputs
/// in task order (`write_records` spreads records round-robin, one map
/// task per input partition), prepend the schimmy records, stable-sort by
/// key, and slice out one reduce partition. With identity map and reduce
/// functions, the output partition's bytes must encode exactly this
/// sequence.
fn reference_partition(
    records: &[(u64, String)],
    schimmy: &[(u64, String)],
    input_partitions: usize,
    reducers: usize,
    partition: usize,
) -> Vec<(u64, String)> {
    let mut concat: Vec<(u64, String)> = schimmy.to_vec();
    for t in 0..input_partitions {
        concat.extend(
            records
                .iter()
                .enumerate()
                .filter(|(i, _)| i % input_partitions == t)
                .map(|(_, r)| r.clone()),
        );
    }
    let mut slice: Vec<(u64, String)> = concat
        .into_iter()
        .filter(|(k, _)| partition_of(k, reducers) == partition)
        .collect();
    slice.sort_by_key(|r| r.0); // stable, like the old reduce sort
    slice
}

/// Runs an identity job over the case's records and returns the raw bytes
/// of every output partition.
fn run_identity(case: &Case, worker_threads: Option<usize>) -> Vec<Vec<u8>> {
    let mut rt = MrRuntime::new(ClusterConfig::small_cluster(3));
    rt.set_worker_threads(worker_threads);
    rt.dfs_mut()
        .write_records("in", case.input_partitions, case.records.iter().cloned())
        .unwrap();
    let job = JobBuilder::new("identity")
        .input("in")
        .output("out")
        .reducers(case.reducers)
        .map(|k: u64, v: String, ctx: &mut MapContext<u64, String>| ctx.emit(k, v))
        .reduce(
            |k: &u64,
             vs: &mut dyn Iterator<Item = String>,
             ctx: &mut ReduceContext<u64, String>| {
                for v in vs {
                    ctx.emit(*k, v);
                }
            },
        );
    rt.run(job).unwrap();
    let file = rt.dfs().file("out").unwrap();
    file.partitions.iter().map(|p| p.data.clone()).collect()
}

/// Encodes records exactly as the runtime writes output partitions, by
/// round-tripping them through a single-partition DFS file.
fn encode_reference(records: Vec<(u64, String)>) -> Vec<u8> {
    let mut dfs = mapreduce::Dfs::new();
    dfs.write_records("ref", 1, records).unwrap();
    dfs.file("ref").unwrap().partitions[0].data.clone()
}

#[test]
fn merge_matches_naive_sort_reference() {
    for case_no in 0..24u64 {
        let case = draw_case(case_no);
        let parts = run_identity(&case, Some(1));
        assert_eq!(parts.len(), case.reducers, "case {case_no}");
        for (p, data) in parts.iter().enumerate() {
            let expected = encode_reference(reference_partition(
                &case.records,
                &[],
                case.input_partitions,
                case.reducers,
                p,
            ));
            assert_eq!(*data, expected, "case {case_no} partition {p}");
        }
    }
}

#[test]
fn output_is_thread_count_invariant() {
    for case_no in 0..12u64 {
        let case = draw_case(1000 + case_no);
        let sequential = run_identity(&case, Some(1));
        assert_eq!(
            sequential,
            run_identity(&case, Some(3)),
            "case {case_no}: Some(3) diverged"
        );
        assert_eq!(
            sequential,
            run_identity(&case, None),
            "case {case_no}: None diverged"
        );
    }
}

#[test]
fn schimmy_merge_matches_reference_with_side_input_first() {
    for case_no in 0..12u64 {
        let mut rng = SplitMix64::seed_from_u64(0xdeed_0000 + case_no);
        let case = draw_case(2000 + case_no);
        // Distinct master values so schimmy records are recognizable.
        let masters: Vec<(u64, String)> = (0..rng.gen_range(1u64..20))
            .map(|i| (rng.gen_range(0..16), format!("M{i}")))
            .collect();

        let mut rt = MrRuntime::new(ClusterConfig::small_cluster(3));
        rt.set_worker_threads(Some(1));
        // Produce a hash-partitioned schimmy file via an identity seed job.
        rt.dfs_mut()
            .write_records("masters_raw", 2, masters.iter().cloned())
            .unwrap();
        let seed = JobBuilder::new("seed")
            .input("masters_raw")
            .output("masters")
            .reducers(case.reducers)
            .map(|k: u64, v: String, ctx: &mut MapContext<u64, String>| ctx.emit(k, v))
            .reduce(
                |k: &u64,
                 vs: &mut dyn Iterator<Item = String>,
                 ctx: &mut ReduceContext<u64, String>| {
                    for v in vs {
                        ctx.emit(*k, v);
                    }
                },
            );
        rt.run(seed).unwrap();

        rt.dfs_mut()
            .write_records("in", case.input_partitions, case.records.iter().cloned())
            .unwrap();
        let job = JobBuilder::new("apply")
            .input("in")
            .output("out")
            .reducers(case.reducers)
            .schimmy_input("masters")
            .map(|k: u64, v: String, ctx: &mut MapContext<u64, String>| ctx.emit(k, v))
            .reduce(
                |k: &u64,
                 vs: &mut dyn Iterator<Item = String>,
                 ctx: &mut ReduceContext<u64, String>| {
                    for v in vs {
                        ctx.emit(*k, v);
                    }
                },
            );
        rt.run(job).unwrap();

        // The schimmy side of the reference is each partition's stored
        // records (the seed job wrote them key-sorted), which the merge
        // must deliver before any shuffled record of the same key.
        let schimmy_file = rt.dfs().file("masters").unwrap();
        let out = rt.dfs().file("out").unwrap();
        for p in 0..case.reducers {
            let schimmy_records: Vec<(u64, String)> =
                schimmy_file.partitions[p].decode_all().unwrap();
            let expected = encode_reference(reference_partition(
                &case.records,
                &schimmy_records,
                case.input_partitions,
                case.reducers,
                p,
            ));
            assert_eq!(
                out.partitions[p].data, expected,
                "case {case_no} partition {p}"
            );
        }
    }
}

/// The spill and merge instrumentation reaches the process registry.
/// The registry is process-global and tests run in parallel, so this
/// checks deltas, bounded below by this job's own statistics.
#[test]
fn spill_and_merge_metrics_reach_the_registry() {
    let m = ffmr_obs::global();
    let spill_bytes = m.counter("ffmr_mr_spill_bytes_total", &[]);
    let spill_runs = m.counter("ffmr_mr_spill_runs_total", &[]);
    let merge_fanin = m.histogram("ffmr_mr_merge_fanin", &[]);
    let before = (spill_bytes.get(), spill_runs.get(), merge_fanin.count());

    let case = Case {
        records: (0..200u64).map(|i| (i % 37, format!("v{i}"))).collect(),
        input_partitions: 3,
        reducers: 4,
    };
    let mut rt = MrRuntime::new(ClusterConfig::small_cluster(3));
    rt.dfs_mut()
        .write_records("in", case.input_partitions, case.records.iter().cloned())
        .unwrap();
    let job = JobBuilder::new("metrics")
        .input("in")
        .output("out")
        .reducers(case.reducers)
        .map(|k: u64, v: String, ctx: &mut MapContext<u64, String>| ctx.emit(k, v))
        .reduce(
            |k: &u64,
             vs: &mut dyn Iterator<Item = String>,
             ctx: &mut ReduceContext<u64, String>| {
                ctx.emit(*k, vs.count().to_string());
            },
        );
    let stats = rt.run(job).unwrap();
    assert!(stats.map_tasks >= 2 && stats.reduce_tasks >= 2, "{stats:?}");

    let bytes = spill_bytes.get() - before.0;
    let runs = spill_runs.get() - before.1;
    let merges = merge_fanin.count() - before.2;
    assert!(
        bytes > 0 && bytes >= stats.spilled_bytes,
        "spill bytes +{bytes}"
    );
    assert!(runs > 0 && runs >= stats.spill_runs, "spill runs +{runs}");
    assert!(
        merges >= case.reducers as u64,
        "merge fan-in records +{merges}"
    );
}

/// What the emit-framing test's mapper emits for one input record:
/// several records under a few shared keys, with values from empty to
/// past the 128 bytes at which a frame's length prefix grows.
fn emissions(k: u64, v: &str, key_range: u64) -> Vec<(u64, String)> {
    let n = 1 + (k % 3) as usize;
    (0..n)
        .map(|i| {
            let key = (k + i as u64 * 7) % key_range;
            (key, v.repeat(i * 9 + 1))
        })
        .collect()
}

/// The map side before frames were written at `emit`, kept as the
/// oracle: typed records stable-sorted by key, then each framed in two
/// passes (encode each datum, then length-prefix it) into its
/// partition's run.
fn old_path_spills(mut records: Vec<(u64, String)>, reducers: usize) -> Vec<SpillRun> {
    records.sort_by_key(|r| r.0); // stable
    let mut spills = vec![SpillRun::default(); reducers];
    for (k, v) in &records {
        let run = &mut spills[partition_of(k, reducers)];
        let (mut kbuf, mut vbuf) = (Vec::new(), Vec::new());
        k.encode(&mut kbuf);
        v.encode(&mut vbuf);
        put_bytes(&kbuf, &mut run.data);
        put_bytes(&vbuf, &mut run.data);
        run.records += 1;
    }
    spills
}

#[test]
fn spills_framed_at_emit_equal_the_sorted_typed_record_path() {
    let (mut long_frames, mut shared_keys, mut busy_partitions) = (0usize, 0usize, 0usize);
    for case_no in 0..40u64 {
        let mut rng = SplitMix64::seed_from_u64(0xe417_0000 + case_no);
        let key_range = rng.gen_range(1u64..12);
        let reducers = rng.gen_range(2u64..6) as usize;
        let inputs: Vec<(u64, String)> = (0..rng.gen_range(0u64..60))
            .map(|i| {
                let len = rng.gen_range(0u64..40) as usize;
                (i, "ab".repeat(len))
            })
            .collect();
        let mut input = SpillRun::default();
        for (k, v) in &inputs {
            input.push(k, v);
        }

        // Even-numbered emissions pass the value by reference, the rest
        // hand it over.
        let runner = JobTaskRunner::new(
            move |k: u64, v: String, ctx: &mut MapContext<'_, u64, String>| {
                for (i, (key, value)) in emissions(k, &v, key_range).into_iter().enumerate() {
                    if i % 2 == 0 {
                        ctx.emit(key, &value);
                    } else {
                        ctx.emit(key, value);
                    }
                }
            },
            |k: &u64,
             vs: &mut dyn Iterator<Item = String>,
             ctx: &mut ReduceContext<'_, u64, String>| {
                for v in vs {
                    ctx.emit(*k, v);
                }
            },
            ServiceHandle::new(),
        );
        let got = runner.run_map_bytes(0, &input.data, reducers).unwrap();

        let emitted: Vec<(u64, String)> = inputs
            .iter()
            .flat_map(|(k, v)| emissions(*k, v, key_range))
            .collect();
        assert_eq!(got.output_records, emitted.len() as u64, "case {case_no}");
        long_frames += emitted.iter().filter(|(_, v)| v.len() >= 128).count();
        shared_keys += emitted.len().saturating_sub(key_range as usize);
        busy_partitions += got.spills.iter().filter(|s| s.records > 0).count();
        assert_eq!(
            got.spills,
            old_path_spills(emitted, reducers),
            "case {case_no}"
        );
    }
    // The corpus holds what the test is about.
    assert!(
        long_frames > 100,
        "{long_frames} frames of 128 bytes or more"
    );
    assert!(shared_keys > 100, "{shared_keys} records share a key");
    assert!(busy_partitions > 80, "{busy_partitions} non-empty spills");
}
