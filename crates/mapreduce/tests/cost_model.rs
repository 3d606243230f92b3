//! Properties of the cluster cost model: simulated time must respond to
//! the knobs the way a real cluster would — more data costs more, more
//! nodes cost less, scaled clusters preserve proportions.

use mapreduce::{ClusterConfig, JobBuilder, MapContext, MrRuntime, ReduceContext};

/// Runs an identity job over `records` records of `payload` bytes each.
fn run_identity(cluster: ClusterConfig, records: u64, payload: usize) -> mapreduce::JobStats {
    let mut rt = MrRuntime::new(cluster);
    rt.dfs_mut()
        .write_records("in", 8, (0..records).map(|i| (i, vec![0u8; payload])))
        .unwrap();
    let job = JobBuilder::new("identity")
        .input("in")
        .output("out")
        .reducers(8)
        .map(|k: u64, v: Vec<u8>, ctx: &mut MapContext<u64, Vec<u8>>| {
            ctx.emit(k, v);
        })
        .reduce(
            |k: &u64, vs: &mut dyn Iterator<Item = Vec<u8>>, ctx: &mut ReduceContext<u64, u64>| {
                ctx.emit(*k, vs.count() as u64);
            },
        );
    rt.run(job).unwrap()
}

#[test]
fn sim_time_grows_with_data_volume() {
    let small = run_identity(ClusterConfig::paper_cluster(5), 1_000, 64);
    let large = run_identity(ClusterConfig::paper_cluster(5), 10_000, 640);
    assert!(large.shuffle_bytes > 50 * small.shuffle_bytes);
    assert!(
        large.sim_seconds > small.sim_seconds,
        "100x the bytes must cost more simulated time ({} vs {})",
        large.sim_seconds,
        small.sim_seconds
    );
}

#[test]
fn sim_time_never_below_round_overhead() {
    let cluster = ClusterConfig::paper_cluster(20);
    let overhead = cluster.round_overhead_s;
    let stats = run_identity(cluster, 1, 1);
    assert!(stats.sim_seconds >= overhead);
    assert!(
        stats.sim_seconds < overhead + 1.0,
        "tiny job ≈ pure overhead"
    );
}

#[test]
fn scaled_cluster_inflates_data_time_only() {
    let plain = run_identity(ClusterConfig::paper_cluster(20), 5_000, 256);
    let scaled = run_identity(ClusterConfig::scaled_paper_cluster(20, 1_000.0), 5_000, 256);
    let overhead = ClusterConfig::paper_cluster(20).round_overhead_s;
    let plain_data = plain.sim_seconds - overhead;
    let scaled_data = scaled.sim_seconds - overhead;
    assert!(
        scaled_data > 500.0 * plain_data.max(1e-6),
        "slowdown 1000 should inflate data time ~1000x ({plain_data} -> {scaled_data})"
    );
}

#[test]
fn slowdown_below_one_is_clamped() {
    let a = ClusterConfig::scaled_paper_cluster(5, 0.0);
    let b = ClusterConfig::scaled_paper_cluster(5, 1.0);
    assert_eq!(a, b);
}

#[test]
fn more_replication_costs_more() {
    let mut two = ClusterConfig::paper_cluster(5);
    two.dfs_replication = 2;
    let mut five = ClusterConfig::paper_cluster(5);
    five.dfs_replication = 5;
    let t2 = run_identity(two, 20_000, 128).sim_seconds;
    let t5 = run_identity(five, 20_000, 128).sim_seconds;
    assert!(t5 > t2, "extra replicas cost network time ({t2} vs {t5})");
}

#[test]
fn stats_byte_accounting_is_consistent() {
    let stats = run_identity(ClusterConfig::paper_cluster(5), 2_000, 100);
    assert_eq!(stats.map_input_records, 2_000);
    assert_eq!(stats.map_output_records, 2_000);
    assert_eq!(stats.reduce_output_records, 2_000);
    assert_eq!(stats.map_output_bytes, stats.shuffle_bytes);
    assert!(stats.input_bytes > 2_000 * 100, "payloads counted");
    assert!(stats.output_bytes > 0);
    assert_eq!(stats.map_tasks, 8);
    assert_eq!(stats.reduce_tasks, 8);
}

#[test]
fn skewed_partition_creates_straggler_time() {
    // All records to one key => one reduce task does all the work; the
    // makespan model must charge the straggler, so the skewed job cannot
    // be faster than a balanced one with the same volume.
    let cluster = ClusterConfig::paper_cluster(5);
    let balanced = run_identity(cluster.clone(), 20_000, 64).sim_seconds;

    let mut rt = MrRuntime::new(cluster);
    rt.dfs_mut()
        .write_records("in", 8, (0..20_000u64).map(|i| (i, vec![0u8; 64])))
        .unwrap();
    let job = JobBuilder::new("skewed")
        .input("in")
        .output("out")
        .reducers(8)
        .map(|_k: u64, v: Vec<u8>, ctx: &mut MapContext<u64, Vec<u8>>| {
            ctx.emit(7, v);
        })
        .reduce(
            |k: &u64, vs: &mut dyn Iterator<Item = Vec<u8>>, ctx: &mut ReduceContext<u64, u64>| {
                ctx.emit(*k, vs.count() as u64);
            },
        );
    let skewed = rt.run(job).unwrap().sim_seconds;
    assert!(
        skewed >= balanced * 0.99,
        "skew cannot beat balance ({skewed} vs {balanced})"
    );
}

#[test]
fn side_blobs_are_charged_per_map_task() {
    let cluster = ClusterConfig::scaled_paper_cluster(5, 10_000.0);
    let run_with_blob = |blob_bytes: usize| {
        let mut rt = MrRuntime::new(cluster.clone());
        rt.dfs_mut()
            .write_records("in", 8, (0..100u64).map(|i| (i, i)))
            .unwrap();
        rt.dfs_mut().write_blob("delta", vec![0u8; blob_bytes]);
        let job = JobBuilder::new("blob")
            .input("in")
            .output("out")
            .reducers(2)
            .side_blob("delta")
            .map(|k: u64, v: u64, ctx: &mut MapContext<u64, u64>| ctx.emit(k, v))
            .reduce(
                |k: &u64, vs: &mut dyn Iterator<Item = u64>, ctx: &mut ReduceContext<u64, u64>| {
                    ctx.emit(*k, vs.sum::<u64>());
                },
            );
        rt.run(job).unwrap().sim_seconds
    };
    let small = run_with_blob(10);
    let large = run_with_blob(10_000_000);
    assert!(
        large > small,
        "a 10 MB side file read by every mapper must cost time ({small} vs {large})"
    );
}
