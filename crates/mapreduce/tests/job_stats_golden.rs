//! Golden `JobStats` for one fixed job that exercises every stage of
//! `MrRuntime::run`: a schimmy side input, a side blob, and injected
//! faults on attempt 0 of map task 1 and of reduce task 2. Every stats
//! field (simulated seconds by bit pattern) and every flight-recorder
//! event (wall-clock fields left out) is pinned, at 1 and 3 threads.

use mapreduce::{
    ClusterConfig, FailurePolicy, JobBuilder, JobStats, MapContext, MrRuntime, ReduceContext,
};

const REDUCERS: usize = 3;

fn run_fixed_job(threads: usize) -> JobStats {
    let mut rt = MrRuntime::new(ClusterConfig::small_cluster(3));
    rt.set_worker_threads(Some(threads));

    // The schimmy master file: a previous job's hash-partitioned,
    // key-ordered output.
    rt.dfs_mut()
        .write_records("raw", 2, (0u64..11).map(|k| (k, 1_000 + k)))
        .unwrap();
    let seed = JobBuilder::new("seed")
        .input("raw")
        .output("master")
        .reducers(REDUCERS)
        .map(|k: u64, v: u64, ctx: &mut MapContext<u64, u64>| ctx.emit(k, v))
        .reduce(
            |k: &u64, vs: &mut dyn Iterator<Item = u64>, ctx: &mut ReduceContext<u64, u64>| {
                for v in vs {
                    ctx.emit(*k, v);
                }
            },
        );
    rt.run(seed).unwrap();

    rt.dfs_mut()
        .write_records("in", 3, (0u64..40).map(|i| (i, i * 3 + 1)))
        .unwrap();
    rt.dfs_mut().write_blob("side", vec![7; 300]);
    rt.set_failure_policy(FailurePolicy::with_injector(2, |phase, task, attempt| {
        attempt == 0 && matches!((phase, task), ("map", 1) | ("reduce", 2))
    }));
    let job = JobBuilder::new("golden")
        .input("in")
        .output("out")
        .reducers(REDUCERS)
        .schimmy_input("master")
        .side_blob("side")
        .map(|k: u64, v: u64, ctx: &mut MapContext<u64, u64>| {
            ctx.incr("mapped", 1);
            ctx.emit(k % 11, v);
            if k.is_multiple_of(4) {
                ctx.emit(k % 5, 1);
            }
        })
        .reduce(
            |k: &u64, vs: &mut dyn Iterator<Item = u64>, ctx: &mut ReduceContext<u64, u64>| {
                ctx.incr("groups", 1);
                let master = vs.next().unwrap_or(0);
                ctx.emit(*k, master + vs.sum::<u64>());
            },
        );
    rt.run(job).unwrap()
}

/// Every field of `stats` except `wall_seconds`, and every event except
/// its wall-clock window, one line each.
fn render(stats: &JobStats) -> Vec<String> {
    let mut lines = vec![format!(
        "{} in={} out={} out_bytes={} spilled={} runs={} fanin={} shuffle={} \
         reduce_out={} output={} input={} schimmy={} maps={} reduces={} failed={} \
         sim={:#018x} counters={:?} notes={}",
        stats.name,
        stats.map_input_records,
        stats.map_output_records,
        stats.map_output_bytes,
        stats.spilled_bytes,
        stats.spill_runs,
        stats.merge_fanin_max,
        stats.shuffle_bytes,
        stats.reduce_output_records,
        stats.output_bytes,
        stats.input_bytes,
        stats.schimmy_bytes,
        stats.map_tasks,
        stats.reduce_tasks,
        stats.failed_attempts,
        stats.sim_seconds.to_bits(),
        stats.counters,
        stats.dispatch_notes.len(),
    )];
    for e in &stats.task_events {
        lines.push(format!(
            "{} {} t{} a{} n{} p{:?} w{:?} {:#018x}..{:#018x} in={} out={} {:?}",
            e.job,
            e.phase,
            e.task,
            e.attempt,
            e.node,
            e.partition,
            e.worker,
            e.sim_start.to_bits(),
            e.sim_end.to_bits(),
            e.bytes_in,
            e.bytes_out,
            e.outcome,
        ));
    }
    lines
}

const GOLDEN: &[&str] = &[
    "golden in=40 out=50 out_bytes=200 spilled=200 runs=9 fanin=4 shuffle=200 \
     reduce_out=11 output=55 input=160 schimmy=55 maps=3 reduces=3 failed=2 \
     sim=0x3ff0007328d35de0 counters=[(\"groups\", 11), (\"mapped\", 40)] notes=0",
    "golden map t0 a0 n0 pNone wNone 0x3ff0000000000000..0x3ff000255f457555 in=56 out=72 Ok",
    "golden map t1 a0 n1 pNone wNone 0x3ff0000000000000..0x3ff000220256f255 in=52 out=64 Failed",
    "golden map t1 a1 n1 pNone wNone 0x3ff000220256f255..0x3ff0004404ade4aa in=52 out=64 Ok",
    "golden map t2 a0 n2 pNone wNone 0x3ff0000000000000..0x3ff000220256f255 in=52 out=64 Ok",
    "golden shuffle t0 a0 n0 pNone wNone 0x3ff0004404ade4aa..0x3ff00044ce10e140 in=200 out=136 Ok",
    "golden reduce t0 a0 n0 pSome(0) wNone 0x3ff00044ce10e140..0x3ff00056d4bdd95b in=67 out=15 Ok",
    "golden reduce t1 a0 n1 pSome(1) wNone 0x3ff00044ce10e140..0x3ff00072f9e46ef1 in=171 out=35 Ok",
    "golden reduce t2 a0 n2 pSome(2) wNone 0x3ff00044ce10e140..0x3ff0004951a7a466 in=17 out=5 Failed",
    "golden reduce t2 a1 n2 pSome(2) wNone 0x3ff0004951a7a466..0x3ff0004dd53e678c in=17 out=5 Ok",
];

#[test]
fn fixed_job_stats_match_the_golden_at_one_and_three_threads() {
    ffmr_obs::events::recorder().set_enabled(true);
    for threads in [1, 3] {
        let stats = run_fixed_job(threads);
        let lines = render(&stats);
        assert_eq!(lines, GOLDEN, "{threads} threads:\n{}", lines.join("\n"));
    }
}
