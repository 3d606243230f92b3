//! Fault tolerance: task retries, counter isolation across failed
//! attempts and retry budgets — the properties the paper's Sec. I leans
//! on MapReduce to provide.

use mapreduce::{
    ClusterConfig, FailurePolicy, JobBuilder, MapContext, MrError, MrRuntime, ReduceContext,
};

fn word_job(rt: &mut MrRuntime, out: &str) -> mapreduce::JobStats {
    let job = JobBuilder::new("count")
        .input("in")
        .output(out)
        .reducers(4)
        .map(|k: u64, v: u64, ctx: &mut MapContext<u64, u64>| {
            ctx.incr("mapped", 1);
            ctx.emit(k % 5, v);
        })
        .reduce(
            |k: &u64, vs: &mut dyn Iterator<Item = u64>, ctx: &mut ReduceContext<u64, u64>| {
                ctx.incr("groups", 1);
                ctx.emit(*k, vs.sum::<u64>());
            },
        );
    rt.run(job).unwrap()
}

fn load_input(rt: &mut MrRuntime) {
    rt.dfs_mut()
        .write_records("in", 6, (0..60u64).map(|i| (i, 1u64)))
        .unwrap();
}

#[test]
fn transient_faults_are_retried_transparently() {
    let mut rt = MrRuntime::new(ClusterConfig::small_cluster(3));
    load_input(&mut rt);
    // Every task's first attempt dies.
    rt.set_failure_policy(FailurePolicy::with_injector(3, |_, _, attempt| {
        attempt == 0
    }));
    let stats = word_job(&mut rt, "out");
    let mut result: Vec<(u64, u64)> = rt.dfs().read_records("out").unwrap();
    result.sort();
    assert_eq!(result, (0..5u64).map(|k| (k, 12)).collect::<Vec<_>>());
    // 6 map tasks + 4 reduce tasks each lost one attempt.
    assert_eq!(stats.failed_attempts, 10);
}

#[test]
fn counters_exclude_failed_attempts() {
    let clean = {
        let mut rt = MrRuntime::new(ClusterConfig::small_cluster(3));
        load_input(&mut rt);
        word_job(&mut rt, "out")
    };
    let faulty = {
        let mut rt = MrRuntime::new(ClusterConfig::small_cluster(3));
        load_input(&mut rt);
        rt.set_failure_policy(FailurePolicy::with_injector(4, |_, task, attempt| {
            task % 2 == 0 && attempt < 2
        }));
        word_job(&mut rt, "out")
    };
    assert_eq!(
        clean.counter("mapped"),
        faulty.counter("mapped"),
        "retries must not double-count"
    );
    assert_eq!(clean.counter("groups"), faulty.counter("groups"));
    assert!(faulty.failed_attempts > 0);
}

#[test]
fn retries_cost_simulated_time() {
    let time = |policy: Option<FailurePolicy>| {
        let mut rt = MrRuntime::new(ClusterConfig::scaled_paper_cluster(3, 10_000.0));
        load_input(&mut rt);
        if let Some(p) = policy {
            rt.set_failure_policy(p);
        }
        word_job(&mut rt, "out").sim_seconds
    };
    let clean = time(None);
    let faulty = time(Some(FailurePolicy::with_injector(4, |_, _, a| a < 2)));
    assert!(
        faulty > clean,
        "double-failed attempts occupy slots ({clean} vs {faulty})"
    );
}

#[test]
fn budget_exhaustion_fails_the_job_without_output() {
    let mut rt = MrRuntime::new(ClusterConfig::small_cluster(3));
    load_input(&mut rt);
    rt.set_failure_policy(FailurePolicy::with_injector(2, |phase, task, _| {
        phase == "reduce" && task == 0
    }));
    let job = JobBuilder::new("doomed")
        .input("in")
        .output("out")
        .reducers(2)
        .map(|k: u64, v: u64, ctx: &mut MapContext<u64, u64>| ctx.emit(k, v))
        .reduce(
            |k: &u64, vs: &mut dyn Iterator<Item = u64>, ctx: &mut ReduceContext<u64, u64>| {
                ctx.emit(*k, vs.sum::<u64>());
            },
        );
    assert!(matches!(
        rt.run(job),
        Err(MrError::TaskFailed {
            phase: "reduce",
            task: 0,
            ..
        })
    ));
    assert!(!rt.dfs().exists("out"));
}
