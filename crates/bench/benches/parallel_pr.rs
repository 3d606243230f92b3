//! Bench: the bulk-synchronous parallel push-relabel thread sweep vs.
//! sequential Dinic on an FB4'-scale small-world instance.
//!
//! Sweeps the worker-thread count 1 → host cores (always including 1, 2
//! and 4 so the determinism claim gets exercised even on small hosts)
//! against the sequential Dinic reference, on the same FB family subset
//! the paper's scaling runs use, with super terminals attached.
//! `FFMR_BENCH_SCALE=smoke|small|paper` picks the preset (default
//! `small`); `BENCH_parallel_pr.json` at the workspace root records the
//! numbers.
//!
//! Interpretation notes baked into the artifact: the pulse count and
//! the per-edge flow assignment are thread-count invariant by design,
//! so any wall-time difference across the sweep is pure scheduling —
//! on a single-core host the extra threads are overhead and the sweep
//! documents that honestly rather than fabricating a speedup.

use std::hint::black_box;

use ffmr_bench::harness::{criterion_group, criterion_main, Criterion};
use ffmr_bench::{FbFamily, Scale};
use maxflow::{parallel_push_relabel, Cancel};

fn bench(c: &mut Criterion) {
    let scale = std::env::var("FFMR_BENCH_SCALE")
        .ok()
        .and_then(|s| Scale::by_name(&s))
        .unwrap_or_else(Scale::small);
    let family = FbFamily::generate(scale);
    // FB4' — the mid-size subset the paper's Fig. 8 sweep centres on.
    let st = family.subset_with_terminals(3, scale.w);
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "  parallel_pr: FB4' n={} m={} w={} host_cores={}",
        st.network.num_vertices(),
        st.network.num_edge_pairs(),
        scale.w,
        cores
    );

    let mut group = c.benchmark_group("parallel_pr");
    group.sample_size(10);

    let reference = maxflow::Algorithm::Dinic.run(&st.network, st.source, st.sink);
    group.bench_function("dinic", |b| {
        b.iter(|| {
            black_box(maxflow::Algorithm::Dinic.run(black_box(&st.network), st.source, st.sink))
        })
    });
    group.bench_function("sequential-pr", |b| {
        b.iter(|| {
            black_box(maxflow::Algorithm::PushRelabel.run(
                black_box(&st.network),
                st.source,
                st.sink,
            ))
        })
    });

    let mut threads: Vec<usize> = vec![1, 2, 4];
    let mut c2 = cores;
    while c2 > 4 {
        threads.push(c2);
        c2 /= 2;
    }
    threads.sort_unstable();
    threads.dedup();
    let mut baseline = None;
    for &t in &threads {
        let solve = || {
            parallel_push_relabel::solve(
                black_box(&st.network),
                st.source,
                st.sink,
                t,
                &Cancel::never(),
            )
            .expect("never-cancel solve cannot fail")
        };
        let (flow, report) = solve();
        assert_eq!(flow.value, reference.value, "parallel-pr disagrees");
        match &baseline {
            None => {
                println!(
                    "  parallel_pr: flow={} passes={} global_relabels={} pushes={} relabels={}",
                    flow.value,
                    report.phases,
                    report.global_relabels,
                    report.pushes,
                    report.relabels
                );
                baseline = Some((flow, report));
            }
            Some((single, single_report)) => {
                assert_eq!(&flow, single, "flow assignment diverged at {t} threads");
                assert_eq!(
                    report.phases, single_report.phases,
                    "pulse schedule diverged"
                );
            }
        }
        group.bench_function(format!("parallel-pr-{t}-threads"), |b| {
            b.iter(|| black_box(solve()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
