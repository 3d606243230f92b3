//! FF4's record handling, held to the plain versions it replaced.
//!
//! * Every FF record type computes `encoded_len` by hand, so the runtime
//!   encodes each record once; the hand-written length must equal what
//!   `encode` writes.
//! * Candidate generation judges `se|te` pairs on their two halves and
//!   prunes exhausted ones; it must offer exactly what the naive
//!   `concat` + `try_accept` loop does.
//!
//! Cases come from a seeded [`SplitMix64`] stream, as in
//! `ffmr_property.rs`, so a failure reproduces by case number.

use ffmr_core::round0::RawEdge;
use ffmr_core::{Accumulator, ExcessPath, PathEdge, VertexEdge, VertexValue};
use ffmr_prng::SplitMix64;
use mapreduce::Datum;
use swgraph::EdgeId;

/// An integer of random bit width, so every varint length occurs.
fn any_u64(rng: &mut SplitMix64) -> u64 {
    let bits = rng.gen_range(0u32..65);
    if bits == 0 {
        0
    } else {
        rng.next_u64() >> (64 - bits)
    }
}

fn any_i64(rng: &mut SplitMix64) -> i64 {
    any_u64(rng) as i64
}

fn any_hop(rng: &mut SplitMix64) -> PathEdge {
    PathEdge {
        eid: EdgeId::new(any_u64(rng)),
        from: any_u64(rng),
        to: any_u64(rng),
        cap: any_i64(rng),
        flow: any_i64(rng),
    }
}

/// Hops need not connect for the codec; `from_edges` only debug-checks
/// connectivity, so chain them.
fn any_path(rng: &mut SplitMix64, max_hops: usize) -> ExcessPath {
    let mut hops: Vec<PathEdge> = (0..rng.gen_range(0..max_hops + 1))
        .map(|_| any_hop(rng))
        .collect();
    for i in 1..hops.len() {
        hops[i].from = hops[i - 1].to;
    }
    ExcessPath::from_edges(hops)
}

fn any_edge(rng: &mut SplitMix64, markers: bool) -> VertexEdge {
    VertexEdge {
        to: any_u64(rng),
        eid: EdgeId::new(any_u64(rng)),
        flow: any_i64(rng),
        cap: any_i64(rng),
        rev_cap: any_i64(rng),
        sent_source: (markers && rng.gen_bool(0.5)).then(|| any_u64(rng)),
        sent_sink: (markers && rng.gen_bool(0.5)).then(|| any_u64(rng)),
    }
}

fn assert_len_matches<T: Datum + std::fmt::Debug>(value: &T, case: u64) {
    let mut buf = Vec::new();
    value.encode(&mut buf);
    assert_eq!(value.encoded_len(), buf.len(), "case {case}: {value:?}");
}

#[test]
fn encoded_len_equals_encode_for_every_ff_record_type() {
    for case in 0..400u64 {
        let mut rng = SplitMix64::seed_from_u64(0xC0DE_0000 + case);
        assert_len_matches(&any_hop(&mut rng), case);
        assert_len_matches(&any_path(&mut rng, 12), case);
        assert_len_matches(&ExcessPath::empty(), case);
        assert_len_matches(&any_edge(&mut rng, false), case);
        assert_len_matches(&any_edge(&mut rng, true), case);
        assert_len_matches(
            &RawEdge {
                to: any_u64(&mut rng),
                eid: EdgeId::new(any_u64(&mut rng)),
                cap: any_i64(&mut rng),
                rev_cap: any_i64(&mut rng),
            },
            case,
        );
        let paths = |rng: &mut SplitMix64| -> Vec<ExcessPath> {
            (0..rng.gen_range(0..5)).map(|_| any_path(rng, 8)).collect()
        };
        // A master (edges, stored paths, markers), a source and a sink
        // fragment, and the empty record.
        let markers = rng.gen_bool(0.5);
        let master = VertexValue {
            source_paths: paths(&mut rng),
            sink_paths: paths(&mut rng),
            edges: (0..rng.gen_range(1..20))
                .map(|_| any_edge(&mut rng, markers))
                .collect(),
        };
        assert_len_matches(&master, case);
        assert_len_matches(&VertexValue::source_fragment(any_path(&mut rng, 10)), case);
        assert_len_matches(&VertexValue::sink_fragment(any_path(&mut rng, 10)), case);
        assert_len_matches(&VertexValue::fragment(), case);
    }
}

/// A connected path over `vertices` (consecutive pairs become hops) whose
/// edge ids come from a small pool, so different paths share hops.
fn pooled_path(rng: &mut SplitMix64, vertices: &[u64]) -> ExcessPath {
    ExcessPath::from_edges(
        vertices
            .windows(2)
            .map(|w| {
                let cap = rng.gen_range(1i64..4);
                PathEdge {
                    eid: EdgeId::new(rng.gen_range(0u64..24)),
                    from: w[0],
                    to: w[1],
                    cap,
                    flow: rng.gen_range(-1i64..cap + 1),
                }
            })
            .collect(),
    )
}

/// Source paths end at `u`, sink paths start there; either may be the
/// empty path (as at the terminals).
fn paths_through(rng: &mut SplitMix64, u: u64, toward_u: bool) -> Vec<ExcessPath> {
    (0..rng.gen_range(0usize..7))
        .map(|_| {
            let mut vertices: Vec<u64> = (0..rng.gen_range(0usize..5))
                .map(|_| rng.gen_range(0u64..12))
                .collect();
            if vertices.is_empty() {
                return ExcessPath::empty();
            }
            if toward_u {
                vertices.push(u);
            } else {
                vertices.insert(0, u);
            }
            pooled_path(rng, &vertices)
        })
        .collect()
}

/// The parent's candidate loop, kept as the oracle.
fn naive_pairs(
    acc: &mut Accumulator,
    sources: &[ExcessPath],
    sinks: &[ExcessPath],
) -> Vec<ExcessPath> {
    let mut offered = Vec::new();
    for se in sources {
        for te in sinks {
            let cand = ExcessPath::concat(se, te);
            if !cand.is_empty() && acc.try_accept(&cand).is_some() {
                offered.push(cand);
            }
        }
    }
    offered
}

#[test]
fn pruned_candidate_loop_offers_what_the_naive_loop_offers() {
    let (mut pairs, mut accepted) = (0usize, 0usize);
    for case in 0..2_000u64 {
        let mut rng = SplitMix64::seed_from_u64(0xCA4D_0000 + case);
        let u = 100;
        let sources = paths_through(&mut rng, u, true);
        let sinks = paths_through(&mut rng, u, false);
        // Start from grants left by earlier acceptances, as an accumulator
        // that has seen other paths would have.
        let mut naive = Accumulator::new();
        for _ in 0..rng.gen_range(0..4) {
            let vertices: Vec<u64> = (0..3).map(|_| rng.gen_range(0u64..12)).collect();
            let _ = naive.try_accept(&pooled_path(&mut rng, &vertices));
        }
        let mut pruned = naive.clone();

        let expected = naive_pairs(&mut naive, &sources, &sinks);
        let mut offered = Vec::new();
        pruned.accept_pairs(&sources, &sinks, |se, te| {
            offered.push(ExcessPath::concat(se, te));
        });
        assert_eq!(offered, expected, "case {case}: offered paths or order");
        assert_eq!(pruned, naive, "case {case}: grants");
        pairs += sources.len() * sinks.len();
        accepted += offered.len();
    }
    // The corpus exercises both outcomes, not only one.
    assert!(
        accepted > 1_000 && pairs > 2 * accepted,
        "{accepted} of {pairs}"
    );
}
