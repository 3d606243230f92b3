//! FF4's record handling, held to the plain versions it replaced.
//!
//! * The runtime frames every record in one pass (a one-byte length
//!   placeholder, the datum, then the real length, shifting the datum up
//!   when the prefix needs more bytes); for every FF record type, frames
//!   short and long must equal the two-pass layout and split back into
//!   the same key and value.
//! * Candidate generation judges `se|te` pairs on their two halves and
//!   prunes exhausted ones; it must offer exactly what the naive
//!   `concat` + `try_accept` loop does.
//!
//! Cases come from a seeded [`SplitMix64`] stream, as in
//! `ffmr_property.rs`, so a failure reproduces by case number.

use ffmr_core::round0::RawEdge;
use ffmr_core::{Accumulator, ExcessPath, PathEdge, VertexEdge, VertexValue};
use ffmr_prng::SplitMix64;
use mapreduce::encode::put_bytes;
use mapreduce::record::split_record;
use mapreduce::{Datum, SpillRun};
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

/// Frames `value` under `key` in one pass, checks the frame against the
/// two-pass layout (encode, then length-prefix) and splits it back into
/// the same key and value; returns the value's encoded length.
fn assert_frames<T: Datum + PartialEq + std::fmt::Debug>(key: u64, value: &T, case: u64) -> usize {
    let mut run = SpillRun::default();
    run.push(&key, value);
    let (mut kbuf, mut vbuf) = (Vec::new(), Vec::new());
    key.encode(&mut kbuf);
    value.encode(&mut vbuf);
    let mut two_pass = Vec::new();
    put_bytes(&kbuf, &mut two_pass);
    put_bytes(&vbuf, &mut two_pass);
    assert_eq!(run.data, two_pass, "case {case}: {value:?}");

    let mut rest = run.data.as_slice();
    let (kraw, vraw) = split_record(&mut rest).unwrap();
    assert!(rest.is_empty(), "case {case}: one record, one frame");
    assert_eq!(u64::decode(&mut &kraw[..]).unwrap(), key, "case {case}");
    let mut vrest = vraw;
    assert_eq!(T::decode(&mut vrest).unwrap(), *value, "case {case}");
    assert!(vrest.is_empty(), "case {case}: value slot holds the value");
    vbuf.len()
}

#[test]
fn one_pass_frames_split_back_for_every_ff_record_type() {
    let (mut short, mut long) = (0usize, 0usize);
    for case in 0..400u64 {
        let mut rng = SplitMix64::seed_from_u64(0xC0DE_0000 + case);
        let key = any_u64(&mut rng);
        let mut lens = vec![
            assert_frames(key, &any_hop(&mut rng), case),
            assert_frames(key, &any_path(&mut rng, 12), case),
            assert_frames(key, &ExcessPath::empty(), case),
            assert_frames(key, &any_edge(&mut rng, false), case),
            assert_frames(key, &any_edge(&mut rng, true), case),
        ];
        let raw = RawEdge {
            to: any_u64(&mut rng),
            eid: EdgeId::new(any_u64(&mut rng)),
            cap: any_i64(&mut rng),
            rev_cap: any_i64(&mut rng),
        };
        lens.push(assert_frames(key, &raw, case));
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
        lens.push(assert_frames(key, &master, case));
        let source = VertexValue::source_fragment(any_path(&mut rng, 10));
        lens.push(assert_frames(key, &source, case));
        let sink = VertexValue::sink_fragment(any_path(&mut rng, 10));
        lens.push(assert_frames(key, &sink, case));
        lens.push(assert_frames(key, &VertexValue::fragment(), case));
        for len in lens {
            if len < 128 {
                short += 1;
            } else {
                long += 1;
            }
        }
    }
    // Both prefix widths occur, each many times.
    assert!(short > 1_000 && long > 500, "{short} short, {long} long");
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
