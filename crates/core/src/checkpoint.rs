//! Round checkpointing for the FF driver.
//!
//! The paper leans entirely on Hadoop for fault tolerance, which protects
//! *tasks* — but a crash of the driving program (Fig. 2's main loop) would
//! lose every completed round. Iterative-MR systems close this gap by
//! persisting a small amount of driver state per iteration (HaLoop's
//! reducer-output caching, Pregel's per-superstep checkpoints); FFMR's
//! analogue is a versioned *checkpoint manifest* written to the DFS after
//! every accepted round. The manifest *is* the driver's loop state — the
//! round loop carries a [`CheckpointManifest`] and writes it as it stands:
//! the run's fingerprint, the cumulative flow value, the round's
//! `AugmentedEdges` (not yet folded into any vertex record) and the
//! per-round statistics. Everything else a resumed driver needs — the
//! vertex records of round N, at `round_path(base, N)` — is already
//! durable in the DFS.
//!
//! [`crate::resume_max_flow`] reads the newest manifest, validates it
//! against the caller's configuration, discards any half-written round
//! outputs newer than the manifest (a mid-phase crash leaves those), and
//! re-enters the round loop at round N+1.

use std::sync::Arc;
use std::time::Instant;

use mapreduce::encode::{get_bytes, get_varint, get_varint_signed, put_bytes, put_varint};
use mapreduce::error::DecodeError;
use mapreduce::Dfs;
use swgraph::Capacity;

use crate::algo::{FfConfig, RoundStats};
use crate::augmented::AugmentedEdges;
use crate::error::FfError;

/// Version tag of the manifest encoding; bumped on incompatible changes.
const MANIFEST_VERSION: u64 = 2;

/// DFS blob path of the checkpoint manifest for a chain rooted at `base`.
/// One fixed name per chain, overwritten each round: the DFS write is
/// atomic in this model, so the newest durable manifest always wins.
#[must_use]
pub fn checkpoint_path(base: &str) -> String {
    format!("{base}/checkpoint")
}

/// The configuration fingerprint stored in a manifest: the run parameters
/// every FF round ships to its workers (source, sink, variant switches, k
/// policy, search switches; see [`crate::wire`]) plus the reducer count.
/// Resuming under a different configuration would silently compute a
/// different problem, so the fingerprint must match exactly.
#[must_use]
pub fn fingerprint(config: &FfConfig) -> Vec<u8> {
    let mut buf = Vec::new();
    crate::wire::put_run_params(&config.shared(), &mut buf);
    put_varint(config.reducers as u64, &mut buf);
    buf
}

/// The state of Fig. 2's main loop at the end of round `round`: the
/// driver's loop carries it from round to round, and persists it as it
/// stands. Everything a resumed driver needs that is not already a
/// durable DFS file.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointManifest {
    /// [`fingerprint`] of the configuration that wrote the manifest.
    pub fingerprint: Vec<u8>,
    /// Last fully accepted round (0 = only graph preparation done); its
    /// vertex records are at `round_path(base, round)`.
    pub round: usize,
    /// Whether the run terminated at `round` (resume then just
    /// reconstructs the finished result).
    pub finished: bool,
    /// Cumulative flow value through `round`.
    pub total_value: Capacity,
    /// Largest graph file observed so far.
    pub max_graph_bytes: u64,
    /// Round `round`'s accepted deltas — the table round `round + 1`'s
    /// mappers must broadcast (or, on a finished run, the pending deltas
    /// not yet folded into any vertex record).
    pub deltas: Arc<AugmentedEdges>,
    /// Per-round statistics, one per round from 0, so a resumed run
    /// reports the same totals as an uninterrupted one (floats are
    /// preserved bit-exactly).
    pub rounds: Vec<RoundStats>,
}

impl CheckpointManifest {
    /// Serializes the manifest (deterministic byte-for-byte).
    #[must_use]
    pub fn to_blob(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_varint(MANIFEST_VERSION, &mut buf);
        put_bytes(&self.fingerprint, &mut buf);
        put_varint(self.round as u64, &mut buf);
        put_varint(u64::from(self.finished), &mut buf);
        mapreduce::encode::put_varint_signed(self.total_value, &mut buf);
        put_varint(self.max_graph_bytes, &mut buf);
        put_bytes(&self.deltas.to_blob(), &mut buf);
        put_varint(self.rounds.len() as u64, &mut buf);
        for r in &self.rounds {
            put_varint(r.round as u64, &mut buf);
            put_varint(r.a_paths, &mut buf);
            mapreduce::encode::put_varint_signed(r.value_gained, &mut buf);
            put_varint(r.max_queue as u64, &mut buf);
            put_varint(r.map_out_records, &mut buf);
            put_varint(r.shuffle_bytes, &mut buf);
            // f64s as raw bits: a resumed run must report *identical*
            // simulated times, not approximately equal ones.
            put_varint(r.sim_seconds.to_bits(), &mut buf);
            put_varint(r.wall_seconds.to_bits(), &mut buf);
            put_varint(r.source_move, &mut buf);
            put_varint(r.sink_move, &mut buf);
            put_varint(r.graph_bytes, &mut buf);
        }
        buf
    }

    /// Parses a blob written by [`CheckpointManifest::to_blob`].
    ///
    /// # Errors
    /// [`DecodeError`] on truncation, trailing bytes, or an unknown
    /// version.
    pub fn from_blob(mut input: &[u8]) -> Result<Self, DecodeError> {
        let input = &mut input;
        if get_varint(input)? != MANIFEST_VERSION {
            return Err(DecodeError::new("unsupported checkpoint version"));
        }
        let fingerprint = get_bytes(input)?.to_vec();
        let round = get_varint(input)? as usize;
        let finished = get_varint(input)? != 0;
        let total_value = get_varint_signed(input)?;
        let max_graph_bytes = get_varint(input)?;
        let deltas = Arc::new(AugmentedEdges::from_blob(get_bytes(input)?)?);
        let n = get_varint(input)? as usize;
        let mut rounds = Vec::with_capacity(n.min(input.len()));
        for _ in 0..n {
            rounds.push(RoundStats {
                round: get_varint(input)? as usize,
                a_paths: get_varint(input)?,
                value_gained: get_varint_signed(input)?,
                max_queue: get_varint(input)? as usize,
                map_out_records: get_varint(input)?,
                shuffle_bytes: get_varint(input)?,
                sim_seconds: f64::from_bits(get_varint(input)?),
                wall_seconds: f64::from_bits(get_varint(input)?),
                source_move: get_varint(input)?,
                sink_move: get_varint(input)?,
                graph_bytes: get_varint(input)?,
            });
        }
        if !input.is_empty() {
            return Err(DecodeError::new("trailing checkpoint bytes"));
        }
        Ok(Self {
            fingerprint,
            round,
            finished,
            total_value,
            max_graph_bytes,
            deltas,
            rounds,
        })
    }
}

/// Writes (replacing) the chain's checkpoint manifest and records the
/// checkpoint metrics (`ffmr_ff_checkpoint_bytes_total`,
/// `ffmr_ff_checkpoint_us`).
pub fn write_checkpoint(dfs: &mut Dfs, base: &str, manifest: &CheckpointManifest) {
    let started = Instant::now();
    let blob = manifest.to_blob();
    let bytes = blob.len() as u64;
    dfs.write_blob(&checkpoint_path(base), blob);
    let m = ffmr_obs::global();
    m.counter("ffmr_ff_checkpoints_total", &[]).inc();
    m.counter("ffmr_ff_checkpoint_bytes_total", &[]).add(bytes);
    #[allow(clippy::cast_possible_truncation)]
    m.histogram("ffmr_ff_checkpoint_us", &[])
        .record(started.elapsed().as_micros() as u64);
}

/// Reads the chain's checkpoint manifest.
///
/// # Errors
/// [`FfError::Checkpoint`] when no manifest exists or it fails to parse.
pub fn read_checkpoint(dfs: &Dfs, base: &str) -> Result<CheckpointManifest, FfError> {
    let path = checkpoint_path(base);
    let blob = dfs
        .read_blob(&path)
        .map_err(|_| FfError::Checkpoint(format!("no checkpoint manifest at {path}")))?;
    CheckpointManifest::from_blob(blob)
        .map_err(|e| FfError::Checkpoint(format!("corrupt checkpoint manifest at {path}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use swgraph::VertexId;

    fn sample_manifest() -> CheckpointManifest {
        let config = FfConfig::new(VertexId::new(3), VertexId::new(9)).reducers(4);
        let mut deltas = AugmentedEdges::new(2);
        deltas.add(swgraph::EdgeId::new(14), 2);
        CheckpointManifest {
            fingerprint: fingerprint(&config),
            round: 2,
            finished: false,
            total_value: 5,
            max_graph_bytes: 12_345,
            deltas: Arc::new(deltas),
            rounds: vec![
                RoundStats {
                    round: 0,
                    sim_seconds: 1.25,
                    ..RoundStats::default()
                },
                RoundStats {
                    round: 1,
                    a_paths: 3,
                    value_gained: 5,
                    sim_seconds: 0.1 + 0.2, // not exactly representable
                    wall_seconds: 0.007,
                    source_move: 11,
                    sink_move: 7,
                    graph_bytes: 999,
                    ..RoundStats::default()
                },
            ],
        }
    }

    #[test]
    fn manifest_round_trips_bit_exactly() {
        let m = sample_manifest();
        let blob = m.to_blob();
        let back = CheckpointManifest::from_blob(&blob).unwrap();
        assert_eq!(back, m);
        assert_eq!(
            back.rounds[1].sim_seconds.to_bits(),
            m.rounds[1].sim_seconds.to_bits()
        );
        assert_eq!(back.to_blob(), blob, "encoding is a fixed point");
    }

    #[test]
    fn manifest_rejects_corruption() {
        let mut blob = sample_manifest().to_blob();
        assert!(CheckpointManifest::from_blob(&blob[..blob.len() - 1]).is_err());
        blob.push(0);
        assert!(CheckpointManifest::from_blob(&blob).is_err());
        blob.pop();
        for version in [1, 0x7f] {
            blob[0] = version;
            let err = CheckpointManifest::from_blob(&blob).unwrap_err();
            assert!(
                err.to_string().contains("unsupported checkpoint version"),
                "version {version}: {err}"
            );
        }
    }

    #[test]
    fn fingerprint_discriminates_every_run_parameter() {
        use crate::{FfVariant, KPolicy};
        let base = FfConfig::new(VertexId::new(0), VertexId::new(5))
            .variant(FfVariant::ff1())
            .reducers(4);
        let with_variant = |f: fn(&mut FfVariant)| {
            let mut config = base.clone();
            f(&mut config.variant);
            config
        };
        let changed = [
            (
                "source",
                FfConfig {
                    source: VertexId::new(1),
                    ..base.clone()
                },
            ),
            (
                "sink",
                FfConfig {
                    sink: VertexId::new(6),
                    ..base.clone()
                },
            ),
            ("reducers", base.clone().reducers(5)),
            ("stateful aug", with_variant(|v| v.stateful_aug = true)),
            ("schimmy", with_variant(|v| v.schimmy = true)),
            ("pooled objects", with_variant(|v| v.pooled_objects = true)),
            ("remember sent", with_variant(|v| v.remember_sent = true)),
            ("bidirectional", base.clone().bidirectional(false)),
            ("extend all paths", base.clone().extend_all_paths(true)),
            ("k policy", base.clone().k_policy(KPolicy::InDegree)),
            ("k", base.clone().k_policy(KPolicy::Fixed(5))),
        ];
        let print = fingerprint(&base);
        assert_eq!(print, fingerprint(&base.clone()));
        assert_eq!(
            print,
            fingerprint(
                &base
                    .clone()
                    .max_rounds(3)
                    .checkpoint(false)
                    .on_round(|_| {})
            ),
            "round limits, checkpointing and the callback may differ on resume"
        );
        for (what, config) in changed {
            assert_ne!(
                print,
                fingerprint(&config),
                "{what} must change the fingerprint"
            );
        }
    }

    #[test]
    fn read_missing_checkpoint_is_checkpoint_error() {
        let dfs = Dfs::new();
        assert!(matches!(
            read_checkpoint(&dfs, "nope"),
            Err(FfError::Checkpoint(_))
        ));
    }

    #[test]
    fn write_then_read() {
        let mut dfs = Dfs::new();
        let m = sample_manifest();
        write_checkpoint(&mut dfs, "ffmr", &m);
        assert!(dfs.blob_bytes(&checkpoint_path("ffmr")) > 0);
        assert_eq!(read_checkpoint(&dfs, "ffmr").unwrap(), m);
    }
}
