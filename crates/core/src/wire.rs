//! The FF job's wire form: how a remote worker process reconstructs this
//! crate's mapper/reducer from bytes.
//!
//! Distributed mode ships no closures. A job instead carries a
//! [`WireSpec`](mapreduce::WireSpec) — a job-kind name plus an opaque
//! parameter blob — and the worker's registry maps the kind to a factory.
//! For the FF rounds the kind is [`FF_JOB_KIND`], the parameters are
//! [`ff_wire_params`] (the [`FfShared`] run configuration plus the
//! previous round's [`AugmentedEdges`]), and the factory is
//! [`ff_task_runner`]: it rebuilds the exact `FfMapper`/`FfReducer` the
//! driver would run in process. Their `aug_proc` submissions ride home in
//! the task result, as they do in process, and the driver applies them to
//! its [`AugProc`](crate::AugProc) in task order. Both sides therefore
//! execute identical user code over identical bytes — the basis of the
//! distributed-equals-in-process byte-determinism cross-check.

use std::sync::Arc;

use mapreduce::encode::{get_bytes, get_varint, put_bytes, put_varint};
use mapreduce::error::DecodeError;
use mapreduce::{JobTaskRunner, MrError, ServiceHandle, TaskRunner};

use crate::algo::{FfVariant, KPolicy};
use crate::augmented::AugmentedEdges;
use crate::map_reduce_fns::{FfMapper, FfReducer, FfShared};
use crate::vertex::VertexValue;

/// The job-kind name FF rounds are registered under in worker processes.
pub const FF_JOB_KIND: &str = "ff";

fn put_bool(v: bool, buf: &mut Vec<u8>) {
    buf.push(u8::from(v));
}

fn get_bool(input: &mut &[u8]) -> Result<bool, DecodeError> {
    match input.split_first() {
        Some((&0, rest)) => {
            *input = rest;
            Ok(false)
        }
        Some((&1, rest)) => {
            *input = rest;
            Ok(true)
        }
        Some(_) => Err(DecodeError::new("invalid bool tag")),
        None => Err(DecodeError::new("truncated bool")),
    }
}

/// Writes the run configuration every FF round shares. The checkpoint
/// manifest identifies a run by these bytes too
/// ([`checkpoint::fingerprint`](crate::checkpoint::fingerprint)).
pub(crate) fn put_run_params(shared: &FfShared, buf: &mut Vec<u8>) {
    put_varint(shared.source, buf);
    put_varint(shared.sink, buf);
    put_bool(shared.variant.stateful_aug, buf);
    put_bool(shared.variant.schimmy, buf);
    put_bool(shared.variant.pooled_objects, buf);
    put_bool(shared.variant.remember_sent, buf);
    match shared.k_policy {
        KPolicy::Fixed(k) => {
            buf.push(0);
            put_varint(k as u64, buf);
        }
        KPolicy::InDegree => buf.push(1),
    }
    put_bool(shared.bidirectional, buf);
    put_bool(shared.extend_all_paths, buf);
}

/// Serializes one FF round's parameters — the shared run configuration
/// plus the previous round's accepted deltas — for [`ff_task_runner`].
#[must_use]
pub fn ff_wire_params(shared: &FfShared, deltas: &AugmentedEdges) -> Vec<u8> {
    let mut buf = Vec::new();
    put_run_params(shared, &mut buf);
    put_bytes(&deltas.to_blob(), &mut buf);
    buf
}

fn decode_params(mut input: &[u8]) -> Result<(FfShared, AugmentedEdges), DecodeError> {
    let source = get_varint(&mut input)?;
    let sink = get_varint(&mut input)?;
    let variant = FfVariant {
        stateful_aug: get_bool(&mut input)?,
        schimmy: get_bool(&mut input)?,
        pooled_objects: get_bool(&mut input)?,
        remember_sent: get_bool(&mut input)?,
    };
    let k_policy = match input.split_first() {
        Some((&0, rest)) => {
            input = rest;
            KPolicy::Fixed(get_varint(&mut input)? as usize)
        }
        Some((&1, rest)) => {
            input = rest;
            KPolicy::InDegree
        }
        Some(_) => return Err(DecodeError::new("invalid k-policy tag")),
        None => return Err(DecodeError::new("truncated k-policy")),
    };
    let bidirectional = get_bool(&mut input)?;
    let extend_all_paths = get_bool(&mut input)?;
    let deltas = AugmentedEdges::from_blob(get_bytes(&mut input)?)?;
    if !input.is_empty() {
        return Err(DecodeError::new("trailing bytes after ff wire params"));
    }
    Ok((
        FfShared {
            source,
            sink,
            variant,
            k_policy,
            bidirectional,
            extend_all_paths,
        },
        deltas,
    ))
}

/// Reconstructs the FF round's task runner from [`ff_wire_params`] bytes:
/// the same `FfMapper`/`FfReducer` the driver runs in process.
///
/// # Errors
/// [`MrError::Wire`] on malformed parameter bytes.
pub fn ff_task_runner(params: &[u8]) -> Result<Box<dyn TaskRunner>, MrError> {
    let (shared, deltas) =
        decode_params(params).map_err(|e| MrError::Wire(format!("ff wire params: {e}")))?;
    let shared = Arc::new(shared);
    let deltas = Arc::new(deltas);
    let runner: JobTaskRunner<u64, VertexValue, u64, VertexValue, u64, VertexValue> =
        JobTaskRunner::new(
            FfMapper {
                shared: Arc::clone(&shared),
                deltas: Arc::clone(&deltas),
            },
            FfReducer { shared, deltas },
            ServiceHandle::new(),
        );
    Ok(Box::new(runner))
}

#[cfg(test)]
mod tests {
    use super::*;
    use swgraph::EdgeId;

    fn sample_shared() -> FfShared {
        FfShared {
            source: 3,
            sink: 42,
            variant: FfVariant::ff5(),
            k_policy: KPolicy::InDegree,
            bidirectional: true,
            extend_all_paths: false,
        }
    }

    #[test]
    fn params_round_trip() {
        let mut deltas = AugmentedEdges::new(4);
        deltas.add(EdgeId::new(7), 2);
        deltas.add(EdgeId::new(9), -1);
        let bytes = ff_wire_params(&sample_shared(), &deltas);
        let (shared, back) = decode_params(&bytes).unwrap();
        assert_eq!(shared.source, 3);
        assert_eq!(shared.sink, 42);
        assert_eq!(shared.variant, FfVariant::ff5());
        assert_eq!(shared.k_policy, KPolicy::InDegree);
        assert!(shared.bidirectional);
        assert!(!shared.extend_all_paths);
        assert_eq!(back.to_blob(), deltas.to_blob());

        let fixed = FfShared {
            k_policy: KPolicy::Fixed(4),
            variant: FfVariant::ff1(),
            ..sample_shared()
        };
        let bytes = ff_wire_params(&fixed, &AugmentedEdges::new(0));
        let (shared, _) = decode_params(&bytes).unwrap();
        assert_eq!(shared.k_policy, KPolicy::Fixed(4));
        assert_eq!(shared.variant, FfVariant::ff1());
    }

    #[test]
    fn truncated_params_are_typed_errors() {
        let bytes = ff_wire_params(&sample_shared(), &AugmentedEdges::new(1));
        for cut in 0..bytes.len() {
            assert!(
                decode_params(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        let mut padded = bytes;
        padded.push(0);
        assert!(decode_params(&padded).is_err(), "trailing byte");
        assert!(matches!(ff_task_runner(&[0xff; 3]), Err(MrError::Wire(_))));
    }

    #[test]
    fn runner_factory_builds_a_working_runner() {
        // A reconstructed runner must execute a map task: feed it one
        // master vertex record and check the spill comes back non-empty.
        use mapreduce::{MapTaskSpec, SpillRun};
        let shared = sample_shared();
        let params = ff_wire_params(&shared, &AugmentedEdges::new(0));
        let runner = ff_task_runner(&params).unwrap();

        let vertex = VertexValue {
            source_paths: vec![crate::path::ExcessPath::empty()],
            sink_paths: Vec::new(),
            edges: vec![crate::vertex::VertexEdge {
                to: 1,
                eid: EdgeId::new(0),
                flow: 0,
                cap: 1,
                rev_cap: 1,
                sent_source: None,
                sent_sink: None,
            }],
        };
        let mut input = SpillRun::default();
        input.push(&3u64, &vertex); // keyed by the source vertex

        let result = runner
            .run_map(&MapTaskSpec {
                task: 0,
                reducers: 2,
                input: input.data,
            })
            .unwrap();
        assert_eq!(result.input_records, 1);
        assert!(result.output_records >= 1, "source extends to neighbor 1");
    }
}
