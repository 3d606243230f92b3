//! The task-dispatch protocol spoken between the coordinator and worker
//! processes, layered on `ffmr-service`'s length-prefixed
//! [`Message`](ffmr_service::Message) frames.
//!
//! Verbs (all requests are worker → coordinator; the coordinator only
//! ever answers):
//!
//! | head           | request fields                                  | ok-response fields                  |
//! |----------------|--------------------------------------------------|-------------------------------------|
//! | `register`     | [`now-us <t>`]                                   | `worker <id>`                       |
//! | `heartbeat`    | `worker <id>` [`now-us <t>` `rtt-us <r>`]        | —                                   |
//! | `task-request` | `worker <id>`                                    | `dispatch <id>` + `phase map\|reduce` [+ `trace <t>` `span <s>`] + task body, or `none 1`, or `shutdown 1` |
//! | `task-done`    | `worker <id>` `dispatch <id>` `status ok\|err` [`message <m>`] + telemetry (below) + result body when ok | — |
//! | `telemetry`    | `worker <id>` [`metrics <line>`…] [`spans <line>`…] | —                                |
//! | `workers`      | —                                                | `queue-depth <n>` + per worker: `worker <id>` `state …` `hb-age-ms …` `rtt-us …` `offset-us …` `inflight …` `tasks-ok …` `tasks-failed …` `bytes-in …` `bytes-out …` |
//!
//! ## Bodies
//!
//! A task's bytes travel as message bodies (raw, streamed as
//! back-to-back frames; see `ffmr_service::protocol`). The reply that
//! hands a dispatch out carries the job kind, the job's wire params and
//! the encoded `MapTaskSpec`/`ReduceTaskSpec` ([`encode_task_body`]); a
//! successful `task-done` carries the encoded task result. `task-request`
//! is a bounded long poll: the coordinator holds it until a dispatch is
//! queued or it shuts down, and answers `none 1` when the bound passes.
//! Dispatch ids are fresh per attempt, so a `task-done` for a dispatch
//! the coordinator has already failed (worker declared dead, task
//! re-dispatched) refers to a retired id and is ignored — retries stay
//! exactly-once.
//!
//! ## Telemetry piggybacked on `task-done`
//!
//! The worker adds its registry's cumulative snapshot (see
//! `Registry::encode_snapshot`) as repeated one-line `metrics` fields and
//! its captured span JSONL as repeated `spans` fields; the coordinator
//! reads them back with `Message::joined_lines`/`get_all`. The
//! `telemetry` verb carries the same fields as a final flush on
//! shutdown. Heartbeats carry `now-us` (worker clock at send) and
//! `rtt-us` (worker-measured round trip of the *previous* beat); the
//! coordinator keeps the minimum-RTT offset estimate (driver receive
//! time − (`now-us` + rtt/2)) for the `workers` table. The `workers` verb
//! is the read side (driver tools, not workers): a point-in-time table
//! for `ffmr top`.

use mapreduce::encode::{get_bytes, put_bytes};
use mapreduce::error::DecodeError;

/// Request heads.
pub mod verb {
    /// Announce a new worker; response carries its id.
    pub const REGISTER: &str = "register";
    /// Liveness ping from a worker's heartbeat thread.
    pub const HEARTBEAT: &str = "heartbeat";
    /// Ask for a task to run (a bounded long poll).
    pub const TASK_REQUEST: &str = "task-request";
    /// Report a dispatch finished (ok with its result body, or err).
    pub const TASK_DONE: &str = "task-done";
    /// Ship metrics/span telemetry outside a dispatch (shutdown flush).
    pub const TELEMETRY: &str = "telemetry";
    /// Point-in-time per-worker cluster table (`ffmr top`).
    pub const WORKERS: &str = "workers";
}

/// Packs a job's wire kind and parameter blob and one task's encoded
/// spec into the body of the reply that hands the task out.
#[must_use]
pub fn encode_task_body(kind: &str, params: &[u8], spec: &[u8]) -> Vec<u8> {
    let mut body = Vec::with_capacity(kind.len() + params.len() + spec.len() + 16);
    put_bytes(kind.as_bytes(), &mut body);
    put_bytes(params, &mut body);
    body.extend_from_slice(spec);
    body
}

/// Splits an [`encode_task_body`] body into `(kind, params, spec)`.
///
/// # Errors
/// On a truncated header or non-UTF-8 kind bytes.
pub fn decode_task_body(mut input: &[u8]) -> Result<(&str, &[u8], &[u8]), DecodeError> {
    let kind = std::str::from_utf8(get_bytes(&mut input)?)
        .map_err(|_| DecodeError::new("job kind is not utf-8"))?;
    let params = get_bytes(&mut input)?;
    Ok((kind, params, input))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_body_round_trip() {
        let bytes = encode_task_body("ff", &[9, 8, 7], &[1, 2]);
        let (kind, params, spec) = decode_task_body(&bytes).unwrap();
        assert_eq!((kind, params, spec), ("ff", &[9, 8, 7][..], &[1, 2][..]));
        // Every cut inside the kind/params header is an error; the spec
        // is opaque here and its own decoder judges it.
        for cut in 0..bytes.len() - 2 {
            assert!(decode_task_body(&bytes[..cut]).is_err(), "cut {cut}");
        }
        assert!(decode_task_body(&encode_task_body("\u{1F600}", &[], &[])).is_ok());
        let mut bad = encode_task_body("ab", &[], &[]);
        bad[1] = 0xff;
        assert!(decode_task_body(&bad).is_err(), "non-utf-8 kind");
    }
}
