//! The wire protocol of `ffmrd` and of the distributed dispatch plane:
//! length-prefixed frames over TCP.
//!
//! A message's header is one frame: a 4-byte big-endian payload length
//! followed by that many bytes of UTF-8 text. The payload's first line
//! is the request verb (or response status); each following line is one
//! `key value` field, where the key runs to the first space and the
//! value is the rest of the line.
//!
//! ```text
//! maxflow            |  ok
//! dataset fb1        |  flow 318
//! source 0           |  solver tree
//! sink 4038          |  plan tree
//! ```
//!
//! The format is deliberately line-oriented and std-only: it can be
//! debugged with a hex dump and needs no serialization dependency.
//!
//! # Bodies
//!
//! A [`Message`] may also carry a raw byte body (the dispatch plane's
//! task specs and results). The top bit of a length prefix says "another
//! frame of this message follows": it is set on the header frame of a
//! message with a body and on every body frame but the last, and the
//! body's bytes are the concatenation of those frames, each at most
//! [`MAX_FRAME_BYTES`]. No reply travels between the frames. A message
//! without a body is exactly one text frame with the bit clear, so the
//! text-only messages `ffmrd` sends and accepts are unchanged;
//! [`read_frame`] refuses a header announcing a body as an oversized
//! frame, so `ffmrd` never buffers one.
//!
//! # Query-response field set
//!
//! Every successful `maxflow`/`mincut` response carries the same
//! serving-metadata fields regardless of which path produced the
//! answer (cut-tree walk, fresh solve, cache hit, coalesced follower):
//!
//! | field           | meaning                                              |
//! |-----------------|------------------------------------------------------|
//! | `dataset`       | dataset name the query resolved against              |
//! | `epoch`         | snapshot epoch that produced the answer              |
//! | `flow`          | max-flow value                                       |
//! | `solver`        | `tree`, `local`, or an in-memory algorithm           |
//! | `plan`          | `tree` (read off the cut tree) or `full` (solved)    |
//! | `cached`        | `1` if the flow cache held the answer, on arrival or once dequeued (never `tree`) |
//! | `coalesced`     | `1` if this request waited for an identical one solving |
//! | `queue_wait_us` | microseconds spent queued behind busy workers        |
//!
//! Min-cut certificates (`cut-edges`, `cut-source-side`) and the
//! resolved `sources`/`sinks` lists ride along. A request with an
//! `explain` field additionally receives `profile`: the full
//! `ffmr_obs::QueryProfile` as one JSON line (plan reason, per-stage
//! wall windows, solver internals).

use std::io::{ErrorKind, Read, Write};

/// Hard cap on a single frame (1 MiB) — a malformed or hostile length
/// prefix must not trigger an unbounded allocation.
pub const MAX_FRAME_BYTES: u32 = 1 << 20;

/// Length-prefix bit: another frame of the same message follows.
const MORE: u32 = 1 << 31;

/// Wire-level failure while reading or writing a frame.
#[derive(Debug)]
pub enum WireError {
    /// Underlying socket error (includes EOF mid-frame).
    Io(std::io::Error),
    /// Peer announced a frame larger than [`MAX_FRAME_BYTES`].
    FrameTooLarge(u32),
    /// Frame payload was not valid UTF-8.
    NotUtf8,
    /// A whole message arrived but its header is not a valid
    /// [`Message`]; the stream is still in step.
    BadMessage(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds cap"),
            WireError::NotUtf8 => write!(f, "frame payload is not UTF-8"),
            WireError::BadMessage(e) => write!(f, "bad message: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Writes one length-prefixed text frame in one `write` call.
pub fn write_frame(w: &mut impl Write, payload: &str) -> Result<(), WireError> {
    write_frames(w, payload.as_bytes(), &[])
}

/// Writes `message`: its header frame, then its body (if any) as
/// back-to-back frames. A message without a body is written exactly as
/// [`write_frame`] writes its encoding.
pub fn write_message(w: &mut impl Write, message: &Message) -> Result<(), WireError> {
    write_frames(w, message.encode().as_bytes(), &message.body)
}

/// Writes `header` and then `body` as frames through one buffer at least
/// as large as the header frame, so the header's prefix and bytes leave
/// in one `write` call: a second, small segment would wait out the
/// peer's delayed ACK. A body chunk at least as large as the buffer
/// goes to `w` straight from `body`, uncopied.
fn write_frames(w: &mut impl Write, header: &[u8], body: &[u8]) -> Result<(), WireError> {
    let capacity = (4 + header.len()).max(8 << 10);
    let mut out = std::io::BufWriter::with_capacity(capacity, w);
    let mut frames = std::iter::once(header)
        .chain(body.chunks(MAX_FRAME_BYTES as usize))
        .peekable();
    while let Some(frame) = frames.next() {
        write_prefixed(&mut out, frame, frames.peek().is_some())?;
    }
    out.flush()?;
    Ok(())
}

/// Writes one frame's length prefix and bytes.
fn write_prefixed(w: &mut impl Write, bytes: &[u8], more: bool) -> Result<(), WireError> {
    assert!(bytes.len() <= MAX_FRAME_BYTES as usize, "oversized frame");
    let prefix = bytes.len() as u32 | if more { MORE } else { 0 };
    w.write_all(&prefix.to_be_bytes())?;
    w.write_all(bytes)?;
    Ok(())
}

/// Reads one length-prefixed text frame; `Ok(None)` on clean EOF at a
/// frame boundary (the peer closed the connection). A read timeout on
/// the underlying stream fails the read.
pub fn read_frame(r: &mut impl Read) -> Result<Option<String>, WireError> {
    read_frame_polled(r, || true)
}

/// [`read_frame`] for a server loop that polls a stop condition through
/// the stream's read timeout: each time a read times out `give_up` is
/// asked, and the read carries on from the bytes it already holds
/// unless it says so — a frame whose bytes straddle a timeout is still
/// one frame. Giving up returns the timeout as [`WireError::Io`].
pub fn read_frame_polled(
    r: &mut impl Read,
    mut give_up: impl FnMut() -> bool,
) -> Result<Option<String>, WireError> {
    let mut payload = Vec::new();
    if read_into(r, &mut payload, false, &mut give_up)?.is_none() {
        return Ok(None);
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| WireError::NotUtf8)
}

/// Reads one message, body included; `Ok(None)` on clean EOF at a
/// message boundary. A read timeout fails the read.
pub fn read_message(r: &mut impl Read) -> Result<Option<Message>, WireError> {
    read_message_polled(r, || true)
}

/// [`read_message`] with [`read_frame_polled`]'s timeout handling. The
/// whole message is consumed before its header is decoded, so a
/// [`WireError::BadMessage`] leaves the stream at the next message.
pub fn read_message_polled(
    r: &mut impl Read,
    mut give_up: impl FnMut() -> bool,
) -> Result<Option<Message>, WireError> {
    let mut header = Vec::new();
    let Some(mut more) = read_into(r, &mut header, true, &mut give_up)? else {
        return Ok(None);
    };
    let mut body = Vec::new();
    while more {
        more = read_into(r, &mut body, true, &mut give_up)?
            .ok_or_else(|| std::io::Error::from(ErrorKind::UnexpectedEof))?;
    }
    let text = String::from_utf8(header).map_err(|_| WireError::NotUtf8)?;
    let mut message = Message::decode(&text).map_err(WireError::BadMessage)?;
    message.body = body;
    Ok(Some(message))
}

/// Reads one frame and appends its bytes to `buf`, allocating no more
/// than its prefix announced (at most [`MAX_FRAME_BYTES`]). `Ok(None)`
/// when the stream ended before the prefix; otherwise whether another
/// frame of the message follows. Unless `more_allowed`, a set
/// [`MORE`] bit counts toward the length, so the frame is too large.
fn read_into(
    r: &mut impl Read,
    buf: &mut Vec<u8>,
    more_allowed: bool,
    give_up: &mut impl FnMut() -> bool,
) -> Result<Option<bool>, WireError> {
    let mut prefix = [0u8; 4];
    // A clean close before any length byte is a normal end of session.
    if !fill(r, &mut prefix, give_up)? {
        return Ok(None);
    }
    let word = u32::from_be_bytes(prefix);
    let more = more_allowed && word & MORE != 0;
    let len = if more { word & !MORE } else { word };
    if len > MAX_FRAME_BYTES {
        return Err(WireError::FrameTooLarge(word));
    }
    let start = buf.len();
    buf.reserve_exact(len as usize);
    buf.resize(start + len as usize, 0);
    if !fill(r, &mut buf[start..], give_up)? {
        return Err(std::io::Error::from(ErrorKind::UnexpectedEof).into());
    }
    Ok(Some(more))
}

/// Fills `buf`, riding out read timeouts until `give_up` says
/// otherwise. `Ok(false)` when the stream ended before the first byte;
/// an end after it is `UnexpectedEof`.
fn fill(
    r: &mut impl Read,
    buf: &mut [u8],
    give_up: &mut impl FnMut() -> bool,
) -> std::io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if give_up() {
                    return Err(e);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// A decoded message: a verb/status line plus ordered `key value`
/// fields, and an optional raw byte body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Request verb (`maxflow`, `stats`, …) or response status (`ok`,
    /// `busy`, `error`).
    pub head: String,
    /// Ordered fields; duplicate keys are allowed and preserved.
    pub fields: Vec<(String, String)>,
    /// Raw bytes sent after the header by [`write_message`]; empty
    /// means no body. [`Message::encode`] and [`Message::decode`] cover
    /// the header only.
    pub body: Vec<u8>,
}

impl Message {
    /// A message with no fields.
    #[must_use]
    pub fn new(head: impl Into<String>) -> Self {
        Self {
            head: head.into(),
            fields: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Appends a field (builder style).
    #[must_use]
    pub fn field(mut self, key: impl Into<String>, value: impl ToString) -> Self {
        self.push(key, value);
        self
    }

    /// Appends a field in place.
    ///
    /// Keys and values are sanitized in **all** builds: a key containing
    /// a space or newline, or a value containing a newline, would shift
    /// every later field of the encoded frame (the format is
    /// line-oriented with space-delimited keys), so offending characters
    /// are replaced — space/newline in keys become `-`, newlines in
    /// values become spaces. A `debug_assert!` alone would let release
    /// builds emit silently corrupted frames.
    pub fn push(&mut self, key: impl Into<String>, value: impl ToString) {
        self.fields
            .push((sanitize_key(key.into()), sanitize_value(value.to_string())));
    }

    /// First value for `key`, if present.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Every value for `key`, in order (for repeatable fields).
    pub fn get_all<'a>(&'a self, key: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.fields
            .iter()
            .filter(move |(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Joins every repeated `key` field back into one newline-terminated
    /// text block — the inverse of pushing a multi-line document one
    /// line at a time (how a `stats` response carries the Prometheus
    /// exposition as repeated `prom` fields).
    #[must_use]
    pub fn joined_lines(&self, key: &str) -> String {
        let mut out = String::new();
        for v in self.get_all(key) {
            out.push_str(v);
            out.push('\n');
        }
        out
    }

    /// First value for `key`, parsed.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("field '{key}' has invalid value '{v}'")),
        }
    }

    /// Serializes to a frame payload.
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = self.head.clone();
        for (k, v) in &self.fields {
            out.push('\n');
            out.push_str(k);
            out.push(' ');
            out.push_str(v);
        }
        out
    }

    /// Parses a frame payload.
    ///
    /// # Errors
    /// Fails on an empty payload or a field line without a key.
    pub fn decode(payload: &str) -> Result<Self, String> {
        let mut lines = payload.lines();
        let head = lines
            .next()
            .filter(|h| !h.is_empty())
            .ok_or("empty frame")?;
        let mut fields = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (key, value) = line.split_once(' ').unwrap_or((line, ""));
            if key.is_empty() {
                return Err(format!("field line without key: '{line}'"));
            }
            fields.push((key.to_string(), value.to_string()));
        }
        Ok(Self {
            head: head.to_string(),
            fields,
            body: Vec::new(),
        })
    }
}

/// Keys run to the first space and end at the newline; both characters
/// (and `\r`, which `lines()`-based decoding would strip) become `-`.
fn sanitize_key(key: String) -> String {
    if key.contains([' ', '\n', '\r']) {
        key.chars()
            .map(|c| {
                if matches!(c, ' ' | '\n' | '\r') {
                    '-'
                } else {
                    c
                }
            })
            .collect()
    } else {
        key
    }
}

/// Values end at the newline; embedded line breaks become spaces.
fn sanitize_value(value: String) -> String {
    if value.contains(['\n', '\r']) {
        value
            .chars()
            .map(|c| if matches!(c, '\n' | '\r') { ' ' } else { c })
            .collect()
    } else {
        value
    }
}

/// Response status heads.
pub mod status {
    /// The request succeeded; fields carry the answer.
    pub const OK: &str = "ok";
    /// The bounded request queue is full — retry later. Sent instead of
    /// stalling the connection (explicit load shedding).
    pub const BUSY: &str = "busy";
    /// The request failed; the `message` field explains why.
    pub const ERROR: &str = "error";
}

/// Builds an `error` response.
#[must_use]
pub fn error_response(message: impl ToString) -> Message {
    Message::new(status::ERROR).field("message", message.to_string())
}

/// Builds the `busy` load-shedding response.
#[must_use]
pub fn busy_response() -> Message {
    Message::new(status::BUSY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let m = Message::new("maxflow")
            .field("dataset", "fb1")
            .field("source", 0)
            .field("sink", 4038)
            .field("note", "spaces are fine in values");
        let back = Message::decode(&m.encode()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.get("sink"), Some("4038"));
        assert_eq!(back.get_parsed::<u64>("source").unwrap(), Some(0));
        assert_eq!(back.get("missing"), None);
    }

    #[test]
    fn repeated_fields_preserved() {
        let m = Message::new("serve")
            .field("graph", "a=/tmp/a.txt")
            .field("graph", "b=/tmp/b.txt");
        let back = Message::decode(&m.encode()).unwrap();
        let all: Vec<_> = back.get_all("graph").collect();
        assert_eq!(all, vec!["a=/tmp/a.txt", "b=/tmp/b.txt"]);
    }

    #[test]
    fn push_sanitizes_hostile_keys_and_values() {
        // Without sanitization these fields would desync the frame: the
        // embedded newlines would be parsed as extra field lines and the
        // spacey key would leak into its value.
        let mut m = Message::new("ok");
        m.push("bad key\nhere", "multi\nline\r\nvalue");
        m.push("tail", "intact");
        let back = Message::decode(&m.encode()).unwrap();
        assert_eq!(back.fields.len(), 2, "{back:?}");
        assert_eq!(back.get("bad-key-here"), Some("multi line  value"));
        assert_eq!(back.get("tail"), Some("intact"), "later fields survive");
    }

    #[test]
    fn joined_lines_reassembles_repeated_fields() {
        let m = Message::new("ok")
            .field("prom", "# TYPE a counter")
            .field("prom", "a 1")
            .field("other", "x");
        assert_eq!(m.joined_lines("prom"), "# TYPE a counter\na 1\n");
        assert_eq!(m.joined_lines("absent"), "");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Message::decode("").is_err());
        assert!(Message::decode("ok\n value-with-leading-space").is_err());
        let bare = Message::decode("ok\nflag").unwrap();
        assert_eq!(bare.get("flag"), Some(""));
    }

    #[test]
    fn parse_errors_name_the_field() {
        let m = Message::decode("maxflow\nsource abc").unwrap();
        let err = m.get_parsed::<u64>("source").unwrap_err();
        assert!(err.contains("source") && err.contains("abc"), "{err}");
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "ok\nflow 7").unwrap();
        write_frame(&mut buf, "busy").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "ok\nflow 7");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "busy");
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn oversized_frame_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut r = buf.as_slice();
        assert!(matches!(
            read_frame(&mut r),
            Err(WireError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn truncated_frame_is_an_io_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_be_bytes());
        buf.extend_from_slice(b"abc"); // promised 8, delivered 3
        let mut r = buf.as_slice();
        assert!(matches!(read_frame(&mut r), Err(WireError::Io(_))));
    }

    /// The 4-byte prefixes of `bytes`' frames, walking the lengths.
    fn prefixes(mut bytes: &[u8]) -> Vec<u32> {
        let mut out = Vec::new();
        while !bytes.is_empty() {
            let word = u32::from_be_bytes(bytes[..4].try_into().unwrap());
            out.push(word);
            bytes = &bytes[4 + (word & !MORE) as usize..];
        }
        out
    }

    #[test]
    fn a_body_follows_its_header_in_frames_flagged_until_the_last() {
        let cap = MAX_FRAME_BYTES;
        let mut m = Message::new("task-done").field("dispatch", 3);
        m.body = vec![7; cap as usize + 1];
        let mut buf = Vec::new();
        write_message(&mut buf, &m).unwrap();
        let header = m.encode().len() as u32;
        assert_eq!(prefixes(&buf), vec![header | MORE, cap | MORE, 1]);
        let back = read_message(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn read_frame_refuses_a_message_with_a_body() {
        let mut m = Message::new("maxflow");
        m.body = vec![1, 2, 3];
        let mut buf = Vec::new();
        write_message(&mut buf, &m).unwrap();
        let word = 7 | MORE;
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(WireError::FrameTooLarge(n)) if n == word
        ));
    }

    /// A writer that records each `write` call's address and length.
    #[derive(Default)]
    struct CountingWriter {
        calls: Vec<(*const u8, usize)>,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls.push((buf.as_ptr(), buf.len()));
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_message_without_a_body_is_one_write() {
        let small = Message::new("ok").field("flow", 7);
        let large = Message::new("ok").field("profile", "x".repeat(100_000));
        for message in [small, large] {
            let mut w = CountingWriter::default();
            write_message(&mut w, &message).unwrap();
            assert_eq!(w.calls.len(), 1, "{} header bytes", message.encode().len());
            let mut framed = CountingWriter::default();
            write_frame(&mut framed, &message.encode()).unwrap();
            assert_eq!(framed.calls.len(), 1);
            assert_eq!(framed.bytes, w.bytes, "write_frame and write_message agree");
        }
    }

    #[test]
    fn body_chunks_are_written_from_the_body_uncopied() {
        let cap = MAX_FRAME_BYTES as usize;
        let mut m = Message::new("task-request").field("dispatch", 9);
        m.body = (0..3 * cap).map(|i| (i % 251) as u8).collect();
        let mut w = CountingWriter::default();
        write_message(&mut w, &m).unwrap();
        for (i, chunk) in m.body.chunks(cap).enumerate() {
            assert!(
                w.calls.contains(&(chunk.as_ptr(), cap)),
                "chunk {i} was copied: {:?}",
                w.calls
            );
        }
        assert_eq!(read_message(&mut w.bytes.as_slice()).unwrap().unwrap(), m);
    }

    #[test]
    fn a_bad_header_consumes_its_body_and_keeps_the_stream_in_step() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(1 | MORE).to_be_bytes());
        buf.push(b'\n');
        buf.extend_from_slice(&2u32.to_be_bytes());
        buf.extend_from_slice(&[0xff, 0xfe]);
        write_frame(&mut buf, "ping").unwrap();
        let mut r = buf.as_slice();
        assert!(matches!(
            read_message(&mut r),
            Err(WireError::BadMessage(_))
        ));
        assert_eq!(read_message(&mut r).unwrap().unwrap().head, "ping");
    }
}
