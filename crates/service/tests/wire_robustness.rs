//! Wire-robustness property tests: the frame reader and message parser
//! must survive anything a hostile or broken peer can put on the socket
//! — truncated frames and bodies, oversized length prefixes, binary
//! garbage, malformed text — returning *typed* errors, never panicking;
//! and text-only messages keep their bytes.
//!
//! The corpora are seeded, so a failure reproduces by seed.

use std::io::{Cursor, Read, Write};

use ffmr_prng::SplitMix64;
use ffmr_service::{
    read_frame, read_message, write_frame, write_message, Client, Message, WireError,
    MAX_FRAME_BYTES,
};

/// Builds a raw frame by hand (length prefix + body) without the
/// `write_frame` assertions, so tests can lie about the length.
fn raw_frame(declared_len: u32, body: &[u8]) -> Vec<u8> {
    let mut out = declared_len.to_be_bytes().to_vec();
    out.extend_from_slice(body);
    out
}

#[test]
fn clean_eof_is_none_not_an_error() {
    assert!(read_frame(&mut Cursor::new(Vec::new())).unwrap().is_none());
}

#[test]
fn every_truncation_of_a_valid_frame_is_a_typed_io_error() {
    let mut frame = Vec::new();
    write_frame(&mut frame, "maxflow\nsource 3\nsink 42").unwrap();
    // cut = 0 is clean EOF; every other prefix is a mid-frame cut.
    for cut in 1..frame.len() {
        match read_frame(&mut Cursor::new(frame[..cut].to_vec())) {
            Err(WireError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "cut {cut}");
            }
            other => panic!("cut {cut}: expected Io(UnexpectedEof), got {other:?}"),
        }
    }
    // The whole frame still reads fine.
    let payload = read_frame(&mut Cursor::new(frame)).unwrap().unwrap();
    assert_eq!(payload, "maxflow\nsource 3\nsink 42");
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    for declared in [
        MAX_FRAME_BYTES + 1,
        MAX_FRAME_BYTES * 2,
        u32::MAX, // a 4 GiB allocation if the cap were ignored
    ] {
        match read_frame(&mut Cursor::new(raw_frame(declared, &[]))) {
            Err(WireError::FrameTooLarge(n)) => assert_eq!(n, declared),
            other => panic!("declared {declared}: expected FrameTooLarge, got {other:?}"),
        }
    }
}

#[test]
fn non_utf8_payload_is_a_typed_error() {
    let body = [0xff, 0xfe, 0x80, 0x00];
    match read_frame(&mut Cursor::new(raw_frame(4, &body))) {
        Err(WireError::NotUtf8) => {}
        other => panic!("expected NotUtf8, got {other:?}"),
    }
}

#[test]
fn seeded_garbage_corpus_never_panics_read_frame() {
    let mut rng = SplitMix64::seed_from_u64(0x57_12e);
    for case in 0..2_000 {
        let len = (rng.next_u64() % 64) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        // Any outcome is fine — Ok(None), Ok(Some), or a typed error —
        // as long as it returns rather than panicking or hanging.
        let _ = read_frame(&mut Cursor::new(bytes.clone()));

        // The same bytes with a *valid* length prefix must also never
        // panic: this drives the UTF-8 and parser paths with garbage.
        let framed = raw_frame(len as u32, &bytes);
        if let Ok(Some(payload)) = read_frame(&mut Cursor::new(framed)) {
            let _ = Message::decode(&payload);
        }
        let _ = case;
    }
}

#[test]
fn seeded_text_corpus_never_panics_message_decode() {
    let mut rng = SplitMix64::seed_from_u64(0xdec0de);
    let alphabet: Vec<char> = ('a'..='f')
        .chain([' ', '\n', '\r', '\t', '\0', '=', '-', '\u{1F600}'])
        .collect();
    for _ in 0..2_000 {
        let len = (rng.next_u64() % 40) as usize;
        let text: String = (0..len)
            .map(|_| alphabet[(rng.next_u64() as usize) % alphabet.len()])
            .collect();
        match Message::decode(&text) {
            Ok(message) => {
                // Decode/encode must converge: each cycle strips at
                // most one trailing `\r` per line (`lines()`
                // semantics), so `len + 2` cycles bound it. A cycle may
                // also *reject* the re-encoding (e.g. a head of exactly
                // "\r" collapses to an empty line) — that is fine, as
                // long as the rejection is a typed error, not a panic.
                let mut current = message;
                let mut settled = false;
                for _ in 0..len + 2 {
                    match Message::decode(&current.encode()) {
                        Ok(next) if next == current => {
                            settled = true;
                            break;
                        }
                        Ok(next) => current = next,
                        Err(e) => {
                            assert!(!e.is_empty(), "errors carry a reason");
                            settled = true;
                            break;
                        }
                    }
                }
                assert!(settled, "decode/encode never reached a fixed point");
            }
            Err(e) => assert!(!e.is_empty(), "errors carry a reason"),
        }
    }
}

#[test]
fn empty_and_headless_payloads_are_errors() {
    assert!(Message::decode("").is_err());
    assert!(Message::decode("\nfield value").is_err(), "empty head line");
    assert!(Message::decode("ok\n value-without-key").is_err());
}

#[test]
fn random_messages_round_trip_through_frame_and_parser() {
    let mut rng = SplitMix64::seed_from_u64(42);
    for _ in 0..200 {
        let mut message = Message::new(format!("verb{}", rng.next_u64() % 10));
        for f in 0..(rng.next_u64() % 6) {
            // Keys/values containing the format's delimiters are
            // sanitized on push, so anything we build here must survive.
            message.push(
                format!("key {f}\nx"),
                format!("value {} with\nnewline\rand cr", rng.next_u64()),
            );
        }
        let mut buf = Vec::new();
        write_frame(&mut buf, &message.encode()).unwrap();
        let payload = read_frame(&mut Cursor::new(buf)).unwrap().unwrap();
        let decoded = Message::decode(&payload).unwrap();
        assert_eq!(decoded, message);
    }
}

#[test]
fn frame_at_exactly_the_cap_round_trips() {
    let payload = "x".repeat(MAX_FRAME_BYTES as usize);
    let mut buf = Vec::new();
    write_frame(&mut buf, &payload).unwrap();
    let back = read_frame(&mut Cursor::new(buf)).unwrap().unwrap();
    assert_eq!(back.len(), payload.len());
}

/// A `maxflow` request and its `ok` reply as the text-only encoder wrote
/// them before messages could carry a body: the daemon's bytes must not
/// move.
const GOLDEN_REQUEST: &[u8] = b"\x00\x00\x00\x26maxflow\ndataset fb1\nsource 0\nsink 4038";
const GOLDEN_REPLY: &[u8] = b"\x00\x00\x00\x6dok\ndataset fb1\nepoch 1\nflow 318\nsolver ff5\n\
plan full\ncached 0\nresumed 0\ncoalesced 0\nqueue_wait_us 12\nrounds 9";

fn golden_messages() -> (Message, Message) {
    let request = Message::new("maxflow")
        .field("dataset", "fb1")
        .field("source", 0)
        .field("sink", 4038);
    let reply = Message::new("ok")
        .field("dataset", "fb1")
        .field("epoch", 1)
        .field("flow", 318)
        .field("solver", "ff5")
        .field("plan", "full")
        .field("cached", 0)
        .field("resumed", 0)
        .field("coalesced", 0)
        .field("queue_wait_us", 12)
        .field("rounds", 9);
    (request, reply)
}

#[test]
fn text_messages_keep_their_golden_bytes() {
    let (request, reply) = golden_messages();
    for (message, golden) in [(&request, GOLDEN_REQUEST), (&reply, GOLDEN_REPLY)] {
        let (mut framed, mut written) = (Vec::new(), Vec::new());
        write_frame(&mut framed, &message.encode()).unwrap();
        write_message(&mut written, message).unwrap();
        assert_eq!(framed, golden, "{}", message.head);
        assert_eq!(written, golden, "{}", message.head);
        assert_eq!(
            read_message(&mut Cursor::new(golden)).unwrap().as_ref(),
            Some(message)
        );
    }

    // And on a real socket, through the client the CLI and workers use.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut received = vec![0; GOLDEN_REQUEST.len()];
        stream.read_exact(&mut received).unwrap();
        stream.write_all(GOLDEN_REPLY).unwrap();
        received
    });
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.request(&request).unwrap(), reply);
    assert_eq!(server.join().unwrap(), GOLDEN_REQUEST);
}

/// The length prefix of every frame in written message bytes.
fn frame_prefixes(mut bytes: &[u8]) -> Vec<u32> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        let word = u32::from_be_bytes(bytes[..4].try_into().unwrap());
        out.push(word);
        bytes = &bytes[4 + (word & !(1 << 31)) as usize..];
    }
    out
}

#[test]
fn bodies_round_trip_across_frame_boundaries() {
    let cap = MAX_FRAME_BYTES as usize;
    let mut rng = SplitMix64::seed_from_u64(0xb0d7);
    for len in [0, 1, cap - 1, cap, cap + 1, 3 << 20] {
        let mut message = Message::new("task-done").field("dispatch", len);
        message.body = (0..len).map(|_| rng.next_u64() as u8).collect();
        let mut buf = Vec::new();
        write_message(&mut buf, &message).unwrap();
        assert_eq!(
            frame_prefixes(&buf).len(),
            1 + len.div_ceil(cap),
            "len {len}: header plus one frame per started MiB"
        );
        let mut r = Cursor::new(buf);
        assert_eq!(read_message(&mut r).unwrap(), Some(message), "len {len}");
        assert_eq!(read_message(&mut r).unwrap(), None, "len {len}: clean end");
    }
}

/// A reader that hands out at most `step` bytes per call and remembers
/// the largest buffer it was asked to fill: the reader allocates each
/// frame's buffer before the bytes arrive, so that is the allocation to
/// bound.
struct Trickle<'a> {
    bytes: &'a [u8],
    step: usize,
    largest_ask: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.largest_ask = self.largest_ask.max(buf.len());
        let n = buf.len().min(self.step).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

#[test]
fn every_truncation_inside_a_multi_frame_body_is_unexpected_eof() {
    let mut message = Message::new("task-done").field("dispatch", 1);
    message.body = vec![0x5a; 3 << 20];
    let mut bytes = Vec::new();
    write_message(&mut bytes, &message).unwrap();

    // Every byte of every frame's prefix and the bytes around it, the
    // first and last payload bytes, plus a seeded sample in between.
    let mut cuts: Vec<usize> = Vec::new();
    let mut at = 0usize;
    for prefix in frame_prefixes(&bytes) {
        let len = (prefix & !(1 << 31)) as usize;
        cuts.extend(at.saturating_sub(2)..at + 7);
        cuts.extend([at + 4 + len - 1, at + 4 + len / 2]);
        at += 4 + len;
    }
    let mut rng = SplitMix64::seed_from_u64(0x7a11);
    cuts.extend((0..48).map(|_| (rng.next_u64() % bytes.len() as u64) as usize));
    cuts.retain(|&cut| cut > 0 && cut < bytes.len());

    for cut in cuts {
        let mut r = Trickle {
            bytes: &bytes[..cut],
            step: 64 << 10,
            largest_ask: 0,
        };
        match read_message(&mut r) {
            Err(WireError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "cut {cut}");
            }
            other => panic!("cut {cut}: expected Io(UnexpectedEof), got {other:?}"),
        }
        assert!(
            r.largest_ask <= MAX_FRAME_BYTES as usize,
            "cut {cut}: asked for {} bytes at once",
            r.largest_ask
        );
    }
}

#[test]
fn non_utf8_header_is_a_typed_error_with_or_without_a_body() {
    let header = [0xff, 0xfe, 0x80];
    let plain = raw_frame(3, &header);
    let mut with_body = raw_frame(3 | 1 << 31, &header);
    with_body.extend_from_slice(&raw_frame(2, &[1, 2]));
    for bytes in [plain, with_body] {
        match read_message(&mut Cursor::new(bytes)) {
            Err(WireError::NotUtf8) => {}
            other => panic!("expected NotUtf8, got {other:?}"),
        }
    }
}
