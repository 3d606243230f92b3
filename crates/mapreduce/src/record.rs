//! Typed record encoding: the [`Datum`] trait and implementations.
//!
//! Every key and value that flows through a job implements [`Datum`], a
//! compact binary wire format analogous to Hadoop's `Writable`. A record
//! is encoded once, into a length-prefixed frame ([`SpillRun::push`]),
//! and its bytes are never re-encoded: spill, shuffle and output byte
//! counts are the lengths of those frames.

use std::hash::Hash;

use crate::encode::{
    get_bytes, get_varint, get_varint_signed, put_bytes, put_varint, put_varint_signed,
};
use crate::error::DecodeError;

/// A value that can cross the simulated wire.
///
/// Implementations must round-trip: `decode(encode(x)) == x`, consuming
/// exactly the bytes that `encode` produced.
///
/// # Example
/// ```
/// use mapreduce::Datum;
/// let mut buf = Vec::new();
/// 42u64.encode(&mut buf);
/// let mut s = buf.as_slice();
/// assert_eq!(u64::decode(&mut s).unwrap(), 42);
/// ```
pub trait Datum: Sized + Send + Clone + 'static {
    /// Appends the wire representation of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes a value from the front of `input`, advancing it.
    ///
    /// # Errors
    /// Returns [`DecodeError`] on truncated or malformed input.
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError>;
}

/// A [`Datum`] usable as an intermediate key: hashable for partitioning and
/// ordered for the shuffle sort.
pub trait KeyDatum: Datum + Ord + Eq + Hash {}

impl<T: Datum + Ord + Eq + Hash> KeyDatum for T {}

impl Datum for u64 {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(*self, buf);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        get_varint(input)
    }
}

impl Datum for u32 {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(u64::from(*self), buf);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let v = get_varint(input)?;
        u32::try_from(v).map_err(|_| DecodeError::new("u32 out of range"))
    }
}

impl Datum for i64 {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint_signed(*self, buf);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        get_varint_signed(input)
    }
}

impl Datum for String {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        put_bytes(self.as_bytes(), buf);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let raw = get_bytes(input)?;
        std::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|_| DecodeError::new("invalid utf-8 string"))
    }
}

impl Datum for Vec<u8> {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        put_bytes(self, buf);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(get_bytes(input)?.to_vec())
    }
}

impl Datum for () {
    #[inline]
    fn encode(&self, _buf: &mut Vec<u8>) {}
    #[inline]
    fn decode(_input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(())
    }
}

impl<A: Datum, B: Datum> Datum for (A, B) {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok((A::decode(input)?, B::decode(input)?))
    }
}

impl<T: Datum> Datum for Vec<T> {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(self.len() as u64, buf);
        for item in self {
            item.encode(buf);
        }
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let n = get_varint(input)? as usize;
        // Guard against hostile length prefixes: each element needs >= 0
        // bytes, but cap pre-allocation at what the input could hold.
        let mut out = Vec::with_capacity(n.min(input.len().max(16)));
        for _ in 0..n {
            out.push(T::decode(input)?);
        }
        Ok(out)
    }
}

impl<T: Datum> Datum for Option<T> {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        match input.split_first() {
            Some((&0, rest)) => {
                *input = rest;
                Ok(None)
            }
            Some((&1, rest)) => {
                *input = rest;
                Ok(Some(T::decode(input)?))
            }
            Some(_) => Err(DecodeError::new("invalid option tag")),
            None => Err(DecodeError::new("truncated option")),
        }
    }
}

/// Encodes one `(key, value)` record with a length-prefixed key so records
/// can be scanned without knowing the value type. Each of the two is
/// encoded exactly once, straight into `buf` (see [`put_framed`]).
#[inline]
pub(crate) fn encode_record<K: Datum, V: Datum>(key: &K, value: &V, buf: &mut Vec<u8>) {
    put_framed(key, buf);
    put_framed(value, buf);
}

/// Appends `datum` with its length as a varint prefix, the layout
/// [`put_bytes`] writes, in one pass: a one-byte placeholder, then the
/// datum, then its length written into the placeholder. A datum of 128
/// bytes or more needs a longer prefix; the bytes after the placeholder
/// are shifted up to make room for it.
#[inline]
fn put_framed<T: Datum>(datum: &T, buf: &mut Vec<u8>) {
    let at = buf.len();
    buf.push(0);
    datum.encode(buf);
    let len = buf.len() - at - 1;
    if len < 0x80 {
        buf[at] = len as u8;
    } else {
        // The prefix is the low seven bits with the continuation bit,
        // then the varint of the rest: append that tail and rotate it
        // in front of the datum.
        buf[at] = (len & 0x7f) as u8 | 0x80;
        let end = buf.len();
        put_varint(len as u64 >> 7, buf);
        let tail = buf.len() - end;
        buf[at + 1..].rotate_right(tail);
    }
}

/// Decodes one record written by [`encode_record`].
pub(crate) fn decode_record<K: Datum, V: Datum>(input: &mut &[u8]) -> Result<(K, V), DecodeError> {
    let (kraw, vraw) = split_record(input)?;
    Ok((decode_exact(kraw, "key")?, decode_exact(vraw, "value")?))
}

/// Splits the next record's raw encoded key and value byte runs off
/// `input` without decoding either — the spill-merge path uses this to
/// walk record frames while only the *keys* it compares get decoded.
///
/// # Errors
/// Returns [`DecodeError`] if either length prefix or slot is truncated.
#[inline]
pub fn split_record<'a>(input: &mut &'a [u8]) -> Result<(&'a [u8], &'a [u8]), DecodeError> {
    let kraw = get_bytes(input)?;
    let vraw = get_bytes(input)?;
    Ok((kraw, vraw))
}

/// Decodes a datum from its raw (already length-stripped) slot, rejecting
/// trailing garbage. `what` names the slot for the error message.
#[inline]
pub(crate) fn decode_exact<T: Datum>(mut raw: &[u8], what: &str) -> Result<T, DecodeError> {
    let v = T::decode(&mut raw)?;
    if !raw.is_empty() {
        return Err(DecodeError::new(format!("trailing {what} bytes")));
    }
    Ok(v)
}

/// One key-sorted run of pre-encoded records — the unit of the map→reduce
/// spill format. Each map task writes one run per reduce partition
/// (records in key order, framed by `encode_record`); reduce tasks
/// k-way-merge the runs instead of re-sorting the partition. `data.len()`
/// is the run's exact wire size, so the shuffle accounts bytes per spill
/// rather than iterating records.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpillRun {
    /// Encoded records, back to back, in key order.
    pub data: Vec<u8>,
    /// Number of records in `data`.
    pub records: u64,
}

impl SpillRun {
    /// Appends one record (caller upholds the key-order invariant).
    pub fn push<K: Datum, V: Datum>(&mut self, key: &K, value: &V) {
        encode_record(key, value, &mut self.data);
        self.records += 1;
    }

    /// The run's exact wire size — its contribution to spill and shuffle
    /// byte accounting.
    pub fn bytes(&self) -> u64 {
        self.data.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Datum + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut s = buf.as_slice();
        assert_eq!(T::decode(&mut s).unwrap(), v);
        assert!(s.is_empty(), "bytes left over");
    }

    #[test]
    fn primitive_round_trips() {
        round_trip(0u64);
        round_trip(u64::MAX);
        round_trip(7u32);
        round_trip(u32::MAX);
        round_trip(-12345i64);
        round_trip(String::from("héllo wörld"));
        round_trip(String::new());
        round_trip(vec![1u8, 2, 3]);
        round_trip(Vec::<u8>::new());
        round_trip(());
    }

    #[test]
    fn compound_round_trips() {
        round_trip((42u64, String::from("x")));
        round_trip(vec![(1u64, 2i64), (3, -4)]);
        round_trip(Some(9u64));
        round_trip(Option::<u64>::None);
        round_trip(vec![Some(1u64), None, Some(3)]);
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = Vec::new();
        put_bytes(&[0xff, 0xfe], &mut buf);
        let mut s = buf.as_slice();
        assert!(String::decode(&mut s).is_err());
    }

    #[test]
    fn record_round_trip() {
        let mut buf = Vec::new();
        encode_record(&5u64, &String::from("abc"), &mut buf);
        assert_eq!(buf, [1, 5, 4, 3, b'a', b'b', b'c']);
        let mut s = buf.as_slice();
        let (k, v): (u64, String) = decode_record(&mut s).unwrap();
        assert_eq!((k, v), (5, "abc".to_string()));
    }

    /// One-pass frames equal the two-pass layout (encode, then
    /// `put_bytes`) on both sides of every prefix-length boundary.
    #[test]
    fn one_pass_frames_equal_two_pass_frames() {
        for len in [
            0usize, 1, 126, 127, 128, 129, 300, 16_382, 16_383, 16_384, 20_000,
        ] {
            let key = vec![7u8; len / 3];
            let value = "x".repeat(len);
            let mut one_pass = vec![0xEE];
            encode_record(&key, &value, &mut one_pass);

            let mut two_pass = vec![0xEE];
            for datum in [
                {
                    let mut b = Vec::new();
                    key.encode(&mut b);
                    b
                },
                {
                    let mut b = Vec::new();
                    value.encode(&mut b);
                    b
                },
            ] {
                put_bytes(&datum, &mut two_pass);
            }
            assert_eq!(one_pass, two_pass, "value of {len} bytes");
            let mut s = &one_pass[1..];
            assert_eq!(
                decode_record::<Vec<u8>, String>(&mut s).unwrap(),
                (key, value)
            );
            assert!(s.is_empty());
        }
    }

    #[test]
    fn record_rejects_trailing_key_bytes() {
        // Encode a record whose key slot has extra bytes after the key.
        let mut buf = Vec::new();
        let mut kbuf = Vec::new();
        5u64.encode(&mut kbuf);
        kbuf.push(0xAA);
        put_bytes(&kbuf, &mut buf);
        put_bytes(&[], &mut buf);
        let mut s = buf.as_slice();
        assert!(decode_record::<u64, ()>(&mut s).is_err());
    }

    #[test]
    fn hostile_vec_length_prefix_does_not_oom() {
        let mut buf = Vec::new();
        put_varint(u64::MAX, &mut buf); // claims 2^64-1 elements
        let mut s = buf.as_slice();
        assert!(Vec::<u64>::decode(&mut s).is_err());
    }

    #[test]
    fn option_invalid_tag_is_error() {
        let mut s: &[u8] = &[7];
        assert!(Option::<u64>::decode(&mut s).is_err());
    }
}
