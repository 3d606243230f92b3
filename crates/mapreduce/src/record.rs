//! Typed record encoding: the [`Datum`] trait and implementations.
//!
//! Every key and value that flows through a job implements [`Datum`], a
//! compact binary wire format analogous to Hadoop's `Writable`. The runtime
//! uses [`Datum::encoded_len`] to account, byte-exactly, for the disk and
//! network traffic each record causes.

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

    /// Number of bytes [`Datum::encode`] would append.
    ///
    /// The default encodes the whole value into a throw-away buffer, so a
    /// record using it is encoded twice on every write: it is for cold
    /// types only. Any type that flows through a job's records computes
    /// its length directly (and a test holds it equal to `encode`'s).
    fn encoded_len(&self) -> usize {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf.len()
    }
}

/// A [`Datum`] usable as an intermediate key: hashable for partitioning and
/// ordered for the shuffle sort.
pub trait KeyDatum: Datum + Ord + Eq + Hash {}

impl<T: Datum + Ord + Eq + Hash> KeyDatum for T {}

impl Datum for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(*self, buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        get_varint(input)
    }
    fn encoded_len(&self) -> usize {
        crate::encode::varint_len(*self)
    }
}

impl Datum for u32 {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(u64::from(*self), buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let v = get_varint(input)?;
        u32::try_from(v).map_err(|_| DecodeError::new("u32 out of range"))
    }
    fn encoded_len(&self) -> usize {
        crate::encode::varint_len(u64::from(*self))
    }
}

impl Datum for i64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint_signed(*self, buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        get_varint_signed(input)
    }
    fn encoded_len(&self) -> usize {
        crate::encode::varint_len(crate::encode::zigzag(*self))
    }
}

impl Datum for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_bytes(self.as_bytes(), buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let raw = get_bytes(input)?;
        std::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|_| DecodeError::new("invalid utf-8 string"))
    }
    fn encoded_len(&self) -> usize {
        crate::encode::varint_len(self.len() as u64) + self.len()
    }
}

impl Datum for Vec<u8> {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_bytes(self, buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(get_bytes(input)?.to_vec())
    }
    fn encoded_len(&self) -> usize {
        crate::encode::varint_len(self.len() as u64) + self.len()
    }
}

impl Datum for () {
    fn encode(&self, _buf: &mut Vec<u8>) {}
    fn decode(_input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(())
    }
    fn encoded_len(&self) -> usize {
        0
    }
}

impl<A: Datum, B: Datum> Datum for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok((A::decode(input)?, B::decode(input)?))
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
}

impl<T: Datum> Datum for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(self.len() as u64, buf);
        for item in self {
            item.encode(buf);
        }
    }
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
    fn encoded_len(&self) -> usize {
        crate::encode::varint_len(self.len() as u64)
            + self.iter().map(Datum::encoded_len).sum::<usize>()
    }
}

impl<T: Datum> Datum for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
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
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Datum::encoded_len)
    }
}

/// Encodes one `(key, value)` record with a length-prefixed key so records
/// can be scanned without knowing the value type. Each of the two is
/// encoded exactly once: the length prefixes come from
/// [`Datum::encoded_len`].
pub(crate) fn encode_record<K: Datum, V: Datum>(key: &K, value: &V, buf: &mut Vec<u8>) {
    put_varint(key.encoded_len() as u64, buf);
    key.encode(buf);
    put_varint(value.encoded_len() as u64, buf);
    value.encode(buf);
}

/// Decodes one record written by [`encode_record`].
pub(crate) fn decode_record<K: Datum, V: Datum>(input: &mut &[u8]) -> Result<(K, V), DecodeError> {
    let (kraw, vraw) = split_record(input)?;
    Ok((decode_exact(kraw, "key")?, decode_exact(vraw, "value")?))
}

/// Splits the next record's raw encoded key and value byte runs off
/// `input` without decoding either — the spill-merge path uses this to
/// walk record frames while only the *keys* it compares get decoded.
pub(crate) fn split_record<'a>(input: &mut &'a [u8]) -> Result<(&'a [u8], &'a [u8]), DecodeError> {
    let kraw = get_bytes(input)?;
    let vraw = get_bytes(input)?;
    Ok((kraw, vraw))
}

/// Decodes a datum from its raw (already length-stripped) slot, rejecting
/// trailing garbage. `what` names the slot for the error message.
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

/// Wire size of one record as stored in the DFS and counted by the shuffle.
/// Production accounting now sums spill-run byte lengths instead; this is
/// kept to assert the two agree.
#[cfg(test)]
pub(crate) fn record_len<K: Datum, V: Datum>(key: &K, value: &V) -> usize {
    let kl = key.encoded_len();
    let vl = value.encoded_len();
    crate::encode::varint_len(kl as u64) + kl + crate::encode::varint_len(vl as u64) + vl
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Datum + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        assert_eq!(buf.len(), v.encoded_len(), "encoded_len mismatch");
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
        assert_eq!(buf.len(), record_len(&5u64, &String::from("abc")));
        let mut s = buf.as_slice();
        let (k, v): (u64, String) = decode_record(&mut s).unwrap();
        assert_eq!((k, v), (5, "abc".to_string()));
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
