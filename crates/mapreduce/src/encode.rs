//! Low-level variable-length integer encoding primitives.
//!
//! All record serialization in this crate bottoms out in LEB128-style
//! varints (with zig-zag for signed values), so encoded sizes are compact
//! and byte-exact — they stand in for Hadoop's `Writable` wire format when
//! the runtime accounts for disk and shuffle bytes.

use crate::error::DecodeError;

/// Appends `v` to `buf` as an unsigned LEB128 varint (1–10 bytes).
///
/// # Example
/// ```
/// let mut buf = Vec::new();
/// mapreduce::encode::put_varint(300, &mut buf);
/// assert_eq!(buf, [0xAC, 0x02]);
/// ```
#[inline]
pub fn put_varint(v: u64, buf: &mut Vec<u8>) {
    if v < 0x80 {
        buf.push(v as u8);
    } else {
        put_varint_long(v, buf);
    }
}

/// [`put_varint`] for values of two bytes or more.
fn put_varint_long(mut v: u64, buf: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads an unsigned varint from the front of `input`, advancing it.
///
/// # Errors
/// Returns [`DecodeError`] if the input ends mid-varint or the varint is
/// longer than 10 bytes (overflow).
#[inline]
pub fn get_varint(input: &mut &[u8]) -> Result<u64, DecodeError> {
    // Vertex and edge ids take one to three bytes; decode those here and
    // leave longer (and malformed) varints to the loop.
    let bytes: &[u8] = input;
    match *bytes {
        [b0, ref rest @ ..] if b0 < 0x80 => {
            *input = rest;
            Ok(u64::from(b0))
        }
        [b0, b1, ref rest @ ..] if b1 < 0x80 => {
            *input = rest;
            Ok(u64::from(b0 & 0x7f) | u64::from(b1) << 7)
        }
        [b0, b1, b2, ref rest @ ..] if b2 < 0x80 => {
            *input = rest;
            Ok(u64::from(b0 & 0x7f) | u64::from(b1 & 0x7f) << 7 | u64::from(b2) << 14)
        }
        _ => get_varint_long(input),
    }
}

/// [`get_varint`] for varints of four bytes or more, truncated input
/// and overflow.
fn get_varint_long(input: &mut &[u8]) -> Result<u64, DecodeError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    for (idx, &byte) in input.iter().enumerate() {
        if shift >= 64 {
            return Err(DecodeError::new("varint overflow"));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            *input = &input[idx + 1..];
            return Ok(v);
        }
        shift += 7;
    }
    Err(DecodeError::new("truncated varint"))
}

/// Number of bytes [`put_varint`] would append for `v`.
#[must_use]
#[inline]
pub fn varint_len(v: u64) -> usize {
    if v == 0 {
        return 1;
    }
    let bits = 64 - v.leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Zig-zag maps a signed integer to unsigned so small magnitudes stay short.
#[must_use]
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[must_use]
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends a signed varint (zig-zag + LEB128).
#[inline]
pub fn put_varint_signed(v: i64, buf: &mut Vec<u8>) {
    put_varint(zigzag(v), buf);
}

/// Reads a signed varint written by [`put_varint_signed`].
///
/// # Errors
/// Propagates [`get_varint`] errors.
#[inline]
pub fn get_varint_signed(input: &mut &[u8]) -> Result<i64, DecodeError> {
    Ok(unzigzag(get_varint(input)?))
}

/// Appends a length-prefixed byte slice.
#[inline]
pub fn put_bytes(v: &[u8], buf: &mut Vec<u8>) {
    put_varint(v.len() as u64, buf);
    buf.extend_from_slice(v);
}

/// Reads a length-prefixed byte slice written by [`put_bytes`].
///
/// # Errors
/// Returns [`DecodeError`] if the prefix or payload is truncated.
#[inline]
pub fn get_bytes<'a>(input: &mut &'a [u8]) -> Result<&'a [u8], DecodeError> {
    let len = get_varint(input)? as usize;
    if input.len() < len {
        return Err(DecodeError::new("truncated byte slice"));
    }
    let (head, tail) = input.split_at(len);
    *input = tail;
    Ok(head)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip_edges() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(v, &mut buf);
            assert_eq!(buf.len(), varint_len(v), "len mismatch for {v}");
            let mut s = buf.as_slice();
            assert_eq!(get_varint(&mut s).unwrap(), v);
            assert!(s.is_empty());
        }
    }

    #[test]
    fn varint_len_matches_encoding_for_all_bit_widths() {
        for bits in 0..64 {
            let v = 1u64 << bits;
            let mut buf = Vec::new();
            put_varint(v, &mut buf);
            assert_eq!(buf.len(), varint_len(v));
        }
    }

    #[test]
    fn signed_round_trip() {
        for v in [0i64, 1, -1, 63, -64, 64, -65, i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            put_varint_signed(v, &mut buf);
            let mut s = buf.as_slice();
            assert_eq!(get_varint_signed(&mut s).unwrap(), v);
        }
    }

    #[test]
    fn zigzag_small_magnitudes_are_short() {
        let mut buf = Vec::new();
        put_varint_signed(-1, &mut buf);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn truncated_varint_is_error() {
        let mut s: &[u8] = &[0x80];
        assert!(get_varint(&mut s).is_err());
        let mut empty: &[u8] = &[];
        assert!(get_varint(&mut empty).is_err());
    }

    #[test]
    fn overlong_varint_is_error() {
        let mut s: &[u8] = &[0xff; 11];
        assert!(get_varint(&mut s).is_err());
    }

    /// The lengths at which the inlined one- to three-byte paths hand
    /// over to the loop, plus the longest varint.
    #[test]
    fn varint_table_round_trips_across_the_inline_boundaries() {
        for (v, len) in [
            (127u64, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            ((1 << 21) - 1, 3),
            (1 << 21, 4),
            (u64::MAX, 10),
        ] {
            let mut buf = vec![0xEE];
            put_varint(v, &mut buf);
            assert_eq!(buf.len(), 1 + len, "length of {v}");
            buf.push(0xEE); // a trailing byte must stay unread
            let mut s = &buf[1..];
            assert_eq!(get_varint(&mut s).unwrap(), v);
            assert_eq!(s, [0xEE], "{v} consumed exactly its bytes");
        }
    }

    #[test]
    fn every_truncation_of_a_varint_is_an_error() {
        for v in [16_383u64, (1 << 21) - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(v, &mut buf);
            for cut in 0..buf.len() {
                let mut s = &buf[..cut];
                let err = get_varint(&mut s).unwrap_err();
                assert_eq!(
                    err,
                    DecodeError::new("truncated varint"),
                    "{v} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn eleven_byte_varint_is_an_overflow() {
        let mut bytes = [0x80u8; 11];
        bytes[10] = 0x01;
        let mut s: &[u8] = &bytes;
        assert_eq!(
            get_varint(&mut s).unwrap_err(),
            DecodeError::new("varint overflow")
        );
    }

    #[test]
    fn bytes_round_trip() {
        let mut buf = Vec::new();
        put_bytes(b"hello", &mut buf);
        put_bytes(b"", &mut buf);
        let mut s = buf.as_slice();
        assert_eq!(get_bytes(&mut s).unwrap(), b"hello");
        assert_eq!(get_bytes(&mut s).unwrap(), b"");
        assert!(s.is_empty());
    }

    #[test]
    fn truncated_bytes_is_error() {
        let mut buf = Vec::new();
        put_bytes(b"hello", &mut buf);
        buf.truncate(3);
        let mut s = buf.as_slice();
        assert!(get_bytes(&mut s).is_err());
    }
}
