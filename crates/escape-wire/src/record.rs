//! Checksummed record framing for durable storage:
//! `[u32 LE length][u32 LE CRC-32][payload]`.
//!
//! Stream framing ([`frame`](crate::frame)) trusts TCP to deliver bytes
//! intact; a write-ahead log cannot trust a disk the same way — a torn
//! write at the tail of a segment leaves a half-record that must be
//! detected, not decoded. Every record therefore carries a CRC-32 (IEEE,
//! the zlib/PNG polynomial) over its length header **and** its payload,
//! so a bit flip anywhere in the record — header included — fails the
//! checksum directly, and readers treat a length or checksum violation
//! as the end of usable log. This is the framing of `ESCWAL03` WAL
//! segments.
//!
//! The checksum runs every WAL byte once on write and once on recovery,
//! so it is computed **slicing-by-16**: sixteen compile-time tables,
//! where table `k` holds the CRC of a byte followed by `k` zero bytes,
//! fold sixteen input bytes per step with sixteen independent lookups
//! instead of sixteen dependent ones. The values are the byte-at-a-time
//! table algorithm's, bit for bit. [`write_record_with`] encodes a
//! payload straight into the output buffer and backfills the header, so
//! a record is written without an intermediate payload copy.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::WireError;

/// Default maximum record payload (64 MiB) — above any legitimate
/// snapshot or append batch, far below a corrupt length prefix.
pub const DEFAULT_MAX_RECORD: usize = 64 * 1024 * 1024;

/// Bytes of record header in front of every payload: length, then CRC.
const RECORD_HEADER: usize = 8;

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) slicing
/// tables, built at compile time: `CRC_TABLES[0]` is the classic
/// byte-at-a-time table, and `CRC_TABLES[k][b]` is the CRC state after
/// byte `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc; // lint:allow(panic): const-evaluated loop, i < 256 == table.len()
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            // lint:allow(panic): const-evaluated loop, 1 <= k < 16 and i < 256
            let prev = tables[k - 1][i];
            // lint:allow(panic): const-evaluated loop, 1 <= k < 16, i < 256, index masked to a byte
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Table `K`'s entry for the low byte of `x`.
#[inline(always)]
fn lookup<const K: usize>(x: u32) -> u32 {
    // lint:allow(panic): every caller passes a literal K < 16, and the index is masked to 0..=255
    CRC_TABLES[K][(x & 0xFF) as usize]
}

/// CRC-32 (IEEE) of `bytes` — the checksum zlib, PNG, and Ethernet use.
///
/// # Examples
///
/// ```
/// // The catalogue check value for CRC-32/ISO-HDLC.
/// assert_eq!(escape_wire::record::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    Crc32::new().update(bytes).finish()
}

/// Streaming CRC-32 (IEEE): feed any number of slices, then [`finish`].
///
/// Equivalent to [`crc32`] over the concatenation, without concatenating:
///
/// ```
/// use escape_wire::record::{crc32, Crc32};
///
/// let split = Crc32::new().update(b"1234").update(b"56789").finish();
/// assert_eq!(split, crc32(b"123456789"));
/// ```
///
/// [`finish`]: Crc32::finish
#[derive(Clone, Copy, Debug)]
pub struct Crc32(u32);

impl Crc32 {
    /// A fresh checksum state.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Crc32(u32::MAX)
    }

    /// Folds `bytes` into the checksum, sixteen bytes per step.
    #[must_use]
    pub fn update(self, bytes: &[u8]) -> Self {
        let mut crc = self.0;
        let mut blocks = bytes.chunks_exact(16);
        for block in &mut blocks {
            if let &[b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15] = block {
                let head = crc ^ u32::from_le_bytes([b0, b1, b2, b3]);
                crc = lookup::<15>(head)
                    ^ lookup::<14>(head >> 8)
                    ^ lookup::<13>(head >> 16)
                    ^ lookup::<12>(head >> 24)
                    ^ lookup::<11>(b4.into())
                    ^ lookup::<10>(b5.into())
                    ^ lookup::<9>(b6.into())
                    ^ lookup::<8>(b7.into())
                    ^ lookup::<7>(b8.into())
                    ^ lookup::<6>(b9.into())
                    ^ lookup::<5>(b10.into())
                    ^ lookup::<4>(b11.into())
                    ^ lookup::<3>(b12.into())
                    ^ lookup::<2>(b13.into())
                    ^ lookup::<1>(b14.into())
                    ^ lookup::<0>(b15.into());
            }
        }
        for &b in blocks.remainder() {
            crc = (crc >> 8) ^ lookup::<0>(crc ^ u32::from(b));
        }
        Crc32(crc)
    }

    /// The final CRC-32 value.
    pub fn finish(self) -> u32 {
        !self.0
    }
}

/// Appends `payload` framed as one checksummed record; the CRC covers
/// the 4-byte length header as well as the payload.
pub fn write_record(buf: &mut BytesMut, payload: &[u8]) {
    let len = (payload.len() as u32).to_le_bytes();
    buf.put_slice(&len);
    buf.put_u32_le(Crc32::new().update(&len).update(payload).finish());
    buf.put_slice(payload);
}

/// Appends one checksummed record whose payload `encode` writes straight
/// into `buf`: the 8-byte header is reserved first, then backfilled with
/// the payload's length and the CRC over length and payload. The bytes
/// are exactly [`write_record`]'s for the same payload.
pub fn write_record_with(buf: &mut BytesMut, encode: impl FnOnce(&mut BytesMut)) {
    let start = buf.len();
    buf.put_slice(&[0; RECORD_HEADER]);
    encode(buf);
    let (header, payload) = buf.split_at_mut(start).1.split_at_mut(RECORD_HEADER);
    let len = (payload.len() as u32).to_le_bytes();
    let crc = Crc32::new().update(&len).update(payload).finish();
    let (len_field, crc_field) = header.split_at_mut(4);
    len_field.copy_from_slice(&len);
    crc_field.copy_from_slice(&crc.to_le_bytes());
}

/// Reads the next record payload from `buf`, verifying the CRC over
/// header + payload.
///
/// Returns `Ok(None)` when `buf` is empty (clean end of log).
///
/// # Errors
///
/// * [`WireError::Truncated`] — a header or payload is cut short (torn
///   tail write).
/// * [`WireError::FrameTooLarge`] — the length prefix exceeds
///   `max_record` (corrupt header).
/// * [`WireError::ChecksumMismatch`] — the header or payload does not
///   match its CRC (corrupt or torn record).
///
/// All three mean the same thing to a WAL reader: no further records are
/// usable.
pub fn read_record(buf: &mut Bytes, max_record: usize) -> Result<Option<Bytes>, WireError> {
    if !buf.has_remaining() {
        return Ok(None);
    }
    if buf.remaining() < RECORD_HEADER {
        return Err(WireError::Truncated);
    }
    let Some(&[l0, l1, l2, l3]) = buf.get(..4) else {
        return Err(WireError::Truncated);
    };
    let len_bytes = [l0, l1, l2, l3];
    buf.advance(4);
    let len = u32::from_le_bytes(len_bytes) as usize;
    let expected = buf.get_u32_le();
    if len > max_record {
        return Err(WireError::FrameTooLarge {
            declared: len,
            limit: max_record,
        });
    }
    if buf.remaining() < len {
        return Err(WireError::Truncated);
    }
    let payload = buf.split_to(len);
    let actual = Crc32::new().update(&len_bytes).update(&payload).finish();
    if actual != expected {
        return Err(WireError::ChecksumMismatch { expected, actual });
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn records_round_trip_in_sequence() {
        let mut buf = BytesMut::new();
        write_record(&mut buf, b"first");
        write_record(&mut buf, b"");
        write_record(&mut buf, b"third-record");
        let mut bytes = buf.freeze();
        assert_eq!(
            read_record(&mut bytes, DEFAULT_MAX_RECORD).unwrap().unwrap().as_ref(),
            b"first"
        );
        assert_eq!(
            read_record(&mut bytes, DEFAULT_MAX_RECORD).unwrap().unwrap().len(),
            0
        );
        assert_eq!(
            read_record(&mut bytes, DEFAULT_MAX_RECORD).unwrap().unwrap().as_ref(),
            b"third-record"
        );
        assert_eq!(read_record(&mut bytes, DEFAULT_MAX_RECORD).unwrap(), None);
    }

    #[test]
    fn torn_tail_is_truncation() {
        let mut buf = BytesMut::new();
        write_record(&mut buf, b"whole");
        write_record(&mut buf, b"torn-away");
        let full = buf.freeze();
        // Cut the stream mid-second-record.
        let mut torn = full.slice(..full.len() - 4);
        assert!(read_record(&mut torn, DEFAULT_MAX_RECORD).unwrap().is_some());
        assert_eq!(
            read_record(&mut torn, DEFAULT_MAX_RECORD),
            Err(WireError::Truncated)
        );
    }

    /// A flip in the stored CRC itself, not in what it covers.
    #[test]
    fn flipped_bit_is_checksum_mismatch() {
        let mut buf = BytesMut::new();
        write_record(&mut buf, b"payload-bytes");
        let mut raw = buf.to_vec();
        raw[4] ^= 0x01;
        let mut bytes = Bytes::from(raw);
        assert!(matches!(
            read_record(&mut bytes, DEFAULT_MAX_RECORD),
            Err(WireError::ChecksumMismatch { .. })
        ));
    }

    /// The `ESCWAL02` layout, byte for byte: the CRC runs over the length
    /// header and the payload.
    #[test]
    fn v2_records_round_trip_in_sequence() {
        let mut buf = BytesMut::new();
        write_record(&mut buf, b"abc");
        let len = 3u32.to_le_bytes();
        let crc = Crc32::new().update(&len).update(b"abc").finish();
        let expected: Vec<u8> = [&len[..], &crc.to_le_bytes(), b"abc"].concat();
        assert_eq!(buf.as_ref(), expected.as_slice());
        let mut bytes = buf.freeze();
        assert_eq!(
            read_record(&mut bytes, DEFAULT_MAX_RECORD).unwrap().unwrap().as_ref(),
            b"abc"
        );
        assert_eq!(read_record(&mut bytes, DEFAULT_MAX_RECORD).unwrap(), None);
    }

    /// Why the CRC covers the header: a bit flip in the *length header*
    /// that still frames inside the buffer — which a payload-only CRC
    /// cannot reliably catch — fails the checksum directly.
    #[test]
    fn v2_header_flip_is_checksum_mismatch() {
        let payload = b"header-guarded"; // 14 bytes, length prefix 0x0E
        let mut buf = BytesMut::new();
        write_record(&mut buf, payload);
        let mut raw = buf.to_vec();
        raw[0] ^= 0x08; // declared length becomes 6: frames inside the 14 bytes
        let mut bytes = Bytes::from(raw);
        match read_record(&mut bytes, DEFAULT_MAX_RECORD) {
            Err(WireError::ChecksumMismatch { .. }) => {}
            other => panic!("an in-buffer header misframe must fail the CRC, got {other:?}"),
        }
        // Control: the intact record still reads, so the flip (not the
        // format) is what fired.
        let mut intact = buf.freeze();
        assert_eq!(
            read_record(&mut intact, DEFAULT_MAX_RECORD).unwrap().unwrap().as_ref(),
            payload
        );
    }

    #[test]
    fn v2_payload_flip_is_checksum_mismatch() {
        let mut buf = BytesMut::new();
        write_record(&mut buf, b"payload-bytes");
        let mut raw = buf.to_vec();
        let last = raw.len() - 1;
        raw[last] ^= 0x01;
        let mut bytes = Bytes::from(raw);
        assert!(matches!(
            read_record(&mut bytes, DEFAULT_MAX_RECORD),
            Err(WireError::ChecksumMismatch { .. })
        ));
    }

    /// The byte-at-a-time table loop the slicing tables replaced: the
    /// oracle every slicing-by-16 result is checked against.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    /// Deterministic pseudo-random bytes (xorshift), so every table and
    /// every byte value takes part.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn oracle_matches_reference_vectors() {
        assert_eq!(crc32_bytewise(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    /// Every length across the 16-byte block boundary, plus a page and a
    /// batch-sized buffer, at every start alignment 0–7.
    #[test]
    fn slicing_crc_matches_bytewise_oracle() {
        let data = noise(32 * 1024 + 8);
        let lengths = (0..=300).chain([4 * 1024, 32 * 1024]);
        for len in lengths {
            for offset in 0..8 {
                let slice = &data[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "length {len} at offset {offset}"
                );
            }
        }
    }

    /// A streamed checksum equals the one-shot oracle wherever the
    /// stream is split, including splits inside a 16-byte block.
    #[test]
    fn streaming_splits_match_bytewise_oracle() {
        let data = noise(700);
        let whole = crc32_bytewise(&data);
        for first in 0..=data.len() {
            let (a, rest) = data.split_at(first);
            assert_eq!(Crc32::new().update(a).update(rest).finish(), whole, "split at {first}");
        }
        for first in (0..300).step_by(7) {
            for second in (first..first + 40).step_by(3) {
                let crc = Crc32::new()
                    .update(&data[..first])
                    .update(&data[first..second])
                    .update(&data[second..])
                    .finish();
                assert_eq!(crc, whole, "splits at {first} and {second}");
            }
        }
    }

    /// The in-place writer frames byte for byte what the copying writer
    /// does, and both match the layout checksummed by the oracle,
    /// whatever is already in the buffer.
    #[test]
    fn in_place_records_equal_copied_records() {
        let data = noise(1000);
        for len in [0, 1, 15, 16, 17, 250, 1000] {
            let payload = &data[..len];
            let header = (len as u32).to_le_bytes();
            let crc = crc32_bytewise(&[&header[..], payload].concat());
            let expected = [&b"prefix"[..], &header, &crc.to_le_bytes(), payload].concat();
            let mut copied = BytesMut::from(&b"prefix"[..]);
            write_record(&mut copied, payload);
            assert_eq!(copied.as_ref(), expected.as_slice(), "payload length {len}");
            let mut in_place = BytesMut::from(&b"prefix"[..]);
            write_record_with(&mut in_place, |buf| buf.put_slice(payload));
            assert_eq!(in_place.as_ref(), expected.as_slice(), "payload length {len}");
        }
    }

    #[test]
    fn streaming_crc_matches_one_shot() {
        let whole = crc32(b"The quick brown fox jumps over the lazy dog");
        let split = Crc32::new()
            .update(b"The quick brown fox ")
            .update(b"")
            .update(b"jumps over the lazy dog")
            .finish();
        assert_eq!(whole, split);
    }

    #[test]
    fn hostile_length_is_rejected() {
        let mut raw = BytesMut::new();
        raw.put_u32_le(u32::MAX);
        raw.put_u32_le(0);
        let mut bytes = raw.freeze();
        assert!(matches!(
            read_record(&mut bytes, 1024),
            Err(WireError::FrameTooLarge { .. })
        ));
    }
}
