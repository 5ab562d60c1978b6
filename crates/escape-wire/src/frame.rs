//! Stream framing: `[u32 little-endian length][payload]`.
//!
//! A [`FrameReader`] incrementally consumes stream bytes (as delivered by a
//! TCP socket) and yields complete payloads; a frame-length cap rejects
//! corrupt or hostile length prefixes before allocating.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::WireError;

/// Default maximum frame payload (16 MiB) — far above any legitimate
/// `AppendEntries` batch.
pub const DEFAULT_MAX_FRAME: usize = 16 * 1024 * 1024;

/// Wraps `payload` in a length-prefixed frame.
pub fn write_frame(buf: &mut BytesMut, payload: &[u8]) {
    buf.put_u32_le(payload.len() as u32);
    buf.put_slice(payload);
}

/// Appends one frame whose payload `encode` writes straight into `buf`:
/// the length prefix is reserved first and backfilled, so the payload is
/// never built in a buffer of its own and copied. The bytes are exactly
/// [`write_frame`]'s for the same payload.
pub fn write_frame_with(buf: &mut BytesMut, encode: impl FnOnce(&mut BytesMut)) {
    let start = buf.len();
    buf.put_u32_le(0);
    encode(buf);
    let (prefix, payload) = buf.split_at_mut(start).1.split_at_mut(4);
    prefix.copy_from_slice(&(payload.len() as u32).to_le_bytes());
}

/// Incremental frame parser for byte streams.
///
/// # Examples
///
/// ```
/// use bytes::BytesMut;
/// use escape_wire::frame::{write_frame, FrameReader};
///
/// let mut wire = BytesMut::new();
/// write_frame(&mut wire, b"hello");
/// write_frame(&mut wire, b"world");
///
/// let mut reader = FrameReader::new();
/// reader.extend(&wire);
/// assert_eq!(reader.next_frame().unwrap().unwrap().as_ref(), b"hello");
/// assert_eq!(reader.next_frame().unwrap().unwrap().as_ref(), b"world");
/// assert!(reader.next_frame().unwrap().is_none());
/// ```
#[derive(Debug, Default)]
pub struct FrameReader {
    buffer: BytesMut,
    max_frame: usize,
}

impl FrameReader {
    /// A reader with the default frame cap.
    pub fn new() -> Self {
        FrameReader {
            buffer: BytesMut::new(),
            max_frame: DEFAULT_MAX_FRAME,
        }
    }

    /// A reader with a custom frame cap.
    pub fn with_max_frame(max_frame: usize) -> Self {
        FrameReader {
            buffer: BytesMut::new(),
            max_frame,
        }
    }

    /// Feeds stream bytes into the parser.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buffer.extend_from_slice(bytes);
    }

    /// Pops the next complete frame payload, `Ok(None)` if more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// [`WireError::FrameTooLarge`] if a length prefix exceeds the cap; the
    /// stream is unrecoverable after that.
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, WireError> {
        let Some(&[b0, b1, b2, b3]) = self.buffer.get(..4) else {
            return Ok(None); // prefix not complete yet
        };
        let declared = u32::from_le_bytes([b0, b1, b2, b3]) as usize;
        if declared > self.max_frame {
            return Err(WireError::FrameTooLarge {
                declared,
                limit: self.max_frame,
            });
        }
        if self.buffer.len() < 4 + declared {
            return Ok(None);
        }
        self.buffer.advance(4);
        Ok(Some(self.buffer.split_to(declared).freeze()))
    }

    /// Bytes buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_split_across_arbitrary_chunks() {
        let mut wire = BytesMut::new();
        write_frame(&mut wire, b"alpha");
        write_frame(&mut wire, b"bravo-charlie");
        let wire = wire.freeze();

        // Feed one byte at a time: parsing must still work.
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        for byte in wire.iter() {
            reader.extend(&[*byte]);
            while let Some(frame) = reader.next_frame().unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].as_ref(), b"alpha");
        assert_eq!(got[1].as_ref(), b"bravo-charlie");
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn in_place_frames_equal_copied_frames() {
        for payload in [&b""[..], b"x", b"bravo-charlie"] {
            let mut copied = BytesMut::from(&b"head"[..]);
            write_frame(&mut copied, payload);
            let mut in_place = BytesMut::from(&b"head"[..]);
            write_frame_with(&mut in_place, |buf| buf.put_slice(payload));
            assert_eq!(in_place, copied);
        }
    }

    #[test]
    fn empty_frame_is_legal() {
        let mut wire = BytesMut::new();
        write_frame(&mut wire, b"");
        let mut reader = FrameReader::new();
        reader.extend(&wire);
        assert_eq!(reader.next_frame().unwrap().unwrap().len(), 0);
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        let mut reader = FrameReader::with_max_frame(1024);
        reader.extend(&(u32::MAX).to_le_bytes());
        match reader.next_frame() {
            Err(WireError::FrameTooLarge { declared, limit }) => {
                assert_eq!(declared, u32::MAX as usize);
                assert_eq!(limit, 1024);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn partial_header_waits_for_more() {
        let mut reader = FrameReader::new();
        reader.extend(&[5, 0]);
        assert_eq!(reader.next_frame().unwrap(), None);
        reader.extend(&[0, 0]);
        assert_eq!(reader.next_frame().unwrap(), None); // header done, no body
        reader.extend(b"hello");
        assert_eq!(reader.next_frame().unwrap().unwrap().as_ref(), b"hello");
    }
}
