//! Length-prefixed, CRC-framed binary wire format.
//!
//! Every frame on the wire is
//!
//! ```text
//! [magic u16 LE][version u8][kind u8][len u32 LE][payload: len bytes][crc u32 LE]
//! ```
//!
//! — an 8-byte header, the payload, and a CRC-32 trailer computed over
//! header *and* payload by the plfd journal's
//! [`crc32`](plfd::journal::crc32), so a flipped bit anywhere in the
//! frame is caught. `len`
//! counts payload bytes only and is bounded by [`MAX_PAYLOAD`]; a
//! larger prefix is rejected *before* any allocation, so a corrupt or
//! hostile length cannot balloon memory.
//!
//! [`FrameDecoder`] is incremental: feed it whatever the socket
//! yielded and pop complete frames. Torn frames (header or body still
//! in flight) simply wait for more bytes; only structural violations —
//! bad magic, version skew, oversized length, CRC mismatch, unknown
//! kind — surface as [`FrameError`]s, after which the connection is
//! unsynchronized and must be closed.
//!
//! Payload records are read and written through [`WireWriter`] /
//! [`WireReader`]: fixed-width little-endian integers and
//! length-prefixed UTF-8 strings. The reader is total — every
//! accessor returns `Result`, no slice indexing — because this code
//! sits on the `plf-lint` L8 service path where a panic kills a
//! connection multiplexing thousands of clients.

use plfd::journal::crc32;
use std::fmt;

/// Frame magic: `"PL"` little-endian.
pub const MAGIC: u16 = 0x4C50;

/// Wire protocol version carried in every frame header.
pub const PROTOCOL_VERSION: u8 = 1;

/// Hard bound on one frame's payload (1 MiB) — larger length prefixes
/// are structural errors, not allocation requests.
pub const MAX_PAYLOAD: u32 = 1 << 20;

/// Bytes in the fixed frame header.
pub const HEADER_LEN: usize = 8;

/// Bytes in the CRC trailer.
pub const TRAILER_LEN: usize = 4;

/// Frame discriminator: requests flow client → server, responses
/// server → client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Server → client, sent once on accept: dataset shape and queue
    /// geometry, so a remote client needs no local copy of the
    /// alignment.
    ServerInfo = 0x01,
    /// Client → server: submit one evaluation job.
    Submit = 0x02,
    /// Client → server: cancel a previously submitted job.
    Cancel = 0x03,
    /// Server → client: job completed with a log-likelihood.
    Completed = 0x10,
    /// Server → client: evaluation failed.
    Failed = 0x11,
    /// Server → client: job cancelled before evaluation.
    Cancelled = 0x12,
    /// Server → client: deadline passed before evaluation started.
    DeadlineMissed = 0x13,
    /// Server → client: admission refused; carries the reason and the
    /// same retry-after / jobs-ahead hints the in-process
    /// `SubmitError` exposes.
    Reject = 0x14,
    /// Server → client: request-level error (malformed payload,
    /// unparseable tree, journal failure).
    Error = 0x15,
    /// Server → client: graceful drain has begun — in-flight jobs
    /// still resolve, new submissions will be rejected.
    Draining = 0x16,
}

impl FrameKind {
    /// Decode the header's kind byte.
    pub fn from_u8(b: u8) -> Option<FrameKind> {
        Some(match b {
            0x01 => FrameKind::ServerInfo,
            0x02 => FrameKind::Submit,
            0x03 => FrameKind::Cancel,
            0x10 => FrameKind::Completed,
            0x11 => FrameKind::Failed,
            0x12 => FrameKind::Cancelled,
            0x13 => FrameKind::DeadlineMissed,
            0x14 => FrameKind::Reject,
            0x15 => FrameKind::Error,
            0x16 => FrameKind::Draining,
            _ => return None,
        })
    }
}

/// Structural framing violation; the stream is unsynchronized after
/// any of these and the connection must be closed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Header magic was not [`MAGIC`].
    BadMagic(u16),
    /// Header carried a protocol version this build does not speak.
    VersionSkew(u8),
    /// Length prefix exceeded [`MAX_PAYLOAD`].
    Oversized(u32),
    /// CRC trailer did not match header + payload.
    CrcMismatch {
        /// CRC carried on the wire.
        got: u32,
        /// CRC computed over the received bytes.
        want: u32,
    },
    /// Kind byte named no known frame type.
    UnknownKind(u8),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            FrameError::VersionSkew(v) => write!(
                f,
                "protocol version {v} (this build speaks {PROTOCOL_VERSION})"
            ),
            FrameError::Oversized(n) => {
                write!(f, "length prefix {n} exceeds max payload {MAX_PAYLOAD}")
            }
            FrameError::CrcMismatch { got, want } => {
                write!(f, "frame CRC mismatch (wire {got:#010x}, computed {want:#010x})")
            }
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
        }
    }
}

/// Encode one complete frame (header + payload + CRC trailer).
pub fn encode_frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(PROTOCOL_VERSION);
    out.push(kind as u8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// One decoded frame plus its on-wire size (for byte accounting).
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Frame discriminator from the header.
    pub kind: FrameKind,
    /// Payload bytes (header and CRC stripped).
    pub payload: Vec<u8>,
    /// Total bytes the frame occupied on the wire.
    pub wire_len: usize,
}

fn le_u16(b: &[u8]) -> Option<u16> {
    let arr: [u8; 2] = b.get(..2)?.try_into().ok()?;
    Some(u16::from_le_bytes(arr))
}

fn le_u32(b: &[u8]) -> Option<u32> {
    let arr: [u8; 4] = b.get(..4)?.try_into().ok()?;
    Some(u32::from_le_bytes(arr))
}

/// Incremental frame decoder: buffer socket reads with
/// [`FrameDecoder::feed`], pop complete frames with
/// [`FrameDecoder::next_frame`].
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    poisoned: Option<FrameError>,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Append bytes read off the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (torn frame in flight).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pop the next complete frame. `Ok(None)` means the buffer holds
    /// only a torn prefix — feed more bytes. Any `Err` poisons the
    /// decoder: the stream is unsynchronized and every later call
    /// repeats the error.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        if let Some(err) = &self.poisoned {
            return Err(err.clone());
        }
        match self.parse_next() {
            Ok(frame) => Ok(frame),
            Err(err) => {
                self.poisoned = Some(err.clone());
                Err(err)
            }
        }
    }

    fn parse_next(&mut self) -> Result<Option<Frame>, FrameError> {
        // Header first: validate magic/version/length *before* waiting
        // for the body, so garbage fails fast instead of stalling.
        let Some(magic) = le_u16(&self.buf) else {
            return Ok(None);
        };
        if magic != MAGIC {
            return Err(FrameError::BadMagic(magic));
        }
        let Some(&version) = self.buf.get(2) else {
            return Ok(None);
        };
        if version != PROTOCOL_VERSION {
            return Err(FrameError::VersionSkew(version));
        }
        let Some(&kind_byte) = self.buf.get(3) else {
            return Ok(None);
        };
        let Some(len) = self.buf.get(4..).and_then(le_u32) else {
            return Ok(None);
        };
        if len > MAX_PAYLOAD {
            return Err(FrameError::Oversized(len));
        }
        let Some(kind) = FrameKind::from_u8(kind_byte) else {
            return Err(FrameError::UnknownKind(kind_byte));
        };
        let total = HEADER_LEN + len as usize + TRAILER_LEN;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body_end = HEADER_LEN + len as usize;
        let want = self.buf.get(..body_end).map(crc32).unwrap_or(0);
        let got = self.buf.get(body_end..).and_then(le_u32).unwrap_or(0);
        if got != want {
            return Err(FrameError::CrcMismatch { got, want });
        }
        let payload = self
            .buf
            .get(HEADER_LEN..body_end)
            .map(<[u8]>::to_vec)
            .unwrap_or_default();
        self.buf.drain(..total);
        Ok(Some(Frame {
            kind,
            payload,
            wire_len: total,
        }))
    }
}

/// Payload-record decode failure (framing was intact, the record
/// inside was not).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Record ended before the field did.
    Truncated,
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A tag byte named no known variant.
    BadTag(u8),
    /// Bytes remained after the record's last field.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "record truncated mid-field"),
            WireError::BadUtf8 => write!(f, "string field is not UTF-8"),
            WireError::BadTag(t) => write!(f, "unknown record tag {t:#04x}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after record"),
        }
    }
}

/// Append-only payload builder: fixed-width little-endian integers and
/// `u32`-length-prefixed UTF-8 strings.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> WireWriter {
        WireWriter::default()
    }

    /// Finish and take the payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its little-endian bit pattern (bit-exact
    /// round-trip; the service's bit-identity guarantee extends over
    /// the wire).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a `u32`-length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Cursor over a payload record; every accessor is total (`Result`,
/// no indexing) so malformed payloads surface as protocol errors, not
/// panics on the service path.
#[derive(Debug)]
pub struct WireReader<'a> {
    rest: &'a [u8],
}

impl<'a> WireReader<'a> {
    /// Read from the start of `payload`.
    pub fn new(payload: &'a [u8]) -> WireReader<'a> {
        WireReader { rest: payload }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let head = self.rest.get(..n).ok_or(WireError::Truncated)?;
        self.rest = self.rest.get(n..).unwrap_or(&[]);
        Ok(head)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?.first().copied().unwrap_or(0))
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let arr: [u8; 4] = self.take(4)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u32::from_le_bytes(arr))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        let arr: [u8; 8] = self.take(8)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u64::from_le_bytes(arr))
    }

    /// Read an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a `u32`-length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, WireError> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    /// Error unless the record was fully consumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.rest.len()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let wire = encode_frame(FrameKind::Submit, b"hello");
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        let f = dec.next_frame().expect("decode").expect("complete");
        assert_eq!(f.kind, FrameKind::Submit);
        assert_eq!(f.payload, b"hello");
        assert_eq!(f.wire_len, wire.len());
        assert_eq!(dec.next_frame().expect("decode"), None);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn torn_frames_wait_for_more_bytes() {
        let wire = encode_frame(FrameKind::Completed, &[7u8; 100]);
        let mut dec = FrameDecoder::new();
        // Byte-at-a-time delivery: no error, no frame, until the last
        // byte lands.
        for (i, b) in wire.iter().enumerate() {
            dec.feed(&[*b]);
            let got = dec.next_frame().expect("no structural error");
            if i + 1 < wire.len() {
                assert!(got.is_none(), "frame surfaced early at byte {i}");
            } else {
                assert_eq!(got.expect("complete").payload, vec![7u8; 100]);
            }
        }
    }

    #[test]
    fn two_frames_in_one_feed() {
        let mut wire = encode_frame(FrameKind::Submit, b"a");
        wire.extend_from_slice(&encode_frame(FrameKind::Cancel, b"b"));
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        assert_eq!(dec.next_frame().unwrap().unwrap().kind, FrameKind::Submit);
        assert_eq!(dec.next_frame().unwrap().unwrap().kind, FrameKind::Cancel);
        assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn bad_magic_is_structural() {
        let mut dec = FrameDecoder::new();
        dec.feed(b"GET / HTTP/1.1\r\n");
        assert!(matches!(dec.next_frame(), Err(FrameError::BadMagic(_))));
        // Poisoned: the error repeats rather than resynchronizing.
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn version_skew_is_structural() {
        let mut wire = encode_frame(FrameKind::Submit, b"x");
        if let Some(v) = wire.get_mut(2) {
            *v = PROTOCOL_VERSION + 1;
        }
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::VersionSkew(PROTOCOL_VERSION + 1))
        );
    }

    #[test]
    fn oversized_length_rejected_before_body_arrives() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC.to_le_bytes());
        wire.push(PROTOCOL_VERSION);
        wire.push(FrameKind::Submit as u8);
        wire.extend_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        // Only the 8-byte header arrived; the bogus length is refused
        // without waiting for (or allocating) the claimed body.
        assert_eq!(dec.next_frame(), Err(FrameError::Oversized(MAX_PAYLOAD + 1)));
    }

    #[test]
    fn crc_mismatch_detected() {
        let mut wire = encode_frame(FrameKind::Submit, b"payload");
        if let Some(b) = wire.get_mut(HEADER_LEN + 2) {
            *b ^= 0x40;
        }
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        assert!(matches!(dec.next_frame(), Err(FrameError::CrcMismatch { .. })));
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut wire = encode_frame(FrameKind::Submit, b"");
        if let Some(k) = wire.get_mut(3) {
            *k = 0x7F;
        }
        // Re-CRC so the kind byte is the only violation.
        let body_end = wire.len() - TRAILER_LEN;
        let crc = crc32(&wire[..body_end]).to_le_bytes();
        wire.truncate(body_end);
        wire.extend_from_slice(&crc);
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        assert_eq!(dec.next_frame(), Err(FrameError::UnknownKind(0x7F)));
    }

    #[test]
    fn wire_reader_is_total() {
        let mut w = WireWriter::new();
        w.put_u8(3);
        w.put_u32(1234);
        w.put_u64(u64::MAX);
        w.put_f64(-1234.5678);
        w.put_str("tenant-a");
        let bytes = w.into_bytes();

        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 3);
        assert_eq!(r.get_u32().unwrap(), 1234);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-1234.5678f64).to_bits());
        assert_eq!(r.get_str().unwrap(), "tenant-a");
        r.finish().unwrap();

        // Truncation surfaces as an error, never a panic.
        let mut r = WireReader::new(bytes.get(..3).unwrap());
        assert_eq!(r.get_u32(), Err(WireError::Truncated));

        // Non-UTF-8 string payload.
        let mut w = WireWriter::new();
        w.put_u32(2);
        let mut bad = w.into_bytes();
        bad.extend_from_slice(&[0xFF, 0xFE]);
        let mut r = WireReader::new(&bad);
        assert_eq!(r.get_str(), Err(WireError::BadUtf8));

        // Trailing garbage is flagged by finish().
        let r = WireReader::new(&[0u8; 4]);
        assert_eq!(r.finish(), Err(WireError::TrailingBytes(4)));
    }
}
