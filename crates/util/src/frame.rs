//! Versioned, CRC-framed binary state serialization.
//!
//! The recovery layer (durable session snapshots and the event WAL in
//! `evlab-serve`) needs a binary format with three properties the JSON
//! module cannot give it: **bit-exactness** (an `f64` pool accumulator or
//! an `f32` membrane potential must restore to the identical bit
//! pattern, or replay diverges), **integrity** (a torn or bit-flipped
//! file must be *detected*, never silently half-loaded), and **torn-tail
//! tolerance** (a log whose producer died mid-append must yield its
//! clean prefix). This module provides those primitives; the state
//! owners above implement [`StateSnapshot`] over them.
//!
//! # Formats
//!
//! A **snapshot** file ([`snapshot_to_bytes`] / [`restore_from_bytes`]):
//!
//! ```text
//! magic "EVCK" | format version u16 | kind (len-prefixed str)
//! | state version u16 | payload len u64 | payload | crc32
//! ```
//!
//! The trailing CRC-32 (IEEE) covers every byte before it, so any
//! truncation or corruption anywhere in the file fails validation as a
//! whole — a snapshot is valid in full or not at all.
//!
//! A **record** stream ([`write_record`] / [`RecordCursor`]), the framing
//! under the write-ahead log:
//!
//! ```text
//! record := payload len u32 | payload | crc32(payload)
//! ```
//!
//! Records are self-delimiting and individually checksummed: a reader
//! walks the stream record by record and stops at the first frame that
//! is short or fails its CRC — the torn tail a crash mid-append leaves
//! behind ([`RecordError::TornTail`]). Everything before it is intact by
//! construction.
//!
//! All integers are little-endian; floats are serialized as their IEEE
//! bit patterns, so round-trips are bit-exact (NaN payloads included).
//!
//! # Examples
//!
//! ```
//! use evlab_util::frame::{Decoder, Encoder, FrameError, StateSnapshot};
//!
//! struct Counter(u64);
//! impl StateSnapshot for Counter {
//!     fn state_kind(&self) -> &'static str { "counter" }
//!     fn save_state(&self, enc: &mut Encoder) { enc.put_u64(self.0); }
//!     fn load_state(&mut self, dec: &mut Decoder) -> Result<(), FrameError> {
//!         self.0 = dec.take_u64()?;
//!         Ok(())
//!     }
//! }
//!
//! let saved = evlab_util::frame::snapshot_to_bytes(&Counter(41));
//! let mut restored = Counter(0);
//! evlab_util::frame::restore_from_bytes(&mut restored, &saved).unwrap();
//! assert_eq!(restored.0, 41);
//! ```

use crate::EvlabError;
use std::fmt;

/// Snapshot file magic: `EVCK` (evlab checkpoint).
pub const MAGIC: [u8; 4] = *b"EVCK";
/// Current snapshot container format version.
pub const VERSION: u16 = 1;

/// Bytes of framing overhead per record (length prefix + CRC).
pub const RECORD_OVERHEAD: usize = 4 + 4;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320).
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `bytes` — the checksum zlib/PNG/Ethernet use.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Continues a CRC-32 over another chunk; start from `0xFFFF_FFFF` and
/// finish by XOR-ing with `0xFFFF_FFFF` (what [`crc32`] does in one go).
pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    let mut c = state;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

// ---------------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------------

/// Why a snapshot failed to decode or validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The magic bytes did not match [`MAGIC`].
    BadMagic {
        /// The bytes found instead.
        found: [u8; 4],
    },
    /// Unsupported container format version.
    BadVersion {
        /// The version found.
        found: u16,
    },
    /// The snapshot holds state of a different kind than the target.
    KindMismatch {
        /// The target's [`StateSnapshot::state_kind`].
        expected: String,
        /// The kind recorded in the snapshot.
        found: String,
    },
    /// The snapshot's state version differs from the target's.
    StateVersionMismatch {
        /// The target's [`StateSnapshot::state_version`].
        expected: u16,
        /// The version recorded in the snapshot.
        found: u16,
    },
    /// The trailing checksum did not match the content.
    CrcMismatch {
        /// Checksum recorded in the file.
        expected: u32,
        /// Checksum computed over the content.
        found: u32,
    },
    /// The buffer ended before the structure was complete.
    Truncated {
        /// Byte offset at which more data was needed.
        offset: usize,
    },
    /// A decoded value violated a structural invariant (bad enum tag,
    /// impossible length, state-shape mismatch against the live target).
    Corrupt {
        /// Byte offset of the offending value (best effort).
        offset: usize,
        /// What was violated.
        what: String,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic { found } => {
                write!(f, "bad snapshot magic {found:?}, expected {MAGIC:?}")
            }
            FrameError::BadVersion { found } => {
                write!(f, "unsupported snapshot format version {found}")
            }
            FrameError::KindMismatch { expected, found } => {
                write!(f, "snapshot holds `{found}` state, target is `{expected}`")
            }
            FrameError::StateVersionMismatch { expected, found } => {
                write!(f, "snapshot state version {found}, target expects {expected}")
            }
            FrameError::CrcMismatch { expected, found } => write!(
                f,
                "snapshot checksum mismatch: file says {expected:#010x}, content is {found:#010x}"
            ),
            FrameError::Truncated { offset } => {
                write!(f, "snapshot truncated at byte {offset}")
            }
            FrameError::Corrupt { offset, what } => {
                write!(f, "corrupt snapshot at byte {offset}: {what}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<FrameError> for EvlabError {
    fn from(e: FrameError) -> Self {
        EvlabError::frame(e)
    }
}

/// Why walking a record stream stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// The stream ends in an incomplete or checksum-failing record — the
    /// signature a crash mid-append leaves. Every record before `offset`
    /// was intact.
    TornTail {
        /// Byte offset of the first unusable record.
        offset: usize,
        /// Why the record was unusable.
        reason: TornReason,
    },
}

/// How the tail record was unusable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornReason {
    /// Fewer bytes remain than a record header needs.
    ShortHeader,
    /// The length prefix promises more payload than the stream holds.
    ShortPayload,
    /// The record's checksum failed (partial or bit-flipped write).
    BadCrc,
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::TornTail { offset, reason } => {
                let why = match reason {
                    TornReason::ShortHeader => "short header",
                    TornReason::ShortPayload => "short payload",
                    TornReason::BadCrc => "checksum failure",
                };
                write!(f, "torn record at byte {offset}: {why}")
            }
        }
    }
}

impl std::error::Error for RecordError {}

// ---------------------------------------------------------------------------
// Encoder / Decoder primitives.
// ---------------------------------------------------------------------------

/// Little-endian byte-buffer writer for snapshot payloads.
#[derive(Debug, Clone, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the encoder, returning its buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f32` as its IEEE bit pattern (bit-exact round trip).
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Appends an `f64` as its IEEE bit pattern (bit-exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends an optional `u64` (presence byte + value).
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.put_u8(1);
                self.put_u64(x);
            }
            None => self.put_u8(0),
        }
    }

    /// Appends a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Appends a length-prefixed `f32` slice, bit patterns verbatim.
    pub fn put_f32_slice(&mut self, v: &[f32]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_f32(x);
        }
    }

    /// Appends a length-prefixed `f64` slice, bit patterns verbatim.
    pub fn put_f64_slice(&mut self, v: &[f64]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_f64(x);
        }
    }

    /// Appends a length-prefixed `u64` slice.
    pub fn put_u64_slice(&mut self, v: &[u64]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_u64(x);
        }
    }

    /// Appends a length-prefixed `u32` slice.
    pub fn put_u32_slice(&mut self, v: &[u32]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_u32(x);
        }
    }
}

/// Cursor over a snapshot payload; every `take_*` is bounds-checked and
/// returns [`FrameError::Truncated`] instead of panicking on short input.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// A [`FrameError::Corrupt`] anchored at the current offset — for
    /// `load_state` implementations to report structural violations.
    pub fn corrupt(&self, what: impl Into<String>) -> FrameError {
        FrameError::Corrupt {
            offset: self.pos,
            what: what.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.remaining() < n {
            return Err(FrameError::Truncated { offset: self.pos });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`FrameError::Truncated`] if the buffer is exhausted; likewise for
    /// every other `take_*`.
    pub fn take_u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    pub fn take_u16(&mut self) -> Result<u16, FrameError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a `u32`.
    pub fn take_u32(&mut self) -> Result<u32, FrameError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64`.
    pub fn take_u64(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads an `i64`.
    pub fn take_i64(&mut self) -> Result<i64, FrameError> {
        Ok(self.take_u64()? as i64)
    }

    /// Reads an `f32` from its IEEE bit pattern.
    pub fn take_f32(&mut self) -> Result<f32, FrameError> {
        Ok(f32::from_bits(self.take_u32()?))
    }

    /// Reads an `f64` from its IEEE bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a bool; any byte other than 0/1 is corruption.
    pub fn take_bool(&mut self) -> Result<bool, FrameError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(FrameError::Corrupt {
                offset: self.pos - 1,
                what: format!("bool byte {other}"),
            }),
        }
    }

    /// Reads an optional `u64` written by [`Encoder::put_opt_u64`].
    pub fn take_opt_u64(&mut self) -> Result<Option<u64>, FrameError> {
        if self.take_bool()? {
            Ok(Some(self.take_u64()?))
        } else {
            Ok(None)
        }
    }

    /// Reads a length-prefixed byte slice. The length is validated
    /// against the remaining buffer before any allocation, so a corrupt
    /// length cannot trigger an absurd reservation.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], FrameError> {
        let len = self.take_len()?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<&'a str, FrameError> {
        let at = self.pos;
        std::str::from_utf8(self.take_bytes()?).map_err(|_| FrameError::Corrupt {
            offset: at,
            what: "invalid UTF-8 in string".to_string(),
        })
    }

    /// Reads a length prefix, bounded by the remaining bytes.
    fn take_len(&mut self) -> Result<usize, FrameError> {
        let at = self.pos;
        let len = self.take_u64()?;
        if len > self.remaining() as u64 {
            return Err(FrameError::Corrupt {
                offset: at,
                what: format!("length {len} exceeds remaining {} bytes", self.remaining()),
            });
        }
        Ok(len as usize)
    }

    /// Reads a length prefix for multi-byte elements, validating
    /// `count * size` against the remaining bytes.
    fn take_count(&mut self, size: usize) -> Result<usize, FrameError> {
        let at = self.pos;
        let n = self.take_u64()?;
        if n.saturating_mul(size as u64) > self.remaining() as u64 {
            return Err(FrameError::Corrupt {
                offset: at,
                what: format!("{n} elements of {size} bytes exceed the remaining buffer"),
            });
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed `f32` slice.
    pub fn take_f32_vec(&mut self) -> Result<Vec<f32>, FrameError> {
        let n = self.take_count(4)?;
        (0..n).map(|_| self.take_f32()).collect()
    }

    /// Reads a length-prefixed `f64` slice.
    pub fn take_f64_vec(&mut self) -> Result<Vec<f64>, FrameError> {
        let n = self.take_count(8)?;
        (0..n).map(|_| self.take_f64()).collect()
    }

    /// Reads a length-prefixed `u64` slice.
    pub fn take_u64_vec(&mut self) -> Result<Vec<u64>, FrameError> {
        let n = self.take_count(8)?;
        (0..n).map(|_| self.take_u64()).collect()
    }

    /// Reads a length-prefixed `u32` slice.
    pub fn take_u32_vec(&mut self) -> Result<Vec<u32>, FrameError> {
        let n = self.take_count(4)?;
        (0..n).map(|_| self.take_u32()).collect()
    }
}

// ---------------------------------------------------------------------------
// The snapshot trait and container.
// ---------------------------------------------------------------------------

/// Session state that can round-trip through the snapshot container.
///
/// Implementors serialize only their **session-mutable** state —
/// construction parameters (weights, configs, resolutions) are supplied
/// by whoever builds the target object before `load_state`, and
/// `load_state` must validate that the serialized shapes match the live
/// object rather than trusting the bytes.
///
/// The contract is bit-exactness: `save_state` then `load_state` into an
/// identically-constructed object must leave it behaviourally identical
/// to the original — every future output bit-for-bit the same. In
/// particular an object must load back its own save:
/// [`restore_from_bytes`] relies on that to undo a rejected restore.
pub trait StateSnapshot {
    /// Short identifier of the state's type (e.g. `"snn-online"`);
    /// recorded in the container and verified on restore.
    fn state_kind(&self) -> &'static str;

    /// Version of this implementor's payload layout; bump on layout
    /// changes. Verified on restore.
    fn state_version(&self) -> u16 {
        1
    }

    /// Serializes the session-mutable state into `enc`.
    fn save_state(&self, enc: &mut Encoder);

    /// Restores state serialized by [`StateSnapshot::save_state`],
    /// replacing the target's current session state.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] if the payload is truncated, corrupt, or
    /// shaped for a differently-constructed object.
    fn load_state(&mut self, dec: &mut Decoder) -> Result<(), FrameError>;
}

/// Serializes `state` into a self-validating snapshot container
/// (magic, versions, kind, payload, trailing CRC-32).
pub fn snapshot_to_bytes(state: &dyn StateSnapshot) -> Vec<u8> {
    let mut payload = Encoder::new();
    state.save_state(&mut payload);
    let payload = payload.into_bytes();
    let mut out = Encoder::new();
    out.buf.extend_from_slice(&MAGIC);
    out.put_u16(VERSION);
    out.put_str(state.state_kind());
    out.put_u16(state.state_version());
    out.put_bytes(&payload);
    let crc = crc32(out.as_bytes());
    out.put_u32(crc);
    out.into_bytes()
}

/// Validates a snapshot container (magic, versions, kind, CRC) and
/// restores its payload into `state`.
///
/// Validation order matters for crash recovery: the CRC is checked over
/// the *whole* container before a single payload byte reaches
/// `load_state`, so a torn or bit-flipped snapshot is rejected atomically
/// and the target object is left untouched. A payload that loads but
/// leaves trailing bytes is rejected too, and the target's own state,
/// saved before the load, is loaded back: every rejection leaves the
/// target as it was, provided the target reloads its own save (the
/// [`StateSnapshot`] contract).
///
/// # Errors
///
/// Returns [`FrameError`] describing the first violation found.
pub fn restore_from_bytes(state: &mut dyn StateSnapshot, bytes: &[u8]) -> Result<(), FrameError> {
    if bytes.len() < MAGIC.len() + 4 {
        return Err(FrameError::Truncated { offset: bytes.len() });
    }
    let (content, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    let computed = crc32(content);
    if stored != computed {
        return Err(FrameError::CrcMismatch {
            expected: stored,
            found: computed,
        });
    }
    let mut dec = Decoder::new(content);
    let magic = dec.take(4)?;
    if magic != MAGIC {
        let mut found = [0u8; 4];
        found.copy_from_slice(magic);
        return Err(FrameError::BadMagic { found });
    }
    let version = dec.take_u16()?;
    if version != VERSION {
        return Err(FrameError::BadVersion { found: version });
    }
    let kind = dec.take_str()?;
    if kind != state.state_kind() {
        return Err(FrameError::KindMismatch {
            expected: state.state_kind().to_string(),
            found: kind.to_string(),
        });
    }
    let state_version = dec.take_u16()?;
    if state_version != state.state_version() {
        return Err(FrameError::StateVersionMismatch {
            expected: state.state_version(),
            found: state_version,
        });
    }
    let payload = dec.take_bytes()?;
    if !dec.is_exhausted() {
        return Err(dec.corrupt("trailing bytes after snapshot payload"));
    }
    // Saved first: only the load itself can tell where the state payload
    // ends, so rejecting trailing bytes means putting this back.
    let mut replaced = Encoder::new();
    state.save_state(&mut replaced);
    let mut pdec = Decoder::new(payload);
    state.load_state(&mut pdec)?;
    if !pdec.is_exhausted() {
        let err = pdec.corrupt("trailing bytes after state payload");
        // A target always loads back state it saved itself.
        let _ = state.load_state(&mut Decoder::new(replaced.as_bytes()));
        return Err(err);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Length-prefixed, checksummed record framing (the WAL substrate).
// ---------------------------------------------------------------------------

/// Appends one framed record (`len | payload | crc32(payload)`) to `out`.
pub fn write_record(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// Walks a record stream, yielding each intact payload in order and
/// stopping at the first torn frame.
///
/// # Examples
///
/// ```
/// use evlab_util::frame::{write_record, RecordCursor};
///
/// let mut log = Vec::new();
/// write_record(&mut log, b"first");
/// write_record(&mut log, b"second");
/// log.truncate(log.len() - 3); // crash mid-append
///
/// let mut cur = RecordCursor::new(&log);
/// assert_eq!(cur.next_record().unwrap(), Some(&b"first"[..]));
/// assert!(cur.next_record().is_err(), "torn tail detected");
/// ```
#[derive(Debug, Clone)]
pub struct RecordCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> RecordCursor<'a> {
    /// A cursor at the start of the stream.
    pub fn new(buf: &'a [u8]) -> Self {
        RecordCursor { buf, pos: 0 }
    }

    /// Byte offset of the next unread record.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Yields the next record's payload, `Ok(None)` at a clean end of
    /// stream (the cursor sits exactly on the stream boundary).
    ///
    /// # Errors
    ///
    /// [`RecordError::TornTail`] when the remaining bytes are not a whole,
    /// checksum-valid record. The cursor does not advance past a torn
    /// frame; everything yielded before it was intact.
    pub fn next_record(&mut self) -> Result<Option<&'a [u8]>, RecordError> {
        let remaining = self.buf.len() - self.pos;
        if remaining == 0 {
            return Ok(None);
        }
        if remaining < 4 {
            return Err(RecordError::TornTail {
                offset: self.pos,
                reason: TornReason::ShortHeader,
            });
        }
        let len = u32::from_le_bytes([
            self.buf[self.pos],
            self.buf[self.pos + 1],
            self.buf[self.pos + 2],
            self.buf[self.pos + 3],
        ]) as usize;
        if remaining < 4 + len + 4 {
            return Err(RecordError::TornTail {
                offset: self.pos,
                reason: TornReason::ShortPayload,
            });
        }
        let payload = &self.buf[self.pos + 4..self.pos + 4 + len];
        let at = self.pos + 4 + len;
        let stored =
            u32::from_le_bytes([self.buf[at], self.buf[at + 1], self.buf[at + 2], self.buf[at + 3]]);
        if stored != crc32(payload) {
            return Err(RecordError::TornTail {
                offset: self.pos,
                reason: TornReason::BadCrc,
            });
        }
        self.pos = at + 4;
        Ok(Some(payload))
    }
}

/// Atomically writes raw bytes to `path` via a sibling temp file and
/// rename — the binary sibling of [`crate::json::write_atomic`], sharing
/// its guarantee: a crash mid-write never leaves a partial file at
/// `path`, and the temp file never outlives a failure.
///
/// # Errors
///
/// Returns [`EvlabError::Io`] if the write or the rename fails; the temp
/// file is removed on either failure.
pub fn write_atomic_bytes(
    path: impl AsRef<std::path::Path>,
    contents: &[u8],
) -> Result<(), EvlabError> {
    let path = path.as_ref();
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp_name);
    if let Err(e) = std::fs::write(&tmp, contents) {
        // A partial temp file may exist even when the write errored.
        let _ = std::fs::remove_file(&tmp);
        return Err(EvlabError::Io(e));
    }
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(EvlabError::Io(e))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn primitives_round_trip_bit_exactly() {
        let mut enc = Encoder::new();
        enc.put_u8(7);
        enc.put_u16(u16::MAX);
        enc.put_u32(0xDEAD_BEEF);
        enc.put_u64(u64::MAX - 1);
        enc.put_i64(-42);
        enc.put_f32(f32::NAN);
        enc.put_f64(-0.0);
        enc.put_bool(true);
        enc.put_opt_u64(None);
        enc.put_opt_u64(Some(9));
        enc.put_str("héllo");
        enc.put_f32_slice(&[1.5, f32::MIN_POSITIVE]);
        enc.put_f64_slice(&[1e300]);
        enc.put_u64_slice(&[1, 2, 3]);
        enc.put_u32_slice(&[4, 5]);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.take_u8().unwrap(), 7);
        assert_eq!(dec.take_u16().unwrap(), u16::MAX);
        assert_eq!(dec.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.take_u64().unwrap(), u64::MAX - 1);
        assert_eq!(dec.take_i64().unwrap(), -42);
        assert!(dec.take_f32().unwrap().is_nan());
        assert_eq!(dec.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(dec.take_bool().unwrap());
        assert_eq!(dec.take_opt_u64().unwrap(), None);
        assert_eq!(dec.take_opt_u64().unwrap(), Some(9));
        assert_eq!(dec.take_str().unwrap(), "héllo");
        let f = dec.take_f32_vec().unwrap();
        assert_eq!(f[0].to_bits(), 1.5f32.to_bits());
        assert_eq!(f[1].to_bits(), f32::MIN_POSITIVE.to_bits());
        assert_eq!(dec.take_f64_vec().unwrap(), vec![1e300]);
        assert_eq!(dec.take_u64_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(dec.take_u32_vec().unwrap(), vec![4, 5]);
        assert!(dec.is_exhausted());
    }

    #[test]
    fn decoder_rejects_short_and_corrupt_input() {
        let mut dec = Decoder::new(&[1, 2]);
        assert!(matches!(dec.take_u64(), Err(FrameError::Truncated { .. })));
        // A length prefix beyond the buffer must not allocate or panic.
        let mut enc = Encoder::new();
        enc.put_u64(u64::MAX);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(dec.take_bytes(), Err(FrameError::Corrupt { .. })));
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(dec.take_f32_vec(), Err(FrameError::Corrupt { .. })));
        // Bad bool byte.
        let mut dec = Decoder::new(&[3]);
        assert!(matches!(dec.take_bool(), Err(FrameError::Corrupt { .. })));
    }

    struct Pair {
        a: u64,
        b: Vec<f32>,
    }

    impl StateSnapshot for Pair {
        fn state_kind(&self) -> &'static str {
            "pair"
        }
        fn save_state(&self, enc: &mut Encoder) {
            enc.put_u64(self.a);
            enc.put_f32_slice(&self.b);
        }
        fn load_state(&mut self, dec: &mut Decoder) -> Result<(), FrameError> {
            self.a = dec.take_u64()?;
            self.b = dec.take_f32_vec()?;
            Ok(())
        }
    }

    #[test]
    fn snapshot_container_round_trips() {
        let orig = Pair { a: 99, b: vec![1.0, f32::NAN, -0.0] };
        let bytes = snapshot_to_bytes(&orig);
        let mut back = Pair { a: 0, b: Vec::new() };
        restore_from_bytes(&mut back, &bytes).expect("valid container");
        assert_eq!(back.a, 99);
        assert_eq!(back.b.len(), 3);
        for (x, y) in orig.b.iter().zip(&back.b) {
            assert_eq!(x.to_bits(), y.to_bits(), "bit-exact floats");
        }
    }

    #[test]
    fn snapshot_detects_corruption_at_every_byte() {
        let bytes = snapshot_to_bytes(&Pair { a: 5, b: vec![2.5] });
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            let mut target = Pair { a: 0, b: Vec::new() };
            let err = restore_from_bytes(&mut target, &bad);
            assert!(err.is_err(), "flip at byte {i} accepted");
            assert_eq!(target.a, 0, "corrupt restore must not touch the target");
        }
    }

    #[test]
    fn snapshot_detects_truncation_at_every_byte() {
        let bytes = snapshot_to_bytes(&Pair { a: 5, b: vec![2.5, 3.5] });
        for cut in 0..bytes.len() {
            let mut target = Pair { a: 0, b: Vec::new() };
            assert!(
                restore_from_bytes(&mut target, &bytes[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn trailing_payload_bytes_are_rejected_without_touching_the_target() {
        // Same kind as `Pair`, one byte more payload: the container and
        // its CRC are valid, only the state payload overruns.
        struct Padded(Pair);
        impl StateSnapshot for Padded {
            fn state_kind(&self) -> &'static str {
                self.0.state_kind()
            }
            fn save_state(&self, enc: &mut Encoder) {
                self.0.save_state(enc);
                enc.put_u8(0xAB);
            }
            fn load_state(&mut self, dec: &mut Decoder) -> Result<(), FrameError> {
                self.0.load_state(dec)
            }
        }
        let bytes = snapshot_to_bytes(&Padded(Pair { a: 7, b: vec![1.5] }));
        let mut target = Pair { a: 3, b: vec![2.5, -0.0] };
        let err = restore_from_bytes(&mut target, &bytes).unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
        assert_eq!(target.a, 3, "the rejected restore replaced the target");
        let bits: Vec<u32> = target.b.iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits, vec![2.5f32.to_bits(), (-0.0f32).to_bits()]);
    }

    #[test]
    fn snapshot_rejects_kind_and_version_mismatch() {
        struct Other(u64);
        impl StateSnapshot for Other {
            fn state_kind(&self) -> &'static str {
                "other"
            }
            fn save_state(&self, enc: &mut Encoder) {
                enc.put_u64(self.0);
            }
            fn load_state(&mut self, dec: &mut Decoder) -> Result<(), FrameError> {
                self.0 = dec.take_u64()?;
                Ok(())
            }
        }
        let bytes = snapshot_to_bytes(&Other(1));
        let mut pair = Pair { a: 0, b: Vec::new() };
        assert!(matches!(
            restore_from_bytes(&mut pair, &bytes),
            Err(FrameError::KindMismatch { .. })
        ));
    }

    #[test]
    fn record_stream_yields_clean_prefix_under_any_truncation() {
        let payloads: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 1 + i as usize]).collect();
        let mut log = Vec::new();
        for p in &payloads {
            write_record(&mut log, p);
        }
        for cut in 0..=log.len() {
            let mut cur = RecordCursor::new(&log[..cut]);
            let mut got = Vec::new();
            let torn = loop {
                match cur.next_record() {
                    Ok(Some(p)) => got.push(p.to_vec()),
                    Ok(None) => break false,
                    Err(RecordError::TornTail { .. }) => break true,
                }
            };
            // Every yielded record is a true prefix of what was written.
            assert_eq!(&payloads[..got.len()], &got[..], "cut at {cut}");
            // A cut off a record boundary must be flagged torn.
            let boundary = got.iter().map(|p| p.len() + RECORD_OVERHEAD).sum::<usize>() == cut;
            assert_eq!(torn, !boundary, "cut at {cut}: torn={torn}");
        }
    }

    #[test]
    fn record_crc_failure_is_a_torn_tail() {
        let mut log = Vec::new();
        write_record(&mut log, b"abc");
        write_record(&mut log, b"defg");
        let flip = log.len() - 6; // inside the second payload
        log[flip] ^= 0xFF;
        let mut cur = RecordCursor::new(&log);
        assert_eq!(cur.next_record().unwrap(), Some(&b"abc"[..]));
        assert!(matches!(
            cur.next_record(),
            Err(RecordError::TornTail { reason: TornReason::BadCrc, .. })
        ));
    }

    #[test]
    fn write_atomic_bytes_round_trips_and_cleans_up_on_error() {
        let dir = std::env::temp_dir().join(format!("evlab_frame_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("snap.bin");
        write_atomic_bytes(&path, &[1, 2, 3]).expect("write");
        assert_eq!(std::fs::read(&path).expect("read"), vec![1, 2, 3]);
        // Writing into a missing directory fails typed and leaves no temp.
        let missing = dir.join("nope").join("snap.bin");
        let err = write_atomic_bytes(&missing, &[9]).unwrap_err();
        assert!(matches!(err, EvlabError::Io(_)));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
