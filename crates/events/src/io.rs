//! Binary event-stream serialization.
//!
//! A compact on-disk format in the spirit of AEDAT: a fixed header
//! (magic, version, resolution, count) followed by the 64-bit AER words of
//! the [`crate::aer::AerCodec`]. Write with [`write_stream`], read back with
//! [`read_stream`]; both take generic `Write`/`Read` values, so a `&mut
//! Vec<u8>` or a `&mut File` works equally (pass `&mut reader` to keep
//! ownership).

use crate::aer::{AerCodec, DecodeAerError};
use crate::stream::{EventOrderError, EventStream};
use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

/// File magic: `EVLB`.
pub const MAGIC: [u8; 4] = *b"EVLB";
/// Current format version.
pub const VERSION: u16 = 1;

/// Errors produced while reading a stream.
#[derive(Debug)]
pub enum ReadStreamError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The magic bytes did not match.
    BadMagic {
        /// The bytes found instead.
        found: [u8; 4],
    },
    /// Unsupported format version.
    BadVersion {
        /// The version found.
        found: u16,
    },
    /// An AER word failed to decode.
    Decode(DecodeAerError),
    /// Decoded events were not time-ordered.
    Order(EventOrderError),
    /// The file ended mid-stream (counted under `ingest.truncated`):
    /// either the header promised more records than the payload holds,
    /// or the file ended inside the header itself (both fields 0 then —
    /// no record count was recoverable).
    Truncated {
        /// Records the header declared (0 when the header itself was cut).
        expected: u64,
        /// Whole records actually present.
        got: u64,
    },
}

impl fmt::Display for ReadStreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadStreamError::Io(e) => write!(f, "i/o error: {e}"),
            ReadStreamError::BadMagic { found } => {
                write!(f, "bad magic {found:?}, expected {MAGIC:?}")
            }
            ReadStreamError::BadVersion { found } => {
                write!(f, "unsupported version {found}")
            }
            ReadStreamError::Decode(e) => write!(f, "decode error: {e}"),
            ReadStreamError::Order(e) => write!(f, "order error: {e}"),
            ReadStreamError::Truncated { expected, got } => {
                write!(f, "truncated stream: header promised {expected} records, found {got}")
            }
        }
    }
}

impl Error for ReadStreamError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ReadStreamError::Io(e) => Some(e),
            ReadStreamError::Decode(e) => Some(e),
            ReadStreamError::Order(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ReadStreamError {
    fn from(e: io::Error) -> Self {
        ReadStreamError::Io(e)
    }
}

impl From<ReadStreamError> for evlab_util::EvlabError {
    fn from(e: ReadStreamError) -> Self {
        evlab_util::EvlabError::read_stream(e)
    }
}

/// Serializes a stream. A `&mut` reference can be passed as the writer to
/// keep using it afterwards.
///
/// # Errors
///
/// Propagates I/O errors from the writer; a stream whose height exceeds
/// the AER y field yields an [`io::ErrorKind::InvalidInput`] error (with
/// the [`DecodeAerError`] as source) instead of panicking.
pub fn write_stream<W: Write>(stream: &EventStream, mut writer: W) -> io::Result<()> {
    let (w, h) = stream.resolution();
    let codec = AerCodec::try_new((w, h))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    writer.write_all(&MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    writer.write_all(&w.to_le_bytes())?;
    writer.write_all(&h.to_le_bytes())?;
    writer.write_all(&(stream.len() as u64).to_le_bytes())?;
    for e in stream.iter() {
        writer.write_all(&codec.encode(e).to_le_bytes())?;
    }
    Ok(())
}

/// Reads `buf.len()` bytes, mapping an EOF to the typed `Truncated`
/// error: a file cut anywhere — even inside the header — means the
/// producer died mid-write, which callers must be able to distinguish
/// from "disk broke" ([`ReadStreamError::Io`]). Counted under
/// `ingest.truncated`.
fn read_exact_or_truncated<R: Read>(
    reader: &mut R,
    buf: &mut [u8],
    expected: u64,
    got: u64,
) -> Result<(), ReadStreamError> {
    if let Err(e) = reader.read_exact(buf) {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            evlab_util::obs::counter_add("ingest.truncated", 1);
            return Err(ReadStreamError::Truncated { expected, got });
        }
        return Err(ReadStreamError::Io(e));
    }
    Ok(())
}

/// Parses and validates the fixed header, returning the codec and the
/// declared record count.
fn read_header<R: Read>(reader: &mut R) -> Result<(AerCodec, u64), ReadStreamError> {
    let mut magic = [0u8; 4];
    read_exact_or_truncated(reader, &mut magic, 0, 0)?;
    if magic != MAGIC {
        return Err(ReadStreamError::BadMagic { found: magic });
    }
    let mut buf2 = [0u8; 2];
    read_exact_or_truncated(reader, &mut buf2, 0, 0)?;
    let version = u16::from_le_bytes(buf2);
    if version != VERSION {
        return Err(ReadStreamError::BadVersion { found: version });
    }
    read_exact_or_truncated(reader, &mut buf2, 0, 0)?;
    let w = u16::from_le_bytes(buf2);
    read_exact_or_truncated(reader, &mut buf2, 0, 0)?;
    let h = u16::from_le_bytes(buf2);
    let mut buf8 = [0u8; 8];
    read_exact_or_truncated(reader, &mut buf8, 0, 0)?;
    let count = u64::from_le_bytes(buf8);
    // A corrupted header must surface as a typed error, not a panic.
    let codec = AerCodec::try_new((w, h)).map_err(ReadStreamError::Decode)?;
    Ok((codec, count))
}

/// Deserializes a stream written by [`write_stream`]. A `&mut` reference
/// can be passed as the reader.
///
/// # Errors
///
/// Returns [`ReadStreamError`] on I/O failure, bad magic/version, AER
/// decode failure, out-of-order events, or a file cut short anywhere —
/// a truncation inside the header or mid-record is the typed
/// [`ReadStreamError::Truncated`], never a panic or a bare EOF.
pub fn read_stream<R: Read>(mut reader: R) -> Result<EventStream, ReadStreamError> {
    let (codec, count) = read_header(&mut reader)?;
    let (w, h) = codec.resolution();
    let mut buf8 = [0u8; 8];
    let mut events = Vec::with_capacity(count.min(1 << 24) as usize);
    for got in 0..count {
        // The classic half-written final record lands here.
        read_exact_or_truncated(&mut reader, &mut buf8, count, got)?;
        let word = u64::from_le_bytes(buf8);
        events.push(codec.decode(word).map_err(ReadStreamError::Decode)?);
    }
    EventStream::from_events((w, h), events).map_err(ReadStreamError::Order)
}

/// Salvage read: deserializes as much of a stream as is intact, returning
/// the clean prefix of events together with the error (if any) that
/// stopped reading — the recovery-path sibling of [`read_stream`], for
/// callers that want the surviving events of a torn file instead of
/// nothing.
///
/// The returned prefix holds exactly the records that decoded cleanly
/// before the failure point; a truncated or corrupt tail never
/// manufactures a phantom event.
///
/// # Errors
///
/// A header too damaged to establish the resolution (bad magic/version,
/// truncation inside the header, undecodable geometry) or an ordering
/// violation *within* the salvaged prefix is a hard error — there is no
/// meaningful prefix to salvage then.
pub fn read_stream_prefix<R: Read>(
    mut reader: R,
) -> Result<(EventStream, Option<ReadStreamError>), ReadStreamError> {
    let (codec, count) = read_header(&mut reader)?;
    let (w, h) = codec.resolution();
    let mut buf8 = [0u8; 8];
    let mut events = Vec::with_capacity(count.min(1 << 24) as usize);
    let mut tail_error = None;
    for got in 0..count {
        if let Err(e) = read_exact_or_truncated(&mut reader, &mut buf8, count, got) {
            tail_error = Some(e);
            break;
        }
        let word = u64::from_le_bytes(buf8);
        match codec.decode(word) {
            Ok(event) => events.push(event),
            Err(e) => {
                tail_error = Some(ReadStreamError::Decode(e));
                break;
            }
        }
    }
    let stream = EventStream::from_events((w, h), events).map_err(ReadStreamError::Order)?;
    Ok((stream, tail_error))
}

/// Serialized size in bytes for a stream of `n` events.
pub fn encoded_size(n: usize) -> usize {
    4 + 2 + 2 + 2 + 8 + 8 * n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Polarity};

    fn sample() -> EventStream {
        EventStream::from_events(
            (640, 480),
            (0..500u64)
                .map(|i| {
                    Event::new(
                        i * 17,
                        (i % 640) as u16,
                        (i % 480) as u16,
                        if i % 3 == 0 { Polarity::Off } else { Polarity::On },
                    )
                })
                .collect(),
        )
        .expect("valid")
    }

    #[test]
    fn round_trip() {
        let stream = sample();
        let mut buf = Vec::new();
        write_stream(&stream, &mut buf).expect("write");
        assert_eq!(buf.len(), encoded_size(stream.len()));
        let back = read_stream(buf.as_slice()).expect("read");
        assert_eq!(back, stream);
    }

    #[test]
    fn empty_stream_round_trips() {
        let stream = EventStream::new((8, 8));
        let mut buf = Vec::new();
        write_stream(&stream, &mut buf).expect("write");
        let back = read_stream(buf.as_slice()).expect("read");
        assert_eq!(back, stream);
    }

    #[test]
    fn bad_magic_detected() {
        let mut buf = Vec::new();
        write_stream(&sample(), &mut buf).expect("write");
        buf[0] = b'X';
        match read_stream(buf.as_slice()) {
            Err(ReadStreamError::BadMagic { .. }) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn bad_version_detected() {
        let mut buf = Vec::new();
        write_stream(&sample(), &mut buf).expect("write");
        buf[4] = 99;
        assert!(matches!(
            read_stream(buf.as_slice()),
            Err(ReadStreamError::BadVersion { found: 99 })
        ));
    }

    #[test]
    fn truncated_final_record_is_a_typed_error() {
        let mut buf = Vec::new();
        write_stream(&sample(), &mut buf).expect("write");
        // Cut 5 bytes into the final record: a half-written word.
        buf.truncate(buf.len() - 5);
        match read_stream(buf.as_slice()) {
            Err(ReadStreamError::Truncated { expected: 500, got: 499 }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn truncation_at_record_boundary_is_detected() {
        let mut buf = Vec::new();
        write_stream(&sample(), &mut buf).expect("write");
        // Drop the last 3 records entirely: the count field still
        // promises 500, so acceptance without error would silently lose
        // the tail.
        buf.truncate(buf.len() - 3 * 8);
        match read_stream(buf.as_slice()) {
            Err(ReadStreamError::Truncated { expected: 500, got: 497 }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_counted_in_obs() {
        evlab_util::obs::set_enabled(true);
        let before = evlab_util::obs::counter_value("ingest.truncated");
        let mut buf = Vec::new();
        write_stream(&sample(), &mut buf).expect("write");
        buf.truncate(buf.len() - 1);
        let _ = read_stream(buf.as_slice());
        assert_eq!(
            evlab_util::obs::counter_value("ingest.truncated"),
            before + 1
        );
    }

    #[test]
    fn truncation_inside_header_is_a_typed_error() {
        let mut buf = Vec::new();
        write_stream(&sample(), &mut buf).expect("write");
        // Every cut inside the 18-byte header — including the empty file —
        // is the typed Truncated error, never a bare I/O EOF.
        for cut in 0..encoded_size(0) {
            match read_stream(&buf[..cut]) {
                Err(ReadStreamError::Truncated { expected: 0, got: 0 }) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn prefix_read_salvages_clean_events() {
        let stream = sample();
        let mut buf = Vec::new();
        write_stream(&stream, &mut buf).expect("write");
        // Cut 3 bytes into record 498: records 0..498 are intact.
        buf.truncate(encoded_size(498) + 3);
        let (prefix, err) = read_stream_prefix(buf.as_slice()).expect("header intact");
        assert_eq!(prefix.len(), 498);
        assert_eq!(prefix.as_slice(), &stream.as_slice()[..498]);
        assert!(matches!(
            err,
            Some(ReadStreamError::Truncated { expected: 500, got: 498 })
        ));
        // An undamaged file salvages completely with no tail error.
        let mut full = Vec::new();
        write_stream(&stream, &mut full).expect("write");
        let (all, err) = read_stream_prefix(full.as_slice()).expect("header intact");
        assert_eq!(all, stream);
        assert!(err.is_none());
    }

    #[test]
    fn prefix_read_stops_at_undecodable_word() {
        let small = EventStream::from_events(
            (4, 4),
            vec![
                Event::new(0, 1, 1, Polarity::On),
                Event::new(5, 2, 2, Polarity::Off),
            ],
        )
        .expect("valid");
        let mut buf = Vec::new();
        write_stream(&small, &mut buf).expect("write");
        // Corrupt the second word's x address out of range.
        let bad = AerCodec::new((640, 480)).encode(&Event::new(5, 600, 1, Polarity::On));
        let n = buf.len();
        buf[n - 8..].copy_from_slice(&bad.to_le_bytes());
        let (prefix, err) = read_stream_prefix(buf.as_slice()).expect("header intact");
        assert_eq!(prefix.len(), 1, "only the clean first event survives");
        assert!(matches!(err, Some(ReadStreamError::Decode(_))));
    }

    #[test]
    fn corrupted_address_detected() {
        let small = EventStream::from_events(
            (4, 4),
            vec![Event::new(0, 1, 1, Polarity::On)],
        )
        .expect("valid");
        let mut buf = Vec::new();
        write_stream(&small, &mut buf).expect("write");
        // Overwrite the event word with an out-of-range x address.
        let word = AerCodec::new((640, 480)).encode(&Event::new(0, 600, 1, Polarity::On));
        let n = buf.len();
        buf[n - 8..].copy_from_slice(&word.to_le_bytes());
        assert!(matches!(
            read_stream(buf.as_slice()),
            Err(ReadStreamError::Decode(_))
        ));
    }

    #[test]
    fn corrupted_height_is_a_typed_error_not_a_panic() {
        let mut buf = Vec::new();
        write_stream(&sample(), &mut buf).expect("write");
        // Overwrite the height field with a value outside the 15-bit field.
        buf[8..10].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(matches!(
            read_stream(buf.as_slice()),
            Err(ReadStreamError::Decode(DecodeAerError::HeightOutOfRange { .. }))
        ));
    }

    #[test]
    fn oversized_stream_height_fails_write_typed() {
        let tall = EventStream::new((4, u16::MAX));
        let mut buf = Vec::new();
        let err = write_stream(&tall, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn read_errors_convert_to_evlab_error() {
        let e: evlab_util::EvlabError = ReadStreamError::BadVersion { found: 9 }.into();
        assert!(e.to_string().contains("unsupported version 9"));
    }

    #[test]
    fn error_messages_are_nonempty() {
        let e = ReadStreamError::BadMagic { found: [0; 4] };
        assert!(!e.to_string().is_empty());
    }
}
