//! Engine checkpoints: plain serializable snapshots of dynamic run state.
//!
//! Lobo, Lima & Mártires (cs/0402049) observe that massively parallel GA
//! deployments hinge on engine state being *detachable*: a run must be able
//! to stop on one node and resume on another with no drift. A [`Snapshot`]
//! captures exactly the dynamic state of an engine — genomes, fitnesses,
//! RNG streams, counters — and restoring it into a freshly built engine of
//! the same configuration continues the run **bit-identically** to an
//! uninterrupted one (guaranteed by `tests/checkpoint_resume.rs` for all
//! six engine families).
//!
//! The byte format is self-contained (no serde in the workspace): a magic
//! header, a format version, the engine tag, the payload, and an FNV-1a
//! checksum over everything before it. [`Snapshot::from_bytes`] rejects
//! truncation, corruption, and wrong-engine restores with a typed
//! [`SnapshotError`] instead of panicking.

use std::fmt;

/// Magic prefix of every serialized snapshot (`"PGAS"`).
const MAGIC: [u8; 4] = *b"PGAS";
/// Current format version.
const VERSION: u8 = 1;

/// Errors raised when decoding or restoring a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before the expected data.
    Truncated,
    /// The magic header or format version did not match.
    BadHeader,
    /// The checksum did not match the payload (bit rot or tampering).
    ChecksumMismatch,
    /// The snapshot was taken from a different engine type.
    WrongEngine {
        /// Engine tag the restoring engine expected.
        expected: String,
        /// Engine tag found in the snapshot.
        found: String,
    },
    /// The payload decoded to a value that is invalid for the target engine
    /// (e.g. a population size that disagrees with the configuration).
    Invalid(String),
    /// The engine does not support snapshotting.
    Unsupported(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated => write!(f, "snapshot truncated"),
            Self::BadHeader => write!(f, "snapshot header is not a known PGAS format"),
            Self::ChecksumMismatch => write!(f, "snapshot checksum mismatch (corrupted)"),
            Self::WrongEngine { expected, found } => {
                write!(f, "snapshot is for engine `{found}`, expected `{expected}`")
            }
            Self::Invalid(msg) => write!(f, "snapshot payload invalid: {msg}"),
            Self::Unsupported(engine) => {
                write!(f, "engine `{engine}` does not support snapshots")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64-bit hash: tiny, dependency-free integrity check.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A serializable checkpoint of one engine's dynamic state.
///
/// Produced by [`Engine::snapshot`](crate::driver::Engine::snapshot) and
/// consumed by [`Engine::restore`](crate::driver::Engine::restore). The
/// `engine` tag guards against restoring state into the wrong engine type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    engine: String,
    payload: Vec<u8>,
}

impl Snapshot {
    /// Wraps an engine tag and payload produced by a [`SnapshotWriter`].
    #[must_use]
    pub fn new(engine: impl Into<String>, payload: Vec<u8>) -> Self {
        Self {
            engine: engine.into(),
            payload,
        }
    }

    /// The tag of the engine that produced this snapshot.
    #[must_use]
    pub fn engine(&self) -> &str {
        &self.engine
    }

    /// The engine tag stored in the PGAS header, for dispatching a restore
    /// to the right engine family *before* attempting to decode the
    /// payload (e.g. a job server rebuilding heterogeneous checkpoints
    /// from a spool directory). Alias of [`Snapshot::engine`] under the
    /// name the header field carries.
    #[must_use]
    pub fn engine_tag(&self) -> &str {
        &self.engine
    }

    /// The raw payload bytes.
    #[must_use]
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Verifies the snapshot was produced by `expected` and returns a
    /// payload reader positioned at the start.
    pub fn reader_for(&self, expected: &str) -> Result<SnapshotReader<'_>, SnapshotError> {
        if self.engine != expected {
            return Err(SnapshotError::WrongEngine {
                expected: expected.into(),
                found: self.engine.clone(),
            });
        }
        Ok(SnapshotReader::new(&self.payload))
    }

    /// Serializes to the on-disk/wire format:
    /// `magic ++ version ++ engine ++ payload ++ fnv1a(everything before)`.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        Self::encode_after(Vec::new(), &self.engine, |w| {
            w.buf.extend_from_slice(&self.payload);
        })
    }

    /// Appends to `prefix` the serialized snapshot whose payload `payload`
    /// writes in place: the appended bytes equal
    /// `Snapshot::new(engine, p).to_bytes()` for the bytes `p` it wrote.
    /// Lets a caller frame a snapshot, or embed large nested bytes, in
    /// one buffer without copying the payload a second time.
    pub fn encode_after(
        prefix: Vec<u8>,
        engine: &str,
        payload: impl FnOnce(&mut SnapshotWriter),
    ) -> Vec<u8> {
        let start = prefix.len();
        let mut w = SnapshotWriter { buf: prefix };
        w.buf.extend_from_slice(&MAGIC);
        w.buf.push(VERSION);
        w.put_str(engine);
        // Length prefix of the payload, patched once it is written.
        let len_at = w.buf.len();
        w.put_u64(0);
        payload(&mut w);
        let len = (w.buf.len() - len_at - 8) as u64;
        w.buf[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
        let checksum = fnv1a(&w.buf[start..]);
        w.put_u64(checksum);
        w.into_bytes()
    }

    /// Parses the format written by [`Snapshot::to_bytes`], rejecting
    /// truncated, corrupted, or unrecognized data.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < MAGIC.len() + 1 + 8 {
            return Err(SnapshotError::Truncated);
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        if body[..4] != MAGIC || body[4] != VERSION {
            return Err(SnapshotError::BadHeader);
        }
        let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        if fnv1a(body) != stored {
            return Err(SnapshotError::ChecksumMismatch);
        }
        let mut r = SnapshotReader::new(&body[5..]);
        let engine = r.take_str()?;
        let payload = r.take_bytes()?.to_vec();
        if !r.is_empty() {
            return Err(SnapshotError::Invalid("trailing bytes".into()));
        }
        Ok(Self { engine, payload })
    }
}

/// Little-endian binary encoder used to build snapshot payloads.
#[derive(Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the accumulated bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` (as `u64`, portable across platforms).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` by bit pattern (exact round-trip, NaN-safe).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends `Option<f64>` as a presence byte plus the bit pattern.
    pub fn put_opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.put_bool(true);
                self.put_f64(x);
            }
            None => self.put_bool(false),
        }
    }

    /// Appends a length-prefixed byte slice.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// Decoder for payloads built with [`SnapshotWriter`]; every `take_*`
/// returns [`SnapshotError::Truncated`] instead of panicking on short input.
pub struct SnapshotReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Positions a reader at the start of `data`.
    #[must_use]
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// `true` when all bytes have been consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pos >= self.data.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.data.len() {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.data[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `bool`; any byte other than 0/1 is invalid.
    pub fn take_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Invalid(format!("bad bool byte {b}"))),
        }
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an `i64`.
    pub fn take_i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a `usize`, rejecting values that overflow the platform.
    pub fn take_usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.take_u64()?)
            .map_err(|_| SnapshotError::Invalid("usize overflow".into()))
    }

    /// Reads an item count and rejects it with [`SnapshotError::Truncated`]
    /// unless `count` items of at least `min_bytes_per_item` encoded bytes
    /// each fit in the bytes left. A count that passes is bounded by the
    /// payload size, so `Vec::with_capacity(count)` is safe on untrusted
    /// input.
    pub fn take_count(&mut self, min_bytes_per_item: usize) -> Result<usize, SnapshotError> {
        let count = self.take_usize()?;
        self.check_room(count, min_bytes_per_item)?;
        Ok(count)
    }

    /// The rule behind [`take_count`](Self::take_count), for a count that
    /// is not itself the item count (bits packed into words).
    pub(crate) fn check_room(
        &self,
        count: usize,
        min_bytes_per_item: usize,
    ) -> Result<(), SnapshotError> {
        let left = self.data.len().saturating_sub(self.pos);
        match count.checked_mul(min_bytes_per_item) {
            Some(needed) if needed <= left => Ok(()),
            _ => Err(SnapshotError::Truncated),
        }
    }

    /// Reads an `f64` bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads an `Option<f64>` written by [`SnapshotWriter::put_opt_f64`].
    pub fn take_opt_f64(&mut self) -> Result<Option<f64>, SnapshotError> {
        if self.take_bool()? {
            Ok(Some(self.take_f64()?))
        } else {
            Ok(None)
        }
    }

    /// Reads a length-prefixed byte slice.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.take_usize()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String, SnapshotError> {
        let bytes = self.take_bytes()?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Invalid("non-UTF-8 string".into()))
    }

    /// Asserts the payload is fully consumed (catches format drift).
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(SnapshotError::Invalid("trailing bytes".into()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = SnapshotWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u64(u64::MAX);
        w.put_i64(-42);
        w.put_usize(12345);
        w.put_f64(std::f64::consts::PI);
        w.put_opt_f64(None);
        w.put_opt_f64(Some(-0.0));
        w.put_bytes(b"abc");
        w.put_str("héllo");
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 7);
        assert!(r.take_bool().unwrap());
        assert_eq!(r.take_u64().unwrap(), u64::MAX);
        assert_eq!(r.take_i64().unwrap(), -42);
        assert_eq!(r.take_usize().unwrap(), 12345);
        assert_eq!(r.take_f64().unwrap(), std::f64::consts::PI);
        assert_eq!(r.take_opt_f64().unwrap(), None);
        assert_eq!(
            r.take_opt_f64().unwrap().unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(r.take_bytes().unwrap(), b"abc");
        assert_eq!(r.take_str().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = SnapshotWriter::new();
        w.put_u64(1);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes[..4]);
        assert_eq!(r.take_u64(), Err(SnapshotError::Truncated));
    }

    #[test]
    fn snapshot_bytes_roundtrip() {
        let snap = Snapshot::new("ga", vec![1, 2, 3, 255]);
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.engine(), "ga");
    }

    #[test]
    fn engine_tag_reads_the_header_without_decoding_the_payload() {
        // The tag survives the byte roundtrip and is readable on its own,
        // so a multi-family consumer (the job-server spool) can dispatch
        // restores without trial-decoding every engine's payload format.
        for tag in ["ga", "archipelago", "cellular", "hga", "nsga2", "ms-sim"] {
            let snap = Snapshot::new(tag, vec![0xAB; 16]);
            assert_eq!(snap.engine_tag(), tag);
            let back = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
            assert_eq!(back.engine_tag(), tag);
        }
    }

    #[test]
    fn corrupted_byte_is_rejected() {
        let snap = Snapshot::new("ga", vec![9; 64]);
        let mut bytes = snap.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert_eq!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::ChecksumMismatch)
        );
    }

    #[test]
    fn short_input_is_rejected() {
        assert_eq!(Snapshot::from_bytes(b"PGAS"), Err(SnapshotError::Truncated));
    }

    #[test]
    fn wrong_engine_is_rejected() {
        let snap = Snapshot::new("cellular", vec![]);
        let err = snap.reader_for("ga").err().unwrap();
        assert!(matches!(err, SnapshotError::WrongEngine { .. }));
        assert!(err.to_string().contains("cellular"));
    }
}
