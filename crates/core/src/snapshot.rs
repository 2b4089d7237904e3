//! Engine checkpoints: plain serializable snapshots of dynamic run state.
//!
//! Lobo, Lima & Mártires (cs/0402049) observe that massively parallel GA
//! deployments hinge on engine state being *detachable*: a run must be able
//! to stop on one node and resume on another with no drift. A [`Snapshot`]
//! captures exactly the dynamic state of an engine — genomes, fitnesses,
//! RNG streams, counters — and restoring it into a freshly built engine of
//! the same configuration continues the run **bit-identically** to an
//! uninterrupted one (guaranteed by `tests/checkpoint_resume.rs` for all
//! seven engine families, at every step boundary).
//!
//! The payload of the five engines that keep a
//! [`RunLedger`](crate::ledger::RunLedger) — `ga`, `cellular`, `cga`,
//! `pcga` and `async-steady` — starts with the ledger block: generation,
//! evaluations, stagnation, the optimum-traced flag and the best
//! individual. The engine's own state (RNG streams, population or model,
//! family counters) follows it.
//!
//! The byte format is self-contained (no serde in the workspace): a magic
//! header, a format version, the engine tag, the length-prefixed payload,
//! and a 64-bit checksum over everything before it. The checksum reads
//! the bytes a word at a time in four independent multiply chains, so a
//! checkpoint of a few megabytes is verified at close to memory speed,
//! and any single changed byte always changes it.
//! [`Snapshot::from_bytes`] rejects truncation, corruption, unknown
//! format versions (version-1 and version-2 bytes included) and
//! wrong-engine restores with a typed [`SnapshotError`] and never panics.

use std::fmt;
use std::sync::Arc;

use crate::rng::Rng64;

/// Magic prefix of every serialized snapshot (`"PGAS"`).
const MAGIC: [u8; 4] = *b"PGAS";
/// Current format version. Version 2 replaced version 1's bytewise
/// checksum with [`checksum`]; version 3 moved every ledger engine's
/// run counters and best individual into one leading block of the payload
/// (see [`RunLedger`](crate::ledger::RunLedger)). Older bytes are a bad
/// header; nothing is migrated.
const VERSION: u8 = 3;
/// Bytes of the trailing checksum.
const CHECKSUM_LEN: usize = 8;

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

/// Starting states of the four word lanes.
const LANE_SEEDS: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];
/// Odd multipliers of the four word lanes.
const LANE_MULS: [u64; 4] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0xD6E8_FEB8_6659_FD93,
];
/// Odd multiplier of the fold, the tail bytes and the final mix.
const FOLD_MUL: u64 = 0xFF51_AFD7_ED55_8CCD;

/// The snapshot checksum: dependency-free, a word at a time.
///
/// Each 32-byte block feeds one little-endian `u64` word into each of
/// four independent lanes with `lane = (lane ^ word) * odd`, so the four
/// multiply chains run in parallel. The length and then the lanes are
/// folded into one value with `h = (h ^ x) * odd`, the tail bytes after
/// the last whole block are folded in one at a time the same way, and a
/// final xor-shift/multiply mixes the result.
///
/// Every step is a bijection of its state for a fixed input, and of its
/// input for a fixed state (xor with a fixed value is a bijection, and so
/// is multiplication by an odd constant modulo 2^64). So for two inputs
/// of equal length that differ in one byte — or in one aligned word —
/// the states part at that step and never meet again: **any single
/// changed byte or word always changes the sum.** Inputs of different
/// lengths differ already in the folded length, but that, like any
/// multi-word change, is caught only with probability 1 − 2^-64.
fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let (blocks, tail) = bytes.as_chunks::<32>();
    for block in blocks {
        let (words, _) = block.as_chunks::<8>();
        for ((lane, word), mul) in lanes.iter_mut().zip(words).zip(LANE_MULS) {
            *lane = (*lane ^ u64::from_le_bytes(*word)).wrapping_mul(mul);
        }
    }
    let fold = |h: u64, x: u64| (h ^ x).wrapping_mul(FOLD_MUL);
    let mut h = fold(0, bytes.len() as u64);
    for lane in lanes {
        h = fold(h, lane);
    }
    for &b in tail {
        h = fold(h, u64::from(b));
    }
    h ^= h >> 32;
    h = h.wrapping_mul(FOLD_MUL);
    h ^ (h >> 29)
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
    /// `magic ++ version ++ engine ++ payload ++ checksum(everything before)`.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        // Magic, version, tag length, tag, payload length, payload, sum:
        // reserved up front so the buffer never grows and copies itself.
        let len = MAGIC.len() + 1 + 8 + self.engine.len() + 8 + self.payload.len() + CHECKSUM_LEN;
        Self::encode_after(Vec::with_capacity(len), &self.engine, |w| {
            w.buf.extend_from_slice(&self.payload);
        })
    }

    /// [`to_bytes`](Self::to_bytes) written straight into an exact-length
    /// shared buffer, for a caller that hands the bytes to other threads:
    /// one allocation and one copy of the payload, where
    /// `Arc::from(to_bytes())` makes two of each.
    #[must_use]
    pub fn to_shared_bytes(&self) -> Arc<[u8]> {
        let tag_len = (self.engine.len() as u64).to_le_bytes();
        let payload_len = (self.payload.len() as u64).to_le_bytes();
        let parts: [&[u8]; 7] = [
            &MAGIC,
            &[VERSION],
            &tag_len,
            self.engine.as_bytes(),
            &payload_len,
            &self.payload,
            &[0; CHECKSUM_LEN],
        ];
        let mut out = Arc::<[u8]>::new_uninit_slice(parts.iter().map(|p| p.len()).sum());
        let buf = Arc::get_mut(&mut out).expect("a new Arc has no other owner");
        let mut at = 0;
        for part in parts {
            buf[at..at + part.len()].write_copy_of_slice(part);
            at += part.len();
        }
        // SAFETY: the parts cover the buffer exactly, so every byte was
        // written above.
        let mut out = unsafe { out.assume_init() };
        let buf = Arc::get_mut(&mut out).expect("a new Arc has no other owner");
        let (body, sum) = buf
            .split_last_chunk_mut::<CHECKSUM_LEN>()
            .expect("the buffer ends with the checksum");
        *sum = checksum(body).to_le_bytes();
        out
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
        let sum = checksum(&w.buf[start..]);
        w.put_u64(sum);
        w.into_bytes()
    }

    /// Parses the format written by [`Snapshot::to_bytes`], rejecting
    /// truncated, corrupted, or unrecognized data.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let Some((body, stored)) = bytes.split_last_chunk::<CHECKSUM_LEN>() else {
            return Err(SnapshotError::Truncated);
        };
        let fields = after_header(body)?;
        if checksum(body) != u64::from_le_bytes(*stored) {
            return Err(SnapshotError::ChecksumMismatch);
        }
        let mut r = SnapshotReader::new(fields);
        let engine = r.take_str()?;
        let payload = r.take_bytes()?.to_vec();
        if !r.is_empty() {
            return Err(SnapshotError::Invalid("trailing bytes".into()));
        }
        Ok(Self { engine, payload })
    }

    /// Parses the serialized snapshot at the start of `bytes`, as
    /// [`Snapshot::from_bytes`] does, and returns it with the bytes after
    /// it. The snapshot's extent is read from its own header (engine tag
    /// and payload lengths), so a container can carry unframed bytes
    /// behind it.
    pub fn from_prefix(bytes: &[u8]) -> Result<(Self, &[u8]), SnapshotError> {
        let fields = after_header(bytes)?;
        let mut r = SnapshotReader::new(fields);
        r.take_bytes()?;
        r.take_bytes()?;
        r.take(CHECKSUM_LEN)?;
        let (own, after) = bytes.split_at(bytes.len() - fields.len() + r.pos);
        Ok((Self::from_bytes(own)?, after))
    }
}

/// The bytes after the magic and version, which must be current.
fn after_header(bytes: &[u8]) -> Result<&[u8], SnapshotError> {
    let (header, fields) = bytes
        .split_first_chunk::<5>()
        .ok_or(SnapshotError::Truncated)?;
    if header[..4] != MAGIC || header[4] != VERSION {
        return Err(SnapshotError::BadHeader);
    }
    Ok(fields)
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

    /// Appends a generator's full state (four words and the cached
    /// Gaussian spare).
    pub fn put_rng(&mut self, rng: &Rng64) {
        let (state, spare) = rng.snapshot_state();
        for word in state {
            self.put_u64(word);
        }
        self.put_opt_f64(spare);
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

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        self.take(N)?
            .try_into()
            .map_err(|_| SnapshotError::Truncated)
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
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Reads an `i64`.
    pub fn take_i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(self.take_array()?))
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

    /// Reads a generator written by [`SnapshotWriter::put_rng`].
    pub fn take_rng(&mut self) -> Result<Rng64, SnapshotError> {
        let mut state = [0u64; 4];
        for word in &mut state {
            *word = self.take_u64()?;
        }
        Ok(Rng64::from_snapshot_state(state, self.take_opt_f64()?))
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
    fn every_single_bit_flip_and_an_appended_zero_change_the_checksum() {
        // 0..=96 covers an empty input, tails of every length before,
        // between and after whole 32-byte blocks, and a flip in every
        // lane of up to three blocks.
        let data: Vec<u8> = (0..=96u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=data.len() {
            let bytes = &data[..len];
            let sum = checksum(bytes);
            let mut flipped = bytes.to_vec();
            for at in 0..len {
                for bit in 0..8 {
                    flipped[at] ^= 1 << bit;
                    assert_ne!(checksum(&flipped), sum, "len {len}, byte {at}, bit {bit}");
                    flipped[at] ^= 1 << bit;
                }
            }
            let mut longer = bytes.to_vec();
            longer.push(0);
            assert_ne!(checksum(&longer), sum, "len {len} + a zero byte");
        }
    }

    /// `payload` framed in the version-1 layout: the version-2 layout
    /// with version byte 1 and a bytewise 64-bit FNV-1a trailer.
    fn version_one_bytes(engine: &str, payload: &[u8]) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.buf.extend_from_slice(b"PGAS");
        w.put_u8(1);
        w.put_str(engine);
        w.put_bytes(payload);
        let mut bytes = w.into_bytes();
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for &b in &bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        bytes.extend_from_slice(&h.to_le_bytes());
        bytes
    }

    /// `payload` framed in the version-2 layout: the current framing and
    /// checksum under version byte 2.
    fn version_two_bytes(engine: &str, payload: &[u8]) -> Vec<u8> {
        let mut bytes = Snapshot::new(engine, payload.to_vec()).to_bytes();
        bytes.truncate(bytes.len() - CHECKSUM_LEN);
        bytes[4] = 2;
        let sum = checksum(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        bytes
    }

    #[test]
    fn version_one_bytes_are_a_bad_header_and_never_panic() {
        let current = Snapshot::new("ga", vec![7; 40]).to_bytes();
        for old in [
            version_one_bytes("ga", &[7; 40]),
            version_two_bytes("ga", &[7; 40]),
        ] {
            let version = old[4];
            assert_eq!(
                old.len(),
                current.len(),
                "only the version and the sum differ"
            );
            assert_eq!(old[..4], current[..4]);
            assert_ne!(old[4], current[4]);
            assert_eq!(Snapshot::from_bytes(&old), Err(SnapshotError::BadHeader));
            assert_eq!(
                Snapshot::from_prefix(&old).err(),
                Some(SnapshotError::BadHeader)
            );
            // Every prefix and every byte flip is a typed error too.
            for keep in 0..old.len() {
                assert!(
                    Snapshot::from_bytes(&old[..keep]).is_err(),
                    "v{version} keep {keep}"
                );
                assert!(
                    Snapshot::from_prefix(&old[..keep]).is_err(),
                    "v{version} keep {keep}"
                );
            }
            for at in 0..old.len() {
                let mut bytes = old.clone();
                bytes[at] ^= 0xff;
                assert!(
                    Snapshot::from_bytes(&bytes).is_err(),
                    "v{version} flip at {at}"
                );
            }
        }
    }

    #[test]
    fn to_bytes_reserves_its_exact_length() {
        for (tag, len) in [("ga", 0), ("cellular", 1), ("archipelago", 4096)] {
            let bytes = Snapshot::new(tag, vec![3; len]).to_bytes();
            assert_eq!(
                bytes.capacity(),
                bytes.len(),
                "{tag} with {len} payload bytes"
            );
        }
    }

    #[test]
    fn shared_bytes_equal_to_bytes() {
        for (tag, len) in [("", 0), ("ga", 1), ("cellular", 31), ("archipelago", 4099)] {
            let payload = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let snap = Snapshot::new(tag, payload);
            assert_eq!(
                &*snap.to_shared_bytes(),
                &snap.to_bytes()[..],
                "{tag} with {len} payload bytes"
            );
        }
    }

    #[test]
    fn a_prefix_snapshot_returns_the_bytes_after_it() {
        let snap = Snapshot::new("serve-job", vec![1, 2, 3]);
        let mut bytes = snap.to_bytes();
        let own = bytes.len();
        bytes.extend_from_slice(b"nested");
        let (back, rest) = Snapshot::from_prefix(&bytes).unwrap();
        assert_eq!((back, rest), (snap, &b"nested"[..]));
        // Cut inside the snapshot: truncated; a flip inside it: caught.
        for keep in 0..own {
            assert_eq!(
                Snapshot::from_prefix(&bytes[..keep]).err(),
                Some(SnapshotError::Truncated),
                "keep {keep}"
            );
        }
        for at in 5..own {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x01;
            assert!(Snapshot::from_prefix(&flipped).is_err(), "flip at {at}");
        }
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
