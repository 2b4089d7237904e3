//! Crash-safe job spool: an append-only log of checkpoint frames.
//!
//! Each record reuses the core PGAS container ([`Snapshot`] with the
//! reserved tag `serve-job`), so records get the magic, versioning, and
//! checksum of engine checkpoints for free. The container holds the
//! job's identity, its verbatim wire spec (from which the engine is
//! rebuilt deterministically), scheduler counters, mirrored progress,
//! and the length and stored checksum of the engine's own PGAS snapshot,
//! whose bytes follow the container in the frame.
//!
//! ## Frames
//!
//! A save appends one frame to the active segment file `spool-<n>` with
//! a single `write_all` (integers little-endian):
//!
//! ```text
//! [magic "PGJF"][job id u64][len u32][record container][engine snapshot]
//! ```
//!
//! `len` is exactly the container's length plus the engine snapshot's.
//! The engine snapshot is appended as the slice encoded it: it carries
//! its own checksum, computed once on the slice's worker, and the
//! container's checksum covers only the record's fields plus a copy of
//! that stored checksum. So every byte of a frame passes through one
//! checksum on write and one on recovery. A frame with `len = 0` is a
//! tombstone: [`Spool::remove`] appends one. The header has no checksum
//! of its own; the container's checksum and the length rule guard it,
//! and a frame whose header names another job than its record is
//! rejected.
//!
//! ## Recovery
//!
//! [`Spool::load_all`] makes one streaming pass over the segments in
//! order, reading frame by frame (never a whole segment). A frame is
//! valid when its container checks, the engine snapshot's stored
//! checksum equals the container's copy, and the engine snapshot then
//! decodes (verifying its checksum). A job's last valid frame wins and a
//! tombstone removes it. The same pass builds the
//! in-memory append index (job → segment, offset, length). After a scan,
//! appends go to a fresh segment, never after a possibly torn tail; it is
//! created at the first append, so a scan alone creates or modifies no
//! file.
//!
//! ## Compaction
//!
//! Once the dead bytes (superseded frames, tombstones, torn data) exceed
//! `max(live, 1 MiB)`, each job's latest frame is copied, one frame at a
//! time, into segment `n + 1`, which becomes the active one; then the
//! older segments are deleted, oldest first. The segments therefore
//! never hold more than `2 × live + 1 MiB`.
//!
//! ## Crash shapes
//!
//! * **Torn tail** (a crash mid-append): a frame running past the end of
//!   its segment with no frame after it. It is ignored and not reported;
//!   the job's previous frame wins.
//! * **Corrupt frame** (bad magic, a bad checksum in the container or the
//!   engine snapshot, a length that disagrees with the record, a header
//!   naming another job): reported in [`SpoolScan::skipped`] unless a
//!   later valid frame of the same job supersedes it, in which case it is
//!   dropped silently.
//!   The reader resynchronises on the next frame magic, so the frames
//!   after it are still read.
//! * **Crash mid-compaction**: segment `n + 1` holds only copies of
//!   frames that are already the latest in the older segments, so a
//!   partial `n + 1` beside them recovers the same records. Deleting the
//!   old segments oldest first never leaves a removed job's frames
//!   without the tombstone that removes them.
//! * **Old layouts**: a leftover one-file-per-job `<id>.pgaj` record is
//!   not migrated; it is reported in `skipped`. Neither is a frame of an
//!   earlier spool version: its PGAS version-1 container is a bad header,
//!   so the frame is corrupt and reported in `skipped`.
//!
//! Records survive a process crash. There is no fsync, so a power loss
//! may lose the newest records of a job (its previous slice is then
//! replayed, or the job is missing if it had only one). Recovery loads
//! every readable record and reports unreadable ones instead of failing
//! the whole restart — one corrupt job must not take the server down.
//!
//! For fault drills a [`ChaosInjector`] can be armed on the spool:
//! scripted write indices then fail with an IO error (exercising the
//! scheduler's persist-retry/degraded path) or tear the record inside its
//! frame (exercising checksum-guarded recovery), and scripted read
//! indices (one per frame scanned) fail. The default is `None` and costs
//! one branch per operation.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use pga_cluster::chaos::{ChaosInjector, SpoolWriteChaos};
use pga_core::snapshot::{Snapshot, SnapshotWriter};

use crate::job::{stop_reason_from_name, stop_reason_name, JobId, JobProgress, JobState};
use crate::protocol::JobSpec;

/// Container tag for spool records (distinct from every engine tag).
const SPOOL_TAG: &str = "serve-job";
/// Spool record format version. Version 3 moved the engine snapshot out
/// of the record container, behind it in the frame; every earlier version
/// sits in a PGAS version-1 container, which no longer decodes.
const SPOOL_VERSION: u8 = 3;
/// Magic opening every frame.
const FRAME_MAGIC: [u8; 4] = *b"PGJF";
/// Frame header length: magic, job id, record length.
const HEADER_LEN: usize = 16;
/// File-name prefix of segments (`spool-<n>`).
const SEGMENT_PREFIX: &str = "spool-";
/// Extension of the old one-file-per-job layout's records.
const OLD_EXTENSION: &str = ".pgaj";
/// Dead bytes always tolerated before compaction.
const COMPACT_FLOOR: u64 = 1 << 20;

/// A job's durable state, as written after every slice.
#[derive(Clone, Debug, PartialEq)]
pub struct JobRecord {
    /// Job identity.
    pub id: JobId,
    /// The verbatim wire spec (engines are rebuilt from this).
    pub spec: JobSpec,
    /// Lifecycle state at the last checkpoint.
    pub state: JobState,
    /// Slices granted so far.
    pub slices: u64,
    /// Engine steps executed so far.
    pub steps: u64,
    /// Active scheduler time consumed.
    pub consumed: Duration,
    /// Resurrections consumed so far.
    pub retries: u64,
    /// Mirrored progress counters.
    pub progress: JobProgress,
    /// The engine's nested PGAS snapshot; `None` only for jobs that
    /// reached a terminal state before their first slice.
    pub engine_snapshot: Option<Snapshot>,
}

/// Why a spool record could not be loaded.
#[derive(Debug)]
pub struct SpoolCorruption {
    /// Offending file.
    pub path: PathBuf,
    /// Human-readable cause.
    pub message: String,
}

/// Result of scanning a spool directory: every readable record plus a
/// report of everything that was skipped.
#[derive(Debug, Default)]
pub struct SpoolScan {
    /// Each job's latest valid record, ordered by id.
    pub records: Vec<JobRecord>,
    /// Frames and files that did not load (corrupt, foreign, old
    /// layout) and were not superseded by a later valid frame.
    pub skipped: Vec<SpoolCorruption>,
}

/// A record with its engine snapshot bytes as read: they equal
/// `Snapshot::to_bytes` of its `engine_snapshot`, so a resume checkpoint
/// reuses them instead of encoding the snapshot again.
pub(crate) type Recovered = (JobRecord, Option<Arc<[u8]>>);

/// A scan that also keeps each record's engine snapshot bytes.
pub(crate) struct Loaded {
    /// Each job's latest valid record, ordered by id.
    pub records: Vec<Recovered>,
    /// As in [`SpoolScan::skipped`].
    pub skipped: Vec<SpoolCorruption>,
}

/// A directory holding an append-only log of checkpoint frames.
pub struct Spool {
    dir: PathBuf,
    chaos: Option<Arc<ChaosInjector>>,
    log: Mutex<Log>,
}

/// Where a job's latest valid frame lives.
#[derive(Clone, Copy, Debug)]
struct FrameLoc {
    segment: u64,
    offset: u64,
    /// Whole frame, header included.
    len: u64,
}

/// The append side of the spool, built by a scan.
#[derive(Default)]
struct Log {
    /// `false` until a scan has indexed the directory.
    indexed: bool,
    /// Every segment known: number → bytes.
    segments: BTreeMap<u64, u64>,
    /// Each live job's latest valid frame.
    index: HashMap<JobId, FrameLoc>,
    /// Bytes of the indexed frames.
    live: u64,
    /// The segment appends go to, once created.
    active: Option<(u64, File)>,
}

impl Log {
    /// Points `id` at `loc` (or forgets it), keeping `live` in step.
    fn set(&mut self, id: JobId, loc: Option<FrameLoc>) {
        let old = match loc {
            Some(loc) => {
                self.live += loc.len;
                self.index.insert(id, loc)
            }
            None => self.index.remove(&id),
        };
        self.live -= old.map_or(0, |l| l.len);
    }

    fn dead(&self) -> u64 {
        self.segments
            .values()
            .sum::<u64>()
            .saturating_sub(self.live)
    }
}

impl Spool {
    /// Opens (creating if needed) the spool directory. Touches no file
    /// in it.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            chaos: None,
            log: Mutex::new(Log::default()),
        })
    }

    /// Arms a chaos injector: scripted writes/reads fail or tear.
    pub fn set_chaos(&mut self, chaos: Option<Arc<ChaosInjector>>) {
        self.chaos = chaos;
    }

    /// The directory this spool persists into.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn segment_path(&self, n: u64) -> PathBuf {
        self.dir.join(format!("{SEGMENT_PREFIX}{n}"))
    }

    /// Persists one record: appends its frame to the log.
    pub fn save(&self, record: &JobRecord) -> io::Result<()> {
        let nested = record.engine_snapshot.as_ref().map(Snapshot::to_bytes);
        self.save_with(record, nested.as_deref())
    }

    /// [`Spool::save`] with the engine snapshot supplied pre-encoded
    /// (`Snapshot::to_bytes` output); `record.engine_snapshot` is ignored.
    pub(crate) fn save_with(&self, record: &JobRecord, nested: Option<&[u8]>) -> io::Result<()> {
        let mut frame = encode_frame(record, nested)?;
        let mut torn = false;
        if let Some(chaos) = &self.chaos {
            match chaos.on_spool_write() {
                SpoolWriteChaos::None => {}
                SpoolWriteChaos::Error => {
                    return Err(io::Error::other("chaos: injected spool write error"));
                }
                SpoolWriteChaos::Truncate(keep) => {
                    // Silent tear: the record lands corrupt inside a
                    // well-formed frame (as if the device dropped its
                    // tail). The write "succeeds"; the checksum catches
                    // the damage at the next recovery scan, and the
                    // index keeps the job's previous frame.
                    frame.truncate(HEADER_LEN + keep.min(frame.len() - HEADER_LEN));
                    set_frame_len(&mut frame)?;
                    torn = true;
                }
            }
        }
        let mut log = lock(&self.log);
        self.index_once(&mut log)?;
        let loc = self.append(&mut log, &frame)?;
        if !torn {
            log.set(record.id, Some(loc));
        }
        self.compact_if_due(&mut log);
        Ok(())
    }

    /// Removes a job's record by appending a tombstone (idempotent: a
    /// job with no live record writes nothing).
    pub fn remove(&self, id: JobId) -> io::Result<()> {
        let mut log = lock(&self.log);
        self.index_once(&mut log)?;
        if !log.index.contains_key(&id) {
            return Ok(());
        }
        let mut tombstone = Vec::with_capacity(HEADER_LEN);
        tombstone.extend_from_slice(&FRAME_MAGIC);
        tombstone.extend_from_slice(&id.0.to_le_bytes());
        tombstone.extend_from_slice(&0u32.to_le_bytes());
        self.append(&mut log, &tombstone)?;
        log.set(id, None);
        self.compact_if_due(&mut log);
        Ok(())
    }

    /// Loads each job's latest valid record in one streaming pass over
    /// the segments, and indexes them for later appends. Unreadable
    /// frames and files are reported in [`SpoolScan::skipped`] (see the
    /// module docs), never fatal. Creates and modifies no file.
    pub fn load_all(&self) -> io::Result<SpoolScan> {
        let loaded = self.load()?;
        Ok(SpoolScan {
            records: loaded.records.into_iter().map(|(r, _)| r).collect(),
            skipped: loaded.skipped,
        })
    }

    /// [`Spool::load_all`], keeping each record's engine snapshot bytes.
    pub(crate) fn load(&self) -> io::Result<Loaded> {
        let mut log = lock(&self.log);
        self.scan(&mut log, self.chaos.as_deref())
    }

    /// Indexes the directory before the first append of a spool that
    /// was never scanned, so compaction keeps records it did not write.
    fn index_once(&self, log: &mut Log) -> io::Result<()> {
        if !log.indexed {
            self.scan(log, None)?;
        }
        Ok(())
    }

    fn scan(&self, log: &mut Log, chaos: Option<&ChaosInjector>) -> io::Result<Loaded> {
        let mut recovery = Recovery::default();
        let mut segments = BTreeMap::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if let Some(n) = name
                .strip_prefix(SEGMENT_PREFIX)
                .and_then(|n| n.parse::<u64>().ok())
            {
                segments.insert(n, path);
            } else if name.ends_with(OLD_EXTENSION) {
                recovery.unkeyed.push(SpoolCorruption {
                    path,
                    message: "record in the old one-file-per-job spool layout (not migrated)"
                        .into(),
                });
            }
        }
        let mut sizes = BTreeMap::new();
        for (n, path) in segments {
            let file = match File::open(&path) {
                // Compacted away under a concurrent reader.
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                other => other,
            };
            // Frames appended after the length is taken are not read.
            let scanned = file.and_then(|file| {
                let len = file.metadata()?.len();
                sizes.insert(n, len);
                scan_segment(n, &path, file, len, chaos, &mut recovery)
            });
            if let Err(e) = scanned {
                recovery.unkeyed.push(SpoolCorruption {
                    path,
                    message: e.to_string(),
                });
            }
        }
        *log = Log {
            indexed: true,
            segments: sizes,
            ..Log::default()
        };
        let mut records = Vec::with_capacity(recovery.live.len());
        for (id, (recovered, loc)) in recovery.live {
            log.set(id, Some(loc));
            records.push(recovered);
        }
        records.sort_by_key(|(r, _)| r.id);
        let mut failed: Vec<(JobId, SpoolCorruption)> = recovery.failed.into_iter().collect();
        failed.sort_by_key(|(id, _)| *id);
        let mut skipped = recovery.unkeyed;
        skipped.extend(failed.into_iter().map(|(_, c)| c));
        Ok(Loaded { records, skipped })
    }

    /// Appends `frame` to the active segment (creating a fresh one if
    /// there is none) with one `write_all`; returns where it landed.
    fn append(&self, log: &mut Log, frame: &[u8]) -> io::Result<FrameLoc> {
        let (segment, mut file) = match log.active.take() {
            Some(active) => active,
            None => {
                let n = log.segments.keys().next_back().map_or(0, |n| n + 1);
                let file = OpenOptions::new()
                    .append(true)
                    .create_new(true)
                    .open(self.segment_path(n))?;
                log.segments.insert(n, 0);
                (n, file)
            }
        };
        let offset = log.segments.get(&segment).copied().unwrap_or(0);
        if let Err(e) = file.write_all(frame) {
            // Part of the frame may have landed: account for it, and
            // never append after it again.
            if let Ok(meta) = file.metadata() {
                log.segments.insert(segment, meta.len());
            }
            return Err(e);
        }
        let len = frame.len() as u64;
        log.segments.insert(segment, offset + len);
        log.active = Some((segment, file));
        Ok(FrameLoc {
            segment,
            offset,
            len,
        })
    }

    /// Compacts once the dead bytes exceed `max(live, 1 MiB)`. A failed
    /// compaction leaves every record where it was; it is retried at a
    /// later append.
    fn compact_if_due(&self, log: &mut Log) {
        if log.dead() > log.live.max(COMPACT_FLOOR) {
            let _ = self.compact(log);
        }
    }

    /// Copies each live job's latest frame, one at a time and in log
    /// order, into a new segment, which becomes the active one; then
    /// deletes the older segments, oldest first.
    fn compact(&self, log: &mut Log) -> io::Result<()> {
        let target = log.segments.keys().next_back().map_or(0, |n| n + 1);
        let mut out = OpenOptions::new()
            .append(true)
            .create_new(true)
            .open(self.segment_path(target))?;
        // From here on later appends must land after the new segment.
        log.active = None;
        log.segments.insert(target, 0);
        let mut frames: Vec<(JobId, FrameLoc)> =
            log.index.iter().map(|(id, l)| (*id, *l)).collect();
        frames.sort_by_key(|(_, l)| (l.segment, l.offset));
        let mut copy = || -> io::Result<Vec<(JobId, FrameLoc)>> {
            let mut readers: HashMap<u64, File> = HashMap::new();
            let mut buf = Vec::new();
            let mut moved = Vec::with_capacity(frames.len());
            let mut offset = 0;
            for &(id, loc) in &frames {
                let reader = match readers.entry(loc.segment) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(e) => e.insert(File::open(self.segment_path(loc.segment))?),
                };
                buf.resize(loc.len as usize, 0);
                reader.seek(SeekFrom::Start(loc.offset))?;
                reader.read_exact(&mut buf)?;
                out.write_all(&buf)?;
                moved.push((
                    id,
                    FrameLoc {
                        segment: target,
                        offset,
                        len: loc.len,
                    },
                ));
                offset += loc.len;
            }
            Ok(moved)
        };
        let moved = match copy() {
            Ok(moved) => moved,
            Err(e) => {
                // Nothing points into the partial copy: drop it (or keep
                // it known, all dead, for a later compaction to delete).
                if fs::remove_file(self.segment_path(target)).is_ok() {
                    log.segments.remove(&target);
                }
                return Err(e);
            }
        };
        log.segments
            .insert(target, moved.iter().map(|(_, l)| l.len).sum());
        for (id, loc) in moved {
            log.set(id, Some(loc));
        }
        log.active = Some((target, out));
        let old: Vec<u64> = log.segments.range(..target).map(|(n, _)| *n).collect();
        for n in old {
            match fs::remove_file(self.segment_path(n)) {
                Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
                _ => {
                    log.segments.remove(&n);
                }
            }
        }
        Ok(())
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What one recovery pass has found so far.
#[derive(Default)]
struct Recovery {
    /// Each live job's latest valid record, its engine snapshot bytes,
    /// and where its frame lives.
    live: HashMap<JobId, (Recovered, FrameLoc)>,
    /// Each job's latest failed frame not (yet) superseded.
    failed: HashMap<JobId, SpoolCorruption>,
    /// Damage no job can supersede (bad magic, unreadable files).
    unkeyed: Vec<SpoolCorruption>,
}

/// Reads segment `n` frame by frame into `recovery` (see the module
/// docs for how each crash shape is treated).
fn scan_segment(
    n: u64,
    path: &Path,
    file: File,
    len: u64,
    chaos: Option<&ChaosInjector>,
    recovery: &mut Recovery,
) -> io::Result<()> {
    let mut reader = BufReader::with_capacity(64 << 10, file);
    let mut record = Vec::new();
    let mut pos = 0;
    let corruption = |pos: u64, what: String| SpoolCorruption {
        path: path.to_path_buf(),
        message: format!("frame at offset {pos}: {what}"),
    };
    while len - pos >= HEADER_LEN as u64 {
        let mut header = [0u8; HEADER_LEN];
        reader.read_exact(&mut header)?;
        let (magic, rest) = header.split_at(4);
        let (id, frame_len) = rest.split_at(8);
        let id = JobId(u64::from_le_bytes(id.try_into().unwrap_or_default()));
        let frame_len = u64::from(u32::from_le_bytes(frame_len.try_into().unwrap_or_default()));
        let end = pos + HEADER_LEN as u64 + frame_len;
        // Why this frame failed, if it did; the scan then resyncs on the
        // next frame magic after its start.
        let failure = if magic != FRAME_MAGIC {
            recovery
                .unkeyed
                .push(corruption(pos, "bad frame magic".into()));
            None
        } else if end > len {
            // Torn tail, unless a frame follows (then it is damage).
            Some("frame runs past the end of its segment".to_string())
        } else {
            record.resize(frame_len as usize, 0);
            reader.read_exact(&mut record)?;
            if chaos.is_some_and(ChaosInjector::on_spool_read) {
                recovery.failed.insert(
                    id,
                    corruption(pos, "chaos: injected spool read error".into()),
                );
                pos = end;
                continue;
            }
            if frame_len == 0 {
                recovery.live.remove(&id);
                recovery.failed.remove(&id);
                pos = end;
                continue;
            }
            match decode(&record) {
                Ok((decoded, nested)) if decoded.id == id => {
                    let loc = FrameLoc {
                        segment: n,
                        offset: pos,
                        len: end - pos,
                    };
                    recovery
                        .live
                        .insert(id, ((decoded, nested.map(Arc::from)), loc));
                    recovery.failed.remove(&id);
                    pos = end;
                    continue;
                }
                Ok((decoded, _)) => Some(format!("header names {id}, record holds {}", decoded.id)),
                Err(message) => Some(message),
            }
        };
        match resync(&mut reader, pos + 1, len)? {
            Some(next) => {
                if let Some(message) = failure {
                    recovery.failed.insert(id, corruption(pos, message));
                }
                pos = next;
            }
            None => {
                // Nothing valid follows: a frame running past the end
                // is a torn tail (ignored); any other damage counts.
                if let Some(message) = failure.filter(|_| end <= len) {
                    recovery.failed.insert(id, corruption(pos, message));
                }
                break;
            }
        }
    }
    Ok(())
}

/// Scans forward from `from` for the next frame magic; leaves `reader`
/// positioned on it and returns its offset, or `None` at the end.
fn resync(reader: &mut BufReader<File>, from: u64, len: u64) -> io::Result<Option<u64>> {
    reader.seek(SeekFrom::Start(from))?;
    let magic = u32::from_be_bytes(FRAME_MAGIC);
    let mut window = 0u32;
    let mut pos = from;
    while pos < len {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            break;
        }
        let take = buf.len().min((len - pos) as usize);
        for (i, byte) in buf[..take].iter().enumerate() {
            window = (window << 8) | u32::from(*byte);
            let read = pos + i as u64 + 1;
            if read - from >= 4 && window == magic {
                let start = read - 4;
                reader.seek(SeekFrom::Start(start))?;
                return Ok(Some(start));
            }
        }
        reader.consume(take);
        pos += take as u64;
    }
    Ok(None)
}

/// Encodes `record`'s frame: header, record container, then `nested`
/// (an engine snapshot's `to_bytes`) as its engine snapshot;
/// `record.engine_snapshot` is ignored. The frame equals that of the
/// record carrying the decoded snapshot, so callers holding the encoded
/// form never re-encode it. Only the container is checksummed here:
/// `nested` carries its own sum.
fn encode_frame(record: &JobRecord, nested: Option<&[u8]>) -> io::Result<Vec<u8>> {
    let nested_sum = nested
        .map(|bytes| {
            let sum = stored_checksum(bytes).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "engine snapshot is shorter than its checksum",
                )
            })?;
            Ok::<_, io::Error>((bytes.len(), sum))
        })
        .transpose()?;
    let spec = record.spec.to_json_string();
    let message = match &record.state {
        JobState::Failed(m) | JobState::Poisoned(m) => m.len(),
        _ => 0,
    };
    // Room for the whole frame up front: growing would copy the snapshot.
    let capacity = HEADER_LEN + 256 + spec.len() + message + nested.map_or(0, <[u8]>::len);
    let mut header = Vec::with_capacity(capacity);
    header.extend_from_slice(&FRAME_MAGIC);
    header.extend_from_slice(&record.id.0.to_le_bytes());
    header.extend_from_slice(&[0; 4]);
    let mut frame = Snapshot::encode_after(header, SPOOL_TAG, |w| {
        put_record(w, record, &spec, nested_sum);
    });
    frame.extend_from_slice(nested.unwrap_or_default());
    set_frame_len(&mut frame)?;
    Ok(frame)
}

/// The checksum a serialized snapshot stores in its last 8 bytes.
fn stored_checksum(snapshot: &[u8]) -> Option<u64> {
    snapshot
        .last_chunk::<8>()
        .map(|sum| u64::from_le_bytes(*sum))
}

/// Writes the record's length into its frame header.
fn set_frame_len(frame: &mut [u8]) -> io::Result<()> {
    let len = u32::try_from(frame.len() - HEADER_LEN)
        .map_err(|_| io::Error::other("spool record exceeds 4 GiB"))?;
    frame[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    Ok(())
}

/// Writes the container payload; `nested` is the engine snapshot's length
/// and stored checksum.
fn put_record(
    w: &mut SnapshotWriter,
    record: &JobRecord,
    spec: &str,
    nested: Option<(usize, u64)>,
) {
    w.put_u8(SPOOL_VERSION);
    w.put_u64(record.id.0);
    w.put_str(spec);
    match &record.state {
        JobState::Queued => w.put_u8(0),
        JobState::Running => w.put_u8(1),
        JobState::Done(reason) => {
            w.put_u8(2);
            w.put_str(stop_reason_name(*reason));
        }
        JobState::Cancelled => w.put_u8(3),
        JobState::Failed(message) => {
            w.put_u8(4);
            w.put_str(message);
        }
        JobState::Poisoned(message) => {
            w.put_u8(5);
            w.put_str(message);
        }
    }
    w.put_u64(record.slices);
    w.put_u64(record.steps);
    w.put_u64(record.consumed.as_micros() as u64);
    w.put_u64(record.retries);
    w.put_u64(record.progress.generations);
    w.put_u64(record.progress.evaluations);
    w.put_f64(record.progress.best_fitness);
    w.put_bool(record.progress.best_is_optimal);
    match nested {
        Some((len, sum)) => {
            w.put_bool(true);
            w.put_usize(len);
            w.put_u64(sum);
        }
        None => w.put_bool(false),
    }
}

/// Decodes a frame's record (everything after the frame header) into the
/// job record and its engine snapshot's bytes.
fn decode(bytes: &[u8]) -> Result<(JobRecord, Option<&[u8]>), String> {
    let (container, nested) =
        Snapshot::from_prefix(bytes).map_err(|e| format!("bad container: {e:?}"))?;
    let mut r = container
        .reader_for(SPOOL_TAG)
        .map_err(|e| format!("not a spool record: {e:?}"))?;
    let fail = |what: &'static str| move |e| format!("bad {what}: {e:?}");
    let version = r.take_u8().map_err(fail("version"))?;
    if version != SPOOL_VERSION {
        return Err(format!("unsupported spool version {version}"));
    }
    let id = JobId(r.take_u64().map_err(fail("id"))?);
    let spec_text = r.take_str().map_err(fail("spec"))?;
    let spec = JobSpec::from_json_str(&spec_text).map_err(|e| format!("bad spec: {e}"))?;
    let state = match r.take_u8().map_err(fail("state"))? {
        0 => JobState::Queued,
        1 => JobState::Running,
        2 => {
            let name = r.take_str().map_err(fail("stop reason"))?;
            JobState::Done(
                stop_reason_from_name(&name)
                    .ok_or_else(|| format!("unknown stop reason `{name}`"))?,
            )
        }
        3 => JobState::Cancelled,
        4 => JobState::Failed(r.take_str().map_err(fail("error message"))?),
        5 => JobState::Poisoned(r.take_str().map_err(fail("error message"))?),
        other => return Err(format!("unknown state tag {other}")),
    };
    let slices = r.take_u64().map_err(fail("slices"))?;
    let steps = r.take_u64().map_err(fail("steps"))?;
    let consumed = Duration::from_micros(r.take_u64().map_err(fail("consumed"))?);
    let retries = r.take_u64().map_err(fail("retries"))?;
    let progress = JobProgress {
        generations: r.take_u64().map_err(fail("generations"))?,
        evaluations: r.take_u64().map_err(fail("evaluations"))?,
        best_fitness: r.take_f64().map_err(fail("best fitness"))?,
        best_is_optimal: r.take_bool().map_err(fail("optimal flag"))?,
    };
    let nested_sum = if r.take_bool().map_err(fail("snapshot flag"))? {
        let len = r.take_usize().map_err(fail("engine snapshot length"))?;
        let sum = r.take_u64().map_err(fail("engine snapshot checksum"))?;
        Some((len, sum))
    } else {
        None
    };
    r.finish().map_err(|e| format!("trailing bytes: {e:?}"))?;
    let (nested, engine_snapshot) = match nested_sum {
        Some((len, sum)) => {
            if nested.len() != len {
                return Err(format!(
                    "frame holds {} engine snapshot bytes, record says {len}",
                    nested.len()
                ));
            }
            if stored_checksum(nested) != Some(sum) {
                return Err("engine snapshot checksum differs from the record's copy".into());
            }
            let snapshot =
                Snapshot::from_bytes(nested).map_err(|e| format!("bad engine snapshot: {e:?}"))?;
            (Some(nested), Some(snapshot))
        }
        None if nested.is_empty() => (None, None),
        None => return Err(format!("{} bytes after the record", nested.len())),
    };
    let record = JobRecord {
        id,
        spec,
        state,
        slices,
        steps,
        consumed,
        retries,
        progress,
        engine_snapshot,
    };
    Ok((record, nested))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Budget, EngineSpec, ProblemSpec};
    use pga_core::termination::StopReason;

    fn record(id: u64, state: JobState) -> JobRecord {
        JobRecord {
            id: JobId(id),
            spec: JobSpec {
                tenant: "acme".into(),
                problem: ProblemSpec::onemax(24),
                engine: EngineSpec::ga(12, 1),
                seed: 3,
                budget: Budget {
                    generations: Some(20),
                    ..Budget::default()
                },
            },
            state,
            slices: 4,
            steps: 32,
            consumed: Duration::from_micros(1234),
            retries: 1,
            progress: JobProgress {
                generations: 32,
                evaluations: 384,
                best_fitness: 21.0,
                best_is_optimal: false,
            },
            engine_snapshot: Some(Snapshot::new("ga", vec![1, 2, 3, 4])),
        }
    }

    /// `record`'s frame, as a save appends it.
    fn frame(record: &JobRecord) -> Vec<u8> {
        let nested = record.engine_snapshot.as_ref().map(Snapshot::to_bytes);
        encode_frame(record, nested.as_deref()).unwrap()
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pga-serve-spool-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Every file in `dir`, by name, with its bytes.
    fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, fs::read(&path).unwrap())
            })
            .collect()
    }

    /// A fresh spool directory holding `bytes` as its only segment.
    fn spool_with_segment(dir: &Path, bytes: &[u8]) -> Spool {
        let _ = fs::remove_dir_all(dir);
        fs::create_dir_all(dir).unwrap();
        fs::write(dir.join("spool-0"), bytes).unwrap();
        Spool::open(dir).unwrap()
    }

    #[test]
    fn records_roundtrip_through_disk() {
        let dir = tmp_dir("roundtrip");
        let spool = Spool::open(&dir).unwrap();
        let states = [
            JobState::Queued,
            JobState::Running,
            JobState::Done(StopReason::TargetReached),
            JobState::Cancelled,
            JobState::Failed("island 2 panicked".into()),
            JobState::Poisoned("panicked 3 times".into()),
        ];
        for (i, state) in states.iter().enumerate() {
            spool.save(&record(i as u64, state.clone())).unwrap();
        }
        let scan = Spool::open(&dir).unwrap().load_all().unwrap();
        assert!(scan.skipped.is_empty(), "{:?}", scan.skipped);
        assert_eq!(scan.records.len(), states.len());
        for (i, state) in states.iter().enumerate() {
            assert_eq!(scan.records[i], record(i as u64, state.clone()));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_overwrites_and_remove_is_idempotent() {
        let dir = tmp_dir("overwrite");
        let spool = Spool::open(&dir).unwrap();
        let mut r = record(7, JobState::Running);
        spool.save(&r).unwrap();
        r.steps = 99;
        spool.save(&r).unwrap();
        let scan = spool.load_all().unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].steps, 99);
        spool.remove(JobId(7)).unwrap();
        let written = files(&dir);
        spool.remove(JobId(7)).unwrap();
        assert_eq!(files(&dir), written, "a second remove writes nothing");
        assert!(spool.load_all().unwrap().records.is_empty());
        // The tombstone is durable: a fresh spool sees the job removed.
        let reopened = Spool::open(&dir).unwrap().load_all().unwrap();
        assert!(reopened.records.is_empty() && reopened.skipped.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn encode_with_prepared_snapshot_bytes_matches_the_record_layout() {
        let snapshot = Snapshot::new("ga", (0..=255).collect());
        let bare = JobRecord {
            engine_snapshot: None,
            ..record(5, JobState::Poisoned("boom".into()))
        };
        let carrying = JobRecord {
            engine_snapshot: Some(snapshot.clone()),
            ..bare.clone()
        };
        let nested = snapshot.to_bytes();
        // The version-3 container, field by field: the engine snapshot's
        // length and stored checksum stand in for its bytes.
        let mut w = SnapshotWriter::new();
        w.put_u8(3);
        w.put_u64(5);
        w.put_str(&bare.spec.to_json_string());
        w.put_u8(5);
        w.put_str("boom");
        for v in [4, 32, 1234, 1, 32, 384] {
            w.put_u64(v);
        }
        w.put_f64(21.0);
        w.put_bool(false);
        w.put_bool(true);
        w.put_u64(nested.len() as u64);
        w.put_u64(u64::from_le_bytes(
            nested[nested.len() - 8..].try_into().unwrap(),
        ));
        let container = Snapshot::new(SPOOL_TAG, w.into_bytes()).to_bytes();
        // The frame: magic, job id, record length, the container, then
        // the engine snapshot's bytes as they are.
        let mut expected = b"PGJF".to_vec();
        expected.extend_from_slice(&5u64.to_le_bytes());
        expected.extend_from_slice(&((container.len() + nested.len()) as u32).to_le_bytes());
        expected.extend_from_slice(&container);
        expected.extend_from_slice(&nested);
        let prepared = encode_frame(&bare, Some(&nested)).unwrap();
        assert_eq!(prepared, expected);
        assert_eq!(frame(&carrying), prepared);
        let (decoded, bytes) = decode(&expected[HEADER_LEN..]).unwrap();
        assert_eq!(decoded, carrying);
        assert_eq!(bytes, Some(&nested[..]));
        // A record without an engine snapshot is its container alone.
        assert_eq!(decode(&frame(&bare)[HEADER_LEN..]).unwrap(), (bare, None));
    }

    #[test]
    fn a_frame_length_other_than_container_plus_snapshot_is_corrupt() {
        let r = record(4, JobState::Running);
        let whole = frame(&r);
        let body = &whole[HEADER_LEN..];
        assert_eq!(decode(body).unwrap().0, r);
        // Short by one byte, or one byte (of any value) too long.
        assert!(decode(&body[..body.len() - 1]).is_err());
        for extra in [0u8, 0xff] {
            let mut longer = body.to_vec();
            longer.push(extra);
            assert!(decode(&longer).is_err(), "extra byte {extra}");
        }
        // A valid engine snapshot of the same length, but not the one the
        // container names, is caught by the container's copy of its sum.
        let other = Snapshot::new("ga", vec![1, 2, 3, 5]).to_bytes();
        let mut swapped = body.to_vec();
        let at = swapped.len() - other.len();
        swapped[at..].copy_from_slice(&other);
        let err = decode(&swapped).unwrap_err();
        assert!(err.contains("differs from the record's copy"), "{err}");
    }

    #[test]
    fn corrupt_frames_are_skipped_unless_superseded() {
        let dir = tmp_dir("corrupt");
        let mut bytes = frame(&record(1, JobState::Queued));
        // Job 2: a corrupt frame superseded by a later good one.
        let mut damaged = frame(&record(2, JobState::Queued));
        let mid = damaged.len() / 2;
        damaged[mid] ^= 0xff;
        bytes.extend(&damaged);
        // Job 3: a good frame, then a corrupt latest one.
        bytes.extend(frame(&record(3, JobState::Queued)));
        let mut latest = frame(&record(3, JobState::Running));
        latest[mid] ^= 0xff;
        bytes.extend(&latest);
        bytes.extend(frame(&record(2, JobState::Running)));
        let spool = spool_with_segment(&dir, &bytes);
        // A leftover record of the old one-file-per-job layout.
        fs::write(dir.join("j9.pgaj"), b"old").unwrap();
        let scan = spool.load_all().unwrap();
        assert_eq!(
            scan.records,
            vec![
                record(1, JobState::Queued),
                record(2, JobState::Running),
                record(3, JobState::Queued),
            ],
            "job 3 resumes from its last good frame"
        );
        let messages: Vec<&str> = scan.skipped.iter().map(|s| s.message.as_str()).collect();
        assert_eq!(messages.len(), 2, "{messages:?}");
        assert!(messages[0].contains("old one-file-per-job"), "{messages:?}");
        assert!(messages[1].contains("Checksum"), "{messages:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_truncation_and_byte_flip_of_a_segment_loads_only_saved_records() {
        let dir = tmp_dir("mutation");
        let saved = [
            record(1, JobState::Queued),
            record(2, JobState::Running),
            record(1, JobState::Done(StopReason::MaxGenerations)),
        ];
        let frames: Vec<Vec<u8>> = saved.iter().map(frame).collect();
        let segment = frames.concat();
        let clean = spool_with_segment(&dir, &segment).load_all().unwrap();
        assert_eq!(clean.records, vec![saved[2].clone(), saved[1].clone()]);

        // A truncation is a torn tail: never reported, and every frame
        // before it still loads.
        for keep in 0..=segment.len() {
            let scan = spool_with_segment(&dir, &segment[..keep])
                .load_all()
                .unwrap();
            assert!(scan.skipped.is_empty(), "keep {keep}: {:?}", scan.skipped);
            let mut expected = BTreeMap::new();
            let mut end = 0;
            for (r, f) in saved.iter().zip(&frames) {
                end += f.len();
                if end <= keep {
                    expected.insert(r.id, r.clone());
                }
            }
            let expected: Vec<JobRecord> = expected.into_values().collect();
            assert_eq!(scan.records, expected, "keep {keep}");
        }
        // A flipped byte never yields a record that was not saved, and
        // is reported unless it left the result unchanged — or grew the
        // last frame's length past the end, which is a torn tail's shape.
        let last = segment.len() - frames[2].len();
        let torn_shape = vec![saved[0].clone(), saved[1].clone()];
        for at in 0..segment.len() {
            let mut bytes = segment.clone();
            bytes[at] ^= 0xff;
            let scan = spool_with_segment(&dir, &bytes).load_all().unwrap();
            for r in &scan.records {
                assert!(saved.contains(r), "flip at {at} yielded {r:?}");
            }
            let silent = scan.skipped.is_empty() && scan.records != clean.records;
            let last_len = (last + 12..last + 16).contains(&at);
            assert!(
                !silent || (last_len && scan.records == torn_shape),
                "flip at {at} lost records silently"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_bounds_the_segments_and_keeps_the_latest_records() {
        let dir = tmp_dir("compaction");
        let spool = Spool::open(&dir).unwrap();
        let disk = || -> u64 { files(&dir).values().map(|b| b.len() as u64).sum() };
        let mut latest = BTreeMap::new();
        for i in 0..10_000u64 {
            let mut r = record(i % 50, JobState::Running);
            r.steps = i;
            spool.save(&r).unwrap();
            latest.insert(r.id, r);
            if i % 97 == 0 {
                let live = lock(&spool.log).live;
                assert!(disk() <= 2 * live + COMPACT_FLOOR, "save {i}");
            }
        }
        let live = lock(&spool.log).live;
        assert!(disk() <= 2 * live + COMPACT_FLOOR);
        assert!(files(&dir).len() <= 2, "old segments deleted");
        let expected: Vec<JobRecord> = latest.into_values().collect();
        let scan = Spool::open(&dir).unwrap().load_all().unwrap();
        assert!(scan.skipped.is_empty(), "{:?}", scan.skipped);
        assert_eq!(scan.records, expected);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_crash_mid_compaction_recovers_the_same_records() {
        let dir = tmp_dir("mid-compaction");
        let a = record(1, JobState::Running);
        let b = record(2, JobState::Running);
        let mut segment = frame(&a);
        segment.extend(frame(&b));
        // Job 2 removed: its tombstone.
        segment.extend(b"PGJF");
        segment.extend(2u64.to_le_bytes());
        segment.extend(0u32.to_le_bytes());
        let spool = spool_with_segment(&dir, &segment);
        let before = spool.load_all().unwrap();
        assert_eq!(before.records, vec![a.clone()]);
        // Compaction copied job 1's latest frame into segment 1 and died
        // mid-copy, or right after it, before deleting segment 0.
        let copy = frame(&a);
        for keep in [copy.len() / 2, copy.len()] {
            fs::write(dir.join("spool-1"), &copy[..keep]).unwrap();
            let scan = Spool::open(&dir).unwrap().load_all().unwrap();
            assert_eq!(scan.records, before.records, "copy of {keep} bytes");
            assert!(scan.skipped.is_empty(), "{:?}", scan.skipped);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scans_touch_no_file_and_appends_go_to_a_fresh_segment() {
        let dir = tmp_dir("fresh-segment");
        let writer = Spool::open(&dir).unwrap();
        writer.save(&record(1, JobState::Running)).unwrap();
        let before = files(&dir);
        let reader = Spool::open(&dir).unwrap();
        assert_eq!(reader.load_all().unwrap().records.len(), 1);
        assert_eq!(files(&dir), before, "a scan creates or modifies no file");
        // After a scan, the first append opens `spool-1`: never after a
        // possibly torn tail of `spool-0`.
        reader.save(&record(2, JobState::Running)).unwrap();
        let after = files(&dir);
        assert_eq!(after["spool-0"], before["spool-0"]);
        assert!(after.contains_key("spool-1"));
        assert_eq!(reader.load_all().unwrap().records.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_write_error_fails_save_and_leaves_previous_record() {
        let dir = tmp_dir("chaos-write");
        let mut spool = Spool::open(&dir).unwrap();
        spool.set_chaos(Some(Arc::new(ChaosInjector::new(
            pga_cluster::ChaosPlan::none().spool_write_error(1),
        ))));
        let mut r = record(1, JobState::Running);
        spool.save(&r).unwrap();
        r.steps = 777;
        let err = spool.save(&r).unwrap_err();
        assert!(err.to_string().contains("chaos"), "{err}");
        // The previous consistent record is untouched.
        let scan = spool.load_all().unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].steps, 32);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_torn_write_is_caught_by_recovery_checksum() {
        let dir = tmp_dir("chaos-tear");
        let mut spool = Spool::open(&dir).unwrap();
        spool.set_chaos(Some(Arc::new(ChaosInjector::new(
            pga_cluster::ChaosPlan::none().spool_write_truncated(0, 24),
        ))));
        // The tear is silent at write time...
        spool.save(&record(9, JobState::Running)).unwrap();
        // ...and caught at the recovery scan: skipped, never fatal.
        let scan = spool.load_all().unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.skipped.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_read_error_skips_the_scripted_file_only() {
        let dir = tmp_dir("chaos-read");
        let mut spool = Spool::open(&dir).unwrap();
        spool.save(&record(1, JobState::Running)).unwrap();
        spool.save(&record(2, JobState::Running)).unwrap();
        spool.set_chaos(Some(Arc::new(ChaosInjector::new(
            pga_cluster::ChaosPlan::none().spool_read_error(0),
        ))));
        let scan = spool.load_all().unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.skipped.len(), 1);
        assert!(scan.skipped[0].message.contains("chaos"));
        let _ = fs::remove_dir_all(&dir);
    }
}
