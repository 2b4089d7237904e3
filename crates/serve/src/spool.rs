//! Crash-safe job spool: one file per job, rewritten after every slice.
//!
//! Each record reuses the core PGAS container ([`Snapshot`] with the
//! reserved tag `serve-job`), so spool files get the magic, versioning,
//! and FNV-1a checksum of engine checkpoints for free. The payload holds
//! the job's identity, its verbatim wire spec (from which the engine is
//! rebuilt deterministically), scheduler counters, mirrored progress, and
//! the engine's own nested PGAS snapshot.
//!
//! A save writes `<id>.pgaj.tmp`, unlinks `<id>.pgaj`, then renames the
//! tmp into place. It never renames over a live record: on ext4 a
//! replace-by-rename forces the new file to disk, which would make every
//! slice pay a synchronous writeback. A crash can therefore leave three
//! shapes, and recovery handles each:
//!
//! * torn tmp, record intact (crash mid-write): the tmp is ignored;
//! * complete tmp, no record (crash between unlink and rename): the tmp
//!   is *adopted* — renamed into place and loaded — if it checksums and
//!   names the job its file name says; otherwise it is ignored;
//! * torn record (a device that dropped the tail): skipped and reported.
//!
//! Records survive a process crash. There is no fsync, so a power loss
//! may lose the newest record of a job (its previous slice is then
//! replayed, or the job is missing if it had only one). Recovery loads
//! every readable record and reports unreadable ones instead of failing
//! the whole restart — one corrupt job must not take the server down.
//!
//! For fault drills a [`ChaosInjector`] can be armed on the spool:
//! scripted write indices then fail with an IO error (exercising the
//! scheduler's persist-retry/degraded path) or tear the record on disk
//! (exercising checksum-guarded recovery). The default is `None` and
//! costs one branch per operation.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use pga_cluster::chaos::{ChaosInjector, SpoolWriteChaos};
use pga_core::snapshot::{Snapshot, SnapshotWriter};

use crate::job::{stop_reason_from_name, stop_reason_name, JobId, JobProgress, JobState};
use crate::protocol::JobSpec;

/// Container tag for spool records (distinct from every engine tag).
const SPOOL_TAG: &str = "serve-job";
/// Spool record format version. Version 2 added the retry counter and
/// the `Poisoned` state tag; version-1 records still decode (with
/// `retries = 0`).
const SPOOL_VERSION: u8 = 2;
/// Spool file extension.
const EXTENSION: &str = "pgaj";

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
    /// Records that decoded and checksummed cleanly, ordered by id.
    pub records: Vec<JobRecord>,
    /// Files that did not (corrupt, truncated, foreign).
    pub skipped: Vec<SpoolCorruption>,
}

/// A directory of per-job checkpoint files.
pub struct Spool {
    dir: PathBuf,
    chaos: Option<Arc<ChaosInjector>>,
}

impl Spool {
    /// Opens (creating if needed) the spool directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir, chaos: None })
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

    fn file_for(&self, id: JobId) -> PathBuf {
        self.dir.join(format!("{id}.{EXTENSION}"))
    }

    /// Persists one record: tmp file, unlink, rename (see the module
    /// docs for the crash windows).
    pub fn save(&self, record: &JobRecord) -> io::Result<()> {
        let nested = record.engine_snapshot.as_ref().map(Snapshot::to_bytes);
        self.save_with(record, nested.as_deref())
    }

    /// [`Spool::save`] with the engine snapshot supplied pre-encoded
    /// (`Snapshot::to_bytes` output); `record.engine_snapshot` is ignored.
    pub(crate) fn save_with(&self, record: &JobRecord, nested: Option<&[u8]>) -> io::Result<()> {
        let mut bytes = encode_with(record, nested);
        if let Some(chaos) = &self.chaos {
            match chaos.on_spool_write() {
                SpoolWriteChaos::None => {}
                SpoolWriteChaos::Error => {
                    return Err(io::Error::other("chaos: injected spool write error"));
                }
                SpoolWriteChaos::Truncate(keep) => {
                    // Silent tear: the record lands corrupt (as if the
                    // device dropped the tail after the rename). The
                    // write "succeeds"; the checksum catches the damage
                    // at the next recovery scan.
                    bytes.truncate(keep.min(bytes.len()));
                }
            }
        }
        let target = self.file_for(record.id);
        let tmp = tmp_for(&target);
        fs::write(&tmp, &bytes)?;
        remove_if_present(&target)?;
        fs::rename(&tmp, &target)
    }

    /// Removes a job's record (idempotent).
    pub fn remove(&self, id: JobId) -> io::Result<()> {
        remove_if_present(&self.file_for(id))
    }

    /// Loads every record in the directory, adopting complete orphan
    /// tmp files. Unreadable records are reported in
    /// [`SpoolScan::skipped`], never fatal; unadoptable tmps are ignored.
    pub fn load_all(&self) -> io::Result<SpoolScan> {
        let mut scan = SpoolScan::default();
        // List first: adoption renames inside the directory being read.
        let paths = fs::read_dir(&self.dir)?
            .map(|entry| entry.map(|e| e.path()))
            .collect::<io::Result<Vec<_>>>()?;
        for path in paths {
            match path.extension().and_then(|e| e.to_str()) {
                Some(EXTENSION) => {}
                Some("tmp") => {
                    if let Some(record) = self.adopt(&path) {
                        scan.records.push(record);
                    }
                    continue;
                }
                _ => continue,
            }
            if self.chaos.as_ref().is_some_and(|c| c.on_spool_read()) {
                scan.skipped.push(SpoolCorruption {
                    path,
                    message: "chaos: injected spool read error".into(),
                });
                continue;
            }
            let bytes = match fs::read(&path) {
                Ok(b) => b,
                Err(e) => {
                    scan.skipped.push(SpoolCorruption {
                        path,
                        message: e.to_string(),
                    });
                    continue;
                }
            };
            match decode(&bytes) {
                Ok(record) => scan.records.push(record),
                Err(message) => scan.skipped.push(SpoolCorruption { path, message }),
            }
        }
        scan.records.sort_by_key(|r| r.id);
        Ok(scan)
    }

    /// Adopts `tmp` when a crash fell between a save's unlink and its
    /// rename: its record is missing, and the tmp checksums and belongs
    /// to that record's job. Renames it into place and returns it.
    fn adopt(&self, tmp: &Path) -> Option<JobRecord> {
        let target = tmp.with_extension("");
        if target.extension().and_then(|e| e.to_str()) != Some(EXTENSION) || target.exists() {
            return None;
        }
        let record = decode(&fs::read(tmp).ok()?).ok()?;
        if target != self.file_for(record.id) {
            return None;
        }
        fs::rename(tmp, &target).ok()?;
        Some(record)
    }
}

fn remove_if_present(path: &Path) -> io::Result<()> {
    match fs::remove_file(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        other => other,
    }
}

fn tmp_for(target: &Path) -> PathBuf {
    target.with_extension(format!("{EXTENSION}.tmp"))
}

/// Encodes `record` with `nested` (an engine snapshot's `to_bytes`) as
/// its engine snapshot; `record.engine_snapshot` is ignored. The bytes
/// equal those of the record carrying the decoded snapshot, so callers
/// holding the encoded form never re-encode it.
pub(crate) fn encode_with(record: &JobRecord, nested: Option<&[u8]>) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.put_u8(SPOOL_VERSION);
    w.put_u64(record.id.0);
    w.put_str(&record.spec.to_json_string());
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
        Some(bytes) => {
            w.put_bool(true);
            w.put_bytes(bytes);
        }
        None => w.put_bool(false),
    }
    Snapshot::new(SPOOL_TAG, w.into_bytes()).to_bytes()
}

fn decode(bytes: &[u8]) -> Result<JobRecord, String> {
    let container = Snapshot::from_bytes(bytes).map_err(|e| format!("bad container: {e:?}"))?;
    let mut r = container
        .reader_for(SPOOL_TAG)
        .map_err(|e| format!("not a spool record: {e:?}"))?;
    let fail = |what: &'static str| move |e| format!("bad {what}: {e:?}");
    let version = r.take_u8().map_err(fail("version"))?;
    if version == 0 || version > SPOOL_VERSION {
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
        5 if version >= 2 => JobState::Poisoned(r.take_str().map_err(fail("error message"))?),
        other => return Err(format!("unknown state tag {other}")),
    };
    let slices = r.take_u64().map_err(fail("slices"))?;
    let steps = r.take_u64().map_err(fail("steps"))?;
    let consumed = Duration::from_micros(r.take_u64().map_err(fail("consumed"))?);
    let retries = if version >= 2 {
        r.take_u64().map_err(fail("retries"))?
    } else {
        0
    };
    let progress = JobProgress {
        generations: r.take_u64().map_err(fail("generations"))?,
        evaluations: r.take_u64().map_err(fail("evaluations"))?,
        best_fitness: r.take_f64().map_err(fail("best fitness"))?,
        best_is_optimal: r.take_bool().map_err(fail("optimal flag"))?,
    };
    let engine_snapshot = if r.take_bool().map_err(fail("snapshot flag"))? {
        let nested = r.take_bytes().map_err(fail("engine snapshot"))?;
        Some(Snapshot::from_bytes(nested).map_err(|e| format!("bad engine snapshot: {e:?}"))?)
    } else {
        None
    };
    r.finish().map_err(|e| format!("trailing bytes: {e:?}"))?;
    Ok(JobRecord {
        id,
        spec,
        state,
        slices,
        steps,
        consumed,
        retries,
        progress,
        engine_snapshot,
    })
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

    fn encode(record: &JobRecord) -> Vec<u8> {
        let nested = record.engine_snapshot.as_ref().map(Snapshot::to_bytes);
        encode_with(record, nested.as_deref())
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pga-serve-spool-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
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
        let scan = spool.load_all().unwrap();
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
        spool.remove(JobId(7)).unwrap();
        assert!(spool.load_all().unwrap().records.is_empty());
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
        // The version-2 layout, field by field.
        let mut w = SnapshotWriter::new();
        w.put_u8(2);
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
        w.put_bytes(&snapshot.to_bytes());
        let expected = Snapshot::new(SPOOL_TAG, w.into_bytes()).to_bytes();
        assert_eq!(encode_with(&bare, Some(&snapshot.to_bytes())), expected);
        assert_eq!(encode(&carrying), expected);
        assert_eq!(decode(&expected).unwrap(), carrying);
    }

    #[test]
    fn orphan_tmp_is_adopted_only_when_complete_and_unclaimed() {
        let dir = tmp_dir("orphan");
        let spool = Spool::open(&dir).unwrap();
        let target = |id: u64| spool.file_for(JobId(id));
        // Crash between unlink and rename: only the complete tmp is left.
        spool.save(&record(1, JobState::Running)).unwrap();
        fs::rename(target(1), tmp_for(&target(1))).unwrap();
        // Crash mid-write with no record at all: a torn tmp.
        let bytes = encode(&record(2, JobState::Running));
        fs::write(tmp_for(&target(2)), &bytes[..bytes.len() / 2]).unwrap();
        // Crash mid-write over a live record: the record wins.
        spool.save(&record(3, JobState::Running)).unwrap();
        fs::write(tmp_for(&target(3)), encode(&record(3, JobState::Queued))).unwrap();
        // A complete tmp filed under another job's name.
        fs::write(tmp_for(&target(4)), encode(&record(5, JobState::Running))).unwrap();

        let scan = spool.load_all().unwrap();
        assert!(scan.skipped.is_empty(), "{:?}", scan.skipped);
        assert_eq!(
            scan.records,
            vec![record(1, JobState::Running), record(3, JobState::Running)]
        );
        assert!(target(1).exists() && !tmp_for(&target(1)).exists());
        for id in [2, 4] {
            assert!(!target(id).exists() && tmp_for(&target(id)).exists());
        }
        // Adopted once, it is an ordinary record from then on.
        assert_eq!(spool.load_all().unwrap().records.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_files_are_skipped_not_fatal() {
        let dir = tmp_dir("corrupt");
        let spool = Spool::open(&dir).unwrap();
        spool.save(&record(1, JobState::Queued)).unwrap();
        // Flip a payload byte in a valid record: checksum must catch it.
        let victim = dir.join("j2.pgaj");
        let mut bytes = encode(&record(2, JobState::Running));
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&victim, &bytes).unwrap();
        // And one file that is not a PGAS container at all.
        fs::write(dir.join("j3.pgaj"), b"garbage").unwrap();
        let scan = spool.load_all().unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].id, JobId(1));
        assert_eq!(scan.skipped.len(), 2);
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

    #[test]
    fn version_one_records_decode_with_zero_retries() {
        // Hand-roll a version-1 record: same layout, no retries field.
        let r1 = record(3, JobState::Running);
        let mut w = SnapshotWriter::new();
        w.put_u8(1);
        w.put_u64(r1.id.0);
        w.put_str(&r1.spec.to_json_string());
        w.put_u8(1);
        w.put_u64(r1.slices);
        w.put_u64(r1.steps);
        w.put_u64(r1.consumed.as_micros() as u64);
        w.put_u64(r1.progress.generations);
        w.put_u64(r1.progress.evaluations);
        w.put_f64(r1.progress.best_fitness);
        w.put_bool(r1.progress.best_is_optimal);
        w.put_bool(false);
        let bytes = Snapshot::new(SPOOL_TAG, w.into_bytes()).to_bytes();
        let decoded = decode(&bytes).unwrap();
        assert_eq!(decoded.retries, 0);
        assert_eq!(decoded.id, JobId(3));
        assert_eq!(decoded.state, JobState::Running);
    }
}
