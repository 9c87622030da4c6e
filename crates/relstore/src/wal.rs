//! Crash-safe persistence for the statistics catalog.
//!
//! The paper treats histograms as long-lived catalog state ("stored in
//! catalog tables", §4) — and production catalogs must survive the
//! process dying mid-write. This module provides write-ahead durability
//! for [`Catalog`] mutations:
//!
//! * **Journal** — every durable mutation (`put`, `put_matrix`,
//!   `note_updates`) is first appended to a generation-numbered journal
//!   file as a length-prefixed, FxHash-64-checksummed record, fsynced,
//!   and only then applied in memory. Append and apply happen under one
//!   journal lock — the same lock [`DurableCatalog::checkpoint`] holds
//!   while encoding its snapshot — so a snapshot can never miss a
//!   record committed to the journal it supersedes, and records are
//!   applied in exactly the order they are journaled. A crash
//!   mid-append leaves a torn tail that recovery detects (checksum or
//!   length mismatch) and truncates — every fully-synced record
//!   survives, every torn one is discarded whole.
//! * **Snapshot rotation** — [`DurableCatalog::checkpoint`] compacts
//!   the journal into a full `VOHG` snapshot: write
//!   `catalog.<gen+1>.vohg.tmp`, fsync, rename into place (atomic on
//!   POSIX), fsync the directory, then start a fresh journal for the
//!   new generation. The previous generation's snapshot *and* journal
//!   are kept, so a snapshot corrupted after the fact still recovers
//!   from the prior generation; older generations are garbage-collected.
//! * **Recovery** — [`Catalog::recover`] loads the newest snapshot that
//!   passes its checksum and replays that generation's journal tail in
//!   append order, so entries are re-stamped against the replayed
//!   version counters exactly as they were stamped originally.
//!
//! Staleness semantics across recovery: the `VOHG` snapshot format
//! deliberately persists no version counters (reloaded statistics start
//! fresh, as after an ANALYZE), so recovered staleness counts updates
//! *since the last checkpoint* — the journal's `note_updates` records
//! restore exactly that window. Refresh-failure streaks are in-memory
//! diagnostics and are not journaled.
//!
//! Fault injection: [`DurableCatalog::arm_kill`] plants a one-shot
//! [`KillPoint`] that makes the next matching operation fail exactly as
//! a crash at that instant would (torn append, skipped fsync, missing
//! rename). The oracle drives every kill point and checks that recovery
//! lands on a committed state — see `oracle::faults`.
//!
//! Orthogonally, [`DurableCatalog::arm_io_fault`] plants a one-shot
//! *error-return* fault ([`IoFault::Enospc`] or [`IoFault::Eio`]) at
//! one of the durable-write sites (journal append, journal fsync,
//! snapshot rotate). Unlike a kill point — which models the process
//! dying — an I/O fault models the *disk* failing under a live
//! process: the write returns an error, nothing is committed, and the
//! store flips into a **read-only degraded mode**. Reads keep serving
//! the last committed state, writes return [`StoreError::ReadOnly`],
//! the `catalog_readonly` gauge goes to 1 and a trace event is
//! emitted. A successful [`DurableCatalog::checkpoint`] — the
//! maintenance daemon probes one per sweep via
//! [`DurableCatalog::probe_restore`] — proves durable writes work
//! again and restores read-write.

use crate::catalog::{Catalog, StatKey, StoredHistogram, TuneReport};
use crate::catalog2d::StoredMatrixHistogram;
use crate::codec;
use crate::error::{Result, StoreError};
use crate::maintenance::{MaintenanceOutcome, RefreshPolicy};
use crate::relation::Relation;
use crate::stats::{frequency_matrix_table, frequency_table};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use parking_lot::Mutex;
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use vopt_hist::feedback::{TuneConfig, TuneSkip};
use vopt_hist::{BuilderSpec, MatrixHistogram};

/// A crash site that [`DurableCatalog::arm_kill`] can plant a one-shot
/// fault at. Each variant makes the next matching operation leave the
/// on-disk state exactly as a process crash at that instant would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillPoint {
    /// Die mid-`write(2)` of a journal record: a torn prefix of the
    /// frame reaches the disk.
    JournalAppend,
    /// Die after the record's `write(2)` but before `fsync`: the full
    /// frame is in the OS cache (and, in this simulation, on disk).
    JournalFsync,
    /// Die after writing and fsyncing the snapshot temp file but before
    /// the atomic rename: the temp file lingers, the previous
    /// generation stays current.
    SnapshotRotate,
    /// Die at the start of a maintenance refresh, before the scan:
    /// nothing is journaled, the previous entry keeps serving.
    DaemonRefresh,
}

impl KillPoint {
    /// Stable lowercase name, used in error messages and oracle output.
    pub fn name(self) -> &'static str {
        match self {
            KillPoint::JournalAppend => "journal_append",
            KillPoint::JournalFsync => "journal_fsync",
            KillPoint::SnapshotRotate => "snapshot_rotate",
            KillPoint::DaemonRefresh => "daemon_refresh",
        }
    }

    /// Every kill point, in the order the oracle's matrix drives them.
    pub const ALL: [KillPoint; 4] = [
        KillPoint::JournalAppend,
        KillPoint::JournalFsync,
        KillPoint::SnapshotRotate,
        KillPoint::DaemonRefresh,
    ];
}

/// An error-return disk fault [`DurableCatalog::arm_io_fault`] can
/// plant at a durable-write site. Where a [`KillPoint`] simulates the
/// *process* dying, an `IoFault` simulates the *disk* failing under a
/// live process: the operation returns the corresponding `errno`-style
/// error and the store enters read-only degraded mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// `ENOSPC`: no space left on device.
    Enospc,
    /// `EIO`: a low-level device I/O error.
    Eio,
}

impl IoFault {
    /// Stable lowercase name, used in error messages and oracle output.
    pub fn name(self) -> &'static str {
        match self {
            IoFault::Enospc => "enospc",
            IoFault::Eio => "eio",
        }
    }

    /// The `std::io::Error` this fault surfaces as.
    fn to_io_error(self) -> std::io::Error {
        // Raw errnos (Linux/POSIX): ENOSPC = 28, EIO = 5. Using the OS
        // mapping keeps the message ("No space left on device") what a
        // real failure would produce.
        std::io::Error::from_raw_os_error(match self {
            IoFault::Enospc => 28,
            IoFault::Eio => 5,
        })
    }

    /// Both faults, in the order the oracle's grid drives them.
    pub const ALL: [IoFault; 2] = [IoFault::Enospc, IoFault::Eio];
}

const TAG_PUT: u8 = 1;
const TAG_PUT_MATRIX: u8 = 2;
const TAG_NOTE_UPDATES: u8 = 3;
/// A feedback tune step: the key plus the full tuned histogram. The
/// record carries the *result*, not the (estimate, actual) observation,
/// so replay is a deterministic `apply_tune` that cannot re-derive a
/// different histogram from drifted quality state.
const TAG_TUNE: u8 = 4;

fn io_err(what: &str, e: std::io::Error) -> StoreError {
    StoreError::Io(format!("{what}: {e}"))
}

fn snapshot_name(generation: u64) -> String {
    format!("catalog.{generation:016}.vohg")
}

fn journal_name(generation: u64) -> String {
    format!("journal.{generation:016}.wal")
}

/// The generation numbers of all snapshot files in `dir`, newest first.
/// Temp files (`.tmp` suffix) are crash leftovers and are ignored.
fn snapshot_generations(dir: &Path) -> Result<Vec<u64>> {
    let mut generations = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(generations),
        Err(e) => return Err(io_err("read data dir", e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read data dir entry", e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(gen_str) = name
            .strip_prefix("catalog.")
            .and_then(|rest| rest.strip_suffix(".vohg"))
        {
            if let Ok(generation) = gen_str.parse::<u64>() {
                generations.push(generation);
            }
        }
    }
    generations.sort_unstable_by(|a, b| b.cmp(a));
    Ok(generations)
}

/// Frames a record payload for the journal:
/// `u32 length | payload | u64 FxHash-64(payload)`, all little-endian.
/// A payload over `u32::MAX` bytes cannot be framed — a wrapped length
/// prefix would scan as torn or mis-framed and silently truncate
/// recovery at this record — so oversized payloads are a typed error.
fn frame(payload: &[u8]) -> Result<Vec<u8>> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        StoreError::Codec(format!(
            "journal record of {} bytes exceeds the u32 framing limit",
            payload.len()
        ))
    })?;
    let mut framed = Vec::with_capacity(4 + payload.len() + 8);
    framed.extend_from_slice(&len.to_le_bytes());
    framed.extend_from_slice(payload);
    framed.extend_from_slice(&codec::catalog_checksum(payload).to_le_bytes());
    Ok(framed)
}

/// Walks the journal's frames from the start, stopping at the first
/// torn record (short length prefix, short payload, or checksum
/// mismatch). Returns the byte length of the valid prefix and the
/// record payloads inside it.
fn scan_journal(bytes: &[u8]) -> (usize, Vec<Bytes>) {
    let mut offset = 0usize;
    let mut records = Vec::new();
    loop {
        let rest = &bytes[offset..];
        if rest.len() < 4 {
            break;
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        if rest.len() < 4 + len + 8 {
            break;
        }
        let payload = &rest[4..4 + len];
        let recorded = u64::from_le_bytes(rest[4 + len..4 + len + 8].try_into().unwrap());
        if codec::catalog_checksum(payload) != recorded {
            break;
        }
        records.push(Bytes::copy_from_slice(payload));
        offset += 4 + len + 8;
    }
    (offset, records)
}

/// Length-prefixes `blob` into `buf`, rejecting blobs whose length
/// would wrap the `u32` prefix (see [`frame`]).
fn put_checked_blob(buf: &mut BytesMut, blob: &[u8]) -> Result<()> {
    let len = u32::try_from(blob.len()).map_err(|_| {
        StoreError::Codec(format!(
            "histogram blob of {} bytes exceeds the u32 length-prefix limit",
            blob.len()
        ))
    })?;
    buf.put_u32_le(len);
    buf.put_slice(blob);
    Ok(())
}

fn encode_put(key: &StatKey, hist: &StoredHistogram, spec: Option<BuilderSpec>) -> Result<Vec<u8>> {
    let mut buf = BytesMut::new();
    buf.put_u8(TAG_PUT);
    codec::put_key(&mut buf, key);
    codec::put_spec(&mut buf, spec);
    put_checked_blob(&mut buf, &codec::encode_histogram(hist))?;
    Ok(buf.to_vec())
}

fn encode_put_matrix(
    key: &StatKey,
    hist: &StoredMatrixHistogram,
    spec: Option<BuilderSpec>,
) -> Result<Vec<u8>> {
    let mut buf = BytesMut::new();
    buf.put_u8(TAG_PUT_MATRIX);
    codec::put_key(&mut buf, key);
    codec::put_spec(&mut buf, spec);
    put_checked_blob(&mut buf, &codec::encode_matrix_histogram(hist))?;
    Ok(buf.to_vec())
}

fn encode_tune(key: &StatKey, hist: &StoredHistogram) -> Result<Vec<u8>> {
    let mut buf = BytesMut::new();
    buf.put_u8(TAG_TUNE);
    codec::put_key(&mut buf, key);
    put_checked_blob(&mut buf, &codec::encode_histogram(hist))?;
    Ok(buf.to_vec())
}

fn encode_note_updates(relation: &str, updates: u64) -> Vec<u8> {
    let mut buf = BytesMut::new();
    buf.put_u8(TAG_NOTE_UPDATES);
    codec::put_str(&mut buf, relation);
    buf.put_u64_le(updates);
    buf.to_vec()
}

/// Applies one checksum-verified journal record to `catalog`. A record
/// that passed its checksum but does not parse is not a torn write (a
/// crash cannot forge a valid hash) — it is corruption or a format bug,
/// surfaced as a typed error rather than silently skipped.
fn apply_record(catalog: &Catalog, mut payload: Bytes) -> Result<()> {
    codec::need(&payload, 1, "journal record tag")?;
    match payload.get_u8() {
        TAG_PUT => {
            let key = codec::get_key(&mut payload)?;
            let spec = codec::get_spec(&mut payload)?;
            let hist = codec::decode_histogram(codec::get_blob(&mut payload)?)?;
            if payload.has_remaining() {
                return Err(StoreError::Codec(format!(
                    "{} trailing byte(s) in journal put record",
                    payload.remaining()
                )));
            }
            catalog.put_with_spec(key, hist, spec);
        }
        TAG_PUT_MATRIX => {
            let key = codec::get_key(&mut payload)?;
            let spec = codec::get_spec(&mut payload)?;
            let hist = codec::decode_matrix_histogram(codec::get_blob(&mut payload)?)?;
            if payload.has_remaining() {
                return Err(StoreError::Codec(format!(
                    "{} trailing byte(s) in journal put_matrix record",
                    payload.remaining()
                )));
            }
            catalog.put_matrix_with_spec(key, hist, spec);
        }
        TAG_NOTE_UPDATES => {
            let relation = codec::get_str(&mut payload)?;
            codec::need(&payload, 8, "journal note_updates count")?;
            let updates = payload.get_u64_le();
            if payload.has_remaining() {
                return Err(StoreError::Codec(format!(
                    "{} trailing byte(s) in journal note_updates record",
                    payload.remaining()
                )));
            }
            catalog.note_updates(&relation, updates);
        }
        TAG_TUNE => {
            let key = codec::get_key(&mut payload)?;
            let hist = codec::decode_histogram(codec::get_blob(&mut payload)?)?;
            if payload.has_remaining() {
                return Err(StoreError::Codec(format!(
                    "{} trailing byte(s) in journal tune record",
                    payload.remaining()
                )));
            }
            // A tune record always follows the put that created its
            // entry (in the snapshot or earlier in this journal), so a
            // missing entry here is corruption, surfaced as the typed
            // error `apply_tune` returns.
            catalog.apply_tune(&key, hist)?;
        }
        other => {
            return Err(StoreError::Codec(format!(
                "unknown journal record tag {other}"
            )))
        }
    }
    Ok(())
}

/// Loads the newest snapshot in `dir` that passes its `VOHG` checksum,
/// falling back to older generations when a newer one is corrupt.
/// Returns the catalog and the generation it came from (generation 0
/// and an empty catalog when the directory holds no snapshots at all —
/// first boot). When snapshots exist but none decodes, that is total
/// corruption and a typed error.
fn load_newest_snapshot(dir: &Path) -> Result<(Catalog, u64)> {
    let generations = snapshot_generations(dir)?;
    if generations.is_empty() {
        return Ok((Catalog::new(), 0));
    }
    let mut last_err = None;
    for (i, &generation) in generations.iter().enumerate() {
        let path = dir.join(snapshot_name(generation));
        let loaded = fs::read(&path)
            .map_err(|e| io_err("read snapshot", e))
            .and_then(|bytes| codec::decode_catalog(Bytes::from(bytes)));
        match loaded {
            Ok(catalog) => {
                if i > 0 {
                    obs::counter("wal_snapshot_fallback_total").inc();
                }
                return Ok((catalog, generation));
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(StoreError::Codec(format!(
        "no snapshot generation in {} decodes; newest error: {}",
        dir.display(),
        last_err.expect("generations is non-empty")
    )))
}

/// Recovers catalog state from `dir` without modifying any file: newest
/// valid snapshot plus the valid prefix of that generation's journal.
/// The torn tail (if any) is ignored here; [`DurableCatalog::open`]
/// physically truncates it before resuming appends.
pub fn recover(dir: &Path) -> Result<Catalog> {
    let _span = obs::span("wal_recover");
    obs::counter("wal_recover_total").inc();
    let (catalog, generation) = load_newest_snapshot(dir)?;
    let journal_path = dir.join(journal_name(generation));
    match fs::read(&journal_path) {
        Ok(bytes) => {
            let (valid_len, records) = scan_journal(&bytes);
            if valid_len < bytes.len() {
                obs::counter("wal_torn_tail_total").inc();
            }
            for record in records {
                apply_record(&catalog, record)?;
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(io_err("read journal", e)),
    }
    Ok(catalog)
}

impl Catalog {
    /// Recovers the catalog persisted in `dir` by [`DurableCatalog`]:
    /// the newest checksum-valid snapshot plus the replayed journal
    /// tail, truncated (logically) at the first torn record. Read-only;
    /// safe to run on a live data directory.
    pub fn recover(dir: &Path) -> Result<Catalog> {
        recover(dir)
    }
}

struct JournalWriter {
    file: File,
    /// Committed (fully framed and synced) journal bytes. The physical
    /// file can be longer after a torn append; `dirty` flags that.
    bytes: u64,
    generation: u64,
    dirty: bool,
}

impl JournalWriter {
    /// Re-aligns the physical file with the committed byte count after
    /// a torn append, so the next record isn't written after garbage.
    fn heal(&mut self) -> Result<()> {
        if self.dirty {
            self.file
                .set_len(self.bytes)
                .map_err(|e| io_err("truncate torn journal", e))?;
            self.dirty = false;
        }
        Ok(())
    }
}

/// A [`Catalog`] whose mutations are write-ahead journaled to a data
/// directory, with checkpoint compaction and crash recovery.
///
/// Durable mutations go through the methods here (`put_with_spec`,
/// `note_updates`, `analyze`, …): journal append + fsync first, then
/// the in-memory apply, both under the journal lock, so a crash never
/// loses an acknowledged write — and a concurrent [`checkpoint`] never
/// snapshots a state missing a record committed to the journal it
/// retires.
/// [`DurableCatalog::catalog`] exposes the in-memory catalog for
/// *reads*; mutating through it directly would bypass the journal and
/// silently vanish on recovery — `scripts/ci.sh` greps that no code
/// outside this module opens the journal file, and callers are expected
/// to treat the reference as read-only.
///
/// After any append error (including an armed [`KillPoint`] firing) the
/// store should be treated as crashed: drop it and re-[`open`] the
/// directory, exactly as a restarted process would.
///
/// [`open`]: DurableCatalog::open
/// [`checkpoint`]: DurableCatalog::checkpoint
pub struct DurableCatalog {
    dir: PathBuf,
    catalog: Arc<Catalog>,
    journal: Mutex<JournalWriter>,
    kill: Mutex<Option<KillPoint>>,
    /// One-shot error-return fault: fires when the named durable-write
    /// site is next reached (only the journal-append, journal-fsync,
    /// and snapshot-rotate sites check it).
    io_fault: Mutex<Option<(KillPoint, IoFault)>>,
    /// Read-only degraded mode, entered on any durable-write failure
    /// and exited by the next successful checkpoint (the probe).
    readonly: AtomicBool,
}

impl DurableCatalog {
    /// Opens (or initialises) the data directory: recovers the newest
    /// committed state, physically truncates any torn journal tail, and
    /// resumes appending to the current generation's journal.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| io_err("create data dir", e))?;
        let (catalog, generation) = load_newest_snapshot(&dir)?;
        let journal_path = dir.join(journal_name(generation));
        let mut committed = 0u64;
        match fs::read(&journal_path) {
            Ok(bytes) => {
                let (valid_len, records) = scan_journal(&bytes);
                for record in records {
                    apply_record(&catalog, record)?;
                }
                if valid_len < bytes.len() {
                    obs::counter("wal_torn_tail_total").inc();
                    // Physical truncation: the torn tail must not sit
                    // between committed records and future appends.
                    let f = OpenOptions::new()
                        .write(true)
                        .open(&journal_path)
                        .map_err(|e| io_err("open journal for truncation", e))?;
                    f.set_len(valid_len as u64)
                        .map_err(|e| io_err("truncate torn journal", e))?;
                    f.sync_all()
                        .map_err(|e| io_err("fsync truncated journal", e))?;
                }
                committed = valid_len as u64;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err("read journal", e)),
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&journal_path)
            .map_err(|e| io_err("open journal", e))?;
        obs::gauge("wal_journal_bytes").set(committed as f64);
        Ok(Self {
            dir,
            catalog: Arc::new(catalog),
            journal: Mutex::new(JournalWriter {
                file,
                bytes: committed,
                generation,
                dirty: false,
            }),
            kill: Mutex::new(None),
            io_fault: Mutex::new(None),
            readonly: AtomicBool::new(false),
        })
    }

    /// Read access to the recovered in-memory catalog. Treat as
    /// read-only: mutations through this reference are not journaled.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// A shared handle to the in-memory catalog, for read paths (the
    /// engine's snapshot/estimation-cache machinery) that outlive a
    /// borrow. The same read-only contract as
    /// [`DurableCatalog::catalog`] applies: mutations through this
    /// handle bypass the journal and vanish on recovery.
    pub fn catalog_arc(&self) -> Arc<Catalog> {
        Arc::clone(&self.catalog)
    }

    /// The data directory this store persists to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Committed journal bytes of the current generation (the
    /// checkpoint-compaction trigger and the `wal_journal_bytes` gauge).
    pub fn journal_bytes(&self) -> u64 {
        self.journal.lock().bytes
    }

    /// The current snapshot generation number.
    pub fn generation(&self) -> u64 {
        self.journal.lock().generation
    }

    /// Plants a one-shot fault: the next operation that reaches `point`
    /// fails exactly as a crash there would. Used by the oracle's
    /// crash-recovery matrix.
    pub fn arm_kill(&self, point: KillPoint) {
        *self.kill.lock() = Some(point);
    }

    fn take_kill(&self, point: KillPoint) -> bool {
        let mut kill = self.kill.lock();
        if *kill == Some(point) {
            *kill = None;
            true
        } else {
            false
        }
    }

    /// Plants a one-shot error-return fault: the next durable write
    /// that reaches `site` fails with `fault`'s errno and the store
    /// enters read-only degraded mode. Sites checked:
    /// [`KillPoint::JournalAppend`], [`KillPoint::JournalFsync`], and
    /// [`KillPoint::SnapshotRotate`]. Used by the oracle's I/O-fault
    /// grid.
    pub fn arm_io_fault(&self, site: KillPoint, fault: IoFault) {
        *self.io_fault.lock() = Some((site, fault));
    }

    fn take_io_fault(&self, site: KillPoint) -> Option<IoFault> {
        let mut armed = self.io_fault.lock();
        match *armed {
            Some((s, fault)) if s == site => {
                *armed = None;
                Some(fault)
            }
            _ => None,
        }
    }

    /// Whether the store is in read-only degraded mode (reads keep
    /// serving the last committed state; writes return
    /// [`StoreError::ReadOnly`]).
    pub fn readonly(&self) -> bool {
        self.readonly.load(Ordering::SeqCst)
    }

    /// Flips into read-only degraded mode (idempotent): gauge to 1,
    /// one trace event per transition.
    fn enter_readonly(&self, reason: &str) {
        if !self.readonly.swap(true, Ordering::SeqCst) {
            obs::gauge("catalog_readonly").set(1.0);
            obs::trace::catalog_readonly(true, reason);
        }
    }

    /// The degraded-mode exit probe: when read-only, attempts a full
    /// [`DurableCatalog::checkpoint`] — a real durable write covering
    /// every site that can have failed — and read-write resumes iff it
    /// succeeds. Returns whether the store is writable afterwards. The
    /// maintenance daemon calls this once per sweep.
    pub fn probe_restore(&self) -> bool {
        if !self.readonly.load(Ordering::SeqCst) {
            return true;
        }
        self.checkpoint().is_ok() && !self.readonly.load(Ordering::SeqCst)
    }

    /// The typed error an injected `fault` at `site` surfaces as. The
    /// message carries both names so tests and operators can tell an
    /// injected ENOSPC from a real one.
    fn injected_io_error(site: KillPoint, fault: IoFault) -> StoreError {
        StoreError::Io(format!(
            "injected {} at {}: {}",
            fault.name(),
            site.name(),
            fault.to_io_error()
        ))
    }

    /// Appends one framed record and, still holding the journal lock,
    /// applies the matching in-memory mutation via `apply`. Holding the
    /// lock across both steps makes the pair atomic with respect to
    /// [`DurableCatalog::checkpoint`] (which encodes its snapshot under
    /// the same lock): a checkpoint can never capture a catalog missing
    /// a record already committed to the journal it is about to retire,
    /// and concurrent writers apply in exactly journal order. Honours
    /// armed kill points; on any error — a kill point firing counts —
    /// the mutation is not applied, exactly as if the process had
    /// crashed at that instant.
    fn append_and_apply(&self, payload: &[u8], apply: impl FnOnce(&Catalog)) -> Result<()> {
        self.append_all_and_apply(&[payload], apply)
    }

    /// [`DurableCatalog::append_and_apply`] over a batch: every payload
    /// is framed, written, and fsynced in one journal-lock hold, then
    /// `apply` runs once. Live readers therefore observe none or all of
    /// the batch; on disk the records are individual frames, so a crash
    /// mid-batch may persist (and replay) a prefix — each frame is a
    /// complete, self-validating mutation either way.
    fn append_all_and_apply(&self, payloads: &[&[u8]], apply: impl FnOnce(&Catalog)) -> Result<()> {
        let _span = obs::span("wal_append");
        if self.readonly.load(Ordering::SeqCst) {
            return Err(StoreError::ReadOnly);
        }
        let mut w = self.journal.lock();
        w.heal()?;
        let mut framed = Vec::new();
        for payload in payloads {
            framed.extend_from_slice(&frame(payload)?);
        }
        if self.take_kill(KillPoint::JournalAppend) {
            // Torn write: only a prefix of the frame reaches the disk.
            let torn = &framed[..framed.len() / 2];
            w.file
                .write_all(torn)
                .and_then(|()| w.file.sync_data())
                .map_err(|e| io_err("torn journal append", e))?;
            w.dirty = true;
            return Err(StoreError::Io(format!(
                "kill point {}: crashed mid-append",
                KillPoint::JournalAppend.name()
            )));
        }
        if self.take_kill(KillPoint::JournalFsync) {
            // The full frame was written but never fsynced. On real
            // hardware it may or may not survive; in this simulation it
            // does, so recovery lands on the post-fault state.
            w.file
                .write_all(&framed)
                .map_err(|e| io_err("journal append", e))?;
            w.bytes += framed.len() as u64;
            return Err(StoreError::Io(format!(
                "kill point {}: crashed before fsync",
                KillPoint::JournalFsync.name()
            )));
        }
        if let Some(fault) = self.take_io_fault(KillPoint::JournalAppend) {
            // Error return, not a crash: the write(2) failed wholesale,
            // no bytes reached the file, and the live store degrades.
            let err = Self::injected_io_error(KillPoint::JournalAppend, fault);
            self.enter_readonly(&err.to_string());
            return Err(err);
        }
        if let Some(fault) = self.take_io_fault(KillPoint::JournalFsync) {
            // The frame was written but fsync failed: the record is not
            // durable and must not count as committed. Truncate it back
            // out so the on-disk journal stays aligned with the
            // (unadvanced) in-memory state — the degraded store keeps
            // serving, unlike a crash.
            w.file
                .write_all(&framed)
                .map_err(|e| io_err("journal append", e))?;
            w.dirty = true;
            let healed = w.heal();
            let err = Self::injected_io_error(KillPoint::JournalFsync, fault);
            self.enter_readonly(&err.to_string());
            healed?;
            return Err(err);
        }
        if let Err(e) = w.file.write_all(&framed).and_then(|()| w.file.sync_data()) {
            // A real (uninjected) append failure degrades identically.
            w.dirty = true;
            let err = io_err("journal append", e);
            self.enter_readonly(&err.to_string());
            return Err(err);
        }
        w.bytes += framed.len() as u64;
        obs::gauge("wal_journal_bytes").set(w.bytes as f64);
        obs::counter("wal_append_total").add(payloads.len() as u64);
        obs::trace::wal_append(payloads.len() as u64, framed.len() as u64);
        apply(&self.catalog);
        Ok(())
    }

    /// Durable [`Catalog::put_with_spec`]: journaled, then applied.
    pub fn put_with_spec(
        &self,
        key: StatKey,
        histogram: StoredHistogram,
        spec: Option<BuilderSpec>,
    ) -> Result<()> {
        let payload = encode_put(&key, &histogram, spec)?;
        self.append_and_apply(&payload, |catalog| {
            catalog.put_with_spec(key, histogram, spec)
        })
    }

    /// Durable `put` without a recorded spec.
    pub fn put(&self, key: StatKey, histogram: StoredHistogram) -> Result<()> {
        self.put_with_spec(key, histogram, None)
    }

    /// Durable batched [`Catalog::put_all_with_spec`]: all records are
    /// journaled and fsynced under one journal-lock hold, then applied
    /// as a single catalog mutation (one epoch bump), so concurrent
    /// readers pinning a snapshot see none or all of the batch.
    pub fn put_all_with_spec(
        &self,
        items: Vec<(StatKey, StoredHistogram, Option<BuilderSpec>)>,
    ) -> Result<()> {
        if items.is_empty() {
            return Ok(());
        }
        let payloads: Vec<Vec<u8>> = items
            .iter()
            .map(|(key, hist, spec)| encode_put(key, hist, *spec))
            .collect::<Result<_>>()?;
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        self.append_all_and_apply(&refs, |catalog| catalog.put_all_with_spec(items))
    }

    /// Durable [`Catalog::put_matrix_with_spec`].
    pub fn put_matrix_with_spec(
        &self,
        key: StatKey,
        histogram: StoredMatrixHistogram,
        spec: Option<BuilderSpec>,
    ) -> Result<()> {
        let payload = encode_put_matrix(&key, &histogram, spec)?;
        self.append_and_apply(&payload, |catalog| {
            catalog.put_matrix_with_spec(key, histogram, spec)
        })
    }

    /// Durable feedback tune: computes the bounded, mass-conserving
    /// update one (estimate, actual) observation implies for `key`
    /// ([`Catalog::compute_tune`]), journals the tuned histogram as a
    /// `TAG_TUNE` record, and applies it — so tuned state survives
    /// crash recovery exactly like an ANALYZE store. The outer `Result`
    /// is "entry exists and the journal accepted the record"; the inner
    /// one is the tuner's applied-or-skipped verdict, with skips
    /// counted on `tune_skipped_total` and applications on
    /// `tune_applied_total` plus the `qerror_pre`/`qerror_post` gauges.
    pub fn tune_column(
        &self,
        key: &StatKey,
        estimate: f64,
        actual: f64,
        cfg: &TuneConfig,
    ) -> Result<std::result::Result<TuneReport, TuneSkip>> {
        let _span = obs::span("tune_column");
        let (tuned, report) = match self.catalog.compute_tune(key, estimate, actual, cfg)? {
            Ok(pair) => pair,
            Err(skip) => {
                obs::counter("tune_skipped_total").inc();
                obs::trace::tune_skipped(&key.display(), skip.reason());
                return Ok(Err(skip));
            }
        };
        let payload = encode_tune(key, &tuned)?;
        self.append_and_apply(&payload, |catalog| {
            // The entry cannot have vanished — a DurableCatalog never
            // removes entries — but a concurrent ANALYZE may have
            // replaced it between the computation and this apply;
            // last-writer-wins in journal order, exactly like `put`.
            let _ = catalog.apply_tune(key, tuned);
        })?;
        obs::counter("tune_applied_total").inc();
        obs::gauge("qerror_pre").set(report.qerror_pre);
        obs::gauge("qerror_post").set(report.qerror_post);
        obs::trace::tune_applied(&key.display(), report.qerror_pre, report.qerror_post);
        Ok(Ok(report))
    }

    /// Durable [`Catalog::note_updates`].
    pub fn note_updates(&self, relation: &str, updates: u64) -> Result<()> {
        self.append_and_apply(&encode_note_updates(relation, updates), |catalog| {
            catalog.note_updates(relation, updates)
        })
    }

    /// Durable end-to-end ANALYZE: the same scan → build pipeline as
    /// [`Catalog::analyze`], with the store journaled.
    pub fn analyze(&self, relation: &Relation, column: &str, spec: BuilderSpec) -> Result<StatKey> {
        let _span = obs::span("analyze");
        let table = frequency_table(relation, column)?;
        let stored = Catalog::build_stored(&table, spec)?;
        let key = StatKey::new(relation.name(), &[column]);
        self.put_with_spec(key.clone(), stored, Some(spec))?;
        Ok(key)
    }

    /// Durable 2-D ANALYZE, mirroring [`Catalog::analyze_matrix`].
    pub fn analyze_matrix(
        &self,
        relation: &Relation,
        first: &str,
        second: &str,
        spec: BuilderSpec,
    ) -> Result<StatKey> {
        let _span = obs::span("analyze_matrix");
        let table = frequency_matrix_table(relation, first, second)?;
        let hist = MatrixHistogram::build(&table.matrix, |cells| spec.build(cells))?;
        let stored = StoredMatrixHistogram::from_matrix_histogram(
            &table.row_values,
            &table.col_values,
            &hist,
        )?;
        let key = StatKey::new(relation.name(), &[first, second]);
        self.put_matrix_with_spec(key.clone(), stored, Some(spec))?;
        Ok(key)
    }

    /// Durable counterpart of `maintenance::maintain_column`: checks
    /// the policy and re-ANALYZEs through the journal when due. Refresh
    /// failures (including the [`KillPoint::DaemonRefresh`] fault) are
    /// recorded on the catalog entry for the breaker and metrics.
    pub fn maintain_column(
        &self,
        relation: &Relation,
        column: &str,
        spec: BuilderSpec,
        policy: &RefreshPolicy,
    ) -> Result<MaintenanceOutcome> {
        if relation.num_rows() == 0 {
            return Ok(MaintenanceOutcome::Fresh);
        }
        let key = StatKey::new(relation.name(), &[column]);
        let due = match self.catalog.staleness(&key) {
            Ok(s) => policy.due(s, relation.num_rows()),
            // Never analyzed: the first histogram is always due.
            Err(_) => true,
        };
        if !due {
            return Ok(MaintenanceOutcome::Fresh);
        }
        if self.readonly.load(Ordering::SeqCst) {
            // Degraded: skip the scan (its put would be refused anyway)
            // but record the failure so the breaker machinery reacts.
            let err = StoreError::ReadOnly;
            self.catalog.note_refresh_failure(&key, &err.to_string());
            return Err(err);
        }
        if self.take_kill(KillPoint::DaemonRefresh) {
            let err = StoreError::Io(format!(
                "kill point {}: crashed before refresh scan",
                KillPoint::DaemonRefresh.name()
            ));
            self.catalog.note_refresh_failure(&key, &err.to_string());
            return Err(err);
        }
        let refresh_spec = self.catalog.spec_of(&key).unwrap_or(spec);
        match self.analyze(relation, column, refresh_spec) {
            Ok(_) => Ok(MaintenanceOutcome::Refreshed),
            Err(e) => {
                self.catalog.note_refresh_failure(&key, &e.to_string());
                Err(e)
            }
        }
    }

    /// Compacts the journal into a new snapshot generation: write
    /// `catalog.<gen+1>.vohg.tmp` → fsync → rename → fsync dir → fresh
    /// journal. The previous generation (snapshot + journal) is kept;
    /// anything older is deleted. Version counters restart with the new
    /// generation (`VOHG` snapshots persist none), so recovered
    /// staleness always means "updates since the last checkpoint".
    pub fn checkpoint(&self) -> Result<()> {
        let _span = obs::span("wal_checkpoint");
        let mut w = self.journal.lock();
        w.heal()?;
        let next = w.generation + 1;
        // Encoding under the journal lock is load-bearing: writers
        // apply their mutation before releasing this lock (see
        // `append_and_apply`), so the snapshot covers every record the
        // outgoing journal holds and the fresh journal starts exactly
        // where the snapshot leaves off.
        let snapshot = codec::encode_catalog(&self.catalog);
        let final_path = self.dir.join(snapshot_name(next));
        let tmp_path = self.dir.join(format!("{}.tmp", snapshot_name(next)));
        // Any real I/O failure from here on degrades to read-only; a
        // fired kill point does not (it models the process dying, and
        // the store contract after one is drop-and-reopen).
        let degrade = |e: StoreError| {
            self.enter_readonly(&e.to_string());
            e
        };
        {
            let mut tmp =
                File::create(&tmp_path).map_err(|e| degrade(io_err("create snapshot tmp", e)))?;
            tmp.write_all(&snapshot)
                .and_then(|()| tmp.sync_all())
                .map_err(|e| degrade(io_err("write snapshot tmp", e)))?;
        }
        if self.take_kill(KillPoint::SnapshotRotate) {
            return Err(StoreError::Io(format!(
                "kill point {}: crashed before snapshot rename",
                KillPoint::SnapshotRotate.name()
            )));
        }
        if let Some(fault) = self.take_io_fault(KillPoint::SnapshotRotate) {
            // The rotation failed mid-checkpoint: the previous
            // generation stays current and fully readable; the
            // lingering tmp file is ignored by loaders and cleaned up
            // by the next successful checkpoint.
            return Err(degrade(Self::injected_io_error(
                KillPoint::SnapshotRotate,
                fault,
            )));
        }
        fs::rename(&tmp_path, &final_path).map_err(|e| degrade(io_err("rename snapshot", e)))?;
        sync_dir(&self.dir).map_err(degrade)?;
        // Fresh journal for the new generation. Remove any crash
        // leftover first so the file really starts empty.
        let journal_path = self.dir.join(journal_name(next));
        match fs::remove_file(&journal_path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(degrade(io_err("clear stale journal", e))),
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&journal_path)
            .map_err(|e| degrade(io_err("create journal", e)))?;
        sync_dir(&self.dir).map_err(degrade)?;
        let previous = w.generation;
        w.file = file;
        w.bytes = 0;
        w.generation = next;
        w.dirty = false;
        drop(w);
        // Garbage-collect everything older than the kept previous
        // generation. Best-effort: a leftover file only wastes space.
        for generation in snapshot_generations(&self.dir)? {
            if generation < previous {
                let _ = fs::remove_file(self.dir.join(snapshot_name(generation)));
                let _ = fs::remove_file(self.dir.join(journal_name(generation)));
            }
        }
        obs::gauge("wal_journal_bytes").set(0.0);
        obs::counter("wal_checkpoint_total").inc();
        obs::trace::wal_checkpoint(next);
        // A checkpoint is a full durable write through every site that
        // can have degraded us; surviving one proves the disk is back.
        if self.readonly.swap(false, Ordering::SeqCst) {
            obs::gauge("catalog_readonly").set(0.0);
            obs::trace::catalog_readonly(false, "checkpoint probe succeeded");
        }
        Ok(())
    }
}

/// Fsyncs a directory so a just-renamed or just-created file's
/// directory entry is durable (POSIX requires this extra step).
fn sync_dir(dir: &Path) -> Result<()> {
    let handle = File::open(dir).map_err(|e| io_err("open dir for fsync", e))?;
    handle.sync_all().map_err(|e| io_err("fsync dir", e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::relation_from_frequency_set;
    use freqdist::FrequencySet;
    use std::sync::atomic::{AtomicU64, Ordering};

    const SPEC: BuilderSpec = BuilderSpec::VOptEndBiased(3);

    /// A unique scratch directory per test, removed on drop.
    struct ScratchDir(PathBuf);

    impl ScratchDir {
        fn new() -> Self {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "relstore-wal-test-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = fs::remove_dir_all(&dir);
            ScratchDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn relation() -> Relation {
        let freqs = FrequencySet::new(vec![50, 30, 10, 5, 5]);
        relation_from_frequency_set("t", "c", &freqs, 3).unwrap()
    }

    /// The full observable state recovery must reproduce.
    fn state_of(catalog: &Catalog) -> (Vec<u8>, Vec<(String, u64)>) {
        (
            codec::encode_catalog(catalog).to_vec(),
            catalog.version_snapshot(),
        )
    }

    #[test]
    fn journal_replay_recovers_all_mutations() {
        let scratch = ScratchDir::new();
        let store = DurableCatalog::open(scratch.path()).unwrap();
        let rel = relation();
        store.analyze(&rel, "c", SPEC).unwrap();
        store.analyze_matrix(&rel, "c", "c", SPEC).unwrap();
        store.note_updates("t", 7).unwrap();
        let expected = state_of(store.catalog());
        drop(store);
        let recovered = Catalog::recover(scratch.path()).unwrap();
        assert_eq!(state_of(&recovered), expected);
        assert_eq!(recovered.staleness(&StatKey::new("t", &["c"])).unwrap(), 7);
    }

    #[test]
    fn batched_put_is_one_epoch_live_and_replays_identically() {
        let scratch = ScratchDir::new();
        let store = DurableCatalog::open(scratch.path()).unwrap();
        let rel = relation();
        store.analyze(&rel, "c", SPEC).unwrap();
        let hist = store.catalog().get(&StatKey::new("t", &["c"])).unwrap();
        let epoch_before = store.catalog().epoch();
        store
            .put_all_with_spec(vec![
                (StatKey::new("t", &["x"]), hist.clone(), Some(SPEC)),
                (StatKey::new("t", &["y"]), hist.clone(), Some(SPEC)),
                (StatKey::new("t", &["z"]), hist, None),
            ])
            .unwrap();
        // One live mutation for the whole batch.
        assert_eq!(store.catalog().epoch(), epoch_before + 1);
        let expected = state_of(store.catalog());
        drop(store);
        // Replay applies the three records individually but lands on
        // the same final state.
        let recovered = Catalog::recover(scratch.path()).unwrap();
        assert_eq!(state_of(&recovered), expected);
        assert_eq!(recovered.keys().len(), 4);
    }

    #[test]
    fn torn_tail_is_truncated_and_prior_records_survive() {
        let scratch = ScratchDir::new();
        let store = DurableCatalog::open(scratch.path()).unwrap();
        let rel = relation();
        store.analyze(&rel, "c", SPEC).unwrap();
        store.note_updates("t", 3).unwrap();
        let committed = state_of(store.catalog());
        let generation = store.generation();
        drop(store);
        // Simulate a crash mid-append: garbage half-record at the tail.
        let journal_path = scratch.path().join(journal_name(generation));
        let mut bytes = fs::read(&journal_path).unwrap();
        let full_len = bytes.len();
        bytes.extend_from_slice(&[42u8, 0, 0, 0, 1, 2, 3]);
        fs::write(&journal_path, &bytes).unwrap();
        let recovered = Catalog::recover(scratch.path()).unwrap();
        assert_eq!(state_of(&recovered), committed);
        // Re-opening physically truncates the torn tail.
        let store = DurableCatalog::open(scratch.path()).unwrap();
        assert_eq!(
            fs::metadata(&journal_path).unwrap().len() as usize,
            full_len
        );
        assert_eq!(state_of(store.catalog()), committed);
        // And the store keeps working after the repair.
        store.note_updates("t", 1).unwrap();
        drop(store);
        let recovered = Catalog::recover(scratch.path()).unwrap();
        assert_eq!(recovered.staleness(&StatKey::new("t", &["c"])).unwrap(), 4);
    }

    #[test]
    fn checkpoint_rotates_and_recovery_prefers_newest_snapshot() {
        let scratch = ScratchDir::new();
        let store = DurableCatalog::open(scratch.path()).unwrap();
        let rel = relation();
        store.analyze(&rel, "c", SPEC).unwrap();
        store.checkpoint().unwrap();
        assert_eq!(store.generation(), 1);
        assert_eq!(store.journal_bytes(), 0);
        // Post-checkpoint mutations land in the new generation's journal.
        store.note_updates("t", 5).unwrap();
        let expected = state_of(store.catalog());
        drop(store);
        let recovered = Catalog::recover(scratch.path()).unwrap();
        // Histogram bytes identical; versions carry the post-checkpoint
        // window only (which is all the live store had too).
        assert_eq!(state_of(&recovered), expected);
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_previous_generation() {
        let scratch = ScratchDir::new();
        let store = DurableCatalog::open(scratch.path()).unwrap();
        let rel = relation();
        store.analyze(&rel, "c", SPEC).unwrap();
        store.checkpoint().unwrap(); // generation 1
        let at_gen1 = codec::encode_catalog(store.catalog()).to_vec();
        store.note_updates("t", 9).unwrap();
        store.checkpoint().unwrap(); // generation 2; generation 1 kept
        drop(store);
        // Flip a byte inside the newest snapshot.
        let newest = scratch.path().join(snapshot_name(2));
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();
        let recovered = Catalog::recover(scratch.path()).unwrap();
        // Generation 1's snapshot plus its journal (note_updates 9)
        // reproduce the pre-corruption histogram state.
        assert_eq!(codec::encode_catalog(&recovered).to_vec(), at_gen1);
        assert_eq!(recovered.staleness(&StatKey::new("t", &["c"])).unwrap(), 9);
    }

    #[test]
    fn kill_journal_append_recovers_pre_fault_state() {
        let scratch = ScratchDir::new();
        let store = DurableCatalog::open(scratch.path()).unwrap();
        let rel = relation();
        store.analyze(&rel, "c", SPEC).unwrap();
        let pre = state_of(store.catalog());
        store.arm_kill(KillPoint::JournalAppend);
        let err = store.note_updates("t", 8).unwrap_err();
        assert!(err.to_string().contains("journal_append"));
        // In-memory state was not advanced either.
        assert_eq!(state_of(store.catalog()), pre);
        drop(store);
        let recovered = Catalog::recover(scratch.path()).unwrap();
        assert_eq!(state_of(&recovered), pre);
        // Reopen heals the torn tail and the store accepts appends.
        let store = DurableCatalog::open(scratch.path()).unwrap();
        store.note_updates("t", 2).unwrap();
        assert_eq!(
            store
                .catalog()
                .staleness(&StatKey::new("t", &["c"]))
                .unwrap(),
            2
        );
    }

    #[test]
    fn kill_journal_fsync_recovers_post_fault_state() {
        let scratch = ScratchDir::new();
        let store = DurableCatalog::open(scratch.path()).unwrap();
        let rel = relation();
        store.analyze(&rel, "c", SPEC).unwrap();
        let pre = state_of(store.catalog());
        store.arm_kill(KillPoint::JournalFsync);
        let err = store.note_updates("t", 8).unwrap_err();
        assert!(err.to_string().contains("journal_fsync"));
        drop(store);
        let recovered = Catalog::recover(scratch.path()).unwrap();
        // The record reached the disk: recovery lands on the state the
        // mutation would have produced.
        let reference = codec::decode_catalog(Bytes::from(pre.0)).unwrap();
        reference.note_updates("t", 8);
        assert_eq!(state_of(&recovered), state_of(&reference));
    }

    #[test]
    fn kill_snapshot_rotate_keeps_current_generation() {
        let scratch = ScratchDir::new();
        let store = DurableCatalog::open(scratch.path()).unwrap();
        let rel = relation();
        store.analyze(&rel, "c", SPEC).unwrap();
        store.note_updates("t", 4).unwrap();
        let pre = state_of(store.catalog());
        store.arm_kill(KillPoint::SnapshotRotate);
        let err = store.checkpoint().unwrap_err();
        assert!(err.to_string().contains("snapshot_rotate"));
        assert_eq!(store.generation(), 0);
        drop(store);
        let recovered = Catalog::recover(scratch.path()).unwrap();
        assert_eq!(state_of(&recovered), pre);
        // The lingering temp file does not confuse a reopen, and the
        // next checkpoint succeeds.
        let store = DurableCatalog::open(scratch.path()).unwrap();
        store.checkpoint().unwrap();
        assert_eq!(store.generation(), 1);
    }

    #[test]
    fn kill_daemon_refresh_preserves_entry_and_records_failure() {
        let scratch = ScratchDir::new();
        let store = DurableCatalog::open(scratch.path()).unwrap();
        let rel = relation();
        let key = StatKey::new("t", &["c"]);
        store
            .maintain_column(&rel, "c", SPEC, &RefreshPolicy::default())
            .unwrap();
        store.note_updates("t", 61).unwrap();
        let pre = state_of(store.catalog());
        store.arm_kill(KillPoint::DaemonRefresh);
        let err = store
            .maintain_column(&rel, "c", SPEC, &RefreshPolicy::default())
            .unwrap_err();
        assert!(err.to_string().contains("daemon_refresh"));
        assert_eq!(state_of(store.catalog()), pre);
        assert_eq!(store.catalog().refresh_failure(&key).unwrap().count, 1);
        drop(store);
        let recovered = Catalog::recover(scratch.path()).unwrap();
        assert_eq!(state_of(&recovered), pre);
    }

    /// Serialises the degraded-mode tests: they assert on the shared
    /// `catalog_readonly` gauge, which each of them toggles.
    static READONLY_GAUGE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn io_fault_on_journal_append_degrades_to_readonly_then_probe_restores() {
        let _gauge = READONLY_GAUGE_LOCK.lock();
        let scratch = ScratchDir::new();
        let store = DurableCatalog::open(scratch.path()).unwrap();
        let rel = relation();
        store.analyze(&rel, "c", SPEC).unwrap();
        let committed = state_of(store.catalog());
        store.arm_io_fault(KillPoint::JournalAppend, IoFault::Enospc);
        let err = store.note_updates("t", 8).unwrap_err();
        assert!(err.to_string().contains("enospc"), "{err}");
        assert!(err.to_string().contains("journal_append"), "{err}");
        // Degraded: reads serve the committed state, writes are typed.
        assert!(store.readonly());
        assert!(store.catalog().get(&StatKey::new("t", &["c"])).is_ok());
        assert_eq!(state_of(store.catalog()), committed);
        assert_eq!(store.note_updates("t", 1), Err(StoreError::ReadOnly));
        // On-disk state is byte-identically the committed state.
        let recovered = Catalog::recover(scratch.path()).unwrap();
        assert_eq!(state_of(&recovered), committed);
        // The probe (a clean checkpoint) restores read-write.
        assert!(store.probe_restore());
        assert!(!store.readonly());
        store.note_updates("t", 2).unwrap();
        assert_eq!(
            store
                .catalog()
                .staleness(&StatKey::new("t", &["c"]))
                .unwrap(),
            2
        );
    }

    #[test]
    fn io_fault_on_journal_fsync_commits_nothing_and_stays_aligned() {
        let _gauge = READONLY_GAUGE_LOCK.lock();
        let scratch = ScratchDir::new();
        let store = DurableCatalog::open(scratch.path()).unwrap();
        let rel = relation();
        store.analyze(&rel, "c", SPEC).unwrap();
        let committed = state_of(store.catalog());
        store.arm_io_fault(KillPoint::JournalFsync, IoFault::Eio);
        let err = store.note_updates("t", 8).unwrap_err();
        assert!(err.to_string().contains("eio"), "{err}");
        assert!(store.readonly());
        // Unlike the JournalFsync *kill point* (where the process dies
        // and the unsynced frame may survive), the live degraded store
        // truncates the unacknowledged frame: disk and memory agree.
        assert_eq!(state_of(store.catalog()), committed);
        let recovered = Catalog::recover(scratch.path()).unwrap();
        assert_eq!(state_of(&recovered), committed);
        assert!(store.probe_restore());
        store.note_updates("t", 3).unwrap();
    }

    #[test]
    fn enospc_mid_checkpoint_leaves_catalog_readable_and_recoverable() {
        let _gauge = READONLY_GAUGE_LOCK.lock();
        let scratch = ScratchDir::new();
        let store = DurableCatalog::open(scratch.path()).unwrap();
        let rel = relation();
        store.analyze(&rel, "c", SPEC).unwrap();
        store.note_updates("t", 4).unwrap();
        let committed = state_of(store.catalog());
        store.arm_io_fault(KillPoint::SnapshotRotate, IoFault::Enospc);
        let err = store.checkpoint().unwrap_err();
        assert!(err.to_string().contains("enospc"), "{err}");
        assert!(err.to_string().contains("snapshot_rotate"), "{err}");
        assert!(store.readonly());
        assert_eq!(obs::gauge("catalog_readonly").get(), 1.0);
        // The previous generation stays current; the catalog stays
        // readable and byte-identically recoverable.
        assert_eq!(store.generation(), 0);
        assert_eq!(state_of(store.catalog()), committed);
        let recovered = Catalog::recover(scratch.path()).unwrap();
        assert_eq!(state_of(&recovered), committed);
        // A refresh attempt while degraded is a typed failure that
        // feeds the breaker.
        store.catalog().note_updates("t", 100); // make the column due
        let refresh = store
            .maintain_column(&rel, "c", SPEC, &RefreshPolicy::default())
            .unwrap_err();
        assert_eq!(refresh, StoreError::ReadOnly);
        assert!(store
            .catalog()
            .refresh_failure(&StatKey::new("t", &["c"]))
            .is_some());
        // A subsequent clean sweep's probe exits read-only mode.
        assert!(store.probe_restore());
        assert!(!store.readonly());
        assert_eq!(obs::gauge("catalog_readonly").get(), 0.0);
        assert_eq!(store.generation(), 1);
    }

    #[test]
    fn empty_directory_recovers_to_empty_catalog() {
        let scratch = ScratchDir::new();
        fs::create_dir_all(scratch.path()).unwrap();
        let recovered = Catalog::recover(scratch.path()).unwrap();
        assert!(recovered.keys().is_empty());
        assert!(recovered.version_snapshot().is_empty());
    }

    #[test]
    fn checkpoint_concurrent_with_writers_loses_no_acknowledged_put() {
        let scratch = ScratchDir::new();
        let store = DurableCatalog::open(scratch.path()).unwrap();
        let rel = relation();
        store.analyze(&rel, "c", SPEC).unwrap();
        let hist = store.catalog().get(&StatKey::new("t", &["c"])).unwrap();
        // Writers put distinct keys while a checkpointer rotates
        // generations underneath them. Every put is acknowledged, so
        // every key must survive recovery — a checkpoint that snapshots
        // between a writer's journal append and its in-memory apply
        // would retire the journal holding the record while the
        // snapshot misses it, losing the key.
        std::thread::scope(|s| {
            for writer in 0..4u64 {
                let store = &store;
                let hist = &hist;
                s.spawn(move || {
                    for i in 0..16u64 {
                        let column = format!("w{writer}_{i}");
                        let key = StatKey::new("t", &[column.as_str()]);
                        store.put(key, hist.clone()).unwrap();
                    }
                });
            }
            let store = &store;
            s.spawn(move || {
                for _ in 0..12 {
                    store.checkpoint().unwrap();
                    std::thread::yield_now();
                }
            });
        });
        let expected = state_of(store.catalog());
        assert_eq!(store.catalog().keys().len(), 1 + 4 * 16);
        drop(store);
        let recovered = Catalog::recover(scratch.path()).unwrap();
        assert_eq!(state_of(&recovered), expected);
    }

    #[test]
    fn old_generations_are_garbage_collected() {
        let scratch = ScratchDir::new();
        let store = DurableCatalog::open(scratch.path()).unwrap();
        let rel = relation();
        store.analyze(&rel, "c", SPEC).unwrap();
        store.checkpoint().unwrap();
        store.note_updates("t", 1).unwrap();
        store.checkpoint().unwrap();
        store.note_updates("t", 1).unwrap();
        store.checkpoint().unwrap();
        let generations = snapshot_generations(scratch.path()).unwrap();
        // Current (3) and previous (2) survive; 1 and older are gone.
        assert_eq!(generations, vec![3, 2]);
    }

    #[test]
    fn tune_survives_recovery_and_rebuild_resets_the_counter() {
        let scratch = ScratchDir::new();
        let store = DurableCatalog::open(scratch.path()).unwrap();
        let rel = relation();
        let key = store.analyze(&rel, "c", SPEC).unwrap();
        let before = store.catalog().get(&key).unwrap();
        // Feed one observation: the stored estimate for the hottest
        // value was 50, the workload saw 80.
        let report = store
            .tune_column(&key, 50.0, 80.0, &TuneConfig::default())
            .unwrap()
            .expect("applies");
        assert!(report.qerror_post < report.qerror_pre);
        let tuned = store.catalog().get(&key).unwrap();
        assert_ne!(tuned, before);
        assert_eq!(store.catalog().tuned_count(&key), 1);
        // Mass is conserved across the durable step.
        let mass =
            |h: &StoredHistogram| vopt_hist::feedback::total_mass(h.bucket_avgs(), h.bounds());
        assert_eq!(mass(&tuned), mass(&before));
        let expected = state_of(store.catalog());
        drop(store);
        // Journal replay reproduces the tuned histogram AND the tune
        // counter (the TAG_TUNE record replays through apply_tune).
        let recovered = Catalog::recover(scratch.path()).unwrap();
        assert_eq!(state_of(&recovered), expected);
        assert_eq!(recovered.get(&key).unwrap(), tuned);
        assert_eq!(recovered.tuned_count(&key), 1);
        // A full re-ANALYZE resets the tuned counter: tuning refines a
        // build, a rebuild starts a new one.
        let store = DurableCatalog::open(scratch.path()).unwrap();
        store.analyze(&rel, "c", SPEC).unwrap();
        assert_eq!(store.catalog().tuned_count(&key), 0);
        assert_eq!(store.catalog().get(&key).unwrap(), before);
    }

    #[test]
    fn tuned_contents_survive_checkpoint_but_the_counter_does_not() {
        let scratch = ScratchDir::new();
        let store = DurableCatalog::open(scratch.path()).unwrap();
        let rel = relation();
        let key = store.analyze(&rel, "c", SPEC).unwrap();
        store
            .tune_column(&key, 50.0, 80.0, &TuneConfig::default())
            .unwrap()
            .expect("applies");
        let tuned = store.catalog().get(&key).unwrap();
        store.checkpoint().unwrap();
        drop(store);
        let recovered = Catalog::recover(scratch.path()).unwrap();
        // The histogram the tune produced is in the snapshot...
        assert_eq!(recovered.get(&key).unwrap(), tuned);
        // ...but like the version counters, the tune counter is not
        // persisted in VOHG snapshots: recovered counts are tunes
        // since the last checkpoint.
        assert_eq!(recovered.tuned_count(&key), 0);
    }

    #[test]
    fn tune_skip_touches_neither_journal_nor_catalog() {
        let scratch = ScratchDir::new();
        let store = DurableCatalog::open(scratch.path()).unwrap();
        let rel = relation();
        let key = store.analyze(&rel, "c", SPEC).unwrap();
        let bytes_before = store.journal_bytes();
        let state_before = state_of(store.catalog());
        let verdict = store
            .tune_column(&key, 50.0, 50.0, &TuneConfig::default())
            .unwrap();
        assert_eq!(verdict, Err(vopt_hist::feedback::TuneSkip::NegligibleError));
        assert_eq!(store.journal_bytes(), bytes_before);
        assert_eq!(state_of(store.catalog()), state_before);
        assert_eq!(store.catalog().tuned_count(&key), 0);
    }

    #[test]
    fn tune_of_a_missing_entry_is_a_typed_error() {
        let scratch = ScratchDir::new();
        let store = DurableCatalog::open(scratch.path()).unwrap();
        let err = store
            .tune_column(
                &StatKey::new("ghost", &["c"]),
                1.0,
                2.0,
                &TuneConfig::default(),
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::MissingStatistics { .. }));
    }

    #[test]
    fn degraded_store_refuses_tunes_and_restores_after_probe() {
        let _gauge = READONLY_GAUGE_LOCK.lock();
        let scratch = ScratchDir::new();
        let store = DurableCatalog::open(scratch.path()).unwrap();
        let rel = relation();
        let key = store.analyze(&rel, "c", SPEC).unwrap();
        let committed = state_of(store.catalog());
        store.arm_io_fault(KillPoint::JournalAppend, IoFault::Enospc);
        let err = store
            .tune_column(&key, 50.0, 80.0, &TuneConfig::default())
            .unwrap_err();
        assert!(matches!(err, StoreError::Io(_)));
        // Degraded: the failed tune changed nothing, and further tunes
        // are refused with the typed read-only error — exactly the
        // ladder behaviour an un-tuned store has.
        assert_eq!(state_of(store.catalog()), committed);
        let err = store
            .tune_column(&key, 50.0, 80.0, &TuneConfig::default())
            .unwrap_err();
        assert!(matches!(err, StoreError::ReadOnly));
        // A successful probe restores read-write and tuning resumes.
        assert!(store.probe_restore());
        store
            .tune_column(&key, 50.0, 80.0, &TuneConfig::default())
            .unwrap()
            .expect("applies after restore");
        assert_eq!(store.catalog().tuned_count(&key), 1);
    }

    #[test]
    fn self_tuning_daemon_tunes_from_quality_feedback_once_per_observation() {
        let scratch = ScratchDir::new();
        let store = DurableCatalog::open(scratch.path()).unwrap();
        // A relation name no other test's quality recording touches —
        // the monitor's `col:` scopes are process-global.
        let freqs = FrequencySet::new(vec![50, 30, 10, 5, 5]);
        let rel = Arc::new(relation_from_frequency_set("wal_tune_rel", "c", &freqs, 3).unwrap());
        let key = store.analyze(&rel, "c", SPEC).unwrap();
        let mut core = crate::daemon::DaemonCore::new(crate::daemon::DaemonConfig {
            self_tune: true,
            ..Default::default()
        });
        core.register_with_spec(Arc::clone(&rel), "c", SPEC);
        // No quality observation yet: the feedback pass does nothing.
        core.tick(&store);
        assert_eq!(store.catalog().tuned_count(&key), 0);
        // One observation arrives on the column's quality scope; the
        // next sweep consumes it exactly once.
        obs::quality::record_quality(&format!("col:{}.c", rel.name()), 50.0, 80.0);
        core.tick(&store);
        assert_eq!(store.catalog().tuned_count(&key), 1);
        assert!(core
            .trace()
            .iter()
            .any(|e| matches!(e, crate::daemon::DaemonEvent::Tuned { .. })));
        // Re-sweeping without a new observation tunes nothing more.
        core.tick(&store);
        core.tick(&store);
        assert_eq!(store.catalog().tuned_count(&key), 1);
    }

    // Satellite: the journal-frame properties of the tune record —
    // round-trip, truncation, and corruption all land in defined
    // states (replayed exactly, dropped as torn, or a typed error;
    // never a panic, never a silently different histogram).
    mod tune_frame_props {
        use super::*;
        use proptest::prelude::*;

        /// Parts for a valid multi-bucket histogram: one singleton
        /// bucket per frequency, value `i` in bucket `i`, bucket 0
        /// default (its value unlisted).
        fn hist_from_freqs(freqs: &[u64]) -> StoredHistogram {
            let bounds = (0..freqs.len() as u64)
                .map(|v| vopt_hist::ValueBounds {
                    lo: v,
                    hi: v + 1,
                    distinct: 1,
                })
                .collect();
            let exceptions = (1..freqs.len() as u64).map(|v| (v, v as u32)).collect();
            StoredHistogram::from_parts(freqs.to_vec(), 0, exceptions, bounds).unwrap()
        }

        /// A catalog holding a pre-existing entry for `key`, as every
        /// tune record requires.
        fn seeded(key: &StatKey, freqs: &[u64]) -> Catalog {
            let catalog = Catalog::new();
            catalog.put_with_spec(key.clone(), hist_from_freqs(freqs), Some(SPEC));
            catalog
        }

        proptest! {
            #[test]
            fn tune_frame_round_trips(
                freqs in proptest::collection::vec(0u64..=1_000, 2..20),
                col in "[a-z]{1,8}",
            ) {
                let key = StatKey::new("t", &[col.as_str()]);
                let tuned = hist_from_freqs(&freqs);
                let payload = encode_tune(&key, &tuned).unwrap();
                let framed = frame(&payload).unwrap();
                let (valid_len, records) = scan_journal(&framed);
                prop_assert_eq!(valid_len, framed.len());
                prop_assert_eq!(records.len(), 1);
                let catalog = seeded(&key, &freqs);
                apply_record(&catalog, records[0].clone()).unwrap();
                prop_assert_eq!(catalog.get(&key).unwrap(), tuned);
                prop_assert_eq!(catalog.tuned_count(&key), 1);
            }

            #[test]
            fn truncated_tune_frame_scans_as_torn_tail(
                freqs in proptest::collection::vec(0u64..=1_000, 2..20),
                cut_frac in 0.0f64..1.0,
            ) {
                let key = StatKey::new("t", &["c"]);
                let payload = encode_tune(&key, &hist_from_freqs(&freqs)).unwrap();
                let framed = frame(&payload).unwrap();
                let cut = ((framed.len() as f64) * cut_frac) as usize;
                let (valid_len, records) = scan_journal(&framed[..cut]);
                // A short frame is a torn tail, discarded whole.
                prop_assert_eq!(valid_len, 0);
                prop_assert!(records.is_empty());
            }

            #[test]
            fn truncated_tune_payload_is_a_typed_error(
                freqs in proptest::collection::vec(0u64..=1_000, 2..20),
                cut_frac in 0.0f64..1.0,
            ) {
                // Corruption that *forges a valid checksum*: the frame
                // verifies but the record inside is short. Recovery
                // must surface a typed error, not panic or misapply.
                let key = StatKey::new("t", &["c"]);
                let payload = encode_tune(&key, &hist_from_freqs(&freqs)).unwrap();
                let cut = ((payload.len() as f64) * cut_frac) as usize;
                if cut == payload.len() {
                    return Ok(());
                }
                let catalog = seeded(&key, &freqs);
                let before = codec::encode_catalog(&catalog).to_vec();
                let err = apply_record(
                    &catalog,
                    Bytes::copy_from_slice(&payload[..cut]),
                ).unwrap_err();
                prop_assert!(matches!(
                    err,
                    StoreError::Codec(_) | StoreError::MissingStatistics { .. }
                ));
                prop_assert_eq!(codec::encode_catalog(&catalog).to_vec(), before);
            }

            #[test]
            fn bit_flipped_tune_frame_never_replays_a_different_record(
                freqs in proptest::collection::vec(0u64..=1_000, 2..20),
                flip in 0usize..4096,
            ) {
                let key = StatKey::new("t", &["c"]);
                let payload = encode_tune(&key, &hist_from_freqs(&freqs)).unwrap();
                let mut framed = frame(&payload).unwrap();
                let byte = flip / 8 % framed.len();
                framed[byte] ^= 1 << (flip % 8);
                let (_, records) = scan_journal(&framed);
                // The FxHash-64 frame checksum rejects the flip: either
                // the journal scans as torn (no records), or — when the
                // flip lands in dead framing space that cannot happen
                // here — the surviving record equals the original.
                for record in records {
                    prop_assert_eq!(record.as_ref(), payload.as_slice());
                }
            }
        }
    }
}
