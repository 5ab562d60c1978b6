//! CRC-framed, segment-rotated write-ahead log that overwrites zeros laid
//! down ahead of it instead of appending.
//!
//! On-disk layout inside a data directory:
//!
//! ```text
//! wal-0000000000000001.log      [8-byte magic "ESCWAL03"][record]...[zeros]
//! wal-0000000000000002.log      (rotated when a segment's records pass the cap)
//! wal-0000000000000003.prep     (the next segment, zero-filled ahead of use)
//! ```
//!
//! Each record is `[u32 LE len][u32 LE CRC-32][payload]`
//! ([`escape_wire::record`]), the CRC covering the length header as well
//! as the payload; payloads are [`WalRecord`] encodings.
//!
//! # The end marker
//!
//! An all-zero 8-byte header ends a segment's records, and so does the
//! end of the file. No record can begin with one: the CRC covers the
//! length field, and the CRC-32 of four zero bytes is `0x2144DF1C`, not
//! zero. Every byte after the end marker must be zero. A nonzero byte
//! there (or a record that fails its frame or CRC) is crash debris in the
//! newest segment and mid-log corruption in any older one.
//!
//! A segment whose header names any other version (`ESCWAL` plus
//! anything but `03`) is refused with [`io::ErrorKind::InvalidData`] and
//! left on disk: it is data this build cannot read, not crash debris.
//!
//! # Why overwrite, not append
//!
//! After an *appending* write, `fdatasync` must also make the new file
//! size durable, which on a journaling filesystem (ext4's default
//! `data=ordered`, for one) costs a journal commit, and the commits of
//! several WALs on one disk queue behind each other. Overwriting blocks
//! that were zero-filled and synced earlier changes no metadata, so the
//! barrier flushes data only. The zeros are laid ahead of the writer:
//!
//! * A segment made at open, or when nothing was prepared, starts with a
//!   64 KiB runway of zeros, written and synced.
//! * A barrier that finds less than half a step of runway left extends it
//!   by one step: 64 KiB, doubling up to 1 MiB. Only the barriers that
//!   extend pay a journal commit.
//! * Once the active segment is half full, a short-lived helper thread
//!   writes the next segment as `wal-<seq>.prep`: the magic and zeros up
//!   to the cap, synced, directory synced. Rotation syncs the old
//!   segment, joins the helper and renames the file to `.log`. So
//!   steady-state barriers neither zero-fill nor create files.
//!
//! Nothing is zero-filled past the cap; a record that crosses it extends
//! the file. All zero-filling is budgeted: the zero bytes a [`Wal`] writes
//! stay at most twice the record bytes it writes plus 64 KiB (the open's
//! runway), so a lightly used WAL stays cheap. A step or a preparation
//! the budget does not cover is skipped: the first segment after an open
//! usually cannot afford its successor, which then starts with a runway.
//! That is the price of the steps. Without them the first segment could
//! afford its successor, but a WAL too slow to fill a segment, the common
//! case for a lightly loaded group, would append on every barrier once
//! its first 64 KiB were used.
//!
//! # Recovery
//!
//! Readers replay segments in sequence order and stop at the first end
//! marker or framing/checksum violation. On the open path, [`recover`]
//! **repairs** debris in the newest segment by overwriting it with zeros
//! (the file keeps its size) and deletes stray `.prep` files, which
//! [`list_segments`] never returns. The repaired segment ends cleanly at
//! its end marker, so [`Wal::open_append`] can continue it there without
//! burying the tear behind valid records.
//!
//! # Group commit
//!
//! Appends are **deferred-sync**: [`Wal::append`] encodes each record,
//! framed in place, into a user-space buffer and the
//! [`Wal::sync`] barrier writes the whole buffer with one `write` and
//! makes it durable with one `fdatasync` — so a batch of N records costs
//! one syscall pair instead of N, and the engine's
//! write-before-send invariant is carried entirely by the barrier:
//! nothing buffered may be treated as durable (or acked) until `sync`
//! returns. A crash between append and sync loses exactly the buffered
//! suffix — records no message was ever allowed to reference.

use std::fs::{self, File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use bytes::{Bytes, BytesMut};
use escape_obs::{Gauge, Histogram, Labels, Registry};
use escape_wire::record::{read_record, write_record_with, DEFAULT_MAX_RECORD};

use crate::record::WalRecord;

/// Magic bytes opening every WAL segment this build writes and reads
/// (name + format version 3: records, then zeros).
pub const SEGMENT_MAGIC: &[u8; 8] = b"ESCWAL03";

const MAGIC_LEN: u64 = SEGMENT_MAGIC.len() as u64;

/// Bytes in a record header, and so in the all-zero end marker.
const RECORD_HEADER: usize = 8;

/// Zeros a new segment starts with, the first runway step, and the zero
/// budget each open adds.
const RUNWAY: u64 = 64 * 1024;

/// The largest runway step.
const MAX_STEP: u64 = 1024 * 1024;

static ZEROS: [u8; RUNWAY as usize] = [0; RUNWAY as usize];

/// Default segment-rotation threshold (4 MiB).
pub const DEFAULT_SEGMENT_MAX_BYTES: u64 = 4 * 1024 * 1024;

/// Upper bounds (inclusive, µs) of the fsync-latency histogram buckets.
/// Spans battery-backed NVMe (tens of µs) through a contended spinning
/// disk (tens of ms); slower barriers land in the overflow bucket.
pub const FSYNC_LATENCY_BOUNDS_MICROS: [u64; 6] = [50, 200, 1_000, 5_000, 20_000, 100_000];

/// Optional observability instruments for one WAL, shared with an
/// [`escape_obs::Registry`]. Attach with [`Wal::instrument`]; an
/// uninstrumented WAL pays nothing on the sync path.
#[derive(Clone, Debug)]
pub struct WalInstruments {
    /// Real `fdatasync` barrier latency, µs; the count is the number of
    /// durability barriers issued.
    pub fsync_micros: Arc<Histogram>,
    /// Live segment files in the data directory (rotation minus
    /// compaction deletions).
    pub segments: Arc<Gauge>,
}

impl WalInstruments {
    /// Registers (or rebinds) the WAL series under `labels` — typically
    /// `node` and, when sharded, `group`.
    pub fn register(registry: &Registry, labels: &Labels) -> Self {
        WalInstruments {
            fsync_micros: registry.histogram(
                "escape_wal_fsync_micros",
                labels,
                &FSYNC_LATENCY_BOUNDS_MICROS,
            ),
            segments: registry.gauge("escape_wal_segments", labels),
        }
    }
}

/// Write-ahead-log tuning knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalOptions {
    /// Rotate to a fresh segment once the active one's records pass this
    /// size. Also the size a prepared segment is zero-filled to.
    pub segment_max_bytes: u64,
    /// Whether [`Wal::sync`] issues a real `fdatasync`. Disable only for
    /// tests that model the fsync-less case.
    pub fsync: bool,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            segment_max_bytes: DEFAULT_SEGMENT_MAX_BYTES,
            fsync: true,
        }
    }
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:016}.log"))
}

fn prepared_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:016}.prep"))
}

/// Parses a `wal-<seq>.log` file name back into its sequence number.
fn segment_seq(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    rest.parse().ok()
}

/// Best-effort directory fsync, so a freshly created/renamed file name is
/// durable too (POSIX requires syncing the parent directory for that).
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(handle) = File::open(dir) {
        let _ = handle.sync_all();
    }
}

/// All WAL segments in `dir`, sorted by sequence number. Prepared
/// (`.prep`) segments are not segments yet and are never listed.
pub fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = segment_seq(name) {
            segments.push((seq, entry.path()));
        }
    }
    segments.sort_unstable();
    Ok(segments)
}

/// Deletes the `.prep` files a crash left behind: a preparation that
/// never became a segment holds no records.
fn remove_prepared(dir: &Path) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with("wal-") && name.ends_with(".prep") {
            fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

/// Writes zeros over `[from, to)` of `file`.
pub(crate) fn write_zeros(file: &File, mut from: u64, to: u64) -> io::Result<()> {
    while from < to {
        let n = (to - from).min(RUNWAY);
        file.write_all_at(ZEROS.get(..n as usize).unwrap_or_default(), from)?;
        from += n;
    }
    Ok(())
}

/// Creates the segment file `path` holding the magic and zeros up to
/// offset `len`; with `fsync`, syncs it and then the directory.
fn new_segment(dir: &Path, path: &Path, len: u64, fsync: bool) -> io::Result<File> {
    let file = OpenOptions::new().create_new(true).write(true).open(path)?;
    file.write_all_at(SEGMENT_MAGIC, 0)?;
    write_zeros(&file, MAGIC_LEN, len)?;
    if fsync {
        file.sync_data()?;
        sync_dir(dir);
    }
    Ok(file)
}

/// Writes `wal-<seq>.prep`, zero-filled to `cap`: the helper thread's
/// whole job.
fn prepare(dir: &Path, seq: u64, cap: u64, fsync: bool) -> io::Result<()> {
    let path = prepared_path(dir, seq);
    let _ = fs::remove_file(&path);
    new_segment(dir, &path, cap, fsync).map(drop)
}

/// Bytes of `tail` up to and including its last nonzero byte (0 when it
/// is all zeros). Whole blocks are OR-folded, which vectorises, before
/// one block is searched byte by byte.
fn nonzero_extent(tail: &[u8]) -> u64 {
    let mut extent = tail.len();
    for block in tail.rchunks(4096) {
        if block.iter().fold(0, |acc, &b| acc | b) != 0 {
            let last = block.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
            return (extent - block.len() + last) as u64;
        }
        extent -= block.len();
    }
    0
}

/// One segment's parse result.
struct SegmentScan {
    /// The records before the end.
    records: Vec<WalRecord>,
    /// File offset where the records end: the end marker, the end of the
    /// file, or the first record that fails its frame or CRC.
    end: u64,
    /// Bytes from `end` through the last nonzero byte after it: crash
    /// debris, 0 for a clean segment.
    debris: u64,
    /// The file had no (complete) magic header at all.
    headerless: bool,
}

/// Scans the segment at `path`, whose contents are `raw`.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] when the header names another WAL
/// format version.
fn scan_segment(path: &Path, raw: Vec<u8>) -> io::Result<SegmentScan> {
    match raw.get(..SEGMENT_MAGIC.len()) {
        Some(magic) if magic == SEGMENT_MAGIC => {}
        Some(magic) if magic.starts_with(b"ESCWAL") => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "WAL segment {} has format {:?}; this build reads only {:?}",
                    path.display(),
                    String::from_utf8_lossy(magic),
                    String::from_utf8_lossy(SEGMENT_MAGIC),
                ),
            ));
        }
        _ => {
            return Ok(SegmentScan {
                records: Vec::new(),
                end: 0,
                debris: nonzero_extent(&raw),
                headerless: true,
            })
        }
    }
    let raw = Bytes::from(raw);
    let mut bytes = raw.slice(SEGMENT_MAGIC.len()..);
    let mut records = Vec::new();
    let end = loop {
        let at = raw.len() - bytes.len();
        if bytes.iter().take(RECORD_HEADER).all(|&b| b == 0) {
            break at;
        }
        match read_record(&mut bytes, DEFAULT_MAX_RECORD) {
            Ok(Some(mut payload)) => match WalRecord::decode(&mut payload) {
                Ok(record) => records.push(record),
                Err(_) => break at,
            },
            Ok(None) | Err(_) => break at,
        }
    };
    Ok(SegmentScan {
        records,
        end: end as u64,
        debris: raw.get(end..).map_or(0, nonzero_extent),
        headerless: false,
    })
}

/// Where the records of the segment at `path` end (0 for a file without
/// a header).
///
/// # Errors
///
/// I/O failures reading it, or [`io::ErrorKind::InvalidData`] for a
/// segment of another format version.
pub(crate) fn records_end(path: &Path) -> io::Result<u64> {
    Ok(scan_segment(path, fs::read(path)?)?.end)
}

/// Replays every intact record in `dir`'s segments, in write order,
/// **read-only**: the scan stops at the first segment with debris and
/// ignores any later segment. Use [`recover`] on the open path — it
/// repairs the debris so later segments stay reachable on the *next*
/// open.
///
/// # Errors
///
/// I/O failures reading the directory or files, or
/// [`io::ErrorKind::InvalidData`] for a segment of another format
/// version.
pub fn replay(dir: &Path) -> io::Result<Vec<WalRecord>> {
    let mut records = Vec::new();
    for (_, path) in list_segments(dir)? {
        let scan = scan_segment(&path, fs::read(&path)?)?;
        records.extend(scan.records);
        if scan.headerless || scan.debris > 0 {
            break;
        }
    }
    Ok(records)
}

/// Replays `dir`'s segments like [`replay`], and **repairs** crash
/// damage so it cannot compound:
///
/// * Debris (a torn record, nonzero bytes after the end marker, or a
///   missing header) in the **newest** segment is the tail write of the
///   crash being recovered from — never synced, never acked. It is
///   overwritten with zeros (or, if headerless, the segment is removed),
///   so a later open replays straight through into any segments written
///   after this recovery. Without the repair, the *next* restart would
///   stop at the tear and silently forget every newer segment —
///   including fsync'd, acked votes.
/// * Debris in an **older** segment is not a crash artifact (later
///   segments were written by a process that had read past this point):
///   it is real corruption, and recovering around it would apply newer
///   records over a gap. That is refused outright.
/// * A segment of another format version (in any position) is refused
///   too, and left as it is.
/// * Stray `.prep` files are deleted.
///
/// # Errors
///
/// I/O failures, or [`io::ErrorKind::InvalidData`] for mid-log
/// corruption or a foreign format version, as described above.
pub fn recover(dir: &Path) -> io::Result<Vec<WalRecord>> {
    recover_reporting(dir).map(|recovery| recovery.records)
}

/// The newest segment as recovery left it: what [`Wal::open_append`]
/// needs to continue it without reading it again.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NewestSegment {
    /// Its sequence number.
    pub seq: u64,
    /// The offset of its end marker.
    pub end: u64,
}

/// What [`recover_reporting`] found.
#[derive(Debug)]
pub struct Recovery {
    /// Every intact record, in write order.
    pub records: Vec<WalRecord>,
    /// Debris bytes the repair zeroed (0 when the log was clean). Callers
    /// with an observer turn a nonzero count into a `wal_tail_truncated`
    /// event.
    pub lost_bytes: u64,
    /// The newest segment left on disk, if any.
    pub newest: Option<NewestSegment>,
}

/// [`recover`], additionally reporting how many debris bytes the repair
/// zeroed and where the newest segment's records end.
///
/// # Errors
///
/// As [`recover`].
pub fn recover_reporting(dir: &Path) -> io::Result<Recovery> {
    remove_prepared(dir)?;
    let segments = list_segments(dir)?;
    let last = segments.len().saturating_sub(1);
    let mut recovery = Recovery {
        records: Vec::new(),
        lost_bytes: 0,
        newest: None,
    };
    for (i, (seq, path)) in segments.into_iter().enumerate() {
        let scan = scan_segment(&path, fs::read(&path)?)?;
        let damaged = scan.headerless || scan.debris > 0;
        if damaged && i != last {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "WAL segment {seq} is corrupt mid-log (later segments exist); \
                     refusing to recover over the gap"
                ),
            ));
        }
        recovery.records.extend(scan.records);
        recovery.lost_bytes += scan.debris;
        if scan.headerless {
            // A crash inside segment creation: no header ever landed.
            fs::remove_file(&path)?;
            sync_dir(dir);
            continue;
        }
        if scan.debris > 0 {
            let file = OpenOptions::new().write(true).open(&path)?;
            write_zeros(&file, scan.end, scan.end + scan.debris)?;
            file.sync_data()?;
        }
        recovery.newest = Some(NewestSegment { seq, end: scan.end });
    }
    Ok(recovery)
}

/// What the active segment's successor is.
#[derive(Debug)]
enum Next {
    /// The active segment is not yet half full.
    Undecided,
    /// The zero budget did not cover a preparation, or no helper thread
    /// could be spawned; rotation creates the successor with a runway.
    Skipped,
    /// A helper thread is writing `wal-<seq + 1>.prep`.
    Preparing(JoinHandle<io::Result<()>>),
}

/// The active write-ahead log: an open segment plus rotation bookkeeping
/// and the group-commit buffer.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    options: WalOptions,
    file: File,
    seq: u64,
    /// Where the active segment's records end, counting the not-yet-flushed
    /// buffer.
    written: u64,
    /// Length of the active segment file; below it, past the flushed
    /// records, every byte is zero.
    len: u64,
    /// Size of the next runway extension.
    step: u64,
    /// Record bytes written since this `Wal` was opened.
    record_bytes: u64,
    /// Zero bytes written (or handed to a helper) since it was opened.
    zero_bytes: u64,
    next: Next,
    /// Encoded-but-unflushed records (the group-commit window). Written
    /// to the file by [`Wal::flush`] / [`Wal::sync`]; discarded by a
    /// crash — which is exactly the durability contract, since nothing
    /// in it was synced or acked.
    buffer: BytesMut,
    /// Observability hooks; `None` keeps the sync path untouched.
    instruments: Option<WalInstruments>,
}

impl Wal {
    fn with_segment(
        dir: &Path,
        options: WalOptions,
        file: File,
        seq: u64,
        end: u64,
        len: u64,
    ) -> Wal {
        Wal {
            dir: dir.to_path_buf(),
            options,
            file,
            seq,
            written: end,
            len,
            step: RUNWAY,
            record_bytes: 0,
            zero_bytes: 0,
            next: Next::Undecided,
            buffer: BytesMut::new(),
            instruments: None,
        }
    }

    /// Opens a *fresh* segment with sequence `seq` in `dir`, starting
    /// with a 64 KiB runway of zeros (less if the cap is smaller).
    ///
    /// # Errors
    ///
    /// I/O errors creating the segment file.
    pub fn create(dir: &Path, seq: u64, options: WalOptions) -> io::Result<Wal> {
        let len = runway_end(RUNWAY, options.segment_max_bytes);
        let file = new_segment(dir, &segment_path(dir, seq), len, options.fsync)?;
        let mut wal = Wal::with_segment(dir, options, file, seq, MAGIC_LEN, len);
        wal.zero_bytes = len - MAGIC_LEN;
        count_caller_fill();
        Ok(wal)
    }

    /// Reopens the **existing** segment `newest` and continues it at its
    /// end marker — the post-recovery continue path that stops the
    /// one-segment-per-restart growth. `newest` must come from
    /// [`recover_reporting`], which zeroed everything after that marker
    /// and so already read the file once.
    ///
    /// Returns `Ok(None)` when the segment cannot be continued: its
    /// records are at/over the rotation cap. The caller falls back to [`Wal::create`]. The whole
    /// appendability rule lives here so no caller can open a segment the
    /// rule would rotate.
    ///
    /// # Errors
    ///
    /// I/O errors opening the file.
    pub fn open_append(
        dir: &Path,
        newest: NewestSegment,
        options: WalOptions,
    ) -> io::Result<Option<Wal>> {
        let end = newest.end;
        if end >= options.segment_max_bytes {
            return Ok(None);
        }
        let file = OpenOptions::new()
            .write(true)
            .open(segment_path(dir, newest.seq))?;
        let len = file.metadata()?.len();
        Ok(Some(Wal::with_segment(
            dir, options, file, newest.seq, end, len,
        )))
    }

    /// The active segment's sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Attaches observability instruments and primes the segment gauge.
    pub fn instrument(&mut self, instruments: WalInstruments) {
        self.instruments = Some(instruments);
        self.update_segment_gauge();
    }

    /// Re-counts the live segments into the gauge. Costs one `read_dir`,
    /// so it runs only on the rare mutation points (attach, rotation,
    /// compaction deletions), never per sync.
    fn update_segment_gauge(&self) {
        if let Some(instruments) = &self.instruments {
            if let Ok(segments) = list_segments(&self.dir) {
                instruments.segments.set(segments.len() as u64);
            }
        }
    }

    /// Appends one record into the group-commit buffer (durable only
    /// after [`Wal::sync`]), rotating first if the active segment is over
    /// the cap.
    ///
    /// The record is framed in place: the 8-byte header is reserved in
    /// the buffer, the record is encoded straight after it, and the
    /// length and the CRC over that slice are backfilled
    /// ([`write_record_with`]). Each payload byte is copied into the
    /// buffer once and checksummed once; the bytes are those of
    /// `write_record(buf, &record.to_bytes())`.
    ///
    /// # Errors
    ///
    /// I/O errors from a rotation's flush.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        self.append_with(|buf| record.encode_into(buf))
    }

    /// [`Wal::append`] of the record `encode` writes, for callers that
    /// encode from borrowed data instead of building a [`WalRecord`].
    pub(crate) fn append_with(&mut self, encode: impl FnOnce(&mut BytesMut)) -> io::Result<()> {
        if self.written >= self.options.segment_max_bytes {
            self.rotate()?;
        }
        let before = self.buffer.len();
        write_record_with(&mut self.buffer, encode);
        self.written += (self.buffer.len() - before) as u64;
        Ok(())
    }

    /// Bytes sitting in the group-commit buffer, not yet flushed to the
    /// segment file (diagnostics/tests).
    pub fn buffered_bytes(&self) -> usize {
        self.buffer.len()
    }

    /// Writes the group-commit buffer over the zeros after the records
    /// (one `pwrite`), **without** forcing it to stable storage — crash
    /// durability still requires [`Wal::sync`].
    ///
    /// # Errors
    ///
    /// I/O errors from the write.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.buffer.is_empty() {
            let at = self.written - self.buffer.len() as u64;
            self.file.write_all_at(&self.buffer, at)?;
            self.record_bytes += self.buffer.len() as u64;
            self.len = self.len.max(self.written);
            self.buffer.clear();
        }
        Ok(())
    }

    /// Closes the active segment (flushed + synced) and opens the next
    /// one: the prepared file if there is one, else a fresh segment with
    /// a runway.
    ///
    /// # Errors
    ///
    /// I/O errors syncing the old segment or creating the new one.
    pub fn rotate(&mut self) -> io::Result<()> {
        self.flush()?;
        self.sync_data()?;
        let seq = self.seq + 1;
        let path = segment_path(&self.dir, seq);
        let prepared = match std::mem::replace(&mut self.next, Next::Undecided) {
            Next::Preparing(helper) => {
                let ready = matches!(helper.join(), Ok(Ok(())));
                if !ready {
                    let _ = fs::remove_file(prepared_path(&self.dir, seq));
                }
                ready
            }
            Next::Undecided | Next::Skipped => false,
        };
        let cap = self.options.segment_max_bytes;
        if prepared {
            fs::rename(prepared_path(&self.dir, seq), &path)?;
            if self.options.fsync {
                sync_dir(&self.dir);
            }
            self.file = OpenOptions::new().write(true).open(&path)?;
            self.len = cap.max(MAGIC_LEN);
        } else {
            let len = runway_end(RUNWAY.min(self.zero_budget()), cap);
            self.file = new_segment(&self.dir, &path, len, self.options.fsync)?;
            self.zero_bytes += len - MAGIC_LEN;
            self.len = len;
            count_caller_fill();
        }
        self.seq = seq;
        self.written = MAGIC_LEN;
        self.step = RUNWAY;
        self.update_segment_gauge();
        Ok(())
    }

    /// The group-commit barrier: flushes the buffer and makes everything
    /// appended so far durable (one `write` + one `fdatasync`, however
    /// many records accumulated since the previous barrier). Extends the
    /// runway first when it runs short, and starts preparing the next
    /// segment once this one is half full.
    ///
    /// # Errors
    ///
    /// I/O errors from the flush, the runway or the sync.
    pub fn sync(&mut self) -> io::Result<()> {
        self.flush()?;
        self.extend_runway()?;
        self.sync_data()?;
        self.prepare_next();
        Ok(())
    }

    /// One `fdatasync` of the active segment, timed when instrumented.
    fn sync_data(&self) -> io::Result<()> {
        if !self.options.fsync {
            return Ok(());
        }
        match &self.instruments {
            Some(instruments) => {
                // lint:allow(time): measuring the real fsync barrier is this instrument's entire purpose
                let started = std::time::Instant::now();
                self.file.sync_data()?;
                instruments
                    .fsync_micros
                    .observe(started.elapsed().as_micros() as u64);
            }
            None => self.file.sync_data()?,
        }
        Ok(())
    }

    /// Zero bytes this `Wal` may still write: twice the record bytes plus
    /// one runway, less what it has written.
    fn zero_budget(&self) -> u64 {
        (2 * self.record_bytes + RUNWAY).saturating_sub(self.zero_bytes)
    }

    /// Zero-fills one more step past the file end, up to the cap, when
    /// less than half a step is left and the budget covers it.
    fn extend_runway(&mut self) -> io::Result<()> {
        let cap = self.options.segment_max_bytes;
        if self.len >= cap || self.len - self.written >= self.step / 2 {
            return Ok(());
        }
        let to = (self.len + self.step).min(cap);
        if to - self.len > self.zero_budget() {
            return Ok(());
        }
        write_zeros(&self.file, self.len, to)?;
        self.zero_bytes += to - self.len;
        self.len = to;
        self.step = (self.step * 2).min(MAX_STEP);
        count_caller_fill();
        Ok(())
    }

    /// Once the active segment is half full, hands the next segment's
    /// zero-fill to a helper thread. A preparation that fails, or whose
    /// thread cannot be spawned, only costs the successor its head start:
    /// rotation creates it on the caller with a runway instead.
    fn prepare_next(&mut self) {
        let cap = self.options.segment_max_bytes.max(MAGIC_LEN);
        if !matches!(self.next, Next::Undecided) || self.written < cap / 2 {
            return;
        }
        let zeros = cap - MAGIC_LEN;
        if zeros > self.zero_budget() {
            self.next = Next::Skipped;
            return;
        }
        let (dir, seq, fsync) = (self.dir.clone(), self.seq + 1, self.options.fsync);
        let helper = thread::Builder::new()
            .name("escape-wal-prep".into())
            .spawn(move || prepare(&dir, seq, cap, fsync));
        self.next = match helper {
            Ok(helper) => {
                self.zero_bytes += zeros;
                Next::Preparing(helper)
            }
            Err(_) => Next::Skipped,
        };
    }

    /// Deletes every segment with a sequence number below `seq` — called
    /// after a snapshot makes their records redundant.
    ///
    /// # Errors
    ///
    /// I/O errors listing or removing files.
    pub fn delete_segments_below(&mut self, seq: u64) -> io::Result<()> {
        for (old_seq, path) in list_segments(&self.dir)? {
            if old_seq < seq {
                fs::remove_file(path)?;
            }
        }
        sync_dir(&self.dir);
        self.update_segment_gauge();
        Ok(())
    }
}

impl Drop for Wal {
    /// Waits for a helper still writing the next segment, so no thread
    /// outlives the log it prepares for. Its `.prep` file stays: the next
    /// open deletes it.
    fn drop(&mut self) {
        if let Next::Preparing(helper) = std::mem::replace(&mut self.next, Next::Undecided) {
            let _ = helper.join();
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Zero-fills and segment creations done on this thread by a `Wal`
    /// (a helper thread's preparation is not counted).
    static CALLER_FILLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Counts one zero-fill or segment creation on the caller's thread; tests
/// assert that steady-state barriers do none.
fn count_caller_fill() {
    #[cfg(test)]
    CALLER_FILLS.with(|fills| fills.set(fills.get() + 1));
}

/// The length of a fresh segment: the magic plus `runway` zeros, cut at
/// the cap.
fn runway_end(runway: u64, cap: u64) -> u64 {
    (MAGIC_LEN + runway).min(cap).max(MAGIC_LEN)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::test_util::scratch_dir;
    use escape_core::types::{ServerId, Term};
    use escape_wire::record::write_record;

    fn hard_state(term: u64) -> WalRecord {
        WalRecord::HardState {
            term: Term::new(term),
            voted_for: Some(ServerId::new(1)),
        }
    }

    /// One record of every kind, plus a batch-sized `AppendSlice`.
    fn every_record_kind() -> Vec<WalRecord> {
        use escape_core::config::Configuration;
        use escape_core::log::{Entry, Payload};
        use escape_core::time::Duration;
        use escape_core::types::{ConfClock, LogIndex, Priority};

        let entry = |index: u64| Entry {
            term: Term::new(3),
            index: LogIndex::new(index),
            payload: Payload::Command(Bytes::from(vec![index as u8; 250])),
        };
        vec![
            hard_state(7),
            WalRecord::HardState {
                term: Term::new(8),
                voted_for: None,
            },
            WalRecord::AppendEntry { entry: entry(1) },
            WalRecord::AppendEntry {
                entry: Entry {
                    term: Term::new(3),
                    index: LogIndex::new(2),
                    payload: Payload::Noop,
                },
            },
            WalRecord::AppendSlice {
                prev_index: LogIndex::new(2),
                prev_term: Term::new(3),
                entries: (3..131).map(entry).collect(),
            },
            WalRecord::Config {
                config: Configuration::new(
                    Duration::from_millis(1500),
                    Priority::new(5),
                    ConfClock::new(12),
                ),
            },
            WalRecord::SnapshotMarker {
                index: LogIndex::new(100),
                term: Term::new(8),
            },
        ]
    }

    /// What a segment holding `records` must begin with, byte for byte:
    /// each record encoded on its own, then framed by copying. Zeros
    /// follow.
    pub(crate) fn oracle_segment(records: &[WalRecord]) -> Vec<u8> {
        let mut buf = BytesMut::from(&SEGMENT_MAGIC[..]);
        for record in records {
            write_record(&mut buf, &record.to_bytes());
        }
        buf.to_vec()
    }

    /// Asserts the segment at `path` is `oracle` followed by zeros only.
    pub(crate) fn assert_oracle_then_zeros(path: &Path, oracle: &[u8]) {
        let raw = fs::read(path).unwrap();
        assert!(raw.len() >= oracle.len(), "segment shorter than its records");
        let (records, tail) = raw.split_at(oracle.len());
        assert_eq!(records, oracle);
        assert!(tail.iter().all(|&b| b == 0), "only zeros may follow the records");
    }

    /// Zeroes the last `n` record bytes of the segment at `path` — what a
    /// torn overwrite leaves behind — and returns where its records ended.
    pub(crate) fn tear(path: &Path, n: usize) -> usize {
        let end = records_end(path).unwrap() as usize;
        let mut raw = fs::read(path).unwrap();
        raw[end - n..end].fill(0);
        fs::write(path, raw).unwrap();
        end
    }

    fn newest(dir: &Path) -> NewestSegment {
        recover_reporting(dir).unwrap().newest.unwrap()
    }

    /// The in-place append writes exactly the record bytes the copying
    /// encoder wrote, for every record kind, after the `03` magic
    /// and before the zero tail.
    #[test]
    fn append_is_byte_identical_to_the_copying_oracle() {
        let dir = scratch_dir("wal-oracle");
        let records = every_record_kind();
        let mut wal = Wal::create(&dir, 1, WalOptions::default()).unwrap();
        for record in &records {
            wal.append(record).unwrap();
        }
        wal.sync().unwrap();
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let oracle = oracle_segment(&records);
        assert_oracle_then_zeros(&path, &oracle);
        assert!(fs::metadata(&path).unwrap().len() > oracle.len() as u64, "no runway");
        assert_eq!(replay(&dir).unwrap(), records);
    }

    /// The end marker is sound only because no record header is all
    /// zeros: the CRC covers the length field, and CRC-32 of four zero
    /// bytes is not zero.
    #[test]
    fn a_zero_length_field_has_a_nonzero_crc() {
        assert_eq!(escape_wire::record::crc32(&[0; 4]), 0x2144_DF1C);
    }

    #[test]
    fn instruments_count_fsyncs_and_track_segments() {
        let dir = scratch_dir("wal-instruments");
        let registry = Registry::new();
        let labels = Labels::new().with("node", 1);
        let opts = WalOptions {
            segment_max_bytes: 64, // force rotation
            fsync: true,
        };
        let mut wal = Wal::create(&dir, 1, opts).unwrap();
        wal.instrument(WalInstruments::register(&registry, &labels));
        assert_eq!(registry.gauge_value("escape_wal_segments", &labels), Some(1));
        for term in 1..=10 {
            wal.append(&hard_state(term)).unwrap();
        }
        wal.sync().unwrap();
        assert!(wal.seq() > 1, "rotation must have happened");
        let synced = registry
            .histogram(
                "escape_wal_fsync_micros",
                &labels,
                &FSYNC_LATENCY_BOUNDS_MICROS,
            )
            .snapshot()
            .count;
        assert!(synced >= 1, "instrumented syncs must be observed");
        // Instruments survive rotation: the gauge reflects the new count.
        let segments = registry
            .gauge_value("escape_wal_segments", &labels)
            .unwrap();
        assert_eq!(segments, list_segments(&dir).unwrap().len() as u64);
        assert!(segments > 1);
    }

    #[test]
    fn append_sync_replay_round_trips() {
        let dir = scratch_dir("wal-roundtrip");
        let mut wal = Wal::create(&dir, 1, WalOptions::default()).unwrap();
        for term in 1..=5 {
            wal.append(&hard_state(term)).unwrap();
        }
        wal.sync().unwrap();
        let records = replay(&dir).unwrap();
        assert_eq!(records.len(), 5);
        assert_eq!(records[4], hard_state(5));
    }

    #[test]
    fn rotation_splits_segments_and_replay_spans_them() {
        let dir = scratch_dir("wal-rotate");
        let opts = WalOptions {
            segment_max_bytes: 64, // force frequent rotation
            fsync: false,
        };
        let mut wal = Wal::create(&dir, 1, opts).unwrap();
        for term in 1..=40 {
            wal.append(&hard_state(term)).unwrap();
        }
        wal.sync().unwrap();
        assert!(wal.seq() > 1, "rotation must have happened");
        assert!(list_segments(&dir).unwrap().len() > 1);
        let records = replay(&dir).unwrap();
        assert_eq!(records.len(), 40);
        assert_eq!(records[39], hard_state(40));
    }

    /// Group commit: appends sit in the user-space buffer (invisible to
    /// replay) until the `sync` barrier, and a crash before the barrier
    /// loses exactly the buffered suffix — never a synced record.
    #[test]
    fn buffered_appends_are_invisible_until_sync_and_lost_on_crash() {
        let dir = scratch_dir("wal-group-commit");
        let mut wal = Wal::create(&dir, 1, WalOptions::default()).unwrap();
        wal.append(&hard_state(1)).unwrap();
        wal.append(&hard_state(2)).unwrap();
        assert!(wal.buffered_bytes() > 0, "records must buffer, not write through");
        assert_eq!(
            replay(&dir).unwrap().len(),
            0,
            "unflushed records must not be readable"
        );
        wal.sync().unwrap();
        assert_eq!(wal.buffered_bytes(), 0);
        assert_eq!(replay(&dir).unwrap().len(), 2, "the barrier publishes the batch");

        // Buffer two more, then crash (drop without sync).
        wal.append(&hard_state(3)).unwrap();
        wal.append(&hard_state(4)).unwrap();
        drop(wal);
        let records = replay(&dir).unwrap();
        assert_eq!(
            records,
            vec![hard_state(1), hard_state(2)],
            "a crash loses exactly the unsynced suffix"
        );
    }

    #[test]
    fn torn_tail_stops_replay_cleanly() {
        let dir = scratch_dir("wal-torn");
        let mut wal = Wal::create(&dir, 1, WalOptions::default()).unwrap();
        for term in 1..=3 {
            wal.append(&hard_state(term)).unwrap();
        }
        wal.sync().unwrap();
        // Tear the last record: its final bytes never landed.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        tear(&path, 5);
        let records = replay(&dir).unwrap();
        assert_eq!(records.len(), 2, "intact prefix survives, torn record dropped");
    }

    #[test]
    fn open_append_continues_a_segment_across_generations() {
        let dir = scratch_dir("wal-open-append");
        {
            let mut wal = Wal::create(&dir, 1, WalOptions::default()).unwrap();
            for term in 1..=3 {
                wal.append(&hard_state(term)).unwrap();
            }
            wal.sync().unwrap();
        }
        {
            let mut wal = Wal::open_append(&dir, newest(&dir), WalOptions::default())
                .unwrap()
                .expect("under-cap segment is appendable");
            assert_eq!(wal.seq(), 1);
            for term in 4..=5 {
                wal.append(&hard_state(term)).unwrap();
            }
            wal.sync().unwrap();
        }
        assert_eq!(list_segments(&dir).unwrap().len(), 1, "no new segment");
        let records = replay(&dir).unwrap();
        assert_eq!(records.len(), 5);
        assert_eq!(records[4], hard_state(5));
    }

    #[test]
    fn open_append_refuses_over_cap_segments() {
        let dir = scratch_dir("wal-open-append-cap");
        let opts = WalOptions {
            segment_max_bytes: 64,
            fsync: false,
        };
        {
            let mut wal = Wal::create(&dir, 1, opts).unwrap();
            // Fill segment 1 past the cap without triggering rotation
            // (rotation happens on the append *after* crossing it).
            while wal.seq() == 1 {
                wal.append(&hard_state(1)).unwrap();
            }
            wal.sync().unwrap();
        }
        let first = NewestSegment {
            seq: 1,
            end: records_end(&segment_path(&dir, 1)).unwrap(),
        };
        assert!(
            Wal::open_append(&dir, first, opts).unwrap().is_none(),
            "an at/over-cap segment must rotate, not continue"
        );
    }

    /// Why the record CRC covers the header, end to end: corrupting a
    /// record's *length header* in the newest segment reads as a torn
    /// tail (stop + repairable), never as a silently misframed record
    /// stream.
    #[test]
    fn header_corruption_stops_replay_at_the_previous_record() {
        let dir = scratch_dir("wal-header-flip");
        let mut wal = Wal::create(&dir, 1, WalOptions::default()).unwrap();
        for term in 1..=3 {
            wal.append(&hard_state(term)).unwrap();
        }
        wal.sync().unwrap();
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let end = records_end(&path).unwrap() as usize;
        let mut raw = fs::read(&path).unwrap();
        // Locate the last record's length header by sizing an identical
        // record.
        let record_bytes = {
            let mut one = BytesMut::new();
            write_record(&mut one, &hard_state(3).to_bytes());
            one.len()
        };
        let header_pos = end - record_bytes;
        // Shrink the declared length so the corrupt record still frames
        // *inside* the segment — the misframe only a header-covering CRC
        // can catch (an oversized length reads as truncation either way).
        let payload_len = (record_bytes - 8) as u8;
        raw[header_pos] ^= payload_len; // declared length becomes 0
        fs::write(&path, raw).unwrap();
        let records = replay(&dir).unwrap();
        assert_eq!(
            records,
            vec![hard_state(1), hard_state(2)],
            "flip in a length header must cut replay at the previous record"
        );
    }

    #[test]
    fn segment_pruning_removes_only_older() {
        let dir = scratch_dir("wal-prune");
        let opts = WalOptions {
            segment_max_bytes: 64,
            fsync: false,
        };
        let mut wal = Wal::create(&dir, 1, opts).unwrap();
        for term in 1..=40 {
            wal.append(&hard_state(term)).unwrap();
        }
        let keep = wal.seq();
        wal.delete_segments_below(keep).unwrap();
        let left = list_segments(&dir).unwrap();
        assert!(left.iter().all(|(seq, _)| *seq >= keep));
        assert!(!left.is_empty());
    }

    /// A record of `len` payload bytes (an entry of that size, roughly).
    fn sized(index: u64, len: usize) -> WalRecord {
        use escape_core::log::{Entry, Payload};
        use escape_core::types::LogIndex;
        WalRecord::AppendEntry {
            entry: Entry {
                term: Term::new(1),
                index: LogIndex::new(index),
                payload: Payload::Command(Bytes::from(vec![0xA5; len])),
            },
        }
    }

    /// Once segments are prepared ahead, a barrier only overwrites: no
    /// zero-fill and no segment creation on the caller, across rotations.
    #[test]
    fn steady_state_barriers_neither_zero_fill_nor_create_files() {
        let dir = scratch_dir("wal-steady");
        let opts = WalOptions {
            segment_max_bytes: 128 * 1024,
            fsync: false,
        };
        let mut wal = Wal::create(&dir, 1, opts).unwrap();
        let mut index = 0;
        let mut barrier = |wal: &mut Wal| {
            index += 1;
            wal.append(&sized(index, 2000)).unwrap();
            wal.sync().unwrap();
        };
        // The first segment cannot afford to prepare its successor, which
        // starts with a runway; from the third segment on, every one was
        // prepared by a helper.
        while wal.seq() < 3 {
            barrier(&mut wal);
        }
        let fills = CALLER_FILLS.with(|fills| fills.get());
        while wal.seq() < 7 {
            barrier(&mut wal);
        }
        let after = CALLER_FILLS.with(|fills| fills.get());
        assert_eq!(after, fills, "a steady-state barrier filled on the caller");
        assert_eq!(list_segments(&dir).unwrap().len(), 7);
        drop(wal);
        assert_eq!(recover(&dir).unwrap().len(), index as usize);
    }

    /// The zero-fill budget holds after every barrier of every open:
    /// zero bytes written ≤ 2 × record bytes written + 64 KiB.
    #[test]
    fn zero_fill_stays_within_twice_the_records_plus_a_runway_per_open() {
        let dir = scratch_dir("wal-budget");
        let opts = WalOptions {
            segment_max_bytes: 256 * 1024,
            fsync: false,
        };
        let mut newest: Option<NewestSegment> = None;
        let mut index = 0u64;
        for open in 0..3 {
            let mut wal = match newest {
                None => Wal::create(&dir, 1, opts).unwrap(),
                Some(newest) => Wal::open_append(&dir, newest, opts)
                    .unwrap()
                    .unwrap_or_else(|| Wal::create(&dir, newest.seq + 1, opts).unwrap()),
            };
            assert!(wal.zero_bytes <= RUNWAY);
            for round in 0..200u64 {
                // Barriers of one to five records of up to 2 KB, in an
                // uneven cycle.
                for _ in 0..(round * 7 % 5 + 1) {
                    index += 1;
                    wal.append(&sized(index, (round * 2749 % 2000) as usize + 1))
                        .unwrap();
                }
                wal.sync().unwrap();
                assert!(
                    wal.zero_bytes <= 2 * wal.record_bytes + RUNWAY,
                    "open {open}, round {round}: {} zero bytes for {} record bytes",
                    wal.zero_bytes,
                    wal.record_bytes
                );
            }
            newest = Some(NewestSegment {
                seq: wal.seq(),
                end: wal.written,
            });
        }
        assert!(list_segments(&dir).unwrap().len() >= 6, "too few rotations to tell");
    }

    /// Nonzero bytes after the end marker of an older segment are not
    /// crash debris — later segments exist — so recovery refuses.
    #[test]
    fn debris_after_the_end_of_an_older_segment_is_refused() {
        let dir = scratch_dir("wal-old-debris");
        {
            let mut wal = Wal::create(&dir, 1, WalOptions::default()).unwrap();
            wal.append(&hard_state(1)).unwrap();
            wal.rotate().unwrap();
            wal.append(&hard_state(2)).unwrap();
            wal.sync().unwrap();
        }
        let path = segment_path(&dir, 1);
        let end = records_end(&path).unwrap() as usize;
        let mut raw = fs::read(&path).unwrap();
        raw[end + 100] = 0x5A;
        fs::write(&path, &raw).unwrap();
        let err = recover(&dir).expect_err("debris in an older segment must refuse");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(fs::read(&path).unwrap(), raw, "the segment must be left as it was");
    }
}
