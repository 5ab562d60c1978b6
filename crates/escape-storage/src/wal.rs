//! Append-only, CRC-framed, segment-rotated write-ahead log.
//!
//! On-disk layout inside a data directory:
//!
//! ```text
//! wal-0000000000000001.log      [8-byte magic "ESCWAL02"][record]...
//! wal-0000000000000002.log      (rotated when a segment passes the cap)
//! ```
//!
//! Each record is `[u32 LE len][u32 LE CRC-32][payload]`
//! ([`escape_wire::record`]), the CRC covering the length header as well
//! as the payload; payloads are [`WalRecord`] encodings. A segment whose
//! header names another format version (`ESCWAL` plus anything but `02`)
//! is refused with [`io::ErrorKind::InvalidData`] and left on disk: it
//! is data this build cannot read, not crash debris.
//!
//! Readers replay segments in sequence order and treat the first framing
//! or checksum violation as the end of usable log (a torn tail write from
//! the crash the WAL exists to survive). On the open path, [`recover`]
//! **repairs** that torn tail by truncating the newest segment back to
//! its intact prefix — which is also what makes it safe for reopening to
//! *continue* the last segment ([`Wal::open_append`]) instead of always
//! starting a fresh one: after repair the segment ends on a record
//! boundary, so appending can never bury a tear behind valid records.
//!
//! # Group commit
//!
//! Appends are **deferred-sync**: [`Wal::append`] and
//! [`Wal::append_many`] encode records into a user-space buffer and the
//! [`Wal::sync`] barrier writes the whole buffer with one `write` and
//! makes it durable with one `fdatasync` — so a batch of N records costs
//! one syscall pair instead of N, and the engine's
//! write-before-send invariant is carried entirely by the barrier:
//! nothing buffered may be treated as durable (or acked) until `sync`
//! returns. A crash between append and sync loses exactly the buffered
//! suffix — records no message was ever allowed to reference.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use escape_obs::{Gauge, Histogram, Labels, Registry};
use escape_wire::record::{read_record, write_record, DEFAULT_MAX_RECORD};

use crate::record::WalRecord;

/// Magic bytes opening every WAL segment (name + format version 2:
/// record CRCs cover the length header too).
pub const SEGMENT_MAGIC: &[u8; 8] = b"ESCWAL02";

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
    /// Rotate to a fresh segment once the active one passes this size.
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

/// All WAL segments in `dir`, sorted by sequence number.
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

/// One segment's parse result: the records of its intact prefix, plus
/// where (in file bytes) that prefix ends if the tail is torn.
struct SegmentScan {
    records: Vec<WalRecord>,
    /// `Some(offset)` when a framing/CRC violation cut the scan short;
    /// `offset` is the file position right after the last intact record.
    torn_at: Option<u64>,
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
                torn_at: None,
                headerless: true,
            })
        }
    }
    let total = raw.len();
    let mut bytes = Bytes::from(raw).slice(SEGMENT_MAGIC.len()..);
    let mut records = Vec::new();
    let mut torn_at = None;
    loop {
        let good = (total - bytes.len()) as u64;
        match read_record(&mut bytes, DEFAULT_MAX_RECORD) {
            Ok(Some(mut payload)) => match WalRecord::decode(&mut payload) {
                Ok(record) => records.push(record),
                Err(_) => {
                    torn_at = Some(good);
                    break;
                }
            },
            Ok(None) => break,
            Err(_) => {
                torn_at = Some(good);
                break;
            }
        }
    }
    Ok(SegmentScan {
        records,
        torn_at,
        headerless: false,
    })
}

/// Replays every intact record in `dir`'s segments, in write order,
/// **read-only**: the scan stops at the first framing/CRC violation and
/// ignores any later segment. Use [`recover`] on the open path — it
/// repairs the torn tail so later segments stay reachable on the *next*
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
        if scan.headerless || scan.torn_at.is_some() {
            break;
        }
    }
    Ok(records)
}

/// Replays `dir`'s segments like [`replay`], and **repairs** crash
/// damage so it cannot compound:
///
/// * A torn record (or missing header) in the **newest** segment is the
///   tail write of the crash being recovered from — never synced, never
///   acked. The segment is truncated back to its intact prefix (or
///   removed, if headerless), so a later open replays straight through
///   into any segments written after this recovery. Without the repair,
///   the *next* restart would stop at the tear and silently forget every
///   newer segment — including fsync'd, acked votes.
/// * Damage in an **older** segment is not a crash artifact (later
///   segments were written by a process that had read past this point):
///   it is real corruption, and recovering around it would apply newer
///   records over a gap. That is refused outright.
/// * A segment of another format version (in any position) is refused
///   too, and left as it is.
///
/// # Errors
///
/// I/O failures, or [`io::ErrorKind::InvalidData`] for mid-log
/// corruption or a foreign format version, as described above.
pub fn recover(dir: &Path) -> io::Result<Vec<WalRecord>> {
    recover_reporting(dir).map(|(records, _)| records)
}

/// [`recover`], additionally reporting how many bytes the tail repair
/// dropped (0 when the log was clean). Callers with an observer turn a
/// non-zero count into a `wal_tail_truncated` event.
///
/// # Errors
///
/// As [`recover`].
pub fn recover_reporting(dir: &Path) -> io::Result<(Vec<WalRecord>, u64)> {
    let segments = list_segments(dir)?;
    let last = segments.len().saturating_sub(1);
    let mut records = Vec::new();
    let mut lost_bytes = 0u64;
    for (i, (seq, path)) in segments.into_iter().enumerate() {
        let raw = fs::read(&path)?;
        let raw_len = raw.len() as u64;
        let scan = scan_segment(&path, raw)?;
        let damaged = scan.headerless || scan.torn_at.is_some();
        if damaged && i != last {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "WAL segment {seq} is corrupt mid-log (later segments exist); \
                     refusing to recover over the gap"
                ),
            ));
        }
        records.extend(scan.records);
        if scan.headerless {
            // A crash inside segment creation: no header ever landed.
            lost_bytes += raw_len;
            fs::remove_file(&path)?;
            sync_dir(dir);
        } else if let Some(offset) = scan.torn_at {
            lost_bytes += raw_len.saturating_sub(offset);
            let file = OpenOptions::new().write(true).open(&path)?;
            file.set_len(offset)?;
            file.sync_all()?;
        }
    }
    Ok((records, lost_bytes))
}

/// The active write-ahead log: an open segment plus rotation bookkeeping
/// and the group-commit buffer.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    options: WalOptions,
    file: File,
    seq: u64,
    /// Bytes in the active segment, counting the not-yet-flushed buffer.
    written: u64,
    /// Encoded-but-unflushed records (the group-commit window). Written
    /// to the file by [`Wal::flush`] / [`Wal::sync`]; discarded by a
    /// crash — which is exactly the durability contract, since nothing
    /// in it was synced or acked.
    buffer: BytesMut,
    /// Observability hooks; `None` keeps the sync path untouched.
    instruments: Option<WalInstruments>,
}

impl Wal {
    /// Opens a *fresh* segment with sequence `seq` in `dir`.
    ///
    /// # Errors
    ///
    /// I/O errors creating the segment file.
    pub fn create(dir: &Path, seq: u64, options: WalOptions) -> io::Result<Wal> {
        let path = segment_path(dir, seq);
        let mut file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&path)?;
        file.write_all(SEGMENT_MAGIC)?;
        if options.fsync {
            file.sync_data()?;
        }
        sync_dir(dir);
        Ok(Wal {
            dir: dir.to_path_buf(),
            options,
            file,
            seq,
            written: SEGMENT_MAGIC.len() as u64,
            buffer: BytesMut::new(),
            instruments: None,
        })
    }

    /// Reopens the **existing** segment `seq` for appending — the
    /// post-recovery continue path that stops the one-segment-per-restart
    /// growth. Callers must have run [`recover`] first (it truncates any
    /// torn tail, so the file ends on a record boundary).
    ///
    /// Returns `Ok(None)` when the segment is already at/over the
    /// rotation cap; the caller falls back to [`Wal::create`]. The whole
    /// appendability rule lives here so no caller can open a segment the
    /// rule would rotate.
    ///
    /// # Errors
    ///
    /// I/O errors probing or opening the file, or
    /// [`io::ErrorKind::InvalidData`] when it does not start with
    /// [`SEGMENT_MAGIC`] (which [`recover`] rules out).
    pub fn open_append(dir: &Path, seq: u64, options: WalOptions) -> io::Result<Option<Wal>> {
        use std::io::Read;
        let path = segment_path(dir, seq);
        // Only the magic and the length are needed — not the contents
        // (recovery already replayed them).
        let mut probe = File::open(&path)?;
        let written = probe.metadata()?.len();
        if written >= options.segment_max_bytes {
            return Ok(None);
        }
        let mut magic = [0u8; SEGMENT_MAGIC.len()];
        probe.read_exact(&mut magic)?;
        if &magic != SEGMENT_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} is not an ESCWAL02 segment", path.display()),
            ));
        }
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok(Some(Wal {
            dir: dir.to_path_buf(),
            options,
            file,
            seq,
            written,
            buffer: BytesMut::new(),
            instruments: None,
        }))
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
    /// # Errors
    ///
    /// I/O errors from a rotation's flush.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        if self.written >= self.options.segment_max_bytes {
            self.rotate()?;
        }
        let before = self.buffer.len();
        write_record(&mut self.buffer, &record.to_bytes());
        self.written += (self.buffer.len() - before) as u64;
        Ok(())
    }

    /// Appends a whole batch of records into the group-commit buffer —
    /// the [`Wal::append`] loop without per-record call overhead; one
    /// [`Wal::sync`] then covers the entire batch.
    ///
    /// # Errors
    ///
    /// As [`Wal::append`].
    pub fn append_many(&mut self, records: &[WalRecord]) -> io::Result<()> {
        for record in records {
            self.append(record)?;
        }
        Ok(())
    }

    /// Bytes sitting in the group-commit buffer, not yet flushed to the
    /// segment file (diagnostics/tests).
    pub fn buffered_bytes(&self) -> usize {
        self.buffer.len()
    }

    /// Writes the group-commit buffer to the segment file (one `write`
    /// syscall), **without** forcing it to stable storage — crash
    /// durability still requires [`Wal::sync`].
    ///
    /// # Errors
    ///
    /// I/O errors from the write.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.buffer.is_empty() {
            self.file.write_all(&self.buffer)?;
            self.buffer.clear();
        }
        Ok(())
    }

    /// Closes the active segment (flushed + synced) and opens the next
    /// one.
    ///
    /// # Errors
    ///
    /// I/O errors syncing the old segment or creating the new one.
    pub fn rotate(&mut self) -> io::Result<()> {
        self.sync()?;
        let mut next = Wal::create(&self.dir, self.seq + 1, self.options)?;
        next.instruments = self.instruments.take();
        next.update_segment_gauge();
        *self = next;
        Ok(())
    }

    /// The group-commit barrier: flushes the buffer and makes everything
    /// appended so far durable (one `write` + one `fdatasync`, however
    /// many records accumulated since the previous barrier).
    ///
    /// # Errors
    ///
    /// I/O errors from the flush or the sync.
    pub fn sync(&mut self) -> io::Result<()> {
        self.flush()?;
        if self.options.fsync {
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
        }
        Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::scratch_dir;
    use escape_core::types::{ServerId, Term};

    fn hard_state(term: u64) -> WalRecord {
        WalRecord::HardState {
            term: Term::new(term),
            voted_for: Some(ServerId::new(1)),
        }
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
        wal.append_many(&[hard_state(1), hard_state(2)]).unwrap();
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
        wal.append_many(&[hard_state(3), hard_state(4)]).unwrap();
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
        // Tear the last record by chopping bytes off the segment.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let raw = fs::read(&path).unwrap();
        fs::write(&path, &raw[..raw.len() - 5]).unwrap();
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
            let mut wal = Wal::open_append(&dir, 1, WalOptions::default())
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
        assert!(
            Wal::open_append(&dir, 1, opts).unwrap().is_none(),
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
        let mut raw = fs::read(&path).unwrap();
        // Locate the last record's length header by sizing an identical
        // record.
        let record_bytes = {
            let mut one = BytesMut::new();
            write_record(&mut one, &hard_state(3).to_bytes());
            one.len()
        };
        let header_pos = raw.len() - record_bytes; // first length byte
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
}
