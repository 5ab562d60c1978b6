//! [`WalStorage`]: the [`Storage`] implementation backed by the WAL and
//! snapshot files, plus the boot-time recovery that turns a data
//! directory back into a [`RecoveredState`].

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use bytes::Bytes;

use escape_core::config::Configuration;
use escape_core::log::Entry;
use escape_core::storage::{RecoveredState, Storage};
use escape_core::types::{LogIndex, ServerId, Term};

use crate::record::WalRecord;
use crate::snapshot;
use crate::wal::{self, Wal, WalOptions};

/// How many snapshot generations [`WalStorage`] retains (the newest plus
/// one fallback for a torn newest write).
pub const SNAPSHOTS_KEPT: usize = 2;

/// Durable node storage rooted at one data directory.
///
/// # Examples
///
/// ```no_run
/// use escape_core::engine::Node;
/// use escape_core::policy::EscapePolicy;
/// use escape_core::config::EscapeParams;
/// use escape_core::types::ServerId;
/// use escape_storage::WalStorage;
///
/// let (storage, recovered) = WalStorage::open("/var/lib/escape/node-1")?;
/// let ids: Vec<ServerId> = (1..=3).map(ServerId::new).collect();
/// let node = Node::builder(ids[0], ids.clone())
///     .policy(Box::new(EscapePolicy::new(ids[0], EscapeParams::paper_defaults(3))))
///     .storage(Box::new(storage))
///     .recover(recovered)
///     .build();
/// # std::io::Result::Ok(())
/// ```
#[derive(Debug)]
pub struct WalStorage {
    dir: PathBuf,
    wal: Wal,
}

impl WalStorage {
    /// Opens (creating if needed) the data directory, recovers the
    /// persistent state it holds, and continues the newest WAL segment
    /// (or starts a fresh one) for new records.
    ///
    /// # Errors
    ///
    /// I/O errors, or [`io::ErrorKind::InvalidData`] when the WAL is
    /// compacted below an index no intact snapshot file covers (state
    /// below that point is unrecoverable and the node must not limp on).
    pub fn open(dir: impl AsRef<Path>) -> io::Result<(WalStorage, RecoveredState)> {
        Self::open_with(dir, WalOptions::default())
    }

    /// [`WalStorage::open`] with explicit WAL tuning.
    ///
    /// # Errors
    ///
    /// As [`WalStorage::open`].
    pub fn open_with(
        dir: impl AsRef<Path>,
        options: WalOptions,
    ) -> io::Result<(WalStorage, RecoveredState)> {
        Self::open_observed(dir, options, &escape_obs::NullObserver, 0)
    }

    /// [`WalStorage::open_with`] that reports recovery repairs: torn WAL
    /// debris zeroed during recovery emits a
    /// [`WalTailTruncated`](escape_obs::Event::WalTailTruncated) event at
    /// `at_micros` on the caller's clock. Failures must be *observable* —
    /// a silent repair is indistinguishable from silent data loss.
    ///
    /// # Errors
    ///
    /// As [`WalStorage::open`].
    pub fn open_observed(
        dir: impl AsRef<Path>,
        options: WalOptions,
        observer: &dyn escape_obs::Observer,
        at_micros: u64,
    ) -> io::Result<(WalStorage, RecoveredState)> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;

        let snapshot = snapshot::load_latest(&dir)?;
        // `recover` (not `replay`): it zeroes the crash's debris so
        // segments written after this recovery stay reachable on every
        // future open.
        let recovery = wal::recover_reporting(&dir)?;
        let lost_bytes = recovery.lost_bytes;
        if lost_bytes > 0 && observer.enabled() {
            observer.record(at_micros, escape_obs::Event::WalTailTruncated { lost_bytes });
        }
        let state = rebuild(snapshot, recovery.records)?;

        // Continue the last segment at its end marker while it is under
        // the rotation cap — recovery just zeroed any debris after it,
        // so the next record cannot bury a tear. (Restarts used to always
        // open a fresh segment, growing the directory by one file per
        // restart until the next snapshot.) An over-cap last segment gets
        // a fresh one instead.
        let wal = match recovery.newest {
            Some(newest) => match Wal::open_append(&dir, newest, options)? {
                Some(wal) => wal,
                None => Wal::create(&dir, newest.seq + 1, options)?,
            },
            None => Wal::create(&dir, 1, options)?,
        };
        Ok((WalStorage { dir, wal }, state))
    }

    /// The data directory this storage writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Attaches observability instruments to the underlying WAL (fsync
    /// latency, live segment count). See
    /// [`WalInstruments::register`](crate::wal::WalInstruments::register).
    pub fn instrument(&mut self, instruments: crate::wal::WalInstruments) {
        self.wal.instrument(instruments);
    }
}


/// Folds a recovered snapshot and the WAL record sequence back into the
/// engine's persistent state, using the same `Log` operations that
/// produced the records.
fn rebuild(
    snapshot: Option<escape_core::storage::RecoveredSnapshot>,
    records: Vec<WalRecord>,
) -> io::Result<RecoveredState> {
    let mut state = RecoveredState::default();
    if let Some(snap) = &snapshot {
        state.log.reset_to_snapshot(snap.index, snap.term);
    }
    for record in records {
        match record {
            WalRecord::HardState { term, voted_for } => {
                state.term = term;
                state.voted_for = voted_for;
            }
            WalRecord::AppendEntry { entry } => {
                let next = state.log.last_index().next();
                if entry.index == next {
                    state.log.append_new(entry.term, entry.payload);
                } else if entry.index > next {
                    // A gap means the records between were lost: nothing
                    // after this point can be applied safely.
                    break;
                }
                // entry.index < next: already covered by the snapshot (a
                // pre-compaction record that survived an interrupted
                // segment cleanup) — skip.
            }
            WalRecord::AppendSlice {
                prev_index,
                prev_term,
                entries,
            } => {
                // Identical code path to the live mutation; a mismatch can
                // only come from stale pre-snapshot leftovers, which the
                // snapshot already covers.
                let _ = state.log.try_append(prev_index, prev_term, &entries);
            }
            WalRecord::Config { config } => state.config = Some(config),
            WalRecord::SnapshotMarker { index, term } => {
                if index > state.log.snapshot_index() {
                    state.log.reset_to_snapshot(index, term);
                }
            }
        }
    }
    state.snapshot = snapshot;

    // The log must not be compacted below what the snapshot data can
    // rebuild — otherwise applied state between the two is gone.
    let covered = state.snapshot.as_ref().map_or(LogIndex::ZERO, |s| s.index);
    if state.log.snapshot_index() > covered {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "WAL compacted to {} but newest intact snapshot covers only {covered}",
                state.log.snapshot_index()
            ),
        ));
    }
    Ok(state)
}

impl Storage for WalStorage {
    fn persist_hard_state(&mut self, term: Term, voted_for: Option<ServerId>) -> io::Result<()> {
        self.wal.append(&WalRecord::HardState { term, voted_for })
    }

    fn persist_entry(&mut self, entry: &Entry) -> io::Result<()> {
        self.wal
            .append_with(|buf| WalRecord::encode_append_entry(entry, buf))
    }

    /// Group commit: the whole batch is encoded, from the borrowed
    /// entries, into the WAL's buffer in one go, and the engine's single
    /// post-batch [`Storage::sync`] makes it durable with one `write` +
    /// one `fdatasync`.
    fn persist_entries(&mut self, entries: &[Entry]) -> io::Result<()> {
        for entry in entries {
            self.persist_entry(entry)?;
        }
        Ok(())
    }

    fn persist_appended(
        &mut self,
        prev_index: LogIndex,
        prev_term: Term,
        entries: &[Entry],
    ) -> io::Result<()> {
        self.wal.append_with(|buf| {
            WalRecord::encode_append_slice(prev_index, prev_term, entries, buf)
        })
    }

    fn persist_config(&mut self, config: Configuration) -> io::Result<()> {
        self.wal.append(&WalRecord::Config { config })
    }

    /// Snapshot sequence: durable snapshot file first, then a fresh WAL
    /// segment opening with the marker and a re-log of the retained tail
    /// (the old segments were its only durable copy), and only then are
    /// the now-redundant older segments and snapshots pruned. A crash
    /// between any two steps recovers correctly (the file is found by
    /// scan; leftover segments replay as covered records).
    fn persist_snapshot(
        &mut self,
        index: LogIndex,
        term: Term,
        data: &Bytes,
        tail: &[Entry],
    ) -> io::Result<()> {
        snapshot::write(&self.dir, index, term, data)?;
        self.wal.rotate()?;
        self.wal.append(&WalRecord::SnapshotMarker { index, term })?;
        if !tail.is_empty() {
            self.persist_appended(index, term, tail)?;
        }
        self.wal.sync()?;
        let keep_from = self.wal.seq();
        self.wal.delete_segments_below(keep_from)?;
        snapshot::prune(&self.dir, SNAPSHOTS_KEPT)?;
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.wal.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::scratch_dir;
    use escape_core::log::Payload;
    use escape_core::time::Duration;
    use escape_core::types::{ConfClock, Priority};

    fn entry(term: u64, index: u64, payload: &'static [u8]) -> Entry {
        Entry {
            term: Term::new(term),
            index: LogIndex::new(index),
            payload: Payload::Command(Bytes::from_static(payload)),
        }
    }

    /// The storage encodes from borrowed entries; the segment must hold
    /// exactly what appending the equivalent owned records writes.
    #[test]
    fn borrowed_entry_paths_write_the_oracle_bytes() {
        let dir = scratch_dir("store-oracle");
        let batch: Vec<Entry> = (1..=128u64)
            .map(|i| Entry {
                term: Term::new(2),
                index: LogIndex::new(i),
                payload: Payload::Command(Bytes::from(vec![i as u8; 250])),
            })
            .collect();
        {
            let (mut storage, _) = WalStorage::open(&dir).unwrap();
            storage.persist_entry(&batch[0]).unwrap();
            storage.persist_entries(&batch[1..4]).unwrap();
            storage
                .persist_appended(LogIndex::ZERO, Term::ZERO, &batch)
                .unwrap();
            storage.sync().unwrap();
        }
        let mut expected: Vec<WalRecord> = batch[..4]
            .iter()
            .map(|entry| WalRecord::AppendEntry {
                entry: entry.clone(),
            })
            .collect();
        expected.push(WalRecord::AppendSlice {
            prev_index: LogIndex::ZERO,
            prev_term: Term::ZERO,
            entries: batch.clone(),
        });
        let (_, path) = wal::list_segments(&dir).unwrap().pop().unwrap();
        wal::tests::assert_oracle_then_zeros(&path, &wal::tests::oracle_segment(&expected));
    }

    #[test]
    fn fresh_directory_recovers_empty() {
        let dir = scratch_dir("store-fresh");
        let (_storage, state) = WalStorage::open(&dir).unwrap();
        assert!(state.is_empty());
    }

    #[test]
    fn hard_state_and_entries_survive_reopen() {
        let dir = scratch_dir("store-reopen");
        {
            let (mut storage, _) = WalStorage::open(&dir).unwrap();
            storage
                .persist_hard_state(Term::new(5), Some(ServerId::new(2)))
                .unwrap();
            storage.persist_entry(&entry(5, 1, b"a")).unwrap();
            storage.persist_entry(&entry(5, 2, b"b")).unwrap();
            storage
                .persist_config(Configuration::new(
                    Duration::from_millis(1500),
                    Priority::new(4),
                    ConfClock::new(7),
                ))
                .unwrap();
            storage.sync().unwrap();
            // No graceful close: dropping mid-stream models the crash.
        }
        let (_, state) = WalStorage::open(&dir).unwrap();
        assert_eq!(state.term, Term::new(5));
        assert_eq!(state.voted_for, Some(ServerId::new(2)));
        assert_eq!(state.log.last_index(), LogIndex::new(2));
        assert_eq!(state.config.unwrap().conf_clock, ConfClock::new(7));
    }

    #[test]
    fn follower_truncation_replays_exactly() {
        let dir = scratch_dir("store-truncate");
        {
            let (mut storage, _) = WalStorage::open(&dir).unwrap();
            storage
                .persist_appended(
                    LogIndex::ZERO,
                    Term::ZERO,
                    &[entry(1, 1, b"a"), entry(1, 2, b"b"), entry(1, 3, b"c")],
                )
                .unwrap();
            // A new leader overwrites indexes 2..3 with a single entry.
            storage
                .persist_appended(LogIndex::new(1), Term::new(1), &[entry(2, 2, b"B")])
                .unwrap();
            storage.sync().unwrap();
        }
        let (_, state) = WalStorage::open(&dir).unwrap();
        assert_eq!(state.log.last_index(), LogIndex::new(2));
        assert_eq!(state.log.term_at(LogIndex::new(2)), Some(Term::new(2)));
    }

    #[test]
    fn snapshot_compacts_wal_and_recovers_through_it() {
        let dir = scratch_dir("store-snapshot");
        {
            let (mut storage, _) = WalStorage::open(&dir).unwrap();
            for i in 1..=6u64 {
                storage.persist_entry(&entry(1, i, b"cmd")).unwrap();
            }
            // The engine compacts to 4 and hands over the retained tail
            // (entries 5..=6), which the WAL must re-log before pruning.
            storage
                .persist_snapshot(
                    LogIndex::new(4),
                    Term::new(1),
                    &Bytes::from_static(b"state@4"),
                    &[entry(1, 5, b"cmd"), entry(1, 6, b"cmd")],
                )
                .unwrap();
            // Post-snapshot traffic lands in the fresh segment.
            storage.persist_entry(&entry(1, 7, b"late")).unwrap();
            storage.sync().unwrap();
            assert_eq!(
                wal::list_segments(&dir).unwrap().len(),
                1,
                "pre-snapshot segments must be pruned"
            );
        }
        let (_, state) = WalStorage::open(&dir).unwrap();
        let snap = state.snapshot.as_ref().expect("snapshot recovered");
        assert_eq!(snap.index, LogIndex::new(4));
        assert_eq!(snap.data.as_ref(), b"state@4");
        assert_eq!(state.log.snapshot_index(), LogIndex::new(4));
        assert_eq!(state.log.last_index(), LogIndex::new(7));
        // The re-logged tail (5, 6) and the post-snapshot entry (7) are
        // all physically present for replication/apply.
        for i in 5..=7 {
            assert!(state.log.entry(LogIndex::new(i)).is_some(), "entry {i} lost");
        }
    }

    /// The segment-growth satellite: restarts no longer open a fresh
    /// segment each time — the last one is continued while it is below
    /// the rotation cap, so segment count stays flat across restarts.
    #[test]
    fn reopen_appends_to_last_segment_instead_of_growing() {
        let dir = scratch_dir("store-append-reopen");
        for generation in 1..=5u64 {
            let (mut storage, state) = WalStorage::open(&dir).unwrap();
            assert_eq!(state.term, Term::new(generation - 1), "prior state recovered");
            storage
                .persist_hard_state(Term::new(generation), Some(ServerId::new(1)))
                .unwrap();
            storage.sync().unwrap();
        }
        assert_eq!(
            wal::list_segments(&dir).unwrap().len(),
            1,
            "five restarts must not grow the segment count"
        );
        let (_, state) = WalStorage::open(&dir).unwrap();
        assert_eq!(state.term, Term::new(5));
    }

    /// Reopening over the cap still rotates: append-on-reopen must not
    /// defeat segment rotation.
    #[test]
    fn reopen_rotates_once_the_segment_is_over_the_cap() {
        let dir = scratch_dir("store-append-cap");
        let opts = WalOptions {
            segment_max_bytes: 64,
            fsync: false,
        };
        {
            let (mut storage, _) = WalStorage::open_with(&dir, opts).unwrap();
            for term in 1..=10u64 {
                storage
                    .persist_hard_state(Term::new(term), Some(ServerId::new(1)))
                    .unwrap();
            }
            storage.sync().unwrap();
        }
        let before = wal::list_segments(&dir).unwrap().len();
        let (_, state) = WalStorage::open_with(&dir, opts).unwrap();
        assert_eq!(state.term, Term::new(10));
        let after = wal::list_segments(&dir).unwrap().len();
        assert_eq!(
            after,
            before + 1,
            "an over-cap last segment must rotate on reopen"
        );
    }

    /// A reopen after a torn tail continues the repaired segment — the
    /// repair zeroes everything after the last intact record, so the
    /// next record cannot bury the tear.
    #[test]
    fn reopen_after_torn_tail_repairs_then_appends_in_place() {
        let dir = scratch_dir("store-append-torn");
        {
            let (mut storage, _) = WalStorage::open(&dir).unwrap();
            storage
                .persist_hard_state(Term::new(3), Some(ServerId::new(1)))
                .unwrap();
            storage.sync().unwrap();
            storage
                .persist_hard_state(Term::new(4), Some(ServerId::new(1)))
                .unwrap();
            storage.sync().unwrap();
        }
        let (_, path) = wal::list_segments(&dir).unwrap().pop().unwrap();
        wal::tests::tear(&path, 3);
        {
            let (mut storage, state) = WalStorage::open(&dir).unwrap();
            assert_eq!(state.term, Term::new(3), "torn record dropped");
            storage
                .persist_hard_state(Term::new(9), Some(ServerId::new(2)))
                .unwrap();
            storage.sync().unwrap();
        }
        assert_eq!(wal::list_segments(&dir).unwrap().len(), 1);
        let (_, state) = WalStorage::open(&dir).unwrap();
        assert_eq!(state.term, Term::new(9));
        assert_eq!(state.voted_for, Some(ServerId::new(2)));
    }

    /// A segment written in another WAL format version is data this
    /// build cannot read, not crash debris: the open must refuse it and
    /// leave the file as it was, not delete it and come up empty.
    fn assert_foreign_segment_is_refused_and_kept(magic: &[u8; 8], label: &str) {
        let dir = scratch_dir(label);
        // One record in the `ESCWAL01` framing: CRC over the payload only.
        let payload = WalRecord::HardState {
            term: Term::new(7),
            voted_for: Some(ServerId::new(3)),
        }
        .to_bytes();
        let mut content = magic.to_vec();
        content.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        content.extend_from_slice(&escape_wire::crc32(&payload).to_le_bytes());
        content.extend_from_slice(&payload);
        let path = dir.join(format!("wal-{:016}.log", 1));
        fs::write(&path, &content).unwrap();

        let err = WalStorage::open(&dir).expect_err("a foreign segment must refuse to open");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let magic = String::from_utf8_lossy(magic);
        assert!(err.to_string().contains(&*magic), "{err}");
        assert_eq!(fs::read(&path).unwrap(), content, "the segment must be kept");
        assert_eq!(wal::list_segments(&dir).unwrap().len(), 1);
    }

    #[test]
    fn escwal01_segment_is_refused_and_kept() {
        assert_foreign_segment_is_refused_and_kept(b"ESCWAL01", "store-escwal01");
    }

    #[test]
    fn escwal02_segment_is_refused_and_kept() {
        assert_foreign_segment_is_refused_and_kept(b"ESCWAL02", "store-escwal02");
    }

    #[test]
    fn newer_segment_version_is_refused_and_kept() {
        assert_foreign_segment_is_refused_and_kept(b"ESCWAL09", "store-escwal09");
    }

    /// The group-commit crash window: a node killed **between** the
    /// buffered append and the `sync` barrier must come back with the
    /// synced prefix intact (nothing acked is lost) and without the
    /// buffered suffix (which no ack or message ever referenced) — in
    /// particular, a buffered-but-unsynced vote must vanish rather than
    /// half-apply, so the node cannot be tricked into a double vote.
    #[test]
    fn crash_between_buffered_append_and_sync_loses_only_unacked_records() {
        let dir = scratch_dir("store-group-commit-crash");
        {
            let (mut storage, _) = WalStorage::open(&dir).unwrap();
            // Acked prefix: vote + one entry, covered by a sync barrier
            // (the engine only sends messages after this returns).
            storage
                .persist_hard_state(Term::new(5), Some(ServerId::new(2)))
                .unwrap();
            storage.persist_entry(&entry(5, 1, b"acked")).unwrap();
            storage.sync().unwrap();
            // Unacked suffix: a batch plus a newer vote, buffered but
            // never synced — the kill lands here.
            storage
                .persist_entries(&[entry(5, 2, b"buffered-a"), entry(5, 3, b"buffered-b")])
                .unwrap();
            storage
                .persist_hard_state(Term::new(9), Some(ServerId::new(3)))
                .unwrap();
            // Crash: dropped with the buffer full.
        }
        let (_, state) = WalStorage::open(&dir).unwrap();
        assert_eq!(state.term, Term::new(5), "synced vote survives");
        assert_eq!(state.voted_for, Some(ServerId::new(2)));
        assert_eq!(
            state.log.last_index(),
            LogIndex::new(1),
            "synced entry survives; buffered batch is gone whole"
        );
        // The buffered term-9 vote is gone *entirely* — the node restarts
        // on the acked vote, so no grant it ever sent can be contradicted.
        assert_ne!(state.term, Term::new(9));
    }

    #[test]
    fn torn_tail_record_is_dropped_on_recovery() {
        let dir = scratch_dir("store-torn");
        {
            let (mut storage, _) = WalStorage::open(&dir).unwrap();
            storage
                .persist_hard_state(Term::new(3), Some(ServerId::new(1)))
                .unwrap();
            storage
                .persist_hard_state(Term::new(9), Some(ServerId::new(2)))
                .unwrap();
            storage.sync().unwrap();
        }
        // Tear into the last record.
        let (_, path) = wal::list_segments(&dir).unwrap().pop().unwrap();
        wal::tests::tear(&path, 3);
        let (_, state) = WalStorage::open(&dir).unwrap();
        assert_eq!(state.term, Term::new(3), "only the intact prefix replays");
    }

    /// The compounding-tear case: a torn segment must be repaired at
    /// open, or the *next* restart stops at the old tear and silently
    /// forgets every record written after the first recovery — including
    /// an fsync'd, acked vote (an Election Safety violation).
    #[test]
    fn torn_segment_is_repaired_so_later_segments_survive_a_second_restart() {
        let dir = scratch_dir("store-torn-twice");
        {
            let (mut storage, _) = WalStorage::open(&dir).unwrap();
            storage
                .persist_hard_state(Term::new(3), Some(ServerId::new(1)))
                .unwrap();
            storage.sync().unwrap();
            storage
                .persist_hard_state(Term::new(4), Some(ServerId::new(1)))
                .unwrap();
            storage.sync().unwrap();
        }
        // Crash #1 tears the tail of the first segment.
        let (_, path) = wal::list_segments(&dir).unwrap().pop().unwrap();
        wal::tests::tear(&path, 3);

        // Reboot #1 recovers the intact prefix and then persists (and
        // acks) a vote in term 9, which lands in a *newer* segment.
        {
            let (mut storage, state) = WalStorage::open(&dir).unwrap();
            assert_eq!(state.term, Term::new(3));
            storage
                .persist_hard_state(Term::new(9), Some(ServerId::new(2)))
                .unwrap();
            storage.sync().unwrap();
        }

        // Reboot #2 must see the term-9 vote: the tear from crash #1 was
        // repaired, so replay runs straight through into the new segment.
        let (_, state) = WalStorage::open(&dir).unwrap();
        assert_eq!(state.term, Term::new(9), "acked vote forgotten after clean restart");
        assert_eq!(state.voted_for, Some(ServerId::new(2)));
    }

    /// Corruption in a non-newest segment is not a crash artifact —
    /// recovering around it would apply later records over a gap, so the
    /// open must refuse instead of limping on with silently-wrong state.
    #[test]
    fn mid_log_corruption_with_later_segments_refuses_to_open() {
        let dir = scratch_dir("store-midlog");
        {
            // A tiny rotation cap forces multiple segments (reopen alone
            // no longer creates one — it appends to the last segment).
            let opts = WalOptions {
                segment_max_bytes: 64,
                fsync: false,
            };
            let (mut storage, _) = WalStorage::open_with(&dir, opts).unwrap();
            for term in 1..=10u64 {
                storage
                    .persist_hard_state(Term::new(term), Some(ServerId::new(1)))
                    .unwrap();
            }
            storage.sync().unwrap();
        }
        assert!(
            wal::list_segments(&dir).unwrap().len() >= 2,
            "test needs at least two segments"
        );
        // Bit rot in the *first* segment, which a past open had already
        // read in full.
        let (_, first) = wal::list_segments(&dir).unwrap().remove(0);
        let mut raw = fs::read(&first).unwrap();
        let mid = raw.len() - 2;
        raw[mid] ^= 0xFF;
        fs::write(&first, raw).unwrap();
        let err = WalStorage::open(&dir).expect_err("mid-log corruption must refuse");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn wiped_snapshot_with_compacted_wal_is_refused() {
        let dir = scratch_dir("store-unrecoverable");
        {
            let (mut storage, _) = WalStorage::open(&dir).unwrap();
            for i in 1..=4u64 {
                storage.persist_entry(&entry(1, i, b"x")).unwrap();
            }
            storage
                .persist_snapshot(LogIndex::new(4), Term::new(1), &Bytes::from_static(b"s"), &[])
                .unwrap();
            storage.sync().unwrap();
        }
        // Delete every snapshot file: the marker now points into lost state.
        for entry in fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "snap") {
                fs::remove_file(path).unwrap();
            }
        }
        let err = WalStorage::open(&dir).expect_err("unrecoverable state must refuse to open");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Recovery hardening: a CRC-corrupt record mid-segment *and* a tail
    /// torn mid-record in the same (newest) segment. Recovery must keep
    /// the valid prefix, never panic, report every lost byte through the
    /// observer as one `wal_tail_truncated` event, and leave the segment
    /// repaired so the next open is clean.
    #[test]
    fn corrupt_record_and_torn_tail_recover_to_the_valid_prefix() {
        use escape_obs::{EventLog, RingObserver};
        use std::sync::Arc;

        let dir = scratch_dir("store-hardening");
        {
            let (mut storage, _) = WalStorage::open(&dir).unwrap();
            for term in 1..=5u64 {
                storage
                    .persist_hard_state(Term::new(term), Some(ServerId::new(1)))
                    .unwrap();
                storage.sync().unwrap();
            }
        }
        let (_, path) = wal::list_segments(&dir).unwrap().pop().unwrap();
        let end = wal::records_end(&path).unwrap() as usize;
        let mut raw = fs::read(&path).unwrap();
        let header = wal::SEGMENT_MAGIC.len();
        let record = (end - header) / 5;
        // Flip a byte inside record 3 (CRC mismatch mid-segment)...
        raw[header + 2 * record + record / 2] ^= 0xFF;
        // ...and tear the final record in half (an overwrite lost
        // mid-write leaves the zeros it was meant to replace).
        let torn_end = end - record / 2;
        raw[torn_end..end].fill(0);
        assert_ne!(raw[torn_end - 1], 0, "the kept half must end on a nonzero byte");
        let len = raw.len() as u64;
        fs::write(&path, raw).unwrap();

        let log = Arc::new(EventLog::default());
        let observer = RingObserver::new(Arc::clone(&log));
        let (_, state) =
            WalStorage::open_observed(&dir, WalOptions::default(), &observer, 777).unwrap();
        assert_eq!(
            state.term,
            Term::new(2),
            "only the prefix before the corrupt record survives"
        );
        let expected_lost = (torn_end - (header + 2 * record)) as u64;
        let events = log.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].at_micros, 777);
        assert_eq!(
            events[0].event,
            escape_obs::Event::WalTailTruncated {
                lost_bytes: expected_lost
            }
        );

        // The debris was zeroed on disk, in place: a clean reopen, no
        // event.
        assert_eq!(fs::metadata(&path).unwrap().len(), len, "repair must not truncate");
        let silent = Arc::new(EventLog::default());
        let again = RingObserver::new(Arc::clone(&silent));
        let (_, state) =
            WalStorage::open_observed(&dir, WalOptions::default(), &again, 778).unwrap();
        assert_eq!(state.term, Term::new(2));
        assert!(silent.is_empty(), "a repaired log must not re-report");
    }

    /// Opens `dir` with a recording observer; returns the recovered term
    /// and every `WalTailTruncated` loss reported.
    fn open_reporting(dir: &Path) -> (Term, Vec<u64>) {
        use escape_obs::{EventLog, RingObserver};
        use std::sync::Arc;

        let log = Arc::new(EventLog::default());
        let observer = RingObserver::new(Arc::clone(&log));
        let (_, state) =
            WalStorage::open_observed(dir, WalOptions::default(), &observer, 1).unwrap();
        let lost = log
            .snapshot()
            .iter()
            .filter_map(|t| match t.event {
                escape_obs::Event::WalTailTruncated { lost_bytes } => Some(lost_bytes),
                _ => None,
            })
            .collect();
        (state.term, lost)
    }

    fn persist_terms(dir: &Path, terms: std::ops::RangeInclusive<u64>) {
        let (mut storage, _) = WalStorage::open(dir).unwrap();
        for term in terms {
            storage
                .persist_hard_state(Term::new(term), Some(ServerId::new(1)))
                .unwrap();
            storage.sync().unwrap();
        }
    }

    /// The zeros after the records are the end marker, not damage: a
    /// clean log reopens with nothing lost and nothing reported.
    #[test]
    fn zero_header_is_a_clean_end() {
        let dir = scratch_dir("store-zero-end");
        persist_terms(&dir, 1..=3);
        let (_, path) = wal::list_segments(&dir).unwrap().pop().unwrap();
        let end = wal::records_end(&path).unwrap();
        assert!(fs::metadata(&path).unwrap().len() > end + 8, "zeros follow the records");
        assert_eq!(open_reporting(&dir), (Term::new(3), vec![]));
    }

    /// Nonzero bytes after the end marker of the newest segment are crash
    /// debris: zeroed in place (the file keeps its size), and reported.
    #[test]
    fn newest_segment_debris_is_zeroed_not_truncated() {
        let dir = scratch_dir("store-newest-debris");
        persist_terms(&dir, 1..=3);
        let (_, path) = wal::list_segments(&dir).unwrap().pop().unwrap();
        let end = wal::records_end(&path).unwrap() as usize;
        let mut raw = fs::read(&path).unwrap();
        raw[end + 90..end + 100].fill(0x5A);
        fs::write(&path, &raw).unwrap();

        assert_eq!(open_reporting(&dir), (Term::new(3), vec![100]));
        let repaired = fs::read(&path).unwrap();
        assert_eq!(repaired.len(), raw.len(), "repair must not truncate");
        assert!(repaired[end..].iter().all(|&b| b == 0));
        assert_eq!(repaired[..end], raw[..end]);
        assert_eq!(open_reporting(&dir), (Term::new(3), vec![]));
    }

    /// A crash while the next segment was being prepared leaves a
    /// `.prep` file. It holds no records: every record comes back, and
    /// the stray file is deleted.
    #[test]
    fn a_stray_prepared_segment_is_removed_and_every_record_recovered() {
        let dir = scratch_dir("store-stray-prep");
        let opts = WalOptions {
            segment_max_bytes: 1024,
            fsync: true,
        };
        {
            let (mut storage, _) = WalStorage::open_with(&dir, opts).unwrap();
            for i in 1..=50u64 {
                storage
                    .persist_entry(&entry(1, i, b"twenty-byte-payload!"))
                    .unwrap();
                storage.sync().unwrap();
            }
            // Crash: the helper has prepared the next segment by now.
        }
        let prepared = |dir: &Path| {
            fs::read_dir(dir)
                .unwrap()
                .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".prep"))
                .count()
        };
        assert_eq!(prepared(&dir), 1, "the crash must leave a prepared segment");
        let (_, state) = WalStorage::open_with(&dir, opts).unwrap();
        assert_eq!(state.log.last_index(), LogIndex::new(50));
        assert_eq!(prepared(&dir), 0, "the stray .prep must be deleted");
    }
}
