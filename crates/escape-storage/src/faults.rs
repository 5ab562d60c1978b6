//! Deterministic storage fault injection: [`FaultyStorage`] wraps a
//! [`WalStorage`] and misbehaves the way real disks do — fsyncs that
//! lie, transient IO errors, a disk that fills up — driven entirely by a
//! forked [`Xoshiro256`] stream so the same seed reproduces the same
//! faults byte for byte.
//!
//! The engine treats storage errors as fail-stop (it `expect`s every
//! `Storage` result), so this wrapper never returns `Err`. Each fault
//! maps onto the contract differently:
//!
//! * **Lying fsync** — [`Storage::sync`] returns `Ok` without flushing
//!   the WAL's group-commit buffer. The acked suffix exists only in user
//!   space; the next crash loses exactly those records. This is the
//!   acked-but-lost pathology of drives with volatile write caches.
//! * **Transient IO error** — counted and evented, then the operation
//!   performs anyway, modeling a storage stack whose internal retry
//!   absorbed the fault. The campaign report shows how many hits a run
//!   survived.
//! * **Disk full** — after a configured number of persist operations the
//!   disk "fills": writes are silently skipped and a shared flag flips.
//!   The harness polls [`FaultStats::is_disk_full`] after every engine
//!   call and fail-stops the node *before* any of its output actions are
//!   delivered, preserving write-before-send.
//! * **Torn tail** — not a wrapper behavior but a crash artifact:
//!   [`tear_wal_tail`] zeroes a seeded number of record bytes at the end
//!   of the newest segment at kill time; recovery zeroes what is left of
//!   the torn record and reports it via [`Event::WalTailTruncated`].

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use escape_core::config::Configuration;
use escape_core::log::Entry;
use escape_core::rand::{Rng64, Xoshiro256};
use escape_core::storage::Storage;
use escape_core::types::{LogIndex, ServerId, Term};
use escape_obs::{Event, Observer};

use crate::store::WalStorage;
use crate::wal;

/// Which storage faults fire, and how often.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultSpec {
    /// Probability each [`Storage::sync`] lies (acks without flushing).
    pub lying_fsync_p: f64,
    /// Probability each persist operation reports (and survives) a
    /// transient IO error.
    pub transient_io_p: f64,
    /// After this many persist operations the disk reports full and the
    /// node must fail-stop. `None` = never.
    pub disk_full_after: Option<u64>,
}

impl FaultSpec {
    /// A spec that injects nothing (and draws nothing from the RNG).
    pub fn none() -> Self {
        Self::default()
    }
}

/// Shared, thread-safe counters for the faults a [`FaultyStorage`] has
/// injected; the harness polls [`FaultStats::is_disk_full`] to fail-stop
/// the node.
#[derive(Debug, Default)]
pub struct FaultStats {
    lied_syncs: AtomicU64,
    transient_errors: AtomicU64,
    disk_full: AtomicBool,
}

impl FaultStats {
    /// Syncs acked without reaching the disk.
    pub fn lied_syncs(&self) -> u64 {
        self.lied_syncs.load(Ordering::Relaxed)
    }

    /// Transient IO errors injected (and survived).
    pub fn transient_errors(&self) -> u64 {
        self.transient_errors.load(Ordering::Relaxed)
    }

    /// `true` once the simulated disk has filled; the node must not
    /// absorb any action produced after this flipped.
    pub fn is_disk_full(&self) -> bool {
        self.disk_full.load(Ordering::Relaxed)
    }
}

/// A [`Storage`] that injects [`FaultSpec`] faults into an inner
/// [`WalStorage`], deterministically from its RNG stream.
#[derive(Debug)]
pub struct FaultyStorage {
    inner: WalStorage,
    spec: FaultSpec,
    rng: Xoshiro256,
    writes: u64,
    stats: Arc<FaultStats>,
    observer: Arc<dyn Observer>,
    /// Virtual "now" for event timestamps, updated by the harness each
    /// dispatch (storage itself never reads a clock).
    clock: Arc<AtomicU64>,
}

impl FaultyStorage {
    /// Wraps `inner`. The `rng` should be a dedicated fork of the
    /// campaign seed so storage draws never perturb network draws;
    /// `clock` carries the harness's virtual time in microseconds.
    pub fn new(
        inner: WalStorage,
        spec: FaultSpec,
        rng: Xoshiro256,
        observer: Arc<dyn Observer>,
        clock: Arc<AtomicU64>,
    ) -> FaultyStorage {
        FaultyStorage {
            inner,
            spec,
            rng,
            writes: 0,
            stats: Arc::new(FaultStats::default()),
            observer,
            clock,
        }
    }

    /// The shared fault counters (clone the `Arc` to poll from the
    /// harness while the engine owns the storage).
    pub fn stats(&self) -> Arc<FaultStats> {
        Arc::clone(&self.stats)
    }

    fn now(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    fn emit(&self, event: Event) {
        if self.observer.enabled() {
            self.observer.record(self.now(), event);
        }
    }

    /// Pre-write bookkeeping shared by every persist op: advance the
    /// write counter, maybe fill the disk, maybe inject a survivable
    /// transient error. Returns `false` when the write must be skipped
    /// (disk full — the node is about to be fail-stopped).
    fn before_write(&mut self) -> bool {
        if self.stats.is_disk_full() {
            return false;
        }
        self.writes += 1;
        if let Some(cap) = self.spec.disk_full_after {
            if self.writes > cap {
                self.stats.disk_full.store(true, Ordering::Relaxed);
                self.emit(Event::DiskFull);
                return false;
            }
        }
        if self.spec.transient_io_p > 0.0 && self.rng.gen_bool(self.spec.transient_io_p) {
            self.stats.transient_errors.fetch_add(1, Ordering::Relaxed);
            self.emit(Event::IoErrorInjected);
        }
        true
    }
}

impl Storage for FaultyStorage {
    fn persist_hard_state(&mut self, term: Term, voted_for: Option<ServerId>) -> io::Result<()> {
        if !self.before_write() {
            return Ok(());
        }
        self.inner.persist_hard_state(term, voted_for)
    }

    fn persist_entry(&mut self, entry: &Entry) -> io::Result<()> {
        if !self.before_write() {
            return Ok(());
        }
        self.inner.persist_entry(entry)
    }

    fn persist_entries(&mut self, entries: &[Entry]) -> io::Result<()> {
        if !self.before_write() {
            return Ok(());
        }
        self.inner.persist_entries(entries)
    }

    fn persist_appended(
        &mut self,
        prev_index: LogIndex,
        prev_term: Term,
        entries: &[Entry],
    ) -> io::Result<()> {
        if !self.before_write() {
            return Ok(());
        }
        self.inner.persist_appended(prev_index, prev_term, entries)
    }

    fn persist_config(&mut self, config: Configuration) -> io::Result<()> {
        if !self.before_write() {
            return Ok(());
        }
        self.inner.persist_config(config)
    }

    fn persist_snapshot(
        &mut self,
        index: LogIndex,
        term: Term,
        data: &Bytes,
        tail: &[Entry],
    ) -> io::Result<()> {
        if !self.before_write() {
            return Ok(());
        }
        self.inner.persist_snapshot(index, term, data, tail)
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.stats.is_disk_full() {
            return Ok(());
        }
        if self.spec.lying_fsync_p > 0.0 && self.rng.gen_bool(self.spec.lying_fsync_p) {
            // The lie: ack without flushing. Everything appended since
            // the last honest sync stays in the WAL's user-space buffer
            // and dies with the process.
            self.stats.lied_syncs.fetch_add(1, Ordering::Relaxed);
            self.emit(Event::FsyncLied);
            return Ok(());
        }
        self.inner.sync()
    }
}

/// Crash artifact injection: zeroes a seeded number of record bytes (at
/// least 1, at most every record byte past the segment header) at the end
/// of the newest WAL segment's records, simulating a write torn
/// mid-record by power loss. The WAL overwrites zeros, so a lost write
/// leaves zeros behind, not a shorter file. Returns the number of bytes
/// torn (0 when there was nothing to tear).
///
/// # Errors
///
/// I/O failures reading or writing the segment.
pub fn tear_wal_tail(dir: &Path, rng: &mut dyn Rng64) -> io::Result<u64> {
    let Some((_, path)) = wal::list_segments(dir)?.pop() else {
        return Ok(0);
    };
    let end = wal::records_end(&path)?;
    let header = wal::SEGMENT_MAGIC.len() as u64;
    if end <= header {
        return Ok(0);
    }
    let record_bytes = end - header;
    let torn = rng.gen_range(1, record_bytes + 1);
    let file = std::fs::OpenOptions::new().write(true).open(&path)?;
    wal::write_zeros(&file, end - torn, end)?;
    file.sync_data()?;
    Ok(torn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::scratch_dir;
    use crate::wal::WalOptions;
    use escape_core::log::Payload;
    use escape_obs::{EventLog, RingObserver};

    fn entry(term: u64, index: u64, payload: &'static [u8]) -> Entry {
        Entry {
            term: Term::new(term),
            index: LogIndex::new(index),
            payload: Payload::Command(Bytes::from_static(payload)),
        }
    }

    fn faulty(
        dir: &Path,
        spec: FaultSpec,
        seed: u64,
        log: &Arc<EventLog>,
    ) -> (FaultyStorage, escape_core::storage::RecoveredState) {
        let (inner, state) = WalStorage::open(dir).unwrap();
        let storage = FaultyStorage::new(
            inner,
            spec,
            Xoshiro256::seed_from(seed),
            Arc::new(RingObserver::new(Arc::clone(log))),
            Arc::new(AtomicU64::new(0)),
        );
        (storage, state)
    }

    #[test]
    fn lying_fsync_loses_exactly_the_lied_suffix() {
        let dir = scratch_dir("faults-lying");
        let log = Arc::new(EventLog::new(64));
        {
            let (mut storage, _) = faulty(
                &dir,
                FaultSpec {
                    lying_fsync_p: 1.0, // every sync lies
                    ..FaultSpec::none()
                },
                7,
                &log,
            );
            // An honest prefix never exists here: every sync lies, so all
            // three entries live only in the user-space buffer.
            storage.persist_entry(&entry(1, 1, b"a")).unwrap();
            storage.sync().unwrap();
            storage.persist_entry(&entry(1, 2, b"b")).unwrap();
            storage.sync().unwrap();
            assert_eq!(storage.stats().lied_syncs(), 2);
            // Crash: drop with the buffer unflushed.
        }
        let (_, state) = WalStorage::open(&dir).unwrap();
        assert_eq!(
            state.log.last_index(),
            LogIndex::ZERO,
            "every acked record must be gone: all syncs lied"
        );
        let lies = log
            .snapshot()
            .iter()
            .filter(|t| t.event == Event::FsyncLied)
            .count();
        assert_eq!(lies, 2, "each lie must be evented");
    }

    #[test]
    fn honest_syncs_between_lies_keep_their_prefix() {
        let dir = scratch_dir("faults-lying-prefix");
        let log = Arc::new(EventLog::new(64));
        {
            let (inner, _) = WalStorage::open(&dir).unwrap();
            let mut storage = FaultyStorage::new(
                inner,
                FaultSpec::none(), // manual control below
                Xoshiro256::seed_from(1),
                Arc::new(RingObserver::new(Arc::clone(&log))),
                Arc::new(AtomicU64::new(0)),
            );
            storage.persist_entry(&entry(1, 1, b"honest")).unwrap();
            storage.sync().unwrap(); // honest: spec has lying_fsync_p = 0
            storage.spec.lying_fsync_p = 1.0;
            storage.persist_entry(&entry(1, 2, b"lied")).unwrap();
            storage.sync().unwrap(); // lies
        }
        let (_, state) = WalStorage::open(&dir).unwrap();
        assert_eq!(
            state.log.last_index(),
            LogIndex::new(1),
            "honest prefix survives; lied suffix vanishes"
        );
    }

    #[test]
    fn disk_full_skips_writes_and_raises_the_flag() {
        let dir = scratch_dir("faults-full");
        let log = Arc::new(EventLog::new(64));
        let (mut storage, _) = faulty(
            &dir,
            FaultSpec {
                disk_full_after: Some(2),
                ..FaultSpec::none()
            },
            3,
            &log,
        );
        let stats = storage.stats();
        storage.persist_entry(&entry(1, 1, b"a")).unwrap();
        storage.persist_entry(&entry(1, 2, b"b")).unwrap();
        assert!(!stats.is_disk_full());
        storage.persist_entry(&entry(1, 3, b"c")).unwrap(); // disk fills
        assert!(stats.is_disk_full(), "third write must trip the cap");
        storage.sync().unwrap(); // no-op after the disk filled
        drop(storage);
        let (_, state) = WalStorage::open(&dir).unwrap();
        assert!(
            state.log.last_index() <= LogIndex::new(2),
            "nothing past the cap may reach the disk"
        );
        assert!(log.snapshot().iter().any(|t| t.event == Event::DiskFull));
    }

    #[test]
    fn transient_errors_are_counted_but_survivable() {
        let dir = scratch_dir("faults-transient");
        let log = Arc::new(EventLog::new(256));
        {
            let (mut storage, _) = faulty(
                &dir,
                FaultSpec {
                    transient_io_p: 0.5,
                    ..FaultSpec::none()
                },
                11,
                &log,
            );
            for i in 1..=20u64 {
                storage.persist_entry(&entry(1, i, b"x")).unwrap();
            }
            storage.sync().unwrap();
            let hits = storage.stats().transient_errors();
            assert!(hits > 0, "p=0.5 over 20 writes must hit");
            assert_eq!(
                log.snapshot()
                    .iter()
                    .filter(|t| t.event == Event::IoErrorInjected)
                    .count() as u64,
                hits
            );
        }
        let (_, state) = WalStorage::open(&dir).unwrap();
        assert_eq!(
            state.log.last_index(),
            LogIndex::new(20),
            "transient errors must not lose data"
        );
    }

    #[test]
    fn same_seed_injects_identical_faults() {
        let run = |label: &str| {
            let dir = scratch_dir(label);
            let log = Arc::new(EventLog::new(256));
            let (mut storage, _) = faulty(
                &dir,
                FaultSpec {
                    lying_fsync_p: 0.3,
                    transient_io_p: 0.2,
                    ..FaultSpec::none()
                },
                42,
                &log,
            );
            for i in 1..=30u64 {
                storage.persist_entry(&entry(1, i, b"x")).unwrap();
                storage.sync().unwrap();
            }
            (
                storage.stats().lied_syncs(),
                storage.stats().transient_errors(),
            )
        };
        assert_eq!(run("faults-det-a"), run("faults-det-b"));
    }

    #[test]
    fn torn_tail_is_repaired_and_reported_on_reopen() {
        // A tear landing exactly on a record boundary leaves a clean log
        // and (correctly) nothing to report, so sweep a few seeds and
        // demand at least one mid-record tear — validating every report.
        let mut mid_record_tears = 0;
        for seed in 1..=8u64 {
            let dir = scratch_dir(&format!("faults-tear-{seed}"));
            {
                let (mut storage, _) = WalStorage::open(&dir).unwrap();
                storage.persist_entry(&entry(1, 1, b"keep")).unwrap();
                storage.sync().unwrap();
                storage.persist_entry(&entry(1, 2, b"tear-me")).unwrap();
                storage.sync().unwrap();
            }
            let mut rng = Xoshiro256::seed_from(seed);
            let (_, path) = wal::list_segments(&dir).unwrap().pop().unwrap();
            let len = std::fs::metadata(&path).unwrap().len();
            let torn = tear_wal_tail(&dir, &mut rng).unwrap();
            assert!(torn > 0, "there were bytes to tear");
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                len,
                "a tear zeroes, it does not cut"
            );
            let log = Arc::new(EventLog::new(16));
            let observer = RingObserver::new(Arc::clone(&log));
            let (_, state) =
                WalStorage::open_observed(&dir, WalOptions::default(), &observer, 123).unwrap();
            assert!(
                state.log.last_index() <= LogIndex::new(2),
                "recovery keeps at most the full prefix"
            );
            let reported: Vec<_> = log
                .snapshot()
                .iter()
                .filter_map(|t| match t.event {
                    Event::WalTailTruncated { lost_bytes } => Some((t.at_micros, lost_bytes)),
                    _ => None,
                })
                .collect();
            match reported.as_slice() {
                [(at, lost)] => {
                    // The report covers what *recovery* zeroed: the
                    // partial record the tear left behind (the torn
                    // bytes themselves are zeros already).
                    assert_eq!(*at, 123);
                    assert!(*lost > 0);
                    assert_eq!(std::fs::metadata(&path).unwrap().len(), len);
                    mid_record_tears += 1;
                }
                [] => {} // boundary tear: clean log, nothing to report
                more => panic!("one report expected, got {more:?}"),
            }
        }
        assert!(mid_record_tears > 0, "no seed in 1..=8 tore mid-record");
    }
}
