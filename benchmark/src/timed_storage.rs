//! The storage layer's outside-in probe: a [`Storage`] wrapper, installed
//! through `ShardSpawnOptions::storage_hook` in traced runs, that times
//! every persist and sync of every (server, group) and forwards to the
//! real WAL. Nothing inside `escape-storage` is touched.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;

use escape_core::config::Configuration;
use escape_core::log::Entry;
use escape_core::storage::Storage;
use escape_core::types::{GroupId, LogIndex, ServerId, Term};
use escape_storage::WalStorage;
use escape_transport::tcp::StorageHook;

/// One timed storage call.
#[derive(Clone, Copy, Debug)]
pub struct StorageSpan {
    pub server: u32,
    pub group: u32,
    /// `true` for `sync`, `false` for any `persist_*`.
    pub is_sync: bool,
    /// A sync with records buffered since the previous one (a barrier
    /// that did work, as opposed to the no-op sync of a heartbeat).
    pub dirty: bool,
    /// Log entries carried by a persist call.
    pub entries: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Where every wrapper of one cluster records. Each (server, group) has
/// one engine thread, so the lock is uncontended except at collection.
#[derive(Debug)]
pub struct StorageTrace {
    epoch: Instant,
    /// Off during set-up and the untraced reference window.
    recording: AtomicBool,
    spans: Mutex<Vec<StorageSpan>>,
}

impl StorageTrace {
    pub fn new(epoch: Instant) -> Arc<Self> {
        Arc::new(StorageTrace {
            epoch,
            recording: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Statistics only: `Relaxed` publishes nothing else.
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::Relaxed);
    }

    pub fn take(&self) -> Vec<StorageSpan> {
        std::mem::take(&mut *self.spans.lock().expect("storage trace lock"))
    }

    /// The hook that wraps each group's freshly opened WAL.
    pub fn hook(self: &Arc<Self>) -> StorageHook {
        let trace = Arc::clone(self);
        Arc::new(move |server: ServerId, group: GroupId, inner: WalStorage| {
            Box::new(TimedStorage {
                inner,
                trace: Arc::clone(&trace),
                server: server.get(),
                group: group.get(),
                dirty: false,
            }) as Box<dyn Storage>
        })
    }
}

#[derive(Debug)]
struct TimedStorage {
    inner: WalStorage,
    trace: Arc<StorageTrace>,
    server: u32,
    group: u32,
    dirty: bool,
}

impl TimedStorage {
    fn timed<T>(
        &mut self,
        is_sync: bool,
        entries: usize,
        call: impl FnOnce(&mut WalStorage) -> io::Result<T>,
    ) -> io::Result<T> {
        let dirty = if is_sync {
            std::mem::take(&mut self.dirty)
        } else {
            self.dirty = true;
            true
        };
        if !self.trace.recording.load(Ordering::Relaxed) {
            return call(&mut self.inner);
        }
        let start = self.trace.epoch.elapsed();
        let result = call(&mut self.inner);
        let end = self.trace.epoch.elapsed();
        self.trace
            .spans
            .lock()
            .expect("storage trace lock")
            .push(StorageSpan {
                server: self.server,
                group: self.group,
                is_sync,
                dirty,
                entries: entries as u32,
                start_ns: start.as_nanos() as u64,
                end_ns: end.as_nanos() as u64,
            });
        result
    }
}

impl Storage for TimedStorage {
    fn persist_hard_state(&mut self, term: Term, voted_for: Option<ServerId>) -> io::Result<()> {
        self.timed(false, 0, |s| s.persist_hard_state(term, voted_for))
    }

    fn persist_entry(&mut self, entry: &Entry) -> io::Result<()> {
        self.timed(false, 1, |s| s.persist_entry(entry))
    }

    fn persist_entries(&mut self, entries: &[Entry]) -> io::Result<()> {
        self.timed(false, entries.len(), |s| s.persist_entries(entries))
    }

    fn persist_appended(
        &mut self,
        prev_index: LogIndex,
        prev_term: Term,
        entries: &[Entry],
    ) -> io::Result<()> {
        self.timed(false, entries.len(), |s| {
            s.persist_appended(prev_index, prev_term, entries)
        })
    }

    fn persist_config(&mut self, config: Configuration) -> io::Result<()> {
        self.timed(false, 0, |s| s.persist_config(config))
    }

    fn persist_snapshot(
        &mut self,
        index: LogIndex,
        term: Term,
        data: &Bytes,
        tail: &[Entry],
    ) -> io::Result<()> {
        self.timed(false, 0, |s| s.persist_snapshot(index, term, data, tail))
    }

    fn sync(&mut self) -> io::Result<()> {
        self.timed(true, 0, |s| s.sync())
    }
}
