//! The per-group WAL thread: runs a leader's log barrier off the thread
//! that sends its heartbeats.
//!
//! A durable group's engine does not hold its [`Storage`] directly. It
//! holds a [`QueuedStorage`], which shares the real one with a WAL
//! thread. Every call becomes an owned [`Op`] (entries are `Bytes`-backed;
//! a clone copies no payload), and then:
//!
//! * While the storage is **at rest** (no flush running, nothing queued)
//!   the op is applied on the caller, exactly as if the engine owned the
//!   storage. This is the only path a follower ever takes: its persist →
//!   sync → ack pays no thread hand-off. (With the WAL thread owning the
//!   storage outright — every call queued, `sync` waiting for the thread
//!   — the two wake-ups per follower barrier cost `durable-mixed` 8 % of
//!   its put latency on the benchmark's one processor; see `CHANGES.md`,
//!   PR 19.)
//! * A leader's tail appends ([`Storage::persist_entries`]) and the
//!   barrier `propose_batch` asks for them
//!   ([`Storage::sync_deferred`]) always queue and return. The WAL thread
//!   takes the storage out, applies and syncs, puts it back and posts the
//!   barrier's ticket into the group's inbox as
//!   [`NodeInput::BarrierDone`]; the node thread meanwhile has already
//!   sent its `AppendEntries` and keeps heartbeating, answering lease
//!   reads and counting follower acks through however long the disk takes.
//! * While a flush is running, calls cannot reach the storage, so they
//!   queue behind it. The WAL thread drains everything queued, applies it
//!   in order, and issues **one** inner `sync` for the lot: group commit
//!   spans engine steps. A blocking [`Storage::sync`] that lands here
//!   queues too and waits its turn, which keeps record order and the rule
//!   that a blocking barrier covers every deferred one before it.
//!
//! Both paths apply an op through the same [`Op::apply`], so what reaches
//! the storage, and in what order, does not depend on which one ran.
//!
//! An inner storage error is sticky and fail-stop: every later call on
//! the adapter returns it (the engine stops on the spot, as it always has
//! on a storage error), and a failed deferred flush is posted to the inbox
//! so an otherwise idle node thread stops too.

use std::io;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use bytes::Bytes;
use crossbeam::channel::Sender;

use escape_core::config::Configuration;
use escape_core::log::Entry;
use escape_core::storage::{Barrier, Storage};
use escape_core::types::{LogIndex, ServerId, Term};

use crate::runtime::NodeInput;

/// One storage call, owned so it can wait in the queue.
#[derive(Debug)]
enum Op {
    HardState(Term, Option<ServerId>),
    Entries(Vec<Entry>),
    Appended(LogIndex, Term, Vec<Entry>),
    Config(Configuration),
    Snapshot(LogIndex, Term, Bytes, Vec<Entry>),
    /// A barrier request. Deferred ones are reported to the inbox;
    /// blocking ones have the node thread waiting on `completed`.
    Barrier {
        seq: u64,
        deferred: bool,
    },
}

impl Op {
    /// Makes the call on `storage`. A barrier is a `sync`.
    fn apply(&self, storage: &mut dyn Storage) -> io::Result<()> {
        match self {
            Op::HardState(term, voted_for) => storage.persist_hard_state(*term, *voted_for),
            Op::Entries(entries) => storage.persist_entries(entries),
            Op::Appended(prev_index, prev_term, entries) => {
                storage.persist_appended(*prev_index, *prev_term, entries)
            }
            Op::Config(config) => storage.persist_config(*config),
            Op::Snapshot(index, term, data, tail) => {
                storage.persist_snapshot(*index, *term, data, tail)
            }
            Op::Barrier { .. } => storage.sync(),
        }
    }
}

#[derive(Debug)]
struct State {
    /// The wrapped storage; `None` while the WAL thread has it out.
    storage: Option<Box<dyn Storage>>,
    /// Calls made while the storage was out (or behind such calls), in
    /// the order the engine made them.
    queue: Vec<Op>,
    /// Barriers queued so far; the latest one's sequence number.
    issued: u64,
    /// Highest barrier sequence number a finished flush covers.
    completed: u64,
    /// The first inner-storage error. Nothing is written after it.
    failed: Option<(io::ErrorKind, String)>,
    /// The adapter was dropped: the node thread is gone.
    closed: bool,
}

impl State {
    fn check(&self) -> io::Result<()> {
        match &self.failed {
            Some((kind, message)) => Err(io::Error::new(*kind, message.clone())),
            None => Ok(()),
        }
    }

    /// Applies `op` on the caller when the storage is at rest — it is in,
    /// and nothing older is waiting to be applied — else queues it.
    /// `Ok(true)` means applied.
    fn apply_or_queue(&mut self, op: Op) -> io::Result<bool> {
        self.check()?;
        match &mut self.storage {
            Some(storage) if self.queue.is_empty() => op.apply(storage.as_mut()).map(|()| true),
            _ => {
                self.queue.push(op);
                Ok(false)
            }
        }
    }

    /// Numbers a new barrier request.
    fn next_barrier(&mut self, deferred: bool) -> Op {
        self.issued += 1;
        Op::Barrier {
            seq: self.issued,
            deferred,
        }
    }
}

#[derive(Debug)]
struct Shared {
    state: Mutex<State>,
    /// Signalled when a barrier is queued (wakes the WAL thread), when a
    /// flush ends (wakes a blocked `sync`) and on close.
    changed: Condvar,
}

impl Shared {
    /// The other thread panicked under the lock; report it as the storage
    /// failure it is rather than touch half-updated state.
    fn state(&self) -> io::Result<MutexGuard<'_, State>> {
        self.state
            .lock()
            .map_err(|_| io::Error::other("WAL state lock poisoned"))
    }
}

/// The engine-side half: a [`Storage`] that applies calls in place while
/// the real storage is at rest and queues them for the WAL thread
/// otherwise. See the [module docs](self).
#[derive(Debug)]
pub struct QueuedStorage {
    shared: Arc<Shared>,
}

/// Starts a WAL thread named `thread_name` that shares `storage` with the
/// adapter returned — which the engine should own in its place — plus the
/// thread's handle. Completed deferred barriers (and a failed flush) are
/// posted to `inbox`. The thread ends when the adapter is dropped,
/// without writing what is still queued — nothing acknowledged can be in
/// there — so join it after the node thread; the storage is closed by
/// then.
pub fn spawn_wal_thread(
    thread_name: String,
    storage: Box<dyn Storage>,
    inbox: Sender<NodeInput>,
) -> (QueuedStorage, JoinHandle<()>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            storage: Some(storage),
            queue: Vec::new(),
            issued: 0,
            completed: 0,
            failed: None,
            closed: false,
        }),
        changed: Condvar::new(),
    });
    let for_thread = Arc::clone(&shared);
    let handle = std::thread::Builder::new()
        .name(thread_name)
        .spawn(move || flush_loop(&for_thread, &inbox))
        // lint:allow(panic): thread-spawn failure at startup is fatal by design
        .expect("spawn WAL thread");
    (QueuedStorage { shared }, handle)
}

impl QueuedStorage {
    fn record(&self, op: Op) -> io::Result<()> {
        self.shared.state()?.apply_or_queue(op).map(|_| ())
    }
}

impl Storage for QueuedStorage {
    fn persist_hard_state(&mut self, term: Term, voted_for: Option<ServerId>) -> io::Result<()> {
        self.record(Op::HardState(term, voted_for))
    }

    fn persist_entry(&mut self, entry: &Entry) -> io::Result<()> {
        self.record(Op::Entries(vec![entry.clone()]))
    }

    /// A leader's tail appends — the records the deferred barrier exists
    /// for — always queue: encoding them, and the segment rotation (a
    /// sync and a file create) they occasionally trigger, is the WAL
    /// thread's work even when the storage is at rest.
    fn persist_entries(&mut self, entries: &[Entry]) -> io::Result<()> {
        let mut state = self.shared.state()?;
        state.check()?;
        state.queue.push(Op::Entries(entries.to_vec()));
        Ok(())
    }

    fn persist_appended(
        &mut self,
        prev_index: LogIndex,
        prev_term: Term,
        entries: &[Entry],
    ) -> io::Result<()> {
        self.record(Op::Appended(prev_index, prev_term, entries.to_vec()))
    }

    fn persist_config(&mut self, config: Configuration) -> io::Result<()> {
        self.record(Op::Config(config))
    }

    fn persist_snapshot(
        &mut self,
        index: LogIndex,
        term: Term,
        data: &Bytes,
        tail: &[Entry],
    ) -> io::Result<()> {
        self.record(Op::Snapshot(index, term, data.clone(), tail.to_vec()))
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut state = self.shared.state()?;
        let barrier = state.next_barrier(false);
        let seq = state.issued;
        if state.apply_or_queue(barrier)? {
            state.completed = seq;
            return Ok(());
        }
        self.shared.changed.notify_all();
        while state.completed < seq && state.failed.is_none() {
            state = self
                .shared
                .changed
                .wait(state)
                .map_err(|_| io::Error::other("WAL state lock poisoned"))?;
        }
        state.check()
    }

    fn sync_deferred(&mut self) -> io::Result<Barrier> {
        let mut state = self.shared.state()?;
        state.check()?;
        let barrier = state.next_barrier(true);
        state.queue.push(barrier);
        self.shared.changed.notify_all();
        Ok(Barrier::Pending(state.issued))
    }
}

impl Drop for QueuedStorage {
    fn drop(&mut self) {
        // A poisoned lock means the WAL thread is already gone.
        if let Ok(mut state) = self.shared.state.lock() {
            state.closed = true;
        }
        self.shared.changed.notify_all();
    }
}

/// Applies `ops` to `storage` in order, with one `sync` placed at the
/// last barrier among them: it covers every record and barrier before
/// it. Records after it stay buffered for the barrier still to come.
fn replay(storage: &mut dyn Storage, ops: &[Op]) -> io::Result<()> {
    let last_barrier = ops.iter().rposition(|op| matches!(op, Op::Barrier { .. }));
    for (i, op) in ops.iter().enumerate() {
        if matches!(op, Op::Barrier { .. }) && Some(i) != last_barrier {
            continue;
        }
        op.apply(storage)?;
    }
    Ok(())
}

/// The WAL thread: sleeps until a barrier is queued, then takes the
/// storage out and flushes without holding the lock, so the node thread
/// can keep queueing behind it.
fn flush_loop(shared: &Shared, inbox: &Sender<NodeInput>) {
    // A poisoned lock anywhere below means the node thread panicked
    // mid-call: it has fail-stopped, and so does this thread.
    let Ok(mut state) = shared.state.lock() else {
        return;
    };
    loop {
        if state.closed {
            return;
        }
        let has_barrier = state
            .queue
            .iter()
            .any(|op| matches!(op, Op::Barrier { .. }));
        if !has_barrier || state.failed.is_some() {
            let Ok(woken) = shared.changed.wait(state) else {
                return;
            };
            state = woken;
            continue;
        }
        let ops = std::mem::take(&mut state.queue);
        let Some(mut storage) = state.storage.take() else {
            return; // only this thread takes it out, and it put it back
        };
        drop(state);

        let outcome = replay(storage.as_mut(), &ops);
        let mut covered = 0;
        let mut ticket = None;
        for op in &ops {
            if let Op::Barrier { seq, deferred } = op {
                covered = *seq;
                if *deferred {
                    ticket = Some(*seq);
                }
            }
        }

        let Ok(relocked) = shared.state.lock() else {
            return;
        };
        state = relocked;
        state.storage = Some(storage);
        let report = match outcome {
            Ok(()) => {
                state.completed = covered;
                ticket.map(Ok)
            }
            Err(error) => {
                state.failed = Some((error.kind(), error.to_string()));
                Some(Err(error))
            }
        };
        shared.changed.notify_all();
        if let Some(report) = report {
            drop(state);
            // The inbox is unbounded, so this never waits on the node
            // thread; a closed inbox means it has already stopped.
            let _ = inbox.send(NodeInput::BarrierDone(report));
            let Ok(relocked) = shared.state.lock() else {
                return;
            };
            state = relocked;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::{unbounded, Receiver};
    use std::sync::mpsc;
    use std::time::Duration;

    /// A storage that logs every call and whose `sync` blocks until the
    /// test releases it, so interleavings are forced, not slept for.
    #[derive(Debug)]
    struct GatedStorage {
        calls: mpsc::Sender<String>,
        gate: mpsc::Receiver<io::Result<()>>,
    }

    impl GatedStorage {
        fn log(&self, call: String) -> io::Result<()> {
            self.calls.send(call).expect("test is listening");
            Ok(())
        }
    }

    impl Storage for GatedStorage {
        fn persist_hard_state(&mut self, term: Term, _: Option<ServerId>) -> io::Result<()> {
            self.log(format!("hard_state {}", term.get()))
        }
        fn persist_entry(&mut self, entry: &Entry) -> io::Result<()> {
            self.log(format!("entry {}", entry.index.get()))
        }
        fn persist_entries(&mut self, entries: &[Entry]) -> io::Result<()> {
            self.log(format!("entries {}", entries.len()))
        }
        fn persist_appended(&mut self, prev: LogIndex, _: Term, e: &[Entry]) -> io::Result<()> {
            self.log(format!("appended {}+{}", prev.get(), e.len()))
        }
        fn persist_config(&mut self, config: Configuration) -> io::Result<()> {
            self.log(format!("config {}", config.conf_clock.get()))
        }
        fn persist_snapshot(
            &mut self,
            i: LogIndex,
            _: Term,
            _: &Bytes,
            _: &[Entry],
        ) -> io::Result<()> {
            self.log(format!("snapshot {}", i.get()))
        }
        fn sync(&mut self) -> io::Result<()> {
            self.log("sync".to_string())?;
            self.gate.recv().expect("test releases every sync")
        }
    }

    struct Rig {
        storage: QueuedStorage,
        calls: mpsc::Receiver<String>,
        gate: mpsc::Sender<io::Result<()>>,
        inbox: Receiver<NodeInput>,
        thread: JoinHandle<()>,
    }

    fn rig() -> Rig {
        let (calls_tx, calls) = mpsc::channel();
        let (gate, gate_rx) = mpsc::channel();
        let (inbox_tx, inbox) = unbounded();
        let (storage, thread) = spawn_wal_thread(
            "wal-test".to_string(),
            Box::new(GatedStorage {
                calls: calls_tx,
                gate: gate_rx,
            }),
            inbox_tx,
        );
        Rig {
            storage,
            calls,
            gate,
            inbox,
            thread,
        }
    }

    fn entry(index: u64) -> Entry {
        Entry {
            term: Term::new(1),
            index: LogIndex::new(index),
            payload: escape_core::log::Payload::Command(Bytes::from_static(b"x")),
        }
    }

    impl Rig {
        fn next_call(&self) -> String {
            self.calls
                .recv_timeout(Duration::from_secs(5))
                .expect("a storage call")
        }

        fn done(&self) -> io::Result<u64> {
            match self.inbox.recv_timeout(Duration::from_secs(5)) {
                Ok(NodeInput::BarrierDone(report)) => report,
                _ => panic!("expected a barrier report"),
            }
        }
    }

    /// A storage at rest is called in place: a blocking barrier returns
    /// only after the inner sync, on the caller, with no report posted.
    #[test]
    fn calls_at_rest_run_on_the_caller() {
        let mut rig = rig();
        rig.storage.persist_hard_state(Term::new(3), None).unwrap();
        rig.gate.send(Ok(())).unwrap(); // released in advance: sync runs inline
        rig.storage.sync().unwrap();
        assert_eq!(rig.next_call(), "hard_state 3");
        assert_eq!(rig.next_call(), "sync");
        assert!(rig.inbox.is_empty(), "a blocking barrier posts nothing");
        drop(rig.storage);
        rig.thread.join().unwrap();
    }

    /// The deferred barrier returns at once; what the engine does while
    /// the flush runs queues behind it in order and shares ONE sync; a
    /// blocking barrier issued meanwhile waits for that sync.
    #[test]
    fn work_behind_a_running_flush_is_replayed_in_order_under_one_sync() {
        let mut rig = rig();
        rig.storage.persist_entries(&[entry(1), entry(2)]).unwrap();
        assert_eq!(rig.storage.sync_deferred().unwrap(), Barrier::Pending(1));
        assert_eq!(rig.next_call(), "entries 2");
        assert_eq!(rig.next_call(), "sync"); // the WAL thread is now inside the gate

        // Two more engine steps while the disk is busy.
        rig.storage.persist_entries(&[entry(3)]).unwrap();
        assert_eq!(rig.storage.sync_deferred().unwrap(), Barrier::Pending(2));
        rig.storage
            .persist_config(Configuration::new(
                escape_core::time::Duration::from_millis(150),
                escape_core::types::Priority::new(1),
                escape_core::types::ConfClock::new(9),
            ))
            .unwrap();
        let gate = rig.gate.clone();
        let releaser = std::thread::spawn(move || {
            gate.send(Ok(())).unwrap(); // first flush
            gate.send(Ok(())).unwrap(); // the one sync for everything queued
        });
        rig.storage.sync().unwrap(); // blocking: waits for the second flush
        releaser.join().unwrap();

        assert_eq!(rig.done().unwrap(), 1);
        assert_eq!(rig.next_call(), "entries 1");
        assert_eq!(rig.next_call(), "config 9");
        assert_eq!(rig.next_call(), "sync");
        assert_eq!(
            rig.done().unwrap(),
            2,
            "the highest deferred ticket of the lot"
        );
        assert!(
            rig.calls.try_recv().is_err(),
            "one sync covered both barriers"
        );
        drop(rig.storage);
        rig.thread.join().unwrap();
    }

    /// A failed flush is reported, and sticks: the adapter refuses every
    /// later call, which is what stops the engine.
    #[test]
    fn a_failed_flush_is_reported_and_sticky() {
        let mut rig = rig();
        rig.storage.persist_entries(&[entry(1)]).unwrap();
        rig.storage.sync_deferred().unwrap();
        rig.gate
            .send(Err(io::Error::new(io::ErrorKind::WriteZero, "disk full")))
            .unwrap();
        let error = rig.done().expect_err("the failure must reach the inbox");
        assert_eq!(error.kind(), io::ErrorKind::WriteZero);
        let refused = rig.storage.persist_entries(&[entry(2)]).unwrap_err();
        assert_eq!(refused.kind(), io::ErrorKind::WriteZero);
        assert!(rig.storage.sync().is_err());
        drop(rig.storage);
        rig.thread.join().unwrap();
    }

    /// Dropping the adapter ends the thread without flushing what is
    /// queued behind a running flush.
    #[test]
    fn drop_abandons_queued_records() {
        let mut rig = rig();
        rig.storage.persist_entries(&[entry(1)]).unwrap();
        rig.storage.sync_deferred().unwrap();
        assert_eq!(rig.next_call(), "entries 1");
        assert_eq!(rig.next_call(), "sync");
        rig.storage.persist_entries(&[entry(2)]).unwrap();
        rig.storage.sync_deferred().unwrap();
        drop(rig.storage);
        rig.gate.send(Ok(())).unwrap();
        rig.thread.join().unwrap();
        assert!(rig.calls.try_recv().is_err(), "entry 2 was never written");
    }
}
