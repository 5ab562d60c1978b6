//! The engine's durable-storage interface.
//!
//! Raft's correctness arguments assume that `current_term`, `voted_for`,
//! and the log survive crashes — a node that forgets its vote can grant a
//! second one in the same term and break Election Safety. ESCAPE adds one
//! more durable item: the node's current prioritized [`Configuration`],
//! whose `confClock` is what lets intact voters fence off servers that
//! recovered with wiped state (§IV-B, Fig. 5b).
//!
//! The engine is sans-IO, so durability is expressed as a [`Storage`]
//! trait the runtime injects: every mutation of persistent state calls the
//! matching `persist_*` hook *at the mutation site*, and the engine calls
//! [`Storage::sync`] before returning any actions from a public entry
//! point — which is what guarantees "durable before the corresponding
//! message is sent", since the runtime only transmits returned actions.
//!
//! One kind of record is exempt: a **leader's own tail appends**. Nothing
//! a leader sends promises that *it* holds an entry — followers ack what
//! *they* synced — so `propose_batch` asks for [`Storage::sync_deferred`]
//! instead, ships its `AppendEntries` at once, and counts itself into the
//! commit quorum only when the barrier reports back (Raft thesis
//! §10.2.1). Storages that cannot defer keep the default, which *is*
//! `sync`.
//!
//! [`NullStorage`] keeps the simulator and benches allocation-free; the
//! `escape-storage` crate provides the real write-ahead-log + snapshot
//! implementation and produces the [`RecoveredState`] that
//! [`NodeBuilder::recover`](crate::engine::NodeBuilder::recover) consumes
//! on reboot.

use std::io;

use bytes::Bytes;

use crate::config::Configuration;
use crate::log::{Entry, Log};
use crate::types::{LogIndex, ServerId, Term};

/// Durable sink for the engine's persistent state.
///
/// All hooks are mutation notifications: the engine has already updated
/// its in-memory state when a hook runs, and it will not emit the actions
/// produced by that mutation until [`Storage::sync`] has returned `Ok`.
/// Implementations may buffer writes between `sync` calls.
///
/// Errors are fatal by design: the engine panics if persistence fails,
/// because a node that cannot make its vote durable must stop rather than
/// risk double-voting after a restart.
pub trait Storage: std::fmt::Debug + Send {
    /// The term and vote changed (Raft's "hard state").
    fn persist_hard_state(&mut self, term: Term, voted_for: Option<ServerId>) -> io::Result<()>;

    /// The leader appended one brand-new entry at the log tail.
    fn persist_entry(&mut self, entry: &Entry) -> io::Result<()>;

    /// The leader appended a dense run of brand-new entries at the log
    /// tail (one proposal batch). The default forwards entry-by-entry;
    /// implementations backed by a buffered WAL should override it to
    /// encode the whole run before a single flush (group commit).
    ///
    /// # Errors
    ///
    /// As [`Storage::persist_entry`].
    fn persist_entries(&mut self, entries: &[Entry]) -> io::Result<()> {
        for entry in entries {
            self.persist_entry(entry)?;
        }
        Ok(())
    }

    /// A follower accepted an `AppendEntries` batch anchored at
    /// `(prev_index, prev_term)`, possibly truncating a conflicting
    /// suffix first. Replaying the same arguments through
    /// [`Log::try_append`](crate::log::Log::try_append) reproduces the
    /// mutation exactly.
    fn persist_appended(
        &mut self,
        prev_index: LogIndex,
        prev_term: Term,
        entries: &[Entry],
    ) -> io::Result<()>;

    /// The node adopted a new prioritized configuration (fresh PPF
    /// assignment as a follower, or its own retired/restamped
    /// configuration as a leader).
    fn persist_config(&mut self, config: Configuration) -> io::Result<()>;

    /// A snapshot at `(index, term)` with serialized state-machine bytes
    /// `data` landed (local compaction or an installed leader snapshot).
    /// `tail` is the log suffix still retained above `index`.
    /// Implementations should make the snapshot durable and may then
    /// discard WAL records at or below `index` — but must keep (or
    /// re-log) the tail, which the WAL is still the only durable copy of.
    fn persist_snapshot(
        &mut self,
        index: LogIndex,
        term: Term,
        data: &Bytes,
        tail: &[Entry],
    ) -> io::Result<()>;

    /// Makes every record persisted since the previous `sync` durable.
    fn sync(&mut self) -> io::Result<()>;

    /// Starts making every record persisted so far durable without
    /// waiting for it. A storage that flushes on another thread returns
    /// [`Barrier::Pending`] with a ticket and later has its runtime hand
    /// that ticket to [`Node::barrier_done`](crate::engine::Node::barrier_done);
    /// tickets grow, barriers complete in the order they were requested,
    /// and a later [`Storage::sync`] covers every ticket issued before it.
    /// The default cannot defer: it syncs and reports
    /// [`Barrier::Durable`], which is exactly the blocking behaviour.
    ///
    /// # Errors
    ///
    /// As [`Storage::sync`].
    fn sync_deferred(&mut self) -> io::Result<Barrier> {
        self.sync()?;
        Ok(Barrier::Durable)
    }
}

/// What [`Storage::sync_deferred`] achieved by the time it returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Barrier {
    /// Everything persisted so far is already durable.
    Durable,
    /// The flush is under way; this ticket comes back through
    /// [`Node::barrier_done`](crate::engine::Node::barrier_done) when it
    /// has completed.
    Pending(u64),
}

/// A storage that forgets everything: the simulator/bench default. Every
/// hook is a no-op, so the engine's hot path pays only a virtual call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullStorage;

impl Storage for NullStorage {
    fn persist_hard_state(&mut self, _term: Term, _voted_for: Option<ServerId>) -> io::Result<()> {
        Ok(())
    }

    fn persist_entry(&mut self, _entry: &Entry) -> io::Result<()> {
        Ok(())
    }

    fn persist_appended(
        &mut self,
        _prev_index: LogIndex,
        _prev_term: Term,
        _entries: &[Entry],
    ) -> io::Result<()> {
        Ok(())
    }

    fn persist_config(&mut self, _config: Configuration) -> io::Result<()> {
        Ok(())
    }

    fn persist_snapshot(
        &mut self,
        _index: LogIndex,
        _term: Term,
        _data: &Bytes,
        _tail: &[Entry],
    ) -> io::Result<()> {
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The snapshot recovered from storage: the compaction point plus the
/// serialized state-machine bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveredSnapshot {
    /// Last log index covered by the snapshot.
    pub index: LogIndex,
    /// Term of the entry at `index`.
    pub term: Term,
    /// The state machine's serialized state at `index`.
    pub data: Bytes,
}

/// Everything a storage implementation reconstructs on boot, consumed by
/// [`NodeBuilder::recover`](crate::engine::NodeBuilder::recover).
#[derive(Clone, Debug, Default)]
pub struct RecoveredState {
    /// The last persisted term.
    pub term: Term,
    /// The last persisted vote within `term`.
    pub voted_for: Option<ServerId>,
    /// The rebuilt replicated log (anchored at the recovered snapshot's
    /// index when one exists).
    pub log: Log,
    /// The last adopted prioritized configuration, if the node's policy
    /// tracks one — restoring it is what keeps a rebooted voter's
    /// `confClock` fence intact (§IV-B).
    pub config: Option<Configuration>,
    /// The newest durable snapshot, if any.
    pub snapshot: Option<RecoveredSnapshot>,
}

impl RecoveredState {
    /// `true` when nothing was recovered (fresh data directory).
    pub fn is_empty(&self) -> bool {
        self.term == Term::ZERO
            && self.voted_for.is_none()
            && self.log.is_empty()
            && self.log.snapshot_index() == LogIndex::ZERO
            && self.config.is_none()
            && self.snapshot.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_storage_accepts_everything() {
        let mut s = NullStorage;
        s.persist_hard_state(Term::new(3), Some(ServerId::new(1)))
            .unwrap();
        s.persist_config(Configuration::new(
            crate::time::Duration::from_millis(1500),
            crate::types::Priority::new(2),
            crate::types::ConfClock::new(1),
        ))
        .unwrap();
        s.persist_snapshot(LogIndex::new(5), Term::new(2), &Bytes::from_static(b"s"), &[])
            .unwrap();
        s.sync().unwrap();
    }

    #[test]
    fn fresh_recovered_state_is_empty() {
        let state = RecoveredState::default();
        assert!(state.is_empty());
        let voted = RecoveredState {
            voted_for: Some(ServerId::new(2)),
            ..Default::default()
        };
        assert!(!voted.is_empty());
    }
}
