//! # escape-storage
//!
//! Durable node state for the consensus engine: a crash must be a
//! recoverable event, not a state reset. ESCAPE's §IV-B conf-clock rule
//! explicitly reasons about "servers that recovered with outdated
//! configurations" (Fig. 5b) — which presumes servers *can* recover their
//! term, vote, log, and configuration. This crate is that layer:
//!
//! * [`wal`] — a write-ahead log of engine mutations, CRC-framed per
//!   record (via `escape-wire`), written over zeros laid down ahead of it
//!   so a barrier flushes data only, fsync'd, rotated into numbered
//!   segments.
//! * [`snapshot`] — atomically written snapshot files (state-machine
//!   bytes + last-included index/term), after which older WAL segments
//!   are deleted.
//! * [`record`] — the [`WalRecord`] vocabulary: hard-state changes,
//!   leader appends, follower append/truncate batches, configuration
//!   adoptions, snapshot markers.
//! * [`store`] — [`WalStorage`], the
//!   [`Storage`](escape_core::storage::Storage) implementation the
//!   runtime plugs into
//!   [`Node::builder`](escape_core::engine::Node::builder), and the
//!   recovery path that rebuilds a
//!   [`RecoveredState`](escape_core::storage::RecoveredState) on boot.
//!
//! ## Recovery sequence
//!
//! 1. Load the newest snapshot file whose CRC validates (older ones are
//!    fallbacks for a torn newest write).
//! 2. Anchor the log at the snapshot's `(index, term)`.
//! 3. Replay every intact WAL record in segment order through the same
//!    `escape-core` log operations that produced it; stop at the first
//!    end marker or torn/corrupt record (the crash's tail write), which
//!    is zeroed.
//! 4. Hand the resulting `RecoveredState` to
//!    [`NodeBuilder::recover`](escape_core::engine::NodeBuilder::recover),
//!    which restores term/vote/log/configuration and feeds the snapshot
//!    bytes back into the state machine.
//!
//! Durability contract: the engine syncs the WAL before any action
//! produced by a persistent-state mutation is handed to the transport, so
//! a vote or append that a peer has *seen* is always on disk.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod faults;
pub mod record;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use faults::{tear_wal_tail, FaultSpec, FaultStats, FaultyStorage};
pub use record::WalRecord;
pub use store::WalStorage;
pub use wal::{Wal, WalInstruments, WalOptions};

#[cfg(test)]
pub(crate) mod test_util {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique, freshly created scratch directory under the system temp
    /// dir (no tempfile crate in the offline build environment).
    pub fn scratch_dir(label: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "escape-storage-test-{}-{label}-{n}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }
}
