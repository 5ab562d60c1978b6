//! The typed event taxonomy: everything the workspace considers worth
//! tracing, as a `Copy` enum cheap enough to construct on the hot path.
//!
//! Events speak primitives (`u32` server/group ids, `u64` terms, indexes
//! and microsecond timestamps) rather than the workspace newtypes — this
//! crate sits below `escape-core`, so the newtypes are not visible here;
//! emit sites convert with `.get()` / `.as_micros()`.
//!
//! Two serializations, both total over the enum (escape-lint's event
//! rule enforces that every variant appears in each, plus in a test):
//!
//! * [`Event::encode`] — the machine-readable line format
//!   (`name k=v k=v`), stable across runs so the simnet determinism test
//!   can compare whole logs byte for byte.
//! * [`Event::render`] — the human-facing description used by log dumps
//!   and the demo.

use std::fmt::Write as _;

/// One traced occurrence. Variants cover the failover pipeline
/// (detection → campaign → leadership → first commit), the PPF
/// configuration machinery, the lease/fence read path, snapshot
/// transfer, storage sync barriers, and transport health.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A follower/candidate's election timer expired: the failure
    /// detector fired. This is the *detection* point of a failover.
    ElectionTimeout {
        /// Term the node held when the timer fired (pre-campaign).
        term: u64,
    },
    /// The node became a candidate and solicited votes (term already
    /// advanced by the policy's increment).
    CampaignStarted {
        /// The campaign's term.
        term: u64,
    },
    /// The node collected a quorum and assumed leadership.
    LeaderElected {
        /// The leadership term.
        term: u64,
    },
    /// Leader/candidate fell back to follower.
    SteppedDown {
        /// The term stepped down into.
        term: u64,
    },
    /// The transport saw the leader's process close its connection, and
    /// this follower moved its election deadline earlier: the failure
    /// hint that lets detection end one vote fence after the leader's
    /// last leased round (at once when it held no lease) instead of a
    /// full election timeout.
    FailureHinted {
        /// The follower's current term.
        term: u64,
        /// How far the deadline moved, in microseconds.
        advance_micros: u64,
    },
    /// A vote was refused by the lease fence (a leased round was heard
    /// too recently for the lease it backs to have provably expired).
    VoteFenced {
        /// The voter's current term.
        term: u64,
        /// How long the fence still stands, in microseconds: when the
        /// refused candidate can have this vote at the earliest.
        lapses_in_micros: u64,
    },
    /// A quorum-acked round extended the leader's read lease.
    LeaseExtended {
        /// New lease expiry, microseconds on the emitting clock.
        until_micros: u64,
    },
    /// The leader's policy issued a PPF configuration rearrangement.
    RearrangementIssued {
        /// The configuration clock stamped on the rearrangement.
        conf_clock: u64,
    },
    /// A follower adopted a fresher configuration off a heartbeat.
    ConfigAdopted {
        /// The adopted configuration's clock.
        conf_clock: u64,
    },
    /// The leader shipped a snapshot to a lagging follower.
    SnapshotSent {
        /// Destination server id.
        to: u32,
        /// The snapshot's last included index.
        index: u64,
    },
    /// A follower installed a leader's snapshot.
    SnapshotInstalled {
        /// The snapshot's last included index.
        index: u64,
    },
    /// The first commit of a fresh leadership: the entry that proves the
    /// new leader can make progress. Ends a failover timeline.
    FirstCommit {
        /// The leadership term.
        term: u64,
        /// The committed index.
        index: u64,
    },
    /// The engine flushed buffered storage records (one WAL group-commit
    /// barrier: one write + one fdatasync).
    WalSyncBarrier,
    /// A transport connection to a peer was (re)established.
    PeerConnected {
        /// The peer's server id.
        peer: u32,
    },
    /// A transport connection to a peer broke.
    PeerDisconnected {
        /// The peer's server id.
        peer: u32,
    },
    /// A queued frame to a peer was dropped (bounded-queue overflow or a
    /// broken connection discarding its backlog).
    FrameDropped {
        /// The peer the frame was addressed to.
        peer: u32,
    },
    /// Harness-injected: the node's process was killed. Starts a
    /// failover timeline when the victim led.
    NodeKilled,
    /// Harness-injected: the node's process restarted and re-entered the
    /// cluster.
    NodeRestarted,
    /// Fault-injected: an fsync was acknowledged but silently dropped —
    /// the buffered suffix will be missing after the next crash.
    FsyncLied,
    /// Fault-injected: a storage operation hit a transient IO error
    /// (absorbed by an internal retry; counted for the campaign report).
    IoErrorInjected,
    /// Fault-injected: the disk reported full; the node must fail-stop.
    DiskFull,
    /// Recovery truncated a torn tail off the newest WAL segment
    /// (crash mid-write, or an injected tear).
    WalTailTruncated {
        /// Bytes dropped from the end of the segment.
        lost_bytes: u64,
    },
}

impl Event {
    /// The variant's stable machine name (the first token of
    /// [`Event::encode`]'s output).
    pub fn name(&self) -> &'static str {
        match self {
            Event::ElectionTimeout { .. } => "election_timeout",
            Event::CampaignStarted { .. } => "campaign_started",
            Event::LeaderElected { .. } => "leader_elected",
            Event::SteppedDown { .. } => "stepped_down",
            Event::FailureHinted { .. } => "failure_hinted",
            Event::VoteFenced { .. } => "vote_fenced",
            Event::LeaseExtended { .. } => "lease_extended",
            Event::RearrangementIssued { .. } => "rearrangement_issued",
            Event::ConfigAdopted { .. } => "config_adopted",
            Event::SnapshotSent { .. } => "snapshot_sent",
            Event::SnapshotInstalled { .. } => "snapshot_installed",
            Event::FirstCommit { .. } => "first_commit",
            Event::WalSyncBarrier => "wal_sync_barrier",
            Event::PeerConnected { .. } => "peer_connected",
            Event::PeerDisconnected { .. } => "peer_disconnected",
            Event::FrameDropped { .. } => "frame_dropped",
            Event::NodeKilled => "node_killed",
            Event::NodeRestarted => "node_restarted",
            Event::FsyncLied => "fsync_lied",
            Event::IoErrorInjected => "io_error_injected",
            Event::DiskFull => "disk_full",
            Event::WalTailTruncated { .. } => "wal_tail_truncated",
        }
    }

    /// Appends the machine-readable form (`name k=v k=v`, no trailing
    /// separator) to `out`. Field order is fixed, so identical event
    /// streams encode to identical bytes.
    pub fn encode(&self, out: &mut String) {
        out.push_str(self.name());
        // Writing into a String cannot fail; the results are discarded.
        match *self {
            Event::ElectionTimeout { term } => {
                let _ = write!(out, " term={term}");
            }
            Event::CampaignStarted { term } => {
                let _ = write!(out, " term={term}");
            }
            Event::LeaderElected { term } => {
                let _ = write!(out, " term={term}");
            }
            Event::SteppedDown { term } => {
                let _ = write!(out, " term={term}");
            }
            Event::FailureHinted {
                term,
                advance_micros,
            } => {
                let _ = write!(out, " term={term} advance_micros={advance_micros}");
            }
            Event::VoteFenced {
                term,
                lapses_in_micros,
            } => {
                let _ = write!(out, " term={term} lapses_in_micros={lapses_in_micros}");
            }
            Event::LeaseExtended { until_micros } => {
                let _ = write!(out, " until_micros={until_micros}");
            }
            Event::RearrangementIssued { conf_clock } => {
                let _ = write!(out, " conf_clock={conf_clock}");
            }
            Event::ConfigAdopted { conf_clock } => {
                let _ = write!(out, " conf_clock={conf_clock}");
            }
            Event::SnapshotSent { to, index } => {
                let _ = write!(out, " to={to} index={index}");
            }
            Event::SnapshotInstalled { index } => {
                let _ = write!(out, " index={index}");
            }
            Event::FirstCommit { term, index } => {
                let _ = write!(out, " term={term} index={index}");
            }
            Event::WalSyncBarrier => {}
            Event::PeerConnected { peer } => {
                let _ = write!(out, " peer={peer}");
            }
            Event::PeerDisconnected { peer } => {
                let _ = write!(out, " peer={peer}");
            }
            Event::FrameDropped { peer } => {
                let _ = write!(out, " peer={peer}");
            }
            Event::NodeKilled => {}
            Event::NodeRestarted => {}
            Event::FsyncLied => {}
            Event::IoErrorInjected => {}
            Event::DiskFull => {}
            Event::WalTailTruncated { lost_bytes } => {
                let _ = write!(out, " lost_bytes={lost_bytes}");
            }
        }
    }

    /// The human-facing one-line description.
    pub fn render(&self) -> String {
        match *self {
            Event::ElectionTimeout { term } => {
                format!("election timer expired at term {term}")
            }
            Event::CampaignStarted { term } => {
                format!("started campaign for term {term}")
            }
            Event::LeaderElected { term } => {
                format!("won the election for term {term}")
            }
            Event::SteppedDown { term } => {
                format!("stepped down to follower at term {term}")
            }
            Event::FailureHinted {
                term,
                advance_micros,
            } => {
                format!(
                    "leader closed its connection at term {term}: election deadline \
                     moved {advance_micros}us earlier"
                )
            }
            Event::VoteFenced {
                term,
                lapses_in_micros,
            } => {
                format!(
                    "refused a vote at term {term}: lease fence in force for \
                     {lapses_in_micros}us more"
                )
            }
            Event::LeaseExtended { until_micros } => {
                format!("read lease extended until {until_micros}us")
            }
            Event::RearrangementIssued { conf_clock } => {
                format!("issued PPF rearrangement at conf clock {conf_clock}")
            }
            Event::ConfigAdopted { conf_clock } => {
                format!("adopted configuration at conf clock {conf_clock}")
            }
            Event::SnapshotSent { to, index } => {
                format!("sent snapshot through index {index} to server {to}")
            }
            Event::SnapshotInstalled { index } => {
                format!("installed snapshot through index {index}")
            }
            Event::FirstCommit { term, index } => {
                format!("first commit of term {term} at index {index}")
            }
            Event::WalSyncBarrier => "WAL sync barrier (group commit flushed)".to_string(),
            Event::PeerConnected { peer } => {
                format!("connected to peer {peer}")
            }
            Event::PeerDisconnected { peer } => {
                format!("lost connection to peer {peer}")
            }
            Event::FrameDropped { peer } => {
                format!("dropped a queued frame to peer {peer}")
            }
            Event::NodeKilled => "killed by the harness".to_string(),
            Event::NodeRestarted => "restarted by the harness".to_string(),
            Event::FsyncLied => "fsync acked but silently dropped (injected)".to_string(),
            Event::IoErrorInjected => "transient IO error injected into storage".to_string(),
            Event::DiskFull => "disk full: storage refused the write".to_string(),
            Event::WalTailTruncated { lost_bytes } => {
                format!("recovery truncated a {lost_bytes}-byte torn WAL tail")
            }
        }
    }
}

/// An [`Event`] stamped with when it happened, as recorded in a node's
/// ring buffer. `at_micros` is deterministic virtual time under the
/// simulator and monotonic wall time under the TCP transport.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimedEvent {
    /// Microseconds on the emitting runtime's clock.
    pub at_micros: u64,
    /// The occurrence.
    pub event: Event,
}

impl TimedEvent {
    /// Appends the stable line form `at_micros name k=v` to `out`,
    /// newline-terminated. Concatenating a whole log gives the byte
    /// stream the determinism test compares.
    pub fn encode_line(&self, out: &mut String) {
        let _ = write!(out, "{} ", self.at_micros);
        self.event.encode(out);
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One instance of every variant — the corpus the exhaustiveness
    /// rule counts over, and the encode/render smoke test.
    fn corpus() -> Vec<Event> {
        vec![
            Event::ElectionTimeout { term: 3 },
            Event::CampaignStarted { term: 4 },
            Event::LeaderElected { term: 4 },
            Event::SteppedDown { term: 5 },
            Event::FailureHinted {
                term: 3,
                advance_micros: 25_000,
            },
            Event::VoteFenced {
                term: 4,
                lapses_in_micros: 1_500,
            },
            Event::LeaseExtended { until_micros: 1_000_000 },
            Event::RearrangementIssued { conf_clock: 7 },
            Event::ConfigAdopted { conf_clock: 7 },
            Event::SnapshotSent { to: 2, index: 100 },
            Event::SnapshotInstalled { index: 100 },
            Event::FirstCommit { term: 4, index: 101 },
            Event::WalSyncBarrier,
            Event::PeerConnected { peer: 2 },
            Event::PeerDisconnected { peer: 2 },
            Event::FrameDropped { peer: 3 },
            Event::NodeKilled,
            Event::NodeRestarted,
            Event::FsyncLied,
            Event::IoErrorInjected,
            Event::DiskFull,
            Event::WalTailTruncated { lost_bytes: 12 },
        ]
    }

    #[test]
    fn every_variant_encodes_to_its_name() {
        for event in corpus() {
            let mut line = String::new();
            event.encode(&mut line);
            assert!(
                line.starts_with(event.name()),
                "{line:?} must start with {:?}",
                event.name()
            );
            // Fields follow the name after a space, or nothing follows.
            let rest = &line[event.name().len()..];
            assert!(rest.is_empty() || rest.starts_with(' '), "bad encoding {line:?}");
        }
    }

    #[test]
    fn every_variant_renders_nonempty_prose() {
        for event in corpus() {
            let prose = event.render();
            assert!(!prose.is_empty());
            // Prose is for humans: no `k=v` machine residue.
            assert!(!prose.contains('='), "{prose:?} leaks machine form");
        }
    }

    #[test]
    fn names_are_unique_and_stable() {
        let mut names: Vec<&str> = corpus().iter().map(|e| e.name()).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate event names");
        assert!(names.contains(&"frame_dropped"));
        assert!(names.contains(&"first_commit"));
    }

    #[test]
    fn timed_event_line_is_stable() {
        let timed = TimedEvent {
            at_micros: 1500,
            event: Event::LeaderElected { term: 9 },
        };
        let mut line = String::new();
        timed.encode_line(&mut line);
        assert_eq!(line, "1500 leader_elected term=9\n");
    }
}
