//! Protocol messages.
//!
//! The shapes mirror the paper's Listing 1: stock Raft RPC arguments plus the
//! ESCAPE extension fields (`newConfig` on `AppendEntries`, `configStatus` on
//! its reply, and the candidate's configuration clock on `RequestVote`). The
//! extension fields are `Option`s so the same message types serve all three
//! election policies — a plain Raft node simply never populates them, which
//! is also what makes Lemma 2 (indistinguishability) hold structurally.

use bytes::Bytes;

use crate::config::Configuration;
use crate::log::Entry;
use crate::time::Duration;
use crate::types::{ConfClock, LogIndex, ServerId, Term};

/// `AppendEntries` RPC arguments (log replication *and* heartbeat).
///
/// Matches Listing 1's `AppendEntriesArgs`, including the ESCAPE-only
/// `new_config` field used by the probing patrol function to distribute
/// rearranged configurations piggybacked on heartbeats.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppendEntriesArgs {
    /// Leader's term.
    pub term: Term,
    /// So followers can redirect clients.
    pub leader_id: ServerId,
    /// Index of the log entry immediately preceding the new ones.
    pub prev_log_index: LogIndex,
    /// Term of the entry at `prev_log_index`.
    pub prev_log_term: Term,
    /// Entries to store (empty for pure heartbeats).
    pub entries: Vec<Entry>,
    /// Leader's commit index.
    pub leader_commit: LogIndex,
    /// ESCAPE: newly assigned configuration for this follower (`newConfig`).
    pub new_config: Option<Configuration>,
    /// Broadcast-round stamp ([`AppendEntriesArgs::stamp`]): the leader's
    /// monotone round counter at send time, shifted up one bit above the
    /// round's lease flag, echoed verbatim in the reply. Round `0` means
    /// "no round information" (e.g. refusal replies) and never confirms
    /// anything.
    pub seq: u64,
}

impl AppendEntriesArgs {
    /// The `seq` stamp of broadcast round `round`: the round number above
    /// its lease flag, so ordering stamps orders rounds and every message
    /// of a round carries that round's flag.
    pub const fn stamp(round: u64, lease: bool) -> u64 {
        (round << 1) | lease as u64
    }

    /// The broadcast round this message belongs to (`0`: none).
    pub const fn round(&self) -> u64 {
        self.seq >> 1
    }

    /// Whether the round backs a read lease: the leader served reads
    /// within the last lease when it opened the round. A voter fences
    /// itself from the last leased `AppendEntries` it received, and only
    /// acks of leased rounds extend a lease.
    pub const fn lease(&self) -> bool {
        self.seq & 1 == 1
    }
}

/// Follower-reported status piggybacked on `AppendEntries` replies
/// (Listing 1's `configStatus`): the input the probing patrol function uses
/// to rank servers by log responsiveness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConfigStatus {
    /// The follower's last log index — its "log responsiveness".
    pub log_index: LogIndex,
    /// The election-timeout period the follower currently runs with.
    pub timer_period: Duration,
    /// The configuration clock of the follower's current configuration.
    pub conf_clock: ConfClock,
}

/// `AppendEntries` RPC reply (Listing 1's `AEReplyArgs`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AppendEntriesReply {
    /// Replier's current term, for the leader to update itself.
    pub term: Term,
    /// `true` if the follower's log matched `prev_log_index`/`prev_log_term`
    /// and the entries were appended.
    pub success: bool,
    /// On success: the highest index the replier *knows* matches the leader
    /// (`prev_log_index` + entries processed) — the leader's new
    /// `match_index`. On failure: the replier's last log index, capping the
    /// leader's backtracking probe.
    pub match_hint: LogIndex,
    /// ESCAPE: the follower's responsiveness report (`status`).
    pub status: Option<ConfigStatus>,
    /// Echo of the request's [`AppendEntriesArgs::seq`]: by replying at
    /// all under the leader's term the follower acknowledges that round,
    /// which is what lets the leader confirm leadership for queued reads
    /// without a dedicated RPC. `0` when the request carried no round.
    pub seq: u64,
}

impl AppendEntriesReply {
    /// The broadcast round the reply acknowledges (`0`: none).
    pub const fn round(&self) -> u64 {
        self.seq >> 1
    }
}

/// `InstallSnapshot` RPC arguments (Raft §7): ships the state-machine
/// state to a follower whose needed entries were compacted away.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstallSnapshotArgs {
    /// Leader's term.
    pub term: Term,
    /// So followers can redirect clients.
    pub leader_id: ServerId,
    /// The snapshot replaces everything up to this index.
    pub last_included_index: LogIndex,
    /// Term of the entry at `last_included_index`.
    pub last_included_term: Term,
    /// Serialized state-machine state.
    pub data: Bytes,
}

/// `InstallSnapshot` RPC reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InstallSnapshotReply {
    /// Replier's current term.
    pub term: Term,
    /// The index through which the replier's state now matches the leader
    /// (the snapshot point on success; its last index otherwise).
    pub match_hint: LogIndex,
}

/// `RequestVote` RPC arguments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestVoteArgs {
    /// Candidate's term (already advanced per Eq. 2).
    pub term: Term,
    /// Candidate requesting the vote.
    pub candidate_id: ServerId,
    /// Index of the candidate's last log entry.
    pub last_log_index: LogIndex,
    /// Term of the candidate's last log entry.
    pub last_log_term: Term,
    /// ESCAPE: candidate's configuration clock. Voters refuse candidates
    /// whose clock is older than their own (§IV-B). `None` under policies
    /// that do not patrol configurations.
    pub conf_clock: Option<ConfClock>,
}

/// `RequestVote` RPC reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestVoteReply {
    /// Replier's current term.
    pub term: Term,
    /// Whether the vote was granted.
    pub vote_granted: bool,
}

/// Any message exchanged between servers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Log replication / heartbeat request.
    AppendEntries(AppendEntriesArgs),
    /// Response to [`Message::AppendEntries`].
    AppendEntriesReply(AppendEntriesReply),
    /// Leader-election vote solicitation.
    RequestVote(RequestVoteArgs),
    /// Response to [`Message::RequestVote`].
    RequestVoteReply(RequestVoteReply),
    /// State transfer to a compacted-away follower.
    InstallSnapshot(InstallSnapshotArgs),
    /// Response to [`Message::InstallSnapshot`].
    InstallSnapshotReply(InstallSnapshotReply),
}

impl Message {
    /// The term carried by this message (every Raft message carries one).
    pub fn term(&self) -> Term {
        match self {
            Message::AppendEntries(m) => m.term,
            Message::AppendEntriesReply(m) => m.term,
            Message::RequestVote(m) => m.term,
            Message::RequestVoteReply(m) => m.term,
            Message::InstallSnapshot(m) => m.term,
            Message::InstallSnapshotReply(m) => m.term,
        }
    }

    /// A short, stable name for traces and metrics.
    pub fn kind(&self) -> MessageKind {
        match self {
            Message::AppendEntries(_) => MessageKind::AppendEntries,
            Message::AppendEntriesReply(_) => MessageKind::AppendEntriesReply,
            Message::RequestVote(_) => MessageKind::RequestVote,
            Message::RequestVoteReply(_) => MessageKind::RequestVoteReply,
            Message::InstallSnapshot(_) => MessageKind::InstallSnapshot,
            Message::InstallSnapshotReply(_) => MessageKind::InstallSnapshotReply,
        }
    }

    /// `true` for request messages that leaders/candidates fan out to the
    /// whole cluster (the unit the paper's broadcast-omission loss model
    /// drops receivers from).
    pub fn is_broadcast_request(&self) -> bool {
        matches!(self, Message::AppendEntries(_) | Message::RequestVote(_))
    }

    /// Approximate serialized size in bytes, for traffic accounting in the
    /// simulator. This is the wire codec's framing-free payload estimate.
    pub fn approx_wire_size(&self) -> usize {
        const HEADER: usize = 16;
        match self {
            Message::AppendEntries(m) => {
                HEADER
                    + 40
                    + m.entries
                        .iter()
                        .map(|e| 24 + e.payload.len())
                        .sum::<usize>()
                    + if m.new_config.is_some() { 24 } else { 0 }
            }
            Message::AppendEntriesReply(_) => HEADER + 40,
            Message::RequestVote(_) => HEADER + 40,
            Message::RequestVoteReply(_) => HEADER + 9,
            Message::InstallSnapshot(m) => HEADER + 32 + m.data.len(),
            Message::InstallSnapshotReply(_) => HEADER + 16,
        }
    }
}

/// Discriminant-only view of [`Message`] for metrics and traces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// See [`Message::AppendEntries`].
    AppendEntries,
    /// See [`Message::AppendEntriesReply`].
    AppendEntriesReply,
    /// See [`Message::RequestVote`].
    RequestVote,
    /// See [`Message::RequestVoteReply`].
    RequestVoteReply,
    /// See [`Message::InstallSnapshot`].
    InstallSnapshot,
    /// See [`Message::InstallSnapshotReply`].
    InstallSnapshotReply,
}

impl std::fmt::Display for MessageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MessageKind::AppendEntries => "AppendEntries",
            MessageKind::AppendEntriesReply => "AppendEntriesReply",
            MessageKind::RequestVote => "RequestVote",
            MessageKind::RequestVoteReply => "RequestVoteReply",
            MessageKind::InstallSnapshot => "InstallSnapshot",
            MessageKind::InstallSnapshotReply => "InstallSnapshotReply",
        };
        f.write_str(s)
    }
}

/// Builds an empty-payload command for tests and examples.
pub fn noop_command() -> Bytes {
    Bytes::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heartbeat() -> Message {
        Message::AppendEntries(AppendEntriesArgs {
            term: Term::new(3),
            leader_id: ServerId::new(1),
            prev_log_index: LogIndex::new(4),
            prev_log_term: Term::new(2),
            entries: Vec::new(),
            leader_commit: LogIndex::new(4),
            new_config: None,
            seq: 0,
        })
    }

    #[test]
    fn term_is_extracted_from_every_variant() {
        assert_eq!(heartbeat().term(), Term::new(3));
        let rv = Message::RequestVote(RequestVoteArgs {
            term: Term::new(7),
            candidate_id: ServerId::new(2),
            last_log_index: LogIndex::ZERO,
            last_log_term: Term::ZERO,
            conf_clock: None,
        });
        assert_eq!(rv.term(), Term::new(7));
        let rvr = Message::RequestVoteReply(RequestVoteReply {
            term: Term::new(8),
            vote_granted: false,
        });
        assert_eq!(rvr.term(), Term::new(8));
        let aer = Message::AppendEntriesReply(AppendEntriesReply {
            term: Term::new(9),
            success: true,
            match_hint: LogIndex::new(1),
            status: None,
            seq: 0,
        });
        assert_eq!(aer.term(), Term::new(9));
    }

    #[test]
    fn a_stamp_orders_rounds_and_carries_the_lease_flag() {
        let args = |seq| AppendEntriesArgs {
            seq,
            ..match heartbeat() {
                Message::AppendEntries(a) => a,
                _ => unreachable!(),
            }
        };
        for round in [0, 1, 7, u64::MAX >> 1] {
            for lease in [false, true] {
                let stamped = args(AppendEntriesArgs::stamp(round, lease));
                assert_eq!((stamped.round(), stamped.lease()), (round, lease));
            }
        }
        assert!(AppendEntriesArgs::stamp(2, false) > AppendEntriesArgs::stamp(1, true));
    }

    #[test]
    fn broadcast_classification() {
        assert!(heartbeat().is_broadcast_request());
        let reply = Message::AppendEntriesReply(AppendEntriesReply {
            term: Term::ZERO,
            success: false,
            match_hint: LogIndex::ZERO,
            status: None,
            seq: 0,
        });
        assert!(!reply.is_broadcast_request());
    }

    #[test]
    fn kind_display_names_are_stable() {
        assert_eq!(heartbeat().kind().to_string(), "AppendEntries");
        assert_eq!(
            MessageKind::RequestVoteReply.to_string(),
            "RequestVoteReply"
        );
    }

    #[test]
    fn wire_size_counts_entries_and_config() {
        let mut args = match heartbeat() {
            Message::AppendEntries(a) => a,
            _ => unreachable!(),
        };
        let empty = Message::AppendEntries(args.clone()).approx_wire_size();
        args.entries.push(Entry {
            term: Term::new(1),
            index: LogIndex::new(5),
            payload: crate::log::Payload::Command(Bytes::from_static(b"hello")),
        });
        args.new_config = Some(Configuration::new(
            Duration::from_millis(1500),
            crate::types::Priority::new(3),
            ConfClock::new(1),
        ));
        let full = Message::AppendEntries(args).approx_wire_size();
        assert!(full > empty + 5);
    }
}
