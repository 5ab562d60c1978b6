//! The failure detector, in one place: what a follower watches of its
//! leader ([`LeaderWatch`]) and what a leader holds of its lease
//! ([`Lease`]). [`Node`] owns one of each and delegates to them; the
//! election and replication code only asks.
//!
//! A follower names the leader it last heard, measures the hint of a
//! closed connection from its last contact, fences its vote from the last
//! *leased* round it heard, and grants the vote that fence alone refused
//! when it lapses. While it names no leader, and its policy has a timeout
//! floor, it arms a timer that announces [`Action::LeaderKnown`]: the
//! leader's name the moment one is heard or the node wins, or `None` each
//! time one floor passes with none — so a host that holds refusals
//! naming no leader knows when to answer them. A leader leases a round
//! only while a read reached it within one lease, and extends its lease
//! from the quorum-acknowledged rounds of the current leased period.
//!
//! Four invariants tie the two sides together. Each is checked in debug
//! builds where its state changes.
//!
//! 1. **The fence covers every lease the leader could hold.** A lease is
//!    extended only from a leased round a quorum acknowledged, to the
//!    round's start plus the lease. Each voter in that quorum heard the
//!    round no earlier than its start and refuses every vote for
//!    lease × 5/4 from then, so the lease ends before any quorum can elect
//!    a successor; the quarter covers clock-rate drift. Checked where
//!    [`Lease`] extends the lease.
//! 2. **A hint never moves a deadline inside the fence.** A closed
//!    connection moves the election deadline earlier, but never before
//!    the fence lapses, so the hint cannot make a voter campaign while a
//!    lease it backs may hold. Checked where [`LeaderWatch`] moves the
//!    deadline.
//! 3. **No ack of an unleased round backs a lease.** A peer's ack counts
//!    for every round up to the one it echoes, and a peer that acked only
//!    an unleased round is not fenced. So only the current leased
//!    period's rounds are kept for extension, and the period ends with the
//!    first unleased round. Checked where [`Lease`] folds a confirmed
//!    round into the lease.
//! 4. **A held refusal is answered one floor after it was made, at the
//!    latest.** A refusal that names no leader is made only while the
//!    `LeaderKnown` timer is armed at most one floor out, and the timer
//!    re-arms each time it fires with no leader. Checked where the node
//!    refuses.

use std::collections::VecDeque;

use escape_obs::{Event, Observer};

use super::{Action, Node, ProposeError, TimerKind, TimerToken};
use crate::message::{AppendEntriesArgs, RequestVoteArgs};
use crate::time::{Duration, Time};
use crate::types::ServerId;

/// Cap on remembered-but-unconfirmed round issue times. Only reachable
/// when quorum acks stop entirely (a partitioned leader); dropping the
/// oldest merely forgoes a lease extension, which is the safe direction.
const ROUND_STARTS_MAX: usize = 1024;

impl Node {
    /// The silence a voter must observe before granting a vote while
    /// leases are in force: lease × 5/4, the 25 % margin covering clock-
    /// rate drift between the leaseholder and the voter.
    pub(super) fn lease_fence(lease: Duration) -> Duration {
        Duration::from_micros(lease.as_micros().saturating_mul(5) / 4)
    }
}

/// The follower side of the failure detector: the leader this node names,
/// when it last heard one, the vote fence, and the `LeaderKnown` timer.
#[derive(Debug, Default)]
pub(super) struct LeaderWatch {
    /// The policy's timeout floor, `None` when it cannot know one.
    floor: Option<Duration>,
    /// The lease in force (see [`Lease`]), `None` without leases.
    lease: Option<Duration>,
    /// The last known leader (this node, while it leads).
    leader_hint: Option<ServerId>,
    /// Last time a leader was heard (`AppendEntries` / `InstallSnapshot`),
    /// across terms: what a closed connection's hint measures from.
    last_leader_contact: Option<Time>,
    /// Last time a leased `AppendEntries` arrived, across terms. The lease
    /// vote fence runs from here.
    leased_contact: Option<Time>,
    /// A solicitation refused only because of the vote fence, granted
    /// when the fence lapses if this node is still in its term and has
    /// not voted (the `FenceLapse` timer).
    fenced_vote: Option<RequestVoteArgs>,
    fence_lapse_epoch: u64,
    /// When the armed `LeaderKnown` timer fires: `Some` exactly while an
    /// [`Action::LeaderKnown`] is owed.
    known_due: Option<Time>,
    known_epoch: u64,
}

impl LeaderWatch {
    /// A watch under a policy with timeout floor `floor`, with `lease` in
    /// force. Both are fixed for the node's life.
    pub(super) fn new(floor: Option<Duration>, lease: Option<Duration>) -> Self {
        LeaderWatch {
            floor,
            lease,
            ..LeaderWatch::default()
        }
    }

    /// The leader this node names.
    pub(super) fn hint(&self) -> Option<ServerId> {
        self.leader_hint
    }

    /// `true` while an [`Action::LeaderKnown`] is owed.
    pub(super) fn awaiting(&self) -> bool {
        self.known_due.is_some()
    }

    /// When the last leased `AppendEntries` arrived.
    #[cfg(test)]
    pub(super) fn leased_contact(&self) -> Option<Time> {
        self.leased_contact
    }

    /// `true` if `token` is the live arming of a timer this watch owns.
    pub(super) fn owns(&self, token: TimerToken) -> bool {
        match token.kind {
            TimerKind::FenceLapse => token.epoch == self.fence_lapse_epoch,
            TimerKind::LeaderKnown => token.epoch == self.known_epoch,
            _ => false,
        }
    }

    /// A restarted process: no leader named, none heard, no vote kept,
    /// and every timer armed before the crash void.
    pub(super) fn restart(&mut self) {
        *self = LeaderWatch {
            fence_lapse_epoch: self.fence_lapse_epoch + 1,
            known_epoch: self.known_epoch + 1,
            ..LeaderWatch::new(self.floor, self.lease)
        };
    }

    /// A current-term `AppendEntries` (`leased` or not) or
    /// `InstallSnapshot` from `leader` arrived at `now`.
    pub(super) fn heard(
        &mut self,
        leader: ServerId,
        leased: bool,
        now: Time,
        out: &mut Vec<Action>,
    ) {
        self.last_leader_contact = Some(now);
        if leased {
            self.leased_contact = Some(now);
        }
        self.name(leader, out);
    }

    /// Names `leader` (a leader heard, or this node on winning). The first
    /// name after none is announced, and the `LeaderKnown` timer is off.
    pub(super) fn name(&mut self, leader: ServerId, out: &mut Vec<Action>) {
        if self.leader_hint.replace(leader).is_none() {
            self.known_due = None;
            self.known_epoch += 1;
            out.push(Action::LeaderKnown(Some(leader)));
        }
    }

    /// Names no leader from `now` on (none is named at boot either), and
    /// arms the `LeaderKnown` timer one floor out unless it is armed
    /// already or there is no floor.
    pub(super) fn forget(&mut self, now: Time, out: &mut Vec<Action>) {
        self.leader_hint = None;
        let (None, Some(floor)) = (self.known_due, self.floor) else {
            return;
        };
        let due = now + floor;
        self.known_due = Some(due);
        self.known_epoch += 1;
        out.push(Action::SetTimer {
            token: TimerToken {
                kind: TimerKind::LeaderKnown,
                epoch: self.known_epoch,
            },
            deadline: due,
        });
    }

    /// The `LeaderKnown` timer fired: one floor passed with no leader
    /// named. Says so, and waits one more.
    pub(super) fn known_timer_fired(&mut self, now: Time, out: &mut Vec<Action>) {
        self.known_due = None;
        out.push(Action::LeaderKnown(None));
        self.forget(now, out);
    }

    /// The refusal a node that does not lead gives at `now`: `NotLeader`
    /// with the leader it names. One that names none is held by its host
    /// until the next [`Action::LeaderKnown`].
    pub(super) fn refusal(&self, now: Time) -> ProposeError {
        // Invariant 4.
        debug_assert!(
            match (self.leader_hint, self.floor) {
                (None, Some(floor)) => self.known_due.is_some_and(|due| due <= now + floor),
                _ => true,
            },
            "a refusal naming no leader would be held for more than one floor"
        );
        ProposeError::NotLeader {
            hint: self.leader_hint,
        }
    }

    /// When the lease vote fence lapses: one fence after the last leased
    /// `AppendEntries`. `None` without leases or without such a contact.
    pub(super) fn fence_lapse(&self) -> Option<Time> {
        Some(self.leased_contact? + Node::lease_fence(self.lease?))
    }

    /// `true` while the lease vote fence forbids granting any vote:
    /// leases are in force and a leased round was heard too recently for
    /// every lease it could back to have expired. An unleased round backs
    /// none, so it neither sets nor extends the fence.
    pub(super) fn vote_fenced(&self, now: Time) -> bool {
        self.fence_lapse().is_some_and(|lapse| now < lapse)
    }

    /// `peer`'s connection closed at `now`. If this node names `peer` its
    /// leader, it names none from now on, and the election deadline
    /// `armed` moves earlier by the floor minus what was left of the fence
    /// at the last contact — never before the fence lapses or `now`.
    /// Returns the moved deadline, or `None` if it would not be earlier.
    pub(super) fn closed(
        &mut self,
        peer: ServerId,
        now: Time,
        armed: Time,
        out: &mut Vec<Action>,
    ) -> Option<Time> {
        if self.leader_hint != Some(peer) {
            return None;
        }
        self.forget(now, out);
        let (floor, contact) = (self.floor?, self.last_leader_contact?);
        let lapse = self.fence_lapse();
        let fenced_for = lapse.map_or(Duration::ZERO, |lapse| lapse.saturating_since(contact));
        let deadline = armed
            .saturating_sub(floor.saturating_sub(fenced_for))
            .max(lapse.unwrap_or(Time::ZERO))
            .max(now);
        // Invariant 2.
        debug_assert!(
            lapse.map_or(true, |lapse| deadline >= lapse),
            "a hint moved the election deadline inside the vote fence"
        );
        (deadline < armed).then_some(deadline)
    }

    /// Keeps a solicitation the fence alone refused, to be granted when
    /// the fence lapses. The first candidate of a term keeps the slot; a
    /// higher term's replaces it.
    pub(super) fn defer_vote(&mut self, args: RequestVoteArgs, out: &mut Vec<Action>) {
        if self.fenced_vote.is_some_and(|held| held.term >= args.term) {
            return;
        }
        let Some(lapse) = self.fence_lapse() else {
            return;
        };
        self.fenced_vote = Some(args);
        self.fence_lapse_epoch += 1;
        out.push(Action::SetTimer {
            token: TimerToken {
                kind: TimerKind::FenceLapse,
                epoch: self.fence_lapse_epoch,
            },
            deadline: lapse,
        });
    }

    /// The fence lapsed: the solicitation it refused, unless a leased
    /// round heard since fenced this node again.
    pub(super) fn lapsed_vote(&mut self, now: Time) -> Option<RequestVoteArgs> {
        let args = self.fenced_vote.take()?;
        (!self.vote_fenced(now)).then_some(args)
    }
}

/// The leader side of the failure detector: read demand, the leased
/// period's rounds, and how long the lease holds.
#[derive(Debug, Default)]
pub(super) struct Lease {
    /// The lease in force: [`Options::lease_duration`](super::Options)
    /// capped by the policy's bound, fixed for the node's life. `None`
    /// disables leasing.
    duration: Option<Duration>,
    /// When a read last reached this leader (`Node::read_batch`, or
    /// `Node::lease_read` whether or not it answered): rounds opened
    /// within one lease of it are leased.
    last_read: Option<Time>,
    /// The first round of the current leased period, `0` while rounds go
    /// out unleased. Only this period's rounds may extend the lease (they
    /// alone are in `round_starts`): invariant 3.
    lease_since: u64,
    /// Issue times of the current leased period's rounds not yet
    /// quorum-confirmed, oldest first; confirmation converts them into
    /// lease extensions.
    round_starts: VecDeque<(u64, Time)>,
    /// While `now < lease_until` the leader serves reads with no network
    /// round. Starts at zero on every leadership assumption and grows
    /// only from rounds *this* leadership quorum-acked — a fresh PPF
    /// promotee cannot inherit a lease.
    lease_until: Time,
}

impl Lease {
    /// No lease yet, with `duration` in force.
    pub(super) fn new(duration: Option<Duration>) -> Self {
        Lease {
            duration,
            ..Lease::default()
        }
    }

    /// Forgets everything but the duration: a lease never crosses a
    /// leadership boundary.
    pub(super) fn reset(&mut self) {
        *self = Lease::new(self.duration);
    }

    /// A read reached this leader at `now`.
    pub(super) fn demand(&mut self, now: Time) {
        self.last_read = Some(now);
    }

    /// When a read last reached this leader.
    #[cfg(test)]
    pub(super) fn last_read(&self) -> Option<Time> {
        self.last_read
    }

    /// Restores the read demand [`Lease::last_read`] reported.
    #[cfg(test)]
    pub(super) fn set_last_read(&mut self, last_read: Option<Time>) {
        self.last_read = last_read;
    }

    /// Until when the lease holds.
    #[cfg(test)]
    pub(super) fn until(&self) -> Time {
        self.lease_until
    }

    /// `true` while leases are in force and this one holds at `now`.
    pub(super) fn holds(&self, now: Time) -> bool {
        self.duration.is_some() && now < self.lease_until
    }

    /// Opens broadcast round `round` at `now`. The round is leased while a
    /// read reached this leader within the last lease: its issue time is
    /// then kept for extension on its quorum ack.
    ///
    /// Leasing switches off with the first unleased round, and the pending
    /// issue times go: a quorum ack of a later round would confirm them,
    /// and a peer that missed the leased round and acked only the unleased
    /// one is not fenced. The lease already granted keeps the fences that
    /// back it. Switching on opens a new period at the round.
    pub(super) fn open(&mut self, round: u64, now: Time) {
        let demand = match (self.duration, self.last_read) {
            (Some(lease), Some(read)) => now < read + lease,
            _ => false,
        };
        if demand {
            if self.lease_since == 0 {
                self.lease_since = round;
            }
            if self.round_starts.len() >= ROUND_STARTS_MAX {
                self.round_starts.pop_front();
            }
            self.round_starts.push_back((round, now));
        } else {
            self.lease_since = 0;
            self.round_starts.clear();
        }
    }

    /// The `seq` every `AppendEntries` of round `round` carries: the round
    /// and its lease flag.
    pub(super) fn stamp(&self, round: u64) -> u64 {
        AppendEntriesArgs::stamp(round, self.lease_since != 0)
    }

    /// A quorum has acknowledged every round up to `confirmed`: each
    /// pending round of the leased period among them extends the lease to
    /// its own start plus the lease.
    pub(super) fn fold(&mut self, confirmed: u64, observer: &dyn Observer) {
        let Some(lease) = self.duration else {
            return;
        };
        while let Some(&(round, start)) = self.round_starts.front() {
            if round > confirmed {
                break;
            }
            self.round_starts.pop_front();
            // Invariant 3: only the current leased period's rounds are
            // kept (see `Lease::open`).
            debug_assert!(
                self.lease_since != 0 && round >= self.lease_since,
                "an unleased round's ack would back the lease"
            );
            let until = start + lease;
            if until > self.lease_until {
                // Invariant 1: each voter that acked the round is fenced
                // from no earlier than its start until after `until`.
                debug_assert!(
                    lease == Duration::ZERO || start + Node::lease_fence(lease) > until,
                    "the vote fence ends before the lease it backs"
                );
                self.lease_until = until;
                // Stamped with the round's issue time: the instant the
                // extension is measured from, deterministic in simnet.
                if observer.enabled() {
                    observer.record(
                        start.as_micros(),
                        Event::LeaseExtended {
                            until_micros: until.as_micros(),
                        },
                    );
                }
            }
        }
    }
}
