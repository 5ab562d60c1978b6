//! Leader-election half of the engine: campaign initiation, vote granting,
//! vote counting, and leadership assumption.
//!
//! This file implements §II-A's rules verbatim; everything protocol-specific
//! (timeout values, term growth, the confClock admissibility rule) is asked
//! of the [`ElectionPolicy`](crate::policy::ElectionPolicy).

use escape_obs::Event;

use super::{Action, Node, Progress};
use crate::message::{Message, RequestVoteArgs, RequestVoteReply};
use crate::time::Time;
use crate::types::{Role, ServerId};

impl Node {
    /// The election timer fired: become a candidate and solicit votes
    /// (Fig. 1's follower → candidate transition, also candidate →
    /// candidate on a repeat timeout).
    pub(super) fn on_election_timeout(&mut self, now: Time, out: &mut Vec<Action>) {
        if self.role == Role::Leader {
            // A stale fire that raced leadership assumption.
            return;
        }
        // Detection instant, stamped with the term the silence was
        // observed under — the timeline splits detect from campaign here.
        self.emit(
            now,
            Event::ElectionTimeout {
                term: self.current_term.get(),
            },
        );
        self.campaign(now, out);
    }

    /// Becomes a candidate and solicits votes: the body of an election
    /// timeout, and of [`Node::start`]'s boot campaign (which detected
    /// nothing, so records no `ElectionTimeout`).
    pub(super) fn campaign(&mut self, now: Time, out: &mut Vec<Action>) {
        self.role = Role::Candidate;
        self.metrics.elections_started += 1;

        // Eq. 2: advance the term by the policy's increment (1 for Raft,
        // the priority for Z-Raft/ESCAPE).
        self.current_term = self
            .current_term
            .advanced_by(self.policy.term_increment());
        self.voted_for = Some(self.id);
        // Durable before the solicitations go out: a candidate that forgot
        // this campaign could re-campaign in the same term after a crash.
        self.persist_hard_state();
        self.votes_granted.clear();
        self.votes_granted.insert(self.id);
        self.watch.forget(now, out);

        self.emit(
            now,
            Event::CampaignStarted {
                term: self.current_term.get(),
            },
        );

        if self.votes_granted.len() >= self.quorum() {
            // Single-node cluster: instant leadership.
            self.become_leader(now, out);
            return;
        }

        let last = self.log.last_position();
        let args = RequestVoteArgs {
            term: self.current_term,
            candidate_id: self.id,
            last_log_index: last.index,
            last_log_term: last.term,
            conf_clock: self.policy.campaign_conf_clock(),
        };
        let broadcast = self.next_broadcast_id();
        for i in 0..self.peers.len() {
            // lint:allow(panic): i < peers.len() by the loop bound
            let peer = self.peers[i];
            self.send(peer, Message::RequestVote(args), Some(broadcast), out);
        }

        // Re-arm for a possible repeat campaign (split votes / lost votes),
        // and retransmit solicitations within the campaign so a lossy
        // network does not cost a full timeout.
        self.arm_election_timer(now, out);
        self.arm_vote_retry_timer(now, out);
    }

    /// The vote-retransmission timer fired: re-solicit peers that have not
    /// granted yet (voters are idempotent for the same candidate and term).
    pub(super) fn on_vote_retry_timeout(&mut self, now: Time, out: &mut Vec<Action>) {
        if self.role != Role::Candidate {
            return;
        }
        let last = self.log.last_position();
        let args = RequestVoteArgs {
            term: self.current_term,
            candidate_id: self.id,
            last_log_index: last.index,
            last_log_term: last.term,
            conf_clock: self.policy.campaign_conf_clock(),
        };
        let broadcast = self.next_broadcast_id();
        for i in 0..self.peers.len() {
            // lint:allow(panic): i < peers.len() by the loop bound
            let peer = self.peers[i];
            if !self.votes_granted.contains(&peer) {
                self.send(peer, Message::RequestVote(args), Some(broadcast), out);
            }
        }
        self.arm_vote_retry_timer(now, out);
    }

    /// A vote solicitation arrived.
    pub(super) fn on_request_vote(
        &mut self,
        from: ServerId,
        args: RequestVoteArgs,
        now: Time,
        out: &mut Vec<Action>,
    ) {
        debug_assert_eq!(from, args.candidate_id);
        // Rule 1: refuse campaigns from older terms. (A higher term was
        // already adopted in handle_message, so != means strictly older.)
        let granted = if args.term != self.current_term {
            false
        } else {
            // Rule 2: one vote per term.
            let vote_free = match self.voted_for {
                None => true,
                Some(v) => v == args.candidate_id,
            };
            // Rule 3 and ESCAPE's confClock rule.
            let candidate_ok = self.candidate_acceptable(&args);
            // Lease vote fence (only when leases are in force): refuse to
            // elect anyone until every lease the last-heard leader could
            // hold has provably expired — lease × 5/4 of silence, the
            // margin covering clock-rate drift. Quorum intersection turns
            // this local rule into the global handoff-safety guarantee
            // (see README, "Linearizable reads").
            let fence_ok = !self.watch.vote_fenced(now);
            if !fence_ok {
                self.metrics.votes_lease_fenced += 1;
                let lapses_in = self
                    .watch
                    .fence_lapse()
                    .map_or(0, |lapse| (lapse - now).as_micros());
                self.emit(
                    now,
                    Event::VoteFenced {
                        term: args.term.get(),
                        lapses_in_micros: lapses_in,
                    },
                );
                if vote_free && candidate_ok {
                    self.watch.defer_vote(args, out);
                }
            }
            vote_free && candidate_ok && fence_ok
        };

        if granted {
            self.grant_vote(args.candidate_id, now, out);
        } else {
            self.metrics.votes_rejected += 1;
        }

        let reply = RequestVoteReply {
            term: self.current_term,
            vote_granted: granted,
        };
        self.send(from, Message::RequestVoteReply(reply), None, out);
    }

    /// Rule 3 (the candidate's log is at least as up-to-date as ours) and
    /// the policy's own admissibility rule (ESCAPE: its confClock is not
    /// stale).
    fn candidate_acceptable(&self, args: &RequestVoteArgs) -> bool {
        self.log.candidate_is_up_to_date(crate::log::LogPosition {
            index: args.last_log_index,
            term: args.last_log_term,
        }) && self.policy.candidate_admissible(args)
    }

    /// Records the vote for `candidate`; the caller sends the grant.
    fn grant_vote(&mut self, candidate: ServerId, now: Time, out: &mut Vec<Action>) {
        self.voted_for = Some(candidate);
        // Durable before the grant is sent (Election Safety): a voter
        // that forgets this vote could grant another in the same term.
        self.persist_hard_state();
        self.metrics.votes_granted += 1;
        // Granting a vote concedes the current campaign window to the
        // candidate: push our own timer back.
        self.arm_election_timer(now, out);
    }

    /// The vote fence lapsed: grant the solicitation it refused, if this
    /// node is still in that term, has not voted, is unfenced (no leader
    /// spoke since) and still finds the candidate acceptable. The grant
    /// goes out as an unsolicited reply, which the candidate counts like
    /// any other.
    pub(super) fn on_fence_lapse(&mut self, now: Time, out: &mut Vec<Action>) {
        let Some(args) = self.watch.lapsed_vote(now) else {
            return;
        };
        if args.term != self.current_term
            || self.voted_for.is_some()
            || !self.candidate_acceptable(&args)
        {
            return;
        }
        self.grant_vote(args.candidate_id, now, out);
        let reply = RequestVoteReply {
            term: self.current_term,
            vote_granted: true,
        };
        self.send(
            args.candidate_id,
            Message::RequestVoteReply(reply),
            None,
            out,
        );
    }

    /// A vote reply arrived.
    pub(super) fn on_request_vote_reply(
        &mut self,
        from: ServerId,
        reply: RequestVoteReply,
        now: Time,
        out: &mut Vec<Action>,
    ) {
        if self.role != Role::Candidate || reply.term != self.current_term {
            // Stale reply from an earlier campaign, or we already won/lost.
            return;
        }
        if reply.vote_granted {
            self.votes_granted.insert(from);
            if self.votes_granted.len() >= self.quorum() {
                self.become_leader(now, out);
            }
        }
    }

    /// Votes from a majority collected: assume leadership.
    pub(super) fn become_leader(&mut self, now: Time, out: &mut Vec<Action>) {
        debug_assert_ne!(self.role, Role::Leader, "double leadership assumption");
        self.role = Role::Leader;
        self.watch.name(self.id, out);
        self.metrics.elections_won += 1;
        self.emit(
            now,
            Event::LeaderElected {
                term: self.current_term.get(),
            },
        );

        let next = self.log.last_index().next();
        let fresh = Progress {
            next,
            cap: self.options.max_inflight_appends,
            ..Progress::default()
        };
        self.progress.fill(fresh);
        self.matched_above_commit = 0;
        self.propose_times.clear();
        // A fresh leadership starts with no lease and no acked rounds: a
        // PPF promotee must earn its own quorum acks before lease-serving
        // reads, and `next` (the no-op below) is the first safe read
        // index (Raft §8 — older commits may sit above our commit index).
        self.reset_read_state();
        self.term_start_index = next;

        self.policy.became_leader(&self.peers);
        // The policy retired/restamped its own configuration on winning.
        self.persist_current_config();

        // Suspend the election timer (the "NA/∞" leader row of Fig. 5)
        // and the campaign retransmission.
        self.election_epoch += 1;
        self.vote_retry_epoch += 1;

        if self.options.leader_noop {
            self.log
                .append_new(self.current_term, crate::log::Payload::Noop);
            self.persist_last_entry();
        }

        out.push(Action::BecameLeader {
            term: self.current_term,
        });

        // Announce leadership immediately rather than waiting a heartbeat
        // interval — this is what actually ends the election (point E of
        // Fig. 2) and what resets the other candidates.
        self.heartbeat_round(now, out);
        self.arm_heartbeat_timer(now, out);

        // A single-node cluster can commit its no-op at once.
        self.advance_commit(now, out);
    }
}
