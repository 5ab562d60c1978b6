//! Log-replication half of the engine: heartbeats, `AppendEntries`
//! processing, commit advancement, and state-machine application.
//!
//! The ESCAPE hooks live at the edges: the leader lets its policy rearrange
//! configurations at the start of every heartbeat round
//! ([`ElectionPolicy::begin_heartbeat_round`](crate::policy::ElectionPolicy::begin_heartbeat_round))
//! and piggybacks per-follower assignments on the outgoing heartbeats;
//! followers adopt fresher configurations and report their log
//! responsiveness back on the replies (Listing 1).

use escape_obs::Event;

use super::{nth_largest, Action, Node, Progress, SnapshotHandle};
use crate::log::{AppendOutcome, ReplicationSource};
use crate::message::{
    AppendEntriesArgs, AppendEntriesReply, InstallSnapshotArgs, InstallSnapshotReply, Message,
};
use crate::time::Time;
use crate::types::{LogIndex, Role, ServerId};

impl Node {
    /// The heartbeat timer fired: run one heartbeat round and re-arm.
    pub(super) fn on_heartbeat_timeout(&mut self, now: Time, out: &mut Vec<Action>) {
        if self.role != Role::Leader {
            return; // stale fire racing a step-down
        }
        self.heartbeat_round(now, out);
        self.arm_heartbeat_timer(now, out);
    }

    /// One leader-to-followers round: PPF rearrangement first, then each
    /// follower's replication pipeline is topped up ([`Node::pump_peer`]);
    /// a follower with nothing to ship (or a full pipeline) still gets an
    /// empty `AppendEntries` so the failure detector and the PPF
    /// configuration piggyback never miss a beat.
    pub(super) fn heartbeat_round(&mut self, now: Time, out: &mut Vec<Action>) {
        if self.policy.begin_heartbeat_round() {
            self.metrics.rearrangements_issued += 1;
            let conf_clock = self
                .policy
                .current_config()
                .map_or(0, |c| c.conf_clock.get());
            self.emit(now, Event::RearrangementIssued { conf_clock });
            // A rearrangement restamped the leader's own configuration
            // with the fresh clock; keep the durable copy current.
            self.persist_current_config();
        }
        let broadcast = self.next_broadcast_id();
        self.note_round(broadcast, now, out);
        for slot in 0..self.peers.len() {
            let before = out.len();
            self.pump_peer(slot, Some(broadcast), now, out);
            if out.len() == before {
                self.send_heartbeat(slot, Some(broadcast), now, out);
            }
        }
    }

    /// One dedicated leadership-confirmation round for queued reads: an
    /// empty `AppendEntries` per follower stamped with a fresh `seq`, no
    /// PPF rearrangement (reads must not accelerate the patrol clock).
    /// Returns the round id whose quorum ack confirms the batch.
    pub(super) fn confirm_round(&mut self, now: Time, out: &mut Vec<Action>) -> u64 {
        let broadcast = self.next_broadcast_id();
        self.note_round(broadcast, now, out);
        for slot in 0..self.peers.len() {
            self.send_heartbeat(slot, Some(broadcast), now, out);
        }
        broadcast
    }

    /// Drains every follower whose pipeline has both backlog and credit —
    /// the flush half of the dirty-peer model: [`Node::propose_batch`]
    /// appends (marking peers implicitly dirty by moving the log tail
    /// past their `next_index`), this fans out. Naturally a no-op for
    /// peers that are caught up or out of credit.
    pub(super) fn flush_replication(&mut self, now: Time, out: &mut Vec<Action>) {
        if self.role != Role::Leader {
            return;
        }
        let broadcast = self.next_broadcast_id();
        self.note_round(broadcast, now, out);
        for slot in 0..self.peers.len() {
            self.pump_peer(slot, Some(broadcast), now, out);
        }
    }

    /// Sends replication windows to the peer in `slot` until it is caught
    /// up, its pipeline credit ([`Progress::cap`]) is spent, or nothing
    /// useful can be sent. Each entry-carrying window advances
    /// [`Progress::next`] *optimistically* — the next window starts where
    /// the previous one ended instead of waiting for its ack — which is
    /// what turns replication into a pipeline; a rejection walks it back
    /// down (see [`Node::on_append_entries_reply`]).
    pub(super) fn pump_peer(
        &mut self,
        slot: usize,
        broadcast: Option<u64>,
        now: Time,
        out: &mut Vec<Action>,
    ) {
        let Some(&peer) = self.peers.get(slot) else {
            return;
        };
        loop {
            let Some(&Progress {
                next,
                inflight,
                cap,
                ..
            }) = self.progress.get(slot)
            else {
                return;
            };
            if inflight >= cap {
                return;
            }
            if next > self.log.last_index() {
                return; // caught up (or everything already in flight)
            }
            let source = self
                .log
                .replication_source(next.prev_saturating(), self.options.max_entries_per_append);
            match source {
                ReplicationSource::Entries {
                    prev_index,
                    prev_term,
                    entries,
                } => {
                    debug_assert!(!entries.is_empty(), "next <= last implies entries");
                    // lint:allow(panic): next <= last implies entries (debug_assert above)
                    let sent_through = entries.last().expect("non-empty").index;
                    let args = AppendEntriesArgs {
                        term: self.current_term,
                        leader_id: self.id,
                        prev_log_index: prev_index,
                        prev_log_term: prev_term,
                        entries,
                        leader_commit: self.commit_index,
                        new_config: self.policy.config_for(peer),
                        seq: self.broadcast_seq,
                    };
                    self.send(peer, Message::AppendEntries(args), broadcast, out);
                    self.note_sent(slot, sent_through.next());
                }
                ReplicationSource::NeedSnapshot => {
                    let Some(snapshot) = self.latest_snapshot.clone() else {
                        // Compacted without retained data (snapshotting
                        // disabled): nothing useful to send this round.
                        return;
                    };
                    let resume_from = snapshot.index.next();
                    let args = InstallSnapshotArgs {
                        term: self.current_term,
                        leader_id: self.id,
                        last_included_index: snapshot.index,
                        last_included_term: snapshot.term,
                        data: snapshot.data,
                    };
                    self.send(peer, Message::InstallSnapshot(args), broadcast, out);
                    self.emit(
                        now,
                        Event::SnapshotSent {
                            to: peer.get(),
                            index: snapshot.index.get(),
                        },
                    );
                    // Optimistically resume entry shipping above the
                    // snapshot; the reply re-anchors if it was stale.
                    self.note_sent(slot, resume_from);
                }
            }
        }
    }

    /// A window went out to the peer in `slot`: shipping resumes at
    /// `next`, and one more unit of pipeline credit is in use.
    fn note_sent(&mut self, slot: usize, next: LogIndex) {
        if let Some(progress) = self.progress.get_mut(slot) {
            progress.next = next;
            progress.inflight += 1;
        }
    }

    /// Queues one empty `AppendEntries` for the peer in `slot`: the
    /// keepalive that feeds its failure detector, carries the leader's
    /// commit index, and piggybacks the PPF configuration assignment
    /// (Listing 1).
    pub(super) fn send_heartbeat(
        &mut self,
        slot: usize,
        broadcast: Option<u64>,
        now: Time,
        out: &mut Vec<Action>,
    ) {
        let (Some(&peer), Some(progress)) = (self.peers.get(slot), self.progress.get_mut(slot))
        else {
            return;
        };
        let prev_index = progress.next.prev_saturating();
        let Some(prev_term) = self.log.term_at(prev_index) else {
            // The pipeline's anchor was compacted away — which means the
            // optimistically sent windows below it were lost (a live
            // follower would have acked them past the compaction point
            // long before the log compacted). No keepalive can anchor
            // there; reset the pipeline onto the compaction horizon and
            // pump, which ships the snapshot this follower now needs.
            progress.inflight = 0;
            progress.next = self.log.snapshot_index();
            self.pump_peer(slot, broadcast, now, out);
            return;
        };
        let args = AppendEntriesArgs {
            term: self.current_term,
            leader_id: self.id,
            prev_log_index: prev_index,
            prev_log_term: prev_term,
            entries: Vec::new(),
            leader_commit: self.commit_index,
            new_config: self.policy.config_for(peer),
            seq: self.broadcast_seq,
        };
        self.send(peer, Message::AppendEntries(args), broadcast, out);
    }

    /// An `InstallSnapshot` arrived: adopt the state if it extends ours.
    pub(super) fn on_install_snapshot(
        &mut self,
        from: ServerId,
        args: InstallSnapshotArgs,
        now: Time,
        out: &mut Vec<Action>,
    ) {
        if args.term != self.current_term {
            let reply = InstallSnapshotReply {
                term: self.current_term,
                match_hint: self.log.last_index(),
            };
            // lint:allow(write-before-send): term-mismatch refusal mutates nothing durable
            self.send(from, Message::InstallSnapshotReply(reply), None, out);
            return;
        }
        if self.role != Role::Follower {
            self.step_down(now, out);
        }
        self.leader_hint = Some(args.leader_id);
        self.last_leader_contact = Some(now);

        // Only adopt snapshots that move us forward; retransmissions of
        // older ones just re-ack.
        if args.last_included_index > self.last_applied {
            self.state_machine.restore(&args.data);
            self.log
                .reset_to_snapshot(args.last_included_index, args.last_included_term);
            self.persist_snapshot(
                args.last_included_index,
                args.last_included_term,
                &args.data,
            );
            self.last_applied = args.last_included_index;
            self.commit_index = self.commit_index.max(args.last_included_index);
            self.latest_snapshot = Some(SnapshotHandle {
                index: args.last_included_index,
                term: args.last_included_term,
                data: args.data,
            });
            self.metrics.snapshots_installed += 1;
            self.emit(
                now,
                Event::SnapshotInstalled {
                    index: self.last_applied.get(),
                },
            );
            out.push(Action::Committed {
                index: self.commit_index,
            });
        }

        self.arm_election_timer(now, out);
        let reply = InstallSnapshotReply {
            term: self.current_term,
            match_hint: self.log.last_index().max(args.last_included_index),
        };
        self.send(from, Message::InstallSnapshotReply(reply), None, out);
    }

    /// An `InstallSnapshot` reply arrived: advance the follower's indices.
    pub(super) fn on_install_snapshot_reply(
        &mut self,
        from: ServerId,
        reply: InstallSnapshotReply,
        now: Time,
        out: &mut Vec<Action>,
    ) {
        if self.role != Role::Leader || reply.term != self.current_term {
            return;
        }
        let Some(slot) = self.slot(from) else {
            return; // not a member: nothing of ours to advance
        };
        self.reclaim_inflight(slot);
        self.note_matched(slot, reply.match_hint);
        self.advance_commit(now, out);
        self.pump_peer(slot, None, now, out);
    }

    /// The peer in `slot` holds everything through `hint`: raise its match
    /// point, and its next index with it — forward only, because windows
    /// pipelined above the ack (see [`Node::pump_peer`]) are already in
    /// flight, and snapping back to the ack point would re-send them all.
    fn note_matched(&mut self, slot: usize, hint: LogIndex) {
        let commit = self.commit_index;
        let Some(progress) = self.progress.get_mut(slot) else {
            return;
        };
        if hint > progress.matched {
            if progress.matched <= commit && hint > commit {
                self.matched_above_commit += 1;
            }
            progress.matched = hint;
        }
        progress.next = progress.next.max(progress.matched.next());
    }

    /// Compacts the log once enough applied entries accumulate above the
    /// horizon (and the state machine supports snapshots).
    fn maybe_compact(&mut self) {
        let Some(threshold) = self.options.snapshot_threshold else {
            return;
        };
        let applied_above = self
            .last_applied
            .get()
            .saturating_sub(self.log.snapshot_index().get());
        if applied_above < threshold.max(1) {
            return;
        }
        let Some(data) = self.state_machine.snapshot() else {
            return;
        };
        let index = self.last_applied;
        let term = self
            .log
            .term_at(index)
            // lint:allow(panic): last_applied <= commit <= last, entries retained until compaction
            .expect("applied entries are present");
        self.log.compact_to(index);
        self.persist_snapshot(index, term, &data);
        self.latest_snapshot = Some(SnapshotHandle { index, term, data });
        self.metrics.compactions += 1;
    }

    /// An `AppendEntries` (heartbeat or replication) arrived.
    pub(super) fn on_append_entries(
        &mut self,
        from: ServerId,
        args: AppendEntriesArgs,
        now: Time,
        out: &mut Vec<Action>,
    ) {
        if args.term != self.current_term {
            // Strictly older leader (higher terms were adopted already):
            // refuse so it steps down.
            let reply = AppendEntriesReply {
                term: self.current_term,
                success: false,
                match_hint: self.log.last_index(),
                status: None,
                seq: 0, // a refusal acknowledges no round
            };
            // lint:allow(write-before-send): term-mismatch refusal mutates nothing durable
            self.send(from, Message::AppendEntriesReply(reply), None, out);
            return;
        }

        // Leader contact: the lease vote fence measures silence from here.
        self.last_leader_contact = Some(now);

        // A current-term AppendEntries is proof of a legitimate leader: a
        // candidate in the same term concedes (Fig. 1's candidate →
        // follower edge).
        if self.role != Role::Follower {
            debug_assert_ne!(
                self.role,
                Role::Leader,
                "two leaders in one term violates Election Safety"
            );
            self.step_down(now, out);
        }
        self.leader_hint = Some(args.leader_id);

        // ESCAPE: adopt a fresher configuration if the heartbeat carries
        // one.
        if let Some(config) = args.new_config {
            let conf_clock = config.conf_clock.get();
            if self.policy.config_received(config) {
                self.metrics.configs_adopted += 1;
                self.emit(now, Event::ConfigAdopted { conf_clock });
                // Durable at adoption: this clock is what fences wiped
                // restarts off from intact voters after a crash (§IV-B).
                self.persist_current_config();
            }
        }

        let last_before = self.log.last_index();
        let outcome = self
            .log
            .try_append(args.prev_log_index, args.prev_log_term, &args.entries);
        let (success, match_hint) = match outcome {
            AppendOutcome::Appended { last_index, truncated } => {
                if truncated > 0 || last_index > last_before {
                    // The log actually changed (pure duplicate
                    // retransmissions skip the WAL record).
                    self.persist_appended(
                        args.prev_log_index,
                        args.prev_log_term,
                        &args.entries,
                    );
                }
                // Only the prefix the leader actually confirmed may commit:
                // `prev + entries.len()`, not our possibly-stale tail.
                let confirmed =
                    LogIndex::new(args.prev_log_index.get() + args.entries.len() as u64);
                let new_commit = args.leader_commit.min(confirmed);
                if new_commit > self.commit_index {
                    self.commit_index = new_commit;
                    out.push(Action::Committed { index: new_commit });
                    self.apply_committed(out);
                }
                (true, confirmed)
            }
            AppendOutcome::Mismatch { last_index } => (false, last_index),
        };

        // The leader is alive: push the failure detector back.
        self.arm_election_timer(now, out);

        let reply = AppendEntriesReply {
            term: self.current_term,
            success,
            match_hint,
            status: self.policy.report_status(self.log.last_index()),
            // Echoed whatever the match outcome: even a log-mismatch
            // reply proves we recognize this leader's term this round.
            seq: args.seq,
        };
        self.send(from, Message::AppendEntriesReply(reply), None, out);
    }

    /// An `AppendEntries` reply arrived.
    pub(super) fn on_append_entries_reply(
        &mut self,
        from: ServerId,
        reply: AppendEntriesReply,
        now: Time,
        out: &mut Vec<Action>,
    ) {
        if self.role != Role::Leader || reply.term != self.current_term {
            return; // stale reply
        }
        let Some(slot) = self.slot(from) else {
            return; // not a member: nothing of ours to advance
        };

        // Every reply returns one unit of pipeline credit (saturating:
        // heartbeat replies may return credit a lost window never will).
        self.reclaim_inflight(slot);

        // PPF input: record the follower's log responsiveness.
        if let Some(status) = reply.status {
            self.policy.follower_status(from, status);
        }

        // ReadIndex input: any reply under our term acknowledges the
        // round it echoes, success or not.
        if reply.seq > 0 && self.note_acked(slot, reply.seq) {
            self.advance_read_state(out);
        }

        if reply.success {
            self.note_matched(slot, reply.match_hint);
            // Additive recovery from a backpressure clamp: each clean ack
            // widens the window by one until it is back at the option.
            let max = self.options.max_inflight_appends;
            if let Some(progress) = self.progress.get_mut(slot) {
                if progress.cap < max {
                    progress.cap += 1;
                }
            }
            self.advance_commit(now, out);
            // Keep the pipeline full if the follower is still behind.
            self.pump_peer(slot, None, now, out);
        } else {
            // Backtrack: at most to just past the follower's last index,
            // otherwise one step, floored at 1. A rejection also voids
            // the optimistic pipeline: everything in flight above the
            // backtrack point will be rejected too, so its credit is
            // reclaimed now and the repair window burst goes out
            // immediately. The cost is bounded duplicate traffic when
            // several in-flight windows bounce (each of their rejections
            // re-pumps from the same point, ≤ `max_inflight_appends`
            // windows each, all idempotent on the follower); the
            // alternative — reclaiming one credit per rejection — leaves
            // phantom credit that throttles repair to one window per
            // round trip, which measurably slows catch-up under the
            // paper's lossy-network experiments.
            if let Some(progress) = self.progress.get_mut(slot) {
                let stepped = progress.next.prev_saturating().max(LogIndex::new(1));
                let capped = stepped.min(reply.match_hint.next());
                progress.next = capped.max(LogIndex::new(1));
                progress.inflight = 0;
            }
            self.pump_peer(slot, None, now, out);
        }
    }

    /// Returns one unit of the pipeline credit of the peer in `slot`,
    /// saturating at zero (replies to heartbeats and to windows sent
    /// before a pipeline reset may over-return).
    fn reclaim_inflight(&mut self, slot: usize) {
        if let Some(progress) = self.progress.get_mut(slot) {
            progress.inflight = progress.inflight.saturating_sub(1);
        }
    }

    /// Advances the commit index to the highest replicated-on-a-quorum entry
    /// of the *current* term (the Raft §5.4.2 restriction), then applies.
    ///
    /// That entry is the quorum-th largest match point (the leader's own
    /// included), capped at the log tail, if its term is the current one:
    /// terms never decrease along the log, so no lower quorum-replicated
    /// entry can be of the current term when this one is not.
    pub(super) fn advance_commit(&mut self, now: Time, out: &mut Vec<Action>) {
        if self.role != Role::Leader {
            return;
        }
        // The leader is a replica only of what its own storage has made
        // durable (followers ack only what theirs has) — or is about to:
        // a dirty storage takes the blocking barrier before any action of
        // this step leaves, and that covers the whole log.
        let self_match = if self.storage_dirty {
            self.log.last_index()
        } else {
            self.durable_index
        };
        let quorum = self.quorum();
        // Fewer than a quorum of replicas above the commit index: the
        // common case, decided without looking at any peer.
        if usize::from(self_match > self.commit_index) + self.matched_above_commit < quorum {
            return;
        }
        self.scratch.clear();
        self.scratch.push(self_match.get());
        self.scratch
            .extend(self.progress.iter().map(|p| p.matched.get()));
        let Some(replicated) = nth_largest(&mut self.scratch, quorum) else {
            return;
        };
        let candidate = LogIndex::new(replicated).min(self.log.last_index());
        if candidate > self.commit_index && self.log.term_at(candidate) == Some(self.current_term) {
            self.matched_above_commit = self
                .progress
                .iter()
                .filter(|p| p.matched > candidate)
                .count();
            // The no-op (or first entry) of this leadership just committed:
            // the failover timeline's terminal phase boundary.
            if self.commit_index < self.term_start_index && candidate >= self.term_start_index {
                self.emit(
                    now,
                    Event::FirstCommit {
                        term: self.current_term.get(),
                        index: candidate.get(),
                    },
                );
            }
            self.commit_index = candidate;
            self.metrics.entries_committed += 1;
            // Commit-latency histogram: everything this leader proposed
            // at or below the new commit index just committed.
            while let Some(&(index, proposed_at)) = self.propose_times.front() {
                if index > candidate {
                    break;
                }
                self.propose_times.pop_front();
                self.metrics
                    .record_commit_latency(now.saturating_since(proposed_at));
            }
            out.push(Action::Committed { index: candidate });
            self.apply_committed(out);
        }
    }

    /// Applies every committed-but-unapplied command, in order, then
    /// considers compaction.
    pub(super) fn apply_committed(&mut self, out: &mut Vec<Action>) {
        while self.last_applied < self.commit_index {
            let index = self.last_applied.next();
            let entry = self
                .log
                .entry(index)
                // lint:allow(panic): commit_index never passes the log tail
                .expect("committed entries are present")
                .clone();
            self.last_applied = index;
            if let Some(command) = entry.payload.as_command() {
                let result = self.state_machine.apply(index, command);
                self.metrics.commands_applied += 1;
                out.push(Action::Applied { index, result });
            }
        }
        self.maybe_compact();
        // Confirmed read batches may have been waiting on exactly this.
        self.release_ready_reads(out);
    }
}
