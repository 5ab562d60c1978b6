// Fixture: the deferred barrier requested with a promise un-synced —
// once directly (a vote), once through a same-file helper (a restamped
// configuration clock) — and once with a promise reached afterwards that
// no blocking barrier follows.

impl Node {
    fn defers_a_vote(&mut self, peer: ServerId, now: Time, out: &mut Vec<Action>) {
        self.voted_for = Some(peer);
        self.persist_hard_state();
        self.persist_tail_entries(1);
        self.flush_replication(now, out);
        self.defer_tail_barrier(now);
    }

    fn defers_a_restamp(&mut self, now: Time, out: &mut Vec<Action>) {
        self.restamp();
        self.persist_tail_entries(1);
        self.flush_replication(now, out);
        self.defer_tail_barrier(now);
    }

    fn restamp(&mut self) {
        self.persist_current_config();
    }

    fn forgets_the_blocking_barrier(&mut self, now: Time, out: &mut Vec<Action>) {
        self.persist_tail_entries(1);
        self.flush_replication(now, out);
        self.defer_tail_barrier(now);
        self.persist_snapshot(index, term, &data);
    }
}
