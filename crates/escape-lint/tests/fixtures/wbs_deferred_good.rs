// Fixture: the one legitimate user of the deferred barrier — only tail
// appends are un-synced when it is requested; the snapshot a commit may
// reach afterwards is covered by the blocking barrier that follows.

impl Node {
    fn propose_batch(&mut self, now: Time, out: &mut Vec<Action>) {
        self.persist_tail_entries(4);
        self.flush_replication(now, out);
        self.defer_tail_barrier(now);
        self.advance_commit(now, out);
        self.sync_storage(now);
    }

    fn advance_commit(&mut self, now: Time, out: &mut Vec<Action>) {
        self.maybe_compact();
    }

    fn maybe_compact(&mut self) {
        self.persist_snapshot(index, term, &data);
    }
}
