// Fixture (with wbs_deferred_cross_b.rs): the promise sits two calls away
// in another engine file.

impl Node {
    fn propose_batch(&mut self, now: Time, out: &mut Vec<Action>) {
        self.persist_tail_entries(4);
        self.flush_replication(now, out);
        self.defer_tail_barrier(now);
        self.sync_storage(now);
    }

    fn flush_replication(&mut self, now: Time, out: &mut Vec<Action>) {
        self.top_up(now, out);
    }
}
