// Fixture (with wbs_deferred_cross_a.rs): a replication helper that
// restamps the configuration clock on its way out.

impl Node {
    fn top_up(&mut self, now: Time, out: &mut Vec<Action>) {
        self.persist_current_config();
        self.send(peer, message, now, out);
    }
}
