// Fixture: entry points whose actions could leave before the promise
// behind them is durable — a boot campaign with no barrier after it, and
// a handler that syncs only before its promise.

impl Node {
    pub fn start(&mut self, now: Time) -> Vec<Action> {
        let mut out = Vec::new();
        self.campaign(now, &mut out);
        out
    }

    pub fn handle(&mut self, now: Time) -> Vec<Action> {
        let mut out = Vec::new();
        self.sync_storage(now);
        self.persist_hard_state();
        out
    }

    pub(super) fn campaign(&mut self, now: Time, out: &mut Vec<Action>) {
        self.persist_hard_state();
        self.send(peer, message, None, out);
    }
}
