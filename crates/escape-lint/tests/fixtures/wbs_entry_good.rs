// Fixture: entry points that sync after every promise they reach, one
// that reaches none, and one that delegates to another entry point.

impl Node {
    pub fn start(&mut self, now: Time) -> Vec<Action> {
        let mut out = self.arm(now);
        self.campaign(now, &mut out);
        self.sync_storage(now);
        out
    }

    pub fn restart(&mut self, now: Time) -> Vec<Action> {
        self.arm(now)
    }

    pub fn propose(&mut self, now: Time) -> Vec<Action> {
        self.start(now)
    }

    fn arm(&mut self, now: Time) -> Vec<Action> {
        Vec::new()
    }

    pub(super) fn campaign(&mut self, now: Time, out: &mut Vec<Action>) {
        self.persist_hard_state();
        self.send(peer, message, None, out);
    }
}
