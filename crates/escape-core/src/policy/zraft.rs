//! Z-Raft: ZooKeeper-style static priorities grafted onto Raft.
//!
//! §VI-D of the paper: "Zookeeper implemented a leader election mechanism
//! using unique server IDs to set priorities, which is similar to ESCAPE's
//! SCA method without PPF. We applied Zookeeper's leader election approach in
//! Raft and refer to it as Z-Raft."
//!
//! Z-Raft therefore takes the *full* stochastic configuration assignment —
//! priority-scaled term growth (Eq. 2) and priority-derived election
//! timeouts (Eq. 1) — but the assignment is fixed at boot: priorities never
//! follow log responsiveness, there is no configuration clock, and a stale
//! high-priority server keeps "wasting" its winning configuration on
//! campaigns it cannot win (§VI-D explains why this loses to ESCAPE under
//! message loss).

use crate::config::{Configuration, EscapeParams};
use crate::policy::ElectionPolicy;
use crate::time::Duration;
use crate::types::ServerId;

/// Static server-ID priorities: SCA without the probing patrol function.
///
/// # Examples
///
/// ```
/// use escape_core::config::EscapeParams;
/// use escape_core::policy::{ElectionPolicy, ZRaftPolicy};
/// use escape_core::types::ServerId;
///
/// let params = EscapeParams::paper_defaults(10);
/// let mut s10 = ZRaftPolicy::new(ServerId::new(10), params);
/// assert_eq!(s10.term_increment(), 10);                 // Eq. 2 with P = id
/// assert_eq!(s10.election_timeout().as_millis(), 1500); // Eq. 1: baseTime
/// ```
#[derive(Debug)]
pub struct ZRaftPolicy {
    config: Configuration,
    scaled_terms: bool,
    /// Eq. 1's `baseTime`: the cluster-wide minimum election timeout
    /// (priority `n`'s timeout), which bounds the leader lease.
    base_time: Duration,
}

impl ZRaftPolicy {
    /// Creates the policy for server `id`: priority `P = id`, timeout from
    /// Eq. 1, forever — including priority-scaled term growth (Eq. 2),
    /// the full "SCA without PPF" reading.
    pub fn new(id: ServerId, params: EscapeParams) -> Self {
        ZRaftPolicy {
            config: params.initial_configuration(id),
            scaled_terms: true,
            base_time: params.base_time(),
        }
    }

    /// The alternative reading closer to ZooKeeper's actual fast leader
    /// election: server ids shape only the *timeouts*; the term still
    /// advances by one per campaign. Under message loss this variant
    /// exposes the weakness §VI-D attributes to Z-Raft — a stale
    /// high-priority server's failed campaign consumes votes in a term
    /// that the next candidate then collides with.
    pub fn timeout_only(id: ServerId, params: EscapeParams) -> Self {
        ZRaftPolicy {
            config: params.initial_configuration(id),
            scaled_terms: false,
            base_time: params.base_time(),
        }
    }
}

impl ElectionPolicy for ZRaftPolicy {
    fn name(&self) -> &'static str {
        "zraft"
    }

    fn election_timeout(&mut self) -> Duration {
        self.config.timer_period
    }

    fn term_increment(&self) -> u64 {
        if self.scaled_terms {
            self.config.priority.term_increment()
        } else {
            1
        }
    }

    fn current_config(&self) -> Option<Configuration> {
        Some(self.config)
    }

    fn timeout_floor(&self) -> Option<Duration> {
        // The cluster's shortest election timeout is priority-n's, which
        // Eq. 1 pins to `baseTime`.
        Some(self.base_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ConfClock;

    #[test]
    fn priorities_are_server_ids() {
        let params = EscapeParams::paper_defaults(5);
        for raw in 1..=5u32 {
            let p = ZRaftPolicy::new(ServerId::new(raw), params);
            assert_eq!(p.term_increment(), raw as u64);
        }
    }

    #[test]
    fn timeout_is_static_across_draws() {
        let params = EscapeParams::paper_defaults(8);
        let mut p = ZRaftPolicy::new(ServerId::new(3), params);
        let first = p.election_timeout();
        for _ in 0..10 {
            assert_eq!(p.election_timeout(), first);
        }
        // Eq. 1: 1500 + 500·(8−3) = 4000 ms.
        assert_eq!(first.as_millis(), 4000);
    }

    #[test]
    fn no_conf_clock_machinery() {
        let params = EscapeParams::paper_defaults(4);
        let p = ZRaftPolicy::new(ServerId::new(2), params);
        assert_eq!(p.campaign_conf_clock(), None);
        let c = p.current_config().unwrap();
        assert_eq!(c.conf_clock, ConfClock::ZERO);
    }
}
