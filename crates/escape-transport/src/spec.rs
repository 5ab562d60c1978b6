//! Cluster specification for real-time deployments.

use escape_core::config::EscapeParams;
use escape_core::engine::Options;
use escape_core::policy::{ElectionPolicy, EscapePolicy, RaftPolicy, ZRaftPolicy};
use escape_core::time::Duration;
use escape_core::types::{GroupId, Priority, ServerId};

/// Which election protocol a real-time cluster runs, with timings scaled
/// for the deployment (LAN timings differ from the paper's simulated WAN).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolSpec {
    /// Stock Raft, timeouts uniform in `[min, max)`.
    Raft {
        /// Minimum election timeout.
        timeout_min: Duration,
        /// Maximum election timeout (exclusive).
        timeout_max: Duration,
    },
    /// Z-Raft: static server-id priorities.
    ZRaft {
        /// Eq. 1 `baseTime`.
        base_time: Duration,
        /// Eq. 1 `k`.
        spacing: Duration,
    },
    /// ESCAPE: SCA + PPF.
    Escape {
        /// Eq. 1 `baseTime`.
        base_time: Duration,
        /// Eq. 1 `k`.
        spacing: Duration,
    },
}

impl ProtocolSpec {
    /// ESCAPE sized for loopback latencies: `baseTime` 150 ms,
    /// `k` 50 ms.
    pub fn escape_local() -> Self {
        ProtocolSpec::Escape {
            base_time: Duration::from_millis(150),
            spacing: Duration::from_millis(50),
        }
    }

    /// Raft sized for loopback latencies: 150–300 ms.
    pub fn raft_local() -> Self {
        ProtocolSpec::Raft {
            timeout_min: Duration::from_millis(150),
            timeout_max: Duration::from_millis(300),
        }
    }

    /// Builds the policy for one node.
    pub fn build_policy(&self, id: ServerId, n: usize, seed: u64) -> Box<dyn ElectionPolicy> {
        match *self {
            ProtocolSpec::Raft {
                timeout_min,
                timeout_max,
            } => Box::new(RaftPolicy::randomized(timeout_min, timeout_max, seed)),
            ProtocolSpec::ZRaft { base_time, spacing } => {
                let params = EscapeParams::builder(n)
                    .base_time(base_time)
                    .spacing(spacing)
                    .build();
                Box::new(ZRaftPolicy::new(id, params))
            }
            ProtocolSpec::Escape { base_time, spacing } => {
                let params = EscapeParams::builder(n)
                    .base_time(base_time)
                    .spacing(spacing)
                    .build();
                Box::new(EscapePolicy::new(id, params))
            }
        }
    }

    /// Builds the policy for one node of one consensus **group** in a
    /// sharded deployment.
    ///
    /// Same as [`ProtocolSpec::build_policy`], except that leadership is
    /// spread across the cluster instead of stacked on one server: for
    /// ESCAPE the SCA boot priorities are rotated by the group id (group
    /// `g` hands server `s` priority `((s−1+g) mod n)+1` — still a
    /// permutation, so §IV-A1 holds per group, but each group's
    /// highest-priority server differs), and for the randomized policies
    /// the group id is folded into the seed.
    pub fn build_group_policy(
        &self,
        id: ServerId,
        n: usize,
        seed: u64,
        group: GroupId,
    ) -> Box<dyn ElectionPolicy> {
        // SplitMix64-style odd multiplier decorrelates per-group seeds.
        let group_seed =
            seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(group.get() as u64 + 1);
        match *self {
            ProtocolSpec::Escape { base_time, spacing } => {
                let params = EscapeParams::builder(n)
                    .base_time(base_time)
                    .spacing(spacing)
                    .build();
                let rotated =
                    Priority::new(((id.index() + group.index()) % n) as u64 + 1);
                Box::new(EscapePolicy::new(id, params).with_boot_priority(rotated))
            }
            _ => self.build_policy(id, n, group_seed),
        }
    }

    /// Engine options matched to local timings: [`Options::local`], the
    /// one definition of the local heartbeat, lease and vote retry. Its
    /// vote fence (lease × 5/4) is the required silence before any vote,
    /// under the 150 ms floor every local spec gives its shortest election
    /// timeout, so a legitimate failover (a voter whose timer actually
    /// expired) is never delayed; it is also all a hinted failover waits
    /// (a leader whose process closed its connections). The engine
    /// additionally caps the lease at the policy's own bound.
    pub fn local_options() -> Options {
        Options::local()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_specs_have_sane_ratios() {
        // Heartbeat must sit well below the shortest election timeout,
        // and the lease fence (lease × 5/4) strictly below it too, so
        // the fence never outlives a legitimately expired election timer.
        // The in-campaign vote retry must fire before the campaign's own
        // timeout does, or it can never rescue a lost solicitation.
        let opts = ProtocolSpec::local_options();
        let hb = opts.heartbeat_interval;
        let lease = opts.lease_duration.expect("local options enable leases");
        let fence = opts.vote_fence().expect("a lease arms the fence");
        let retry = opts.vote_retry_interval.expect("local options retry votes");
        match ProtocolSpec::escape_local() {
            ProtocolSpec::Escape { base_time, .. } => {
                assert!(hb * 3 <= base_time);
                assert!(fence < base_time);
                assert!(retry < base_time);
            }
            _ => unreachable!(),
        }
        match ProtocolSpec::raft_local() {
            ProtocolSpec::Raft { timeout_min, .. } => {
                assert!(hb * 3 <= timeout_min);
                assert!(fence < timeout_min);
                assert!(retry < timeout_min);
            }
            _ => unreachable!(),
        }
        // The lease must survive losing a heartbeat or two: each round
        // extends it, so it only lapses after lease/heartbeat silent
        // rounds.
        assert!(lease >= hb * 2, "lease too short to span heartbeat jitter");
    }

    #[test]
    fn builds_every_policy_kind() {
        let id = ServerId::new(2);
        assert_eq!(
            ProtocolSpec::raft_local().build_policy(id, 3, 1).name(),
            "raft"
        );
        assert_eq!(
            ProtocolSpec::escape_local().build_policy(id, 3, 1).name(),
            "escape"
        );
        let z = ProtocolSpec::ZRaft {
            base_time: Duration::from_millis(150),
            spacing: Duration::from_millis(50),
        };
        assert_eq!(z.build_policy(id, 3, 1).name(), "zraft");
    }

    #[test]
    fn group_policies_rotate_escape_boot_priorities() {
        let n = 4usize;
        // Within one group: boot priorities form a permutation of 1..=n.
        for g in 0..n as u32 {
            let group = GroupId::new(g);
            let mut prios: Vec<u64> = (1..=n as u32)
                .map(|s| {
                    ProtocolSpec::escape_local()
                        .build_group_policy(ServerId::new(s), n, 7, group)
                        .term_increment()
                })
                .collect();
            prios.sort_unstable();
            assert_eq!(prios, vec![1, 2, 3, 4], "group {group} must keep a permutation");
        }
        // Across groups: the top-priority (initial-leader) server differs.
        let top_server = |group: GroupId| -> u32 {
            (1..=n as u32)
                .max_by_key(|s| {
                    ProtocolSpec::escape_local()
                        .build_group_policy(ServerId::new(*s), n, 7, group)
                        .term_increment()
                })
                .unwrap()
        };
        let tops: std::collections::HashSet<u32> =
            (0..n as u32).map(|g| top_server(GroupId::new(g))).collect();
        assert_eq!(tops.len(), n, "each group must favor a different server");
    }
}
