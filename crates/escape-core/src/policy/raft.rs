//! Stock Raft's randomized-timeout election policy.
//!
//! Raft mitigates (but does not eliminate) split votes by drawing each
//! election timeout uniformly from a range; §III of the ESCAPE paper studies
//! exactly this trade-off: a narrow range shortens failure detection but
//! raises the collision probability, a wide range does the opposite.

use crate::policy::{ElectionPolicy, TimeoutSource};
use crate::rand::{Rng64, Xoshiro256};
use crate::time::Duration;

/// Randomized election timeouts drawn uniformly from `[min, max)`.
#[derive(Debug)]
struct RandomizedTimeouts {
    min: Duration,
    max: Duration,
    rng: Xoshiro256,
}

impl TimeoutSource for RandomizedTimeouts {
    fn next_timeout(&mut self) -> Duration {
        self.rng.gen_duration(self.min, self.max)
    }
}

/// Stock Raft leader election: term += 1, randomized timeouts, no
/// configuration machinery.
///
/// # Examples
///
/// ```
/// use escape_core::policy::{ElectionPolicy, RaftPolicy};
/// use escape_core::time::Duration;
///
/// // The paper's recommended range for 100–200 ms links (§VI-B).
/// let mut policy = RaftPolicy::randomized(
///     Duration::from_millis(1500),
///     Duration::from_millis(3000),
///     42, // deterministic seed
/// );
/// let t = policy.election_timeout();
/// assert!(t >= Duration::from_millis(1500) && t < Duration::from_millis(3000));
/// assert_eq!(policy.term_increment(), 1);
/// ```
#[derive(Debug)]
pub struct RaftPolicy {
    timeouts: Box<dyn TimeoutSource>,
    /// The smallest timeout the source can draw, when known; bounds the
    /// leader lease. Scripted sources advertise no floor (no lease).
    timeout_floor: Option<Duration>,
}

impl RaftPolicy {
    /// Uniform random timeouts in `[min, max)` seeded deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `min >= max`.
    pub fn randomized(min: Duration, max: Duration, seed: u64) -> Self {
        assert!(min < max, "timeout range must be non-empty");
        RaftPolicy {
            timeouts: Box::new(RandomizedTimeouts {
                min,
                max,
                rng: Xoshiro256::seed_from(seed),
            }),
            timeout_floor: Some(min),
        }
    }

    /// A policy driven by an arbitrary timeout source (scripted schedules
    /// for the Fig. 2 / Fig. 10 scenarios). No timeout floor is known, so
    /// [`lease_bound`](ElectionPolicy::lease_bound) disables leases.
    pub fn with_source(timeouts: Box<dyn TimeoutSource>) -> Self {
        RaftPolicy {
            timeouts,
            timeout_floor: None,
        }
    }
}

impl ElectionPolicy for RaftPolicy {
    fn name(&self) -> &'static str {
        "raft"
    }

    fn election_timeout(&mut self) -> Duration {
        self.timeouts.next_timeout()
    }

    fn timeout_floor(&self) -> Option<Duration> {
        self.timeout_floor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ScriptedTimeouts;

    #[test]
    fn randomized_draws_fill_the_range() {
        let mut p = RaftPolicy::randomized(
            Duration::from_millis(1500),
            Duration::from_millis(3000),
            7,
        );
        let mut lo_half = 0;
        let mut hi_half = 0;
        for _ in 0..200 {
            let t = p.election_timeout();
            assert!(t >= Duration::from_millis(1500));
            assert!(t < Duration::from_millis(3000));
            if t < Duration::from_millis(2250) {
                lo_half += 1;
            } else {
                hi_half += 1;
            }
        }
        assert!(lo_half > 50 && hi_half > 50, "draws should span the range");
    }

    #[test]
    fn same_seed_same_schedule() {
        let mut a = RaftPolicy::randomized(
            Duration::from_millis(100),
            Duration::from_millis(200),
            99,
        );
        let mut b = RaftPolicy::randomized(
            Duration::from_millis(100),
            Duration::from_millis(200),
            99,
        );
        for _ in 0..20 {
            assert_eq!(a.election_timeout(), b.election_timeout());
        }
    }

    #[test]
    fn scripted_source_is_honoured() {
        let mut p = RaftPolicy::with_source(Box::new(ScriptedTimeouts::new(vec![
            Duration::from_millis(1700),
        ])));
        assert_eq!(p.election_timeout(), Duration::from_millis(1700));
        assert_eq!(p.name(), "raft");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_range_rejected() {
        let _ = RaftPolicy::randomized(Duration::from_millis(5), Duration::from_millis(5), 1);
    }
}
