//! Figure 10: election time under zero/one/two/three phases with competing
//! candidates (C.C.).
//!
//! §VI-C: both protocols detect failures in similar time, but each forced
//! competing-candidate phase costs Raft roughly one extra election timeout
//! (the "provisional livelock"), while ESCAPE resolves even full-cluster
//! collisions in its first campaign because simultaneous campaigns occupy
//! different term surfaces.
//!
//! Scenario construction is in [`crate::scenario`]; the measurement starts
//! at boot, which is behaviourally identical to the instant after a leader
//! crash (timers armed, no heartbeats) and makes the forced collisions
//! exact.

use escape_core::time::{Duration, Time};
use escape_core::types::ServerId;

use crate::cluster::{ClusterConfig, SimCluster};
use crate::observer::measure_election;
use crate::scenario::competing_phases_protocol;
use crate::stats::Summary;

/// The classes evaluated in Fig. 10.
pub const PAPER_CLASSES: [u32; 4] = [0, 1, 2, 3];

/// One point: protocol × scale × forced-phase class.
#[derive(Clone, Debug)]
pub struct PhasesPoint {
    /// `"raft"` or `"escape"`.
    pub protocol: &'static str,
    /// Cluster size.
    pub scale: usize,
    /// Number of forced competing-candidate phases.
    pub class: u32,
    /// Detection periods (crash → first candidate).
    pub detection: Summary,
    /// Election periods (first candidate → leader).
    pub election: Summary,
    /// Totals.
    pub total: Summary,
}

/// Runs the Fig. 10 sweep.
///
/// # Panics
///
/// Panics on unknown protocol names or if a scripted run fails to elect —
/// both indicate scenario bugs, not measurement noise.
pub fn run_phases_sweep(
    protocols: &[&str],
    scales: &[usize],
    classes: &[u32],
    runs: usize,
    base_seed: u64,
) -> Vec<PhasesPoint> {
    let mut out = Vec::new();
    for protocol in protocols {
        let name: &'static str = match *protocol {
            "raft" => "raft",
            "escape" => "escape",
            other => panic!("unknown protocol {other:?}"),
        };
        for &scale in scales {
            for &class in classes {
                let mut detection = Vec::with_capacity(runs);
                let mut election = Vec::with_capacity(runs);
                let mut total = Vec::with_capacity(runs);
                for run in 0..runs {
                    let seed = base_seed
                        .wrapping_add((class as u64) << 56)
                        .wrapping_add((scale as u64) << 40)
                        .wrapping_add(run as u64);
                    let winner = ServerId::new(2);
                    let cfg = ClusterConfig::paper_network(
                        scale,
                        competing_phases_protocol(name, class, winner),
                        seed,
                    );
                    let mut cluster = SimCluster::new(cfg);
                    let horizon = Time::from_millis(60_000);
                    cluster
                        .run_until_new_leader(escape_core::types::Term::ZERO, horizon)
                        .expect("scripted scenario must elect a leader");
                    assert!(cluster.safety().is_safe(), "safety violation in scenario");
                    let window = Duration::from_millis(200);
                    let m = measure_election(&cluster.event_streams(), Time::ZERO, window)
                        .expect("leader event must be observable");
                    detection.push(m.detection());
                    election.push(m.election());
                    total.push(m.total());
                }
                out.push(PhasesPoint {
                    protocol: name,
                    scale,
                    class,
                    detection: Summary::new(detection),
                    election: Summary::new(election),
                    total: Summary::new(total),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raft_cost_grows_linearly_with_phases_while_escape_is_flat() {
        let points = run_phases_sweep(&["raft", "escape"], &[8], &[0, 1, 2], 3, 17);
        let total = |proto: &str, class: u32| {
            points
                .iter()
                .find(|p| p.protocol == proto && p.class == class)
                .unwrap()
                .total
                .mean()
        };
        // Each forced phase costs Raft ≈ one wave (1500 ms).
        let r0 = total("raft", 0);
        let r1 = total("raft", 1);
        let r2 = total("raft", 2);
        assert!(r1 > r0 + Duration::from_millis(1000), "r0={r0} r1={r1}");
        assert!(r2 > r1 + Duration::from_millis(1000), "r1={r1} r2={r2}");
        // ESCAPE stays flat within the 2000 ms envelope.
        let e0 = total("escape", 0);
        let e2 = total("escape", 2);
        assert!(e0 <= Duration::from_millis(2100));
        assert!(e2 <= Duration::from_millis(2100));
        // And the headline comparison: class-2 Raft is several times slower.
        assert!(r2 > e2 * 2);
    }
}
