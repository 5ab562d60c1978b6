//! # escape-cluster
//!
//! The experiment harness: wires `escape-core` consensus engines into the
//! `escape-simnet` discrete-event network, injects faults, measures
//! elections, and checks safety invariants while running.
//!
//! Layers:
//!
//! * [`cluster`] — [`SimCluster`]: N nodes + network + one `escape-obs`
//!   event ring per node; crash/restart/partition/propose/run-until APIs.
//! * [`campaign`] — deterministic fault-injection campaigns: composable
//!   [`FaultPlan`](campaign::FaultPlan)s, a seed-sweeping scenario matrix,
//!   reproducer shrinking, and the regression seed corpus.
//! * [`observer`] — turns those rings into the paper's metrics (detection
//!   period, election period, phases with competing candidates).
//! * [`trial`] — the leader-failure trial behind Figs. 3, 4, 9, 11.
//! * [`scenario`] — deterministic scripts (Fig. 2 split vote, Fig. 10 forced
//!   competing-candidate phases).
//! * [`experiments`] — parameter sweeps that regenerate every figure.
//! * [`invariants`] — runtime safety checking (Election Safety, commit
//!   safety, Theorem 3 configuration uniqueness).
//! * [`stats`] — means/quantiles/CDFs for experiment output.
//!
//! ## Example: measure one ESCAPE leader election
//!
//! ```
//! use escape_cluster::cluster::{ClusterConfig, Protocol};
//! use escape_cluster::trial::{run_leader_failure_trial, TrialConfig};
//!
//! let cluster = ClusterConfig::paper_network(5, Protocol::escape_paper_default(), 42);
//! let outcome = run_leader_failure_trial(&TrialConfig::election_only(cluster));
//! let m = outcome.measurement.expect("new leader");
//! println!("detection {} + election {} = {}", m.detection(), m.election(), m.total());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod adapter;
pub mod campaign;
pub mod cluster;
pub mod experiments;
pub mod invariants;
pub mod observer;
pub mod scenario;
pub mod stats;
pub mod trial;

pub use cluster::{ClusterConfig, Protocol, SimCluster};
pub use observer::{measure_election, ElectionMeasurement};
pub use stats::{Cdf, Summary};
pub use trial::{run_leader_failure_trial, run_trials, TrialConfig, TrialOutcome};
