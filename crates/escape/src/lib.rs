//! # escape
//!
//! A full reproduction of **ESCAPE** (Zhang & Jacobsen, *ESCAPE to
//! Precaution against Leader Failures*, ICDCS 2022): a leader-election
//! protocol that eliminates Raft's split-vote livelock by preparing a pool
//! of prioritized "future leaders" before any failure happens.
//!
//! This crate is a facade that re-exports the workspace:
//!
//! | Module | Crate | What it holds |
//! |--------|-------|---------------|
//! | [`core`] | `escape-core` | the sans-IO consensus engine + the Raft / Z-Raft / ESCAPE election policies |
//! | [`simnet`] | `escape-simnet` | the deterministic discrete-event network simulator |
//! | [`cluster`] | `escape-cluster` | the experiment harness (fault injection, election measurement, every paper figure) |
//! | [`wire`] | `escape-wire` | the binary wire codec |
//! | [`kv`] | `escape-kv` | a replicated key-value store over the engine |
//! | [`obs`] | `escape-obs` | observability: typed events, metrics registry + scrape endpoint, failover-timeline reconstructor |
//! | [`shard`] | `escape-shard` | the real-time node (`ShardedNode`: N groups per process, a single group is a map of one), shard map, router with redirects |
//! | [`transport`] | `escape-transport` | the real-time runtime's parts (node loop, group-multiplexed TCP mesh, client service, WAL thread) |
//!
//! ## Quick start
//!
//! Simulate a 5-server ESCAPE cluster, kill the leader, and measure the
//! recovery (see `examples/quickstart.rs` for the narrated version):
//!
//! ```
//! use escape::cluster::{ClusterConfig, Protocol};
//! use escape::cluster::trial::{run_leader_failure_trial, TrialConfig};
//!
//! let cluster = ClusterConfig::paper_network(5, Protocol::escape_paper_default(), 42);
//! let outcome = run_leader_failure_trial(&TrialConfig::election_only(cluster));
//! let m = outcome.measurement.expect("a new leader");
//! assert_eq!(m.campaigns, 1); // Lemma 5: one campaign, no split votes
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub use escape_cluster as cluster;
pub use escape_core as core;
pub use escape_kv as kv;
pub use escape_obs as obs;
pub use escape_shard as shard;
pub use escape_simnet as simnet;
pub use escape_transport as transport;
pub use escape_wire as wire;
