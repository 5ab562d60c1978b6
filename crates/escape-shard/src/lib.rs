//! # escape-shard
//!
//! Horizontal scale for the ESCAPE stack: one keyspace partitioned across
//! N independent consensus groups, each a full ESCAPE instance with its
//! own prepared-leader pool, hosted together behind one TCP mesh.
//!
//! The paper's core idea — stage prepared leaders so failover is a reflex
//! rather than an election — protects one group. This crate multiplies
//! it: a leader failure costs one shard one reflex failover while every
//! other shard's traffic continues undisturbed.
//!
//! * [`map`] — [`ShardMap`]: a versioned hash-range partition of the
//!   keyspace (static N today, versioned for future splits).
//! * [`router`] — [`Router`]: key → owning group, with [`Redirect`]s for
//!   misrouted commands.
//! * [`node`] — [`ShardedNode`]: one process hosting every group's
//!   engine over a shared mesh, with per-group `group-<g>/` data
//!   subdirectories and recovery that iterates the groups. The
//!   workspace's one real-time node type: a single consensus group is
//!   `ShardMap::uniform(1)`.
//!
//! ```no_run
//! use std::collections::HashMap;
//! use bytes::Bytes;
//! use escape_shard::{ShardMap, ShardedNode};
//! use escape_transport::spec::ProtocolSpec;
//! use escape_transport::tcp::loopback_listeners;
//!
//! let (addrs, listeners) = loopback_listeners(3);
//! let nodes: Vec<ShardedNode> = addrs
//!     .keys()
//!     .map(|id| {
//!         ShardedNode::spawn(
//!             *id,
//!             listeners[id].try_clone().unwrap(),
//!             addrs.clone(),
//!             ProtocolSpec::escape_local(),
//!             7,
//!             ShardMap::uniform(4),
//!             |_group| Box::new(escape_core::statemachine::NullStateMachine),
//!             None,
//!         )
//!     })
//!     .collect();
//! // Commands route by key; each shard elects its own leader.
//! let group = nodes[0].route(b"account-42");
//! println!("account-42 lives in {group}");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod map;
pub mod node;
pub mod router;

pub use map::ShardMap;
pub use node::{group_data_dir, ShardError, ShardSpawnOptions, ShardedNode};
pub use router::{Redirect, Router};
