//! # escape-transport
//!
//! The real-time runtime for the sans-IO consensus engine, in parts: the
//! same [`Node`](escape_core::engine::Node) that the deterministic
//! simulator drives for the paper's figures runs here against wall
//! clocks and real links. This crate has no node type of its own —
//! `escape-shard`'s `ShardedNode` assembles these parts into the one way
//! a node runs in real time (a single consensus group is a shard map of
//! one).
//!
//! * [`runtime`] — the per-group thread loop (inbox + timers → actions),
//!   which also answers every request through its [`Reply`].
//! * [`tcp`] — the group-multiplexed full mesh with `escape-wire`
//!   framing: [`TcpMesh`] and [`GroupOutbound`] outbound,
//!   [`Acceptor`](tcp::Acceptor) and [`GroupRoutes`] inbound, and
//!   [`recover_group`](tcp::recover_group) /
//!   [`start_group`](tcp::start_group), which put one group's storage
//!   and threads together.
//! * [`service`] — [`ClientService`]: client connections served off the
//!   peer listener. Its non-blocking `send` is this crate's only
//!   `unsafe` (the private `sys` module).
//! * [`wal`] — the per-group WAL thread that takes a leader's log barrier
//!   off the thread that sends its heartbeats.
//! * [`spec`] — protocol/timing presets scaled for loopback latencies.
//!
//! ```no_run
//! use std::collections::HashMap;
//! use std::sync::Arc;
//! use escape_core::types::{GroupId, ServerId};
//! use escape_transport::tcp::{loopback_listeners, Acceptor, GroupOutbound, GroupRoutes, TcpMesh};
//!
//! // Server 1's share of a two-server mesh: what it sends leaves through
//! // `outbound`, what it receives for a group arrives in that group's
//! // registered inbox.
//! let (addrs, listeners) = loopback_listeners(2);
//! let id = ServerId::new(1);
//! let mesh = TcpMesh::start(id, &addrs);
//! let outbound = GroupOutbound::new(Arc::clone(&mesh), GroupId::ZERO);
//! let routes = GroupRoutes::new();
//! let listener = listeners[&id].try_clone().unwrap();
//! let acceptor = Acceptor::spawn(id, addrs[&id], listener, routes, Arc::clone(&mesh), None);
//! # let _ = outbound;
//! acceptor.close();
//! mesh.stop();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod clock;
pub mod runtime;
pub mod service;
pub mod spec;
mod sys;
pub mod tcp;
pub mod wal;

pub use clock::RuntimeClock;
pub use runtime::{NodeInput, NodeStatus, Outbound, ProposeReply, Reply};
pub use service::{ClientRouter, ClientService, RouteVerdict};
pub use spec::ProtocolSpec;
pub use tcp::{loopback_listeners, GroupOutbound, GroupRoutes, StorageHook, TcpMesh};
