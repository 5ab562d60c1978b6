//! # escape-transport
//!
//! Real-time runtimes for the sans-IO consensus engine: the same
//! [`Node`](escape_core::engine::Node) that the deterministic simulator
//! drives for the paper's figures runs here against wall clocks and real
//! links.
//!
//! * [`runtime`] — the per-node thread loop (inbox + timers → actions) and
//!   the [`Switchboard`](runtime::Switchboard) registry.
//! * [`inproc`] — [`InprocCluster`]: channel-mesh
//!   cluster in one process; supports pause/resume fault injection and a
//!   propose-and-wait client path.
//! * [`tcp`] — [`TcpNode`]: full-mesh TCP with
//!   `escape-wire` framing, plus the group-multiplexed
//!   [`TcpMesh`](tcp::TcpMesh)/[`GroupRoutes`](tcp::GroupRoutes) pieces
//!   `escape-shard` builds its multi-group nodes from.
//! * [`wal`] — the per-group WAL thread that takes a leader's log barrier
//!   off the thread that sends its heartbeats.
//! * [`spec`] — protocol/timing presets scaled for loopback latencies.
//!
//! ```no_run
//! use escape_transport::inproc::InprocCluster;
//! use escape_transport::spec::ProtocolSpec;
//!
//! let cluster = InprocCluster::spawn(5, ProtocolSpec::escape_local(), 1);
//! let leader = cluster.wait_for_leader(std::time::Duration::from_secs(3));
//! println!("leader = {leader:?}");
//! cluster.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod clock;
pub mod inproc;
pub mod runtime;
pub mod service;
pub mod spec;
pub mod tcp;
pub mod wal;

pub use clock::RuntimeClock;
pub use inproc::{ClientError, InprocCluster};
pub use runtime::{NodeInput, NodeStatus, Outbound};
pub use service::{ClientRouter, ClientService, RouteVerdict};
pub use spec::ProtocolSpec;
pub use tcp::{
    loopback_listeners, GroupOutbound, GroupRoutes, GroupSpawn, SpawnOptions, StorageHook,
    TcpMesh, TcpNode,
};
