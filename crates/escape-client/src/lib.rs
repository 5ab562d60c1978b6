//! # escape-client — the shard-aware client and load harness
//!
//! The client side of the ESCAPE stack: a [`Client`] that caches the
//! cluster's [`ShardMap`](escape_shard::ShardMap), follows `Redirect`
//! and `NotLeader` hints, pipelines requests over one connection per
//! server, and bounds every operation with retry/timeout budgets and
//! jittered backoff — so a dead shard gets polite probing instead of a
//! retry storm.
//!
//! On top sits an open-loop, YCSB-style [`workload`] driver used by the
//! failover tests: zipfian hot keys, read/write mixes, target-ops/s
//! sweeps, and latency measured from each operation's *intended* start
//! time so cluster stalls surface in the tail percentiles rather than
//! being coordinated away.
//!
//! ## Protocol
//!
//! A client connection opens with a 1-byte `0x00` hello frame — invalid
//! as a peer `Envelope` (server ids start at 1) — after which the
//! connection speaks `ClientRequest`/`ClientResponse` frames from
//! `escape-wire`, demultiplexed by request id so many operations share
//! one socket.

#![deny(unsafe_code)]

pub mod client;
mod conn;
pub mod workload;

pub use client::{Client, ClientConfig, ClientError, Written};
pub use workload::{run_workload, OpStats, WorkloadConfig, WorkloadReport, Zipfian};
