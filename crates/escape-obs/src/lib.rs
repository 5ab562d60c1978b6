//! `escape-obs` — observability for the ESCAPE workspace.
//!
//! The paper's headline claim is a *bounded reflex*: a prepared follower
//! takes over in one campaign. This crate makes that claim observable
//! instead of merely asserted end to end:
//!
//! * [`Event`] + [`Observer`] — a typed event taxonomy (elections, PPF
//!   rearrangements, lease grants/fences, snapshot transfers, WAL sync
//!   barriers, reconnects, frame drops) recorded into bounded per-node
//!   [`EventLog`] rings. The [`NullObserver`] disables recording behind
//!   a single branch, so the instrumented hot path costs <2% (gated in
//!   CI by `bench_check`'s `obs_overhead` suite).
//! * [`Registry`] — counters, gauges, and fixed-bucket histograms with
//!   ordered [`Labels`] (`node`, `group`, `peer`), rendered as
//!   Prometheus text exposition and served by the [`ScrapeServer`]
//!   behind `escape-demo --metrics <addr>`.
//! * [`reconstruct`] — the failover-timeline reconstructor: merges the
//!   group's event streams and decomposes one leader kill into
//!   `leader_killed → detected → campaign_started → leader_elected →
//!   first_commit`, with per-phase bound checks and a campaign count.
//!   Its merge, [`merge_events`], is what the simulator's election
//!   measurement reads too.
//!
//! The crate is dependency-free and sits *below* `escape-core`, so every
//! layer emits into it without a cycle; it speaks primitives (`u32` ids,
//! `u64` microseconds) and callers convert at the emit site.

#![deny(unsafe_code)]

pub mod event;
pub mod metrics;
pub mod observer;
pub mod ring;
pub mod scrape;
pub mod timeline;

pub use event::{Event, TimedEvent};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Labels, Registry};
pub use observer::{NullObserver, Observer, RingObserver};
pub use ring::{EventLog, DEFAULT_EVENT_CAPACITY};
pub use scrape::ScrapeServer;
pub use timeline::{
    merge_events, reconstruct, FailoverTimeline, NodeEvents, PhaseBounds, TimelineError,
};
