//! Per-node protocol counters.
//!
//! Light-weight counters the engine bumps as it runs; the cluster harness
//! aggregates them to report, e.g., message complexity (Theorem 5 predicts
//! `O(n²)` transmissions per election, `O(n)` in the best case). The
//! replication pipeline adds two fixed-bucket histograms: proposal batch
//! sizes and propose→commit latency, both cheap enough to bump on the
//! hot path (an array index increment).

use crate::message::MessageKind;
use crate::time::Duration;

/// Upper bounds (inclusive) of the batch-size histogram buckets; batches
/// larger than the last bound land in the overflow bucket.
pub const BATCH_SIZE_BOUNDS: [u64; 5] = [1, 4, 16, 64, 256];

/// Upper bounds (inclusive, in microseconds) of the commit-latency
/// histogram buckets; slower commits land in the overflow bucket.
pub const COMMIT_LATENCY_BOUNDS_MICROS: [u64; 5] = [100, 1_000, 10_000, 50_000, 250_000];

/// Counters for one node's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeMetrics {
    /// Election campaigns this node started (timer expirations → candidacy).
    pub elections_started: u64,
    /// Times this node won an election.
    pub elections_won: u64,
    /// Votes this node granted to others.
    pub votes_granted: u64,
    /// Vote requests this node rejected.
    pub votes_rejected: u64,
    /// Times this node stepped down after seeing a higher term.
    pub step_downs: u64,
    /// `AppendEntries` requests sent (heartbeats + replication).
    pub append_entries_sent: u64,
    /// `InstallSnapshot` requests sent.
    pub snapshots_sent: u64,
    /// Snapshots installed from a leader.
    pub snapshots_installed: u64,
    /// Local log compactions performed.
    pub compactions: u64,
    /// `RequestVote` requests sent.
    pub request_votes_sent: u64,
    /// Replies sent (both kinds).
    pub replies_sent: u64,
    /// Messages received, any kind.
    pub messages_received: u64,
    /// Log entries committed while this node led.
    pub entries_committed: u64,
    /// Commands applied to the state machine.
    pub commands_applied: u64,
    /// PPF configuration rearrangements issued (leaders only).
    pub rearrangements_issued: u64,
    /// Configuration updates adopted from heartbeats (followers only).
    pub configs_adopted: u64,
    /// Proposal batches accepted while leading (a single `propose` counts
    /// as a batch of one).
    pub propose_batches: u64,
    /// Commands accepted across all proposal batches.
    pub commands_proposed: u64,
    /// Batch-size distribution: bucket `i` counts batches of size
    /// ≤ [`BATCH_SIZE_BOUNDS`]`[i]`; the last slot is the overflow.
    pub batch_size_histogram: [u64; BATCH_SIZE_BOUNDS.len() + 1],
    /// Propose→commit latency distribution: bucket `i` counts commits
    /// within [`COMMIT_LATENCY_BOUNDS_MICROS`]`[i]` µs; the last slot is
    /// the overflow.
    pub commit_latency_histogram: [u64; COMMIT_LATENCY_BOUNDS_MICROS.len() + 1],
    /// Sum of all measured propose→commit latencies, for averaging.
    pub commit_latency_total_micros: u64,
    /// Number of commits that contributed a latency measurement.
    pub commits_timed: u64,
    /// Linearizable read batches accepted while leading.
    pub read_batches: u64,
    /// Queries answered through the read path (lease + quorum).
    pub reads_served: u64,
    /// Queries accepted under a held lease (no network round).
    pub lease_reads: u64,
    /// Queries that needed a ReadIndex confirmation round.
    pub quorum_reads: u64,
    /// Queries failed unanswered because leadership changed first.
    pub reads_failed: u64,
    /// Votes refused by the lease fence (leased round heard too recently).
    pub votes_lease_fenced: u64,
    /// Times the transport's dropped-frame report clamped a follower's
    /// pipelining window back to 1.
    pub backpressure_resets: u64,
}

impl NodeMetrics {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total messages sent, any kind.
    pub fn messages_sent(&self) -> u64 {
        self.append_entries_sent + self.request_votes_sent + self.snapshots_sent + self.replies_sent
    }

    /// Mean propose→commit latency, if any commit was timed.
    pub fn mean_commit_latency(&self) -> Option<Duration> {
        if self.commits_timed == 0 {
            return None;
        }
        Some(Duration::from_micros(
            self.commit_latency_total_micros / self.commits_timed,
        ))
    }

    /// Mean commands per proposal batch, if any batch was accepted.
    pub fn mean_batch_size(&self) -> Option<f64> {
        if self.propose_batches == 0 {
            return None;
        }
        Some(self.commands_proposed as f64 / self.propose_batches as f64)
    }

    /// Records one accepted proposal batch of `commands` commands.
    pub(crate) fn record_batch(&mut self, commands: usize) {
        self.propose_batches += 1;
        self.commands_proposed += commands as u64;
        let slot = BATCH_SIZE_BOUNDS
            .iter()
            .position(|&bound| commands as u64 <= bound)
            .unwrap_or(BATCH_SIZE_BOUNDS.len());
        // lint:allow(panic): slot <= BOUNDS.len(), histogram holds len + 1 slots
        self.batch_size_histogram[slot] += 1;
    }

    /// Records one proposal's propose→commit latency.
    pub(crate) fn record_commit_latency(&mut self, latency: Duration) {
        let micros = latency.as_micros();
        let slot = COMMIT_LATENCY_BOUNDS_MICROS
            .iter()
            .position(|&bound| micros <= bound)
            .unwrap_or(COMMIT_LATENCY_BOUNDS_MICROS.len());
        // lint:allow(panic): slot <= BOUNDS.len(), histogram holds len + 1 slots
        self.commit_latency_histogram[slot] += 1;
        self.commit_latency_total_micros += micros;
        self.commits_timed += 1;
    }

    /// Publishes this counter set into an [`escape_obs::Registry`] under
    /// `labels` (typically `node` and, when sharded, `group`).
    ///
    /// Counters carry the node's lifetime totals, so this *stores* them as
    /// the instrument's absolute value rather than adding — publishing is
    /// idempotent and may run on every scrape or status tick. The two
    /// engine histograms land with their native bucket bounds, ready for
    /// cross-group merging via [`escape_obs::Registry::aggregate_histogram`].
    pub fn publish(&self, registry: &escape_obs::Registry, labels: &escape_obs::Labels) {
        let counters: [(&str, u64); 25] = [
            ("escape_elections_started_total", self.elections_started),
            ("escape_elections_won_total", self.elections_won),
            ("escape_votes_granted_total", self.votes_granted),
            ("escape_votes_rejected_total", self.votes_rejected),
            ("escape_votes_lease_fenced_total", self.votes_lease_fenced),
            ("escape_step_downs_total", self.step_downs),
            ("escape_append_entries_sent_total", self.append_entries_sent),
            ("escape_request_votes_sent_total", self.request_votes_sent),
            ("escape_snapshots_sent_total", self.snapshots_sent),
            ("escape_snapshots_installed_total", self.snapshots_installed),
            ("escape_compactions_total", self.compactions),
            ("escape_replies_sent_total", self.replies_sent),
            ("escape_messages_received_total", self.messages_received),
            ("escape_entries_committed_total", self.entries_committed),
            ("escape_commands_applied_total", self.commands_applied),
            (
                "escape_rearrangements_issued_total",
                self.rearrangements_issued,
            ),
            ("escape_configs_adopted_total", self.configs_adopted),
            ("escape_propose_batches_total", self.propose_batches),
            ("escape_commands_proposed_total", self.commands_proposed),
            ("escape_read_batches_total", self.read_batches),
            ("escape_reads_served_total", self.reads_served),
            ("escape_lease_reads_total", self.lease_reads),
            ("escape_quorum_reads_total", self.quorum_reads),
            ("escape_reads_failed_total", self.reads_failed),
            (
                "escape_backpressure_resets_total",
                self.backpressure_resets,
            ),
        ];
        for (name, total) in counters {
            registry.counter(name, labels).store(total);
        }
        registry
            .histogram("escape_propose_batch_size", labels, &BATCH_SIZE_BOUNDS)
            .store_snapshot(&self.batch_size_histogram, self.commands_proposed);
        registry
            .histogram(
                "escape_commit_latency_micros",
                labels,
                &COMMIT_LATENCY_BOUNDS_MICROS,
            )
            .store_snapshot(
                &self.commit_latency_histogram,
                self.commit_latency_total_micros,
            );
    }

    /// Records one outbound message of the given kind.
    pub(crate) fn record_send(&mut self, kind: MessageKind) {
        match kind {
            MessageKind::AppendEntries => self.append_entries_sent += 1,
            MessageKind::RequestVote => self.request_votes_sent += 1,
            MessageKind::InstallSnapshot => self.snapshots_sent += 1,
            MessageKind::AppendEntriesReply
            | MessageKind::RequestVoteReply
            | MessageKind::InstallSnapshotReply => self.replies_sent += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_recording_buckets_by_kind() {
        let mut m = NodeMetrics::new();
        m.record_send(MessageKind::AppendEntries);
        m.record_send(MessageKind::RequestVote);
        m.record_send(MessageKind::RequestVoteReply);
        m.record_send(MessageKind::AppendEntriesReply);
        assert_eq!(m.append_entries_sent, 1);
        assert_eq!(m.request_votes_sent, 1);
        assert_eq!(m.replies_sent, 2);
        assert_eq!(m.messages_sent(), 4);
    }

    #[test]
    fn default_is_all_zero() {
        let m = NodeMetrics::new();
        assert_eq!(m.messages_sent(), 0);
        assert_eq!(m, NodeMetrics::default());
        assert_eq!(m.mean_commit_latency(), None);
        assert_eq!(m.mean_batch_size(), None);
    }

    #[test]
    fn batch_histogram_buckets_by_size() {
        let mut m = NodeMetrics::new();
        m.record_batch(1);
        m.record_batch(3);
        m.record_batch(16);
        m.record_batch(200);
        m.record_batch(10_000); // overflow
        assert_eq!(m.propose_batches, 5);
        assert_eq!(m.commands_proposed, 1 + 3 + 16 + 200 + 10_000);
        assert_eq!(m.batch_size_histogram, [1, 1, 1, 0, 1, 1]);
        assert!(m.mean_batch_size().unwrap() > 1.0);
    }

    #[test]
    fn latency_histogram_buckets_by_duration() {
        let mut m = NodeMetrics::new();
        m.record_commit_latency(Duration::from_micros(50));
        m.record_commit_latency(Duration::from_micros(100)); // inclusive bound
        m.record_commit_latency(Duration::from_millis(5));
        m.record_commit_latency(Duration::from_millis(400)); // overflow
        assert_eq!(m.commit_latency_histogram, [2, 0, 1, 0, 0, 1]);
        assert_eq!(m.commits_timed, 4);
        assert_eq!(
            m.mean_commit_latency(),
            Some(Duration::from_micros((50 + 100 + 5_000 + 400_000) / 4))
        );
    }
}
