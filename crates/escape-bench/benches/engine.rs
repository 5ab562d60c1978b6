//! Engine micro-benchmarks.
//!
//! * PPF rearrangement cost vs cluster size — the paper claims the leader's
//!   sort-and-assign step "imposes a slight computational cost" with linear
//!   (well, `O(n log n)`) complexity (§IV-C); this bench quantifies it.
//! * Log append and `AppendEntries` handling throughput.
//! * One heartbeat round's replies to a leader of 8 and of 128 — the
//!   per-ack path (quorum statistics, commit check) whose 128/8 ratio
//!   `bench_check leader_round` caps: linear is 16×.
//! * Wire codec encode/decode throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use bytes::Bytes;
use escape_core::config::EscapeParams;
use escape_core::engine::{Action, Node, TimerKind, TimerToken};
use escape_core::log::{Log, Payload};
use escape_core::message::{
    AppendEntriesArgs, AppendEntriesReply, ConfigStatus, Message, RequestVoteReply,
};
use escape_core::policy::{ElectionPolicy, EscapePolicy, RaftPolicy};
use escape_core::time::{Duration, Time};
use escape_core::types::{ConfClock, LogIndex, ServerId, Term};
use escape_wire::{Decode, Encode};

fn bench_ppf_rearrangement(c: &mut Criterion) {
    let mut group = c.benchmark_group("ppf_rearrangement");
    for n in [8usize, 32, 128, 512] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let params = EscapeParams::paper_defaults(n);
            let mut policy = EscapePolicy::new(ServerId::new(1), params);
            let peers: Vec<ServerId> = (2..=n as u32).map(ServerId::new).collect();
            policy.became_leader(&peers);
            for (i, peer) in peers.iter().enumerate() {
                policy.follower_status(
                    *peer,
                    ConfigStatus {
                        log_index: LogIndex::new((i as u64 * 37) % 1000),
                        timer_period: Duration::from_millis(1500),
                        conf_clock: ConfClock::ZERO,
                    },
                );
            }
            b.iter(|| {
                std::hint::black_box(policy.begin_heartbeat_round());
            });
        });
    }
    group.finish();
}

fn bench_log_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("log");
    group.throughput(Throughput::Elements(1));
    group.bench_function("append_new", |b| {
        let mut log = Log::new();
        let payload = Bytes::from_static(b"benchmark-command-payload");
        b.iter(|| {
            log.append_new(Term::new(1), Payload::Command(payload.clone()));
        });
    });
    group.bench_function("try_append_heartbeat", |b| {
        let mut log = Log::new();
        for _ in 0..1000 {
            log.append_new(Term::new(1), Payload::Noop);
        }
        b.iter(|| {
            std::hint::black_box(log.try_append(LogIndex::new(1000), Term::new(1), &[]));
        });
    });
    group.finish();
}

fn bench_message_handling(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.throughput(Throughput::Elements(1));
    group.bench_function("follower_heartbeat", |b| {
        let ids: Vec<ServerId> = (1..=5).map(ServerId::new).collect();
        let mut node = Node::builder(ids[1], ids.clone())
            .policy(Box::new(RaftPolicy::randomized(
                Duration::from_millis(150_000), // never fires during the bench
                Duration::from_millis(300_000),
                1,
            )))
            .build();
        node.start(Time::ZERO);
        // Make S1 the known leader in term 1 with an empty log.
        let heartbeat = Message::AppendEntries(AppendEntriesArgs {
            term: Term::new(1),
            leader_id: ids[0],
            prev_log_index: LogIndex::ZERO,
            prev_log_term: Term::ZERO,
            entries: Vec::new(),
            leader_commit: LogIndex::ZERO,
            new_config: None,
            seq: 0,
        });
        let mut now = Time::ZERO;
        b.iter(|| {
            now += Duration::from_millis(1);
            std::hint::black_box(node.handle_message(ids[0], heartbeat.clone(), now));
        });
    });
    group.finish();
}

/// Entries a quorum has not acknowledged, sitting above the leader's
/// commit index through every round of `bench_leader_round`.
const UNCOMMITTED_TAIL: usize = 32;

/// The deadline and token of the `kind` timer `actions` arm.
fn armed(actions: &[Action], kind: TimerKind) -> Option<(TimerToken, Time)> {
    actions.iter().find_map(|a| match a {
        Action::SetTimer { token, deadline } if token.kind == kind => Some((*token, *deadline)),
        _ => None,
    })
}

/// A leader of `n` whose no-op every follower holds, with
/// [`UNCOMMITTED_TAIL`] proposals above it that none acknowledges, and
/// its next heartbeat timer.
fn leader_with_uncommitted_tail(n: u32) -> (Node, Vec<ServerId>, TimerToken, Time) {
    let ids: Vec<ServerId> = (1..=n).map(ServerId::new).collect();
    let mut node = Node::builder(ids[0], ids.clone())
        .policy(Box::new(RaftPolicy::randomized(
            Duration::from_millis(150_000), // fires once, below
            Duration::from_millis(300_000),
            1,
        )))
        .build();
    let (election, now) = armed(&node.start(Time::ZERO), TimerKind::Election).expect("armed");
    node.handle_timer(election, now);
    let mut heartbeat = None;
    for peer in &ids[1..] {
        if node.is_leader() {
            break;
        }
        let grant = RequestVoteReply {
            term: node.current_term(),
            vote_granted: true,
        };
        let actions = node.handle_message(*peer, Message::RequestVoteReply(grant), now);
        heartbeat = armed(&actions, TimerKind::Heartbeat);
    }
    let (heartbeat, _) = heartbeat.expect("the winning vote arms the heartbeat");
    let noop = node.log().last_index();
    for peer in &ids[1..] {
        node.handle_message(*peer, ack(&node, noop, 0), now);
    }
    assert_eq!(node.commit_index(), noop);
    for i in 0..UNCOMMITTED_TAIL {
        node.propose(Bytes::from(format!("tail-{i}")), now)
            .expect("leader");
    }
    (node, ids, heartbeat, now)
}

fn ack(node: &Node, through: LogIndex, seq: u64) -> Message {
    Message::AppendEntriesReply(AppendEntriesReply {
        term: node.current_term(),
        success: true,
        match_hint: through,
        status: None,
        seq,
    })
}

/// One heartbeat round of a leader whose tail stays uncommitted: the
/// round goes out, and every follower's reply comes back (echoing the
/// round, acknowledging only the committed prefix). Per reply the leader
/// reclaims credit, folds in the echoed round and asks whether anything
/// commits; constant work each makes the round linear in `n`.
fn bench_leader_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    for n in [8u32, 128] {
        group.throughput(Throughput::Elements(u64::from(n - 1)));
        group.bench_with_input(BenchmarkId::new("leader_round", n), &n, |b, &n| {
            let (mut node, ids, mut heartbeat, mut now) = leader_with_uncommitted_tail(n);
            let committed = node.commit_index();
            b.iter(|| {
                now += Duration::from_millis(150);
                let round = node.handle_timer(heartbeat, now);
                heartbeat = armed(&round, TimerKind::Heartbeat).expect("re-armed").0;
                let seq = round
                    .iter()
                    .find_map(|a| match a {
                        Action::Send {
                            msg: Message::AppendEntries(args),
                            ..
                        } => Some(args.seq),
                        _ => None,
                    })
                    .expect("the round reaches every follower");
                for peer in &ids[1..] {
                    let reply = ack(&node, committed, seq);
                    std::hint::black_box(node.handle_message(*peer, reply, now));
                }
            });
            assert_eq!(node.commit_index(), committed, "tail must stay uncommitted");
        });
    }
    group.finish();
}

fn bench_wire_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");
    let msg = Message::AppendEntries(AppendEntriesArgs {
        term: Term::new(42),
        leader_id: ServerId::new(3),
        prev_log_index: LogIndex::new(1000),
        prev_log_term: Term::new(41),
        entries: (1..=16)
            .map(|i| escape_core::log::Entry {
                term: Term::new(42),
                index: LogIndex::new(1000 + i),
                payload: Payload::Command(Bytes::from(vec![0xAB; 64])),
            })
            .collect(),
        leader_commit: LogIndex::new(999),
        new_config: None,
        seq: 0,
    });
    let encoded = msg.to_bytes();
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("encode_append_entries_16x64B", |b| {
        b.iter(|| std::hint::black_box(msg.to_bytes()));
    });
    group.bench_function("decode_append_entries_16x64B", |b| {
        b.iter(|| {
            let mut buf = encoded.clone();
            std::hint::black_box(Message::decode(&mut buf).unwrap());
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_ppf_rearrangement, bench_log_append, bench_message_handling,
        bench_leader_round, bench_wire_codec
}
criterion_main!(benches);
