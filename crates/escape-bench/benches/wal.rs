//! WAL append benchmark: what one follower batch costs the write path
//! before the disk is involved.
//!
//! * `wal/append/b128` — [`Wal::append`] of one 128-entry
//!   `AppendSlice` (≈ 250 B payloads, ≈ 32 KB of record) followed by the
//!   `write` that hands it to the segment file; fsync is off.
//! * `wal/encode/b128` — the same 128 entries' `Entry::encode` alone,
//!   into a reused buffer: the floor any append pays.
//!
//! The difference is the record framing, the CRC-32 over every byte and
//! the page-cache `write`. `bench_check`'s `wal` suite gates
//! `append / encode ≤ 12`: with the slicing-by-16 CRC the ratio is ≈ 8
//! (33 µs / 4.2 µs on a 2-vCPU x86-64 VM), a byte-at-a-time CRC puts it
//! near 24 (102 µs / 4.3 µs).

use std::path::PathBuf;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use bytes::{Bytes, BytesMut};
use escape_core::log::{Entry, Payload};
use escape_core::types::{LogIndex, Term};
use escape_storage::{Wal, WalOptions, WalRecord};
use escape_wire::Encode;

/// Entries per appended slice — the durable workload's batch.
const BATCH: u64 = 128;

/// Segment size before the bench rotates and deletes the old one, so the
/// run keeps a few MiB on disk however long it lasts.
const SEGMENT_BYTES: u64 = 4 * 1024 * 1024;

fn batch() -> Vec<Entry> {
    (1..=BATCH)
        .map(|i| Entry {
            term: Term::new(3),
            index: LogIndex::new(i),
            payload: Payload::Command(Bytes::from(vec![i as u8; 250])),
        })
        .collect()
}

fn bench_wal(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal");
    group.sample_size(20);
    let entries = batch();
    let record = WalRecord::AppendSlice {
        prev_index: LogIndex::ZERO,
        prev_term: Term::ZERO,
        entries: entries.clone(),
    };
    let dir: PathBuf =
        std::env::temp_dir().join(format!("escape-wal-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let options = WalOptions {
        segment_max_bytes: SEGMENT_BYTES,
        fsync: false,
    };
    let mut wal = Wal::create(&dir, 1, options).expect("create segment");
    let mut encoded = BytesMut::with_capacity(64 * 1024);

    // Interleaved passes; the medians file keeps each label's minimum,
    // so one pass disturbed by a neighbour does not decide the gate.
    for _ in 0..4 {
        group.throughput(Throughput::Elements(BATCH));
        group.bench_with_input(BenchmarkId::new("append", "b128"), &(), |b, ()| {
            b.iter(|| {
                let seq = wal.seq();
                wal.append(&record).expect("append");
                wal.flush().expect("write");
                if wal.seq() != seq {
                    wal.delete_segments_below(wal.seq()).expect("delete old segment");
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("encode", "b128"), &(), |b, ()| {
            b.iter(|| {
                encoded.clear();
                for entry in &entries {
                    entry.encode(&mut encoded);
                }
                std::hint::black_box(encoded.len())
            });
        });
    }
    group.finish();
    drop(wal);
    let _ = std::fs::remove_dir_all(dir);
}

criterion_group!(benches, bench_wal);
criterion_main!(benches);
