//! Simulator event-queue benchmark: the hold model at the occupancy of a
//! settled n = 50 cluster under 20 % loss (393 queued events on average,
//! 540 at most).
//!
//! * `sim_queue/calendar/hold512` — one hold operation on
//!   `escape_simnet::queue::EventQueue` holding 512 events: pop the
//!   earliest, push it back 100–200 ms after it, as a WAN delivery does.
//! * `sim_queue/heap_reference/hold512` — the same operations on the
//!   binary heap of whole events that the calendar queue replaced.
//!
//! Both carry a 136-byte payload, the size of a queued simulator event.
//! `bench_check`'s `sim_queue` suite gates `calendar / heap_reference
//! ≤ 0.7`: storing each event once and sorting ≈ 1 ms buckets of 24-byte
//! keys puts it near 0.45, and a heap that sifts whole events reads 1.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use escape_core::rand::{Rng64, Xoshiro256};
use escape_core::time::{Duration, Time};
use escape_simnet::queue::EventQueue;

/// Events held in the queue.
const HELD: usize = 512;

/// A queued simulator event's size.
type Payload = [u64; 17];

/// The ordering the simulator used before the calendar queue: every
/// heap level moves the whole event.
struct Scheduled {
    at: Time,
    seq: u64,
    event: Payload,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Scheduled {}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The two queues under one interface.
trait Hold {
    fn push(&mut self, at: Time, event: Payload);
    fn pop(&mut self) -> Option<(Time, Payload)>;
}

impl Hold for EventQueue<Payload> {
    fn push(&mut self, at: Time, event: Payload) {
        EventQueue::push(self, at, event);
    }

    fn pop(&mut self) -> Option<(Time, Payload)> {
        EventQueue::pop(self)
    }
}

#[derive(Default)]
struct HeapQueue {
    heap: BinaryHeap<Reverse<Scheduled>>,
    seq: u64,
}

impl Hold for HeapQueue {
    fn push(&mut self, at: Time, event: Payload) {
        self.seq += 1;
        self.heap.push(Reverse(Scheduled {
            at,
            seq: self.seq,
            event,
        }));
    }

    fn pop(&mut self) -> Option<(Time, Payload)> {
        self.heap.pop().map(|Reverse(s)| (s.at, s.event))
    }
}

/// A WAN delivery delay.
fn delay(rng: &mut Xoshiro256) -> Duration {
    rng.gen_duration(Duration::from_millis(100), Duration::from_millis(200))
}

fn bench_hold<Q: Hold>(c: &mut Criterion, label: &str, mut queue: Q) {
    let mut rng = Xoshiro256::seed_from(7);
    for i in 0..HELD {
        let at = Time::ZERO + delay(&mut rng);
        queue.push(at, [i as u64; 17]);
    }
    let mut group = c.benchmark_group("sim_queue");
    group.sample_size(20);
    group.bench_with_input(BenchmarkId::new(label, "hold512"), &(), |b, ()| {
        b.iter(|| {
            let (at, event) = queue.pop().expect("the hold model keeps the queue full");
            queue.push(at + delay(&mut rng), std::hint::black_box(event));
        });
    });
    group.finish();
}

fn bench_sim_queue(c: &mut Criterion) {
    // Interleaved passes; the medians file keeps each label's minimum,
    // so one pass disturbed by a neighbour does not decide the gate.
    for _ in 0..4 {
        bench_hold(c, "calendar", EventQueue::new());
        bench_hold(c, "heap_reference", HeapQueue::default());
    }
}

criterion_group!(benches, bench_sim_queue);
criterion_main!(benches);
