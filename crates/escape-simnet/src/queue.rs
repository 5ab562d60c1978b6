//! A deterministic time-ordered event queue: a calendar queue (R. Brown,
//! "Calendar queues", CACM 1988) over a slab of events.
//!
//! **The order is total.** Events pop by `(time, sequence number)`, and
//! every sequence number is handed out once, by [`EventQueue::push`] or by
//! [`EventQueue::reserve`] for a later [`EventQueue::push_reserved`]. No
//! two queued events compare equal, so any exact priority queue pops the
//! same sequence whatever its internals, and ties in time pop in
//! insertion (reservation) order. That is what lets two runs with the
//! same seed replay identically, and what let this queue replace a binary
//! heap without moving one event.
//!
//! **Each event is stored once.** It sits in a slab slot and does not
//! move while it waits. The queue orders 24-byte keys `(at, seq, slot)`,
//! compared on `(at, seq)`. A key lives in a ring of 256 buckets, one
//! per 2^10 µs (≈ 1 ms) of simulated time, so the ring covers ≈ 262 ms
//! ahead of the active bucket; a key beyond that waits in a small binary
//! heap of keys. When a bucket becomes active it takes the
//! heap's keys that fall inside it and is sorted once; a push into the
//! active bucket, or before it, is inserted in sorted position. When the
//! ring is empty the cursor jumps straight to the heap's first bucket.
//!
//! **Why these constants.** A 1 ms bucket holds only a few events both
//! for the paper's 100–200 ms WAN latencies, where one broadcast's copies
//! spread over a hundred buckets, and for the 1–5 ms reflex configs.
//! 256 of them reach past a WAN message's worst delay, so what overflows
//! is the election deadlines of 1.5 s or more, about one per node. Both
//! fit every config the repository runs, so they are constants.

use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use escape_core::time::Time;

/// log2 of a bucket's width in microseconds: 1024 µs.
const BUCKET_SHIFT: u32 = 10;

/// Buckets in the ring, a power of two: 256 × 1.024 ms ≈ 262 ms.
const BUCKETS: u64 = 256;

/// What the queue orders: an event's time and sequence number, and the
/// slab slot that holds it.
#[derive(Clone, Copy, Debug)]
struct Key {
    at: Time,
    seq: u64,
    slot: usize,
}

impl Key {
    fn bucket(&self) -> u64 {
        self.at.as_micros() >> BUCKET_SHIFT
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Key {}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The ring position of bucket number `bucket`.
fn ring_index(bucket: u64) -> usize {
    (bucket % BUCKETS) as usize
}

/// Events ordered by `(time, insertion sequence)`.
///
/// # Examples
///
/// ```
/// use escape_core::time::Time;
/// use escape_simnet::queue::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(Time::from_millis(20), "late");
/// q.push(Time::from_millis(10), "early");
/// assert_eq!(q.pop(), Some((Time::from_millis(10), "early")));
/// assert_eq!(q.pop(), Some((Time::from_millis(20), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Clone, Debug)]
pub struct EventQueue<E> {
    /// Every queued event, in the slot its key names.
    slab: Vec<Option<E>>,
    /// Empty slab slots, reused before the slab grows.
    free: Vec<usize>,
    /// `ring[b % BUCKETS]` holds the keys of bucket `b`, for every `b`
    /// in `cursor..cursor + BUCKETS`. The active bucket also holds every
    /// key pushed before it.
    ring: Vec<Vec<Key>>,
    /// Keys of buckets the ring did not reach when they were pushed.
    overflow: BinaryHeap<Reverse<Key>>,
    /// The active bucket's number.
    cursor: u64,
    /// The active bucket has taken its overflow keys and is sorted latest
    /// first, so the earliest key pops off its end.
    sorted: bool,
    /// Keys in the ring.
    in_ring: usize,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            slab: Vec::new(),
            free: Vec::new(),
            ring: (0..BUCKETS).map(|_| Vec::new()).collect(),
            overflow: BinaryHeap::new(),
            cursor: 0,
            sorted: false,
            in_ring: 0,
            seq: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at time `at`.
    pub fn push(&mut self, at: Time, event: E) {
        let seq = self.reserve();
        self.push_reserved(at, seq, event);
    }

    /// Takes the next insertion sequence number without queueing
    /// anything: an event pushed later under it with
    /// [`EventQueue::push_reserved`] sorts exactly as if it had been
    /// pushed now.
    pub fn reserve(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Schedules `event` at time `at` under a sequence number from
    /// [`EventQueue::reserve`]. Reusing a number for two events leaves
    /// their relative order unspecified.
    pub fn push_reserved(&mut self, at: Time, seq: u64, event: E) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                self.slab.len() - 1
            }
        };
        let key = Key { at, seq, slot };
        let bucket = key.bucket();
        if bucket >= self.cursor + BUCKETS {
            self.overflow.push(Reverse(key));
            return;
        }
        self.in_ring += 1;
        let keys = &mut self.ring[ring_index(bucket.max(self.cursor))];
        if bucket <= self.cursor && self.sorted {
            let position = keys.partition_point(|queued| *queued > key);
            keys.insert(position, key);
        } else {
            keys.push(key);
        }
    }

    /// Makes the active bucket the first non-empty one, taking its
    /// overflow keys and sorting it if it just became active. `None` when
    /// nothing is queued.
    fn settle(&mut self) -> Option<&mut Vec<Key>> {
        loop {
            let keys = &mut self.ring[ring_index(self.cursor)];
            if !self.sorted {
                while let Some(top) = self.overflow.peek_mut() {
                    if top.0.bucket() > self.cursor {
                        break;
                    }
                    keys.push(PeekMut::pop(top).0);
                    self.in_ring += 1;
                }
                keys.sort_unstable_by(|a, b| b.cmp(a));
                self.sorted = true;
            }
            if !keys.is_empty() {
                break;
            }
            if self.in_ring > 0 {
                self.cursor += 1;
            } else {
                self.cursor = self.overflow.peek()?.0.bucket();
            }
            self.sorted = false;
        }
        Some(&mut self.ring[ring_index(self.cursor)])
    }

    /// Pops the earliest event (FIFO among equal times).
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let key = self.settle()?.pop()?;
        self.in_ring -= 1;
        let event = self.slab[key.slot]
            .take()
            .expect("a queued key's slot holds its event");
        self.free.push(key.slot);
        Some((key.at, event))
    }

    /// The time of the earliest pending event. Takes `&mut self` because
    /// it settles the active bucket that [`EventQueue::pop`] then takes
    /// from.
    pub fn peek_time(&mut self) -> Option<Time> {
        self.settle()?.last().map(|key| key.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.in_ring + self.overflow.len()
    }

    /// `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every pending event.
    pub fn clear(&mut self) {
        self.slab.clear();
        self.free.clear();
        for keys in &mut self.ring {
            keys.clear();
        }
        self.overflow.clear();
        self.in_ring = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(Time::from_millis(3), 'c');
        q.push(Time::from_millis(1), 'a');
        q.push(Time::from_millis(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = Time::from_millis(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len_track_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Time::from_millis(9), ());
        q.push(Time::from_millis(4), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Time::from_millis(4)));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn reserved_sequence_numbers_sort_at_reservation_order() {
        let mut q = EventQueue::new();
        let t = Time::from_millis(5);
        let early = q.reserve();
        q.push(t, "pushed after the reservation");
        q.push_reserved(t, early, "reserved first");
        assert_eq!(q.pop(), Some((t, "reserved first")));
        assert_eq!(q.pop(), Some((t, "pushed after the reservation")));
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(Time::from_millis(10), 1);
        q.push(Time::from_millis(30), 3);
        assert_eq!(q.pop(), Some((Time::from_millis(10), 1)));
        q.push(Time::from_millis(20), 2);
        assert_eq!(q.pop(), Some((Time::from_millis(20), 2)));
        assert_eq!(q.pop(), Some((Time::from_millis(30), 3)));
    }

    /// One step of the oracle test, decoded from `(op, a, b)`.
    fn oracle_step(
        q: &mut EventQueue<u64>,
        reference: &mut BinaryHeap<Reverse<(Time, u64)>>,
        state: &mut OracleState,
        (op, a, b): (u8, u64, u64),
    ) {
        let now = state.now.as_micros();
        let at = match a % 8 {
            // Inside the active bucket, or the next few.
            0 | 1 => now + b % 4096,
            // An instant something was already queued at: a tie.
            2 => match state.times.len() {
                0 => now,
                pushed => state.times[b as usize % pushed].as_micros(),
            },
            // Within the ring's ≈ 262 ms horizon.
            3 | 4 => now + b % 300_000,
            // Past the horizon: an election deadline.
            5 => now + 262_144 + b % 2_000_000,
            // A gap longer than the horizon, for the cursor to jump.
            6 => now + 10_000_000 + b % 10_000_000,
            // Before the last popped instant.
            _ => now.saturating_sub(b % 3000),
        };
        let at = Time::from_micros(at);
        match op {
            0..=5 => {
                let seq = q.reserve();
                q.push_reserved(at, seq, seq);
                reference.push(Reverse((at, seq)));
                state.times.push(at);
            }
            6 => state.reserved.push(q.reserve()),
            7 => {
                if !state.reserved.is_empty() {
                    let seq = state
                        .reserved
                        .swap_remove(b as usize % state.reserved.len());
                    q.push_reserved(at, seq, seq);
                    reference.push(Reverse((at, seq)));
                    state.times.push(at);
                }
            }
            8..=13 => {
                let expected = reference.pop().map(|Reverse(pair)| pair);
                assert_eq!(q.pop(), expected);
                if let Some((popped, _)) = expected {
                    state.now = popped;
                }
            }
            14 => assert_eq!(q.peek_time(), reference.peek().map(|Reverse((at, _))| *at)),
            _ => {
                if a % 16 == 0 {
                    q.clear();
                    reference.clear();
                }
            }
        }
        assert_eq!(q.len(), reference.len());
        assert_eq!(q.is_empty(), reference.is_empty());
    }

    #[derive(Default)]
    struct OracleState {
        /// The last popped instant.
        now: Time,
        /// Every instant pushed so far, for ties.
        times: Vec<Time>,
        /// Sequence numbers reserved and not yet pushed.
        reserved: Vec<u64>,
    }

    proptest::proptest! {
        /// The calendar queue pops what a binary heap of `(time, seq)`
        /// pops, step for step, through ties, reservations, overflow
        /// keys, cursor jumps and pushes into the active bucket or the
        /// past — then drains identically.
        #[test]
        fn matches_a_binary_heap_oracle(
            ops in proptest::collection::vec(
                (0u8..16, proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>()),
                0..600,
            )
        ) {
            let mut q = EventQueue::new();
            let mut reference = BinaryHeap::new();
            let mut state = OracleState::default();
            for &op in &ops {
                oracle_step(&mut q, &mut reference, &mut state, op);
            }
            while let Some(Reverse(expected)) = reference.pop() {
                proptest::prop_assert_eq!(q.pop(), Some(expected));
            }
            proptest::prop_assert_eq!(q.pop(), None);
        }
    }
}
