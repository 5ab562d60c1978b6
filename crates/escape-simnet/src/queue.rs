//! A deterministic time-ordered event queue.
//!
//! Determinism requires a *total* order on events: ties in delivery time are
//! broken by insertion sequence number, so two runs with the same seed pop
//! events identically regardless of heap internals.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use escape_core::time::Time;

/// A queued event with its scheduled time.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Scheduled<E> {
    at: Time,
    seq: u64,
    event: E,
}

impl<E: Eq> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<E: Eq> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-heap of events ordered by `(time, insertion sequence)`.
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
pub struct EventQueue<E: Eq> {
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    seq: u64,
}

impl<E: Eq> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<E: Eq> EventQueue<E> {
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
        self.heap.push(Reverse(Scheduled { at, seq, event }));
    }

    /// Pops the earliest event (FIFO among equal times).
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|Reverse(s)| (s.at, s.event))
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse(s)| s.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops every pending event.
    pub fn clear(&mut self) {
        self.heap.clear();
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
}
