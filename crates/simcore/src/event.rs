//! Generic discrete-event queue.
//!
//! [`EventQueue`] is a monotonic priority queue of `(time, payload)` pairs.
//! Ties on time are broken by insertion order (FIFO), so simulations that
//! schedule the same events in the same order always execute them in the
//! same order — a hard requirement for reproducibility.
//!
//! The queue is a monotone radix heap. Each event gets the unique
//! 128-bit key `(at << 64) | seq`, and keys order exactly as
//! `(time, insertion order)`. The clock never moves backwards and
//! scheduling clamps to it, while `seq` only grows, so no key is ever
//! below the last one popped. That is the radix heap's premise: an event
//! is filed in bucket `b`, the highest bit where its key differs from
//! the last popped key, and every key in a lower bucket is then smaller
//! than every key in a higher one. A pop takes the minimum of the lowest
//! non-empty bucket and re-files the rest of that bucket into strictly
//! lower buckets, so an event moves a bounded number of times over its
//! life instead of sifting through `log n` levels on every push and pop.

use crate::time::SimTime;

/// An event that has been scheduled on an [`EventQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Monotonic sequence number used for FIFO tie-breaking.
    pub seq: u64,
    /// The caller-defined payload.
    pub payload: E,
}

/// Radix buckets: one per bit of the 128-bit key.
const BUCKETS: usize = 128;

/// Capacity, in events, a bucket keeps once it has been emptied. A
/// bucket that grew past it gives the rest back, so a queue holds about
/// its live events rather than the sum of every bucket's high-water
/// mark. Keeping a little spares the busy near-term buckets an
/// allocation on every refill.
const RETAIN: usize = 64;

/// A queued event.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    fn key(&self) -> u128 {
        (u128::from(self.at.as_nanos()) << 64) | u128::from(self.seq)
    }
}

/// The bucket of `key` relative to the last popped key `last`: the
/// highest bit in which they differ.
fn bucket_of(key: u128, last: u128) -> usize {
    debug_assert!(key > last, "radix heap key at or below the last pop");
    (BUCKETS as u32 - 1 - (key ^ last).leading_zeros()) as usize
}

/// A deterministic discrete-event queue.
///
/// The queue tracks the current virtual time: popping an event advances the
/// clock to that event's timestamp. Scheduling an event in the past is a
/// logic error and panics in debug builds; in release it is clamped to the
/// current time so the simulation keeps a coherent, monotonic clock.
pub struct EventQueue<E> {
    /// Events scheduled before the first pop, unordered. The buckets are
    /// allocated at the first pop, so building a queue and scheduling
    /// its first events costs no more than a `Vec` push.
    staged: Vec<Entry<E>>,
    /// `buckets[b]` holds the events whose key first differs from
    /// `last` at bit `b`; empty until the first pop.
    buckets: Vec<Vec<Entry<E>>>,
    /// Bit `b` is set iff `buckets[b]` is non-empty.
    occupied: u128,
    /// Key of the last popped event.
    last: u128,
    len: usize,
    now: SimTime,
    next_seq: u64,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Drop for EventQueue<E> {
    /// Flushes lifetime totals into the ambient metrics scope (see
    /// `fiveg-obs`): how many events this queue scheduled and executed.
    /// Deterministic — both counts depend only on the simulation — and
    /// free in the hot path, since the queue already tracks them.
    fn drop(&mut self) {
        if self.next_seq > 0 || self.popped > 0 {
            fiveg_obs::counter_add("sim.events.scheduled", self.next_seq);
            fiveg_obs::counter_add("sim.events.executed", self.popped);
        }
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            staged: Vec::new(),
            buckets: Vec::new(),
            occupied: 0,
            last: 0,
            len: 0,
            now: SimTime::ZERO,
            next_seq: 0,
            popped: 0,
        }
    }

    /// Current virtual time (timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting in the queue.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events executed (popped) so far.
    pub fn executed(&self) -> u64 {
        self.popped
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// Returns the sequence number assigned to the event.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> u64 {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < now {}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry { at, seq, payload };
        if self.buckets.is_empty() {
            self.staged.push(entry);
        } else {
            self.file(entry);
        }
        self.len += 1;
        seq
    }

    /// Schedules `payload` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: crate::time::SimDuration, payload: E) -> u64 {
        self.schedule_at(self.now + delay, payload)
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let lowest = if self.buckets.is_empty() {
            &self.staged
        } else if self.occupied == 0 {
            return None;
        } else {
            &self.buckets[self.occupied.trailing_zeros() as usize]
        };
        lowest.iter().map(|e| (e.at, e.seq)).min().map(|(at, _)| at)
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.pop_until(SimTime::MAX)
    }

    /// Pops the earliest event only if it fires at or before `deadline`.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<ScheduledEvent<E>> {
        // Before the first pop every event waits unordered in `staged`;
        // after it, the lowest non-empty bucket holds the minimum.
        let bucket = if self.buckets.is_empty() {
            None
        } else if self.occupied == 0 {
            return None;
        } else {
            Some(self.occupied.trailing_zeros() as usize)
        };
        let lowest = match bucket {
            Some(b) => &mut self.buckets[b],
            None => &mut self.staged,
        };
        let (i, key) = lowest
            .iter()
            .map(Entry::key)
            .enumerate()
            .min_by_key(|&(_, key)| key)?;
        if key >> 64 > u128::from(deadline.as_nanos()) {
            return None;
        }
        let mut rest = std::mem::take(lowest);
        let entry = rest.swap_remove(i);
        self.last = key;
        match bucket {
            Some(b) => self.occupied &= !(1 << b),
            None => self.buckets.resize_with(BUCKETS, Vec::new),
        }
        // Everything left shares the popped key's prefix down to the
        // emptied bucket's bit, so it re-files strictly lower.
        for e in rest.drain(..) {
            self.file(e);
        }
        if let Some(b) = bucket {
            rest.shrink_to(RETAIN);
            self.buckets[b] = rest;
        }
        self.len -= 1;
        debug_assert!(entry.at >= self.now, "event queue time went backwards");
        self.now = entry.at;
        self.popped += 1;
        Some(ScheduledEvent {
            at: entry.at,
            seq: entry.seq,
            payload: entry.payload,
        })
    }

    /// Forces the clock forward to `at` (no-op if `at` is in the past).
    /// Useful for draining idle periods.
    pub fn advance_to(&mut self, at: SimTime) {
        if at > self.now {
            self.now = at;
        }
    }

    /// Files `entry` in its bucket relative to the last popped key.
    fn file(&mut self, entry: Entry<E>) {
        let b = bucket_of(entry.key(), self.last);
        self.buckets[b].push(entry);
        self.occupied |= 1 << b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(30), "c");
        q.schedule_at(SimTime::from_millis(10), "a");
        q.schedule_at(SimTime::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::from_millis(30));
        assert_eq!(q.executed(), 3);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        let expect: Vec<_> = (0..100).collect();
        assert_eq!(order, expect);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(10), 1);
        q.pop();
        q.schedule_in(SimDuration::from_millis(5), 2);
        let e = q.pop().unwrap();
        assert_eq!(e.at, SimTime::from_millis(15));
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(10), 1);
        q.schedule_at(SimTime::from_millis(20), 2);
        assert_eq!(q.pop_until(SimTime::from_millis(15)).unwrap().payload, 1);
        assert!(q.pop_until(SimTime::from_millis(15)).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn advance_to_never_goes_backwards() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(SimTime::from_millis(50));
        q.advance_to(SimTime::from_millis(10));
        assert_eq!(q.now(), SimTime::from_millis(50));
    }
}
