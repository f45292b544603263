//! The deterministic discrete-event queue.
//!
//! [`EventQueue`] is a min-heap keyed on `(SimTime, sequence)`. The
//! sequence number makes simultaneous events pop in scheduling order, so
//! every simulation in the workspace is deterministic — the property all
//! experiment reproducibility rests on.
//!
//! The queue is generic in the event payload; simulators drive it with a
//! `while let Some((t, ev)) = q.pop()` loop and match on their own event
//! enum. That keeps ownership simple (no boxed closures capturing the
//! world) and makes simulators unit-testable event by event.

use ee_util::timeline::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

/// A virtual-time event queue.
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    now: SimTime,
    seq: u64,
    processed: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
        }
    }

    /// Current virtual time (the time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Schedule `event` at `delay` after the current time.
    pub fn schedule(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now.advance(delay), event);
    }

    /// Schedule `event` at an absolute time. Panics if `at` is in the
    /// simulator's past — causality violations are always bugs.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {} < {}",
            at.as_secs(),
            self.now.as_secs()
        );
        self.heap.push(Reverse(Scheduled {
            at,
            seq: self.seq,
            event,
        }));
        self.seq += 1;
    }

    /// Pop the next event, advancing virtual time to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(s) = self.heap.pop()?;
        self.now = s.at;
        self.processed += 1;
        Some((s.at, s.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimDuration::from_secs(3.0), "c");
        q.schedule(SimDuration::from_secs(1.0), "a");
        q.schedule(SimDuration::from_secs(2.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(SimDuration::from_secs(1.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn time_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimDuration::from_secs(5.0), ());
        assert_eq!(q.now(), SimTime::ZERO);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(5.0));
        assert_eq!(q.now(), t);
        assert!(q.pop().is_none());
    }

    #[test]
    fn relative_scheduling_compounds() {
        let mut q = EventQueue::new();
        q.schedule(SimDuration::from_secs(1.0), 1);
        let (_, _) = q.pop().unwrap();
        // now = 1s; +2s = 3s absolute.
        q.schedule(SimDuration::from_secs(2.0), 2);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(3.0));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn past_scheduling_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimDuration::from_secs(2.0), ());
        q.pop();
        q.schedule_at(SimTime::from_secs(1.0), ());
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_deterministic() {
        // Two identical runs must produce identical traces.
        let run = || {
            let mut q = EventQueue::new();
            let mut trace = Vec::new();
            q.schedule(SimDuration::from_secs(1.0), 0u32);
            while let Some((t, e)) = q.pop() {
                trace.push((t.as_nanos(), e));
                if e < 20 {
                    q.schedule(SimDuration::from_secs(0.5), e + 2);
                    q.schedule(SimDuration::from_secs(0.5), e + 1);
                }
            }
            trace
        };
        assert_eq!(run(), run());
    }
}
