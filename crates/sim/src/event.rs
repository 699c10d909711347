//! The event queue: a binary heap ordered by `(time, sequence number)`.

use bayou_types::{ReplicaId, TimerId, VirtualTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The kinds of events the simulator dispatches.
#[derive(Debug, Clone)]
pub(crate) enum EventKind<M, I> {
    /// Replica start-up (`on_start`).
    Start,
    /// Delivery of a message from another replica.
    Deliver { from: ReplicaId, msg: M },
    /// A timer armed by the replica fires.
    Timer { timer: TimerId },
    /// A client input (operation invocation).
    Input { input: I },
    /// Poll for one internal step (`on_internal`).
    Internal,
    /// The replica's CPU frees up: release one parked (CPU-gated) event.
    ///
    /// Events arriving while a replica's CPU is busy are *parked* in a
    /// per-replica FIFO instead of being re-pushed into this heap — a
    /// saturated replica would otherwise re-cycle its whole backlog
    /// through the heap once per handler, O(backlog · log) per step.
    /// `CpuFree` is the bounded wake-up that feeds parked events back in,
    /// one per completed handler.
    CpuFree,
    /// The replica's busy period may have ended: if its CPU is free with
    /// nothing parked, the frames its handlers held leave now
    /// (`Process::release_frames`); otherwise the check waits for the CPU
    /// to free again.
    Release,
    /// Rebuild the replica's process from the simulator's factory and
    /// start it (crash-recovery restart). The factory typically reopens
    /// the replica's durable storage, so the new incarnation resumes
    /// from whatever it persisted before crashing.
    Restart,
}

/// A scheduled event.
#[derive(Debug, Clone)]
pub(crate) struct Event<M, I> {
    pub at: VirtualTime,
    pub seq: u64,
    pub replica: ReplicaId,
    pub kind: EventKind<M, I>,
}

impl<M, I> PartialEq for Event<M, I> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<M, I> Eq for Event<M, I> {}

impl<M, I> PartialOrd for Event<M, I> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M, I> Ord for Event<M, I> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the *earliest* event pops
        // first. Sequence numbers break ties deterministically (FIFO).
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A deterministic priority queue of simulator events.
#[derive(Debug)]
pub(crate) struct EventQueue<M, I> {
    heap: BinaryHeap<Event<M, I>>,
    next_seq: u64,
}

impl<M, I> EventQueue<M, I> {
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules an event, assigning the next sequence number.
    pub fn push(&mut self, at: VirtualTime, replica: ReplicaId, kind: EventKind<M, I>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event {
            at,
            seq,
            replica,
            kind,
        });
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<Event<M, I>> {
        self.heap.pop()
    }

    /// Peeks at the earliest event without removing it.
    pub fn peek(&self) -> Option<&Event<M, I>> {
        self.heap.peek()
    }

    /// Re-inserts an event at a later time *keeping its original
    /// sequence number*, so it still wins same-instant ties against
    /// anything that arrived after it (used when releasing parked
    /// events: a release must not cost the event its FIFO position).
    pub fn release(&mut self, mut ev: Event<M, I>, at: VirtualTime) {
        debug_assert!(at >= ev.at);
        ev.at = at;
        self.heap.push(ev);
    }

    #[allow(dead_code)]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    #[allow(dead_code)]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> VirtualTime {
        VirtualTime::from_nanos(ns)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<(), ()> = EventQueue::new();
        q.push(t(30), ReplicaId::new(0), EventKind::Start);
        q.push(t(10), ReplicaId::new(1), EventKind::Start);
        q.push(t(20), ReplicaId::new(2), EventKind::Start);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.at.as_nanos())
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q: EventQueue<(), ()> = EventQueue::new();
        for i in 0..5u32 {
            q.push(t(7), ReplicaId::new(i), EventKind::Start);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| e.replica.as_u32())
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn release_moves_event_later_but_keeps_tie_priority() {
        let mut q: EventQueue<(), ()> = EventQueue::new();
        q.push(t(10), ReplicaId::new(0), EventKind::Start);
        q.push(t(25), ReplicaId::new(1), EventKind::Start);
        let e = q.pop().unwrap();
        assert_eq!(e.replica, ReplicaId::new(0));
        q.release(e, t(25));
        // the released event keeps its older seq: it wins the t=25 tie
        let e = q.pop().unwrap();
        assert_eq!(e.replica, ReplicaId::new(0));
        assert_eq!(e.at, t(25));
        let e = q.pop().unwrap();
        assert_eq!(e.replica, ReplicaId::new(1));
        assert!(q.is_empty());
    }

    #[test]
    fn len_tracks_contents() {
        let mut q: EventQueue<(), ()> = EventQueue::new();
        assert_eq!(q.len(), 0);
        q.push(t(1), ReplicaId::new(0), EventKind::Start);
        q.push(t(2), ReplicaId::new(0), EventKind::Internal);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }
}
