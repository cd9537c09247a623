//! The completion calendar: every pending writeback or resolution,
//! keyed by the cycle it is due.
//!
//! An event is just `(seq, slot)`: each live µop has at most one
//! completion in flight, so its payload lives in its ROB entry. Events
//! due within [`SPAN`] cycles sit in a ring of per-cycle buckets
//! (`buckets[cycle % SPAN]`) with a one-word occupancy mask, which makes
//! scheduling, the per-cycle drain and the next-event query O(1). The
//! rare events further out (main-memory misses) wait in a small min-heap
//! until they are due.
//!
//! Invariant: a bucket only ever holds events due at one cycle, and the
//! pipeline drains it at exactly that cycle — every tick drains the
//! current cycle, and a cycle skip never jumps past
//! [`Calendar::next_due`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::rob::RobSlot;

/// Cycles covered by the bucket ring (one bit each in the mask).
const SPAN: u64 = 64;

/// One scheduled completion. Orders by `seq`, the order the complete
/// stage processes a cycle's events in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Event {
    /// Program-order sequence of the µop (validates against squashes).
    pub seq: u64,
    /// Its ROB slot, where the payload lives.
    pub slot: u32,
}

impl Event {
    pub(crate) fn new(seq: u64, slot: RobSlot) -> Self {
        Event { seq, slot: u32::try_from(slot).expect("ROB slot fits u32") }
    }
}

/// Pending completions by due cycle (see the module docs).
#[derive(Debug)]
pub(crate) struct Calendar {
    buckets: Vec<Vec<Event>>,
    /// Bit `b` is set iff `buckets[b]` is non-empty.
    occupied: u64,
    /// Events due `SPAN` or more cycles after they were scheduled.
    far: BinaryHeap<Reverse<(u64, Event)>>,
}

impl Calendar {
    pub(crate) fn new() -> Self {
        Calendar {
            buckets: (0..SPAN).map(|_| Vec::new()).collect(),
            occupied: 0,
            far: BinaryHeap::new(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.occupied == 0 && self.far.is_empty()
    }

    /// Drop every event, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.occupied = 0;
        self.far.clear();
    }

    /// Schedule `ev` for cycle `due`, later than `now`.
    pub(crate) fn push(&mut self, now: u64, due: u64, ev: Event) {
        debug_assert!(due > now, "completions are due after the cycle that schedules them");
        if due - now < SPAN {
            let b = (due % SPAN) as usize;
            self.buckets[b].push(ev);
            self.occupied |= 1 << b;
        } else {
            self.far.push(Reverse((due, ev)));
        }
    }

    /// The earliest cycle, at or after `now`, with an event due.
    pub(crate) fn next_due(&self, now: u64) -> Option<u64> {
        let near = (self.occupied != 0).then(|| {
            now + u64::from(self.occupied.rotate_right((now % SPAN) as u32).trailing_zeros())
        });
        let far = self.far.peek().map(|Reverse((due, _))| *due);
        match (near, far) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Replace `out` with the events due at `now`, in `seq` order.
    pub(crate) fn drain_due(&mut self, now: u64, out: &mut Vec<Event>) {
        out.clear();
        let b = (now % SPAN) as usize;
        if self.occupied & (1 << b) != 0 {
            // Swap buffers so both keep their capacity.
            core::mem::swap(out, &mut self.buckets[b]);
            self.occupied &= !(1 << b);
        }
        while let Some(&Reverse((due, ev))) = self.far.peek() {
            if due > now {
                break;
            }
            debug_assert_eq!(due, now, "a far event was stepped past");
            self.far.pop();
            out.push(ev);
        }
        if out.len() > 1 {
            out.sort_unstable();
        }
    }

    /// Drop the events of every µop younger than `seq` (a squash).
    pub(crate) fn squash_younger(&mut self, seq: u64) {
        let mut occupied = self.occupied;
        while occupied != 0 {
            let b = occupied.trailing_zeros() as usize;
            occupied &= occupied - 1;
            self.buckets[b].retain(|e| e.seq <= seq);
            if self.buckets[b].is_empty() {
                self.occupied &= !(1 << b);
            }
        }
        self.far.retain(|Reverse((_, e))| e.seq <= seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(c: &mut Calendar, now: u64) -> Vec<u64> {
        let mut out = Vec::new();
        c.drain_due(now, &mut out);
        out.iter().map(|e| e.seq).collect()
    }

    #[test]
    fn events_come_out_at_their_cycle_in_seq_order() {
        let mut c = Calendar::new();
        c.push(10, 13, Event::new(7, 0));
        c.push(10, 13, Event::new(3, 1));
        c.push(10, 11, Event::new(9, 2));
        c.push(10, 10 + SPAN + 5, Event::new(1, 3));
        assert_eq!(c.next_due(10), Some(11));
        assert_eq!(drain(&mut c, 11), vec![9]);
        assert_eq!(c.next_due(12), Some(13));
        assert_eq!(drain(&mut c, 12), Vec::<u64>::new());
        assert_eq!(drain(&mut c, 13), vec![3, 7]);
        assert_eq!(c.next_due(14), Some(10 + SPAN + 5), "the far heap reports too");
        // A near event scheduled later for the same cycle as a far one
        // merges with it in seq order.
        c.push(10 + SPAN, 10 + SPAN + 5, Event::new(4, 4));
        assert_eq!(drain(&mut c, 10 + SPAN + 5), vec![1, 4]);
        assert!(c.is_empty());
        assert_eq!(c.next_due(100), None);
    }

    #[test]
    fn the_ring_wraps_and_squash_drops_younger_events() {
        let mut c = Calendar::new();
        let now = 3 * SPAN - 2;
        c.push(now, now + 1, Event::new(5, 0));
        c.push(now, now + 4, Event::new(6, 1));
        c.push(now, now + 4, Event::new(8, 2));
        c.push(now, now + 200, Event::new(9, 3));
        c.squash_younger(6);
        assert_eq!(drain(&mut c, now + 1), vec![5]);
        assert_eq!(c.next_due(now + 2), Some(now + 4), "found across the wrap");
        assert_eq!(drain(&mut c, now + 4), vec![6]);
        assert!(c.is_empty());
    }
}
