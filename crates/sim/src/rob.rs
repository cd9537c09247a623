//! The reorder buffer: a circular buffer of in-flight µops, committed in
//! order from the head, squashed youngest-first from the tail.
//!
//! An entry is plain data (`Copy`, no heap pointers): a branch's RAT
//! checkpoint lives in the pipeline's slot-indexed side array and its RAS
//! snapshot in a [`crate::bpred::RasCheckpoints`] ring, and the entry
//! also carries its pending completion's payload (`wb` + `result`), so
//! the completion queue only schedules `(seq, slot)` pairs.

use sempe_isa::Addr;

use crate::bpred::RasHandle;
use crate::rename::PhysReg;
use crate::skip::Wake;

/// Index of a ROB slot. Slots are reused; pair with the entry's `seq` to
/// detect staleness.
pub type RobSlot = usize;

/// What a µop's completion does, decided when it issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Writeback {
    /// Nothing beyond marking the µop done (no destination, or a fault).
    None,
    /// Write `result` to `phys_dest`.
    Reg,
    /// Write the loaded `result` to `phys_dest` and free the LQ slot.
    Load,
    /// Publish the store's address (`mem_addr`), data (`result`) and
    /// width to the store queue.
    Store,
    /// Resolve a branch: write the link `result` to `phys_dest` (if any),
    /// then squash on a misprediction.
    Branch,
}

/// One in-flight µop.
#[derive(Debug, Clone, Copy)]
pub struct RobEntry {
    /// Global program-order sequence number (never reused).
    pub seq: u64,
    /// Instruction address.
    pub pc: Addr,
    /// Index of the instruction's record in the decoded program
    /// ([`sempe_isa::program::DecodedProgram::uop`]).
    pub uop: u32,
    /// Predicted next PC for taken/indirect flows.
    pub pred_target: Addr,
    /// Global history before this branch's outcome was inserted.
    pub ghr_before: u64,
    /// Resolved target / taken-path entry for sJMP.
    pub actual_target: Addr,
    /// Data address of a load/store (valid once executed).
    pub mem_addr: Addr,
    /// The completion's value: the register result, the loaded value, or
    /// the store's data (see [`Writeback`]).
    pub result: u64,
    /// Store-queue identity (stores only).
    pub store_id: u64,
    /// Newly allocated destination register.
    pub phys_dest: Option<PhysReg>,
    /// Previous mapping of the destination (freed at commit).
    pub old_phys: Option<PhysReg>,
    /// RAS snapshot (after this instruction's own push/pop), for
    /// branches that can mispredict.
    pub ras: Option<RasHandle>,
    /// Execution finished; eligible for commit.
    pub done: bool,
    /// Predicted direction (conditional branches).
    pub pred_taken: bool,
    /// Resolved direction.
    pub actual_taken: bool,
    /// Was the instruction found mispredicted at resolution?
    pub mispredicted: bool,
    /// Is this a secure branch being tracked by the SempeUnit?
    pub is_sjmp: bool,
    /// Divided by zero: the architectural fault is raised at commit.
    pub div_fault: bool,
    /// What the pending completion does.
    pub wb: Writeback,
}

impl RobEntry {
    /// A fresh entry for the fetched instruction whose record is `uop`.
    #[must_use]
    pub fn new(seq: u64, pc: Addr, uop: u32) -> Self {
        RobEntry {
            seq,
            pc,
            uop,
            pred_target: 0,
            ghr_before: 0,
            actual_target: 0,
            mem_addr: 0,
            result: 0,
            store_id: 0,
            phys_dest: None,
            old_phys: None,
            ras: None,
            done: false,
            pred_taken: false,
            actual_taken: false,
            mispredicted: false,
            is_sjmp: false,
            div_fault: false,
            wb: Writeback::None,
        }
    }
}

/// Circular reorder buffer.
#[derive(Debug)]
pub struct Rob {
    slots: Vec<Option<RobEntry>>,
    head: usize,
    tail: usize,
    count: usize,
}

impl Rob {
    /// A ROB with `capacity` slots.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Rob { slots: vec![None; capacity], head: 0, tail: 0, count: 0 }
    }

    /// Reset to the pristine empty state of `Rob::new(capacity)`,
    /// recycling the slot vector's allocation where the capacity allows.
    /// Any entries still in flight are dropped.
    pub fn reset(&mut self, capacity: usize) {
        self.slots.clear();
        self.slots.resize(capacity, None);
        self.head = 0;
        self.tail = 0;
        self.count = 0;
    }

    /// Slot of the oldest entry (where the next entry would go when
    /// empty).
    #[must_use]
    pub fn head_slot(&self) -> RobSlot {
        self.head
    }

    /// Number of slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Occupied entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count
    }

    /// No in-flight µops?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Any free slots?
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.count == self.slots.len()
    }

    /// Append at the tail. Returns the slot, or `None` when full.
    pub fn push(&mut self, entry: RobEntry) -> Option<RobSlot> {
        if self.is_full() {
            return None;
        }
        let slot = self.tail;
        debug_assert!(self.slots[slot].is_none());
        self.slots[slot] = Some(entry);
        self.tail = self.wrap_next(self.tail);
        self.count += 1;
        Some(slot)
    }

    fn wrap_next(&self, i: usize) -> usize {
        if i + 1 == self.slots.len() {
            0
        } else {
            i + 1
        }
    }

    /// The oldest entry.
    #[must_use]
    pub fn head(&self) -> Option<&RobEntry> {
        if self.is_empty() {
            None
        } else {
            self.slots[self.head].as_ref()
        }
    }

    /// Mutable access to the oldest entry.
    pub fn head_mut(&mut self) -> Option<&mut RobEntry> {
        if self.is_empty() {
            None
        } else {
            self.slots[self.head].as_mut()
        }
    }

    /// Remove and return the oldest entry.
    pub fn pop_head(&mut self) -> Option<RobEntry> {
        if self.is_empty() {
            return None;
        }
        let e = self.slots[self.head].take();
        self.head = self.wrap_next(self.head);
        self.count -= 1;
        e
    }

    /// Access a slot if it holds an entry with the expected sequence
    /// number (guards against slot reuse after squash).
    pub fn get_checked(&mut self, slot: RobSlot, seq: u64) -> Option<&mut RobEntry> {
        self.slots[slot].as_mut().filter(|e| e.seq == seq)
    }

    /// Access a slot regardless of seq.
    #[must_use]
    pub fn get(&self, slot: RobSlot) -> Option<&RobEntry> {
        self.slots.get(slot).and_then(|s| s.as_ref())
    }

    /// Remove the youngest entry, with its slot, if it is younger than
    /// `seq` (strictly greater). A squash calls this until it returns
    /// `None`, so the younger entries leave youngest-first without a
    /// temporary collection.
    pub fn pop_younger(&mut self, seq: u64) -> Option<(RobSlot, RobEntry)> {
        if self.count == 0 {
            return None;
        }
        let last = if self.tail == 0 { self.slots.len() - 1 } else { self.tail - 1 };
        if self.slots[last].as_ref().is_none_or(|e| e.seq <= seq) {
            return None;
        }
        self.tail = last;
        self.count -= 1;
        self.slots[last].take().map(|e| (last, e))
    }

    /// Next-event report of the commit stage's view: the ROB holds no
    /// timers of its own, so it can act exactly when the head entry has
    /// finished executing ([`Wake::Now`]) and is otherwise woken by the
    /// completion event that will finish it ([`Wake::Idle`]).
    #[must_use]
    pub fn commit_wake(&self) -> Wake {
        match self.head() {
            Some(head) if head.done => Wake::Now,
            _ => Wake::Idle,
        }
    }

    /// Iterate entries oldest to youngest.
    pub fn iter(&self) -> impl Iterator<Item = &RobEntry> {
        let cap = self.slots.len();
        let head = self.head;
        (0..self.count).filter_map(move |i| self.slots[(head + i) % cap].as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seq: u64) -> RobEntry {
        RobEntry::new(seq, 0x1000 + seq * 4, seq as u32)
    }

    #[test]
    fn fifo_order_and_capacity() {
        let mut rob = Rob::new(3);
        assert!(rob.is_empty());
        rob.push(entry(1)).unwrap();
        rob.push(entry(2)).unwrap();
        rob.push(entry(3)).unwrap();
        assert!(rob.is_full());
        assert!(rob.push(entry(4)).is_none());
        assert_eq!(rob.pop_head().unwrap().seq, 1);
        assert_eq!(rob.len(), 2);
        rob.push(entry(4)).unwrap(); // wraps around
        assert_eq!(rob.pop_head().unwrap().seq, 2);
        assert_eq!(rob.pop_head().unwrap().seq, 3);
        assert_eq!(rob.pop_head().unwrap().seq, 4);
        assert!(rob.pop_head().is_none());
    }

    #[test]
    fn squash_removes_younger_only() {
        let mut rob = Rob::new(8);
        for s in 1..=5 {
            rob.push(entry(s)).unwrap();
        }
        let seqs: Vec<u64> =
            std::iter::from_fn(|| rob.pop_younger(3)).map(|(_, e)| e.seq).collect();
        assert_eq!(seqs, vec![5, 4], "youngest first");
        assert_eq!(rob.len(), 3);
        let remaining: Vec<u64> = rob.iter().map(|e| e.seq).collect();
        assert_eq!(remaining, vec![1, 2, 3]);
        // Tail is usable again after the squash.
        rob.push(entry(6)).unwrap();
        assert_eq!(rob.iter().last().unwrap().seq, 6);
    }

    #[test]
    fn get_checked_guards_against_reuse() {
        let mut rob = Rob::new(2);
        let slot = rob.push(entry(1)).unwrap();
        assert!(rob.get_checked(slot, 1).is_some());
        assert!(rob.get_checked(slot, 99).is_none());
        rob.pop_head();
        rob.push(entry(2)).unwrap();
        rob.push(entry(3)).unwrap(); // reuses slot 0
        assert!(rob.get_checked(slot, 1).is_none(), "stale seq must not match");
    }

    #[test]
    fn squash_everything_with_seq_zero() {
        let mut rob = Rob::new(4);
        for s in 1..=4 {
            rob.push(entry(s)).unwrap();
        }
        assert_eq!(std::iter::from_fn(|| rob.pop_younger(0)).count(), 4);
        assert!(rob.is_empty());
    }
}
