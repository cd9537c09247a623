//! A return-address stack with copy-based checkpointing (the stack is
//! small, so snapshot-on-branch is the simplest correct recovery scheme in
//! a software model). The pipeline keeps its in-flight branches'
//! snapshots in one reusable [`RasCheckpoints`] ring.

use sempe_isa::Addr;

/// Fixed-depth return-address stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReturnStack {
    entries: Vec<Addr>,
    depth: usize,
}

impl ReturnStack {
    /// A stack holding up to `depth` return addresses.
    #[must_use]
    pub fn new(depth: usize) -> Self {
        ReturnStack { entries: Vec::with_capacity(depth), depth }
    }

    /// Push a return address (a call retires its fall-through here). The
    /// oldest entry falls off when full, like real hardware.
    pub fn push(&mut self, addr: Addr) {
        if self.entries.len() == self.depth {
            self.entries.remove(0);
        }
        self.entries.push(addr);
    }

    /// Pop the predicted return target.
    pub fn pop(&mut self) -> Option<Addr> {
        self.entries.pop()
    }

    /// Current occupancy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the stack empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The stacked return addresses, oldest first.
    #[must_use]
    pub fn entries(&self) -> &[Addr] {
        &self.entries
    }

    /// Restore a snapshot taken from [`ReturnStack::entries`].
    pub fn restore(&mut self, snap: &[Addr]) {
        self.entries.clear();
        self.entries.extend_from_slice(snap);
    }
}

/// A handle to one snapshot in a [`RasCheckpoints`] ring.
pub type RasHandle = u32;

/// The RAS snapshots of the in-flight branches, in one buffer sized by
/// [`RasCheckpoints::ensure`].
///
/// A branch snapshots the stack at fetch, in program order, and gives
/// the snapshot back at commit (oldest first) or when a squash removes
/// it (youngest first), so the live snapshots form a FIFO: a ring of
/// `depth`-address rows addressed by a wrapping [`RasHandle`]. Taking
/// one copies at most `depth` addresses and never allocates.
#[derive(Debug, Clone, Default)]
pub struct RasCheckpoints {
    rows: Vec<Addr>,
    lens: Vec<usize>,
    depth: usize,
    mask: RasHandle,
    /// Handle of the oldest live snapshot.
    head: RasHandle,
    /// Handle the next snapshot gets.
    tail: RasHandle,
}

impl RasCheckpoints {
    /// Size the ring for `capacity` snapshots of a `depth`-entry stack
    /// unless it already is; the default ring holds none. Resizing keeps
    /// the buffers' allocations and releases every snapshot, so the ring
    /// must be empty then.
    pub fn ensure(&mut self, capacity: usize, depth: usize) {
        let slots = capacity.max(1).next_power_of_two();
        if self.lens.len() != slots || self.depth != depth {
            debug_assert!(self.is_empty(), "resizing drops live snapshots");
            self.rows.resize(slots * depth, 0);
            self.lens.resize(slots, 0);
            self.depth = depth;
            self.mask = RasHandle::try_from(slots - 1).expect("snapshot ring fits a handle");
            self.clear();
        }
    }

    /// Live snapshots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tail.wrapping_sub(self.head) as usize
    }

    /// No live snapshots?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Release every snapshot.
    pub fn clear(&mut self) {
        self.head = 0;
        self.tail = 0;
    }

    /// Snapshot `ras` as the youngest entry.
    ///
    /// # Panics
    ///
    /// Panics when every slot holds a live snapshot.
    pub fn take(&mut self, ras: &ReturnStack) -> RasHandle {
        assert!(self.len() < self.lens.len(), "RAS snapshot ring overflow");
        debug_assert!(ras.entries.len() <= self.depth);
        let h = self.tail;
        let slot = (h & self.mask) as usize;
        let row = slot * self.depth;
        self.rows[row..row + ras.entries.len()].copy_from_slice(&ras.entries);
        self.lens[slot] = ras.entries.len();
        self.tail = h.wrapping_add(1);
        h
    }

    /// The stack as snapshot `h` saw it, oldest first.
    #[must_use]
    pub fn get(&self, h: RasHandle) -> &[Addr] {
        debug_assert!(h.wrapping_sub(self.head) < self.tail.wrapping_sub(self.head));
        let slot = (h & self.mask) as usize;
        let row = slot * self.depth;
        &self.rows[row..row + self.lens[slot]]
    }

    /// Release the oldest snapshot, `h` (its branch committed).
    pub fn release_oldest(&mut self, h: RasHandle) {
        debug_assert_eq!(h, self.head, "snapshots are released in program order");
        self.head = h.wrapping_add(1);
    }

    /// Release snapshot `h` and every younger one (a squash).
    pub fn release_from(&mut self, h: RasHandle) {
        debug_assert!(h.wrapping_sub(self.head) <= self.tail.wrapping_sub(self.head));
        self.tail = h;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_is_lifo() {
        let mut r = ReturnStack::new(4);
        r.push(0x10);
        r.push(0x20);
        assert_eq!(r.pop(), Some(0x20));
        assert_eq!(r.pop(), Some(0x10));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn overflow_drops_oldest() {
        let mut r = ReturnStack::new(2);
        r.push(1);
        r.push(2);
        r.push(3);
        assert_eq!(r.len(), 2);
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), None, "oldest entry was dropped");
    }

    #[test]
    fn snapshot_restore_roundtrips() {
        let mut r = ReturnStack::new(4);
        r.push(7);
        let snap = r.entries().to_vec();
        r.push(8);
        r.pop();
        r.pop();
        assert!(r.is_empty());
        r.restore(&snap);
        assert_eq!(r.pop(), Some(7));
    }

    #[test]
    fn checkpoint_ring_is_a_fifo_that_never_grows() {
        let mut r = ReturnStack::new(4);
        let mut cps = RasCheckpoints::default();
        cps.ensure(3, 4);
        let empty = cps.take(&r);
        r.push(1);
        r.push(2);
        let two = cps.take(&r);
        r.pop();
        let one = cps.take(&r);
        assert_eq!((cps.get(empty), cps.get(two), cps.get(one)), (&[][..], &[1, 2][..], &[1][..]));
        cps.release_from(two);
        assert_eq!(cps.len(), 1, "a squash drops the snapshot and everything younger");
        cps.release_oldest(empty);
        assert!(cps.is_empty());
        for i in 0..10 {
            r.push(10 + i);
            let h = cps.take(&r);
            assert_eq!(cps.get(h), r.entries());
            cps.release_oldest(h);
        }
        r.restore(&[7, 8]);
        assert_eq!(r.entries(), &[7, 8]);
    }
}
