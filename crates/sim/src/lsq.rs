//! The load/store queues: 32+32 entries (Table II), with store-to-load
//! forwarding and conservative memory-dependence handling (a load waits
//! for every older store address before it may bypass them — no memory
//! dependence speculation, which keeps wrong-path behavior deterministic).

use sempe_isa::Addr;

use crate::skip::Wake;

/// One store-queue entry.
#[derive(Debug, Clone, Copy)]
pub struct StoreEntry {
    /// Identity (monotone, never reused).
    pub id: u64,
    /// Program-order sequence of the owning store µop.
    pub seq: u64,
    /// Resolved address (`None` until the AGU runs).
    pub addr: Option<Addr>,
    /// Data to write, valid when `addr` is `Some`.
    pub data: u64,
    /// Access width in bytes.
    pub width: u8,
}

/// Outcome of a load's store-queue scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadCheck {
    /// No older store conflicts: read memory/cache.
    Proceed,
    /// An exact-match older store supplies the value.
    Forward(u64),
    /// An older store's address is unknown, or a partial overlap exists:
    /// replay the load later.
    Wait,
}

/// How an older store's bytes relate to a load's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Overlap {
    /// No byte in common: the store does not affect the load.
    Disjoint,
    /// Same base and the store is at least as wide: it supplies the
    /// load's value.
    Forward,
    /// Any other overlap: the load must wait for the store to commit.
    Partial,
}

/// The store-to-load forwarding rule, shared by [`Lsq::check_load`] and
/// the fast-forward tier's store window. Each access covers
/// `[addr, addr + width)` modulo 2^64, so one that straddles the top of
/// the address space also covers the bytes it wraps onto, as
/// [`sempe_isa::mem::Memory`] does.
#[must_use]
pub(crate) fn overlap(
    store_addr: Addr,
    store_width: u8,
    load_addr: Addr,
    load_width: u8,
) -> Overlap {
    let starts_in = |base: Addr, width: u8, at: Addr| at.wrapping_sub(base) < u64::from(width);
    if !starts_in(store_addr, store_width, load_addr)
        && !starts_in(load_addr, load_width, store_addr)
    {
        Overlap::Disjoint
    } else if store_addr == load_addr && store_width >= load_width {
        Overlap::Forward
    } else {
        Overlap::Partial
    }
}

/// The store queue plus a load-slot counter.
///
/// `stores` is kept in program (seq) order by construction: entries are
/// allocated at rename in program order, commit pops from the front, and
/// squash removes a suffix. [`Lsq::check_load`] exploits this to walk
/// the older-stores prefix youngest-first with no allocation or sort.
#[derive(Debug)]
pub struct Lsq {
    stores: Vec<StoreEntry>,
    sq_capacity: usize,
    lq_capacity: usize,
    loads_in_flight: usize,
    next_store_id: u64,
    /// Forwarding events (statistics).
    pub forwards: u64,
    /// Bumped on every store-queue mutation that could change a
    /// [`Lsq::check_load`] verdict. A load that got [`LoadCheck::Wait`]
    /// keeps waiting until this changes, so the replay machinery can skip
    /// re-checking against an unchanged queue.
    version: u64,
}

impl Lsq {
    /// Queues with the given capacities.
    #[must_use]
    pub fn new(lq_capacity: usize, sq_capacity: usize) -> Self {
        Lsq {
            stores: Vec::with_capacity(sq_capacity),
            sq_capacity,
            lq_capacity,
            loads_in_flight: 0,
            next_store_id: 0,
            forwards: 0,
            version: 0,
        }
    }

    /// Store-queue mutation counter (see the field docs).
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Next-event report for loads parked on a [`LoadCheck::Wait`]
    /// verdict issued at store-queue version `version`: their verdict
    /// can only change when the queue changes, so an unchanged queue is
    /// [`Wake::Idle`] (the mutation that changes it — a store resolve,
    /// commit, or squash — is itself driven by a completion or commit
    /// event that already ends any skip). The LSQ holds no timers.
    #[must_use]
    pub fn wake_since(&self, version: u64) -> Wake {
        if self.version == version {
            Wake::Idle
        } else {
            Wake::Now
        }
    }

    /// No stores queued and no loads in flight?
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.stores.is_empty() && self.loads_in_flight == 0
    }

    /// Reset to the pristine state of `Lsq::new(lq, sq)`, keeping the
    /// store vector's allocation. The `forwards` statistic is also
    /// zeroed; a checkpoint restore re-seeds it from the checkpoint.
    pub fn reset(&mut self, lq_capacity: usize, sq_capacity: usize) {
        self.stores.clear();
        self.sq_capacity = sq_capacity;
        self.lq_capacity = lq_capacity;
        self.loads_in_flight = 0;
        self.next_store_id = 0;
        self.forwards = 0;
        self.version = 0;
    }

    /// Free store-queue slots?
    #[must_use]
    pub fn can_alloc_store(&self) -> bool {
        self.stores.len() < self.sq_capacity
    }

    /// Free load-queue slots?
    #[must_use]
    pub fn can_alloc_load(&self) -> bool {
        self.loads_in_flight < self.lq_capacity
    }

    /// Occupancy of the store queue.
    #[must_use]
    pub fn store_count(&self) -> usize {
        self.stores.len()
    }

    /// Allocate a store entry at rename. Returns its id.
    ///
    /// # Panics
    ///
    /// Panics when the queue is full; gate on
    /// [`Lsq::can_alloc_store`] first.
    pub fn alloc_store(&mut self, seq: u64) -> u64 {
        assert!(self.can_alloc_store(), "store queue overflow");
        debug_assert!(
            self.stores.last().is_none_or(|s| s.seq < seq),
            "stores must be allocated in program order"
        );
        let id = self.next_store_id;
        self.next_store_id += 1;
        self.stores.push(StoreEntry { id, seq, addr: None, data: 0, width: 0 });
        self.version += 1;
        id
    }

    /// Allocate a load slot at rename.
    ///
    /// # Panics
    ///
    /// Panics when the queue is full; gate on [`Lsq::can_alloc_load`].
    pub fn alloc_load(&mut self) {
        assert!(self.can_alloc_load(), "load queue overflow");
        self.loads_in_flight += 1;
    }

    /// Release a load slot (completion or squash).
    pub fn release_load(&mut self) {
        debug_assert!(self.loads_in_flight > 0);
        self.loads_in_flight = self.loads_in_flight.saturating_sub(1);
    }

    /// The store's AGU ran: record address and data.
    pub fn resolve_store(&mut self, id: u64, addr: Addr, data: u64, width: u8) {
        if let Some(s) = self.stores.iter_mut().find(|s| s.id == id) {
            s.addr = Some(addr);
            s.data = data;
            s.width = width;
            self.version += 1;
        }
    }

    /// Scan for a load at `seq` reading `[addr, addr+width)`.
    pub fn check_load(&mut self, seq: u64, addr: Addr, width: u8) -> LoadCheck {
        // `stores` is seq-sorted, so the stores older than this load are
        // a prefix; walk it backwards (youngest-first, nearest writer
        // wins), skipping the younger suffix.
        for s in self.stores.iter().rev().skip_while(|s| s.seq >= seq) {
            let Some(sa) = s.addr else { return LoadCheck::Wait };
            match overlap(sa, s.width, addr, width) {
                Overlap::Disjoint => {}
                Overlap::Forward => {
                    self.forwards += 1;
                    let val = match width {
                        1 => s.data & 0xFF,
                        4 => s.data & 0xFFFF_FFFF,
                        _ => s.data,
                    };
                    return LoadCheck::Forward(val);
                }
                // Partial overlap: wait for the store to commit.
                Overlap::Partial => return LoadCheck::Wait,
            }
        }
        LoadCheck::Proceed
    }

    /// Pop the store with `id` at commit (it must be the oldest).
    pub fn commit_store(&mut self, id: u64) -> Option<StoreEntry> {
        let pos = self.stores.iter().position(|s| s.id == id)?;
        debug_assert_eq!(pos, 0, "stores must commit in order");
        self.version += 1;
        Some(self.stores.remove(pos))
    }

    /// Squash: drop every store younger than `seq`.
    pub fn squash_younger(&mut self, seq: u64) {
        self.stores.retain(|s| s.seq <= seq);
        self.version += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forwarding_from_exact_match() {
        let mut lsq = Lsq::new(4, 4);
        let id = lsq.alloc_store(10);
        lsq.resolve_store(id, 0x100, 0xAABB_CCDD_EEFF_1122, 8);
        assert_eq!(lsq.check_load(11, 0x100, 8), LoadCheck::Forward(0xAABB_CCDD_EEFF_1122));
        assert_eq!(lsq.check_load(11, 0x100, 4), LoadCheck::Forward(0xEEFF_1122));
        assert_eq!(lsq.check_load(11, 0x100, 1), LoadCheck::Forward(0x22));
        assert_eq!(lsq.forwards, 3);
    }

    #[test]
    fn younger_store_does_not_forward_to_older_load() {
        let mut lsq = Lsq::new(4, 4);
        let id = lsq.alloc_store(20);
        lsq.resolve_store(id, 0x100, 7, 8);
        assert_eq!(lsq.check_load(15, 0x100, 8), LoadCheck::Proceed);
    }

    #[test]
    fn unknown_older_address_blocks() {
        let mut lsq = Lsq::new(4, 4);
        let _id = lsq.alloc_store(10);
        assert_eq!(lsq.check_load(11, 0x500, 8), LoadCheck::Wait);
    }

    #[test]
    fn partial_overlap_blocks() {
        let mut lsq = Lsq::new(4, 4);
        let id = lsq.alloc_store(10);
        lsq.resolve_store(id, 0x100, 7, 4);
        // 8-byte load over a 4-byte store: partial.
        assert_eq!(lsq.check_load(11, 0x100, 8), LoadCheck::Wait);
        // Disjoint: fine.
        assert_eq!(lsq.check_load(11, 0x110, 8), LoadCheck::Proceed);
    }

    #[test]
    fn overlap_wraps_at_the_top_of_memory() {
        let top = u64::MAX - 3;
        assert_eq!(overlap(u64::MAX - 7, 8, u64::MAX - 7, 8), Overlap::Forward);
        assert_eq!(overlap(top, 8, top, 8), Overlap::Forward);
        assert_eq!(overlap(top, 8, 0, 4), Overlap::Partial, "the wrapped-onto bytes");
        assert_eq!(overlap(0, 4, top, 8), Overlap::Partial);
        assert_eq!(overlap(top, 8, 4, 4), Overlap::Disjoint, "just past the wrap");
        assert_eq!(overlap(top, 4, 0, 8), Overlap::Disjoint, "ends exactly at the top");
        assert_eq!(overlap(0x100, 8, 0x108, 1), Overlap::Disjoint);
        assert_eq!(overlap(0x100, 8, 0x107, 1), Overlap::Partial);
        let mut lsq = Lsq::new(4, 4);
        let id = lsq.alloc_store(10);
        lsq.resolve_store(id, top, 42, 8);
        assert_eq!(lsq.check_load(11, top, 8), LoadCheck::Forward(42));
        assert_eq!(lsq.check_load(11, 0, 4), LoadCheck::Wait);
    }

    #[test]
    fn nearest_older_writer_wins() {
        let mut lsq = Lsq::new(4, 4);
        let a = lsq.alloc_store(10);
        lsq.resolve_store(a, 0x100, 1, 8);
        let b = lsq.alloc_store(12);
        lsq.resolve_store(b, 0x100, 2, 8);
        assert_eq!(lsq.check_load(13, 0x100, 8), LoadCheck::Forward(2));
        assert_eq!(lsq.check_load(11, 0x100, 8), LoadCheck::Forward(1));
    }

    #[test]
    fn commit_pops_in_order_and_squash_drops_younger() {
        let mut lsq = Lsq::new(4, 4);
        let a = lsq.alloc_store(10);
        let _b = lsq.alloc_store(12);
        let _c = lsq.alloc_store(14);
        lsq.squash_younger(12);
        assert_eq!(lsq.store_count(), 2);
        let popped = lsq.commit_store(a).unwrap();
        assert_eq!(popped.seq, 10);
        assert_eq!(lsq.store_count(), 1);
    }

    #[test]
    fn capacity_gates() {
        let mut lsq = Lsq::new(1, 1);
        assert!(lsq.can_alloc_load());
        lsq.alloc_load();
        assert!(!lsq.can_alloc_load());
        lsq.release_load();
        assert!(lsq.can_alloc_load());
        lsq.alloc_store(1);
        assert!(!lsq.can_alloc_store());
    }
}
