//! The load/store queues: 32+32 entries (Table II), with store-to-load
//! forwarding and conservative memory-dependence handling (a load waits
//! for every older store address before it may bypass them — no memory
//! dependence speculation, which keeps wrong-path behavior deterministic).
//!
//! Disambiguation is event-driven. A [`LoadCheck::Wait`] verdict names
//! the one store that decides it (a [`Blocker`]): an older store whose
//! address is still unknown decides it when it *resolves*; a resolved
//! older store that partially overlaps the load decides it when it
//! *commits*. Nothing else can change the verdict. Stores older than the
//! load cannot appear (rename is in order), the resolved, disjoint
//! stores between the blocker and the load never change, and the blocker
//! can leave the queue only by committing or by a squash that also kills
//! the load. So a parked load needs another look exactly when
//! [`Lsq::settled`] says its blocker has moved, an O(1) test, and the
//! queue counts the loads parked on each store so that it can tell
//! ([`Lsq::take_woken`]) when any blocker moved at all.

use std::collections::VecDeque;

use sempe_isa::Addr;

use crate::skip::Wake;

/// One store-queue entry.
#[derive(Debug, Clone, Copy)]
pub struct StoreEntry {
    /// Identity: ids of the queued stores are consecutive, oldest first.
    pub id: u64,
    /// Program-order sequence of the owning store µop.
    pub seq: u64,
    /// Resolved address (`None` until the AGU runs).
    pub addr: Option<Addr>,
    /// Data to write, valid when `addr` is `Some`.
    pub data: u64,
    /// Access width in bytes.
    pub width: u8,
    /// Loads parked on this store (see [`Lsq::park`]).
    pub parked: u32,
}

/// The store that decides a [`LoadCheck::Wait`] verdict, by the event
/// that can change it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Blocker {
    /// The store with this id has no address yet: its resolve decides.
    Unresolved(u64),
    /// The store with this id partially overlaps the load: its commit
    /// decides.
    Overlap(u64),
}

/// Outcome of a load's store-queue scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadCheck {
    /// No older store conflicts: read memory/cache.
    Proceed,
    /// An exact-match older store supplies the value.
    Forward(u64),
    /// An older store's address is unknown, or a partial overlap exists:
    /// replay the load once the blocker settles.
    Wait(Blocker),
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
/// squash removes a suffix. Ids are consecutive from `head_id`, so the
/// store with id `id` sits at `stores[id - head_id]`: resolve and commit
/// are O(1), and [`Lsq::check_load`] walks the older-stores prefix
/// youngest-first with no allocation or sort.
#[derive(Debug)]
pub struct Lsq {
    stores: VecDeque<StoreEntry>,
    /// Id of `stores[0]`. A squash hands the ids of the stores it drops
    /// out again, which keeps the queued ids consecutive.
    head_id: u64,
    sq_capacity: usize,
    lq_capacity: usize,
    loads_in_flight: usize,
    /// A store with parked loads resolved or committed since the last
    /// [`Lsq::take_woken`].
    woken: bool,
    /// Bumped on every store-queue mutation: allocate, resolve, commit
    /// and squash. It does not decide when a parked load is re-checked
    /// (its [`Blocker`] does); it times the `load_replays` statistic and
    /// the replay stage's [`Wake`] report, which count a replay pass on
    /// every cycle the queue changed while loads are parked.
    version: u64,
}

impl Lsq {
    /// Queues with the given capacities.
    #[must_use]
    pub fn new(lq_capacity: usize, sq_capacity: usize) -> Self {
        Lsq {
            stores: VecDeque::with_capacity(sq_capacity),
            head_id: 0,
            sq_capacity,
            lq_capacity,
            loads_in_flight: 0,
            woken: false,
            version: 0,
        }
    }

    /// Store-queue mutation counter (see the field docs).
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Next-event report of the replay stage for loads parked since
    /// store-queue version `version`: a replay pass is due ([`Wake::Now`])
    /// once the queue has changed, and an unchanged queue is
    /// [`Wake::Idle`] (the mutation that changes it — an allocate,
    /// resolve, commit, or squash — is itself driven by a rename,
    /// completion or commit event that already ends any skip). The LSQ
    /// holds no timers.
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
    /// store queue's allocation.
    pub fn reset(&mut self, lq_capacity: usize, sq_capacity: usize) {
        self.stores.clear();
        self.stores.reserve(sq_capacity);
        self.head_id = 0;
        self.sq_capacity = sq_capacity;
        self.lq_capacity = lq_capacity;
        self.loads_in_flight = 0;
        self.woken = false;
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
            self.stores.back().is_none_or(|s| s.seq < seq),
            "stores must be allocated in program order"
        );
        let id = self.head_id + self.stores.len() as u64;
        self.stores.push_back(StoreEntry { id, seq, addr: None, data: 0, width: 0, parked: 0 });
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

    /// The queued store with `id`, if any.
    fn store(&self, id: u64) -> Option<&StoreEntry> {
        self.stores.get(usize::try_from(id.wrapping_sub(self.head_id)).ok()?)
    }

    fn store_mut(&mut self, id: u64) -> Option<&mut StoreEntry> {
        self.stores.get_mut(usize::try_from(id.wrapping_sub(self.head_id)).ok()?)
    }

    /// The store's AGU ran: record address and data.
    pub fn resolve_store(&mut self, id: u64, addr: Addr, data: u64, width: u8) {
        if let Some(s) = self.store_mut(id) {
            s.addr = Some(addr);
            s.data = data;
            s.width = width;
            let woken = s.parked > 0;
            self.woken |= woken;
            self.version += 1;
        }
    }

    /// A load parked on `blocker`.
    pub fn park(&mut self, blocker: Blocker) {
        let (Blocker::Unresolved(id) | Blocker::Overlap(id)) = blocker;
        if let Some(s) = self.store_mut(id) {
            s.parked += 1;
        }
    }

    /// A load parked on `blocker` left it (re-checked or squashed).
    pub fn unpark(&mut self, blocker: Blocker) {
        let (Blocker::Unresolved(id) | Blocker::Overlap(id)) = blocker;
        if let Some(s) = self.store_mut(id) {
            debug_assert!(s.parked > 0);
            s.parked -= 1;
        }
    }

    /// Did a store with parked loads resolve or commit since the last
    /// call? Clears the flag.
    pub fn take_woken(&mut self) -> bool {
        core::mem::take(&mut self.woken)
    }

    /// Scan for a load at `seq` reading `[addr, addr+width)`.
    pub fn check_load(&self, seq: u64, addr: Addr, width: u8) -> LoadCheck {
        // `stores` is seq-sorted, so the stores older than this load are
        // a prefix; walk it backwards (youngest-first, nearest writer
        // wins), skipping the younger suffix.
        for s in self.stores.iter().rev().skip_while(|s| s.seq >= seq) {
            let Some(sa) = s.addr else { return LoadCheck::Wait(Blocker::Unresolved(s.id)) };
            match overlap(sa, s.width, addr, width) {
                Overlap::Disjoint => {}
                Overlap::Forward => {
                    let val = match width {
                        1 => s.data & 0xFF,
                        4 => s.data & 0xFFFF_FFFF,
                        _ => s.data,
                    };
                    return LoadCheck::Forward(val);
                }
                // Partial overlap: wait for the store to commit.
                Overlap::Partial => return LoadCheck::Wait(Blocker::Overlap(s.id)),
            }
        }
        LoadCheck::Proceed
    }

    /// Has `blocker` moved since a load parked on it — resolved, or left
    /// the queue? Until it has, a re-check returns the same `Wait`.
    #[must_use]
    pub fn settled(&self, blocker: Blocker) -> bool {
        match blocker {
            Blocker::Unresolved(id) => self.store(id).is_none_or(|s| s.addr.is_some()),
            Blocker::Overlap(id) => self.store(id).is_none(),
        }
    }

    /// Pop the store with `id` at commit (it must be the oldest).
    pub fn commit_store(&mut self, id: u64) -> Option<StoreEntry> {
        if id != self.head_id {
            debug_assert!(self.store(id).is_none(), "stores must commit in order");
            return None;
        }
        let s = self.stores.pop_front()?;
        self.head_id += 1;
        self.woken |= s.parked > 0;
        self.version += 1;
        Some(s)
    }

    /// Squash: drop every store younger than `seq`.
    pub fn squash_younger(&mut self, seq: u64) {
        let keep = self.stores.partition_point(|s| s.seq <= seq);
        self.stores.truncate(keep);
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
        let verdicts = [8, 4, 1].map(|width| lsq.check_load(11, 0x100, width));
        assert_eq!(
            verdicts,
            [
                LoadCheck::Forward(0xAABB_CCDD_EEFF_1122),
                LoadCheck::Forward(0xEEFF_1122),
                LoadCheck::Forward(0x22),
            ]
        );
        assert_eq!(verdicts.iter().filter(|v| matches!(v, LoadCheck::Forward(_))).count(), 3);
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
        let id = lsq.alloc_store(10);
        assert_eq!(lsq.check_load(11, 0x500, 8), LoadCheck::Wait(Blocker::Unresolved(id)));
    }

    #[test]
    fn partial_overlap_blocks() {
        let mut lsq = Lsq::new(4, 4);
        let id = lsq.alloc_store(10);
        lsq.resolve_store(id, 0x100, 7, 4);
        // 8-byte load over a 4-byte store: partial.
        assert_eq!(lsq.check_load(11, 0x100, 8), LoadCheck::Wait(Blocker::Overlap(id)));
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
        assert_eq!(lsq.check_load(11, 0, 4), LoadCheck::Wait(Blocker::Overlap(id)));
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

    #[test]
    fn a_parked_load_settles_only_when_its_blocker_moves() {
        let mut lsq = Lsq::new(4, 4);
        let old = lsq.alloc_store(10);
        let mid = lsq.alloc_store(12);
        lsq.resolve_store(mid, 0x200, 1, 8);
        let LoadCheck::Wait(b) = lsq.check_load(13, 0x100, 8) else { panic!("must wait") };
        assert_eq!(b, Blocker::Unresolved(old), "the disjoint younger store is skipped");
        let young = lsq.alloc_store(14);
        lsq.resolve_store(young, 0x100, 2, 8);
        assert!(!lsq.settled(b), "a younger store never decides an older load");
        lsq.resolve_store(old, 0x104, 3, 4);
        assert!(lsq.settled(b));
        let LoadCheck::Wait(b) = lsq.check_load(13, 0x100, 8) else { panic!("must wait") };
        assert_eq!(b, Blocker::Overlap(old));
        assert!(!lsq.settled(b));
        lsq.commit_store(old).unwrap();
        assert!(lsq.settled(b));
        assert_eq!(lsq.check_load(13, 0x100, 8), LoadCheck::Proceed);
    }

    #[test]
    fn squash_hands_out_ids_again_and_keeps_them_consecutive() {
        let mut lsq = Lsq::new(4, 4);
        let a = lsq.alloc_store(10);
        let b = lsq.alloc_store(12);
        lsq.squash_younger(10);
        let c = lsq.alloc_store(13);
        assert_eq!(c, b, "the dropped id is reused");
        lsq.resolve_store(c, 0x40, 9, 8);
        assert_eq!(lsq.commit_store(a).unwrap().seq, 10);
        let s = lsq.commit_store(c).unwrap();
        assert_eq!((s.seq, s.addr, s.data), (13, Some(0x40), 9));
        assert!(lsq.is_idle());
    }

    #[test]
    fn only_a_blocker_with_parked_loads_wakes_them() {
        let mut lsq = Lsq::new(4, 4);
        let a = lsq.alloc_store(10);
        let b = lsq.alloc_store(12);
        let LoadCheck::Wait(blocker) = lsq.check_load(13, 0x100, 8) else { panic!("must wait") };
        assert_eq!(blocker, Blocker::Unresolved(b));
        lsq.park(blocker);
        lsq.resolve_store(a, 0x100, 1, 8);
        assert!(!lsq.take_woken(), "nobody waits on the older store");
        lsq.resolve_store(b, 0x104, 2, 4);
        assert!(lsq.take_woken());
        assert!(!lsq.take_woken(), "taking the flag clears it");
        lsq.unpark(blocker);
        let LoadCheck::Wait(blocker) = lsq.check_load(13, 0x100, 8) else { panic!("must wait") };
        lsq.park(blocker);
        lsq.commit_store(a).unwrap();
        assert!(!lsq.take_woken());
        lsq.commit_store(b).unwrap();
        assert!(lsq.take_woken(), "the overlapping store committed");
    }
}
