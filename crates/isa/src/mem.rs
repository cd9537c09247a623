//! Sparse paged memory shared by the interpreters and the cycle-level
//! simulator.
//!
//! Reads of unmapped pages return zeros without allocating; writes allocate
//! pages on demand. Accesses may be unaligned (the encoding mimics x86).
//! This "never faults on data" model keeps wrong-path execution in the
//! out-of-order simulator well-defined — a squashed load to a garbage
//! address simply reads zeros, exactly like gem5's functional memory in
//! atomic mode.

use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::Addr;

/// Page size in bytes. 4 KiB like the host; the paper's 4 MB pages only
/// matter for TLB modeling, which neither gem5's nor our configuration
/// exercises for these workloads.
pub const PAGE_SIZE: usize = 4096;

/// At most this many unmapped pages (2 MiB) are kept for reuse: more
/// than the largest benchmarked image needs, and a bound on what one
/// huge job leaves allocated in a long-lived simulator.
const MAX_SPARE_PAGES: usize = 512;

/// In the last-page cache, marks "no page cached" (no real page can have
/// this number: addresses are dense in the low 2^52 pages).
const NO_PAGE: u64 = u64::MAX;

/// Process-wide snapshot identity source. Ids only need to be unique, so
/// a relaxed counter suffices; 0 is reserved for "not tracking".
static NEXT_SNAPSHOT_ID: AtomicU64 = AtomicU64::new(1);

/// An immutable full copy of a memory image, taken by
/// [`Memory::snapshot`] and restored by [`Memory::restore`].
///
/// The snapshot itself is an eager page copy (paid once, when the
/// checkpoint is created); what makes the scheme copy-on-write-shaped is
/// the *restore* side: a memory synchronized with a snapshot tracks
/// which pages it has dirtied since, so rolling back costs O(dirty
/// pages), not O(image size). One snapshot can be shared (e.g. behind an
/// `Arc`) and restored into any number of memories.
#[derive(Debug, Clone)]
pub struct MemSnapshot {
    id: u64,
    pages: Vec<Box<[u8; PAGE_SIZE]>>,
    index: HashMap<u64, u32>,
}

impl MemSnapshot {
    /// Number of pages captured.
    #[must_use]
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }
}

/// Sparse, byte-addressable 64-bit memory.
///
/// Pages live in a dense vector; a `HashMap` maps page numbers to vector
/// indices, and a one-entry cache remembers the last page touched.
/// Sequential loads/stores — the overwhelmingly common pattern in the
/// simulated workloads — therefore skip the hash probe entirely and go
/// straight to the page bytes.
///
/// # Examples
///
/// ```
/// use sempe_isa::mem::Memory;
/// let mut m = Memory::new();
/// m.write_u64(0x1000, 0xDEAD_BEEF);
/// assert_eq!(m.read_u64(0x1000), 0xDEAD_BEEF);
/// assert_eq!(m.read_u64(0x8000), 0); // unmapped reads as zero
/// ```
#[derive(Debug, Clone)]
pub struct Memory {
    pages: Vec<Box<[u8; PAGE_SIZE]>>,
    index: HashMap<u64, u32>,
    /// `(page number, index into pages)` of the last page accessed.
    last: Cell<(u64, u32)>,
    /// Snapshot id this memory's dirty tracking is synchronized with
    /// (0 = tracking off; no snapshot ever has id 0).
    sync_id: u64,
    /// Current tracking epoch; `page_epoch[i] == epoch` means page `i`
    /// is already recorded in `dirty` for this epoch.
    epoch: u64,
    /// Per-page last-dirtied epoch (only maintained while tracking).
    page_epoch: Vec<u64>,
    /// `(page number, page index)` of pages written since the last sync
    /// point, each recorded once per epoch.
    dirty: Vec<(u64, u32)>,
    /// Unmapped page allocations kept for reuse, at most
    /// [`MAX_SPARE_PAGES`]: [`Memory::reset`] and restores park pages
    /// here, and a write to an unmapped page takes one (zeroed) before
    /// allocating.
    spare: Vec<Box<[u8; PAGE_SIZE]>>,
}

impl Default for Memory {
    fn default() -> Self {
        Memory {
            pages: Vec::new(),
            index: HashMap::new(),
            last: Cell::new((NO_PAGE, 0)),
            sync_id: 0,
            epoch: 0,
            page_epoch: Vec::new(),
            dirty: Vec::new(),
            spare: Vec::new(),
        }
    }
}

impl Memory {
    /// Create an empty memory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Become `Memory::new()`: unmap every page and stop dirty tracking,
    /// keeping the page allocations for the next image.
    pub fn reset(&mut self) {
        let Memory { pages, index, last, sync_id, epoch, page_epoch, dirty, spare } = self;
        Self::park(spare, pages.drain(..));
        index.clear();
        last.set((NO_PAGE, 0));
        *sync_id = 0;
        *epoch = 0;
        page_epoch.clear();
        dirty.clear();
    }

    /// Keep `unmapped` pages as spares, up to [`MAX_SPARE_PAGES`]; free
    /// the rest.
    fn park(
        spare: &mut Vec<Box<[u8; PAGE_SIZE]>>,
        unmapped: impl Iterator<Item = Box<[u8; PAGE_SIZE]>>,
    ) {
        let room = MAX_SPARE_PAGES.saturating_sub(spare.len());
        spare.extend(unmapped.take(room));
    }

    /// A zeroed page: a spare one if there is one, else a new one.
    fn fresh_page(spare: &mut Vec<Box<[u8; PAGE_SIZE]>>) -> Box<[u8; PAGE_SIZE]> {
        match spare.pop() {
            Some(mut page) => {
                page.fill(0);
                page
            }
            None => Box::new([0; PAGE_SIZE]),
        }
    }

    /// Number of pages currently allocated.
    #[must_use]
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Resolve a page number to its byte array, if mapped.
    #[inline]
    fn page(&self, page_no: u64) -> Option<&[u8; PAGE_SIZE]> {
        let (cached_no, cached_idx) = self.last.get();
        if cached_no == page_no {
            return Some(&self.pages[cached_idx as usize]);
        }
        let idx = *self.index.get(&page_no)?;
        self.last.set((page_no, idx));
        Some(&self.pages[idx as usize])
    }

    #[inline]
    fn page_mut(&mut self, addr: Addr) -> &mut [u8; PAGE_SIZE] {
        let page_no = addr / PAGE_SIZE as u64;
        let (cached_no, cached_idx) = self.last.get();
        let idx = if cached_no == page_no {
            cached_idx
        } else {
            let idx = match self.index.entry(page_no) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(v) => {
                    let idx = u32::try_from(self.pages.len()).expect("page count fits u32");
                    let page = Self::fresh_page(&mut self.spare);
                    self.pages.push(page);
                    if self.sync_id != 0 {
                        self.page_epoch.push(0);
                    }
                    *v.insert(idx)
                }
            };
            self.last.set((page_no, idx));
            idx
        };
        if self.sync_id != 0 && self.page_epoch[idx as usize] != self.epoch {
            self.page_epoch[idx as usize] = self.epoch;
            self.dirty.push((page_no, idx));
        }
        &mut self.pages[idx as usize]
    }

    /// Capture the current image as an immutable [`MemSnapshot`] and
    /// synchronize this memory with it: from now on, writes record which
    /// pages diverge from the snapshot, so a later [`Memory::restore`] of
    /// the same snapshot is O(dirty pages).
    pub fn snapshot(&mut self) -> MemSnapshot {
        let id = NEXT_SNAPSHOT_ID.fetch_add(1, Ordering::Relaxed);
        self.sync_id = id;
        self.epoch = 1;
        self.page_epoch.clear();
        self.page_epoch.resize(self.pages.len(), 0);
        self.dirty.clear();
        MemSnapshot { id, pages: self.pages.clone(), index: self.index.clone() }
    }

    /// Roll this memory back to `snap`'s image.
    ///
    /// When the memory is synchronized with `snap` (it took the snapshot,
    /// or its last restore was from it), only the pages dirtied since are
    /// copied back and pages allocated since are dropped — O(dirty
    /// pages). Otherwise the whole image is re-cloned from the snapshot
    /// (still cheaper than re-loading a program: no decode, no encode).
    /// Either way the memory leaves synchronized with `snap`, so repeated
    /// restores from the same snapshot take the fast path.
    pub fn restore(&mut self, snap: &MemSnapshot) {
        if self.sync_id == snap.id {
            let snap_len = snap.pages.len();
            for &(page_no, idx) in &self.dirty {
                if (idx as usize) < snap_len {
                    self.pages[idx as usize].copy_from_slice(&snap.pages[idx as usize][..]);
                } else {
                    // Allocated after the snapshot: unmap it again.
                    self.index.remove(&page_no);
                }
            }
            if self.pages.len() > snap_len {
                Self::park(&mut self.spare, self.pages.drain(snap_len..));
            }
            self.page_epoch.truncate(snap_len);
            self.dirty.clear();
            self.epoch += 1;
        } else {
            // `clone_from` copies into the existing page boxes, topped up
            // from the spare pages, and allocates only what is still
            // missing — a worker alternating between programs resyncs
            // without churning every 4 KiB allocation.
            let want = snap.pages.len();
            if self.pages.len() > want {
                Self::park(&mut self.spare, self.pages.drain(want..));
            }
            let reuse = want.saturating_sub(self.pages.len()).min(self.spare.len());
            self.pages.extend(self.spare.drain(self.spare.len() - reuse..));
            self.pages.clone_from(&snap.pages);
            self.index.clone_from(&snap.index);
            self.sync_id = snap.id;
            self.epoch = 1;
            self.page_epoch.clear();
            self.page_epoch.resize(self.pages.len(), 0);
            self.dirty.clear();
        }
        self.last.set((NO_PAGE, 0));
    }

    /// Pages written since the last sync point with the tracked snapshot
    /// (0 when tracking is off).
    #[must_use]
    pub fn dirty_page_count(&self) -> usize {
        self.dirty.len()
    }

    /// Read one byte.
    #[must_use]
    #[inline]
    pub fn read_u8(&self, addr: Addr) -> u8 {
        match self.page(addr / PAGE_SIZE as u64) {
            Some(p) => p[(addr % PAGE_SIZE as u64) as usize],
            None => 0,
        }
    }

    /// Write one byte.
    pub fn write_u8(&mut self, addr: Addr, val: u8) {
        self.page_mut(addr)[(addr % PAGE_SIZE as u64) as usize] = val;
    }

    /// Read `N` little-endian bytes starting at `addr`.
    fn read_le<const N: usize>(&self, addr: Addr) -> [u8; N] {
        let mut buf = [0u8; N];
        // Fast path: within one page.
        let off = (addr % PAGE_SIZE as u64) as usize;
        if off + N <= PAGE_SIZE {
            if let Some(p) = self.page(addr / PAGE_SIZE as u64) {
                buf.copy_from_slice(&p[off..off + N]);
            }
            return buf;
        }
        self.read_into(addr, &mut buf);
        buf
    }

    /// Fill `buf` from `addr` on, one page-sized copy per page, wrapping
    /// at `u64::MAX`; unmapped pages read as zeros.
    fn read_into(&self, addr: Addr, buf: &mut [u8]) {
        for (at, start, n) in page_pieces(addr, buf.len()) {
            let off = (at % PAGE_SIZE as u64) as usize;
            let dst = &mut buf[start..start + n];
            match self.page(at / PAGE_SIZE as u64) {
                Some(p) => dst.copy_from_slice(&p[off..off + n]),
                None => dst.fill(0),
            }
        }
    }

    /// Copy `bytes` to `addr` on, one `page_mut` and one page-sized copy
    /// per page, wrapping at `u64::MAX`. Pages are mapped (and, under
    /// snapshot tracking, logged dirty) in address order, as byte-by-byte
    /// writes would; an empty write still maps the page at `addr`.
    fn write_le(&mut self, addr: Addr, bytes: &[u8]) {
        let off = (addr % PAGE_SIZE as u64) as usize;
        if off + bytes.len() <= PAGE_SIZE {
            self.page_mut(addr)[off..off + bytes.len()].copy_from_slice(bytes);
            return;
        }
        for (at, start, n) in page_pieces(addr, bytes.len()) {
            let off = (at % PAGE_SIZE as u64) as usize;
            self.page_mut(at)[off..off + n].copy_from_slice(&bytes[start..start + n]);
        }
    }

    /// Read a little-endian `u32`.
    #[must_use]
    pub fn read_u32(&self, addr: Addr) -> u32 {
        u32::from_le_bytes(self.read_le::<4>(addr))
    }

    /// Write a little-endian `u32`.
    pub fn write_u32(&mut self, addr: Addr, val: u32) {
        self.write_le(addr, &val.to_le_bytes());
    }

    /// Read a little-endian `u64`.
    #[must_use]
    pub fn read_u64(&self, addr: Addr) -> u64 {
        u64::from_le_bytes(self.read_le::<8>(addr))
    }

    /// Write a little-endian `u64`.
    pub fn write_u64(&mut self, addr: Addr, val: u64) {
        self.write_le(addr, &val.to_le_bytes());
    }

    /// Copy a byte image into memory at `addr`.
    pub fn load_image(&mut self, addr: Addr, image: &[u8]) {
        self.write_le(addr, image);
    }

    /// Read `len` bytes into a fresh vector (wrapping at `u64::MAX`).
    #[must_use]
    pub fn read_bytes(&self, addr: Addr, len: usize) -> Vec<u8> {
        let mut out = vec![0; len];
        self.read_into(addr, &mut out);
        out
    }

    /// Read `count` little-endian `u64` words starting at `addr`
    /// (wrapping at `u64::MAX`).
    #[must_use]
    pub fn read_words(&self, addr: Addr, count: usize) -> Vec<u64> {
        self.read_bytes(addr, 8 * count)
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
            .collect()
    }

    /// Write a slice of `u64` words starting at `addr` (wrapping at
    /// `u64::MAX`).
    pub fn write_words(&mut self, addr: Addr, words: &[u64]) {
        // An empty slice writes, and so maps, nothing.
        if !words.is_empty() {
            self.write_le(addr, &word_image(words, words.len()));
        }
    }
}

/// The little-endian byte image of `len` words: `words` first (cut at
/// `len`), zeros after. One buffer, sized once.
#[must_use]
pub fn word_image(words: &[u64], len: usize) -> Vec<u8> {
    let mut image = vec![0; 8 * len];
    for (dst, w) in image.chunks_exact_mut(8).zip(words) {
        dst.copy_from_slice(&w.to_le_bytes());
    }
    image
}

/// Split `len` bytes from `addr` on into per-page pieces `(address,
/// offset into the buffer, length)`, in address order, wrapping at
/// `u64::MAX` (the address space is a whole number of pages, so a wrap
/// never splits a page).
fn page_pieces(addr: Addr, len: usize) -> impl Iterator<Item = (Addr, usize, usize)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let at = addr.wrapping_add(done as u64);
            let n = (PAGE_SIZE - (at % PAGE_SIZE as u64) as usize).min(len - done);
            done += n;
            (at, done - n, n)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_starts_over_like_new_and_bounds_the_spare_pages() {
        let mut m = Memory::new();
        let pages = MAX_SPARE_PAGES as u64 + 8;
        for p in 0..pages {
            m.write_u8(p * PAGE_SIZE as u64, 1);
        }
        let _snap = m.snapshot();
        m.write_u8(0, 2);
        m.reset();
        assert_eq!(m.page_count(), 0);
        assert_eq!(m.read_u8(0), 0, "nothing stays mapped");
        assert_eq!(m.spare.len(), MAX_SPARE_PAGES, "spares are capped");
        m.write_u8(PAGE_SIZE as u64 + 8, 5);
        assert_eq!(m.spare.len(), MAX_SPARE_PAGES - 1, "a write takes a spare page");
        assert_eq!(m.read_u8(PAGE_SIZE as u64), 0, "a reused page is zeroed");
        assert_eq!(m.read_u8(PAGE_SIZE as u64 + 8), 5);
        assert_eq!(m.dirty_page_count(), 0, "a reset memory is untracked");
    }

    #[test]
    fn unmapped_reads_zero_and_do_not_allocate() {
        let m = Memory::new();
        assert_eq!(m.read_u64(0xDEAD_0000), 0);
        assert_eq!(m.read_u8(12345), 0);
        assert_eq!(m.page_count(), 0);
    }

    #[test]
    fn write_then_read_roundtrips() {
        let mut m = Memory::new();
        m.write_u64(0x100, u64::MAX - 5);
        assert_eq!(m.read_u64(0x100), u64::MAX - 5);
        m.write_u32(0x200, 0xAABB_CCDD);
        assert_eq!(m.read_u32(0x200), 0xAABB_CCDD);
        m.write_u8(0x300, 0x7F);
        assert_eq!(m.read_u8(0x300), 0x7F);
    }

    #[test]
    fn cross_page_access_is_consistent() {
        let mut m = Memory::new();
        let addr = PAGE_SIZE as u64 - 3; // straddles the first page boundary
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.page_count(), 2);
        // Byte-level view agrees with the word-level view.
        assert_eq!(m.read_u8(addr), 0x88);
        assert_eq!(m.read_u8(addr + 7), 0x11);
    }

    #[test]
    fn overlapping_writes_last_writer_wins() {
        let mut m = Memory::new();
        m.write_u64(0x10, 0xFFFF_FFFF_FFFF_FFFF);
        m.write_u32(0x14, 0);
        assert_eq!(m.read_u64(0x10), 0x0000_0000_FFFF_FFFF);
    }

    #[test]
    fn snapshot_restore_rolls_back_dirty_pages_only() {
        let mut m = Memory::new();
        m.write_u64(0x1000, 11);
        m.write_u64(0x9000, 22);
        let snap = m.snapshot();
        assert_eq!(m.dirty_page_count(), 0);
        // Dirty one existing page, leave the other untouched.
        m.write_u64(0x1000, 99);
        assert_eq!(m.dirty_page_count(), 1);
        m.restore(&snap);
        assert_eq!(m.read_u64(0x1000), 11);
        assert_eq!(m.read_u64(0x9000), 22);
        assert_eq!(m.dirty_page_count(), 0);
    }

    #[test]
    fn restore_unmaps_pages_allocated_after_the_snapshot() {
        let mut m = Memory::new();
        m.write_u64(0x1000, 7);
        let snap = m.snapshot();
        m.write_u64(0xAB00_0000, 1234); // fresh page
        assert_eq!(m.page_count(), 2);
        m.restore(&snap);
        assert_eq!(m.page_count(), 1);
        assert_eq!(m.read_u64(0xAB00_0000), 0, "post-snapshot page reads as unmapped again");
        // And it can be re-allocated + re-restored repeatedly.
        m.write_u64(0xAB00_0000, 5678);
        assert_eq!(m.read_u64(0xAB00_0000), 5678);
        m.restore(&snap);
        assert_eq!(m.read_u64(0xAB00_0000), 0);
        assert_eq!(m.read_u64(0x1000), 7);
    }

    #[test]
    fn restore_into_a_foreign_memory_resynchronizes() {
        let mut a = Memory::new();
        a.write_u64(0x2000, 42);
        let snap = a.snapshot();
        // A memory that never saw the snapshot takes the full-resync path…
        let mut b = Memory::new();
        b.write_u64(0x5000, 1);
        b.restore(&snap);
        assert_eq!(b.read_u64(0x2000), 42);
        assert_eq!(b.read_u64(0x5000), 0);
        // …and is synchronized afterwards: the next restore is O(dirty).
        b.write_u64(0x2000, 9);
        assert_eq!(b.dirty_page_count(), 1);
        b.restore(&snap);
        assert_eq!(b.read_u64(0x2000), 42);
    }

    #[test]
    fn repeated_fork_cycles_are_exact() {
        let mut m = Memory::new();
        m.write_words(0x3000, &[1, 2, 3, 4]);
        let snap = m.snapshot();
        for trial in 0..5u64 {
            m.write_u64(0x3000, trial);
            m.write_u64(0x7_0000 + trial * 8, trial);
            assert_eq!(m.read_u64(0x3000), trial);
            m.restore(&snap);
            assert_eq!(m.read_words(0x3000, 4), vec![1, 2, 3, 4]);
        }
    }

    /// Per-byte reference for `write_le`/`load_image`: one `write_u8`
    /// per byte, in address order, wrapping at `u64::MAX`. An empty write
    /// maps the page at `addr` and nothing else.
    fn write_bytewise(m: &mut Memory, addr: Addr, bytes: &[u8]) {
        if bytes.is_empty() {
            m.page_mut(addr);
        }
        for (i, b) in bytes.iter().enumerate() {
            m.write_u8(addr.wrapping_add(i as u64), *b);
        }
    }

    /// Same pages (bytes, numbering and allocation order) and the same
    /// dirty-tracking state.
    fn assert_same(got: &Memory, want: &Memory, what: &str) {
        assert_eq!(got.page_count(), want.page_count(), "{what}: page_count");
        assert_eq!(got.index, want.index, "{what}: page numbering");
        assert!(got.pages == want.pages, "{what}: page bytes");
        assert_eq!(got.dirty, want.dirty, "{what}: dirty-page order");
        assert_eq!(got.page_epoch, want.page_epoch, "{what}: dirty epochs");
    }

    /// A random `(addr, bytes)` write: unaligned starts in a low, a mid
    /// and a top-of-address-space region (the last wraps past
    /// `u64::MAX`), lengths from a few bytes to five pages.
    fn random_write(rng: &mut u64) -> (Addr, Vec<u8>) {
        let mut next = || {
            *rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let page = PAGE_SIZE as u64;
        let addr = match next() % 3 {
            0 => next() % (8 * page),
            1 => 0x10_0000 + next() % (8 * page),
            _ => u64::MAX - next() % (3 * page),
        };
        let len = match next() % 4 {
            0 => next() % 16,
            1 => page - 8 + next() % 16,
            _ => next() % (5 * page),
        } as usize;
        let bytes = (0..len).map(|_| next() as u8).collect();
        (addr, bytes)
    }

    #[test]
    fn bulk_writes_match_the_bytewise_reference() {
        let mut rng = 0x5EED;
        for round in 0..40 {
            let mut bulk = Memory::new();
            let mut reference = Memory::new();
            for _ in 0..6 {
                let (addr, bytes) = random_write(&mut rng);
                bulk.load_image(addr, &bytes);
                write_bytewise(&mut reference, addr, &bytes);
                assert_same(&bulk, &reference, &format!("round {round}, fresh"));
            }
            let bulk_snap = bulk.snapshot();
            let ref_snap = reference.snapshot();
            for _ in 0..6 {
                let (addr, bytes) = random_write(&mut rng);
                bulk.load_image(addr, &bytes);
                write_bytewise(&mut reference, addr, &bytes);
                assert_same(&bulk, &reference, &format!("round {round}, tracked"));
            }
            bulk.restore(&bulk_snap);
            reference.restore(&ref_snap);
            assert_same(&bulk, &reference, &format!("round {round}, restored"));
            let (addr, bytes) = random_write(&mut rng);
            bulk.load_image(addr, &bytes);
            write_bytewise(&mut reference, addr, &bytes);
            assert_same(&bulk, &reference, &format!("round {round}, after restore"));
        }
    }

    #[test]
    fn word_writes_wrap_at_the_top_of_the_address_space() {
        for addr in [u64::MAX - 3, PAGE_SIZE as u64 - 5] {
            let mut bulk = Memory::new();
            let mut reference = Memory::new();
            bulk.write_u64(addr, 0x0102_0304_0506_0708);
            write_bytewise(&mut reference, addr, &0x0102_0304_0506_0708u64.to_le_bytes());
            assert_same(&bulk, &reference, &format!("write_u64 at {addr:#x}"));
            assert_eq!(bulk.read_u64(addr), 0x0102_0304_0506_0708);
        }
    }

    #[test]
    fn byte_and_word_helpers_wrap_at_the_top_of_the_address_space() {
        let mut m = Memory::new();
        let addr = u64::MAX - 3;
        m.write_words(addr, &[0x1122_3344_5566_7788, 0x99AA_BBCC_DDEE_FF00]);
        assert_eq!(m.read_words(addr, 2), vec![0x1122_3344_5566_7788, 0x99AA_BBCC_DDEE_FF00]);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.read_bytes(addr, 5), vec![0x88, 0x77, 0x66, 0x55, 0x44]);
        // The fifth byte wrapped to address 0, the second word sits at 4.
        assert_eq!(m.read_u8(0), 0x44);
        assert_eq!(m.read_u64(4), 0x99AA_BBCC_DDEE_FF00);
        assert_eq!(m.page_count(), 2);
    }

    #[test]
    fn image_and_word_helpers() {
        let mut m = Memory::new();
        m.load_image(0x1000, &[1, 2, 3, 4]);
        assert_eq!(m.read_bytes(0x1000, 4), vec![1, 2, 3, 4]);
        m.write_words(0x2000, &[10, 20, 30]);
        assert_eq!(m.read_words(0x2000, 3), vec![10, 20, 30]);
    }
}
