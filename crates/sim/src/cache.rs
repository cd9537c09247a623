//! Set-associative caches with LRU replacement, write-back/write-allocate
//! policy, and the two hardware prefetchers of Table II (stride at L1D,
//! stream at L2).
//!
//! Timing model: each access resolves to a total latency through the
//! hierarchy (L1 hit, L2 hit, or memory); misses fill every level on the
//! way back (inclusive fills). There is no MSHR limit — each in-flight
//! load carries its own latency — which slightly overestimates memory
//! parallelism but keeps the model deterministic and simple; the paper's
//! results depend on *relative* locality effects, which survive.

use sempe_isa::Addr;

use crate::config::{CacheConfig, MemConfig};
use crate::skip::Wake;

/// Per-cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses (prefetches excluded).
    pub accesses: u64,
    /// Demand misses.
    pub misses: u64,
    /// Lines installed by the prefetcher.
    pub prefetch_fills: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Demand miss rate in [0, 1].
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Higher = more recently used.
    lru: u64,
}

/// One set-associative cache level.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    sets: usize,
    lines: Vec<Line>, // sets × ways
    lru_clock: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Build a cache with the given geometry.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        SetAssocCache {
            cfg,
            sets,
            lines: vec![Line::default(); sets * cfg.ways],
            lru_clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Counters so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn line_addr(&self, addr: Addr) -> u64 {
        addr / self.cfg.line_bytes as u64
    }

    fn set_index(&self, line_addr: u64) -> usize {
        (line_addr % self.sets as u64) as usize
    }

    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        set * self.cfg.ways..(set + 1) * self.cfg.ways
    }

    /// Probe without modifying state: is the line present?
    #[must_use]
    pub fn probe(&self, addr: Addr) -> bool {
        let la = self.line_addr(addr);
        let set = self.set_index(la);
        self.lines[self.set_range(set)].iter().any(|l| l.valid && l.tag == la)
    }

    /// Demand access. Returns `true` on hit. On miss the caller is
    /// responsible for filling via [`SetAssocCache::fill`].
    pub fn access(&mut self, addr: Addr, is_write: bool) -> bool {
        self.stats.accesses += 1;
        let la = self.line_addr(addr);
        let set = self.set_index(la);
        self.lru_clock += 1;
        let clock = self.lru_clock;
        let range = self.set_range(set);
        for l in &mut self.lines[range] {
            if l.valid && l.tag == la {
                l.lru = clock;
                if is_write {
                    l.dirty = true;
                }
                return true;
            }
        }
        self.stats.misses += 1;
        false
    }

    /// Install the line containing `addr`, evicting LRU. Returns `true`
    /// if a dirty line was evicted (write-back traffic).
    pub fn fill(&mut self, addr: Addr, is_write: bool, from_prefetch: bool) -> bool {
        let la = self.line_addr(addr);
        let set = self.set_index(la);
        self.lru_clock += 1;
        let clock = self.lru_clock;
        if from_prefetch {
            self.stats.prefetch_fills += 1;
        }
        let range = self.set_range(set);
        // Already present (e.g. racing prefetch): just touch.
        if let Some(l) = self.lines[range.clone()].iter_mut().find(|l| l.valid && l.tag == la) {
            l.lru = clock;
            if is_write {
                l.dirty = true;
            }
            return false;
        }
        let victim = self.lines[range]
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru } else { 0 })
            .expect("ways >= 1");
        let evicted_dirty = victim.valid && victim.dirty;
        if evicted_dirty {
            self.stats.writebacks += 1;
        }
        *victim = Line { tag: la, valid: true, dirty: is_write, lru: clock };
        evicted_dirty
    }
}

/// The L1D stride prefetcher: a small PC-indexed table tracking last
/// address and stride with 2-bit confidence; on a confirmed stride it
/// prefetches the next line.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    entries: Vec<StrideEntry>,
}

#[derive(Debug, Clone, Copy, Default)]
struct StrideEntry {
    pc: Addr,
    last_addr: Addr,
    stride: i64,
    confidence: u8,
    valid: bool,
}

impl StridePrefetcher {
    /// A prefetcher with `entries` table slots.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        StridePrefetcher { entries: vec![StrideEntry::default(); entries] }
    }

    /// Train on a demand access; returns an address to prefetch when the
    /// stride is confident.
    pub fn train(&mut self, pc: Addr, addr: Addr) -> Option<Addr> {
        let idx = (pc as usize / 2) % self.entries.len();
        let e = &mut self.entries[idx];
        if !e.valid || e.pc != pc {
            *e = StrideEntry { pc, last_addr: addr, stride: 0, confidence: 0, valid: true };
            return None;
        }
        // Strides and targets wrap at the top of the address space, as
        // the release build always did.
        let new_stride = addr.wrapping_sub(e.last_addr) as i64;
        if new_stride == e.stride && new_stride != 0 {
            e.confidence = (e.confidence + 1).min(3);
        } else {
            e.confidence = e.confidence.saturating_sub(1);
            e.stride = new_stride;
        }
        e.last_addr = addr;
        if e.confidence >= 2 {
            Some(addr.wrapping_add(e.stride as u64))
        } else {
            None
        }
    }
}

/// The L2 stream prefetcher: detects two consecutive line misses in the
/// same direction within a region and then runs a stream `depth` lines
/// ahead.
#[derive(Debug, Clone)]
pub struct StreamPrefetcher {
    streams: Vec<StreamEntry>,
    line_bytes: u64,
    depth: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct StreamEntry {
    last_line: u64,
    direction: i64,
    confident: bool,
    valid: bool,
    lru: u64,
}

impl StreamPrefetcher {
    /// A stream prefetcher tracking `streams` concurrent streams.
    #[must_use]
    pub fn new(streams: usize, line_bytes: u64, depth: u64) -> Self {
        StreamPrefetcher { streams: vec![StreamEntry::default(); streams], line_bytes, depth }
    }

    /// Train on an L2 demand access; returns lines to prefetch.
    pub fn train(&mut self, addr: Addr) -> Vec<Addr> {
        let line = addr / self.line_bytes;
        // Find a stream within ±2 lines.
        let mut found = None;
        for (i, s) in self.streams.iter().enumerate() {
            if s.valid && (line as i64 - s.last_line as i64).abs() <= 2 {
                found = Some(i);
                break;
            }
        }
        let clock = self.streams.iter().map(|s| s.lru).max().unwrap_or(0) + 1;
        match found {
            Some(i) => {
                let s = &mut self.streams[i];
                let dir = (line as i64 - s.last_line as i64).signum();
                if dir != 0 && dir == s.direction {
                    s.confident = true;
                } else if dir != 0 {
                    s.direction = dir;
                    s.confident = false;
                }
                s.last_line = line;
                s.lru = clock;
                if s.confident && s.direction != 0 {
                    let dir = s.direction;
                    (1..=self.depth)
                        .map(|k| ((line as i64 + dir * k as i64) as u64) * self.line_bytes)
                        .collect()
                } else {
                    Vec::new()
                }
            }
            None => {
                // Allocate over the LRU stream.
                let victim =
                    self.streams.iter_mut().min_by_key(|s| if s.valid { s.lru } else { 0 });
                if let Some(v) = victim {
                    *v = StreamEntry {
                        last_line: line,
                        direction: 0,
                        confident: false,
                        valid: true,
                        lru: clock,
                    };
                }
                Vec::new()
            }
        }
    }
}

/// Which cache serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServicedBy {
    /// First-level hit.
    L1,
    /// Second-level hit (L1 missed).
    L2,
    /// Main memory (both levels missed).
    Memory,
}

/// Result of a hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Total latency in cycles.
    pub latency: u64,
    /// Where the data came from.
    pub serviced_by: ServicedBy,
    /// L1 hit?
    pub l1_hit: bool,
    /// L2 hit (only meaningful when L1 missed)?
    pub l2_hit: bool,
}

/// The full hierarchy: IL1 + DL1 sharing a unified L2, plus prefetchers.
#[derive(Debug, Clone)]
pub struct MemHierarchy {
    cfg: MemConfig,
    il1: SetAssocCache,
    dl1: SetAssocCache,
    l2: SetAssocCache,
    stride: Option<StridePrefetcher>,
    stream: Option<StreamPrefetcher>,
}

impl MemHierarchy {
    /// Build the hierarchy from a configuration.
    #[must_use]
    pub fn new(cfg: MemConfig) -> Self {
        MemHierarchy {
            il1: SetAssocCache::new(cfg.il1),
            dl1: SetAssocCache::new(cfg.dl1),
            l2: SetAssocCache::new(cfg.l2),
            stride: cfg.stride_prefetch.then(|| StridePrefetcher::new(64)),
            stream: cfg
                .stream_prefetch
                .then(|| StreamPrefetcher::new(8, cfg.l2.line_bytes as u64, 2)),
            cfg,
        }
    }

    /// IL1 counters.
    #[must_use]
    pub fn il1_stats(&self) -> CacheStats {
        self.il1.stats()
    }

    /// DL1 counters.
    #[must_use]
    pub fn dl1_stats(&self) -> CacheStats {
        self.dl1.stats()
    }

    /// L2 counters.
    #[must_use]
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// Next-event report: always [`Wake::Idle`], by contract. The
    /// hierarchy is access-driven — every miss resolves to a latency at
    /// access time, charged into the fetch stall timer or a completion
    /// event, and fills/prefetches happen synchronously in the same
    /// call. There are no MSHRs, in-flight fills, or autonomous timers
    /// here, so between accesses nothing in the hierarchy can change. A
    /// future timed extension (e.g. MSHR-limited fills) must report its
    /// pending completions through this method.
    #[must_use]
    pub fn wake(&self) -> Wake {
        Wake::Idle
    }

    fn l2_access_and_fill(&mut self, addr: Addr, is_write: bool) -> (bool, u64) {
        let l2_hit = self.l2.access(addr, is_write);
        let latency = if l2_hit {
            self.cfg.l2.hit_latency
        } else {
            self.l2.fill(addr, is_write, false);
            self.cfg.l2.hit_latency + self.cfg.mem_latency
        };
        // Train the stream prefetcher on every L2 demand access.
        if let Some(stream) = &mut self.stream {
            for pf in stream.train(addr) {
                if !self.l2.probe(pf) {
                    self.l2.fill(pf, false, true);
                }
            }
        }
        (l2_hit, latency)
    }

    /// Instruction fetch of the line containing `addr`. A next-line
    /// prefetch accompanies every access (sequential instruction
    /// prefetching is universal in real front ends; without it,
    /// straight-line code would pay one IL1 miss per 64 bytes).
    pub fn fetch_access(&mut self, addr: Addr) -> AccessResult {
        let result = {
            let l1_hit = self.il1.access(addr, false);
            if l1_hit {
                AccessResult {
                    latency: self.cfg.il1.hit_latency,
                    serviced_by: ServicedBy::L1,
                    l1_hit: true,
                    l2_hit: false,
                }
            } else {
                let (l2_hit, l2_latency) = self.l2_access_and_fill(addr, false);
                self.il1.fill(addr, false, false);
                AccessResult {
                    latency: self.cfg.il1.hit_latency + l2_latency,
                    serviced_by: if l2_hit { ServicedBy::L2 } else { ServicedBy::Memory },
                    l1_hit: false,
                    l2_hit,
                }
            }
        };
        let next_line =
            (addr / self.cfg.il1.line_bytes as u64 + 1) * self.cfg.il1.line_bytes as u64;
        if !self.il1.probe(next_line) {
            if !self.l2.probe(next_line) {
                self.l2.fill(next_line, false, true);
            }
            self.il1.fill(next_line, false, true);
        }
        result
    }

    /// Data access (load or store) by the instruction at `pc`.
    pub fn data_access(&mut self, pc: Addr, addr: Addr, is_write: bool) -> AccessResult {
        let l1_hit = self.dl1.access(addr, is_write);
        let result = if l1_hit {
            AccessResult {
                latency: self.cfg.dl1.hit_latency,
                serviced_by: ServicedBy::L1,
                l1_hit: true,
                l2_hit: false,
            }
        } else {
            let (l2_hit, l2_latency) = self.l2_access_and_fill(addr, is_write);
            self.dl1.fill(addr, is_write, false);
            AccessResult {
                latency: self.cfg.dl1.hit_latency + l2_latency,
                serviced_by: if l2_hit { ServicedBy::L2 } else { ServicedBy::Memory },
                l1_hit: false,
                l2_hit,
            }
        };
        // Train the stride prefetcher; fills are free of demand latency.
        if let Some(stride) = &mut self.stride {
            if let Some(pf) = stride.train(pc, addr) {
                if !self.dl1.probe(pf) {
                    if !self.l2.probe(pf) {
                        self.l2.fill(pf, false, true);
                    }
                    self.dl1.fill(pf, false, true);
                }
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cache() -> SetAssocCache {
        // 4 sets × 2 ways × 64 B lines = 512 B.
        SetAssocCache::new(CacheConfig { size_bytes: 512, ways: 2, line_bytes: 64, hit_latency: 1 })
    }

    #[test]
    fn miss_then_hit_after_fill() {
        let mut c = tiny_cache();
        assert!(!c.access(0x1000, false));
        c.fill(0x1000, false, false);
        assert!(c.access(0x1000, false));
        assert!(c.access(0x1010, false), "same line hits");
        assert_eq!(c.stats().accesses, 3);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny_cache();
        // Three lines mapping to set 0 (stride = sets*line = 256 B).
        c.access(0x0, false);
        c.fill(0x0, false, false);
        c.access(0x100, false);
        c.fill(0x100, false, false);
        // Touch 0x0 so 0x100 is LRU.
        assert!(c.access(0x0, false));
        c.access(0x200, false);
        c.fill(0x200, false, false);
        assert!(c.access(0x0, false), "recently used line survives");
        assert!(!c.access(0x100, false), "LRU line was evicted");
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = tiny_cache();
        c.access(0x0, true);
        c.fill(0x0, true, false);
        c.fill(0x100, false, false);
        let evicted_dirty = c.fill(0x200, false, false);
        assert!(evicted_dirty);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn stride_prefetcher_needs_confidence() {
        let mut p = StridePrefetcher::new(16);
        assert_eq!(p.train(0x40, 0x1000), None); // allocate
        assert_eq!(p.train(0x40, 0x1040), None); // first stride observed
        assert_eq!(p.train(0x40, 0x1080), None); // confidence 1
        assert_eq!(p.train(0x40, 0x10C0), Some(0x1100)); // confident
                                                         // Breaking the stride drops confidence.
        assert_eq!(p.train(0x40, 0x5000), None);
    }

    #[test]
    fn stream_prefetcher_follows_sequential_lines() {
        let mut p = StreamPrefetcher::new(4, 64, 2);
        assert!(p.train(0x1000).is_empty());
        assert!(p.train(0x1040).is_empty(), "direction observed, not yet confident");
        let pf = p.train(0x1080);
        assert_eq!(pf, vec![0x10C0, 0x1100]);
    }

    #[test]
    fn hierarchy_miss_fills_both_levels() {
        let mut h = MemHierarchy::new(MemConfig {
            stride_prefetch: false,
            stream_prefetch: false,
            ..MemConfig::paper()
        });
        let r1 = h.data_access(0x40, 0x8000, false);
        assert!(!r1.l1_hit);
        assert_eq!(r1.serviced_by, ServicedBy::Memory);
        assert_eq!(r1.latency, 3 + 12 + 150);
        let r2 = h.data_access(0x40, 0x8000, false);
        assert!(r2.l1_hit);
        assert_eq!(r2.latency, 3);
        // Instruction side is independent of the data side at L1.
        let rf = h.fetch_access(0x8000);
        assert!(!rf.l1_hit, "IL1 does not hold data-filled lines");
        assert_eq!(rf.serviced_by, ServicedBy::L2, "but unified L2 has the line");
    }

    #[test]
    fn prefetch_effect_turns_sequential_misses_into_hits() {
        let mut h = MemHierarchy::new(MemConfig::paper());
        // Walk sequential lines with one load PC: after training, later
        // lines should be DL1 hits thanks to the stride prefetcher.
        let mut misses = 0;
        for i in 0..16u64 {
            let r = h.data_access(0x400, 0x2_0000 + i * 64, false);
            if !r.l1_hit {
                misses += 1;
            }
        }
        assert!(misses < 16, "prefetcher must convert some misses into hits");
    }

    #[test]
    fn stride_training_wraps_across_the_sign_boundary() {
        // A load stream from one pc that crosses 2^63: strides and
        // prefetch targets wrap instead of overflowing.
        let mut p = StridePrefetcher::new(16);
        let base = 0x7FFF_FFFF_FFFF_FF00u64;
        let mut last = None;
        for i in 0..8u64 {
            last = p.train(0x40, base.wrapping_add(64 * i));
        }
        assert_eq!(last, Some(base.wrapping_add(64 * 8)), "confident stride of +64");
        let mut p = StridePrefetcher::new(16);
        for i in 0..8u64 {
            last = p.train(0x40, u64::MAX - 64 * i);
        }
        assert_eq!(last, Some(u64::MAX - 64 * 8), "descending stream at the top");
    }
}
