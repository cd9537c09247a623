//! A TAGE conditional branch predictor (Seznec, "A new case for the TAGE
//! branch predictor", MICRO 2011) — the paper's Table II front end uses a
//! 31 KB TAGE.
//!
//! Structure: a bimodal base predictor plus four partially-tagged tables
//! indexed by `pc` hashed with geometrically increasing global-history
//! lengths. The longest-history matching table provides the prediction;
//! allocation on mispredicts steals not-useful entries from longer tables.
//!
//! History discipline: the *caller* owns speculation. [`Tage::predict`]
//! reads the current global history register (GHR); the caller pushes the
//! speculative outcome with [`push_history`], snapshots the GHR for
//! recovery, restores it on squash, and calls [`Tage::update`] at commit
//! with the GHR value that was current at prediction time.

use sempe_isa::Addr;

use crate::config::BpredConfig;

#[derive(Debug, Clone, Copy, Default)]
struct TageEntry {
    tag: u16,
    /// Signed 3-bit counter: taken when >= 0.
    ctr: i8,
    /// 2-bit usefulness.
    useful: u8,
}

/// The TAGE predictor.
#[derive(Debug, Clone)]
pub struct Tage {
    cfg: BpredConfig,
    bimodal: Vec<u8>,
    tables: Vec<Vec<TageEntry>>,
    updates: u64,
}

/// Number of tagged tables (the length of
/// [`BpredConfig::tage_hist_lens`]).
const TABLES: usize = 4;
const _: () = assert!(BpredConfig::paper().tage_hist_lens.len() == TABLES);

/// Where a branch lives in each tagged table: the folded index and tag
/// of every table for one `(pc, ghr)`, computed once per prediction or
/// update.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lookup {
    index: [usize; TABLES],
    tag: [u16; TABLES],
}

/// Internals of one prediction, consumed by [`Tage::update`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagePrediction {
    /// The predicted direction.
    pub taken: bool,
    /// Providing tagged table (None = bimodal).
    provider: Option<usize>,
    /// The alternate prediction (next-longest match or bimodal).
    alt_taken: bool,
}

impl Tage {
    /// Build from a [`BpredConfig`].
    #[must_use]
    pub fn new(cfg: BpredConfig) -> Self {
        Tage {
            bimodal: vec![1u8; 1 << cfg.bimodal_bits], // weakly not-taken
            tables: (0..cfg.tage_hist_lens.len())
                .map(|_| vec![TageEntry::default(); 1 << cfg.tage_table_bits])
                .collect(),
            cfg,
            updates: 0,
        }
    }

    /// Approximate storage budget in bytes (for the Table II sizing note).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        let bimodal_bits = self.bimodal.len() * 2;
        let entry_bits = self.cfg.tage_tag_bits + 3 + 2;
        let table_bits: usize = self.tables.iter().map(|t| t.len() * entry_bits).sum();
        (bimodal_bits + table_bits) / 8
    }

    /// Fold the low `len` bits of `hist` into `out_bits` bits: the XOR
    /// of its `out_bits`-wide chunks.
    fn fold(hist: u64, len: usize, out_bits: usize) -> u64 {
        let mut rest = if len >= 64 { hist } else { hist & ((1u64 << len) - 1) };
        let chunk = out_bits.max(1);
        let mask = (1u64 << chunk) - 1;
        let mut folded = 0u64;
        // Chunks past the highest set bit are zero and fold to nothing.
        while rest != 0 {
            folded ^= rest & mask;
            rest >>= chunk;
        }
        folded
    }

    /// Every table's index and tag for the branch at `pc` under `ghr`.
    pub(crate) fn lookup(&self, pc: Addr, ghr: u64) -> Lookup {
        let (index_bits, tag_bits) = (self.cfg.tage_table_bits, self.cfg.tage_tag_bits);
        let mut l = Lookup { index: [0; TABLES], tag: [0; TABLES] };
        for (t, &len) in self.cfg.tage_hist_lens.iter().enumerate() {
            let h = Self::fold(ghr, len, index_bits);
            let mix =
                (pc >> 2) ^ (pc >> (index_bits as u64 + 2)) ^ h ^ (t as u64).wrapping_mul(0x9E37);
            l.index[t] = (mix as usize) & ((1 << index_bits) - 1);
            let h = Self::fold(ghr, len, tag_bits);
            let h2 = Self::fold(ghr, len, tag_bits.saturating_sub(1).max(1));
            let mix = (pc >> 2) ^ h ^ (h2 << 1) ^ ((t as u64) << 3);
            l.tag[t] = (mix as u16) & ((1u16 << tag_bits) - 1);
        }
        l
    }

    fn bimodal_index(&self, pc: Addr) -> usize {
        ((pc >> 2) as usize) & ((1 << self.cfg.bimodal_bits) - 1)
    }

    /// Predict the direction of the conditional branch at `pc` under
    /// global history `ghr`.
    #[must_use]
    pub fn predict(&self, pc: Addr, ghr: u64) -> TagePrediction {
        self.predict_at(pc, &self.lookup(pc, ghr))
    }

    /// [`Tage::predict`] at a precomputed [`Tage::lookup`].
    pub(crate) fn predict_at(&self, pc: Addr, l: &Lookup) -> TagePrediction {
        let mut provider = None;
        let mut alt: Option<bool> = None;
        // Longest history first.
        for t in (0..TABLES).rev() {
            let e = &self.tables[t][l.index[t]];
            if e.tag == l.tag[t] {
                if provider.is_none() {
                    provider = Some((t, e.ctr >= 0));
                } else if alt.is_none() {
                    alt = Some(e.ctr >= 0);
                    break;
                }
            }
        }
        let bimodal_taken = self.bimodal[self.bimodal_index(pc)] >= 2;
        let alt_taken = alt.unwrap_or(bimodal_taken);
        match provider {
            Some((t, taken)) => TagePrediction { taken, provider: Some(t), alt_taken },
            None => {
                TagePrediction { taken: bimodal_taken, provider: None, alt_taken: bimodal_taken }
            }
        }
    }

    /// Commit-time training. `ghr` must be the history value that was in
    /// force when this branch was predicted.
    pub fn update(&mut self, pc: Addr, ghr: u64, taken: bool) {
        self.update_at(pc, &self.lookup(pc, ghr), taken);
    }

    /// [`Tage::update`] at a precomputed [`Tage::lookup`].
    pub(crate) fn update_at(&mut self, pc: Addr, l: &Lookup, taken: bool) {
        self.updates += 1;
        // Periodic graceful aging of usefulness (every 256 Ki updates).
        if self.updates & ((1 << 18) - 1) == 0 {
            for t in &mut self.tables {
                for e in t.iter_mut() {
                    e.useful >>= 1;
                }
            }
        }
        let pred = self.predict_at(pc, l);
        let correct = pred.taken == taken;

        match pred.provider {
            Some(t) => {
                let e = &mut self.tables[t][l.index[t]];
                e.ctr = (e.ctr + if taken { 1 } else { -1 }).clamp(-4, 3);
                if pred.taken != pred.alt_taken {
                    if correct {
                        e.useful = (e.useful + 1).min(3);
                    } else {
                        e.useful = e.useful.saturating_sub(1);
                    }
                }
            }
            None => {
                let idx = self.bimodal_index(pc);
                let c = &mut self.bimodal[idx];
                *c = if taken { (*c + 1).min(3) } else { c.saturating_sub(1) };
            }
        }

        // Allocation on a miss, in a longer-history table.
        if !correct {
            let start = pred.provider.map_or(0, |t| t + 1);
            let mut allocated = false;
            for t in start..TABLES {
                let idx = l.index[t];
                if self.tables[t][idx].useful == 0 {
                    self.tables[t][idx] =
                        TageEntry { tag: l.tag[t], ctr: if taken { 0 } else { -1 }, useful: 0 };
                    allocated = true;
                    break;
                }
            }
            if !allocated {
                for t in start..TABLES {
                    let e = &mut self.tables[t][l.index[t]];
                    e.useful = e.useful.saturating_sub(1);
                }
            }
        }
    }
}

/// Shift `taken` into a global history register.
#[must_use]
pub fn push_history(ghr: u64, taken: bool) -> u64 {
    (ghr << 1) | u64::from(taken)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tage() -> Tage {
        Tage::new(BpredConfig::paper())
    }

    #[test]
    fn budget_is_near_the_papers_31kb() {
        let t = tage();
        let kb = t.size_bytes() as f64 / 1024.0;
        assert!(kb > 12.0 && kb < 40.0, "TAGE budget {kb:.1} KB is out of family");
    }

    #[test]
    fn learns_an_always_taken_branch() {
        let mut t = tage();
        let pc = 0x1000;
        let mut ghr = 0u64;
        for _ in 0..8 {
            let p = t.predict(pc, ghr);
            t.update(pc, ghr, true);
            ghr = push_history(ghr, true);
            let _ = p;
        }
        assert!(t.predict(pc, ghr).taken);
    }

    #[test]
    fn learns_an_alternating_pattern_via_history() {
        // T,NT,T,NT… is unlearnable for bimodal but trivial with history.
        let mut t = tage();
        let pc = 0x2040;
        let mut ghr = 0u64;
        let mut correct_late = 0;
        for i in 0..400u32 {
            let taken = i % 2 == 0;
            let p = t.predict(pc, ghr);
            if i >= 300 && p.taken == taken {
                correct_late += 1;
            }
            t.update(pc, ghr, taken);
            ghr = push_history(ghr, taken);
        }
        assert!(correct_late >= 95, "only {correct_late}/100 correct after warmup");
    }

    #[test]
    fn learns_a_short_loop_exit_pattern() {
        // A loop of 7 iterations: branch taken 6 times then not taken.
        let mut t = tage();
        let pc = 0x3000;
        let mut ghr = 0u64;
        let mut correct_late = 0;
        let mut total_late = 0;
        for trip in 0..200u32 {
            for i in 0..7u32 {
                let taken = i != 6;
                let p = t.predict(pc, ghr);
                if trip >= 150 {
                    total_late += 1;
                    if p.taken == taken {
                        correct_late += 1;
                    }
                }
                t.update(pc, ghr, taken);
                ghr = push_history(ghr, taken);
            }
        }
        let acc = correct_late as f64 / total_late as f64;
        assert!(acc > 0.9, "loop-exit accuracy {acc:.2} too low for TAGE");
    }

    #[test]
    fn different_branches_do_not_destructively_alias() {
        let mut t = tage();
        let mut ghr = 0u64;
        for _ in 0..64 {
            t.update(0x4000, ghr, true);
            ghr = push_history(ghr, true);
            t.update(0x8888, ghr, false);
            ghr = push_history(ghr, false);
        }
        assert!(t.predict(0x4000, ghr).taken);
        assert!(!t.predict(0x8888, ghr).taken);
    }

    #[test]
    fn fold_handles_full_width_history() {
        assert_eq!(Tage::fold(0, 64, 10), 0);
        // Folding is deterministic and within range.
        let f = Tage::fold(0xDEAD_BEEF_1234_5678, 64, 11);
        assert!(f < (1 << 11));
        assert_eq!(f, Tage::fold(0xDEAD_BEEF_1234_5678, 64, 11));
    }
}
