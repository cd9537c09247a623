//! An ITTAGE indirect-target predictor (Seznec, "A 64-Kbytes ITTAGE
//! indirect branch predictor", 2011) — Table II provisions 6 KB for it.
//!
//! Structure mirrors TAGE but entries hold full targets: a direct-mapped
//! last-target base table plus two partially-tagged tables hashed with
//! different global-history lengths.

use sempe_isa::Addr;

use crate::config::BpredConfig;

#[derive(Debug, Clone, Copy, Default)]
struct ItEntry {
    tag: u16,
    target: Addr,
    /// Confidence counter, 0..=3.
    conf: u8,
    useful: u8,
}

/// The ITTAGE predictor.
#[derive(Debug)]
pub struct Ittage {
    cfg: BpredConfig,
    base: Vec<Addr>,
    tables: Vec<Vec<ItEntry>>,
    hist_lens: [usize; 2],
}

clone_in_place!(Ittage { cfg, base, tables, hist_lens });

impl Ittage {
    /// Build from a [`BpredConfig`].
    #[must_use]
    pub fn new(cfg: BpredConfig) -> Self {
        let mut it = Ittage { cfg, base: Vec::new(), tables: Vec::new(), hist_lens: [8, 32] };
        it.reset(cfg);
        it
    }

    /// Become `Ittage::new(cfg)`, refilling the tables in place.
    pub fn reset(&mut self, cfg: BpredConfig) {
        let Ittage { cfg: c, base, tables, hist_lens } = self;
        *c = cfg;
        base.clear();
        base.resize(1 << cfg.ittage_table_bits, 0);
        tables.resize_with(2, Vec::new);
        for t in tables {
            t.clear();
            t.resize(1 << cfg.ittage_table_bits, ItEntry::default());
        }
        *hist_lens = [8, 32];
    }

    /// Approximate storage in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        let base = self.base.len() * 8;
        let entry = 2 + 8 + 1; // tag + target + counters
        base + self.tables.iter().map(|t| t.len() * entry).sum::<usize>()
    }

    fn index(&self, table: usize, pc: Addr, ghr: u64) -> usize {
        let bits = self.cfg.ittage_table_bits;
        let len = self.hist_lens[table];
        let masked = if len >= 64 { ghr } else { ghr & ((1u64 << len) - 1) };
        let mut folded = 0u64;
        let mut rest = masked;
        let mut remaining = len;
        while remaining > 0 {
            folded ^= rest & ((1u64 << bits) - 1);
            rest >>= bits;
            remaining = remaining.saturating_sub(bits);
        }
        (((pc >> 2) ^ folded ^ (table as u64 * 0x51ED)) as usize) & ((1 << bits) - 1)
    }

    fn tag(&self, table: usize, pc: Addr, ghr: u64) -> u16 {
        ((pc >> 5) ^ ghr ^ ((table as u64) << 7)) as u16 & 0x3FF
    }

    fn base_index(&self, pc: Addr) -> usize {
        ((pc >> 2) as usize) & (self.base.len() - 1)
    }

    /// Predict the target of the indirect jump at `pc`. Returns 0 when the
    /// predictor has never seen the branch (callers treat 0 as "no
    /// prediction").
    #[must_use]
    pub fn predict(&self, pc: Addr, ghr: u64) -> Addr {
        for t in (0..self.tables.len()).rev() {
            let e = &self.tables[t][self.index(t, pc, ghr)];
            if e.tag == self.tag(t, pc, ghr) && e.conf > 0 {
                return e.target;
            }
        }
        self.base[self.base_index(pc)]
    }

    /// Commit-time training with the prediction-time history.
    pub fn update(&mut self, pc: Addr, ghr: u64, actual: Addr) {
        let predicted = self.predict(pc, ghr);
        let correct = predicted == actual;

        // Train the providing entry (or base).
        let mut provider = None;
        for t in (0..self.tables.len()).rev() {
            let idx = self.index(t, pc, ghr);
            if self.tables[t][idx].tag == self.tag(t, pc, ghr) && self.tables[t][idx].conf > 0 {
                provider = Some((t, idx));
                break;
            }
        }
        match provider {
            Some((t, idx)) => {
                let e = &mut self.tables[t][idx];
                if e.target == actual {
                    e.conf = (e.conf + 1).min(3);
                    e.useful = (e.useful + 1).min(3);
                } else {
                    e.conf = e.conf.saturating_sub(1);
                    e.useful = e.useful.saturating_sub(1);
                    if e.conf == 0 {
                        e.target = actual;
                        e.conf = 1;
                    }
                }
            }
            None => {
                let idx = self.base_index(pc);
                self.base[idx] = actual;
            }
        }

        // Allocate in a longer table on a wrong target.
        if !correct {
            let start = provider.map_or(0, |(t, _)| t + 1);
            for t in start..self.tables.len() {
                let idx = self.index(t, pc, ghr);
                if self.tables[t][idx].useful == 0 {
                    let tag = self.tag(t, pc, ghr);
                    self.tables[t][idx] = ItEntry { tag, target: actual, conf: 1, useful: 0 };
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn it() -> Ittage {
        Ittage::new(BpredConfig::paper())
    }

    #[test]
    fn size_is_near_six_kilobytes() {
        let kb = it().size_bytes() as f64 / 1024.0;
        assert!(kb > 3.0 && kb < 16.0, "ITTAGE budget {kb:.1} KB out of family");
    }

    #[test]
    fn learns_a_monomorphic_target() {
        let mut p = it();
        for _ in 0..4 {
            p.update(0x900, 0, 0x4444);
        }
        assert_eq!(p.predict(0x900, 0), 0x4444);
    }

    #[test]
    fn history_disambiguates_polymorphic_targets() {
        let mut p = it();
        // Same indirect jump, target depends on recent history.
        for _ in 0..64 {
            p.update(0x900, 0b1010, 0x1111);
            p.update(0x900, 0b0101, 0x2222);
        }
        assert_eq!(p.predict(0x900, 0b1010), 0x1111);
        assert_eq!(p.predict(0x900, 0b0101), 0x2222);
    }

    #[test]
    fn unknown_pc_predicts_zero() {
        assert_eq!(it().predict(0xABCD, 0), 0);
    }
}
