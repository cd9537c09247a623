//! Modular exponentiation — the paper's Figure 1 motivating example.
//!
//! Square-and-multiply where each secret key bit decides whether the
//! multiply step runs: the canonical conditional-branch timing channel in
//! RSA implementations. The secret `if` is annotated so the Sempe and Cte
//! backends protect it; the baseline leaks one bit per iteration through
//! timing and branch-predictor state.

use sempe_compile::wir::{BinOp, Expr, Stmt, WirBuilder, WirProgram};

/// Parameters for a modular-exponentiation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModexpParams {
    /// The base (public).
    pub base: u64,
    /// The secret exponent (the RSA key bits `e_i` of Figure 1).
    pub exponent: u64,
    /// Number of key bits to process.
    pub bits: u32,
    /// The (public, prime-ish) modulus. Must be nonzero and below
    /// `2^31` so products stay well inside 64 bits.
    pub modulus: u64,
}

impl Default for ModexpParams {
    fn default() -> Self {
        ModexpParams { base: 7, exponent: 0b1011_0110, bits: 8, modulus: 1_000_000_007 }
    }
}

/// Host-side reference result.
#[must_use]
pub fn modexp_reference(p: &ModexpParams) -> u64 {
    let m = u128::from(p.modulus);
    let mut r: u128 = 1 % m;
    let mut b = u128::from(p.base) % m;
    for i in 0..p.bits {
        if (p.exponent >> i) & 1 == 1 {
            r = r * b % m;
        }
        b = b * b % m;
    }
    r as u64
}

/// Build the WIR program for Figure 1's loop (bit-from-LSB variant).
///
/// # Panics
///
/// Panics when the modulus is zero or too large (≥ 2^31).
#[must_use]
pub fn modexp_program(p: &ModexpParams) -> WirProgram {
    assert!(p.modulus != 0 && p.modulus < (1 << 31), "modulus out of range");
    let mut b = WirBuilder::new();
    let r = b.var("r", 1 % p.modulus);
    let acc_base = b.var("b", p.base % p.modulus);
    let e = b.var("e", p.exponent);
    let i = b.var("i", 0);
    let bit = b.var("bit", 0);
    let m = Expr::Const(p.modulus);

    let v = Expr::Var;
    let bin = Expr::bin;

    b.while_loop(
        bin(BinOp::Ltu, v(i), Expr::Const(u64::from(p.bits))),
        p.bits + 1,
        vec![
            Stmt::Assign(bit, bin(BinOp::And, bin(BinOp::Shr, v(e), v(i)), Expr::Const(1))),
            // Figure 1 line 4: if (e_i == 1) r <- r * b mod m  — the leak.
            Stmt::If {
                cond: v(bit),
                secret: true,
                then_: vec![Stmt::Assign(
                    r,
                    bin(BinOp::Rem, bin(BinOp::Mul, v(r), v(acc_base)), m.clone()),
                )],
                else_: vec![],
            },
            // The square runs unconditionally.
            Stmt::Assign(
                acc_base,
                bin(BinOp::Rem, bin(BinOp::Mul, v(acc_base), v(acc_base)), m.clone()),
            ),
            Stmt::Assign(i, bin(BinOp::Add, v(i), Expr::Const(1))),
        ],
    );
    b.output(r);
    b.build()
}

/// Parameters for the windowed (precomputed-table) modexp victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableModexpParams {
    /// Precomputed-table size in 8-byte words. `1 << 16` (512 KiB) is
    /// the scale of a windowed-RSA table or a T-table cipher's expanded
    /// state — and is what the fork-engine and cycle-skip benchmarks
    /// calibrate against.
    pub table_words: usize,
    /// Key bits to process (the loop trip count). Above 64 the key
    /// pattern repeats (the shift index is masked to the word width).
    pub bits: u32,
    /// The secret key.
    pub key: u64,
}

impl Default for TableModexpParams {
    fn default() -> Self {
        TableModexpParams { table_words: 1 << 16, bits: 16, key: 0b1011 }
    }
}

/// Windowed modexp over a precomputed power table: per key bit, the
/// secret branch multiplies by a table entry chosen by the running
/// product (a dependent, scattered load). The table is secret-
/// independent common structure dominating the program image — the
/// shape the checkpoint/fork engine amortizes — and the loads it feeds
/// are the stall-heavy shape cycle skipping fast-forwards. Returns the
/// program and the key's [`VarId`](sempe_compile::VarId) (fork trials
/// patch it in place).
///
/// # Panics
///
/// Panics when `table_words` is not a power of two.
#[must_use]
pub fn table_modexp_program(p: &TableModexpParams) -> (WirProgram, sempe_compile::VarId) {
    assert!(p.table_words.is_power_of_two(), "table size must be a power of two");
    let mut b = WirBuilder::new();
    let key = b.var("key", p.key);
    let r = b.var("r", 1);
    let i = b.var("i", 0);
    let bit = b.var("bit", 0);
    let init: Vec<u64> = (0..p.table_words as u64)
        .map(|x| x.wrapping_mul(2_654_435_761).wrapping_add(12_345) % 1_000_003)
        .collect();
    let tab = b.array("tab", p.table_words, init);
    let mask = (p.table_words - 1) as u64;
    let v = Expr::Var;
    let bin = Expr::bin;
    // Keys are 64-bit; wider loops re-walk the pattern via a masked
    // shift index. Narrow loops keep the plain shift (bit-identical to
    // the historical benchmark program).
    let shift_index = if p.bits > 64 { bin(BinOp::And, v(i), Expr::Const(63)) } else { v(i) };
    let body = vec![
        b.assign(bit, bin(BinOp::And, bin(BinOp::Shr, v(key), shift_index), Expr::Const(1))),
        Stmt::If {
            cond: v(bit),
            secret: true,
            then_: vec![b.assign(
                r,
                bin(
                    BinOp::Rem,
                    bin(
                        BinOp::Mul,
                        v(r),
                        Expr::Load(
                            tab,
                            Box::new(bin(
                                BinOp::And,
                                bin(BinOp::Add, v(r), v(i)),
                                Expr::Const(mask),
                            )),
                        ),
                    ),
                    Expr::Const(1_000_003),
                ),
            )],
            else_: vec![],
        },
        b.assign(i, bin(BinOp::Add, v(i), Expr::Const(1))),
    ];
    b.push(Stmt::While {
        cond: bin(BinOp::Ltu, v(i), Expr::Const(u64::from(p.bits))),
        bound: p.bits + 1,
        body,
    });
    b.output(r);
    (b.build(), key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sempe_compile::{compile, run_wir, Backend};
    use sempe_isa::interp::{Interp, InterpMode};
    use std::collections::BTreeMap;

    #[test]
    fn reference_matches_known_values() {
        let p = ModexpParams { base: 2, exponent: 10, bits: 4, modulus: 1_000 };
        assert_eq!(modexp_reference(&p), 24); // 2^10 = 1024 mod 1000
        let p = ModexpParams { base: 3, exponent: 5, bits: 3, modulus: 97 };
        assert_eq!(modexp_reference(&p), 243 % 97);
    }

    #[test]
    fn wir_program_matches_reference() {
        for exponent in [0u64, 1, 0b1010, 0xFF, 0b1011_0110] {
            let p = ModexpParams { exponent, ..ModexpParams::default() };
            let r = run_wir(&modexp_program(&p), &BTreeMap::new()).expect("runs");
            assert_eq!(r.outputs[0], modexp_reference(&p), "exponent {exponent:#b}");
        }
    }

    #[test]
    fn all_backends_compute_modexp() {
        let p = ModexpParams::default();
        let want = modexp_reference(&p);
        let prog = modexp_program(&p);
        for backend in [Backend::Baseline, Backend::Sempe, Backend::Cte] {
            let cw = compile(&prog, backend).expect("compiles");
            let mut m = Interp::new(cw.program(), InterpMode::Legacy).expect("interp");
            m.run(10_000_000).expect("halts");
            assert_eq!(cw.read_outputs(m.mem()), vec![want], "{backend}");
        }
        // And under true dual-path semantics.
        let cw = compile(&prog, Backend::Sempe).unwrap();
        let mut m = Interp::new(cw.program(), InterpMode::SempeFunctional).unwrap();
        m.run(10_000_000).unwrap();
        assert_eq!(cw.read_outputs(m.mem()), vec![want]);
    }

    #[test]
    #[should_panic(expected = "modulus out of range")]
    fn zero_modulus_is_rejected() {
        let _ = modexp_program(&ModexpParams { modulus: 0, ..ModexpParams::default() });
    }

    #[test]
    fn table_modexp_runs_and_depends_on_the_key() {
        let small = TableModexpParams { table_words: 1 << 8, bits: 8, key: 0b1011_0110 };
        let (prog, key) = table_modexp_program(&small);
        let r0 = run_wir(&prog, &BTreeMap::new()).expect("runs");
        let mut other = prog.clone();
        other.set_var_init(key, 0b0110_1011);
        let r1 = run_wir(&other, &BTreeMap::new()).expect("runs");
        assert_ne!(r0.outputs, r1.outputs, "output must depend on the key");
        for backend in [Backend::Baseline, Backend::Sempe, Backend::Cte] {
            compile(&prog, backend).unwrap_or_else(|e| panic!("{backend}: {e}"));
        }
    }

    #[test]
    fn wide_table_modexp_masks_the_shift_index() {
        let wide = TableModexpParams { table_words: 1 << 8, bits: 96, key: u64::MAX };
        let (prog, _) = table_modexp_program(&wide);
        let r = run_wir(&prog, &BTreeMap::new()).expect("bits > 64 must not fault");
        assert_eq!(r.outputs.len(), 1);
    }
}
