//! Differential testing: the out-of-order simulator must agree with the
//! in-order reference interpreter on final architectural state, for
//! arbitrary generated programs — with and without secure regions.

use proptest::prelude::*;
use sempe_isa::asm::Asm;
use sempe_isa::interp::{Interp, InterpMode};
use sempe_isa::program::Program;
use sempe_isa::reg::Reg;
use sempe_sim::{SimConfig, Simulator, Stepping};

const FUEL: u64 = 2_000_000;

/// Working registers the generators are allowed to touch (skip x0/ra/sp).
fn wreg(i: u8) -> Reg {
    Reg::x(3 + (i % 13))
}

#[derive(Debug, Clone)]
enum GenOp {
    Alu { op: u8, rd: u8, rs1: u8, rs2: u8 },
    AluImm { op: u8, rd: u8, rs1: u8, imm: i32 },
    Cmov { rd: u8, rs: u8, rc: u8 },
    Load { rd: u8, idx: u8 },
    Store { src: u8, idx: u8 },
}

fn emit(a: &mut Asm, op: &GenOp, buf_base: Reg) {
    match *op {
        GenOp::Alu { op, rd, rs1, rs2 } => {
            let (rd, rs1, rs2) = (wreg(rd), wreg(rs1), wreg(rs2));
            match op % 8 {
                0 => a.add(rd, rs1, rs2),
                1 => a.sub(rd, rs1, rs2),
                2 => a.xor(rd, rs1, rs2),
                3 => a.and(rd, rs1, rs2),
                4 => a.or(rd, rs1, rs2),
                5 => a.mul(rd, rs1, rs2),
                6 => a.slt(rd, rs1, rs2),
                _ => a.sltu(rd, rs1, rs2),
            }
        }
        GenOp::AluImm { op, rd, rs1, imm } => {
            let (rd, rs1) = (wreg(rd), wreg(rs1));
            match op % 4 {
                0 => a.addi(rd, rs1, i64::from(imm)),
                1 => a.xori(rd, rs1, i64::from(imm)),
                2 => a.slli(rd, rs1, i64::from(imm.unsigned_abs() % 63)),
                _ => a.srli(rd, rs1, i64::from(imm.unsigned_abs() % 63)),
            }
        }
        GenOp::Cmov { rd, rs, rc } => a.cmovnz(wreg(rd), wreg(rs), wreg(rc)),
        GenOp::Load { rd, idx } => {
            // Bounded address: buf_base + (idx_reg & 0x38).
            let k = Reg::x(30);
            a.andi(k, wreg(idx), 0x38);
            a.add(k, k, buf_base);
            a.ld(wreg(rd), k, 0);
        }
        GenOp::Store { src, idx } => {
            let k = Reg::x(30);
            a.andi(k, wreg(idx), 0x38);
            a.add(k, k, buf_base);
            a.st(k, wreg(src), 0);
        }
    }
}

fn arb_op() -> impl Strategy<Value = GenOp> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(op, rd, rs1, rs2)| GenOp::Alu { op, rd, rs1, rs2 }),
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<i32>())
            .prop_map(|(op, rd, rs1, imm)| GenOp::AluImm { op, rd, rs1, imm }),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(rd, rs, rc)| GenOp::Cmov { rd, rs, rc }),
        (any::<u8>(), any::<u8>()).prop_map(|(rd, idx)| GenOp::Load { rd, idx }),
        (any::<u8>(), any::<u8>()).prop_map(|(src, idx)| GenOp::Store { src, idx }),
    ]
}

/// Build a program: init registers, run op blocks separated by forward
/// branches, halt.
fn build_program(init: &[u64], segments: &[(u8, u8, u8, Vec<GenOp>)]) -> (Program, u64) {
    let mut a = Asm::new();
    let buf = a.zero_data(64);
    let buf_base = Reg::x(29);
    a.movi(buf_base, buf as i64);
    for (i, v) in init.iter().enumerate() {
        a.movi(wreg(i as u8), *v as i64);
    }
    for (cond_op, rs1, rs2, body) in segments {
        let skip = a.fresh_label("skip");
        match cond_op % 4 {
            0 => a.beq(wreg(*rs1), wreg(*rs2), skip),
            1 => a.bne(wreg(*rs1), wreg(*rs2), skip),
            2 => a.blt(wreg(*rs1), wreg(*rs2), skip),
            _ => a.bge(wreg(*rs1), wreg(*rs2), skip),
        }
        for op in body {
            emit(&mut a, op, buf_base);
        }
        a.bind(skip).unwrap();
    }
    a.halt();
    (a.assemble().unwrap(), buf)
}

fn compare_states(prog: &Program, buf: u64, config: SimConfig) {
    let mut interp = Interp::new(prog, InterpMode::Legacy).expect("interp");
    interp.run(FUEL).expect("interp runs to halt");

    let mut sim = Simulator::new(prog, config).expect("sim");
    let res = sim.run(FUEL).expect("sim runs to halt");
    assert!(res.halted);

    for i in 0..13u8 {
        let r = wreg(i);
        assert_eq!(
            sim.arch_reg(r),
            interp.reg(r),
            "architectural register {r} differs from the oracle"
        );
    }
    for slot in 0..8u64 {
        let addr = buf + slot * 8;
        assert_eq!(
            sim.mem().read_u64(addr),
            interp.mem().read_u64(addr),
            "memory word {slot} differs from the oracle"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn straightline_programs_match_oracle(
        init in prop::collection::vec(any::<u64>(), 13),
        body in prop::collection::vec(arb_op(), 1..60),
    ) {
        // One segment with an always-false branch guard (beq r, r would
        // skip; use blt r,r which is never taken).
        let (prog, buf) = build_program(&init, &[(3, 0, 0, body)]);
        compare_states(&prog, buf, SimConfig::baseline());
    }

    #[test]
    fn branchy_programs_match_oracle(
        init in prop::collection::vec(any::<u64>(), 13),
        segments in prop::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), prop::collection::vec(arb_op(), 0..20)),
            1..8,
        ),
    ) {
        let (prog, buf) = build_program(&init, &segments);
        compare_states(&prog, buf, SimConfig::baseline());
        // The same binary must also be architecturally correct on the
        // SeMPE pipeline (no secure branches here, but the machinery is
        // live).
        let (prog2, buf2) = build_program(&init, &segments);
        compare_states(&prog2, buf2, SimConfig::paper());
    }
}

/// Loop with a data-dependent trip count: exercises the branch predictor,
/// squash/recovery and the LSQ under iteration.
#[test]
fn countdown_loop_matches_oracle() {
    for trips in [1u64, 2, 3, 7, 100] {
        let mut a = Asm::new();
        let buf = a.zero_data(64);
        let base = Reg::x(29);
        a.movi(base, buf as i64);
        a.movi(Reg::x(3), trips as i64);
        a.movi(Reg::x(4), 0); // accumulator
        let top = a.label("top");
        let done = a.label("done");
        a.bind(top).unwrap();
        a.beq(Reg::x(3), Reg::X0, done);
        a.add(Reg::x(4), Reg::x(4), Reg::x(3));
        a.st(base, Reg::x(4), 0);
        a.ld(Reg::x(5), base, 0);
        a.addi(Reg::x(3), Reg::x(3), -1);
        a.jmp(top);
        a.bind(done).unwrap();
        a.halt();
        let prog = a.assemble().unwrap();
        compare_states(&prog, buf, SimConfig::baseline());
    }
}

/// Function calls and returns through the RAS.
#[test]
fn call_return_matches_oracle() {
    let mut a = Asm::new();
    let buf = a.zero_data(64);
    let f = a.label("f");
    let over = a.label("over");
    a.movi(Reg::x(3), 10);
    a.call(f);
    a.call(f);
    a.call(f);
    a.jmp(over);
    a.bind(f).unwrap();
    a.addi(Reg::x(3), Reg::x(3), 7);
    a.ret();
    a.bind(over).unwrap();
    a.halt();
    let prog = a.assemble().unwrap();
    compare_states(&prog, buf, SimConfig::baseline());
}

/// Store-to-load forwarding with overlapping widths.
#[test]
fn forwarding_widths_match_oracle() {
    let mut a = Asm::new();
    let buf = a.zero_data(64);
    let base = Reg::x(29);
    a.movi(base, buf as i64);
    a.movi(Reg::x(3), 0x1122_3344_5566_7788);
    a.st(base, Reg::x(3), 0);
    a.ldb(Reg::x(4), base, 0); // forwarded byte
    a.ldw(Reg::x(5), base, 0); // forwarded word
    a.ld(Reg::x(6), base, 0); // forwarded qword
    a.stw(base, Reg::x(4), 16);
    a.ld(Reg::x(7), base, 16); // partial overlap: must wait for commit
    a.halt();
    let prog = a.assemble().unwrap();
    compare_states(&prog, buf, SimConfig::baseline());
}

/// Stores and loads at the top of the address space. Each access covers
/// `[addr, addr + width)` modulo 2^64, so the store-to-load forwarding rule
/// must neither overflow there nor miss an overlap that wraps: an exact
/// reload forwards, and a load of the wrapped-onto bytes at address 0
/// waits for the store to commit. Every stepping mode, on both machines.
#[test]
fn top_of_memory_accesses_match_oracle() {
    let (base, value, reload, low) = (Reg::x(5), Reg::x(6), Reg::x(7), Reg::x(28));
    for addr in [-8i64, (u64::MAX - 3) as i64] {
        let mut a = Asm::new();
        a.movi(base, addr);
        a.movi(value, 0x1122_3344_5566_772A);
        a.st(base, value, 0);
        a.ld(reload, base, 0);
        a.ldw(low, Reg::X0, 0);
        a.halt();
        let prog = a.assemble().unwrap();

        let mut interp = Interp::new(&prog, InterpMode::Legacy).unwrap();
        interp.run(FUEL).unwrap();
        assert_eq!(interp.reg(reload), 0x1122_3344_5566_772A);
        let wrapped = if addr == -8 { 0 } else { 0x1122_3344 };
        assert_eq!(interp.reg(low), wrapped, "the store at {addr:#x} wraps onto address 0");
        for config in [SimConfig::baseline(), SimConfig::paper()] {
            for stepping in [Stepping::Classic, Stepping::Skip, Stepping::Tiered] {
                let mut sim = Simulator::new(&prog, config.with_stepping(stepping)).expect("sim");
                assert!(sim.run(FUEL).expect("sim runs to halt").halted);
                for r in [base, value, reload, low] {
                    assert_eq!(
                        sim.arch_reg(r),
                        interp.reg(r),
                        "{} {stepping:?}: {r} differs from the oracle at {addr:#x}",
                        config.mode.name()
                    );
                }
                assert_eq!(sim.mem().read_u64(addr as u64), interp.mem().read_u64(addr as u64));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Secure regions: the SeMPE pipeline must be architecturally equivalent
// to legacy true-path-only execution.
// ---------------------------------------------------------------------

/// Emit a (possibly nested) register-only secure region.
fn emit_secure_region(
    a: &mut Asm,
    cond: Reg,
    nt_ops: &[GenOp],
    t_ops: &[GenOp],
    nest: Option<(&[GenOp], &[GenOp], Reg)>,
    buf_base: Reg,
) {
    let then_ = a.fresh_label("then");
    let join = a.fresh_label("join");
    a.sbne(cond, Reg::X0, then_);
    for op in nt_ops {
        emit(a, op, buf_base);
    }
    if let Some((inner_nt, inner_t, inner_cond)) = nest {
        emit_secure_region(a, inner_cond, inner_nt, inner_t, None, buf_base);
    }
    a.jmp(join);
    a.bind(then_).unwrap();
    for op in t_ops {
        emit(a, op, buf_base);
    }
    a.bind(join).unwrap();
    a.eosjmp();
}

fn alu_only(ops: Vec<GenOp>) -> Vec<GenOp> {
    ops.into_iter()
        .filter(|o| matches!(o, GenOp::Alu { .. } | GenOp::AluImm { .. } | GenOp::Cmov { .. }))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn secure_regions_match_oracle(
        init in prop::collection::vec(any::<u64>(), 13),
        secret1 in any::<bool>(),
        secret2 in any::<bool>(),
        nt in prop::collection::vec(arb_op(), 0..15),
        t in prop::collection::vec(arb_op(), 0..15),
        inner_nt in prop::collection::vec(arb_op(), 0..10),
        inner_t in prop::collection::vec(arb_op(), 0..10),
    ) {
        // Register-only bodies: memory privatization is the compiler's
        // job (tested in sempe-compile); here we verify the hardware
        // register merge on arbitrary write patterns.
        let nt = alu_only(nt);
        let t = alu_only(t);
        let inner_nt = alu_only(inner_nt);
        let inner_t = alu_only(inner_t);

        let mut a = Asm::new();
        let buf = a.zero_data(64);
        let base = Reg::x(29);
        a.movi(base, buf as i64);
        for (i, v) in init.iter().enumerate() {
            a.movi(wreg(i as u8), *v as i64);
        }
        let c1 = Reg::x(28);
        let c2 = Reg::x(27);
        a.movi(c1, i64::from(secret1));
        a.movi(c2, i64::from(secret2));
        emit_secure_region(&mut a, c1, &nt, &t, Some((&inner_nt, &inner_t, c2)), base);
        a.halt();
        let prog = a.assemble().unwrap();

        // Oracle: legacy semantics (true path only).
        let mut interp = Interp::new(&prog, InterpMode::Legacy).expect("interp");
        interp.run(FUEL).expect("oracle halts");

        // Functional SeMPE interpreter agrees.
        let mut both = Interp::new(&prog, InterpMode::SempeFunctional).expect("interp");
        both.run(FUEL).expect("functional SeMPE halts");

        // Cycle-level SeMPE pipeline agrees.
        let mut sim = Simulator::new(&prog, SimConfig::paper()).expect("sim");
        sim.run(FUEL).expect("sim halts");

        for i in 0..13u8 {
            let r = wreg(i);
            prop_assert_eq!(both.reg(r), interp.reg(r), "functional model diverged at {}", r);
            prop_assert_eq!(sim.arch_reg(r), interp.reg(r), "pipeline diverged at {}", r);
        }
    }
}

/// A secure region nested in a loop, with non-secret branches inside the
/// SecBlocks — the combination of predictor-driven squashes and jbTable
/// bookkeeping.
#[test]
fn secure_region_in_loop_with_inner_branches() {
    for secret in [0u64, 1] {
        let mut a = Asm::new();
        let c = Reg::x(28);
        a.movi(c, secret as i64);
        a.movi(Reg::x(3), 20); // loop counter
        a.movi(Reg::x(4), 0); // accumulator
        let top = a.label("top");
        let done = a.label("done");
        a.bind(top).unwrap();
        a.beq(Reg::x(3), Reg::X0, done);
        {
            let then_ = a.fresh_label("then");
            let join = a.fresh_label("join");
            a.sbne(c, Reg::X0, then_);
            // NT path: add 1, with a non-secret inner branch.
            let even = a.fresh_label("even");
            a.andi(Reg::x(5), Reg::x(3), 1);
            a.beq(Reg::x(5), Reg::X0, even);
            a.addi(Reg::x(4), Reg::x(4), 1);
            a.bind(even).unwrap();
            a.addi(Reg::x(4), Reg::x(4), 1);
            a.jmp(join);
            a.bind(then_).unwrap();
            // T path: add 100.
            a.addi(Reg::x(4), Reg::x(4), 100);
            a.bind(join).unwrap();
            a.eosjmp();
        }
        a.addi(Reg::x(3), Reg::x(3), -1);
        a.jmp(top);
        a.bind(done).unwrap();
        a.halt();
        let prog = a.assemble().unwrap();

        let mut interp = Interp::new(&prog, InterpMode::Legacy).unwrap();
        interp.run(FUEL).unwrap();
        let mut sim = Simulator::new(&prog, SimConfig::paper()).unwrap();
        sim.run(FUEL).unwrap();
        assert_eq!(
            sim.arch_reg(Reg::x(4)),
            interp.reg(Reg::x(4)),
            "secret={secret}: accumulator must match the oracle"
        );
        let expected = if secret == 1 { 20 * 100 } else { 20 + 10 };
        assert_eq!(sim.arch_reg(Reg::x(4)), expected);
    }
}
