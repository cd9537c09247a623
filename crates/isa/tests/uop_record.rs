//! The decoded µop records must say exactly what `Inst` and `Opcode`
//! say, for every opcode under both front ends, and stepping by record
//! index must visit exactly what address-based fetch does.

use std::collections::BTreeMap;

use sempe_isa::encode::encode_all;
use sempe_isa::opcode::{Format, Opcode};
use sempe_isa::program::{layout, DecodedProgram, LatClass, Program, Uop, NO_INST};
use sempe_isa::reg::Reg;
use sempe_isa::semantics::access_width;
use sempe_isa::{Addr, DecodeMode, Inst};

/// One instance of `op` per operand shape worth telling apart: a live
/// destination, and `x0` as destination and sources (which drop out of
/// `dest`/`sources`). Branches are secure-prefixed, so the two front
/// ends decode them differently, and their offsets land on an
/// instruction start, mid-instruction and outside the code.
fn instances(op: Opcode) -> Vec<Inst> {
    let (a, b, c) = (Reg::x(5), Reg::x(6), Reg::x(7));
    let fa = Reg::f(3);
    let with = |rd, rs1, rs2, imm, secure| Inst { op, rd, rs1, rs2, imm, secure };
    match op.format() {
        Format::None if op == Opcode::EosJmp => vec![Inst::eosjmp()],
        Format::None => vec![Inst::nullary(op)],
        Format::R3 => vec![
            Inst::r3(op, a, b, c),
            Inst::r3(op, Reg::X0, Reg::X0, c),
            Inst::r3(op, fa, Reg::f(4), b),
        ],
        Format::R2I32 => vec![Inst::r2i(op, a, b, 24), Inst::r2i(op, Reg::X0, Reg::X0, -8)],
        Format::R1I64 => vec![Inst::movi(a, -5), Inst::movi(Reg::X0, 1 << 40)],
        Format::Branch => vec![
            Inst::branch(op, a, b, 0, true),
            Inst::branch(op, Reg::X0, b, 1, true),
            Inst::branch(op, a, Reg::X0, -1_000_000, false),
        ],
        Format::Store => vec![Inst::store(op, a, b, 16), Inst::store(op, Reg::X0, Reg::X0, -4)],
        Format::Jal => vec![
            with(Reg::RA, Reg::X0, Reg::X0, 0, false),
            with(Reg::X0, Reg::X0, Reg::X0, 2, false),
        ],
    }
}

fn every_opcode_program() -> Program {
    let insts: Vec<Inst> = Opcode::ALL.iter().flat_map(|&op| instances(op)).collect();
    Program::from_parts(
        layout::CODE_BASE,
        encode_all(&insts),
        layout::CODE_BASE,
        Vec::new(),
        BTreeMap::new(),
    )
}

/// The latency class written out from the opcode list.
fn reference_lat(op: Opcode) -> LatClass {
    use Opcode::*;
    match op {
        Mul => LatClass::Mul,
        Div | Rem | Divu | Remu => LatClass::Div,
        Fadd | Fsub => LatClass::FpAdd,
        Fmul => LatClass::FpMul,
        Fdiv => LatClass::FpDiv,
        Beq | Bne | Blt | Bge | Bltu | Bgeu | Jal | Jalr => LatClass::Branch,
        _ => LatClass::Alu,
    }
}

fn flag_table(inst: Inst) -> [(u16, bool); 12] {
    let op = inst.op;
    [
        (Uop::LOAD, op.is_load()),
        (Uop::STORE, op.is_store()),
        (Uop::COND_BRANCH, op.is_cond_branch()),
        (Uop::SJMP, inst.is_sjmp()),
        (Uop::JAL, op == Opcode::Jal),
        (Uop::JALR, op == Opcode::Jalr),
        (Uop::EOS, inst.is_eosjmp()),
        (Uop::HALT, op == Opcode::Halt),
        (Uop::FP, op.is_fp()),
        (Uop::NEEDS_IQ, !matches!(op, Opcode::Nop | Opcode::Halt | Opcode::EosJmp)),
        (Uop::READS_DEST, inst.reads_dest()),
        (Uop::SRC2_REG, op.format() == Format::R3),
    ]
}

fn check_records(d: &DecodedProgram) -> Vec<Opcode> {
    let listed: Vec<(Addr, Inst)> = d.iter().collect();
    let index_at =
        |pc: Addr| listed.iter().position(|&(a, _)| a == pc).map_or(NO_INST, |i| i as u32);
    let mut seen = Vec::new();
    for (i, &(pc, inst)) in listed.iter().enumerate() {
        let u = d.uop(i as u32);
        let (fetched, len) = d.try_fetch(pc).expect("listed instructions fetch");
        let what = format!("{pc:#x}: {inst}");
        assert_eq!(u.inst, inst, "{what}");
        assert_eq!(fetched, inst, "{what}");
        assert_eq!(usize::from(u.len), len, "{what}: length");
        assert_eq!(u.dest, inst.dest(), "{what}: dest");
        assert_eq!(u.srcs, inst.sources(), "{what}: sources");
        for (bit, want) in flag_table(inst) {
            assert_eq!(u.has(bit), want, "{what}: flag {bit:#x}");
        }
        let mem = inst.op.is_load() || inst.op.is_store();
        assert_eq!(u.width, if mem { access_width(inst.op) } else { 0 }, "{what}: width");
        assert_eq!(u.lat, reference_lat(inst.op), "{what}: latency class");
        assert_eq!(u.lat, LatClass::of(inst.op), "{what}: latency class");
        let direct = inst.op.is_cond_branch() || inst.op == Opcode::Jal;
        if direct {
            let target = inst.branch_target(pc, len);
            assert_eq!(u.target, target, "{what}: target");
            assert_eq!(u.target_index, index_at(target), "{what}: target index");
        } else {
            assert_eq!((u.target, u.target_index), (0, NO_INST), "{what}: no direct target");
        }
        assert_eq!(u.next_index, index_at(pc + len as Addr), "{what}: fall-through index");
        seen.push(inst.op);
    }
    seen
}

#[test]
fn records_match_inst_and_opcode_for_every_opcode_in_both_modes() {
    let prog = every_opcode_program();
    let sempe = prog.decoded(DecodeMode::Sempe).expect("decodes");
    let legacy = prog.decoded(DecodeMode::Legacy).expect("decodes");
    let mut seen = check_records(&sempe);
    seen.sort_by_key(|op| op.byte());
    seen.dedup();
    let mut all = Opcode::ALL.to_vec();
    all.sort_by_key(|op| op.byte());
    assert_eq!(seen, all, "every opcode is covered");
    check_records(&legacy);
    // The two front ends disagree exactly on the SecPrefix.
    let sjmps =
        |d: &DecodedProgram| (0..d.len() as u32).filter(|&i| d.uop(i).has(Uop::SJMP)).count();
    assert!(sjmps(&sempe) > 0);
    assert_eq!(sjmps(&legacy), 0);
    let eos = |d: &DecodedProgram| (0..d.len() as u32).filter(|&i| d.uop(i).has(Uop::EOS)).count();
    assert_eq!((eos(&sempe), eos(&legacy)), (1, 0));
}

#[test]
fn index_stepping_matches_address_fetch() {
    let prog = every_opcode_program();
    for mode in [DecodeMode::Sempe, DecodeMode::Legacy] {
        let d = prog.decoded(mode).expect("decodes");
        // Every byte of the code and a margin either side: an index
        // exactly where the address-ordered listing has an instruction
        // start, and address fetch agrees. A PC inside an instruction has
        // none, so fetch there stays `BadPc`.
        let starts: Vec<Addr> = d.iter().map(|(a, _)| a).collect();
        let mut mid = 0;
        for pc in d.code_base() - 16..d.code_end() + 16 {
            let index = d.index_of(pc);
            let want = starts.iter().position(|&a| a == pc).map_or(NO_INST, |i| i as u32);
            assert_eq!(index, want, "{pc:#x}");
            match d.try_fetch(pc) {
                Some((inst, len)) => {
                    assert_eq!(d.uop(index).inst, inst, "{pc:#x}");
                    assert_eq!(usize::from(d.uop(index).len), len, "{pc:#x}");
                }
                None => {
                    assert_eq!(index, NO_INST, "{pc:#x} has no instruction");
                    mid += usize::from((d.code_base()..d.code_end()).contains(&pc));
                }
            }
        }
        assert!(mid > 0, "some PCs fall inside instructions");
        // Walking fall-throughs by index visits the address walk.
        let (mut pc, mut index, mut steps) = (d.entry(), d.index_of(d.entry()), 0);
        while index != NO_INST {
            let (inst, len) = d.try_fetch(pc).expect("walk stays on instruction starts");
            assert_eq!(d.uop(index).inst, inst);
            pc += len as Addr;
            index = d.uop(index).next_index;
            steps += 1;
        }
        assert_eq!((pc, steps), (d.code_end(), d.len()));
        assert_eq!(d.try_fetch(pc), None, "the walk ends where the code does");
    }
}

#[test]
fn decode_identity_covers_code_base_entry_and_mode_not_data() {
    let prog = every_opcode_program();
    let d = prog.decoded(DecodeMode::Sempe).expect("decodes");
    assert!(d.is_decode_of(&prog, DecodeMode::Sempe));
    assert!(!d.is_decode_of(&prog, DecodeMode::Legacy));
    let with_data = Program::from_parts(
        prog.code_base(),
        prog.code().to_vec(),
        prog.entry(),
        vec![(layout::DATA_BASE, vec![1, 2, 3])],
        BTreeMap::new(),
    );
    assert!(d.is_decode_of(&with_data, DecodeMode::Sempe), "data images do not enter the decode");
    let mut code = prog.code().to_vec();
    let last = code.len() - 1;
    code[last] ^= 1;
    let other = [
        Program::from_parts(prog.code_base(), code, prog.entry(), Vec::new(), BTreeMap::new()),
        Program::from_parts(
            prog.code_base() + 0x1000,
            prog.code().to_vec(),
            prog.entry() + 0x1000,
            Vec::new(),
            BTreeMap::new(),
        ),
        Program::from_parts(
            prog.code_base(),
            prog.code().to_vec(),
            prog.entry() + 10,
            Vec::new(),
            BTreeMap::new(),
        ),
    ];
    for p in &other {
        assert!(!d.is_decode_of(p, DecodeMode::Sempe));
    }
}
