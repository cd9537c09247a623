//! `Simulator::rebuild` must be indistinguishable from constructing a
//! fresh simulator: recycled allocations may carry capacity, never state.

use sempe_compile::wir::{Expr, WirBuilder};
use sempe_compile::{compile, Backend};
use sempe_isa::reg::Reg;
use sempe_sim::{Roi, SimConfig, SimStats, Simulator};

fn modexp_prog(key: u64) -> sempe_compile::WirProgram {
    let mut b = WirBuilder::new();
    let k = b.var("key", key);
    let r = b.var("r", 1);
    let base = b.var("base", 7);
    let bit = b.var("bit", 0);
    let mut body = Vec::new();
    for i in 0..4 {
        body.push(b.assign(
            bit,
            Expr::bin(
                sempe_compile::BinOp::And,
                Expr::bin(sempe_compile::BinOp::Shr, Expr::Var(k), Expr::Const(i)),
                Expr::Const(1),
            ),
        ));
        body.push(sempe_compile::Stmt::If {
            cond: Expr::Var(bit),
            secret: true,
            then_: vec![b.assign(
                r,
                Expr::bin(
                    sempe_compile::BinOp::Rem,
                    Expr::bin(sempe_compile::BinOp::Mul, Expr::Var(r), Expr::Var(base)),
                    Expr::Const(1_000_003),
                ),
            )],
            else_: Vec::new(),
        });
        body.push(b.assign(
            base,
            Expr::bin(
                sempe_compile::BinOp::Rem,
                Expr::bin(sempe_compile::BinOp::Mul, Expr::Var(base), Expr::Var(base)),
                Expr::Const(1_000_003),
            ),
        ));
    }
    for s in body {
        b.push(s);
    }
    b.output(r);
    b.build()
}

/// Everything a finished run leaves readable: the whole statistics
/// block, the ROI spans, every architectural register and the outputs.
#[derive(Debug, PartialEq)]
struct Facts {
    stats: SimStats,
    roi_spans: Vec<(u64, u64)>,
    regs: Vec<u64>,
    outputs: Vec<u64>,
}

fn facts(sim: &Simulator, stats: SimStats, cw: &sempe_compile::CompiledWorkload) -> Facts {
    Facts {
        stats,
        roi_spans: sim.roi_spans().to_vec(),
        regs: Reg::all().map(|r| sim.arch_reg(r)).collect(),
        outputs: cw.read_outputs(sim.mem()),
    }
}

#[test]
fn rebuild_matches_fresh_construction_exactly() {
    let cases = [
        (compile(&modexp_prog(0b1011), Backend::Sempe).unwrap(), SimConfig::paper()),
        (compile(&modexp_prog(0b1011), Backend::Baseline).unwrap(), SimConfig::baseline()),
        (compile(&modexp_prog(0b0010), Backend::Sempe).unwrap(), SimConfig::paper().with_trace()),
        (compile(&modexp_prog(0b1111), Backend::Cte).unwrap(), SimConfig::baseline()),
        // Tiered runs move the `tier_*`/`roi_*` state; the next rebuild
        // (into a skip-stepped case, or the other ROI policy) must not
        // inherit any of it.
        (compile(&modexp_prog(0b0110), Backend::Sempe).unwrap(), SimConfig::paper().with_tiered()),
        (
            compile(&modexp_prog(0b1001), Backend::Baseline).unwrap(),
            SimConfig::baseline().with_tiered().with_roi(Roi::Window { skip: 20, insts: 30 }),
        ),
    ];

    // Cold reference: a fresh simulator per case.
    let mut reference = Vec::new();
    let mut full_reference = Vec::new();
    for (cw, config) in &cases {
        let mut sim = Simulator::new(cw.program(), *config).expect("builds");
        let res = sim.run(50_000_000).expect("halts");
        reference.push((res.cycles(), res.committed(), cw.read_outputs(sim.mem())));
        full_reference.push(facts(&sim, res.stats, cw));
    }

    // Warm arena: one simulator rebuilt across all cases, twice over, in
    // an order that forces every (program, config) transition.
    let (cw0, config0) = &cases[0];
    let mut arena = Simulator::new(cw0.program(), *config0).expect("builds");
    for round in 0..2 {
        for (i, (cw, config)) in cases.iter().enumerate() {
            arena.rebuild(cw.program(), *config).expect("rebuilds");
            let res = arena.run(50_000_000).expect("halts");
            let got = (res.cycles(), res.committed(), cw.read_outputs(arena.mem()));
            assert_eq!(got, reference[i], "round {round} case {i} diverged after rebuild");
            assert_eq!(
                facts(&arena, res.stats, cw),
                full_reference[i],
                "round {round} case {i}: state leaked through rebuild"
            );
        }
    }

    // The shared arena helper (first use constructs, later uses rebuild)
    // must be cycle-identical to both paths above.
    let mut slot: Option<Simulator> = None;
    for round in 0..2 {
        for (i, (cw, config)) in cases.iter().enumerate() {
            let sim = Simulator::rebuild_or_new(&mut slot, cw.program(), *config)
                .expect("arena helper builds");
            let res = sim.run(50_000_000).expect("halts");
            let got = (res.cycles(), res.committed(), cw.read_outputs(sim.mem()));
            assert_eq!(got, reference[i], "round {round} case {i} diverged via rebuild_or_new");
            assert_eq!(
                facts(sim, res.stats, cw),
                full_reference[i],
                "round {round} case {i}: state leaked through rebuild_or_new"
            );
        }
    }
}

#[test]
fn rebuild_after_a_run_cut_off_mid_flight_matches_fresh_construction() {
    // A service job that runs out of cycles leaves µops in flight (ROB,
    // LSQ, completion calendar, parked loads); the next job's rebuild
    // must drop every one of them.
    let cw = compile(&modexp_prog(0b1011), Backend::Sempe).unwrap();
    let config = SimConfig::paper();
    let mut fresh = Simulator::new(cw.program(), config).expect("builds");
    let res = fresh.run(50_000_000).expect("halts");
    let want = facts(&fresh, res.stats, &cw);

    let mut arena = Simulator::new(cw.program(), config).expect("builds");
    let mut mid_flight = 0;
    for budget in (50..=800).step_by(50) {
        assert!(arena.run(budget).is_err(), "budget {budget} ends before HALT");
        mid_flight += u32::from(arena.checkpoint().is_err());
        arena.rebuild(cw.program(), config).expect("rebuilds");
        let res = arena.run(50_000_000).expect("halts");
        assert_eq!(facts(&arena, res.stats, &cw), want, "rebuild after a cut at {budget}");
        arena.rebuild(cw.program(), config).expect("rebuilds");
    }
    assert!(mid_flight > 0, "some cut must leave µops in flight");
}
