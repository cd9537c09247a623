//! `Simulator::rebuild` must be indistinguishable from constructing a
//! fresh simulator: recycled allocations may carry capacity, never state.

use sempe_compile::wir::{Expr, WirBuilder};
use sempe_compile::{compile, parse_wir, Backend};
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

/// Machines that differ in every geometry a rebuild refills in place:
/// cache sizes, TAGE table sizes and ROB size, in both directions.
fn geometries(base: SimConfig) -> Vec<SimConfig> {
    let mut small_caches = base;
    small_caches.mem.l2.size_bytes /= 4;
    small_caches.mem.dl1.size_bytes /= 2;
    small_caches.mem.il1.size_bytes /= 2;
    let mut big_caches = base;
    big_caches.mem.l2.size_bytes *= 2;
    big_caches.mem.dl1.ways *= 2;
    let mut small_tage = base;
    small_tage.bpred.tage_table_bits -= 2;
    small_tage.bpred.bimodal_bits -= 3;
    small_tage.bpred.ittage_table_bits -= 1;
    let mut small_rob = base;
    small_rob.core.rob_entries = 64;
    vec![base, small_caches, big_caches.with_trace(), small_tage, small_rob.with_trace(), base]
}

/// Everything a finished run leaves readable, trace included.
fn full_facts(
    sim: &Simulator,
    stats: SimStats,
    cw: &sempe_compile::CompiledWorkload,
) -> (Facts, sempe_core::trace::ObservationTrace) {
    (facts(sim, stats, cw), sim.trace().clone())
}

/// A walk over a 256 KiB array, one load per 64-byte line: it touches
/// every set of every cache geometry below, so a table a rebuild failed
/// to grow or to clear shows in the statistics.
const WALK: &str = r"
    array buf[32768];
    var i = 0;
    var acc = 0;
    while (i < 32768) bound 4097 {
        acc = acc + buf[i] + i;
        buf[i] = acc;
        i = i + 8;
    }
    output acc;
";

#[test]
fn rebuild_in_place_across_geometries_and_data_images_matches_fresh_construction() {
    // Two programs with identical code and different data images (the
    // key is an initialized variable), so a rebuild between them keeps
    // the decode but must load the other image.
    let a = compile(&modexp_prog(0b1011), Backend::Sempe).unwrap();
    let b = compile(&modexp_prog(0b0110), Backend::Sempe).unwrap();
    assert_eq!(a.program().code(), b.program().code(), "same code");
    assert_ne!(a.program().data(), b.program().data(), "different data images");
    let base = compile(&modexp_prog(0b1011), Backend::Baseline).unwrap();
    let walk = compile(&parse_wir(WALK).unwrap().program, Backend::Baseline).unwrap();

    let mut cases = Vec::new();
    for config in geometries(SimConfig::paper()) {
        cases.push((&a, config));
        cases.push((&b, config));
    }
    for config in geometries(SimConfig::baseline()) {
        cases.push((&base, config));
        cases.push((&walk, config));
    }
    let want: Vec<_> = cases
        .iter()
        .map(|(cw, config)| {
            let mut sim = Simulator::new(cw.program(), *config).expect("builds");
            let res = sim.run(50_000_000).expect("halts");
            full_facts(&sim, res.stats, cw)
        })
        .collect();

    let mut arena = Simulator::new(base.program(), SimConfig::baseline()).expect("builds");
    for round in 0..2 {
        for (i, (cw, config)) in cases.iter().enumerate() {
            arena.rebuild(cw.program(), *config).expect("rebuilds");
            let res = arena.run(50_000_000).expect("halts");
            assert_eq!(full_facts(&arena, res.stats, cw), want[i], "round {round} case {i}");
        }
    }
}

#[test]
fn rebuild_keeps_the_decode_exactly_when_the_code_is_unchanged() {
    let a = compile(&modexp_prog(0b1011), Backend::Sempe).unwrap();
    let b = compile(&modexp_prog(0b0110), Backend::Sempe).unwrap();
    let decode = |sim: &mut Simulator| std::sync::Arc::clone(sim.checkpoint().unwrap().decoded());
    let mut sim = Simulator::new(a.program(), SimConfig::paper()).expect("builds");
    let first = decode(&mut sim);
    sim.rebuild(b.program(), SimConfig::paper().with_trace()).expect("rebuilds");
    assert!(std::sync::Arc::ptr_eq(&first, &decode(&mut sim)), "same code: decode kept");
    // The same bytes under the other front end decode differently.
    sim.rebuild(b.program(), SimConfig::baseline()).expect("rebuilds");
    let legacy = decode(&mut sim);
    assert!(!std::sync::Arc::ptr_eq(&first, &legacy), "decode mode changed: re-decoded");
    let other = compile(&modexp_prog(0b1011), Backend::Cte).unwrap();
    sim.rebuild(other.program(), SimConfig::baseline()).expect("rebuilds");
    assert!(!std::sync::Arc::ptr_eq(&legacy, &decode(&mut sim)), "code changed: re-decoded");
}
