//! Checkpoint/fork golden tests: a run restored from a checkpoint must
//! be **bit-for-bit identical** — cycles, committed count, full
//! statistics, outputs, and the `Strictness::Full` observation trace —
//! to a cold run of a freshly built simulator, on all three backends.
//!
//! This is the invariant the service's fork server (attack calibration,
//! sweeps, the `batch` op) and the `batch_throughput` bench rest on.

use sempe_compile::{compile, parse_wir, Backend, CompiledWorkload};
use sempe_core::{first_divergence, Strictness};
use sempe_sim::{SimConfig, Simulator};

const FUEL: u64 = 50_000_000;

/// A workload with secret-dependent control flow, arrays, and a loop —
/// enough to exercise caches, the predictor, and (under SeMPE) secure
/// regions.
const MODEXP: &str = r"
    secret key = 0b1011;
    var r = 1;
    var base = 7;
    var i = 0;
    var bit = 0;
    array tab[4] = {3, 5, 7, 11};
    while (i < 4) bound 5 {
        bit = (key >> i) & 1;
        if secret (bit) { r = (r * base) % 1000003; }
        base = (base * tab[i]) % 1000003;
        i = i + 1;
    }
    output r;
";

fn backends() -> [(Backend, SimConfig); 3] {
    [
        (Backend::Baseline, SimConfig::baseline().with_trace()),
        (Backend::Sempe, SimConfig::paper().with_trace()),
        (Backend::Cte, SimConfig::baseline().with_trace()),
    ]
}

fn compile_modexp(backend: Backend) -> CompiledWorkload {
    let parsed = parse_wir(MODEXP).expect("parses");
    compile(&parsed.program, backend).expect("compiles")
}

struct Facts {
    cycles: u64,
    committed: u64,
    squashes: u64,
    drain_stalls: u64,
    forwards: u64,
    outputs: Vec<u64>,
}

fn facts(sim: &mut Simulator, cw: &CompiledWorkload) -> Facts {
    let res = sim.run(FUEL).expect("halts");
    let s = res.stats;
    Facts {
        cycles: s.cycles,
        committed: s.committed,
        squashes: s.squashes,
        drain_stalls: s.drain_stall_cycles,
        forwards: s.load_forwards,
        outputs: cw.read_outputs(sim.mem()),
    }
}

fn assert_identical(cold: &Facts, forked: &Facts, what: &str) {
    assert_eq!(cold.cycles, forked.cycles, "{what}: cycle drift");
    assert_eq!(cold.committed, forked.committed, "{what}: committed drift");
    assert_eq!(cold.squashes, forked.squashes, "{what}: squash drift");
    assert_eq!(cold.drain_stalls, forked.drain_stalls, "{what}: drain drift");
    assert_eq!(cold.forwards, forked.forwards, "{what}: forwarding drift");
    assert_eq!(cold.outputs, forked.outputs, "{what}: output drift");
}

#[test]
fn restored_run_is_bit_identical_to_cold_run_on_all_backends() {
    for (backend, config) in backends() {
        let cw = compile_modexp(backend);
        // Cold reference.
        let mut cold_sim = Simulator::new(cw.program(), config).expect("builds");
        let cold = facts(&mut cold_sim, &cw);
        let cold_trace = cold_sim.trace().clone();

        // Fork server: checkpoint at the quiesced post-load point, then
        // run / restore / run again — both forked runs must match cold.
        let mut sim = Simulator::new(cw.program(), config).expect("builds");
        let cp = sim.checkpoint().expect("quiesced right after construction");
        for round in 0..3 {
            let what = format!("{backend:?} round {round}");
            let forked = facts(&mut sim, &cw);
            assert_identical(&cold, &forked, &what);
            assert_eq!(
                first_divergence(&cold_trace, sim.trace(), Strictness::Full),
                None,
                "{what}: observation traces must be Full-identical"
            );
            sim.restore_from(&cp);
        }

        // And a simulator hydrated on a different "worker" from the same
        // checkpoint behaves identically too.
        let mut other = Simulator::from_checkpoint(&cp);
        let forked = facts(&mut other, &cw);
        assert_identical(&cold, &forked, &format!("{backend:?} from_checkpoint"));
        assert_eq!(first_divergence(&cold_trace, other.trace(), Strictness::Full), None);
    }
}

#[test]
fn forked_trial_with_patched_secret_matches_cold_build_of_that_secret() {
    // The attack-calibration pattern: one compile + one checkpoint, then
    // per candidate restore + poke the secret's data slot. Must equal a
    // cold compile-with-that-initializer run bit for bit (possible at
    // all because scalar initializers live in the data image, not in an
    // instruction prologue).
    for (backend, config) in backends() {
        let parsed = parse_wir(MODEXP).expect("parses");
        let vid = parsed.secrets[0];
        let cw = compile(&parsed.program, backend).expect("compiles");
        let mut sim = Simulator::new(cw.program(), config).expect("builds");
        let cp = sim.checkpoint().expect("quiesced");
        for candidate in [0u64, 1, 2, 0b1011, 0b1111] {
            sim.restore_from(&cp);
            sim.mem_mut().write_u64(cw.var_addr(vid), candidate);
            let forked = facts(&mut sim, &cw);
            let forked_trace = sim.trace().clone();

            let mut patched = parsed.program.clone();
            patched.set_var_init(vid, candidate);
            let cw2 = compile(&patched, backend).expect("compiles");
            assert_eq!(
                cw.program().code(),
                cw2.program().code(),
                "{backend:?}: code bytes must not depend on initializers"
            );
            let mut cold_sim = Simulator::new(cw2.program(), config).expect("builds");
            let cold = facts(&mut cold_sim, &cw2);
            assert_identical(&cold, &forked, &format!("{backend:?} candidate {candidate}"));
            assert_eq!(
                first_divergence(cold_sim.trace(), &forked_trace, Strictness::Full),
                None,
                "{backend:?} candidate {candidate}: trace drift"
            );
        }
    }
}

#[test]
fn checkpoint_restore_is_o_dirty_pages() {
    let cw = compile_modexp(Backend::Sempe);
    let mut sim = Simulator::new(cw.program(), SimConfig::paper()).expect("builds");
    let cp = sim.checkpoint().expect("quiesced");
    let baseline_pages = cp.mem_pages();
    assert!(baseline_pages > 0);
    sim.run(FUEL).expect("halts");
    let dirtied = sim.mem().dirty_page_count();
    assert!(dirtied > 0, "a run must dirty pages");
    assert!(
        dirtied <= baseline_pages + 4,
        "modexp touches a handful of pages, not the whole image ({dirtied} vs {baseline_pages})"
    );
    sim.restore_from(&cp);
    assert_eq!(sim.mem().dirty_page_count(), 0, "restore resynchronizes");
}

#[test]
fn checkpoint_mid_flight_is_rejected() {
    // Not every mid-run cycle has µops in flight (the front end can be
    // parked on a cold I-cache fill with an empty window — a checkpoint
    // there is legitimately valid), so scan the run and require that the
    // quiesce gate fires somewhere before HALT.
    let cw = compile_modexp(Backend::Baseline);
    let mut sim = Simulator::new(cw.program(), SimConfig::baseline()).expect("builds");
    let mut rejected = 0u32;
    for budget in (25..=5_000).step_by(25) {
        let done = sim.run(budget).is_ok();
        if let Err(err) = sim.checkpoint() {
            assert!(matches!(err, sempe_sim::SimError::NotQuiesced { .. }), "got {err:?}");
            rejected += 1;
        }
        if done {
            break;
        }
    }
    assert!(rejected > 0, "some mid-run point must have µops in flight");
    // After HALT the machine is quiesced again.
    assert!(sim.checkpoint().is_ok(), "halted machine must checkpoint");
}

#[test]
fn checkpoint_after_halt_resumes_nothing_but_restores_exactly() {
    // A post-run checkpoint captures a halted machine; restoring it
    // reproduces the halted state (stats included) — the general
    // contract, even though the fork server checkpoints pre-run.
    let cw = compile_modexp(Backend::Sempe);
    let mut sim = Simulator::new(cw.program(), SimConfig::paper()).expect("builds");
    let res = sim.run(FUEL).expect("halts");
    let cp = sim.checkpoint().expect("halted machine is quiesced");
    let restored = Simulator::from_checkpoint(&cp);
    assert_eq!(restored.stats().cycles, res.stats.cycles);
    assert_eq!(restored.stats().committed, res.stats.committed);
    assert_eq!(cw.read_outputs(restored.mem()), cw.read_outputs(sim.mem()));
}

/// A second program for the arena test below: different code, data and
/// secure regions from [`MODEXP`].
const PREFIX_SUMS: &str = r"
    secret s = 5;
    var acc = 0;
    var i = 0;
    array buf[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    while (i < 8) bound 9 {
        if secret ((s >> i) & 1) { acc = acc + buf[i]; } else { acc = acc - 1; }
        buf[i] = acc;
        i = i + 1;
    }
    output acc;
";

#[test]
fn restore_leaves_nothing_of_the_previous_program_and_stepping_mode() {
    // A fork-server worker restores into whatever simulator its last job
    // left behind. Run a different program under tiered stepping first;
    // the restored run must still match a cold run in every statistic,
    // ROI span, architectural register, output and trace event.
    let parsed = parse_wir(PREFIX_SUMS).expect("parses");
    let other = compile(&parsed.program, Backend::Sempe).expect("compiles");
    for (backend, config) in backends() {
        let cw = compile_modexp(backend);
        let mut cold = Simulator::new(cw.program(), config).expect("builds");
        let cold_stats = cold.run(FUEL).expect("halts").stats;
        let cp = Simulator::new(cw.program(), config)
            .expect("builds")
            .checkpoint()
            .expect("quiesced right after construction");

        let mut sim =
            Simulator::new(other.program(), SimConfig::paper().with_tiered().with_trace())
                .expect("builds");
        let previous = sim.run(FUEL).expect("halts").stats;
        assert!(previous.ff_committed > 0, "the previous job fast-forwarded");
        sim.restore_from(&cp);
        let stats = sim.run(FUEL).expect("halts").stats;

        let what = format!("{backend:?}");
        assert_eq!(stats, cold_stats, "{what}: statistics drift");
        assert_eq!(sim.roi_spans(), cold.roi_spans(), "{what}: ROI span drift");
        for r in sempe_isa::reg::Reg::all() {
            assert_eq!(sim.arch_reg(r), cold.arch_reg(r), "{what}: {r:?} drift");
        }
        assert_eq!(cw.read_outputs(sim.mem()), cw.read_outputs(cold.mem()), "{what}: outputs");
        assert_eq!(first_divergence(cold.trace(), sim.trace(), Strictness::Full), None, "{what}");

        // The same after a job cut off with µops in flight.
        sim.rebuild(other.program(), SimConfig::paper().with_tiered()).expect("builds");
        assert!(sim.run(300).is_err(), "300 cycles end before HALT");
        assert!(sim.checkpoint().is_err(), "{what}: the cut leaves µops in flight");
        sim.restore_from(&cp);
        let stats = sim.run(FUEL).expect("halts").stats;
        assert_eq!(stats, cold_stats, "{what}: statistics drift after a cut-off job");
        assert_eq!(first_divergence(cold.trace(), sim.trace(), Strictness::Full), None, "{what}");
    }
}

/// Everything a finished run leaves readable: the whole statistics
/// block, ROI spans, architectural registers, outputs and the trace.
#[derive(Debug, PartialEq)]
struct FullFacts {
    stats: sempe_sim::SimStats,
    roi_spans: Vec<(u64, u64)>,
    regs: Vec<u64>,
    outputs: Vec<u64>,
    trace: sempe_core::trace::ObservationTrace,
}

fn run_full(sim: &mut Simulator, cw: &CompiledWorkload) -> FullFacts {
    let stats = sim.run(FUEL).expect("halts").stats;
    FullFacts {
        stats,
        roi_spans: sim.roi_spans().to_vec(),
        regs: sempe_isa::reg::Reg::all().map(|r| sim.arch_reg(r)).collect(),
        outputs: cw.read_outputs(sim.mem()),
        trace: sim.trace().clone(),
    }
}

#[test]
fn restore_in_place_across_geometries_and_data_images_matches_fresh_machines() {
    // One worker simulator restores checkpoints whose machines differ in
    // cache sizes, TAGE table sizes and ROB size, and whose programs
    // share their code but not their data images. Each restored run must
    // equal both a machine built from the checkpoint and a cold build.
    let parsed = parse_wir(MODEXP).expect("parses");
    let vid = parsed.secrets[0];
    let mut other = parsed.program.clone();
    other.set_var_init(vid, 0b0110);
    let a = compile(&parsed.program, Backend::Sempe).expect("compiles");
    let b = compile(&other, Backend::Sempe).expect("compiles");
    assert_eq!(a.program().code(), b.program().code(), "same code");
    assert_ne!(a.program().data(), b.program().data(), "different data images");

    let base = SimConfig::paper().with_trace();
    let mut small_caches = base;
    small_caches.mem.l2.size_bytes /= 4;
    small_caches.mem.dl1.size_bytes /= 2;
    let mut big_caches = base;
    big_caches.mem.l2.size_bytes *= 2;
    big_caches.mem.il1.ways *= 2;
    let mut small_tage = base;
    small_tage.bpred.tage_table_bits -= 2;
    small_tage.bpred.bimodal_bits -= 3;
    let mut small_rob = base;
    small_rob.core.rob_entries = 64;

    let mut trials = Vec::new();
    for config in [base, small_caches, big_caches, small_tage, small_rob, base] {
        for cw in [&a, &b] {
            let cold = run_full(&mut Simulator::new(cw.program(), config).expect("builds"), cw);
            let cp = Simulator::new(cw.program(), config).expect("builds").checkpoint().unwrap();
            trials.push((cw, cp, cold));
        }
    }
    let mut worker = Simulator::new(a.program(), base).expect("builds");
    for round in 0..2 {
        for (i, (cw, cp, cold)) in trials.iter().enumerate() {
            worker.restore_from(cp);
            assert_eq!(&run_full(&mut worker, cw), cold, "round {round} trial {i}: restore");
            let built = run_full(&mut Simulator::from_checkpoint(cp), cw);
            assert_eq!(&built, cold, "round {round} trial {i}: from_checkpoint");
        }
    }
}
