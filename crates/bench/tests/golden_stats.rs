//! Golden full-statistics regression tests.
//!
//! `golden_cycles.rs` pins only `cycles`; a host-speed change to the
//! pipeline's bookkeeping (load replay, completion queue, branch
//! checkpoints, fast-forward warmup) could still drift a counter such
//! as `load_replays` or `squashes` without moving a single cycle. This
//! table pins *every* [`SimStats`] field, in the order of [`FIELDS`],
//! for each (program × backend × stepping) cell below.
//!
//! To regenerate after an *intentional* timing-model change:
//!
//! ```text
//! SEMPE_PRINT_GOLDEN=1 cargo test -p sempe-bench --test golden_stats -- --nocapture
//! ```

use sempe_bench::BackendRun;
use sempe_compile::compile;
use sempe_compile::wir::WirProgram;
use sempe_sim::{SimStats, Simulator, Stepping};
use sempe_workloads::longrun::{
    longrun_djpeg_program, longrun_modexp_program, LongrunDjpegParams, LongrunModexpParams,
};
use sempe_workloads::membound::{pointer_chase_program, ChaseParams};
use sempe_workloads::micro::{fig7_program, MicroParams, WorkloadKind};
use sempe_workloads::rsa::{modexp_program, table_modexp_program, ModexpParams, TableModexpParams};

/// Field names, in the order [`fields`] flattens a [`SimStats`].
const FIELDS: [&str; 35] = [
    "cycles",
    "committed",
    "roi_cycles",
    "ff_committed",
    "secure_committed",
    "fetched",
    "renamed",
    "issued",
    "load_forwards",
    "load_replays",
    "squashes",
    "drain_stall_cycles",
    "il1.accesses",
    "il1.misses",
    "il1.prefetch_fills",
    "il1.writebacks",
    "dl1.accesses",
    "dl1.misses",
    "dl1.prefetch_fills",
    "dl1.writebacks",
    "l2.accesses",
    "l2.misses",
    "l2.prefetch_fills",
    "l2.writebacks",
    "bpred.cond_predictions",
    "bpred.cond_mispredicts",
    "bpred.indirect_predictions",
    "bpred.indirect_mispredicts",
    "sempe.sjmp_commits",
    "sempe.eosjmp_commits",
    "sempe.regions_completed",
    "sempe.spm_stall_cycles",
    "sempe.drains",
    "sempe.max_nesting",
    "sempe.squashed_sjmps",
];

/// Every statistics field as one flat row. The destructuring patterns
/// are exhaustive, so a new field fails to compile here until the table
/// pins it too.
fn fields(s: &SimStats) -> [u64; 35] {
    let SimStats {
        cycles,
        committed,
        roi_cycles,
        ff_committed,
        secure_committed,
        fetched,
        renamed,
        issued,
        load_forwards,
        load_replays,
        squashes,
        drain_stall_cycles,
        il1,
        dl1,
        l2,
        bpred,
        sempe,
    } = *s;
    let cache = |c: sempe_sim::cache::CacheStats| {
        let sempe_sim::cache::CacheStats { accesses, misses, prefetch_fills, writebacks } = c;
        [accesses, misses, prefetch_fills, writebacks]
    };
    let sempe_sim::bpred::BpredStats {
        cond_predictions,
        cond_mispredicts,
        indirect_predictions,
        indirect_mispredicts,
    } = bpred;
    let sempe_core::unit::SempeStats {
        sjmp_commits,
        eosjmp_commits,
        regions_completed,
        spm_stall_cycles,
        drains,
        max_nesting,
        squashed_sjmps,
    } = sempe;
    let [i0, i1, i2, i3] = cache(il1);
    let [d0, d1, d2, d3] = cache(dl1);
    let [l0, l1, l2, l3] = cache(l2);
    [
        cycles,
        committed,
        roi_cycles,
        ff_committed,
        secure_committed,
        fetched,
        renamed,
        issued,
        load_forwards,
        load_replays,
        squashes,
        drain_stall_cycles,
        i0,
        i1,
        i2,
        i3,
        d0,
        d1,
        d2,
        d3,
        l0,
        l1,
        l2,
        l3,
        cond_predictions,
        cond_mispredicts,
        indirect_predictions,
        indirect_mispredicts,
        sjmp_commits,
        eosjmp_commits,
        regions_completed,
        spm_stall_cycles,
        drains,
        max_nesting as u64,
        squashed_sjmps,
    ]
}

/// The pinned programs and the stepping each runs under: the
/// `golden_cycles.rs` table, the two memory-bound kernels, and both
/// long-running programs (detailed and tiered).
fn programs() -> Vec<(&'static str, WirProgram, Stepping)> {
    let micro = |kind: WorkloadKind, scale: u32| {
        fig7_program(&MicroParams { scale, secrets: 0b01, ..MicroParams::new(kind, 2, 2) })
    };
    let chase = ChaseParams { words: 1 << 13, iters: 512 };
    let tmx = TableModexpParams { table_words: 1 << 12, bits: 64, key: 0x9E37_79B9_7F4A_7C15 };
    let lm = LongrunModexpParams { table_words: 1 << 10, ..LongrunModexpParams::default() };
    let ld = LongrunDjpegParams { blocks: 4, public_iters: 300, ..LongrunDjpegParams::default() };
    vec![
        ("micro/fibonacci", micro(WorkloadKind::Fibonacci, 8), Stepping::Skip),
        ("micro/ones", micro(WorkloadKind::Ones, 8), Stepping::Skip),
        ("micro/quicksort", micro(WorkloadKind::Quicksort, 8), Stepping::Skip),
        ("micro/queens", micro(WorkloadKind::Queens, 4), Stepping::Skip),
        ("rsa/modexp8", modexp_program(&ModexpParams::default()), Stepping::Skip),
        ("membound/chase", pointer_chase_program(&chase), Stepping::Skip),
        ("membound/table-modexp", table_modexp_program(&tmx).0, Stepping::Skip),
        ("longrun/modexp", longrun_modexp_program(&lm).0, Stepping::Skip),
        ("longrun/modexp", longrun_modexp_program(&lm).0, Stepping::Tiered),
        ("longrun/djpeg", longrun_djpeg_program(&ld), Stepping::Skip),
        ("longrun/djpeg", longrun_djpeg_program(&ld), Stepping::Tiered),
    ]
}

/// `(program, stepping, backend)` → every [`SimStats`] field.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, &str, [u64; 35])] = &[
    ("micro/fibonacci", "Skip", "Baseline", [819, 332, 0, 0, 0, 789, 693, 649, 122, 5250, 3, 0, 140, 2, 9, 0, 156, 2, 0, 0, 4, 4, 9, 0, 53, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("micro/fibonacci", "Skip", "Sempe", [2406, 1316, 1775, 0, 1076, 1883, 1723, 1514, 68, 14517, 6, 656, 312, 3, 29, 0, 792, 8, 0, 0, 11, 7, 35, 0, 85, 6, 0, 0, 4, 8, 4, 306, 12, 2, 1]),
    ("micro/fibonacci", "Skip", "Cte", [3804, 5082, 0, 0, 0, 6378, 6058, 5457, 140, 25727, 10, 0, 689, 1, 45, 0, 1630, 3, 0, 0, 4, 4, 45, 0, 75, 10, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("micro/ones", "Skip", "Baseline", [1139, 776, 0, 0, 0, 1461, 1333, 1152, 115, 6606, 4, 0, 241, 2, 13, 0, 201, 4, 1, 0, 6, 6, 14, 0, 72, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("micro/ones", "Skip", "Sempe", [3258, 2568, 2679, 0, 2376, 4025, 3705, 3134, 227, 17044, 10, 643, 589, 3, 34, 0, 829, 10, 0, 0, 13, 10, 39, 0, 172, 10, 0, 0, 4, 8, 4, 324, 12, 2, 1]),
    ("micro/ones", "Skip", "Cte", [5663, 7962, 0, 0, 0, 10468, 9860, 8719, 328, 34014, 19, 0, 1155, 1, 65, 0, 2252, 6, 1, 0, 7, 7, 68, 0, 156, 19, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("micro/quicksort", "Skip", "Baseline", [3443, 3188, 0, 0, 0, 9114, 7969, 5713, 323, 20656, 48, 0, 1373, 5, 33, 0, 1046, 6, 0, 0, 11, 11, 35, 0, 455, 48, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("micro/quicksort", "Skip", "Sempe", [11004, 10284, 9777, 0, 9804, 27365, 24031, 17262, 855, 67376, 141, 670, 4028, 12, 118, 0, 3788, 25, 0, 0, 37, 26, 137, 0, 1316, 141, 0, 0, 4, 8, 4, 324, 12, 2, 0]),
    ("micro/quicksort", "Skip", "Cte", [102721, 188052, 0, 0, 0, 192726, 191494, 189369, 2842, 497087, 40, 0, 18748, 1, 252, 0, 56573, 18, 0, 0, 19, 16, 262, 0, 1123, 40, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("micro/queens", "Skip", "Baseline", [5528, 7904, 0, 0, 0, 24203, 21486, 15446, 1180, 24748, 197, 0, 3994, 4, 39, 0, 2676, 4, 0, 0, 8, 8, 39, 0, 1859, 197, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("micro/queens", "Skip", "Sempe", [17240, 24272, 16121, 0, 23888, 71692, 63885, 46092, 3312, 81755, 546, 826, 11108, 6, 90, 0, 8652, 16, 0, 0, 22, 14, 100, 0, 5501, 546, 0, 0, 4, 8, 4, 324, 12, 2, 0]),
    ("micro/queens", "Skip", "Cte", [483309, 740172, 0, 0, 0, 743802, 742881, 741231, 22002, 2562726, 31, 0, 72218, 1, 187, 0, 221664, 11, 0, 0, 12, 10, 192, 0, 4300, 31, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("rsa/modexp8", "Skip", "Baseline", [693, 262, 0, 0, 0, 1114, 949, 623, 35, 2822, 7, 0, 152, 1, 4, 0, 73, 1, 0, 0, 2, 2, 4, 0, 69, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("rsa/modexp8", "Skip", "Sempe", [1675, 390, 792, 0, 96, 405, 403, 379, 25, 425, 1, 1051, 60, 1, 5, 0, 154, 1, 0, 0, 2, 2, 5, 0, 9, 1, 0, 0, 8, 16, 8, 528, 24, 1, 1]),
    ("rsa/modexp8", "Skip", "Cte", [748, 366, 0, 0, 0, 514, 482, 421, 41, 2804, 1, 0, 58, 1, 5, 0, 90, 1, 0, 0, 2, 2, 5, 0, 12, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("membound/chase", "Skip", "Baseline", [90035, 5958, 0, 0, 0, 6093, 6061, 6000, 576, 19313, 1, 0, 722, 1, 11, 0, 1346, 513, 0, 0, 514, 514, 11, 0, 66, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("membound/chase", "Skip", "Sempe", [90035, 5958, 0, 0, 0, 6093, 6061, 6000, 576, 19313, 1, 0, 722, 1, 11, 0, 1346, 513, 0, 0, 514, 514, 11, 0, 66, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("membound/chase", "Skip", "Cte", [90035, 5958, 0, 0, 0, 6093, 6061, 6000, 576, 19313, 1, 0, 722, 1, 11, 0, 1346, 513, 0, 0, 514, 514, 11, 0, 66, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("membound/table-modexp", "Skip", "Baseline", [8650, 1766, 0, 0, 0, 6347, 5437, 3598, 197, 14510, 35, 0, 866, 2, 3, 0, 509, 38, 0, 0, 40, 40, 3, 0, 447, 35, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("membound/table-modexp", "Skip", "Sempe", [16411, 3014, 13392, 0, 1280, 3029, 3027, 2891, 193, 2241, 1, 5595, 452, 2, 4, 0, 1154, 42, 2, 0, 44, 44, 8, 0, 65, 1, 0, 0, 64, 128, 64, 4288, 192, 1, 1]),
    ("membound/table-modexp", "Skip", "Cte", [9986, 2822, 0, 0, 0, 2963, 2931, 2870, 260, 18513, 1, 0, 338, 1, 5, 0, 703, 42, 2, 0, 43, 43, 9, 0, 68, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("longrun/modexp", "Skip", "Baseline", [47645, 44274, 0, 0, 0, 45308, 45118, 44705, 5152, 224724, 9, 0, 6385, 1, 9, 0, 8262, 2, 127, 0, 3, 3, 136, 0, 2135, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("longrun/modexp", "Skip", "Sempe", [48587, 44426, 948, 0, 160, 44752, 44689, 44545, 5152, 223443, 3, 683, 6266, 2, 9, 0, 8339, 2, 127, 0, 4, 4, 136, 0, 2072, 3, 0, 0, 8, 16, 8, 536, 24, 1, 1]),
    ("longrun/modexp", "Skip", "Cte", [47719, 44402, 0, 0, 0, 44854, 44761, 44580, 5160, 225494, 3, 0, 6259, 1, 10, 0, 8283, 2, 127, 0, 3, 3, 137, 0, 2075, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("longrun/modexp", "Tiered", "Baseline", [3, 44274, 0, 44273, 0, 1, 1, 0, 0, 0, 0, 0, 6190, 1, 9, 0, 5163, 2, 127, 0, 3, 3, 136, 0, 2067, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("longrun/modexp", "Tiered", "Sempe", [1014, 44426, 963, 44257, 160, 169, 169, 152, 0, 0, 0, 496, 6222, 2, 9, 0, 5256, 2, 127, 0, 4, 4, 136, 0, 2059, 3, 0, 0, 8, 16, 8, 536, 24, 1, 0]),
    ("longrun/modexp", "Tiered", "Cte", [3, 44402, 0, 44401, 0, 1, 1, 0, 0, 0, 0, 0, 6197, 1, 10, 0, 5178, 2, 127, 0, 3, 3, 137, 0, 2059, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("longrun/djpeg", "Skip", "Baseline", [11561, 13323, 0, 0, 0, 14927, 14614, 13971, 1616, 121821, 12, 0, 2122, 1, 14, 0, 3792, 2, 31, 0, 3, 3, 45, 0, 715, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("longrun/djpeg", "Skip", "Sempe", [14308, 15230, 3871, 0, 3320, 16000, 15810, 15495, 1798, 128810, 7, 866, 2318, 2, 16, 0, 4430, 3, 31, 0, 5, 5, 47, 0, 743, 7, 0, 0, 8, 16, 8, 632, 24, 1, 1]),
    ("longrun/djpeg", "Skip", "Cte", [17019, 22302, 0, 0, 0, 23528, 23242, 22709, 1889, 157948, 10, 0, 2961, 1, 25, 0, 6414, 3, 31, 0, 4, 4, 56, 0, 751, 10, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("longrun/djpeg", "Tiered", "Baseline", [3, 13323, 0, 13322, 0, 1, 1, 0, 0, 0, 0, 0, 1914, 2, 13, 0, 2206, 2, 31, 0, 4, 4, 44, 0, 647, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("longrun/djpeg", "Tiered", "Sempe", [3922, 15230, 3871, 11901, 3320, 3754, 3658, 3468, 402, 20039, 4, 496, 2269, 2, 16, 0, 3019, 3, 31, 0, 5, 5, 47, 0, 728, 7, 0, 0, 8, 16, 8, 632, 24, 1, 0]),
    ("longrun/djpeg", "Tiered", "Cte", [3, 22302, 0, 22301, 0, 1, 1, 0, 0, 0, 0, 0, 2818, 1, 25, 0, 3265, 3, 31, 0, 4, 4, 56, 0, 727, 10, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
];

#[test]
fn every_stat_is_bit_identical_to_golden() {
    let print = std::env::var("SEMPE_PRINT_GOLDEN").is_ok();
    let mut failures = Vec::new();
    let mut cells = 0;
    for (name, prog, stepping) in programs() {
        for which in BackendRun::ALL {
            let (backend, config) = which.pair();
            let cw = compile(&prog, backend).expect("compiles");
            let mut sim =
                Simulator::new(cw.program(), config.with_stepping(stepping)).expect("builds");
            let got = fields(&sim.run(200_000_000).expect("halts").stats);
            let (step, back) = (format!("{stepping:?}"), format!("{which:?}"));
            if print {
                println!("    (\"{name}\", \"{step}\", \"{back}\", {got:?}),");
                continue;
            }
            cells += 1;
            let Some((.., want)) =
                GOLDEN.iter().find(|(n, s, b, _)| *n == name && *s == step && *b == back)
            else {
                failures.push(format!("{name}/{step}/{back}: no golden row"));
                continue;
            };
            for (i, field) in FIELDS.iter().enumerate() {
                if got[i] != want[i] {
                    failures.push(format!(
                        "{name}/{step}/{back}: {field} golden {} != measured {}",
                        want[i], got[i]
                    ));
                }
            }
        }
    }
    if !print {
        assert_eq!(cells, GOLDEN.len(), "every golden row is checked");
        assert!(failures.is_empty(), "statistics drift:\n{}", failures.join("\n"));
    }
}
