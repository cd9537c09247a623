//! Pins `Program::digest()` of the benchmarked programs under every
//! backend: the code and data bytes codegen emits for them (and so the
//! `compile` response's `code_digest`) must not move when the way data
//! images are built changes.
//!
//! The programs are the `sim` workload's generator calls and the
//! `service-batch` calib and leak sources, at fixed parameters and seeds.

use sempe_compile::{compile, parse_wir, to_source, Backend, WirProgram};
use sempe_workloads::longrun::{
    longrun_djpeg_program, longrun_modexp_program, LongrunDjpegParams, LongrunModexpParams,
};
use sempe_workloads::membound::{pointer_chase_program, ChaseParams};
use sempe_workloads::micro::{fig7_program, MicroParams, WorkloadKind};
use sempe_workloads::rsa::{modexp_program, table_modexp_program, ModexpParams, TableModexpParams};

const BACKENDS: [Backend; 3] = [Backend::Baseline, Backend::Sempe, Backend::Cte];

/// `(program, [baseline, sempe, cte] digests)`, recorded before data
/// images moved from codegen to memory in bulk.
const PINNED: &[(&str, [u64; 3])] = &[
    ("fibonacci", [0xb568fb8043b744fd, 0x2d509bbcce711bef, 0xe4dbcf01896eaca5]),
    ("ones", [0xbe10ea30baf76ec5, 0x2346860cebd79cd8, 0x13e4bd6b64ea6807]),
    ("quicksort", [0xc1295b16e051a88c, 0x8f02e15226939e14, 0x80686d2b3be8fee5]),
    ("queens", [0x3f28d4499caf4335, 0x28f3f4a660352a9c, 0x87f537b0ab661da7]),
    ("rsa-modexp64", [0x551ce3725c2cebfc, 0x91665b528734d68c, 0x31a8b45b51d6ea59]),
    ("chase-1m", [0x27ad207e88ec25a3, 0x27ad207e88ec25a3, 0x27ad207e88ec25a3]),
    ("table-modexp-512k", [0x570b6cf0f6e4e638, 0x6d29f74c4a44aa5c, 0x3adfa531766557dd]),
    ("longrun-modexp", [0xf6da683645521eeb, 0x27791f3283759000, 0x09c6a4357d8691e0]),
    ("longrun-djpeg", [0x7a221e2a1b6f4409, 0x0c276038bc382568, 0x3a14fb73bbc611ec]),
    ("batch-calib", [0x523ddae8bbdbccde, 0xd42a05030feee066, 0xaeebe1bb6dd2b738]),
    ("batch-leak", [0xdbeba063c54bf294, 0x9518134b677e5e44, 0x561677c61e62f10d]),
];

fn programs() -> Vec<(&'static str, WirProgram)> {
    let mut out = Vec::new();
    for kind in WorkloadKind::ALL {
        let (w, iters, scale) = match kind {
            WorkloadKind::Queens => (1, 1, 4),
            WorkloadKind::Quicksort => (2, 1, 8),
            _ => (2, 4, 16),
        };
        out.push((kind.name(), fig7_program(&MicroParams { kind, w, iters, scale, secrets: 1 })));
    }
    let rsa = ModexpParams {
        base: 577,
        exponent: 0x8000_0000_DEAD_BEEF,
        bits: 64,
        ..ModexpParams::default()
    };
    out.push(("rsa-modexp64", modexp_program(&rsa)));
    out.push(("chase-1m", pointer_chase_program(&ChaseParams { words: 1 << 17, iters: 4096 })));
    let tmx = TableModexpParams { table_words: 1 << 16, bits: 256, key: 0x0123_4567_89AB_CDEF };
    out.push(("table-modexp-512k", table_modexp_program(&tmx).0));
    let lm = LongrunModexpParams { table_words: 1 << 12, bits: 8, key: 0xB6 };
    out.push(("longrun-modexp", longrun_modexp_program(&lm).0));
    let ld = LongrunDjpegParams {
        blocks: 16,
        public_iters: 3000,
        seed: 0xDEC0DE,
        ..LongrunDjpegParams::default()
    };
    out.push(("longrun-djpeg", longrun_djpeg_program(&ld)));
    // The `service-batch` programs travel as source: a 4096-word table
    // in a 65536-word array, and a 12-bit modexp.
    let calib = table_modexp_program(&TableModexpParams {
        table_words: 1 << 12,
        bits: 16,
        key: 0xFEED_F00D,
    })
    .0;
    let calib = to_source(&calib, &[]);
    assert!(calib.contains("array tab[4096]"), "calib source declares the table");
    let calib = calib.replacen("array tab[4096]", "array tab[65536]", 1);
    out.push(("batch-calib", parse_wir(&calib).expect("calib source parses").program));
    let leak = ModexpParams { base: 31_337, exponent: 0xABC, bits: 12, ..ModexpParams::default() };
    let leak = to_source(&modexp_program(&leak), &[]);
    out.push(("batch-leak", parse_wir(&leak).expect("leak source parses").program));
    out
}

#[test]
fn program_digests_are_pinned() {
    let got: Vec<(&str, [u64; 3])> = programs()
        .iter()
        .map(|(name, wir)| {
            let digests = BACKENDS.map(|b| {
                compile(wir, b).unwrap_or_else(|e| panic!("{name}/{b}: {e}")).program().digest()
            });
            (*name, digests)
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(name, [b, s, c])| format!("    (\"{name}\", [{b:#018x}, {s:#018x}, {c:#018x}]),\n"))
        .collect();
    assert_eq!(got, PINNED, "digests moved; measured:\n{table}");
}
