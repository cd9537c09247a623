//! Golden response digests: `fnv1a` of every full response line that
//! [`execute`] returns for a fixed set of requests.
//!
//! The result cache promises that a hit is byte-identical to a cold run,
//! so any change to how requests are executed (how simulators are rebuilt
//! or restored, how trials are scheduled, how frames and spans are
//! produced) must leave every response line exactly as it was. These
//! digests pin the lines of each compute op, success and error bodies
//! alike.
//!
//! To regenerate after an *intentional* change to a response:
//!
//! ```text
//! SEMPE_PRINT_GOLDEN=1 cargo test -p sempe-service --test golden_responses -- --nocapture
//! ```

use sempe_core::hash::fnv1a;
use sempe_core::json::escape;
use sempe_service::{execute, Arena, ForkCache, Request};

/// Square-and-multiply over a 4-bit secret key, with a public loop
/// around it so tiered runs have something to fast-forward.
const MODEXP: &str = r"
    secret key = 0b1011;
    var r = 1;
    var base = 7;
    var i = 0;
    var bit = 0;
    var pad = 0;
    while (pad < 40) bound 41 { pad = pad + 1; }
    while (i < 4) bound 5 {
        bit = (key >> i) & 1;
        if secret (bit) { r = (r * base) % 1000003; }
        base = (base * base) % 1000003;
        i = i + 1;
    }
    output r;
    output pad;
";

/// `(name, request JSON)`; every request runs on one arena and one fork
/// cache, in order, as one worker would serve them.
fn requests() -> Vec<(String, String)> {
    let src = escape(MODEXP);
    let mut out = Vec::new();
    for backend in ["baseline", "sempe", "cte"] {
        for mode in ["detailed", "tiered"] {
            out.push((
                format!("run/{backend}/{mode}"),
                format!(
                    r#"{{"type":"run","source":{src},"backend":"{backend}","mode":"{mode}","max_cycles":5000000}}"#
                ),
            ));
        }
    }
    out.push((
        "sweep".into(),
        format!(r#"{{"type":"sweep","source":{src},"max_cycles":5000000}}"#),
    ));
    for (name, mode, candidates) in [
        ("attack/baseline/victim-in", "baseline", "[11,2]"),
        ("attack/sempe/victim-in", "sempe", "[11,2]"),
        ("attack/baseline/victim-out", "baseline", "[3,5]"),
        ("attack/sempe/victim-out", "sempe", "[3,5]"),
    ] {
        out.push((
            name.into(),
            format!(
                r#"{{"type":"attack","source":{src},"mode":"{mode}","candidates":{candidates},"max_cycles":5000000}}"#
            ),
        ));
    }
    let inputs = r#"[{"key":0},{"key":15},{"key":3},{"key":3}]"#;
    for (name, extra) in [
        ("batch/plain", r#""backend":"baseline""#),
        ("batch/leak_check", r#""backend":"sempe","leak_check":true"#),
        ("batch/tiered", r#""backend":"sempe","mode":"tiered""#),
    ] {
        out.push((
            name.into(),
            format!(
                r#"{{"type":"batch","source":{src},{extra},"inputs":{inputs},"max_cycles":5000000}}"#
            ),
        ));
    }
    out.push((
        "error/bad_request".into(),
        format!(
            r#"{{"type":"batch","source":{src},"backend":"baseline","inputs":[{{"nope":1}}],"max_cycles":5000000}}"#
        ),
    ));
    out.push((
        "error/wir".into(),
        format!(r#"{{"type":"run","source":{},"backend":"sempe"}}"#, escape("var x = @;")),
    ));
    out
}

/// `(name, fnv1a of the response line)`, in [`requests`] order.
const GOLDEN: &[(&str, u64)] = &[
    ("run/baseline/detailed", 0x2d8dd02c12b63334),
    ("run/baseline/tiered", 0xf0e1d64645b3d572),
    ("run/sempe/detailed", 0x2e786f1edcf1e619),
    ("run/sempe/tiered", 0x53437745590b6996),
    ("run/cte/detailed", 0x84ba65aafa07a84b),
    ("run/cte/tiered", 0xf3a61bf43ff5e19c),
    ("sweep", 0x23dd8525600a6ab1),
    ("attack/baseline/victim-in", 0xcc2ec6253ef74017),
    ("attack/sempe/victim-in", 0x1c1c41ff68ba21a4),
    ("attack/baseline/victim-out", 0x8645a55d021ef523),
    ("attack/sempe/victim-out", 0x35183b49b86be488),
    ("batch/plain", 0xc0b5dda5c608f8a8),
    ("batch/leak_check", 0xa57c78189f13909f),
    ("batch/tiered", 0x20909c76d350ef49),
    ("error/bad_request", 0x8f2afa4db3584f6a),
    ("error/wir", 0x18899228b235aed1),
];

#[test]
fn response_lines_are_byte_identical_to_golden() {
    let print = std::env::var("SEMPE_PRINT_GOLDEN").is_ok();
    let mut arena = Arena::new();
    let forks = ForkCache::new(8);
    let mut measured = Vec::new();
    for (name, line) in requests() {
        let req = Request::parse(&line).unwrap_or_else(|e| panic!("{name}: {e}"));
        let response = match execute(&req, &mut arena, &forks) {
            Ok(body) => body,
            Err(e) => e.to_json(),
        };
        if print {
            println!("    (\"{name}\", {:#018x}),", fnv1a(response.as_bytes()));
        }
        measured.push((name, fnv1a(response.as_bytes())));
    }
    if print {
        return;
    }
    let failures: Vec<String> = GOLDEN
        .iter()
        .zip(&measured)
        .filter(|(want, got)| want.0 != got.0 || want.1 != got.1)
        .map(|(want, got)| {
            format!("{}: golden {:#018x} != measured {:#018x}", want.0, want.1, got.1)
        })
        .collect();
    assert_eq!(GOLDEN.len(), measured.len(), "one golden digest per request");
    assert!(failures.is_empty(), "response drift:\n{}", failures.join("\n"));
}
