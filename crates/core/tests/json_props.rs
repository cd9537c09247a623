//! Property tests for the JSON layer: `parse ∘ encode` must be the
//! identity on every value the encoder can produce — including 64-bit
//! integers beyond f64 precision, negative numbers, exponent-notation
//! floats, and strings full of escapes, controls, and astral-plane
//! characters. The service's content-addressed cache keys responses by
//! encoded bytes, so any drift here is silent cache corruption.
//!
//! The borrowed reader `object` must accept exactly the object lines
//! `parse` accepts, and its raw member spans must agree with the tree:
//! the router forwards what `object` accepts, and a shard answers what
//! `parse` accepts.

use proptest::prelude::*;
use sempe_core::json::{object, parse, Json};

fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u32>(), 0..12).prop_map(|cs| {
        cs.into_iter()
            .map(|c| match c % 8 {
                // Control characters (escaped as \u00XX or \n, \t, …).
                0 => char::from_u32(c % 0x20).unwrap_or('\u{1}'),
                1 => '"',
                2 => '\\',
                // Astral plane: surrogate-pair handling in \u escapes.
                3 => char::from_u32(0x1F600 + (c % 0x50)).unwrap_or('\u{1F600}'),
                // Printable ASCII.
                _ => char::from_u32(0x20 + (c % 0x5E)).unwrap_or('x'),
            })
            .collect()
    })
}

fn arb_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| {
        let v = f64::from_bits(bits);
        if v.is_finite() {
            v
        } else {
            // Non-finite values deliberately encode as null; substitute
            // a finite value with a long decimal expansion instead.
            f64::from_bits(bits & !(0x7FFu64 << 52)) // clear the exponent -> subnormal
        }
    })
}

fn arb_json() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        any::<u64>().prop_map(Json::U64),
        // Strictly negative: the parser (and From<i64>) normalize
        // non-negative integers to U64.
        any::<u64>().prop_map(|v| Json::I64(-((v >> 1) as i64) - 1)),
        arb_f64().prop_map(Json::F64),
        arb_string().prop_map(Json::Str),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(Json::Arr),
            prop::collection::vec((arb_string(), inner), 0..5)
                .prop_map(|members| { Json::Obj(members.into_iter().collect()) }),
        ]
    })
}

/// An encoded object whose keys include `id` and `type` often enough
/// for duplicates, next to arbitrary keys full of escapes.
fn arb_object_line() -> impl Strategy<Value = String> {
    let key = prop_oneof![Just("id".to_string()), Just("type".to_string()), arb_string()];
    prop::collection::vec((key, arb_json()), 0..6).prop_map(|members| Json::Obj(members).encode())
}

/// Byte edits: drop, duplicate, swap, or insert a space.
fn arb_edits() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..3)
}

fn mutate(line: &str, edits: &[(u8, u64, u64)]) -> String {
    let mut bytes = line.as_bytes().to_vec();
    for &(kind, i, j) in edits {
        if bytes.is_empty() {
            break;
        }
        let i = (i % bytes.len() as u64) as usize;
        let j = (j % bytes.len() as u64) as usize;
        match kind % 4 {
            0 => {
                bytes.remove(i);
            }
            1 => bytes.insert(i, bytes[i]),
            2 => bytes.swap(i, j),
            _ => bytes.insert(i, b' '),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `object` agrees with `parse` on `line`: same verdict, and for every
/// first member of each key, its raw span, string text, array length
/// and excision match the tree.
fn check_object_reader(line: &str) {
    let tree = parse(line);
    let read = object(line);
    assert_eq!(read.is_ok(), matches!(tree, Ok(Json::Obj(_))), "verdicts differ on {line}");
    let (Ok(read), Ok(Json::Obj(members))) = (read, tree) else { return };
    for (i, (key, value)) in members.iter().enumerate() {
        if members[..i].iter().any(|(k, _)| k == key) {
            continue; // lookups take the first match
        }
        let raw = read.raw(key).unwrap_or_else(|| panic!("member {key:?} missing in {line}"));
        assert_eq!(&parse(raw).expect("a member span parses"), value, "{line}");
        let mut text = String::new();
        let is_str = read.str_with(key, |piece| text.push_str(piece));
        assert_eq!(is_str, value.as_str().is_some(), "{line}");
        assert_eq!(value.as_str().unwrap_or(""), text, "{line}");
        assert_eq!(read.array_len(key), value.as_array().map(<[Json]>::len), "{line}");
        let mut rest = members.clone();
        rest.remove(i);
        let cut = read.without(key);
        assert_eq!(parse(&cut).ok(), Some(Json::Obj(rest)), "{line} without {key:?}: {cut}");
    }
    if !members.iter().any(|(k, _)| k == "id") {
        assert_eq!(read.without("id"), line, "nothing to cut");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn object_reader_agrees_with_parse(line in arb_object_line(), edits in arb_edits()) {
        check_object_reader(&line);
        check_object_reader(&mutate(&line, &edits));
    }

    #[test]
    fn parse_encode_is_the_identity(v in arb_json()) {
        let encoded = v.encode();
        let reparsed = parse(&encoded)
            .unwrap_or_else(|e| panic!("encoder emitted unparseable JSON `{encoded}`: {e}"));
        prop_assert_eq!(&reparsed, &v, "round trip changed the value (encoded: {})", encoded);
        // And the encoding is a fixpoint: cache keys depend on it.
        prop_assert_eq!(reparsed.encode(), encoded);
    }

    #[test]
    fn u64_round_trips_exactly(v in any::<u64>()) {
        let j = Json::U64(v);
        prop_assert_eq!(parse(&j.encode()).unwrap(), j);
    }

    #[test]
    fn negative_i64_round_trips_exactly(v in any::<i64>()) {
        let j = if v >= 0 { Json::U64(v.unsigned_abs()) } else { Json::I64(v) };
        prop_assert_eq!(parse(&j.encode()).unwrap(), j);
    }

    #[test]
    fn finite_f64_round_trips_bit_exactly(v in arb_f64()) {
        match parse(&Json::F64(v).encode()).unwrap() {
            Json::F64(back) => prop_assert_eq!(back.to_bits(), v.to_bits()),
            other => prop_assert!(false, "float re-parsed as {:?}", other),
        }
    }

    #[test]
    fn strings_round_trip_exactly(s in arb_string()) {
        prop_assert_eq!(parse(&Json::Str(s.clone()).encode()).unwrap(), Json::Str(s));
    }
}
