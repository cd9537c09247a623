//! Pure line-rewriting for the router's stream merge: re-id / re-seq
//! streamed frames, splice per-item provenance, stitch chunked `batch`
//! terminals back into the exact line a single shard would have sent.
//!
//! Everything here leans on one invariant of `sempe_core::json`:
//! `encode(parse(x)) == x` for any line the service itself encoded
//! (member order preserved, integers exact, floats shortest-roundtrip).
//! That is what lets the router parse a shard reply, rewrite the
//! envelope members, and still produce terminals byte-identical to a
//! fault-free single-shard run.

use sempe_core::json::{self, Json};

use crate::protocol::with_id;

/// Replace the value of member `key` in place; returns false when the
/// member does not exist. (`Json::set` appends — it never replaces.)
fn replace_member(obj: &mut Json, key: &str, value: Json) -> bool {
    if let Json::Obj(members) = obj {
        for (k, v) in members.iter_mut() {
            if k == key {
                *v = value;
                return true;
            }
        }
    }
    false
}

/// Drop member `key` in place (no-op when absent).
fn remove_member(obj: &mut Json, key: &str) {
    if let Json::Obj(members) = obj {
        members.retain(|(k, _)| k != key);
    }
}

/// Rewrite one streamed frame from a shard for upstream delivery:
/// the downstream id becomes the upstream id, `seq` is re-sequenced
/// into the merged per-request stream, a `batch` item index is shifted
/// by the chunk's offset, and the serving shard is recorded as
/// provenance. Returns `None` on a line that is not a JSON object
/// (never produced by a healthy shard).
pub(crate) fn rewrite_frame(
    line: &str,
    upstream_id: Option<&str>,
    seq: u64,
    item_offset: u64,
    shard: usize,
) -> Option<String> {
    let mut v = json::parse(line).ok()?;
    if !matches!(v, Json::Obj(_)) {
        return None;
    }
    match upstream_id {
        Some(id) => {
            replace_member(&mut v, "id", json::parse(id).ok()?);
        }
        None => remove_member(&mut v, "id"),
    }
    replace_member(&mut v, "seq", Json::U64(seq));
    if item_offset > 0 {
        if let Some(local) = v.get("item").and_then(Json::as_u64) {
            replace_member(&mut v, "item", Json::U64(local + item_offset));
        }
    }
    if let Json::Obj(members) = &mut v {
        members.push(("shard".to_string(), Json::U64(shard as u64)));
    }
    Some(v.encode())
}

/// Rewrite a terminal reply from a shard for upstream delivery: swap
/// the downstream id for the upstream one (or strip it for a v1
/// client). Byte-for-byte, the result is what the shard would have sent
/// a directly-connected client using the upstream id.
pub(crate) fn rewrite_terminal(line: &str, upstream_id: Option<&str>) -> Option<String> {
    // Shard replies are service-encoded (no inter-member whitespace), so
    // cutting the id out of the text gives the same bytes as parse →
    // remove → encode, without building a tree.
    let reply = json::object(line).ok()?;
    Some(with_id(&reply.without("id"), upstream_id))
}

/// One chunk of a fanned-out `batch`, ready for terminal merging.
pub(crate) struct ChunkTerminal<'a> {
    /// The shard's terminal reply line (downstream id still attached).
    pub(crate) line: &'a str,
    /// Index of the chunk's first item in the original `inputs`.
    pub(crate) offset: u64,
}

/// Stitch the chunk terminals of a fanned-out `batch` back into the
/// exact terminal a single shard would have produced for the whole
/// request: `results` concatenated in item order, leak-pair indexes
/// shifted back to global positions, `all_clear` AND-ed, `items`
/// restored to the full count. Every chunk shares the program and
/// config, so `source_hash`/`config_digest` (and the member order,
/// taken from the first chunk) already match the single-shard line.
///
/// Chunks must be passed in offset order and every line must be an
/// `"ok":true` batch terminal; anything else yields `None`.
pub(crate) fn merge_batch_terminals(
    chunks: &[ChunkTerminal<'_>],
    total_items: u64,
    upstream_id: Option<&str>,
) -> Option<String> {
    let mut parsed: Vec<Json> = Vec::with_capacity(chunks.len());
    for c in chunks {
        let v = json::parse(c.line).ok()?;
        if v.get("ok").and_then(Json::as_bool) != Some(true)
            || v.get("type").and_then(Json::as_str) != Some("batch")
        {
            return None;
        }
        parsed.push(v);
    }
    let mut results: Vec<Json> = Vec::with_capacity(total_items as usize);
    let mut pairs: Vec<Json> = Vec::new();
    let mut all_clear = true;
    let mut saw_leak = false;
    for (c, v) in chunks.iter().zip(&parsed) {
        results.extend(v.get("results")?.as_array()?.iter().cloned());
        let Some(leak) = v.get("leak") else { continue };
        saw_leak = true;
        all_clear &= leak.get("all_clear").and_then(Json::as_bool) == Some(true);
        for pair in leak.get("pairs")?.as_array()? {
            let mut pair = pair.clone();
            let shifted: Vec<Json> = pair
                .get("items")?
                .as_array()?
                .iter()
                .map(|i| Json::U64(i.as_u64().unwrap_or(0) + c.offset))
                .collect();
            replace_member(&mut pair, "items", Json::Arr(shifted));
            pairs.push(pair);
        }
    }
    if results.len() as u64 != total_items {
        return None;
    }
    let mut merged = parsed.into_iter().next()?;
    remove_member(&mut merged, "id");
    replace_member(&mut merged, "items", Json::U64(total_items));
    replace_member(&mut merged, "results", Json::Arr(results));
    if saw_leak {
        replace_member(
            &mut merged,
            "leak",
            Json::obj().with("pairs", Json::Arr(pairs)).with("all_clear", all_clear),
        );
    }
    Some(with_id(&merged.encode(), upstream_id))
}

/// Split a parsed `batch` request into per-shard chunk bodies: the
/// original request object with `id` stripped and `inputs` replaced by
/// a contiguous slice. Chunks are near-even; under `leak_check` every
/// boundary falls on an even index so secret pairs stay co-located.
/// Returns `(body line, item offset, item count)` per chunk, or `None`
/// when the request does not warrant splitting (fewer than two usable
/// chunks).
pub(crate) fn split_batch(
    request: &Json,
    parts: usize,
    leak_check: bool,
) -> Option<Vec<(String, u64, u64)>> {
    let inputs = request.get("inputs")?.as_array()?;
    let n = inputs.len();
    let unit = if leak_check { 2 } else { 1 };
    let units = n / unit;
    let parts = parts.min(units);
    if parts < 2 {
        return None;
    }
    let mut chunks = Vec::with_capacity(parts);
    let mut start = 0usize;
    for p in 0..parts {
        let take = (units / parts + usize::from(p < units % parts)) * unit;
        let slice: Vec<Json> = inputs[start..start + take].to_vec();
        let mut body = request.clone();
        remove_member(&mut body, "id");
        replace_member(&mut body, "inputs", Json::Arr(slice));
        chunks.push((body.encode(), start as u64, take as u64));
        start += take;
    }
    debug_assert_eq!(start, n, "chunks must cover every item exactly once");
    Some(chunks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_rewrite_swaps_envelope_and_offsets_items() {
        let line = r#"{"id":"r3c1-0","seq":2,"partial":true,"item":4,"cycles":10,"ipc":0.5}"#;
        let out = rewrite_frame(line, Some("\"job-9\""), 17, 6, 1).expect("rewrites");
        assert_eq!(
            out,
            r#"{"id":"job-9","seq":17,"partial":true,"item":10,"cycles":10,"ipc":0.5,"shard":1}"#
        );
        // Lane frames (no `item`) pass through untouched except the envelope.
        let lane = r#"{"id":"r0c0-0","seq":0,"partial":true,"lane":"sempe","cycles":7}"#;
        let out = rewrite_frame(lane, Some("5"), 1, 0, 0).expect("rewrites");
        assert_eq!(out, r#"{"id":5,"seq":1,"partial":true,"lane":"sempe","cycles":7,"shard":0}"#);
        assert!(rewrite_frame("[]", Some("\"x\""), 0, 0, 0).is_none());
    }

    #[test]
    fn terminal_rewrite_matches_a_direct_reply_byte_for_byte() {
        let body = r#"{"ok":true,"type":"run","cycles":42,"source_hash":"00ff"}"#;
        let shard_line = with_id(body, Some("\"r7-0\""));
        assert_eq!(
            rewrite_terminal(&shard_line, Some("\"mine\"")).expect("rewrites"),
            with_id(body, Some("\"mine\"")),
        );
        // A v1 upstream gets the bare body — exactly what a direct v1
        // connection would have received.
        assert_eq!(rewrite_terminal(&shard_line, None).expect("rewrites"), body);
    }

    #[test]
    fn split_then_merge_is_identity_on_the_terminal() {
        // A synthetic 5-item batch split 2 ways: merging the per-chunk
        // terminals must reproduce the whole-batch terminal exactly.
        let result = |c: u64| Json::obj().with("cycles", c).with("ipc", (c as f64) / 2.0);
        let whole = Json::obj()
            .with("ok", true)
            .with("type", "batch")
            .with("backend", "sempe")
            .with("mode", "detailed")
            .with("items", 5u64)
            .with("results", Json::Arr((0..5).map(result).collect()))
            .with("source_hash", "aabb")
            .with("config_digest", "ccdd")
            .encode();
        let chunk = |lo: u64, hi: u64| {
            with_id(
                &Json::obj()
                    .with("ok", true)
                    .with("type", "batch")
                    .with("backend", "sempe")
                    .with("mode", "detailed")
                    .with("items", hi - lo)
                    .with("results", Json::Arr((lo..hi).map(result).collect()))
                    .with("source_hash", "aabb")
                    .with("config_digest", "ccdd")
                    .encode(),
                Some("\"r0c0-1\""),
            )
        };
        let a = chunk(0, 3);
        let b = chunk(3, 5);
        let merged = merge_batch_terminals(
            &[ChunkTerminal { line: &a, offset: 0 }, ChunkTerminal { line: &b, offset: 3 }],
            5,
            Some("\"req\""),
        )
        .expect("merges");
        assert_eq!(merged, with_id(&whole, Some("\"req\"")));
        // An item-count mismatch (a lost trial) must refuse to merge.
        assert!(merge_batch_terminals(
            &[ChunkTerminal { line: &a, offset: 0 }],
            5,
            Some("\"req\"")
        )
        .is_none());
    }

    #[test]
    fn leak_pairs_are_shifted_back_to_global_indexes() {
        let pair = |a: u64, clear: bool| {
            Json::obj()
                .with("items", vec![a, a + 1])
                .with("cycles_equal", clear)
                .with("committed_equal", true)
                .with("trace_identical", clear)
                .with("clear", clear)
        };
        let chunk = |pairs: Vec<Json>, all_clear: bool, items: u64| {
            Json::obj()
                .with("ok", true)
                .with("type", "batch")
                .with("backend", "sempe")
                .with("mode", "detailed")
                .with("items", items)
                .with("results", Json::Arr(vec![Json::obj(); items as usize]))
                .with(
                    "leak",
                    Json::obj().with("pairs", Json::Arr(pairs)).with("all_clear", all_clear),
                )
                .with("source_hash", "aabb")
                .with("config_digest", "ccdd")
                .encode()
        };
        let a = chunk(vec![pair(0, true)], true, 2);
        let b = chunk(vec![pair(0, false)], false, 2);
        let merged = merge_batch_terminals(
            &[ChunkTerminal { line: &a, offset: 0 }, ChunkTerminal { line: &b, offset: 2 }],
            4,
            None,
        )
        .expect("merges");
        let v = json::parse(&merged).expect("parses");
        let leak = v.get("leak").expect("leak");
        assert_eq!(leak.get("all_clear").and_then(Json::as_bool), Some(false));
        let pairs = leak.get("pairs").and_then(Json::as_array).expect("pairs");
        let idx = |p: &Json| {
            p.get("items")
                .and_then(Json::as_array)
                .map(|a| a.iter().filter_map(Json::as_u64).collect::<Vec<_>>())
        };
        assert_eq!(idx(&pairs[0]), Some(vec![0, 1]));
        assert_eq!(idx(&pairs[1]), Some(vec![2, 3]), "second chunk's pair shifted by offset");
        // The merged line equals the whole-batch terminal a single shard
        // would emit for the same verdicts.
        let whole = chunk(vec![pair(0, true), pair(2, false)], false, 4);
        assert_eq!(merged, whole);
    }

    #[test]
    fn batch_split_covers_inputs_contiguously_and_respects_pairs() {
        let inputs: Vec<Json> = (0..10u64).map(|i| Json::obj().with("k", i)).collect();
        let req = Json::obj()
            .with("type", "batch")
            .with("id", "x")
            .with("source", "var k = 0; output k;")
            .with("inputs", Json::Arr(inputs))
            .with("leak_check", true);
        let chunks = split_batch(&req, 3, true).expect("splits");
        assert_eq!(chunks.len(), 3);
        let mut next = 0u64;
        for (body, offset, count) in &chunks {
            assert_eq!(*offset, next, "contiguous coverage");
            assert_eq!(count % 2, 0, "pair-aligned chunk");
            let v = json::parse(body).expect("chunk body parses");
            assert!(v.get("id").is_none(), "chunk bodies carry no upstream id");
            let slice = v.get("inputs").and_then(Json::as_array).expect("inputs array");
            assert_eq!(slice.len(), *count as usize);
            assert_eq!(
                slice.first().and_then(|o| o.get("k")).and_then(Json::as_u64),
                Some(*offset),
                "slice starts at the offset"
            );
            next += count;
        }
        assert_eq!(next, 10);
        // Too small to split: a single pair, or more parts than items.
        let tiny = Json::obj().with("type", "batch").with("inputs", vec![1u64, 2]);
        assert!(split_batch(&tiny, 2, true).is_none());
        assert!(split_batch(&req, 1, true).is_none());
    }
}
