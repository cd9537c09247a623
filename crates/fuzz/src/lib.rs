//! # sempe-fuzz — differential fuzzing across every backend
//!
//! SeMPE's security argument only holds if the protected backends are
//! semantically equivalent to the insecure reference: a miscompiled
//! secure region is both a wrong answer and a potential leak. This crate
//! is the automated oracle that hammers the whole stack against itself:
//!
//! 1. [`gen`] deterministically grows random WIR programs — nested
//!    secret/public conditionals, bounded loops, array traffic — from a
//!    64-bit seed, with the taint discipline of a constant-time compiler
//!    when the leak invariant is to be checked;
//! 2. [`oracle`] runs each program through the WIR reference
//!    interpreter, all three code generators, both ISA interpreters and
//!    the cycle-level pipeline in both security modes, comparing final
//!    scalar state, final array state, and committed-instruction counts
//!    — and, for paired secret inputs, the leak invariant (committed
//!    counts, cycle counts and observation traces must be
//!    secret-independent on the protected backends);
//! 3. [`shrink()`] minimizes any divergence to a small reproducer, which
//!    is checked into `corpus/` as readable WIR source and replayed as a
//!    regression test forever after.
//!
//! The `sempe-fuzz` binary drives the loop; see `docs/fuzzing.md`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod gen;
pub mod oracle;
pub mod service;
pub mod shrink;

pub use gen::{generate, FuzzCase, GenConfig, Profile};
pub use oracle::{
    check_case, check_program, CheckStats, Divergence, DivergenceKind, EngineSet, SimArena,
};
pub use service::ServiceOracle;
pub use shrink::shrink;

use sempe_compile::parse_wir;

/// A corpus entry: WIR source plus the directives the replay harness
/// needs (`// profile: …`, `// pair: a b`).
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// Which discipline (and hence which invariants) applies.
    pub profile: Profile,
    /// Paired secret values for the leak invariant.
    pub pair: (u64, u64),
    /// Run the static constant-time audit before the leak check (the
    /// default). `// audit: skip` marks hand-vetted entries the
    /// conservative audit rejects (e.g. re-zeroed loop counters inside
    /// secure regions) but whose empirical invariant must still hold.
    pub audit: bool,
    /// The program source.
    pub source: String,
}

impl CorpusEntry {
    /// Parse corpus text: leading `//` directive comments followed by
    /// WIR source. Unknown directives are ignored; defaults are
    /// `profile: correctness` and `pair: 0 1`.
    ///
    /// # Errors
    ///
    /// A human-readable message for malformed directives.
    pub fn parse(text: &str) -> Result<CorpusEntry, String> {
        let mut profile = Profile::Correctness;
        let mut pair = (0u64, 1u64);
        let mut audit = true;
        for line in text.lines() {
            let Some(comment) = line.trim().strip_prefix("//") else { continue };
            let comment = comment.trim();
            if let Some(p) = comment.strip_prefix("profile:") {
                profile = Profile::parse(p.trim())
                    .ok_or_else(|| format!("unknown profile `{}`", p.trim()))?;
            } else if let Some(p) = comment.strip_prefix("audit:") {
                audit = match p.trim() {
                    "skip" => false,
                    "strict" => true,
                    other => return Err(format!("unknown audit directive `{other}`")),
                };
            } else if let Some(p) = comment.strip_prefix("pair:") {
                let mut it = p.split_whitespace();
                let a = it.next().and_then(|s| s.parse().ok());
                let b = it.next().and_then(|s| s.parse().ok());
                match (a, b) {
                    (Some(a), Some(b)) => pair = (a, b),
                    _ => return Err(format!("bad pair directive `{p}`")),
                }
            }
        }
        Ok(CorpusEntry { profile, pair, audit, source: text.to_string() })
    }

    /// Replay the entry through the full differential oracle.
    ///
    /// # Errors
    ///
    /// The divergence (regression!) or a parse-failure message.
    pub fn check(
        &self,
        engines: &EngineSet,
        arena: &mut SimArena,
    ) -> Result<oracle::CheckStats, String> {
        let parsed = parse_wir(&self.source).map_err(|e| format!("corpus parse: {e}"))?;
        let p0 = parsed.program;
        let pair_prog = if self.profile == Profile::ConstantTime {
            let key =
                *parsed.secrets.first().ok_or("constant-time corpus entry declares no secret")?;
            if self.audit && !sempe_compile::analyze_taint(&p0, &parsed.secrets).is_constant_time()
            {
                return Err("constant-time corpus entry fails the strict taint audit \
                     (its leak invariant would be vacuous)"
                    .to_string());
            }
            let mut p1 = p0.clone();
            p1.set_var_init(key, self.pair.1);
            let mut p0v = p0.clone();
            p0v.set_var_init(key, self.pair.0);
            Some((p0v, p1))
        } else {
            None
        };
        match pair_prog {
            Some((p0v, p1)) => check_program(&p0v, &parsed.secrets, Some(&p1), engines, arena),
            None => check_program(&p0, &parsed.secrets, None, engines, arena),
        }
        .map_err(|d| d.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::new(Profile::ConstantTime);
        let a = generate(7, &cfg);
        let b = generate(7, &cfg);
        assert_eq!(a.body, b.body);
        assert_eq!(a.var_inits, b.var_inits);
        assert_eq!(a.pair, b.pair);
        let c = generate(8, &cfg);
        assert!(c.body != a.body || c.var_inits != a.var_inits || c.pair != a.pair);
    }

    #[test]
    fn generated_cases_round_trip_through_source() {
        for seed in 0..8 {
            let case = generate(seed, &GenConfig::new(Profile::ConstantTime));
            let entry = CorpusEntry::parse(&case.to_source()).expect("directives parse");
            // The audit may have demoted the case; the directive must
            // reflect the *effective* profile either way.
            assert_eq!(entry.profile, case.profile);
            assert_eq!(entry.pair, case.pair);
            // The printed source must itself be valid WIR.
            sempe_compile::parse_wir(&entry.source).expect("source parses");
        }
    }

    #[test]
    fn directive_defaults_and_errors() {
        let e = CorpusEntry::parse("var x = 0;\noutput x;\n").unwrap();
        assert_eq!(e.profile, Profile::Correctness);
        assert_eq!(e.pair, (0, 1));
        assert!(CorpusEntry::parse("// pair: 1\nvar x = 0;").is_err());
        assert!(CorpusEntry::parse("// profile: quantum\nvar x = 0;").is_err());
    }
}
