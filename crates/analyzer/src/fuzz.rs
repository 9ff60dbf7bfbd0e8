//! Coverage-guided mutation fuzzing over the lexer, parser, and rules.
//!
//! Test-only: `cargo test -p hypar-analyzer` runs 2,000 mutants at
//! [`DEFAULT_SEED`].  The mutants come from a deterministic LCG (same
//! count + seed → same inputs, so a failure reproduces anywhere); every
//! one goes through [`lex`] + [`parse`] + the per-file rule, and the run
//! asserts four invariants:
//!
//! 1. **no panic** — a panicking analyzer would turn a hostile source
//!    file into a CI-infrastructure outage;
//! 2. **bounded tokens** — every token consumes at least one character,
//!    so `tokens ≤ chars + 1`; more means the cursor failed to advance;
//! 3. **bounded statements** — every statement consumes at least one
//!    token, so `stmts ≤ tokens + 1`; more means the parser looped;
//! 4. **bounded runtime** — a generous per-mutant wall budget catches
//!    accidental quadratic scanning (the same class of bug PR 7 found
//!    in the vendored serde_json string parser).
//!
//! **Coverage feedback** closes the ROADMAP's coverage-guided seed:
//! each mutant's *token-kind-pair* set (which [`TokenKind`] follows
//! which, including a start state) is its coverage signature.  A mutant
//! that reaches a pair no earlier input reached is retained as a corpus
//! seed, so later mutations explore outward from inputs that already
//! proved interesting — the classic AFL loop, with kind-pairs standing
//! in for branch edges.  The pair space is small ((K+1)·K for K = 9
//! kinds) but discriminates exactly what the lexer's mode machine can
//! confuse: string-vs-lifetime ticks, raw-string fences, float/int
//! splits, punct runs.

use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::lexer::{lex, TokenKind};
use crate::parse::parse;
use crate::rules::check_source;

/// Seed sources chosen to sit near every lexer and parser edge:
/// fences, nesting, ticks, escapes, comments, fn items, casts, guards.
const CORPUS: &[&str] = &[
    "fn f(x: Option<u8>) -> u8 { x.unwrap() } // trailing comment — seed\n",
    "let s = r##\"raw \"# fence\"## ; let q = '\"'; let t = '\\'';\n",
    "/* outer /* inner */ still */ let m: HashMap<u8, u8> = HashMap::new();\n",
    "fn g<'a>(v: &'a [f64]) -> bool { v[0] == 0.0 || v[0] != 1e-3 }\n",
    "#[cfg(test)]\nmod tests { fn t() { m.lock().unwrap(); panic!(\"x\") } }\n",
    "let b = b\"bytes\\\"\"; let c = b'\\n'; let t = Instant::now();\n",
    "fn h(n: usize) -> Result<u32, E> { save(n as u32)?; let _ = io(); Ok(0) }\n",
    "fn k(c: &C) { let g = c.m.lock(); let p = plan_many(&g.r); drop(g); }\n",
];

/// Deterministic 64-bit LCG (Knuth's MMIX multiplier).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 16
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "the remainder is below n, which is a usize"
    )]
    fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next() % n as u64) as usize
        }
    }
}

/// Bytes likely to flip a lexer mode when inserted.
const INTERESTING: &[u8] = &[
    b'"', b'\'', b'\\', b'/', b'*', b'#', b'r', b'b', b'c', b'\n', b'!', b'=', b'.', b'{', b'}',
    b'(', b')', b';', b'<', b'>', 0x00, 0xFF, 0xC3, 0xE2,
];

fn mutate(rng: &mut Rng, bytes: &mut Vec<u8>) {
    match rng.below(4) {
        0 if !bytes.is_empty() => {
            // Flip a byte.
            let at = rng.below(bytes.len());
            bytes[at] = INTERESTING[rng.below(INTERESTING.len())];
        }
        1 => {
            // Insert an interesting byte.
            let at = rng.below(bytes.len() + 1);
            bytes.insert(at, INTERESTING[rng.below(INTERESTING.len())]);
        }
        2 if bytes.len() > 2 => {
            // Delete a range.
            let start = rng.below(bytes.len());
            let end = (start + 1 + rng.below(16)).min(bytes.len());
            bytes.drain(start..end);
        }
        _ if !bytes.is_empty() => {
            // Duplicate a chunk (tests quadratic scanning).
            let start = rng.below(bytes.len());
            let end = (start + 1 + rng.below(32)).min(bytes.len());
            let chunk: Vec<u8> = bytes[start..end].to_vec();
            let at = rng.below(bytes.len() + 1);
            bytes.splice(at..at, chunk);
        }
        _ => {}
    }
}

/// Number of [`TokenKind`] variants.
const KINDS: usize = 9;

/// Pair space: previous state (start + 9 kinds) × next kind.
pub const PAIR_SPACE: usize = (KINDS + 1) * KINDS;

fn kind_id(kind: TokenKind) -> usize {
    match kind {
        TokenKind::Ident => 0,
        TokenKind::RawIdent => 1,
        TokenKind::Punct => 2,
        TokenKind::Str => 3,
        TokenKind::RawStr => 4,
        TokenKind::Char => 5,
        TokenKind::Lifetime => 6,
        TokenKind::Int => 7,
        TokenKind::Float => 8,
    }
}

/// The mutant's coverage signature: one bit per observed
/// (previous-state, kind) pair.  90 pairs fit a `u128`.
fn pair_signature(kinds: &[TokenKind]) -> u128 {
    let mut bits = 0u128;
    let mut prev_state = 0usize; // 0 = start-of-stream
    for &kind in kinds {
        let id = kind_id(kind);
        bits |= 1u128 << (prev_state * KINDS + id);
        prev_state = id + 1;
    }
    bits
}

/// Outcome of a fuzz run.
#[derive(Clone, Copy, Debug, Default)]
pub struct FuzzSummary {
    /// Mutants executed.
    pub iterations: u64,
    /// Total tokens produced across all mutants.
    pub tokens: u64,
    /// Total findings reported across all mutants.
    pub findings: u64,
    /// Distinct token-kind pairs covered (of [`PAIR_SPACE`]).
    pub pairs_covered: u32,
    /// Mutants retained as corpus seeds for reaching new coverage.
    pub corpus_retained: u32,
}

/// Per-mutant wall budget; generous so CI never flakes, tight enough
/// that accidental quadratic behavior on a few-KB input still trips it.
const PER_MUTANT_BUDGET: Duration = Duration::from_millis(2000);

/// Corpus growth cap: keeps a pathological run from hoarding memory
/// while leaving plenty of room (the pair space itself is only 90).
const CORPUS_CAP: usize = 256;

/// Runs `iterations` mutants from `seed`.  `Err` carries a reproducible
/// description of the first invariant violation.
pub fn run(iterations: u64, seed: u64) -> Result<FuzzSummary, String> {
    let mut rng = Rng(seed | 1);
    let mut summary = FuzzSummary::default();
    let mut corpus: Vec<Vec<u8>> = CORPUS.iter().map(|s| s.as_bytes().to_vec()).collect();
    let mut covered = 0u128;
    // Worker panics are converted to Err; silence the default hook so a
    // caught panic does not spray a backtrace into CI output.
    let hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let result = (0..iterations).try_for_each(|i| {
        let mut bytes = corpus[rng.below(corpus.len())].clone();
        for _ in 0..=rng.below(8) {
            mutate(&mut rng, &mut bytes);
        }
        let source = String::from_utf8_lossy(&bytes).into_owned();
        let chars = source.chars().count() as u64;
        #[expect(
            clippy::disallowed_methods,
            reason = "the per-mutant budget is a wall-clock bound by design"
        )]
        let started = Instant::now();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            let tokens = lex(&source);
            let parsed = parse(&tokens);
            let findings = check_source("fuzz.rs", &source);
            let kinds: Vec<TokenKind> = tokens.iter().map(|t| t.kind).collect();
            (
                tokens.len() as u64,
                parsed.stmt_count() as u64,
                findings.len() as u64,
                pair_signature(&kinds),
            )
        }));
        let elapsed = started.elapsed();
        let (tokens, stmts, findings, signature) = outcome.map_err(|_| {
            format!(
                "iteration {i} (seed {seed}): lexer/parser/rules panicked on a {chars}-char mutant"
            )
        })?;
        if tokens > chars + 1 {
            return Err(format!(
                "iteration {i} (seed {seed}): {tokens} tokens from {chars} chars — cursor failed to advance"
            ));
        }
        if stmts > tokens + 1 {
            return Err(format!(
                "iteration {i} (seed {seed}): {stmts} statements from {tokens} tokens — parser looped"
            ));
        }
        if elapsed > PER_MUTANT_BUDGET {
            return Err(format!(
                "iteration {i} (seed {seed}): {chars}-char mutant took {elapsed:?} (budget {PER_MUTANT_BUDGET:?})"
            ));
        }
        if signature & !covered != 0 {
            covered |= signature;
            if corpus.len() < CORPUS_CAP {
                corpus.push(bytes);
                summary.corpus_retained += 1;
            }
        }
        summary.iterations += 1;
        summary.tokens += tokens;
        summary.findings += findings;
        Ok(())
    });
    panic::set_hook(hook);
    summary.pairs_covered = covered.count_ones();
    result.map(|()| summary)
}

/// The seed of the 2,000-mutant run.
pub const DEFAULT_SEED: u64 = 0x4879_5061_7200_0001; // "HyPar"

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_run_holds_all_invariants() {
        let summary = run(2000, DEFAULT_SEED).expect("fuzz invariants");
        assert_eq!(summary.iterations, 2000);
        assert!(summary.tokens > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(200, 7).expect("run a");
        let b = run(200, 7).expect("run b");
        assert_eq!(
            (a.tokens, a.findings, a.pairs_covered, a.corpus_retained),
            (b.tokens, b.findings, b.pairs_covered, b.corpus_retained)
        );
    }

    #[test]
    fn coverage_accumulates_and_retains_seeds() {
        let summary = run(500, DEFAULT_SEED).expect("fuzz");
        assert!(
            summary.pairs_covered >= 30,
            "only {} of {PAIR_SPACE} kind-pairs covered",
            summary.pairs_covered
        );
        assert!(
            summary.corpus_retained >= 1,
            "coverage feedback never retained a seed"
        );
        assert!(u32::try_from(PAIR_SPACE).is_ok_and(|s| summary.pairs_covered <= s));
    }

    #[test]
    fn pair_signature_distinguishes_order() {
        let ab = pair_signature(&[TokenKind::Ident, TokenKind::Int]);
        let ba = pair_signature(&[TokenKind::Int, TokenKind::Ident]);
        assert_ne!(ab, ba);
        assert_eq!(pair_signature(&[]), 0);
    }
}
