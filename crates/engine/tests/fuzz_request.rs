//! Coverage-guided mutation fuzzing over raw request bytes, closing
//! the ROADMAP's "fuzz the request parser" item.
//!
//! The analyzer's self-fuzz test loop is reused shape-for-shape, aimed
//! at the service boundary instead of the lexer: a deterministic LCG
//! (same seed → same mutants, so a CI failure reproduces locally)
//! mutates a corpus of valid and hostile request lines and pushes every
//! mutant through the full [`service::handle_line_recorded`] path, asserting
//!
//! 1. **no panic** — a panicking request handler aborts the service,
//!    the exact failure class clippy's `unwrap_used`/`panic` lints gate
//!    against;
//! 2. **always a JSON reply** — every input, however mangled, yields a
//!    single parseable JSON line (a plan or a typed error);
//! 3. **bounded latency** — no mutant may stall the loop (planning work
//!    is capped by `MAX_LEVELS`, parsing by the JSON depth bound).
//!
//! **Coverage feedback**: each mutant's signature is (reply class,
//! input-length bucket, bracket-nesting bucket).  A mutant reaching a
//! new signature joins the corpus, so later mutations explore outward
//! from inputs that already proved interesting — the same AFL-style
//! loop as the analyzer's lexer fuzz test, with reply classes standing in
//! for branch edges.
//!
//! A deterministic sweep holds the same latency bound over the whole
//! level space of *valid* simulated requests: every zoo network × every
//! strategy but `exhaustive` × levels 0–16 × both topologies.

#![expect(
    clippy::panic,
    clippy::cast_possible_truncation,
    clippy::disallowed_methods,
    reason = "helpers fail by panicking; small generator counts are cast; latency bounds read the wall clock"
)]

use std::collections::BTreeSet;
use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

use hypar_engine::{service, PlanEngine};
use serde_json::Value;

/// Seed lines spanning the request grammar: valid chain/graph plans,
/// admin commands, and the adversarial shapes the service must refuse.
const CORPUS: &[&str] = &[
    r#"{"network": "lenet_c", "levels": 2}"#,
    r#"{"network": "vgg_a", "levels": 3, "strategy": "hypar"}"#,
    r#"{"network": "sfc", "strategy": "data"}"#,
    r#"{"network": "resnet18", "levels": 2}"#,
    r#"{"cmd": "stats"}"#,
    r#"{"network": {"nodes": []}}"#,
    r#"{"network": "vgg_a", "levels": -1}"#,
    r#"{"network": "vgg_a", "strategy": "quantum"}"#,
    r#"{"network": 42}"#,
    "{nope",
    r#""just a string""#,
    "[[[[0]]]]",
];

/// Mutants larger than this are truncated: size growth is the
/// duplication operator's job to *probe*, not a way to turn one mutant
/// into a multi-second parse.
const MAX_MUTANT_BYTES: usize = 1 << 14;

/// Per-mutant wall budget.  Generous — the service's own bounds
/// (`MAX_LEVELS`, the JSON depth/size limits) keep real replies far
/// below it even on debug builds.
const MUTANT_BUDGET: Duration = Duration::from_secs(5);

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

    fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next() % n as u64) as usize
        }
    }
}

/// Bytes likely to flip the JSON parser's state when inserted.
const INTERESTING: &[u8] = &[
    b'"', b'\\', b'{', b'}', b'[', b']', b':', b',', b'-', b'0', b'9', b'e', b'.', b'n', b't',
    b'f', b' ', b'\n', 0x00, 0xFF, 0xC3, 0xE2,
];

fn mutate(rng: &mut Rng, bytes: &mut Vec<u8>) {
    match rng.below(4) {
        0 if !bytes.is_empty() => {
            let at = rng.below(bytes.len());
            bytes[at] = INTERESTING[rng.below(INTERESTING.len())];
        }
        1 => {
            let at = rng.below(bytes.len() + 1);
            bytes.insert(at, INTERESTING[rng.below(INTERESTING.len())]);
        }
        2 if bytes.len() > 2 => {
            let start = rng.below(bytes.len());
            let end = (start + 1 + rng.below(16)).min(bytes.len());
            bytes.drain(start..end);
        }
        _ if !bytes.is_empty() => {
            let start = rng.below(bytes.len());
            let end = (start + 1 + rng.below(32)).min(bytes.len());
            let chunk: Vec<u8> = bytes[start..end].to_vec();
            let at = rng.below(bytes.len() + 1);
            bytes.splice(at..at, chunk);
        }
        _ => {}
    }
    bytes.truncate(MAX_MUTANT_BYTES);
}

/// Reply classes the coverage signature distinguishes.
fn reply_class(reply: &str) -> u8 {
    let Ok(value) = serde_json::from_str::<Value>(reply) else {
        return 0; // never hit: the caller asserts parseability first
    };
    if let Some(message) = value.get("error").and_then(Value::as_str) {
        // Bucket errors by their leading word — parse errors, unknown
        // networks, invalid requests, ... each count once.
        let word = message.split_whitespace().next().unwrap_or("");
        2 + (word
            .bytes()
            .fold(0u8, |h, b| h.wrapping_mul(31).wrapping_add(b))
            % 13)
    } else {
        1 // a successful plan
    }
}

/// `(reply class, input-length bucket, bracket-nesting bucket)`.
fn signature(line: &str, reply: &str) -> (u8, u8, u8) {
    let len_bucket = (line.len().max(1).ilog2().min(15)) as u8;
    let mut depth = 0i32;
    let mut worst = 0i32;
    for b in line.bytes() {
        match b {
            b'{' | b'[' => {
                depth += 1;
                worst = worst.max(depth);
            }
            b'}' | b']' => depth -= 1,
            _ => {}
        }
    }
    let depth_bucket = (worst.clamp(0, 1 << 10) as u32).max(1).ilog2().min(10) as u8;
    (reply_class(reply), len_bucket, depth_bucket)
}

/// Runs `iterations` mutants and returns the coverage set plus the
/// retained-corpus size; panics (failing the test) on any violated
/// invariant.
fn run_fuzz(iterations: u64, seed: u64) -> (BTreeSet<(u8, u8, u8)>, usize) {
    let engine = PlanEngine::new();
    let mut rng = Rng(seed | 1);
    let mut corpus: Vec<Vec<u8>> = CORPUS.iter().map(|s| s.as_bytes().to_vec()).collect();
    let mut coverage: BTreeSet<(u8, u8, u8)> = BTreeSet::new();

    // Exercise the seeds themselves first: the corpus must already be
    // panic-free before mutation explores outward from it.
    let hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        for i in 0..iterations {
            let base = &corpus[rng.below(corpus.len())];
            let mut bytes = base.clone();
            if i >= corpus.len() as u64 {
                mutate(&mut rng, &mut bytes);
            }
            let line = String::from_utf8_lossy(&bytes).into_owned();

            let started = Instant::now();
            let reply = service::handle_line_recorded(&engine, &line, None);
            let elapsed = started.elapsed();
            assert!(
                elapsed < MUTANT_BUDGET,
                "mutant {i} took {elapsed:?} (line: {} bytes)",
                line.len()
            );
            assert!(
                serde_json::from_str::<Value>(&reply).is_ok(),
                "mutant {i} got a non-JSON reply: {reply}"
            );
            assert!(!reply.contains('\n'), "replies are single lines: {reply:?}");

            if coverage.insert(signature(&line, &reply)) {
                corpus.push(bytes);
            }
        }
        (coverage, corpus.len())
    }));
    panic::set_hook(hook);
    match result {
        Ok(summary) => summary,
        Err(payload) => {
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(ToString::to_string))
                .unwrap_or_else(|| "non-string panic".to_owned());
            panic!("request fuzzing panicked the service path: {message}");
        }
    }
}

#[test]
fn mutated_request_bytes_never_panic_and_always_reply_json() {
    let (coverage, retained) = run_fuzz(600, 0xC0FFEE);
    // The loop must actually discriminate inputs: several reply
    // classes (success + distinct error families) and several size /
    // nesting buckets, with the corpus growing beyond its seeds.
    assert!(
        coverage.len() >= 8,
        "coverage collapsed to {} signatures: {coverage:?}",
        coverage.len()
    );
    let classes: BTreeSet<u8> = coverage.iter().map(|&(c, _, _)| c).collect();
    assert!(
        classes.contains(&1),
        "at least one mutant must still plan successfully: {classes:?}"
    );
    assert!(
        classes.len() >= 3,
        "success plus multiple error families: {classes:?}"
    );
    assert!(
        retained > CORPUS.len(),
        "coverage feedback retained no new corpus entries"
    );
}

#[test]
fn request_fuzzing_is_deterministic() {
    let first = run_fuzz(200, 7);
    let second = run_fuzz(200, 7);
    assert_eq!(
        first, second,
        "same seed must reproduce the same coverage and corpus"
    );
}

/// Every zoo network × `hypar`/`dp`/`mp`/`owt`/`refined` × levels 0–16
/// × H-tree/torus, all with `simulate: true`: each line plans and
/// simulates within [`MUTANT_BUDGET`].  `exhaustive` stays out — its
/// cost grows as `2^slots`, not with the simulated array.
#[test]
fn simulated_requests_over_the_whole_level_space_stay_within_budget() {
    let engine = PlanEngine::new();
    let networks = hypar_models::zoo::NAMES
        .iter()
        .chain(hypar_graph::zoo::NAMES.iter());
    let mut requests = 0;
    for network in networks {
        for strategy in ["hypar", "dp", "mp", "owt", "refined"] {
            for levels in 0..=16 {
                for topology in ["htree", "torus"] {
                    let line = format!(
                        r#"{{"network": "{network}", "levels": {levels}, "strategy": "{strategy}", "topology": "{topology}", "simulate": true}}"#
                    );
                    let started = Instant::now();
                    let reply = service::handle_line_recorded(&engine, &line, None);
                    let elapsed = started.elapsed();
                    assert!(elapsed < MUTANT_BUDGET, "{line} took {elapsed:?}");
                    let Ok(value) = serde_json::from_str::<Value>(&reply) else {
                        panic!("{line} got a non-JSON reply: {reply}");
                    };
                    assert!(
                        value
                            .get("simulation")
                            .and_then(|sim| sim.get("step_time"))
                            .and_then(Value::as_f64)
                            .is_some_and(|t| t > 0.0),
                        "{line} got no simulated plan: {reply}"
                    );
                    requests += 1;
                }
            }
        }
    }
    assert_eq!(requests, 12 * 5 * 17 * 2);
}
