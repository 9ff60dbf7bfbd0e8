//! Differential test of the plan cache's request index: seeded request
//! streams through [`PlanEngine`] must answer like an engine that caches
//! nothing, hit, miss and evict exactly like a bare fingerprint-keyed
//! [`PlanCache`] of the same capacity, and skip `resolve` only on a repeat
//! whose entry still holds its spelling.

#![expect(
    clippy::unwrap_used,
    clippy::panic,
    reason = "helpers fail by panicking"
)]

use std::collections::BTreeMap;
use std::sync::Arc;

use hypar_engine::cache::PlanCache;
use hypar_engine::fingerprint::Fingerprint;
use hypar_engine::{PlanEngine, PlanRequest};

/// A small xorshift generator: the streams are seeded, not random.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        usize::try_from(self.0 % n as u64).unwrap()
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// One network, several spellings: zoo aliases, and one inline chain as
/// `layers` and as branch-free `nodes` (the two share a fingerprint).
const NETWORKS: [&[&str]; 4] = [
    &[r#""vgg_a""#, r#""VGG-A""#, r#""vgga""#],
    &[r#""sfc""#, r#""SFC""#],
    &[r#""lenet_c""#, r#""Lenet-c""#],
    &[
        r#"{"name": "tiny", "input": {"channels": 3, "height": 16, "width": 16}, "layers": [{"name": "c1", "kind": "conv", "out": 8, "kernel": 3, "pool": 2}, {"name": "f1", "kind": "fc", "out": 10}]}"#,
        r#"{"name": "tiny", "input": {"channels": 3, "height": 16, "width": 16}, "nodes": [{"name": "c1", "kind": "conv", "out": 8, "kernel": 3, "pool": 2}, {"name": "f1", "kind": "fc", "out": 10}]}"#,
    ],
];

/// Requests that fail while resolving, before any cache lookup by
/// fingerprint.
const ERRORS: [&str; 4] = [
    r#"{"network": "no-such-net"}"#,
    r#"{"network": "sfc", "levels": 17}"#,
    r#"{"network": "sfc", "strategy": "dp", "refine": true}"#,
    r#"{"network": "sfc", "strategy": "explicit"}"#,
];

fn random_line(rng: &mut Rng) -> String {
    if rng.below(10) == 0 {
        return rng.pick(&ERRORS).to_owned();
    }
    let spellings = NETWORKS[rng.below(NETWORKS.len())];
    let network = rng.pick(spellings);
    let strategy = rng.pick(&[
        r#""strategy": "hypar""#,
        r#""strategy": "dp""#,
        r#""strategy": "refined""#,
        r#""refine": true"#,
    ]);
    let trace = rng.pick(&["true", "false"]);
    format!(
        r#"{{"network": {network}, "levels": {}, "batch": {}, {strategy}, "trace": {trace}}}"#,
        1 + rng.below(3),
        rng.pick(&["32", "64"]),
    )
}

/// A request stream with locality: half the lines re-ask one of the last
/// eight, the rest are drawn fresh from about a hundred workloads.
fn stream(seed: u64, len: usize) -> Vec<String> {
    let mut rng = Rng(seed);
    let mut lines: Vec<String> = Vec::with_capacity(len);
    while lines.len() < len {
        let line = if lines.len() > 8 && rng.below(2) == 0 {
            let recent = lines.len() - 1 - rng.below(8);
            lines[recent].clone()
        } else {
            random_line(&mut rng)
        };
        lines.push(line);
    }
    lines
}

#[test]
fn the_request_index_counts_exactly_like_a_fingerprint_lru() {
    for capacity in [0, 1, 4, 1024] {
        for seed in [1, 2, 3] {
            check_stream(capacity, seed);
        }
    }
}

fn check_stream(capacity: usize, seed: u64) {
    let engine = PlanEngine::with_cache_capacity(capacity);
    let oracle = PlanEngine::with_cache_capacity(0);
    let reference = PlanCache::new(capacity);
    // Spelling (the request without `trace`) → its fingerprint, and each
    // fingerprint → the last spelling that reached its entry.
    let mut fingerprint_of: BTreeMap<String, String> = BTreeMap::new();
    let mut last_spelling: BTreeMap<String, String> = BTreeMap::new();
    let (mut first_asks, mut index_hits) = (0, 0);
    for line in stream(seed, 300) {
        let request: PlanRequest = serde_json::from_str(&line).unwrap();
        let spelling = format!("{:?}", request.clone().trace(false));
        let reply = match (engine.plan(&request), oracle.plan(&request)) {
            (Ok(reply), Ok(expected)) => {
                assert_eq!(reply.fingerprint, expected.fingerprint, "{line}");
                assert_eq!(reply.state_hash, expected.state_hash, "{line}");
                reply
            }
            (Err(err), Err(expected)) => {
                assert_eq!(err, expected, "{line}");
                continue;
            }
            (reply, expected) => panic!("{line}: {reply:?} but {expected:?}"),
        };
        let key = Fingerprint(u64::from_str_radix(&reply.fingerprint, 16).unwrap());
        let hit = reference.get(key).is_some();
        if !hit {
            reference.insert(key, Arc::new(reply.clone()));
        }
        assert_eq!(
            reply.cache_hit, hit,
            "capacity {capacity}, seed {seed}: {line}"
        );

        let first_ask = !fingerprint_of.contains_key(&spelling);
        let index_hit = hit && last_spelling.get(&reply.fingerprint) == Some(&spelling);
        if let Some(timing) = &reply.timing {
            let names: Vec<&str> = timing.trace.children.iter().map(|c| &*c.name).collect();
            if index_hit {
                assert_eq!(names, ["cache_lookup"], "{line}");
                index_hits += 1;
            } else {
                assert!(names.contains(&"resolve"), "{line}: {names:?}");
                first_asks += usize::from(first_ask);
            }
        }
        assert!(!(first_ask && index_hit), "{line}");
        fingerprint_of.insert(spelling.clone(), reply.fingerprint.clone());
        if capacity > 0 {
            last_spelling.insert(reply.fingerprint.clone(), spelling);
        }
    }
    assert_eq!(
        engine.cache_stats(),
        reference.stats(),
        "capacity {capacity}, seed {seed}"
    );
    assert!(first_asks > 0, "capacity {capacity}, seed {seed}");
    assert_eq!(
        index_hits > 0,
        capacity > 0,
        "capacity {capacity}, seed {seed}"
    );
}
