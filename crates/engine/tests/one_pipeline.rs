//! One pipeline, checked against the chain API.
//!
//! The engine plans a chain as the one-segment graph
//! (`SegmentCommGraph::chain`).  The oracle here is the chain API — the
//! chain planners, evaluator and simulator keyed by the chain
//! fingerprint, the composition the service benchmark's traced pass also
//! uses.  Every reply must equal the oracle's bit for bit, at every
//! depth: both sides price plans with the one exact evaluator, so a zero
//! total at `levels: 0` is `+0` on both.

#![expect(clippy::unwrap_used, reason = "helpers fail by panicking")]

use hypar_comm::{NetworkCommTensors, Parallelism};
use hypar_core::refine::{refine_partition_reported, DescentReport};
use hypar_core::{baselines, evaluate::evaluate_plan, exhaustive, hierarchical, HierarchicalPlan};
use hypar_engine::fingerprint::fingerprint;
use hypar_engine::{service, PlanEngine, PlanRequest, PlanResponse, Strategy};
use hypar_models::{zoo, NetworkShapes};
use hypar_sim::{training, ArchConfig};

const LEVELS: [usize; 7] = [0, 1, 2, 3, 4, 8, 16];
const BATCHES: [u64; 2] = [1, 256];
const STRATEGIES: [Strategy; 7] = [
    Strategy::Hypar,
    Strategy::Dp,
    Strategy::Mp,
    Strategy::Owt,
    Strategy::Refined,
    Strategy::Explicit,
    Strategy::Exhaustive,
];
/// The largest `exhaustive` search the matrix runs (`layers × levels`).
const EXHAUSTIVE_SLOTS: usize = 12;
/// The deepest hierarchy the matrix also simulates.
const SIMULATE_LEVELS: usize = 8;

/// Seeded dp/mp bit strings for `explicit`, one per level (xorshift64).
fn random_bits(state: &mut u64, layers: usize, levels: usize) -> Vec<String> {
    (0..levels)
        .map(|_| {
            (0..layers)
                .map(|_| {
                    *state ^= *state << 13;
                    *state ^= *state >> 7;
                    *state ^= *state << 17;
                    if *state & 1 == 1 {
                        '1'
                    } else {
                        '0'
                    }
                })
                .collect()
        })
        .collect()
}

fn parse_bits(bits: &[String]) -> Vec<Vec<Parallelism>> {
    bits.iter()
        .map(|level| {
            level
                .chars()
                .map(|c| Parallelism::from_bit(c == '1'))
                .collect()
        })
        .collect()
}

/// The chain API's reply to a zoo-chain request, with the refine report
/// for `refined`.
fn oracle(request: &PlanRequest, name: &str) -> (PlanResponse, Option<DescentReport>) {
    let shapes = NetworkShapes::infer(&zoo::by_name(name).unwrap(), request.batch).unwrap();
    let net = NetworkCommTensors::from_shapes(&shapes);
    let cfg = ArchConfig::paper().with_topology(request.topology);
    let levels = request.levels;
    let names: Vec<String> = net.layers().iter().map(|l| l.name.clone()).collect();
    let bits = request.assignments.as_deref().map(parse_bits);
    let mut report = None;
    let plan = match request.strategy {
        Strategy::Hypar => hierarchical::partition(&net, levels),
        Strategy::Dp => baselines::all_data(&net, levels),
        Strategy::Mp => baselines::all_model(&net, levels),
        Strategy::Owt => baselines::one_weird_trick(&net, levels),
        Strategy::Refined => {
            let (plan, descent) = refine_partition_reported(&net, levels);
            report = Some(descent);
            plan
        }
        Strategy::Exhaustive => {
            let (cost, best) = exhaustive::best_joint(&net, levels).unwrap();
            HierarchicalPlan::from_parts(net.name(), names, best, cost)
        }
        Strategy::Explicit => {
            let assigned = bits.clone().unwrap();
            let cost = evaluate_plan(&net, &assigned).total_elems();
            HierarchicalPlan::from_parts(net.name(), names, assigned, cost)
        }
    };
    let simulation = request
        .simulate
        .then(|| training::simulate_step(&shapes, &plan, &cfg).unwrap());
    let key = fingerprint(
        &net,
        levels,
        request.strategy,
        bits.as_deref(),
        &cfg,
        request.simulate,
    );
    let mut response = PlanResponse {
        network: net.name().to_owned(),
        batch: net.batch(),
        levels,
        accelerators: plan.num_accelerators(),
        strategy: request.strategy,
        fingerprint: key.to_string(),
        state_hash: String::new(),
        cache_hit: false,
        total_comm_elems: plan.total_comm_elems(),
        total_comm_bytes: plan.total_comm_bytes().value(),
        plan,
        simulation,
        timing: None,
    };
    response.state_hash = response.compute_state_hash();
    (response, report)
}

/// Plans `request` for the zoo chain `name` and asserts that the reply —
/// and, for `refined`, the `refine` span's counters — equal the oracle's.
fn check(engine: &PlanEngine, request: &PlanRequest, name: &str) {
    let case = format!(
        "{name} {} L{} b{} sim={}",
        request.strategy, request.levels, request.batch, request.simulate
    );
    let (expected, report) = oracle(request, name);
    let mut reply = engine.plan(request).unwrap();
    if let Some(report) = report {
        let timing = reply.timing.take().unwrap();
        let refine = timing.trace.find("refine").unwrap();
        assert_eq!(
            refine.counter("sweeps"),
            Some(report.sweeps as u64),
            "{case}"
        );
        assert_eq!(refine.counter("flips"), Some(report.flips), "{case}");
    }
    assert_eq!(reply.state_hash, expected.state_hash, "{case}");
    assert_eq!(
        serde_json::to_string(&reply).unwrap(),
        serde_json::to_string(&expected).unwrap(),
        "{case}"
    );
}

/// Every strategy × level × batch, simulate off and (at shallow depths)
/// on, for one zoo chain; returns the number of requests checked.
fn check_chain(name: &str, seed: u64) -> usize {
    // Capacity 0: every request computes, so every `refined` reply
    // carries its own `refine` span.
    let engine = PlanEngine::with_cache_capacity(0);
    let layers = zoo::by_name(name).unwrap().num_layers();
    let mut state = seed;
    let mut checked = 0;
    for strategy in STRATEGIES {
        for levels in LEVELS {
            if strategy == Strategy::Exhaustive && layers * levels > EXHAUSTIVE_SLOTS {
                continue;
            }
            for batch in BATCHES {
                for simulate in [false, true] {
                    if simulate && levels > SIMULATE_LEVELS {
                        continue;
                    }
                    let mut request = PlanRequest::zoo(name)
                        .levels(levels)
                        .batch(batch)
                        .strategy(strategy)
                        .simulate(simulate)
                        .trace(strategy == Strategy::Refined);
                    if strategy == Strategy::Explicit {
                        request = request.assignments(random_bits(&mut state, layers, levels));
                    }
                    check(&engine, &request, name);
                    checked += 1;
                }
            }
        }
    }
    checked
}

#[test]
fn small_chains_reply_what_the_chain_api_composes() {
    let checked: usize = ["SFC", "SCONV", "Lenet-c", "Cifar-c", "AlexNet"]
        .into_iter()
        .zip(1..)
        .map(|(name, seed)| check_chain(name, seed))
        .sum();
    assert!(checked > 800, "{checked}");
}

#[test]
fn vgg_chains_reply_what_the_chain_api_composes() {
    let checked: usize = ["VGG-A", "VGG-B", "VGG-C", "VGG-D", "VGG-E"]
        .into_iter()
        .zip(6..)
        .map(|(name, seed)| check_chain(name, seed))
        .sum();
    assert!(checked > 700, "{checked}");
}

/// The two chain-zoo points, of 2,560 probed (every zoo chain × 16
/// batches from 1 to 4,096 × levels 1–16), where visiting a chain's end
/// layers first instead of in layer order changes the refine sweep count.
/// They pin that the one pipeline refines a chain in layer order.
#[test]
fn refine_visits_a_chain_in_layer_order() {
    let engine = PlanEngine::with_cache_capacity(0);
    for (name, batch, levels) in [("Lenet-c", 48, 5), ("AlexNet", 1000, 9)] {
        let request = PlanRequest::zoo(name)
            .levels(levels)
            .batch(batch)
            .strategy(Strategy::Refined)
            .trace(true);
        check(&engine, &request, name);
    }
}

/// `VGG-A`'s layers as an inline network, spelled as `layers` or as
/// branch-free `nodes`.
fn vgg_a_inline(field: &str) -> PlanRequest {
    let mut layers = Vec::new();
    for (block, (convs, out)) in [(1, 64), (1, 128), (2, 256), (2, 512), (2, 512)]
        .into_iter()
        .enumerate()
    {
        for c in 0..convs {
            let pool = if c + 1 == convs { r#", "pool": 2"# } else { "" };
            layers.push(format!(
                r#"{{"name": "conv{block}_{c}", "kind": "conv", "out": {out}, "kernel": 3{pool}}}"#
            ));
        }
    }
    for (i, out) in [4096, 4096, 1000].into_iter().enumerate() {
        layers.push(format!(
            r#"{{"name": "fc{i}", "kind": "fc", "out": {out}}}"#
        ));
    }
    let line = format!(
        r#"{{"network": {{"name": "inline", "input": {{"channels": 3, "height": 224, "width": 224}}, "{field}": [{}]}}, "levels": 4, "batch": 64, "strategy": "refined"}}"#,
        layers.join(", ")
    );
    serde_json::from_str(&line).unwrap()
}

#[test]
fn inline_layers_and_branch_free_nodes_share_one_cache_entry() {
    let engine = PlanEngine::new();
    let layers = engine.plan(&vgg_a_inline("layers")).unwrap();
    let nodes = engine.plan(&vgg_a_inline("nodes")).unwrap();
    assert!(!layers.cache_hit);
    assert!(
        nodes.cache_hit,
        "the nodes spelling must hit the layers entry"
    );
    assert_eq!(nodes.fingerprint, layers.fingerprint);
    assert_eq!(nodes.state_hash, layers.state_hash);
    let stats = engine.cache_stats();
    assert_eq!((stats.entries, stats.misses, stats.hits), (1, 1, 1));
    // And both are the zoo network under another name.
    let zoo = engine
        .plan(
            &PlanRequest::zoo("vgg_a")
                .levels(4)
                .batch(64)
                .strategy(Strategy::Refined),
        )
        .unwrap();
    assert!(zoo.cache_hit);
    assert_eq!(zoo.fingerprint, layers.fingerprint);
}

#[test]
fn zero_levels_reply_a_positive_zero_total() {
    let engine = PlanEngine::new();
    for network in [
        r#""vgg_a""#,
        r#""resnet18""#,
        r#"{"input": {"channels": 1, "height": 1, "width": 16}, "layers": [{"kind": "fc", "out": 8}, {"kind": "fc", "out": 2}]}"#,
    ] {
        for strategy in ["hypar", "dp", "refined", "exhaustive"] {
            let line =
                format!(r#"{{"network": {network}, "levels": 0, "strategy": "{strategy}"}}"#);
            let reply = service::handle_line(&engine, &line);
            assert!(
                reply.contains(r#""total_comm_elems":0,"#)
                    && reply.contains(r#""total_comm_bytes":0,"#)
                    && !reply.contains(r#""total_comm_elems":-0"#),
                "{line}: {reply}"
            );
        }
    }
}
