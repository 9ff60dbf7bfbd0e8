//! Property tests of the canonical `state_hash`: invariance under DAG
//! node-insertion order, and sensitivity to every plan bit and to
//! one-ulp cost drift.

#![expect(clippy::expect_used, reason = "helpers fail by panicking")]

use hypar_comm::Parallelism;
use hypar_core::HierarchicalPlan;
use hypar_engine::{GraphNodeSpec, GraphSpec, InputSpec, PlanEngine, PlanRequest, PlanResponse};
use proptest::prelude::*;

fn graph_node(name: &str, kind: &str, inputs: &[&str]) -> GraphNodeSpec {
    GraphNodeSpec {
        name: name.to_owned(),
        kind: kind.to_owned(),
        out: None,
        kernel: None,
        stride: None,
        padding: None,
        pool: None,
        inputs: Some(inputs.iter().map(|s| (*s).to_owned()).collect()),
    }
}

/// The tiny residual block, fully wired so every listing order is a
/// valid spec, listed in the order selected by `order`.
fn tiny_res_spec(order: &[usize]) -> GraphSpec {
    let nodes = [
        GraphNodeSpec {
            out: Some(8),
            kernel: Some(3),
            ..graph_node("stem", "conv", &["input"])
        },
        GraphNodeSpec {
            out: Some(8),
            kernel: Some(3),
            ..graph_node("body", "conv", &["stem"])
        },
        graph_node("join", "add", &["stem", "body"]),
        GraphNodeSpec {
            out: Some(10),
            ..graph_node("fc", "fc", &["join"])
        },
    ];
    GraphSpec {
        name: Some("tiny-res".to_owned()),
        input: InputSpec {
            channels: 8,
            height: 16,
            width: 16,
        },
        nodes: order.iter().map(|&i| nodes[i].clone()).collect(),
    }
}

/// Re-plans on a fresh engine (no cache sharing — the hash must be
/// *recomputed*, not replayed, for the invariance to mean anything).
fn fresh_plan(request: &PlanRequest) -> PlanResponse {
    PlanEngine::new().plan(request).expect("request plans")
}

/// Rebuilds `response.plan` with `mutate`d levels and re-stamps the
/// response's hash, mimicking a build that genuinely produced the
/// mutated plan.
fn with_mutated_plan(
    response: &PlanResponse,
    mutate: impl FnOnce(&mut Vec<Vec<Parallelism>>, &mut f64),
) -> PlanResponse {
    let mut levels = response.plan.levels().to_vec();
    let mut cost = response.plan.total_comm_elems();
    mutate(&mut levels, &mut cost);
    let mut mutated = response.clone();
    mutated.plan = HierarchicalPlan::from_parts(
        mutated.plan.network().to_owned(),
        mutated.plan.layer_names().to_vec(),
        levels,
        cost,
    );
    mutated.state_hash = mutated.compute_state_hash();
    mutated
}

fn flip(p: Parallelism) -> Parallelism {
    match p {
        Parallelism::Data => Parallelism::Model,
        Parallelism::Model => Parallelism::Data,
    }
}

#[test]
fn cold_hot_and_fresh_hashes_agree_and_rederive() {
    let engine = PlanEngine::new();
    let request = PlanRequest::zoo("lenet_c").levels(3).simulate(true);
    let cold = engine.plan(&request).unwrap();
    let hot = engine.plan(&request).unwrap();
    assert!(!cold.cache_hit && hot.cache_hit);
    assert_eq!(cold.state_hash, hot.state_hash);
    assert_eq!(cold.state_hash, fresh_plan(&request).state_hash);
    assert_eq!(cold.state_hash, cold.compute_state_hash());
    assert_eq!(cold.state_hash.len(), 16, "{}", cold.state_hash);

    // Tracing is excluded from the hash, exactly like the fingerprint.
    let traced = fresh_plan(&request.clone().trace(true));
    assert!(traced.timing.is_some());
    assert_eq!(cold.state_hash, traced.state_hash);
}

#[test]
fn every_plan_bit_is_hash_visible() {
    let response = fresh_plan(&PlanRequest::zoo("lenet_c").levels(2));
    let baseline = response.compute_state_hash();
    for h in 0..response.plan.num_levels() {
        for l in 0..response.plan.num_layers() {
            let mutated = with_mutated_plan(&response, |levels, _| {
                levels[h][l] = flip(levels[h][l]);
            });
            assert_ne!(
                baseline, mutated.state_hash,
                "flipping layer {l} level {h} must change the hash"
            );
        }
    }
}

proptest! {
    /// The state hash is invariant under DAG node-insertion order: the
    /// engine canonicalizes node order before planning or hashing, so any
    /// listing of the same wired nodes re-derives the same digest — on a
    /// fresh engine each time, so nothing is served from a cache.
    #[test]
    fn state_hash_invariant_under_dag_insertion_order(
        keys in proptest::collection::vec(any::<u64>(), 4..5)
    ) {
        let mut order: Vec<usize> = (0..4).collect();
        order.sort_by_key(|&i| keys[i]);

        let canonical = fresh_plan(&PlanRequest::graph(tiny_res_spec(&[0, 1, 2, 3])).batch(32));
        let permuted = fresh_plan(&PlanRequest::graph(tiny_res_spec(&order)).batch(32));
        prop_assert_eq!(&canonical.state_hash, &permuted.state_hash,
            "order {:?} must re-derive the canonical hash", order);
        prop_assert_eq!(&canonical.fingerprint, &permuted.fingerprint);
    }

    /// Any single flipped dp/mp bit changes the hash.
    #[test]
    fn state_hash_sees_any_flipped_bit(h in 0usize..2, l in 0usize..64) {
        let response = fresh_plan(&PlanRequest::zoo("lenet_c").levels(2));
        let l = l % response.plan.num_layers();
        let mutated = with_mutated_plan(&response, |levels, _| {
            levels[h][l] = flip(levels[h][l]);
        });
        prop_assert_ne!(&response.state_hash, &mutated.state_hash);
    }

    /// Cost drift changes the hash even at one-ulp scale (bit-exact
    /// hashing, not epsilon comparison).
    #[test]
    fn state_hash_sees_cost_drift(ulps in 1u64..1_000) {
        let response = fresh_plan(&PlanRequest::zoo("lenet_c").levels(2));
        let mutated = with_mutated_plan(&response, |_, cost| {
            *cost = f64::from_bits(cost.to_bits() + ulps);
        });
        prop_assert_ne!(&response.state_hash, &mutated.state_hash);
    }
}
