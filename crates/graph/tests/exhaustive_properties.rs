//! Properties of the joint DAG exhaustive search.
//!
//! Two anchors:
//!
//! * on **chain-shaped** DAGs, [`hypar_graph::best_joint_graph`] must be
//!   **bit-identical** to [`hypar_core::exhaustive::best_joint`] on the
//!   linearized network — same winning assignment, same cost to the last
//!   float — because the single-segment enumeration *is* the chain
//!   enumeration;
//! * on genuinely **branchy** DAGs, the stitched greedy plan
//!   ([`hypar_graph::partition_graph`]) can never beat the joint optimum:
//!   the stitched plan's levels are one point of the joint space, and
//!   [`hypar_graph::evaluate_graph_plan`] prices both identically.
//!
//! And one oracle: the search walks the patterns in Gray-code order, and
//! must pick the winner of the counting-order enumeration that priced
//! every pattern whole — the first minimum, so the smallest pattern
//! among equal costs.

#![expect(
    clippy::float_cmp,
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "assertions compare exact values; helpers fail by panicking"
)]

mod common;

use common::{arb_tiny_residual, oracle};
use hypar_comm::{CostTerms, JunctionScaling, NetworkCommTensors, Parallelism};
use hypar_core::exhaustive::{self, assignment_from_bits, assignment_space};
use hypar_graph::{best_joint_graph, partition_graph, zoo, GraphBuilder, SegmentCommGraph, INPUT};
use hypar_tensor::FeatureDims;
use proptest::prelude::*;

/// The joint search as it ran before the Gray walk: every pattern in
/// counting order, each priced whole; the first minimum wins.
fn best_by_counting(terms: &CostTerms, num_levels: usize) -> (u128, Vec<Vec<Parallelism>>) {
    let len = terms.num_layers();
    let mut levels = vec![vec![Parallelism::Data; len]; num_levels];
    let (best_cost, best_bits) = assignment_space(len * num_levels)
        .unwrap()
        .map(|bits| {
            for (h, level) in levels.iter_mut().enumerate() {
                for (l, choice) in level.iter_mut().enumerate() {
                    *choice = Parallelism::from_bit(bits >> (h * len + l) & 1 == 1);
                }
            }
            (terms.total(&levels, JunctionScaling::Consumer), bits)
        })
        .min_by_key(|&(cost, _)| cost)
        .unwrap_or_default();
    let levels = (0..num_levels)
        .map(|h| assignment_from_bits(best_bits >> (h * len), len))
        .collect();
    (best_cost, levels)
}

/// `best_joint_graph` against the counting oracle: the same plan, and its
/// total the oracle's minimum rounded once.
fn assert_walk_matches_the_oracle(graph: &SegmentCommGraph, depth: usize) {
    let joint = best_joint_graph(graph, depth).unwrap();
    let (cost, levels) = best_by_counting(&graph.cost_terms(), depth);
    let case = format!("{} b{} H{depth}", graph.name(), graph.batch());
    assert_eq!(joint.levels(), &levels[..], "{case}");
    assert_eq!(joint.total_comm_elems(), cost as f64, "{case}");
    let definition = oracle(graph, &levels, JunctionScaling::Consumer);
    assert_eq!(joint.total_comm_elems(), definition, "{case}");
}

/// Every case of at most 16 slots in the branchy zoo and the trimmed
/// nets, at five batches.
#[test]
fn gray_walk_picks_the_counting_winner_on_both_branchy_sets() {
    let mut cases = 0;
    for dag in zoo::all().iter().chain(&zoo::trimmed()) {
        for batch in [1, 7, 64, 256, 4127] {
            let graph = dag.segments(batch).unwrap();
            for depth in (0..=16).take_while(|depth| graph.num_layers() * depth <= 16) {
                assert_walk_matches_the_oracle(&graph, depth);
                cases += 1;
            }
        }
    }
    assert!(cases >= 80, "covered {cases} cases");
}

/// A randomly drawn tiny chain (kept small: the joint space is `2^{L·H}`).
#[derive(Clone, Debug)]
struct TinyChain {
    in_features: u64,
    fcs: Vec<u64>,
}

impl TinyChain {
    fn dag(&self) -> hypar_graph::DagNetwork {
        let mut g = GraphBuilder::new("tiny", FeatureDims::new(1, 1, self.in_features));
        let mut prev = INPUT.to_owned();
        for (i, &out) in self.fcs.iter().enumerate() {
            let name = format!("fc{i}");
            g.fully_connected(&name, out, &prev);
            prev = name;
        }
        g.build().expect("generated chains are valid")
    }
}

fn arb_tiny_chain() -> impl Strategy<Value = TinyChain> {
    (1u64..128, proptest::collection::vec(1u64..128, 1..4))
        .prop_map(|(in_features, fcs)| TinyChain { in_features, fcs })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Chain-shaped DAGs: the joint graph search reproduces the chain
    /// joint search bit for bit — winning levels and cost.
    #[test]
    fn chain_joint_search_is_bit_identical(
        spec in arb_tiny_chain(),
        levels in 0usize..4,
        batch in 1u64..64,
    ) {
        let dag = spec.dag();
        let graph = dag.segments(batch).unwrap();
        prop_assert_eq!(graph.num_segments(), 1);

        let chain = NetworkCommTensors::from_network(&dag.linearize().unwrap(), batch).unwrap();
        let (chain_cost, chain_levels) = exhaustive::best_joint(&chain, levels).unwrap();
        let joint = best_joint_graph(&graph, levels).unwrap();

        prop_assert_eq!(joint.levels(), &chain_levels[..]);
        prop_assert_eq!(joint.total_comm_elems(), chain_cost);
    }

    /// Random residual DAGs: the Gray walk picks the counting winner.
    #[test]
    fn gray_walk_picks_the_counting_winner_on_random_residuals(
        spec in arb_tiny_residual(),
        levels in 0usize..4,
        batch in 1u64..4301,
    ) {
        assert_walk_matches_the_oracle(&spec.graph(batch), levels);
    }

    /// Branchy DAGs: the stitched greedy plan's cost is always at least
    /// the joint optimum's (the joint space contains every stitched plan).
    #[test]
    fn stitched_greedy_never_beats_the_joint_optimum(
        spec in arb_tiny_residual(),
        levels in 1usize..4,
        batch in 1u64..64,
    ) {
        let graph = spec.graph(batch);
        prop_assert!(graph.num_segments() > 1, "residual blocks are branchy");
        let stitched = partition_graph(&graph, levels).unwrap().total_comm_elems();
        let joint = best_joint_graph(&graph, levels).unwrap().total_comm_elems();
        prop_assert!(
            joint <= stitched * (1.0 + 1e-12),
            "joint {} vs stitched {}", joint, stitched
        );
        // Cross-check the enumeration against the public evaluator on the
        // stitched point itself.
        let evaluated = hypar_graph::evaluate_graph_plan(
            &graph,
            partition_graph(&graph, levels).unwrap().levels(),
        ).unwrap();
        prop_assert!((evaluated - stitched).abs() <= 1e-9 * stitched.max(1.0));
    }
}
