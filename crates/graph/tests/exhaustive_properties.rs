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

#![expect(
    clippy::float_cmp,
    clippy::expect_used,
    reason = "assertions compare exact values; helpers fail by panicking"
)]

mod common;

use common::arb_tiny_residual;
use hypar_comm::NetworkCommTensors;
use hypar_core::exhaustive;
use hypar_graph::{best_joint_graph, partition_graph, GraphBuilder, INPUT};
use hypar_tensor::FeatureDims;
use proptest::prelude::*;

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
