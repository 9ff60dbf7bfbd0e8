//! Properties of the junction-aware refinement pass.
//!
//! Two anchors:
//!
//! * the refined plan's whole-graph cost **never exceeds** the stitched
//!   plan's — strict-improvement acceptance guarantees it on any graph
//!   and any hierarchy depth;
//! * wherever the joint exhaustive search can certify the optimum,
//!   refinement **reaches it**: on the branchy-zoo graphs within the
//!   slot limit the refined plan costs exactly what
//!   [`best_joint_graph`]'s does.  Cost-identical, not bit-identical:
//!   optimal plans can tie
//!   (e.g. Inception-Mini's tiny fc flips mp at level 0 vs level 2 for
//!   the same total), and the two searches break ties from different
//!   directions — so the certificate is the evaluated cost of each
//!   plan's own bits under the shared whole-graph model.

#![expect(clippy::expect_used, reason = "helpers fail by panicking")]

mod common;

use common::arb_tiny_residual;
use hypar_core::HierarchicalPlan;
use hypar_graph::{
    best_joint_graph, evaluate_graph_plan, partition_graph, refine_graph_plan, zoo,
    SegmentCommGraph,
};
use proptest::prelude::*;

/// The stitched plan of `graph`, refined.
fn refined(graph: &SegmentCommGraph, levels: usize) -> HierarchicalPlan {
    let stitched = partition_graph(graph, levels).expect("graphs stitch");
    refine_graph_plan(graph, &stitched)
        .expect("stitched plans refine")
        .0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The refined plan never costs more than the stitched plan it was
    /// seeded from, whatever the graph, depth, or batch.
    #[test]
    fn refined_never_exceeds_stitched(
        spec in arb_tiny_residual(),
        levels in 0usize..4,
        batch in 1u64..64,
    ) {
        let graph = spec.graph(batch);
        let stitched = partition_graph(&graph, levels).unwrap();
        let refined = refined(&graph, levels);
        prop_assert!(
            refined.total_comm_elems() <= stitched.total_comm_elems() * (1.0 + 1e-12),
            "refined {} vs stitched {}",
            refined.total_comm_elems(),
            stitched.total_comm_elems()
        );
        prop_assert_eq!(refined.layer_names(), stitched.layer_names());
        prop_assert_eq!(refined.num_levels(), stitched.num_levels());
    }

    /// Wherever the joint optimum is certifiable, refinement reaches its
    /// cost on the randomly drawn residual blocks too — bounded from
    /// **both** sides: a refined plan above the optimum means descent
    /// stopped short, one below it means the two searches priced plans
    /// differently.
    #[test]
    fn refined_reaches_the_joint_cost_on_random_residuals(
        spec in arb_tiny_residual(),
        levels in 1usize..4,
        batch in 1u64..64,
    ) {
        let graph = spec.graph(batch);
        let refined = refined(&graph, levels);
        let joint = best_joint_graph(&graph, levels).unwrap();
        prop_assert!(
            (refined.total_comm_elems() - joint.total_comm_elems()).abs()
                <= 1e-9 * joint.total_comm_elems().max(1.0),
            "refined {} vs joint {}",
            refined.total_comm_elems(),
            joint.total_comm_elems()
        );
    }
}

/// Every branchy-zoo graph at every hierarchy depth whose joint space is
/// debug-enumerable (`L·H ≤ 21`: ResNet-18's 21 layers at `H = 1`,
/// Inception-Mini's 8 layers at `H ≤ 2`): the refined plan's cost is the
/// certified joint optimum's, and both plans' bits evaluate to that same
/// cost under the shared whole-graph model.  The 24-slot boundary itself
/// (16.8M candidates — too slow for the debug test suite) is certified in
/// release by
/// the `greedy_gap_branchy` experiment.
#[test]
fn refined_matches_the_joint_optimum_cost_on_the_zoo_within_the_bound() {
    let mut certified = 0;
    for name in zoo::NAMES {
        let graph = zoo::by_name(name).unwrap().segments(64).unwrap();
        for levels in 1usize..=4 {
            if graph.num_layers() * levels > 21 {
                continue;
            }
            let refined = refined(&graph, levels);
            let joint = best_joint_graph(&graph, levels).unwrap();
            let tolerance = 1e-9 * joint.total_comm_elems().max(1.0);
            assert!(
                (refined.total_comm_elems() - joint.total_comm_elems()).abs() <= tolerance,
                "{name} H{levels}: refined {} vs joint {}",
                refined.total_comm_elems(),
                joint.total_comm_elems()
            );
            // Certify each plan's own bits under the shared evaluator
            // (optimal plans may tie with different bits, so cost — not
            // the bit pattern — is the certificate).
            for plan in [&refined, &joint] {
                let evaluated = evaluate_graph_plan(&graph, plan.levels()).unwrap();
                assert!(
                    (evaluated - joint.total_comm_elems()).abs() <= tolerance,
                    "{name} H{levels}: bits evaluate to {evaluated}, joint {}",
                    joint.total_comm_elems()
                );
            }
            certified += 1;
        }
    }
    assert!(certified >= 3, "expected coverage, certified {certified}");
}
