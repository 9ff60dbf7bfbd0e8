//! Brute-force **joint** search over whole-DAG parallelism assignments.
//!
//! The segment-stitched planner ([`crate::partition_graph`]) is greedy in
//! two directions: Algorithm 2 commits level by level inside each segment,
//! and the segments are planned independently of the junction traffic
//! between them.  This module enumerates the full `2^{L·H}` joint space —
//! every dp/mp choice for every weighted layer of every segment at every
//! hierarchy level at once, with the inter-segment junctions priced by the
//! same model the stitcher ([`crate::stitch`]) uses — so the stitched
//! planner's *greedy gap* can be quantified on small branchy networks the
//! way Figures 9/10 quantify it for chains.
//!
//! The enumeration is [`hypar_core::exhaustive::best_joint_terms`] — one
//! Gray-code walk pricing each flip in `O(1 + degree)`, under the same
//! feasibility bound — on the whole graph's cost terms; for a chain (one
//! segment, no edges) the search — cost and tie-breaking — is
//! bit-identical to [`hypar_core::exhaustive::best_joint`] on that chain
//! (property-tested).

use hypar_core::exhaustive::{best_joint_terms, ExhaustiveError};
use hypar_core::HierarchicalPlan;

use crate::segments::SegmentCommGraph;

/// Exhaustively finds the minimum-communication **joint** plan over all
/// segments and levels of a branchy DAG at once (`O(2^{L·H})`).
///
/// The returned plan concatenates the layers in canonical segment order —
/// the same layout [`crate::stitch`] produces — and its total is directly
/// comparable to the stitched planner's: candidates are compared by the
/// exact total [`crate::evaluate_graph_plan`] rounds, and among equal
/// costs the smallest bit pattern wins.  The joint optimum is therefore a
/// lower bound on every stitched plan's cost.
///
/// Bit `h·L + l` of a pattern is layer `l`'s choice at level `h` (LSB
/// first, `0` = dp, `1` = mp) — for a single-segment graph this is
/// exactly [`hypar_core::exhaustive::best_joint`]'s layout.
///
/// # Errors
///
/// Returns [`ExhaustiveError::Empty`] for a graph without weighted layers
/// and [`ExhaustiveError::TooLarge`] when `L·H` exceeds
/// [`hypar_core::exhaustive::SLOT_LIMIT`].
///
/// # Examples
///
/// ```
/// use hypar_graph::{exhaustive::best_joint_graph, partition_graph, zoo};
///
/// let graph = zoo::inception_mini().segments(64)?;   // 8 layers
/// let joint = best_joint_graph(&graph, 2).unwrap();  // 2^16 joint plans
/// let stitched = partition_graph(&graph, 2)?;
/// assert!(joint.total_comm_elems() <= stitched.total_comm_elems());
/// # Ok::<(), hypar_graph::GraphError>(())
/// ```
pub fn best_joint_graph(
    graph: &SegmentCommGraph,
    num_levels: usize,
) -> Result<HierarchicalPlan, ExhaustiveError> {
    let (best_cost, levels) = best_joint_terms(&graph.cost_terms(), num_levels)?;
    let names = graph
        .segments()
        .iter()
        .flat_map(|s| s.layers())
        .map(|l| l.name.clone())
        .collect();
    Ok(HierarchicalPlan::from_parts(
        graph.name(),
        names,
        levels,
        best_cost as f64,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::GraphBuilder;
    use crate::node::INPUT;
    use crate::plan::{evaluate_graph_plan, partition_graph};
    use hypar_models::ConvSpec;
    use hypar_tensor::FeatureDims;

    fn tiny_residual_graph(batch: u64) -> SegmentCommGraph {
        let mut g = GraphBuilder::new("tiny-res", FeatureDims::new(8, 16, 16));
        g.conv("stem", ConvSpec::same(8, 3), INPUT)
            .conv("body", ConvSpec::same(8, 3), "stem")
            .add("join", &["stem", "body"])
            .fully_connected("fc", 10, "join");
        g.build().unwrap().segments(batch).unwrap()
    }

    #[test]
    fn joint_cost_matches_evaluate_graph_plan() {
        // The enumeration and the public whole-graph evaluator must agree
        // on the winning plan.
        let graph = tiny_residual_graph(32);
        let joint = best_joint_graph(&graph, 3).unwrap();
        let recomputed = evaluate_graph_plan(&graph, joint.levels()).unwrap();
        assert_eq!(joint.total_comm_elems(), recomputed);
    }

    #[test]
    fn joint_lower_bounds_the_stitched_planner() {
        let graph = tiny_residual_graph(32);
        for levels in [1usize, 2, 4] {
            let joint = best_joint_graph(&graph, levels).unwrap().total_comm_elems();
            let stitched = partition_graph(&graph, levels).unwrap().total_comm_elems();
            assert!(
                joint <= stitched * (1.0 + 1e-12),
                "H{levels}: joint {joint} vs stitched {stitched}"
            );
        }
    }

    #[test]
    fn joint_plan_carries_canonical_layout() {
        let graph = tiny_residual_graph(32);
        let joint = best_joint_graph(&graph, 2).unwrap();
        assert_eq!(joint.network(), "tiny-res");
        assert_eq!(
            joint.layer_names(),
            &["stem".to_owned(), "body".to_owned(), "fc".to_owned()]
        );
        assert_eq!(joint.num_levels(), 2);
    }

    #[test]
    fn infeasible_and_empty_graphs_are_typed_errors() {
        let graph = tiny_residual_graph(32);
        // 3 layers x 16 levels = 48 slots.
        assert_eq!(
            best_joint_graph(&graph, 16).unwrap_err(),
            ExhaustiveError::TooLarge { slots: 48 }
        );
    }

    #[test]
    fn zero_levels_joint_plan_is_trivial() {
        let graph = tiny_residual_graph(32);
        let joint = best_joint_graph(&graph, 0).unwrap();
        assert_eq!(joint.num_levels(), 0);
        assert_eq!(joint.total_comm_elems(), 0.0);
        assert_eq!(joint.num_accelerators(), 1);
    }
}
