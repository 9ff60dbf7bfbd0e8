//! Junction-aware refinement of stitched plans.
//!
//! The segment-stitched planner ([`crate::partition_graph`]) plans every
//! segment blind to the junction traffic between segments, and the
//! `greedy_gap_branchy` experiment measures the price: 1.35–3.07x above
//! the joint optimum on trimmed branchy nets, far beyond the chain greedy
//! gap of Figures 9/10.  The joint search
//! ([`crate::exhaustive::best_joint_graph`]) closes the gap exactly but
//! is `O(2^{L·H})` and slot-capped at 24 — unusable for real networks.
//!
//! This module recovers most of the gap polynomially, in the spirit of
//! FlexFlow's local search over its MCMC-proposed strategy space and
//! Tofu's per-group DP recursion: seed from the stitched plan, then run
//! [`hypar_core::refine::descend`] — coordinate descent that re-decides
//! each layer's per-level dp/mp bit against the **true whole-graph cost**
//! (the total [`crate::evaluate_graph_plan`] rounds: intra-segment
//! traffic plus junction pricing), sweeping segment-**boundary** layers
//! first (they are the ones the stitcher priced blindly), iterating to a
//! fixed point under strict-improvement acceptance so the cost decreases
//! monotonically and the refined plan never exceeds the stitched one.
//!
//! One sweep is `O(L·H)` bit re-decisions, each priced exactly in
//! `O(1 + degree)` by a [`hypar_comm::FlipPricer`] over the whole graph's
//! cost terms, built once per pass, and the sweep count is capped
//! ([`hypar_core::refine::MAX_SWEEPS`]) — polynomial throughout, so
//! refinement runs where the exhaustive search is a typed rejection
//! (ResNet-18 at `H = 4` is 84 slots).

use hypar_core::refine::{descend, DescentReport};
use hypar_core::HierarchicalPlan;

use crate::error::GraphError;
use crate::plan::check_graph_levels;
use crate::segments::SegmentCommGraph;

/// The per-sweep layer visiting order.  With several segments:
/// segment-boundary layers (each segment's first and last weighted layer
/// — the endpoints every [`crate::SegmentEdge`] prices) first, in
/// canonical order, then the interior layers.  Boundary bits are the ones
/// the stitcher decided blind to junction traffic, so settling them first
/// converges faster.  A one-segment graph (a chain) has no junctions to
/// settle, so it is visited in natural layer order, and the descent
/// repeats [`hypar_core::refine::refine_partition_reported`] flip for
/// flip.
#[must_use]
pub fn boundary_first_order(graph: &SegmentCommGraph) -> Vec<usize> {
    if graph.num_segments() == 1 {
        return (0..graph.num_layers()).collect();
    }
    let mut boundary = Vec::new();
    let mut interior = Vec::new();
    let mut offset = 0;
    for segment in graph.segments() {
        let len = segment.len();
        for l in offset..offset + len {
            if l == offset || l == offset + len - 1 {
                boundary.push(l);
            } else {
                interior.push(l);
            }
        }
        offset += len;
    }
    boundary.extend(interior);
    boundary
}

/// Refines a whole-graph plan (layers in canonical segment order, as
/// produced by [`crate::stitch`] or [`crate::partition_graph`]) by
/// junction-aware coordinate descent, returning the refined plan and the
/// descent report.
///
/// The refined plan's total is its levels' cost under
/// [`crate::evaluate_graph_plan`] — the same model the stitcher, the
/// joint search, and the engine's `explicit` strategy use — and is never
/// greater than the seed plan's evaluated cost.
///
/// # Errors
///
/// Returns [`GraphError::StitchMismatch`] if the seed plan does not cover
/// every weighted layer of the graph at every level.
///
/// # Examples
///
/// ```
/// use hypar_graph::{partition_graph, refine::refine_graph_plan, zoo};
///
/// let graph = zoo::inception_mini().segments(64)?;
/// let stitched = partition_graph(&graph, 3)?;
/// let (refined, report) = refine_graph_plan(&graph, &stitched)?;
/// assert!(refined.total_comm_elems() <= stitched.total_comm_elems());
/// assert_eq!(report.seed_cost, stitched.total_comm_elems());
/// # Ok::<(), hypar_graph::GraphError>(())
/// ```
pub fn refine_graph_plan(
    graph: &SegmentCommGraph,
    seed: &HierarchicalPlan,
) -> Result<(HierarchicalPlan, DescentReport), GraphError> {
    let mut levels = seed.levels().to_vec();
    check_graph_levels(graph, &levels)?;
    let order = boundary_first_order(graph);
    let report = descend(&mut levels, &order, &graph.cost_terms());
    let refined = HierarchicalPlan::from_parts(
        graph.name(),
        seed.layer_names().to_vec(),
        levels,
        report.refined_cost,
    );
    Ok((refined, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::GraphBuilder;
    use crate::exhaustive::best_joint_graph;
    use crate::node::INPUT;
    use crate::plan::{evaluate_graph_plan, partition_graph};
    use crate::zoo;
    use hypar_core::refine::refine_partition_reported;
    use hypar_models::{zoo as chain_zoo, ConvSpec, NetworkShapes};
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
    fn boundary_layers_come_first() {
        let graph = tiny_residual_graph(32);
        // Three single-layer segments: every layer is a boundary layer.
        assert_eq!(boundary_first_order(&graph), vec![0, 1, 2]);

        let graph = zoo::inception_mini().segments(64).unwrap();
        let order = boundary_first_order(&graph);
        assert_eq!(order.len(), graph.num_layers());
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..graph.num_layers()).collect::<Vec<_>>());
        // The tail segment (conv2 + fc) contributes both its endpoints to
        // the boundary prefix; interior layers (none here are interior
        // except in multi-layer segments) come last.
        let boundary_count = graph
            .segments()
            .iter()
            .map(|s| if s.len() == 1 { 1 } else { 2 })
            .sum::<usize>();
        assert!(order.len() >= boundary_count);
    }

    #[test]
    fn a_chain_is_visited_in_natural_order() {
        let shapes = NetworkShapes::infer(&chain_zoo::vgg_a(), 64).unwrap();
        let graph = SegmentCommGraph::chain(shapes);
        assert_eq!(
            boundary_first_order(&graph),
            (0..graph.num_layers()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_chain_refines_flip_for_flip_like_the_chain_pass() {
        for name in ["SFC", "Lenet-c", "AlexNet", "VGG-A"] {
            let shapes = NetworkShapes::infer(&chain_zoo::by_name(name).unwrap(), 256).unwrap();
            let net = hypar_comm::NetworkCommTensors::from_shapes(&shapes);
            let graph = SegmentCommGraph::chain(shapes);
            for levels in [1usize, 2, 4, 8] {
                let (chain, chain_report) = refine_partition_reported(&net, levels);
                let stitched = partition_graph(&graph, levels).unwrap();
                let (refined, report) = refine_graph_plan(&graph, &stitched).unwrap();
                assert_eq!(refined, chain, "{name} H{levels}");
                assert_eq!(report, chain_report, "{name} H{levels}");
            }
        }
    }

    #[test]
    fn refined_cost_is_the_evaluated_cost_of_its_levels() {
        let graph = tiny_residual_graph(32);
        let stitched = partition_graph(&graph, 4).unwrap();
        let (refined, report) = refine_graph_plan(&graph, &stitched).unwrap();
        let recomputed = evaluate_graph_plan(&graph, refined.levels()).unwrap();
        assert_eq!(refined.total_comm_elems(), recomputed);
        assert_eq!(report.refined_cost, refined.total_comm_elems());
        assert_eq!(report.seed_cost, stitched.total_comm_elems());
    }

    #[test]
    fn refinement_matches_the_joint_optimum_on_the_tiny_residual() {
        // Small enough to certify against the exhaustive joint search.
        let graph = tiny_residual_graph(32);
        for levels in [1usize, 2, 3, 4] {
            let stitched = partition_graph(&graph, levels).unwrap();
            let (refined, _) = refine_graph_plan(&graph, &stitched).unwrap();
            let joint = best_joint_graph(&graph, levels).unwrap();
            assert!(
                refined.total_comm_elems() <= joint.total_comm_elems() * (1.0 + 1e-12),
                "H{levels}: refined {} vs joint {}",
                refined.total_comm_elems(),
                joint.total_comm_elems()
            );
        }
    }

    #[test]
    fn refinement_runs_where_the_joint_search_is_infeasible() {
        // ResNet-18 at H=4 is 84 slots — the exhaustive search is a typed
        // rejection, the refinement pass just runs.
        let graph = zoo::resnet18().segments(64).unwrap();
        assert!(crate::exhaustive::best_joint_graph(&graph, 4).is_err());
        let stitched = partition_graph(&graph, 4).unwrap();
        let (refined, report) = refine_graph_plan(&graph, &stitched).unwrap();
        assert!(refined.total_comm_elems() <= stitched.total_comm_elems());
        assert!(report.sweeps <= hypar_core::refine::MAX_SWEEPS);
        assert_eq!(refined.num_layers(), 21);
    }

    #[test]
    fn mismatched_seed_is_a_typed_error() {
        let graph = tiny_residual_graph(32);
        let bogus = HierarchicalPlan::from_parts(
            "bogus",
            vec!["a".into(), "b".into()],
            vec![vec![hypar_comm::Parallelism::Data; 2]; 2],
            0.0,
        );
        assert_eq!(
            refine_graph_plan(&graph, &bogus).unwrap_err(),
            GraphError::StitchMismatch {
                what: "weighted layers covered by a level",
                expected: 3,
                got: 2,
            }
        );
    }

    #[test]
    fn zero_level_seed_is_a_fixed_point() {
        let graph = tiny_residual_graph(32);
        let stitched = partition_graph(&graph, 0).unwrap();
        let (refined, report) = refine_graph_plan(&graph, &stitched).unwrap();
        assert_eq!(refined.num_levels(), 0);
        assert_eq!(refined.total_comm_elems(), 0.0);
        assert_eq!(report.flips, 0);
    }
}
