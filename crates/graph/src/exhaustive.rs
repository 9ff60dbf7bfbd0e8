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
//! The enumeration shares [`hypar_core::exhaustive`]'s validated
//! [`AssignmentSpace`](hypar_core::exhaustive::AssignmentSpace) and
//! feasibility bound; for a chain (one segment, no edges) the search —
//! iteration order, cost arithmetic, and tie-breaking — is bit-identical
//! to [`hypar_core::exhaustive::best_joint`] on that chain
//! (property-tested), apart from the sign of a zero total at `H = 0`.

use hypar_comm::{inter_elems, Parallelism};
use hypar_core::exhaustive::{assignment_from_bits, assignment_space, ExhaustiveError};
use hypar_core::HierarchicalPlan;

use crate::segments::SegmentCommGraph;

/// Exhaustively finds the minimum-communication **joint** plan over all
/// segments and levels of a branchy DAG at once (`O(2^{L·H})`).
///
/// The returned plan concatenates the layers in canonical segment order —
/// the same layout [`crate::stitch`] produces — and its total is directly
/// comparable to the stitched planner's: both price intra-segment traffic
/// with [`hypar_core::evaluate::evaluate_plan`]'s model and junctions with
/// [`crate::stitch`]'s.  The joint optimum is therefore a lower bound on
/// every stitched plan's cost.
///
/// Bit `h·L + l` of the enumeration is layer `l`'s choice at level `h`
/// (LSB first, `0` = dp, `1` = mp) — for a single-segment graph this is
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
    let num_layers = graph.num_layers();
    if num_layers == 0 {
        return Err(ExhaustiveError::Empty);
    }
    let space = assignment_space(num_layers * num_levels)?;

    // Flattened views so the inner loop is allocation-free: per-layer
    // tensors in canonical segment order, segment ranges, and edges
    // resolved to global boundary-layer indices.
    let layers: Vec<&hypar_comm::LayerCommTensors> =
        graph.segments().iter().flat_map(|s| s.layers()).collect();
    let mut ranges = Vec::with_capacity(graph.num_segments());
    let mut offset = 0;
    for segment in graph.segments() {
        ranges.push((offset, offset + segment.len()));
        offset += segment.len();
    }
    let edges: Vec<(usize, usize, f64)> = graph
        .edges()
        .iter()
        .map(|e| (ranges[e.from].1 - 1, ranges[e.to].0, e.elems))
        .collect();

    let choice = |bits: u64, h: usize, l: usize| -> Parallelism {
        Parallelism::from_bit(bits >> (h * num_layers + l) & 1 == 1)
    };
    // Accumulated tensor fractions per layer (reset per candidate): exact
    // powers of two, so the arithmetic matches `ScaleState` bit for bit.
    // A junction is scaled to its consumer's scope.
    let mut bat = vec![1.0f64; num_layers];
    let mut fin = vec![1.0f64; num_layers];

    let mut best_cost = f64::INFINITY;
    let mut best_bits = 0u64;
    for bits in space {
        bat.fill(1.0);
        fin.fill(1.0);
        let mut total = 0.0;
        for h in 0..num_levels {
            let weight = (1u64 << h) as f64;
            // Intra-layer and intra-segment junction terms, in the exact
            // accumulation order of `evaluate_plan` (intra sum then inter
            // sum per level) so single-segment costs are bit-identical to
            // the chain search's.
            let mut intra_sum = 0.0;
            let mut inter_sum = 0.0;
            for &(start, end) in &ranges {
                for l in start..end {
                    intra_sum += match choice(bits, h, l) {
                        Parallelism::Data => 2.0 * layers[l].weight_elems * fin[l],
                        Parallelism::Model => 2.0 * layers[l].output_elems * bat[l],
                    };
                }
                for l in start..end.saturating_sub(1) {
                    let scale = bat[l + 1] * fin[l + 1];
                    inter_sum += inter_elems(
                        choice(bits, h, l),
                        choice(bits, h, l + 1),
                        layers[l].junction_elems,
                        scale,
                    );
                }
            }
            let mut edge_sum = 0.0;
            for &(from, to, elems) in &edges {
                let scale = bat[to] * fin[to];
                edge_sum += inter_elems(choice(bits, h, from), choice(bits, h, to), elems, scale);
            }
            total += weight * (intra_sum + inter_sum) + weight * edge_sum;
            for l in 0..num_layers {
                match choice(bits, h, l) {
                    Parallelism::Data => bat[l] *= 0.5,
                    Parallelism::Model => fin[l] *= 0.5,
                }
            }
        }
        if total < best_cost {
            best_cost = total;
            best_bits = bits;
        }
    }

    let levels: Vec<Vec<Parallelism>> = (0..num_levels)
        .map(|h| assignment_from_bits(best_bits >> (h * num_layers), num_layers))
        .collect();
    let names = layers.iter().map(|l| l.name.clone()).collect();
    Ok(HierarchicalPlan::from_parts(
        graph.name(),
        names,
        levels,
        best_cost,
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
        // The scratch evaluator inside the enumeration and the public
        // whole-graph evaluator must agree on the winning plan.
        let graph = tiny_residual_graph(32);
        let joint = best_joint_graph(&graph, 3).unwrap();
        let recomputed = evaluate_graph_plan(&graph, joint.levels()).unwrap();
        assert!(
            (joint.total_comm_elems() - recomputed).abs() <= 1e-9 * recomputed.max(1.0),
            "joint {} vs evaluated {recomputed}",
            joint.total_comm_elems()
        );
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
