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
//!
//! And one oracle: the descent prices each candidate flip with a
//! [`hypar_comm::FlipPricer`], and must reproduce — levels and the whole
//! [`DescentReport`] — the descent that priced every candidate as a
//! whole plan with [`hypar_comm::CostTerms::total`].

#![expect(
    clippy::float_cmp,
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "totals are compared exactly; helpers fail by panicking"
)]

mod common;

use common::arb_tiny_residual;
use hypar_comm::{JunctionScaling, Parallelism};
use hypar_core::refine::{DescentReport, MAX_SWEEPS};
use hypar_core::HierarchicalPlan;
use hypar_graph::refine::boundary_first_order;
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

/// The descent as it ran before the flip pricer: every candidate is a
/// whole plan priced by `cost`.
fn descend_by_total(
    levels: &mut [Vec<Parallelism>],
    layer_order: &[usize],
    mut cost: impl FnMut(&[Vec<Parallelism>]) -> u128,
) -> DescentReport {
    let seed_cost = cost(levels);
    let mut current = seed_cost;
    let mut flips = 0u64;
    let mut sweeps = 0usize;
    while sweeps < MAX_SWEEPS {
        sweeps += 1;
        let mut improved = false;
        for &l in layer_order {
            for h in 0..levels.len() {
                let old = levels[h][l];
                levels[h][l] = old.flipped();
                let candidate = cost(levels);
                if candidate < current {
                    current = candidate;
                    flips += 1;
                    improved = true;
                } else {
                    levels[h][l] = old;
                }
            }
        }
        if !improved {
            break;
        }
    }
    DescentReport {
        sweeps,
        flips,
        seed_cost: seed_cost as f64,
        refined_cost: current as f64,
    }
}

/// `refine_graph_plan` from the stitched seed against the whole-plan
/// oracle over the same visiting order: equal levels, equal report.
fn assert_descent_matches_the_oracle(graph: &SegmentCommGraph, depth: usize) {
    let stitched = partition_graph(graph, depth).unwrap();
    let (plan, report) = refine_graph_plan(graph, &stitched).unwrap();
    let terms = graph.cost_terms();
    let mut levels = stitched.levels().to_vec();
    let oracle = descend_by_total(&mut levels, &boundary_first_order(graph), |c| {
        terms.total(c, JunctionScaling::Consumer)
    });
    let case = format!("{} b{} H{depth}", graph.name(), graph.batch());
    assert_eq!(report, oracle, "{case}");
    assert_eq!(plan.levels(), &levels[..], "{case}");
    let definition = common::oracle(graph, &levels, JunctionScaling::Consumer);
    assert_eq!(plan.total_comm_elems(), definition, "{case}");
}

/// The branchy zoo and the trimmed nets, H0–16, five batches.
#[test]
fn descent_matches_the_whole_plan_oracle_on_both_branchy_sets() {
    for dag in zoo::all().iter().chain(&zoo::trimmed()) {
        for batch in [1, 7, 64, 256, 4127] {
            let graph = dag.segments(batch).unwrap();
            for depth in 0..=16 {
                assert_descent_matches_the_oracle(&graph, depth);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random residual DAGs: the descent reproduces the whole-plan oracle
    /// flip for flip.
    #[test]
    fn descent_matches_the_whole_plan_oracle_on_random_residuals(
        spec in arb_tiny_residual(),
        levels in 0usize..17,
        batch in 1u64..4301,
    ) {
        assert_descent_matches_the_oracle(&spec.graph(batch), levels);
    }

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
