//! The one exact evaluator on segment graphs, against the level-by-level
//! definition.
//!
//! The oracle is Algorithm 2's sum written out in `f64` with explicit
//! power-of-two fractions (`common::oracle`).  The evaluator
//! ([`CostTerms::total`] on [`SegmentCommGraph::cost_terms`], reached
//! through [`evaluate_graph_plan`], the stitcher and the ablation's
//! [`partition_graph_with`]) must equal it on
//! random residual blocks and the branchy zoo, in every junction mode,
//! at H0–16 and batches 1–4,300.  The flip pricer
//! ([`CostTerms::flip_pricer`]) must price every single-bit flip of those
//! plans, and of the trimmed nets', as the flipped plan's exact Consumer
//! total.

#![expect(
    clippy::float_cmp,
    clippy::unwrap_used,
    reason = "totals are compared exactly; helpers fail by panicking"
)]

mod common;

use common::{arb_tiny_residual, oracle};
use hypar_comm::{CostTerms, JunctionScaling, Parallelism};
use hypar_graph::{evaluate_graph_plan, partition_graph_with, zoo, SegmentCommGraph};
use proptest::prelude::*;

const MODES: [JunctionScaling; 3] = [
    JunctionScaling::Consumer,
    JunctionScaling::Producer,
    JunctionScaling::Unscaled,
];

/// The Consumer closed form, `Σ_l 2W(2^k − 1) + 2O(2^(H−k) − 1) +
/// Σ_e J(H − b)`, over the graph's layers, chain junctions and edges.
fn closed_form(graph: &SegmentCommGraph, levels: &[Vec<Parallelism>]) -> f64 {
    let depth = levels.len();
    let both_dp = |a: usize, b: usize| {
        levels
            .iter()
            .filter(|level| level[a] == Parallelism::Data && level[b] == Parallelism::Data)
            .count()
    };
    let pow = |k: usize| f64::from(1u32 << k);
    let mut total = 0.0;
    let mut first = Vec::new();
    let mut offset = 0;
    for segment in graph.segments() {
        first.push(offset);
        for (i, layer) in segment.layers().iter().enumerate() {
            let l = offset + i;
            let k = both_dp(l, l);
            total += 2.0 * layer.weight_elems * (pow(k) - 1.0);
            total += 2.0 * layer.output_elems * (pow(depth - k) - 1.0);
            if i + 1 < segment.len() {
                total += layer.junction_elems * (depth - both_dp(l, l + 1)) as f64;
            }
        }
        offset += segment.len();
    }
    for edge in graph.edges() {
        let from = first[edge.from] + graph.segment(edge.from).len() - 1;
        total += edge.elems * (depth - both_dp(from, first[edge.to])) as f64;
    }
    total
}

/// A seeded random plan over `depth` levels (xorshift64).
fn random_plan(layers: usize, depth: usize, seed: u64) -> Vec<Vec<Parallelism>> {
    let mut state = seed | 1;
    (0..depth)
        .map(|_| {
            (0..layers)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    Parallelism::from_bit(state & 1 == 1)
                })
                .collect()
        })
        .collect()
}

/// Every check of this file on one graph, depth and seed.
fn check(graph: &SegmentCommGraph, depth: usize, seed: u64) {
    let plan = random_plan(graph.num_layers(), depth, seed);
    let terms = graph.cost_terms();
    for mode in MODES {
        let exact = terms.total(&plan, mode);
        assert_eq!(exact as f64, oracle(graph, &plan, mode), "{mode:?}");
        // The ablation's stitched plan, priced by the production path.
        let stitched = partition_graph_with(graph, depth, mode).unwrap();
        assert_eq!(
            stitched.total_comm_elems(),
            oracle(graph, stitched.levels(), mode),
            "stitched {mode:?}"
        );
    }
    let consumer = oracle(graph, &plan, JunctionScaling::Consumer);
    assert_eq!(evaluate_graph_plan(graph, &plan).unwrap(), consumer);
    assert_eq!(closed_form(graph, &plan), consumer);
    check_flips(&terms, plan, seed);
}

/// The flip pricer is exact: every single-bit flip it prices is the
/// flipped plan's Consumer total, and after a seeded sequence of flips its
/// running total is the final plan's.
fn check_flips(terms: &CostTerms, mut plan: Vec<Vec<Parallelism>>, seed: u64) {
    let consumer = |plan: &[Vec<Parallelism>]| terms.total(plan, JunctionScaling::Consumer);
    let mut pricer = terms.flip_pricer(&plan);
    assert_eq!(pricer.total(), consumer(&plan));
    let layers = terms.num_layers();
    for h in 0..plan.len() {
        for l in 0..layers {
            plan[h][l] = plan[h][l].flipped();
            assert_eq!(pricer.flipped_total(h, l), consumer(&plan), "({h}, {l})");
            plan[h][l] = plan[h][l].flipped();
        }
    }
    let slots = plan.len() * layers;
    if slots == 0 {
        return;
    }
    let mut state = seed | 1;
    for _ in 0..64 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let slot = usize::try_from(state % slots as u64).unwrap();
        let (h, l) = (slot / layers, slot % layers);
        plan[h][l] = plan[h][l].flipped();
        assert_eq!(pricer.flip(h, l), consumer(&plan), "flip ({h}, {l})");
    }
    assert_eq!(pricer.total(), consumer(&plan));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random residual blocks, random plans.
    #[test]
    fn random_residual_blocks_match_the_definition(
        spec in arb_tiny_residual(),
        batch in 1u64..4301,
        depth in 0usize..17,
        seed in any::<u64>(),
    ) {
        check(&spec.graph(batch), depth, seed);
    }

    /// The branchy zoo, random plans.
    #[test]
    fn the_branchy_zoo_matches_the_definition(
        index in 0usize..zoo::NAMES.len(),
        batch in 1u64..4301,
        depth in 0usize..17,
        seed in any::<u64>(),
    ) {
        let graph = zoo::by_name(zoo::NAMES[index]).unwrap().segments(batch).unwrap();
        check(&graph, depth, seed);
    }
}

/// The trimmed nets, at every depth up to 16 and five batches.
#[test]
fn flips_are_exact_on_the_trimmed_nets() {
    for dag in zoo::trimmed() {
        for batch in [1, 7, 64, 256, 4127] {
            let graph = dag.segments(batch).unwrap();
            for depth in 0..=16 {
                let seed = batch * 17 + depth;
                let plan = random_plan(graph.num_layers(), usize::try_from(depth).unwrap(), seed);
                check_flips(&graph.cost_terms(), plan, seed);
            }
        }
    }
}
