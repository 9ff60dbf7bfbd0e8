//! Coordinate-descent refinement of hierarchical plans.
//!
//! Algorithm 2 commits its dp/mp choices greedily — level by level on a
//! chain, and segment by segment on a DAG — so the committed plan can sit
//! above the joint optimum (the paper's Figures 9/10 measure the chain
//! gap; the `greedy_gap_branchy` experiment measures the far larger
//! branchy one).  This module closes part of that gap without the
//! exponential joint enumeration: [`descend`] sweeps the plan's
//! per-layer-per-level bits, re-deciding each against the **true** total
//! cost of the whole plan, and iterates to a fixed point.  Acceptance is
//! strictly-improving, so the cost decreases monotonically and
//! termination is guaranteed (the assignment space is finite); a sweep
//! cap bounds the worst case anyway.
//!
//! The pass is cost-model agnostic: callers supply the evaluator, so the
//! same loop refines a chain plan against
//! [`crate::evaluate::evaluate_plan`] ([`refine_partition`]) and a
//! whole-DAG plan against `hypar_graph`'s junction-aware evaluator
//! (`hypar_graph::refine`).  In FlexFlow terms this is a deterministic
//! local search over the strategy space the MCMC sampler explores; in
//! Tofu terms, a per-group re-decision under the committed remainder.

use hypar_comm::Parallelism;
use serde::Serialize;

/// Hard cap on full sweeps over the plan.  Each accepted flip strictly
/// lowers the cost, so descent terminates on its own; the cap only bounds
/// pathological cost surfaces.  Reaching it is reported, never an error.
pub const MAX_SWEEPS: usize = 32;

/// What one [`descend`] run did.
#[derive(Copy, Clone, Debug, PartialEq, Serialize)]
pub struct DescentReport {
    /// Full sweeps executed (including the final no-improvement sweep
    /// that certifies the fixed point).
    pub sweeps: usize,
    /// Bit flips accepted.
    pub flips: u64,
    /// Cost of the seed plan, in the caller's evaluator units.
    pub seed_cost: f64,
    /// Cost after refinement (`<= seed_cost`).
    pub refined_cost: f64,
}

impl DescentReport {
    /// `seed_cost / refined_cost` (≥ 1): how much the descent recovered.
    #[must_use]
    pub fn improvement(&self) -> f64 {
        // Exact-zero guard before division: a zero-cost plan has an exact 0.0, not an epsilon.
        if self.refined_cost == 0.0 {
            1.0
        } else {
            self.seed_cost / self.refined_cost
        }
    }
}

/// Coordinate descent over a plan's dp/mp bits: for each layer (in
/// `layer_order`, outermost loop) and each level (top first), flip the
/// bit, keep the flip iff the caller's `cost` strictly decreases, and
/// sweep again until a full sweep accepts nothing (or [`MAX_SWEEPS`]).
///
/// `layer_order` is the per-sweep layer visiting order — callers put the
/// layers whose bits interact most (e.g. segment-boundary layers priced
/// by junction traffic) first so they settle before the interior.  Layers
/// outside `layer_order` are never touched; duplicate entries are legal
/// and simply revisit the layer within the sweep.
///
/// `cost` is called with the full candidate plan and must be a pure
/// function of it.  Strict-improvement acceptance makes the sequence of
/// accepted costs strictly decreasing, so the returned plan never costs
/// more than the seed.
///
/// # Panics
///
/// Panics if `layer_order` indexes a layer some level does not cover.
pub fn descend(
    levels: &mut [Vec<Parallelism>],
    layer_order: &[usize],
    mut cost: impl FnMut(&[Vec<Parallelism>]) -> f64,
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
        seed_cost,
        refined_cost: current,
    }
}

/// Algorithm 2's chain plan, refined: seeds from
/// [`crate::hierarchical::partition`] and descends every bit against
/// [`crate::evaluate::evaluate_plan`]'s total — the level-by-level greedy
/// gap of the recursion (Figures 9/10) closed by polynomial local search
/// instead of the `O(2^{L·H})` joint enumeration.
///
/// # Panics
///
/// Panics if the network has no weighted layers (as
/// [`crate::hierarchical::partition`] does).
#[must_use]
pub fn refine_partition(
    net: &hypar_comm::NetworkCommTensors,
    num_levels: usize,
) -> crate::HierarchicalPlan {
    refine_partition_with(net, num_levels, hypar_comm::JunctionScaling::Consumer)
}

/// [`refine_partition`] under an explicit
/// [`hypar_comm::JunctionScaling`] interpretation.
///
/// # Panics
///
/// Same as [`refine_partition`].
#[must_use]
pub fn refine_partition_with(
    net: &hypar_comm::NetworkCommTensors,
    num_levels: usize,
    mode: hypar_comm::JunctionScaling,
) -> crate::HierarchicalPlan {
    refine_partition_reported_with(net, num_levels, mode).0
}

/// [`refine_partition`] returning the [`DescentReport`] alongside the
/// plan, so callers (the engine's telemetry layer) can surface the sweep
/// and flip counts the descent performed.
///
/// # Panics
///
/// Same as [`refine_partition`].
#[must_use]
pub fn refine_partition_reported(
    net: &hypar_comm::NetworkCommTensors,
    num_levels: usize,
) -> (crate::HierarchicalPlan, DescentReport) {
    refine_partition_reported_with(net, num_levels, hypar_comm::JunctionScaling::Consumer)
}

/// [`refine_partition_reported`] under an explicit
/// [`hypar_comm::JunctionScaling`] interpretation.
///
/// # Panics
///
/// Same as [`refine_partition`].
#[must_use]
pub fn refine_partition_reported_with(
    net: &hypar_comm::NetworkCommTensors,
    num_levels: usize,
    mode: hypar_comm::JunctionScaling,
) -> (crate::HierarchicalPlan, DescentReport) {
    let seed = crate::hierarchical::partition_with(net, num_levels, mode);
    let mut levels = seed.levels().to_vec();
    let order: Vec<usize> = (0..net.len()).collect();
    let report = descend(&mut levels, &order, |candidate| {
        crate::evaluate::evaluate_plan_with(net, candidate, mode).total_elems()
    });
    let plan = crate::HierarchicalPlan::from_parts(
        net.name(),
        net.layers().iter().map(|l| l.name.clone()).collect(),
        levels,
        report.refined_cost,
    );
    (plan, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{evaluate::evaluate_plan, exhaustive, hierarchical};
    use hypar_comm::NetworkCommTensors;
    use hypar_models::zoo;

    fn view(name: &str, batch: u64) -> NetworkCommTensors {
        NetworkCommTensors::from_network(&zoo::by_name(name).unwrap(), batch).unwrap()
    }

    #[test]
    fn descend_never_regresses_and_reports_consistently() {
        let net = view("Lenet-c", 256);
        for levels in [0usize, 1, 3, 4] {
            let seed = hierarchical::partition(&net, levels);
            let mut bits = seed.levels().to_vec();
            let order: Vec<usize> = (0..net.len()).collect();
            let report = descend(&mut bits, &order, |c| evaluate_plan(&net, c).total_elems());
            assert!(report.refined_cost <= report.seed_cost, "H{levels}");
            assert_eq!(report.seed_cost, seed.total_comm_elems(), "H{levels}");
            assert_eq!(
                report.refined_cost,
                evaluate_plan(&net, &bits).total_elems(),
                "H{levels}: reported cost must be the final plan's"
            );
            assert!(report.sweeps >= 1 || levels == 0);
        }
    }

    #[test]
    fn refined_chain_plan_matches_the_joint_optimum_on_small_nets() {
        // Small enough to certify: the chain exhaustive search fits the
        // 24-slot bound, and coordinate descent from the DP seed lands on
        // the same cost.
        for (name, levels) in [("Lenet-c", 4), ("SFC", 4), ("SCONV", 4)] {
            let net = view(name, 256);
            let refined = refine_partition(&net, levels);
            let (joint_cost, _) = exhaustive::best_joint(&net, levels).unwrap();
            assert!(
                refined.total_comm_elems() <= joint_cost * (1.0 + 1e-12)
                    && refined.total_comm_elems() >= joint_cost * (1.0 - 1e-12),
                "{name}: refined {} vs joint {joint_cost}",
                refined.total_comm_elems()
            );
        }
    }

    #[test]
    fn refined_chain_plan_never_exceeds_the_dp_seed() {
        for name in ["AlexNet", "VGG-A", "SFC"] {
            let net = view(name, 256);
            let seed = hierarchical::partition(&net, 4).total_comm_elems();
            let refined = refine_partition(&net, 4).total_comm_elems();
            assert!(refined <= seed, "{name}: {refined} vs seed {seed}");
        }
    }

    #[test]
    fn reported_variant_matches_the_plain_one() {
        let net = view("SFC", 256);
        let plain = refine_partition(&net, 4);
        let (plan, report) = refine_partition_reported(&net, 4);
        assert_eq!(plan, plain);
        assert_eq!(report.refined_cost, plan.total_comm_elems());
        assert!(report.sweeps >= 1);
    }

    #[test]
    fn zero_levels_is_a_trivial_fixed_point() {
        let net = view("Lenet-c", 256);
        let plan = refine_partition(&net, 0);
        assert_eq!(plan.num_levels(), 0);
        assert_eq!(plan.total_comm_elems(), 0.0);
    }

    #[test]
    fn improvement_is_seed_over_refined() {
        let r = DescentReport {
            sweeps: 2,
            flips: 3,
            seed_cost: 10.0,
            refined_cost: 5.0,
        };
        assert_eq!(r.improvement(), 2.0);
        let trivial = DescentReport {
            sweeps: 1,
            flips: 0,
            seed_cost: 0.0,
            refined_cost: 0.0,
        };
        assert_eq!(trivial.improvement(), 1.0);
    }
}
