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
//! The same loop refines a chain ([`refine_partition_reported`]) and a
//! segment graph — the service's one pipeline, where a chain is the
//! one-segment case and agrees flip for flip (`hypar_graph::refine`).
//! Both hand it their [`CostTerms`], and it prices each candidate flip
//! exactly in `O(1 + degree)` with a [`hypar_comm::FlipPricer`] — the
//! candidate plan's [`CostTerms::total`], without summing the whole
//! plan.  In FlexFlow terms this is a deterministic local search over the
//! strategy space the MCMC sampler explores; in Tofu terms, a per-group
//! re-decision under the committed remainder.

use hypar_comm::{CostTerms, Parallelism};
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
    /// Cost of the seed plan, in tensor elements.
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
/// bit, keep the flip iff the plan's exact
/// [`hypar_comm::JunctionScaling::Consumer`] total under `terms` strictly
/// decreases, and sweep again until a full sweep accepts nothing (or
/// [`MAX_SWEEPS`]).
///
/// `layer_order` is the per-sweep layer visiting order — callers put the
/// layers whose bits interact most (e.g. segment-boundary layers priced
/// by junction traffic) first so they settle before the interior.  Layers
/// outside `layer_order` are never touched; duplicate entries are legal
/// and simply revisit the layer within the sweep.
///
/// Each candidate is priced in `O(1 + degree)` by a
/// [`hypar_comm::FlipPricer`], exactly the candidate plan's
/// [`CostTerms::total`].  Strict-improvement acceptance on exact integers
/// makes the sequence of accepted costs strictly decreasing, so the
/// returned plan never costs more than the seed; the report rounds them
/// to `f64`.
///
/// # Panics
///
/// Panics if a level does not cover every layer of `terms`, or
/// `layer_order` indexes a layer `terms` does not hold.
pub fn descend(
    levels: &mut [Vec<Parallelism>],
    layer_order: &[usize],
    terms: &CostTerms,
) -> DescentReport {
    let mut pricer = terms.flip_pricer(levels);
    let seed_cost = pricer.total();
    let mut flips = 0u64;
    let mut sweeps = 0usize;
    while sweeps < MAX_SWEEPS {
        sweeps += 1;
        let mut improved = false;
        for &l in layer_order {
            for (h, level) in levels.iter_mut().enumerate() {
                if pricer.flipped_total(h, l) < pricer.total() {
                    pricer.flip(h, l);
                    level[l] = level[l].flipped();
                    flips += 1;
                    improved = true;
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
        refined_cost: pricer.total() as f64,
    }
}

/// Algorithm 2's chain plan, refined: seeds from
/// [`crate::hierarchical::partition`] and descends every bit, in natural
/// layer order, against the chain's exact [`hypar_comm::CostTerms`] — the
/// level-by-level greedy gap of the recursion (Figures 9/10) closed by
/// polynomial local search instead of the `O(2^{L·H})` joint enumeration.
/// Returns the plan with the [`DescentReport`], so callers can surface
/// the sweep and flip counts the descent performed.
///
/// # Panics
///
/// Panics if the network has no weighted layers (as
/// [`crate::hierarchical::partition`] does).
#[must_use]
pub fn refine_partition_reported(
    net: &hypar_comm::NetworkCommTensors,
    num_levels: usize,
) -> (crate::HierarchicalPlan, DescentReport) {
    let seed = crate::hierarchical::partition(net, num_levels);
    let mut levels = seed.levels().to_vec();
    let order: Vec<usize> = (0..net.len()).collect();
    let report = descend(&mut levels, &order, &CostTerms::chain(net));
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
    use hypar_comm::{JunctionScaling, NetworkCommTensors};
    use hypar_models::zoo;

    fn view(name: &str, batch: u64) -> NetworkCommTensors {
        NetworkCommTensors::from_network(&zoo::by_name(name).unwrap(), batch).unwrap()
    }

    /// The descent as it ran before the flip pricer: every candidate is a
    /// whole plan priced by `cost`.  Kept as the oracle [`descend`] must
    /// reproduce flip for flip.
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

    #[test]
    fn descent_matches_the_whole_plan_oracle_on_the_chain_zoo() {
        // Levels and the whole report, flip for flip, from Algorithm 2's
        // seed: every chain zoo net at H0–16 and five batches.
        for name in zoo::NAMES {
            for batch in [1, 7, 64, 256, 4127] {
                let net = view(name, batch);
                let terms = CostTerms::chain(&net);
                let order: Vec<usize> = (0..net.len()).collect();
                for depth in 0..=16 {
                    let seed = hierarchical::partition(&net, depth);
                    let mut fast = seed.levels().to_vec();
                    let mut slow = fast.clone();
                    let report = descend(&mut fast, &order, &terms);
                    let oracle = descend_by_total(&mut slow, &order, |c| {
                        terms.total(c, JunctionScaling::Consumer)
                    });
                    assert_eq!(report, oracle, "{name} b{batch} H{depth}");
                    assert_eq!(fast, slow, "{name} b{batch} H{depth}");
                }
            }
        }
    }

    #[test]
    fn descend_never_regresses_and_reports_consistently() {
        let net = view("Lenet-c", 256);
        for levels in [0usize, 1, 3, 4] {
            let seed = hierarchical::partition(&net, levels);
            let mut bits = seed.levels().to_vec();
            let order: Vec<usize> = (0..net.len()).collect();
            let report = descend(&mut bits, &order, &CostTerms::chain(&net));
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
            let (refined, _) = refine_partition_reported(&net, levels);
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
            let refined = refine_partition_reported(&net, 4).0.total_comm_elems();
            assert!(refined <= seed, "{name}: {refined} vs seed {seed}");
        }
    }

    #[test]
    fn report_describes_the_returned_plan() {
        let net = view("SFC", 256);
        let (plan, report) = refine_partition_reported(&net, 4);
        assert_eq!(report.refined_cost, plan.total_comm_elems());
        assert_eq!(
            report.seed_cost,
            hierarchical::partition(&net, 4).total_comm_elems()
        );
        assert!(report.sweeps >= 1);
    }

    #[test]
    fn zero_levels_is_a_trivial_fixed_point() {
        let net = view("Lenet-c", 256);
        let (plan, _) = refine_partition_reported(&net, 0);
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
