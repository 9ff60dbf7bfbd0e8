//! Algorithm 2: hierarchical partition over a binary accelerator tree.
//!
//! Applies [`crate::two_group::partition`] level by level.  The paper
//! phrases this recursively (`com = com_h + 2·com_n`); because both
//! sub-groups of a level see identical sub-problems, the recursion
//! collapses to one iteration per level, each layer carrying the count of
//! levels above at which it committed to dp.

use hypar_comm::{count_dp, CostTerms, JunctionScaling, NetworkCommTensors};

use crate::two_group;
use crate::HierarchicalPlan;

/// Runs the full HyPar partition for an array of `2^num_levels`
/// accelerators.
///
/// `num_levels == 0` yields a trivial plan (a single accelerator, no
/// communication), mirroring the recursion's base case `(0, [])`.
///
/// # Panics
///
/// Panics if the network has no weighted layers.
///
/// # Examples
///
/// ```
/// use hypar_comm::NetworkCommTensors;
/// use hypar_core::hierarchical;
/// use hypar_models::zoo;
///
/// let net = NetworkCommTensors::from_network(&zoo::vgg_a(), 256)?;
/// let plan = hierarchical::partition(&net, 4);
/// assert_eq!(plan.num_levels(), 4);
/// assert_eq!(plan.num_accelerators(), 16);
/// # Ok::<(), hypar_models::NetworkError>(())
/// ```
#[must_use]
pub fn partition(net: &NetworkCommTensors, num_levels: usize) -> HierarchicalPlan {
    partition_with(net, num_levels, JunctionScaling::Consumer)
}

/// [`partition`] under an explicit [`JunctionScaling`] interpretation
/// (used by the model-ablation experiment).
///
/// # Panics
///
/// Same as [`partition`].
#[must_use]
pub fn partition_with(
    net: &NetworkCommTensors,
    num_levels: usize,
    mode: JunctionScaling,
) -> HierarchicalPlan {
    let terms = CostTerms::chain(net);
    let mut dp_above = vec![0; net.len()];
    let mut levels = Vec::with_capacity(num_levels);
    for h in 0..num_levels {
        let assignment = two_group::partition(&terms, h, &dp_above, mode).assignment;
        count_dp(&mut dp_above, &assignment);
        levels.push(assignment);
    }
    let total = terms.total(&levels, mode) as f64;
    HierarchicalPlan::from_parts(
        net.name(),
        net.layers().iter().map(|l| l.name.clone()).collect(),
        levels,
        total,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypar_comm::Parallelism::{Data, Model};
    use hypar_models::zoo;

    fn view(name: &str) -> NetworkCommTensors {
        NetworkCommTensors::from_network(&zoo::by_name(name).unwrap(), 256).unwrap()
    }

    #[test]
    fn zero_levels_is_free() {
        let plan = partition(&view("Lenet-c"), 0);
        assert_eq!(plan.num_levels(), 0);
        assert_eq!(plan.num_accelerators(), 1);
        assert_eq!(plan.total_comm_elems(), 0.0);
    }

    #[test]
    fn sconv_all_levels_all_dp() {
        // Figure 5(b): every layer of SCONV at every level is dp.
        let plan = partition(&view("SCONV"), 4);
        assert!(plan.levels().iter().flatten().all(|&p| p == Data));
    }

    #[test]
    fn sfc_flips_fc1_to_dp_at_a_deep_level() {
        // Figure 5(a): SFC is all-mp except fc1 at one deep level, where the
        // accumulated mp choices have shrunk A(ΔW) below A(F_out).
        let plan = partition(&view("SFC"), 4);
        assert_eq!(plan.choice(0, 0), Model);
        let fc1_choices: Vec<_> = (0..4).map(|h| plan.choice(h, 0)).collect();
        assert!(
            fc1_choices.contains(&Data),
            "fc1 should flip to dp at some level, got {fc1_choices:?}"
        );
        // The three large fc layers stay mp at the top level.
        for l in 1..3 {
            assert_eq!(plan.choice(0, l), Model);
        }
    }

    #[test]
    fn lenet_matches_figure9_peak_pattern() {
        // Figure 9's peak is H1 = 0011 and H4 = 0011 (conv dp, fc mp).  Our
        // model reproduces H1 exactly; at H4 the tiny fc2 layer (5,000
        // weights) sits on a 2.4% dp/mp knife edge, so only conv-dp and
        // fc1-mp are asserted there (see the README section "Reproducing
        // the paper").
        let plan = partition(&view("Lenet-c"), 4);
        assert_eq!(plan.level_bits(0), "0011");
        assert!(
            plan.level_bits(3).starts_with("001"),
            "H4 = {}",
            plan.level_bits(3)
        );
    }

    #[test]
    fn vgg_a_conv_mostly_dp_fc_mostly_mp_at_top() {
        let plan = partition(&view("VGG-A"), 4);
        let net = view("VGG-A");
        for (l, layer) in net.layers().iter().enumerate() {
            let choice = plan.choice(0, l);
            if layer.is_conv {
                assert_eq!(choice, Data, "conv layer {} at H1", layer.name);
            } else if layer.name != "fc3" {
                // fc1/fc2 are the giant fc layers; fc3 is small and may tie.
                assert_eq!(choice, Model, "fc layer {} at H1", layer.name);
            }
        }
    }

    #[test]
    fn total_matches_evaluate_plan() {
        for name in ["SFC", "Lenet-c", "AlexNet", "VGG-A"] {
            let net = view(name);
            let plan = partition(&net, 4);
            let recomputed = crate::evaluate::evaluate_plan(&net, plan.levels()).total_elems();
            assert_eq!(plan.total_comm_elems(), recomputed, "{name}");
        }
    }

    #[test]
    fn deeper_hierarchies_extend_shallower_ones() {
        // Greedy level-by-level: the first h levels of an H-level plan equal
        // the h-level plan.
        let net = view("AlexNet");
        let shallow = partition(&net, 2);
        let deep = partition(&net, 5);
        assert_eq!(&deep.levels()[..2], shallow.levels());
    }
}
