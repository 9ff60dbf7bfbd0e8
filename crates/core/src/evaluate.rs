//! Costing an arbitrary hierarchical plan under the communication model.

use hypar_comm::{CostTerms, JunctionScaling, NetworkCommTensors, Parallelism};
use hypar_tensor::Bytes;

/// The total communication of a hierarchical plan: Algorithm 2's
/// `com = com_h + 2·com_n`, where level `h` has `2^h` group pairs, summed
/// exactly by [`CostTerms::total`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PlanCost {
    elems: u128,
}

impl PlanCost {
    /// Total array-wide communication in elements: the exact integer
    /// total, rounded once to `f64`.
    #[must_use]
    pub fn total_elems(&self) -> f64 {
        self.elems as f64
    }

    /// Total array-wide communication in bytes (fp32).
    #[must_use]
    pub fn total_bytes(&self) -> Bytes {
        Bytes::from_elems(self.total_elems(), hypar_comm::PRECISION_BYTES)
    }
}

/// Costs an arbitrary hierarchical assignment (`levels[h][l]`, top level
/// first) under the communication model, evolving the tensor scales exactly
/// as the planner does.
///
/// # Panics
///
/// Panics if any level does not cover every weighted layer.
///
/// # Examples
///
/// ```
/// use hypar_comm::{NetworkCommTensors, Parallelism};
/// use hypar_core::evaluate::evaluate_plan;
/// use hypar_models::zoo;
///
/// let net = NetworkCommTensors::from_network(&zoo::sfc(), 256)?;
/// let all_dp = vec![vec![Parallelism::Data; net.len()]; 4];
/// let cost = evaluate_plan(&net, &all_dp);
/// // Data Parallelism communicates 2·A(W) per pair at every level:
/// // (1+2+4+8) pairs x 2 x 140,722,176 weights.
/// assert_eq!(cost.total_elems(), 15.0 * 2.0 * 140_722_176.0);
/// # Ok::<(), hypar_models::NetworkError>(())
/// ```
#[must_use]
pub fn evaluate_plan(net: &NetworkCommTensors, levels: &[Vec<Parallelism>]) -> PlanCost {
    evaluate_plan_with(net, levels, JunctionScaling::Consumer)
}

/// [`evaluate_plan`] under an explicit [`JunctionScaling`] interpretation
/// (used by the model-ablation experiment).
///
/// # Panics
///
/// Same as [`evaluate_plan`].
#[must_use]
pub fn evaluate_plan_with(
    net: &NetworkCommTensors,
    levels: &[Vec<Parallelism>],
    mode: JunctionScaling,
) -> PlanCost {
    PlanCost {
        elems: CostTerms::chain(net).total(levels, mode),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypar_models::zoo;
    use Parallelism::{Data, Model};

    const CONSUMER: JunctionScaling = JunctionScaling::Consumer;

    fn view(name: &str) -> NetworkCommTensors {
        NetworkCommTensors::from_network(&zoo::by_name(name).unwrap(), 256).unwrap()
    }

    #[test]
    fn figure8_all_dp_totals_match_paper_exactly() {
        // Paper Figure 8, Data Parallelism column: SFC 16.9 GB,
        // SCONV 0.0121 GB, Lenet-c 0.0517 GB at B=256, H=4.
        let cases = [("SFC", 16.9), ("SCONV", 0.0121), ("Lenet-c", 0.0517)];
        for (name, gb) in cases {
            let net = view(name);
            let plan = vec![vec![Data; net.len()]; 4];
            let measured = evaluate_plan(&net, &plan).total_bytes().gigabytes();
            assert!(
                (measured - gb).abs() / gb < 0.01,
                "{name}: measured {measured:.4} GB, paper {gb} GB"
            );
        }
    }

    #[test]
    fn empty_plan_costs_nothing() {
        let cost = evaluate_plan(&view("Lenet-c"), &[]);
        assert_eq!(cost.total_elems(), 0.0);
        assert!(cost.total_elems().is_sign_positive(), "a positive zero");
    }

    #[test]
    fn level_weighting_is_power_of_two() {
        let net = view("SFC");
        let plan = vec![vec![Data; net.len()]; 3];
        // dp never shrinks weights, so every level's pair exchanges 2·A(W).
        let per_pair: f64 = net.layers().iter().map(|l| 2.0 * l.weight_elems).sum();
        assert_eq!(
            evaluate_plan(&net, &plan).total_elems(),
            (1.0 + 2.0 + 4.0) * per_pair
        );
    }

    #[test]
    fn mixed_plan_scales_descend_between_levels() {
        let net = view("Lenet-c");
        let level = vec![Data, Data, Model, Model];
        // Each pair exchanges the dp gradients and mp outputs, which the
        // other choice's levels do not shrink, and the conv2→fc1 and
        // fc1→fc2 junctions.  Below the first level their consumers hold
        // half their input features, so each pair moves half of each.
        let intra = 2.0 * (net.layer(0).weight_elems + net.layer(1).weight_elems)
            + 2.0 * (net.layer(2).output_elems + net.layer(3).output_elems);
        let junctions = net.layer(1).junction_elems + net.layer(2).junction_elems;
        let first = intra + junctions;
        let second = intra + junctions / 2.0;
        assert!(second < first);
        assert_eq!(
            evaluate_plan(&net, &[level.clone(), level]).total_elems(),
            first + 2.0 * second
        );
    }

    #[test]
    fn all_mp_junction_traffic_present() {
        let net = view("SFC");
        let plan = vec![vec![Model; net.len()]; 2];
        // mp never shrinks the produced outputs, so each level's pairs
        // exchange 2·A(F_out); every junction adds J per level.
        let intra: f64 = net.layers().iter().map(|l| 2.0 * l.output_elems).sum();
        let junctions: f64 = net.layers()[..net.len() - 1]
            .iter()
            .map(|l| l.junction_elems)
            .sum();
        assert!(junctions > 0.0);
        assert_eq!(
            evaluate_plan(&net, &plan).total_elems(),
            (1.0 + 2.0) * intra + 2.0 * junctions
        );
    }

    #[test]
    fn totals_past_two_to_the_53_are_rounded_once() {
        // VGG-E all-mp at batch 2^28 over 16 levels: the exact total is far
        // above 2^53, where f64 no longer holds every integer.
        let net = NetworkCommTensors::from_network(&zoo::vgg_e(), 1 << 28).unwrap();
        let plan = vec![vec![Model; net.len()]; 16];
        let exact = CostTerms::chain(&net).total(&plan, CONSUMER);
        assert!(exact >= 1 << 53);
        assert_eq!(evaluate_plan(&net, &plan).total_elems(), exact as f64);
    }
}
