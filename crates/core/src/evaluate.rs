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
    use hypar_comm::{level_cost, ScaleState};
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
        // dp never shrinks weights, so every level's pair costs the same.
        let mut scales = ScaleState::identity(net.len());
        let per_pair = level_cost(&net, &scales, &plan[0], CONSUMER).total_elems();
        for level in &plan {
            assert_eq!(
                level_cost(&net, &scales, level, CONSUMER).total_elems(),
                per_pair
            );
            scales = scales.descend(level);
        }
        assert_eq!(
            evaluate_plan(&net, &plan).total_elems(),
            (1.0 + 2.0 + 4.0) * per_pair
        );
    }

    #[test]
    fn mixed_plan_scales_descend_between_levels() {
        let net = view("Lenet-c");
        let level = vec![Data, Data, Model, Model];
        let top = ScaleState::identity(net.len());
        let below = top.descend(&level);
        let first = level_cost(&net, &top, &level, CONSUMER).total_elems();
        let second = level_cost(&net, &below, &level, CONSUMER).total_elems();
        // Same assignment, smaller tensors: the second level's pair cost
        // must be strictly cheaper, and it has two pairs.
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
        let top = level_cost(&net, &ScaleState::identity(net.len()), &plan[0], CONSUMER);
        assert!(top.inter.iter().all(|&x| x > 0.0));
        // mp never shrinks the produced outputs, so each level's pairs
        // exchange 2·A(F_out); the rest of the total is junction traffic.
        let intra: f64 = top.intra.iter().sum();
        assert!(evaluate_plan(&net, &plan).total_elems() > (1.0 + 2.0) * intra);
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
