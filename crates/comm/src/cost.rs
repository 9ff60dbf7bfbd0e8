//! Communication cost of one hierarchy level under a full assignment.

use hypar_tensor::Bytes;
use serde::{Deserialize, Serialize};

use crate::{
    inter_elems, intra_elems, JunctionScaling, NetworkCommTensors, Parallelism, ScaleState,
    PRECISION_BYTES,
};

/// The itemized communication of one hierarchy level: one intra-layer term
/// per weighted layer and one inter-layer term per junction between
/// adjacent layers.  All values are tensor elements crossing the
/// group-to-group boundary (both directions).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LevelCost {
    /// Intra-layer elements per layer (`len == L`).
    pub intra: Vec<f64>,
    /// Inter-layer elements per junction (`len == L - 1`).
    pub inter: Vec<f64>,
}

impl LevelCost {
    /// Total elements exchanged at this level.
    #[must_use]
    pub fn total_elems(&self) -> f64 {
        self.intra.iter().sum::<f64>() + self.inter.iter().sum::<f64>()
    }

    /// Total bytes exchanged at this level at fp32 precision.
    #[must_use]
    pub fn total_bytes(&self) -> Bytes {
        Bytes::from_elems(self.total_elems(), PRECISION_BYTES)
    }
}

/// Evaluates the communication of one group pair at one hierarchy level
/// for `assignment`, with tensors scaled by `scales` (the choices
/// committed at the levels above) and junctions scoped by `mode`.
///
/// This is the cost function minimized by Algorithm 1, itemized per layer
/// and per junction.  It validates Algorithm 1 against brute force
/// ([`level_cost`] is what the one-level exhaustive search minimizes) and
/// is the definition [`crate::CostTerms::total`] is tested against: a
/// plan's total is `Σ_h 2^h · level_cost(h)`.
///
/// # Panics
///
/// Panics if `assignment.len()` or `scales.len()` differ from the number of
/// weighted layers.
///
/// # Examples
///
/// ```
/// use hypar_comm::{level_cost, JunctionScaling, NetworkCommTensors, Parallelism, ScaleState};
/// use hypar_models::zoo;
///
/// let net = NetworkCommTensors::from_network(&zoo::lenet_c(), 256)?;
/// let scales = ScaleState::identity(net.len());
/// let all_dp = vec![Parallelism::Data; net.len()];
/// let cost = level_cost(&net, &scales, &all_dp, JunctionScaling::Consumer);
/// // Data Parallelism: gradient exchange only, no junction traffic.
/// assert!(cost.inter.iter().all(|&x| x == 0.0));
/// assert_eq!(cost.total_elems(), 2.0 * 430_500.0);
/// # Ok::<(), hypar_models::NetworkError>(())
/// ```
#[must_use]
pub fn level_cost(
    net: &NetworkCommTensors,
    scales: &ScaleState,
    assignment: &[Parallelism],
    mode: JunctionScaling,
) -> LevelCost {
    assert_eq!(
        assignment.len(),
        net.len(),
        "assignment must cover every weighted layer"
    );
    assert_eq!(
        scales.len(),
        net.len(),
        "scales must cover every weighted layer"
    );

    let intra = net
        .layers()
        .iter()
        .enumerate()
        .map(|(l, layer)| intra_elems(assignment[l], layer, scales.layer(l)))
        .collect();

    let inter = (0..net.len().saturating_sub(1))
        .map(|l| {
            inter_elems(
                assignment[l],
                assignment[l + 1],
                net.layer(l).junction_elems,
                scales.junction_scale(l, mode),
            )
        })
        .collect();

    LevelCost { intra, inter }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypar_models::zoo;
    use Parallelism::{Data, Model};

    const CONSUMER: JunctionScaling = JunctionScaling::Consumer;

    fn lenet() -> NetworkCommTensors {
        NetworkCommTensors::from_network(&zoo::lenet_c(), 256).unwrap()
    }

    #[test]
    fn all_dp_has_no_inter_traffic() {
        let net = lenet();
        let cost = level_cost(&net, &ScaleState::identity(4), &[Data; 4], CONSUMER);
        assert!(cost.inter.iter().all(|&x| x == 0.0));
        assert_eq!(cost.intra.len(), 4);
        assert_eq!(cost.inter.len(), 3);
    }

    #[test]
    fn all_mp_pays_junctions() {
        let net = lenet();
        let cost = level_cost(&net, &ScaleState::identity(4), &[Model; 4], CONSUMER);
        assert!(cost.inter.iter().all(|&x| x > 0.0));
        // mp-mp junction costs exactly the junction tensor size.
        assert_eq!(cost.inter[0], net.layer(0).junction_elems);
    }

    #[test]
    fn hybrid_beats_both_extremes_for_lenet() {
        let net = lenet();
        let scales = ScaleState::identity(4);
        let dp = level_cost(&net, &scales, &[Data; 4], CONSUMER).total_elems();
        let mp = level_cost(&net, &scales, &[Model; 4], CONSUMER).total_elems();
        // The Figure 9 optimum: conv dp, fc mp.
        let hybrid = level_cost(&net, &scales, &[Data, Data, Model, Model], CONSUMER).total_elems();
        assert!(hybrid < dp, "hybrid {hybrid} should beat dp {dp}");
        assert!(hybrid < mp, "hybrid {hybrid} should beat mp {mp}");
    }

    #[test]
    fn total_bytes_applies_precision() {
        let net = lenet();
        let cost = level_cost(&net, &ScaleState::identity(4), &[Data; 4], CONSUMER);
        assert_eq!(cost.total_bytes().value(), cost.total_elems() * 4.0);
    }

    #[test]
    #[should_panic(expected = "assignment must cover")]
    fn wrong_assignment_length_panics() {
        let net = lenet();
        let _ = level_cost(&net, &ScaleState::identity(4), &[Data; 3], CONSUMER);
    }

    #[test]
    fn scaled_level_costs_shrink() {
        let net = lenet();
        let top = ScaleState::identity(4);
        let assignment = [Data, Data, Model, Model];
        let below = top.descend(&assignment);
        let c_top = level_cost(&net, &top, &assignment, CONSUMER).total_elems();
        let c_below = level_cost(&net, &below, &assignment, CONSUMER).total_elems();
        assert!(c_below < c_top);
    }
}
