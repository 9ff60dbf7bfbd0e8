//! Brute-force search over parallelism assignments.
//!
//! The paper motivates the dynamic program by noting that naive enumeration
//! is `O(2^L)` per level (§3.4).  This module implements that enumeration —
//! it validates the DP's optimality in tests and quantifies the *greedy
//! gap* of the level-by-level recursion against the joint optimum over all
//! levels at once (the effect visible in Figure 10, where HyPar attains
//! 4.97× against a sweep peak of 5.05×).
//!
//! Every search space is validated up front: infeasible requests surface as
//! typed [`ExhaustiveError`]s instead of panics, so the long-running plan
//! service can expose the brute-force strategies to untrusted input.  The
//! shared [`AssignmentSpace`] enumerator backs [`best_level`],
//! [`best_joint`], and the DAG-side joint search in `hypar-graph`.

use std::fmt;

use hypar_comm::{level_cost, NetworkCommTensors, Parallelism, ScaleState};

use crate::evaluate::evaluate_plan;

/// Upper bound on the number of binary slots (`layers × levels`) a
/// brute-force search may enumerate: `2^24` ≈ 16.8M candidate plans.
pub const SLOT_LIMIT: usize = 24;

/// Why a brute-force search could not run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ExhaustiveError {
    /// The network has no weighted layers to assign.
    Empty,
    /// The search space exceeds [`SLOT_LIMIT`] binary slots.
    TooLarge {
        /// The requested number of slots (`layers × levels`).
        slots: usize,
    },
}

impl fmt::Display for ExhaustiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExhaustiveError::Empty => {
                write!(f, "cannot search an empty network (no weighted layers)")
            }
            ExhaustiveError::TooLarge { slots } => write!(
                f,
                "exhaustive search over {slots} slots (layers x levels) exceeds the \
                 feasibility limit of {SLOT_LIMIT} — use the dynamic program"
            ),
        }
    }
}

impl std::error::Error for ExhaustiveError {}

/// Iterator over every bit pattern of a validated brute-force search
/// space: `2^slots` patterns, bit `i` (LSB first) being slot `i`'s dp/mp
/// choice in the paper's Figure 9/10 convention (`0` = dp, `1` = mp).
///
/// Construct through [`assignment_space`]; decode per-layer runs with
/// [`assignment_from_bits`].
///
/// # Examples
///
/// ```
/// use hypar_core::exhaustive::assignment_space;
///
/// let space = assignment_space(3)?;
/// assert_eq!(space.len(), 8);
/// assert_eq!(space.last(), Some(0b111));
/// assert!(assignment_space(64).is_err());
/// # Ok::<(), hypar_core::exhaustive::ExhaustiveError>(())
/// ```
#[derive(Clone, Debug)]
pub struct AssignmentSpace {
    next: u64,
    end: u64,
}

impl Iterator for AssignmentSpace {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        (self.next < self.end).then(|| {
            let bits = self.next;
            self.next += 1;
            bits
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the enumeration is capped at 2^24 candidates, far below usize::MAX"
        )]
        let remaining = (self.end - self.next) as usize;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for AssignmentSpace {}

/// Validates a `2^slots` search space against [`SLOT_LIMIT`] and returns
/// its pattern enumerator.
///
/// # Errors
///
/// Returns [`ExhaustiveError::TooLarge`] when `slots > SLOT_LIMIT`.
pub fn assignment_space(slots: usize) -> Result<AssignmentSpace, ExhaustiveError> {
    if slots > SLOT_LIMIT {
        return Err(ExhaustiveError::TooLarge { slots });
    }
    Ok(AssignmentSpace {
        next: 0,
        end: 1u64 << slots,
    })
}

/// Decodes a bit pattern into a per-layer assignment; bit `l` (LSB first)
/// is layer `l`, `0` = dp, `1` = mp.
///
/// # Examples
///
/// ```
/// use hypar_comm::Parallelism::{Data, Model};
/// use hypar_core::exhaustive::assignment_from_bits;
///
/// assert_eq!(assignment_from_bits(0b0110, 4), vec![Data, Model, Model, Data]);
/// ```
#[must_use]
pub fn assignment_from_bits(bits: u64, len: usize) -> Vec<Parallelism> {
    (0..len)
        .map(|l| Parallelism::from_bit(bits >> l & 1 == 1))
        .collect()
}

/// Exhaustively finds the minimum-communication assignment for **one**
/// level (`O(2^L)`), for validating [`crate::two_group::partition`].
///
/// # Errors
///
/// Returns [`ExhaustiveError::Empty`] for a network without weighted
/// layers and [`ExhaustiveError::TooLarge`] beyond [`SLOT_LIMIT`] layers
/// (the enumeration would be infeasible — use the dynamic program).
pub fn best_level(
    net: &NetworkCommTensors,
    scales: &ScaleState,
) -> Result<(f64, Vec<Parallelism>), ExhaustiveError> {
    let len = net.len();
    if len == 0 {
        return Err(ExhaustiveError::Empty);
    }
    let mut best_cost = f64::INFINITY;
    let mut best_bits = 0u64;
    for bits in assignment_space(len)? {
        let assignment = assignment_from_bits(bits, len);
        let cost = level_cost(net, scales, &assignment).total_elems();
        if cost < best_cost {
            best_cost = cost;
            best_bits = bits;
        }
    }
    Ok((best_cost, assignment_from_bits(best_bits, len)))
}

/// Exhaustively finds the minimum-communication **joint** plan over all
/// `num_levels` levels at once (`O(2^{L·H})`), for quantifying the greedy
/// gap of Algorithm 2.
///
/// # Errors
///
/// Returns [`ExhaustiveError::Empty`] for a network without weighted
/// layers and [`ExhaustiveError::TooLarge`] when
/// `L·H > `[`SLOT_LIMIT`].
pub fn best_joint(
    net: &NetworkCommTensors,
    num_levels: usize,
) -> Result<(f64, Vec<Vec<Parallelism>>), ExhaustiveError> {
    let len = net.len();
    if len == 0 {
        return Err(ExhaustiveError::Empty);
    }
    let mut best_cost = f64::INFINITY;
    let mut best_bits = 0u64;
    for bits in assignment_space(len * num_levels)? {
        let levels: Vec<Vec<Parallelism>> = (0..num_levels)
            .map(|h| assignment_from_bits(bits >> (h * len), len))
            .collect();
        let cost = evaluate_plan(net, &levels).total_elems();
        if cost < best_cost {
            best_cost = cost;
            best_bits = bits;
        }
    }
    let levels = (0..num_levels)
        .map(|h| assignment_from_bits(best_bits >> (h * len), len))
        .collect();
    Ok((best_cost, levels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hierarchical, two_group};
    use hypar_comm::LayerCommTensors;
    use hypar_models::zoo;
    use proptest::prelude::*;

    fn view(name: &str) -> NetworkCommTensors {
        NetworkCommTensors::from_network(&zoo::by_name(name).unwrap(), 256).unwrap()
    }

    #[test]
    fn dp_matches_exhaustive_on_small_zoo_networks() {
        // All networks with L <= 13: 2^13 points is still instant.
        for name in [
            "SFC", "SCONV", "Lenet-c", "Cifar-c", "AlexNet", "VGG-A", "VGG-B",
        ] {
            let net = view(name);
            let scales = ScaleState::identity(net.len());
            let dp = two_group::partition(&net, &scales);
            let (brute_cost, _) = best_level(&net, &scales).unwrap();
            assert!(
                (dp.comm_elems - brute_cost).abs() <= 1e-9 * brute_cost.max(1.0),
                "{name}: DP {} vs exhaustive {brute_cost}",
                dp.comm_elems
            );
        }
    }

    #[test]
    fn dp_matches_exhaustive_at_descended_scales() {
        let net = view("AlexNet");
        let mut scales = ScaleState::identity(net.len());
        for _ in 0..3 {
            let dp = two_group::partition(&net, &scales);
            let (brute_cost, _) = best_level(&net, &scales).unwrap();
            assert!((dp.comm_elems - brute_cost).abs() <= 1e-9 * brute_cost.max(1.0));
            scales = scales.descend(&dp.assignment);
        }
    }

    #[test]
    fn greedy_is_close_to_joint_optimum_on_lenet() {
        // L=4, H=3 -> 2^12 joint plans.
        let net = view("Lenet-c");
        let greedy = hierarchical::partition(&net, 3).total_comm_elems();
        let (joint, _) = best_joint(&net, 3).unwrap();
        assert!(joint <= greedy + 1e-9);
        // The paper's greedy gap is small (4.97 vs 5.05 in Figure 10).
        assert!(
            greedy <= joint * 1.25,
            "greedy {greedy} too far from joint {joint}"
        );
    }

    #[test]
    fn bits_round_trip() {
        for bits in 0..16u64 {
            let a = assignment_from_bits(bits, 4);
            let back = a
                .iter()
                .enumerate()
                .fold(0u64, |acc, (l, p)| acc | (u64::from(p.bit()) << l));
            assert_eq!(back, bits);
        }
    }

    #[test]
    fn assignment_space_enumerates_every_pattern_once() {
        let space = assignment_space(4).unwrap();
        assert_eq!(space.len(), 16);
        let patterns: Vec<u64> = space.collect();
        assert_eq!(patterns, (0..16).collect::<Vec<u64>>());
        // The empty space has exactly one (empty) assignment.
        assert_eq!(assignment_space(0).unwrap().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn oversized_searches_are_typed_errors_not_panics() {
        // VGG-E has 19 layers: 19 x 4 = 76 slots for the joint search.
        let net = view("VGG-E");
        assert_eq!(
            best_joint(&net, 4).unwrap_err(),
            ExhaustiveError::TooLarge { slots: 76 }
        );
        // A 30-layer network overflows even the single-level search — the
        // class of input that used to `assert!` inside a service worker.
        let layers: Vec<LayerCommTensors> = (0..30)
            .map(|i| LayerCommTensors::fully_connected(format!("fc{i}"), 32, 64, 64))
            .collect();
        let wide = NetworkCommTensors::from_layers("wide", 32, layers);
        let err = best_level(&wide, &ScaleState::identity(30)).unwrap_err();
        assert_eq!(err, ExhaustiveError::TooLarge { slots: 30 });
        assert!(err.to_string().contains("feasibility limit"));
    }

    #[test]
    fn empty_network_is_a_typed_error() {
        let empty = NetworkCommTensors::from_layers("empty", 32, Vec::new());
        assert_eq!(
            best_level(&empty, &ScaleState::identity(0)).unwrap_err(),
            ExhaustiveError::Empty
        );
        assert_eq!(best_joint(&empty, 2).unwrap_err(), ExhaustiveError::Empty);
        assert!(ExhaustiveError::Empty.to_string().contains("empty"));
    }

    #[test]
    fn zero_levels_joint_plan_is_trivial() {
        let net = view("Lenet-c");
        let (cost, levels) = best_joint(&net, 0).unwrap();
        assert_eq!(cost, 0.0);
        assert!(levels.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The dynamic program is optimal for arbitrary synthetic networks.
        #[test]
        fn dp_is_optimal_on_random_networks(
            layer_params in proptest::collection::vec(
                (1u64..2000, 1u64..2000, any::<bool>()), 1..9
            ),
            batch in 1u64..512,
            descents in proptest::collection::vec(any::<bool>(), 0..4),
        ) {
            let layers: Vec<LayerCommTensors> = layer_params
                .iter()
                .enumerate()
                .map(|(i, &(w_in, out, is_conv))| LayerCommTensors {
                    name: format!("l{i}"),
                    is_conv,
                    weight_elems: (w_in * out) as f64,
                    input_elems: (batch * w_in) as f64,
                    output_elems: (batch * out) as f64,
                    junction_elems: (batch * out) as f64,
                })
                .collect();
            let len = layers.len();
            let net = NetworkCommTensors::from_layers("rand", batch, layers);
            let mut scales = ScaleState::identity(len);
            for &d in &descents {
                let assignment: Vec<_> = (0..len)
                    .map(|l| Parallelism::from_bit(d ^ (l % 2 == 0)))
                    .collect();
                scales = scales.descend(&assignment);
            }
            let dp = two_group::partition(&net, &scales);
            let (brute, _) = best_level(&net, &scales).unwrap();
            prop_assert!((dp.comm_elems - brute).abs() <= 1e-9 * brute.max(1.0),
                "DP {} vs exhaustive {}", dp.comm_elems, brute);
        }
    }
}
