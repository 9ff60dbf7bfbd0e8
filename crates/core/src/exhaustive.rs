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
//! shared [`AssignmentSpace`] enumerator backs [`best_level`] and
//! [`best_joint_terms`], the one joint search behind [`best_joint`] and
//! the DAG-side `hypar_graph::best_joint_graph`.  The joint search walks
//! the patterns in reflected Gray-code order, so consecutive candidates
//! differ in one bit and each is priced in `O(1 + degree)` by a
//! [`hypar_comm::FlipPricer`].

use std::fmt;

use hypar_comm::{CostTerms, JunctionScaling, NetworkCommTensors, Parallelism};

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
/// level (`O(2^L)`): the assignment minimizing [`CostTerms::level_total`]
/// at level `h`, with `dp_above` and `mode` as in
/// [`crate::two_group::partition`], for validating that dynamic program.
/// Among equal costs the smallest bit pattern wins.
///
/// # Errors
///
/// Returns [`ExhaustiveError::Empty`] for terms without layers and
/// [`ExhaustiveError::TooLarge`] beyond [`SLOT_LIMIT`] layers (the
/// enumeration would be infeasible — use the dynamic program).
pub fn best_level(
    terms: &CostTerms,
    h: usize,
    dp_above: &[usize],
    mode: JunctionScaling,
) -> Result<(u128, Vec<Parallelism>), ExhaustiveError> {
    let len = terms.num_layers();
    if len == 0 {
        return Err(ExhaustiveError::Empty);
    }
    let (cost, bits) = assignment_space(len)?
        .map(|bits| {
            let assignment = assignment_from_bits(bits, len);
            (terms.level_total(&assignment, h, dp_above, mode), bits)
        })
        .min()
        .unwrap_or_default();
    Ok((cost, assignment_from_bits(bits, len)))
}

/// Exhaustively finds the minimum-communication **joint** plan over all
/// `num_levels` levels at once (`O(2^{L·H})`), for quantifying the greedy
/// gap of Algorithm 2.  Candidates are compared by their exact
/// [`CostTerms::total`] ([`best_joint_terms`] on the chain's terms); among
/// equal costs the smallest bit pattern wins, and the cost is returned
/// rounded once to `f64`.
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
    let (cost, levels) = best_joint_terms(&CostTerms::chain(net), num_levels)?;
    Ok((cost as f64, levels))
}

/// The minimum exact [`JunctionScaling::Consumer`] total of `terms` over
/// every joint plan of `num_levels` levels, and the plan that attains it.
///
/// Bit `h·L + l` of a pattern is layer `l`'s choice at level `h` (LSB
/// first, `0` = dp, `1` = mp).  One reflected-Gray-code walk visits all
/// `2^{L·H}` patterns from the all-dp plan: step `i` flips slot
/// `trailing_zeros(i)` and reaches pattern `i ^ (i >> 1)`, priced by a
/// [`hypar_comm::FlipPricer`] in `O(1 + degree)`.  Among equal costs the
/// smallest pattern wins, whatever the walk's order — the first minimum
/// in counting order.
///
/// # Errors
///
/// Returns [`ExhaustiveError::Empty`] for terms without layers and
/// [`ExhaustiveError::TooLarge`] when `L·H > `[`SLOT_LIMIT`].
pub fn best_joint_terms(
    terms: &CostTerms,
    num_levels: usize,
) -> Result<(u128, Vec<Vec<Parallelism>>), ExhaustiveError> {
    let len = terms.num_layers();
    if len == 0 {
        return Err(ExhaustiveError::Empty);
    }
    let space = assignment_space(len * num_levels)?;
    let slots: Vec<(usize, usize)> = (0..num_levels)
        .flat_map(|h| (0..len).map(move |l| (h, l)))
        .collect();
    let mut pricer = terms.flip_pricer(&vec![vec![Parallelism::Data; len]; num_levels]);
    let mut best = (pricer.total(), 0u64);
    // Step i flips slot trailing_zeros(i) and reaches pattern i ^ (i >> 1);
    // the tuple minimum breaks cost ties toward the smaller pattern.
    for step in space.skip(1) {
        let (h, l) = slots[step.trailing_zeros() as usize];
        best = best.min((pricer.flip(h, l), step ^ (step >> 1)));
    }
    let levels = (0..num_levels)
        .map(|h| assignment_from_bits(best.1 >> (h * len), len))
        .collect();
    Ok((best.0, levels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hierarchical, two_group};
    use hypar_comm::{count_dp, LayerCommTensors};
    use hypar_models::zoo;
    use proptest::prelude::*;

    const MODES: [JunctionScaling; 3] = [
        JunctionScaling::Consumer,
        JunctionScaling::Producer,
        JunctionScaling::Unscaled,
    ];

    fn view(name: &str) -> NetworkCommTensors {
        NetworkCommTensors::from_network(&zoo::by_name(name).unwrap(), 256).unwrap()
    }

    /// The joint search as it ran before the Gray walk: every pattern in
    /// counting order, each priced whole; the first minimum wins.  Kept
    /// as the oracle [`best_joint_terms`] must reproduce.
    fn best_by_counting(terms: &CostTerms, num_levels: usize) -> (u128, Vec<Vec<Parallelism>>) {
        let len = terms.num_layers();
        let mut levels = vec![vec![Parallelism::Data; len]; num_levels];
        let (best_cost, best_bits) = assignment_space(len * num_levels)
            .unwrap()
            .map(|bits| {
                for (h, level) in levels.iter_mut().enumerate() {
                    for (l, choice) in level.iter_mut().enumerate() {
                        *choice = Parallelism::from_bit(bits >> (h * len + l) & 1 == 1);
                    }
                }
                (terms.total(&levels, JunctionScaling::Consumer), bits)
            })
            .min_by_key(|&(cost, _)| cost)
            .unwrap_or_default();
        let levels = (0..num_levels)
            .map(|h| assignment_from_bits(best_bits >> (h * len), len))
            .collect();
        (best_cost, levels)
    }

    /// A layer with the given weight, output and junction counts.
    fn layer(weights: f64, outputs: f64, junction: f64) -> LayerCommTensors {
        LayerCommTensors {
            name: "l".to_owned(),
            is_conv: false,
            weight_elems: weights,
            input_elems: 0.0,
            output_elems: outputs,
            junction_elems: junction,
        }
    }

    #[test]
    fn gray_walk_matches_the_counting_oracle_on_the_chain_zoo() {
        // Every chain zoo case of at most 16 slots, at five batches.
        let mut cases = 0;
        for name in zoo::NAMES {
            for batch in [1, 7, 64, 256, 4127] {
                let net =
                    NetworkCommTensors::from_network(&zoo::by_name(name).unwrap(), batch).unwrap();
                let terms = CostTerms::chain(&net);
                for depth in (0..=16).take_while(|depth| net.len() * depth <= 16) {
                    assert_eq!(
                        best_joint_terms(&terms, depth).unwrap(),
                        best_by_counting(&terms, depth),
                        "{name} b{batch} H{depth}"
                    );
                    cases += 1;
                }
            }
        }
        assert!(cases >= 50, "covered {cases} cases");
    }

    #[test]
    fn all_tied_plans_go_to_the_all_dp_pattern() {
        // Zero counts: all 2^12 plans cost 0, and pattern 0 wins.
        let zero = (0..4).map(|_| layer(0.0, 0.0, 0.0)).collect();
        let terms = CostTerms::chain(&NetworkCommTensors::from_layers("zero", 1, zero));
        let found = best_joint_terms(&terms, 3).unwrap();
        assert_eq!(found, (0, vec![vec![Parallelism::Data; 4]; 3]));
        assert_eq!(found, best_by_counting(&terms, 3));
    }

    #[test]
    fn equal_minima_go_to_the_smaller_pattern() {
        // Layer 0 has W = O, so with layer 1 mp it costs the same either
        // way: patterns 0b10 and 0b11 tie at 20 + 10 + 1 = 31, below
        // 0b00 (220) and 0b01 (221).  The Gray walk reaches 0b11 first;
        // counting order reaches 0b10 first, and it must win.
        let net = NetworkCommTensors::from_layers(
            "tie",
            1,
            vec![layer(10.0, 10.0, 1.0), layer(100.0, 5.0, 0.0)],
        );
        let terms = CostTerms::chain(&net);
        let mp_only_one = vec![vec![Parallelism::Data, Parallelism::Model]];
        assert_eq!(terms.total(&mp_only_one, JunctionScaling::Consumer), 31);
        let both_mp = vec![vec![Parallelism::Model; 2]];
        assert_eq!(terms.total(&both_mp, JunctionScaling::Consumer), 31);
        let found = best_joint_terms(&terms, 1).unwrap();
        assert_eq!(found, (31, mp_only_one));
        assert_eq!(found, best_by_counting(&terms, 1));
    }

    #[test]
    fn dp_matches_exhaustive_on_small_zoo_networks() {
        // All networks with L <= 13: 2^13 points is still instant.
        for name in [
            "SFC", "SCONV", "Lenet-c", "Cifar-c", "AlexNet", "VGG-A", "VGG-B",
        ] {
            let terms = CostTerms::chain(&view(name));
            let dp_above = vec![0; terms.num_layers()];
            for mode in MODES {
                let dp = two_group::partition(&terms, 0, &dp_above, mode);
                let (brute_cost, _) = best_level(&terms, 0, &dp_above, mode).unwrap();
                assert_eq!(dp.comm_elems, brute_cost, "{name} {mode:?}");
            }
        }
    }

    #[test]
    fn dp_matches_exhaustive_at_descended_scales() {
        let terms = CostTerms::chain(&view("AlexNet"));
        for mode in MODES {
            let mut dp_above = vec![0; terms.num_layers()];
            for h in 0..3 {
                let dp = two_group::partition(&terms, h, &dp_above, mode);
                let (brute_cost, _) = best_level(&terms, h, &dp_above, mode).unwrap();
                assert_eq!(dp.comm_elems, brute_cost, "H{h} {mode:?}");
                count_dp(&mut dp_above, &dp.assignment);
            }
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
        let wide = CostTerms::chain(&wide);
        let err = best_level(&wide, 0, &[0; 30], JunctionScaling::Consumer).unwrap_err();
        assert_eq!(err, ExhaustiveError::TooLarge { slots: 30 });
        assert!(err.to_string().contains("feasibility limit"));
    }

    #[test]
    fn empty_network_is_a_typed_error() {
        let empty = NetworkCommTensors::from_layers("empty", 32, Vec::new());
        assert_eq!(
            best_level(&CostTerms::chain(&empty), 0, &[], JunctionScaling::Consumer).unwrap_err(),
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
            let terms = CostTerms::chain(&NetworkCommTensors::from_layers("rand", batch, layers));
            let mut dp_above = vec![0; len];
            for &d in &descents {
                let assignment: Vec<_> = (0..len)
                    .map(|l| Parallelism::from_bit(d ^ (l % 2 == 0)))
                    .collect();
                count_dp(&mut dp_above, &assignment);
            }
            for mode in MODES {
                let dp = two_group::partition(&terms, descents.len(), &dp_above, mode);
                let (brute, _) = best_level(&terms, descents.len(), &dp_above, mode).unwrap();
                prop_assert_eq!(dp.comm_elems, brute, "{:?}", mode);
            }
        }
    }
}
