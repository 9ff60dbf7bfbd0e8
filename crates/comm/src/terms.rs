//! The one exact cost evaluator: a plan's total communication as an
//! integer function over layers and weighted producer/consumer pairs.
//!
//! Algorithm 2 weights one group pair's [`crate::level_cost`] at level `h`
//! by the level's `2^h` pairs, and every scale is a power of two, so each
//! weighted term is an integer.  With `d_l` the levels above `h` at which
//! layer `l` is dp, level `h` adds `2·W_l·2^d_l` for a dp layer,
//! `2·O_l·2^(h − d_l)` for an mp layer, and for a pair `(a, b, J)` that is
//! not dp→dp `J` ([`JunctionScaling::Consumer`]: the consumer's `2^−h`
//! fraction cancels the `2^h` pairs), `J·2^(h − d_a)` (Producer) or
//! `J·2^h` (Unscaled).  Under Consumer scope, with `k_l` the dp levels of
//! layer `l` and `b_e` the levels where both ends of pair `e` are dp, the
//! i-th dp level from the top costs `2·W·2^i` (mp mirrors it), so
//!
//! ```text
//! total = Σ_l 2·W_l·(2^k_l − 1) + 2·O_l·(2^(H − k_l) − 1)  +  Σ_e J_e·(H − b_e)
//! ```
//!
//! (pinned by the unit tests; [`CostTerms::total`] sums the per-level
//! terms).  The sum is exact in `u128` for counts below `2^64` at up to 32
//! levels; counts arrive as `f64` fields, exact below `2^53`, and callers
//! report the total rounded once to `f64`.

use crate::{JunctionScaling, NetworkCommTensors, Parallelism};

/// The integer data of the cost model: a weight count `W_l` and an output
/// count `O_l` per layer, and pairs `(producer, consumer, J)`.  A chain
/// junction `(l, l + 1, junction_elems_l)` and a segment-graph edge are
/// the same kind of pair.  Build the terms once per network, then price
/// any number of plans with [`CostTerms::total`].
///
/// ```
/// use hypar_comm::{CostTerms, JunctionScaling, NetworkCommTensors, Parallelism};
///
/// let net = NetworkCommTensors::from_network(&hypar_models::zoo::sfc(), 256)?;
/// let all_dp = vec![vec![Parallelism::Data; net.len()]; 4];
/// // (1+2+4+8) pairs x 2 x 140,722,176 weights.
/// let total = CostTerms::chain(&net).total(&all_dp, JunctionScaling::Consumer);
/// assert_eq!(total, 15 * 2 * 140_722_176);
/// # Ok::<(), hypar_models::NetworkError>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CostTerms {
    weights: Vec<u128>,
    outputs: Vec<u128>,
    pairs: Vec<(usize, usize, u128)>,
}

/// An element count as an integer: counts are `u64` values held in `f64`.
#[expect(
    clippy::cast_possible_truncation,
    reason = "element counts are integral u64 values held in f64"
)]
fn count(elems: f64) -> u128 {
    elems as u128
}

impl CostTerms {
    /// The terms of a chain: its layers and one pair per junction.
    #[must_use]
    pub fn chain(net: &NetworkCommTensors) -> Self {
        let mut terms = Self::default();
        terms.push_chain(net);
        terms
    }

    /// Appends a chain's layers after those already held, with one pair
    /// per junction between its adjacent layers.
    pub fn push_chain(&mut self, net: &NetworkCommTensors) {
        let offset = self.weights.len();
        for (l, layer) in net.layers().iter().enumerate() {
            self.weights.push(count(layer.weight_elems));
            self.outputs.push(count(layer.output_elems));
            if l + 1 < net.len() {
                let junction = (offset + l, offset + l + 1, count(layer.junction_elems));
                self.pairs.push(junction);
            }
        }
    }

    /// Adds a pair: layer `producer` hands `elems` elements to layer
    /// `consumer` (forward), and the error flows back (backward).
    pub fn push_pair(&mut self, producer: usize, consumer: usize, elems: f64) {
        self.pairs.push((producer, consumer, count(elems)));
    }

    /// The total array-wide communication of the plan `levels[h][l]` (top
    /// level first) under `mode`, in tensor elements.
    ///
    /// # Panics
    ///
    /// Panics if a level does not cover every layer.
    #[must_use]
    pub fn total(&self, levels: &[Vec<Parallelism>], mode: JunctionScaling) -> u128 {
        let covered = levels.iter().all(|level| level.len() == self.weights.len());
        assert!(covered, "assignment must cover every weighted layer");
        let mut total = 0u128;
        for (l, (&w, &o)) in self.weights.iter().zip(&self.outputs).enumerate() {
            let mut dp_above = 0;
            for (h, level) in levels.iter().enumerate() {
                // 2·W·2^d and 2·O·2^(h − d), with d the dp levels above h.
                total += match level[l] {
                    Parallelism::Data => {
                        dp_above += 1;
                        w << dp_above
                    }
                    Parallelism::Model => o << (h + 1 - dp_above),
                };
            }
        }
        for &(producer, consumer, j) in &self.pairs {
            let mut producer_dp_above = 0;
            for (h, level) in levels.iter().enumerate() {
                let from = level[producer];
                if from != Parallelism::Data || level[consumer] != Parallelism::Data {
                    total += match mode {
                        JunctionScaling::Consumer => j,
                        JunctionScaling::Producer => j << (h - producer_dp_above),
                        JunctionScaling::Unscaled => j << h,
                    };
                }
                if from == Parallelism::Data {
                    producer_dp_above += 1;
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{level_cost, LayerCommTensors, ScaleState};
    use hypar_models::zoo;
    use proptest::prelude::*;
    use Parallelism::{Data, Model};

    const MODES: [JunctionScaling; 3] = [
        JunctionScaling::Consumer,
        JunctionScaling::Producer,
        JunctionScaling::Unscaled,
    ];

    /// Algorithm 2's definition: `2^h` times one group pair's
    /// [`level_cost`], with the scales descending level by level.
    fn oracle(net: &NetworkCommTensors, levels: &[Vec<Parallelism>], mode: JunctionScaling) -> f64 {
        let mut scales = ScaleState::identity(net.len());
        let mut total = 0.0;
        for (h, assignment) in levels.iter().enumerate() {
            total +=
                f64::from(1u32 << h) * level_cost(net, &scales, assignment, mode).total_elems();
            scales = scales.descend(assignment);
        }
        total
    }

    /// The Consumer closed form, written out.
    fn closed_form(net: &NetworkCommTensors, levels: &[Vec<Parallelism>]) -> u128 {
        let depth = levels.len();
        let dp_levels = |l: usize| levels.iter().filter(|level| level[l] == Data).count();
        let mut total = 0u128;
        for (l, layer) in net.layers().iter().enumerate() {
            let k = dp_levels(l);
            total += 2 * count(layer.weight_elems) * ((1u128 << k) - 1);
            total += 2 * count(layer.output_elems) * ((1u128 << (depth - k)) - 1);
            if l + 1 < net.len() {
                let both = levels
                    .iter()
                    .filter(|level| level[l] == Data && level[l + 1] == Data)
                    .count();
                total += count(layer.junction_elems) * (depth - both) as u128;
            }
        }
        total
    }

    /// A random chain of fc/conv-like layers, as in core's DP optimality
    /// proptest, with a random plan over `depth` levels.
    fn random_case(
        params: &[(u64, u64)],
        batch: u64,
        depth: usize,
        seed: u64,
    ) -> (NetworkCommTensors, Vec<Vec<Parallelism>>) {
        let layers: Vec<LayerCommTensors> = params
            .iter()
            .enumerate()
            .map(|(i, &(w_in, out))| {
                LayerCommTensors::fully_connected(format!("l{i}"), batch, w_in, out)
            })
            .collect();
        let len = layers.len();
        let mut state = seed | 1;
        let levels = (0..depth)
            .map(|_| {
                (0..len)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        Parallelism::from_bit(state & 1 == 1)
                    })
                    .collect()
            })
            .collect();
        (
            NetworkCommTensors::from_layers("rand", batch, layers),
            levels,
        )
    }

    #[test]
    fn chain_terms_hold_layers_and_junctions() {
        let net = NetworkCommTensors::from_network(&zoo::lenet_c(), 256).unwrap();
        let terms = CostTerms::chain(&net);
        assert_eq!(terms.weights.len(), 4);
        assert_eq!(terms.pairs.len(), 3);
        assert_eq!(terms.pairs[0], (0, 1, 256 * 2880));
    }

    #[test]
    fn no_levels_cost_nothing() {
        let net = NetworkCommTensors::from_network(&zoo::lenet_c(), 256).unwrap();
        for mode in MODES {
            assert_eq!(CostTerms::chain(&net).total(&[], mode), 0);
        }
    }

    #[test]
    fn all_mp_pays_every_junction_at_every_level() {
        // Consumer scope: each non-dp→dp pair costs exactly J per level.
        let net = NetworkCommTensors::from_network(&zoo::lenet_c(), 256).unwrap();
        let terms = CostTerms::chain(&net);
        let plan = vec![vec![Model; 4]; 3];
        let intra: u128 = net
            .layers()
            .iter()
            .map(|l| 2 * count(l.output_elems) * 7)
            .sum();
        let junctions: u128 = net.layers()[..3]
            .iter()
            .map(|l| 3 * count(l.junction_elems))
            .sum();
        assert_eq!(
            terms.total(&plan, JunctionScaling::Consumer),
            intra + junctions
        );
    }

    #[test]
    fn a_pair_between_any_two_layers_is_priced_like_a_junction() {
        // A graph edge from layer 0 to layer 2 costs what a chain junction
        // with the same ends and elements costs.
        let fc = |name| LayerCommTensors::fully_connected(name, 8, 16, 16);
        let net = NetworkCommTensors::from_layers("three", 8, vec![fc("a"), fc("b"), fc("c")]);
        let mut terms = CostTerms::chain(&net);
        terms.push_pair(0, 2, 1000.0);
        let plan = vec![vec![Model, Data, Data], vec![Data, Data, Model]];
        for mode in MODES {
            let chain = CostTerms::chain(&net).total(&plan, mode);
            let with_pair = terms.total(&plan, mode);
            let edge = match mode {
                // mp→dp at h = 0, dp→mp at h = 1: J at each level.
                JunctionScaling::Consumer => 1000 + 1000,
                // The producer is mp at h = 0, so its batch is still
                // whole at h = 1, where the level's two pairs each pay J.
                JunctionScaling::Producer => 1000 + 2000,
                JunctionScaling::Unscaled => 1000 + 2000,
            };
            assert_eq!(with_pair - chain, edge, "{mode:?}");
        }
    }

    #[test]
    #[should_panic(expected = "assignment must cover")]
    fn short_levels_panic() {
        let net = NetworkCommTensors::from_network(&zoo::lenet_c(), 256).unwrap();
        let _ = CostTerms::chain(&net).total(&[vec![Data; 3]], JunctionScaling::Consumer);
    }

    #[test]
    fn totals_past_two_to_the_53_are_exact() {
        // SFC at batch 2^28 all-mp over 16 levels: the exact total is far
        // above 2^53, and the per-level f64 sum no longer represents it.
        let net = NetworkCommTensors::from_network(&zoo::sfc(), 1 << 28).unwrap();
        let plan = vec![vec![Model; net.len()]; 16];
        let exact = CostTerms::chain(&net).total(&plan, JunctionScaling::Consumer);
        assert!(exact >= 1 << 53);
        assert_eq!(exact, closed_form(&net, &plan));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The evaluator equals Algorithm 2's level-by-level definition on
        /// random chains and plans, in every junction mode, H0–16.
        #[test]
        fn equals_the_level_by_level_definition(
            params in proptest::collection::vec((1u64..2000, 1u64..2000), 1..9),
            batch in 1u64..4301,
            depth in 0usize..17,
            seed in any::<u64>(),
        ) {
            let (net, levels) = random_case(&params, batch, depth, seed);
            let terms = CostTerms::chain(&net);
            for mode in MODES {
                prop_assert_eq!(terms.total(&levels, mode) as f64, oracle(&net, &levels, mode));
            }
        }

        /// Under Consumer scope the total is the closed form
        /// `Σ 2W(2^k − 1) + 2O(2^(H−k) − 1) + Σ J(H − b)`.
        #[test]
        fn consumer_total_is_the_closed_form(
            params in proptest::collection::vec((1u64..2000, 1u64..2000), 1..9),
            batch in 1u64..4301,
            depth in 0usize..17,
            seed in any::<u64>(),
        ) {
            let (net, levels) = random_case(&params, batch, depth, seed);
            prop_assert_eq!(
                CostTerms::chain(&net).total(&levels, JunctionScaling::Consumer),
                closed_form(&net, &levels)
            );
        }
    }
}
