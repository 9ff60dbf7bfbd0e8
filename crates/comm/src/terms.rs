//! The one exact cost model: a plan's communication as integer terms over
//! layers and weighted producer/consumer pairs, level by level.
//!
//! Algorithm 2 re-runs Algorithm 1 at every level `h` of the hierarchy,
//! where `2^h` group pairs each see the network with every tensor scaled
//! by the choices above: a dp level halves a layer's batch, an mp level
//! its kernel input dimension.  Every scale is a power of two, so each
//! level's array-wide amount — `2^h` times one pair's Table 1 and Table 2
//! amounts — is an integer.  With `d` the levels above `h` at which a
//! layer is dp, level `h` adds ([`CostTerms::layer_term`]):
//!
//! * `2·W·2^d` for a dp layer (Table 1: the gradient `2·A(ΔW)`, whose
//!   kernel only the `h − d` mp levels above have split);
//! * `2·O·2^(h − d)` for an mp layer (Table 1: the produced output
//!   `2·A(F_out)`, whose batch only the `d` dp levels above have split);
//!
//! and for a pair `(a, b, J)` that is not dp→dp there
//! ([`CostTerms::pair_term`]; Table 2 moves `J` per pair at full scope) `J`
//! under [`JunctionScaling::Consumer`] (the consumer's `2^−h` fraction
//! cancels the `2^h` pairs), `J·2^(h − d_a)` under Producer, or `J·2^h`
//! Unscaled.  Algorithm 1 minimizes one level's sum
//! ([`CostTerms::level_total`]); a plan's total sums every level's.
//!
//! Under Consumer scope, with `k_l` the dp levels of layer `l` and `b_e`
//! the levels where both ends of pair `e` are dp, the i-th dp level from
//! the top costs `2·W·2^i` (mp mirrors it), so
//!
//! ```text
//! total = Σ_l 2·W_l·(2^k_l − 1) + 2·O_l·(2^(H − k_l) − 1)  +  Σ_e J_e·(H − b_e)
//! ```
//!
//! (pinned by the unit tests).  Every term is exact in `u128` for counts
//! below `2^64` at up to 32 levels; counts arrive as `f64` fields, exact
//! below `2^53`, and callers report totals rounded once to `f64`.
//!
//! The closed form makes one bit flip cheap: flipping layer `l` at level
//! `h` moves `k_l` by one and `b_e` by one for each incident pair whose
//! other end is dp at `h`, so a [`FlipPricer`] prices it in
//! `O(1 + deg l)` instead of a whole `O((L + E)·H)` [`CostTerms::total`].

use serde::{Deserialize, Serialize};

use crate::{NetworkCommTensors, Parallelism};

/// How the junction tensor between two adjacent layers is scoped when the
/// hierarchical partition descends a level.
///
/// The paper's Table 2 formulas reference `A(F_{l+1})`/`A(E_{l+1})` but do
/// not say which *fraction* of the junction tensor a sub-group owns when
/// the producing and consuming layers have been partitioned differently by
/// the levels above.  This crate defaults to the **consumer** scope (see
/// the README section "The cost model: one exact evaluator"); the other
/// interpretations are kept for the ablation in the experiment harness.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JunctionScaling {
    /// The consumer layer's L-tensor layout: `bat[l+1] · fin[l+1]`
    /// (default — reproduces the paper's Figure 5 patterns).
    #[default]
    Consumer,
    /// The producer layer's R-tensor layout: `bat[l]`.
    Producer,
    /// No scaling: every level sees the full junction tensor.
    Unscaled,
}

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
    /// The terms of a chain: its layers, and as pair `l` the junction
    /// from layer `l` to layer `l + 1`.
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

    /// The number of layers the terms hold.
    #[must_use]
    pub fn num_layers(&self) -> usize {
        self.weights.len()
    }

    /// Level `h`'s array-wide Table 1 term of layer `l` when it is
    /// `choice` there: `2·W·2^d` (dp) or `2·O·2^(h − d)` (mp), with `d =
    /// dp_above[l]` the levels above `h` at which the layer is dp.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range or `dp_above[l] > h`.
    ///
    /// ```
    /// use hypar_comm::{CostTerms, LayerCommTensors, NetworkCommTensors, Parallelism};
    ///
    /// // The paper's §3.4 fc layer, 70 inputs, 100 outputs, batch 32.
    /// let fc = LayerCommTensors::fully_connected("fc", 32, 70, 100);
    /// let terms = CostTerms::chain(&NetworkCommTensors::from_layers("fc", 32, vec![fc]));
    /// assert_eq!(terms.layer_term(0, Parallelism::Data, 0, &[0]), 2 * 7_000);
    /// assert_eq!(terms.layer_term(0, Parallelism::Model, 0, &[0]), 2 * 3_200);
    /// // One dp level above: two pairs, each with half the batch.
    /// assert_eq!(terms.layer_term(0, Parallelism::Model, 1, &[1]), 2 * 3_200);
    /// ```
    #[must_use]
    pub fn layer_term(&self, l: usize, choice: Parallelism, h: usize, dp_above: &[usize]) -> u128 {
        let d = dp_above[l];
        match choice {
            Parallelism::Data => self.weights[l] << (d + 1),
            Parallelism::Model => self.outputs[l] << (h + 1 - d),
        }
    }

    /// Level `h`'s array-wide Table 2 term of pair `e` when its producer
    /// is `from` and its consumer `to` there: `0` for dp→dp, otherwise
    /// `J` (Consumer), `J·2^(h − d)` (Producer, with `d` the producer's
    /// `dp_above` count) or `J·2^h` (Unscaled).  Half of a dp→mp amount
    /// moves forward and half backward; from mp, all of it is error.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range, or under Producer scope if the
    /// producer's `dp_above` count is missing or above `h`.
    #[must_use]
    pub fn pair_term(
        &self,
        e: usize,
        (from, to): (Parallelism, Parallelism),
        h: usize,
        dp_above: &[usize],
        mode: JunctionScaling,
    ) -> u128 {
        let (producer, _, j) = self.pairs[e];
        if from == Parallelism::Data && to == Parallelism::Data {
            return 0;
        }
        match mode {
            JunctionScaling::Consumer => j,
            JunctionScaling::Producer => j << (h - dp_above[producer]),
            JunctionScaling::Unscaled => j << h,
        }
    }

    /// Level `h`'s array-wide cost of the assignment `level` under
    /// `mode`, with `dp_above[l]` the levels above `h` at which layer `l`
    /// is dp: the sum of every layer's and every pair's term.  This is
    /// what Algorithm 1 minimizes at level `h`.
    ///
    /// # Panics
    ///
    /// Panics if `level` or `dp_above` does not cover every layer.
    #[must_use]
    pub fn level_total(
        &self,
        level: &[Parallelism],
        h: usize,
        dp_above: &[usize],
        mode: JunctionScaling,
    ) -> u128 {
        let covered = level.len() == self.num_layers();
        assert!(covered, "assignment must cover every weighted layer");
        let layers: u128 = (0..level.len())
            .map(|l| self.layer_term(l, level[l], h, dp_above))
            .sum();
        let pairs: u128 = (self.pairs.iter().enumerate())
            .map(|(e, &(a, b, _))| self.pair_term(e, (level[a], level[b]), h, dp_above, mode))
            .sum();
        layers + pairs
    }

    /// A [`FlipPricer`] positioned at the plan `levels[h][l]` (top level
    /// first), its running total `total(levels, Consumer)`.
    ///
    /// # Panics
    ///
    /// Panics if a level does not cover every layer, or a pair names a
    /// layer the terms do not hold.
    #[must_use]
    pub fn flip_pricer(&self, levels: &[Vec<Parallelism>]) -> FlipPricer<'_> {
        let total = self.total(levels, JunctionScaling::Consumer);
        let len = self.num_layers();
        let mut dp_levels = vec![0; len];
        for level in levels {
            count_dp(&mut dp_levels, level);
        }
        // Compressed rows: layer l's pairs at incident[starts[l]..starts[l + 1]].
        let mut starts = vec![0; len + 1];
        for &(producer, consumer, _) in &self.pairs {
            starts[producer + 1] += 1;
            if consumer != producer {
                starts[consumer + 1] += 1;
            }
        }
        for l in 0..len {
            starts[l + 1] += starts[l];
        }
        let mut next = starts.clone();
        let mut incident = vec![(0, 0); starts[len]];
        for &(producer, consumer, j) in &self.pairs {
            incident[next[producer]] = (consumer, j);
            next[producer] += 1;
            if consumer != producer {
                incident[next[consumer]] = (producer, j);
                next[consumer] += 1;
            }
        }
        FlipPricer {
            terms: self,
            depth: levels.len(),
            plan: levels.concat(),
            dp_levels,
            starts,
            incident,
            total,
        }
    }

    /// The total array-wide communication of the plan `levels[h][l]` (top
    /// level first) under `mode`, in tensor elements: the sum of every
    /// level's [`CostTerms::level_total`].
    ///
    /// # Panics
    ///
    /// Panics if a level does not cover every layer.
    #[must_use]
    pub fn total(&self, levels: &[Vec<Parallelism>], mode: JunctionScaling) -> u128 {
        let mut dp_above = vec![0; self.num_layers()];
        let mut total = 0;
        for (h, level) in levels.iter().enumerate() {
            total += self.level_total(level, h, &dp_above, mode);
            count_dp(&mut dp_above, level);
        }
        total
    }
}

/// Adds one level's dp choices to per-layer counts: after the levels
/// above `h`, `counts` holds level `h`'s `dp_above`.
///
/// # Panics
///
/// Panics if `level` does not cover every counted layer.
///
/// ```
/// use hypar_comm::{count_dp, Parallelism::{Data, Model}};
///
/// let mut dp_above = vec![0, 0];
/// count_dp(&mut dp_above, &[Data, Model]);
/// count_dp(&mut dp_above, &[Data, Data]);
/// assert_eq!(dp_above, [2, 1]);
/// ```
pub fn count_dp(counts: &mut [usize], level: &[Parallelism]) {
    let covered = level.len() == counts.len();
    assert!(covered, "assignment must cover every weighted layer");
    for (k, &choice) in counts.iter_mut().zip(level) {
        *k += usize::from(choice == Parallelism::Data);
    }
}

/// A plan and its exact [`JunctionScaling::Consumer`] total, priced one
/// bit flip at a time: the kernel of the coordinate descent and of the
/// exhaustive Gray-code walk.
///
/// With `f_l(k) = 2·W_l·(2^k − 1) + 2·O_l·(2^(H − k) − 1)`, flipping bit
/// `(h, l)` changes the total by `f_l(k_l ± 1) − f_l(k_l)`, minus (to dp)
/// or plus (to mp) the `J` of every pair of `l` whose other end is dp at
/// level `h` — a self-pair always counts.  To dp, that adds the layer's
/// next dp term `2·W_l·2^k_l` and drops its costliest mp term
/// `2·O_l·2^(H − k_l − 1)`; to mp, the reverse.  A flip costs
/// `O(1 + deg l)` and allocates nothing, and each candidate is summed as
/// `(total + added) − removed` in `u128`, so it is the exact
/// [`CostTerms::total`] of the flipped plan.
///
/// Consumer scope only: the closed form the deltas come from holds for no
/// other [`JunctionScaling`].  The Producer and Unscaled modes never
/// search; price their plans whole with [`CostTerms::total`].
///
/// ```
/// use hypar_comm::{CostTerms, JunctionScaling, NetworkCommTensors, Parallelism};
///
/// let net = NetworkCommTensors::from_network(&hypar_models::zoo::sfc(), 256)?;
/// let terms = CostTerms::chain(&net);
/// let mut plan = vec![vec![Parallelism::Data; net.len()]; 4];
/// let mut pricer = terms.flip_pricer(&plan);
/// let flipped = pricer.flip(2, 1);
/// plan[2][1] = Parallelism::Model;
/// assert_eq!(flipped, terms.total(&plan, JunctionScaling::Consumer));
/// assert_eq!(pricer.total(), flipped);
/// # Ok::<(), hypar_models::NetworkError>(())
/// ```
#[derive(Debug)]
pub struct FlipPricer<'t> {
    terms: &'t CostTerms,
    depth: usize,
    /// The plan, level-major: bit `(h, l)` at `h·L + l`.
    plan: Vec<Parallelism>,
    /// `k_l`: the levels at which layer `l` is dp.
    dp_levels: Vec<usize>,
    /// Layer `l`'s pairs, as `(other end, J)`, are
    /// `incident[starts[l]..starts[l + 1]]`; a self-pair is listed once.
    starts: Vec<usize>,
    incident: Vec<(usize, u128)>,
    total: u128,
}

impl FlipPricer<'_> {
    /// The current plan's exact total.
    #[must_use]
    pub fn total(&self) -> u128 {
        self.total
    }

    /// The exact total of the current plan with bit `(h, l)` flipped; the
    /// plan itself is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `h` or `l` is out of range.
    #[must_use]
    pub fn flipped_total(&self, h: usize, l: usize) -> u128 {
        let k = self.dp_levels[l];
        let len = self.dp_levels.len();
        let level = &self.plan[h * len..(h + 1) * len];
        let (w, o) = (self.terms.weights[l], self.terms.outputs[l]);
        let to_dp = level[l] == Parallelism::Model;
        let (mut added, mut removed) = if to_dp {
            (w << (k + 1), o << (self.depth - k))
        } else {
            (o << (self.depth - k + 1), w << k)
        };
        for &(other, j) in &self.incident[self.starts[l]..self.starts[l + 1]] {
            if other == l || level[other] == Parallelism::Data {
                if to_dp {
                    removed += j;
                } else {
                    added += j;
                }
            }
        }
        (self.total + added) - removed
    }

    /// Flips bit `(h, l)` and returns the new exact total.
    ///
    /// # Panics
    ///
    /// Panics if `h` or `l` is out of range.
    pub fn flip(&mut self, h: usize, l: usize) -> u128 {
        self.total = self.flipped_total(h, l);
        let bit = &mut self.plan[h * self.dp_levels.len() + l];
        if *bit == Parallelism::Data {
            self.dp_levels[l] -= 1;
        } else {
            self.dp_levels[l] += 1;
        }
        *bit = bit.flipped();
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LayerCommTensors;
    use hypar_models::zoo;
    use proptest::prelude::*;
    use Parallelism::{Data, Model};

    const MODES: [JunctionScaling; 3] = [
        JunctionScaling::Consumer,
        JunctionScaling::Producer,
        JunctionScaling::Unscaled,
    ];

    /// Algorithm 2's definition in `f64`, written out: at level `h`,
    /// `2^h` pairs each exchange Table 1's `2·A(ΔW)` (dp) or `2·A(F_out)`
    /// (mp) per layer, and Table 2's `A(junction)` per junction that is
    /// not dp→dp, every tensor scaled by the fractions the levels above
    /// committed: a dp level halves a layer's batch, an mp level its
    /// input features.
    fn oracle(net: &NetworkCommTensors, levels: &[Vec<Parallelism>], mode: JunctionScaling) -> f64 {
        let (mut batch, mut features) = (vec![1.0; net.len()], vec![1.0; net.len()]);
        let mut total = 0.0;
        for (h, level) in levels.iter().enumerate() {
            let mut pair = 0.0;
            for (l, layer) in net.layers().iter().enumerate() {
                pair += match level[l] {
                    Data => 2.0 * layer.weight_elems * features[l],
                    Model => 2.0 * layer.output_elems * batch[l],
                };
                if l + 1 < net.len() && (level[l], level[l + 1]) != (Data, Data) {
                    pair += layer.junction_elems
                        * match mode {
                            JunctionScaling::Consumer => batch[l + 1] * features[l + 1],
                            JunctionScaling::Producer => batch[l],
                            JunctionScaling::Unscaled => 1.0,
                        };
                }
            }
            total += f64::from(1u32 << h) * pair;
            for (l, &choice) in level.iter().enumerate() {
                match choice {
                    Data => batch[l] /= 2.0,
                    Model => features[l] /= 2.0,
                }
            }
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
    fn junction_scaling_default_is_consumer() {
        assert_eq!(JunctionScaling::default(), JunctionScaling::Consumer);
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

    /// The pricer is exact: every single-bit flip it prices equals the
    /// flipped plan's [`CostTerms::total`], and after a seeded sequence of
    /// flips its running total equals the final plan's.
    fn assert_flips_are_exact(terms: &CostTerms, levels: &[Vec<Parallelism>], seed: u64) {
        let consumer = |plan: &[Vec<Parallelism>]| terms.total(plan, JunctionScaling::Consumer);
        let mut pricer = terms.flip_pricer(levels);
        assert_eq!(pricer.total(), consumer(levels));
        let mut plan = levels.to_vec();
        for h in 0..plan.len() {
            for l in 0..terms.num_layers() {
                plan[h][l] = plan[h][l].flipped();
                assert_eq!(pricer.flipped_total(h, l), consumer(&plan), "({h}, {l})");
                plan[h][l] = plan[h][l].flipped();
            }
        }
        if plan.is_empty() || terms.num_layers() == 0 {
            return;
        }
        let mut state = seed | 1;
        for _ in 0..64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let slot = usize::try_from(state % (plan.len() * terms.num_layers()) as u64).unwrap();
            let (h, l) = (slot / terms.num_layers(), slot % terms.num_layers());
            plan[h][l] = plan[h][l].flipped();
            assert_eq!(pricer.flip(h, l), consumer(&plan), "flip ({h}, {l})");
        }
        assert_eq!(pricer.total(), consumer(&plan));
    }

    #[test]
    fn flips_are_exact_at_32_levels() {
        let (net, levels) = random_case(&[(1999, 7), (3, 1500), (640, 640)], 4127, 32, 9);
        assert_flips_are_exact(&CostTerms::chain(&net), &levels, 9);
    }

    #[test]
    fn flips_are_exact_with_a_pair_listed_twice() {
        let (net, levels) = random_case(&[(20, 30), (30, 40), (40, 5)], 64, 6, 3);
        let mut terms = CostTerms::chain(&net);
        terms.push_pair(0, 2, 700.0);
        terms.push_pair(0, 2, 700.0);
        terms.push_pair(1, 2, 5.0);
        assert_flips_are_exact(&terms, &levels, 3);
    }

    #[test]
    fn flips_are_exact_with_a_self_pair() {
        // A pair whose producer is its consumer is dp→dp exactly where
        // its one layer is dp, so every flip of that layer moves b_e.
        let (net, levels) = random_case(&[(20, 30), (30, 40)], 64, 5, 11);
        let mut terms = CostTerms::chain(&net);
        terms.push_pair(1, 1, 900.0);
        terms.push_pair(0, 0, 13.0);
        assert_flips_are_exact(&terms, &levels, 11);
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

        /// Every flip the pricer prices is the flipped plan's exact total,
        /// on random chains with random extra pairs (duplicates and
        /// self-pairs included), H0–16.
        #[test]
        fn flip_pricer_is_exact(
            params in proptest::collection::vec((1u64..2000, 1u64..2000), 1..9),
            extra in proptest::collection::vec((0usize..8, 0usize..8, 1u64..5000), 0..4),
            batch in 1u64..4301,
            depth in 0usize..17,
            seed in any::<u64>(),
        ) {
            let (net, levels) = random_case(&params, batch, depth, seed);
            let mut terms = CostTerms::chain(&net);
            for &(producer, consumer, elems) in &extra {
                terms.push_pair(producer % net.len(), consumer % net.len(), elems as f64);
            }
            assert_flips_are_exact(&terms, &levels, seed);
        }
    }
}
