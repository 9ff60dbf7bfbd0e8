//! Hierarchical tensor-scale bookkeeping.
//!
//! Algorithm 2 in the paper applies the two-group partition recursively:
//! after a level commits to an assignment, each of the two sub-groups faces
//! the *same* network with *smaller* tensors.  Which tensors shrink depends
//! on the committed choice per layer (Figure 1):
//!
//! * **dp** partitions the mini-batch → the layer's batch fraction halves;
//! * **mp** partitions the kernel along its input dimension → the layer's
//!   input-feature fraction halves (its *output* stays full width, as the
//!   partial-sum responsibility covers all output features).

use hypar_tensor::Frac;
use serde::{Deserialize, Serialize};

use crate::Parallelism;

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

/// The accumulated tensor fractions of one layer after zero or more
/// hierarchy levels have committed their parallelism.
///
/// # Examples
///
/// ```
/// use hypar_comm::{LayerScale, Parallelism};
///
/// let s = LayerScale::default()
///     .descend(Parallelism::Data)
///     .descend(Parallelism::Data)
///     .descend(Parallelism::Model);
/// assert_eq!(s.batch_fraction().value(), 0.25);
/// assert_eq!(s.input_fraction().value(), 0.5);
/// ```
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LayerScale {
    bat: Frac,
    fin: Frac,
}

impl LayerScale {
    /// The unpartitioned scale (both fractions are 1).
    pub const IDENTITY: Self = Self {
        bat: Frac::ONE,
        fin: Frac::ONE,
    };

    /// The batch fraction accumulated from data-parallel choices above.
    #[must_use]
    pub fn batch_fraction(self) -> Frac {
        self.bat
    }

    /// The input-feature (kernel input dimension) fraction accumulated from
    /// model-parallel choices above.
    #[must_use]
    pub fn input_fraction(self) -> Frac {
        self.fin
    }

    /// The scale after one more level commits `choice` for this layer.
    #[must_use]
    pub fn descend(self, choice: Parallelism) -> Self {
        match choice {
            Parallelism::Data => Self {
                bat: self.bat.halved(),
                fin: self.fin,
            },
            Parallelism::Model => Self {
                bat: self.bat,
                fin: self.fin.halved(),
            },
        }
    }

    /// Fraction of `A(W_l)`/`A(ΔW_l)` a sub-group holds: kernels shrink
    /// only along their input dimension (mp).
    #[must_use]
    pub fn weight_scale(self) -> f64 {
        self.fin.value()
    }

    /// Fraction of the produced output `A(F_{l+1})`/`A(E_{l+1})` in this
    /// layer's computation scope: outputs shrink only with the batch (dp) —
    /// under mp each group is responsible for full-width partial sums.
    #[must_use]
    pub fn output_scale(self) -> f64 {
        self.bat.value()
    }

    /// Fraction of the consumed input `A(F_l)`/`A(E_l)`: shrinks with both
    /// the batch (dp) and the feature dimension (mp).
    #[must_use]
    pub fn input_scale(self) -> f64 {
        self.bat.value() * self.fin.value()
    }
}

/// The scales of every layer of a network at some depth of the hierarchy.
///
/// # Examples
///
/// ```
/// use hypar_comm::{Parallelism, ScaleState};
///
/// let state = ScaleState::identity(3)
///     .descend(&[Parallelism::Data, Parallelism::Model, Parallelism::Model]);
/// assert_eq!(state.layer(0).batch_fraction().value(), 0.5);
/// assert_eq!(state.layer(1).input_fraction().value(), 0.5);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScaleState {
    layers: Vec<LayerScale>,
}

impl ScaleState {
    /// The unpartitioned state for a network of `len` weighted layers.
    #[must_use]
    pub fn identity(len: usize) -> Self {
        Self {
            layers: vec![LayerScale::IDENTITY; len],
        }
    }

    /// Number of layers tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the state tracks no layers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The scale of layer `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    #[must_use]
    pub fn layer(&self, l: usize) -> LayerScale {
        self.layers[l]
    }

    /// All per-layer scales in order.
    #[must_use]
    pub fn layers(&self) -> &[LayerScale] {
        &self.layers
    }

    /// The state after one more level commits `assignment`.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len()` differs from the tracked layer count —
    /// an assignment always covers every weighted layer.
    #[must_use]
    pub fn descend(&self, assignment: &[Parallelism]) -> Self {
        assert_eq!(
            assignment.len(),
            self.layers.len(),
            "assignment must cover every weighted layer"
        );
        Self {
            layers: self
                .layers
                .iter()
                .zip(assignment)
                .map(|(s, &p)| s.descend(p))
                .collect(),
        }
    }

    /// The junction scale between layer `l` and `l+1` under a
    /// [`JunctionScaling`] interpretation: the fraction of the junction
    /// tensor a sub-group is responsible for (see the README section "The
    /// cost model: one exact evaluator").
    ///
    /// # Panics
    ///
    /// Panics if `l + 1` is out of range.
    #[must_use]
    pub fn junction_scale(&self, l: usize, mode: JunctionScaling) -> f64 {
        junction_scale_between(self.layers[l], self.layers[l + 1], mode)
    }
}

/// The fraction of a junction tensor in scope between an arbitrary
/// producer/consumer layer pair, under a [`JunctionScaling`]
/// interpretation.
///
/// For adjacent chain layers this is exactly
/// [`ScaleState::junction_scale`]; the DAG pipeline also prices
/// *inter-segment* junctions, where the producing and consuming layers
/// live in different segments and carry independently accumulated scales.
///
/// # Examples
///
/// ```
/// use hypar_comm::{junction_scale_between, JunctionScaling, LayerScale, Parallelism};
///
/// let producer = LayerScale::default().descend(Parallelism::Data);
/// let consumer = LayerScale::default().descend(Parallelism::Model);
/// assert_eq!(junction_scale_between(producer, consumer, JunctionScaling::Consumer), 0.5);
/// assert_eq!(junction_scale_between(producer, consumer, JunctionScaling::Producer), 0.5);
/// assert_eq!(junction_scale_between(producer, consumer, JunctionScaling::Unscaled), 1.0);
/// ```
#[must_use]
pub fn junction_scale_between(
    producer: LayerScale,
    consumer: LayerScale,
    mode: JunctionScaling,
) -> f64 {
    match mode {
        JunctionScaling::Consumer => consumer.input_scale(),
        JunctionScaling::Producer => producer.output_scale(),
        JunctionScaling::Unscaled => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_is_all_ones() {
        let s = ScaleState::identity(4);
        for l in 0..4 {
            assert_eq!(s.layer(l).weight_scale(), 1.0);
            assert_eq!(s.layer(l).output_scale(), 1.0);
            assert_eq!(s.layer(l).input_scale(), 1.0);
        }
    }

    #[test]
    fn dp_halves_batch_only() {
        let s = LayerScale::default().descend(Parallelism::Data);
        assert_eq!(s.output_scale(), 0.5);
        assert_eq!(s.weight_scale(), 1.0);
        assert_eq!(s.input_scale(), 0.5);
    }

    #[test]
    fn mp_halves_input_features_only() {
        let s = LayerScale::default().descend(Parallelism::Model);
        assert_eq!(s.output_scale(), 1.0);
        assert_eq!(s.weight_scale(), 0.5);
        assert_eq!(s.input_scale(), 0.5);
    }

    #[test]
    fn input_scale_is_product_of_both() {
        let s = LayerScale::default()
            .descend(Parallelism::Data)
            .descend(Parallelism::Model)
            .descend(Parallelism::Data);
        assert_eq!(s.input_scale(), 0.125);
        assert_eq!(s.weight_scale(), 0.5);
        assert_eq!(s.output_scale(), 0.25);
    }

    #[test]
    fn junction_scale_uses_consumer_layout() {
        let state = ScaleState::identity(2).descend(&[Parallelism::Data, Parallelism::Model]);
        // Junction 0->1 follows layer 1 (mp): feature fraction 1/2.
        assert_eq!(state.junction_scale(0, JunctionScaling::Consumer), 0.5);
    }

    #[test]
    fn junction_scaling_modes_disagree_when_layers_diverge() {
        let state = ScaleState::identity(2).descend(&[Parallelism::Data, Parallelism::Model]);
        assert_eq!(state.junction_scale(0, JunctionScaling::Consumer), 0.5);
        // Producer (layer 0, dp): batch fraction 1/2.
        assert_eq!(state.junction_scale(0, JunctionScaling::Producer), 0.5);
        assert_eq!(state.junction_scale(0, JunctionScaling::Unscaled), 1.0);
        // Two levels of divergence: consumer 1/4 features, producer 1/4 batch.
        let deeper = state.descend(&[Parallelism::Data, Parallelism::Model]);
        assert_eq!(deeper.junction_scale(0, JunctionScaling::Consumer), 0.25);
        assert_eq!(deeper.junction_scale(0, JunctionScaling::Producer), 0.25);
        // Mixed choices make them diverge.
        let mixed = ScaleState::identity(2)
            .descend(&[Parallelism::Data, Parallelism::Data])
            .descend(&[Parallelism::Data, Parallelism::Model]);
        assert_eq!(mixed.junction_scale(0, JunctionScaling::Producer), 0.25);
        assert_eq!(mixed.junction_scale(0, JunctionScaling::Consumer), 0.25);
    }

    #[test]
    fn junction_scaling_default_is_consumer() {
        assert_eq!(JunctionScaling::default(), JunctionScaling::Consumer);
    }

    #[test]
    #[should_panic(expected = "assignment must cover every weighted layer")]
    fn mismatched_assignment_panics() {
        let _ = ScaleState::identity(3).descend(&[Parallelism::Data]);
    }

    proptest! {
        /// Any sequence of H descents leaves every layer's input scale at
        /// exactly 2^-H: each level halves each layer's work once.
        #[test]
        fn work_halves_once_per_level(choices in proptest::collection::vec(any::<bool>(), 0..16)) {
            let mut s = LayerScale::default();
            for &c in &choices {
                s = s.descend(Parallelism::from_bit(c));
            }
            let expected = 0.5f64.powi(choices.len() as i32);
            prop_assert_eq!(s.input_scale(), expected);
        }

        /// Descent order does not matter (the fractions commute).
        #[test]
        fn descent_commutes(a in any::<bool>(), b in any::<bool>()) {
            let pa = Parallelism::from_bit(a);
            let pb = Parallelism::from_bit(b);
            let s1 = LayerScale::default().descend(pa).descend(pb);
            let s2 = LayerScale::default().descend(pb).descend(pa);
            prop_assert_eq!(s1, s2);
        }
    }
}
