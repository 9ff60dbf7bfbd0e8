//! Per-layer tensor element counts consumed by the communication model.

use hypar_models::{NetworkError, NetworkShapes};
use serde::{Deserialize, Serialize};

/// The tensor sizes of one weighted layer that the communication model
/// needs, as element counts (batched where applicable).
///
/// These are the `A(·)` quantities of the paper: `weight_elems = A(W_l) =
/// A(ΔW_l)`, `output_elems = A(F_{l+1})` *as produced* (pre-pooling, the
/// model-parallel partial-sum tensor), and `junction_elems` the post-pooling
/// tensor actually handed to the next layer (the Table 2 tensor; equals
/// `A(E_{l+1})` at that junction).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LayerCommTensors {
    /// Layer name for reporting.
    pub name: String,
    /// Whether the layer is convolutional.
    pub is_conv: bool,
    /// `A(W_l)` — kernel/gradient elements.
    pub weight_elems: f64,
    /// `A(F_l)` — batched input feature-map elements.
    pub input_elems: f64,
    /// `A(F_{l+1})` — batched produced output elements, pre-pooling.
    pub output_elems: f64,
    /// Batched junction elements passed to the next layer, post-pooling.
    pub junction_elems: f64,
}

impl LayerCommTensors {
    /// Convenience constructor for a fully-connected layer, used heavily in
    /// tests and the paper's worked examples.
    ///
    /// # Examples
    ///
    /// ```
    /// use hypar_comm::LayerCommTensors;
    /// let fc = LayerCommTensors::fully_connected("fc", 32, 70, 100);
    /// assert_eq!(fc.weight_elems, 7_000.0);
    /// assert_eq!(fc.output_elems, 3_200.0);
    /// ```
    #[must_use]
    pub fn fully_connected(name: impl Into<String>, batch: u64, inputs: u64, outputs: u64) -> Self {
        Self {
            name: name.into(),
            is_conv: false,
            weight_elems: (inputs * outputs) as f64,
            input_elems: (batch * inputs) as f64,
            output_elems: (batch * outputs) as f64,
            junction_elems: (batch * outputs) as f64,
        }
    }

    /// Convenience constructor for a convolutional layer given explicit
    /// tensor extents; `out_hw`/`pooled_hw` are the pre-/post-pooling
    /// spatial extents.
    #[must_use]
    pub fn conv(
        name: impl Into<String>,
        batch: u64,
        in_chw: (u64, u64, u64),
        kernel: u64,
        out_channels: u64,
        out_hw: (u64, u64),
        pooled_hw: (u64, u64),
    ) -> Self {
        let (c_in, h_in, w_in) = in_chw;
        Self {
            name: name.into(),
            is_conv: true,
            weight_elems: (kernel * kernel * c_in * out_channels) as f64,
            input_elems: (batch * c_in * h_in * w_in) as f64,
            output_elems: (batch * out_channels * out_hw.0 * out_hw.1) as f64,
            junction_elems: (batch * out_channels * pooled_hw.0 * pooled_hw.1) as f64,
        }
    }
}

/// The communication-model view of a whole network: one
/// [`LayerCommTensors`] per weighted layer.
///
/// # Examples
///
/// ```
/// use hypar_comm::NetworkCommTensors;
/// use hypar_models::zoo;
///
/// let net = NetworkCommTensors::from_network(&zoo::lenet_c(), 256)?;
/// assert_eq!(net.len(), 4);
/// assert_eq!(net.layer(2).weight_elems, 400_000.0); // fc1: 800x500
/// # Ok::<(), hypar_models::NetworkError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetworkCommTensors {
    name: String,
    batch: u64,
    layers: Vec<LayerCommTensors>,
}

impl NetworkCommTensors {
    /// Builds the communication view from already-inferred shapes.
    #[must_use]
    pub fn from_shapes(shapes: &NetworkShapes) -> Self {
        let layers = shapes
            .layers()
            .iter()
            .map(|l| LayerCommTensors {
                name: l.name.clone(),
                is_conv: l.is_conv,
                weight_elems: l.weight_elems as f64,
                input_elems: l.f_in_elems() as f64,
                output_elems: l.f_out_elems() as f64,
                junction_elems: l.junction_elems() as f64,
            })
            .collect();
        Self {
            name: shapes.name().to_owned(),
            batch: shapes.batch(),
            layers,
        }
    }

    /// Runs shape inference on `net` at `batch` and builds the
    /// communication view.
    ///
    /// # Errors
    ///
    /// Propagates any [`NetworkError`] from shape inference.
    pub fn from_network(net: &hypar_models::Network, batch: u64) -> Result<Self, NetworkError> {
        Ok(Self::from_shapes(&NetworkShapes::infer(net, batch)?))
    }

    /// Builds directly from a list of per-layer tensors (tests, synthetic
    /// workloads).
    #[must_use]
    pub fn from_layers(name: impl Into<String>, batch: u64, layers: Vec<LayerCommTensors>) -> Self {
        Self {
            name: name.into(),
            batch,
            layers,
        }
    }

    /// The network name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The mini-batch size the tensors were computed for.
    #[must_use]
    pub fn batch(&self) -> u64 {
        self.batch
    }

    /// Number of weighted layers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The per-layer tensors in network order.
    #[must_use]
    pub fn layers(&self) -> &[LayerCommTensors] {
        &self.layers
    }

    /// The tensors of layer `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    #[must_use]
    pub fn layer(&self, l: usize) -> &LayerCommTensors {
        &self.layers[l]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypar_models::zoo;

    #[test]
    fn fc_constructor_matches_paper_example() {
        let fc = LayerCommTensors::fully_connected("fc", 32, 70, 100);
        assert_eq!(fc.weight_elems, 7000.0);
        assert_eq!(fc.input_elems, 32.0 * 70.0);
        assert_eq!(fc.output_elems, 3200.0);
        assert_eq!(fc.junction_elems, 3200.0);
        assert!(!fc.is_conv);
    }

    #[test]
    fn conv_constructor_matches_paper_example() {
        // Paper §3.4: F_l [12x12x20], W [5x5x20]x50, F_{l+1} [8x8x50], B=32.
        let conv = LayerCommTensors::conv("c", 32, (20, 12, 12), 5, 50, (8, 8), (8, 8));
        assert_eq!(conv.weight_elems, 25_000.0);
        assert_eq!(conv.output_elems, 32.0 * 3200.0);
        assert!(conv.is_conv);
    }

    #[test]
    fn section_652_vgg_e_conv5_and_fc3() {
        // §6.5.2: conv5 of VGG-E at b32: A(ΔW)=2,359,296 < A(F)=3,211,264.
        let conv5 = LayerCommTensors::conv("conv5", 32, (512, 14, 14), 3, 512, (14, 14), (7, 7));
        assert_eq!(conv5.weight_elems, 2_359_296.0);
        assert_eq!(conv5.output_elems, 3_211_264.0);
        // fc3 at b4096: A(ΔW) = A(F) = 4,096,000.
        let fc3 = LayerCommTensors::fully_connected("fc3", 4096, 4096, 1000);
        assert_eq!(fc3.weight_elems, 4_096_000.0);
        assert_eq!(fc3.output_elems, 4_096_000.0);
    }

    #[test]
    fn from_network_matches_shape_inference() {
        let view = NetworkCommTensors::from_network(&zoo::lenet_c(), 256).unwrap();
        assert_eq!(view.len(), 4);
        assert_eq!(view.batch(), 256);
        assert_eq!(view.name(), "Lenet-c");
        // conv1: pre-pool 20x24x24 batched, post-pool 20x12x12 batched.
        assert_eq!(view.layer(0).output_elems, 256.0 * 11520.0);
        assert_eq!(view.layer(0).junction_elems, 256.0 * 2880.0);
    }

    #[test]
    fn pre_pool_output_differs_from_junction_only_with_pooling() {
        let view = NetworkCommTensors::from_network(&zoo::lenet_c(), 1).unwrap();
        assert!(view.layer(0).output_elems > view.layer(0).junction_elems);
        // fc layers have no pooling: produced == junction.
        assert_eq!(view.layer(2).output_elems, view.layer(2).junction_elems);
    }
}
