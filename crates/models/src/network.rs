//! Validated networks and their builder.

use std::fmt;

use hypar_tensor::FeatureDims;
use serde::{Deserialize, Serialize};

use crate::{ConvSpec, Layer, NetworkError, NetworkShapes, PoolSpec};

/// A deep neural network as HyPar sees it: an input shape followed by a
/// chain of weighted layers.
///
/// Instances are created through [`NetworkBuilder`], which validates the
/// chain by running shape inference once; an existing `Network` therefore
/// always has consistent shapes for any positive batch size.
///
/// # Examples
///
/// ```
/// use hypar_models::{ConvSpec, Network, PoolSpec};
/// use hypar_tensor::FeatureDims;
///
/// let net = Network::builder("tiny", FeatureDims::new(1, 28, 28))
///     .conv("conv1", ConvSpec::valid(20, 5))
///     .pool(PoolSpec::max2())
///     .fully_connected("fc1", 10)
///     .build()?;
/// assert_eq!(net.num_layers(), 2);
/// # Ok::<(), hypar_models::NetworkError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Network {
    name: String,
    input: FeatureDims,
    layers: Vec<Layer>,
}

impl Network {
    /// Starts building a network with the given name and per-sample input
    /// shape.
    #[must_use]
    pub fn builder(name: impl Into<String>, input: FeatureDims) -> NetworkBuilder {
        NetworkBuilder {
            name: name.into(),
            input,
            layers: Vec::new(),
        }
    }

    /// The network's name (e.g. `VGG-A`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The per-sample input feature dimensions.
    #[must_use]
    pub fn input(&self) -> FeatureDims {
        self.input
    }

    /// The weighted layers in order.
    #[must_use]
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of weighted layers (the paper's `L`).
    #[must_use]
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Number of convolutional layers.
    #[must_use]
    pub fn num_conv(&self) -> usize {
        self.layers.iter().filter(|l| l.kind().is_conv()).count()
    }

    /// Number of fully-connected layers.
    #[must_use]
    pub fn num_fc(&self) -> usize {
        self.layers.iter().filter(|l| l.kind().is_fc()).count()
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} (input {})", self.name, self.input)?;
        for layer in &self.layers {
            writeln!(f, "  {layer}")?;
        }
        Ok(())
    }
}

/// Incrementally constructs a [`Network`] ([C-BUILDER]).
///
/// The builder is non-consuming: configuration methods take `&mut self` and
/// [`NetworkBuilder::build`] takes `&self`, so a network can be assembled in
/// loops (as the VGG constructors in [`crate::zoo`] do).
///
/// [C-BUILDER]: https://rust-lang.github.io/api-guidelines/type-safety.html#c-builder
#[derive(Clone, Debug)]
pub struct NetworkBuilder {
    name: String,
    input: FeatureDims,
    layers: Vec<Layer>,
}

impl NetworkBuilder {
    /// Appends a pre-constructed layer.
    pub fn layer(&mut self, layer: Layer) -> &mut Self {
        self.layers.push(layer);
        self
    }

    /// Appends a convolutional layer with default ReLU activation.
    pub fn conv(&mut self, name: impl Into<String>, spec: ConvSpec) -> &mut Self {
        self.layer(Layer::conv(name, spec))
    }

    /// Appends a fully-connected layer with default ReLU activation.
    pub fn fully_connected(&mut self, name: impl Into<String>, out_features: u64) -> &mut Self {
        self.layer(Layer::fully_connected(name, out_features))
    }

    /// Attaches pooling to the most recently added layer.
    ///
    /// # Panics
    ///
    /// Panics if no layer has been added yet — pooling in this model always
    /// belongs to a weighted layer, as in the paper's `HP[l]` lists.
    #[expect(
        clippy::expect_used,
        reason = "documented builder contract (# Panics); callers are the static zoo literals"
    )]
    pub fn pool(&mut self, pool: PoolSpec) -> &mut Self {
        let layer = self
            .layers
            .pop()
            .expect("pool() must follow a weighted layer");
        self.layers.push(layer.with_pool(pool));
        self
    }

    /// Replaces the activation of the most recently added layer, e.g. to
    /// mark a final classifier layer that feeds a softmax loss.
    ///
    /// # Panics
    ///
    /// Panics if no layer has been added yet.
    #[expect(
        clippy::expect_used,
        reason = "documented builder contract (# Panics); callers are the static zoo literals"
    )]
    pub fn activation(&mut self, activation: crate::Activation) -> &mut Self {
        let layer = self
            .layers
            .pop()
            .expect("activation() must follow a weighted layer");
        self.layers.push(layer.with_activation(activation));
        self
    }

    /// Validates the chain and produces the immutable [`Network`].
    ///
    /// # Errors
    ///
    /// Returns a [`NetworkError`] if the network is empty or any layer's
    /// hyper-parameters are inconsistent with the shapes flowing into it
    /// (kernel or pooling window larger than its input, zero dimensions,
    /// zero strides).
    pub fn build(&self) -> Result<Network, NetworkError> {
        let net = Network {
            name: self.name.clone(),
            input: self.input,
            layers: self.layers.clone(),
        };
        // Shape inference performs the full validation; batch size 1 is
        // enough because batch only multiplies through.
        let _ = NetworkShapes::infer(&net, 1)?;
        Ok(net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_counts_layer_kinds() {
        let net = Network::builder("t", FeatureDims::new(1, 28, 28))
            .conv("c1", ConvSpec::valid(20, 5))
            .conv("c2", ConvSpec::valid(50, 5))
            .fully_connected("f1", 500)
            .fully_connected("f2", 10)
            .build()
            .unwrap();
        assert_eq!(net.num_layers(), 4);
        assert_eq!(net.num_conv(), 2);
        assert_eq!(net.num_fc(), 2);
    }

    #[test]
    fn empty_network_is_rejected() {
        let err = Network::builder("e", FeatureDims::flat(10))
            .build()
            .unwrap_err();
        assert_eq!(err, NetworkError::Empty);
    }

    #[test]
    fn oversized_kernel_is_rejected() {
        let err = Network::builder("bad", FeatureDims::new(1, 4, 4))
            .conv("c1", ConvSpec::valid(8, 7))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            NetworkError::KernelTooLarge { kernel: 7, .. }
        ));
    }

    #[test]
    #[should_panic(expected = "pool() must follow a weighted layer")]
    fn pool_before_layer_panics() {
        let _ = Network::builder("p", FeatureDims::flat(10)).pool(PoolSpec::max2());
    }

    #[test]
    fn display_lists_layers() {
        let net = Network::builder("demo", FeatureDims::new(1, 28, 28))
            .conv("c1", ConvSpec::valid(20, 5))
            .build()
            .unwrap();
        let text = net.to_string();
        assert!(text.contains("demo"));
        assert!(text.contains("c1"));
    }
}
