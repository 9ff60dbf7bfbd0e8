//! Shape inference: from layer hyper-parameters to the tensor sizes the
//! communication model and the simulator consume.

use hypar_tensor::FeatureDims;
use serde::{Deserialize, Serialize};

use crate::{Layer, LayerKind, Network, NetworkError};

/// Inferred tensor shapes and work counts for one weighted layer at a given
/// batch size.
///
/// Field conventions (paper §2.1):
/// * `input` is `F_l` per sample, **after** any implicit flattening a
///   fully-connected layer performs;
/// * `conv_out` is `F_{l+1}` per sample as *produced* by the layer —
///   **before** pooling — which is the tensor whose partial sums are
///   exchanged under model parallelism (Table 1);
/// * `junction_out` is the per-sample tensor actually handed to the next
///   layer — **after** pooling — which is the tensor redistributed between
///   layers (Table 2).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerShapes {
    /// Layer name, copied from the [`Layer`].
    pub name: String,
    /// Whether the layer is convolutional (`true`) or fully-connected.
    pub is_conv: bool,
    /// Mini-batch size `B` this inference was run for.
    pub batch: u64,
    /// Per-sample input feature map `F_l`.
    pub input: FeatureDims,
    /// Per-sample produced output `F_{l+1}` (pre-pooling).
    pub conv_out: FeatureDims,
    /// Per-sample junction output (post-pooling).
    pub junction_out: FeatureDims,
    /// Kernel height/width `K` for convolutions; `1` for fully-connected
    /// layers (whose weights behave as 1×1 kernels on flat maps).
    pub kernel_extent: u64,
    /// Elements in the kernel tensor `W_l` (= elements in `ΔW_l`).
    pub weight_elems: u64,
    /// Multiply-accumulate operations for the forward pass of the whole
    /// batch.
    pub macs_forward: u64,
    /// Element-wise operations (activation + pooling) for the forward pass
    /// of the whole batch.
    pub elementwise_ops: u64,
}

impl LayerShapes {
    /// Infers the shapes of a single layer applied to the per-sample
    /// `input` feature map at mini-batch size `batch`.
    ///
    /// This is the per-layer step of [`NetworkShapes::infer`], exposed so
    /// that non-chain IRs (the `hypar-graph` DAG) can run the identical
    /// inference node by node.
    ///
    /// # Errors
    ///
    /// Returns a [`NetworkError`] when the batch size is zero or the
    /// layer's hyper-parameters do not fit `input`.
    pub fn infer(layer: &Layer, input: FeatureDims, batch: u64) -> Result<Self, NetworkError> {
        if batch == 0 {
            return Err(NetworkError::ZeroBatch);
        }
        infer_layer(layer, input, batch)
    }

    /// Elements in the batched input feature map `F_l` (equals `A(E_l)`).
    #[must_use]
    pub fn f_in_elems(&self) -> u64 {
        self.batch * self.input.volume()
    }

    /// Elements in the batched produced output `F_{l+1}` pre-pooling
    /// (equals `A(E_{l+1})` on the producing side) — the model-parallel
    /// partial-sum tensor of Table 1.
    #[must_use]
    pub fn f_out_elems(&self) -> u64 {
        self.batch * self.conv_out.volume()
    }

    /// Elements in the batched junction tensor passed to the next layer
    /// (post-pooling) — the tensor redistributed by the Table 2
    /// transitions.
    #[must_use]
    pub fn junction_elems(&self) -> u64 {
        self.batch * self.junction_out.volume()
    }

    /// MACs for the error-backward pass (`E_{l+1} ⊗ W*`): symmetric with
    /// the forward convolution/matrix product.
    #[must_use]
    pub fn macs_backward(&self) -> u64 {
        self.macs_forward
    }

    /// MACs for the gradient computation (`F* ⊗ E_{l+1}`): symmetric with
    /// the forward pass.
    #[must_use]
    pub fn macs_gradient(&self) -> u64 {
        self.macs_forward
    }
}

/// The inferred shapes of every weighted layer of a network at a fixed
/// batch size: the single input everything else in this workspace consumes.
///
/// # Examples
///
/// ```
/// use hypar_models::{zoo, NetworkShapes};
///
/// let shapes = NetworkShapes::infer(&zoo::sfc(), 256)?;
/// // SFC is 784-8192-8192-8192-10.
/// assert_eq!(shapes.layer(0).weight_elems, 784 * 8192);
/// assert_eq!(shapes.layer(3).junction_elems(), 256 * 10);
/// # Ok::<(), hypar_models::NetworkError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkShapes {
    name: String,
    batch: u64,
    layers: Vec<LayerShapes>,
}

impl NetworkShapes {
    /// Runs shape inference over `net` for mini-batch size `batch`.
    ///
    /// # Errors
    ///
    /// Returns a [`NetworkError`] when the batch size is zero, the network
    /// is empty, or any layer's hyper-parameters do not fit the feature map
    /// flowing into it.
    pub fn infer(net: &Network, batch: u64) -> Result<Self, NetworkError> {
        if batch == 0 {
            return Err(NetworkError::ZeroBatch);
        }
        if net.layers().is_empty() {
            return Err(NetworkError::Empty);
        }
        let mut current = net.input();
        let mut layers = Vec::with_capacity(net.num_layers());
        for layer in net.layers() {
            let shapes = infer_layer(layer, current, batch)?;
            current = shapes.junction_out;
            layers.push(shapes);
        }
        Ok(Self {
            name: net.name().to_owned(),
            batch,
            layers,
        })
    }

    /// The network name these shapes were inferred from.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The mini-batch size `B`.
    #[must_use]
    pub fn batch(&self) -> u64 {
        self.batch
    }

    /// Number of weighted layers `L`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether there are no layers (never true for a validated network).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Per-layer shapes in network order.
    #[must_use]
    pub fn layers(&self) -> &[LayerShapes] {
        &self.layers
    }

    /// The shapes of layer `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l >= self.len()`.
    #[must_use]
    pub fn layer(&self, l: usize) -> &LayerShapes {
        &self.layers[l]
    }

    /// Total kernel elements over all layers (the model size).
    #[must_use]
    pub fn total_weight_elems(&self) -> u64 {
        self.layers.iter().map(|l| l.weight_elems).sum()
    }

    /// Total forward MACs for one step over all layers.
    #[must_use]
    pub fn total_macs_forward(&self) -> u64 {
        self.layers.iter().map(|l| l.macs_forward).sum()
    }

    /// Total MACs for one full training step: forward + backward +
    /// gradient.  The first layer propagates no error to the raw input, so
    /// its backward MACs are excluded.
    #[must_use]
    pub fn total_macs_training(&self) -> u64 {
        let fwd = self.total_macs_forward();
        let grad: u64 = self.layers.iter().map(|l| l.macs_gradient()).sum();
        let bwd: u64 = self.layers.iter().skip(1).map(|l| l.macs_backward()).sum();
        fwd + grad + bwd
    }
}

/// Output extent of a window sliding over a (padded) extent it fits in.
fn out_extent(padded: u64, window: u64, stride: u64) -> u64 {
    (padded - window) / stride + 1
}

/// The product of `factors`; `None` when it overflows `u64`.
fn product(factors: &[u64]) -> Option<u64> {
    factors.iter().try_fold(1u64, |acc, &f| acc.checked_mul(f))
}

fn infer_layer(layer: &Layer, input: FeatureDims, batch: u64) -> Result<LayerShapes, NetworkError> {
    let name = layer.name().to_owned();
    let overflow = |what| NetworkError::Overflow {
        layer: layer.name().to_owned(),
        what,
    };
    let (input, conv_out, weight_elems, macs_per_sample, kernel_extent) = match *layer.kind() {
        LayerKind::Conv(spec) => {
            if spec.stride == 0 {
                return Err(NetworkError::ZeroStride { layer: name });
            }
            if spec.out_channels == 0 {
                return Err(NetworkError::ZeroDimension {
                    layer: name,
                    what: "out_channels",
                });
            }
            if spec.kernel == 0 {
                return Err(NetworkError::ZeroDimension {
                    layer: name,
                    what: "kernel",
                });
            }
            let padded = |extent| {
                let padded = spec
                    .padding
                    .checked_mul(2)
                    .and_then(|p| p.checked_add(extent));
                padded.ok_or_else(|| overflow("padded input extent"))
            };
            let padded_h = padded(input.height)?;
            let padded_w = padded(input.width)?;
            if spec.kernel > padded_h || spec.kernel > padded_w {
                return Err(NetworkError::KernelTooLarge {
                    layer: name,
                    kernel: spec.kernel,
                    input: padded_h.min(padded_w),
                });
            }
            let out_h = out_extent(padded_h, spec.kernel, spec.stride);
            let out_w = out_extent(padded_w, spec.kernel, spec.stride);
            let conv_out = FeatureDims::new(spec.out_channels, out_h, out_w);
            let weight_elems =
                product(&[spec.kernel, spec.kernel, input.channels, spec.out_channels])
                    .ok_or_else(|| overflow("weight elements"))?;
            let macs = product(&[weight_elems, out_h, out_w])
                .ok_or_else(|| overflow("multiply-accumulates"))?;
            (input, conv_out, weight_elems, macs, spec.kernel)
        }
        LayerKind::FullyConnected(spec) => {
            if spec.out_features == 0 {
                return Err(NetworkError::ZeroDimension {
                    layer: name,
                    what: "out_features",
                });
            }
            let features = product(&[input.channels, input.height, input.width])
                .ok_or_else(|| overflow("input elements"))?;
            let flat = FeatureDims::flat(features);
            let conv_out = FeatureDims::flat(spec.out_features);
            let weight_elems = product(&[features, spec.out_features])
                .ok_or_else(|| overflow("weight elements"))?;
            (flat, conv_out, weight_elems, weight_elems, 1)
        }
    };

    let junction_out = match layer.pool() {
        None => conv_out,
        Some(pool) => {
            if pool.stride == 0 {
                return Err(NetworkError::ZeroStride { layer: name });
            }
            if pool.size > conv_out.height || pool.size > conv_out.width {
                return Err(NetworkError::PoolTooLarge {
                    layer: name,
                    pool: pool.size,
                    input: conv_out.height.min(conv_out.width),
                });
            }
            FeatureDims::new(
                conv_out.channels,
                out_extent(conv_out.height, pool.size, pool.stride),
                out_extent(conv_out.width, pool.size, pool.stride),
            )
        }
    };

    // Every batched count the getters and the cost model read must fit,
    // so that they can multiply without checks.  Activation touches every
    // produced element; pooling reads every produced element once more.
    let batched = |dims: FeatureDims, what| {
        product(&[batch, dims.channels, dims.height, dims.width]).ok_or_else(|| overflow(what))
    };
    batched(input, "batched input elements")?;
    batched(junction_out, "batched junction elements")?;
    let passes = if layer.pool().is_some() { 2 } else { 1 };
    let elementwise_ops = product(&[batched(conv_out, "batched output elements")?, passes])
        .ok_or_else(|| overflow("element-wise operations"))?;
    let macs_forward =
        product(&[batch, macs_per_sample]).ok_or_else(|| overflow("multiply-accumulates"))?;

    Ok(LayerShapes {
        name,
        is_conv: layer.kind().is_conv(),
        batch,
        input,
        conv_out,
        junction_out,
        kernel_extent,
        weight_elems,
        macs_forward,
        elementwise_ops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConvSpec, PoolSpec};

    fn lenet() -> Network {
        Network::builder("lenet", FeatureDims::new(1, 28, 28))
            .conv("conv1", ConvSpec::valid(20, 5))
            .pool(PoolSpec::max2())
            .conv("conv2", ConvSpec::valid(50, 5))
            .pool(PoolSpec::max2())
            .fully_connected("fc1", 500)
            .fully_connected("fc2", 10)
            .build()
            .unwrap()
    }

    #[test]
    fn lenet_shapes_match_hand_computation() {
        let shapes = NetworkShapes::infer(&lenet(), 256).unwrap();
        let c1 = shapes.layer(0);
        assert_eq!(c1.conv_out, FeatureDims::new(20, 24, 24));
        assert_eq!(c1.junction_out, FeatureDims::new(20, 12, 12));
        assert_eq!(c1.weight_elems, 500);
        let c2 = shapes.layer(1);
        assert_eq!(c2.conv_out, FeatureDims::new(50, 8, 8));
        assert_eq!(c2.junction_out, FeatureDims::new(50, 4, 4));
        assert_eq!(c2.weight_elems, 25_000);
        let f1 = shapes.layer(2);
        assert_eq!(f1.input, FeatureDims::flat(800));
        assert_eq!(f1.weight_elems, 400_000);
        let f2 = shapes.layer(3);
        assert_eq!(f2.weight_elems, 5_000);
        // Caffe LeNet total: 430,500 parameters.
        assert_eq!(shapes.total_weight_elems(), 430_500);
    }

    #[test]
    fn batch_multiplies_activations_not_weights() {
        let s1 = NetworkShapes::infer(&lenet(), 1).unwrap();
        let s256 = NetworkShapes::infer(&lenet(), 256).unwrap();
        assert_eq!(s1.total_weight_elems(), s256.total_weight_elems());
        assert_eq!(s256.layer(0).f_out_elems(), 256 * s1.layer(0).f_out_elems());
        assert_eq!(s256.total_macs_forward(), 256 * s1.total_macs_forward());
    }

    #[test]
    fn zero_batch_is_rejected() {
        assert_eq!(
            NetworkShapes::infer(&lenet(), 0).unwrap_err(),
            NetworkError::ZeroBatch
        );
    }

    #[test]
    fn training_macs_exclude_first_layer_backward() {
        let shapes = NetworkShapes::infer(&lenet(), 1).unwrap();
        let fwd = shapes.total_macs_forward();
        let first_bwd = shapes.layer(0).macs_backward();
        assert_eq!(shapes.total_macs_training(), 3 * fwd - first_bwd);
    }

    #[test]
    fn strided_padded_conv_matches_alexnet_conv1() {
        let net = Network::builder("a1", FeatureDims::new(3, 227, 227))
            .conv(
                "conv1",
                ConvSpec {
                    out_channels: 96,
                    kernel: 11,
                    stride: 4,
                    padding: 0,
                },
            )
            .build()
            .unwrap();
        let shapes = NetworkShapes::infer(&net, 1).unwrap();
        assert_eq!(shapes.layer(0).conv_out, FeatureDims::new(96, 55, 55));
    }

    #[test]
    fn overlapping_pool_matches_alexnet() {
        let net = Network::builder("a1", FeatureDims::new(3, 227, 227))
            .conv(
                "conv1",
                ConvSpec {
                    out_channels: 96,
                    kernel: 11,
                    stride: 4,
                    padding: 0,
                },
            )
            .pool(PoolSpec::max(3, 2))
            .build()
            .unwrap();
        let shapes = NetworkShapes::infer(&net, 1).unwrap();
        assert_eq!(shapes.layer(0).junction_out, FeatureDims::new(96, 27, 27));
    }

    #[test]
    fn fc_flattens_conv_output() {
        let shapes = NetworkShapes::infer(&lenet(), 1).unwrap();
        assert_eq!(shapes.layer(2).input, FeatureDims::flat(50 * 4 * 4));
    }

    #[test]
    fn overflowing_extents_and_counts_are_typed_errors() {
        let overflow = |layer: &str, what| NetworkError::Overflow {
            layer: layer.to_owned(),
            what,
        };
        // 2^32 x 2^16 x 2^16 flattens to 2^64 features.
        let wide = Network::builder("wide", FeatureDims::new(1 << 32, 1 << 16, 1 << 16))
            .fully_connected("fc", 2)
            .build();
        assert_eq!(wide.unwrap_err(), overflow("fc", "input elements"));
        // 2·padding wraps.
        let padding = u64::MAX / 2 + 1;
        let padded = Network::builder("padded", FeatureDims::new(1, 8, 8))
            .conv(
                "conv",
                ConvSpec {
                    out_channels: 4,
                    kernel: 3,
                    stride: 1,
                    padding,
                },
            )
            .build();
        assert_eq!(padded.unwrap_err(), overflow("conv", "padded input extent"));
        // A valid network at a batch its activations cannot hold.
        assert_eq!(
            NetworkShapes::infer(&lenet(), 1 << 60).unwrap_err(),
            overflow("conv1", "batched input elements")
        );
        assert!(overflow("fc", "input elements")
            .to_string()
            .contains("64-bit overflow"));
    }

    #[test]
    fn elementwise_ops_count_activation_and_pool() {
        let shapes = NetworkShapes::infer(&lenet(), 2).unwrap();
        let c1 = shapes.layer(0);
        // activation + pool on 20x24x24 produced elements, batch 2.
        assert_eq!(c1.elementwise_ops, 2 * 2 * 20 * 24 * 24);
        let f2 = shapes.layer(3);
        // no pool on fc2.
        assert_eq!(f2.elementwise_ops, 2 * 10);
    }
}
