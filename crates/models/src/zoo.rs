//! The ten evaluation networks of the paper (§6.1, Table 3, Figure 5).
//!
//! * [`sfc`] and [`sconv`] are the paper's two "extreme" MNIST networks
//!   (Table 3): a pure fully-connected network and a pure convolutional
//!   network.
//! * [`lenet_c`] is the classic Caffe LeNet for MNIST and [`cifar_c`] the
//!   Caffe `cifar10_quick` network for CIFAR-10 (with 2×2 pooling; the
//!   paper does not list its exact variant — see EXPERIMENTS.md).
//! * [`alexnet`] is the single-tower AlexNet and [`vgg_a`]..[`vgg_e`] the
//!   VGG configurations A–E of Simonyan & Zisserman.
//!
//! # Examples
//!
//! ```
//! use hypar_models::zoo;
//!
//! assert_eq!(zoo::vgg_e().num_layers(), 19);
//! assert_eq!(zoo::by_name("Lenet-c").unwrap().num_layers(), 4);
//! assert_eq!(zoo::all().len(), 10);
//! ```

use hypar_tensor::FeatureDims;

use crate::{Activation, ConvSpec, Network, PoolSpec};

/// Names of the ten zoo networks, in the paper's presentation order.
pub const NAMES: [&str; 10] = [
    "SFC", "SCONV", "Lenet-c", "Cifar-c", "AlexNet", "VGG-A", "VGG-B", "VGG-C", "VGG-D", "VGG-E",
];

/// Looks a zoo network up by its paper name (see [`NAMES`]).
///
/// Matching is forgiving: case and punctuation are ignored, so `"VGG-A"`,
/// `"vgg_a"`, and `"vgga"` all resolve to the same network.
///
/// # Examples
///
/// ```
/// use hypar_models::zoo;
/// assert!(zoo::by_name("VGG-A").is_some());
/// assert!(zoo::by_name("vgg_a").is_some());
/// assert!(zoo::by_name("LENET-C").is_some());
/// assert!(zoo::by_name("ResNet-50").is_none());
/// ```
#[must_use]
pub fn by_name(name: &str) -> Option<Network> {
    let wanted = canonical(name);
    NAMES
        .iter()
        .find(|candidate| canonical(candidate) == wanted)
        .and_then(|candidate| by_canonical_name(candidate))
}

/// Reduces a network name to its canonical lookup form: ASCII alphanumerics
/// only, lowercased.
///
/// Exposed so that other registries (e.g. the branchy zoo in
/// `hypar-graph`) match names under the identical forgiving rule.
///
/// # Examples
///
/// ```
/// use hypar_models::zoo;
/// assert_eq!(zoo::canonical("VGG-A"), "vgga");
/// assert_eq!(zoo::canonical("ResNet_18"), "resnet18");
/// ```
#[must_use]
pub fn canonical(name: &str) -> String {
    name.chars()
        .filter(char::is_ascii_alphanumeric)
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

/// Exact-name constructor dispatch over [`NAMES`].  `None` for a name
/// outside the registry, so a registry/dispatch mismatch degrades to
/// "unknown network" instead of aborting the service.
fn by_canonical_name(name: &str) -> Option<Network> {
    match name {
        "SFC" => Some(sfc()),
        "SCONV" => Some(sconv()),
        "Lenet-c" => Some(lenet_c()),
        "Cifar-c" => Some(cifar_c()),
        "AlexNet" => Some(alexnet()),
        "VGG-A" => Some(vgg_a()),
        "VGG-B" => Some(vgg_b()),
        "VGG-C" => Some(vgg_c()),
        "VGG-D" => Some(vgg_d()),
        "VGG-E" => Some(vgg_e()),
        _ => None,
    }
}

/// All ten zoo networks in the paper's presentation order.
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "NAMES is the registry by_name matches; the zoo tests build every entry"
)]
pub fn all() -> Vec<Network> {
    NAMES
        .iter()
        .map(|n| by_name(n).expect("registry covers all names"))
        .collect()
}

/// `SFC`: the paper's pure fully-connected MNIST network,
/// `784-8192-8192-8192-10` (Table 3).
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "static zoo literal validated by the Table 3 shape tests; no service input reaches this builder"
)]
pub fn sfc() -> Network {
    let mut b = Network::builder("SFC", FeatureDims::flat(784));
    b.fully_connected("fc1", 8192)
        .fully_connected("fc2", 8192)
        .fully_connected("fc3", 8192)
        .fully_connected("fc4", 10)
        .activation(Activation::None);
    b.build().expect("SFC is a valid network")
}

/// `SCONV`: the paper's pure convolutional MNIST network,
/// `20@5×5, 50@5×5 (2×2 max pool), 50@5×5, 10@5×5 (2×2 max pool)`
/// (Table 3); its final feature map is exactly `1×1×10`.
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "static zoo literal validated by the Table 3 shape tests; no service input reaches this builder"
)]
pub fn sconv() -> Network {
    let mut b = Network::builder("SCONV", FeatureDims::new(1, 28, 28));
    b.conv("conv1", ConvSpec::valid(20, 5))
        .conv("conv2", ConvSpec::valid(50, 5))
        .pool(PoolSpec::max2())
        .conv("conv3", ConvSpec::valid(50, 5))
        .conv("conv4", ConvSpec::valid(10, 5))
        .pool(PoolSpec::max2());
    b.build().expect("SCONV is a valid network")
}

/// `Lenet-c`: the Caffe LeNet for MNIST — conv 20@5×5 + 2×2 pool,
/// conv 50@5×5 + 2×2 pool, fc 500, fc 10 (430,500 weights).
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "static zoo literal validated by the Table 3 shape tests; no service input reaches this builder"
)]
pub fn lenet_c() -> Network {
    let mut b = Network::builder("Lenet-c", FeatureDims::new(1, 28, 28));
    b.conv("conv1", ConvSpec::valid(20, 5))
        .pool(PoolSpec::max2())
        .conv("conv2", ConvSpec::valid(50, 5))
        .pool(PoolSpec::max2())
        .fully_connected("fc1", 500)
        .fully_connected("fc2", 10);
    b.build().expect("Lenet-c is a valid network")
}

/// `Cifar-c`: Caffe `cifar10_quick` for CIFAR-10 — three padded 5×5
/// convolutions (32, 32, 64 filters) each followed by 2×2 pooling, then
/// fc 64 and fc 10.
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "static zoo literal validated by the Table 3 shape tests; no service input reaches this builder"
)]
pub fn cifar_c() -> Network {
    let mut b = Network::builder("Cifar-c", FeatureDims::new(3, 32, 32));
    b.conv("conv1", ConvSpec::same(32, 5))
        .pool(PoolSpec::max2())
        .conv("conv2", ConvSpec::same(32, 5))
        .pool(PoolSpec::max2())
        .conv("conv3", ConvSpec::same(64, 5))
        .pool(PoolSpec::max2())
        .fully_connected("fc1", 64)
        .fully_connected("fc2", 10);
    b.build().expect("Cifar-c is a valid network")
}

/// `AlexNet`: the single-tower AlexNet for ImageNet (Krizhevsky 2012)
/// with 227×227 inputs, five convolutions and three fully-connected
/// layers.
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "static zoo literal validated by the Table 3 shape tests; no service input reaches this builder"
)]
pub fn alexnet() -> Network {
    let mut b = Network::builder("AlexNet", FeatureDims::new(3, 227, 227));
    b.conv(
        "conv1",
        ConvSpec {
            out_channels: 96,
            kernel: 11,
            stride: 4,
            padding: 0,
        },
    )
    .pool(PoolSpec::max(3, 2))
    .conv("conv2", ConvSpec::same(256, 5))
    .pool(PoolSpec::max(3, 2))
    .conv("conv3", ConvSpec::same(384, 3))
    .conv("conv4", ConvSpec::same(384, 3))
    .conv("conv5", ConvSpec::same(256, 3))
    .pool(PoolSpec::max(3, 2))
    .fully_connected("fc1", 4096)
    .fully_connected("fc2", 4096)
    .fully_connected("fc3", 1000);
    b.build().expect("AlexNet is a valid network")
}

/// Block sizes for one VGG configuration: `(convs_per_block, third_conv_is_1x1)`.
struct VggConfig {
    name: &'static str,
    /// For each of the five blocks: (number of convolutions, kernel size of
    /// the convolutions beyond the second — VGG-C uses 1×1 there).
    blocks: [(usize, u64); 5],
}

#[expect(
    clippy::expect_used,
    reason = "static zoo literal validated by the Table 3 shape tests; no service input reaches this builder"
)]
fn vgg(config: &VggConfig) -> Network {
    const CHANNELS: [u64; 5] = [64, 128, 256, 512, 512];
    let mut b = Network::builder(config.name, FeatureDims::new(3, 224, 224));
    for (block, &(convs, extra_kernel)) in config.blocks.iter().enumerate() {
        let channels = CHANNELS[block];
        for i in 0..convs {
            let kernel = if i >= 2 { extra_kernel } else { 3 };
            let name = if convs == 1 {
                format!("conv{}_1", block + 1)
            } else {
                format!("conv{}_{}", block + 1, i + 1)
            };
            b.conv(name, ConvSpec::same(channels, kernel));
        }
        b.pool(PoolSpec::max2());
    }
    b.fully_connected("fc1", 4096)
        .fully_connected("fc2", 4096)
        .fully_connected("fc3", 1000)
        .activation(Activation::None);
    b.build().expect("VGG configurations are valid networks")
}

/// `VGG-A`: 8 convolutions + 3 fully-connected layers (11 weighted layers).
#[must_use]
pub fn vgg_a() -> Network {
    vgg(&VggConfig {
        name: "VGG-A",
        blocks: [(1, 3), (1, 3), (2, 3), (2, 3), (2, 3)],
    })
}

/// `VGG-B`: 10 convolutions + 3 fully-connected layers (13 weighted layers).
#[must_use]
pub fn vgg_b() -> Network {
    vgg(&VggConfig {
        name: "VGG-B",
        blocks: [(2, 3), (2, 3), (2, 3), (2, 3), (2, 3)],
    })
}

/// `VGG-C`: VGG-B with an extra 1×1 convolution in blocks 3–5 (16 weighted
/// layers).
#[must_use]
pub fn vgg_c() -> Network {
    vgg(&VggConfig {
        name: "VGG-C",
        blocks: [(2, 3), (2, 3), (3, 1), (3, 1), (3, 1)],
    })
}

/// `VGG-D` (VGG-16): VGG-C with 3×3 kernels throughout (16 weighted
/// layers, 138,344,128 weights).
#[must_use]
pub fn vgg_d() -> Network {
    vgg(&VggConfig {
        name: "VGG-D",
        blocks: [(2, 3), (2, 3), (3, 3), (3, 3), (3, 3)],
    })
}

/// `VGG-E` (VGG-19): four 3×3 convolutions in blocks 3–5 (19 weighted
/// layers).
#[must_use]
pub fn vgg_e() -> Network {
    vgg(&VggConfig {
        name: "VGG-E",
        blocks: [(2, 3), (2, 3), (4, 3), (4, 3), (4, 3)],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkShapes;

    #[test]
    fn weighted_layer_counts_match_paper() {
        // "the number of weighted layers of these models range from four to
        // nineteen" (paper abstract).
        let expected = [4usize, 4, 4, 5, 8, 11, 13, 16, 16, 19];
        for (name, want) in NAMES.iter().zip(expected) {
            let net = by_name(name).unwrap();
            assert_eq!(net.num_layers(), want, "{name}");
        }
    }

    #[test]
    fn sfc_is_pure_fc_and_sconv_pure_conv() {
        assert_eq!(sfc().num_conv(), 0);
        assert_eq!(sconv().num_fc(), 0);
    }

    #[test]
    fn sfc_weight_total() {
        let shapes = NetworkShapes::infer(&sfc(), 1).unwrap();
        // 784*8192 + 8192*8192 + 8192*8192 + 8192*10
        assert_eq!(shapes.total_weight_elems(), 140_722_176);
    }

    #[test]
    fn sconv_weight_total_and_output() {
        let shapes = NetworkShapes::infer(&sconv(), 1).unwrap();
        assert_eq!(shapes.total_weight_elems(), 100_500);
        // The network funnels exactly to the ten MNIST classes.
        assert_eq!(shapes.layer(3).junction_out.volume(), 10);
    }

    #[test]
    fn lenet_weight_total() {
        let shapes = NetworkShapes::infer(&lenet_c(), 1).unwrap();
        assert_eq!(shapes.total_weight_elems(), 430_500);
    }

    #[test]
    fn cifar_c_shapes() {
        let shapes = NetworkShapes::infer(&cifar_c(), 1).unwrap();
        assert_eq!(shapes.layer(0).junction_out.volume(), 32 * 16 * 16);
        assert_eq!(shapes.layer(3).input.volume(), 64 * 4 * 4);
        assert_eq!(shapes.total_weight_elems(), 145_376);
    }

    #[test]
    fn alexnet_feature_map_progression() {
        let shapes = NetworkShapes::infer(&alexnet(), 1).unwrap();
        let spatial: Vec<u64> = shapes
            .layers()
            .iter()
            .map(|l| l.junction_out.height)
            .collect();
        assert_eq!(spatial[..5], [27, 13, 13, 13, 6]);
        assert_eq!(shapes.layer(5).input.volume(), 256 * 6 * 6);
        assert_eq!(shapes.total_weight_elems(), 62_367_776);
    }

    #[test]
    fn vgg_d_is_vgg16() {
        let shapes = NetworkShapes::infer(&vgg_d(), 1).unwrap();
        assert_eq!(shapes.total_weight_elems(), 138_344_128);
        // fc1 consumes the flattened 7x7x512 block-5 output.
        assert_eq!(shapes.layer(13).input.volume(), 25_088);
    }

    #[test]
    fn vgg_a_weight_total() {
        let shapes = NetworkShapes::infer(&vgg_a(), 1).unwrap();
        assert_eq!(shapes.total_weight_elems(), 132_851_392);
    }

    #[test]
    fn vgg_c_has_1x1_convolutions() {
        let net = vgg_c();
        let conv3_3 = net.layers().iter().find(|l| l.name() == "conv3_3").unwrap();
        match conv3_3.kind() {
            crate::LayerKind::Conv(spec) => assert_eq!(spec.kernel, 1),
            crate::LayerKind::FullyConnected(_) => panic!("conv3_3 must be a convolution"),
        }
    }

    #[test]
    fn vgg_spatial_funnel_reaches_7x7() {
        for net in [vgg_a(), vgg_b(), vgg_c(), vgg_d(), vgg_e()] {
            let shapes = NetworkShapes::infer(&net, 1).unwrap();
            let last_conv = shapes.layers().iter().rfind(|l| l.is_conv).unwrap();
            assert_eq!(last_conv.junction_out.height, 7, "{}", net.name());
        }
    }

    #[test]
    fn registry_round_trips_names() {
        for name in NAMES {
            assert_eq!(by_name(name).unwrap().name(), name);
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn by_name_is_case_and_punctuation_insensitive() {
        for name in NAMES {
            let lowered = name.to_ascii_lowercase();
            let snaked = lowered.replace('-', "_");
            let squashed: String = lowered
                .chars()
                .filter(|c| c.is_ascii_alphanumeric())
                .collect();
            for variant in [lowered, snaked, squashed, name.to_ascii_uppercase()] {
                let net = by_name(&variant)
                    .unwrap_or_else(|| panic!("`{variant}` should resolve to {name}"));
                // The canonical paper name is preserved regardless of the
                // spelling used to look it up.
                assert_eq!(net.name(), name);
            }
        }
        assert!(by_name("vgg").is_none(), "prefixes must not match");
    }

    #[test]
    fn all_returns_ten_unique_networks() {
        let nets = all();
        assert_eq!(nets.len(), 10);
        let mut names: Vec<_> = nets.iter().map(|n| n.name().to_owned()).collect();
        names.dedup();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn final_classifier_layers_have_no_relu() {
        for net in [vgg_a(), vgg_e()] {
            let last = net.layers().last().unwrap();
            assert_eq!(last.activation(), Activation::None);
        }
    }
}
