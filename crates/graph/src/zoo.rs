//! Branchy evaluation networks: the DAG counterpart of
//! [`hypar_models::zoo`].
//!
//! HyPar's paper evaluates only chain-shaped CNNs; these builders open the
//! workload class its evaluation skips — residual (ResNet-class) and
//! multi-branch (Inception-class) topologies — using the same layer
//! vocabulary (conv/fc with pooling), so every downstream cost is computed
//! by the identical model.
//!
//! # Examples
//!
//! ```
//! use hypar_graph::zoo;
//!
//! assert_eq!(zoo::resnet18().num_layers(), 21);
//! assert!(zoo::by_name("resnet18").is_some());
//! assert!(zoo::by_name("VGG-A").is_none()); // chain zoo, not here
//! ```

use hypar_models::{ConvSpec, Layer, PoolSpec};
use hypar_tensor::FeatureDims;

use crate::dag::{DagNetwork, GraphBuilder};
use crate::node::INPUT;

/// Names of the branchy zoo networks.
pub const NAMES: [&str; 2] = ["ResNet-18", "Inception-Mini"];

/// Looks a branchy zoo network up by name.
///
/// Matching is forgiving exactly like [`hypar_models::zoo::by_name`]
/// (same [`hypar_models::zoo::canonical`] rule): `"ResNet-18"`,
/// `"resnet18"`, and `"RESNET_18"` all resolve identically.
#[must_use]
pub fn by_name(name: &str) -> Option<DagNetwork> {
    let canonical = hypar_models::zoo::canonical;
    let wanted = canonical(name);
    NAMES
        .iter()
        .find(|candidate| canonical(candidate) == wanted)
        .and_then(|candidate| match *candidate {
            "ResNet-18" => Some(resnet18()),
            "Inception-Mini" => Some(inception_mini()),
            // A NAMES entry without a builder arm is a bug, but it
            // surfaces as a lookup miss, not an abort.
            _ => None,
        })
}

/// All branchy zoo networks, in [`NAMES`] order.
#[must_use]
pub fn all() -> Vec<DagNetwork> {
    NAMES.iter().filter_map(|n| by_name(n)).collect()
}

/// A ResNet-18-style residual network for 224×224 inputs: a strided 7×7
/// stem, four stages of two basic blocks each (3×3 + 3×3 with an `add`
/// skip; the stage-entry blocks of stages 3–5 downsample with stride 2 and
/// a 1×1 projection skip), and a 1000-way classifier.
///
/// 21 weighted layers: the stem, 16 block convolutions, 3 projections, and
/// the final fully-connected layer.  (BatchNorm is element-wise and global
/// average pooling is omitted — neither changes the communication model's
/// tensors materially; the classifier consumes the flattened 7×7×512
/// map.)
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "static zoo literal validated by the structure tests; no service input reaches this builder"
)]
pub fn resnet18() -> DagNetwork {
    let mut g = GraphBuilder::new("ResNet-18", FeatureDims::new(3, 224, 224));
    g.layer(
        Layer::conv(
            "conv1",
            ConvSpec {
                out_channels: 64,
                kernel: 7,
                stride: 2,
                padding: 3,
            },
        )
        .with_pool(PoolSpec::max2()),
        INPUT,
    );
    let mut prev = "conv1".to_owned();
    for (stage, &channels) in [64u64, 128, 256, 512].iter().enumerate() {
        for block in 0..2usize {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            #[expect(
                clippy::cast_possible_truncation,
                reason = "block counts 0..2, far below u8::MAX"
            )]
            let base = format!("res{}{}", stage + 2, char::from(b'a' + block as u8));
            let conv_a = format!("{base}_2a");
            let conv_b = format!("{base}_2b");
            g.conv(
                &conv_a,
                ConvSpec {
                    out_channels: channels,
                    kernel: 3,
                    stride,
                    padding: 1,
                },
                &prev,
            );
            g.conv(&conv_b, ConvSpec::same(channels, 3), &conv_a);
            let skip = if stride == 2 {
                let projection = format!("{base}_1");
                g.conv(
                    &projection,
                    ConvSpec {
                        out_channels: channels,
                        kernel: 1,
                        stride: 2,
                        padding: 0,
                    },
                    &prev,
                );
                projection
            } else {
                prev.clone()
            };
            g.add(&base, &[&conv_b, &skip]);
            prev = base;
        }
    }
    g.fully_connected("fc1000", 1000, &prev);
    g.build().expect("ResNet-18 is a valid graph")
}

/// A small Inception-style network for 32×32 inputs: a pooled 3×3 stem,
/// one inception module (1×1 / 1×1→3×3 / 1×1→5×5 branches concatenated to
/// 64 channels), a pooled 3×3 fuse convolution, and a 10-way classifier.
///
/// 8 weighted layers in 5 segments joined by 6 branch/concat edges.
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "static zoo literal validated by the structure tests; no service input reaches this builder"
)]
pub fn inception_mini() -> DagNetwork {
    let mut g = GraphBuilder::new("Inception-Mini", FeatureDims::new(3, 32, 32));
    g.layer(
        Layer::conv("stem", ConvSpec::same(32, 3)).with_pool(PoolSpec::max2()),
        INPUT,
    )
    .conv("b1x1", ConvSpec::same(16, 1), "stem")
    .conv("b3x3_reduce", ConvSpec::same(16, 1), "stem")
    .conv("b3x3", ConvSpec::same(32, 3), "b3x3_reduce")
    .conv("b5x5_reduce", ConvSpec::same(8, 1), "stem")
    .conv("b5x5", ConvSpec::same(16, 5), "b5x5_reduce")
    .concat("mixed", &["b1x1", "b3x3", "b5x5"])
    .layer(
        Layer::conv("conv2", ConvSpec::same(64, 3)).with_pool(PoolSpec::max2()),
        "mixed",
    )
    .fully_connected("fc10", 10, "conv2");
    g.build().expect("Inception-Mini is a valid graph")
}

/// The trimmed branchy nets of the `greedy_gap_branchy` experiment, small
/// enough for the joint exhaustive search: Tiny-Res (3 layers), Res-Proj
/// (4), Inception-Trim (4) and Res-Pair (6).  They are not in [`NAMES`],
/// so the service does not resolve them.
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "static zoo literals validated by the structure tests; no service input reaches these builders"
)]
pub fn trimmed() -> Vec<DagNetwork> {
    [tiny_res(), res_proj(), inception_trim(), res_pair()]
        .iter()
        .map(|g| g.build().expect("trimmed nets are valid graphs"))
        .collect()
}

/// A single residual block — the smallest branchy shape: stem and body
/// convolutions `add`-joined into a classifier (3 layers, 3 segments).
fn tiny_res() -> GraphBuilder {
    let mut g = GraphBuilder::new("Tiny-Res", FeatureDims::new(8, 16, 16));
    g.conv("stem", ConvSpec::same(8, 3), INPUT)
        .conv("body", ConvSpec::same(8, 3), "stem")
        .add("join", &["stem", "body"])
        .fully_connected("fc", 10, "join");
    g
}

/// A downsampling residual block with a 1×1 projection skip — the
/// ResNet stage-entry pattern (4 layers, 4 segments).
fn res_proj() -> GraphBuilder {
    let mut g = GraphBuilder::new("Res-Proj", FeatureDims::new(8, 16, 16));
    g.conv("stem", ConvSpec::same(8, 3), INPUT)
        .conv(
            "body",
            ConvSpec {
                out_channels: 16,
                kernel: 3,
                stride: 2,
                padding: 1,
            },
            "stem",
        )
        .conv(
            "proj",
            ConvSpec {
                out_channels: 16,
                kernel: 1,
                stride: 2,
                padding: 0,
            },
            "stem",
        )
        .add("join", &["body", "proj"])
        .fully_connected("fc", 10, "join");
    g
}

/// A trimmed Inception module: two convolution branches concatenated into
/// a classifier (4 layers, 4 segments).
fn inception_trim() -> GraphBuilder {
    let mut g = GraphBuilder::new("Inception-Trim", FeatureDims::new(8, 16, 16));
    g.conv("stem", ConvSpec::same(16, 3), INPUT)
        .conv("b1x1", ConvSpec::same(8, 1), "stem")
        .conv("b3x3", ConvSpec::same(8, 3), "stem")
        .concat("mixed", &["b1x1", "b3x3"])
        .fully_connected("fc", 10, "mixed");
    g
}

/// Two stacked residual blocks with two-convolution bodies — the deepest
/// trimmed net (6 layers, 4 segments).
fn res_pair() -> GraphBuilder {
    let mut g = GraphBuilder::new("Res-Pair", FeatureDims::new(8, 8, 8));
    g.conv("stem", ConvSpec::same(8, 3), INPUT)
        .conv("b1_a", ConvSpec::same(8, 3), "stem")
        .conv("b1_b", ConvSpec::same(8, 3), "b1_a")
        .add("b1", &["b1_b", "stem"])
        .conv("b2_a", ConvSpec::same(8, 3), "b1")
        .conv("b2_b", ConvSpec::same(8, 3), "b2_a")
        .add("b2", &["b2_b", "b1"])
        .fully_connected("fc", 10, "b2");
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trimmed_nets_are_small_branchy_and_unlisted() {
        for (dag, layers) in trimmed().iter().zip([3, 4, 4, 6]) {
            let graph = dag.segments(64).unwrap();
            assert_eq!(graph.num_layers(), layers, "{}", dag.name());
            assert!(graph.num_segments() > 1, "{}", dag.name());
            assert!(by_name(dag.name()).is_none(), "{}", dag.name());
        }
    }

    #[test]
    fn resnet18_structure() {
        let dag = resnet18();
        assert_eq!(dag.name(), "ResNet-18");
        assert_eq!(dag.num_layers(), 21);
        assert_eq!(dag.num_nodes(), 29); // 21 layers + 8 add joins
        assert!(!dag.is_chain());
    }

    #[test]
    fn resnet18_spatial_funnel() {
        let dag = resnet18();
        // The final add (res5b) carries the 512-channel 7x7 map.
        let res5b = dag
            .nodes()
            .iter()
            .position(|n| n.name() == "res5b")
            .unwrap();
        assert_eq!(dag.node_output(res5b), FeatureDims::new(512, 7, 7));
        // The classifier flattens it to 25,088 features.
        let graph = dag.segments(1).unwrap();
        let fc = graph
            .segments()
            .iter()
            .flat_map(|s| s.layers())
            .find(|l| l.name == "fc1000")
            .unwrap();
        assert_eq!(fc.weight_elems, (512 * 7 * 7 * 1000) as f64);
    }

    #[test]
    fn resnet18_segments_and_edges() {
        let graph = resnet18().segments(64).unwrap();
        // conv1 | 8 block bodies | 3 projections | fc1000.
        assert_eq!(graph.num_segments(), 13);
        assert_eq!(graph.num_layers(), 21);
        // Every block junction contributes: producer->body plus the join
        // in-edges (resolved transitively through identity-skip joins)
        // forwarded to each consumer.
        assert_eq!(graph.edges().len(), 30);
    }

    #[test]
    fn inception_mini_structure() {
        let dag = inception_mini();
        assert_eq!(dag.num_layers(), 8);
        let graph = dag.segments(128).unwrap();
        assert_eq!(graph.num_segments(), 5);
        assert_eq!(graph.edges().len(), 6);
    }

    #[test]
    fn registry_is_forgiving_and_round_trips() {
        for name in NAMES {
            assert_eq!(by_name(name).unwrap().name(), name);
        }
        assert_eq!(by_name("resnet18").unwrap().name(), "ResNet-18");
        assert_eq!(by_name("INCEPTION_MINI").unwrap().name(), "Inception-Mini");
        assert!(by_name("resnet50").is_none());
        assert_eq!(all().len(), NAMES.len());
    }
}
