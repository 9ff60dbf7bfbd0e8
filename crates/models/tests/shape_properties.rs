//! Property tests for shape inference over randomly generated networks.

#![expect(clippy::expect_used, reason = "helpers fail by panicking")]

use hypar_models::{ConvSpec, Network, NetworkError, NetworkShapes, PoolSpec};
use hypar_tensor::FeatureDims;
use proptest::prelude::*;

/// Strategy: a random valid network of same-padded convolutions (with
/// occasional 2×2 pooling while the maps stay large enough) followed by a
/// fully-connected tail.
fn arb_network() -> impl Strategy<Value = Network> {
    (
        proptest::collection::vec(
            (
                1u64..64,
                prop_oneof![Just(1u64), Just(3), Just(5)],
                any::<bool>(),
            ),
            0..5,
        ),
        proptest::collection::vec(1u64..300, 1..4),
        (1u64..8, 8u64..64),
    )
        .prop_map(|(convs, fcs, (in_ch, in_hw))| {
            let mut b = Network::builder("prop", FeatureDims::new(in_ch, in_hw, in_hw));
            let mut hw = in_hw;
            for (i, &(out_ch, k, pool)) in convs.iter().enumerate() {
                b.conv(format!("conv{i}"), ConvSpec::same(out_ch, k));
                if pool && hw >= 4 {
                    b.pool(PoolSpec::max2());
                    hw /= 2;
                }
            }
            for (i, &out) in fcs.iter().enumerate() {
                b.fully_connected(format!("fc{i}"), out);
            }
            b.build().expect("generated networks are valid")
        })
}

proptest! {
    /// The junction chain is consistent: layer l+1 consumes exactly what
    /// layer l hands over (up to fc flattening, which preserves volume).
    #[test]
    fn junctions_chain(net in arb_network(), batch in 1u64..64) {
        let shapes = NetworkShapes::infer(&net, batch).unwrap();
        for l in 0..shapes.len() - 1 {
            prop_assert_eq!(
                shapes.layer(l).junction_out.volume(),
                shapes.layer(l + 1).input.volume(),
                "junction {} -> {}", l, l + 1
            );
        }
    }

    /// Pooling never grows a feature map.
    #[test]
    fn pooling_shrinks(net in arb_network(), batch in 1u64..64) {
        let shapes = NetworkShapes::infer(&net, batch).unwrap();
        for layer in shapes.layers() {
            prop_assert!(layer.junction_out.volume() <= layer.conv_out.volume());
        }
    }

    /// Weights are batch-independent; activations and MACs scale linearly.
    #[test]
    fn batch_scaling(net in arb_network(), batch in 2u64..64) {
        let base = NetworkShapes::infer(&net, 1).unwrap();
        let scaled = NetworkShapes::infer(&net, batch).unwrap();
        prop_assert_eq!(base.total_weight_elems(), scaled.total_weight_elems());
        prop_assert_eq!(base.total_macs_forward() * batch, scaled.total_macs_forward());
        for (a, b) in base.layers().iter().zip(scaled.layers()) {
            prop_assert_eq!(a.f_out_elems() * batch, b.f_out_elems());
            prop_assert_eq!(a.junction_elems() * batch, b.junction_elems());
        }
    }

    /// One training step costs at most 3x forward MACs (forward + backward
    /// + gradient), and strictly less when the first layer skips backward.
    #[test]
    fn training_mac_bound(net in arb_network()) {
        let shapes = NetworkShapes::infer(&net, 4).unwrap();
        let fwd = shapes.total_macs_forward();
        let total = shapes.total_macs_training();
        prop_assert!(total <= 3 * fwd);
        prop_assert!(total >= 2 * fwd);
    }

    /// MAC counts equal weight work times spatial extent: for fc layers,
    /// exactly batch x weights.
    #[test]
    fn fc_macs_are_weight_times_batch(net in arb_network(), batch in 1u64..32) {
        let shapes = NetworkShapes::infer(&net, batch).unwrap();
        for layer in shapes.layers().iter().filter(|l| !l.is_conv) {
            prop_assert_eq!(layer.macs_forward, batch * layer.weight_elems);
        }
    }
}

#[test]
fn oversized_pool_is_rejected() {
    let err = Network::builder("bad", FeatureDims::new(1, 6, 6))
        .conv("c", ConvSpec::valid(4, 5)) // 2x2 output
        .pool(PoolSpec::max2()) // fits exactly
        .build();
    assert!(err.is_ok());
    let err = Network::builder("bad", FeatureDims::new(1, 5, 5))
        .conv("c", ConvSpec::valid(4, 5)) // 1x1 output
        .pool(PoolSpec::max2())
        .build()
        .unwrap_err();
    assert!(matches!(err, NetworkError::PoolTooLarge { .. }));
}
