//! Property tests: branch-free DAGs are *exactly* the chain pipeline.
//!
//! A randomly generated branch-free DAG must linearize to a [`Network`]
//! whose inferred shapes and communication tensors match the chain built
//! directly through [`hypar_models::NetworkBuilder`] — and the segment
//! planner must reproduce the chain planner bit for bit.

#![expect(
    clippy::float_cmp,
    clippy::expect_used,
    reason = "assertions compare exact values; helpers fail by panicking"
)]

use hypar_comm::NetworkCommTensors;
use hypar_core::hierarchical;
use hypar_graph::{GraphBuilder, INPUT};
use hypar_models::{ConvSpec, Layer, Network, NetworkShapes, PoolSpec};
use hypar_tensor::FeatureDims;
use proptest::prelude::*;

/// One randomly drawn chain: an input shape plus layer descriptors.
#[derive(Clone, Debug)]
struct ChainSpec {
    input: FeatureDims,
    /// `(out_channels, kernel, pool)` per convolution.
    convs: Vec<(u64, u64, bool)>,
    /// `out_features` per fully-connected layer.
    fcs: Vec<u64>,
}

impl ChainSpec {
    /// The layers, constructed identically for both IRs.
    fn layers(&self) -> Vec<Layer> {
        let mut hw = self.input.height;
        let mut layers = Vec::new();
        for (i, &(out_ch, kernel, pool)) in self.convs.iter().enumerate() {
            let mut layer = Layer::conv(format!("conv{i}"), ConvSpec::same(out_ch, kernel));
            if pool && hw >= 4 {
                layer = layer.with_pool(PoolSpec::max2());
                hw /= 2;
            }
            layers.push(layer);
        }
        for (i, &out) in self.fcs.iter().enumerate() {
            layers.push(Layer::fully_connected(format!("fc{i}"), out));
        }
        layers
    }

    /// The chain built directly through the chain IR.
    fn chain(&self) -> Network {
        let mut b = Network::builder("prop", self.input);
        for layer in self.layers() {
            b.layer(layer);
        }
        b.build().expect("generated chains are valid")
    }

    /// The same chain built as a DAG — with the nodes inserted in
    /// *reverse* order, so canonicalization is exercised too.
    fn dag(&self) -> hypar_graph::DagNetwork {
        let layers = self.layers();
        let mut g = GraphBuilder::new("prop", self.input);
        for (i, layer) in layers.iter().enumerate().rev() {
            let from = if i == 0 {
                INPUT.to_owned()
            } else {
                layers[i - 1].name().to_owned()
            };
            g.layer(layer.clone(), from);
        }
        g.build().expect("generated DAGs are valid")
    }
}

fn arb_chain() -> impl Strategy<Value = ChainSpec> {
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
        .prop_map(|(convs, fcs, (in_ch, in_hw))| ChainSpec {
            input: FeatureDims::new(in_ch, in_hw, in_hw),
            convs,
            fcs,
        })
}

proptest! {
    /// `linearize()` reproduces the directly built chain exactly — the
    /// networks are equal, so all downstream shapes are too.
    #[test]
    fn linearize_reproduces_the_chain(spec in arb_chain()) {
        let dag = spec.dag();
        prop_assert!(dag.is_chain());
        prop_assert_eq!(dag.linearize().unwrap(), spec.chain());
    }

    /// Shape inference agrees between the two IRs at any batch size.
    #[test]
    fn shapes_match_the_chain(spec in arb_chain(), batch in 1u64..64) {
        let direct = NetworkShapes::infer(&spec.chain(), batch).unwrap();
        let lowered = NetworkShapes::infer(&spec.dag().linearize().unwrap(), batch).unwrap();
        prop_assert_eq!(direct, lowered);
    }

    /// The communication tensors agree, both via linearization and via
    /// the segment decomposition (one segment, no edges).
    #[test]
    fn comm_tensors_match_the_chain(spec in arb_chain(), batch in 1u64..64) {
        let direct = NetworkCommTensors::from_network(&spec.chain(), batch).unwrap();
        let lowered =
            NetworkCommTensors::from_network(&spec.dag().linearize().unwrap(), batch).unwrap();
        prop_assert_eq!(&direct, &lowered);

        let graph = spec.dag().segments(batch).unwrap();
        prop_assert_eq!(graph.num_segments(), 1);
        prop_assert!(graph.edges().is_empty());
        // Segment names carry a segment prefix; the tensors themselves
        // must be identical.
        prop_assert_eq!(graph.segment(0).layers(), direct.layers());
        prop_assert_eq!(graph.segment(0).batch(), batch);
    }

    /// Planning a branch-free DAG through the segment path is
    /// bit-identical to the chain pipeline.
    #[test]
    fn segment_planner_matches_chain_planner(spec in arb_chain(), levels in 0usize..5) {
        let chain = NetworkCommTensors::from_network(&spec.chain(), 32).unwrap();
        let direct = hierarchical::partition(&chain, levels);
        let graph = spec.dag().segments(32).unwrap();
        let stitched = hypar_graph::partition_graph(&graph, levels).unwrap();
        prop_assert_eq!(direct.levels(), stitched.levels());
        prop_assert_eq!(direct.total_comm_elems(), stitched.total_comm_elems());
        prop_assert_eq!(direct.layer_names(), stitched.layer_names());
    }
}
