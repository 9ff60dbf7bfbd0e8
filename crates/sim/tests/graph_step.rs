//! Properties of the whole-DAG step simulation.
//!
//! The anchor mirrors PR 2's `linearize()` property one level up the
//! stack: a randomly generated **branch-free** DAG decomposes into one
//! segment with no edges, so [`hypar_sim::training::simulate_graph_step`]
//! must produce a [`hypar_sim::StepReport`] **bit-identical** to
//! [`hypar_sim::training::simulate_step`] on the linearized chain — same
//! task graph, same schedule, same energy, to the last float.  On genuinely
//! branchy networks the suite checks the junction accounting against the
//! stitched analytic model and that `overlap_comm` lets independent
//! branches overlap.

#![expect(clippy::expect_used, reason = "helpers fail by panicking")]

use hypar_comm::NetworkCommTensors;
use hypar_core::{baselines, hierarchical};
use hypar_graph::{partition_graph, plan_segments, zoo, GraphBuilder, INPUT};
use hypar_models::{ConvSpec, Layer, Network, NetworkShapes, PoolSpec};
use hypar_sim::{training, ArchConfig};
use hypar_tensor::FeatureDims;
use proptest::prelude::*;

/// One randomly drawn chain: an input shape plus layer descriptors
/// (mirrors `crates/graph/tests/graph_properties.rs`).
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
    /// A chain-shaped DAG's step report is bit-identical to the
    /// linearized chain's, across hierarchy depths and both scheduling
    /// modes — the simulator counterpart of the `linearize()` planning
    /// property.
    #[test]
    fn chain_dag_step_report_is_bit_identical(
        spec in arb_chain(),
        levels in 0usize..5,
        overlap in any::<bool>(),
    ) {
        let batch = 32;
        let cfg = if overlap {
            ArchConfig::paper().with_overlap(true)
        } else {
            ArchConfig::paper()
        };

        let shapes = NetworkShapes::infer(&spec.chain(), batch).unwrap();
        let tensors = NetworkCommTensors::from_shapes(&shapes);
        let chain_plan = hierarchical::partition(&tensors, levels);
        let chain_report = training::simulate_step(&shapes, &chain_plan, &cfg).unwrap();

        let graph = spec.dag().segments(batch).unwrap();
        prop_assert_eq!(graph.num_segments(), 1);
        let dag_plan = partition_graph(&graph, levels).unwrap();
        let dag_report = training::simulate_graph_step(&graph, &dag_plan, &cfg).unwrap();

        prop_assert_eq!(chain_report, dag_report);
    }

    /// Traffic and energy are schedule-independent on branchy DAGs too,
    /// and overlap never hurts.
    #[test]
    fn branchy_overlap_preserves_traffic_and_never_hurts(levels in 1usize..5) {
        let graph = zoo::inception_mini().segments(64).unwrap();
        let plan = partition_graph(&graph, levels).unwrap();
        let serial = training::simulate_graph_step(&graph, &plan, &ArchConfig::paper()).unwrap();
        let overlap = training::simulate_graph_step(
            &graph,
            &plan,
            &ArchConfig::paper().with_overlap(true),
        )
        .unwrap();
        prop_assert!(overlap.step_time <= serial.step_time);
        prop_assert_eq!(overlap.comm_bytes, serial.comm_bytes);
        prop_assert_eq!(overlap.energy, serial.energy);
    }
}

#[test]
fn branch_overlap_shortens_the_inception_step() {
    // Inception-Mini's three parallel branches compute on the same
    // accelerators, but their junction transfers and gradient all-reduces
    // hide under other branches' work once `overlap_comm` lifts the phase
    // barriers — the simulated step must get strictly faster.
    let graph = zoo::inception_mini().segments(128).unwrap();
    let plan = partition_graph(&graph, 4).unwrap();
    let cfg = ArchConfig::paper();
    let serial = training::simulate_graph_step(&graph, &plan, &cfg).unwrap();
    let overlap =
        training::simulate_graph_step(&graph, &plan, &cfg.clone().with_overlap(true)).unwrap();
    assert!(
        overlap.step_time < serial.step_time,
        "overlap {} should beat serial {}",
        overlap.step_time,
        serial.step_time
    );
    // The gain is scheduling only: identical traffic and energy.
    assert_eq!(overlap.comm_bytes, serial.comm_bytes);
    assert_eq!(overlap.energy, serial.energy);
}

#[test]
fn resnet18_hybrid_step_beats_data_parallelism() {
    // Figures 6-8-style end-to-end validation on the branchy zoo: the
    // hybrid plan's simulated step time and energy must not lose to the
    // uniform dp baseline under the identical simulator.
    let graph = zoo::resnet18().segments(64).unwrap();
    let cfg = ArchConfig::paper();
    let hybrid =
        training::simulate_graph_step(&graph, &partition_graph(&graph, 4).unwrap(), &cfg).unwrap();
    let dp_plan = plan_segments(&graph, |s| baselines::all_data(s, 4)).unwrap();
    let dp = training::simulate_graph_step(&graph, &dp_plan, &cfg).unwrap();
    assert!(
        hybrid.performance_gain_over(&dp) >= 1.0,
        "hybrid {} vs dp {}",
        hybrid.step_time,
        dp.step_time
    );
    assert!(
        hybrid.energy_efficiency_over(&dp) >= 1.0,
        "hybrid {} vs dp {}",
        hybrid.energy,
        dp.energy
    );
}

#[test]
fn zero_levels_graph_step_has_no_communication() {
    let graph = zoo::resnet18().segments(16).unwrap();
    let plan = partition_graph(&graph, 0).unwrap();
    let report = training::simulate_graph_step(&graph, &plan, &ArchConfig::paper()).unwrap();
    assert_eq!(report.num_accelerators, 1);
    assert!(report.comm_bytes.is_zero());
    assert!(report.link_energy.is_zero());
    assert!(report.step_time.value() > 0.0);
}
