//! Property-based integration tests of the simulator: for arbitrary small
//! networks and arbitrary plans, the event-driven simulation must agree
//! with the analytic model and obey basic scheduling laws.

use hypar_comm::{NetworkCommTensors, Parallelism};
use hypar_core::{evaluate::evaluate_plan, HierarchicalPlan};
use hypar_models::{ConvSpec, Network, NetworkShapes, PoolSpec};
use hypar_sim::{training, ArchConfig, Topology};
use hypar_tensor::FeatureDims;
use proptest::prelude::*;

/// A random small network: a conv front (0..3 layers) and an fc tail
/// (1..3 layers) on a modest input.
fn arb_network() -> impl Strategy<Value = Network> {
    (
        proptest::collection::vec(
            (1u64..32, prop_oneof![Just(3u64), Just(5u64)], any::<bool>()),
            0..3,
        ),
        proptest::collection::vec(1u64..512, 1..3),
    )
        .prop_map(|(convs, fcs)| {
            let mut b = Network::builder("prop", FeatureDims::new(3, 32, 32));
            for (i, (ch, k, pool)) in convs.iter().enumerate() {
                b.conv(format!("conv{i}"), ConvSpec::same(*ch, *k));
                if *pool {
                    b.pool(PoolSpec::max2());
                }
            }
            for (i, out) in fcs.iter().enumerate() {
                b.fully_connected(format!("fc{i}"), *out);
            }
            b.build().expect("generated networks are valid")
        })
}

fn costed(net: &NetworkCommTensors, levels: Vec<Vec<Parallelism>>) -> HierarchicalPlan {
    let total = evaluate_plan(net, &levels).total_elems();
    HierarchicalPlan::from_parts(
        net.name(),
        net.layers().iter().map(|l| l.name.clone()).collect(),
        levels,
        total,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The simulator's communicated bytes equal the analytic cost model's,
    /// for any plan.
    #[test]
    fn traffic_matches_model(net in arb_network(), seed in any::<u64>()) {
        let shapes = NetworkShapes::infer(&net, 16).expect("valid");
        let tensors = NetworkCommTensors::from_shapes(&shapes);
        let levels = 2usize;
        // Derive a pseudo-random plan from the seed.
        let plan_levels: Vec<Vec<Parallelism>> = (0..levels)
            .map(|h| {
                (0..tensors.len())
                    .map(|l| Parallelism::from_bit((seed >> (h * tensors.len() + l)) & 1 == 1))
                    .collect()
            })
            .collect();
        let plan = costed(&tensors, plan_levels);
        let report = training::simulate_step(&shapes, &plan, &ArchConfig::paper()).expect("plan matches the network");
        let model = plan.total_comm_bytes().value();
        prop_assert!((report.comm_bytes.value() - model).abs() <= 1e-6 * model.max(1.0));
    }

    /// Makespan is at least the compute lower bound (one accelerator's
    /// serial work) and overlap never makes it worse.
    #[test]
    fn makespan_bounds(net in arb_network(), plan_bits in any::<u64>()) {
        let shapes = NetworkShapes::infer(&net, 16).expect("valid");
        let tensors = NetworkCommTensors::from_shapes(&shapes);
        let levels = 2usize;
        let plan_levels: Vec<Vec<Parallelism>> = (0..levels)
            .map(|h| {
                (0..tensors.len())
                    .map(|l| Parallelism::from_bit((plan_bits >> (h * tensors.len() + l)) & 1 == 1))
                    .collect()
            })
            .collect();
        let plan = costed(&tensors, plan_levels);
        let cfg = ArchConfig::paper();
        let serial = training::simulate_step(&shapes, &plan, &cfg).expect("plan matches the network");
        let overlap = training::simulate_step(&shapes, &plan, &cfg.clone().with_overlap(true)).expect("plan matches the network");
        prop_assert!(overlap.step_time.value() <= serial.step_time.value() + 1e-12);
        // The busy time of an accelerator never exceeds the makespan.
        prop_assert!(serial.compute_busy.value() <= serial.step_time.value() + 1e-12);
        prop_assert!(serial.link_busy.value() <= serial.step_time.value() + 1e-12);
    }

    /// Energy is schedule-independent: topology and overlap change time,
    /// never joules or bytes.
    #[test]
    fn energy_is_schedule_independent(net in arb_network(), plan_bits in any::<u64>()) {
        let shapes = NetworkShapes::infer(&net, 8).expect("valid");
        let tensors = NetworkCommTensors::from_shapes(&shapes);
        let plan_levels: Vec<Vec<Parallelism>> = (0..2)
            .map(|h| {
                (0..tensors.len())
                    .map(|l| Parallelism::from_bit((plan_bits >> (h * tensors.len() + l)) & 1 == 1))
                    .collect()
            })
            .collect();
        let plan = costed(&tensors, plan_levels);
        let base = training::simulate_step(&shapes, &plan, &ArchConfig::paper()).expect("plan matches the network");
        for cfg in [
            ArchConfig::paper().with_topology(Topology::Torus),
            ArchConfig::paper().with_overlap(true),
        ] {
            let other = training::simulate_step(&shapes, &plan, &cfg).expect("plan matches the network");
            prop_assert_eq!(other.energy, base.energy);
            prop_assert_eq!(other.comm_bytes, base.comm_bytes);
            prop_assert_eq!(other.dram_bytes, base.dram_bytes);
        }
    }

    /// More hierarchy levels never increase the per-accelerator footprint.
    #[test]
    fn footprint_monotone_in_depth(net in arb_network()) {
        let shapes = NetworkShapes::infer(&net, 16).expect("valid");
        let tensors = NetworkCommTensors::from_shapes(&shapes);
        let cfg = ArchConfig::paper();
        let mut previous = f64::INFINITY;
        for levels in 0..4usize {
            let plan = hypar_core::hierarchical::partition(&tensors, levels);
            let report = training::simulate_step(&shapes, &plan, &cfg).expect("plan matches the network");
            prop_assert!(report.dram_footprint_bytes.value() <= previous + 1e-9);
            previous = report.dram_footprint_bytes.value();
        }
    }
}

/// Every report of a grid of simulations, folded into one digest: the
/// chain and branchy zoo at b64 × H0, 1, 4 and 12 × `overlap_comm` off and
/// on × `detailed_pe` off and on × every junction scaling, each for the
/// `hypar` plan and a seeded pseudo-random plan.  Any change to a transfer
/// size, a DRAM sum or the schedule of any of them moves the digest.
#[test]
fn reports_over_both_zoos_are_pinned() {
    use hypar_comm::JunctionScaling;
    use hypar_graph::{partition_graph_with, SegmentCommGraph};
    use hypar_telemetry::statehash::{hash_hex, StateHash, StateHasher};

    let mut graphs: Vec<SegmentCommGraph> = hypar_models::zoo::NAMES
        .iter()
        .map(|name| {
            let net = hypar_models::zoo::by_name(name).expect("zoo network");
            SegmentCommGraph::chain(NetworkShapes::infer(&net, 64).expect("valid"))
        })
        .collect();
    for dag in hypar_graph::zoo::all() {
        graphs.push(dag.segments(64).expect("valid"));
    }
    let modes = [
        JunctionScaling::Consumer,
        JunctionScaling::Producer,
        JunctionScaling::Unscaled,
    ];
    let mut digest = StateHasher::new();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for graph in &graphs {
        let names: Vec<String> = graph
            .segments()
            .iter()
            .flat_map(|s| s.layers().iter().map(|l| l.name.clone()))
            .collect();
        for depth in [0, 1, 4, 12] {
            for mode in modes {
                let hypar = partition_graph_with(graph, depth, mode).expect("plannable");
                let levels = (0..depth)
                    .map(|_| {
                        (0..names.len())
                            .map(|_| {
                                state ^= state << 13;
                                state ^= state >> 7;
                                state ^= state << 17;
                                Parallelism::from_bit(state & 1 == 1)
                            })
                            .collect()
                    })
                    .collect();
                let random = HierarchicalPlan::from_parts(graph.name(), names.clone(), levels, 0.0);
                for plan in [&hypar, &random] {
                    for overlap in [false, true] {
                        for detailed_pe in [false, true] {
                            let mut cfg = ArchConfig::paper()
                                .with_overlap(overlap)
                                .with_junction_scaling(mode);
                            if detailed_pe {
                                cfg = cfg.with_detailed_pe();
                            }
                            let report = training::simulate_graph_step(graph, plan, &cfg)
                                .expect("plan matches the graph");
                            digest.write_u64(report.state_hash());
                        }
                    }
                }
            }
        }
    }
    assert_eq!(hash_hex(digest.finish()), "279509fd43f2f8b2");
}
