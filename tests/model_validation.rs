//! Cross-crate validation of the communication model and the partition
//! algorithms against the paper's published numbers and against brute
//! force.

use hypar_comm::{
    level_cost, JunctionScaling, LevelCost, NetworkCommTensors, Parallelism, ScaleState,
};
use hypar_core::{baselines, evaluate::evaluate_plan, exhaustive, hierarchical, two_group};
use hypar_models::zoo;

fn view(name: &str, batch: u64) -> NetworkCommTensors {
    NetworkCommTensors::from_network(&zoo::by_name(name).expect("zoo name"), batch)
        .expect("valid network")
}

/// One group pair's itemized cost at every level of a plan, with the
/// scales descending level by level as Algorithm 2 commits them.
fn per_level(net: &NetworkCommTensors, levels: &[Vec<Parallelism>]) -> Vec<LevelCost> {
    let mut scales = ScaleState::identity(net.len());
    levels
        .iter()
        .map(|assignment| {
            let cost = level_cost(net, &scales, assignment, JunctionScaling::Consumer);
            scales = scales.descend(assignment);
            cost
        })
        .collect()
}

#[test]
fn figure8_data_parallelism_column_reproduces_exactly() {
    // All-dp total communication is 2 x (2^H - 1) x A(W): the paper's
    // Figure 8 DP column for the networks whose hyper-parameters the paper
    // pins down. Values in GB.
    for (name, paper_gb) in [
        ("SFC", 16.9),
        ("SCONV", 0.0121),
        ("Lenet-c", 0.0517),
        ("Cifar-c", 0.0174),
        ("VGG-A", 15.9),
        ("VGG-B", 16.0),
    ] {
        let net = view(name, 256);
        let dp = baselines::all_data(&net, 4);
        let measured = dp.total_comm_bytes().gigabytes();
        assert!(
            (measured - paper_gb).abs() / paper_gb < 0.02,
            "{name}: measured {measured:.4} GB vs paper {paper_gb} GB"
        );
    }
}

#[test]
fn dp_equals_brute_force_on_every_feasible_zoo_network() {
    for name in zoo::NAMES {
        let net = view(name, 256);
        if net.len() > 14 {
            continue; // 2^L too large for brute force; covered by proptests.
        }
        let scales = ScaleState::identity(net.len());
        let dp = two_group::partition(&net, &scales);
        let (brute, assignment) = exhaustive::best_level(&net, &scales).unwrap();
        assert!(
            (dp.comm_elems - brute).abs() <= 1e-9 * brute.max(1.0),
            "{name}: DP {} vs brute {brute}",
            dp.comm_elems
        );
        // The assignments may differ only on exact ties.
        let dp_cost =
            level_cost(&net, &scales, &dp.assignment, JunctionScaling::Consumer).total_elems();
        let brute_cost =
            level_cost(&net, &scales, &assignment, JunctionScaling::Consumer).total_elems();
        assert!(
            (dp_cost - brute_cost).abs() <= 1e-9 * brute_cost.max(1.0),
            "{name}"
        );
    }
}

#[test]
fn greedy_hierarchical_matches_joint_optimum_on_small_networks() {
    for (name, levels) in [("SFC", 3), ("SCONV", 3), ("Lenet-c", 3), ("Cifar-c", 2)] {
        let net = view(name, 256);
        let greedy = hierarchical::partition(&net, levels).total_comm_elems();
        let (joint, _) = exhaustive::best_joint(&net, levels).unwrap();
        assert!(joint <= greedy * (1.0 + 1e-12), "{name}");
        assert!(
            greedy <= joint * 1.3,
            "{name}: greedy {greedy} too far from joint optimum {joint}"
        );
    }
}

#[test]
fn uniform_baselines_scale_as_two_to_the_h_minus_one() {
    // Neither uniform scheme shrinks its dominant intra-layer tensor with
    // depth (dp never shrinks ΔW, mp never shrinks F_out), so the total
    // communication of both grows as (2^H - 1): exactly for dp, and
    // slightly sub-linearly for mp whose junction terms do shrink.
    let net = view("VGG-A", 256);
    let mp2 = baselines::all_model(&net, 2).total_comm_elems();
    let mp4 = baselines::all_model(&net, 4).total_comm_elems();
    let dp2 = baselines::all_data(&net, 2).total_comm_elems();
    let dp4 = baselines::all_data(&net, 4).total_comm_elems();
    assert!((dp4 / dp2 - 5.0).abs() < 1e-9, "dp ratio {}", dp4 / dp2);
    assert!(
        mp4 / mp2 > 4.5 && mp4 / mp2 <= 5.0,
        "mp ratio {}",
        mp4 / mp2
    );
}

#[test]
fn batch_size_flips_the_fc_decision() {
    // §6.5.2: fc3 (4096 x 1000) ties at batch 4096 (dp wins the tie) but
    // prefers mp at small batches.
    let small = NetworkCommTensors::from_layers(
        "fc3-b32",
        32,
        vec![hypar_comm::LayerCommTensors::fully_connected(
            "fc3", 32, 4096, 1000,
        )],
    );
    let result = two_group::partition(&small, &ScaleState::identity(1));
    assert_eq!(result.assignment, vec![Parallelism::Model]);

    let large = NetworkCommTensors::from_layers(
        "fc3-b4096",
        4096,
        vec![hypar_comm::LayerCommTensors::fully_connected(
            "fc3", 4096, 4096, 1000,
        )],
    );
    let result = two_group::partition(&large, &ScaleState::identity(1));
    assert_eq!(result.assignment, vec![Parallelism::Data]);
}

#[test]
fn evaluate_plan_is_additive_over_levels() {
    // The total is Σ_h 2^h · (one pair's cost at level h).
    let net = view("AlexNet", 256);
    let plan = hierarchical::partition(&net, 4);
    let levels = per_level(&net, plan.levels());
    assert_eq!(levels.len(), 4);
    let total: f64 = levels
        .iter()
        .zip([1.0, 2.0, 4.0, 8.0])
        .map(|(cost, pairs)| pairs * cost.total_elems())
        .sum();
    assert_eq!(total, evaluate_plan(&net, plan.levels()).total_elems());
    assert_eq!(total, plan.total_comm_elems());
}

#[test]
fn hierarchical_partition_is_deterministic() {
    let net = view("VGG-E", 256);
    let a = hierarchical::partition(&net, 4);
    let b = hierarchical::partition(&net, 4);
    assert_eq!(a, b);
}

#[test]
fn zero_inter_layer_cost_iff_all_dp() {
    // dp-dp junctions are free; any mp choice at any level must introduce
    // junction or reduction traffic somewhere.
    let net = view("Lenet-c", 256);
    let dp = baselines::all_data(&net, 4);
    for level in per_level(&net, dp.levels()) {
        assert!(level.inter.iter().all(|&x| x == 0.0));
    }
    // So all-dp pays exactly the gradient exchange: 2·A(W)·(2^H − 1).
    let weights: f64 = net.layers().iter().map(|l| l.weight_elems).sum();
    assert_eq!(dp.total_comm_elems(), 2.0 * weights * 15.0);
    let hypar = hierarchical::partition(&net, 4);
    let any_inter = per_level(&net, hypar.levels())
        .iter()
        .any(|l| l.inter.iter().any(|&x| x > 0.0));
    assert!(any_inter, "Lenet-c's hybrid plan crosses layouts somewhere");
}
