//! Cross-crate validation of the communication model and the partition
//! algorithms against the paper's published numbers, against brute force,
//! and against the model's level-by-level definition in `f64`.

use hypar_comm::{
    count_dp, CostTerms, JunctionScaling, NetworkCommTensors,
    Parallelism::{self, Data, Model},
};
use hypar_core::{baselines, evaluate::evaluate_plan, exhaustive, hierarchical, two_group};
use hypar_models::zoo;

const MODES: [JunctionScaling; 3] = [
    JunctionScaling::Consumer,
    JunctionScaling::Producer,
    JunctionScaling::Unscaled,
];

fn view(name: &str, batch: u64) -> NetworkCommTensors {
    NetworkCommTensors::from_network(&zoo::by_name(name).expect("zoo name"), batch)
        .expect("valid network")
}

/// The cost model's level-by-level definition in `f64`: each layer's batch
/// and input-feature fractions, halved by every dp and every mp level
/// above, scale one group pair's Table 1 and Table 2 amounts.
struct Fractions {
    batch: Vec<f64>,
    features: Vec<f64>,
}

impl Fractions {
    /// The top of the hierarchy: nothing is split.
    fn top(len: usize) -> Self {
        Self {
            batch: vec![1.0; len],
            features: vec![1.0; len],
        }
    }

    /// Commits one level's choices.
    fn descend(&mut self, level: &[Parallelism]) {
        for (l, &choice) in level.iter().enumerate() {
            match choice {
                Data => self.batch[l] /= 2.0,
                Model => self.features[l] /= 2.0,
            }
        }
    }

    /// Table 1 for one pair: `2·A(ΔW)` under dp, `2·A(F_out)` under mp.
    fn intra(&self, net: &NetworkCommTensors, l: usize, choice: Parallelism) -> f64 {
        match choice {
            Data => 2.0 * net.layer(l).weight_elems * self.features[l],
            Model => 2.0 * net.layer(l).output_elems * self.batch[l],
        }
    }

    /// Table 2 for one pair at the junction `l → l + 1`: nothing from dp
    /// to dp, otherwise the junction tensor in `mode`'s scope.
    fn inter(
        &self,
        net: &NetworkCommTensors,
        l: usize,
        (prev, next): (Parallelism, Parallelism),
        mode: JunctionScaling,
    ) -> f64 {
        if (prev, next) == (Data, Data) {
            return 0.0;
        }
        let scope = match mode {
            JunctionScaling::Consumer => self.batch[l + 1] * self.features[l + 1],
            JunctionScaling::Producer => self.batch[l],
            JunctionScaling::Unscaled => 1.0,
        };
        net.layer(l).junction_elems * scope
    }

    /// One pair's `(intra, inter)` amounts under `level`.
    fn level_cost(
        &self,
        net: &NetworkCommTensors,
        level: &[Parallelism],
        mode: JunctionScaling,
    ) -> (f64, f64) {
        let intra = (0..net.len()).map(|l| self.intra(net, l, level[l])).sum();
        let inter = (1..net.len())
            .map(|l| self.inter(net, l - 1, (level[l - 1], level[l]), mode))
            .sum();
        (intra, inter)
    }

    /// Algorithm 1 on one pair's `f64` amounts: the Viterbi recursion,
    /// ties toward dp on the predecessor and on the final state.
    fn algorithm1(&self, net: &NetworkCommTensors, mode: JunctionScaling) -> Vec<Parallelism> {
        let len = net.len();
        let mut com = vec![[0.0f64; 2]; len];
        let mut parent = vec![[Data; 2]; len];
        com[0] = [self.intra(net, 0, Data), self.intra(net, 0, Model)];
        for l in 1..len {
            for (s, state) in [Data, Model].into_iter().enumerate() {
                let from_dp = com[l - 1][0] + self.inter(net, l - 1, (Data, state), mode);
                let from_mp = com[l - 1][1] + self.inter(net, l - 1, (Model, state), mode);
                let (best, who) = if from_dp <= from_mp {
                    (from_dp, Data)
                } else {
                    (from_mp, Model)
                };
                com[l][s] = best + self.intra(net, l, state);
                parent[l][s] = who;
            }
        }
        let mut state = if com[len - 1][0] <= com[len - 1][1] {
            Data
        } else {
            Model
        };
        let mut assignment = vec![Data; len];
        for l in (0..len).rev() {
            assignment[l] = state;
            state = parent[l][usize::from(state.bit())];
        }
        assignment
    }
}

/// Algorithm 2 on the `f64` definition: Algorithm 1 level by level.
fn f64_algorithm2(
    net: &NetworkCommTensors,
    num_levels: usize,
    mode: JunctionScaling,
) -> Vec<Vec<Parallelism>> {
    let mut fractions = Fractions::top(net.len());
    (0..num_levels)
        .map(|_| {
            let level = fractions.algorithm1(net, mode);
            fractions.descend(&level);
            level
        })
        .collect()
}

/// One group pair's `(intra, inter)` amounts at every level of a plan.
fn per_level(net: &NetworkCommTensors, levels: &[Vec<Parallelism>]) -> Vec<(f64, f64)> {
    let mut fractions = Fractions::top(net.len());
    levels
        .iter()
        .map(|level| {
            let cost = fractions.level_cost(net, level, JunctionScaling::Consumer);
            fractions.descend(level);
            cost
        })
        .collect()
}

/// Algorithm 2 on the integer terms (`hierarchical::partition_with`)
/// picks the bits of Algorithm 2 on the `f64` definition, at every depth
/// H0–16 in every junction mode: on the chain zoo and on every segment of
/// the branchy zoo and of the trimmed nets, at 68 batches spread over
/// 1–4,127 and at 2^24, 2^28 and 2^32, where `f64` sums round.
#[test]
fn integer_algorithm2_picks_the_f64_bits() {
    let batches: Vec<u64> = (1..=4127)
        .step_by(61)
        .chain([1 << 24, 1 << 28, 1 << 32])
        .collect();
    let dags: Vec<_> = hypar_graph::zoo::all()
        .into_iter()
        .chain(hypar_graph::zoo::trimmed())
        .collect();
    let mut cases = 0;
    for &batch in &batches {
        let mut nets: Vec<NetworkCommTensors> = zoo::NAMES.iter().map(|n| view(n, batch)).collect();
        for dag in &dags {
            nets.extend(
                dag.segments(batch)
                    .expect("valid")
                    .segments()
                    .iter()
                    .cloned(),
            );
        }
        for net in &nets {
            for mode in MODES {
                let oracle = f64_algorithm2(net, 16, mode);
                for depth in 0..=16 {
                    let plan = hierarchical::partition_with(net, depth, mode);
                    let case = format!("{} b{batch} H{depth} {mode:?}", net.name());
                    assert_eq!(plan.levels(), &oracle[..depth], "{case}");
                    cases += 1;
                }
            }
        }
    }
    assert!(cases >= 150_000, "covered {cases} cases");
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
        let terms = CostTerms::chain(&net);
        let mut dp_above = vec![0; net.len()];
        for h in 0..3 {
            for mode in MODES {
                let dp = two_group::partition(&terms, h, &dp_above, mode);
                let (brute, assignment) =
                    exhaustive::best_level(&terms, h, &dp_above, mode).unwrap();
                assert_eq!(dp.comm_elems, brute, "{name} H{h} {mode:?}");
                // The assignments may differ only on exact ties.
                let level = terms.level_total(&assignment, h, &dp_above, mode);
                assert_eq!(level, brute, "{name} H{h} {mode:?}");
            }
            let top = two_group::partition(&terms, h, &dp_above, JunctionScaling::Consumer);
            count_dp(&mut dp_above, &top.assignment);
        }
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
    let fc3 = |batch| {
        let layer = hypar_comm::LayerCommTensors::fully_connected("fc3", batch, 4096, 1000);
        CostTerms::chain(&NetworkCommTensors::from_layers("fc3", batch, vec![layer]))
    };
    let small = two_group::partition(&fc3(32), 0, &[0], JunctionScaling::Consumer);
    assert_eq!(small.assignment, vec![Model]);
    let large = two_group::partition(&fc3(4096), 0, &[0], JunctionScaling::Consumer);
    assert_eq!(large.assignment, vec![Data]);
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
        .map(|(&(intra, inter), pairs)| pairs * (intra + inter))
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
    for (_, inter) in per_level(&net, dp.levels()) {
        assert_eq!(inter, 0.0);
    }
    // So all-dp pays exactly the gradient exchange: 2·A(W)·(2^H − 1).
    let weights: f64 = net.layers().iter().map(|l| l.weight_elems).sum();
    assert_eq!(dp.total_comm_elems(), 2.0 * weights * 15.0);
    let hypar = hierarchical::partition(&net, 4);
    let any_inter = per_level(&net, hypar.levels())
        .iter()
        .any(|&(_, inter)| inter > 0.0);
    assert!(any_inter, "Lenet-c's hybrid plan crosses layouts somewhere");
}
