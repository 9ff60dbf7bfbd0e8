//! Ablations of the model's design choices (the README sections "The
//! cost model: one exact evaluator" and "Reproducing the paper") — beyond
//! the paper's own evaluation:
//!
//! 1. **Junction scaling** — the paper leaves the hierarchical scope of
//!    the Table 2 junction tensor unspecified; how sensitive are the plans
//!    and the total communication to the interpretation?
//! 2. **Comm/compute overlap** — the paper's training step serializes
//!    communication behind each phase; how much would overlapping buy each
//!    scheme?
//! 3. **Greedy vs joint optimum** — Algorithm 2 optimizes level by level;
//!    how far is that from the joint optimum over all levels at once?

use hypar_comm::JunctionScaling;
use hypar_core::{baselines, exhaustive, hierarchical};
use hypar_graph::{partition_graph_with, zoo as graph_zoo};
use hypar_models::zoo;
use hypar_sim::{training, ArchConfig};
use serde::Serialize;

use crate::context::{shapes, view, PAPER_BATCH, PAPER_LEVELS};
use crate::report::{gigabytes, ratio, Table};

/// Junction-scaling sensitivity for one network.
#[derive(Clone, Debug, Serialize)]
pub struct JunctionRow {
    /// Network name.
    pub network: String,
    /// HyPar total communication (GB) when planning+costing under each
    /// interpretation: consumer (default), producer, unscaled.
    pub comm_gb: [f64; 3],
    /// Whether each alternative interpretation selects the identical plan
    /// to the consumer default: [producer, unscaled].
    pub same_plan: [bool; 2],
}

/// Overlap ablation for one network.
#[derive(Clone, Debug, Serialize)]
pub struct OverlapRow {
    /// Network name.
    pub network: String,
    /// Step-time speedup from enabling comm/compute overlap, for HyPar.
    pub hypar_speedup: f64,
    /// Step-time speedup from enabling overlap, for Data Parallelism.
    pub dp_speedup: f64,
}

/// Greedy-vs-joint gap for one small network.
#[derive(Clone, Debug, Serialize)]
pub struct GreedyRow {
    /// Network name.
    pub network: String,
    /// Hierarchy depth used (kept small so the joint space is enumerable).
    pub levels: usize,
    /// Greedy (Algorithm 2) total communication, elements.
    pub greedy: f64,
    /// Joint-optimum total communication, elements.
    pub joint: f64,
}

/// The full ablation dataset.
#[derive(Clone, Debug, Serialize)]
pub struct Ablation {
    /// Junction-scaling sensitivity rows (all ten chain networks).
    pub junction: Vec<JunctionRow>,
    /// Junction-scaling sensitivity on the **branchy** zoo: the stitched
    /// DAG planner re-planned and re-priced (inter-segment junctions
    /// included) under each interpretation.
    pub junction_branchy: Vec<JunctionRow>,
    /// Overlap rows (all ten networks).
    pub overlap: Vec<OverlapRow>,
    /// Greedy-gap rows (small networks only).
    pub greedy: Vec<GreedyRow>,
}

/// Runs all three ablations.
#[must_use]
pub fn run() -> Ablation {
    let junction = zoo::NAMES
        .iter()
        .map(|name| {
            let net = view(name, PAPER_BATCH);
            let modes = [
                JunctionScaling::Consumer,
                JunctionScaling::Producer,
                JunctionScaling::Unscaled,
            ];
            let plans: Vec<_> = modes
                .iter()
                .map(|&m| hierarchical::partition_with(&net, PAPER_LEVELS, m))
                .collect();
            JunctionRow {
                network: (*name).to_owned(),
                comm_gb: [
                    plans[0].total_comm_bytes().gigabytes(),
                    plans[1].total_comm_bytes().gigabytes(),
                    plans[2].total_comm_bytes().gigabytes(),
                ],
                same_plan: [
                    plans[1].levels() == plans[0].levels(),
                    plans[2].levels() == plans[0].levels(),
                ],
            }
        })
        .collect();

    let junction_branchy = graph_zoo::NAMES
        .iter()
        .map(|name| {
            let graph = graph_zoo::by_name(name)
                .expect("zoo names resolve")
                .segments(PAPER_BATCH)
                .expect("zoo networks decompose");
            let modes = [
                JunctionScaling::Consumer,
                JunctionScaling::Producer,
                JunctionScaling::Unscaled,
            ];
            let plans: Vec<_> = modes
                .iter()
                .map(|&m| {
                    partition_graph_with(&graph, PAPER_LEVELS, m)
                        .expect("zoo segment graphs stitch")
                })
                .collect();
            JunctionRow {
                network: (*name).to_owned(),
                comm_gb: [
                    plans[0].total_comm_bytes().gigabytes(),
                    plans[1].total_comm_bytes().gigabytes(),
                    plans[2].total_comm_bytes().gigabytes(),
                ],
                same_plan: [
                    plans[1].levels() == plans[0].levels(),
                    plans[2].levels() == plans[0].levels(),
                ],
            }
        })
        .collect();

    let serial_cfg = ArchConfig::paper();
    let overlap_cfg = ArchConfig::paper().with_overlap(true);
    let overlap = zoo::NAMES
        .iter()
        .map(|name| {
            let shapes = shapes(name, PAPER_BATCH);
            let net = view(name, PAPER_BATCH);
            let hypar = hierarchical::partition(&net, PAPER_LEVELS);
            let dp = baselines::all_data(&net, PAPER_LEVELS);
            let speedup = |plan: &hypar_core::HierarchicalPlan| {
                let serial = training::simulate_step(&shapes, plan, &serial_cfg)
                    .expect("plan matches the network");
                let overlapped = training::simulate_step(&shapes, plan, &overlap_cfg)
                    .expect("plan matches the network");
                serial.step_time.value() / overlapped.step_time.value()
            };
            OverlapRow {
                network: (*name).to_owned(),
                hypar_speedup: speedup(&hypar),
                dp_speedup: speedup(&dp),
            }
        })
        .collect();

    let greedy = [
        ("SFC", 3usize),
        ("SCONV", 3),
        ("Lenet-c", 4),
        ("Cifar-c", 4),
    ]
    .iter()
    .map(|&(name, levels)| {
        let net = view(name, PAPER_BATCH);
        let greedy = hierarchical::partition(&net, levels).total_comm_elems();
        let (joint, _) =
            exhaustive::best_joint(&net, levels).expect("small networks fit the search bound");
        GreedyRow {
            network: name.to_owned(),
            levels,
            greedy,
            joint,
        }
    })
    .collect();

    Ablation {
        junction,
        junction_branchy,
        overlap,
        greedy,
    }
}

/// Renders the four ablation tables.
#[must_use]
pub fn render(a: &Ablation) -> String {
    let mut junction = Table::new(
        "Ablation 1: junction-scaling interpretation (HyPar comm, GB)",
        &[
            "network",
            "consumer",
            "producer",
            "unscaled",
            "same plan (prod/unscaled)",
        ],
    );
    for r in &a.junction {
        junction.row(&[
            r.network.clone(),
            gigabytes(r.comm_gb[0] * 1e9),
            gigabytes(r.comm_gb[1] * 1e9),
            gigabytes(r.comm_gb[2] * 1e9),
            format!("{}/{}", r.same_plan[0], r.same_plan[1]),
        ]);
    }

    let mut junction_branchy = Table::new(
        "Ablation 1b: junction-scaling interpretation on branchy DAGs (stitched HyPar comm, GB)",
        &[
            "network",
            "consumer",
            "producer",
            "unscaled",
            "same plan (prod/unscaled)",
        ],
    );
    for r in &a.junction_branchy {
        junction_branchy.row(&[
            r.network.clone(),
            gigabytes(r.comm_gb[0] * 1e9),
            gigabytes(r.comm_gb[1] * 1e9),
            gigabytes(r.comm_gb[2] * 1e9),
            format!("{}/{}", r.same_plan[0], r.same_plan[1]),
        ]);
    }

    let mut overlap = Table::new(
        "Ablation 2: comm/compute overlap (step-time speedup from overlapping)",
        &["network", "HyPar", "Data Par."],
    );
    for r in &a.overlap {
        overlap.row(&[
            r.network.clone(),
            ratio(r.hypar_speedup),
            ratio(r.dp_speedup),
        ]);
    }

    let mut greedy = Table::new(
        "Ablation 3: greedy per-level (Algorithm 2) vs joint optimum",
        &["network", "levels", "greedy/joint"],
    );
    for r in &a.greedy {
        greedy.row(&[
            r.network.clone(),
            r.levels.to_string(),
            format!("{:.4}", r.greedy / r.joint),
        ]);
    }

    format!("{junction}\n{junction_branchy}\n{overlap}\n{greedy}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> &'static Ablation {
        use std::sync::OnceLock;
        static DATA: OnceLock<Ablation> = OnceLock::new();
        DATA.get_or_init(run)
    }

    #[test]
    fn junction_interpretation_is_second_order() {
        // The intra-layer terms dominate; switching the junction scope must
        // not change total communication by more than ~2x anywhere, and
        // plans mostly coincide.
        let a = dataset();
        let mut same = 0;
        for r in &a.junction {
            let lo = r.comm_gb.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = r.comm_gb.iter().cloned().fold(0.0, f64::max);
            assert!(
                hi / lo < 2.0,
                "{}: junction interpretation changed comm {lo} -> {hi}",
                r.network
            );
            same += usize::from(r.same_plan[0]);
        }
        assert!(
            same >= 5,
            "most producer-scope plans should match consumer-scope plans"
        );
    }

    #[test]
    fn branchy_junction_interpretation_is_second_order_too() {
        // The DAG path now honors the JunctionScaling ablation: every
        // branchy zoo network gets re-planned and re-priced under each
        // interpretation, and — as on chains — the intra-layer terms
        // dominate.
        let a = dataset();
        assert_eq!(a.junction_branchy.len(), graph_zoo::NAMES.len());
        for r in &a.junction_branchy {
            let lo = r.comm_gb.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = r.comm_gb.iter().cloned().fold(0.0, f64::max);
            assert!(lo > 0.0, "{}", r.network);
            assert!(
                hi / lo < 2.0,
                "{}: junction interpretation changed comm {lo} -> {hi}",
                r.network
            );
        }
    }

    #[test]
    fn overlap_never_hurts_and_sometimes_matters() {
        // Overlap can only shorten the schedule. Notably it helps HyPar
        // *more* than DP on the big conv networks: DP's gradient traffic
        // exceeds the whole backward pass, so there is nothing to hide it
        // under, while HyPar's moderate traffic hides almost entirely.
        let a = dataset();
        let mut meaningful = 0;
        for r in &a.overlap {
            assert!(r.hypar_speedup >= 1.0 - 1e-9, "{}", r.network);
            assert!(r.dp_speedup >= 1.0 - 1e-9, "{}", r.network);
            if r.hypar_speedup > 1.2 || r.dp_speedup > 1.2 {
                meaningful += 1;
            }
        }
        assert!(
            meaningful >= 5,
            "overlap should matter for several networks"
        );
    }

    #[test]
    fn greedy_gap_is_small() {
        for r in &dataset().greedy {
            let gap = r.greedy / r.joint;
            assert!(
                (1.0..1.25).contains(&gap),
                "{}: greedy gap {gap}",
                r.network
            );
        }
    }

    #[test]
    fn render_emits_four_tables() {
        let text = render(dataset());
        assert_eq!(text.matches("Ablation").count(), 4);
        assert!(text.contains("branchy DAGs"));
    }
}
