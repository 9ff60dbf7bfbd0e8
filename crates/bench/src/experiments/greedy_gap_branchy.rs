//! Beyond the paper: the stitched DAG planner's **greedy gap** on branchy
//! networks — and how much of it the junction-aware refinement recovers.
//!
//! Figures 9/10 quantify how far Algorithm 2's level-by-level recursion
//! sits from the joint optimum on chains.  The segment-stitched DAG
//! planner (`hypar_graph::partition_graph`) is greedy in a second
//! direction as well — each segment is planned blind to the junction
//! traffic between segments — so this experiment compares **three**
//! planners over a zoo of *trimmed* residual/Inception-style networks
//! small enough to enumerate (`L·H ≤ 24`, the same feasibility bound the
//! chain search uses):
//!
//! * **stitched** — `partition_graph`, the production greedy planner;
//! * **refined** — `refine_graph_plan`, the polynomial
//!   coordinate-descent pass seeded from the stitched plan;
//! * **joint** — `best_joint_graph`, the exponential exhaustive optimum.
//!
//! The refined planner has no slot limit, so the experiment also runs it
//! on ResNet-18 (84 slots at `H = 4`), where the exhaustive search is a
//! typed rejection.

use hypar_graph::{best_joint_graph, partition_graph, refine_graph_plan, zoo, SegmentCommGraph};
use serde::Serialize;

use crate::report::{ratio, Table};

/// The mini-batch size of the small-branchy zoo (kept modest: the joint
/// space, not the tensors, is the bottleneck).
pub const BATCH: u64 = 64;

/// One trimmed branchy network's stitched / refined / joint comparison.
#[derive(Clone, Debug, Serialize)]
pub struct GreedyGapRow {
    /// Network name.
    pub network: String,
    /// Weighted layers `L`.
    pub layers: usize,
    /// Chain segments the DAG decomposes into.
    pub segments: usize,
    /// Inter-segment junction edges.
    pub edges: usize,
    /// Hierarchy depth `H`.
    pub levels: usize,
    /// Joint search space exponent (`L·H`).
    pub slots: usize,
    /// Stitched greedy plan (`partition_graph`) total, in elements.
    pub stitched_elems: f64,
    /// Refined plan (`refine_graph_plan` on the stitched plan) total, in
    /// elements.
    pub refined_elems: f64,
    /// Joint optimum (`best_joint_graph`) total, in elements.
    pub joint_elems: f64,
    /// `stitched / joint` (≥ 1; 1.0 means the greedy stitch is optimal).
    pub stitched_gap: f64,
    /// `refined / joint` (≥ 1; 1.0 means refinement reached the optimum).
    pub refined_gap: f64,
}

/// The refined planner beyond the enumeration bound: ResNet-18, where
/// `strategy: exhaustive` is a typed rejection but refinement just runs.
#[derive(Clone, Debug, Serialize)]
pub struct UnboundedRow {
    /// Network name.
    pub network: String,
    /// Weighted layers `L`.
    pub layers: usize,
    /// Hierarchy depth `H`.
    pub levels: usize,
    /// `L·H` — beyond the 24-slot exhaustive feasibility bound.
    pub slots: usize,
    /// Stitched greedy plan total, in elements.
    pub stitched_elems: f64,
    /// Refined plan total, in elements.
    pub refined_elems: f64,
    /// `stitched / refined` (≥ 1): the gap refinement recovered where no
    /// joint certificate exists.
    pub recovered: f64,
    /// The typed error `best_joint_graph` returns at this size.
    pub exhaustive_rejection: String,
}

/// The greedy-gap dataset.
#[derive(Clone, Debug, Serialize)]
pub struct GreedyGapBranchy {
    /// Mini-batch size used throughout.
    pub batch: u64,
    /// One row per trimmed branchy network (joint-certified).
    pub rows: Vec<GreedyGapRow>,
    /// The beyond-the-bound demonstration row.
    pub unbounded: UnboundedRow,
}

/// The small-branchy zoo: every trimmed net with the hierarchy depth it
/// is enumerated at (`L·H ≤ 24`).
fn small_zoo() -> Vec<(SegmentCommGraph, usize)> {
    // Tiny-Res 12 slots, Res-Proj 16, Inception-Trim 16, Res-Pair 18.
    zoo::trimmed()
        .iter()
        .zip([4, 4, 4, 3])
        .map(|(dag, levels)| (dag.segments(BATCH).expect("ok"), levels))
        .collect()
}

/// The stitched plan's total and its refined plan's total, in elements.
fn stitched_and_refined(graph: &SegmentCommGraph, levels: usize) -> (f64, f64) {
    let stitched = partition_graph(graph, levels).expect("zoo entries stitch");
    let (refined, _) = refine_graph_plan(graph, &stitched).expect("zoo entries refine");
    (stitched.total_comm_elems(), refined.total_comm_elems())
}

/// Runs the three-way comparison across the small-branchy zoo, plus the
/// refined-only ResNet-18 demonstration.
///
/// # Panics
///
/// Panics if a zoo entry exceeds the enumeration bound or fails to
/// stitch (they are sized and validated at construction, so this
/// indicates a bug).
#[must_use]
pub fn run() -> GreedyGapBranchy {
    let rows = small_zoo()
        .into_iter()
        .map(|(graph, levels)| {
            let (stitched, refined) = stitched_and_refined(&graph, levels);
            let joint = best_joint_graph(&graph, levels)
                .expect("zoo entries fit the enumeration bound")
                .total_comm_elems();
            GreedyGapRow {
                network: graph.name().to_owned(),
                layers: graph.num_layers(),
                segments: graph.num_segments(),
                edges: graph.edges().len(),
                levels,
                slots: graph.num_layers() * levels,
                stitched_elems: stitched,
                refined_elems: refined,
                joint_elems: joint,
                stitched_gap: stitched / joint,
                refined_gap: refined / joint,
            }
        })
        .collect();

    let levels = 4;
    let graph = zoo::resnet18().segments(BATCH).expect("zoo decomposes");
    let (stitched, refined) = stitched_and_refined(&graph, levels);
    let exhaustive_rejection = best_joint_graph(&graph, levels)
        .expect_err("84 slots must exceed the bound")
        .to_string();
    let unbounded = UnboundedRow {
        network: graph.name().to_owned(),
        layers: graph.num_layers(),
        levels,
        slots: graph.num_layers() * levels,
        stitched_elems: stitched,
        refined_elems: refined,
        recovered: stitched / refined,
        exhaustive_rejection,
    };
    GreedyGapBranchy {
        batch: BATCH,
        rows,
        unbounded,
    }
}

/// Renders the comparison.
#[must_use]
pub fn table(data: &GreedyGapBranchy) -> Table {
    let mut t = Table::new(
        format!(
            "Greedy gap on branchy DAGs: stitched planner vs junction-aware refinement \
             vs joint exhaustive optimum, B={}",
            data.batch
        ),
        &[
            "network",
            "layers",
            "segs",
            "H",
            "slots",
            "stitched",
            "refined",
            "joint",
            "stitched/joint",
            "refined/joint",
        ],
    );
    for r in &data.rows {
        t.row(&[
            r.network.clone(),
            r.layers.to_string(),
            r.segments.to_string(),
            r.levels.to_string(),
            r.slots.to_string(),
            format!("{:.3e}", r.stitched_elems),
            format!("{:.3e}", r.refined_elems),
            format!("{:.3e}", r.joint_elems),
            ratio(r.stitched_gap),
            ratio(r.refined_gap),
        ]);
    }
    let u = &data.unbounded;
    t.row(&[
        u.network.clone(),
        u.layers.to_string(),
        "-".to_owned(),
        u.levels.to_string(),
        u.slots.to_string(),
        format!("{:.3e}", u.stitched_elems),
        format!("{:.3e}", u.refined_elems),
        "infeasible".to_owned(),
        "-".to_owned(),
        format!("recovers {}", ratio(u.recovered)),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> &'static GreedyGapBranchy {
        use std::sync::OnceLock;
        static DATA: OnceLock<GreedyGapBranchy> = OnceLock::new();
        DATA.get_or_init(run)
    }

    #[test]
    fn covers_at_least_three_branchy_networks_within_the_bound() {
        let data = dataset();
        assert!(data.rows.len() >= 3);
        for row in &data.rows {
            assert!(row.segments > 1, "{} must be branchy", row.network);
            assert!(row.slots <= 24, "{} exceeds the bound", row.network);
        }
    }

    #[test]
    fn joint_lower_bounds_the_stitch_everywhere() {
        for row in &dataset().rows {
            assert!(
                row.joint_elems <= row.stitched_elems * (1.0 + 1e-12),
                "{}: joint {} vs stitched {}",
                row.network,
                row.joint_elems,
                row.stitched_elems
            );
            assert!(row.stitched_gap >= 1.0 - 1e-12, "{}", row.network);
            // Unlike the chain greedy gap (a few percent, Figures 9/10),
            // the segment-blind stitch can be severely suboptimal when
            // junction traffic rivals the tiny per-layer tensors: Res-Pair
            // measures ~3.1x.  Bound it loosely so a planner regression
            // (or a pricing bug) still fails loudly.
            assert!(
                row.stitched_gap < 5.0,
                "{}: unexpectedly large greedy gap {}",
                row.network,
                row.stitched_gap
            );
        }
    }

    #[test]
    fn refined_never_exceeds_stitched_and_certifies_against_the_joint_optimum() {
        // The issue's acceptance bar: on every joint-certified net the
        // refined plan matches the optimum (1.00x) or comes within 1.10x,
        // and never exceeds the stitched cost.
        for row in &dataset().rows {
            assert!(
                row.refined_elems <= row.stitched_elems * (1.0 + 1e-12),
                "{}: refined {} vs stitched {}",
                row.network,
                row.refined_elems,
                row.stitched_elems
            );
            assert!(
                row.refined_gap >= 1.0 - 1e-12,
                "{}: refined beat the certified optimum?",
                row.network
            );
            assert!(
                row.refined_gap <= 1.10,
                "{}: refinement left too much on the table ({}x)",
                row.network,
                row.refined_gap
            );
        }
    }

    #[test]
    fn refinement_reaches_the_joint_optimum_on_the_certified_zoo() {
        // Stronger than the 1.10x bar: on all four trimmed nets the
        // coordinate descent currently lands exactly on the joint
        // optimum's cost.  Pinned so a refinement regression is loud; if
        // a future cost-model change legitimately breaks exactness,
        // weaken this to the 1.10x criterion above with a note.
        for row in &dataset().rows {
            assert!(
                (row.refined_elems - row.joint_elems).abs() <= 1e-9 * row.joint_elems.max(1.0),
                "{}: refined {} vs joint {}",
                row.network,
                row.refined_elems,
                row.joint_elems
            );
        }
    }

    #[test]
    fn refinement_runs_beyond_the_exhaustive_bound() {
        let u = &dataset().unbounded;
        assert!(u.slots > 24, "ResNet-18 must exceed the bound");
        assert!(
            u.exhaustive_rejection.contains("exceeds"),
            "{}",
            u.exhaustive_rejection
        );
        assert!(
            u.refined_elems <= u.stitched_elems * (1.0 + 1e-12),
            "refined {} vs stitched {}",
            u.refined_elems,
            u.stitched_elems
        );
        assert!(u.recovered >= 1.0 - 1e-12);
    }

    #[test]
    fn table_renders_every_row() {
        let text = table(dataset()).to_string();
        for row in &dataset().rows {
            assert!(text.contains(&row.network), "{text}");
        }
        assert!(text.contains(&dataset().unbounded.network), "{text}");
        assert!(text.contains("infeasible"), "{text}");
    }
}
