//! A DAG network IR for HyPar: branchy (ResNet/Inception-class) models
//! validated, decomposed into chain segments, and planned end to end
//! through the existing pipeline.
//!
//! The paper — and the chain IR in [`hypar_models`] — restricts networks
//! to a flat sequence of weighted layers, which makes residual and
//! multi-branch models unrepresentable.  This crate adds the missing
//! expressiveness without touching the partition search:
//!
//! * [`GraphBuilder`] / [`DagNetwork`] — a validated DAG whose nodes are
//!   the existing weighted [`hypar_models::Layer`]s plus [`NodeOp::Add`]
//!   and [`NodeOp::Concat`] joins, wired by named edges, with one-pass
//!   shape inference over a canonical topological order (cycles, dangling
//!   edges, and join shape mismatches are rejected as typed
//!   [`GraphError`]s);
//! * [`DagNetwork::linearize`] — collapses a branch-free DAG into the
//!   chain IR's [`hypar_models::Network`], so chain-shaped DAGs flow
//!   through today's pipeline bit-identically;
//! * [`DagNetwork::segments`] — decomposes a general DAG into maximal
//!   chain segments between joins/branch points, with per-segment
//!   communication tensors and explicit [`SegmentEdge`]s carrying the
//!   branch-forwarding / join-gradient-accumulation traffic;
//! * [`partition_graph`] / [`stitch`] — plan each segment with the
//!   unmodified [`hypar_core::hierarchical`] search and stitch the results
//!   into one whole-model [`hypar_core::HierarchicalPlan`], pricing every
//!   inter-segment junction with [`hypar_comm::inter_elems`] (each entry
//!   point has a `_with` variant taking an explicit
//!   [`hypar_comm::JunctionScaling`] interpretation);
//! * [`exhaustive`] — the `O(2^{L·H})` **joint** brute-force baseline over
//!   all segments and levels at once, quantifying the stitched planner's
//!   greedy gap on small branchy networks;
//! * [`refine`] — the junction-aware coordinate-descent pass
//!   ([`partition_graph_refined`]) that closes most of that gap
//!   polynomially: seeds from the stitched plan and re-decides each bit
//!   against the true whole-graph cost, boundary layers first, to a
//!   strict-improvement fixed point;
//! * [`zoo`] — ResNet-18-style and Inception-style builders, the branchy
//!   counterpart of the paper's ten-network chain zoo.
//!
//! # Examples
//!
//! ```
//! use hypar_graph::{partition_graph, zoo};
//!
//! let dag = zoo::resnet18();
//! let graph = dag.segments(64)?;           // batch 64
//! let plan = partition_graph(&graph, 4)?;  // 16 accelerators
//! assert_eq!(plan.num_layers(), dag.num_layers());
//! assert!(plan.total_comm_elems() > 0.0);
//! # Ok::<(), hypar_graph::GraphError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(
    test,
    expect(
        clippy::float_cmp,
        reason = "unit tests assert exact values and discard results they do not inspect"
    )
)]

mod dag;
mod error;
pub mod exhaustive;
mod node;
pub mod plan;
pub mod refine;
mod segments;
pub mod zoo;

pub use dag::{DagNetwork, GraphBuilder};
pub use error::GraphError;
pub use exhaustive::{best_joint_graph, best_joint_graph_with};
pub use node::{GraphNode, NodeOp, INPUT};
pub use plan::{
    evaluate_graph_plan, evaluate_graph_plan_with, inter_segment_elems, inter_segment_elems_with,
    partition_graph, partition_graph_refined, partition_graph_refined_with, partition_graph_with,
    plan_segments, plan_segments_with, stitch, stitch_with,
};
pub use refine::{refine_graph_plan, refine_graph_plan_with};
pub use segments::{SegmentCommGraph, SegmentEdge};
