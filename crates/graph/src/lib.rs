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
//!   chain IR's [`hypar_models::Network`];
//! * [`DagNetwork::segments`] — decomposes a general DAG into maximal
//!   chain segments between joins/branch points, with per-segment
//!   communication tensors and explicit [`SegmentEdge`]s carrying the
//!   branch-forwarding / join-gradient-accumulation traffic;
//!   [`SegmentCommGraph::chain`] is a chain network's one-segment graph,
//!   which is also what a branch-free DAG decomposes into, so one
//!   pipeline plans chains and DAGs alike;
//! * [`partition_graph`] / [`stitch`] — plan each segment with the
//!   unmodified [`hypar_core::hierarchical`] search and stitch the results
//!   into one whole-model [`hypar_core::HierarchicalPlan`], pricing every
//!   inter-segment junction like a chain junction with the one exact
//!   evaluator, [`hypar_comm::CostTerms`] ([`partition_graph_with`] takes
//!   an explicit [`hypar_comm::JunctionScaling`] interpretation, for the
//!   model ablation);
//! * [`exhaustive`] — the `O(2^{L·H})` **joint** brute-force baseline over
//!   all segments and levels at once, quantifying the stitched planner's
//!   greedy gap on small branchy networks;
//! * [`refine`] — the junction-aware coordinate-descent pass
//!   ([`refine_graph_plan`]) that closes most of that gap
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
pub use exhaustive::best_joint_graph;
pub use node::{GraphNode, NodeOp, INPUT};
pub use plan::{evaluate_graph_plan, partition_graph, partition_graph_with, plan_segments, stitch};
pub use refine::refine_graph_plan;
pub use segments::{SegmentCommGraph, SegmentEdge};
