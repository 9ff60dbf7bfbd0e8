//! HyPar's communication model (paper §3).
//!
//! Training a DNN across two groups of accelerators moves tensors between
//! the groups.  The paper decomposes this traffic into:
//!
//! * **intra-layer** communication (Table 1) — partial-sum exchanges caused
//!   by the parallelism chosen *for* a layer: gradient all-reduce under
//!   data parallelism, output-activation all-reduce under model
//!   parallelism ([`CostTerms::layer_term`]);
//! * **inter-layer** communication (Table 2) — redistribution of the
//!   feature/error maps at the junction between two adjacent layers when
//!   their parallelisms differ in layout ([`CostTerms::pair_term`]).
//!
//! Amounts are tensor **element counts crossing the link between the two
//! groups, both directions included** — the convention of the paper's
//! worked examples (56 KB = 2×70×100×4 B for a 70×100 fc layer under dp).
//! Multiply by [`PRECISION_BYTES`] for bytes.
//!
//! The hierarchical partition re-applies the model at every level of a
//! binary accelerator hierarchy, where the choices above have shrunk each
//! layer's tensors by powers of two.  [`CostTerms`] holds a network's
//! integer counts and gives each level's amounts as exact integer terms,
//! from a layer's count of dp levels above — the README section "The cost
//! model: one exact evaluator" derives them.
//!
//! # Examples
//!
//! The paper's §3.4 fully-connected example — 70 inputs, 100 outputs,
//! batch 32 — where model parallelism beats data parallelism:
//!
//! ```
//! use hypar_comm::{CostTerms, LayerCommTensors, NetworkCommTensors, Parallelism};
//!
//! let fc = LayerCommTensors::fully_connected("fc", 32, 70, 100);
//! let terms = CostTerms::chain(&NetworkCommTensors::from_layers("fc", 32, vec![fc]));
//! let dp = terms.layer_term(0, Parallelism::Data, 0, &[0]);
//! let mp = terms.layer_term(0, Parallelism::Model, 0, &[0]);
//! assert_eq!(dp * 4, 56_000);  // 2 x 70x100 x 4 B
//! assert_eq!(mp * 4, 25_600);  // 2 x 32x100 x 4 B
//! assert!(mp < dp);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(
    test,
    expect(
        clippy::float_cmp,
        clippy::let_underscore_must_use,
        reason = "unit tests assert exact values and discard results they do not inspect"
    )
)]

mod parallelism;
mod tensors;
mod terms;

pub use parallelism::Parallelism;
pub use tensors::{LayerCommTensors, NetworkCommTensors};
pub use terms::{count_dp, CostTerms, FlipPricer, JunctionScaling};

/// Bytes per tensor element: the paper computes with 32-bit floating
/// point throughout (§6.1).
pub const PRECISION_BYTES: u32 = 4;
