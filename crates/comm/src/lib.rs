//! HyPar's communication model (paper §3).
//!
//! Training a DNN across two groups of accelerators moves tensors between
//! the groups.  The paper decomposes this traffic into:
//!
//! * **intra-layer** communication (Table 1) — partial-sum exchanges caused
//!   by the parallelism chosen *for* a layer: gradient all-reduce under
//!   data parallelism, output-activation all-reduce under model
//!   parallelism ([`intra_elems`]);
//! * **inter-layer** communication (Table 2) — redistribution of the
//!   feature/error maps at the junction between two adjacent layers when
//!   their parallelisms differ in layout ([`inter_elems`]).
//!
//! Amounts are tensor **element counts crossing the link between the two
//! groups, both directions included** — the convention of the paper's
//! worked examples (56 KB = 2×70×100×4 B for a 70×100 fc layer under dp).
//! Multiply by [`PRECISION_BYTES`] for bytes.
//!
//! The hierarchical partition re-applies the model at every level of a
//! binary accelerator hierarchy; [`ScaleState`] tracks how each layer's
//! tensors shrink as upper levels commit to dp (batch halves) or mp
//! (kernel input dimension halves) — the README section "The cost model:
//! one exact evaluator" derives the per-level terms.
//!
//! # Examples
//!
//! The paper's §3.4 fully-connected example — 70 inputs, 100 outputs,
//! batch 32 — where model parallelism beats data parallelism:
//!
//! ```
//! use hypar_comm::{intra_bytes, LayerCommTensors, LayerScale, Parallelism};
//!
//! let fc = LayerCommTensors::fully_connected("fc", 32, 70, 100);
//! let dp = intra_bytes(Parallelism::Data, &fc, LayerScale::default());
//! let mp = intra_bytes(Parallelism::Model, &fc, LayerScale::default());
//! assert_eq!(dp.value(), 56_000.0);  // 2 x 70x100 x 4 B
//! assert_eq!(mp.value(), 25_600.0);  // 2 x 32x100 x 4 B
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
        clippy::cast_possible_truncation,
        reason = "unit tests assert exact values and discard results they do not inspect"
    )
)]

mod cost;
mod model;
mod parallelism;
mod scale;
mod tensors;
mod terms;

pub use cost::{level_cost, LevelCost};
pub use model::{inter_bytes, inter_elems, inter_split, intra_bytes, intra_elems, PRECISION_BYTES};
pub use parallelism::Parallelism;
pub use scale::{junction_scale_between, JunctionScaling, LayerScale, ScaleState};
pub use tensors::{LayerCommTensors, NetworkCommTensors};
pub use terms::{CostTerms, FlipPricer};
