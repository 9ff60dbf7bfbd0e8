//! HyPar's partition search — the paper's primary contribution (§4).
//!
//! Given a network's tensor sizes ([`hypar_comm::NetworkCommTensors`]) and
//! an accelerator array organized as a binary hierarchy of `H` levels
//! (`2^H` accelerators), HyPar chooses **data or model parallelism per
//! weighted layer per level** so that the total communication of one
//! training step is minimized:
//!
//! * [`two_group::partition`] — Algorithm 1: a layer-wise dynamic program
//!   (two states per layer, Viterbi traceback) that partitions work between
//!   two groups in `O(L)` time;
//! * [`hierarchical::partition`] — Algorithm 2: applies Algorithm 1 at
//!   every level, halving the per-layer tensor scales committed above
//!   (`com = com_h + 2·com_n`);
//! * [`evaluate::evaluate_plan`] — costs *any* hierarchical plan under the
//!   identical model, so baselines and sweeps are directly comparable;
//! * [`baselines`] — Data Parallelism, Model Parallelism, and Krizhevsky's
//!   "one weird trick";
//! * [`exhaustive`] — brute-force optima used to validate the dynamic
//!   program and to quantify the greedy gap of the hierarchical recursion;
//! * [`refine`] — polynomial coordinate descent closing part of that
//!   greedy gap: re-decides each committed bit against the true plan
//!   cost, monotonically, to a fixed point;
//! * [`sweep`] — the restricted design-space enumerations of Figures 9/10.
//!
//! # Examples
//!
//! ```
//! use hypar_comm::NetworkCommTensors;
//! use hypar_core::{baselines, hierarchical};
//! use hypar_models::zoo;
//!
//! let net = NetworkCommTensors::from_network(&zoo::lenet_c(), 256)?;
//! let plan = hierarchical::partition(&net, 4);
//! let dp = baselines::all_data(&net, 4);
//! assert!(plan.total_comm_elems() < dp.total_comm_elems());
//! # Ok::<(), hypar_models::NetworkError>(())
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

pub mod baselines;
pub mod evaluate;
pub mod exhaustive;
pub mod hierarchical;
mod plan;
pub mod refine;
pub mod sweep;
pub mod two_group;

pub use evaluate::PlanCost;
pub use exhaustive::ExhaustiveError;
pub use plan::HierarchicalPlan;
