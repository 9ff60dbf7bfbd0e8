//! Golden replay & determinism observability for the HyPar planning
//! engine.
//!
//! The engine stamps every [`hypar_engine::PlanResponse`] with a
//! canonical `state_hash` — an order-independent, float-bit-exact digest
//! of the response's content (plan bits, costs, simulation numbers;
//! never `cache_hit` or wall-clock timing).  This crate is everything
//! built on top of that digest:
//!
//! * [`replay`] — re-execute a `--record`ed JSONL session
//!   ([`hypar_engine::RecordEntry`] lines) against the current build and
//!   diff every outcome;
//! * [`golden`] — capture and verify `scenarios/golden.json`, the
//!   manifest pinning every scenario's hash sequence (CI runs the
//!   verification twice consecutively; `--bless` regenerates the pins);
//! * [`drift`] — when hashes disagree, walk the span trees and response
//!   content to name the **first** divergence: the pipeline span
//!   (`compute/refine`), the plan bit (`layer 7 (…) level 1: dp -> mp`),
//!   or the cost (`cost 4.12e9 -> 4.09e9`).
//!
//! # Workflow
//!
//! ```text
//! hypar-engine --scenarios scenarios/lenet_levels.json --record run.jsonl
//! hypar-replay replay run.jsonl            # re-execute + diff
//! hypar-replay golden scenarios/*.json     # verify against golden.json
//! hypar-replay golden --bless scenarios/*.json   # re-pin after a
//!                                                # deliberate change
//! ```
//!
//! # Examples
//!
//! ```
//! use hypar_engine::{PlanEngine, PlanRequest, RecordEntry};
//! use hypar_replay::replay::replay;
//!
//! // Record two requests...
//! let engine = PlanEngine::new();
//! let request = PlanRequest::zoo("lenet_c").levels(2);
//! let log = vec![RecordEntry::from_outcome(&request, &engine.plan(&request))];
//!
//! // ...and replay them bit-identically on a fresh engine.
//! let summary = replay(&PlanEngine::new(), &log);
//! assert!(summary.is_clean());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(
    test,
    expect(
        clippy::unused_result_ok,
        reason = "unit tests assert exact values and discard results they do not inspect"
    )
)]

pub mod drift;
pub mod golden;
pub mod replay;

pub use drift::{attribute, diff_responses, diff_spans, DriftReport};
pub use golden::{GoldenDrift, GoldenEntry, GoldenError, GoldenManifest, MANIFEST_SCHEMA};
pub use replay::{ReplaySummary, ReplayedEntry, Verdict};
