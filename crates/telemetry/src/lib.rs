//! Dependency-light telemetry for the HyPar engine: metrics and traces.
//!
//! The planning service's observability layer, in two halves:
//!
//! * [`metrics`] — process-lifetime aggregates: atomic [`Counter`]s and
//!   [`Gauge`]s plus log2-bucketed latency [`Histogram`]s with
//!   p50/p90/p99 [`HistogramSnapshot`] summaries, organized in a named
//!   [`Registry`] that snapshots to one JSON object (the service's
//!   `{"stats": true}` admin reply).
//! * [`trace`] — per-request structure: a [`SpanRecorder`] times named
//!   units of work into a [`Span`] tree (cache lookup, per-segment
//!   planning, stitch, refine, simulate …) that a traced `PlanResponse`
//!   carries back to the caller.
//! * [`statehash`] — canonical state digests: the [`StateHasher`]
//!   primitive and the [`StateHash`] trait that plan/report-producing
//!   crates implement so every response carries a bit-exact,
//!   order-canonical `state_hash` the golden manifests and the
//!   record/replay harness can pin.
//!
//! Everything is `std`-only (atomics, one mutex around registration) so
//! the instruments are cheap enough to leave on for every request: a
//! recorded observation is a handful of relaxed atomic adds, a span is
//! two `Instant` reads.

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

pub mod metrics;
pub mod statehash;
pub mod trace;

pub use metrics::{
    percentile, Counter, Gauge, Histogram, HistogramSnapshot, Registry, RegistrySnapshot,
};
pub use statehash::{hash_hex, StateHash, StateHasher};
pub use trace::{duration_ns_since, Span, SpanRecorder};
