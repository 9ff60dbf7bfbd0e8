//! The engine's pre-registered telemetry instruments.
//!
//! One [`EngineMetrics`] lives inside each [`crate::PlanEngine`]; the
//! handles are registered once at construction so the per-request path
//! touches only lock-free atomics.  [`crate::PlanEngine::metrics_snapshot`]
//! (and the service's `{"stats": true}` admin command) export the whole
//! registry as one JSON object.

use std::sync::Arc;

use hypar_telemetry::{Counter, Gauge, Histogram, Registry, RegistrySnapshot};

/// Shared handles into the engine's metric [`Registry`].
///
/// Counter/histogram names are the snapshot's JSON keys — stable wire
/// surface, documented in the README's telemetry section.
#[derive(Debug)]
pub(crate) struct EngineMetrics {
    registry: Registry,
    /// `requests`: [`crate::PlanEngine::plan`] calls (hits, misses, and
    /// failures alike).
    pub requests: Arc<Counter>,
    /// `errors`: requests answered with an [`crate::EngineError`].
    pub errors: Arc<Counter>,
    /// `inflight`: requests currently inside `plan` (gauge).
    pub inflight: Arc<Gauge>,
    /// `plan_latency_ns`: end-to-end latency of every `plan` call.
    pub plan_latency_ns: Arc<Histogram>,
    /// `plan_compute_ns`: latency of the cache-miss compute path only.
    pub plan_compute_ns: Arc<Histogram>,
    /// `refine_sweeps`: coordinate-descent sweeps run by `refined` plans.
    pub refine_sweeps: Arc<Counter>,
    /// `refine_flips`: dp/mp bit flips those sweeps accepted.
    pub refine_flips: Arc<Counter>,
    /// `exhaustive_candidates`: joint assignments enumerated by
    /// `exhaustive` searches.
    pub exhaustive_candidates: Arc<Counter>,
    /// `segments_planned`: segments seeded by `hypar`/`dp`/`mp`/`owt`/
    /// `refined` plans — one per chain, one per segment of a DAG.
    pub segments_planned: Arc<Counter>,
    /// `sim_steps`: discrete-event training-step simulations run.
    pub sim_steps: Arc<Counter>,
}

impl EngineMetrics {
    pub fn new() -> Self {
        let registry = Registry::new();
        EngineMetrics {
            requests: registry.counter("requests"),
            errors: registry.counter("errors"),
            inflight: registry.gauge("inflight"),
            plan_latency_ns: registry.histogram("plan_latency_ns"),
            plan_compute_ns: registry.histogram("plan_compute_ns"),
            refine_sweeps: registry.counter("refine_sweeps"),
            refine_flips: registry.counter("refine_flips"),
            exhaustive_candidates: registry.counter("exhaustive_candidates"),
            segments_planned: registry.counter("segments_planned"),
            sim_steps: registry.counter("sim_steps"),
            registry,
        }
    }

    pub fn snapshot(&self) -> RegistrySnapshot {
        self.registry.snapshot()
    }
}
