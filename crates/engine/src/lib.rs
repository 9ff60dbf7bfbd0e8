//! The HyPar planning **engine**: the library pipeline
//! (`models → comm → core → sim`) packaged as a cached, parallel planning
//! service.
//!
//! HyPar's value is the partition *search* — choosing data vs. model
//! parallelism per layer per hierarchy level to minimize communication
//! (paper §4).  Callers used to hand-wire the four library crates and
//! recompute identical plans from scratch; this crate centralizes that
//! pipeline behind one API:
//!
//! * [`PlanRequest`] / [`PlanResponse`] — a serde-JSON description of a
//!   planning workload: network (zoo name — chain or branchy —, custom
//!   layer spec, or inline DAG node spec), batch size, hierarchy levels,
//!   strategy (`hypar`/`dp`/`mp`/`owt`/`exhaustive`/`explicit`),
//!   topology, and an optional full discrete-event simulation of the
//!   training step;  branchy DAGs are decomposed into chain segments by
//!   `hypar-graph` and planned segment by segment with inter-segment
//!   junction accounting;
//! * [`PlanEngine`] — resolves requests through the pipeline, memoizing
//!   results in an LRU [`cache::PlanCache`] keyed by a stable
//!   [`fingerprint::Fingerprint`] of the *resolved* workload (network
//!   shapes, not names), so repeated and equivalent queries are served in
//!   O(1);
//! * [`PlanEngine::plan_many`] — fans a batch of requests across CPU
//!   cores with deterministic, order-preserving results;
//! * [`service`] — a line-delimited JSON front-end over any
//!   `BufRead`/`Write` pair or a TCP listener, used by the `hypar-engine`
//!   binary;
//! * [`scenario`] — reproducible sweep files (`scenarios/*.json`) run as a
//!   batch through the engine;
//! * **telemetry** — every request is timed into a metrics registry
//!   ([`PlanEngine::metrics_snapshot`], the service's `{"stats": true}`
//!   command); `trace: true` on a request attaches a [`PlanTiming`] span
//!   tree without changing its cache fingerprint;
//! * **determinism** — every [`PlanResponse`] carries a canonical
//!   [`state_hash`](PlanResponse::state_hash) content digest; [`record`]
//!   appends request/response JSONL logs (`--record PATH` on the binary)
//!   that the companion `hypar-replay` crate re-executes and diffs, and
//!   `scenarios/golden.json` pins every scenario's hash in CI.
//!
//! # Examples
//!
//! ```
//! use hypar_engine::{PlanEngine, PlanRequest, Strategy};
//!
//! let engine = PlanEngine::new();
//! let request = PlanRequest::zoo("vgg_a").levels(4).batch(256);
//! let first = engine.plan(&request)?;
//! assert!(!first.cache_hit);
//! let again = engine.plan(&request)?;
//! assert!(again.cache_hit);
//! assert_eq!(first.plan, again.plan);
//!
//! // Baselines go through the same cache-keyed pipeline.
//! let dp = engine.plan(&request.clone().strategy(Strategy::Dp))?;
//! assert!(first.total_comm_elems <= dp.total_comm_elems);
//! # Ok::<(), hypar_engine::EngineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(
    test,
    expect(
        clippy::let_underscore_must_use,
        clippy::unused_result_ok,
        reason = "unit tests assert exact values and discard results they do not inspect"
    )
)]

pub mod cache;
mod engine;
pub mod fingerprint;
mod metrics;
pub mod parallel;
pub mod record;
mod request;
pub mod scenario;
pub mod service;

pub use cache::CacheStats;
pub use engine::{EngineError, PlanEngine};
pub use record::{RecordEntry, Recorder};
pub use request::{
    CustomNetwork, GraphNodeSpec, GraphSpec, InputSpec, LayerSpec, NetworkRef, PlanRequest,
    PlanResponse, PlanTiming, Strategy,
};
