//! Facade crate for the HyPar reproduction workspace.
//!
//! Re-exports every sub-crate under one roof so downstream users (and the
//! repository-level examples and integration tests) can depend on a single
//! `hypar` package:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`tensor`] | `hypar-tensor` | shape algebra, unit newtypes |
//! | [`models`] | `hypar-models` | layer/network descriptions, shape inference, the paper's zoo |
//! | [`comm`]   | `hypar-comm`   | the Table 1/2 communication model |
//! | [`core`]   | `hypar-core`   | Algorithms 1 and 2, baselines, exhaustive search |
//! | [`graph`]  | `hypar-graph`  | DAG network IR: branchy models segmented and planned |
//! | [`sim`]    | `hypar-sim`    | the event-driven accelerator-array simulator |
//! | [`telemetry`] | `hypar-telemetry` | metrics registry and per-request span traces |
//! | [`bench`](mod@bench) | `hypar-bench` | paper table/figure reproduction harness |
//! | [`engine`] | `hypar-engine` | the cached, parallel planning-engine service |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hypar_bench as bench;
pub use hypar_comm as comm;
pub use hypar_core as core;
pub use hypar_engine as engine;
pub use hypar_graph as graph;
pub use hypar_models as models;
pub use hypar_sim as sim;
pub use hypar_telemetry as telemetry;
pub use hypar_tensor as tensor;
