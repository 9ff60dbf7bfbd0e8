//! Event-driven simulator for the HMC-based HyPar accelerator array
//! (paper §5–6).
//!
//! The paper evaluates HyPar on an event-driven simulation of sixteen
//! HMC-based accelerators with Eyeriss-style row-stationary processing
//! units, connected by an H-tree (or torus) network.  This crate rebuilds
//! that methodology:
//!
//! * [`des`] — a generic discrete-event engine: tasks with dependencies
//!   executed on exclusive resources (accelerators, links);
//! * [`ArchConfig`] / [`EnergyModel`] — the paper's published hardware
//!   constants (84 GOPS/s and 320 GB/s per accelerator, 1600 Mb/s leaf
//!   links, 0.9/3.7/5.0/640 pJ energy numbers);
//! * [`Topology`] — H-tree and torus inter-accelerator networks;
//! * [`training`] — builds the task graph of one synchronous training step
//!   (forward / backward / gradient / update, with model-parallel output
//!   reductions, data-parallel gradient all-reduces, and junction
//!   redistributions) and runs it through the engine — for any segment
//!   graph ([`training::simulate_graph_step`], with branch-forwarding and
//!   join-gradient-accumulation junction tasks at segment boundaries); a
//!   chain is the one-segment case ([`training::simulate_step`]);
//! * [`StepReport`] — simulated time, energy, and traffic breakdowns;
//! * [`SimError`] — typed failures, so the planning service never panics
//!   on inconsistent simulation inputs.
//!
//! # Examples
//!
//! ```
//! use hypar_models::{zoo, NetworkShapes};
//! use hypar_sim::{ArchConfig, training};
//! use hypar_comm::NetworkCommTensors;
//! use hypar_core::{baselines, hierarchical};
//!
//! let shapes = NetworkShapes::infer(&zoo::lenet_c(), 256)?;
//! let net = NetworkCommTensors::from_shapes(&shapes);
//! let cfg = ArchConfig::paper();
//!
//! let hypar =
//!     training::simulate_step(&shapes, &hierarchical::partition(&net, 4), &cfg).unwrap();
//! let dp = training::simulate_step(&shapes, &baselines::all_data(&net, 4), &cfg).unwrap();
//! assert!(hypar.step_time < dp.step_time);
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

mod config;
pub mod des;
mod energy;
mod error;
mod noc;
pub mod pe;
mod report;
pub mod training;

pub use config::ArchConfig;
pub use energy::EnergyModel;
pub use error::SimError;
pub use noc::Topology;
pub use report::{SimTraceSummary, StepReport};
