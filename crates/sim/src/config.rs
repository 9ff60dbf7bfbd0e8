//! Architecture configuration (the paper's §6.1 evaluation setup).

use hypar_comm::JunctionScaling;
use serde::{Deserialize, Serialize};

use crate::pe::PeArray;
use crate::{EnergyModel, Topology};

/// The accelerator-array configuration used by the simulator.
///
/// Defaults ([`ArchConfig::paper`]) reproduce the paper's setup: each
/// accelerator is an HMC cube whose logic die carries an Eyeriss-like
/// row-stationary processing unit with 168 PEs at 250 MHz (84 GOPS/s),
/// 320 GB/s of local DRAM bandwidth and 8 GB of capacity; accelerators are
/// connected by 1600 Mb/s links in an H-tree.
///
/// # Examples
///
/// ```
/// use hypar_sim::{ArchConfig, Topology};
///
/// let cfg = ArchConfig::paper().with_topology(Topology::Torus);
/// assert_eq!(cfg.compute_ops_per_sec, 84e9);
/// assert_eq!(cfg.topology, Topology::Torus);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ArchConfig {
    /// Inter-accelerator topology.
    pub topology: Topology,
    /// Leaf link bandwidth in bytes/s (paper: 1600 Mb/s = 200 MB/s).
    pub leaf_link_bytes_per_sec: f64,
    /// Compute throughput of one processing unit in ops/s, counting a MAC
    /// as two ops (paper: 84.0 GOPS/s = 168 PEs × 250 MHz × 2).
    pub compute_ops_per_sec: f64,
    /// Processing units per accelerator node.  The paper's node is an HMC
    /// cube with one Eyeriss-like PU per vault ("within an HMC vault (i.e.,
    /// an Eyeriss accelerator and its local memory)"); an HMC has 16
    /// vaults.
    pub pus_per_accelerator: u32,
    /// Per-accelerator local DRAM bandwidth in bytes/s (paper: 320 GB/s
    /// HMC).
    pub dram_bytes_per_sec: f64,
    /// Per-accelerator DRAM capacity in bytes (paper: 8 GB HMC).
    pub dram_capacity_bytes: f64,
    /// Whether communication may overlap with compute.  `false` (default)
    /// reproduces the paper's phase-ordered training step; `true` is kept
    /// as an ablation.
    pub overlap_comm: bool,
    /// Energy constants.
    pub energy: EnergyModel,
    /// Bytes per tensor element (fp32).
    pub precision_bytes: u32,
    /// Whether to time compute with the row-stationary PE-array mapping
    /// ([`crate::pe`]) instead of the flat peak-throughput roofline.
    /// `false` by default; the `pe` ablation quantifies the difference.
    pub detailed_pe: bool,
    /// The PE grid used when `detailed_pe` is enabled.
    pub pe_array: PeArray,
    /// How junction tensors are scoped when the hierarchy descends —
    /// consumer layout (default), producer layout, or unscaled.  Must
    /// match the interpretation the plan was costed under for the
    /// simulated traffic to reconcile with the analytic total.  Only
    /// tests simulate another mode: the `ablation` experiment sweeps the
    /// modes through the planner and its analytic totals, not through the
    /// simulator.  The field stays because request fingerprints hash the
    /// serialized configuration.
    pub junction_scaling: JunctionScaling,
    /// Whether `add`/`concat` joins charge their element-wise
    /// accumulation/gather work to the compute model (`true` by default).
    /// The analytic communication model never sees this work — it moves no
    /// tensors between groups — but ignoring it under-counts step time on
    /// join-heavy networks; `false` reproduces the pure-analytic schedule.
    pub join_compute: bool,
}

impl ArchConfig {
    /// The paper's evaluation configuration.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            topology: Topology::HTree,
            leaf_link_bytes_per_sec: 200e6,
            compute_ops_per_sec: 84e9,
            pus_per_accelerator: 16,
            dram_bytes_per_sec: 320e9,
            dram_capacity_bytes: 8e9,
            overlap_comm: false,
            energy: EnergyModel::paper(),
            precision_bytes: 4,
            detailed_pe: false,
            pe_array: PeArray::paper(),
            junction_scaling: JunctionScaling::Consumer,
            join_compute: true,
        }
    }

    /// Aggregate compute throughput of one accelerator node in ops/s.
    #[must_use]
    pub fn node_ops_per_sec(&self) -> f64 {
        self.compute_ops_per_sec * f64::from(self.pus_per_accelerator)
    }

    /// Returns the configuration with a different topology.
    #[must_use]
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Returns the configuration with communication/compute overlap
    /// enabled or disabled.
    #[must_use]
    pub fn with_overlap(mut self, overlap: bool) -> Self {
        self.overlap_comm = overlap;
        self
    }

    /// Returns the configuration with the row-stationary PE-array timing
    /// model enabled.
    #[must_use]
    pub fn with_detailed_pe(mut self) -> Self {
        self.detailed_pe = true;
        self
    }

    /// Returns the configuration with a different junction-scaling
    /// interpretation.
    #[must_use]
    pub fn with_junction_scaling(mut self, mode: JunctionScaling) -> Self {
        self.junction_scaling = mode;
        self
    }

    /// Returns the configuration with join element-wise compute charging
    /// enabled or disabled.
    #[must_use]
    pub fn with_join_compute(mut self, join_compute: bool) -> Self {
        self.join_compute = join_compute;
        self
    }
}

impl Default for ArchConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_6_1() {
        let cfg = ArchConfig::paper();
        assert_eq!(cfg.leaf_link_bytes_per_sec, 200e6);
        assert_eq!(cfg.compute_ops_per_sec, 84e9);
        assert_eq!(cfg.pus_per_accelerator, 16);
        assert_eq!(cfg.node_ops_per_sec(), 16.0 * 84e9);
        assert_eq!(cfg.dram_bytes_per_sec, 320e9);
        assert_eq!(cfg.dram_capacity_bytes, 8e9);
        assert_eq!(cfg.topology, Topology::HTree);
        assert!(!cfg.overlap_comm);
    }

    #[test]
    fn builder_methods_chain() {
        let cfg = ArchConfig::paper()
            .with_topology(Topology::Torus)
            .with_overlap(true);
        assert_eq!(cfg.topology, Topology::Torus);
        assert!(cfg.overlap_comm);
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(ArchConfig::default(), ArchConfig::paper());
    }

    #[test]
    fn junction_and_join_knobs_have_paper_defaults() {
        let cfg = ArchConfig::paper();
        assert_eq!(cfg.junction_scaling, JunctionScaling::Consumer);
        assert!(cfg.join_compute);
        let cfg = cfg
            .with_junction_scaling(JunctionScaling::Producer)
            .with_join_compute(false);
        assert_eq!(cfg.junction_scaling, JunctionScaling::Producer);
        assert!(!cfg.join_compute);
    }
}
