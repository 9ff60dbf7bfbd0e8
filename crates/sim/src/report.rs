//! Simulation results for one training step.

use hypar_telemetry::{StateHash, StateHasher};
use hypar_tensor::{Bytes, Joules, Seconds};
use serde::{Deserialize, Serialize};

/// Shape of the discrete-event schedule behind a [`StepReport`]: a cheap
/// summary of the simulation trace that ships with every report (the
/// full event log stays internal — it is orders of magnitude larger).
///
/// The simulator runs one accelerator and one pair channel per level
/// (see [`crate::training`]); both counts are those of the full array
/// the quotient represents.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimTraceSummary {
    /// DES tasks the step holds on the full array: each compute stage
    /// once per accelerator, each transfer once per pair channel of its
    /// level, junction forwarding/accumulation likewise, and every
    /// synchronization barrier once.
    pub tasks: u64,
    /// Resources of the full array: `2^H` accelerators, `2^H - 1` pair
    /// channels and the barrier, so `2 · 2^H`.
    pub resources: u64,
}

/// Measured outcome of simulating one synchronous training step on the
/// accelerator array.
///
/// The paper's metrics map onto this struct as:
/// * **performance** (Figure 6/11/12/13) — `1 / step_time`, compared via
///   [`StepReport::performance_gain_over`];
/// * **energy efficiency** (Figure 7/13) — energy *saving*, compared via
///   [`StepReport::energy_efficiency_over`];
/// * **total communication** (Figure 8/11) — `comm_bytes`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StepReport {
    /// Simulated wall-clock time of the training step.
    pub step_time: Seconds,
    /// Total energy of the step (compute + DRAM + network).
    pub energy: Joules,
    /// Energy spent in MACs and element-wise compute (incl. SRAM traffic).
    pub compute_energy: Joules,
    /// Energy spent in local DRAM (HMC vault) accesses.
    pub dram_energy: Joules,
    /// Energy spent moving tensors between accelerators.
    pub link_energy: Joules,
    /// Array-wide bytes moved between accelerators.
    pub comm_bytes: Bytes,
    /// `comm_bytes` broken down by hierarchy level (top first).
    pub comm_bytes_per_level: Vec<Bytes>,
    /// Array-wide bytes moved to/from local DRAM.
    pub dram_bytes: Bytes,
    /// Busy time of one accelerator's processing unit (the workload is
    /// symmetric across accelerators).
    pub compute_busy: Seconds,
    /// Busy time of the most-loaded network link.
    pub link_busy: Seconds,
    /// Per-accelerator DRAM footprint of weights + activations.
    pub dram_footprint_bytes: Bytes,
    /// Number of accelerators simulated.
    pub num_accelerators: u64,
    /// Size of the discrete-event schedule that produced this report.
    pub trace_summary: SimTraceSummary,
}

impl StateHash for SimTraceSummary {
    fn state_hash_into(&self, h: &mut StateHasher) {
        h.write_str("sim-trace/v1");
        h.write_u64(self.tasks);
        h.write_u64(self.resources);
    }
}

impl StateHash for StepReport {
    /// Folds every field of the report **bit-exactly** (times, energies,
    /// and byte counts via [`f64::to_bits`], the per-level communication
    /// breakdown length-prefixed in level order), so any float-order or
    /// scheduling drift in the discrete-event simulation changes the
    /// digest even when the totals round to the same display value.
    fn state_hash_into(&self, h: &mut StateHasher) {
        h.write_str("report/v1");
        h.write_f64(self.step_time.value());
        h.write_f64(self.energy.value());
        h.write_f64(self.compute_energy.value());
        h.write_f64(self.dram_energy.value());
        h.write_f64(self.link_energy.value());
        h.write_f64(self.comm_bytes.value());
        h.write_u64(self.comm_bytes_per_level.len() as u64);
        for level in &self.comm_bytes_per_level {
            h.write_f64(level.value());
        }
        h.write_f64(self.dram_bytes.value());
        h.write_f64(self.compute_busy.value());
        h.write_f64(self.link_busy.value());
        h.write_f64(self.dram_footprint_bytes.value());
        h.write_u64(self.num_accelerators);
        self.trace_summary.state_hash_into(h);
    }
}

impl StepReport {
    /// Speedup of `self` relative to `baseline` (`> 1` means `self` is
    /// faster) — the y-axis of Figures 6, 11, 12 and 13.
    #[must_use]
    pub fn performance_gain_over(&self, baseline: &Self) -> f64 {
        baseline.step_time.value() / self.step_time.value()
    }

    /// Energy saving of `self` relative to `baseline` (`> 1` means `self`
    /// uses less energy) — the y-axis of Figure 7.
    #[must_use]
    pub fn energy_efficiency_over(&self, baseline: &Self) -> f64 {
        baseline.energy.value() / self.energy.value()
    }

    /// Whether the per-accelerator footprint fits the given DRAM capacity.
    #[must_use]
    pub fn fits_capacity(&self, capacity_bytes: f64) -> bool {
        self.dram_footprint_bytes.value() <= capacity_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(time: f64, energy: f64) -> StepReport {
        StepReport {
            step_time: Seconds(time),
            energy: Joules(energy),
            compute_energy: Joules(energy),
            dram_energy: Joules::ZERO,
            link_energy: Joules::ZERO,
            comm_bytes: Bytes::ZERO,
            comm_bytes_per_level: vec![],
            dram_bytes: Bytes::ZERO,
            compute_busy: Seconds(time),
            link_busy: Seconds::ZERO,
            dram_footprint_bytes: Bytes(100.0),
            num_accelerators: 16,
            trace_summary: SimTraceSummary::default(),
        }
    }

    #[test]
    fn gains_are_ratios() {
        let fast = report(1.0, 2.0);
        let slow = report(4.0, 3.0);
        assert_eq!(fast.performance_gain_over(&slow), 4.0);
        assert_eq!(fast.energy_efficiency_over(&slow), 1.5);
        assert_eq!(slow.performance_gain_over(&fast), 0.25);
    }

    #[test]
    fn state_hash_is_sensitive_to_every_levels_worth_of_drift() {
        let base = report(1.0, 2.0);
        assert_eq!(base.state_hash(), report(1.0, 2.0).state_hash());
        // A one-ulp step-time drift changes the digest.
        let mut drifted = base.clone();
        drifted.step_time = Seconds(f64::from_bits(1.0f64.to_bits() + 1));
        assert_ne!(base.state_hash(), drifted.state_hash());
        // Moving bytes between levels changes the digest even when the
        // total is unchanged.
        let mut a = base.clone();
        a.comm_bytes_per_level = vec![Bytes(4.0), Bytes(2.0)];
        let mut b = base.clone();
        b.comm_bytes_per_level = vec![Bytes(2.0), Bytes(4.0)];
        assert_ne!(a.state_hash(), b.state_hash());
        // The DES schedule shape is pinned too.
        let mut tasks = base.clone();
        tasks.trace_summary.tasks = 7;
        assert_ne!(base.state_hash(), tasks.state_hash());
    }

    #[test]
    fn capacity_check() {
        let r = report(1.0, 1.0);
        assert!(r.fits_capacity(100.0));
        assert!(!r.fits_capacity(99.0));
    }
}
