//! The hierarchical parallelism plan produced by the partition search.

use std::fmt;

use hypar_comm::Parallelism;
use hypar_telemetry::{StateHash, StateHasher};
use hypar_tensor::Bytes;
use serde::{Deserialize, Serialize};

/// A complete parallelism plan: one dp/mp choice per weighted layer per
/// hierarchy level, together with its total communication under the cost
/// model — the paper's `P[h][l]` output of Algorithm 2.
///
/// Level `0` is the top of the hierarchy (the paper's `H1`): the first
/// split of the whole array into two halves.
///
/// # Examples
///
/// ```
/// use hypar_comm::NetworkCommTensors;
/// use hypar_core::hierarchical;
/// use hypar_models::zoo;
///
/// let net = NetworkCommTensors::from_network(&zoo::sconv(), 256)?;
/// let plan = hierarchical::partition(&net, 4);
/// assert_eq!(plan.num_accelerators(), 16);
/// // SCONV is all-convolutional: every choice is data parallelism (Fig. 5b).
/// assert!(plan.levels().iter().flatten().all(|p| *p == hypar_comm::Parallelism::Data));
/// # Ok::<(), hypar_models::NetworkError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HierarchicalPlan {
    network: String,
    layer_names: Vec<String>,
    levels: Vec<Vec<Parallelism>>,
    total_comm_elems: f64,
}

impl HierarchicalPlan {
    /// Assembles a plan from raw parts.  Used by the planner, the
    /// baselines, and the sweeps; `total_comm_elems` must come from
    /// [`crate::evaluate::evaluate_plan`] (or the planner's equivalent
    /// accumulation) so that all plans are comparable.
    ///
    /// # Panics
    ///
    /// Panics if the levels do not all cover `layer_names.len()` layers.
    #[must_use]
    pub fn from_parts(
        network: impl Into<String>,
        layer_names: Vec<String>,
        levels: Vec<Vec<Parallelism>>,
        total_comm_elems: f64,
    ) -> Self {
        for level in &levels {
            assert_eq!(
                level.len(),
                layer_names.len(),
                "level must cover every weighted layer"
            );
        }
        Self {
            network: network.into(),
            layer_names,
            levels,
            total_comm_elems,
        }
    }

    /// The network this plan was computed for.
    #[must_use]
    pub fn network(&self) -> &str {
        &self.network
    }

    /// Per-layer names, for display.
    #[must_use]
    pub fn layer_names(&self) -> &[String] {
        &self.layer_names
    }

    /// The per-level assignments, top level first.
    #[must_use]
    pub fn levels(&self) -> &[Vec<Parallelism>] {
        &self.levels
    }

    /// Number of hierarchy levels `H`.
    #[must_use]
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Number of weighted layers `L`.
    #[must_use]
    pub fn num_layers(&self) -> usize {
        self.layer_names.len()
    }

    /// Number of accelerators this plan drives (`2^H`).
    #[must_use]
    pub fn num_accelerators(&self) -> u64 {
        1u64 << self.levels.len()
    }

    /// The choice for layer `l` at hierarchy level `h` (0 = top).
    ///
    /// # Panics
    ///
    /// Panics if `h` or `l` is out of range.
    #[must_use]
    pub fn choice(&self, h: usize, l: usize) -> Parallelism {
        self.levels[h][l]
    }

    /// Total communication of one training step in tensor elements,
    /// weighted over the hierarchy (`com = com_h + 2·com_n`).
    #[must_use]
    pub fn total_comm_elems(&self) -> f64 {
        self.total_comm_elems
    }

    /// Total communication of one training step in bytes (fp32).
    #[must_use]
    pub fn total_comm_bytes(&self) -> Bytes {
        Bytes::from_elems(self.total_comm_elems, hypar_comm::PRECISION_BYTES)
    }

    /// The per-layer bit pattern of level `h` in the paper's Figure 9/10
    /// convention (`0` = dp, `1` = mp, layer 0 first).
    #[must_use]
    pub fn level_bits(&self, h: usize) -> String {
        self.levels[h]
            .iter()
            .map(|p| char::from(b'0' + p.bit()))
            .collect()
    }
}

impl StateHash for HierarchicalPlan {
    /// Folds the complete plan: network and layer names, every per-level
    /// dp/mp bit (level 0 first, layer 0 first — the canonical layout
    /// every planner emits), and the total cost **bit-exactly**.  Two
    /// plans hash equal iff they are indistinguishable on the wire, so a
    /// one-ulp cost drift or a single flipped bit changes the digest.
    fn state_hash_into(&self, h: &mut StateHasher) {
        h.write_str("plan/v1");
        h.write_str(&self.network);
        h.write_u64(self.layer_names.len() as u64);
        for name in &self.layer_names {
            h.write_str(name);
        }
        h.write_u64(self.levels.len() as u64);
        for level in &self.levels {
            for p in level {
                h.write_bool(*p == Parallelism::Model);
            }
        }
        h.write_f64(self.total_comm_elems);
    }
}

impl fmt::Display for HierarchicalPlan {
    /// Renders the Figure-5-style grid: one row per weighted layer, one
    /// column per hierarchy level.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} — {} layers x {} levels, total comm {}",
            self.network,
            self.num_layers(),
            self.num_levels(),
            self.total_comm_bytes()
        )?;
        let width = self
            .layer_names
            .iter()
            .map(|n| n.len())
            .max()
            .unwrap_or(5)
            .max(5);
        write!(f, "{:width$}", "layer")?;
        for h in 0..self.num_levels() {
            write!(f, "  H{}", h + 1)?;
        }
        writeln!(f)?;
        for (l, name) in self.layer_names.iter().enumerate() {
            write!(f, "{name:width$}")?;
            for level in &self.levels {
                write!(f, "  {}", level[l])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Parallelism::{Data, Model};

    fn sample() -> HierarchicalPlan {
        HierarchicalPlan::from_parts(
            "demo",
            vec!["conv1".into(), "fc1".into()],
            vec![vec![Data, Model], vec![Data, Data]],
            1000.0,
        )
    }

    #[test]
    fn accessors() {
        let plan = sample();
        assert_eq!(plan.num_levels(), 2);
        assert_eq!(plan.num_layers(), 2);
        assert_eq!(plan.num_accelerators(), 4);
        assert_eq!(plan.choice(0, 1), Model);
        assert_eq!(plan.total_comm_bytes().value(), 4000.0);
    }

    #[test]
    fn level_bits_follow_paper_convention() {
        let plan = sample();
        assert_eq!(plan.level_bits(0), "01");
        assert_eq!(plan.level_bits(1), "00");
    }

    #[test]
    fn display_contains_grid() {
        let text = sample().to_string();
        assert!(text.contains("H1"));
        assert!(text.contains("H2"));
        assert!(text.contains("conv1"));
        assert!(text.contains("mp"));
    }

    #[test]
    fn state_hash_pins_bits_and_cost() {
        let base = sample().state_hash();
        assert_eq!(base, sample().state_hash(), "hashing is deterministic");
        // Flip one dp/mp bit.
        let flipped = HierarchicalPlan::from_parts(
            "demo",
            vec!["conv1".into(), "fc1".into()],
            vec![vec![Data, Model], vec![Data, Model]],
            1000.0,
        );
        assert_ne!(base, flipped.state_hash());
        // Drift the cost by one ulp.
        let drifted = HierarchicalPlan::from_parts(
            "demo",
            vec!["conv1".into(), "fc1".into()],
            vec![vec![Data, Model], vec![Data, Data]],
            f64::from_bits(1000.0f64.to_bits() + 1),
        );
        assert_ne!(base, drifted.state_hash());
    }

    #[test]
    #[should_panic(expected = "level must cover")]
    fn ragged_levels_panic() {
        let _ = HierarchicalPlan::from_parts(
            "bad",
            vec!["a".into(), "b".into()],
            vec![vec![Data]],
            0.0,
        );
    }
}
