//! Inter-accelerator network topologies (paper §5, Figure 4c/d).

use std::fmt;

use serde::{Deserialize, Serialize};

/// The connection topology of the accelerator array.
///
/// HyPar's hierarchical partition produces a binary tree of group pairs;
/// at level `h` (0 = top) there are `2^h` pairs communicating
/// simultaneously.
///
/// * **H-tree** (physically a fat tree): the link bandwidth between groups
///   doubles at each level upward while the number of links halves, so the
///   cross-section bandwidth of every cut is constant.  This matches the
///   partition's traffic pattern.
/// * **Torus**: all links are identical; a group pair at any level
///   communicates over a single effective leaf-rate link, so upper-level
///   (large-tensor) exchanges are starved — the reason the torus loses in
///   Figure 12.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Topology {
    /// The H-tree / fat-tree of Figure 4(c).
    #[default]
    HTree,
    /// The 2-D torus of Figure 4(d).
    Torus,
}

impl Topology {
    /// Bandwidth in bytes/s available to **one group pair** at hierarchy
    /// level `h` of `num_levels`, given the leaf link bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `h >= num_levels`.
    ///
    /// # Examples
    ///
    /// ```
    /// use hypar_sim::Topology;
    ///
    /// let leaf = 200e6; // 1600 Mb/s
    /// // H-tree: top-level pair of a 16-accelerator array gets 8x leaf.
    /// assert_eq!(Topology::HTree.pair_bandwidth(0, 4, leaf), 1.6e9);
    /// assert_eq!(Topology::HTree.pair_bandwidth(3, 4, leaf), 200e6);
    /// // Torus: every pair talks at leaf rate.
    /// assert_eq!(Topology::Torus.pair_bandwidth(0, 4, leaf), 200e6);
    /// ```
    #[must_use]
    pub fn pair_bandwidth(self, h: usize, num_levels: usize, leaf_bytes_per_sec: f64) -> f64 {
        assert!(
            h < num_levels,
            "level {h} out of range for {num_levels} levels"
        );
        match self {
            Self::HTree => {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "h < num_levels, and level counts are single digits"
                )]
                let doublings = (num_levels - 1 - h) as i32;
                leaf_bytes_per_sec * 2f64.powi(doublings)
            }
            Self::Torus => leaf_bytes_per_sec,
        }
    }

    /// Total network bandwidth across all levels (the paper quotes
    /// 25.6 Gb/s = 16 × 1600 Mb/s for the 16-accelerator H-tree).
    #[must_use]
    pub fn total_bandwidth(self, num_levels: usize, leaf_bytes_per_sec: f64) -> f64 {
        (0..num_levels)
            .map(|h| (1u64 << h) as f64 * self.pair_bandwidth(h, num_levels, leaf_bytes_per_sec))
            .sum()
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::HTree => write!(f, "H tree"),
            Self::Torus => write!(f, "torus"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn htree_cross_section_is_constant_per_level() {
        let leaf = 200e6;
        for h in 0..4 {
            let pairs = (1u64 << h) as f64;
            let cross = pairs * Topology::HTree.pair_bandwidth(h, 4, leaf);
            assert_eq!(cross, 1.6e9, "level {h}");
        }
    }

    #[test]
    fn htree_total_bandwidth_sums_level_cross_sections() {
        // Each of the 4 levels has a constant 1.6 GB/s cross-section; the
        // paper's quoted 25.6 Gb/s counts its 16 links at leaf rate, which
        // matches the torus total below.
        assert_eq!(Topology::HTree.total_bandwidth(4, 200e6), 4.0 * 1.6e9);
        // Torus: 15 pair-channels at leaf rate (8+4+2+1).
        assert_eq!(Topology::Torus.total_bandwidth(4, 200e6), 15.0 * 200e6);
    }

    #[test]
    fn torus_pairs_never_exceed_leaf_rate() {
        for h in 0..6 {
            assert_eq!(Topology::Torus.pair_bandwidth(h, 6, 200e6), 200e6);
        }
    }

    #[test]
    fn torus_is_slower_than_htree_above_the_leaves() {
        for h in 0..3 {
            assert!(
                Topology::Torus.pair_bandwidth(h, 4, 200e6)
                    < Topology::HTree.pair_bandwidth(h, 4, 200e6)
            );
        }
        assert_eq!(
            Topology::Torus.pair_bandwidth(3, 4, 200e6),
            Topology::HTree.pair_bandwidth(3, 4, 200e6)
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(Topology::HTree.to_string(), "H tree");
        assert_eq!(Topology::Torus.to_string(), "torus");
    }
}
