//! Spatial extents of feature-map tensors.

use std::fmt;

use serde::{Deserialize, Serialize};

/// The per-sample extent of a feature map: `channels × height × width`.
///
/// A batched feature-map tensor `F_l` in the paper has size
/// `B × [H_l × W_l × C_l]`; `FeatureDims` is the bracketed part.  Flat
/// (fully-connected) activations are represented with `height == width == 1`
/// via [`FeatureDims::flat`].
///
/// # Examples
///
/// ```
/// use hypar_tensor::FeatureDims;
///
/// let conv_out = FeatureDims::new(50, 8, 8);
/// assert_eq!(conv_out.volume(), 3200);
///
/// let fc_out = FeatureDims::flat(500);
/// assert_eq!(fc_out.volume(), 500);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FeatureDims {
    /// Number of channels (`C`).
    pub channels: u64,
    /// Spatial height (`H`).
    pub height: u64,
    /// Spatial width (`W`).
    pub width: u64,
}

impl FeatureDims {
    /// Creates feature dimensions with the given channel count and spatial
    /// extent.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero; a zero-sized feature map is always a
    /// model-definition bug and catching it here keeps shape inference
    /// honest.
    #[must_use]
    pub fn new(channels: u64, height: u64, width: u64) -> Self {
        assert!(
            channels > 0 && height > 0 && width > 0,
            "feature dimensions must be positive, got {channels}x{height}x{width}"
        );
        Self {
            channels,
            height,
            width,
        }
    }

    /// Creates flat (vector) feature dimensions as used by fully-connected
    /// layers: `features × 1 × 1`.
    ///
    /// # Panics
    ///
    /// Panics if `features` is zero.
    #[must_use]
    pub fn flat(features: u64) -> Self {
        Self::new(features, 1, 1)
    }

    /// Total number of elements in one sample of this feature map; past
    /// `u64::MAX` (which shape inference rejects) it saturates, never wraps.
    #[must_use]
    pub fn volume(&self) -> u64 {
        let area = self.height.saturating_mul(self.width);
        self.channels.saturating_mul(area)
    }

    /// Whether this is a flat (1×1 spatial) feature map, i.e. the shape a
    /// fully-connected layer consumes without implicit flattening.
    #[must_use]
    pub fn is_flat(&self) -> bool {
        self.height == 1 && self.width == 1
    }

    /// The same elements viewed as a flat vector, as happens at the first
    /// fully-connected layer after a convolutional stack.
    #[must_use]
    pub fn flattened(&self) -> Self {
        Self::flat(self.volume())
    }
}

impl fmt::Display for FeatureDims {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_flat() {
            write!(f, "{}", self.channels)
        } else {
            write!(f, "{}x{}x{}", self.channels, self.height, self.width)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_multiplies_dimensions() {
        assert_eq!(FeatureDims::new(20, 12, 12).volume(), 2880);
        assert_eq!(FeatureDims::new(1, 28, 28).volume(), 784);
    }

    #[test]
    fn flat_is_flat() {
        let dims = FeatureDims::flat(8192);
        assert!(dims.is_flat());
        assert_eq!(dims.volume(), 8192);
        assert_eq!(dims.to_string(), "8192");
    }

    #[test]
    fn flattened_preserves_volume() {
        let dims = FeatureDims::new(50, 4, 4);
        let flat = dims.flattened();
        assert!(flat.is_flat());
        assert_eq!(flat.volume(), dims.volume());
    }

    #[test]
    fn volume_saturates_instead_of_wrapping() {
        // 2^32 x 2^16 x 2^16 = 2^64 wraps to 0 in u64 arithmetic.
        let huge = FeatureDims::new(1 << 32, 1 << 16, 1 << 16);
        assert_eq!(huge.volume(), u64::MAX);
        assert_eq!(huge.flattened(), FeatureDims::flat(u64::MAX));
    }

    #[test]
    fn display_spatial_form() {
        assert_eq!(FeatureDims::new(512, 14, 14).to_string(), "512x14x14");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_channel_panics() {
        let _ = FeatureDims::new(0, 1, 1);
    }

    #[test]
    fn equality_and_hash_derive() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(FeatureDims::new(3, 224, 224));
        assert!(set.contains(&FeatureDims::new(3, 224, 224)));
        assert!(!set.contains(&FeatureDims::new(3, 224, 223)));
    }
}
