//! Error type for model construction and shape inference.

use std::error::Error;
use std::fmt;

/// Errors produced while building a [`crate::Network`] or inferring its
/// tensor shapes.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetworkError {
    /// The network has no weighted layers.
    Empty,
    /// The batch size is zero.
    ZeroBatch,
    /// A convolution kernel does not fit in its input feature map.
    KernelTooLarge {
        /// Name of the offending layer.
        layer: String,
        /// Kernel extent (height/width).
        kernel: u64,
        /// Padded input extent it was applied to.
        input: u64,
    },
    /// A pooling window does not fit in the feature map it pools.
    PoolTooLarge {
        /// Name of the offending layer.
        layer: String,
        /// Pooling window extent.
        pool: u64,
        /// Feature-map extent it was applied to.
        input: u64,
    },
    /// A stride of zero was specified.
    ZeroStride {
        /// Name of the offending layer.
        layer: String,
    },
    /// A hyper-parameter that must be positive was zero.
    ZeroDimension {
        /// Name of the offending layer.
        layer: String,
        /// Which hyper-parameter was zero.
        what: &'static str,
    },
    /// A tensor extent or element count of the layer does not fit in a
    /// `u64` (untrusted specs can ask for absurd extents or batches).
    Overflow {
        /// Name of the offending layer.
        layer: String,
        /// Which quantity overflowed.
        what: &'static str,
    },
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => write!(f, "network has no weighted layers"),
            Self::ZeroBatch => write!(f, "batch size must be positive"),
            Self::KernelTooLarge {
                layer,
                kernel,
                input,
            } => write!(
                f,
                "layer `{layer}`: kernel {kernel}x{kernel} exceeds padded input extent {input}"
            ),
            Self::PoolTooLarge { layer, pool, input } => write!(
                f,
                "layer `{layer}`: pooling window {pool}x{pool} exceeds feature map extent {input}"
            ),
            Self::ZeroStride { layer } => write!(f, "layer `{layer}`: stride must be positive"),
            Self::ZeroDimension { layer, what } => {
                write!(f, "layer `{layer}`: {what} must be positive")
            }
            Self::Overflow { layer, what } => {
                write!(f, "layer `{layer}`: 64-bit overflow in {what}")
            }
        }
    }
}

impl Error for NetworkError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let err = NetworkError::KernelTooLarge {
            layer: "conv1".to_owned(),
            kernel: 11,
            input: 8,
        };
        let msg = err.to_string();
        assert!(msg.contains("conv1"));
        assert!(msg.starts_with("layer"));
        assert!(!msg.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetworkError>();
    }
}
