//! Tensor shape algebra and unit types for the HyPar reproduction.
//!
//! HyPar ("HyPar: Towards Hybrid Parallelism for Deep Learning Accelerator
//! Array", HPCA 2019) reasons about deep-learning training entirely in terms
//! of **tensor sizes**: feature maps `F`, kernels `W`, gradients `ΔW`, and
//! errors `E`.  This crate provides the small vocabulary shared by every
//! other crate in the workspace:
//!
//! * [`FeatureDims`] — the `C×H×W` extent of one feature-map sample;
//! * unit newtypes ([`Bytes`], [`Seconds`], [`Joules`]) so that quantities
//!   with different meanings cannot be confused ([C-NEWTYPE]).
//!
//! # Examples
//!
//! ```
//! use hypar_tensor::{Bytes, FeatureDims};
//!
//! // One VGG conv5 output sample: 512 channels of 14×14.
//! let dims = FeatureDims::new(512, 14, 14);
//! assert_eq!(dims.volume(), 512 * 14 * 14);
//!
//! // The same sample at fp32.
//! assert_eq!(Bytes::from_elems(dims.volume() as f64, 4).value(), 401_408.0);
//! ```
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dims;
mod units;

pub use dims::FeatureDims;
pub use units::{Bytes, Joules, Seconds};
