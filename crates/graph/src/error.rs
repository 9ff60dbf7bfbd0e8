//! Typed errors for DAG construction, validation, and lowering.

use std::error::Error;
use std::fmt;

use hypar_models::NetworkError;
use hypar_tensor::FeatureDims;

/// Errors produced while building a [`crate::DagNetwork`], inferring its
/// shapes, or lowering it to the chain IR.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// The graph has no nodes.
    Empty,
    /// The batch size is zero.
    ZeroBatch,
    /// Two nodes share a name.
    DuplicateNode {
        /// The repeated node name.
        node: String,
    },
    /// A node uses the reserved graph-input name (see [`crate::INPUT`]).
    ReservedName {
        /// The offending node name.
        node: String,
    },
    /// A node references an input that names no node (and is not the graph
    /// input).
    UnknownInput {
        /// The consuming node.
        node: String,
        /// The dangling input reference.
        input: String,
    },
    /// A weighted-layer node must consume exactly one input.
    LayerFanIn {
        /// The offending node.
        node: String,
        /// How many inputs it listed.
        got: usize,
    },
    /// A join node (`add`/`concat`) must consume at least two inputs.
    JoinFanIn {
        /// The offending node.
        node: String,
        /// How many inputs it listed.
        got: usize,
    },
    /// The edges contain a cycle through the named node.
    Cycle {
        /// One node on the cycle.
        node: String,
    },
    /// An `add` join received branches of different shapes.
    AddShapeMismatch {
        /// The join node.
        node: String,
        /// Shape of the first branch.
        first: FeatureDims,
        /// The disagreeing branch's shape.
        mismatched: FeatureDims,
    },
    /// A `concat` join received branches of different spatial extents.
    ConcatShapeMismatch {
        /// The join node.
        node: String,
        /// Shape of the first branch.
        first: FeatureDims,
        /// The disagreeing branch's shape.
        mismatched: FeatureDims,
    },
    /// A `concat` join's summed channel count overflows (untrusted specs
    /// can stack channel-doubling joins).
    ChannelOverflow {
        /// The join node.
        node: String,
    },
    /// An element count the decomposition derives — a join's producer
    /// multiplicity, or the batched elements of a junction edge — does
    /// not fit in a `u64`.
    Overflow {
        /// The join, or the segment head consuming the edge.
        node: String,
        /// Which count overflowed.
        what: &'static str,
    },
    /// The graph has more than one sink (unconsumed node).
    MultipleSinks {
        /// The sink node names, in canonical order.
        sinks: Vec<String>,
    },
    /// The graph's single sink is a join; the network output must come
    /// from a weighted layer.
    SinkNotLayer {
        /// The sink node.
        node: String,
    },
    /// A layer node's hyper-parameters do not fit the shape flowing into
    /// it.
    LayerShape {
        /// The offending node.
        node: String,
        /// The underlying shape-inference error.
        source: NetworkError,
    },
    /// [`crate::DagNetwork::linearize`] was asked to lower a DAG that is
    /// not a single branch-free chain.
    NotAChain {
        /// The node at which the chain property breaks.
        node: String,
        /// Why it breaks there.
        why: &'static str,
    },
    /// The stitcher (or the whole-graph plan evaluator) was handed
    /// per-segment plans or per-level assignments inconsistent with the
    /// graph: a missing/extra segment plan, plans disagreeing on the
    /// hierarchy depth, a plan not covering its segment's weighted
    /// layers, a level not covering the whole graph, or a segment with no
    /// weighted layers at all.
    StitchMismatch {
        /// Which consistency rule broke.
        what: &'static str,
        /// The count the graph requires.
        expected: usize,
        /// The count actually supplied.
        got: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => write!(f, "graph has no nodes"),
            Self::ZeroBatch => write!(f, "batch size must be positive"),
            Self::DuplicateNode { node } => write!(f, "duplicate node name `{node}`"),
            Self::ReservedName { node } => write!(
                f,
                "node name `{node}` is reserved for the graph input"
            ),
            Self::UnknownInput { node, input } => write!(
                f,
                "node `{node}` consumes `{input}`, which names no node (use `input` for the graph input)"
            ),
            Self::LayerFanIn { node, got } => write!(
                f,
                "layer node `{node}` must consume exactly one input, got {got}"
            ),
            Self::JoinFanIn { node, got } => write!(
                f,
                "join node `{node}` must consume at least two inputs, got {got}"
            ),
            Self::Cycle { node } => write!(f, "graph has a cycle through `{node}`"),
            Self::AddShapeMismatch {
                node,
                first,
                mismatched,
            } => write!(
                f,
                "add `{node}`: branch shape {mismatched} does not match {first}"
            ),
            Self::ConcatShapeMismatch {
                node,
                first,
                mismatched,
            } => write!(
                f,
                "concat `{node}`: branch spatial extent of {mismatched} does not match {first}"
            ),
            Self::ChannelOverflow { node } => {
                write!(f, "concat `{node}`: summed channel count overflows")
            }
            Self::Overflow { node, what } => {
                write!(f, "node `{node}`: 64-bit overflow in {what}")
            }
            Self::MultipleSinks { sinks } => write!(
                f,
                "graph must have exactly one output, found {}: {}",
                sinks.len(),
                sinks.join(", ")
            ),
            Self::SinkNotLayer { node } => write!(
                f,
                "graph output `{node}` must be a weighted layer, not a join"
            ),
            Self::LayerShape { node, source } => write!(f, "node `{node}`: {source}"),
            Self::NotAChain { node, why } => {
                write!(f, "not a branch-free chain at `{node}`: {why}")
            }
            Self::StitchMismatch {
                what,
                expected,
                got,
            } => write!(f, "stitch mismatch: {what}: expected {expected}, got {got}"),
        }
    }
}

impl Error for GraphError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::LayerShape { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offending_node() {
        let err = GraphError::UnknownInput {
            node: "join".into(),
            input: "ghost".into(),
        };
        let msg = err.to_string();
        assert!(msg.contains("join"));
        assert!(msg.contains("ghost"));
    }

    #[test]
    fn layer_shape_chains_source() {
        let err = GraphError::LayerShape {
            node: "conv1".into(),
            source: NetworkError::ZeroBatch,
        };
        assert!(err.source().is_some());
        assert!(err.to_string().contains("conv1"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }
}
