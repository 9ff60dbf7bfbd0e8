//! Generators shared by the graph crate's property tests.

#![expect(clippy::expect_used, reason = "generators fail by panicking")]

use hypar_comm::CostTerms;
use hypar_graph::{GraphBuilder, SegmentCommGraph, INPUT};
use hypar_models::ConvSpec;
use hypar_tensor::FeatureDims;
use proptest::prelude::*;

/// A randomly drawn tiny residual block: stem -> body (1 or 2 convs),
/// `add`-joined with the stem (or a 1x1 projection), into a classifier.
#[derive(Clone, Debug)]
pub struct TinyResidual {
    channels: u64,
    two_convs: bool,
    projection: bool,
    out: u64,
}

impl TinyResidual {
    /// The block's segment graph at `batch`.
    pub fn graph(&self, batch: u64) -> SegmentCommGraph {
        let mut g = GraphBuilder::new("tiny-res", FeatureDims::new(self.channels, 8, 8));
        g.conv("stem", ConvSpec::same(self.channels, 3), INPUT);
        g.conv("body_a", ConvSpec::same(self.channels, 3), "stem");
        let tail = if self.two_convs {
            g.conv("body_b", ConvSpec::same(self.channels, 3), "body_a");
            "body_b"
        } else {
            "body_a"
        };
        let skip = if self.projection {
            g.conv("proj", ConvSpec::same(self.channels, 1), "stem");
            "proj"
        } else {
            "stem"
        };
        g.add("join", &[tail, skip]);
        g.fully_connected("fc", self.out, "join");
        g.build()
            .expect("generated residual blocks are valid")
            .segments(batch)
            .expect("positive batch")
    }
}

/// Tiny residual blocks: 1–15 channels, one or two body convs, with or
/// without a projection, 1–63 classes.
pub fn arb_tiny_residual() -> impl Strategy<Value = TinyResidual> {
    (1u64..16, any::<bool>(), any::<bool>(), 1u64..64).prop_map(
        |(channels, two_convs, projection, out)| TinyResidual {
            channels,
            two_convs,
            projection,
            out,
        },
    )
}

/// The graph's cost terms, built from its public parts: each segment's
/// chain, then one pair per inter-segment edge.
pub fn terms(graph: &SegmentCommGraph) -> CostTerms {
    let mut terms = CostTerms::default();
    let mut first = Vec::new();
    let mut offset = 0;
    for segment in graph.segments() {
        first.push(offset);
        terms.push_chain(segment);
        offset += segment.len();
    }
    for edge in graph.edges() {
        let last = first[edge.from] + graph.segment(edge.from).len() - 1;
        terms.push_pair(last, first[edge.to], edge.elems);
    }
    terms
}
