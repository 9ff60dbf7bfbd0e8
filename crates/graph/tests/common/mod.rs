//! Generators and the cost oracle shared by the graph crate's property
//! tests.

#![expect(clippy::expect_used, reason = "generators fail by panicking")]

use hypar_comm::{JunctionScaling, Parallelism};
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

/// Algorithm 2's definition of a whole-graph plan's total, in `f64` with
/// explicit fractions: at level `h`, `2^h` group pairs each exchange
/// Table 1's `2·A(ΔW)` (dp) or `2·A(F_out)` (mp) per layer, and Table 2's
/// `A(junction)` per chain junction and inter-segment edge that is not
/// dp→dp there, scoped by `mode`.  Every tensor is scaled by the choices
/// above: a dp level halves a layer's batch, an mp level its input
/// features.
pub fn oracle(graph: &SegmentCommGraph, levels: &[Vec<Parallelism>], mode: JunctionScaling) -> f64 {
    use Parallelism::{Data, Model};
    // Every layer in whole-graph order, and every junction as
    // (producer, consumer, elements).
    let mut layers = Vec::new();
    let mut junctions = Vec::new();
    let mut first = Vec::new();
    for segment in graph.segments() {
        first.push(layers.len());
        for (i, layer) in segment.layers().iter().enumerate() {
            if i + 1 < segment.len() {
                junctions.push((layers.len(), layers.len() + 1, layer.junction_elems));
            }
            layers.push(layer);
        }
    }
    for edge in graph.edges() {
        let last = first[edge.from] + graph.segment(edge.from).len() - 1;
        junctions.push((last, first[edge.to], edge.elems));
    }
    let (mut batch, mut features) = (vec![1.0; layers.len()], vec![1.0; layers.len()]);
    let mut total = 0.0;
    for (h, level) in levels.iter().enumerate() {
        let mut pair = 0.0;
        for (l, layer) in layers.iter().enumerate() {
            pair += match level[l] {
                Data => 2.0 * layer.weight_elems * features[l],
                Model => 2.0 * layer.output_elems * batch[l],
            };
        }
        for &(a, b, elems) in &junctions {
            if (level[a], level[b]) != (Data, Data) {
                pair += elems
                    * match mode {
                        JunctionScaling::Consumer => batch[b] * features[b],
                        JunctionScaling::Producer => batch[a],
                        JunctionScaling::Unscaled => 1.0,
                    };
            }
        }
        total += f64::from(1u32 << h) * pair;
        for (l, &choice) in level.iter().enumerate() {
            match choice {
                Data => batch[l] /= 2.0,
                Model => features[l] /= 2.0,
            }
        }
    }
    total
}
