//! Segment decomposition: a general DAG as maximal chain segments joined
//! by explicit communication edges.
//!
//! HyPar's partition search ([`hypar_core::hierarchical`]) consumes a
//! *chain* of weighted layers.  A branchy DAG decomposes into maximal
//! branch-free runs of layers — **segments** — separated by joins and
//! branch points.  Each segment is itself a valid chain network, so the
//! unmodified Algorithm 2 plans it; what remains is the traffic the chain
//! model never sees:
//!
//! * **branch forwarding** — a branch point's output tensor is forwarded
//!   to every consumer segment (and, at an `add`/`concat` join, every
//!   constituent branch tensor reaches the join's consumer);
//! * **join gradient accumulation** — in the backward pass the consumer's
//!   error tensor flows back along *every* in-edge, where `add` joins
//!   accumulate it into each branch.
//!
//! Both are junction traffic in the sense of the paper's Table 2: a
//! feature tensor forward plus an error tensor backward, whose
//! group-to-group cost depends on the parallelisms chosen on both sides.
//! [`SegmentEdge`] records each such junction with its batched element
//! count; [`crate::plan::stitch`] prices them as pairs of
//! [`SegmentCommGraph::cost_terms`] under the per-level plans of the two
//! endpoint segments.

use std::collections::BTreeMap;

use hypar_comm::{CostTerms, NetworkCommTensors};
use hypar_models::{Network, NetworkShapes};
use hypar_telemetry::{StateHash, StateHasher};
use hypar_tensor::FeatureDims;

use crate::dag::DagNetwork;
use crate::error::GraphError;

/// One inter-segment junction: the producing segment's last layer hands a
/// tensor to the consuming segment's first layer.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct SegmentEdge {
    /// Producing segment index (its *last* layer produces the tensor).
    pub from: usize,
    /// Consuming segment index (its *first* layer consumes the tensor).
    pub to: usize,
    /// Batched elements of the tensor crossing this junction (the
    /// producer's post-pooling output, `A(F) = A(E)` at this junction),
    /// multiplied by the number of join paths when the same producer
    /// reaches the consumer through several (edges are merged per
    /// producer/consumer pair).
    pub elems: f64,
    /// Batched elements of element-wise join work this edge contributes at
    /// the consumer's entry: `add` joins accumulate each branch tensor
    /// into the joined sum and `concat` joins gather each branch slice
    /// into the joined map, so every edge resolved *through* a join
    /// charges its full [`SegmentEdge::elems`] here.  Zero for a direct
    /// branch-forwarding edge (pure fan-out involves no arithmetic).
    pub join_elems: f64,
}

/// The communication-model view of a whole DAG at a fixed batch size: one
/// chain [`NetworkCommTensors`] per segment plus the inter-segment
/// junction edges.
///
/// Produced by [`DagNetwork::segments`], or by [`SegmentCommGraph::chain`]
/// for a chain network; consumed by [`crate::plan::partition_graph`] and
/// friends.  A chain is the graph with one segment and no edges, and a
/// branch-free DAG decomposes into exactly that graph, so every planner
/// treats a chain-shaped DAG and the chain itself bit-identically.
///
/// # Examples
///
/// ```
/// use hypar_graph::zoo;
///
/// let graph = zoo::inception_mini().segments(128)?;
/// // stem | 1x1 branch | 3x3 branch | 5x5 branch | tail (conv2 + fc10)
/// assert_eq!(graph.num_segments(), 5);
/// assert_eq!(graph.edges().len(), 6);
/// # Ok::<(), hypar_graph::GraphError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SegmentCommGraph {
    name: String,
    batch: u64,
    segments: Vec<NetworkCommTensors>,
    /// Inferred shapes per segment, aligned with `segments`; the
    /// discrete-event simulator needs MAC counts and layer geometry the
    /// communication tensors do not carry.
    shapes: Vec<NetworkShapes>,
    edges: Vec<SegmentEdge>,
}

impl StateHash for SegmentCommGraph {
    /// Folds the whole resolved workload view: per-segment layer tensors
    /// (names included — this is a state transcript, not a cache key) and
    /// every junction edge, floats bit-exact.  Because
    /// [`DagNetwork::segments`] emits segments and edges in canonical
    /// topological order, the digest is invariant under the builder's
    /// node-insertion order — the same guarantee the engine's cache
    /// fingerprint relies on.
    fn state_hash_into(&self, h: &mut StateHasher) {
        h.write_str("segment-graph/v1");
        h.write_str(&self.name);
        h.write_u64(self.batch);
        h.write_u64(self.segments.len() as u64);
        for segment in &self.segments {
            h.write_u64(segment.len() as u64);
            for layer in segment.layers() {
                h.write_str(&layer.name);
                h.write_bool(layer.is_conv);
                h.write_f64(layer.weight_elems);
                h.write_f64(layer.input_elems);
                h.write_f64(layer.output_elems);
                h.write_f64(layer.junction_elems);
            }
        }
        h.write_u64(self.edges.len() as u64);
        for edge in &self.edges {
            h.write_u64(edge.from as u64);
            h.write_u64(edge.to as u64);
            h.write_f64(edge.elems);
            h.write_f64(edge.join_elems);
        }
    }
}

impl SegmentCommGraph {
    /// A chain network as the one-segment graph: its shapes and
    /// communication tensors as the only segment, and no junction edges.
    ///
    /// ```
    /// # use hypar_models::{zoo, NetworkShapes};
    /// let graph = hypar_graph::SegmentCommGraph::chain(NetworkShapes::infer(&zoo::lenet_c(), 64)?);
    /// assert_eq!((graph.num_segments(), graph.num_layers(), graph.edges().len()), (1, 4, 0));
    /// # Ok::<(), hypar_models::NetworkError>(())
    /// ```
    #[must_use]
    pub fn chain(shapes: NetworkShapes) -> Self {
        SegmentCommGraph {
            name: shapes.name().to_owned(),
            batch: shapes.batch(),
            segments: vec![NetworkCommTensors::from_shapes(&shapes)],
            shapes: vec![shapes],
            edges: Vec::new(),
        }
    }

    /// The DAG's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The mini-batch size the tensors were computed for.
    #[must_use]
    pub fn batch(&self) -> u64 {
        self.batch
    }

    /// The per-segment chain tensors, in canonical (topological-by-head)
    /// order.
    #[must_use]
    pub fn segments(&self) -> &[NetworkCommTensors] {
        &self.segments
    }

    /// Number of segments.
    #[must_use]
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// The tensors of segment `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn segment(&self, s: usize) -> &NetworkCommTensors {
        &self.segments[s]
    }

    /// The inferred shapes of segment `s` (the simulator's input).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn segment_shapes(&self, s: usize) -> &NetworkShapes {
        &self.shapes[s]
    }

    /// The inter-segment junction edges, in deterministic order.
    #[must_use]
    pub fn edges(&self) -> &[SegmentEdge] {
        &self.edges
    }

    /// Total weighted layers across all segments.
    #[must_use]
    pub fn num_layers(&self) -> usize {
        self.segments.iter().map(NetworkCommTensors::len).sum()
    }

    /// The graph's exact cost terms: every segment's chain in canonical
    /// order ([`CostTerms::push_chain`]), so segment `s`'s layers follow
    /// those of segments `0..s` and its `len − 1` junctions follow theirs,
    /// then one pair per [`SegmentEdge`], in [`Self::edges`] order, from
    /// the producing segment's last layer to the consuming segment's
    /// first.
    #[must_use]
    pub fn cost_terms(&self) -> CostTerms {
        let mut terms = CostTerms::default();
        let mut first_layer = Vec::with_capacity(self.segments.len());
        for segment in &self.segments {
            first_layer.push(terms.num_layers());
            terms.push_chain(segment);
        }
        for edge in &self.edges {
            let last = first_layer[edge.from] + self.segments[edge.from].len() - 1;
            terms.push_pair(last, first_layer[edge.to], edge.elems);
        }
        terms
    }
}

impl DagNetwork {
    /// Decomposes the DAG into maximal chain segments with per-segment
    /// communication tensors at mini-batch size `batch`, plus the
    /// inter-segment junction edges.
    ///
    /// Joins dissolve into edges: an `add`/`concat` node contributes one
    /// edge per constituent producing layer into each of its consumers
    /// (merged per producer/consumer pair, with the path multiplicity
    /// folded into [`SegmentEdge::elems`]), so branch forwarding and join
    /// gradient accumulation are both represented.  Edges fed directly by
    /// the graph input are free (the input batch is resident, exactly as
    /// for a chain's first layer) and therefore omitted.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::ZeroBatch`] for a zero batch size, and a
    /// typed error when a count overflows `u64` or shapes misfit.
    pub fn segments(&self, batch: u64) -> Result<SegmentCommGraph, GraphError> {
        if batch == 0 {
            return Err(GraphError::ZeroBatch);
        }
        let nodes = self.nodes();
        let consumers = self.consumers();
        let is_layer = |i: usize| nodes[i].op().as_layer().is_some();

        // A layer extends its producer's segment iff it is the producer's
        // only consumer and the producer is itself a layer.
        let chain_prev = |i: usize| -> Option<usize> {
            let p = self.resolved_inputs(i)[0]?;
            (is_layer(p) && consumers[p].len() == 1).then_some(p)
        };

        // Collect segments head-first in canonical order.
        let mut seg_of = vec![usize::MAX; nodes.len()];
        let mut members: Vec<Vec<usize>> = Vec::new();
        for head in (0..nodes.len()).filter(|&i| is_layer(i) && chain_prev(i).is_none()) {
            let s = members.len();
            let mut run = vec![head];
            seg_of[head] = s;
            let mut current = head;
            loop {
                let next = match consumers[current].as_slice() {
                    &[c] if is_layer(c) && self.resolved_inputs(c)[0] == Some(current) => c,
                    _ => break,
                };
                seg_of[next] = s;
                run.push(next);
                current = next;
            }
            members.push(run);
        }

        // Per-segment chain shapes and tensors.
        let mut segments = Vec::with_capacity(members.len());
        let mut shapes = Vec::with_capacity(members.len());
        for run in &members {
            let head = run[0];
            let in_dims: FeatureDims = match self.resolved_inputs(head)[0] {
                None => self.input(),
                Some(p) => self.node_output(p),
            };
            let mut builder =
                Network::builder(format!("{}::{}", self.name(), nodes[head].name()), in_dims);
            for &i in run {
                // Runs were collected from `is_layer` nodes only; keep
                // the fallback typed rather than asserting it.
                let Some(layer) = nodes[i].op().as_layer() else {
                    return Err(GraphError::NotAChain {
                        node: nodes[i].name().to_owned(),
                        why: "segment member is not a layer",
                    });
                };
                builder.layer(layer.clone());
            }
            let net = builder.build().map_err(|source| GraphError::LayerShape {
                node: nodes[head].name().to_owned(),
                source,
            })?;
            let inferred =
                NetworkShapes::infer(&net, batch).map_err(|source| GraphError::LayerShape {
                    node: nodes[head].name().to_owned(),
                    source,
                })?;
            segments.push(NetworkCommTensors::from_shapes(&inferred));
            shapes.push(inferred);
        }

        // Producer multiplicities of every join, resolved through nested
        // joins, computed once in topological order (a join's inputs
        // always precede it).  Counting multiplicities instead of
        // enumerating paths keeps this polynomial — a stack of
        // `concat(x, x)` joins has exponentially many paths but only one
        // producer — which matters because the engine feeds this from
        // untrusted service input.
        let mut join_producers: Vec<Option<BTreeMap<Option<usize>, u64>>> = vec![None; nodes.len()];
        for i in 0..nodes.len() {
            if !nodes[i].op().is_join() {
                continue;
            }
            let mut producers: BTreeMap<Option<usize>, u64> = BTreeMap::new();
            let mut add = |source: Option<usize>, mult: u64| {
                let total = producers.entry(source).or_insert(0);
                *total = total
                    .checked_add(mult)
                    .ok_or_else(|| GraphError::Overflow {
                        node: nodes[i].name().to_owned(),
                        what: "join path multiplicity",
                    })?;
                Ok::<(), GraphError>(())
            };
            for r in self.resolved_inputs(i) {
                match r {
                    Some(p) if nodes[*p].op().is_join() => {
                        // Inputs precede joins in topological order, so
                        // the inner map is already resolved; an
                        // unresolved join contributes nothing rather
                        // than a panic.
                        let Some(inner) = join_producers[*p].as_ref() else {
                            continue;
                        };
                        for (&source, &mult) in inner {
                            add(source, mult)?;
                        }
                    }
                    other => add(*other, 1)?,
                }
            }
            join_producers[i] = Some(producers);
        }

        // Inter-segment edges: each head's input, resolved through joins
        // down to the producing layers (graph-input edges are free).
        let mut edges = Vec::new();
        for (s, run) in members.iter().enumerate() {
            let mut push = |p: Option<usize>, mult: u64, via_join: bool| {
                if let Some(p) = p {
                    let elems = batch
                        .checked_mul(self.node_output(p).volume())
                        .and_then(|e| e.checked_mul(mult))
                        .ok_or_else(|| GraphError::Overflow {
                            node: nodes[run[0]].name().to_owned(),
                            what: "batched junction elements",
                        })? as f64;
                    edges.push(SegmentEdge {
                        from: seg_of[p],
                        to: s,
                        elems,
                        join_elems: if via_join { elems } else { 0.0 },
                    });
                }
                Ok::<(), GraphError>(())
            };
            match self.resolved_inputs(run[0])[0] {
                Some(j) if nodes[j].op().is_join() => {
                    // Every join was resolved in the pass above; an
                    // unresolved one contributes no edge rather than a
                    // panic.
                    let Some(producers) = join_producers[j].as_ref() else {
                        continue;
                    };
                    for (&source, &mult) in producers {
                        push(source, mult, true)?;
                    }
                }
                direct => push(direct, 1, false)?,
            }
        }

        Ok(SegmentCommGraph {
            name: self.name().to_owned(),
            batch,
            segments,
            shapes,
            edges,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::GraphBuilder;
    use crate::node::INPUT;
    use hypar_models::ConvSpec;

    fn tiny_residual() -> DagNetwork {
        let mut g = GraphBuilder::new("tiny-res", FeatureDims::new(8, 16, 16));
        g.conv("stem", ConvSpec::same(8, 3), INPUT)
            .conv("body", ConvSpec::same(8, 3), "stem")
            .add("join", &["stem", "body"])
            .fully_connected("fc", 10, "join");
        g.build().unwrap()
    }

    #[test]
    fn chain_dag_is_one_segment_no_edges() {
        let mut g = GraphBuilder::new("chain", FeatureDims::new(1, 28, 28));
        g.conv("conv1", ConvSpec::valid(20, 5), INPUT)
            .fully_connected("fc1", 10, "conv1");
        let graph = g.build().unwrap().segments(64).unwrap();
        assert_eq!(graph.num_segments(), 1);
        assert!(graph.edges().is_empty());
        assert_eq!(graph.segment(0).len(), 2);
        assert_eq!(graph.num_layers(), 2);
        assert_eq!(graph.batch(), 64);
    }

    #[test]
    fn a_branch_free_dag_decomposes_into_its_chain_graph() {
        let mut g = GraphBuilder::new("chain", FeatureDims::new(1, 28, 28));
        g.conv("conv1", ConvSpec::valid(20, 5), INPUT)
            .fully_connected("fc1", 10, "conv1");
        let dag = g.build().unwrap();
        let decomposed = dag.segments(64).unwrap();
        let chain =
            SegmentCommGraph::chain(NetworkShapes::infer(&dag.linearize().unwrap(), 64).unwrap());
        assert_eq!(chain.name(), decomposed.name());
        assert_eq!(chain.batch(), decomposed.batch());
        assert_eq!(chain.edges(), decomposed.edges());
        // Segment names differ (`chain::conv1` vs `chain`); the tensors
        // and shapes do not.
        assert_eq!(chain.segment(0).layers(), decomposed.segment(0).layers());
        assert_eq!(
            chain.segment_shapes(0).layers(),
            decomposed.segment_shapes(0).layers()
        );
    }

    #[test]
    fn residual_block_segments_and_edges() {
        let graph = tiny_residual().segments(32).unwrap();
        // stem (fan-out 2) | body | fc (fed by the join).
        assert_eq!(graph.num_segments(), 3);
        assert_eq!(graph.num_layers(), 3);
        // stem->body, plus the join dissolving into stem->fc and body->fc.
        let mut pairs: Vec<(usize, usize)> = graph.edges().iter().map(|e| (e.from, e.to)).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (1, 2)]);
        // Every edge carries the full batched 8x16x16 branch tensor.
        for edge in graph.edges() {
            assert_eq!(edge.elems, (32 * 8 * 16 * 16) as f64);
        }
    }

    #[test]
    fn segment_tensors_match_the_chain_model() {
        let graph = tiny_residual().segments(32).unwrap();
        // The fc segment consumes the join output (8x16x16 flattened).
        let fc = graph.segment(2);
        assert_eq!(fc.layer(0).weight_elems, (8 * 16 * 16 * 10) as f64);
        assert_eq!(fc.layer(0).input_elems, (32 * 8 * 16 * 16) as f64);
    }

    #[test]
    fn join_work_is_charged_only_on_join_mediated_edges() {
        let graph = tiny_residual().segments(32).unwrap();
        let branch = (32 * 8 * 16 * 16) as f64;
        for edge in graph.edges() {
            if edge.to == 2 {
                // stem->fc and body->fc resolve through the `add` join:
                // each branch tensor is accumulated into the sum.
                assert_eq!(edge.join_elems, branch, "{edge:?}");
            } else {
                // stem->body is pure fan-out: no arithmetic.
                assert_eq!(edge.join_elems, 0.0, "{edge:?}");
            }
        }
    }

    #[test]
    fn zero_batch_is_rejected() {
        assert_eq!(
            tiny_residual().segments(0).unwrap_err(),
            GraphError::ZeroBatch
        );
    }

    #[test]
    fn join_of_joins_resolves_transitively() {
        let mut g = GraphBuilder::new("jj", FeatureDims::new(4, 8, 8));
        g.conv("a", ConvSpec::same(4, 3), INPUT)
            .conv("b", ConvSpec::same(4, 3), INPUT)
            .add("ab", &["a", "b"])
            .conv("c", ConvSpec::same(8, 3), INPUT)
            .concat("mix", &["ab", "ab"])
            .concat("all", &["mix", "c"])
            .fully_connected("out", 10, "all");
        let graph = g.build().unwrap().segments(16).unwrap();
        // a, b, c, out — the joins dissolve entirely.
        assert_eq!(graph.num_segments(), 4);
        // out receives a and b twice each (via mix, merged with
        // multiplicity 2) plus c once.
        let into_out: Vec<_> = graph.edges().iter().filter(|e| e.to == 3).collect();
        assert_eq!(into_out.len(), 3);
        let branch = (16 * 4 * 8 * 8) as f64; // a/b output, batched
        assert_eq!(into_out[0].elems, 2.0 * branch); // a, twice via mix
        assert_eq!(into_out[1].elems, 2.0 * branch); // b, twice via mix
        assert_eq!(into_out[2].elems, 2.0 * branch); // c once: 8 channels
    }

    #[test]
    fn counts_past_u64_are_typed_errors() {
        // A ladder of `add(x, x)` joins reaches `out` along 2^depth paths.
        let ladder = |depth: usize| {
            let mut g = GraphBuilder::new("ladder", FeatureDims::new(1, 4, 4));
            g.conv("stem", ConvSpec::same(1, 1), INPUT);
            let mut prev = "stem".to_owned();
            for i in 0..depth {
                let name = format!("j{i}");
                g.add(&name, &[&prev, &prev]);
                prev = name;
            }
            g.fully_connected("out", 1, &prev);
            g.build().unwrap()
        };
        let what = |result: Result<SegmentCommGraph, GraphError>| match result {
            Err(GraphError::Overflow { what, .. }) => what,
            other => panic!("expected an overflow, got {other:?}"),
        };
        assert_eq!(what(ladder(64).segments(1)), "join path multiplicity");
        // 2^40 paths x 2^30 samples x 16 elements.
        assert_eq!(
            what(ladder(40).segments(1 << 30)),
            "batched junction elements"
        );
        assert!(ladder(40).segments(1).is_ok());
    }

    #[test]
    fn stacked_self_joins_stay_polynomial() {
        // A ladder of concat(x, x) joins has 2^N paths but one producer;
        // multiplicity counting must keep this instant and exact (this is
        // reachable from untrusted service input).
        let depth = 48;
        let mut g = GraphBuilder::new("blowup", FeatureDims::new(1, 4, 4));
        g.conv("stem", ConvSpec::same(1, 1), INPUT);
        let mut prev = "stem".to_owned();
        for i in 0..depth {
            let name = format!("j{i}");
            g.concat(&name, &[&prev, &prev]);
            prev = name;
        }
        g.fully_connected("out", 1, &prev);
        let graph = g.build().unwrap().segments(1).unwrap();
        assert_eq!(graph.num_segments(), 2);
        assert_eq!(graph.edges().len(), 1);
        // 2^48 paths x the 1x4x4 stem output.
        assert_eq!(graph.edges()[0].elems, (1u64 << depth) as f64 * 16.0);
    }
}
