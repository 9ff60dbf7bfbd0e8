//! The validated DAG network and its builder.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use hypar_models::{ConvSpec, Layer, LayerShapes, Network};
use hypar_tensor::FeatureDims;

use crate::error::GraphError;
use crate::node::{GraphNode, NodeOp, INPUT};

/// A deep neural network as a directed acyclic graph: weighted layers plus
/// `add`/`concat` joins, wired by named edges.
///
/// Instances are created through [`GraphBuilder`], which validates the
/// graph by resolving every edge, rejecting cycles and join shape
/// mismatches, and running one-pass shape inference over a topological
/// order.  An existing `DagNetwork` therefore always has consistent shapes
/// for any positive batch size.
///
/// Nodes are stored in a **canonical** topological order (ties broken by
/// node name), so two builders fed the same nodes in different insertion
/// orders produce *equal* networks — and, downstream, identical plans and
/// identical cache fingerprints.
///
/// # Examples
///
/// A three-layer residual block:
///
/// ```
/// use hypar_graph::{GraphBuilder, INPUT};
/// use hypar_models::ConvSpec;
/// use hypar_tensor::FeatureDims;
///
/// let mut g = GraphBuilder::new("tiny-res", FeatureDims::new(8, 16, 16));
/// g.conv("stem", ConvSpec::same(8, 3), INPUT)
///     .conv("body", ConvSpec::same(8, 3), "stem")
///     .add("join", &["stem", "body"])
///     .fully_connected("fc", 10, "join");
/// let dag = g.build()?;
/// assert_eq!(dag.num_layers(), 3);
/// assert!(!dag.is_chain());
/// # Ok::<(), hypar_graph::GraphError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DagNetwork {
    name: String,
    input: FeatureDims,
    /// Nodes in canonical topological order.
    nodes: Vec<GraphNode>,
    /// Per node: its input references as indices into `nodes`; `None` is
    /// the graph input.
    resolved: Vec<Vec<Option<usize>>>,
    /// Per node: the per-sample output handed to consumers (post-pooling
    /// for layers).
    out_dims: Vec<FeatureDims>,
}

impl DagNetwork {
    /// The network's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The per-sample input feature dimensions.
    #[must_use]
    pub fn input(&self) -> FeatureDims {
        self.input
    }

    /// The nodes in canonical topological order.
    #[must_use]
    pub fn nodes(&self) -> &[GraphNode] {
        &self.nodes
    }

    /// Number of nodes (layers + joins).
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of *weighted* layers (the planning units).
    #[must_use]
    pub fn num_layers(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.op().as_layer().is_some())
            .count()
    }

    /// The per-sample output shape of node `i` (post-pooling for layers).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn node_output(&self, i: usize) -> FeatureDims {
        self.out_dims[i]
    }

    /// Resolved input references of node `i` (`None` = graph input).
    pub(crate) fn resolved_inputs(&self, i: usize) -> &[Option<usize>] {
        &self.resolved[i]
    }

    /// Direct consumers of every node, in canonical order.
    pub(crate) fn consumers(&self) -> Vec<Vec<usize>> {
        let mut consumers = vec![Vec::new(); self.nodes.len()];
        for (i, inputs) in self.resolved.iter().enumerate() {
            for input in inputs.iter().flatten() {
                consumers[*input].push(i);
            }
        }
        consumers
    }

    /// The chain-property violation at node `i`, if any — the single
    /// criterion shared by [`DagNetwork::is_chain`] and
    /// [`DagNetwork::linearize`].
    fn chain_violation(&self, i: usize) -> Option<&'static str> {
        if self.nodes[i].op().is_join() {
            return Some("join ops imply branches");
        }
        let consumes_predecessor = match self.resolved[i][0] {
            None => i == 0,
            Some(p) => p + 1 == i,
        };
        (!consumes_predecessor).then_some("node does not consume its predecessor")
    }

    /// Whether the DAG is a single branch-free chain (every node a layer
    /// consuming its predecessor), i.e. whether [`DagNetwork::linearize`]
    /// succeeds.
    #[must_use]
    pub fn is_chain(&self) -> bool {
        (0..self.nodes.len()).all(|i| self.chain_violation(i).is_none())
    }

    /// Collapses a branch-free DAG into the chain IR's [`Network`], whose
    /// [`crate::SegmentCommGraph::chain`] is the DAG's own decomposition.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NotAChain`] when the DAG contains a join or
    /// any branching.
    pub fn linearize(&self) -> Result<Network, GraphError> {
        let mut builder = Network::builder(self.name.clone(), self.input);
        for (i, node) in self.nodes.iter().enumerate() {
            if let Some(why) = self.chain_violation(i) {
                return Err(GraphError::NotAChain {
                    node: node.name().to_owned(),
                    why,
                });
            }
            // `chain_violation` returning None above already proved this
            // node is a layer; keep the fallback typed anyway.
            let Some(layer) = node.op().as_layer() else {
                return Err(GraphError::NotAChain {
                    node: node.name().to_owned(),
                    why: "node is a join, not a layer",
                });
            };
            builder.layer(layer.clone());
        }
        // The graph already passed shape inference at build time, so the
        // chain revalidation cannot fail; keep the error typed regardless.
        builder.build().map_err(|e| GraphError::LayerShape {
            node: self.name.clone(),
            source: e,
        })
    }
}

impl fmt::Display for DagNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} (input {})", self.name, self.input)?;
        for (i, node) in self.nodes.iter().enumerate() {
            writeln!(f, "  {node}  [{}]", self.out_dims[i])?;
        }
        Ok(())
    }
}

/// Incrementally constructs a [`DagNetwork`] from named nodes and edges.
///
/// The builder is non-consuming (like
/// [`hypar_models::NetworkBuilder`]): configuration methods take
/// `&mut self` and [`GraphBuilder::build`] takes `&self`, so graphs can be
/// assembled in loops (as [`crate::zoo::resnet18`] does).  Nodes may be
/// inserted in any order; edges may reference nodes defined later.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    name: String,
    input: FeatureDims,
    nodes: Vec<GraphNode>,
}

impl GraphBuilder {
    /// Starts a graph with the given name and per-sample input shape.
    #[must_use]
    pub fn new(name: impl Into<String>, input: FeatureDims) -> Self {
        Self {
            name: name.into(),
            input,
            nodes: Vec::new(),
        }
    }

    /// Inserts a pre-constructed node.
    pub fn node(&mut self, node: GraphNode) -> &mut Self {
        self.nodes.push(node);
        self
    }

    /// Inserts a weighted-layer node consuming `from`.
    pub fn layer(&mut self, layer: Layer, from: impl Into<String>) -> &mut Self {
        self.node(GraphNode::layer(layer, from))
    }

    /// Inserts a convolutional node with default ReLU activation.
    pub fn conv(
        &mut self,
        name: impl Into<String>,
        spec: ConvSpec,
        from: impl Into<String>,
    ) -> &mut Self {
        self.layer(Layer::conv(name, spec), from)
    }

    /// Inserts a fully-connected node with default ReLU activation.
    pub fn fully_connected(
        &mut self,
        name: impl Into<String>,
        out_features: u64,
        from: impl Into<String>,
    ) -> &mut Self {
        self.layer(Layer::fully_connected(name, out_features), from)
    }

    /// Inserts an element-wise `add` join of the named branches.
    pub fn add(&mut self, name: impl Into<String>, from: &[&str]) -> &mut Self {
        self.node(GraphNode::add(name, from))
    }

    /// Inserts a channel-wise `concat` join of the named branches.
    pub fn concat(&mut self, name: impl Into<String>, from: &[&str]) -> &mut Self {
        self.node(GraphNode::concat(name, from))
    }

    /// Validates the graph and produces the immutable [`DagNetwork`].
    ///
    /// Validation, in order: node names (duplicates, the reserved
    /// [`INPUT`] name), edge resolution, fan-in rules (layers take exactly
    /// one input, joins at least two), acyclicity, one-pass shape
    /// inference over the canonical topological order (join fan-in shape
    /// agreement, layer hyper-parameter fit), and the single-layer-sink
    /// rule.
    ///
    /// # Errors
    ///
    /// Returns the first [`GraphError`] encountered in the order above.
    pub fn build(&self) -> Result<DagNetwork, GraphError> {
        if self.nodes.is_empty() {
            return Err(GraphError::Empty);
        }

        // Name resolution.
        let mut index_of: BTreeMap<&str, usize> = BTreeMap::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if node.name() == INPUT {
                return Err(GraphError::ReservedName {
                    node: node.name().to_owned(),
                });
            }
            if index_of.insert(node.name(), i).is_some() {
                return Err(GraphError::DuplicateNode {
                    node: node.name().to_owned(),
                });
            }
        }
        let mut resolved: Vec<Vec<Option<usize>>> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let mut inputs = Vec::with_capacity(node.inputs().len());
            for input in node.inputs() {
                if input == INPUT {
                    inputs.push(None);
                } else {
                    match index_of.get(input.as_str()) {
                        Some(&p) => inputs.push(Some(p)),
                        None => {
                            return Err(GraphError::UnknownInput {
                                node: node.name().to_owned(),
                                input: input.clone(),
                            })
                        }
                    }
                }
            }
            resolved.push(inputs);
        }

        // Fan-in rules.
        for (node, inputs) in self.nodes.iter().zip(&resolved) {
            match node.op() {
                NodeOp::Layer(_) if inputs.len() != 1 => {
                    return Err(GraphError::LayerFanIn {
                        node: node.name().to_owned(),
                        got: inputs.len(),
                    })
                }
                NodeOp::Add | NodeOp::Concat if inputs.len() < 2 => {
                    return Err(GraphError::JoinFanIn {
                        node: node.name().to_owned(),
                        got: inputs.len(),
                    })
                }
                _ => {}
            }
        }

        // Canonical topological order: Kahn's algorithm, ready set ordered
        // by node name so insertion order never leaks into the result.
        let n = self.nodes.len();
        let mut indegree = vec![0usize; n];
        let mut consumers = vec![Vec::new(); n];
        for (i, inputs) in resolved.iter().enumerate() {
            for input in inputs.iter().flatten() {
                indegree[i] += 1;
                consumers[*input].push(i);
            }
        }
        let mut ready: BTreeSet<(&str, usize)> = indegree
            .iter()
            .enumerate()
            .filter(|&(_, d)| *d == 0)
            .map(|(i, _)| (self.nodes[i].name(), i))
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(&(name, i)) = ready.iter().next() {
            ready.remove(&(name, i));
            order.push(i);
            for &c in &consumers[i] {
                indegree[c] -= 1;
                if indegree[c] == 0 {
                    ready.insert((self.nodes[c].name(), c));
                }
            }
        }
        if order.len() < n {
            // `order.len() < n` guarantees a stuck node exists; fall back
            // to the graph's own name rather than asserting it.
            let stuck = (0..n)
                .filter(|&i| indegree[i] > 0)
                .map(|i| self.nodes[i].name())
                .min()
                .unwrap_or(self.name.as_str());
            return Err(GraphError::Cycle {
                node: stuck.to_owned(),
            });
        }
        let mut new_index = vec![0usize; n];
        for (new, &old) in order.iter().enumerate() {
            new_index[old] = new;
        }
        let nodes: Vec<GraphNode> = order.iter().map(|&old| self.nodes[old].clone()).collect();
        let resolved: Vec<Vec<Option<usize>>> = order
            .iter()
            .map(|&old| {
                resolved[old]
                    .iter()
                    .map(|r| r.map(|p| new_index[p]))
                    .collect()
            })
            .collect();

        // One-pass shape inference over the topological order.
        let mut out_dims: Vec<FeatureDims> = Vec::with_capacity(n);
        for (i, node) in nodes.iter().enumerate() {
            let dims_of = |r: &Option<usize>| r.map_or(self.input, |p| out_dims[p]);
            let out = match node.op() {
                NodeOp::Layer(layer) => {
                    let shapes = LayerShapes::infer(layer, dims_of(&resolved[i][0]), 1).map_err(
                        |source| GraphError::LayerShape {
                            node: node.name().to_owned(),
                            source,
                        },
                    )?;
                    shapes.junction_out
                }
                NodeOp::Add => {
                    let first = dims_of(&resolved[i][0]);
                    for r in &resolved[i][1..] {
                        let got = dims_of(r);
                        if got != first {
                            return Err(GraphError::AddShapeMismatch {
                                node: node.name().to_owned(),
                                first,
                                mismatched: got,
                            });
                        }
                    }
                    first
                }
                NodeOp::Concat => {
                    let first = dims_of(&resolved[i][0]);
                    let mut channels = first.channels;
                    for r in &resolved[i][1..] {
                        let got = dims_of(r);
                        if got.height != first.height || got.width != first.width {
                            return Err(GraphError::ConcatShapeMismatch {
                                node: node.name().to_owned(),
                                first,
                                mismatched: got,
                            });
                        }
                        channels = channels.checked_add(got.channels).ok_or_else(|| {
                            GraphError::ChannelOverflow {
                                node: node.name().to_owned(),
                            }
                        })?;
                    }
                    FeatureDims::new(channels, first.height, first.width)
                }
            };
            out_dims.push(out);
        }

        // Exactly one sink, and it must be a weighted layer.
        let mut fan_out = vec![0usize; n];
        for inputs in &resolved {
            for input in inputs.iter().flatten() {
                fan_out[*input] += 1;
            }
        }
        let sinks: Vec<usize> = (0..n).filter(|&i| fan_out[i] == 0).collect();
        if sinks.len() > 1 {
            return Err(GraphError::MultipleSinks {
                sinks: sinks.iter().map(|&i| nodes[i].name().to_owned()).collect(),
            });
        }
        let sink = sinks[0];
        if nodes[sink].op().is_join() {
            return Err(GraphError::SinkNotLayer {
                node: nodes[sink].name().to_owned(),
            });
        }

        Ok(DagNetwork {
            name: self.name.clone(),
            input: self.input,
            nodes,
            resolved,
            out_dims,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypar_models::PoolSpec;

    fn tiny_residual() -> GraphBuilder {
        let mut g = GraphBuilder::new("tiny-res", FeatureDims::new(8, 16, 16));
        g.conv("stem", ConvSpec::same(8, 3), INPUT)
            .conv("body", ConvSpec::same(8, 3), "stem")
            .add("join", &["stem", "body"])
            .fully_connected("fc", 10, "join");
        g
    }

    #[test]
    fn residual_block_builds_and_infers_shapes() {
        let dag = tiny_residual().build().unwrap();
        assert_eq!(dag.num_nodes(), 4);
        assert_eq!(dag.num_layers(), 3);
        assert!(!dag.is_chain());
        // The add preserves its branches' shape.
        let join = dag
            .nodes()
            .iter()
            .position(|node| node.name() == "join")
            .unwrap();
        assert_eq!(dag.node_output(join), FeatureDims::new(8, 16, 16));
    }

    #[test]
    fn insertion_order_does_not_change_the_network() {
        let forward = tiny_residual().build().unwrap();
        let mut reversed = GraphBuilder::new("tiny-res", FeatureDims::new(8, 16, 16));
        reversed
            .fully_connected("fc", 10, "join")
            .add("join", &["stem", "body"])
            .conv("body", ConvSpec::same(8, 3), "stem")
            .conv("stem", ConvSpec::same(8, 3), INPUT);
        assert_eq!(forward, reversed.build().unwrap());
    }

    #[test]
    fn chain_dag_linearizes_to_the_chain_ir() {
        let mut g = GraphBuilder::new("chain", FeatureDims::new(1, 28, 28));
        g.layer(
            Layer::conv("conv1", ConvSpec::valid(20, 5)).with_pool(PoolSpec::max2()),
            INPUT,
        )
        .fully_connected("fc1", 10, "conv1");
        let dag = g.build().unwrap();
        assert!(dag.is_chain());
        let net = dag.linearize().unwrap();
        assert_eq!(net.num_layers(), 2);
        assert_eq!(net.name(), "chain");
        assert_eq!(net.layers()[0].name(), "conv1");
    }

    #[test]
    fn branchy_dag_refuses_to_linearize() {
        let err = tiny_residual().build().unwrap().linearize().unwrap_err();
        assert!(matches!(err, GraphError::NotAChain { .. }));
    }

    #[test]
    fn empty_graph_is_rejected() {
        let err = GraphBuilder::new("e", FeatureDims::flat(10))
            .build()
            .unwrap_err();
        assert_eq!(err, GraphError::Empty);
    }

    #[test]
    fn duplicate_and_reserved_names_are_rejected() {
        let mut g = GraphBuilder::new("d", FeatureDims::flat(10));
        g.fully_connected("fc", 10, INPUT)
            .fully_connected("fc", 10, "fc");
        assert!(matches!(
            g.build().unwrap_err(),
            GraphError::DuplicateNode { .. }
        ));
        let mut g = GraphBuilder::new("r", FeatureDims::flat(10));
        g.fully_connected(INPUT, 10, INPUT);
        assert!(matches!(
            g.build().unwrap_err(),
            GraphError::ReservedName { .. }
        ));
    }

    #[test]
    fn unknown_input_is_rejected() {
        let mut g = GraphBuilder::new("u", FeatureDims::flat(10));
        g.fully_connected("fc", 10, "ghost");
        assert_eq!(
            g.build().unwrap_err(),
            GraphError::UnknownInput {
                node: "fc".into(),
                input: "ghost".into()
            }
        );
    }

    #[test]
    fn cycles_are_rejected() {
        let mut g = GraphBuilder::new("c", FeatureDims::flat(10));
        g.fully_connected("a", 10, "b")
            .fully_connected("b", 10, "a");
        assert!(matches!(g.build().unwrap_err(), GraphError::Cycle { .. }));
    }

    #[test]
    fn join_fan_in_rules() {
        let mut g = GraphBuilder::new("j", FeatureDims::flat(10));
        g.fully_connected("a", 10, INPUT)
            .add("join", &["a"])
            .fully_connected("out", 10, "join");
        assert_eq!(
            g.build().unwrap_err(),
            GraphError::JoinFanIn {
                node: "join".into(),
                got: 1
            }
        );
    }

    #[test]
    fn add_shape_mismatch_is_rejected() {
        let mut g = GraphBuilder::new("m", FeatureDims::new(4, 8, 8));
        g.conv("a", ConvSpec::same(4, 3), INPUT)
            .conv("b", ConvSpec::same(8, 3), INPUT)
            .add("join", &["a", "b"])
            .fully_connected("out", 10, "join");
        assert!(matches!(
            g.build().unwrap_err(),
            GraphError::AddShapeMismatch { .. }
        ));
    }

    #[test]
    fn concat_sums_channels_and_checks_spatial_extents() {
        let mut g = GraphBuilder::new("cat", FeatureDims::new(4, 8, 8));
        g.conv("a", ConvSpec::same(4, 3), INPUT)
            .conv("b", ConvSpec::same(8, 1), INPUT)
            .concat("mixed", &["a", "b"])
            .fully_connected("out", 10, "mixed");
        let dag = g.build().unwrap();
        let mixed = dag
            .nodes()
            .iter()
            .position(|n| n.name() == "mixed")
            .unwrap();
        assert_eq!(dag.node_output(mixed), FeatureDims::new(12, 8, 8));

        let mut bad = GraphBuilder::new("cat", FeatureDims::new(4, 8, 8));
        bad.conv("a", ConvSpec::same(4, 3), INPUT)
            .layer(
                Layer::conv("b", ConvSpec::same(8, 1)).with_pool(PoolSpec::max2()),
                INPUT,
            )
            .concat("mixed", &["a", "b"])
            .fully_connected("out", 10, "mixed");
        assert!(matches!(
            bad.build().unwrap_err(),
            GraphError::ConcatShapeMismatch { .. }
        ));
    }

    #[test]
    fn multiple_sinks_are_rejected() {
        let mut g = GraphBuilder::new("s", FeatureDims::flat(10));
        g.fully_connected("a", 10, INPUT)
            .fully_connected("b", 10, INPUT);
        assert_eq!(
            g.build().unwrap_err(),
            GraphError::MultipleSinks {
                sinks: vec!["a".into(), "b".into()]
            }
        );
    }

    #[test]
    fn join_sink_is_rejected() {
        let mut g = GraphBuilder::new("js", FeatureDims::flat(10));
        g.fully_connected("a", 10, INPUT)
            .fully_connected("b", 10, INPUT)
            .add("join", &["a", "b"]);
        assert_eq!(
            g.build().unwrap_err(),
            GraphError::SinkNotLayer {
                node: "join".into()
            }
        );
    }

    #[test]
    fn layer_shape_errors_carry_the_node_name() {
        let mut g = GraphBuilder::new("bad", FeatureDims::new(1, 4, 4));
        g.conv("conv1", ConvSpec::valid(8, 7), INPUT);
        match g.build().unwrap_err() {
            GraphError::LayerShape { node, .. } => assert_eq!(node, "conv1"),
            other => panic!("expected LayerShape, got {other:?}"),
        }
    }

    #[test]
    fn display_lists_nodes_with_shapes() {
        let dag = tiny_residual().build().unwrap();
        let text = dag.to_string();
        assert!(text.contains("tiny-res"));
        assert!(text.contains("join: add"));
        assert!(text.contains("8x16x16"));
    }
}
