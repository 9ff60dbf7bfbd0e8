//! The engine's wire types: [`PlanRequest`] in, [`PlanResponse`] out.

use std::fmt;
use std::str::FromStr;

use hypar_core::HierarchicalPlan;
use hypar_sim::{StepReport, Topology};
use hypar_telemetry::{statehash, Span, StateHash, StateHasher};
use serde::{DeError, Deserialize, Serialize, Value};

/// Which planner produces the per-layer parallelism assignment.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// HyPar's hierarchical dynamic program (Algorithm 2) — the default.
    Hypar,
    /// All-layers data parallelism at every level.
    Dp,
    /// All-layers model parallelism at every level.
    Mp,
    /// Krizhevsky's "one weird trick": dp for conv, mp for fc.
    Owt,
    /// The HyPar plan improved by polynomial coordinate-descent
    /// refinement: on a branchy DAG the junction-aware pass re-decides
    /// every bit against the whole-graph cost (closing the stitcher's
    /// greedy gap); on a chain it closes Algorithm 2's level-by-level
    /// greedy gap the same way.  Equivalent to `strategy: "hypar"` with
    /// `refine: true`.
    Refined,
    /// Brute-force joint optimum over all levels (guarded to ≤ 24 slots).
    Exhaustive,
    /// The request supplies the assignment itself via
    /// [`PlanRequest::assignments`] (one dp/mp bit string per level).
    Explicit,
}

impl Strategy {
    /// All strategies, for iteration and help text.
    pub const ALL: [Strategy; 7] = [
        Strategy::Hypar,
        Strategy::Dp,
        Strategy::Mp,
        Strategy::Owt,
        Strategy::Refined,
        Strategy::Exhaustive,
        Strategy::Explicit,
    ];

    /// The wire name (`hypar`, `dp`, `mp`, `owt`, `refined`,
    /// `exhaustive`, `explicit`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Hypar => "hypar",
            Strategy::Dp => "dp",
            Strategy::Mp => "mp",
            Strategy::Owt => "owt",
            Strategy::Refined => "refined",
            Strategy::Exhaustive => "exhaustive",
            Strategy::Explicit => "explicit",
        }
    }

    /// A stable small integer identifying the strategy in fingerprints.
    #[must_use]
    pub(crate) fn tag(self) -> u64 {
        match self {
            Strategy::Hypar => 0,
            Strategy::Dp => 1,
            Strategy::Mp => 2,
            Strategy::Owt => 3,
            Strategy::Exhaustive => 4,
            Strategy::Explicit => 5,
            Strategy::Refined => 6,
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Strategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Strategy::ALL
            .into_iter()
            .find(|st| st.name() == s)
            .ok_or_else(|| {
                format!(
                    "unknown strategy `{s}` \
                     (expected hypar|dp|mp|owt|refined|exhaustive|explicit)"
                )
            })
    }
}

impl Serialize for Strategy {
    fn to_value(&self) -> Value {
        Value::String(self.name().to_owned())
    }

    fn write_json(&self, out: &mut String) {
        self.name().write_json(out);
    }
}

impl Deserialize for Strategy {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let s = v
            .as_str()
            .ok_or_else(|| DeError::expected("strategy string", v))?;
        s.parse().map_err(DeError::custom)
    }
}

/// Input feature-map extent of a custom network.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct InputSpec {
    /// Channels `C` (1 for flat inputs).
    pub channels: u64,
    /// Spatial height `H` (1 for flat inputs).
    pub height: u64,
    /// Spatial width `W`; for flat inputs, the feature count.
    pub width: u64,
}

/// One weighted layer of a custom network.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LayerSpec {
    /// Layer name; defaults to `conv<i>` / `fc<i>`.
    pub name: Option<String>,
    /// `"conv"` or `"fc"`.
    pub kind: String,
    /// Output channels (conv) or output neurons (fc).
    pub out: u64,
    /// Square kernel extent; required for conv layers.
    pub kernel: Option<u64>,
    /// Convolution stride (default 1).
    pub stride: Option<u64>,
    /// Zero padding per border (default: "same", `(kernel - 1) / 2`).
    pub padding: Option<u64>,
    /// Attach a non-overlapping max pool with this window (e.g. 2).
    pub pool: Option<u64>,
}

/// A custom (non-zoo) network described inline in the request.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CustomNetwork {
    /// Network name used in reports (default `custom`).
    pub name: Option<String>,
    /// Input feature-map extent.
    pub input: InputSpec,
    /// Weighted layers, first to last.
    pub layers: Vec<LayerSpec>,
}

/// One node of an inline DAG network: a weighted layer (`conv`/`fc`) or a
/// join (`add`/`concat`), wired to its producers by name.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GraphNodeSpec {
    /// Unique node name; other nodes reference it through `inputs`.
    pub name: String,
    /// `"conv"`, `"fc"`, `"add"`, or `"concat"`.
    pub kind: String,
    /// Output channels (conv) or output neurons (fc); joins take none.
    pub out: Option<u64>,
    /// Square kernel extent; required for conv nodes.
    pub kernel: Option<u64>,
    /// Convolution stride (default 1).
    pub stride: Option<u64>,
    /// Zero padding per border (default: "same", `(kernel - 1) / 2`).
    pub padding: Option<u64>,
    /// Attach a non-overlapping max pool with this window (layers only).
    pub pool: Option<u64>,
    /// Producer node names (`"input"` for the graph input).  Defaults to
    /// the previous node in the list (the graph input for the first), so
    /// chain prefixes stay terse.
    pub inputs: Option<Vec<String>>,
}

/// A branchy (DAG) network described inline in the request; distinguished
/// from [`CustomNetwork`] by carrying `nodes` instead of `layers`.
///
/// ```json
/// {"name": "tiny-res",
///  "input": {"channels": 8, "height": 16, "width": 16},
///  "nodes": [
///    {"name": "stem", "kind": "conv", "out": 8, "kernel": 3},
///    {"name": "body", "kind": "conv", "out": 8, "kernel": 3},
///    {"name": "join", "kind": "add", "inputs": ["stem", "body"]},
///    {"name": "fc", "kind": "fc", "out": 10, "inputs": ["join"]}]}
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GraphSpec {
    /// Network name used in reports (default `graph`).
    pub name: Option<String>,
    /// Input feature-map extent.
    pub input: InputSpec,
    /// The DAG nodes, in any topological-consistent listing order (the
    /// engine canonicalizes, so listing order never changes the plan or
    /// the cache key).
    pub nodes: Vec<GraphNodeSpec>,
}

/// How the request names its network: a zoo model or an inline spec.
#[derive(Clone, Debug, PartialEq, Hash)]
pub enum NetworkRef {
    /// A zoo network by (forgiving) name: the paper's ten chain networks
    /// (`"VGG-A"`, `"vgg_a"`, and `"vgga"` all resolve identically) or a
    /// branchy graph-zoo network (`"resnet18"`, `"inception-mini"`).
    Zoo(String),
    /// An inline custom chain network (a `layers` object).
    Custom(CustomNetwork),
    /// An inline DAG network (a `nodes` object).
    Graph(GraphSpec),
}

impl Serialize for NetworkRef {
    fn to_value(&self) -> Value {
        match self {
            NetworkRef::Zoo(name) => Value::String(name.clone()),
            NetworkRef::Custom(custom) => custom.to_value(),
            NetworkRef::Graph(graph) => graph.to_value(),
        }
    }

    fn write_json(&self, out: &mut String) {
        match self {
            NetworkRef::Zoo(name) => name.write_json(out),
            NetworkRef::Custom(custom) => custom.write_json(out),
            NetworkRef::Graph(graph) => graph.write_json(out),
        }
    }
}

impl Deserialize for NetworkRef {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::String(name) => Ok(NetworkRef::Zoo(name.clone())),
            Value::Object(_) if v.get("nodes").is_some() => {
                GraphSpec::from_value(v).map(NetworkRef::Graph)
            }
            Value::Object(_) => CustomNetwork::from_value(v).map(NetworkRef::Custom),
            _ => Err(DeError::expected(
                "zoo name string, custom network object (`layers`), or DAG object (`nodes`)",
                v,
            )),
        }
    }
}

/// One planning workload.
///
/// On the wire this is a JSON object; all fields except `network` may be
/// omitted, defaulting to the paper's evaluation setup (batch 256, four
/// levels, HyPar strategy, H-tree, no simulation):
///
/// ```json
/// {"network": "vgg_a", "levels": 4, "strategy": "hypar", "simulate": true}
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PlanRequest {
    /// The network to plan for.
    pub network: NetworkRef,
    /// Mini-batch size `B` (default 256, the paper's §6.1 setting).
    pub batch: u64,
    /// Binary hierarchy depth `H` (`2^H` accelerators; default 4).
    pub levels: usize,
    /// Which planner to run (default [`Strategy::Hypar`]).
    pub strategy: Strategy,
    /// For [`Strategy::Explicit`]: one bit string per level, layer 0
    /// first, `0` = dp, `1` = mp (the paper's Figure 9/10 convention).
    pub assignments: Option<Vec<String>>,
    /// Inter-accelerator topology (default H-tree).
    pub topology: Topology,
    /// Whether to run the full discrete-event training-step simulation.
    pub simulate: bool,
    /// Run the coordinate-descent refinement pass on top of the `hypar`
    /// plan — a modifier spelling of [`Strategy::Refined`]: the engine
    /// resolves `strategy: "hypar", refine: true` to the identical
    /// workload (and cache entry) as `strategy: "refined"`.  Rejected
    /// with any other strategy.
    pub refine: bool,
    /// Attach a [`PlanTiming`] section (wall-clock span tree of the
    /// request's processing) to the response.  Tracing never changes the
    /// plan and is **excluded from the fingerprint**, so traced and
    /// untraced spellings of a workload share one cache entry.
    pub trace: bool,
}

impl PlanRequest {
    /// A request for a zoo network with paper defaults.
    #[must_use]
    pub fn zoo(name: impl Into<String>) -> Self {
        PlanRequest {
            network: NetworkRef::Zoo(name.into()),
            batch: 256,
            levels: 4,
            strategy: Strategy::Hypar,
            assignments: None,
            topology: Topology::HTree,
            simulate: false,
            refine: false,
            trace: false,
        }
    }

    /// A request for an inline custom network with paper defaults.
    #[must_use]
    pub fn custom(network: CustomNetwork) -> Self {
        PlanRequest {
            network: NetworkRef::Custom(network),
            ..PlanRequest::zoo("")
        }
    }

    /// A request for an inline DAG network with paper defaults.
    #[must_use]
    pub fn graph(network: GraphSpec) -> Self {
        PlanRequest {
            network: NetworkRef::Graph(network),
            ..PlanRequest::zoo("")
        }
    }

    /// Sets the mini-batch size.
    #[must_use]
    pub fn batch(mut self, batch: u64) -> Self {
        self.batch = batch;
        self
    }

    /// Sets the hierarchy depth.
    #[must_use]
    pub fn levels(mut self, levels: usize) -> Self {
        self.levels = levels;
        self
    }

    /// Sets the planning strategy.
    #[must_use]
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Supplies an explicit per-level assignment and selects
    /// [`Strategy::Explicit`].
    #[must_use]
    pub fn assignments(mut self, bits: Vec<String>) -> Self {
        self.assignments = Some(bits);
        self.strategy = Strategy::Explicit;
        self
    }

    /// Sets the inter-accelerator topology.
    #[must_use]
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Enables (or disables) the discrete-event simulation.
    #[must_use]
    pub fn simulate(mut self, simulate: bool) -> Self {
        self.simulate = simulate;
        self
    }

    /// Enables (or disables) the refinement modifier (see
    /// [`PlanRequest::refine`]).
    #[must_use]
    pub fn refine(mut self, refine: bool) -> Self {
        self.refine = refine;
        self
    }

    /// Enables (or disables) the response timing trace (see
    /// [`PlanRequest::trace`]).
    #[must_use]
    pub fn trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }
}

impl Serialize for PlanRequest {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("network".to_owned(), self.network.to_value()),
            ("batch".to_owned(), Value::U64(self.batch)),
            ("levels".to_owned(), Value::U64(self.levels as u64)),
            ("strategy".to_owned(), self.strategy.to_value()),
            (
                "topology".to_owned(),
                Value::String(topology_name(self.topology).to_owned()),
            ),
            ("simulate".to_owned(), Value::Bool(self.simulate)),
            ("refine".to_owned(), Value::Bool(self.refine)),
            ("trace".to_owned(), Value::Bool(self.trace)),
        ];
        if let Some(assignments) = &self.assignments {
            fields.push(("assignments".to_owned(), assignments.to_value()));
        }
        Value::Object(fields)
    }

    /// The same fields, in the same order, as `to_value`.
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"network\":");
        self.network.write_json(out);
        out.push_str(",\"batch\":");
        self.batch.write_json(out);
        out.push_str(",\"levels\":");
        self.levels.write_json(out);
        out.push_str(",\"strategy\":");
        self.strategy.write_json(out);
        out.push_str(",\"topology\":");
        topology_name(self.topology).write_json(out);
        out.push_str(",\"simulate\":");
        self.simulate.write_json(out);
        out.push_str(",\"refine\":");
        self.refine.write_json(out);
        out.push_str(",\"trace\":");
        self.trace.write_json(out);
        if let Some(assignments) = &self.assignments {
            out.push_str(",\"assignments\":");
            assignments.write_json(out);
        }
        out.push('}');
    }
}

impl Deserialize for PlanRequest {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        if v.as_object().is_none() {
            return Err(DeError::expected("request object", v));
        }
        let network = v
            .get("network")
            .ok_or_else(|| DeError::missing_field("network", "PlanRequest"))
            .and_then(NetworkRef::from_value)?;
        let defaults = PlanRequest::zoo("");
        Ok(PlanRequest {
            network,
            batch: field_or(v, "batch", defaults.batch)?,
            levels: field_or(v, "levels", defaults.levels)?,
            strategy: field_or(v, "strategy", defaults.strategy)?,
            assignments: field_or(v, "assignments", None)?,
            topology: match v.get("topology") {
                Some(t) => parse_topology(t)?,
                None => Topology::HTree,
            },
            simulate: field_or(v, "simulate", false)?,
            refine: field_or(v, "refine", false)?,
            trace: field_or(v, "trace", false)?,
        })
    }
}

fn field_or<T: Deserialize>(v: &Value, field: &str, default: T) -> Result<T, DeError> {
    match v.get(field) {
        Some(inner) if !inner.is_null() => T::from_value(inner).map_err(|e| e.in_field(field)),
        _ => Ok(default),
    }
}

fn parse_topology(v: &Value) -> Result<Topology, DeError> {
    let s = v
        .as_str()
        .ok_or_else(|| DeError::expected("topology string", v))?;
    match s.to_ascii_lowercase().replace(['-', '_'], "").as_str() {
        "htree" | "tree" => Ok(Topology::HTree),
        "torus" => Ok(Topology::Torus),
        other => Err(DeError::custom(format!(
            "unknown topology `{other}` (expected htree|torus)"
        ))),
    }
}

/// The lowercase wire name of a topology.
#[must_use]
pub(crate) fn topology_name(topology: Topology) -> &'static str {
    match topology {
        Topology::HTree => "htree",
        Topology::Torus => "torus",
    }
}

/// Wall-clock timing of one request's processing, attached to a
/// [`PlanResponse`] when the request set `trace: true`.
///
/// The span tree mirrors the engine's pipeline under a `plan` root:
///
/// * a repeat hit has one child, `cache_lookup`: the request, `trace`
///   aside, is the last spelling that reached a still-cached entry, and
///   the cache's request index leads straight to it;
/// * for any other request that first `cache_lookup` finds nothing, and
///   `resolve` (network resolution, shape inference, and — for DAG
///   networks — `segment_decomposition`) and a second `cache_lookup`, by
///   fingerprint, follow; the second one hits when another spelling of
///   the same workload made the entry;
/// * on a miss, a `compute` subtree follows, covering the strategy search
///   (`plan_segments`/`stitch`/`refine`/`exhaustive`/…) and `simulate`.
///
/// A hit's trace stops at its lookup — the compute subtree belongs to
/// whichever request populated the entry.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PlanTiming {
    /// End-to-end wall-clock of [`crate::PlanEngine::plan`], ns.
    pub total_ns: u64,
    /// The span tree (root span `plan`; its duration equals `total_ns`).
    pub trace: Span,
}

/// The engine's answer to one [`PlanRequest`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PlanResponse {
    /// Resolved network name (zoo canonical name or the custom name).
    pub network: String,
    /// Mini-batch size the plan was computed for.
    pub batch: u64,
    /// Hierarchy depth.
    pub levels: usize,
    /// Number of accelerators (`2^levels`).
    pub accelerators: u64,
    /// The strategy that produced the plan.
    pub strategy: Strategy,
    /// Stable fingerprint of the resolved workload (the cache key), hex.
    pub fingerprint: String,
    /// Canonical digest of the response's *content* — everything above
    /// and below except `cache_hit`, `timing`, and this field itself —
    /// as 16 hex digits.  Plan bits, costs, and simulation fields fold
    /// in bit-exactly ([`hypar_telemetry::StateHash`]), so two responses
    /// share a `state_hash` iff a caller could not tell them apart: the
    /// determinism guarantee `scenarios/golden.json` pins and the
    /// `hypar-replay` harness diffs across commits.  Like `timing`, the
    /// hash is an output of planning, never an input to the cache
    /// fingerprint.
    pub state_hash: String,
    /// Whether this response was served from the plan cache.
    pub cache_hit: bool,
    /// Total communication of one training step, in tensor elements.
    pub total_comm_elems: f64,
    /// Total communication of one training step, in bytes (fp32).
    pub total_comm_bytes: f64,
    /// The full per-layer-per-level plan.
    pub plan: HierarchicalPlan,
    /// Discrete-event simulation of one training step, when requested.
    pub simulation: Option<StepReport>,
    /// Wall-clock timing breakdown, when the request set `trace: true`.
    /// Never stored in the plan cache (a cached entry is timing-free;
    /// the trace always describes *this* request's processing).
    pub timing: Option<PlanTiming>,
}

impl PlanResponse {
    /// Recomputes the canonical content digest this response *should*
    /// carry (see [`PlanResponse::state_hash`]).  The engine stamps the
    /// field at compute time; replay tooling re-derives it to validate
    /// logs and manifests against tampering or drift.
    #[must_use]
    pub fn compute_state_hash(&self) -> String {
        let mut h = StateHasher::new();
        h.write_str("response/v1");
        h.write_str(&self.network);
        h.write_u64(self.batch);
        h.write_u64(self.levels as u64);
        h.write_u64(self.accelerators);
        h.write_str(self.strategy.name());
        h.write_str(&self.fingerprint);
        h.write_f64(self.total_comm_elems);
        h.write_f64(self.total_comm_bytes);
        self.plan.state_hash_into(&mut h);
        match &self.simulation {
            None => h.write_bool(false),
            Some(report) => {
                h.write_bool(true);
                report.state_hash_into(&mut h);
            }
        }
        statehash::hash_hex(h.finish())
    }
}
