//! The [`PlanEngine`]: request resolution, strategy dispatch, caching.

use std::fmt;
use std::sync::Arc;

use hypar_comm::{NetworkCommTensors, Parallelism};
use hypar_core::{
    baselines, evaluate::evaluate_plan, exhaustive, hierarchical, refine, HierarchicalPlan,
};
use hypar_graph::{zoo as graph_zoo, DagNetwork, SegmentCommGraph};
use hypar_models::zoo;
use hypar_models::{ConvSpec, Layer, Network, NetworkShapes, PoolKind, PoolSpec};
use hypar_sim::{training, ArchConfig};
use hypar_telemetry::{RegistrySnapshot, SpanRecorder};
use hypar_tensor::FeatureDims;

use crate::cache::{CacheStats, PlanCache};
use crate::fingerprint::{fingerprint, fingerprint_dag, Fingerprint};
use crate::metrics::EngineMetrics;
use crate::parallel;
use crate::request::{
    CustomNetwork, GraphSpec, NetworkRef, PlanRequest, PlanResponse, PlanTiming, Strategy,
};

/// Upper bound on `layers × levels` for [`Strategy::Exhaustive`] — beyond
/// this the `2^(L·H)` joint search is infeasible.  Chains and branchy
/// DAGs share the bound (it is `hypar_core::exhaustive`'s own guard, which
/// the graph-side joint search reuses).
const EXHAUSTIVE_SLOT_LIMIT: usize = exhaustive::SLOT_LIMIT;

/// Upper bound on the hierarchy depth a request may ask for.  `2^16`
/// accelerators is already far beyond the paper's largest array (64) and
/// anything the simulator can turn around interactively; the bound also
/// keeps untrusted service input from wedging or overflowing the
/// `1 << levels` accelerator count.
const MAX_LEVELS: usize = 16;

/// Why a request could not be planned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The zoo has no network under the requested name.
    UnknownNetwork(String),
    /// The custom network specification was malformed.
    InvalidNetwork(String),
    /// The request combined options inconsistently (e.g. `explicit`
    /// without assignments, or an oversized exhaustive search).
    InvalidRequest(String),
    /// A planner worker thread panicked; the batch degraded to
    /// per-request errors instead of aborting the service.
    WorkerPanicked,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownNetwork(name) => write!(
                f,
                "unknown network `{name}` (zoo: {}; branchy zoo: {})",
                zoo::NAMES.join(", "),
                graph_zoo::NAMES.join(", ")
            ),
            EngineError::InvalidNetwork(msg) => write!(f, "invalid network: {msg}"),
            EngineError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            EngineError::WorkerPanicked => write!(
                f,
                "internal: a planner worker thread panicked; the request was abandoned"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// The planning engine: one instance serves many requests, memoizing
/// every computed plan in an LRU cache keyed by workload fingerprint.
///
/// The engine is `Sync`; [`PlanEngine::plan_many`] and the TCP front-end
/// share one instance (and therefore one cache) across threads.
#[derive(Debug)]
pub struct PlanEngine {
    cache: PlanCache,
    metrics: EngineMetrics,
}

impl Default for PlanEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanEngine {
    /// Default plan-cache capacity.
    pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

    /// An engine with the default cache capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_cache_capacity(Self::DEFAULT_CACHE_CAPACITY)
    }

    /// An engine whose cache holds at most `capacity` plans (0 disables
    /// caching).
    #[must_use]
    pub fn with_cache_capacity(capacity: usize) -> Self {
        PlanEngine {
            cache: PlanCache::new(capacity),
            metrics: EngineMetrics::new(),
        }
    }

    /// Plans one request, serving repeated workloads from the cache.
    ///
    /// Every call is counted and timed in the engine's metric registry
    /// (see [`PlanEngine::metrics_snapshot`]); with `trace: true` on the
    /// request, the response additionally carries the request's own
    /// [`PlanTiming`] span tree.
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] for unknown networks, malformed custom
    /// specs, or inconsistent request options.
    pub fn plan(&self, request: &PlanRequest) -> Result<PlanResponse, EngineError> {
        self.metrics.requests.inc();
        self.metrics.inflight.add(1);
        let mut root = SpanRecorder::start("plan");
        let result = self.plan_recorded(request, &mut root);
        self.metrics.inflight.sub(1);
        let span = root.finish();
        self.metrics.plan_latency_ns.record(span.duration_ns);
        match result {
            Ok(mut response) => {
                if request.trace {
                    response.timing = Some(PlanTiming {
                        total_ns: span.duration_ns,
                        trace: span,
                    });
                }
                Ok(response)
            }
            Err(err) => {
                self.metrics.errors.inc();
                Err(err)
            }
        }
    }

    /// The `plan` pipeline proper, with every stage recorded under
    /// `root`.  Returned responses never carry timing: the caller
    /// attaches the finished span tree, and the cache stores timing-free
    /// entries so traced and untraced requests share them.
    fn plan_recorded(
        &self,
        request: &PlanRequest,
        root: &mut SpanRecorder,
    ) -> Result<PlanResponse, EngineError> {
        let resolved = root.time_in("resolve", |span| Resolved::new(request, span))?;
        let key = resolved.fingerprint();
        if let Some(cached) = root.time("cache_lookup", || self.cache.get(key)) {
            let mut response = (*cached).clone();
            response.cache_hit = true;
            return Ok(response);
        }
        let response =
            root.time_in("compute", |span| resolved.compute(key, span, &self.metrics))?;
        // One clock: the compute histogram reads the span just finished.
        if let Some(compute) = root.last_child() {
            self.metrics.plan_compute_ns.record(compute.duration_ns);
        }
        let response = Arc::new(response);
        self.cache.insert(key, Arc::clone(&response));
        Ok((*response).clone())
    }

    /// Plans a batch of requests in parallel, preserving order.
    ///
    /// Results are deterministic and identical to calling [`Self::plan`]
    /// serially, except for the `cache_hit` flag on *duplicate* requests
    /// within one batch (which depends on scheduling).
    pub fn plan_many(&self, requests: &[PlanRequest]) -> Vec<Result<PlanResponse, EngineError>> {
        parallel::map(requests, |request| self.plan(request)).unwrap_or_else(|_| {
            // A panicked worker costs the batch typed errors, not the
            // process: the service keeps answering.
            requests
                .iter()
                .map(|_| Err(EngineError::WorkerPanicked))
                .collect()
        })
    }

    /// Cache hit/miss counters and occupancy.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// A point-in-time snapshot of the engine's metric registry: request
    /// and error counters, the in-flight gauge, search counters
    /// (refine sweeps/flips, exhaustive candidates, segments planned),
    /// and latency histograms with p50/p90/p99 summaries.
    #[must_use]
    pub fn metrics_snapshot(&self) -> RegistrySnapshot {
        self.metrics.snapshot()
    }
}

/// The pipeline view a request resolves to: the chain pipeline for flat
/// networks (and branch-free DAGs, which linearize into it), or the
/// segment decomposition for branchy DAGs.
enum Workload {
    Chain {
        shapes: NetworkShapes,
        tensors: NetworkCommTensors,
    },
    Dag(SegmentCommGraph),
}

/// A request resolved through shape inference, ready to plan.
struct Resolved {
    workload: Workload,
    cfg: ArchConfig,
    strategy: Strategy,
    assignments: Option<Vec<Vec<Parallelism>>>,
    levels: usize,
    simulate: bool,
}

impl Resolved {
    fn new(request: &PlanRequest, span: &mut SpanRecorder) -> Result<Self, EngineError> {
        if request.levels > MAX_LEVELS {
            return Err(EngineError::InvalidRequest(format!(
                "levels {} exceeds the limit of {MAX_LEVELS} (2^{MAX_LEVELS} accelerators); \
                 the service refuses workloads that cannot be simulated",
                request.levels
            )));
        }
        let mut network = resolve_network(&request.network)?;
        // A branch-free DAG *is* a chain: lower it so it flows through the
        // chain pipeline (and shares its cache entries) bit-identically.
        if let ResolvedNet::Dag(dag) = &network {
            if dag.is_chain() {
                let chain = dag
                    .linearize()
                    .map_err(|e| EngineError::InvalidNetwork(e.to_string()))?;
                network = ResolvedNet::Chain(chain);
            }
        }
        // `refine: true` is a modifier spelling of the refined strategy:
        // both resolve — and therefore fingerprint and cache — as
        // `Strategy::Refined`.
        let strategy = match (request.strategy, request.refine) {
            (strategy, false) => strategy,
            (Strategy::Hypar | Strategy::Refined, true) => Strategy::Refined,
            (other, true) => {
                return Err(EngineError::InvalidRequest(format!(
                    "`refine: true` applies to strategy `hypar` (or `refined`), not `{other}`"
                )))
            }
        };
        let (workload, assignments) = match network {
            ResolvedNet::Chain(chain) => {
                let shapes = NetworkShapes::infer(&chain, request.batch)
                    .map_err(|e| EngineError::InvalidNetwork(e.to_string()))?;
                let tensors = NetworkCommTensors::from_shapes(&shapes);
                let assignments = validate_strategy(request, tensors.len())?;
                (Workload::Chain { shapes, tensors }, assignments)
            }
            ResolvedNet::Dag(dag) => {
                let graph = span
                    .time("segment_decomposition", || dag.segments(request.batch))
                    .map_err(|e| EngineError::InvalidNetwork(e.to_string()))?;
                let assignments = validate_strategy(request, graph.num_layers())?;
                (Workload::Dag(graph), assignments)
            }
        };
        Ok(Resolved {
            workload,
            cfg: ArchConfig::paper().with_topology(request.topology),
            strategy,
            assignments,
            levels: request.levels,
            simulate: request.simulate,
        })
    }

    fn fingerprint(&self) -> Fingerprint {
        match &self.workload {
            Workload::Chain { tensors, .. } => fingerprint(
                tensors,
                self.levels,
                self.strategy,
                self.assignments.as_deref(),
                &self.cfg,
                self.simulate,
            ),
            Workload::Dag(graph) => fingerprint_dag(
                graph,
                self.levels,
                self.strategy,
                self.assignments.as_deref(),
                &self.cfg,
                self.simulate,
            ),
        }
    }

    fn compute(
        &self,
        key: Fingerprint,
        span: &mut SpanRecorder,
        metrics: &EngineMetrics,
    ) -> Result<PlanResponse, EngineError> {
        let sim_failed = |e: hypar_sim::SimError| EngineError::InvalidRequest(e.to_string());
        let (network, batch, plan, simulation) = match &self.workload {
            Workload::Chain { shapes, tensors } => {
                let plan = self.run_chain_strategy(tensors, span, metrics)?;
                let simulation = if self.simulate {
                    metrics.sim_steps.inc();
                    Some(
                        span.time("simulate", || {
                            training::simulate_step(shapes, &plan, &self.cfg)
                        })
                        .map_err(sim_failed)?,
                    )
                } else {
                    None
                };
                (tensors.name().to_owned(), tensors.batch(), plan, simulation)
            }
            Workload::Dag(graph) => {
                let plan = self.run_dag_strategy(graph, span, metrics)?;
                let simulation = if self.simulate {
                    metrics.sim_steps.inc();
                    Some(
                        span.time("simulate", || {
                            training::simulate_graph_step(graph, &plan, &self.cfg)
                        })
                        .map_err(sim_failed)?,
                    )
                } else {
                    None
                };
                (graph.name().to_owned(), graph.batch(), plan, simulation)
            }
        };
        let mut response = PlanResponse {
            network,
            batch,
            levels: self.levels,
            accelerators: plan.num_accelerators(),
            strategy: self.strategy,
            fingerprint: key.to_string(),
            state_hash: String::new(),
            cache_hit: false,
            total_comm_elems: plan.total_comm_elems(),
            total_comm_bytes: plan.total_comm_bytes().value(),
            plan,
            simulation,
            timing: None,
        };
        // Stamped once at compute time and shared by every cache hit:
        // the digest describes the content, which hits return verbatim
        // (`cache_hit`/`timing` are excluded for exactly that reason).
        response.state_hash = response.compute_state_hash();
        Ok(response)
    }

    fn run_chain_strategy(
        &self,
        net: &NetworkCommTensors,
        span: &mut SpanRecorder,
        metrics: &EngineMetrics,
    ) -> Result<HierarchicalPlan, EngineError> {
        Ok(match self.strategy {
            Strategy::Hypar => span.time("search", || hierarchical::partition(net, self.levels)),
            Strategy::Dp => span.time("search", || baselines::all_data(net, self.levels)),
            Strategy::Mp => span.time("search", || baselines::all_model(net, self.levels)),
            Strategy::Owt => span.time("search", || baselines::one_weird_trick(net, self.levels)),
            Strategy::Refined => {
                let (plan, report) = span.time_in("refine", |s| {
                    let (plan, report) = refine::refine_partition_reported(net, self.levels);
                    s.counter("sweeps", report.sweeps as u64);
                    s.counter("flips", report.flips);
                    (plan, report)
                });
                metrics.refine_sweeps.add(report.sweeps as u64);
                metrics.refine_flips.add(report.flips);
                plan
            }
            Strategy::Exhaustive => {
                // The slot guard ran at resolution, so the candidate
                // count (2^slots) fits comfortably in a u64.
                let candidates = 1u64 << (net.len() * self.levels);
                metrics.exhaustive_candidates.add(candidates);
                let (cost, levels) = span.time_in("exhaustive", |s| {
                    s.counter("candidates", candidates);
                    exhaustive::best_joint(net, self.levels)
                        .map_err(|e| EngineError::InvalidRequest(e.to_string()))
                })?;
                HierarchicalPlan::from_parts(net.name(), layer_names(net), levels, cost)
            }
            Strategy::Explicit => {
                // Resolution guarantees assignments for the explicit
                // strategy; keep the drift guard typed rather than a panic
                // a service request could reach.
                let levels = self.assignments.clone().ok_or_else(|| {
                    EngineError::InvalidRequest(
                        "strategy `explicit` lost its assignments during resolution".to_owned(),
                    )
                })?;
                let cost = span.time("evaluate", || evaluate_plan(net, &levels).total_elems());
                HierarchicalPlan::from_parts(net.name(), layer_names(net), levels, cost)
            }
        })
    }

    /// Plans a branchy DAG.  The segment-local strategies (hypar and the
    /// uniform baselines) fan their segments across the [`parallel::map`]
    /// pool — segments are independent until the stitch — while
    /// `exhaustive` runs the whole-graph joint search and `explicit`
    /// evaluates the supplied whole-graph assignment, both priced by the
    /// identical stitched model.
    fn run_dag_strategy(
        &self,
        graph: &SegmentCommGraph,
        span: &mut SpanRecorder,
        metrics: &EngineMetrics,
    ) -> Result<HierarchicalPlan, EngineError> {
        // Stitch/evaluate mismatches are typed `GraphError`s; an engine
        // whose own per-segment plans disagree with the graph is a bug,
        // but it costs the request an error JSON, never the process.
        let graph_failed = |e: hypar_graph::GraphError| EngineError::InvalidRequest(e.to_string());
        // Fans the segment-local seed planning across the pool, counted
        // and timed as one `plan_segments` span (the segments run
        // concurrently, so per-segment child spans would overlap).
        let plan_segments = |span: &mut SpanRecorder,
                             plan_one: fn(&NetworkCommTensors, usize) -> HierarchicalPlan|
         -> Result<Vec<HierarchicalPlan>, EngineError> {
            let segments = graph.segments();
            metrics.segments_planned.add(segments.len() as u64);
            span.time_in("plan_segments", |s| {
                s.counter("segments", segments.len() as u64);
                parallel::map(segments, |segment| plan_one(segment, self.levels))
                    .map_err(|_| EngineError::WorkerPanicked)
            })
        };
        let plan_one: fn(&NetworkCommTensors, usize) -> HierarchicalPlan = match self.strategy {
            Strategy::Hypar => hierarchical::partition,
            Strategy::Dp => baselines::all_data,
            Strategy::Mp => baselines::all_model,
            Strategy::Owt => baselines::one_weird_trick,
            Strategy::Refined => {
                // The junction-aware pass: stitched seed, then
                // whole-graph coordinate descent.  Segments still fan out
                // across the pool for the seed.
                let plans = plan_segments(span, hierarchical::partition)?;
                let stitched = span
                    .time("stitch", || hypar_graph::stitch(graph, &plans))
                    .map_err(graph_failed)?;
                let (refined, report) = span
                    .time_in("refine", |s| {
                        let result = hypar_graph::refine_graph_plan(graph, &stitched);
                        if let Ok((_, report)) = &result {
                            s.counter("sweeps", report.sweeps as u64);
                            s.counter("flips", report.flips);
                        }
                        result
                    })
                    .map_err(graph_failed)?;
                metrics.refine_sweeps.add(report.sweeps as u64);
                metrics.refine_flips.add(report.flips);
                return Ok(refined);
            }
            Strategy::Exhaustive => {
                // The slot guard ran at resolution, so the candidate
                // count (2^slots) fits comfortably in a u64.
                let candidates = 1u64 << (graph.num_layers() * self.levels);
                metrics.exhaustive_candidates.add(candidates);
                return span.time_in("exhaustive", |s| {
                    s.counter("candidates", candidates);
                    hypar_graph::best_joint_graph(graph, self.levels)
                        .map_err(|e| EngineError::InvalidRequest(e.to_string()))
                });
            }
            Strategy::Explicit => {
                // Resolution guarantees assignments for the explicit
                // strategy; keep the drift guard typed rather than a panic
                // a service request could reach.
                let levels = self.assignments.clone().ok_or_else(|| {
                    EngineError::InvalidRequest(
                        "strategy `explicit` lost its assignments during resolution".to_owned(),
                    )
                })?;
                let cost = span
                    .time("evaluate", || {
                        hypar_graph::evaluate_graph_plan(graph, &levels)
                    })
                    .map_err(graph_failed)?;
                return Ok(HierarchicalPlan::from_parts(
                    graph.name(),
                    graph_layer_names(graph),
                    levels,
                    cost,
                ));
            }
        };
        let plans = plan_segments(span, plan_one)?;
        span.time("stitch", || hypar_graph::stitch(graph, &plans))
            .map_err(graph_failed)
    }
}

fn layer_names(net: &NetworkCommTensors) -> Vec<String> {
    net.layers().iter().map(|l| l.name.clone()).collect()
}

/// All weighted layer names of a DAG, concatenated in canonical segment
/// order — the layout [`hypar_graph::stitch`]ed plans use.
fn graph_layer_names(graph: &SegmentCommGraph) -> Vec<String> {
    graph
        .segments()
        .iter()
        .flat_map(|s| s.layers())
        .map(|l| l.name.clone())
        .collect()
}

/// Validates the strategy-specific request options against the resolved
/// workload (shared by the chain and DAG paths): `explicit` needs parsed
/// assignments covering every weighted layer, `exhaustive` a feasible
/// `layers × levels` search space.
fn validate_strategy(
    request: &PlanRequest,
    num_layers: usize,
) -> Result<Option<Vec<Vec<Parallelism>>>, EngineError> {
    match request.strategy {
        Strategy::Explicit => Ok(Some(parse_assignments(request, num_layers)?)),
        Strategy::Exhaustive => {
            let slots = num_layers * request.levels;
            if slots > EXHAUSTIVE_SLOT_LIMIT {
                return Err(EngineError::InvalidRequest(format!(
                    "exhaustive search over {slots} slots exceeds the limit of \
                     {EXHAUSTIVE_SLOT_LIMIT} (layers x levels)"
                )));
            }
            Ok(None)
        }
        _ => Ok(None),
    }
}

/// What a [`NetworkRef`] resolves to before planning.
enum ResolvedNet {
    Chain(Network),
    Dag(DagNetwork),
}

/// Resolves a network reference.  Zoo lookups are forgiving (`"VGG-A"`,
/// `"vgg_a"`, and `"vgga"` are the same network) and fall through from
/// the paper's chain zoo to the branchy graph zoo
/// (`"resnet18"`, `"inception-mini"`).
fn resolve_network(reference: &NetworkRef) -> Result<ResolvedNet, EngineError> {
    match reference {
        NetworkRef::Zoo(name) => zoo::by_name(name)
            .map(ResolvedNet::Chain)
            .or_else(|| graph_zoo::by_name(name).map(ResolvedNet::Dag))
            .ok_or_else(|| EngineError::UnknownNetwork(name.clone())),
        NetworkRef::Custom(custom) => build_custom(custom).map(ResolvedNet::Chain),
        NetworkRef::Graph(graph) => build_graph(graph).map(ResolvedNet::Dag),
    }
}

/// Converts the layer fields shared by [`crate::LayerSpec`] and
/// [`crate::GraphNodeSpec`] into a [`Layer`], rejecting fields that do not
/// apply to the kind.  The error carries no position — callers prefix
/// their own layer/node context.
fn build_layer(
    name: &str,
    kind: &str,
    out: u64,
    kernel: Option<u64>,
    stride: Option<u64>,
    padding: Option<u64>,
    pool: Option<u64>,
) -> Result<Layer, String> {
    let mut layer = match kind {
        "conv" => {
            let kernel = kernel.ok_or_else(|| "conv needs a `kernel`".to_owned())?;
            if kernel == 0 {
                return Err("kernel must be positive".to_owned());
            }
            Layer::conv(
                name,
                ConvSpec {
                    out_channels: out,
                    kernel,
                    stride: stride.unwrap_or(1),
                    padding: padding.unwrap_or((kernel - 1) / 2),
                },
            )
        }
        "fc" => {
            if kernel.is_some() || stride.is_some() || padding.is_some() {
                return Err("`kernel`/`stride`/`padding` do not apply to fc".to_owned());
            }
            Layer::fully_connected(name, out)
        }
        other => return Err(format!("unknown kind `{other}` (expected conv|fc)")),
    };
    if let Some(window) = pool {
        layer = layer.with_pool(PoolSpec {
            size: window,
            stride: window,
            kind: PoolKind::Max,
        });
    }
    Ok(layer)
}

fn build_custom(custom: &CustomNetwork) -> Result<Network, EngineError> {
    let invalid = |msg: String| EngineError::InvalidNetwork(msg);
    let input = build_input(&custom.input)?;
    let name = custom.name.clone().unwrap_or_else(|| "custom".to_owned());
    let mut builder = Network::builder(name, input);
    for (index, spec) in custom.layers.iter().enumerate() {
        let name = spec
            .name
            .clone()
            .unwrap_or_else(|| format!("{}{}", spec.kind, index + 1));
        let layer = build_layer(
            &name,
            &spec.kind,
            spec.out,
            spec.kernel,
            spec.stride,
            spec.padding,
            spec.pool,
        )
        .map_err(|msg| invalid(format!("layer {index}: {msg}")))?;
        builder.layer(layer);
    }
    builder.build().map_err(|e| invalid(e.to_string()))
}

/// Validates untrusted input dimensions before handing them to
/// [`FeatureDims::new`] (which panics on zero).
fn build_input(input: &crate::request::InputSpec) -> Result<FeatureDims, EngineError> {
    if input.channels == 0 || input.height == 0 || input.width == 0 {
        return Err(EngineError::InvalidNetwork(
            "input dimensions must be positive".to_owned(),
        ));
    }
    Ok(FeatureDims::new(input.channels, input.height, input.width))
}

/// Builds a validated [`DagNetwork`] from an inline [`GraphSpec`].
fn build_graph(spec: &GraphSpec) -> Result<DagNetwork, EngineError> {
    let invalid = |msg: String| EngineError::InvalidNetwork(msg);
    let input = build_input(&spec.input)?;
    let name = spec.name.clone().unwrap_or_else(|| "graph".to_owned());
    let mut builder = hypar_graph::GraphBuilder::new(name, input);
    let mut previous: Option<String> = None;
    for (index, node) in spec.nodes.iter().enumerate() {
        let inputs: Vec<String> = match &node.inputs {
            Some(list) => list.clone(),
            None => vec![previous
                .clone()
                .unwrap_or_else(|| hypar_graph::INPUT.to_owned())],
        };
        let context = |msg: String| invalid(format!("node {index} (`{}`): {msg}", node.name));
        match node.kind.as_str() {
            "conv" | "fc" => {
                let [from] = inputs.as_slice() else {
                    return Err(context(format!(
                        "layer nodes take exactly one input, got {}",
                        inputs.len()
                    )));
                };
                let out = node
                    .out
                    .ok_or_else(|| context(format!("`{}` needs `out`", node.kind)))?;
                let layer = build_layer(
                    &node.name,
                    &node.kind,
                    out,
                    node.kernel,
                    node.stride,
                    node.padding,
                    node.pool,
                )
                .map_err(context)?;
                builder.layer(layer, from.clone());
            }
            "add" | "concat" => {
                if node.out.is_some()
                    || node.kernel.is_some()
                    || node.stride.is_some()
                    || node.padding.is_some()
                    || node.pool.is_some()
                {
                    return Err(context(format!(
                        "`out`/`kernel`/`stride`/`padding`/`pool` do not apply to `{}` nodes",
                        node.kind
                    )));
                }
                let refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
                if node.kind == "add" {
                    builder.add(&node.name, &refs);
                } else {
                    builder.concat(&node.name, &refs);
                }
            }
            other => {
                return Err(context(format!(
                    "unknown kind `{other}` (expected conv|fc|add|concat)"
                )))
            }
        }
        previous = Some(node.name.clone());
    }
    builder.build().map_err(|e| invalid(e.to_string()))
}

fn parse_assignments(
    request: &PlanRequest,
    num_layers: usize,
) -> Result<Vec<Vec<Parallelism>>, EngineError> {
    let bits = request.assignments.as_ref().ok_or_else(|| {
        EngineError::InvalidRequest(
            "strategy `explicit` needs `assignments` (one dp/mp bit string per level)".to_owned(),
        )
    })?;
    if bits.len() != request.levels {
        return Err(EngineError::InvalidRequest(format!(
            "got {} assignment strings for {} levels",
            bits.len(),
            request.levels
        )));
    }
    bits.iter()
        .enumerate()
        .map(|(h, level)| {
            if level.len() != num_layers {
                return Err(EngineError::InvalidRequest(format!(
                    "level {h} assignment `{level}` must cover {num_layers} layers"
                )));
            }
            level
                .chars()
                .map(|c| match c {
                    '0' => Ok(Parallelism::Data),
                    '1' => Ok(Parallelism::Model),
                    other => Err(EngineError::InvalidRequest(format!(
                        "level {h}: invalid assignment character `{other}` (expected 0 or 1)"
                    ))),
                })
                .collect()
        })
        .collect()
}
