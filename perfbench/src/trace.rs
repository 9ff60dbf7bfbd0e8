//! The traced pass: the service path composed from each layer's public
//! functions, with a span around every layer call.
//!
//! [`Composer::handle`] does what `service::handle_line` does for a
//! zoo-network request, one public call at a time: parse, decode,
//! resolve, fingerprint, cache lookup, search / refine / stitch /
//! exhaustive, simulate, state hash, cache insert, record, serialize.
//! Inline networks are built by engine-private code, so for them the
//! whole of `PlanEngine::plan` is one `engine.plan` span.  The pass
//! checks that every composed reply carries the `state_hash` the real
//! service returned for the same line.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use hypar_comm::{NetworkCommTensors, Parallelism};
use hypar_core::{baselines, evaluate, exhaustive, hierarchical, refine, HierarchicalPlan};
use hypar_engine::cache::PlanCache;
use hypar_engine::fingerprint::{fingerprint, fingerprint_dag, Fingerprint};
use hypar_engine::{
    parallel, EngineError, NetworkRef, PlanEngine, PlanRequest, PlanResponse, Recorder, Strategy,
};
use hypar_graph::SegmentCommGraph;
use hypar_models::NetworkShapes;
use hypar_sim::{training, ArchConfig};
use serde::Value;

/// Engine limit on `levels`.
const MAX_LEVELS: usize = 16;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    /// The request the span belongs to (its index in the measured phase).
    pub req: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans and counters, kept in memory until the pass ends.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    /// Work counts recorded at the same layer boundaries.
    pub counts: BTreeMap<&'static str, f64>,
    req: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
            req: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Drops everything recorded so far (the set-up lines).
    pub fn clear(&mut self) {
        self.spans.clear();
        self.counts.clear();
    }

    /// Opens a root span for request `req`; returns its id.
    pub fn open(&mut self, name: &'static str, req: u32) -> u32 {
        self.req = req;
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: 0,
            req,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes the span `id`.
    pub fn close(&mut self, id: u32) {
        let end = self.now_ns();
        self.spans[id as usize - 1].end_ns = end;
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn leaf<R>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            req: self.req,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Adds `by` to counter `name`.
    pub fn count(&mut self, name: &'static str, by: f64) {
        *self.counts.entry(name).or_insert(0.0) += by;
    }
}

/// A request resolved the way the engine resolves it.
pub struct Resolved {
    workload: Workload,
    cfg: ArchConfig,
    strategy: Strategy,
    assignments: Option<Vec<Vec<Parallelism>>>,
    levels: usize,
    simulate: bool,
}

enum Workload {
    Chain {
        shapes: NetworkShapes,
        tensors: NetworkCommTensors,
    },
    Dag(SegmentCommGraph),
}

fn invalid(msg: impl Into<String>) -> EngineError {
    EngineError::InvalidRequest(msg.into())
}

/// Resolves a zoo-network request: zoo lookup, shape inference, comm
/// tensors or the segment decomposition, and the strategy options.
/// `None` for inline networks, which only the engine can build.
pub fn resolve(request: &PlanRequest) -> Option<Result<Resolved, EngineError>> {
    let NetworkRef::Zoo(name) = &request.network else {
        return None;
    };
    Some(resolve_zoo(request, name))
}

fn resolve_zoo(request: &PlanRequest, name: &str) -> Result<Resolved, EngineError> {
    if request.levels > MAX_LEVELS {
        return Err(invalid(format!("levels {} over the limit", request.levels)));
    }
    let chain = match hypar_models::zoo::by_name(name) {
        Some(chain) => Some(chain),
        None => {
            let dag = hypar_graph::zoo::by_name(name)
                .ok_or_else(|| EngineError::UnknownNetwork(name.to_owned()))?;
            if dag.is_chain() {
                Some(dag.linearize().map_err(|e| invalid(e.to_string()))?)
            } else {
                let graph = dag
                    .segments(request.batch)
                    .map_err(|e| EngineError::InvalidNetwork(e.to_string()))?;
                return finish_resolve(request, Workload::Dag(graph));
            }
        }
    };
    let chain = chain.ok_or_else(|| EngineError::UnknownNetwork(name.to_owned()))?;
    let shapes = NetworkShapes::infer(&chain, request.batch)
        .map_err(|e| EngineError::InvalidNetwork(e.to_string()))?;
    let tensors = NetworkCommTensors::from_shapes(&shapes);
    finish_resolve(request, Workload::Chain { shapes, tensors })
}

fn finish_resolve(request: &PlanRequest, workload: Workload) -> Result<Resolved, EngineError> {
    let strategy = match (request.strategy, request.refine) {
        (strategy, false) => strategy,
        (Strategy::Hypar | Strategy::Refined, true) => Strategy::Refined,
        (other, true) => return Err(invalid(format!("`refine: true` with `{other}`"))),
    };
    let num_layers = match &workload {
        Workload::Chain { tensors, .. } => tensors.len(),
        Workload::Dag(graph) => graph.num_layers(),
    };
    let assignments = match request.strategy {
        Strategy::Explicit => Some(parse_assignments(request, num_layers)?),
        Strategy::Exhaustive if num_layers * request.levels > exhaustive::SLOT_LIMIT => {
            return Err(invalid("exhaustive search over the slot limit"));
        }
        _ => None,
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

fn parse_assignments(
    request: &PlanRequest,
    num_layers: usize,
) -> Result<Vec<Vec<Parallelism>>, EngineError> {
    let bits = request
        .assignments
        .as_ref()
        .ok_or_else(|| invalid("`explicit` needs `assignments`"))?;
    if bits.len() != request.levels {
        return Err(invalid("one assignment string per level"));
    }
    bits.iter()
        .map(|level| {
            if level.len() != num_layers {
                return Err(invalid("an assignment must cover every layer"));
            }
            level
                .chars()
                .map(|c| match c {
                    '0' => Ok(Parallelism::Data),
                    '1' => Ok(Parallelism::Model),
                    _ => Err(invalid("assignment bits are 0 or 1")),
                })
                .collect()
        })
        .collect()
}

impl Resolved {
    /// The cache key, as the engine computes it.
    pub fn fingerprint(&self) -> Fingerprint {
        let assignments = self.assignments.as_deref();
        match &self.workload {
            Workload::Chain { tensors, .. } => fingerprint(
                tensors,
                self.levels,
                self.strategy,
                assignments,
                &self.cfg,
                self.simulate,
            ),
            Workload::Dag(graph) => fingerprint_dag(
                graph,
                self.levels,
                self.strategy,
                assignments,
                &self.cfg,
                self.simulate,
            ),
        }
    }
}

/// The traced composition's own engine state: a plan cache (and, for
/// inline networks, an engine) mirroring the service's.
pub struct Composer {
    cache: PlanCache,
    engine: PlanEngine,
    recorder: Option<Recorder>,
}

/// What one composed line produced.
pub struct Composed {
    pub reply: String,
    pub state_hash: Option<String>,
}

impl Composer {
    pub fn new(recorder: Option<Recorder>) -> Self {
        Composer {
            cache: PlanCache::new(PlanEngine::DEFAULT_CACHE_CAPACITY),
            engine: PlanEngine::new(),
            recorder,
        }
    }

    /// Handles one request line under a root span `request`.
    pub fn handle(&self, tr: &mut Tracer, line: &str, req: u32) -> Composed {
        let root = tr.open("request", req);
        tr.count("json.bytes_in", line.len() as f64);
        let composed = self.handle_in(tr, root, line);
        tr.close(root);
        tr.count("json.bytes_out", composed.reply.len() as f64);
        composed
    }

    fn handle_in(&self, tr: &mut Tracer, root: u32, line: &str) -> Composed {
        let error = |msg: String| Composed {
            reply: format!("{{\"error\":{msg:?}}}"),
            state_hash: None,
        };
        let value: Value = match tr.leaf("json.parse", root, || serde_json::from_str(line)) {
            Ok(v) => v,
            Err(e) => return error(format!("invalid JSON: {e}")),
        };
        // `handle_line` looks for the admin commands before decoding.
        let decoded = tr.leaf("request.decode", root, || {
            let admin = value.get("stats").is_some() || value.get("cmd").is_some();
            (!admin).then(|| serde_json::from_value::<PlanRequest>(&value))
        });
        let request = match decoded {
            Some(Ok(r)) => r,
            Some(Err(e)) => return error(format!("invalid request: {e}")),
            None => return error("admin commands are not traced".to_owned()),
        };
        let outcome = match resolve_traced(tr, root, &request) {
            Some(resolved) => resolved.and_then(|r| self.plan(tr, root, &r)),
            None => tr.leaf("engine.plan", root, || self.engine.plan(&request)),
        };
        if let Some(recorder) = &self.recorder {
            let written = tr.leaf("record", root, || {
                recorder.record_outcome(&request, &outcome)
            });
            if let Err(e) = written {
                return error(format!("record write failed: {e}"));
            }
        }
        match outcome {
            Ok(response) => {
                let state_hash = response.state_hash.clone();
                match tr.leaf("json.serialize", root, || serde_json::to_string(&response)) {
                    Ok(reply) => Composed {
                        reply,
                        state_hash: Some(state_hash),
                    },
                    Err(e) => error(e.to_string()),
                }
            }
            Err(e) => error(e.to_string()),
        }
    }

    /// `PlanEngine::plan` for a resolved request, layer by layer.
    fn plan(
        &self,
        tr: &mut Tracer,
        root: u32,
        resolved: &Resolved,
    ) -> Result<PlanResponse, EngineError> {
        let key = tr.leaf("fingerprint", root, || resolved.fingerprint());
        if let Some(cached) = tr.leaf("cache.get", root, || self.cache.get(key)) {
            let mut response = (*cached).clone();
            response.cache_hit = true;
            return Ok(response);
        }
        let (network, batch, plan, simulation) = match &resolved.workload {
            Workload::Chain { shapes, tensors } => {
                let plan = chain_strategy(tr, root, resolved, tensors)?;
                let simulation = if resolved.simulate {
                    let report = tr
                        .leaf("sim", root, || {
                            training::simulate_step(shapes, &plan, &resolved.cfg)
                        })
                        .map_err(|e| invalid(e.to_string()))?;
                    Some(report)
                } else {
                    None
                };
                (tensors.name().to_owned(), tensors.batch(), plan, simulation)
            }
            Workload::Dag(graph) => {
                let plan = dag_strategy(tr, root, resolved, graph)?;
                let simulation = if resolved.simulate {
                    let report = tr
                        .leaf("sim", root, || {
                            training::simulate_graph_step(graph, &plan, &resolved.cfg)
                        })
                        .map_err(|e| invalid(e.to_string()))?;
                    Some(report)
                } else {
                    None
                };
                (graph.name().to_owned(), graph.batch(), plan, simulation)
            }
        };
        if let Some(report) = &simulation {
            tr.count("sim.des_tasks", report.trace_summary.tasks as f64);
            tr.count("sim.step_time_ms", report.step_time.value() * 1e3);
            tr.count("sim.steps", 1.0);
        }
        let mut response = PlanResponse {
            network,
            batch,
            levels: resolved.levels,
            accelerators: plan.num_accelerators(),
            strategy: resolved.strategy,
            fingerprint: key.to_string(),
            state_hash: String::new(),
            cache_hit: false,
            total_comm_elems: plan.total_comm_elems(),
            total_comm_bytes: plan.total_comm_bytes().value(),
            plan,
            simulation,
            timing: None,
        };
        response.state_hash = tr.leaf("statehash", root, || response.compute_state_hash());
        let response = Arc::new(response);
        tr.leaf("cache.insert", root, || {
            self.cache.insert(key, Arc::clone(&response))
        });
        Ok((*response).clone())
    }
}

fn resolve_traced(
    tr: &mut Tracer,
    root: u32,
    request: &PlanRequest,
) -> Option<Result<Resolved, EngineError>> {
    if !matches!(request.network, NetworkRef::Zoo(_)) {
        return None;
    }
    let resolved = tr.leaf("resolve", root, || resolve(request))?;
    if let Ok(Resolved {
        workload: Workload::Dag(graph),
        ..
    }) = &resolved
    {
        tr.count("resolve.segments", graph.num_segments() as f64);
    }
    Some(resolved)
}

fn layer_names(net: &NetworkCommTensors) -> Vec<String> {
    net.layers().iter().map(|l| l.name.clone()).collect()
}

/// Counts a refine pass: sweeps, accepted flips, and bit flips tried
/// (sweeps x `slots`, the layers x levels each sweep visits).
fn refine_counts(
    tr: &mut Tracer,
    [sweeps, flips, tries]: [&'static str; 3],
    report: &refine::DescentReport,
    slots: usize,
) {
    tr.count(sweeps, report.sweeps as f64);
    tr.count(flips, report.flips as f64);
    tr.count(tries, (report.sweeps * slots) as f64);
}

const CORE_REFINE: [&str; 3] = [
    "core.refine.sweeps",
    "core.refine.flips",
    "core.refine.tries",
];
const GRAPH_REFINE: [&str; 3] = [
    "graph.refine.sweeps",
    "graph.refine.flips",
    "graph.refine.tries",
];

fn chain_strategy(
    tr: &mut Tracer,
    root: u32,
    resolved: &Resolved,
    net: &NetworkCommTensors,
) -> Result<HierarchicalPlan, EngineError> {
    let levels = resolved.levels;
    Ok(match resolved.strategy {
        Strategy::Hypar => tr.leaf("core.search", root, || hierarchical::partition(net, levels)),
        Strategy::Dp => tr.leaf("core.search", root, || baselines::all_data(net, levels)),
        Strategy::Mp => tr.leaf("core.search", root, || baselines::all_model(net, levels)),
        Strategy::Owt => tr.leaf("core.search", root, || {
            baselines::one_weird_trick(net, levels)
        }),
        Strategy::Refined => {
            let (plan, report) = tr.leaf("core.refine", root, || {
                refine::refine_partition_reported(net, levels)
            });
            refine_counts(tr, CORE_REFINE, &report, net.len() * levels);
            plan
        }
        Strategy::Exhaustive => {
            tr.count(
                "exhaustive.candidates",
                (1u64 << (net.len() * levels)) as f64,
            );
            let (cost, bits) = tr
                .leaf("core.exhaustive", root, || {
                    exhaustive::best_joint(net, levels)
                })
                .map_err(|e| invalid(e.to_string()))?;
            HierarchicalPlan::from_parts(net.name(), layer_names(net), bits, cost)
        }
        Strategy::Explicit => {
            let bits = resolved
                .assignments
                .clone()
                .ok_or_else(|| invalid("explicit without assignments"))?;
            let cost = tr.leaf("core.evaluate", root, || {
                evaluate::evaluate_plan(net, &bits).total_elems()
            });
            HierarchicalPlan::from_parts(net.name(), layer_names(net), bits, cost)
        }
    })
}

fn dag_strategy(
    tr: &mut Tracer,
    root: u32,
    resolved: &Resolved,
    graph: &SegmentCommGraph,
) -> Result<HierarchicalPlan, EngineError> {
    let levels = resolved.levels;
    let graph_failed = |e: hypar_graph::GraphError| invalid(e.to_string());
    let plan_one: fn(&NetworkCommTensors, usize) -> HierarchicalPlan = match resolved.strategy {
        Strategy::Hypar | Strategy::Refined => hierarchical::partition,
        Strategy::Dp => baselines::all_data,
        Strategy::Mp => baselines::all_model,
        Strategy::Owt => baselines::one_weird_trick,
        Strategy::Exhaustive => {
            let candidates = 1u64 << (graph.num_layers() * levels);
            tr.count("exhaustive.candidates", candidates as f64);
            return tr
                .leaf("graph.exhaustive", root, || {
                    hypar_graph::best_joint_graph(graph, levels)
                })
                .map_err(|e| invalid(e.to_string()));
        }
        Strategy::Explicit => {
            let bits = resolved
                .assignments
                .clone()
                .ok_or_else(|| invalid("explicit without assignments"))?;
            let cost = tr
                .leaf("core.evaluate", root, || {
                    hypar_graph::evaluate_graph_plan(graph, &bits)
                })
                .map_err(graph_failed)?;
            let names = graph
                .segments()
                .iter()
                .flat_map(|s| s.layers())
                .map(|l| l.name.clone())
                .collect();
            return Ok(HierarchicalPlan::from_parts(
                graph.name(),
                names,
                bits,
                cost,
            ));
        }
    };
    let segments = graph.segments();
    tr.count("graph.segments", segments.len() as f64);
    let plans = tr
        .leaf("graph.plan_segments", root, || {
            parallel::map(segments, |segment| plan_one(segment, levels))
        })
        .map_err(|_| EngineError::WorkerPanicked)?;
    let stitched = tr
        .leaf("graph.stitch", root, || hypar_graph::stitch(graph, &plans))
        .map_err(graph_failed)?;
    if resolved.strategy != Strategy::Refined {
        return Ok(stitched);
    }
    let (refined, report) = tr
        .leaf("graph.refine", root, || {
            hypar_graph::refine_graph_plan(graph, &stitched)
        })
        .map_err(graph_failed)?;
    refine_counts(tr, GRAPH_REFINE, &report, graph.num_layers() * levels);
    Ok(refined)
}
