//! Builds and runs the task graph of one synchronous training step.
//!
//! One step processes a mini-batch through forward propagation, error
//! backward propagation, gradient computation, and weight update (paper
//! §2.1, Equations 1–3), on every accelerator of the array.  The
//! parallelism plan injects communication:
//!
//! * **mp output reductions** — a layer in model parallelism produces
//!   full-width partial sums of `F_{l+1}` that the two groups of each mp
//!   level exchange before the next layer (Table 1);
//! * **junction redistributions** — adjacent layers with mismatched
//!   layouts exchange slices of `F_{l+1}` during forward and `E_{l+1}`
//!   during backward (Table 2);
//! * **dp gradient all-reduces** — a layer in data parallelism exchanges
//!   gradient partial sums before updating its replicated kernels
//!   (Table 1).
//!
//! Chain networks run through [`simulate_step`].  Branchy DAGs run through
//! [`simulate_graph_step`] on their [`SegmentCommGraph`] decomposition:
//! every segment is the same chain schedule, and each
//! [`hypar_graph::SegmentEdge`] junction adds **branch forwarding** tasks
//! (the producing segment's `F` tensor fans out to each consumer before
//! its forward pass), **join gradient accumulation** tasks (the error
//! `E` flows back along every in-edge of an `add`/`concat` before the
//! producing segment's backward pass), and — when
//! [`crate::ArchConfig::join_compute`] is enabled — a **join compute**
//! stage charging the element-wise accumulation/gather work of
//! materializing the joined tensor.  A branch-free DAG is one segment
//! with no edges, so its schedule — and therefore its [`StepReport`] — is
//! bit-identical to the linearized chain's.  All junction tensors (chain
//! and inter-segment alike) are scoped by the configured
//! [`hypar_comm::JunctionScaling`] interpretation, consumer layout by
//! default.
//!
//! With `overlap_comm = false` (the paper's setting) the step executes as
//! a strict sequence of stages separated by barriers; with `true`, tasks
//! are ordered only by their data dependencies, letting e.g. a gradient
//! all-reduce hide underneath the remaining backward pass — and, on a
//! branchy DAG, letting independent branches genuinely overlap.

use hypar_comm::{
    inter_split, intra_elems, junction_scale_between, LayerScale, NetworkCommTensors, Parallelism,
    ScaleState,
};
use hypar_core::HierarchicalPlan;
use hypar_graph::{SegmentCommGraph, SegmentEdge};
use hypar_models::NetworkShapes;
use hypar_tensor::{Bytes, Joules, Seconds};

use crate::des::{Engine, ResourceId, TaskId, TaskSpec};
use crate::pe::Mapping;
use crate::{ArchConfig, SimError, StepReport};

/// Simulates one training step of `shapes` under `plan` on the array
/// described by `cfg`.
///
/// # Errors
///
/// Returns [`SimError::LayerCountMismatch`] if the plan's layer count does
/// not match the network's.
///
/// # Examples
///
/// ```
/// use hypar_comm::NetworkCommTensors;
/// use hypar_core::baselines;
/// use hypar_models::{zoo, NetworkShapes};
/// use hypar_sim::{training, ArchConfig};
///
/// let shapes = NetworkShapes::infer(&zoo::sconv(), 256)?;
/// let net = NetworkCommTensors::from_shapes(&shapes);
/// let report =
///     training::simulate_step(&shapes, &baselines::all_data(&net, 4), &ArchConfig::paper())
///         .unwrap();
/// assert!(report.step_time.value() > 0.0);
/// assert_eq!(report.num_accelerators, 16);
/// # Ok::<(), hypar_models::NetworkError>(())
/// ```
pub fn simulate_step(
    shapes: &NetworkShapes,
    plan: &HierarchicalPlan,
    cfg: &ArchConfig,
) -> Result<StepReport, SimError> {
    Ok(chain_builder(shapes, plan, cfg, false)?.run().0)
}

/// Like [`simulate_step`], additionally returning the executed schedule as
/// a Chrome trace (see [`crate::des::Schedule::chrome_trace`]) for
/// visualization in `chrome://tracing` or Perfetto.
///
/// # Errors
///
/// Same as [`simulate_step`].
pub fn simulate_step_traced(
    shapes: &NetworkShapes,
    plan: &HierarchicalPlan,
    cfg: &ArchConfig,
) -> Result<(StepReport, String), SimError> {
    let (report, trace) = chain_builder(shapes, plan, cfg, true)?.run();
    Ok((report, trace.unwrap_or_default()))
}

/// Simulates one training step of a whole branchy DAG: the segment
/// decomposition `graph` under the stitched whole-model `plan` (one
/// dp/mp choice per weighted layer per level, segments concatenated in
/// canonical order, as produced by [`hypar_graph::partition_graph`] or
/// [`hypar_graph::stitch`]).
///
/// Each segment executes the identical chain schedule; the inter-segment
/// junctions add branch-forwarding `F` transfers before each consumer's
/// forward pass and join-gradient-accumulation `E` transfers before each
/// producer's backward pass, priced level by level exactly as
/// [`hypar_graph::inter_segment_elems`] prices them — so the report's
/// `comm_bytes` matches the stitched plan's analytic total.
///
/// # Errors
///
/// Returns [`SimError::LayerCountMismatch`] if the plan does not cover
/// exactly the graph's weighted layers.
///
/// # Examples
///
/// ```
/// use hypar_graph::{partition_graph, zoo};
/// use hypar_sim::{training, ArchConfig};
///
/// let graph = zoo::inception_mini().segments(128)?;
/// let plan = partition_graph(&graph, 4).unwrap();
/// let report = training::simulate_graph_step(&graph, &plan, &ArchConfig::paper()).unwrap();
/// assert!(report.step_time.value() > 0.0);
/// assert_eq!(report.num_accelerators, 16);
/// # Ok::<(), hypar_graph::GraphError>(())
/// ```
pub fn simulate_graph_step(
    graph: &SegmentCommGraph,
    plan: &HierarchicalPlan,
    cfg: &ArchConfig,
) -> Result<StepReport, SimError> {
    Ok(graph_builder(graph, plan, cfg, false)?.run().0)
}

/// Like [`simulate_graph_step`], additionally returning the executed
/// schedule as a Chrome trace.
///
/// # Errors
///
/// Same as [`simulate_graph_step`].
pub fn simulate_graph_step_traced(
    graph: &SegmentCommGraph,
    plan: &HierarchicalPlan,
    cfg: &ArchConfig,
) -> Result<(StepReport, String), SimError> {
    let (report, trace) = graph_builder(graph, plan, cfg, true)?.run();
    Ok((report, trace.unwrap_or_default()))
}

/// Simulates one training step on a **single** accelerator (an empty
/// hierarchy) — the normalization baseline of the paper's Figure 11.
///
/// # Errors
///
/// Propagates any [`SimError`] from the underlying simulation rather
/// than unwinding: the service must never pay for a malformed workload
/// with a worker thread.
pub fn simulate_single_accelerator(
    shapes: &NetworkShapes,
    cfg: &ArchConfig,
) -> Result<StepReport, SimError> {
    let plan = HierarchicalPlan::from_parts(
        shapes.name(),
        shapes.layers().iter().map(|l| l.name.clone()).collect(),
        Vec::new(),
        0.0,
    );
    simulate_step(shapes, &plan, cfg)
}

/// Validates and assembles the single-segment (chain) builder.
fn chain_builder<'a>(
    shapes: &'a NetworkShapes,
    plan: &HierarchicalPlan,
    cfg: &'a ArchConfig,
    trace: bool,
) -> Result<Builder<'a>, SimError> {
    if plan.num_layers() != shapes.len() {
        return Err(SimError::LayerCountMismatch {
            plan_layers: plan.num_layers(),
            network_layers: shapes.len(),
        });
    }
    let seg = Seg::new(
        shapes,
        NetworkCommTensors::from_shapes(shapes),
        plan.clone(),
    );
    Ok(Builder::new(
        vec![seg],
        Vec::new(),
        plan.num_levels(),
        cfg,
        trace,
    ))
}

/// Validates the stitched plan against the graph, splits it back into
/// per-segment sub-plans, and assembles the multi-segment builder.
fn graph_builder<'a>(
    graph: &'a SegmentCommGraph,
    plan: &HierarchicalPlan,
    cfg: &'a ArchConfig,
    trace: bool,
) -> Result<Builder<'a>, SimError> {
    if plan.num_layers() != graph.num_layers() {
        return Err(SimError::LayerCountMismatch {
            plan_layers: plan.num_layers(),
            network_layers: graph.num_layers(),
        });
    }
    let mut segs = Vec::with_capacity(graph.num_segments());
    let mut offset = 0;
    for (s, tensors) in graph.segments().iter().enumerate() {
        let len = tensors.len();
        let levels: Vec<Vec<Parallelism>> = plan
            .levels()
            .iter()
            .map(|level| level[offset..offset + len].to_vec())
            .collect();
        let names = plan.layer_names()[offset..offset + len].to_vec();
        // The sub-plan total is never read — the simulator re-derives all
        // traffic from the per-level choices.
        let sub = HierarchicalPlan::from_parts(tensors.name(), names, levels, 0.0);
        segs.push(Seg::new(graph.segment_shapes(s), tensors.clone(), sub));
        offset += len;
    }
    Ok(Builder::new(
        segs,
        graph.edges().to_vec(),
        plan.num_levels(),
        cfg,
        trace,
    ))
}

/// One chain segment's planning context inside a step simulation.  A chain
/// network is exactly one `Seg`; a DAG is one per decomposed segment.
struct Seg<'a> {
    shapes: &'a NetworkShapes,
    net: NetworkCommTensors,
    plan: HierarchicalPlan,
    /// Scale state *above* each level (index `h`), plus the leaf state at
    /// index `H`.
    scales_at: Vec<ScaleState>,
}

impl<'a> Seg<'a> {
    fn new(shapes: &'a NetworkShapes, net: NetworkCommTensors, plan: HierarchicalPlan) -> Self {
        let mut scales_at = Vec::with_capacity(plan.num_levels() + 1);
        let mut s = ScaleState::identity(net.len());
        scales_at.push(s.clone());
        for level in plan.levels() {
            s = s.descend(level);
            scales_at.push(s.clone());
        }
        Self {
            shapes,
            net,
            plan,
            scales_at,
        }
    }

    fn len(&self) -> usize {
        self.net.len()
    }

    fn leaf(&self, l: usize) -> LayerScale {
        self.scales_at[self.plan.num_levels()].layer(l)
    }
}

/// Incrementally assembles the step's task graph over one or more chain
/// segments joined by junction edges.
struct Builder<'a> {
    segs: Vec<Seg<'a>>,
    edges: Vec<SegmentEdge>,
    num_levels: usize,
    cfg: &'a ArchConfig,
    engine: Engine,
    accels: Vec<ResourceId>,
    /// `links[h][p]`: the pair-`p` channel at hierarchy level `h`.
    links: Vec<Vec<ResourceId>>,
    barrier_res: ResourceId,
    /// Whether to label tasks for trace export.
    trace: bool,
    // Accounting.
    compute_energy: Joules,
    dram_energy: Joules,
    link_energy: Joules,
    comm_bytes_per_level: Vec<f64>,
    dram_bytes: f64,
}

impl<'a> Builder<'a> {
    fn new(
        segs: Vec<Seg<'a>>,
        edges: Vec<SegmentEdge>,
        num_levels: usize,
        cfg: &'a ArchConfig,
        trace: bool,
    ) -> Self {
        let n = 1usize << num_levels;
        let mut engine = Engine::new();
        let accels = (0..n)
            .map(|i| engine.add_resource(format!("accel{i}")))
            .collect();
        let links = (0..num_levels)
            .map(|h| {
                (0..(1usize << h))
                    .map(|p| engine.add_resource(format!("link{h}.{p}")))
                    .collect()
            })
            .collect();
        let barrier_res = engine.add_resource("barrier");

        Self {
            segs,
            edges,
            num_levels,
            cfg,
            engine,
            accels,
            links,
            barrier_res,
            trace,
            compute_energy: Joules::ZERO,
            dram_energy: Joules::ZERO,
            link_energy: Joules::ZERO,
            comm_bytes_per_level: vec![0.0; num_levels],
            dram_bytes: 0.0,
        }
    }

    fn num_accels(&self) -> usize {
        self.accels.len()
    }

    /// A zero-duration join of `deps` on the dedicated barrier resource.
    fn barrier(&mut self, deps: &[TaskId]) -> TaskId {
        self.engine
            .add_task(TaskSpec::new(self.barrier_res, Seconds(0.0)).after_all(deps.iter().copied()))
    }

    /// The row-stationary mapping for segment `s` layer `l`'s
    /// per-accelerator slice, when the detailed PE model is enabled.
    fn layer_mapping(&self, s: usize, l: usize) -> Option<Mapping> {
        if !self.cfg.detailed_pe {
            return None;
        }
        let shape = self.segs[s].shapes.layer(l);
        let leaf = self.segs[s].leaf(l);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a fraction in (0, 1] of a u64 count rounds up to at most that count"
        )]
        let scaled = |v: u64, frac: f64| ((v as f64 * frac).ceil() as u64).max(1);
        let batch = scaled(shape.batch, leaf.batch_fraction().value());
        Some(if shape.is_conv {
            self.cfg.pe_array.map_conv(
                shape.kernel_extent,
                scaled(shape.input.channels, leaf.input_fraction().value()),
                shape.conv_out.channels,
                shape.conv_out.height,
                shape.conv_out.width,
                batch,
            )
        } else {
            self.cfg.pe_array.map_fc(
                scaled(shape.input.volume(), leaf.input_fraction().value()),
                shape.conv_out.channels,
                batch,
            )
        })
    }

    /// One compute phase replicated on every accelerator.
    fn compute_stage(
        &mut self,
        macs_total: f64,
        elementwise_total: f64,
        dram_bytes_per_accel: f64,
        mapping: Option<Mapping>,
        label: &str,
        deps: &[TaskId],
    ) -> Vec<TaskId> {
        let n = self.num_accels() as f64;
        let macs = macs_total / n;
        let elementwise = elementwise_total / n;
        let compute_time = match mapping {
            Some(m) => {
                // Row-stationary mapping: the PE grid runs at its mapped
                // utilization; element-wise work proceeds at peak.
                let pus = f64::from(self.cfg.pus_per_accelerator);
                let eff = self.cfg.pe_array.peak_macs_per_sec() * m.utilization * pus;
                macs / eff + elementwise / self.cfg.node_ops_per_sec()
            }
            None => (2.0 * macs + elementwise) / self.cfg.node_ops_per_sec(),
        };
        let duration =
            Seconds(compute_time.max(dram_bytes_per_accel / self.cfg.dram_bytes_per_sec));
        let sram_per_mac = mapping.map_or(self.cfg.energy.sram_accesses_per_mac, |m| {
            m.sram_accesses_per_mac
        });
        self.compute_energy += (self.cfg.energy.compute_with_sram(macs, sram_per_mac)
            + self.cfg.energy.elementwise(elementwise))
            * n;
        self.dram_energy += self.cfg.energy.dram(dram_bytes_per_accel) * n;
        self.dram_bytes += dram_bytes_per_accel * n;

        (0..self.num_accels())
            .map(|i| {
                let mut spec =
                    TaskSpec::new(self.accels[i], duration).after_all(deps.iter().copied());
                if self.trace {
                    spec = spec.label(label);
                }
                self.engine.add_task(spec)
            })
            .collect()
    }

    /// One transfer of `elems` tensor elements (both directions combined)
    /// on every pair-channel of level `h`.
    fn comm_stage(&mut self, h: usize, elems: f64, label: &str, deps: &[TaskId]) -> Vec<TaskId> {
        let bytes_pair = elems * f64::from(self.cfg.precision_bytes);
        let bw =
            self.cfg
                .topology
                .pair_bandwidth(h, self.num_levels, self.cfg.leaf_link_bytes_per_sec);
        // Full-duplex channel: the two directions flow simultaneously.
        let duration = Seconds(bytes_pair / 2.0 / bw);
        let pairs = self.links[h].len();
        self.comm_bytes_per_level[h] += bytes_pair * pairs as f64;
        self.link_energy += self.cfg.energy.link(bytes_pair) * pairs as f64;

        (0..pairs)
            .map(|p| {
                let mut spec =
                    TaskSpec::new(self.links[h][p], duration).after_all(deps.iter().copied());
                if self.trace {
                    spec = spec.label(label);
                }
                self.engine.add_task(spec)
            })
            .collect()
    }

    /// Levels at which segment `s` layer `l` is assigned `p`, deepest level
    /// first (the order partial sums combine up the tree).
    fn levels_with(&self, s: usize, l: usize, p: Parallelism) -> Vec<usize> {
        (0..self.num_levels)
            .rev()
            .filter(|&h| self.segs[s].plan.choice(h, l) == p)
            .collect()
    }

    /// Schedules the level-by-level transfers of one inter-segment
    /// junction — branch forwarding (`forward`, the `F` tensor) or join
    /// gradient accumulation (backward, the `E` tensor) — pricing each
    /// level exactly as [`hypar_graph::inter_segment_elems`] does: under
    /// the committed parallelisms of the two boundary layers, scoped by
    /// the configured [`hypar_comm::JunctionScaling`] interpretation.
    /// Levels whose transfer is free (dp→dp) add no tasks.
    fn edge_comm(&mut self, edge: SegmentEdge, forward: bool, deps: &[TaskId]) -> Vec<TaskId> {
        let last = self.segs[edge.from].len() - 1;
        let label = if self.trace {
            format!(
                "xfer {} {}->{}",
                if forward { "F" } else { "E" },
                self.segs[edge.from].net.layer(last).name,
                self.segs[edge.to].net.layer(0).name
            )
        } else {
            String::new()
        };
        let mut producer_scale = LayerScale::IDENTITY;
        let mut consumer_scale = LayerScale::IDENTITY;
        let mut tasks = Vec::new();
        for h in 0..self.num_levels {
            let prev = self.segs[edge.from].plan.choice(h, last);
            let next = self.segs[edge.to].plan.choice(h, 0);
            let scale =
                junction_scale_between(producer_scale, consumer_scale, self.cfg.junction_scaling);
            let (f_elems, e_elems) = inter_split(prev, next, edge.elems, scale);
            let elems = if forward { f_elems } else { e_elems };
            if elems > 0.0 {
                tasks.extend(self.comm_stage(h, elems, &label, deps));
            }
            producer_scale = producer_scale.descend(prev);
            consumer_scale = consumer_scale.descend(next);
        }
        tasks
    }

    /// The frontier segment `s`'s forward pass starts from: its incoming
    /// branch-forwarding transfers, scheduled behind the global frontier
    /// (barrier mode) or behind each producer's forward exit (overlap
    /// mode).  An edge whose transfer is free at every level still imposes
    /// its producer's data dependency.  When the incoming edges carry join
    /// work (`add` accumulation / `concat` gather) and
    /// [`crate::ArchConfig::join_compute`] is enabled, an element-wise
    /// compute stage materializes the joined tensor once every
    /// contribution has arrived.
    fn forward_entry(
        &mut self,
        s: usize,
        stage_end: &[TaskId],
        fwd_exit: &[Vec<TaskId>],
        barrier_mode: bool,
    ) -> Vec<TaskId> {
        let incoming: Vec<SegmentEdge> = self.edges.iter().copied().filter(|e| e.to == s).collect();
        let entry = if barrier_mode {
            let mut tasks = Vec::new();
            for &edge in &incoming {
                tasks.extend(self.edge_comm(edge, true, stage_end));
            }
            if tasks.is_empty() {
                stage_end.to_vec()
            } else {
                vec![self.barrier(&tasks)]
            }
        } else {
            let mut deps = Vec::new();
            for &edge in &incoming {
                let producer_exit = fwd_exit[edge.from].clone();
                let tasks = self.edge_comm(edge, true, &producer_exit);
                if tasks.is_empty() {
                    deps.extend(producer_exit);
                } else {
                    deps.extend(tasks);
                }
            }
            deps
        };
        let join_elems: f64 = incoming.iter().map(|e| e.join_elems).sum();
        // Exact-zero skip: a join stage is only scheduled when traffic exists, and absent traffic is an exact 0.0 sum.
        if !self.cfg.join_compute || join_elems == 0.0 {
            return entry;
        }
        // The accumulation cannot start before every branch tensor has
        // arrived, so the join is a synchronization point in both modes.
        let head = self.segs[s].net.layer(0).name.clone();
        let deps = vec![self.barrier(&entry)];
        let tasks = self.compute_stage(0.0, join_elems, 0.0, None, &format!("join {head}"), &deps);
        vec![self.barrier(&tasks)]
    }

    /// The frontier segment `s`'s backward pass starts from: the join
    /// gradient accumulation along every out-edge — the error tensor flows
    /// back from each consumer before the producing segment's tail resumes
    /// — behind the global frontier (barrier mode) or behind each
    /// consumer's backward exit (overlap mode).  The sink segment (no
    /// out-edges) starts at the loss turnaround.
    fn backward_entry(
        &mut self,
        s: usize,
        bwd_frontier: &[TaskId],
        bwd_exit: &[Vec<TaskId>],
        barrier_mode: bool,
    ) -> Vec<TaskId> {
        let outgoing: Vec<SegmentEdge> =
            self.edges.iter().copied().filter(|e| e.from == s).collect();
        if barrier_mode || outgoing.is_empty() {
            let mut tasks = Vec::new();
            for &edge in &outgoing {
                tasks.extend(self.edge_comm(edge, false, bwd_frontier));
            }
            if tasks.is_empty() {
                bwd_frontier.to_vec()
            } else {
                vec![self.barrier(&tasks)]
            }
        } else {
            let mut contributions = Vec::new();
            for &edge in &outgoing {
                let consumer_exit = bwd_exit[edge.to].clone();
                let tasks = self.edge_comm(edge, false, &consumer_exit);
                if tasks.is_empty() {
                    contributions.extend(consumer_exit);
                } else {
                    contributions.extend(tasks);
                }
            }
            // The accumulation point: every consumer's error has arrived.
            vec![self.barrier(&contributions)]
        }
    }

    /// The forward pass of segment `s`, entered at `stage_end`; returns
    /// the frontier past the segment's last layer.
    fn forward_segment(&mut self, s: usize, mut stage_end: Vec<TaskId>) -> Vec<TaskId> {
        let num_layers = self.segs[s].len();
        let precision = f64::from(self.cfg.precision_bytes);
        for l in 0..num_layers {
            let layer = self.segs[s].shapes.layer(l).clone();
            let leaf = self.segs[s].leaf(l);
            let view = self.segs[s].net.layer(l).clone();

            // Forward compute: read W and F_l slices, write F_{l+1} slice.
            let dram = (view.weight_elems * leaf.weight_scale()
                + view.input_elems * leaf.input_scale()
                + view.output_elems * leaf.output_scale())
                * precision;
            let deps = stage_end.clone();
            let mapping = self.layer_mapping(s, l);
            let mut tasks = self.compute_stage(
                layer.macs_forward as f64,
                layer.elementwise_ops as f64,
                dram,
                mapping,
                &format!("fwd {}", layer.name),
                &deps,
            );

            // mp output reductions, deepest level first (partial sums
            // combine pairwise up the tree, each level on its own links).
            for h in self.levels_with(s, l, Parallelism::Model) {
                let elems = intra_elems(
                    Parallelism::Model,
                    &view,
                    self.segs[s].scales_at[h].layer(l),
                );
                let deps = vec![self.barrier(&tasks)];
                tasks = self.comm_stage(h, elems, &format!("reduce F {}", layer.name), &deps);
            }

            // Forward junction redistribution to layer l+1.
            if l + 1 < num_layers {
                let mut junction_tasks = Vec::new();
                for h in 0..self.num_levels {
                    let (f_elems, _) = inter_split(
                        self.segs[s].plan.choice(h, l),
                        self.segs[s].plan.choice(h, l + 1),
                        view.junction_elems,
                        self.segs[s].scales_at[h].junction_scale_with(l, self.cfg.junction_scaling),
                    );
                    if f_elems > 0.0 {
                        let deps = vec![self.barrier(&tasks)];
                        let label = format!("xfer F {}", layer.name);
                        junction_tasks.extend(self.comm_stage(h, f_elems, &label, &deps));
                    }
                }
                if !junction_tasks.is_empty() {
                    tasks = junction_tasks;
                }
            }

            stage_end = vec![self.barrier(&tasks)];
        }
        stage_end
    }

    /// The backward + gradient pass of segment `s`, entered at
    /// `bwd_frontier`; returns the frontier past the segment's head and
    /// appends every weight-update task to `updates`.
    fn backward_segment(
        &mut self,
        s: usize,
        mut bwd_frontier: Vec<TaskId>,
        updates: &mut Vec<TaskId>,
    ) -> Vec<TaskId> {
        let num_layers = self.segs[s].len();
        let precision = f64::from(self.cfg.precision_bytes);
        let barrier_mode = !self.cfg.overlap_comm;
        // A head fed by another segment must propagate the error across
        // its junction; only a head fed by the raw graph input skips the
        // backward computation (the chain's "not for the first layer").
        let has_producer = self.edges.iter().any(|e| e.to == s);

        for l in (0..num_layers).rev() {
            let layer = self.segs[s].shapes.layer(l).clone();
            let leaf = self.segs[s].leaf(l);
            let view = self.segs[s].net.layer(l).clone();

            // Backward junction: E_{l+1} redistribution from layer l+1.
            if l + 1 < num_layers {
                let mut junction_tasks = Vec::new();
                for h in 0..self.num_levels {
                    let (_, e_elems) = inter_split(
                        self.segs[s].plan.choice(h, l),
                        self.segs[s].plan.choice(h, l + 1),
                        view.junction_elems,
                        self.segs[s].scales_at[h].junction_scale_with(l, self.cfg.junction_scaling),
                    );
                    if e_elems > 0.0 {
                        let deps = vec![self.barrier(&bwd_frontier)];
                        let label = format!("xfer E {}", layer.name);
                        junction_tasks.extend(self.comm_stage(h, e_elems, &label, &deps));
                    }
                }
                if !junction_tasks.is_empty() {
                    bwd_frontier = vec![self.barrier(&junction_tasks)];
                }
            }

            // Error backward (not for the network's first layer) and
            // gradient computation; both need E_{l+1} (and locally
            // retained F_l/W_l).
            let mut phase_tasks = Vec::new();
            let mapping = self.layer_mapping(s, l);
            if l > 0 || has_producer {
                let dram = (view.weight_elems * leaf.weight_scale()
                    + view.output_elems * leaf.output_scale()
                    + view.input_elems * leaf.input_scale())
                    * precision;
                let deps = bwd_frontier.clone();
                phase_tasks.extend(self.compute_stage(
                    layer.macs_backward() as f64,
                    0.0,
                    dram,
                    mapping,
                    &format!("bwd {}", layer.name),
                    &deps,
                ));
            }
            let dram = (view.input_elems * leaf.input_scale()
                + view.output_elems * leaf.output_scale()
                + view.weight_elems * leaf.weight_scale())
                * precision;
            let deps = bwd_frontier.clone();
            let grad_tasks = self.compute_stage(
                layer.macs_gradient() as f64,
                0.0,
                dram,
                mapping,
                &format!("grad {}", layer.name),
                &deps,
            );
            phase_tasks.extend(grad_tasks.iter().copied());

            // In barrier mode everything downstream waits here; in overlap
            // mode only the all-reduce chain depends on the gradients while
            // the backward error continues independently.
            let grad_barrier = self.barrier(&grad_tasks);
            let phase_barrier = self.barrier(&phase_tasks);

            // dp gradient all-reduce, deepest level first.
            let mut reduce_tail = vec![grad_barrier];
            for h in self.levels_with(s, l, Parallelism::Data) {
                let elems =
                    intra_elems(Parallelism::Data, &view, self.segs[s].scales_at[h].layer(l));
                let deps = reduce_tail.clone();
                let label = format!("allreduce dW {}", layer.name);
                let tasks = self.comm_stage(h, elems, &label, &deps);
                reduce_tail = vec![self.barrier(&tasks)];
            }

            // Weight update: read ΔW, write W (element-wise add).
            let w_slice = view.weight_elems * leaf.weight_scale();
            let update_deps = if barrier_mode {
                // Serialize: update waits for this layer's comm and compute.
                vec![self.barrier(&[reduce_tail[0], phase_barrier])]
            } else {
                reduce_tail.clone()
            };
            let update_tasks = self.compute_stage(
                0.0,
                w_slice,
                2.0 * w_slice * precision,
                None,
                &format!("update {}", layer.name),
                &update_deps,
            );
            updates.extend(update_tasks.iter().copied());

            // Next (shallower) layer's backward frontier.
            bwd_frontier = if barrier_mode {
                vec![self.barrier(&[reduce_tail[0], phase_barrier])]
            } else {
                vec![phase_barrier]
            };
        }
        bwd_frontier
    }

    fn run(mut self) -> (StepReport, Option<String>) {
        let num_segs = self.segs.len();
        let barrier_mode = !self.cfg.overlap_comm;

        // ---------------- Forward pass ----------------
        // Segments run in index order — a topological order of the segment
        // graph, since every edge points from a lower to a higher index.
        // In barrier mode one global frontier serializes everything,
        // reproducing the paper's phase-ordered step; in overlap mode each
        // segment starts as soon as its own inputs are ready, so
        // independent branches genuinely overlap.
        let mut fwd_exit: Vec<Vec<TaskId>> = vec![Vec::new(); num_segs];
        let mut stage_end: Vec<TaskId> = Vec::new();
        for s in 0..num_segs {
            let entry = self.forward_entry(s, &stage_end, &fwd_exit, barrier_mode);
            let exit = self.forward_segment(s, entry);
            fwd_exit[s] = exit.clone();
            stage_end = exit;
        }

        // ---------------- Backward + gradient ----------------
        // Reverse topological order.  The loss turnaround: the sink
        // segment's backward starts once the whole forward pass (its own
        // frontier, transitively everything) completes.
        let mut updates: Vec<TaskId> = Vec::new();
        let mut bwd_exit: Vec<Vec<TaskId>> = vec![Vec::new(); num_segs];
        let mut bwd_frontier: Vec<TaskId> = stage_end;
        for s in (0..num_segs).rev() {
            let entry = self.backward_entry(s, &bwd_frontier, &bwd_exit, barrier_mode);
            let exit = self.backward_segment(s, entry, &mut updates);
            bwd_exit[s] = exit.clone();
            bwd_frontier = exit;
        }

        // The step completes when every update (and every segment's final
        // backward frontier) has finished.
        let mut finale: Vec<TaskId> = bwd_exit.into_iter().flatten().collect();
        finale.extend(updates);
        let _ = self.barrier(&finale);

        self.finish()
    }

    fn finish(self) -> (StepReport, Option<String>) {
        let Self {
            segs,
            cfg,
            engine,
            accels,
            links,
            trace,
            num_levels,
            compute_energy,
            dram_energy,
            link_energy,
            comm_bytes_per_level,
            dram_bytes,
            ..
        } = self;

        let trace_summary = crate::SimTraceSummary {
            tasks: engine.num_tasks() as u64,
            resources: engine.num_resources() as u64,
        };
        let schedule = engine.run();
        let chrome_trace = trace.then(|| schedule.chrome_trace());
        let compute_busy = schedule.busy_time(accels[0]);
        let link_busy = links
            .iter()
            .flatten()
            .map(|&r| schedule.busy_time(r))
            .fold(Seconds::ZERO, |a, b| if b > a { b } else { a });

        // Per-accelerator resident footprint: weight, input and output
        // slices of every layer (activations are retained for the backward
        // pass).
        let precision = f64::from(cfg.precision_bytes);
        let footprint: f64 = segs
            .iter()
            .map(|seg| {
                let leaf_state = &seg.scales_at[num_levels];
                seg.net
                    .layers()
                    .iter()
                    .enumerate()
                    .map(|(l, v)| {
                        let s = leaf_state.layer(l);
                        (v.weight_elems * s.weight_scale()
                            + v.input_elems * s.input_scale()
                            + v.output_elems * s.output_scale())
                            * precision
                    })
                    .sum::<f64>()
            })
            .sum();

        let comm_total: f64 = comm_bytes_per_level.iter().sum();
        let report = StepReport {
            step_time: schedule.makespan(),
            energy: compute_energy + dram_energy + link_energy,
            compute_energy,
            dram_energy,
            link_energy,
            comm_bytes: Bytes(comm_total),
            comm_bytes_per_level: comm_bytes_per_level.into_iter().map(Bytes).collect(),
            dram_bytes: Bytes(dram_bytes),
            compute_busy,
            link_busy,
            dram_footprint_bytes: Bytes(footprint),
            num_accelerators: accels.len() as u64,
            trace_summary,
        };
        (report, chrome_trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypar_comm::JunctionScaling;
    use hypar_core::{baselines, hierarchical};
    use hypar_graph::{partition_graph, partition_graph_with, plan_segments, zoo as graph_zoo};
    use hypar_models::zoo;

    fn setup(name: &str, batch: u64) -> (NetworkShapes, NetworkCommTensors) {
        let shapes = NetworkShapes::infer(&zoo::by_name(name).unwrap(), batch).unwrap();
        let net = NetworkCommTensors::from_shapes(&shapes);
        (shapes, net)
    }

    #[test]
    fn single_accelerator_has_no_communication() {
        let (shapes, _) = setup("Lenet-c", 256);
        let report = simulate_single_accelerator(&shapes, &ArchConfig::paper()).unwrap();
        assert_eq!(report.num_accelerators, 1);
        assert!(report.comm_bytes.is_zero());
        assert!(report.link_energy.is_zero());
        assert!(report.step_time.value() > 0.0);
    }

    #[test]
    fn comm_bytes_match_the_cost_model() {
        // The simulator's traffic accounting must equal evaluate_plan's.
        let (shapes, net) = setup("Lenet-c", 256);
        for plan in [
            hierarchical::partition(&net, 4),
            baselines::all_data(&net, 4),
            baselines::all_model(&net, 4),
            baselines::one_weird_trick(&net, 4),
        ] {
            let report = simulate_step(&shapes, &plan, &ArchConfig::paper()).unwrap();
            let expected = plan.total_comm_bytes();
            assert!(
                (report.comm_bytes.value() - expected.value()).abs()
                    <= 1e-6 * expected.value().max(1.0),
                "sim {} vs model {}",
                report.comm_bytes,
                expected
            );
        }
    }

    #[test]
    fn hypar_is_faster_than_data_parallelism_on_lenet() {
        let (shapes, net) = setup("Lenet-c", 256);
        let cfg = ArchConfig::paper();
        let hypar = simulate_step(&shapes, &hierarchical::partition(&net, 4), &cfg).unwrap();
        let dp = simulate_step(&shapes, &baselines::all_data(&net, 4), &cfg).unwrap();
        let mp = simulate_step(&shapes, &baselines::all_model(&net, 4), &cfg).unwrap();
        assert!(hypar.performance_gain_over(&dp) > 1.0);
        assert!(
            dp.performance_gain_over(&mp) > 1.0,
            "mp should be worst for Lenet-c"
        );
    }

    #[test]
    fn sixteen_accelerators_beat_one_for_vgg() {
        let (shapes, net) = setup("VGG-A", 256);
        let cfg = ArchConfig::paper();
        let one = simulate_single_accelerator(&shapes, &cfg).unwrap();
        let hypar = simulate_step(&shapes, &hierarchical::partition(&net, 4), &cfg).unwrap();
        let gain = hypar.performance_gain_over(&one);
        assert!(
            gain > 4.0,
            "16 accelerators should give a solid speedup, got {gain:.2}"
        );
        assert!(
            gain <= 16.0,
            "speedup cannot exceed the accelerator count, got {gain:.2}"
        );
    }

    #[test]
    fn overlap_never_hurts() {
        let (shapes, net) = setup("AlexNet", 256);
        let plan = baselines::all_data(&net, 4);
        let serial = simulate_step(&shapes, &plan, &ArchConfig::paper()).unwrap();
        let overlap =
            simulate_step(&shapes, &plan, &ArchConfig::paper().with_overlap(true)).unwrap();
        assert!(overlap.step_time <= serial.step_time);
        // Traffic and energy are schedule-independent.
        assert_eq!(overlap.comm_bytes, serial.comm_bytes);
        assert_eq!(overlap.energy, serial.energy);
    }

    #[test]
    fn torus_is_never_faster_than_htree() {
        let (shapes, net) = setup("Cifar-c", 256);
        let plan = hierarchical::partition(&net, 4);
        let htree = simulate_step(&shapes, &plan, &ArchConfig::paper()).unwrap();
        let torus = simulate_step(
            &shapes,
            &plan,
            &ArchConfig::paper().with_topology(crate::Topology::Torus),
        )
        .unwrap();
        assert!(torus.step_time >= htree.step_time);
        assert_eq!(torus.comm_bytes, htree.comm_bytes);
    }

    #[test]
    fn energy_components_sum() {
        let (shapes, net) = setup("Cifar-c", 256);
        let report = simulate_step(
            &shapes,
            &hierarchical::partition(&net, 4),
            &ArchConfig::paper(),
        )
        .unwrap();
        let sum = report.compute_energy + report.dram_energy + report.link_energy;
        assert!((report.energy.value() - sum.value()).abs() < 1e-12);
        assert!(report.compute_energy.value() > 0.0);
        assert!(report.dram_energy.value() > 0.0);
        assert!(report.link_energy.value() > 0.0);
    }

    #[test]
    fn determinism() {
        let (shapes, net) = setup("AlexNet", 256);
        let plan = hierarchical::partition(&net, 4);
        let a = simulate_step(&shapes, &plan, &ArchConfig::paper()).unwrap();
        let b = simulate_step(&shapes, &plan, &ArchConfig::paper()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn traced_run_matches_untraced_and_labels_phases() {
        let (shapes, net) = setup("Lenet-c", 256);
        let plan = hierarchical::partition(&net, 4);
        let cfg = ArchConfig::paper();
        let plain = simulate_step(&shapes, &plan, &cfg).unwrap();
        let (traced, trace) = simulate_step_traced(&shapes, &plan, &cfg).unwrap();
        assert_eq!(plain, traced);
        for needle in [
            "fwd conv1",
            "grad fc2",
            "allreduce dW conv1",
            "reduce F fc1",
            "accel0",
        ] {
            assert!(trace.contains(needle), "trace missing `{needle}`");
        }
        // Valid-enough JSON: balanced brackets, one event per line.
        assert!(trace.trim_start().starts_with('['));
        assert!(trace.trim_end().ends_with(']'));
    }

    #[test]
    fn mismatched_plan_is_a_typed_error() {
        let (shapes, _) = setup("Lenet-c", 256);
        let (_, other_net) = setup("AlexNet", 256);
        let plan = baselines::all_data(&other_net, 4);
        let err = simulate_step(&shapes, &plan, &ArchConfig::paper()).unwrap_err();
        assert_eq!(
            err,
            SimError::LayerCountMismatch {
                plan_layers: 8,
                network_layers: 4
            }
        );
        assert!(err.to_string().contains("weighted layer"));
    }

    #[test]
    fn graph_step_comm_matches_the_stitched_cost_model() {
        // The DAG simulator's traffic accounting — per-segment stages plus
        // the branch/join junction transfers — must equal the stitched
        // plan's analytic total.
        for (name, batch) in [("Inception-Mini", 128), ("ResNet-18", 32)] {
            let graph = graph_zoo::by_name(name).unwrap().segments(batch).unwrap();
            for plan in [
                partition_graph(&graph, 4).unwrap(),
                plan_segments(&graph, |s| baselines::all_data(s, 4)).unwrap(),
                plan_segments(&graph, |s| baselines::all_model(s, 4)).unwrap(),
            ] {
                let report = simulate_graph_step(&graph, &plan, &ArchConfig::paper()).unwrap();
                let expected = plan.total_comm_bytes();
                assert!(
                    (report.comm_bytes.value() - expected.value()).abs()
                        <= 1e-6 * expected.value().max(1.0),
                    "{name}: sim {} vs model {}",
                    report.comm_bytes,
                    expected
                );
            }
        }
    }

    #[test]
    fn graph_step_comm_matches_the_model_under_every_junction_scaling() {
        // The JunctionScaling ablation must hold on the DAG path too: when
        // the simulator prices junctions under the same interpretation the
        // plan was costed with, traffic reconciles exactly.
        let graph = graph_zoo::inception_mini().segments(128).unwrap();
        for mode in [
            JunctionScaling::Consumer,
            JunctionScaling::Producer,
            JunctionScaling::Unscaled,
        ] {
            let plan = partition_graph_with(&graph, 4, mode).unwrap();
            let cfg = ArchConfig::paper().with_junction_scaling(mode);
            let report = simulate_graph_step(&graph, &plan, &cfg).unwrap();
            let expected = plan.total_comm_bytes();
            assert!(
                (report.comm_bytes.value() - expected.value()).abs()
                    <= 1e-6 * expected.value().max(1.0),
                "{mode:?}: sim {} vs model {}",
                report.comm_bytes,
                expected
            );
        }
    }

    #[test]
    fn join_compute_strictly_increases_join_heavy_step_time() {
        // Inception-Mini's concat gathers three branch tensors; charging
        // that element-wise work must strictly lengthen the step and add
        // compute energy, while moving no bytes between groups.
        let graph = graph_zoo::inception_mini().segments(128).unwrap();
        let plan = partition_graph(&graph, 4).unwrap();
        let with = simulate_graph_step(&graph, &plan, &ArchConfig::paper()).unwrap();
        let without =
            simulate_graph_step(&graph, &plan, &ArchConfig::paper().with_join_compute(false))
                .unwrap();
        assert!(
            with.step_time > without.step_time,
            "join compute must lengthen the step: {} vs {}",
            with.step_time,
            without.step_time
        );
        assert!(with.compute_energy > without.compute_energy);
        assert_eq!(with.comm_bytes, without.comm_bytes);
        assert_eq!(with.link_energy, without.link_energy);
    }

    #[test]
    fn join_compute_labels_the_trace() {
        let graph = graph_zoo::inception_mini().segments(128).unwrap();
        let plan = partition_graph(&graph, 4).unwrap();
        let (_, trace) = simulate_graph_step_traced(&graph, &plan, &ArchConfig::paper()).unwrap();
        // The concat's consumer segment head is conv2: the gather runs
        // right before its forward pass.
        assert!(trace.contains("join conv2"), "{trace}");
    }

    #[test]
    fn graph_step_is_deterministic_and_traced_matches() {
        let graph = graph_zoo::inception_mini().segments(128).unwrap();
        let plan = partition_graph(&graph, 4).unwrap();
        let cfg = ArchConfig::paper();
        let a = simulate_graph_step(&graph, &plan, &cfg).unwrap();
        let b = simulate_graph_step(&graph, &plan, &cfg).unwrap();
        assert_eq!(a, b);
        let (traced, _) = simulate_graph_step_traced(&graph, &plan, &cfg).unwrap();
        assert_eq!(a, traced);
    }

    #[test]
    fn graph_step_trace_labels_junction_transfers() {
        let graph = graph_zoo::inception_mini().segments(128).unwrap();
        let cfg = ArchConfig::paper();

        // A dp producer feeding mp consumers pays the forward `F` branch
        // forwarding (Table 2's dp->mp transition).
        let mixed = plan_segments(&graph, |s| {
            if s.layer(0).name == "stem" {
                baselines::all_data(s, 4)
            } else {
                baselines::all_model(s, 4)
            }
        })
        .unwrap();
        let (_, trace) = simulate_graph_step_traced(&graph, &mixed, &cfg).unwrap();
        assert!(trace.contains("xfer F stem->b1x1"), "{trace}");

        // An all-mp plan pays the backward `E` gradient accumulation on
        // every junction (mp->mp costs the error tensor only).
        let mp = plan_segments(&graph, |s| baselines::all_model(s, 4)).unwrap();
        let (_, trace) = simulate_graph_step_traced(&graph, &mp, &cfg).unwrap();
        assert!(trace.contains("xfer E stem->b1x1"), "{trace}");
        assert!(trace.contains("xfer E b3x3->conv2"), "{trace}");
    }

    #[test]
    fn graph_step_mismatched_plan_is_a_typed_error() {
        let graph = graph_zoo::inception_mini().segments(128).unwrap();
        let (_, other_net) = setup("Lenet-c", 256);
        let plan = baselines::all_data(&other_net, 4);
        let err = simulate_graph_step(&graph, &plan, &ArchConfig::paper()).unwrap_err();
        assert_eq!(
            err,
            SimError::LayerCountMismatch {
                plan_layers: 4,
                network_layers: 8
            }
        );
    }

    #[test]
    fn graph_overlap_never_hurts_and_preserves_energy() {
        let graph = graph_zoo::inception_mini().segments(128).unwrap();
        let plan = partition_graph(&graph, 4).unwrap();
        let serial = simulate_graph_step(&graph, &plan, &ArchConfig::paper()).unwrap();
        let overlap =
            simulate_graph_step(&graph, &plan, &ArchConfig::paper().with_overlap(true)).unwrap();
        assert!(overlap.step_time <= serial.step_time);
        assert_eq!(overlap.comm_bytes, serial.comm_bytes);
        assert_eq!(overlap.energy, serial.energy);
    }
}
