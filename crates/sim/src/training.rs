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
//! Every network runs through [`simulate_graph_step`] on its
//! [`SegmentCommGraph`]: a chain is the one-segment graph
//! ([`simulate_step`] is that case), and a branchy DAG is its segment
//! decomposition.  Every segment is the same chain schedule, and each
//! [`hypar_graph::SegmentEdge`] junction adds **branch forwarding** tasks
//! (the producing segment's `F` tensor fans out to each consumer before
//! its forward pass), **join gradient accumulation** tasks (the error
//! `E` flows back along every in-edge of an `add`/`concat` before the
//! producing segment's backward pass), and — when
//! [`crate::ArchConfig::join_compute`] is enabled — a **join compute**
//! stage charging the element-wise accumulation/gather work of
//! materializing the joined tensor.  A branch-free DAG decomposes into
//! one segment with no edges, so its schedule — and therefore its
//! [`StepReport`] — is bit-identical to the chain's.  All junction tensors
//! (chain and inter-segment alike) are scoped by the configured
//! [`hypar_comm::JunctionScaling`] interpretation, consumer layout by
//! default.
//!
//! With `overlap_comm = false` (the paper's setting) the step executes as
//! a strict sequence of stages separated by barriers; with `true`, tasks
//! are ordered only by their data dependencies, letting e.g. a gradient
//! all-reduce hide underneath the remaining backward pass — and, on a
//! branchy DAG, letting independent branches genuinely overlap.
//!
//! Every group at a level shares that level's dp/mp choices, so every
//! accelerator, and every pair channel of a level, runs the same
//! timeline.  The task graph therefore holds one accelerator and one
//! pair channel per level — a symmetry quotient of the array whose
//! report is bit-identical to the full replication's — while
//! [`crate::SimTraceSummary`] counts the tasks and resources of the whole
//! array.

use std::fmt;

use hypar_comm::{count_dp, CostTerms, NetworkCommTensors, Parallelism};
use hypar_core::HierarchicalPlan;
use hypar_graph::{SegmentCommGraph, SegmentEdge};
use hypar_models::NetworkShapes;
use hypar_tensor::{Bytes, Joules, Seconds};

use crate::des::{Engine, ResourceId, TaskId, TaskSpec};
use crate::pe::Mapping;
use crate::{ArchConfig, SimError, StepReport};

/// Simulates one training step of `shapes` under `plan` on the array
/// described by `cfg`: [`simulate_graph_step`] on the chain's one-segment
/// graph ([`SegmentCommGraph::chain`]).
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
    simulate_graph_step(&SegmentCommGraph::chain(shapes.clone()), plan, cfg)
}

/// Like [`simulate_step`], additionally returning the executed schedule as
/// a Chrome trace (see [`crate::des::Schedule::chrome_trace`]) for
/// visualization in `chrome://tracing` or Perfetto.
///
/// The trace shows one row per resource class — `accel0`, `link<h>.0`
/// for each level `h`, and `barrier` — because every accelerator (and
/// every pair channel of a level) runs the same timeline; the report's
/// [`crate::SimTraceSummary`] still counts the whole array.
///
/// # Errors
///
/// Same as [`simulate_step`].
pub fn simulate_step_traced(
    shapes: &NetworkShapes,
    plan: &HierarchicalPlan,
    cfg: &ArchConfig,
) -> Result<(StepReport, String), SimError> {
    simulate_graph_step_traced(&SegmentCommGraph::chain(shapes.clone()), plan, cfg)
}

/// Simulates one training step of a whole network: its segment graph
/// `graph` under the stitched whole-model `plan` (one dp/mp choice per
/// weighted layer per level, segments concatenated in canonical order, as
/// produced by [`hypar_graph::partition_graph`] or
/// [`hypar_graph::stitch`]).
///
/// Each segment executes the identical chain schedule; the inter-segment
/// junctions add branch-forwarding `F` transfers before each consumer's
/// forward pass and join-gradient-accumulation `E` transfers before each
/// producer's backward pass, priced level by level exactly as
/// [`hypar_graph::stitch`] prices them — so the report's `comm_bytes`
/// matches the stitched plan's analytic total.
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
    Ok(graph_builder(graph, plan, cfg, false, Copies::One)?.run().0)
}

/// Like [`simulate_graph_step`], additionally returning the executed
/// schedule as a Chrome trace, with one row per resource class as in
/// [`simulate_step_traced`].
///
/// # Errors
///
/// Same as [`simulate_graph_step`].
pub fn simulate_graph_step_traced(
    graph: &SegmentCommGraph,
    plan: &HierarchicalPlan,
    cfg: &ArchConfig,
) -> Result<(StepReport, String), SimError> {
    let (report, trace) = graph_builder(graph, plan, cfg, true, Copies::One)?.run();
    Ok((report, trace.unwrap_or_default()))
}

/// Validates the stitched plan against the graph and assembles the
/// multi-segment builder.
fn graph_builder<'a>(
    graph: &'a SegmentCommGraph,
    plan: &'a HierarchicalPlan,
    cfg: &'a ArchConfig,
    trace: bool,
    copies: Copies,
) -> Result<Builder<'a>, SimError> {
    if plan.num_layers() != graph.num_layers() {
        return Err(SimError::LayerCountMismatch {
            plan_layers: plan.num_layers(),
            network_layers: graph.num_layers(),
        });
    }
    Ok(Builder::new(graph, plan, cfg, trace, copies))
}

/// One chain segment's place inside a step simulation.  A chain network
/// is exactly one `Seg`; a DAG is one per decomposed segment.
struct Seg<'a> {
    shapes: &'a NetworkShapes,
    net: &'a NetworkCommTensors,
    /// The segment's first layer in the whole-graph plan and cost terms.
    first: usize,
    /// Its first chain junction among the cost terms' pairs.
    first_pair: usize,
}

impl Seg<'_> {
    fn len(&self) -> usize {
        self.net.len()
    }
}

/// One transfer on one pair channel of level `h`: the level's array-wide
/// integer term shared by its `2^h` pairs.  Exact: the term carries the
/// count's significant bits times a power of two, and so does the quotient.
fn per_pair(term: u128, h: usize) -> f64 {
    term as f64 / (1u64 << h) as f64
}

/// The fraction `2^−halvings`.
fn fraction(halvings: usize) -> f64 {
    (-(halvings as f64)).exp2()
}

/// How many copies of each symmetric resource a [`Builder`] instantiates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Copies {
    /// One accelerator and one pair channel per level: the symmetry
    /// quotient, the only graph production code builds.
    One,
    /// All `2^H` accelerators and all `2^h` pair channels of every level:
    /// the full replication, kept as the tests' oracle.
    #[cfg(test)]
    All,
}

impl Copies {
    /// How many of `count` symmetric resources to instantiate.
    fn of(self, count: usize) -> usize {
        if self == Copies::One {
            1
        } else {
            count
        }
    }
}

/// Incrementally assembles the step's task graph over one or more chain
/// segments joined by junction edges.
///
/// **The symmetry quotient.**  Algorithm 2 makes one dp/mp choice per
/// layer per level, shared by every group at that level, so every stage
/// of the step is `2^H` identical compute tasks (one per accelerator) or
/// `2^h` identical transfers (one per level-`h` pair channel): each copy
/// has the same duration (the bandwidth of a pair channel depends only on
/// its level) and the same dependency list, and every accelerator (every
/// level-`h` channel) runs exactly one copy of each of those stages, in
/// the same order.  All copies of a stage therefore start and finish
/// together, and the builder instantiates one of each resource class: one
/// accelerator, one pair channel per level, and the barrier.  The
/// schedule of that one copy is the schedule of every copy, so the report
/// is bit-identical to the full replication's:
///
/// * `step_time` and `compute_busy` come from the one accelerator's
///   timeline, and `link_busy` is the maximum over the per-level channels;
/// * energy and byte totals are accumulated as per-copy × multiplicity;
/// * `trace_summary` counts the tasks and resources the full replication
///   holds (`2^H` accelerators, `2^H - 1` pair channels and the barrier,
///   so `2^{H+1}` resources).
///
/// The tests keep the full replication ([`Copies::All`]) as the oracle.
struct Builder<'a> {
    segs: Vec<Seg<'a>>,
    edges: &'a [SegmentEdge],
    /// The whole-graph plan.
    plan: &'a HierarchicalPlan,
    /// The whole graph's exact cost terms: every transfer is one of their
    /// per-level terms.
    terms: CostTerms,
    /// `dp_above[h][l]`: the levels above `h` at which layer `l` is dp;
    /// row `H` holds each layer's dp levels, which fix its leaf tile.
    dp_above: Vec<Vec<usize>>,
    /// The pair of the terms that edge 0 is; the rest follow in order.
    first_edge_pair: usize,
    num_levels: usize,
    cfg: &'a ArchConfig,
    engine: Engine,
    /// The instantiated accelerators: one, or all `2^H` under
    /// [`Copies::All`].
    accels: Vec<ResourceId>,
    /// `links[h][p]`: the instantiated pair-`p` channels of hierarchy
    /// level `h` (one per level, or all `2^h`).
    links: Vec<Vec<ResourceId>>,
    barrier_res: ResourceId,
    /// Whether to label tasks for trace export.
    trace: bool,
    /// Tasks the full replication holds: every stage counted once per
    /// copy, every barrier once.
    represented_tasks: u64,
    // Accounting.
    compute_energy: Joules,
    dram_energy: Joules,
    link_energy: Joules,
    comm_bytes_per_level: Vec<f64>,
    dram_bytes: f64,
}

impl<'a> Builder<'a> {
    fn new(
        graph: &'a SegmentCommGraph,
        plan: &'a HierarchicalPlan,
        cfg: &'a ArchConfig,
        trace: bool,
        copies: Copies,
    ) -> Self {
        // The terms hold each segment's layers, then its `len − 1` chain
        // junctions, in segment order; the edges' pairs come last.
        let mut segs = Vec::with_capacity(graph.num_segments());
        let (mut first, mut first_pair) = (0, 0);
        for (s, net) in graph.segments().iter().enumerate() {
            let shapes = graph.segment_shapes(s);
            segs.push(Seg {
                shapes,
                net,
                first,
                first_pair,
            });
            first += net.len();
            first_pair += net.len().saturating_sub(1);
        }
        let mut dp_above = vec![vec![0; graph.num_layers()]];
        for level in plan.levels() {
            let mut below = dp_above[dp_above.len() - 1].clone();
            count_dp(&mut below, level);
            dp_above.push(below);
        }
        let num_levels = plan.num_levels();
        let mut engine = Engine::new();
        let accels = (0..copies.of(1 << num_levels))
            .map(|i| engine.add_resource(format!("accel{i}")))
            .collect();
        let links = (0..num_levels)
            .map(|h| {
                (0..copies.of(1 << h))
                    .map(|p| engine.add_resource(format!("link{h}.{p}")))
                    .collect()
            })
            .collect();
        let barrier_res = engine.add_resource("barrier");

        Self {
            segs,
            edges: graph.edges(),
            plan,
            terms: graph.cost_terms(),
            dp_above,
            first_edge_pair: first_pair,
            num_levels,
            cfg,
            engine,
            accels,
            links,
            barrier_res,
            trace,
            represented_tasks: 0,
            compute_energy: Joules::ZERO,
            dram_energy: Joules::ZERO,
            link_energy: Joules::ZERO,
            comm_bytes_per_level: vec![0.0; num_levels],
            dram_bytes: 0.0,
        }
    }

    /// Accelerators in the array, `2^H`.
    fn num_accels(&self) -> usize {
        1 << self.num_levels
    }

    /// Segment `s` layer `l`'s choice at level `h`.
    fn choice(&self, h: usize, s: usize, l: usize) -> Parallelism {
        self.plan.choice(h, self.segs[s].first + l)
    }

    /// Segment `s` layer `l`'s level-`h` Table 1 transfer under `choice`
    /// (its committed one), on one pair channel.
    fn layer_elems(&self, s: usize, l: usize, h: usize, choice: Parallelism) -> f64 {
        let layer = self.segs[s].first + l;
        per_pair(
            self.terms.layer_term(layer, choice, h, &self.dp_above[h]),
            h,
        )
    }

    /// Pair `e`'s level-`h` Table 2 transfer on one pair channel, as its
    /// forward (`F`) and backward (`E`) parts: from dp half of it moves
    /// each way, from mp all of it is error.
    fn junction_elems(&self, e: usize, from: Parallelism, to: Parallelism, h: usize) -> (f64, f64) {
        let mode = self.cfg.junction_scaling;
        let term = self
            .terms
            .pair_term(e, (from, to), h, &self.dp_above[h], mode);
        let elems = per_pair(term, h);
        if from == Parallelism::Data {
            (elems / 2.0, elems / 2.0)
        } else {
            (0.0, elems)
        }
    }

    /// Segment `s` layer `l`'s tile on one accelerator: its batch fraction
    /// `2^−k` and input-feature fraction `2^−(H − k)`, with `k` its dp
    /// levels.
    fn leaf(&self, s: usize, l: usize) -> (f64, f64) {
        let k = self.dp_above[self.num_levels][self.segs[s].first + l];
        (fraction(k), fraction(self.num_levels - k))
    }

    /// A zero-duration join of `deps` on the dedicated barrier resource.
    fn barrier(&mut self, deps: &[TaskId]) -> TaskId {
        self.represented_tasks += 1;
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
        let (batch_fraction, feature_fraction) = self.leaf(s, l);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a fraction in (0, 1] of a u64 count rounds up to at most that count"
        )]
        let scaled = |v: u64, frac: f64| ((v as f64 * frac).ceil() as u64).max(1);
        let batch = scaled(shape.batch, batch_fraction);
        Some(if shape.is_conv {
            self.cfg.pe_array.map_conv(
                shape.kernel_extent,
                scaled(shape.input.channels, feature_fraction),
                shape.conv_out.channels,
                shape.conv_out.height,
                shape.conv_out.width,
                batch,
            )
        } else {
            self.cfg.pe_array.map_fc(
                scaled(shape.input.volume(), feature_fraction),
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
        label: fmt::Arguments<'_>,
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

        self.represented_tasks += self.num_accels() as u64;
        let label = self.trace.then(|| label.to_string());
        add_copies(
            &mut self.engine,
            &self.accels,
            duration,
            label.as_deref(),
            deps,
        )
    }

    /// One transfer of `elems` tensor elements (both directions combined)
    /// on every pair-channel of level `h`.
    fn comm_stage(
        &mut self,
        h: usize,
        elems: f64,
        label: fmt::Arguments<'_>,
        deps: &[TaskId],
    ) -> Vec<TaskId> {
        let bytes_pair = elems * f64::from(self.cfg.precision_bytes);
        let bw =
            self.cfg
                .topology
                .pair_bandwidth(h, self.num_levels, self.cfg.leaf_link_bytes_per_sec);
        // Full-duplex channel: the two directions flow simultaneously.
        let duration = Seconds(bytes_pair / 2.0 / bw);
        let pairs = 1usize << h;
        self.comm_bytes_per_level[h] += bytes_pair * pairs as f64;
        self.link_energy += self.cfg.energy.link(bytes_pair) * pairs as f64;

        self.represented_tasks += pairs as u64;
        let label = self.trace.then(|| label.to_string());
        add_copies(
            &mut self.engine,
            &self.links[h],
            duration,
            label.as_deref(),
            deps,
        )
    }

    /// Levels at which segment `s` layer `l` is assigned `p`, deepest level
    /// first (the order partial sums combine up the tree).
    fn levels_with(&self, s: usize, l: usize, p: Parallelism) -> Vec<usize> {
        (0..self.num_levels)
            .rev()
            .filter(|&h| self.choice(h, s, l) == p)
            .collect()
    }

    /// Schedules the level-by-level transfers of one inter-segment
    /// junction — branch forwarding (`forward`, the `F` tensor) or join
    /// gradient accumulation (backward, the `E` tensor) — pricing each
    /// level exactly as [`hypar_graph::stitch`] does: under
    /// the committed parallelisms of the two boundary layers, scoped by
    /// the configured [`hypar_comm::JunctionScaling`] interpretation.
    /// Levels whose transfer is free (dp→dp) add no tasks.
    fn edge_comm(&mut self, i: usize, forward: bool, deps: &[TaskId]) -> Vec<TaskId> {
        let edge = self.edges[i];
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
        let mut tasks = Vec::new();
        for h in 0..self.num_levels {
            let prev = self.choice(h, edge.from, last);
            let next = self.choice(h, edge.to, 0);
            let (f_elems, e_elems) = self.junction_elems(self.first_edge_pair + i, prev, next, h);
            let elems = if forward { f_elems } else { e_elems };
            if elems > 0.0 {
                tasks.extend(self.comm_stage(h, elems, format_args!("{label}"), deps));
            }
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
        let incoming: Vec<usize> = (0..self.edges.len())
            .filter(|&i| self.edges[i].to == s)
            .collect();
        let entry = if barrier_mode {
            let mut tasks = Vec::new();
            for &i in &incoming {
                tasks.extend(self.edge_comm(i, true, stage_end));
            }
            if tasks.is_empty() {
                stage_end.to_vec()
            } else {
                vec![self.barrier(&tasks)]
            }
        } else {
            let mut deps = Vec::new();
            for &i in &incoming {
                let producer_exit = fwd_exit[self.edges[i].from].clone();
                let tasks = self.edge_comm(i, true, &producer_exit);
                if tasks.is_empty() {
                    deps.extend(producer_exit);
                } else {
                    deps.extend(tasks);
                }
            }
            deps
        };
        let join_elems: f64 = incoming.iter().map(|&i| self.edges[i].join_elems).sum();
        // Exact-zero skip: a join stage is only scheduled when traffic exists, and absent traffic is an exact 0.0 sum.
        if !self.cfg.join_compute || join_elems == 0.0 {
            return entry;
        }
        // The accumulation cannot start before every branch tensor has
        // arrived, so the join is a synchronization point in both modes.
        let head = &self.segs[s].shapes.layer(0).name;
        let deps = vec![self.barrier(&entry)];
        let label = format_args!("join {head}");
        let tasks = self.compute_stage(0.0, join_elems, 0.0, None, label, &deps);
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
        let outgoing: Vec<usize> = (0..self.edges.len())
            .filter(|&i| self.edges[i].from == s)
            .collect();
        if barrier_mode || outgoing.is_empty() {
            let mut tasks = Vec::new();
            for &i in &outgoing {
                tasks.extend(self.edge_comm(i, false, bwd_frontier));
            }
            if tasks.is_empty() {
                bwd_frontier.to_vec()
            } else {
                vec![self.barrier(&tasks)]
            }
        } else {
            let mut contributions = Vec::new();
            for &i in &outgoing {
                let consumer_exit = bwd_exit[self.edges[i].to].clone();
                let tasks = self.edge_comm(i, false, &consumer_exit);
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
            let layer = self.segs[s].shapes.layer(l);
            let view = self.segs[s].net.layer(l);
            let (batch, features) = self.leaf(s, l);

            // Forward compute: read W and F_l slices, write F_{l+1} slice.
            let dram = (view.weight_elems * features
                + view.input_elems * (batch * features)
                + view.output_elems * batch)
                * precision;
            let deps = stage_end.clone();
            let mapping = self.layer_mapping(s, l);
            let mut tasks = self.compute_stage(
                layer.macs_forward as f64,
                layer.elementwise_ops as f64,
                dram,
                mapping,
                format_args!("fwd {}", layer.name),
                &deps,
            );

            // mp output reductions, deepest level first (partial sums
            // combine pairwise up the tree, each level on its own links).
            for h in self.levels_with(s, l, Parallelism::Model) {
                let elems = self.layer_elems(s, l, h, Parallelism::Model);
                let deps = vec![self.barrier(&tasks)];
                tasks = self.comm_stage(h, elems, format_args!("reduce F {}", layer.name), &deps);
            }

            // Forward junction redistribution to layer l+1.
            if l + 1 < num_layers {
                let mut junction_tasks = Vec::new();
                for h in 0..self.num_levels {
                    let (prev, next) = (self.choice(h, s, l), self.choice(h, s, l + 1));
                    let pair = self.segs[s].first_pair + l;
                    let (f_elems, _) = self.junction_elems(pair, prev, next, h);
                    if f_elems > 0.0 {
                        let deps = vec![self.barrier(&tasks)];
                        let label = format_args!("xfer F {}", layer.name);
                        junction_tasks.extend(self.comm_stage(h, f_elems, label, &deps));
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
            let layer = self.segs[s].shapes.layer(l);
            let view = self.segs[s].net.layer(l);
            let (batch, features) = self.leaf(s, l);

            // Backward junction: E_{l+1} redistribution from layer l+1.
            if l + 1 < num_layers {
                let mut junction_tasks = Vec::new();
                for h in 0..self.num_levels {
                    let (prev, next) = (self.choice(h, s, l), self.choice(h, s, l + 1));
                    let pair = self.segs[s].first_pair + l;
                    let (_, e_elems) = self.junction_elems(pair, prev, next, h);
                    if e_elems > 0.0 {
                        let deps = vec![self.barrier(&bwd_frontier)];
                        let label = format_args!("xfer E {}", layer.name);
                        junction_tasks.extend(self.comm_stage(h, e_elems, label, &deps));
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
                let dram = (view.weight_elems * features
                    + view.output_elems * batch
                    + view.input_elems * (batch * features))
                    * precision;
                let deps = bwd_frontier.clone();
                phase_tasks.extend(self.compute_stage(
                    layer.macs_backward() as f64,
                    0.0,
                    dram,
                    mapping,
                    format_args!("bwd {}", layer.name),
                    &deps,
                ));
            }
            let dram = (view.input_elems * (batch * features)
                + view.output_elems * batch
                + view.weight_elems * features)
                * precision;
            let deps = bwd_frontier.clone();
            let grad_tasks = self.compute_stage(
                layer.macs_gradient() as f64,
                0.0,
                dram,
                mapping,
                format_args!("grad {}", layer.name),
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
                let elems = self.layer_elems(s, l, h, Parallelism::Data);
                let deps = reduce_tail.clone();
                let label = format_args!("allreduce dW {}", layer.name);
                let tasks = self.comm_stage(h, elems, label, &deps);
                reduce_tail = vec![self.barrier(&tasks)];
            }

            // Weight update: read ΔW, write W (element-wise add).
            let w_slice = view.weight_elems * features;
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
                format_args!("update {}", layer.name),
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
        self.schedule_step();
        self.finish()
    }

    /// Adds every task of the training step to the engine.
    fn schedule_step(&mut self) {
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
    }

    /// Per-accelerator resident footprint: weight, input and output
    /// slices of every layer (activations are retained for the backward
    /// pass).
    fn footprint(&self) -> f64 {
        let precision = f64::from(self.cfg.precision_bytes);
        (0..self.segs.len())
            .map(|s| {
                let net = self.segs[s].net;
                (0..net.len())
                    .map(|l| {
                        let (v, (batch, features)) = (net.layer(l), self.leaf(s, l));
                        (v.weight_elems * features
                            + v.input_elems * (batch * features)
                            + v.output_elems * batch)
                            * precision
                    })
                    .sum::<f64>()
            })
            .sum()
    }

    fn finish(self) -> (StepReport, Option<String>) {
        let footprint = self.footprint();
        let Self {
            engine,
            accels,
            links,
            trace,
            num_levels,
            represented_tasks,
            compute_energy,
            dram_energy,
            link_energy,
            comm_bytes_per_level,
            dram_bytes,
            ..
        } = self;

        let num_accelerators = 1u64 << num_levels;
        let trace_summary = crate::SimTraceSummary {
            tasks: represented_tasks,
            resources: 2 * num_accelerators,
        };
        let schedule = engine.run();
        let chrome_trace = trace.then(|| schedule.chrome_trace());
        let compute_busy = schedule.busy_time(accels[0]);
        let link_busy = links
            .iter()
            .flatten()
            .map(|&r| schedule.busy_time(r))
            .fold(Seconds::ZERO, |a, b| if b > a { b } else { a });

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
            num_accelerators,
            trace_summary,
        };
        (report, chrome_trace)
    }
}

/// One task of `duration` after `deps` on each of `resources`: the
/// copies of one stage.
fn add_copies(
    engine: &mut Engine,
    resources: &[ResourceId],
    duration: Seconds,
    label: Option<&str>,
    deps: &[TaskId],
) -> Vec<TaskId> {
    resources
        .iter()
        .map(|&r| {
            let mut spec = TaskSpec::new(r, duration).after_all(deps.iter().copied());
            if let Some(label) = label {
                spec = spec.label(label);
            }
            engine.add_task(spec)
        })
        .collect()
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
        let (shapes, net) = setup("Lenet-c", 256);
        let report =
            simulate_step(&shapes, &baselines::all_data(&net, 0), &ArchConfig::paper()).unwrap();
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
        let one = simulate_step(&shapes, &baselines::all_data(&net, 0), &cfg).unwrap();
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

    /// The oracle: the full replication of every accelerator and pair
    /// channel.  Its graph must hold exactly the tasks and resources the
    /// report claims to represent.
    fn run_all_copies(mut builder: Builder<'_>) -> StepReport {
        builder.schedule_step();
        let represented = crate::SimTraceSummary {
            tasks: builder.engine.num_tasks() as u64,
            resources: builder.engine.num_resources() as u64,
        };
        let (report, _) = builder.finish();
        assert_eq!(report.trace_summary, represented);
        report
    }

    /// The quotient's report is bit-identical to the oracle's.
    fn assert_exact(quotient: &StepReport, full: &StepReport, case: &str) {
        use hypar_telemetry::StateHash;
        assert_eq!(quotient, full, "{case}");
        assert_eq!(quotient.state_hash(), full.state_hash(), "{case}");
    }

    fn assert_graph_exact(graph: &SegmentCommGraph, plan: &HierarchicalPlan, cfg: &ArchConfig) {
        let quotient = simulate_graph_step(graph, plan, cfg).unwrap();
        let full = run_all_copies(graph_builder(graph, plan, cfg, false, Copies::All).unwrap());
        assert_exact(
            &quotient,
            &full,
            &format!("{} {plan:?} {cfg:?}", graph.name()),
        );
    }

    /// Both topologies × overlap off/on × detailed PE off/on, and join
    /// compute on/off where the network has joins.
    fn oracle_configs(joins: bool) -> Vec<ArchConfig> {
        let mut configs = Vec::new();
        for topology in [crate::Topology::HTree, crate::Topology::Torus] {
            for overlap in [false, true] {
                for detailed in [false, true] {
                    for join_compute in [true, false].into_iter().take(1 + usize::from(joins)) {
                        let mut cfg = ArchConfig::paper()
                            .with_topology(topology)
                            .with_overlap(overlap)
                            .with_join_compute(join_compute);
                        if detailed {
                            cfg = cfg.with_detailed_pe();
                        }
                        configs.push(cfg);
                    }
                }
            }
        }
        configs
    }

    /// Levels the zoo oracle sweeps.
    const ORACLE_LEVELS: std::ops::RangeInclusive<usize> = 0..=6;

    fn chain_oracle(name: &str) {
        let (shapes, net) = setup(name, 256);
        for levels in ORACLE_LEVELS {
            let plans = [
                hierarchical::partition(&net, levels),
                baselines::all_data(&net, levels),
                baselines::all_model(&net, levels),
                baselines::one_weird_trick(&net, levels),
            ];
            let graph = SegmentCommGraph::chain(shapes.clone());
            for cfg in oracle_configs(false) {
                for plan in &plans {
                    assert_graph_exact(&graph, plan, &cfg);
                }
            }
        }
    }

    fn graph_oracle(name: &str) {
        let graph = graph_zoo::by_name(name).unwrap().segments(64).unwrap();
        for levels in ORACLE_LEVELS {
            let plans = [
                partition_graph(&graph, levels).unwrap(),
                plan_segments(&graph, |s| baselines::all_data(s, levels)).unwrap(),
                plan_segments(&graph, |s| baselines::all_model(s, levels)).unwrap(),
                plan_segments(&graph, |s| baselines::one_weird_trick(s, levels)).unwrap(),
            ];
            for cfg in oracle_configs(true) {
                for plan in &plans {
                    assert_graph_exact(&graph, plan, &cfg);
                }
            }
        }
    }

    #[test]
    fn quotient_matches_all_copies_on_the_chain_zoo() {
        for name in zoo::NAMES {
            chain_oracle(name);
        }
    }

    #[test]
    fn quotient_matches_all_copies_on_the_branchy_zoo() {
        for name in graph_zoo::NAMES {
            graph_oracle(name);
        }
    }

    #[test]
    fn quotient_trace_shows_one_row_per_resource_class() {
        let (shapes, net) = setup("VGG-A", 256);
        let plan = hierarchical::partition(&net, 4);
        let (report, trace) = simulate_step_traced(&shapes, &plan, &ArchConfig::paper()).unwrap();
        for row in ["accel0", "link0.0", "link3.0", "barrier"] {
            assert!(trace.contains(&format!("\"{row}\"")), "trace missing {row}");
        }
        for row in ["accel1", "link1.1", "link3.1"] {
            assert!(!trace.contains(row), "trace has a second copy: {row}");
        }
        // The summary still counts the full array: 16 accelerators, 15
        // pair channels and the barrier.
        assert_eq!(report.num_accelerators, 16);
        assert_eq!(report.trace_summary.resources, 32);
    }

    mod properties {
        use super::*;
        use hypar_core::exhaustive::assignment_from_bits;
        use hypar_graph::{GraphBuilder, INPUT};
        use hypar_models::ConvSpec;
        use hypar_tensor::FeatureDims;
        use proptest::prelude::*;

        /// A random DAG: a stem, then residual blocks `(channels,
        /// projection, add)` joined with their skip by `add` (when the
        /// channel counts agree) or `concat`, into a classifier.  With no
        /// blocks it is a chain.
        #[derive(Clone, Debug)]
        struct DagSpec {
            stem: u64,
            blocks: Vec<(u64, bool, bool)>,
            classes: u64,
        }

        impl DagSpec {
            fn build(&self) -> hypar_graph::DagNetwork {
                let mut g = GraphBuilder::new("prop", FeatureDims::new(3, 8, 8));
                g.conv("stem", ConvSpec::same(self.stem, 3), INPUT);
                let (mut prev, mut channels) = ("stem".to_owned(), self.stem);
                for (i, &(out, projection, add)) in self.blocks.iter().enumerate() {
                    let body = format!("body{i}");
                    g.conv(&body, ConvSpec::same(out, 3), &prev);
                    let (skip, skip_channels) = if projection {
                        let proj = format!("proj{i}");
                        g.conv(&proj, ConvSpec::same(out, 1), &prev);
                        (proj, out)
                    } else {
                        (prev.clone(), channels)
                    };
                    let join = format!("join{i}");
                    if add && skip_channels == out {
                        g.add(&join, &[&body, &skip]);
                        channels = out;
                    } else {
                        g.concat(&join, &[&body, &skip]);
                        channels = out + skip_channels;
                    }
                    prev = join;
                }
                g.fully_connected("fc", self.classes, &prev);
                g.build().unwrap()
            }
        }

        fn arb_dag() -> impl Strategy<Value = DagSpec> {
            (
                1u64..16,
                proptest::collection::vec((1u64..16, any::<bool>(), any::<bool>()), 0..3),
                1u64..64,
            )
                .prop_map(|(stem, blocks, classes)| DagSpec {
                    stem,
                    blocks,
                    classes,
                })
        }

        fn arb_config() -> impl Strategy<Value = ArchConfig> {
            (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()).prop_map(
                |(torus, overlap, detailed, join_compute)| {
                    let topology = if torus {
                        crate::Topology::Torus
                    } else {
                        crate::Topology::HTree
                    };
                    let cfg = ArchConfig::paper()
                        .with_topology(topology)
                        .with_overlap(overlap)
                        .with_join_compute(join_compute);
                    if detailed {
                        cfg.with_detailed_pe()
                    } else {
                        cfg
                    }
                },
            )
        }

        /// A plan with one random dp/mp bit per layer per level.
        fn random_plan(names: Vec<String>, bits: &[u64]) -> HierarchicalPlan {
            let levels = bits
                .iter()
                .map(|&b| assignment_from_bits(b, names.len()))
                .collect();
            HierarchicalPlan::from_parts("prop", names, levels, 0.0)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Random chains and DAGs under random plan bits and random
            /// configurations: the quotient is bit-identical to the full
            /// replication.
            #[test]
            fn quotient_matches_all_copies_on_random_plans(
                spec in arb_dag(),
                bits in proptest::collection::vec(any::<u64>(), 0..6),
                batch in 1u64..64,
                cfg in arb_config(),
            ) {
                let dag = spec.build();
                let graph = dag.segments(batch).unwrap();
                let names: Vec<String> = graph
                    .segments()
                    .iter()
                    .flat_map(|s| s.layers().iter().map(|l| l.name.clone()))
                    .collect();
                let plan = random_plan(names, &bits);
                assert_graph_exact(&graph, &plan, &cfg);
                if dag.is_chain() {
                    let shapes = NetworkShapes::infer(&dag.linearize().unwrap(), batch).unwrap();
                    assert_graph_exact(&SegmentCommGraph::chain(shapes), &plan, &cfg);
                }
            }
        }
    }
}
