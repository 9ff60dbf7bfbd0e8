//! A deterministic discrete-event engine.
//!
//! The simulator models one training step as a **task graph**: every
//! compute phase and every tensor transfer is a task with a fixed duration,
//! a set of dependencies, and an exclusive resource (an accelerator's
//! processing unit, or one level's group-pair link).  The engine executes
//! the graph event-by-event: a task becomes *ready* when its last
//! dependency finishes, waits in its resource's queue, runs when the
//! resource frees up, and releases its dependents on completion.
//!
//! Scheduling is deterministic: ties are broken by ready time, then by
//! insertion order.
//!
//! # Examples
//!
//! ```
//! use hypar_sim::des::{Engine, TaskSpec};
//! use hypar_tensor::Seconds;
//!
//! let mut engine = Engine::new();
//! let cpu = engine.add_resource("cpu");
//! let a = engine.add_task(TaskSpec::new(cpu, Seconds(1.0)));
//! let b = engine.add_task(TaskSpec::new(cpu, Seconds(2.0)).after(a));
//! let schedule = engine.run();
//! assert_eq!(schedule.finish_time(b).value(), 3.0);
//! assert_eq!(schedule.makespan().value(), 3.0);
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hypar_tensor::Seconds;

/// Identifier of a task within one [`Engine`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(usize);

/// Identifier of an exclusive resource within one [`Engine`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(usize);

/// Specification of one task: its resource, duration, and dependencies.
#[derive(Clone, Debug)]
pub struct TaskSpec {
    resource: ResourceId,
    duration: Seconds,
    deps: Vec<TaskId>,
    label: Option<String>,
}

impl TaskSpec {
    /// A task of the given duration on the given resource with no
    /// dependencies.
    #[must_use]
    pub fn new(resource: ResourceId, duration: Seconds) -> Self {
        Self {
            resource,
            duration,
            deps: Vec::new(),
            label: None,
        }
    }

    /// Names the task for trace export ([`Schedule::chrome_trace`]).
    #[must_use]
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Adds a dependency: this task cannot start before `dep` finishes.
    #[must_use]
    pub fn after(mut self, dep: TaskId) -> Self {
        self.deps.push(dep);
        self
    }

    /// Adds several dependencies at once.
    #[must_use]
    pub fn after_all(mut self, deps: impl IntoIterator<Item = TaskId>) -> Self {
        self.deps.extend(deps);
        self
    }
}

#[derive(Debug)]
struct Task {
    resource: ResourceId,
    duration: f64,
    pending_deps: usize,
    dependents: Vec<usize>,
    label: Option<String>,
}

#[derive(Debug)]
struct Resource {
    name: String,
    busy_until: f64,
    busy_total: f64,
    /// Ready tasks waiting for this resource: (ready time, task index).
    queue: BinaryHeap<Reverse<(OrderedTime, usize)>>,
    running: bool,
}

/// Total order for event times; task durations are finite by construction.
#[derive(Copy, Clone, Debug, PartialEq)]
struct OrderedTime(f64);

impl Eq for OrderedTime {}

impl PartialOrd for OrderedTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The deterministic discrete-event engine.
///
/// Build the graph with [`Engine::add_resource`] and [`Engine::add_task`],
/// then call [`Engine::run`].
#[derive(Debug)]
pub struct Engine {
    tasks: Vec<Task>,
    resources: Vec<Resource>,
}

impl Engine {
    /// Creates an empty engine.
    #[must_use]
    pub fn new() -> Self {
        Self {
            tasks: Vec::new(),
            resources: Vec::new(),
        }
    }

    /// Registers an exclusive resource.
    pub fn add_resource(&mut self, name: impl Into<String>) -> ResourceId {
        self.resources.push(Resource {
            name: name.into(),
            busy_until: 0.0,
            busy_total: 0.0,
            queue: BinaryHeap::new(),
            running: false,
        });
        ResourceId(self.resources.len() - 1)
    }

    /// Registers a task.
    ///
    /// # Panics
    ///
    /// Panics if the spec references an unknown resource or task, or if the
    /// duration is negative or non-finite.
    pub fn add_task(&mut self, spec: TaskSpec) -> TaskId {
        assert!(spec.resource.0 < self.resources.len(), "unknown resource");
        assert!(
            spec.duration.value() >= 0.0 && spec.duration.value().is_finite(),
            "task duration must be finite and non-negative"
        );
        let id = self.tasks.len();
        let mut pending = 0;
        for dep in &spec.deps {
            assert!(dep.0 < id, "dependencies must be previously added tasks");
        }
        // Dedup so a task listed twice as a dependency is counted once.
        let mut deps = spec.deps;
        deps.sort_unstable();
        deps.dedup();
        for dep in &deps {
            self.tasks[dep.0].dependents.push(id);
            pending += 1;
        }
        self.tasks.push(Task {
            resource: spec.resource,
            duration: spec.duration.value(),
            pending_deps: pending,
            dependents: Vec::new(),
            label: spec.label,
        });
        TaskId(id)
    }

    /// Number of resources added so far.
    #[must_use]
    pub fn num_resources(&self) -> usize {
        self.resources.len()
    }

    /// Number of tasks added so far.
    #[must_use]
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Executes the graph to completion and returns the schedule.
    ///
    /// # Panics
    ///
    /// Panics if the dependency graph is cyclic (impossible through the
    /// public API, which only allows backward references).
    #[must_use]
    pub fn run(mut self) -> Schedule {
        let n = self.tasks.len();
        let mut finish = vec![0.0f64; n];
        let mut start = vec![0.0f64; n];
        let mut done = vec![false; n];
        // Event heap ordered by (time, kind-priority, task index): finishes
        // before readies at equal times so freed resources pick up work
        // deterministically.
        let mut events: BinaryHeap<Reverse<(OrderedTime, u8, usize)>> = BinaryHeap::new();

        for (i, task) in self.tasks.iter().enumerate() {
            if task.pending_deps == 0 {
                events.push(Reverse((OrderedTime(0.0), 1, i)));
            }
        }

        let mut completed = 0usize;
        while let Some(Reverse((OrderedTime(now), kind, idx))) = events.pop() {
            match kind {
                0 => {
                    // Finish.
                    debug_assert!(!done[idx]);
                    done[idx] = true;
                    completed += 1;
                    let resource = self.tasks[idx].resource.0;
                    self.resources[resource].running = false;
                    // Release dependents.
                    let dependents = std::mem::take(&mut self.tasks[idx].dependents);
                    for d in dependents {
                        self.tasks[d].pending_deps -= 1;
                        if self.tasks[d].pending_deps == 0 {
                            events.push(Reverse((OrderedTime(now), 1, d)));
                        }
                    }
                    // Start the next queued task, if any.
                    if let Some(Reverse((ready, next))) = self.resources[resource].queue.pop() {
                        debug_assert!(ready.0 <= now);
                        start_task(
                            &mut self.resources[resource],
                            next,
                            now,
                            &self.tasks,
                            &mut start,
                            &mut finish,
                            &mut events,
                        );
                    }
                }
                _ => {
                    // Ready: enqueue on the resource; start immediately if idle.
                    let resource = self.tasks[idx].resource.0;
                    if self.resources[resource].running {
                        self.resources[resource]
                            .queue
                            .push(Reverse((OrderedTime(now), idx)));
                    } else {
                        start_task(
                            &mut self.resources[resource],
                            idx,
                            now,
                            &self.tasks,
                            &mut start,
                            &mut finish,
                            &mut events,
                        );
                    }
                }
            }
        }

        assert_eq!(completed, n, "dependency graph did not complete (cycle?)");
        let makespan = finish.iter().copied().fold(0.0, f64::max);
        Schedule {
            start: start.into_iter().map(Seconds).collect(),
            finish: finish.into_iter().map(Seconds).collect(),
            makespan: Seconds(makespan),
            resource_busy: self
                .resources
                .iter()
                .map(|r| Seconds(r.busy_total))
                .collect(),
            resource_names: self.resources.iter().map(|r| r.name.clone()).collect(),
            task_resources: self.tasks.iter().map(|t| t.resource).collect(),
            task_labels: self.tasks.iter().map(|t| t.label.clone()).collect(),
        }
    }
}

fn start_task(
    resource: &mut Resource,
    idx: usize,
    now: f64,
    tasks: &[Task],
    start: &mut [f64],
    finish: &mut [f64],
    events: &mut BinaryHeap<Reverse<(OrderedTime, u8, usize)>>,
) {
    resource.running = true;
    let dur = tasks[idx].duration;
    start[idx] = now;
    finish[idx] = now + dur;
    resource.busy_until = now + dur;
    resource.busy_total += dur;
    events.push(Reverse((OrderedTime(now + dur), 0, idx)));
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

/// The result of executing a task graph.
#[derive(Clone, Debug)]
pub struct Schedule {
    start: Vec<Seconds>,
    finish: Vec<Seconds>,
    makespan: Seconds,
    resource_busy: Vec<Seconds>,
    resource_names: Vec<String>,
    task_resources: Vec<ResourceId>,
    task_labels: Vec<Option<String>>,
}

impl Schedule {
    /// When the given task started.
    #[must_use]
    pub fn start_time(&self, task: TaskId) -> Seconds {
        self.start[task.0]
    }

    /// When the given task finished.
    #[must_use]
    pub fn finish_time(&self, task: TaskId) -> Seconds {
        self.finish[task.0]
    }

    /// Completion time of the whole graph.
    #[must_use]
    pub fn makespan(&self) -> Seconds {
        self.makespan
    }

    /// Total busy time of a resource (its utilization numerator).
    #[must_use]
    pub fn busy_time(&self, resource: ResourceId) -> Seconds {
        self.resource_busy[resource.0]
    }

    /// Exports the schedule as a Chrome trace (the JSON consumed by
    /// `chrome://tracing` / Perfetto): one timeline row per resource, one
    /// slice per labeled task.  Unlabeled zero-duration tasks (barriers)
    /// are omitted.
    ///
    /// # Examples
    ///
    /// ```
    /// use hypar_sim::des::{Engine, TaskSpec};
    /// use hypar_tensor::Seconds;
    ///
    /// let mut engine = Engine::new();
    /// let cpu = engine.add_resource("accel0");
    /// engine.add_task(TaskSpec::new(cpu, Seconds(1.0)).label("fwd conv1"));
    /// let trace = engine.run().chrome_trace();
    /// assert!(trace.contains("fwd conv1"));
    /// assert!(trace.contains("accel0"));
    /// ```
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("[\n");
        let mut first = true;
        for (tid, name) in self.resource_names.iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            ));
        }
        for (i, label) in self.task_labels.iter().enumerate() {
            let Some(label) = label else { continue };
            let start_us = self.start[i].value() * 1e6;
            let dur_us = (self.finish[i].value() - self.start[i].value()) * 1e6;
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{label}\",\"ph\":\"X\",\"ts\":{start_us:.3},\
                 \"dur\":{dur_us:.3},\"pid\":0,\"tid\":{}}}",
                self.task_resources[i].0
            ));
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_has_zero_makespan() {
        let engine = Engine::new();
        assert_eq!(engine.run().makespan().value(), 0.0);
    }

    #[test]
    fn independent_tasks_on_different_resources_run_in_parallel() {
        let mut engine = Engine::new();
        let r1 = engine.add_resource("a");
        let r2 = engine.add_resource("b");
        engine.add_task(TaskSpec::new(r1, Seconds(3.0)));
        engine.add_task(TaskSpec::new(r2, Seconds(2.0)));
        assert_eq!(engine.run().makespan().value(), 3.0);
    }

    #[test]
    fn same_resource_serializes() {
        let mut engine = Engine::new();
        let r = engine.add_resource("a");
        let t1 = engine.add_task(TaskSpec::new(r, Seconds(3.0)));
        let t2 = engine.add_task(TaskSpec::new(r, Seconds(2.0)));
        let s = engine.run();
        assert_eq!(s.makespan().value(), 5.0);
        // Insertion order breaks the tie at t=0.
        assert_eq!(s.finish_time(t1).value(), 3.0);
        assert_eq!(s.finish_time(t2).value(), 5.0);
    }

    #[test]
    fn dependencies_delay_start() {
        let mut engine = Engine::new();
        let r1 = engine.add_resource("a");
        let r2 = engine.add_resource("b");
        let t1 = engine.add_task(TaskSpec::new(r1, Seconds(4.0)));
        let t2 = engine.add_task(TaskSpec::new(r2, Seconds(1.0)).after(t1));
        let s = engine.run();
        assert_eq!(s.start_time(t2).value(), 4.0);
        assert_eq!(s.finish_time(t2).value(), 5.0);
    }

    #[test]
    fn diamond_joins_at_the_slowest_branch() {
        let mut engine = Engine::new();
        let r: Vec<_> = (0..4)
            .map(|i| engine.add_resource(format!("r{i}")))
            .collect();
        let head = engine.add_task(TaskSpec::new(r[0], Seconds(1.0)));
        let fast = engine.add_task(TaskSpec::new(r[1], Seconds(1.0)).after(head));
        let slow = engine.add_task(TaskSpec::new(r[2], Seconds(5.0)).after(head));
        let tail = engine.add_task(TaskSpec::new(r[3], Seconds(1.0)).after(fast).after(slow));
        let s = engine.run();
        assert_eq!(s.finish_time(tail).value(), 7.0);
    }

    #[test]
    fn queued_tasks_run_in_ready_order() {
        let mut engine = Engine::new();
        let producer = engine.add_resource("p");
        let shared = engine.add_resource("s");
        // t_early becomes ready at 1.0, t_late at 2.0; both queue on `shared`
        // behind a long task. The earlier-ready one must run first.
        let blocker = engine.add_task(TaskSpec::new(shared, Seconds(10.0)));
        let e1 = engine.add_task(TaskSpec::new(producer, Seconds(1.0)));
        let e2 = engine.add_task(TaskSpec::new(producer, Seconds(1.0)).after(e1));
        let late = engine.add_task(TaskSpec::new(shared, Seconds(1.0)).after(e2));
        let early = engine.add_task(TaskSpec::new(shared, Seconds(1.0)).after(e1));
        let s = engine.run();
        assert_eq!(s.finish_time(blocker).value(), 10.0);
        assert!(s.start_time(early) < s.start_time(late));
    }

    #[test]
    fn zero_duration_tasks_are_legal() {
        let mut engine = Engine::new();
        let r = engine.add_resource("a");
        let t = engine.add_task(TaskSpec::new(r, Seconds(0.0)));
        let s = engine.run();
        assert_eq!(s.finish_time(t).value(), 0.0);
    }

    #[test]
    fn busy_time_accumulates() {
        let mut engine = Engine::new();
        let r = engine.add_resource("a");
        engine.add_task(TaskSpec::new(r, Seconds(1.5)));
        engine.add_task(TaskSpec::new(r, Seconds(2.5)));
        let s = engine.run();
        assert_eq!(s.busy_time(ResourceId(0)).value(), 4.0);
    }

    #[test]
    fn duplicate_dependencies_count_once() {
        let mut engine = Engine::new();
        let r = engine.add_resource("a");
        let t1 = engine.add_task(TaskSpec::new(r, Seconds(1.0)));
        let t2 = engine.add_task(TaskSpec::new(r, Seconds(1.0)).after(t1).after(t1));
        let s = engine.run();
        assert_eq!(s.finish_time(t2).value(), 2.0);
    }

    #[test]
    #[should_panic(expected = "previously added tasks")]
    fn forward_dependency_panics() {
        let mut engine = Engine::new();
        let r = engine.add_resource("a");
        let _ = engine.add_task(TaskSpec::new(r, Seconds(1.0)).after(TaskId(5)));
    }

    #[test]
    fn large_chain_scales() {
        let mut engine = Engine::new();
        let r = engine.add_resource("a");
        let mut prev = engine.add_task(TaskSpec::new(r, Seconds(0.001)));
        for _ in 0..10_000 {
            prev = engine.add_task(TaskSpec::new(r, Seconds(0.001)).after(prev));
        }
        let s = engine.run();
        assert!((s.makespan().value() - 10.001).abs() < 1e-6);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// A random DAG: `(resource, duration, deps-as-bitmask-over-earlier-tasks)`.
        fn arb_graph() -> impl Strategy<Value = Vec<(usize, f64, u64)>> {
            proptest::collection::vec((0usize..4, 0.0f64..10.0, any::<u64>()), 1..40)
        }

        fn build(graph: &[(usize, f64, u64)]) -> (Engine, Vec<TaskId>) {
            let mut engine = Engine::new();
            let resources: Vec<_> = (0..4)
                .map(|i| engine.add_resource(format!("r{i}")))
                .collect();
            let mut ids: Vec<TaskId> = Vec::new();
            for (i, &(res, dur, mask)) in graph.iter().enumerate() {
                let deps: Vec<TaskId> = (0..i.min(64))
                    .filter(|&j| mask >> j & 1 == 1)
                    .map(|j| ids[j])
                    .collect();
                ids.push(
                    engine.add_task(TaskSpec::new(resources[res], Seconds(dur)).after_all(deps)),
                );
            }
            (engine, ids)
        }

        proptest! {
            /// Every task finishes, after all of its dependencies.
            #[test]
            fn dependencies_are_respected(graph in arb_graph()) {
                let (engine, ids) = build(&graph);
                let schedule = engine.run();
                for (i, &(_, dur, mask)) in graph.iter().enumerate() {
                    prop_assert!(
                        (schedule.finish_time(ids[i]).value()
                            - schedule.start_time(ids[i]).value() - dur).abs() < 1e-9
                    );
                    for j in (0..i.min(64)).filter(|&j| mask >> j & 1 == 1) {
                        prop_assert!(
                            schedule.start_time(ids[i]) >= schedule.finish_time(ids[j]),
                            "task {i} started before dep {j} finished"
                        );
                    }
                }
            }

            /// The makespan is bounded below by every resource's busy time
            /// and above by the fully-serial sum.
            #[test]
            fn makespan_bounds(graph in arb_graph()) {
                let (engine, _) = build(&graph);
                let schedule = engine.run();
                let total: f64 = graph.iter().map(|&(_, d, _)| d).sum();
                prop_assert!(schedule.makespan().value() <= total + 1e-9);
                for r in 0..4 {
                    prop_assert!(
                        schedule.busy_time(ResourceId(r)).value()
                            <= schedule.makespan().value() + 1e-9
                    );
                }
            }

            /// Scheduling is deterministic.
            #[test]
            fn deterministic(graph in arb_graph()) {
                let (e1, ids) = build(&graph);
                let (e2, _) = build(&graph);
                let s1 = e1.run();
                let s2 = e2.run();
                for &id in &ids {
                    prop_assert_eq!(s1.start_time(id), s2.start_time(id));
                    prop_assert_eq!(s1.finish_time(id), s2.finish_time(id));
                }
            }
        }
    }
}
