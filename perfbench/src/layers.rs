//! The traced run: replays the service run's lines in process, through
//! the real `service::handle_line` and through the traced composition,
//! and turns the spans into the per-layer table and metrics.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

use hypar_engine::{service, PlanEngine, Recorder};
use serde::Value;

use crate::check::state_hash_of;
use crate::gen::{Stream, Workload};
use crate::trace::{Composer, Tracer};
use crate::{metric, ServiceRun};

/// Every timed layer, in pipeline order.  `engine.plan` stands for the
/// whole of `PlanEngine::plan` on inline networks.
const LAYERS: [&str; 19] = [
    "json.parse",
    "request.decode",
    "resolve",
    "fingerprint",
    "cache.get",
    "core.search",
    "core.refine",
    "core.evaluate",
    "core.exhaustive",
    "graph.plan_segments",
    "graph.stitch",
    "graph.refine",
    "graph.exhaustive",
    "sim",
    "statehash",
    "cache.insert",
    "engine.plan",
    "record",
    "json.serialize",
];
const ROOT: &str = "request";
const HANDLE: &str = "service.handle_line";

/// The per-layer metrics and every failed reproduction.
pub struct Traced {
    pub metrics: Vec<String>,
    pub failures: Vec<String>,
}

fn fresh_recorder(path: &Path) -> Result<Recorder, String> {
    match std::fs::remove_file(path) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("{}: {e}", path.display())),
    }
    Recorder::append_to(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

/// Replays `run`'s set-up and measured lines in process.  Each measured
/// line goes through `service::handle_line` on a harness-owned engine
/// (the untraced reference, timed as one span) and through the traced
/// composition, alternating which goes first; both must reproduce the
/// `state_hash` the service returned.
pub fn traced_pass(
    workload: Workload,
    stream: &Stream,
    run: &ServiceRun,
    dir: &Path,
) -> Result<Traced, String> {
    let tag = workload.name();
    let recording = workload == Workload::ColdPlan;
    let composed_log = dir.join(format!("{tag}.traced-record.jsonl"));
    let (reference_recorder, composer) = if recording {
        (
            Some(fresh_recorder(
                &dir.join(format!("{tag}.reference-record.jsonl")),
            )?),
            Composer::new(Some(fresh_recorder(&composed_log)?)),
        )
    } else {
        (None, Composer::new(None))
    };
    let engine = PlanEngine::new();
    let mut tr = Tracer::new();
    let line = |i: usize| stream.lines[i].trim_end();
    for &i in &stream.setup {
        let _ = service::handle_line_recorded(&engine, line(i), reference_recorder.as_ref());
        composer.handle(&mut tr, line(i), 0);
    }
    tr.clear();
    let record_before = file_len(&composed_log);
    let mut failures = Vec::new();
    let mut handle_ns = Vec::with_capacity(run.sent.len());
    for (k, &i) in run.sent.iter().enumerate() {
        let req = k as u32 + 1;
        let reference = |tr: &mut Tracer| {
            let id = tr.open(HANDLE, req);
            let reply =
                service::handle_line_recorded(&engine, line(i), reference_recorder.as_ref());
            tr.close(id);
            let span = &tr.spans[id as usize - 1];
            (reply, span.end_ns - span.start_ns)
        };
        let (reply, ns, composed) = if k % 2 == 0 {
            let (reply, ns) = reference(&mut tr);
            (reply, ns, composer.handle(&mut tr, line(i), req))
        } else {
            let composed = composer.handle(&mut tr, line(i), req);
            let (reply, ns) = reference(&mut tr);
            (reply, ns, composed)
        };
        handle_ns.push(ns);
        let service_hash = state_hash_of(run.reply(k));
        let reference_hash = state_hash_of(&reply);
        if service_hash.is_none()
            || service_hash != reference_hash
            || service_hash != composed.state_hash.as_deref()
        {
            failures.push(format!(
                "traced composition does not reproduce state_hash {service_hash:?} \
                 (reference {reference_hash:?}, composed {:?}) for {}",
                composed.state_hash,
                line(i).chars().take(160).collect::<String>()
            ));
        }
    }
    let record_bytes = file_len(&composed_log) - record_before;
    write_spans(&tr, &dir.join(format!("{tag}.spans.jsonl")))?;
    let metrics = layer_metrics(workload, &tr, run, &handle_ns, record_bytes);
    Ok(Traced { metrics, failures })
}

/// Writes every span as one JSON line.
fn write_spans(tr: &Tracer, path: &Path) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("{}: {e}", path.display());
    let file = std::fs::File::create(path).map_err(fail)?;
    let mut out = std::io::BufWriter::new(file);
    for s in &tr.spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )
        .map_err(fail)?;
    }
    out.flush().map_err(fail)?;
    println!("spans: {} written to {}", tr.spans.len(), path.display());
    Ok(())
}

#[derive(Default, Clone, Copy)]
struct Layer {
    self_ns: f64,
    calls: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Self time per span name: a span's duration minus its children's.
fn self_times(tr: &Tracer) -> BTreeMap<&'static str, Layer> {
    let mut child_ns = vec![0.0; tr.spans.len() + 1];
    for s in &tr.spans {
        child_ns[s.parent as usize] += (s.end_ns - s.start_ns) as f64;
    }
    let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for s in &tr.spans {
        let layer = layers.entry(s.name).or_default();
        layer.self_ns += (s.end_ns - s.start_ns) as f64 - child_ns[s.id as usize];
        layer.calls += 1.0;
    }
    layers
}

fn layer_metrics(
    workload: Workload,
    tr: &Tracer,
    run: &ServiceRun,
    handle_ns: &[u64],
    record_bytes: f64,
) -> Vec<String> {
    let layers = self_times(tr);
    let total_ns: f64 = tr
        .spans
        .iter()
        .filter(|s| s.name == ROOT)
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .sum();
    let handle_total: f64 = handle_ns.iter().map(|&ns| ns as f64).sum();
    let e2e_total: f64 = run.latencies_ns.iter().map(|&ns| ns as f64).sum();
    let mut waits: Vec<f64> = run
        .latencies_ns
        .iter()
        .zip(handle_ns)
        .map(|(&e2e, &h)| (e2e as f64 - h as f64) / 1e6)
        .collect();
    waits.sort_by(f64::total_cmp);
    let wait_p50 = crate::stats::percentile(&waits, 50_000);
    let overhead_pct = ratio(total_ns - handle_total, handle_total) * 100.0;
    let count = |name: &str| tr.counts.get(name).copied().unwrap_or(0.0);

    println!(
        "layer table: {} ({} requests, traced total {:.3} ms)",
        workload.name(),
        handle_ns.len(),
        total_ns / 1e6
    );
    println!(
        "  {:<22} {:>12} {:>9} {:>7}",
        "layer", "self_ms", "calls", "share"
    );
    let mut metrics = Vec::new();
    for name in LAYERS {
        let layer = layers.get(name).copied().unwrap_or_default();
        let share = ratio(layer.self_ns, total_ns);
        if layer.calls > 0.0 {
            println!(
                "  {name:<22} {:>12.3} {:>9} {:>7.4}",
                layer.self_ns / 1e6,
                layer.calls,
                share
            );
        }
        metrics.push(metric(
            &format!("{name}.self_ms"),
            layer.self_ns / 1e6,
            "ms",
        ));
        metrics.push(metric(&format!("{name}.calls"), layer.calls, "count"));
        metrics.push(metric(&format!("{name}.share"), share, "ratio"));
    }
    let glue = layers.get(ROOT).copied().unwrap_or_default();
    println!(
        "  {:<22} {:>12.3} {:>9} {:>7.4}",
        "(harness glue)",
        glue.self_ns / 1e6,
        glue.calls,
        ratio(glue.self_ns, total_ns)
    );
    // The untraced reference: its share is of the client-observed time.
    let handle_share = ratio(handle_total, e2e_total);
    println!(
        "  {HANDLE:<22} {:>12.3} {:>9} {:>7.4} (of end-to-end time)",
        handle_total / 1e6,
        handle_ns.len(),
        handle_share
    );
    metrics.push(metric(
        &format!("{HANDLE}.self_ms"),
        handle_total / 1e6,
        "ms",
    ));
    metrics.push(metric(
        &format!("{HANDLE}.calls"),
        handle_ns.len() as f64,
        "count",
    ));
    metrics.push(metric(&format!("{HANDLE}.share"), handle_share, "ratio"));

    let cache = run.stats.get("cache");
    let server = |name: &str| {
        cache
            .and_then(|c| c.get(name))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    let (hits, misses) = (server("hits"), server("misses"));
    let sim_s = layers.get("sim").map_or(0.0, |l| l.self_ns / 1e9);
    let accept = |prefix: &str| {
        ratio(
            count(&format!("{prefix}.flips")),
            count(&format!("{prefix}.tries")),
        )
    };
    let extras = [
        ("json.bytes_in", count("json.bytes_in"), "bytes"),
        ("json.bytes_out", count("json.bytes_out"), "bytes"),
        ("resolve.segments", count("resolve.segments"), "count"),
        ("cache.hits", hits, "count"),
        ("cache.misses", misses, "count"),
        ("cache.evictions", server("evictions"), "count"),
        ("cache.hit_ratio", ratio(hits, hits + misses), "ratio"),
        ("core.refine.sweeps", count("core.refine.sweeps"), "count"),
        ("core.refine.flips", count("core.refine.flips"), "count"),
        ("core.refine.accept_ratio", accept("core.refine"), "ratio"),
        ("graph.refine.sweeps", count("graph.refine.sweeps"), "count"),
        ("graph.refine.flips", count("graph.refine.flips"), "count"),
        ("graph.refine.accept_ratio", accept("graph.refine"), "ratio"),
        ("graph.segments", count("graph.segments"), "count"),
        (
            "exhaustive.candidates",
            count("exhaustive.candidates"),
            "count",
        ),
        ("sim.des_tasks", count("sim.des_tasks"), "count"),
        (
            "sim.tasks_per_s",
            ratio(count("sim.des_tasks"), sim_s),
            "1/s",
        ),
        (
            "sim.step_time_ms",
            ratio(count("sim.step_time_ms"), count("sim.steps")),
            "ms",
        ),
        ("record.bytes", record_bytes, "bytes"),
        ("transport.wait_ms", wait_p50, "ms"),
        ("trace.overhead_pct", overhead_pct, "%"),
    ];
    for (name, value, unit) in extras {
        println!("  {name:<26} {value:.4} {unit}");
        metrics.push(metric(name, value, unit));
    }
    metrics
}
