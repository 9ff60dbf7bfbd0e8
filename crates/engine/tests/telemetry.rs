//! The engine's telemetry surface, end to end: per-request span traces,
//! the metrics registry behind `metrics_snapshot`, and the service's
//! `{"stats": true}` admin command.

#![expect(
    clippy::let_underscore_must_use,
    reason = "results a test does not inspect are discarded"
)]

use hypar_engine::{service, PlanEngine, PlanRequest, Strategy};
use serde::Value;

#[test]
fn traced_request_returns_a_span_tree_untraced_does_not() {
    let engine = PlanEngine::new();
    let plain = engine
        .plan(&PlanRequest::zoo("vgg_a").levels(4).batch(256))
        .unwrap();
    assert!(plain.timing.is_none(), "untraced requests carry no timing");

    let traced = engine
        .plan(&PlanRequest::zoo("alexnet").levels(4).batch(256).trace(true))
        .unwrap();
    let timing = traced.timing.expect("traced requests carry timing");
    assert_eq!(timing.trace.name, "plan");
    assert_eq!(timing.total_ns, timing.trace.duration_ns);
    let compute = timing.trace.find("compute").expect("cache-miss compute");
    // A chain plans as the one-segment graph: it seeds its one segment
    // and stitches it, exactly as a DAG does.
    let plan_segments = compute.find("plan_segments").expect("plan_segments child");
    assert_eq!(plan_segments.counter("segments"), Some(1));
    assert!(
        compute.find("stitch").is_some(),
        "chains record a `stitch` child: {:?}",
        timing.trace
    );
    assert!(compute.find("search").is_none(), "{:?}", timing.trace);
    assert!(timing.trace.find("resolve").is_some());
    assert!(timing.trace.find("cache_lookup").is_some());
}

#[test]
fn trace_flag_is_excluded_from_the_fingerprint() {
    // Traced and untraced versions of the same workload must share one
    // cache entry: the flag changes what the caller gets back, not what
    // gets planned.
    let engine = PlanEngine::new();
    let base = PlanRequest::zoo("vgg_a").levels(4).batch(256);
    let plain = engine.plan(&base).unwrap();
    assert!(!plain.cache_hit);

    let traced = engine.plan(&base.clone().trace(true)).unwrap();
    assert!(traced.cache_hit, "traced repeat must hit the shared entry");
    assert_eq!(traced.fingerprint, plain.fingerprint);
    assert_eq!(traced.plan, plain.plan);
    let timing = traced.timing.expect("hits still report timing");
    assert!(
        timing.trace.find("compute").is_none(),
        "a cache hit never reaches compute"
    );
    assert!(timing.trace.find("cache_lookup").is_some());
}

#[test]
fn traced_refined_resnet_sweeps_match_the_stats_counter() {
    // The ISSUE's acceptance check: a traced `refined` plan of the
    // branchy ResNet-18 DAG reports its coordinate-descent sweep count in
    // the span tree, and the engine-wide counter agrees exactly (fresh
    // engine, so this request is the only contributor).
    let engine = PlanEngine::new();
    let response = engine
        .plan(
            &PlanRequest::zoo("resnet18")
                .levels(4)
                .batch(64)
                .strategy(Strategy::Refined)
                .trace(true),
        )
        .unwrap();
    let timing = response.timing.expect("traced");
    let refine = timing.trace.find("refine").expect("refine span");
    let sweeps = refine.counter("sweeps").expect("sweeps counter");
    let flips = refine.counter("flips").expect("flips counter");
    assert!(sweeps >= 1, "descent always runs the certifying sweep");

    let snapshot = engine.metrics_snapshot();
    assert_eq!(snapshot.counter("refine_sweeps"), Some(sweeps));
    assert_eq!(snapshot.counter("refine_flips"), Some(flips));
    // The DAG path also decomposes into segments before refining.
    let plan_segments = timing.trace.find("plan_segments").expect("segments");
    assert_eq!(
        snapshot.counter("segments_planned"),
        plan_segments.counter("segments")
    );
    assert!(timing.trace.find("stitch").is_some());
}

#[test]
fn metrics_snapshot_counters_are_monotone_and_consistent() {
    let engine = PlanEngine::new();
    let base = PlanRequest::zoo("lenet_c").levels(3);
    for batch in [32, 64, 128] {
        engine.plan(&base.clone().batch(batch)).unwrap();
    }
    let first = engine.metrics_snapshot();
    assert_eq!(first.counter("requests"), Some(3));
    assert_eq!(first.counter("errors"), Some(0));
    // Every chain request seeds exactly one segment.
    assert_eq!(first.counter("segments_planned"), Some(3));
    assert_eq!(first.gauge("inflight"), Some(0));
    let latency = first.histogram("plan_latency_ns").expect("latency");
    assert_eq!(latency.count, 3);
    assert!(latency.p50 <= latency.p99);

    // Replays hit the cache: requests grows, compute does not.
    for batch in [32, 64, 128] {
        engine.plan(&base.clone().batch(batch)).unwrap();
    }
    let second = engine.metrics_snapshot();
    assert_eq!(second.counter("requests"), Some(6));
    assert_eq!(
        second.counter("segments_planned"),
        Some(3),
        "hits plan nothing"
    );
    assert_eq!(
        second.histogram("plan_compute_ns").map(|h| h.count),
        first.histogram("plan_compute_ns").map(|h| h.count),
        "cache hits must not re-record compute latency"
    );
    let stats = engine.cache_stats();
    assert_eq!(
        stats.hits + stats.misses,
        second.counter("requests").unwrap(),
        "every request is exactly one cache lookup"
    );
}

#[test]
fn compute_histogram_records_the_compute_span_duration() {
    // One clock: a cache miss records the finished `compute` span's own
    // duration, not a second timer wrapped around it.
    let engine = PlanEngine::new();
    let traced = engine
        .plan(&PlanRequest::zoo("lenet_c").levels(3).trace(true))
        .unwrap();
    let timing = traced.timing.expect("traced requests carry timing");
    let compute = timing.trace.find("compute").expect("cache-miss compute");
    let snapshot = engine.metrics_snapshot();
    let histogram = snapshot
        .histogram("plan_compute_ns")
        .expect("compute histogram");
    assert_eq!(histogram.count, 1);
    assert_eq!(histogram.sum, compute.duration_ns);
}

#[test]
fn plan_many_burst_keeps_stats_consistent() {
    // A parallel burst with repeats: whatever the interleaving, every
    // request performs exactly one lookup, so hits + misses == requests.
    let engine = PlanEngine::new();
    let requests: Vec<PlanRequest> = (0..24)
        .map(|i| PlanRequest::zoo("sfc").levels(2).batch(16 << (i % 3)))
        .collect();
    let results = engine.plan_many(&requests);
    assert_eq!(results.len(), 24);
    assert!(results.iter().all(Result::is_ok));

    let stats = engine.cache_stats();
    let snapshot = engine.metrics_snapshot();
    assert_eq!(snapshot.counter("requests"), Some(24));
    assert_eq!(stats.hits + stats.misses, 24);
    // Concurrent misses of the same fingerprint may compute redundantly,
    // but at least one miss per distinct workload is guaranteed.
    assert!(stats.misses >= 3, "3 distinct workloads: {stats:?}");
    assert_eq!(snapshot.gauge("inflight"), Some(0));
    let latency = snapshot.histogram("plan_latency_ns").expect("latency");
    assert_eq!(latency.count, 24);
}

#[test]
fn failed_requests_count_as_errors() {
    let engine = PlanEngine::new();
    let err = engine.plan(&PlanRequest::zoo("no-such-net").levels(2));
    assert!(err.is_err());
    let snapshot = engine.metrics_snapshot();
    assert_eq!(snapshot.counter("requests"), Some(1));
    assert_eq!(snapshot.counter("errors"), Some(1));
    assert_eq!(snapshot.gauge("inflight"), Some(0));
}

#[test]
fn service_stats_command_tracks_a_burst() {
    // Satellite check: drive the service front-end with a burst and read
    // the `{"stats": true}` snapshot back as plain JSON.
    let engine = PlanEngine::new();
    for line in [
        r#"{"network": "sfc", "levels": 2}"#,
        r#"{"network": "sfc", "levels": 2}"#,
        r#"{"network": "lenet_c", "levels": 3}"#,
    ] {
        let reply = service::handle_line(&engine, line);
        assert!(!reply.contains("\"error\""), "{reply}");
    }
    let reply = service::handle_line(&engine, r#"{"stats": true}"#);
    let value: Value = serde_json::from_str(&reply).unwrap();
    let cache = value.get("cache").expect("cache section");
    let hits = cache.get("hits").and_then(Value::as_u64).unwrap();
    let misses = cache.get("misses").and_then(Value::as_u64).unwrap();
    let metrics = value.get("metrics").expect("metrics section");
    let counters = metrics.get("counters").expect("counters");
    assert_eq!(counters.get("requests").and_then(Value::as_u64), Some(3));
    assert_eq!(hits + misses, 3);
    assert_eq!(hits, 1, "the repeated sfc request hits");

    // The snapshot is monotone: another request can only grow it.
    let _ = service::handle_line(&engine, r#"{"network": "sfc", "levels": 2}"#);
    let again = service::handle_line(&engine, r#"{"stats": true}"#);
    let value: Value = serde_json::from_str(&again).unwrap();
    let requests = value
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("requests"))
        .and_then(Value::as_u64);
    assert_eq!(requests, Some(4));
}
