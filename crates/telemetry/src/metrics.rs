//! Atomic metric instruments and the named registry that snapshots them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use serde::{Deserialize, Serialize, Value};

/// A monotone event counter.
///
/// All operations are relaxed atomics: counters are statistics, not
/// synchronization, and a snapshot taken mid-burst is allowed to sit
/// anywhere between the burst's start and end values.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous level (e.g. in-flight requests).  Unlike a
/// [`Counter`] it moves both ways.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge starting at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the level.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Raises the level by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Lowers the level by `n`, saturating at zero (a release racing a
    /// snapshot must not wrap to `u64::MAX`).
    pub fn sub(&self, n: u64) {
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_sub(n);
            match self
                .0
                .compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// The current level.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket count of a [`Histogram`]: bucket 0 holds the value 0 and bucket
/// `b ≥ 1` holds values in `[2^(b-1), 2^b)`, so 65 buckets cover all of
/// `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucketed histogram of non-negative values (the engine records
/// latencies in nanoseconds).
///
/// Recording is one relaxed `fetch_add` per observation plus min/max
/// maintenance — cheap enough for every request.  Quantiles are estimated
/// from the bucket boundaries ([`HistogramSnapshot`] documents the
/// error), which is the usual trade for a fixed-size lock-free histogram.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// The bucket a value falls into (see [`HISTOGRAM_BUCKETS`]).
fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// The largest value bucket `b` holds — the conservative (upper-bound)
/// quantile estimate for observations in it.
fn bucket_upper_bound(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of observations so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time summary.  Concurrent recording keeps every bucket
    /// internally coherent; across fields the snapshot may straddle an
    /// in-flight observation (count and sum are read independently),
    /// which is fine for statistics.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        let sum = self.sum.load(Ordering::Relaxed);
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            // Nearest-rank over the bucket counts: the smallest bucket
            // whose cumulative count reaches ceil(q * count).
            #[expect(
                clippy::cast_possible_truncation,
                reason = "q in [0, 1] keeps the rank within 0..=count"
            )]
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (b, &n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    return bucket_upper_bound(b);
                }
            }
            bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
        };
        HistogramSnapshot {
            count,
            sum,
            mean: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
        }
    }
}

/// Point-in-time summary of a [`Histogram`].
///
/// `min`/`max` are exact; `p50`/`p90`/`p99` are upper bounds of the log2
/// bucket containing the quantile (at most 2x the true value).  All
/// values are in the unit the histogram was recorded in.
#[derive(Copy, Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// `sum / count` (0 when empty).
    pub mean: f64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Median estimate (log2-bucket upper bound).
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

/// A named set of instruments, snapshotted as one JSON object.
///
/// Handles are `Arc`s: callers register once (e.g. at engine
/// construction) and bump the shared instrument lock-free afterwards —
/// the registry mutex guards only registration and snapshotting.  The
/// lock recovers from poisoning the same way the engine's plan cache
/// does: registration keeps the vectors coherent at every step, so a
/// panicking holder costs nothing.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Vec<(String, Arc<Counter>)>,
    gauges: Vec<(String, Arc<Gauge>)>,
    histograms: Vec<(String, Arc<Histogram>)>,
}

fn get_or_insert<T: Default>(list: &mut Vec<(String, Arc<T>)>, name: &str) -> Arc<T> {
    if let Some((_, existing)) = list.iter().find(|(n, _)| n == name) {
        return Arc::clone(existing);
    }
    let instrument = Arc::new(T::default());
    list.push((name.to_owned(), Arc::clone(&instrument)));
    instrument
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The counter registered under `name`, creating it on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&mut self.lock().counters, name)
    }

    /// The gauge registered under `name`, creating it on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&mut self.lock().gauges, name)
    }

    /// The histogram registered under `name`, creating it on first use.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_insert(&mut self.lock().histograms, name)
    }

    /// A point-in-time snapshot of every registered instrument, **sorted
    /// by name** within each section.  Registration order is a runtime
    /// accident (it can differ between builds as call sites move);
    /// sorting makes the snapshot — and therefore the `{"stats": true}`
    /// service reply — canonical, so stats JSON diffs cleanly across
    /// runs and commits.
    #[must_use]
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.lock();
        let mut snapshot = RegistrySnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(n, c)| (n.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(n, g)| (n.clone(), g.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(n, h)| (n.clone(), h.snapshot()))
                .collect(),
        };
        snapshot.counters.sort_by(|a, b| a.0.cmp(&b.0));
        snapshot.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        snapshot.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        snapshot
    }
}

/// A point-in-time copy of a [`Registry`]'s instruments.
///
/// Serializes as `{"counters": {..}, "gauges": {..}, "histograms": {..}}`
/// with instrument names as keys.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// `(name, summary)` for every histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl RegistrySnapshot {
    /// The value of the counter named `name`, if registered.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The value of the gauge named `name`, if registered.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The summary of the histogram named `name`, if registered.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

impl Serialize for RegistrySnapshot {
    fn to_value(&self) -> Value {
        let map = |pairs: Vec<(String, Value)>| Value::Object(pairs);
        Value::Object(vec![
            (
                "counters".to_owned(),
                map(self
                    .counters
                    .iter()
                    .map(|(n, v)| (n.clone(), Value::U64(*v)))
                    .collect()),
            ),
            (
                "gauges".to_owned(),
                map(self
                    .gauges
                    .iter()
                    .map(|(n, v)| (n.clone(), Value::U64(*v)))
                    .collect()),
            ),
            (
                "histograms".to_owned(),
                map(self
                    .histograms
                    .iter()
                    .map(|(n, h)| (n.clone(), h.to_value()))
                    .collect()),
            ),
        ])
    }
}

impl Deserialize for RegistrySnapshot {
    fn from_value(v: &Value) -> Result<Self, serde::DeError> {
        let section = |key: &str| -> Result<&[(String, Value)], serde::DeError> {
            v.get(key)
                .and_then(Value::as_object)
                .ok_or_else(|| serde::DeError::missing_field(key, "RegistrySnapshot"))
        };
        let numbers = |key: &str| -> Result<Vec<(String, u64)>, serde::DeError> {
            section(key)?
                .iter()
                .map(|(n, val)| {
                    val.as_u64()
                        .map(|u| (n.clone(), u))
                        .ok_or_else(|| serde::DeError::expected("unsigned integer", val))
                })
                .collect()
        };
        Ok(RegistrySnapshot {
            counters: numbers("counters")?,
            gauges: numbers("gauges")?,
            histograms: section("histograms")?
                .iter()
                .map(|(n, val)| HistogramSnapshot::from_value(val).map(|h| (n.clone(), h)))
                .collect::<Result<_, _>>()?,
        })
    }
}

/// Exact nearest-rank percentile over an **ascending-sorted** slice
/// (`q` in `[0, 1]`); 0 for an empty slice.  The scenario runner uses
/// this where it holds every sample, as opposed to the bucket estimate a
/// [`Histogram`] trades exactness for.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    #[expect(
        clippy::cast_possible_truncation,
        reason = "q in [0, 1] keeps the rank within 0..=len"
    )]
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        g.add(3);
        g.sub(1);
        assert_eq!(g.get(), 2);
        g.sub(10); // saturates, never wraps
        assert_eq!(g.get(), 0);
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_bound_the_true_values() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        assert_eq!(s.sum, 500_500);
        // The log2 estimate never under-reports and is at most one
        // bucket (2x) above the true quantile.
        assert!(s.p50 >= 500 && s.p50 < 1024, "p50 {}", s.p50);
        assert!(s.p90 >= 900 && s.p90 < 2048, "p90 {}", s.p90);
        assert!(s.p99 >= 990 && s.p99 < 2048, "p99 {}", s.p99);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99);
    }

    #[test]
    fn empty_histogram_snapshot_is_zeroed() {
        let s = Histogram::new().snapshot();
        assert_eq!(s, HistogramSnapshot::default());
    }

    #[test]
    fn registry_returns_shared_handles_and_snapshots() {
        let r = Registry::new();
        let a = r.counter("requests");
        let b = r.counter("requests");
        a.inc();
        b.inc();
        r.gauge("inflight").set(3);
        r.histogram("latency").record(100);
        let snap = r.snapshot();
        assert_eq!(snap.counter("requests"), Some(2));
        assert_eq!(snap.gauge("inflight"), Some(3));
        assert_eq!(snap.histogram("latency").unwrap().count, 1);
        assert_eq!(snap.counter("nope"), None);
    }

    #[test]
    fn snapshots_are_key_sorted_regardless_of_registration_order() {
        let forward = Registry::new();
        forward.counter("alpha").add(1);
        forward.counter("beta").add(2);
        forward.histogram("h_late").record(9);
        forward.histogram("h_early").record(9);

        let backward = Registry::new();
        backward.histogram("h_early").record(9);
        backward.histogram("h_late").record(9);
        backward.counter("beta").add(2);
        backward.counter("alpha").add(1);

        let a = forward.snapshot();
        let b = backward.snapshot();
        assert_eq!(a, b, "registration order must not leak into snapshots");
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "serialized stats must be byte-identical across runs"
        );
        assert_eq!(a.counters[0].0, "alpha");
        assert_eq!(a.histograms[0].0, "h_early");
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let r = Registry::new();
        r.counter("a").add(7);
        r.histogram("h").record(42);
        let snap = r.snapshot();
        let text = serde_json::to_string(&snap).unwrap();
        let back: RegistrySnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn concurrent_recording_is_not_torn() {
        let h = std::sync::Arc::new(Histogram::new());
        let c = std::sync::Arc::new(Counter::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let h = std::sync::Arc::clone(&h);
                let c = std::sync::Arc::clone(&c);
                scope.spawn(move || {
                    for v in 0..1000 {
                        h.record(v);
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
        assert_eq!(h.snapshot().count, 8000);
    }

    #[test]
    fn exact_percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.50), 50.0);
        assert_eq!(percentile(&sorted, 0.90), 90.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
