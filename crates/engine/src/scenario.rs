//! Reproducible scenario files: a named batch of [`PlanRequest`]s run
//! through the engine in one parallel sweep.
//!
//! A scenario file is a JSON object:
//!
//! ```json
//! {
//!   "name": "lenet-levels",
//!   "description": "Lenet-c from 1 to 64 accelerators",
//!   "requests": [
//!     {"network": "lenet_c", "levels": 0},
//!     {"network": "lenet_c", "levels": 4, "simulate": true}
//!   ]
//! }
//! ```

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use hypar_telemetry::percentile;
use serde::{DeError, Deserialize, Serialize, Value};

use crate::engine::PlanEngine;
use crate::parallel;
use crate::record::Recorder;
use crate::request::{PlanRequest, PlanResponse};

/// Why a scenario file could not be turned into a [`Scenario`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScenarioError {
    /// The file could not be read at all.
    Io {
        /// The path that failed to read.
        path: PathBuf,
        /// The underlying I/O error message.
        message: String,
    },
    /// The text was not a well-formed scenario (bad JSON or bad shape).
    Parse {
        /// The originating file, when the text came from one.
        path: Option<PathBuf>,
        /// The underlying JSON/shape error message.
        message: String,
    },
}

impl ScenarioError {
    /// Stable machine-readable discriminant (`"io"` / `"parse"`), used as
    /// the `kind` field of the service's error JSON.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            ScenarioError::Io { .. } => "io",
            ScenarioError::Parse { .. } => "parse",
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Io { path, message } => {
                write!(f, "{}: {message}", path.display())
            }
            ScenarioError::Parse {
                path: Some(path),
                message,
            } => write!(f, "{}: {message}", path.display()),
            ScenarioError::Parse {
                path: None,
                message,
            } => f.write_str(message),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl Serialize for ScenarioError {
    fn to_value(&self) -> Value {
        let (path, message) = match self {
            ScenarioError::Io { path, message } => (Some(path), message),
            ScenarioError::Parse { path, message } => (path.as_ref(), message),
        };
        let mut fields = vec![("kind".to_owned(), Value::String(self.kind().to_owned()))];
        if let Some(path) = path {
            fields.push(("path".to_owned(), Value::String(path.display().to_string())));
        }
        fields.push(("message".to_owned(), Value::String(message.clone())));
        Value::Object(fields)
    }
}

/// A parsed scenario file.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Scenario {
    /// Scenario name, used in reports.
    pub name: String,
    /// Optional free-form description.
    pub description: Option<String>,
    /// The workloads, run in order (results keep this order).
    pub requests: Vec<PlanRequest>,
}

impl Deserialize for Scenario {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        if v.as_object().is_none() {
            return Err(DeError::expected("scenario object", v));
        }
        let name = match v.get("name") {
            Some(n) => String::from_value(n).map_err(|e| e.in_field("name"))?,
            None => "scenario".to_owned(),
        };
        let description = match v.get("description") {
            Some(d) if !d.is_null() => {
                Some(String::from_value(d).map_err(|e| e.in_field("description"))?)
            }
            _ => None,
        };
        let requests = v
            .get("requests")
            .ok_or_else(|| DeError::missing_field("requests", "Scenario"))
            .and_then(|r| Vec::<PlanRequest>::from_value(r).map_err(|e| e.in_field("requests")))?;
        Ok(Scenario {
            name,
            description,
            requests,
        })
    }
}

/// The outcome of one request inside a scenario run.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ScenarioEntry {
    /// Index into [`Scenario::requests`].
    pub index: usize,
    /// Wall-clock time this request spent inside the engine, in
    /// milliseconds (measured on the worker thread, so cache hits report
    /// microsecond-scale values).
    pub latency_ms: f64,
    /// The planned response, when the request succeeded.
    pub response: Option<PlanResponse>,
    /// The failure message, when it did not.
    pub error: Option<String>,
}

/// Nearest-rank percentile summary of the per-entry latencies of one run.
#[derive(Copy, Clone, Debug, Default, PartialEq, Serialize)]
pub struct LatencySummary {
    /// Samples summarized (one per request).
    pub count: usize,
    /// Arithmetic mean, in milliseconds.
    pub mean_ms: f64,
    /// Median latency, in milliseconds.
    pub p50_ms: f64,
    /// 90th-percentile latency, in milliseconds.
    pub p90_ms: f64,
    /// 99th-percentile latency, in milliseconds.
    pub p99_ms: f64,
    /// Slowest request, in milliseconds.
    pub max_ms: f64,
}

impl LatencySummary {
    /// Summarizes a set of latency samples (order irrelevant).
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        LatencySummary {
            count: sorted.len(),
            mean_ms: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50_ms: percentile(&sorted, 0.50),
            p90_ms: percentile(&sorted, 0.90),
            p99_ms: percentile(&sorted, 0.99),
            max_ms: sorted[sorted.len() - 1],
        }
    }
}

/// The result of running a whole scenario.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// One entry per request, in request order.
    pub entries: Vec<ScenarioEntry>,
    /// Cache activity attributable to *this* run: hit/miss/eviction
    /// counts are the delta over the run, occupancy is measured after it.
    pub cache: crate::CacheStats,
    /// Percentile summary of the per-entry latencies.
    pub latency: LatencySummary,
}

impl ScenarioReport {
    /// Number of failed requests.
    #[must_use]
    pub fn num_errors(&self) -> usize {
        self.entries.iter().filter(|e| e.error.is_some()).count()
    }
}

impl fmt::Display for ScenarioReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "scenario `{}`: {} request(s)",
            self.name,
            self.entries.len()
        )?;
        for entry in &self.entries {
            match (&entry.response, &entry.error) {
                (Some(r), _) => {
                    write!(
                        f,
                        "  [{:>3}] {:<10} {:<10} H{} B{}  comm {:>14.0} elems  {}",
                        entry.index,
                        r.network,
                        r.strategy.name(),
                        r.levels,
                        r.batch,
                        // An H0 plan reports an exact zero that may carry a
                        // negative sign; normalize it for display.
                        // Exact-zero sentinel for display normalization; -0.0 compares equal on purpose.
                        if r.total_comm_elems == 0.0 {
                            0.0
                        } else {
                            r.total_comm_elems
                        },
                        if r.cache_hit { "cached" } else { "computed" },
                    )?;
                    if let Some(sim) = &r.simulation {
                        write!(f, "  step {}", sim.step_time)?;
                    }
                    writeln!(f)?;
                }
                (None, Some(err)) => writeln!(f, "  [{:>3}] error: {err}", entry.index)?,
                (None, None) => writeln!(f, "  [{:>3}] (empty)", entry.index)?,
            }
        }
        writeln!(
            f,
            "  cache: {} hit(s), {} miss(es), {} entr(ies), {} eviction(s)",
            self.cache.hits, self.cache.misses, self.cache.entries, self.cache.evictions
        )?;
        write!(
            f,
            "  latency: p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, max {:.3} ms over {} request(s)",
            self.latency.p50_ms,
            self.latency.p90_ms,
            self.latency.p99_ms,
            self.latency.max_ms,
            self.latency.count
        )
    }
}

/// Parses a scenario from JSON text.
///
/// # Errors
///
/// Returns [`ScenarioError::Parse`] carrying the JSON/shape error.
pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
    serde_json::from_str(text).map_err(|e| ScenarioError::Parse {
        path: None,
        message: e.to_string(),
    })
}

/// Loads a scenario file from disk.
///
/// # Errors
///
/// Returns [`ScenarioError::Io`] for unreadable files and
/// [`ScenarioError::Parse`] (tagged with the path) for malformed ones.
pub fn load(path: &Path) -> Result<Scenario, ScenarioError> {
    let text = std::fs::read_to_string(path).map_err(|e| ScenarioError::Io {
        path: path.to_owned(),
        message: e.to_string(),
    })?;
    parse(&text).map_err(|e| match e {
        ScenarioError::Parse { message, .. } => ScenarioError::Parse {
            path: Some(path.to_owned()),
            message,
        },
        other => other,
    })
}

/// Appends one [`crate::RecordEntry`] line per request of a finished run to
/// `recorder`, in request order (the report preserves it), so a scenario
/// sweep under `--record` yields the same replayable JSONL log shape as
/// the line service.
///
/// # Errors
///
/// Returns the first I/O error from the record sink.
pub fn record_report(
    recorder: &Recorder,
    scenario: &Scenario,
    report: &ScenarioReport,
) -> io::Result<()> {
    for (request, entry) in scenario.requests.iter().zip(&report.entries) {
        recorder.record_parts(request, entry.response.as_ref(), entry.error.as_deref())?;
    }
    Ok(())
}

/// Runs every request of a scenario through the engine, in parallel,
/// timing each request on its worker thread.
#[must_use]
pub fn run(engine: &PlanEngine, scenario: &Scenario) -> ScenarioReport {
    let before = engine.cache_stats();
    let results = parallel::map(&scenario.requests, |request| {
        #[expect(
            clippy::disallowed_methods,
            reason = "per-request latency metric; feeds the report's percentiles, never a fingerprint or state hash"
        )]
        let started = Instant::now();
        let result = engine.plan(request);
        (result, started.elapsed().as_secs_f64() * 1e3)
    })
    .unwrap_or_else(|_| {
        // A panicked worker degrades the whole run to per-request
        // errors; the scenario report still renders.
        scenario
            .requests
            .iter()
            .map(|_| (Err(crate::EngineError::WorkerPanicked), 0.0))
            .collect()
    });
    let entries: Vec<ScenarioEntry> = results
        .into_iter()
        .enumerate()
        .map(|(index, (result, latency_ms))| match result {
            Ok(response) => ScenarioEntry {
                index,
                latency_ms,
                response: Some(response),
                error: None,
            },
            Err(err) => ScenarioEntry {
                index,
                latency_ms,
                response: None,
                error: Some(err.to_string()),
            },
        })
        .collect();
    let after = engine.cache_stats();
    let samples: Vec<f64> = entries.iter().map(|e| e.latency_ms).collect();
    ScenarioReport {
        name: scenario.name.clone(),
        entries,
        cache: crate::CacheStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            evictions: after.evictions - before.evictions,
            poison_recoveries: after.poison_recoveries - before.poison_recoveries,
            ..after
        },
        latency: LatencySummary::from_samples(&samples),
    }
}
