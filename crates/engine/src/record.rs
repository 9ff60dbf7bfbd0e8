//! Request/response recording: the write half of the golden-replay
//! harness.
//!
//! A [`Recorder`] appends one [`RecordEntry`] per planned request to a
//! JSONL log — the request as submitted, the full response (including
//! its canonical `state_hash`) or the error it drew.  The companion
//! `hypar-replay` binary re-executes such a log against the current
//! build and diffs the hashes, attributing any divergence down to the
//! first differing span, plan bit, or cost.
//!
//! Recording is engaged with `--record PATH` on the `hypar-engine`
//! binary, in every mode: the stdin/TCP service logs each `PlanRequest`
//! line it answers (admin commands and unparseable lines are not
//! workloads and are skipped), and the scenario runner logs every
//! request of every scenario in request order.

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Mutex, PoisonError};

use serde::{DeError, Deserialize, Serialize};

use crate::engine::EngineError;
use crate::request::{PlanRequest, PlanResponse};

/// One recorded request outcome: exactly one of `response`/`error` is
/// set.
///
/// Serializes as `{"request": .., "response": .., "error": ..}`; the
/// unset half is `null` and may be omitted when parsing.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RecordEntry {
    /// The request as the engine received it.
    pub request: PlanRequest,
    /// The successful response, with its `state_hash` stamped.
    pub response: Option<PlanResponse>,
    /// The failure message, when the engine rejected the request.  Typed
    /// rejections are part of the pinned behaviour too: a replay that
    /// turns an error into a plan (or vice versa) is drift.
    pub error: Option<String>,
}

impl RecordEntry {
    /// Builds an entry from a request and the engine's answer to it.
    #[must_use]
    pub fn from_outcome(
        request: &PlanRequest,
        outcome: &Result<PlanResponse, EngineError>,
    ) -> Self {
        match outcome {
            Ok(response) => RecordEntry {
                request: request.clone(),
                response: Some(response.clone()),
                error: None,
            },
            Err(err) => RecordEntry {
                request: request.clone(),
                response: None,
                error: Some(err.to_string()),
            },
        }
    }

    /// The recorded state hash, when the entry holds a response.
    #[must_use]
    pub fn state_hash(&self) -> Option<&str> {
        self.response.as_ref().map(|r| r.state_hash.as_str())
    }
}

/// An append-only JSONL sink of [`RecordEntry`]s, safe to share across
/// the service's connection threads (one mutex-guarded buffered writer;
/// the lock recovers from poisoning like the plan cache does — a
/// panicking thread costs at most its own line).
#[derive(Debug)]
pub struct Recorder {
    sink: Mutex<BufWriter<File>>,
}

impl Recorder {
    /// Opens (creating or appending to) a record log at `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be opened.
    pub fn append_to(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Recorder {
            sink: Mutex::new(BufWriter::new(file)),
        })
    }

    /// Records the outcome of one request: appends its [`RecordEntry`]
    /// line and flushes it.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error on write failure.
    pub fn record_outcome(
        &self,
        request: &PlanRequest,
        outcome: &Result<PlanResponse, EngineError>,
    ) -> io::Result<()> {
        match outcome {
            Ok(response) => self.record_parts(request, Some(response), None),
            Err(err) => self.record_parts(request, None, Some(&err.to_string())),
        }
    }

    /// Appends the JSON line of the [`RecordEntry`] with these fields,
    /// written from the borrowed parts without building the entry, and
    /// flushes it (replay logs are often read while the service still
    /// runs; a torn tail line would poison the whole log).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error on write failure.
    pub(crate) fn record_parts(
        &self,
        request: &PlanRequest,
        response: Option<&PlanResponse>,
        error: Option<&str>,
    ) -> io::Result<()> {
        // `RecordEntry`'s derived layout: its fields in declaration order.
        let mut line = String::from("{\"request\":");
        request.write_json(&mut line);
        line.push_str(",\"response\":");
        response.write_json(&mut line);
        line.push_str(",\"error\":");
        error.write_json(&mut line);
        line.push_str("}\n");
        let mut sink = self.sink.lock().unwrap_or_else(PoisonError::into_inner);
        sink.write_all(line.as_bytes())?;
        sink.flush()
    }
}

/// Parses a JSONL record log, tagging malformed lines with their
/// 1-based line number.  Blank lines are skipped.
///
/// # Errors
///
/// Returns a [`DeError`] naming the first unparseable line.
pub fn parse_log(text: &str) -> Result<Vec<RecordEntry>, DeError> {
    let mut entries = Vec::new();
    for (index, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let entry: RecordEntry = serde_json::from_str(line)
            .map_err(|e| DeError::custom(format!("line {}: {e}", index + 1)))?;
        entries.push(entry);
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PlanEngine;

    #[test]
    fn entries_round_trip_through_jsonl() {
        let engine = PlanEngine::new();
        let ok_request = PlanRequest::zoo("sfc").levels(2);
        let bad_request = PlanRequest::zoo("no-such-net");
        let lines = [
            RecordEntry::from_outcome(&ok_request, &engine.plan(&ok_request)),
            RecordEntry::from_outcome(&bad_request, &engine.plan(&bad_request)),
        ];
        let text: String = lines
            .iter()
            .map(|e| serde_json::to_string(e).unwrap() + "\n")
            .collect();
        let parsed = parse_log(&text).unwrap();
        assert_eq!(parsed, lines.to_vec());
        assert!(parsed[0].state_hash().is_some());
        assert_eq!(parsed[1].state_hash(), None);
        assert!(parsed[1].error.as_deref().unwrap().contains("unknown"));
    }

    #[test]
    fn parse_log_names_the_bad_line() {
        let err = parse_log("\n{nope\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn recorder_appends_flushed_lines() {
        let dir = std::env::temp_dir().join(format!(
            "hypar-record-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.jsonl");
        let engine = PlanEngine::new();
        let request = PlanRequest::zoo("sfc").levels(2);
        {
            let recorder = Recorder::append_to(&path).unwrap();
            recorder
                .record_outcome(&request, &engine.plan(&request))
                .unwrap();
            recorder
                .record_outcome(&request, &engine.plan(&request))
                .unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let entries = parse_log(&text).unwrap();
        assert_eq!(entries.len(), 2);
        // The cache hit replays the identical content hash.
        assert_eq!(entries[0].state_hash(), entries[1].state_hash());
        std::fs::remove_dir_all(&dir).ok();
    }
}
