//! Line-delimited JSON service front-ends.
//!
//! One request per line in, one response per line out — over any
//! `BufRead`/`Write` pair ([`serve_lines`], used for stdin/stdout) or a
//! TCP listener ([`serve_tcp`], one thread per connection, all sharing
//! the engine's plan cache).
//!
//! Each reply leaves in **one write**, its `\n` included, followed by a
//! flush. On an unbuffered `TcpStream` a separate 1-byte `\n` write sits
//! behind Nagle's algorithm until the client's delayed ACK arrives, about
//! 40 ms per reply on loopback; on stdout it costs one extra `write`
//! syscall for any reply longer than `LineWriter`'s buffer.  One write
//! per reply is not enough when a client pipelines lines: a reply written
//! while the previous one is still unacknowledged would wait the same way,
//! so accepted connections also set `TCP_NODELAY`.
//!
//! Lines are read as raw bytes: a trailing `\n` or `\r\n` is stripped,
//! whitespace-only lines are skipped, a final line without a newline is
//! answered, and a line that is not UTF-8 gets an `{"error": ...}` reply
//! instead of ending the session.
//!
//! Besides [`crate::PlanRequest`] objects, a line may carry an admin
//! command:
//!
//! * `{"stats": true}` — the full telemetry snapshot
//!   `{"cache": <CacheStats>, "metrics": <RegistrySnapshot>}`, with every
//!   metrics section key-sorted so the reply is byte-deterministic;
//! * `{"cmd": "stats"}` — the legacy spelling, answered **byte-identically**
//!   to `{"stats": true}` (pinned by test so dashboards can migrate
//!   spelling-by-spelling).
//!
//! When the engine runs with `--record PATH`, every planning line (not
//! admin commands, not unparseable lines) is appended to a JSONL
//! [`crate::RecordEntry`] log for the `hypar-replay` harness.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::Arc;
use std::thread;

use serde::Value;

use crate::engine::PlanEngine;
use crate::record::Recorder;
use crate::request::PlanRequest;

/// Handles one request line, returning the JSON reply (never fails — every
/// error becomes an `{"error": ...}` object).
#[must_use]
pub fn handle_line(engine: &PlanEngine, line: &str) -> String {
    handle_line_recorded(engine, line, None)
}

/// [`handle_line`] with an optional record sink: planning requests (and
/// their outcomes) are appended to `recorder`; admin commands and lines
/// that never parsed into a request are not workloads and are skipped.
/// Recording failures are reported on stderr but never fail the request —
/// observability must not take the service down.
#[must_use]
pub fn handle_line_recorded(
    engine: &PlanEngine,
    line: &str,
    recorder: Option<&Recorder>,
) -> String {
    let parsed: Value = match serde_json::from_str(line) {
        Ok(v) => v,
        Err(err) => return error_json(&format!("invalid JSON: {err}")),
    };
    if parsed.get("stats").and_then(Value::as_bool) == Some(true) {
        return stats_json(engine);
    }
    if let Some(cmd) = parsed.get("cmd").and_then(Value::as_str) {
        return match cmd {
            "stats" => stats_json(engine),
            other => error_json(&format!("unknown command `{other}`")),
        };
    }
    match serde_json::from_value::<PlanRequest>(&parsed) {
        Ok(request) => {
            let outcome = engine.plan(&request);
            if let Some(recorder) = recorder {
                if let Err(err) = recorder.record_outcome(&request, &outcome) {
                    eprintln!("record write failed: {err}");
                }
            }
            match outcome {
                Ok(response) => reply_json(&response),
                Err(err) => error_json(&err.to_string()),
            }
        }
        Err(err) => error_json(&format!("invalid request: {err}")),
    }
}

/// Builds the `{"stats": true}` reply: the cache counters plus the full
/// engine metrics registry, under stable `cache`/`metrics` keys.  The
/// registry snapshot is key-sorted, so two engines that observed the same
/// traffic produce byte-identical stats replies.
fn stats_json(engine: &PlanEngine) -> String {
    use serde::Serialize;
    let value = Value::Object(vec![
        ("cache".to_owned(), engine.cache_stats().to_value()),
        ("metrics".to_owned(), engine.metrics_snapshot().to_value()),
    ]);
    serde_json::to_string(&value)
        .unwrap_or_else(|err| error_json(&format!("stats serialization failed: {err}")))
}

/// Serializes a reply, degrading to an error object rather than panicking
/// the serving thread if serialization ever fails.
fn reply_json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value)
        .unwrap_or_else(|err| error_json(&format!("response serialization failed: {err}")))
}

fn error_json(message: &str) -> String {
    let value = Value::Object(vec![(
        "error".to_owned(),
        Value::String(message.to_owned()),
    )]);
    // A flat string-valued object cannot fail to serialize; fall back to a
    // hand-built constant rather than unwinding a service thread.
    serde_json::to_string(&value)
        .unwrap_or_else(|_| "{\"error\": \"error serialization failed\"}".to_owned())
}

/// Serves line-delimited JSON requests from `input` to `output` until EOF.
/// Blank lines are skipped; each reply is one write, then a flush.
///
/// # Errors
///
/// Returns the first I/O error encountered.
pub fn serve_lines<R: BufRead, W: Write>(
    engine: &PlanEngine,
    input: R,
    output: &mut W,
) -> io::Result<()> {
    serve_lines_recorded(engine, input, output, None)
}

/// [`serve_lines`] with an optional record sink (see
/// [`handle_line_recorded`]).
///
/// # Errors
///
/// Returns the first I/O error encountered on either stream.
pub fn serve_lines_recorded<R: BufRead, W: Write>(
    engine: &PlanEngine,
    mut input: R,
    output: &mut W,
    recorder: Option<&Recorder>,
) -> io::Result<()> {
    let mut bytes = Vec::new();
    loop {
        bytes.clear();
        if input.read_until(b'\n', &mut bytes)? == 0 {
            return Ok(());
        }
        let line = strip_newline(&bytes);
        let mut reply = match std::str::from_utf8(line) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => handle_line_recorded(engine, line, recorder),
            // Never parsed, so never recorded.
            Err(_) => error_json("invalid UTF-8 in request line"),
        };
        reply.push('\n');
        output.write_all(reply.as_bytes())?;
        output.flush()?;
    }
}

/// Strips one trailing `\n` or `\r\n`, as `BufRead::lines` does.
fn strip_newline(line: &[u8]) -> &[u8] {
    match line {
        [rest @ .., b'\r', b'\n'] | [rest @ .., b'\n'] => rest,
        _ => line,
    }
}

/// Binds a TCP listener and serves each connection on its own thread,
/// sharing one engine (and therefore one plan cache) across clients.
/// Blocks forever.
///
/// # Errors
///
/// Returns an error if the address cannot be bound.
pub fn serve_tcp(engine: Arc<PlanEngine>, addr: impl ToSocketAddrs) -> io::Result<()> {
    serve_tcp_recorded(engine, addr, None)
}

/// [`serve_tcp`] with an optional shared record sink: every connection
/// thread appends to the same JSONL log (the [`Recorder`] serializes
/// writes internally).
///
/// # Errors
///
/// Returns an error if the address cannot be bound.
pub fn serve_tcp_recorded(
    engine: Arc<PlanEngine>,
    addr: impl ToSocketAddrs,
    recorder: Option<Arc<Recorder>>,
) -> io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    eprintln!(
        "hypar-engine listening on {}",
        listener
            .local_addr()
            .map_or_else(|_| "<unknown>".to_owned(), |a| a.to_string())
    );
    for stream in listener.incoming() {
        let stream = match stream {
            Ok(s) => s,
            Err(err) => {
                eprintln!("accept failed: {err}");
                continue;
            }
        };
        if let Err(err) = stream.set_nodelay(true) {
            eprintln!("set_nodelay failed: {err}");
        }
        let engine = Arc::clone(&engine);
        let recorder = recorder.clone();
        thread::spawn(move || {
            let reader = match stream.try_clone() {
                Ok(clone) => BufReader::new(clone),
                Err(err) => {
                    eprintln!("connection split failed: {err}");
                    return;
                }
            };
            let mut writer = stream;
            if let Err(err) =
                serve_lines_recorded(&engine, reader, &mut writer, recorder.as_deref())
            {
                eprintln!("connection error: {err}");
            }
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_json_becomes_error_object() {
        let engine = PlanEngine::new();
        let reply = handle_line(&engine, "{nope");
        let value: Value = serde_json::from_str(&reply).unwrap();
        assert!(value.get("error").is_some());
    }

    #[test]
    fn stats_command_answers() {
        let engine = PlanEngine::new();
        let reply = handle_line(&engine, r#"{"cmd": "stats"}"#);
        let value: Value = serde_json::from_str(&reply).unwrap();
        let cache = value.get("cache").expect("cache section");
        assert_eq!(cache.get("hits").and_then(Value::as_u64), Some(0));
        assert_eq!(cache.get("capacity").and_then(Value::as_u64), Some(1024));
    }

    #[test]
    fn legacy_stats_spelling_is_byte_identical_to_new_one() {
        let engine = PlanEngine::new();
        let _ = handle_line(&engine, "{\"network\": \"sfc\", \"levels\": 2}");
        let legacy = handle_line(&engine, r#"{"cmd": "stats"}"#);
        let new = handle_line(&engine, r#"{"stats": true}"#);
        assert_eq!(legacy, new);
    }

    #[test]
    fn stats_true_returns_cache_and_metrics_sections() {
        let engine = PlanEngine::new();
        let _ = handle_line(&engine, "{\"network\": \"sfc\", \"levels\": 2}");
        let reply = handle_line(&engine, r#"{"stats": true}"#);
        let value: Value = serde_json::from_str(&reply).unwrap();
        let cache = value.get("cache").expect("cache section");
        assert_eq!(cache.get("misses").and_then(Value::as_u64), Some(1));
        assert_eq!(cache.get("evictions").and_then(Value::as_u64), Some(0));
        let metrics = value.get("metrics").expect("metrics section");
        let counters = metrics.get("counters").expect("counters section");
        assert_eq!(counters.get("requests").and_then(Value::as_u64), Some(1));
        let latency = metrics
            .get("histograms")
            .and_then(|h| h.get("plan_latency_ns"))
            .expect("plan_latency_ns histogram");
        assert_eq!(latency.get("count").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn recorded_service_logs_workloads_but_not_admin_lines() {
        let dir = std::env::temp_dir().join(format!(
            "hypar-service-record-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.jsonl");
        let engine = PlanEngine::new();
        let recorder = Recorder::append_to(&path).unwrap();
        let input = "{\"network\": \"sfc\", \"levels\": 2}\n\
                     {\"stats\": true}\n\
                     {nope\n\
                     {\"network\": \"no-such-net\"}\n";
        let mut output = Vec::new();
        serve_lines_recorded(&engine, input.as_bytes(), &mut output, Some(&recorder)).unwrap();
        drop(recorder);
        let text = std::fs::read_to_string(&path).unwrap();
        let entries = crate::record::parse_log(&text).unwrap();
        // The plan and the typed rejection are logged; the stats command
        // and the unparseable line are not.
        assert_eq!(entries.len(), 2);
        assert!(entries[0].state_hash().is_some());
        assert!(entries[1].error.is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_lines_round_trips_requests() {
        let engine = PlanEngine::new();
        // A blank line, a whitespace-only one, a `\r\n` terminator, and a
        // final line with no newline at all.
        let input = "{\"network\": \"sfc\", \"levels\": 2}\n\n \t\r\n\
                     {\"network\": \"sfc\", \"levels\": 2}\r\n\
                     {\"network\": \"sfc\", \"levels\": 3}";
        let mut output = Vec::new();
        serve_lines(&engine, input.as_bytes(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        let hits: Vec<Option<bool>> = lines
            .iter()
            .map(|line| {
                let reply: Value = serde_json::from_str(line).unwrap();
                reply.get("cache_hit").and_then(Value::as_bool)
            })
            .collect();
        assert_eq!(hits, [Some(false), Some(true), Some(false)]);
    }

    /// One call made on a [`CallLog`].
    #[derive(Debug)]
    enum Call {
        Write(Vec<u8>),
        Flush,
    }

    /// A `Write` double that logs every call it receives.
    #[derive(Default)]
    struct CallLog(Vec<Call>);

    impl Write for CallLog {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(Call::Write(buf.to_vec()));
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            self.0.push(Call::Flush);
            Ok(())
        }
    }

    #[test]
    fn each_reply_is_one_write_then_a_flush() {
        let engine = PlanEngine::new();
        let input = "{\"network\": \"sfc\", \"levels\": 2}\n{nope\n{\"stats\": true}\n";
        let mut log = CallLog::default();
        serve_lines(&engine, input.as_bytes(), &mut log).unwrap();
        assert_eq!(log.0.len(), 6, "{:?}", log.0);
        let replies: Vec<Value> = log
            .0
            .chunks(2)
            .map(|calls| {
                let [Call::Write(reply), Call::Flush] = calls else {
                    panic!("expected one write then a flush: {calls:?}");
                };
                assert_eq!(reply.last(), Some(&b'\n'));
                assert_eq!(reply.iter().filter(|&&b| b == b'\n').count(), 1);
                serde_json::from_str(std::str::from_utf8(reply).unwrap()).unwrap()
            })
            .collect();
        assert!(replies[0].get("state_hash").is_some(), "{:?}", replies[0]);
        assert!(replies[1].get("error").is_some(), "{:?}", replies[1]);
        assert!(replies[2].get("cache").is_some(), "{:?}", replies[2]);
    }
}
