//! End-to-end tests of the `hypar-engine` binary: the stdin/stdout and
//! TCP JSON protocols and the scenario-file runner.

#![expect(
    clippy::expect_used,
    clippy::let_underscore_must_use,
    clippy::disallowed_methods,
    reason = "helpers fail by panicking; results a test does not inspect are discarded; a latency bound reads the wall clock"
)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

fn engine_bin() -> &'static str {
    env!("CARGO_BIN_EXE_hypar-engine")
}

/// Feeds `input` to the binary's stdin and returns (success, stdout).
fn run_with_stdin(args: &[&str], input: &str) -> (bool, String) {
    let mut child = Command::new(engine_bin())
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("stdin writes");
    let output = child.wait_with_output().expect("binary runs");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

#[test]
fn answers_a_vgg_a_request_and_caches_the_repeat() {
    let request = r#"{"network": "vgg_a", "levels": 4, "batch": 256, "simulate": true}"#;
    let input = format!("{request}\n{request}\n{}\n", r#"{"cmd": "stats"}"#);
    let (ok, stdout) = run_with_stdin(&[], &input);
    assert!(ok, "{stdout}");

    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");

    let first: serde_json::Value = serde_json::from_str(lines[0]).expect("valid json");
    assert_eq!(
        first.get("network").and_then(serde_json::Value::as_str),
        Some("VGG-A")
    );
    assert_eq!(
        first.get("levels").and_then(serde_json::Value::as_u64),
        Some(4)
    );
    assert_eq!(
        first
            .get("accelerators")
            .and_then(serde_json::Value::as_u64),
        Some(16)
    );
    assert_eq!(
        first.get("cache_hit").and_then(serde_json::Value::as_bool),
        Some(false)
    );
    assert!(first.get("plan").is_some());
    assert!(
        first
            .get("simulation")
            .map(|s| !s.is_null())
            .unwrap_or(false),
        "simulate: true must attach a simulation report"
    );

    let second: serde_json::Value = serde_json::from_str(lines[1]).expect("valid json");
    assert_eq!(
        second.get("cache_hit").and_then(serde_json::Value::as_bool),
        Some(true),
        "repeated identical request must be served from the plan cache"
    );
    assert_eq!(second.get("fingerprint"), first.get("fingerprint"));

    let stats: serde_json::Value = serde_json::from_str(lines[2]).expect("valid json");
    let cache = stats.get("cache").expect("cache section");
    assert_eq!(
        cache.get("hits").and_then(serde_json::Value::as_u64),
        Some(1)
    );
    assert_eq!(
        cache.get("misses").and_then(serde_json::Value::as_u64),
        Some(1)
    );
    assert!(
        stats.get("metrics").is_some(),
        "legacy stats spelling now answers the full telemetry snapshot"
    );
}

#[test]
fn answers_a_branchy_dag_request_over_stdin() {
    let zoo = r#"{"network": "resnet18", "levels": 4, "batch": 64}"#;
    let inline = r#"{"network": {"name": "tiny-res", "input": {"channels": 8, "height": 16, "width": 16}, "nodes": [{"name": "stem", "kind": "conv", "out": 8, "kernel": 3}, {"name": "body", "kind": "conv", "out": 8, "kernel": 3}, {"name": "join", "kind": "add", "inputs": ["stem", "body"]}, {"name": "fc", "kind": "fc", "out": 10, "inputs": ["join"]}]}, "levels": 3, "batch": 32}"#;
    let input = format!("{zoo}\n{zoo}\n{inline}\n");
    let (ok, stdout) = run_with_stdin(&[], &input);
    assert!(ok, "{stdout}");

    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");

    let first: serde_json::Value = serde_json::from_str(lines[0]).expect("valid json");
    assert_eq!(
        first.get("network").and_then(serde_json::Value::as_str),
        Some("ResNet-18")
    );
    assert_eq!(
        first.get("cache_hit").and_then(serde_json::Value::as_bool),
        Some(false)
    );
    let layers = first
        .get("plan")
        .and_then(|p| p.get("layer_names"))
        .and_then(serde_json::Value::as_array)
        .expect("plan covers layers")
        .len();
    assert_eq!(layers, 21);

    let second: serde_json::Value = serde_json::from_str(lines[1]).expect("valid json");
    assert_eq!(
        second.get("cache_hit").and_then(serde_json::Value::as_bool),
        Some(true),
        "repeated identical DAG request must be served from the plan cache"
    );

    let third: serde_json::Value = serde_json::from_str(lines[2]).expect("valid json");
    assert_eq!(
        third.get("network").and_then(serde_json::Value::as_str),
        Some("tiny-res")
    );
    assert!(
        third
            .get("total_comm_elems")
            .and_then(serde_json::Value::as_f64)
            .unwrap_or(0.0)
            > 0.0
    );
}

#[test]
fn reports_errors_as_json_objects() {
    let input = "not json\n{\"network\": \"ResNet-50\"}\n";
    let (ok, stdout) = run_with_stdin(&[], input);
    assert!(ok, "protocol errors must not kill the service: {stdout}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2);
    for line in lines {
        let value: serde_json::Value = serde_json::from_str(line).expect("valid json");
        assert!(value.get("error").is_some(), "{line}");
    }
}

#[test]
fn runs_a_scenario_file() {
    let dir = std::env::temp_dir();
    let scenario_path = dir.join("hypar_engine_test_scenario.json");
    let json_path = dir.join("hypar_engine_test_scenario_out.json");
    std::fs::write(
        &scenario_path,
        r#"{
            "name": "test-sweep",
            "requests": [
                {"network": "lenet_c", "levels": 2},
                {"network": "lenet_c", "levels": 2},
                {"network": "lenet_c", "levels": 2, "strategy": "dp"}
            ]
        }"#,
    )
    .expect("scenario written");

    let output = Command::new(engine_bin())
        .args([
            "--scenarios",
            scenario_path.to_str().unwrap(),
            "--json",
            json_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("test-sweep"), "{stdout}");
    assert!(
        stdout.contains("cached"),
        "duplicate request must show as cached: {stdout}"
    );

    let payload = std::fs::read_to_string(&json_path).expect("json written");
    let reports: serde_json::Value = serde_json::from_str(&payload).expect("valid json");
    let entries = reports
        .as_array()
        .and_then(|r| r[0].get("entries"))
        .and_then(serde_json::Value::as_array)
        .expect("entries array")
        .len();
    assert_eq!(entries, 3);

    let _ = std::fs::remove_file(&scenario_path);
    let _ = std::fs::remove_file(&json_path);
}

#[test]
fn rejects_unknown_arguments() {
    let output = Command::new(engine_bin())
        .arg("--frobnicate")
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown argument"));
}

/// A `hypar-engine --listen 127.0.0.1:0` child, killed on drop.
struct Server {
    child: Child,
    addr: String,
    /// Held open so the server's later stderr lines have a reader.
    _stderr: BufReader<ChildStderr>,
}

impl Server {
    fn start() -> Self {
        let mut child = Command::new(engine_bin())
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary spawns");
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
        let mut banner = String::new();
        stderr.read_line(&mut banner).expect("banner line");
        let addr = banner
            .trim()
            .strip_prefix("hypar-engine listening on ")
            .expect("listening banner")
            .to_owned();
        Server {
            child,
            addr,
            _stderr: stderr,
        }
    }

    fn connect(&self) -> Client {
        let stream = TcpStream::connect(&self.addr).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        Client {
            reader: BufReader::new(stream.try_clone().expect("stream clones")),
            writer: stream,
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Sends one request line (in one write, so the client side never
    /// waits on Nagle either) and reads one reply line.
    fn ask(&mut self, request: &[u8]) -> String {
        let mut line = request.to_vec();
        line.push(b'\n');
        self.writer.write_all(&line).expect("request sent");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("reply read");
        assert!(reply.ends_with('\n'), "one whole reply line: {reply:?}");
        reply
    }
}

#[test]
fn serves_tcp_clients_from_one_cache_one_write_per_reply() {
    let server = Server::start();
    let request = br#"{"network": "vgg_a", "levels": 4}"#;
    let first = server.connect().ask(request);
    assert!(first.contains(r#""cache_hit":false"#), "{first}");
    let hit = first.replacen(r#""cache_hit":false"#, r#""cache_hit":true"#, 1);

    // A second connection's first request hits the first one's entry.
    let mut client = server.connect();
    assert_eq!(client.ask(request), hit);

    // Each hit goes out in one write: 200 round trips take milliseconds,
    // not the ~40 ms each that a reply split from its `\n` waits on Nagle.
    let started = Instant::now();
    for _ in 0..200 {
        assert_eq!(client.ask(request), hit);
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "200 hits took {elapsed:?}"
    );

    // A line that is not UTF-8 gets an error, and the connection plans on.
    let error: serde_json::Value =
        serde_json::from_str(&client.ask(b"\xff\xfe bad")).expect("valid json");
    assert!(error.get("error").is_some(), "{error:?}");
    let next: serde_json::Value =
        serde_json::from_str(&client.ask(br#"{"network": "sfc", "levels": 2}"#))
            .expect("valid json");
    assert!(next.get("state_hash").is_some(), "{next:?}");
    assert_eq!(
        next.get("cache_hit").and_then(serde_json::Value::as_bool),
        Some(false)
    );
}
