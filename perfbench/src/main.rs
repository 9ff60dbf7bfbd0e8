//! `hypar-perfbench`: the end-to-end and per-layer benchmark of the
//! `hypar-engine` planning service.
//!
//! ```text
//! bash perfbench/run.sh --workload cold-plan --seed 1 --seconds 18 --trace 0
//!
//!   --workload NAME   cold-plan | sim-deep | hot-tcp
//!   --seed N          input seed (default 1, whose state digest is pinned)
//!   --seconds S       length of the measured phase (default 18)
//!   --trace 0|1       0: end-to-end metrics; 1: the same service run,
//!                     then the traced in-process pass and per-layer metrics
//!   --steadiness N    run every workload (or --workload) N times with
//!                     seeds 1..=N and print each end-to-end metric's
//!                     median, quartiles and spread against its bound
//!   --bless           rewrite the workload's pinned state digest (only
//!                     with the default seed, the one the pin is for)
//!   --engine PATH     the hypar-engine binary (run.sh passes it)
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod check;
mod client;
mod gen;
mod layers;
mod stats;
mod steady;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use serde::Value;

use check::{Tally, DEFAULT_SEED};
use client::{ClientPin, Conn, Server};
use gen::{Stream, Workload};

/// Set-ups per run; `setup_s` is their median.  Seven, because set-ups
/// within one run already differ (hot-tcp's by up to a third).
const SETUP_REPEATS: usize = 7;
/// Connections of the hot-tcp client (the box's core count).
const HOT_CONNECTIONS: usize = 2;
const STATS_LINE: &str = "{\"stats\": true}\n";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    engine: PathBuf,
    steadiness: Option<usize>,
    bless: bool,
}

fn usage() -> &'static str {
    "usage: hypar-perfbench --engine PATH [--workload cold-plan|sim-deep|hot-tcp] \
     [--seed N] [--seconds S] [--trace 0|1] [--steadiness N] [--bless]"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 18,
        trace: false,
        engine: PathBuf::new(),
        steadiness: None,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                };
            }
            "--engine" => args.engine = PathBuf::from(value()?),
            "--steadiness" => {
                args.steadiness = Some(value()?.parse().map_err(|e| format!("--steadiness: {e}"))?);
            }
            "--bless" => args.bless = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.bless && args.seed != DEFAULT_SEED {
        return Err(format!(
            "--bless pins the digest of --seed {DEFAULT_SEED}; got --seed {}",
            args.seed
        ));
    }
    if !args.engine.is_file() {
        return Err(format!(
            "no hypar-engine binary at `{}`",
            args.engine.display()
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = match (args.steadiness, args.workload) {
        (Some(runs), _) => steady::run(&args, runs),
        (None, Some(workload)) => run(&args, workload),
        (None, None) => Err("--workload is required".to_owned()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hypar-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Where record logs and span files go: beside the build outputs.
fn out_dir(engine: &Path) -> Result<PathBuf, String> {
    let dir = engine.parent().map_or_else(
        || PathBuf::from("perfbench-out"),
        |p| p.join("perfbench-out"),
    );
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Everything the untraced service run observed.
pub struct ServiceRun {
    setup_s: Vec<f64>,
    /// Replies to the final set-up, in `stream.setup` order.
    setup_replies: Vec<String>,
    /// Measured line indices, in completion order.
    pub sent: Vec<usize>,
    /// Host latency of each measured request, aligned with `sent`.
    pub latencies_ns: Vec<u64>,
    /// Measured replies (pipe workloads), aligned with `sent`.
    replies: Vec<String>,
    /// Expected hit reply per line (hot-tcp), compared in the window.
    hot_expected: Vec<String>,
    /// Measured hot-tcp requests (indices into `sent`) whose reply
    /// differed from the expected hit.
    hot_mismatches: Vec<usize>,
    elapsed_s: f64,
    rss_mb: f64,
    /// The server's `{"stats": true}` reply after the measured phase.
    pub stats: Value,
    record: Option<PathBuf>,
    ran_out: bool,
}

impl ServiceRun {
    /// The service's reply to measured request `k`.
    pub fn reply(&self, k: usize) -> &str {
        if self.hot_expected.is_empty() {
            &self.replies[k]
        } else {
            &self.hot_expected[self.sent[k]]
        }
    }
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// One set-up over the pipes: spawn, then the warm-up lines one by one.
fn setup_stdio(
    args: &Args,
    stream: &Stream,
    record: Option<&Path>,
    pin: &ClientPin,
) -> Result<(Server, f64, Vec<String>), String> {
    if let Some(path) = record {
        match std::fs::remove_file(path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("{}: {e}", path.display())),
        }
    }
    let started = Instant::now();
    let mut server = Server::spawn_stdio(&args.engine, record, pin).map_err(io_err("spawn"))?;
    let mut replies = Vec::with_capacity(stream.setup.len());
    for &i in &stream.setup {
        let mut reply = String::new();
        server
            .roundtrip(&stream.lines[i], &mut reply)
            .map_err(io_err("set-up request"))?;
        replies.push(reply);
    }
    Ok((server, started.elapsed().as_secs_f64(), replies))
}

/// One set-up over TCP: spawn, open every connection, then load the
/// working set pipelined on the first one.
fn setup_tcp(
    args: &Args,
    stream: &Stream,
    pin: &ClientPin,
) -> Result<(Server, Vec<Conn>, f64, Vec<String>), String> {
    let started = Instant::now();
    let server = Server::spawn_tcp(&args.engine, pin).map_err(io_err("spawn"))?;
    let addr = server.addr.clone().unwrap_or_default();
    let mut conns = (0..HOT_CONNECTIONS)
        .map(|_| Conn::open(&addr))
        .collect::<Result<Vec<_>, _>>()
        .map_err(io_err("connect"))?;
    let mut queue = stream.setup.iter().copied();
    let mut replies = vec![String::new(); stream.lines.len()];
    client::pump(
        &mut conns,
        &stream.lines,
        stream.setup.len(),
        &mut |c| if c == 0 { queue.next() } else { None },
        &mut |r| replies[r.index] = String::from_utf8_lossy(r.bytes).into_owned(),
    )
    .map_err(io_err("set-up"))?;
    let replies = stream
        .setup
        .iter()
        .map(|&i| std::mem::take(&mut replies[i]))
        .collect();
    Ok((server, conns, started.elapsed().as_secs_f64(), replies))
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    stats::percentile(&sorted, 50_000)
}

/// Runs the untraced service phase of `workload`.
fn service_run(args: &Args, workload: Workload, stream: &Stream) -> Result<ServiceRun, String> {
    let pin = ClientPin::new().map_err(io_err("pin the client to one CPU"))?;
    let dir = out_dir(&args.engine)?;
    let window = Duration::from_secs(args.seconds);
    let record = (workload == Workload::ColdPlan)
        .then(|| dir.join(format!("{}.record.jsonl", workload.name())));
    let mut run = ServiceRun {
        setup_s: Vec::new(),
        setup_replies: Vec::new(),
        sent: Vec::with_capacity(stream.measured.len()),
        latencies_ns: Vec::with_capacity(stream.measured.len()),
        replies: Vec::with_capacity(stream.measured.len()),
        hot_expected: Vec::new(),
        hot_mismatches: Vec::new(),
        elapsed_s: 0.0,
        rss_mb: 0.0,
        stats: Value::Null,
        record: record.clone(),
        ran_out: false,
    };
    if workload == Workload::HotTcp {
        let mut live = None;
        for _ in 0..SETUP_REPEATS {
            if let Some((server, _conns)) = live.take() {
                Server::stop(server).map_err(io_err("stop"))?;
            }
            let (server, conns, secs, replies) = setup_tcp(args, stream, &pin)?;
            run.setup_s.push(secs);
            run.setup_replies = replies;
            live = Some((server, conns));
        }
        let (server, mut conns) = live.ok_or("no set-up ran")?;
        // A hit is the set-up reply with `cache_hit` flipped, byte for
        // byte; the comparison is a memcmp, cheap enough for the window.
        run.hot_expected = vec![String::new(); stream.lines.len()];
        for (&i, reply) in stream.setup.iter().zip(&run.setup_replies) {
            run.hot_expected[i] = reply.replacen("\"cache_hit\":false", "\"cache_hit\":true", 1);
        }
        let mut next = 0;
        let started = Instant::now();
        let deadline = started + window;
        let (sent, latencies, expected, mismatches) = (
            &mut run.sent,
            &mut run.latencies_ns,
            &run.hot_expected,
            &mut run.hot_mismatches,
        );
        client::pump(
            &mut conns,
            &stream.lines,
            1,
            &mut |_| {
                if next < stream.measured.len() && Instant::now() < deadline {
                    next += 1;
                    Some(stream.measured[next - 1])
                } else {
                    None
                }
            },
            &mut |r| {
                if r.bytes != expected[r.index].as_bytes() {
                    mismatches.push(sent.len());
                }
                sent.push(r.index);
                latencies.push(u64::try_from(r.latency.as_nanos()).unwrap_or(u64::MAX));
            },
        )
        .map_err(io_err("measured phase"))?;
        run.elapsed_s = started.elapsed().as_secs_f64();
        run.ran_out = next == stream.measured.len();
        run.rss_mb = server.peak_rss_mb().map_err(io_err("VmHWM"))?;
        let stats_lines = [STATS_LINE.to_owned()];
        let mut once = Some(0);
        let mut stats_reply = String::new();
        client::pump(
            &mut conns[..1],
            &stats_lines,
            1,
            &mut |_| once.take(),
            &mut |r| stats_reply = String::from_utf8_lossy(r.bytes).into_owned(),
        )
        .map_err(io_err("stats"))?;
        run.stats = serde_json::from_str(&stats_reply).unwrap_or(Value::Null);
        Server::stop(server).map_err(io_err("stop"))?;
        return Ok(run);
    }

    let mut live = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(server) = live.take() {
            Server::stop(server).map_err(io_err("stop"))?;
        }
        let (server, secs, replies) = setup_stdio(args, stream, record.as_deref(), &pin)?;
        run.setup_s.push(secs);
        run.setup_replies = replies;
        live = Some(server);
    }
    let mut server = live.ok_or("no set-up ran")?;
    let started = Instant::now();
    let deadline = started + window;
    let mut last = started;
    for &i in &stream.measured {
        let mut reply = String::new();
        let sent = Instant::now();
        server
            .roundtrip(&stream.lines[i], &mut reply)
            .map_err(io_err("measured request"))?;
        last = Instant::now();
        run.replies.push(reply);
        run.sent.push(i);
        run.latencies_ns
            .push(u64::try_from((last - sent).as_nanos()).unwrap_or(u64::MAX));
        if last >= deadline {
            break;
        }
    }
    run.elapsed_s = (last - started).as_secs_f64();
    run.ran_out = run.sent.len() == stream.measured.len();
    run.rss_mb = server.peak_rss_mb().map_err(io_err("VmHWM"))?;
    let mut stats_reply = String::new();
    server
        .roundtrip(STATS_LINE, &mut stats_reply)
        .map_err(io_err("stats"))?;
    run.stats = serde_json::from_str(stats_reply.trim_end()).unwrap_or(Value::Null);
    Server::stop(server).map_err(io_err("stop"))?;
    Ok(run)
}

/// Checks every reply of the run (after the timed window) and the
/// workload's pinned digest.
fn check_run(args: &Args, workload: Workload, stream: &Stream, run: &ServiceRun) -> Tally {
    let mut tally = Tally::default();
    let line = |i: usize| stream.lines[i].as_str();
    let mut hash_of_line = vec![None; stream.lines.len()];
    // The set-ups are identical; the final one's replies are checked
    // and counted (the earlier ones ran the same lines on fresh servers).
    for (&i, reply) in stream.setup.iter().zip(&run.setup_replies) {
        let outcome = check::check_reply(line(i), reply, false);
        if let Ok(response) = &outcome {
            hash_of_line[i] = Some(response.state_hash.clone());
        }
        tally.check(outcome.map(|_| ()));
    }
    if workload == Workload::HotTcp {
        for &i in &stream.setup {
            let expected = &run.hot_expected[i];
            let outcome = check::check_reply(line(i), expected, true).map(|_| ());
            if outcome.is_err() {
                tally.fail(format!("hit reply for set-up line {i} would not check"));
            }
        }
        tally.attempted += run.sent.len();
        for &k in &run.hot_mismatches {
            tally.fail(format!(
                "hit reply differs from the set-up reply for {}",
                line(run.sent[k]).trim_end()
            ));
        }
    } else {
        for (k, &i) in run.sent.iter().enumerate() {
            let outcome = check::check_reply(line(i), &run.replies[k], false);
            if let Ok(response) = &outcome {
                hash_of_line[i] = Some(response.state_hash.clone());
            }
            tally.check(outcome.map(|_| ()));
        }
    }
    if let Some(path) = &run.record {
        let sent: Vec<(&str, &str)> = stream
            .setup
            .iter()
            .chain(&run.sent)
            .map(|&i| (line(i), hash_of_line[i].as_deref().unwrap_or("")))
            .collect();
        check::check_record_log(path, &sent, &mut tally);
    }
    check_server_stats(workload, stream, run, &mut tally);
    // The digest: over the workload's distinct requests in seed order.
    let hashes: Option<Vec<String>> = stream
        .digest
        .iter()
        .map(|&i| hash_of_line[i].clone())
        .collect();
    match hashes {
        None => tally.check(Err(format!(
            "the run answered only {} measured lines; the digest covers {}",
            run.sent.len(),
            stream.digest.len()
        ))),
        Some(hashes) => {
            let digest = stats::fold_digest(hashes.iter().map(String::as_str));
            println!(
                "state_digest {digest} over {} distinct requests",
                hashes.len()
            );
            let lines: Vec<&str> = stream.digest.iter().map(|&i| line(i)).collect();
            if args.bless {
                let path = check::pin_path(workload);
                let pin = check::render_pin(workload, &hashes);
                tally.check(std::fs::write(&path, pin).map_err(|e| format!("{path}: {e}")));
                println!("pinned {path}");
            } else if args.seed == DEFAULT_SEED {
                let pinned = check::check_pin(workload, &hashes, &lines);
                if pinned.is_ok() {
                    println!("state_digest matches the pin for --seed {DEFAULT_SEED}");
                }
                tally.check(pinned);
            }
        }
    }
    tally
}

/// The server's own cache counters must agree with what was sent.
fn check_server_stats(workload: Workload, stream: &Stream, run: &ServiceRun, tally: &mut Tally) {
    let cache = run.stats.get("cache");
    let counter = |name: &str| cache.and_then(|c| c.get(name)).and_then(Value::as_u64);
    let planned = (stream.setup.len() + run.sent.len()) as u64;
    let (hits, misses) = match workload {
        Workload::HotTcp => (run.sent.len() as u64, stream.setup.len() as u64),
        _ => (0, planned),
    };
    tally.check(
        if counter("hits") == Some(hits) && counter("misses") == Some(misses) {
            Ok(())
        } else {
            Err(format!(
                "server cache counters {:?}/{:?} (hits/misses), expected {hits}/{misses}",
                counter("hits"),
                counter("misses")
            ))
        },
    );
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

fn run(args: &Args, workload: Workload) -> Result<(), String> {
    let stream = gen::stream(workload, args.seed, args.seconds);
    let run = service_run(args, workload, &stream)?;
    let mut tally = check_run(args, workload, &stream, &run);

    let n = run.latencies_ns.len();
    let mut sorted: Vec<f64> = run.latencies_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    sorted.sort_by(f64::total_cmp);
    let tail = stats::tail_percentile(n);
    let (loop_kind, clients) = match workload {
        Workload::HotTcp => (
            "closed loop, one client thread, persistent loopback TCP connections",
            HOT_CONNECTIONS,
        ),
        _ => ("closed loop, stdin/stdout pipes", 1),
    };
    let throughput = n as f64 / run.elapsed_s;
    let p50 = stats::percentile(&sorted, 50_000);
    let tail_ms = stats::percentile(&sorted, tail);
    let setup_s = median(&run.setup_s);
    println!(
        "workload {} seed {} clients {clients} ({loop_kind}), measured {:.3} s{}",
        workload.name(),
        args.seed,
        run.elapsed_s,
        if run.ran_out {
            " (stream exhausted)"
        } else {
            ""
        }
    );
    println!("throughput_rps {throughput:.2} 1/s over {clients} client connection(s)");
    println!("latency_p50_ms {p50:.4} ms over {n} samples");
    println!(
        "latency_tail_ms {tail_ms:.4} ms = {} over {n} samples ({} beyond)",
        stats::percentile_label(tail),
        stats::beyond(tail, n)
    );
    println!(
        "setup_s {setup_s:.4} s (median of {:?})",
        run.setup_s
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    println!("peak_rss_mb {:.3} MB", run.rss_mb);

    let metrics = if args.trace {
        let traced = layers::traced_pass(workload, &stream, &run, &out_dir(&args.engine)?)?;
        for note in traced.failures {
            tally.fail(note);
        }
        traced.metrics
    } else {
        vec![
            metric("throughput_rps", throughput, "1/s"),
            metric("latency_p50_ms", p50, "ms"),
            metric("latency_tail_ms", tail_ms, "ms"),
            metric("setup_s", setup_s, "s"),
            metric("peak_rss_mb", run.rss_mb, "MB"),
        ]
    };
    println!(
        "requests sent {} succeeded {} failed {} (set-up {} x {} lines on fresh servers)",
        tally.attempted,
        tally.attempted.saturating_sub(tally.failed),
        tally.failed,
        SETUP_REPEATS,
        stream.setup.len()
    );
    for note in &tally.notes {
        println!("FAILED {note}");
    }
    let correct = tally.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        metrics.join(",")
    );
    Ok(())
}
