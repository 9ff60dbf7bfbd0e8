//! Adversarial input through the service loop: malformed, truncated,
//! deeply nested, and absurdly large request bytes must yield a typed
//! error JSON line — never a panic, never an unbounded stall.

#![expect(
    clippy::panic,
    clippy::disallowed_methods,
    reason = "helpers fail by panicking; latency bounds read the wall clock"
)]

use std::time::{Duration, Instant};

use hypar_engine::{service, PlanEngine};
use serde_json::Value;

/// Pushes one hostile line through the full service loop and asserts
/// the reply is a single well-formed `{"error": ...}` object.
fn expect_error_reply(engine: &PlanEngine, line: &str) -> String {
    let reply = service::handle_line_recorded(engine, line, None);
    let value: Value = serde_json::from_str(&reply)
        .unwrap_or_else(|e| panic!("reply must be valid JSON ({e}): {reply}"));
    let message = value
        .get("error")
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("reply must be a typed error: {reply}"))
        .to_owned();
    assert!(!message.is_empty());
    message
}

#[test]
fn malformed_and_truncated_json_yields_typed_errors() {
    let engine = PlanEngine::new();
    for line in [
        "{nope",
        "]",
        "{\"network\": \"vgg_a\"",    // truncated object
        "{\"network\": \"vgg_a\", }", // trailing comma
        "\"just a string\"",          // wrong top-level shape
        "{\"network\": 42}",          // wrong field type
        "{\"network\": \"vgg_a\"} trailing",
        "{\"cmd\": \"reboot\"}", // unknown admin command
        "{\"network\": \"vgg_a\", \"levels\": -1}",
        "{\"network\": \"vgg_a\", \"strategy\": \"quantum\"}",
        "\u{0}\u{1}\u{2}",
        "{\"network\": {\"nodes\": []}}", // empty DAG
    ] {
        expect_error_reply(&engine, line);
    }
}

#[test]
fn deeply_nested_input_is_rejected_not_a_stack_overflow() {
    let engine = PlanEngine::new();
    // A malicious client can send megabytes of `[` with no closers; the
    // recursive parser must refuse at its depth bound instead of
    // overflowing the thread stack (which would abort the process, not
    // just the request).
    let bombs = [
        "[".repeat(200_000),
        "{\"a\":".repeat(200_000),
        format!("{{\"network\": {}}}", "[".repeat(200_000)),
        format!("{}0{}", "[".repeat(1_000), "]".repeat(1_000)),
    ];
    for bomb in &bombs {
        let message = expect_error_reply(&engine, bomb);
        assert!(
            message.contains("invalid JSON"),
            "depth bombs are parse errors: {message}"
        );
    }
}

#[test]
fn huge_fields_are_bounded_in_time_and_yield_errors() {
    let engine = PlanEngine::new();
    let huge_name = format!("{{\"network\": \"{}\"}}", "x".repeat(4 << 20));
    let huge_assignments = format!(
        "{{\"network\": \"vgg_a\", \"strategy\": \"explicit\", \"assignments\": [\"{}\"]}}",
        "0".repeat(4 << 20)
    );
    let many_fields = {
        let fields: Vec<String> = (0..100_000).map(|i| format!("\"f{i}\": {i}")).collect();
        format!("{{\"network\": \"vgg_a\", {}}}", fields.join(", "))
    };
    // A wide-but-shallow array bomb: lots of elements, legal depth.
    let wide_array = format!(
        "{{\"network\": \"vgg_a\", \"assignments\": [{}]}}",
        vec!["\"0\""; 100_000].join(",")
    );

    // (line, must_reject): unknown fields are ignored and assignments
    // without `strategy: explicit` are inert, so the many-fields and
    // wide-array bombs degrade to legitimate vgg_a requests — the
    // guarantee there is bounded latency, not rejection.
    let cases = [
        (&huge_name, true),
        (&huge_assignments, true),
        (&wide_array, false),
        (&many_fields, false),
    ];
    for (line, must_reject) in cases {
        let started = Instant::now();
        let reply = service::handle_line_recorded(&engine, line, None);
        let elapsed = started.elapsed();
        // Megabyte-scale garbage must be dispatched in interactive time —
        // parsing is linear and hostile shapes never reach the planner.
        // The generous bound keeps the test meaningful without being
        // flaky on slow machines.
        assert!(
            elapsed < Duration::from_secs(10),
            "hostile {}-byte line took {elapsed:?}",
            line.len()
        );
        let value: Value = serde_json::from_str(&reply).expect("reply parses");
        if must_reject {
            assert!(
                value.get("error").is_some(),
                "line must be rejected: {}...",
                &reply[..reply.len().min(200)]
            );
        } else {
            assert!(
                value.get("error").is_some() || value.get("state_hash").is_some(),
                "reply must be typed: {}...",
                &reply[..reply.len().min(200)]
            );
        }
    }
}

#[test]
fn the_service_loop_survives_a_hostile_session_and_still_plans() {
    let engine = PlanEngine::new();
    let mut input = Vec::new();
    input.extend("[".repeat(50_000).bytes());
    input.push(b'\n');
    input.extend(b"{truncated\n");
    input.extend(b"{\"network\": \"no-such-net\"}\n");
    // Not UTF-8: an error reply, not the end of the session.
    input.extend(b"\xff\xfe bad\n");
    input.extend(b"{\"network\": \"sfc\", \"levels\": 2}\n");

    let mut output = Vec::new();
    service::serve_lines_recorded(&engine, input.as_slice(), &mut output, None).unwrap();
    let text = String::from_utf8(output).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 5, "{text}");
    for line in &lines[..4] {
        let value: Value = serde_json::from_str(line).unwrap();
        assert!(value.get("error").is_some(), "{line}");
    }
    assert!(lines[3].contains("invalid UTF-8"), "{}", lines[3]);
    // The session is still healthy: the final, legitimate request plans.
    let last: Value = serde_json::from_str(lines[4]).unwrap();
    assert!(last.get("state_hash").is_some(), "{}", lines[4]);
    assert_eq!(last.get("cache_hit").and_then(Value::as_bool), Some(false));
}

/// Extents and batches whose element counts overflow `u64`, spelled as
/// `layers` and as `nodes`: a flattened volume that wraps to zero (which
/// `FeatureDims::new` rejects by panicking), a conv output that wraps to
/// a `0` total, and a padding that wraps the padded extent.
fn overflowing_lines() -> Vec<String> {
    let cases = [
        (
            r#"{"channels": 4294967296, "height": 65536, "width": 65536}"#,
            r#"{"kind": "fc", "out": 4294967296}"#,
            r#", "batch": 4294967296"#,
        ),
        (
            r#"{"channels": 3, "height": 4294967296, "width": 4294967296}"#,
            r#"{"kind": "conv", "out": 4, "kernel": 1}"#,
            "",
        ),
        (
            r#"{"channels": 1, "height": 8, "width": 8}"#,
            r#"{"kind": "conv", "out": 4, "kernel": 3, "padding": 9223372036854775807}"#,
            "",
        ),
    ];
    let mut lines = Vec::new();
    for (input, layer, batch) in cases {
        let node = layer.replacen('{', r#"{"name": "l", "#, 1);
        for (field, spec) in [("layers", layer), ("nodes", node.as_str())] {
            lines.push(format!(
                r#"{{"network": {{"input": {input}, "{field}": [{spec}]}}{batch}, "levels": 2}}"#
            ));
        }
    }
    // A ladder of 64 `add(x, x)` joins reaches the classifier along 2^64
    // paths: the junction's element count overflows.
    let mut nodes = vec![r#"{"name": "j0", "kind": "conv", "out": 1, "kernel": 1}"#.to_owned()];
    for i in 1..=64 {
        let prev = format!("j{}", i - 1);
        nodes.push(format!(
            r#"{{"name": "j{i}", "kind": "add", "inputs": ["{prev}", "{prev}"]}}"#
        ));
    }
    nodes.push(r#"{"name": "fc", "kind": "fc", "out": 2}"#.to_owned());
    lines.push(format!(
        r#"{{"network": {{"input": {{"channels": 1, "height": 4, "width": 4}}, "nodes": [{}]}}, "levels": 2}}"#,
        nodes.join(", ")
    ));
    lines
}

#[test]
fn overflowing_shapes_are_typed_errors_and_the_service_keeps_answering() {
    let engine = PlanEngine::new();
    let lines = overflowing_lines();
    for line in &lines {
        let message = expect_error_reply(&engine, line);
        assert!(message.contains("64-bit overflow"), "{line}: {message}");
    }
    let mut input = lines.join("\n");
    input.push_str("\n{\"network\": \"vgg_a\", \"levels\": 4}\n");
    let mut output = Vec::new();
    service::serve_lines_recorded(&engine, input.as_bytes(), &mut output, None).unwrap();
    let text = String::from_utf8(output).unwrap();
    let replies: Vec<&str> = text.lines().collect();
    assert_eq!(replies.len(), lines.len() + 1, "{text}");
    let last: Value = serde_json::from_str(replies[lines.len()]).unwrap();
    assert!(last.get("state_hash").is_some(), "{}", replies[lines.len()]);
}
