//! The service writes its replies and record lines straight to text. Over a
//! generated corpus of request lines, at cache capacities 0 and 1024, every
//! reply, every record line and the stats reply must be the bytes the
//! vendored serde tree printer (`Value::write_tree`) prints for the same
//! values, and the deterministic bytes are pinned by digest.

#![expect(clippy::unwrap_used, reason = "helpers fail by panicking")]

use hypar_engine::{record, service, PlanEngine, PlanResponse, RecordEntry, Recorder, Strategy};
use hypar_telemetry::statehash::{hash_hex, StateHasher};
use serde::{Serialize, Value};

/// Digest of every untraced planning and error reply, at capacity 0 then
/// 1024, with the bytes the tree printer wrote before replies were written
/// directly.
const REPLY_DIGEST: &str = "13d965095e13ebb2";

/// Digest of every record line of an untraced request, at capacity 0 then
/// 1024, as above.
const RECORD_DIGEST: &str = "48974ad4a0ef3223";

const BATCHES: [u64; 3] = [1, 64, 4127];

/// One corpus line: its bytes, and whether its reply is deterministic
/// (no `timing` section, not the stats reply).
#[derive(Clone)]
struct Line {
    bytes: Vec<u8>,
    pinned: bool,
}

impl Line {
    fn new(text: String, pinned: bool) -> Self {
        Line {
            bytes: text.into_bytes(),
            pinned,
        }
    }
}

/// One dp/mp bit string per level, `levels` long, over `layers` layers.
fn assignments(layers: usize, levels: usize) -> String {
    let bits: Vec<String> = (0..levels)
        .map(|level| {
            let row: String = (0..layers)
                .map(|layer| if (layer + level) % 3 == 0 { '1' } else { '0' })
                .collect();
            format!("\"{row}\"")
        })
        .collect();
    format!(",\"assignments\":[{}]", bits.join(","))
}

fn corpus() -> Vec<Line> {
    let zoo: Vec<(&str, usize)> = hypar_models::zoo::NAMES
        .iter()
        .map(|&name| (name, hypar_models::zoo::by_name(name).unwrap().num_layers()))
        .chain(
            hypar_graph::zoo::NAMES
                .iter()
                .map(|&name| (name, hypar_graph::zoo::by_name(name).unwrap().num_layers())),
        )
        .collect();
    let mut lines = Vec::new();
    let mut i = 0usize;
    for &(network, layers) in &zoo {
        for strategy in Strategy::ALL {
            for levels in 0..=16usize {
                // Exhaustive search is 2^slots: keep it small in a debug
                // build, or past the 24-slot bound, where it is a typed
                // error.
                let slots = layers * levels;
                if strategy == Strategy::Exhaustive && (11..=24).contains(&slots) {
                    continue;
                }
                let explicit = match strategy {
                    Strategy::Explicit => assignments(layers, levels),
                    _ => String::new(),
                };
                for (simulate, trace) in
                    [(false, false), (true, false), (false, true), (true, true)]
                {
                    i += 1;
                    let batch = BATCHES[i % BATCHES.len()];
                    let topology = if i.is_multiple_of(5) {
                        "torus"
                    } else {
                        "htree"
                    };
                    lines.push(Line::new(
                        format!(
                            "{{\"network\":\"{network}\",\"batch\":{batch},\"levels\":{levels},\
                             \"strategy\":\"{strategy}\",\"topology\":\"{topology}\",\
                             \"simulate\":{simulate},\"trace\":{trace}{explicit}}}"
                        ),
                        !trace,
                    ));
                }
            }
        }
    }
    // Repeats: cache hits at capacity 1024, misses at 0.
    let repeats: Vec<Line> = lines.iter().step_by(7).cloned().collect();
    lines.extend(repeats);
    let escapes = "tab\\t quote\\\" backslash\\\\ nul\\u0000 bell\\u0007 us\\u001f del\u{7f} é☃😀";
    for text in [
        // Forgiving spellings and the refine modifier.
        "{\"network\":\"vgg_a\",\"levels\":3,\"simulate\":true}".to_owned(),
        "{\"network\":\"resnet18\",\"levels\":4,\"strategy\":\"hypar\",\"refine\":true}".to_owned(),
        // Inline chain and DAG networks, their names echoed in the reply.
        format!(
            "{{\"network\":{{\"name\":\"{escapes}\",\"input\":{{\"channels\":3,\"height\":32,\"width\":32}},\
             \"layers\":[{{\"kind\":\"conv\",\"out\":16,\"kernel\":3,\"pool\":2}},\
             {{\"name\":\"head\",\"kind\":\"fc\",\"out\":10}}]}},\"levels\":3,\"simulate\":true}}"
        ),
        format!(
            "{{\"network\":{{\"name\":\"{escapes}\",\"input\":{{\"channels\":8,\"height\":16,\"width\":16}},\
             \"nodes\":[{{\"name\":\"stem\",\"kind\":\"conv\",\"out\":8,\"kernel\":3}},\
             {{\"name\":\"body\",\"kind\":\"conv\",\"out\":8,\"kernel\":3}},\
             {{\"name\":\"join\",\"kind\":\"add\",\"inputs\":[\"stem\",\"body\"]}},\
             {{\"name\":\"fc\",\"kind\":\"fc\",\"out\":10,\"inputs\":[\"join\"]}}]}},\
             \"levels\":4,\"strategy\":\"refined\",\"simulate\":true}}"
        ),
        format!(
            "{{\"network\":{{\"input\":{{\"channels\":1,\"height\":1,\"width\":784}},\
             \"layers\":[{{\"kind\":\"fc\",\"out\":300}},{{\"kind\":\"fc\",\"out\":10}}]}},\
             \"levels\":2{}}}",
            assignments(2, 2)
        ),
        // Typed errors, from the engine and from decoding.
        format!("{{\"network\":\"{escapes}\"}}"),
        "{\"network\":\"vgg_a\",\"levels\":17}".to_owned(),
        "{\"network\":\"vgg_a\",\"batch\":0}".to_owned(),
        "{\"network\":\"vgg_e\",\"batch\":18446744073709551615,\"levels\":4}".to_owned(),
        "{\"network\":\"vgg_a\",\"strategy\":\"bogus\"}".to_owned(),
        "{\"network\":\"vgg_a\",\"strategy\":\"dp\",\"refine\":true}".to_owned(),
        "{\"network\":\"vgg_a\",\"strategy\":\"explicit\"}".to_owned(),
        "{\"network\":\"vgg_a\",\"levels\":2,\"assignments\":[\"01\",\"10\"]}".to_owned(),
        "{\"network\":\"sfc\",\"levels\":1,\"assignments\":[\"0x1z\"]}".to_owned(),
        "{\"network\":\"sfc\",\"levels\":2,\"batch\":-1}".to_owned(),
        "{\"network\":\"sfc\",\"levels\":2.5}".to_owned(),
        "{\"network\":\"sfc\",\"topology\":\"ring\"}".to_owned(),
        "{\"network\":{\"input\":{\"channels\":1,\"height\":1,\"width\":4},\"layers\":[{\"kind\":\"pool\",\"out\":2}]}}".to_owned(),
        "{\"network\":5}".to_owned(),
        "{}".to_owned(),
        "[1,2]".to_owned(),
        "\"just a string\"".to_owned(),
        "{nope".to_owned(),
        format!("{}0{}", "[".repeat(200), "]".repeat(200)),
        "{\"cmd\":\"bogus\\u0001\"}".to_owned(),
    ] {
        lines.push(Line::new(text, true));
    }
    lines.push(Line {
        bytes: b"{\"network\":\"\xff\xfe\"}".to_vec(),
        pinned: true,
    });
    lines.push(Line::new("{\"stats\":true}".to_owned(), false));
    lines
}

/// The tree printer's compact text.
fn tree(value: &Value) -> String {
    let mut out = String::new();
    value.write_tree(&mut out, None);
    out
}

/// Runs the corpus through a fresh engine of `capacity`, checks every
/// reply and record line against the tree printer, and folds the pinned
/// bytes into the two digests.
fn check_capacity(
    corpus: &[Line],
    capacity: usize,
    replies: &mut StateHasher,
    records: &mut StateHasher,
) {
    let dir = std::env::temp_dir().join(format!(
        "hypar-json-bytes-{}-{capacity}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("log.jsonl");
    if let Err(err) = std::fs::remove_file(&path) {
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }
    let input: Vec<u8> = corpus
        .iter()
        .flat_map(|line| line.bytes.iter().copied().chain([b'\n']))
        .collect();
    let engine = PlanEngine::with_cache_capacity(capacity);
    let recorder = Recorder::append_to(&path).unwrap();
    let mut output = Vec::new();
    service::serve_lines_recorded(&engine, input.as_slice(), &mut output, Some(&recorder)).unwrap();
    drop(recorder);

    let output = String::from_utf8(output).unwrap();
    let reply_lines: Vec<&str> = output.lines().collect();
    assert_eq!(reply_lines.len(), corpus.len());
    replies.write_u64(capacity as u64);
    let mut planned = 0;
    for (line, reply) in corpus.iter().zip(&reply_lines) {
        let value: Value = serde_json::from_str(reply).unwrap();
        assert_eq!(tree(&value), *reply, "reply to {:?}", line.bytes);
        if value.get("state_hash").is_some() {
            planned += 1;
            let response: PlanResponse = serde_json::from_value(&value).unwrap();
            assert_eq!(tree(&response.to_value()), *reply);
        }
        if line.pinned {
            replies.write_str(reply);
        }
    }
    assert!(planned > corpus.len() / 2, "{planned} plans");
    assert!(reply_lines.last().unwrap().starts_with("{\"cache\":"));

    let log = std::fs::read_to_string(&path).unwrap();
    let entries = record::parse_log(&log).unwrap();
    let log_lines: Vec<&str> = log.lines().collect();
    assert_eq!(entries.len(), log_lines.len());
    records.write_u64(capacity as u64);
    for (entry, line) in entries.iter().zip(&log_lines) {
        assert_eq!(tree(&entry.to_value()), *line);
        assert_eq!(serde_json::to_string(entry).unwrap(), *line);
        if !entry.request.trace {
            records.write_str(line);
        }
    }
    assert!(entries.iter().any(|e: &RecordEntry| e.error.is_some()));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn replies_and_record_lines_match_the_tree_printer_and_their_pins() {
    let corpus = corpus();
    let mut replies = StateHasher::new();
    let mut records = StateHasher::new();
    for capacity in [0, 1024] {
        check_capacity(&corpus, capacity, &mut replies, &mut records);
    }
    let (replies, records) = (hash_hex(replies.finish()), hash_hex(records.finish()));
    assert_eq!(
        (replies.as_str(), records.as_str()),
        (REPLY_DIGEST, RECORD_DIGEST),
        "{} corpus lines",
        corpus.len()
    );
}
