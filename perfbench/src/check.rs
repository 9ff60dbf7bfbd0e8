//! Reply checks, the record-log check and the pinned state digests.

use std::path::Path;

use hypar_engine::{record, PlanRequest, PlanResponse};
use serde::Value;

use crate::gen::Workload;
use crate::stats::fold_digest;

/// The seed whose state digest is pinned.
pub const DEFAULT_SEED: u64 = 1;

/// Counts of checked operations, with the first few failures spelled out.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one checked operation, failed if `outcome` is an error.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(note) = outcome {
            self.fail(note);
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }
}

fn short(text: &str) -> String {
    let cut: String = text.chars().take(160).collect();
    if cut.len() < text.len() {
        format!("{cut}...")
    } else {
        cut
    }
}

/// Checks one reply against its request line: one JSON object, no
/// `error`, a `PlanResponse` whose `state_hash` `compute_state_hash`
/// reproduces, for the requested levels, batch, strategy and
/// simulation, with `cache_hit` equal to `hit`.
pub fn check_reply(line: &str, reply: &str, hit: bool) -> Result<PlanResponse, String> {
    let fail = |what: &str| format!("{what}: request {}", short(line.trim_end()));
    let request: PlanRequest =
        serde_json::from_str(line.trim_end()).map_err(|e| fail(&format!("bad request ({e})")))?;
    let value: Value = serde_json::from_str(reply.trim_end())
        .map_err(|e| fail(&format!("reply is not one JSON line ({e})")))?;
    if let Some(error) = value.get("error") {
        return Err(fail(&format!(
            "error reply {}",
            short(&format!("{error:?}"))
        )));
    }
    let response: PlanResponse = serde_json::from_value(&value)
        .map_err(|e| fail(&format!("reply is not a PlanResponse ({e})")))?;
    if response.compute_state_hash() != response.state_hash {
        return Err(fail("state_hash does not match the reply's content"));
    }
    let strategy = if request.refine {
        "refined"
    } else {
        request.strategy.name()
    };
    if response.levels != request.levels
        || response.batch != request.batch
        || response.strategy.name() != strategy
    {
        return Err(fail("reply is for another workload"));
    }
    if response.cache_hit != hit {
        return Err(fail(&format!("cache_hit is {}", response.cache_hit)));
    }
    if response.simulation.is_some() != request.simulate {
        return Err(fail("simulation report missing or unexpected"));
    }
    Ok(response)
}

/// The `state_hash` field of a serialized reply, without parsing it.
pub fn state_hash_of(reply: &str) -> Option<&str> {
    const KEY: &str = "\"state_hash\":\"";
    let start = reply.find(KEY)? + KEY.len();
    reply.get(start..start + 16)
}

/// Checks a `--record` log: exactly one entry per planning line sent,
/// in order, each for that line's request and with the reply's hash.
pub fn check_record_log(path: &Path, sent: &[(&str, &str)], tally: &mut Tally) {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => return tally.check(Err(format!("record log {}: {e}", path.display()))),
    };
    let entries = match record::parse_log(&text) {
        Ok(entries) => entries,
        Err(e) => return tally.check(Err(format!("record log does not parse: {e}"))),
    };
    tally.check(if entries.len() == sent.len() {
        Ok(())
    } else {
        Err(format!(
            "record log holds {} entries for {} planning lines",
            entries.len(),
            sent.len()
        ))
    });
    for (entry, (line, hash)) in entries.iter().zip(sent) {
        let same_request = serde_json::from_str::<PlanRequest>(line.trim_end())
            .is_ok_and(|request| request == entry.request);
        if !same_request || entry.state_hash() != Some(*hash) {
            tally.fail(format!(
                "record entry differs from request {}",
                short(line.trim_end())
            ));
        }
    }
}

/// The pinned per-line hashes of the default seed, with their digest.
fn pinned(workload: Workload) -> &'static str {
    match workload {
        Workload::ColdPlan => include_str!("../pins/cold-plan.txt"),
        Workload::SimDeep => include_str!("../pins/sim-deep.txt"),
        Workload::HotTcp => include_str!("../pins/hot-tcp.txt"),
    }
}

/// Where `--bless` writes a workload's pin.
pub fn pin_path(workload: Workload) -> String {
    format!(
        "{}/pins/{}.txt",
        env!("CARGO_MANIFEST_DIR"),
        workload.name()
    )
}

/// Renders a pin file for `hashes`.
pub fn render_pin(workload: Workload, hashes: &[String]) -> String {
    let mut out = format!(
        "# {} --seed {DEFAULT_SEED}: state digest, then the state_hash of each digest line\n",
        workload.name()
    );
    out.push_str(&format!(
        "digest {}\n",
        fold_digest(hashes.iter().map(String::as_str))
    ));
    for hash in hashes {
        out.push_str(hash);
        out.push('\n');
    }
    out
}

/// Compares a run's digest hashes with the pin.  On a mismatch, names
/// the first request line whose hash differs.
pub fn check_pin(workload: Workload, hashes: &[String], lines: &[&str]) -> Result<(), String> {
    let pin = pinned(workload);
    let mut digest = None;
    let mut expected = Vec::new();
    for row in pin.lines().filter(|r| !r.starts_with('#') && !r.is_empty()) {
        match row.strip_prefix("digest ") {
            Some(d) => digest = Some(d.trim()),
            None => expected.push(row.trim()),
        }
    }
    let Some(digest) = digest else {
        return Err(format!(
            "no digest pinned for {} (run with --bless)",
            workload.name()
        ));
    };
    let actual = fold_digest(hashes.iter().map(String::as_str));
    if actual == digest {
        return Ok(());
    }
    let first = expected
        .iter()
        .zip(hashes)
        .position(|(want, got)| *want != got.as_str())
        .unwrap_or(expected.len().min(hashes.len()));
    let line = lines
        .get(first)
        .map_or("<none>".to_owned(), |l| short(l.trim_end()));
    Err(format!(
        "state digest {actual} differs from the pinned {digest}; first differing line #{first}: {line}"
    ))
}
