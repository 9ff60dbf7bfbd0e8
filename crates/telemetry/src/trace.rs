//! Structured span trees: per-request timing breakdowns.
//!
//! A [`SpanRecorder`] wraps a unit of work, times named sub-units as
//! child [`Span`]s (nested arbitrarily via [`SpanRecorder::time_in`]),
//! and attaches counters (sweep counts, candidate counts) to the span
//! they describe.  [`SpanRecorder::finish`] freezes the recorder into
//! the immutable [`Span`] tree that ships in a response.

use std::time::Instant;

use serde::{DeError, Deserialize, Serialize, Value};

/// One timed node of a trace: a name, a wall-clock duration, optional
/// counters, and child spans in execution order.
///
/// Serializes as `{"name": .., "duration_ns": .., "counters": {..},
/// "children": [..]}`, omitting empty counters/children.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What was timed (e.g. `"stitch"`, `"refine"`).
    pub name: String,
    /// Wall-clock duration in nanoseconds.
    pub duration_ns: u64,
    /// Named quantities attached to this span (e.g. `sweeps`, `flips`).
    pub counters: Vec<(String, u64)>,
    /// Timed sub-units, in execution order.
    pub children: Vec<Span>,
}

impl Span {
    /// The counter named `name` on this span, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Depth-first search for the first span named `name` (including
    /// `self`).
    #[must_use]
    pub fn find(&self, name: &str) -> Option<&Span> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Total number of spans in the tree (including `self`).
    #[must_use]
    pub fn len(&self) -> usize {
        1 + self.children.iter().map(Span::len).sum::<usize>()
    }

    /// Always false: a span tree contains at least its root.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl Serialize for Span {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("name".to_owned(), Value::String(self.name.clone())),
            ("duration_ns".to_owned(), Value::U64(self.duration_ns)),
        ];
        if !self.counters.is_empty() {
            fields.push((
                "counters".to_owned(),
                Value::Object(
                    self.counters
                        .iter()
                        .map(|(n, v)| (n.clone(), Value::U64(*v)))
                        .collect(),
                ),
            ));
        }
        if !self.children.is_empty() {
            fields.push((
                "children".to_owned(),
                Value::Array(self.children.iter().map(Serialize::to_value).collect()),
            ));
        }
        Value::Object(fields)
    }
}

impl Deserialize for Span {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| DeError::missing_field("name", "Span"))?
            .to_owned();
        let duration_ns = v
            .get("duration_ns")
            .and_then(Value::as_u64)
            .ok_or_else(|| DeError::missing_field("duration_ns", "Span"))?;
        let counters = match v.get("counters") {
            Some(c) => c
                .as_object()
                .ok_or_else(|| DeError::expected("counters object", c))?
                .iter()
                .map(|(n, val)| {
                    val.as_u64()
                        .map(|u| (n.clone(), u))
                        .ok_or_else(|| DeError::expected("unsigned integer", val))
                })
                .collect::<Result<_, _>>()?,
            None => Vec::new(),
        };
        let children = match v.get("children") {
            Some(c) => Vec::<Span>::from_value(c).map_err(|e| e.in_field("children"))?,
            None => Vec::new(),
        };
        Ok(Span {
            name,
            duration_ns,
            counters,
            children,
        })
    }
}

/// An in-progress [`Span`]: started at construction, frozen by
/// [`SpanRecorder::finish`].
#[derive(Debug)]
pub struct SpanRecorder {
    name: String,
    started: Instant,
    counters: Vec<(String, u64)>,
    children: Vec<Span>,
}

impl SpanRecorder {
    /// Starts timing a unit of work named `name`.
    #[must_use]
    #[expect(
        clippy::disallowed_methods,
        reason = "the telemetry layer owns the service's one clock; durations never feed a fingerprint or state hash"
    )]
    pub fn start(name: impl Into<String>) -> Self {
        SpanRecorder {
            name: name.into(),
            started: Instant::now(),
            counters: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Attaches a counter to this span (last write wins on duplicates at
    /// lookup time; duplicates are not coalesced).
    pub fn counter(&mut self, name: impl Into<String>, value: u64) {
        self.counters.push((name.into(), value));
    }

    /// Runs `f`, recording it as a leaf child span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.time_in(name, |_| f())
    }

    /// Runs `f` with its own recorder, recording it (and whatever
    /// children/counters `f` adds) as a child span named `name`.
    pub fn time_in<T>(&mut self, name: &str, f: impl FnOnce(&mut SpanRecorder) -> T) -> T {
        let mut child = SpanRecorder::start(name);
        let result = f(&mut child);
        self.children.push(child.finish());
        result
    }

    /// The most recently finished child span, if any.
    #[must_use]
    pub fn last_child(&self) -> Option<&Span> {
        self.children.last()
    }

    /// Freezes the recorder into its [`Span`], stamping the duration.
    #[must_use]
    pub fn finish(self) -> Span {
        Span {
            name: self.name,
            duration_ns: duration_ns_since(self.started),
            counters: self.counters,
            children: self.children,
        }
    }
}

/// Nanoseconds elapsed since `started`, saturating at `u64::MAX` (584
/// years — the cast cannot truncate in practice, but the histogram's top
/// bucket absorbs it if it ever does).
#[must_use]
pub fn duration_ns_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_a_nested_tree_in_execution_order() {
        let mut root = SpanRecorder::start("plan");
        let x = root.time("resolve", || 2 + 2);
        assert_eq!(x, 4);
        root.time_in("compute", |c| {
            c.counter("segments", 3);
            c.time("stitch", || ());
        });
        root.counter("total", 1);
        let span = root.finish();
        assert_eq!(span.name, "plan");
        assert_eq!(span.children.len(), 2);
        assert_eq!(span.children[0].name, "resolve");
        assert_eq!(span.children[1].name, "compute");
        assert_eq!(span.children[1].counter("segments"), Some(3));
        assert_eq!(span.children[1].children[0].name, "stitch");
        assert_eq!(span.len(), 4);
        assert_eq!(span.find("stitch").unwrap().name, "stitch");
        assert!(span.find("nope").is_none());
    }

    #[test]
    fn children_never_outlast_their_parent() {
        let mut root = SpanRecorder::start("outer");
        root.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        let span = root.finish();
        let inner = span.find("inner").unwrap();
        assert!(inner.duration_ns >= 1_000_000);
        assert!(span.duration_ns >= inner.duration_ns);
    }

    #[test]
    fn serialization_round_trips_and_omits_empty_sections() {
        let span = Span {
            name: "plan".into(),
            duration_ns: 1234,
            counters: vec![("sweeps".into(), 5)],
            children: vec![Span {
                name: "leaf".into(),
                duration_ns: 10,
                counters: vec![],
                children: vec![],
            }],
        };
        let text = serde_json::to_string(&span).unwrap();
        assert!(text.contains("\"sweeps\""));
        // The leaf serializes without counters/children keys.
        assert!(!text.contains("\"counters\": {}"));
        let back: Span = serde_json::from_str(&text).unwrap();
        assert_eq!(back, span);
    }
}
