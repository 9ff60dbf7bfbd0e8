//! The JSON string escaper shared by the findings and call-graph writers.
//!
//! The analyzer binary is deliberately dependency-free, so its two
//! canonical writers carry their own escaper; the tests parse what they
//! write with the vendored `serde_json`.

/// Escapes `s` as a JSON string, including the surrounding quotes.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_through_parse() {
        for s in [
            "plain",
            "with \"quotes\"",
            "new\nline\ttab",
            "uni: αβ✓",
            "ctl \u{1}",
            "",
        ] {
            let parsed: serde_json::Value =
                serde_json::from_str(&escape(s)).expect("parse escaped");
            assert_eq!(parsed.as_str(), Some(s));
        }
    }
}
