// Lexer edge cases the rules must see through: everything inside
// comments, raw strings, and char literals is dead text, while the two
// live lock-scope sites at the bottom must still be found.  This file is a test
// fixture — it is never compiled and never scanned by the workspace
// walk (`tests/` and `fixtures/` are skip-dirs).

/* outer /* nested .unwrap() */ still a comment: let g = m.lock(); plan(g); */

fn raw_fences() -> &'static str {
    let plain = r"plain raw .unwrap()";
    let one = r#"one fence panic!("x") and a "quoted" stretch"#;
    let two = r##"two fences holding r#"an inner raw"# and let g = m.lock(); plan(g);"##;
    let byte = br#"byte raw unreachable!()"#;
    let _ = (plain, two, byte);
    one
}

fn chars_and_lifetimes<'a>(x: &'a str) -> char {
    let quote = '"';
    let tick = '\'';
    let newline = '\n';
    let _: &'a str = x;
    quote.max(tick).max(newline)
}

fn live_guard(m: &std::sync::Mutex<u8>) -> u8 {
    let g = m.lock(); // MARK:live-guard
    plan(&g)
}

fn live_guard_in_a_nested_block(m: &std::sync::Mutex<u8>) -> u8 {
    if true {
        let g = m.lock(); // MARK:live-nested
        return refine(&g);
    }
    0
}
