//! The CI workflow must load as YAML: a runner that cannot parse
//! `.github/workflows/ci.yml` runs none of its jobs, and `cargo test`
//! never reads the file otherwise. This scans it line by line for the
//! shapes that break a parse (or silently cut a command short) and that
//! a line scanner can see:
//! - a `run:` value written as a plain (unquoted, non-block) scalar
//!   that contains `: ` (a mapping indicator) or ` #` (a comment);
//! - a line indented with a tab, which YAML forbids.
//!
//! It also checks that the workflow keeps its tier-1 `cargo test -q`
//! step, which carries every determinism and work-counter gate.

/// Every offending line of `text`, as `line N: reason`.
fn problems(text: &str) -> Vec<String> {
    let mut found = Vec::new();
    // Indentation of the key that opened the current block scalar: the
    // lines indented deeper are its content, not YAML structure.
    let mut block: Option<usize> = None;
    for (n, line) in text.lines().enumerate().map(|(i, l)| (i + 1, l)) {
        let body = line.trim_start_matches([' ', '\t']);
        let indent = line.len() - body.len();
        if line[..indent].contains('\t') {
            found.push(format!("line {n}: indented with a tab"));
        }
        if body.is_empty() {
            continue;
        }
        match block {
            Some(key) if indent > key => continue,
            _ => block = None,
        }
        let key = body.strip_prefix("- ").unwrap_or(body);
        let Some((name, value)) = key.split_once(':') else { continue };
        let value = value.trim();
        if value.starts_with(['|', '>']) {
            block = Some(indent);
            continue;
        }
        if name != "run" || value.starts_with(['"', '\'']) {
            continue;
        }
        if value.contains(": ") {
            found.push(format!("line {n}: plain `run:` value contains `: `; quote it"));
        }
        if value.contains(" #") {
            found.push(format!("line {n}: plain `run:` value contains ` #`; quote it"));
        }
    }
    found
}

#[test]
fn the_ci_workflow_has_no_unparseable_lines() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/.github/workflows/ci.yml");
    let text = std::fs::read_to_string(path).expect("read the CI workflow");
    assert!(text.contains("\njobs:\n"), "the workflow declares its jobs");
    assert!(
        text.lines().any(|l| l.trim() == "run: cargo test -q"),
        "{path}: no `run: cargo test -q` step; tier-1 carries the golden and counter gates"
    );
    assert_eq!(problems(&text), Vec::<String>::new(), "{path}");
}

#[test]
fn the_scanner_flags_each_breaking_shape_and_nothing_else() {
    let steps = "steps:\n\
        \x20 - name: Oracle\n\
        \x20   run: cargo test -p x --lib population:: -- --ignored\n\
        \x20 - run: echo done # trailing\n\
        \x20 - name: Quoted\n\
        \x20   run: \"cargo test --lib optimizer:: -- --ignored\"\n\
        \x20 - name: Block\n\
        \x20   run: |\n\
        \x20     run: a: b # inside a block scalar\n\
        \x20     echo ok\n\
        \x20 - name: After\n\
        \t  run: cargo build\n";
    assert_eq!(
        problems(steps),
        [
            "line 3: plain `run:` value contains `: `; quote it",
            "line 4: plain `run:` value contains ` #`; quote it",
            "line 12: indented with a tab",
        ]
    );
}
