//! # ssplane-lint
//!
//! Workspace determinism & scale-safety static analysis for the
//! ss-plane reproduction — a self-contained, dependency-free token-level
//! linter (the build environment is offline, so no dylint/clippy-plugin
//! route) with five rules:
//!
//! * **hash-iter** — `HashMap`/`HashSet`/`RandomState` in library code:
//!   hash iteration order is nondeterministic, and every report byte
//!   must be a pure function of spec + seed.
//! * **wall-clock** — `Instant::now`/`SystemTime` outside the runner's
//!   `--timings` side channel and `crates/compat`.
//! * **unseeded-rng** — entropy-source or thread-local RNG construction
//!   outside test code.
//! * **lossy-cast** — `as`-casts to sized integer types in the
//!   `ssplane-lsn` hot paths, where 10k→100k-satellite scale makes
//!   truncation real; use `try_from` or `ssplane_lsn::cast`.
//! * **thread-pool** — `thread::scope`/`thread::spawn`/
//!   `available_parallelism` in library code under `crates/`, outside
//!   the one pool `ssplane_astro::par` and `crates/compat`.
//!
//! Scenario files are not linted: the scenario loader itself rejects an
//! unknown key with a did-you-mean hint, and the scenario crate's tests
//! load every `scenarios/*.toml`. This crate's integration tests keep
//! the corrupted-scenario-key gate, through that loader.
//!
//! Findings are suppressed only by an inline
//! `// ssplane-lint: allow(<rule>) -- <justification>` annotation on the
//! offending line or the line above; annotations without a justification
//! are themselves findings (`bad-allow`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;

use rules::{AllowCounts, Rule};
use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Registry name of the violated rule.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// The outcome of a workspace scan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Allow-annotation totals.
    pub allows: AllowCounts,
    /// Rust files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the scan is clean (exit code 0).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Deterministic JSON rendering (hand-rolled: std only).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
                json_escape(&f.file),
                f.line,
                f.rule,
                json_escape(&f.message)
            ));
        }
        out.push_str(&format!(
            "],\"allows\":{{\"declared\":{},\"used\":{}}},\"files_scanned\":{}}}",
            self.allows.declared, self.allows.used, self.files_scanned
        ));
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// The one module allowed to spawn threads.
const PAR_MODULE: &str = "crates/astro/src/par.rs";

/// Which rules apply to a workspace-relative Rust path. This scoping is
/// the policy half of the linter:
///
/// * test code (`tests/`, `benches/`, fixture corpora) is exempt from
///   everything — determinism there is pinned by the tests themselves;
/// * `crates/compat/` may read clocks (the criterion stand-in *is* a
///   stopwatch) and defines the RNG seeding machinery;
/// * **lossy-cast** is scoped to `crates/lsn/src/` — the percolation /
///   optimizer / traffic hot paths where index truncation scales into
///   real bugs;
/// * **thread-pool** is scoped to `crates/` (so host probes outside it,
///   like perfbench's, stay free) and spares `crates/astro/src/par.rs`,
///   the one pool, and `crates/compat/`.
pub fn rules_for_path(rel: &str) -> Vec<Rule> {
    let p = rel.replace('\\', "/");
    let test_like = p.starts_with("tests/")
        || p.contains("/tests/")
        || p.starts_with("benches/")
        || p.contains("/benches/")
        || p.contains("/fixtures/");
    if test_like {
        return Vec::new();
    }
    let mut rules = vec![Rule::HashIter];
    if !p.starts_with("crates/compat/") {
        rules.push(Rule::WallClock);
        rules.push(Rule::UnseededRng);
    }
    if p.starts_with("crates/lsn/src/") {
        rules.push(Rule::LossyCast);
    }
    if p.starts_with("crates/") && !p.starts_with("crates/compat/") && p != PAR_MODULE {
        rules.push(Rule::ThreadPool);
    }
    rules
}

/// Recursively collects the `.rs` files under `dir`, sorted for a
/// deterministic scan order.
fn collect_rust_files(dir: &Path, out: &mut BTreeSet<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = path.file_name().and_then(|s| s.to_str()).unwrap_or("");
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rust_files(&path, out);
        } else if path.extension().and_then(|s| s.to_str()) == Some("rs") {
            out.insert(path);
        }
    }
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/")
}

/// Scans the Rust sources of the workspace rooted at `root` (the code
/// half: `src/`, `examples/`, `crates/*/src/`), appending findings and
/// allow counts.
///
/// # Errors
/// An unreadable source file (reported with its path).
pub fn scan_rust_tree(root: &Path, report: &mut Report) -> Result<(), String> {
    let mut files = BTreeSet::new();
    for top in ["src", "examples", "crates"] {
        collect_rust_files(&root.join(top), &mut files);
    }
    for path in files {
        let rel = rel_path(root, &path);
        let rules = rules_for_path(&rel);
        if rules.is_empty() {
            continue;
        }
        let src =
            fs::read_to_string(&path).map_err(|e| format!("{}: unreadable source: {e}", rel))?;
        let (findings, allows) = rules::scan_rust(&rel, &src, &rules);
        report.findings.extend(findings);
        report.allows.absorb(&allows);
        report.files_scanned += 1;
    }
    Ok(())
}

/// The full `--workspace` pass over the Rust tree, findings sorted
/// deterministically.
///
/// # Errors
/// As [`scan_rust_tree`].
pub fn scan_workspace(root: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    scan_rust_tree(root, &mut report)?;
    report
        .findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(report)
}

/// Locates the workspace root: an explicit override, else the nearest
/// ancestor of `start` whose `Cargo.toml` declares `[workspace]`, else
/// the lint crate's own grandparent (the in-repo layout).
pub fn find_root(explicit: Option<&Path>, start: &Path) -> PathBuf {
    if let Some(root) = explicit {
        return root.to_path_buf();
    }
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return d;
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    // Compile-time fallback: crates/lint/../..
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoping_policy() {
        let all = rules_for_path("crates/lsn/src/percolation.rs");
        assert!(all.contains(&Rule::LossyCast) && all.contains(&Rule::HashIter));
        let scenario = rules_for_path("crates/scenario/src/runner/mod.rs");
        assert!(scenario.contains(&Rule::WallClock) && !scenario.contains(&Rule::LossyCast));
        let compat = rules_for_path("crates/compat/criterion/src/lib.rs");
        assert!(!compat.contains(&Rule::WallClock) && compat.contains(&Rule::HashIter));
        assert!(rules_for_path("crates/lint/tests/fixtures/hash_iter_pos.rs").is_empty());
        assert!(rules_for_path("tests/integration.rs").is_empty());
        assert!(!rules_for_path("examples/routing.rs").is_empty());
        assert!(all.contains(&Rule::ThreadPool) && scenario.contains(&Rule::ThreadPool));
        assert!(!compat.contains(&Rule::ThreadPool));
        assert!(!rules_for_path("crates/astro/src/par.rs").contains(&Rule::ThreadPool));
        assert!(!rules_for_path("src/lib.rs").contains(&Rule::ThreadPool));
    }

    #[test]
    fn json_is_escaped_and_deterministic() {
        let report = Report {
            findings: vec![Finding {
                file: "a\\b.rs".into(),
                line: 3,
                rule: "hash-iter",
                message: "quote \" and\nnewline".into(),
            }],
            allows: AllowCounts { declared: 2, used: 1 },
            files_scanned: 5,
        };
        let json = report.to_json();
        assert!(json.contains("\"file\":\"a\\\\b.rs\""));
        assert!(json.contains("quote \\\" and\\nnewline"));
        assert!(json.contains("\"allows\":{\"declared\":2,\"used\":1}"));
        assert_eq!(json, report.to_json());
    }
}
