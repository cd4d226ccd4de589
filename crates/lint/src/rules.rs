//! The rule registry and the token-level rules, plus the
//! `ssplane-lint: allow(...)` suppression machinery.
//!
//! Every rule here exists because a nondeterminism or truncation bug of
//! exactly its shape has either already been fixed by hand in this
//! workspace (HashMap-order in the traffic link loads, float-scaled RNG
//! index draws) or becomes plausible at mega-constellation scale. The
//! rules are syntactic — a token scanner cannot do type inference — so
//! each is scoped (see [`crate::rules_for_path`]) to keep the
//! signal-to-noise high enough that the workspace runs clean.

use crate::lexer::{code_tokens, lex, Token, TokenKind};
use crate::Finding;
use std::collections::BTreeSet;

/// A registered rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `HashMap`/`HashSet`/`RandomState` in library code: iteration
    /// order is nondeterministic across processes, so any traversal —
    /// now or added later — can leak into report bytes.
    HashIter,
    /// `Instant::now` / `SystemTime` outside the runner's `--timings`
    /// side channel and `crates/compat`: wall-clock readings are
    /// run-dependent by definition.
    WallClock,
    /// Entropy-seeded or thread-local RNG construction: every stream in
    /// this workspace must be a pure function of a scenario seed.
    UnseededRng,
    /// `as`-casts to sized integer types in the `ssplane-lsn` hot paths:
    /// at 10k→100k-satellite scale, silent truncation (f64→usize,
    /// u64→u32) is a real bug class. Use `try_from` or
    /// `ssplane_lsn::cast`.
    LossyCast,
    /// `thread::scope`, `thread::spawn` or `available_parallelism` in
    /// library code under `crates/` outside `ssplane_astro::par`: every
    /// pool goes through the index-ordered `par_map`, so no hand-rolled
    /// pool can let scheduling order leak into results.
    ThreadPool,
    /// A malformed `ssplane-lint: allow(...)` annotation (unknown rule,
    /// missing `-- justification`). Not suppressible.
    BadAllow,
}

impl Rule {
    /// The rule's registry name — the token used in `allow(...)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::HashIter => "hash-iter",
            Rule::WallClock => "wall-clock",
            Rule::UnseededRng => "unseeded-rng",
            Rule::LossyCast => "lossy-cast",
            Rule::ThreadPool => "thread-pool",
            Rule::BadAllow => "bad-allow",
        }
    }

    /// Parses a registry name (the five public rules only — `bad-allow`
    /// findings cannot be allowed away).
    pub fn parse(s: &str) -> Option<Rule> {
        match s {
            "hash-iter" => Some(Rule::HashIter),
            "wall-clock" => Some(Rule::WallClock),
            "unseeded-rng" => Some(Rule::UnseededRng),
            "lossy-cast" => Some(Rule::LossyCast),
            "thread-pool" => Some(Rule::ThreadPool),
            _ => None,
        }
    }
}

/// Every public rule, in registry order.
pub const ALL_RULES: [Rule; 5] =
    [Rule::HashIter, Rule::WallClock, Rule::UnseededRng, Rule::LossyCast, Rule::ThreadPool];

/// One parsed `// ssplane-lint: allow(rule, ...) -- justification`.
#[derive(Debug, Clone)]
pub struct Allow {
    /// 1-based line the annotation *suppresses*: the annotation's own
    /// line for a trailing comment, the line below for a standalone one.
    pub target_line: usize,
    /// The rules it suppresses.
    pub rules: BTreeSet<Rule>,
    /// The mandatory justification text.
    pub justification: String,
}

/// The allow annotations of one file plus usage tracking.
#[derive(Debug, Default)]
pub struct AllowTable {
    entries: Vec<Allow>,
    used: BTreeSet<usize>,
}

impl AllowTable {
    /// Whether a finding for `rule` at `line` is suppressed by an
    /// annotation targeting exactly that line.
    fn suppresses(&mut self, rule: Rule, line: usize) -> bool {
        for (k, a) in self.entries.iter().enumerate() {
            if a.target_line == line && a.rules.contains(&rule) {
                self.used.insert(k);
                return true;
            }
        }
        false
    }

    /// Annotations declared in the file.
    pub fn declared(&self) -> usize {
        self.entries.len()
    }

    /// Annotations that suppressed at least one finding.
    pub fn used(&self) -> usize {
        self.used.len()
    }
}

const MARKER: &str = "ssplane-lint:";

/// Parses the allow annotations out of a file's comment tokens; grammar
/// violations become unsuppressible [`Rule::BadAllow`] findings.
///
/// Only plain `//` comments whose text *begins* with the
/// `ssplane-lint:` marker count — doc comments (`///`, `//!`) merely
/// *describing* the grammar are prose, not annotations. A trailing
/// annotation covers the code on its own line; a standalone annotation
/// line covers the line directly below it.
pub fn collect_allows(tokens: &[Token], file: &str, findings: &mut Vec<Finding>) -> AllowTable {
    let code_lines: BTreeSet<usize> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::Comment(_)))
        .map(|t| t.line)
        .collect();
    let mut table = AllowTable::default();
    for t in tokens {
        let TokenKind::Comment(text) = &t.kind else { continue };
        // `///` and `//!` lex as comments starting with '/' or '!'.
        if text.starts_with('/') || text.starts_with('!') {
            continue;
        }
        let Some(rest) = text.trim_start().strip_prefix(MARKER) else { continue };
        match parse_allow_body(rest.trim_start()) {
            Ok((rules, justification)) => {
                let target_line = if code_lines.contains(&t.line) { t.line } else { t.line + 1 };
                table.entries.push(Allow { target_line, rules, justification });
            }
            Err(why) => findings.push(Finding {
                file: file.to_string(),
                line: t.line,
                rule: Rule::BadAllow.name(),
                message: format!(
                    "malformed allow annotation ({why}); expected \
                     `ssplane-lint: allow(<rule>[, <rule>]) -- <justification>`"
                ),
            }),
        }
    }
    table
}

fn parse_allow_body(rest: &str) -> Result<(BTreeSet<Rule>, String), String> {
    let inner = rest.strip_prefix("allow(").ok_or_else(|| "missing `allow(`".to_string())?;
    let close = inner.find(')').ok_or_else(|| "missing `)`".to_string())?;
    let mut rules = BTreeSet::new();
    for token in inner[..close].split(',') {
        let token = token.trim();
        let rule = Rule::parse(token).ok_or_else(|| format!("unknown rule `{token}`"))?;
        rules.insert(rule);
    }
    if rules.is_empty() {
        return Err("empty rule list".to_string());
    }
    let after = inner[close + 1..].trim_start();
    let justification = after
        .strip_prefix("--")
        .map(str::trim)
        .ok_or_else(|| "missing `-- <justification>`".to_string())?;
    if justification.is_empty() {
        return Err("empty justification".to_string());
    }
    Ok((rules, justification.to_string()))
}

/// Integer cast targets [`Rule::LossyCast`] flags. `f64`/`f32` targets
/// are deliberately exempt: count→float casts for statistics are the
/// dominant benign pattern and lossless below 2^53.
const INT_TYPES: [&str; 12] =
    ["u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize"];

/// Identifiers that mean an entropy-fed or thread-local RNG is being
/// constructed.
const ENTROPY_IDENTS: [&str; 6] =
    ["from_entropy", "thread_rng", "ThreadRng", "OsRng", "from_os_rng", "getrandom"];

/// Scans one Rust source with the given rules. `file` is the
/// workspace-relative path used in findings.
pub fn scan_rust(file: &str, src: &str, rules: &[Rule]) -> (Vec<Finding>, AllowTable) {
    let tokens = lex(src);
    let mut findings = Vec::new();
    let mut allows = collect_allows(&tokens, file, &mut findings);
    let code: Vec<&Token> = code_tokens(&tokens);
    let skip = test_spans(&code);

    // One finding per (line, rule): `HashMap<K, HashMap<K, V>>` on one
    // line reads as one decision to fix.
    let mut seen: BTreeSet<(usize, Rule)> = BTreeSet::new();
    let mut emit = |rule: Rule, line: usize, message: String, allows: &mut AllowTable| {
        if seen.insert((line, rule)) && !allows.suppresses(rule, line) {
            findings.push(Finding { file: file.to_string(), line, rule: rule.name(), message });
        }
    };

    for (idx, tok) in code.iter().enumerate() {
        if skip[idx] {
            continue;
        }
        let TokenKind::Ident(name) = &tok.kind else { continue };
        let line = tok.line;
        if rules.contains(&Rule::HashIter)
            && (name == "HashMap" || name == "HashSet" || name == "RandomState")
        {
            emit(
                Rule::HashIter,
                line,
                format!(
                    "`{name}` in library code: hash iteration order is nondeterministic — use \
                     BTreeMap/BTreeSet or a sorted Vec, or justify with an allow annotation"
                ),
                &mut allows,
            );
        }
        if rules.contains(&Rule::WallClock) {
            let instant_now = name == "Instant"
                && matches!(code.get(idx + 1).map(|t| &t.kind), Some(TokenKind::Punct(':')))
                && matches!(code.get(idx + 2).map(|t| &t.kind), Some(TokenKind::Punct(':')))
                && matches!(code.get(idx + 3).map(|t| &t.kind),
                    Some(TokenKind::Ident(m)) if m == "now");
            if instant_now || name == "SystemTime" {
                emit(
                    Rule::WallClock,
                    line,
                    "wall-clock read outside the --timings side channel: results must be a pure \
                     function of the spec and seed"
                        .to_string(),
                    &mut allows,
                );
            }
        }
        if rules.contains(&Rule::UnseededRng) && ENTROPY_IDENTS.contains(&name.as_str()) {
            emit(
                Rule::UnseededRng,
                line,
                format!(
                    "`{name}`: entropy-source or thread-local RNG — every stream must derive \
                     from a scenario seed (SeedableRng::seed_from_u64)"
                ),
                &mut allows,
            );
        }
        if rules.contains(&Rule::ThreadPool) {
            let thread_call = name == "thread"
                && matches!(code.get(idx + 1).map(|t| &t.kind), Some(TokenKind::Punct(':')))
                && matches!(code.get(idx + 2).map(|t| &t.kind), Some(TokenKind::Punct(':')))
                && matches!(code.get(idx + 3).map(|t| &t.kind),
                    Some(TokenKind::Ident(m)) if m == "scope" || m == "spawn");
            if thread_call || name == "available_parallelism" {
                emit(
                    Rule::ThreadPool,
                    line,
                    "hand-rolled thread pool: run parallel work through \
                     ssplane_astro::par::par_map, whose results are index-ordered for every \
                     thread count"
                        .to_string(),
                    &mut allows,
                );
            }
        }
        if rules.contains(&Rule::LossyCast) && name == "as" {
            if let Some(TokenKind::Ident(ty)) = code.get(idx + 1).map(|t| &t.kind) {
                if INT_TYPES.contains(&ty.as_str()) {
                    emit(
                        Rule::LossyCast,
                        line,
                        format!(
                            "`as {ty}` in a scale-sensitive hot path can truncate silently at \
                             mega-constellation sizes — use try_from or an ssplane_lsn::cast \
                             helper"
                        ),
                        &mut allows,
                    );
                }
            }
        }
    }
    (findings, allows)
}

/// Marks the token spans belonging to `#[cfg(test)]` / `#[test]` /
/// `#[bench]` items (attribute through end of the annotated item), so
/// test-only code is exempt from every rule. Conservative: any `cfg`
/// attribute naming `test` without a `not` counts.
fn test_spans(code: &[&Token]) -> Vec<bool> {
    let n = code.len();
    let mut skip = vec![false; n];
    let mut i = 0;
    while i < n {
        if !matches!(code[i].kind, TokenKind::Punct('#')) {
            i += 1;
            continue;
        }
        let Some((attr_end, names)) = attribute_at(code, i) else {
            i += 1;
            continue;
        };
        let is_test = (names.iter().any(|s| s == "test") && !names.iter().any(|s| s == "not"))
            || names.iter().any(|s| s == "bench");
        if !is_test {
            i = attr_end + 1;
            continue;
        }
        // Hop over any further attributes on the same item.
        let mut j = attr_end + 1;
        while j < n && matches!(code[j].kind, TokenKind::Punct('#')) {
            match attribute_at(code, j) {
                Some((e, _)) => j = e + 1,
                None => break,
            }
        }
        // The item body: to the matching `}` of its first `{`, or to a
        // top-level `;` (e.g. `#[cfg(test)] use …;`).
        let mut depth = 0usize;
        let mut end = j;
        while end < n {
            match code[end].kind {
                TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct('}') => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        break;
                    }
                }
                TokenKind::Punct(';') if depth == 0 => break,
                _ => {}
            }
            end += 1;
        }
        for s in skip.iter_mut().take((end + 1).min(n)).skip(i) {
            *s = true;
        }
        i = end + 1;
    }
    skip
}

/// If an attribute starts at token `i` (`#`), returns the index of its
/// closing `]` and the identifiers inside.
fn attribute_at(code: &[&Token], i: usize) -> Option<(usize, Vec<String>)> {
    let mut j = i + 1;
    // Inner attribute `#![…]`.
    if matches!(code.get(j).map(|t| &t.kind), Some(TokenKind::Punct('!'))) {
        j += 1;
    }
    if !matches!(code.get(j).map(|t| &t.kind), Some(TokenKind::Punct('['))) {
        return None;
    }
    let mut depth = 0usize;
    let mut names = Vec::new();
    while j < code.len() {
        match &code[j].kind {
            TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return Some((j, names));
                }
            }
            TokenKind::Ident(s) => names.push(s.clone()),
            _ => {}
        }
        j += 1;
    }
    None
}

/// The allow-count summary of a scan, aggregated by
/// [`crate::scan_workspace`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AllowCounts {
    /// Annotations present in the scanned sources.
    pub declared: usize,
    /// Annotations that suppressed at least one finding.
    pub used: usize,
}

impl AllowCounts {
    /// Adds one file's table into the totals.
    pub fn absorb(&mut self, table: &AllowTable) {
        self.declared += table.declared();
        self.used += table.used();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_grammar_round_trip() {
        let (rules, why) =
            parse_allow_body("allow(hash-iter, lossy-cast) -- audited: bounded by node count")
                .unwrap();
        assert!(rules.contains(&Rule::HashIter) && rules.contains(&Rule::LossyCast));
        assert_eq!(why, "audited: bounded by node count");
        assert!(parse_allow_body("allow(hash-iter)").is_err(), "justification required");
        assert!(parse_allow_body("allow(warp-drive) -- x").is_err(), "unknown rule");
        assert!(parse_allow_body("allow() -- x").is_err(), "empty list");
    }

    #[test]
    fn cfg_test_items_are_exempt() {
        let src = "
            use std::collections::BTreeMap;
            #[cfg(test)]
            mod tests {
                use std::collections::HashMap;
                #[test]
                fn t() { let _m: HashMap<u8, u8> = HashMap::new(); }
            }
        ";
        let (findings, _) = scan_rust("x.rs", src, &[Rule::HashIter]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn cfg_not_test_is_scanned() {
        let src =
            "#[cfg(not(test))]\nfn f() { let _m = std::collections::HashMap::<u8, u8>::new(); }";
        let (findings, _) = scan_rust("x.rs", src, &[Rule::HashIter]);
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn trailing_and_line_above_allows_suppress_and_count() {
        let src = "
            // ssplane-lint: allow(wall-clock) -- test harness stopwatch
            let t0 = Instant::now();
            let t1 = Instant::now(); // ssplane-lint: allow(wall-clock) -- second stopwatch
            let t2 = Instant::now();
        ";
        let (findings, allows) = scan_rust("x.rs", src, &[Rule::WallClock]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 5);
        assert_eq!(allows.declared(), 2);
        assert_eq!(allows.used(), 2);
    }

    #[test]
    fn bad_allow_is_a_finding_and_does_not_suppress() {
        let src = "let t0 = Instant::now(); // ssplane-lint: allow(wall-clock)";
        let (findings, _) = scan_rust("x.rs", src, &[Rule::WallClock]);
        let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"bad-allow"), "{findings:?}");
        assert!(rules.contains(&"wall-clock"), "{findings:?}");
    }

    #[test]
    fn lossy_cast_flags_int_targets_only() {
        let src = "fn f(x: f64, n: usize) { let _a = x as usize; let _b = n as f64; }";
        let (findings, _) = scan_rust("x.rs", src, &[Rule::LossyCast]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("as usize"));
    }

    #[test]
    fn use_renames_are_not_casts() {
        let src = "use std::collections::BTreeMap as Map;\nfn f() -> Map<u8, u8> { Map::new() }";
        let (findings, _) = scan_rust("x.rs", src, &[Rule::LossyCast, Rule::HashIter]);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
