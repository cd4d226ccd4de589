//! A hand-rolled Rust token scanner — just enough lexical structure for
//! the lint rules: identifiers, string/char/number literals, single-char
//! punctuation, and line comments (block comments are skipped, raw and
//! byte strings are recognized so their *contents* never masquerade as
//! code). Every token carries its 1-based source line.
//!
//! This is deliberately not a parser: the rules pattern-match short token
//! sequences (`Instant :: now`, `as u32`, `thread :: spawn`), which a token
//! stream supports exactly and a regex over raw text does not (comments,
//! strings, and `use x as y` would all false-positive).

/// One lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`HashMap`, `as`, `fn`, …).
    Ident(String),
    /// String literal, normal, raw or byte (content irrelevant to every
    /// rule: it is lexed only so it never masquerades as code).
    Str,
    /// Character literal (content irrelevant to every rule).
    Char,
    /// Numeric literal (content irrelevant to every rule).
    Num,
    /// Single punctuation character; multi-char operators appear as
    /// consecutive tokens (`::` is `Punct(':') Punct(':')`).
    Punct(char),
    /// `//` line comment content (without the slashes) — the carrier of
    /// `ssplane-lint: allow(...)` annotations.
    Comment(String),
}

/// A token plus its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What was scanned.
    pub kind: TokenKind,
    /// 1-based line the token starts on.
    pub line: usize,
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Tokenizes Rust source. Never fails: unterminated constructs simply
/// consume to end-of-file (the linter scans code that `cargo build`
/// already accepted, so graceful degradation beats error plumbing).
pub fn lex(src: &str) -> Vec<Token> {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut out = Vec::new();
    let mut i = 0;
    let mut line = 1;
    while i < n {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '/' && i + 1 < n && b[i + 1] == '/' {
            let start = i + 2;
            let mut j = start;
            while j < n && b[j] != '\n' {
                j += 1;
            }
            out.push(Token { kind: TokenKind::Comment(b[start..j].iter().collect()), line });
            i = j;
        } else if c == '/' && i + 1 < n && b[i + 1] == '*' {
            // Nested block comment (contents discarded: allow
            // annotations are line comments only, as the README says).
            let mut depth = 1;
            let mut j = i + 2;
            while j < n && depth > 0 {
                if b[j] == '\n' {
                    line += 1;
                    j += 1;
                } else if b[j] == '/' && j + 1 < n && b[j + 1] == '*' {
                    depth += 1;
                    j += 2;
                } else if b[j] == '*' && j + 1 < n && b[j + 1] == '/' {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            i = j;
        } else if c == '"' {
            let (next, newlines) = scan_string(&b, i + 1);
            out.push(Token { kind: TokenKind::Str, line });
            line += newlines;
            i = next;
        } else if c == '\'' {
            i = scan_quote(&b, i, line, &mut out);
        } else if c.is_ascii_digit() {
            let start_line = line;
            let mut j = i + 1;
            loop {
                while j < n && (b[j].is_ascii_alphanumeric() || b[j] == '_') {
                    j += 1;
                }
                // `1.5` continues the number; `1..n` does not.
                if j < n && b[j] == '.' && j + 1 < n && b[j + 1].is_ascii_digit() {
                    j += 1;
                    continue;
                }
                // `1e-3` / `1E+9` exponent signs.
                if j < n
                    && (b[j] == '+' || b[j] == '-')
                    && (b[j - 1] == 'e' || b[j - 1] == 'E')
                    && j + 1 < n
                    && b[j + 1].is_ascii_digit()
                {
                    j += 1;
                    continue;
                }
                break;
            }
            out.push(Token { kind: TokenKind::Num, line: start_line });
            i = j;
        } else if is_ident_start(c) {
            let mut j = i + 1;
            while j < n && is_ident_continue(b[j]) {
                j += 1;
            }
            let ident: String = b[i..j].iter().collect();
            // Raw / byte string prefixes: the contents must not be
            // scanned as code.
            let raw = (ident == "r" || ident == "br") && j < n && (b[j] == '"' || b[j] == '#');
            let byte = ident == "b" && j < n && b[j] == '"';
            if raw {
                let (next, newlines) = scan_raw_string(&b, j);
                out.push(Token { kind: TokenKind::Str, line });
                line += newlines;
                i = next;
            } else if byte {
                let (next, newlines) = scan_string(&b, j + 1);
                out.push(Token { kind: TokenKind::Str, line });
                line += newlines;
                i = next;
            } else {
                out.push(Token { kind: TokenKind::Ident(ident), line });
                i = j;
            }
        } else {
            out.push(Token { kind: TokenKind::Punct(c), line });
            i += 1;
        }
    }
    out
}

/// Scans a normal (escaped) string body starting just past the opening
/// quote; returns `(index past closing quote, newlines seen)`.
fn scan_string(b: &[char], mut i: usize) -> (usize, usize) {
    let n = b.len();
    let mut newlines = 0;
    while i < n {
        match b[i] {
            '\\' if i + 1 < n => {
                if b[i + 1] == '\n' {
                    newlines += 1;
                }
                i += 2;
            }
            '"' => return (i + 1, newlines),
            c => {
                if c == '\n' {
                    newlines += 1;
                }
                i += 1;
            }
        }
    }
    (n, newlines)
}

/// Scans a raw string starting at its `#`s-or-quote; returns
/// `(index past the closing delimiter, newlines seen)`.
fn scan_raw_string(b: &[char], mut i: usize) -> (usize, usize) {
    let n = b.len();
    let mut hashes = 0;
    while i < n && b[i] == '#' {
        hashes += 1;
        i += 1;
    }
    if i < n && b[i] == '"' {
        i += 1;
    }
    let mut newlines = 0;
    while i < n {
        if b[i] == '"' {
            let mut k = 0;
            while k < hashes && i + 1 + k < n && b[i + 1 + k] == '#' {
                k += 1;
            }
            if k == hashes {
                return (i + 1 + hashes, newlines);
            }
        }
        if b[i] == '\n' {
            newlines += 1;
        }
        i += 1;
    }
    (n, newlines)
}

/// Disambiguates `'a'` (char literal) from `'a` (lifetime) at a `'`;
/// returns the index after the construct, pushing a token when one is
/// produced (lifetimes are dropped — no rule consults them).
fn scan_quote(b: &[char], i: usize, line: usize, out: &mut Vec<Token>) -> usize {
    let n = b.len();
    if i + 1 >= n {
        return n;
    }
    if b[i + 1] == '\\' {
        // Escaped char literal: scan to the closing quote, hopping over
        // escape pairs so `'\''` terminates correctly.
        let mut j = i + 1;
        while j < n {
            if b[j] == '\\' {
                j += 2;
            } else if b[j] == '\'' {
                break;
            } else {
                j += 1;
            }
        }
        out.push(Token { kind: TokenKind::Char, line });
        return (j + 1).min(n);
    }
    if i + 2 < n && b[i + 2] == '\'' {
        out.push(Token { kind: TokenKind::Char, line });
        return i + 3;
    }
    if is_ident_start(b[i + 1]) {
        // Lifetime: consume the identifier, emit nothing.
        let mut j = i + 2;
        while j < n && is_ident_continue(b[j]) {
            j += 1;
        }
        return j;
    }
    i + 1
}

/// The non-comment view rules scan (comments feed the allow table
/// instead).
pub fn code_tokens(tokens: &[Token]) -> Vec<&Token> {
    tokens.iter().filter(|t| !matches!(t.kind, TokenKind::Comment(_))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter_map(|t| match t.kind {
                TokenKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_code() {
        // Mentions inside comments and strings must not look like code.
        let src = "// HashMap here\nlet x = \"Instant::now\"; /* SystemTime */ let y = 1;";
        assert!(!idents(src).iter().any(|s| s == "HashMap" || s == "Instant" || s == "SystemTime"));
        assert!(idents(src).iter().any(|s| s == "let"));
    }

    #[test]
    fn raw_strings_and_chars_and_lifetimes() {
        let src = "let s = r#\"HashMap \"quoted\" body\"#; fn f<'a>(x: &'a str, c: char) -> char { '\\'' }";
        let ids = idents(src);
        assert!(!ids.iter().any(|s| s == "HashMap"));
        assert!(ids.iter().any(|s| s == "str"));
        // Lifetime 'a produced no char literal mis-scan: the fn body
        // still lexes (the escaped quote char is one Char token).
        let chars = lex(src).iter().filter(|t| t.kind == TokenKind::Char).count();
        assert_eq!(chars, 1);
    }

    #[test]
    fn lines_are_tracked_through_multiline_constructs() {
        let src = "let a = 1;\n/* two\nlines */\nlet b = \"x\ny\";\nlet c = 2;";
        let toks = lex(src);
        let c_line =
            toks.iter().find(|t| t.kind == TokenKind::Ident("c".into())).map(|t| t.line).unwrap();
        assert_eq!(c_line, 6);
    }

    #[test]
    fn numbers_do_not_eat_ranges_or_methods() {
        let src = "for i in 0..n { let x = 1.5e-3; let y = 2.0f64; let z = 0x1f; }";
        let ids = idents(src);
        assert!(ids.iter().any(|s| s == "n"));
        let nums = lex(src).iter().filter(|t| t.kind == TokenKind::Num).count();
        assert_eq!(nums, 4, "0, 1.5e-3, 2.0f64, 0x1f");
    }

    #[test]
    fn line_comment_content_is_captured() {
        let toks = lex("let x = 1; // ssplane-lint: allow(hash-iter) -- why");
        let comment = toks
            .iter()
            .find_map(|t| match &t.kind {
                TokenKind::Comment(s) => Some(s.clone()),
                _ => None,
            })
            .unwrap();
        assert!(comment.contains("allow(hash-iter)"));
    }
}
