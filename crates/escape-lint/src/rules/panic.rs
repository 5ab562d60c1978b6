//! Rule 1 — panic-freedom: no `unwrap`/`expect`/panicking macros/
//! unchecked indexing in non-test code of the safety-critical crates.
//!
//! A panic on the replication or failover path is the degraded-path bug
//! this whole lint exists for: the node dies exactly when the protocol
//! needed it to answer. Genuinely-fatal situations (a node that cannot
//! persist its vote must stop) are allowed through explicit
//! `// lint:allow(panic): <reason>` waivers, which the summary counts so
//! they cannot grow silently.

use crate::lexer::{SourceFile, TokenKind};
use crate::report::{Finding, Rule};
use crate::rules::{is_punct, text};

/// Crates whose non-test code must be panic-free.
pub const SCOPE: [&str; 5] = [
    "escape-core",
    "escape-shard",
    "escape-storage",
    "escape-transport",
    "escape-wire",
];

const PANIC_MACROS: [&str; 4] = ["panic", "todo", "unimplemented", "unreachable"];

/// Keywords that may directly precede `[` without it being an index
/// expression (array literals, mostly).
const NON_INDEX_KEYWORDS: [&str; 20] = [
    "return", "in", "if", "else", "match", "break", "continue", "move", "mut",
    "ref", "as", "loop", "while", "for", "where", "dyn", "impl", "const",
    "let", "use",
];

pub fn check(file: &SourceFile) -> Vec<Finding> {
    if !SCOPE.contains(&file.crate_name.as_str()) {
        return Vec::new();
    }
    let mut findings = Vec::new();
    let toks = &file.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if file.is_test_code(t.start) {
            continue;
        }
        match t.kind {
            TokenKind::Ident => {
                let s = file.tok_str(t);
                if (s == "unwrap" || s == "expect")
                    && i > 0
                    && is_punct(file, i - 1, b'.')
                    && is_punct(file, i + 1, b'(')
                {
                    findings.push(Finding::new(
                        Rule::Panic,
                        &file.path,
                        t.line,
                        format!(
                            ".{s}() can panic — propagate a typed error, or waive \
                             with `// lint:allow(panic): <reason>`"
                        ),
                    ));
                } else if PANIC_MACROS.contains(&s) && is_punct(file, i + 1, b'!') {
                    findings.push(Finding::new(
                        Rule::Panic,
                        &file.path,
                        t.line,
                        format!("{s}! in non-test code — return an error, or waive"),
                    ));
                }
            }
            TokenKind::Punct(b'[') if i > 0 => {
                let prev = &toks[i - 1];
                let indexes_expr = match prev.kind {
                    TokenKind::Punct(b')') | TokenKind::Punct(b']') => true,
                    TokenKind::Ident => {
                        !NON_INDEX_KEYWORDS.contains(&file.tok_str(prev))
                    }
                    _ => false,
                };
                if indexes_expr {
                    findings.push(Finding::new(
                        Rule::Panic,
                        &file.path,
                        t.line,
                        format!(
                            "indexing `{}[..]` can panic out of bounds — prefer \
                             .get()/.first()/.last(), or waive with a bounds argument",
                            text(file, i - 1)
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
    findings
}
