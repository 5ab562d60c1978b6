//! Rule 3 — write-before-send: engine functions persist before they
//! stage outbound messages.
//!
//! The durability argument from PR 2: a node must never tell a peer
//! about state it could forget in a crash. In the sans-IO engine that
//! means any function that calls a `persist_*` helper must make that
//! call at a byte offset *before* any send-staging call. The check is a
//! heuristic over source order (good enough because the engine stages
//! sends linearly — no callbacks), with a waiver escape hatch for the
//! refusal paths that reply without mutating anything.
//!
//! A second sub-check pins the hard-state invariant directly: an
//! assignment to `current_term` or `voted_for` must be followed (same
//! function) by a `persist_hard_state` call — double-voting after a
//! restart is the one mistake Raft never forgives.
//!
//! A third ([`check_deferred`]) keeps the one exception honest. A leader's
//! own tail appends promise nothing to anybody, so `propose_batch` may
//! stage its `AppendEntries` under a *deferred* barrier that has not
//! completed when they leave. That is sound only while nothing else is
//! un-synced at the request: a function that asks for the deferred barrier
//! must not have reached a **promise** helper (term/vote, configuration
//! clock, follower-side append, snapshot, the new leader's no-op) before
//! it — directly or through any chain of engine functions, whichever
//! engine file defines them. A promise it reaches *afterwards* (a commit
//! compacting the log) is the blocking barrier's business again, so the
//! function must still call `sync_storage` behind it.
//!
//! A fourth, over the same call graph, covers the engine's entry points:
//! a `pub fn` hands its actions straight to the host, so one that reaches
//! a promise helper must call `sync_storage` after that point — or a
//! `RequestVote` could leave before the vote behind it is durable (a
//! campaign from `Node::start`, say). A call to another entry point is
//! that entry point's business: it is checked on its own.

use std::collections::BTreeMap;

use crate::lexer::{Function, SourceFile};
use crate::report::{Finding, Rule};
use crate::rules::{is_ident, is_punct, text};

/// Durability helpers — reaching storage through anything else is new
/// code the lint should be taught about.
const PERSIST: [&str; 7] = [
    "persist_hard_state",
    "persist_last_entry",
    "persist_tail_entries",
    "persist_appended",
    "persist_current_config",
    "persist_snapshot",
    "sync_storage",
];

/// The helpers whose records back a promise made to a peer: they may
/// only ever be covered by the blocking barrier.
const PROMISE: [&str; 5] = [
    "persist_hard_state",
    "persist_last_entry",
    "persist_appended",
    "persist_current_config",
    "persist_snapshot",
];

/// Calls that request the deferred barrier.
const DEFERRED: [&str; 2] = ["defer_tail_barrier", "sync_deferred"];

/// Calls that stage outbound messages onto the action list.
const STAGE: [&str; 6] = [
    "send",
    "send_heartbeat",
    "heartbeat_round",
    "pump_peer",
    "flush_replication",
    "confirm_round",
];

/// Only the engine proper is in scope.
fn in_scope(file: &SourceFile) -> bool {
    file.crate_name == "escape-core" && file.path.contains("/engine/")
}

pub fn check(file: &SourceFile) -> Vec<Finding> {
    if !in_scope(file) {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for func in &file.functions {
        let Some((open, close)) = func.body else { continue };
        if file.is_test_code(func.start) {
            continue;
        }

        let mut persists: Vec<usize> = Vec::new(); // byte offsets
        let mut stages: Vec<(usize, usize)> = Vec::new(); // (offset, line)
        let mut hard_state_writes: Vec<(usize, usize, String)> = Vec::new();
        let toks = &file.tokens;
        for (i, t) in toks.iter().enumerate() {
            if t.start <= open || t.end >= close {
                continue;
            }
            let s = file.tok_str(t);
            if PERSIST.contains(&s) && is_punct(file, i + 1, b'(') {
                persists.push(t.start);
            } else if STAGE.contains(&s)
                && is_punct(file, i + 1, b'(')
                && i > 0
                && is_punct(file, i - 1, b'.')
                && func.name != s
            {
                stages.push((t.start, t.line));
            } else if s == "Send"
                && i >= 2
                && is_punct(file, i - 1, b':')
                && is_punct(file, i - 2, b':')
                && text(file, i - 3) == "Action"
            {
                // Direct `Action::Send` construction (the `send` helper
                // itself, or anything bypassing it).
                stages.push((t.start, t.line));
            } else if (s == "current_term" || s == "voted_for")
                && is_punct(file, i + 1, b'=')
                && !is_punct(file, i + 2, b'=')
                && i > 0
                && is_punct(file, i - 1, b'.')
            {
                hard_state_writes.push((t.start, t.line, s.to_string()));
            }
        }

        // (a) source-order check: no staging before the first persist.
        if let Some(&first_persist) = persists.iter().min() {
            for &(offset, line) in &stages {
                if offset < first_persist {
                    findings.push(Finding::new(
                        Rule::WriteBeforeSend,
                        &file.path,
                        line,
                        format!(
                            "`{}` stages an outbound message before its first \
                             persist call — write-before-send requires durability \
                             first (waive if this path mutates nothing)",
                            func.name
                        ),
                    ));
                }
            }
        }

        // (b) hard-state writes need a later persist_hard_state.
        for (offset, line, field) in &hard_state_writes {
            let persisted_later = file.tokens.iter().enumerate().any(|(i, t)| {
                t.start > *offset
                    && t.end < close
                    && file.tok_str(t) == "persist_hard_state"
                    && is_punct(file, i + 1, b'(')
            });
            if !persisted_later {
                findings.push(Finding::new(
                    Rule::WriteBeforeSend,
                    &file.path,
                    *line,
                    format!(
                        "`{}` assigns `{field}` without a later \
                         persist_hard_state() in the same function — a crash \
                         here can double-vote",
                        func.name
                    ),
                ));
            }
        }
    }
    findings
}

/// Rules (c) and (d), over all of `files` that are engine sources at
/// once, so a promise reached through a function of another engine file
/// counts.
pub fn check_call_graph(files: &[SourceFile]) -> Vec<Finding> {
    // Who calls whom, by name, across every engine file. (A name defined
    // twice has its callees merged, which can only over-report.)
    let mut graph: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    let mut entries: Vec<&str> = Vec::new();
    let mut functions = Vec::new();
    for file in files.iter().filter(|f| in_scope(f)) {
        for func in &file.functions {
            if func.body.is_none() || file.is_test_code(func.start) {
                continue;
            }
            let entry = is_pub(file, func);
            if entry {
                entries.push(func.name.as_str());
            }
            let sites = call_sites(file, func);
            graph
                .entry(func.name.as_str())
                .or_default()
                .extend(sites.iter().map(|site| site.callee));
            functions.push((file, func, sites, entry));
        }
    }

    let mut findings = Vec::new();
    for (file, func, sites, entry) in &functions {
        let synced_after = |offset: usize| {
            sites
                .iter()
                .any(|site| site.callee == "sync_storage" && site.offset > offset)
        };
        let request = sites
            .iter()
            .find(|site| DEFERRED.contains(&site.callee))
            .map(|site| site.offset);
        if request.is_none() && !entry {
            continue;
        }
        for site in sites {
            if !reaches_promise(site.callee, &graph, &mut Vec::new()) {
                continue;
            }
            let problem = match request {
                // (d): an entry point, which requests no deferred barrier.
                None if entries.contains(&site.callee) || synced_after(site.offset) => continue,
                None => {
                    "with no `sync_storage` behind it — an entry point's actions would \
                     leave before the record is durable"
                }
                Some(request) if site.offset < request => {
                    "before it requests the deferred barrier — only a leader's own tail \
                     appends may ride it; promises need the blocking barrier"
                }
                Some(_) if !synced_after(site.offset) => {
                    "after requesting the deferred barrier, with no `sync_storage` behind \
                     it — that record needs the blocking barrier"
                }
                Some(_) => continue,
            };
            findings.push(Finding::new(
                Rule::WriteBeforeSend,
                &file.path,
                site.line,
                format!(
                    "`{}` reaches a promise record through `{}` {problem}",
                    func.name, site.callee
                ),
            ));
        }
    }
    findings
}

/// `true` for a plain `pub fn` (not `pub(super)` or `pub(crate)`).
fn is_pub(file: &SourceFile, func: &Function) -> bool {
    file.tokens
        .iter()
        .position(|t| t.start == func.start)
        .is_some_and(|at| at > 0 && text(file, at - 1) == "pub")
}

/// One call inside a function body.
struct CallSite<'a> {
    callee: &'a str,
    offset: usize,
    line: usize,
}

/// `func`'s call sites in source order.
fn call_sites<'a>(file: &'a SourceFile, func: &Function) -> Vec<CallSite<'a>> {
    let Some((open, close)) = func.body else {
        return Vec::new();
    };
    file.tokens
        .iter()
        .enumerate()
        .filter(|(i, t)| {
            t.start > open && t.end < close && is_ident(file, *i) && is_punct(file, i + 1, b'(')
        })
        .map(|(_, t)| CallSite {
            callee: file.tok_str(t),
            offset: t.start,
            line: t.line,
        })
        .collect()
}

/// `true` when `name` is a promise helper or calls one, through any
/// chain of engine functions.
fn reaches_promise<'a>(
    name: &'a str,
    graph: &BTreeMap<&'a str, Vec<&'a str>>,
    visiting: &mut Vec<&'a str>,
) -> bool {
    if PROMISE.contains(&name) {
        return true;
    }
    if visiting.contains(&name) {
        return false;
    }
    visiting.push(name);
    graph.get(name).is_some_and(|callees| {
        callees
            .iter()
            .any(|callee| reaches_promise(callee, graph, visiting))
    })
}
