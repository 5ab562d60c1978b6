//! `escape-lint` — the workspace invariant checker.
//!
//! The README's safety arguments (write-before-send durability, the
//! PPF-safe lease fence, simnet determinism) used to be enforced by
//! convention; this crate makes them machine-enforced. A minimal
//! in-repo lexer (no external deps — same offline constraint as the
//! vendor shims) walks every `crates/*/src` file and runs five rules:
//!
//! 1. **panic-freedom** — no `unwrap`/`expect`/panicking macros/
//!    unchecked indexing in non-test code of the safety-critical crates
//! 2. **deterministic-time** — `Instant::now`/`SystemTime::now` only in
//!    the designated clock module
//! 3. **write-before-send** — engine functions persist before staging
//!    sends
//! 4. **lock-discipline** — nothing blocks under a `parking_lot` guard;
//!    nesting follows the order manifest (`lock_order.txt`)
//! 5. **wire-exhaustiveness** — every `Message` variant appears in
//!    encode, decode, and the roundtrip tests; every `escape-obs::Event`
//!    variant appears in its encode and render arms and the event tests
//!
//! plus unsafe hygiene (`SAFETY:` comments, `#![deny(unsafe_code)]`).
//!
//! Violations are waivable per line with `// lint:allow(<rule>): <reason>`;
//! waivers are counted in the summary (so they cannot grow silently) and
//! must each suppress something (stale waivers are themselves findings).

#![deny(unsafe_code)]

pub mod lexer;
pub mod report;
pub mod rules;

use std::io;
use std::path::{Path, PathBuf};

pub use lexer::SourceFile;
pub use report::{apply_waivers, Finding, Report, Rule, ALL_RULES};

/// The default lock-acquisition-order manifest, compiled in from
/// `lock_order.txt` next to this crate's `Cargo.toml`.
pub fn default_lock_manifest() -> Vec<String> {
    parse_lock_manifest(include_str!("../lock_order.txt"))
}

/// Parses a manifest: one lock name per line, acquisition order top to
/// bottom, `#` comments and blank lines ignored.
pub fn parse_lock_manifest(text: &str) -> Vec<String> {
    text.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect()
}

/// Runs every single-file rule over `file` and applies its waivers.
/// (The cross-file wire rule is separate: [`rules::wire::check`]; the
/// deferred-barrier rule sees only this file's functions here.)
pub fn check_file(file: &SourceFile, manifest: &[String]) -> Vec<Finding> {
    let mut findings = Vec::new();
    findings.extend(rules::panic::check(file));
    findings.extend(rules::time::check(file));
    findings.extend(rules::wbs::check(file));
    findings.extend(rules::wbs::check_deferred(std::slice::from_ref(file)));
    findings.extend(rules::locks::check(file, manifest));
    findings.extend(rules::unsafety::check(file));
    if file.path.ends_with("escape-obs/src/event.rs") {
        findings.extend(rules::wire::check_events(file));
    }
    apply_waivers(file, &mut findings);
    findings
}

/// Walks `root/crates/*/src`, runs all rules, and returns the report.
///
/// # Errors
///
/// I/O errors reading the tree. Unreadable single files are reported as
/// findings rather than errors, so one bad file cannot hide the rest.
pub fn run_workspace(root: &Path) -> io::Result<Report> {
    let manifest = default_lock_manifest();
    let crates_dir = root.join("crates");
    let mut report = Report::default();
    let mut files: Vec<SourceFile> = Vec::new();

    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    for crate_dir in &crate_dirs {
        let crate_name = crate_dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        report.crates_checked += 1;
        let mut rs_files = Vec::new();
        collect_rs_files(&src, &mut rs_files)?;
        rs_files.sort();
        for path in rs_files {
            let display = display_path(root, &path);
            match std::fs::read_to_string(&path) {
                Ok(text) => {
                    files.push(SourceFile::parse(&display, &crate_name, &text));
                    report.files_checked += 1;
                }
                Err(e) => report.findings.push(Finding::new(
                    Rule::Panic,
                    &display,
                    1,
                    format!("unreadable source file: {e}"),
                )),
            }
        }
    }

    // Per-file rules first; wire findings are folded into the codec/
    // message files before waivers apply so they participate too.
    let message = files
        .iter()
        .position(|f| f.path.ends_with("escape-core/src/message.rs"));
    let codec = files
        .iter()
        .position(|f| f.path.ends_with("escape-wire/src/codec.rs"));
    let wire_findings = match (message, codec) {
        (Some(m), Some(c)) => rules::wire::check(&files[m], &files[c]),
        _ => vec![Finding::new(
            Rule::Wire,
            "crates/escape-wire/src/codec.rs",
            1,
            "wire rule could not find message.rs + codec.rs".to_string(),
        )],
    };

    // Likewise the deferred-barrier rule, which follows calls across the
    // engine's files.
    let cross_file_findings: Vec<Finding> = wire_findings
        .into_iter()
        .chain(rules::wbs::check_deferred(&files))
        .collect();

    for file in &files {
        let mut findings: Vec<Finding> = Vec::new();
        findings.extend(rules::panic::check(file));
        findings.extend(rules::time::check(file));
        findings.extend(rules::wbs::check(file));
        findings.extend(rules::locks::check(file, &manifest));
        findings.extend(rules::unsafety::check(file));
        if file.path.ends_with("/src/lib.rs") {
            findings.extend(rules::unsafety::check_crate_root(file));
        }
        if file.path.ends_with("escape-obs/src/event.rs") {
            findings.extend(rules::wire::check_events(file));
        }
        findings.extend(
            cross_file_findings
                .iter()
                .filter(|f| f.path == file.path)
                .cloned(),
        );
        apply_waivers(file, &mut findings);
        report.findings.append(&mut findings);
    }

    Ok(report)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn display_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}
