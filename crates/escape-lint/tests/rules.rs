//! Fixture tests: every rule must trip on its known-bad fixture and stay
//! quiet on the known-good one, so disabling (or breaking) any single
//! rule fails this suite. The last test runs the real workspace and is
//! the same gate CI enforces.

use escape_lint::rules;
use escape_lint::{apply_waivers, default_lock_manifest, Finding, Rule, SourceFile};

fn parse(path: &str, crate_name: &str, text: &str) -> SourceFile {
    SourceFile::parse(path, crate_name, text)
}

fn count(findings: &[Finding], rule: Rule) -> usize {
    findings.iter().filter(|f| f.rule == rule && !f.waived).count()
}

// ---- panic-freedom -----------------------------------------------------

#[test]
fn panic_rule_trips_on_every_bad_construct() {
    let file = parse(
        "crates/escape-core/src/fixture.rs",
        "escape-core",
        include_str!("fixtures/panic_bad.rs"),
    );
    let findings = rules::panic::check(&file);
    // v[0], unwrap, expect, panic! — one finding each.
    assert_eq!(findings.len(), 4, "{findings:?}");
}

#[test]
fn panic_rule_passes_clean_code_and_test_code() {
    let file = parse(
        "crates/escape-core/src/fixture.rs",
        "escape-core",
        include_str!("fixtures/panic_good.rs"),
    );
    assert!(rules::panic::check(&file).is_empty());
}

#[test]
fn panic_rule_is_scoped_to_the_safety_critical_crates() {
    let file = parse(
        "crates/escape-sim/src/fixture.rs",
        "escape-sim",
        include_str!("fixtures/panic_bad.rs"),
    );
    assert!(rules::panic::check(&file).is_empty());
}

#[test]
fn waivers_suppress_inline_and_line_above_and_are_policed() {
    let file = parse(
        "crates/escape-core/src/fixture.rs",
        "escape-core",
        include_str!("fixtures/panic_waived.rs"),
    );
    let mut findings = rules::panic::check(&file);
    apply_waivers(&file, &mut findings);
    let waived = findings
        .iter()
        .filter(|f| f.rule == Rule::Panic && f.waived)
        .count();
    assert_eq!(waived, 2, "same-line and line-above waivers: {findings:?}");
    // The reasonless waiver suppresses nothing, so its unwrap survives.
    assert_eq!(count(&findings, Rule::Panic), 1, "{findings:?}");
    // Stale + reasonless + unknown-rule each become hygiene findings.
    assert_eq!(count(&findings, Rule::Waiver), 3, "{findings:?}");
}

// ---- deterministic-time ------------------------------------------------

#[test]
fn time_rule_trips_outside_the_clock_module() {
    let file = parse(
        "crates/escape-core/src/fixture.rs",
        "escape-core",
        include_str!("fixtures/time_bad.rs"),
    );
    assert_eq!(rules::time::check(&file).len(), 2);
}

#[test]
fn time_rule_allows_the_clock_module_itself() {
    let file = parse(
        "crates/escape-transport/src/clock.rs",
        "escape-transport",
        include_str!("fixtures/time_bad.rs"),
    );
    assert!(rules::time::check(&file).is_empty());
}

// ---- write-before-send -------------------------------------------------

#[test]
fn wbs_rule_trips_on_send_before_persist_and_unpersisted_hard_state() {
    let file = parse(
        "crates/escape-core/src/engine/fixture.rs",
        "escape-core",
        include_str!("fixtures/wbs_bad.rs"),
    );
    let findings = rules::wbs::check(&file);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().any(|f| f.message.contains("stages an outbound")));
    assert!(findings.iter().any(|f| f.message.contains("current_term")));
}

#[test]
fn wbs_rule_passes_persist_first_ordering() {
    let file = parse(
        "crates/escape-core/src/engine/fixture.rs",
        "escape-core",
        include_str!("fixtures/wbs_good.rs"),
    );
    assert!(rules::wbs::check(&file).is_empty());
}

#[test]
fn wbs_rule_trips_on_a_promise_riding_the_deferred_barrier() {
    let file = parse(
        "crates/escape-core/src/engine/fixture.rs",
        "escape-core",
        include_str!("fixtures/wbs_deferred_bad.rs"),
    );
    let findings = rules::wbs::check_call_graph(std::slice::from_ref(&file));
    assert_eq!(findings.len(), 3, "{findings:?}");
    assert!(findings.iter().all(|f| f.message.contains("deferred barrier")));
    assert!(findings.iter().any(|f| f.message.contains("`persist_hard_state` before")));
    assert!(findings.iter().any(|f| f.message.contains("`restamp` before")));
    assert!(findings.iter().any(|f| f.message.contains("`persist_snapshot` after")));
}

#[test]
fn wbs_rule_passes_tail_appends_under_the_deferred_barrier() {
    let file = parse(
        "crates/escape-core/src/engine/fixture.rs",
        "escape-core",
        include_str!("fixtures/wbs_deferred_good.rs"),
    );
    assert!(rules::wbs::check_call_graph(std::slice::from_ref(&file)).is_empty());
}

#[test]
fn wbs_rule_follows_a_promise_into_another_engine_file() {
    let files = [
        parse(
            "crates/escape-core/src/engine/mod.rs",
            "escape-core",
            include_str!("fixtures/wbs_deferred_cross_a.rs"),
        ),
        parse(
            "crates/escape-core/src/engine/replication.rs",
            "escape-core",
            include_str!("fixtures/wbs_deferred_cross_b.rs"),
        ),
    ];
    assert!(
        rules::wbs::check_call_graph(&files[..1]).is_empty(),
        "invisible from the requesting file alone"
    );
    let findings = rules::wbs::check_call_graph(&files);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].path.ends_with("engine/mod.rs"));
    assert!(findings[0].message.contains("`flush_replication` before"));
}

#[test]
fn wbs_rule_trips_on_an_entry_point_that_promises_without_a_sync() {
    let file = parse(
        "crates/escape-core/src/engine/fixture.rs",
        "escape-core",
        include_str!("fixtures/wbs_entry_bad.rs"),
    );
    let findings = rules::wbs::check_call_graph(std::slice::from_ref(&file));
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().all(|f| f.message.contains("an entry point's actions")));
    let flagged = |what: &str| findings.iter().any(|f| f.message.contains(what));
    assert!(flagged("`start` reaches a promise record through `campaign`"));
    assert!(flagged("`handle` reaches a promise record through `persist_hard_state`"));
}

#[test]
fn wbs_rule_passes_entry_points_that_sync_after_their_promises() {
    let file = parse(
        "crates/escape-core/src/engine/fixture.rs",
        "escape-core",
        include_str!("fixtures/wbs_entry_good.rs"),
    );
    assert!(rules::wbs::check_call_graph(std::slice::from_ref(&file)).is_empty());
}

// ---- lock-discipline ---------------------------------------------------

#[test]
fn lock_rule_trips_on_blocking_unknown_and_misordered() {
    let file = parse(
        "crates/escape-transport/src/fixture.rs",
        "escape-transport",
        include_str!("fixtures/locks_bad.rs"),
    );
    let findings = rules::locks::check(&file, &default_lock_manifest());
    assert_eq!(findings.len(), 3, "{findings:?}");
    assert!(findings.iter().any(|f| f.message.contains("may block")));
    assert!(findings.iter().any(|f| f.message.contains("not in the acquisition-order")));
    assert!(findings.iter().any(|f| f.message.contains("violates")));
}

#[test]
fn lock_rule_passes_dropped_guards_and_manifest_order() {
    let file = parse(
        "crates/escape-transport/src/fixture.rs",
        "escape-transport",
        include_str!("fixtures/locks_good.rs"),
    );
    let findings = rules::locks::check(&file, &default_lock_manifest());
    assert!(findings.is_empty(), "{findings:?}");
}

// ---- wire-exhaustiveness -----------------------------------------------

fn wire_fixture(codec_text: &str) -> Vec<Finding> {
    let message = parse(
        "crates/escape-core/src/message.rs",
        "escape-core",
        include_str!("fixtures/wire_message.rs"),
    );
    let codec = parse("crates/escape-wire/src/codec.rs", "escape-wire", codec_text);
    rules::wire::check(&message, &codec)
}

#[test]
fn wire_rule_passes_full_coverage() {
    let findings = wire_fixture(include_str!("fixtures/wire_codec_good.rs"));
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn wire_rule_trips_on_each_coverage_hole() {
    let findings = wire_fixture(include_str!("fixtures/wire_codec_bad.rs"));
    assert_eq!(findings.len(), 3, "{findings:?}");
    assert!(findings.iter().any(|f| f.message.contains("Ping has no decode arm")));
    assert!(findings
        .iter()
        .any(|f| f.message.contains("AppendEntries never appears")));
    assert!(findings
        .iter()
        .any(|f| f.message.contains("`from` is missing from encode")));
}

// ---- event-exhaustiveness ----------------------------------------------

fn events_fixture(text: &str) -> Vec<Finding> {
    let events = parse("crates/escape-obs/src/event.rs", "escape-obs", text);
    rules::wire::check_events(&events)
}

#[test]
fn event_rule_passes_full_coverage() {
    let findings = events_fixture(include_str!("fixtures/events_good.rs"));
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn event_rule_trips_on_each_coverage_hole() {
    let findings = events_fixture(include_str!("fixtures/events_bad.rs"));
    assert_eq!(findings.len(), 3, "{findings:?}");
    assert!(findings.iter().any(|f| f.message.contains("NodeKilled has no encode arm")));
    assert!(findings.iter().any(|f| f.message.contains("NodeKilled has no render arm")));
    assert!(findings
        .iter()
        .any(|f| f.message.contains("NodeKilled never appears in this file's tests")));
}

// ---- unsafe-annotation -------------------------------------------------

#[test]
fn unsafe_rule_requires_a_nearby_safety_comment() {
    let bad = parse(
        "crates/escape-core/src/fixture.rs",
        "escape-core",
        include_str!("fixtures/unsafe_bad.rs"),
    );
    assert_eq!(rules::unsafety::check(&bad).len(), 1);

    let good = parse(
        "crates/escape-core/src/fixture.rs",
        "escape-core",
        include_str!("fixtures/unsafe_good.rs"),
    );
    assert!(rules::unsafety::check(&good).is_empty());
}

#[test]
fn crate_roots_must_deny_unsafe_code() {
    let bad = parse(
        "crates/escape-core/src/lib.rs",
        "escape-core",
        "//! A crate root without the lint gate.\npub mod engine;\n",
    );
    assert_eq!(rules::unsafety::check_crate_root(&bad).len(), 1);

    let good = parse(
        "crates/escape-core/src/lib.rs",
        "escape-core",
        "#![deny(unsafe_code)]\npub mod engine;\n",
    );
    assert!(rules::unsafety::check_crate_root(&good).is_empty());
}

// ---- the real workspace ------------------------------------------------

#[test]
fn workspace_has_no_unwaived_violations() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("workspace root");
    let report = escape_lint::run_workspace(root).expect("walk workspace");
    let violations: Vec<String> = report.violations().map(ToString::to_string).collect();
    assert!(violations.is_empty(), "{violations:#?}");
}
