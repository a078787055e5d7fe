//! Fixture-based tests for every rule, suppression/stale-handling tests,
//! and the gate test asserting the committed workspace is finding-free in
//! deny mode.

use std::fs;
use std::path::{Path, PathBuf};

use lbs_lint::engine::{lint_source, lint_tree, to_json, LintReport, StaleKind};
use lbs_lint::rules::{Rule, RULES};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The path a fixture for `rule` must be linted under: the rule's first scope
/// suffix for scoped rules (which fire nowhere else), a neutral path (so no
/// rule path-allowlist applies) for the rest.
fn scope_path(rule: &Rule, name: &str) -> String {
    match rule.only_path_suffixes.first() {
        Some(suffix) => (*suffix).to_string(),
        None => format!("crates/x/src/{name}"),
    }
}

/// Runs the linter over a fixture at a given path, returning unsuppressed
/// rule ids.
fn lint_fixture_at(path: &str, name: &str) -> Vec<&'static str> {
    let src = fixture(name);
    let (findings, _suppressed, _stale) = lint_source(path, &src);
    findings.iter().map(|f| f.rule).collect()
}

/// Runs the linter over a fixture under a neutral path.
fn lint_fixture(name: &str) -> Vec<&'static str> {
    lint_fixture_at(&format!("crates/x/src/{name}"), name)
}

#[test]
fn every_rule_has_a_positive_and_negative_fixture() {
    for rule in RULES {
        let stem = rule.id.replace('-', "_");
        let pos_name = format!("{stem}_pos.rs");
        let pos = lint_fixture_at(&scope_path(rule, &pos_name), &pos_name);
        assert!(
            pos.contains(&rule.id),
            "{}_pos.rs did not trigger `{}` (got {:?})",
            stem,
            rule.id,
            pos
        );
        let neg_name = format!("{stem}_neg.rs");
        let neg = lint_fixture_at(&scope_path(rule, &neg_name), &neg_name);
        assert!(
            !neg.contains(&rule.id),
            "{}_neg.rs triggered `{}`",
            stem,
            rule.id
        );
    }
}

#[test]
fn positive_fixtures_have_exact_finding_counts() {
    assert_eq!(lint_fixture("hashmap_iter_pos.rs").len(), 3); // decl + 2 ctors
    assert_eq!(lint_fixture("float_ord_pos.rs").len(), 2);
    assert_eq!(lint_fixture("ambient_time_pos.rs").len(), 2);
    assert_eq!(lint_fixture("ambient_rng_pos.rs").len(), 3);
    assert_eq!(lint_fixture("unsafe_block_pos.rs").len(), 1);
    assert_eq!(lint_fixture("stray_seed_derivation_pos.rs").len(), 2);
    assert_eq!(lint_fixture("nondet_debug_fmt_pos.rs").len(), 2);
    assert_eq!(lint_fixture("cache_key_float_pos.rs").len(), 3); // to_bits + from_bits + as u64
    assert_eq!(
        lint_fixture_at("crates/geom/src/cell_engine.rs", "hot_path_alloc_pos.rs").len(),
        4 // Vec::new + vec![] + .to_vec() + .collect()
    );
}

#[test]
fn negative_fixtures_are_completely_clean() {
    for rule in RULES {
        let stem = rule.id.replace('-', "_");
        let name = format!("{stem}_neg.rs");
        let src = fixture(&name);
        let (findings, _, stale) = lint_source(&scope_path(rule, &name), &src);
        assert!(findings.is_empty(), "{name}: {findings:?}");
        assert!(stale.is_empty(), "{name}: {stale:?}");
    }
}

#[test]
fn valid_suppressions_silence_findings_and_are_not_stale() {
    let src = fixture("suppressed_clean.rs");
    let (findings, suppressed, stale) = lint_source("crates/x/src/suppressed_clean.rs", &src);
    assert!(findings.is_empty(), "{findings:?}");
    assert!(stale.is_empty(), "{stale:?}");
    assert_eq!(suppressed.len(), 2); // HashSet decl + ctor on one line
    assert!(suppressed
        .iter()
        .all(|f| f.suppressed.as_deref() == Some("membership only; never iterated")));
}

#[test]
fn stale_suppressions_fail_deny_mode() {
    let src = fixture("stale_suppressions.rs");
    let (findings, _, stale) = lint_source("crates/x/src/stale_suppressions.rs", &src);
    assert!(findings.is_empty(), "{findings:?}");
    let kinds: Vec<_> = stale.iter().map(|s| s.kind.clone()).collect();
    assert!(kinds.contains(&StaleKind::UnknownRule), "{stale:?}");
    assert!(kinds.contains(&StaleKind::Unmatched), "{stale:?}");
    assert!(kinds.contains(&StaleKind::Malformed), "{stale:?}");
    let report = LintReport {
        findings: Vec::new(),
        suppressed: Vec::new(),
        stale,
        files_scanned: 1,
    };
    assert!(report.deny_fails());
    assert!(to_json(&report, true).contains("\"ok\":false"));
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

/// The committed tree must be finding-free in deny mode: no unsuppressed
/// hazards, no stale or malformed suppressions. This is the same check the
/// `static-analysis` CI job enforces via `cargo run -p lbs-lint -- --deny`.
#[test]
fn committed_workspace_is_finding_free_in_deny_mode() {
    let report = lint_tree(&workspace_root()).expect("scan workspace");
    assert!(
        report.files_scanned > 50,
        "scanned only {} files — wrong root?",
        report.files_scanned
    );
    assert!(
        report.findings.is_empty(),
        "unsuppressed findings:\n{:#?}",
        report.findings
    );
    assert!(
        report.stale.is_empty(),
        "stale suppressions:\n{:#?}",
        report.stale
    );
    assert!(!report.deny_fails());
}

/// Injecting any positive fixture into a scanned location must flip deny
/// mode to failing — the end-to-end property the CI gate relies on.
#[test]
fn injected_fixture_hazard_fails_deny_mode() {
    let root = workspace_root();
    let mut base = lint_tree(&root).expect("scan workspace");
    for rule in RULES {
        let stem = rule.id.replace('-', "_");
        let src = fixture(&format!("{stem}_pos.rs"));
        // Lint the fixture as if it lived at a real (non-allowlisted)
        // workspace path — for scoped rules, the hot module they police —
        // and fold it into the clean report.
        let injected_path = match rule.only_path_suffixes.first() {
            Some(suffix) => (*suffix).to_string(),
            None => format!("crates/core/src/{stem}_injected.rs"),
        };
        let (findings, _, stale) = lint_source(&injected_path, &src);
        assert!(
            !findings.is_empty(),
            "injected {stem}_pos.rs produced no findings"
        );
        base.findings.extend(findings);
        base.stale.extend(stale);
    }
    assert!(base.deny_fails());
}

/// The JSON report for the committed tree parses as the expected shape.
#[test]
fn workspace_json_report_is_ok() {
    let report = lint_tree(&workspace_root()).expect("scan workspace");
    let js = to_json(&report, true);
    assert!(js.starts_with("{\"version\":1,"));
    assert!(js.contains("\"deny\":true"));
    assert!(js.contains("\"ok\":true"));
    assert!(js.contains("\"stale_suppressions\":[]"));
}
