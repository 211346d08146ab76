//! End-to-end lint tests: each rule must fire on its known-bad fixture
//! tree and stay quiet on clean code, and no comment silences a finding.
//! (The rules that moved to clippy are checked by `tools/ci.sh` against the
//! `fixtures/clippy_bans` crate.)

use std::path::{Path, PathBuf};

use gtv_xtask::{run_lint, Finding, Rule};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn lint(name: &str) -> Vec<Finding> {
    run_lint(&fixture(name)).expect("fixture tree should be readable")
}

fn lines_for(findings: &[Finding], rule: Rule) -> Vec<usize> {
    findings.iter().filter(|f| f.rule == rule).map(|f| f.line).collect()
}

#[test]
fn l6_flags_server_reachability_and_carriers() {
    let findings = lint("privacy_flow");
    assert!(findings.iter().all(|f| f.rule == Rule::PrivacyFlow), "{findings:?}");
    let locations: Vec<(&str, usize)> =
        findings.iter().map(|f| (f.file.to_str().unwrap(), f.line)).collect();
    assert_eq!(
        locations,
        vec![
            // Server fn reaching a secret root through the call graph.
            ("crates/core/src/server.rs", 8),
            // Server fn referencing a secret root directly.
            ("crates/core/src/server.rs", 12),
            // Server fn holding a type that contains a SharedShuffler.
            ("crates/core/src/server.rs", 18),
        ],
        "{findings:?}"
    );
    assert!(findings.iter().any(|f| f.message.contains("reaches `collect_share`")));
    assert!(findings.iter().any(|f| f.message.contains("type-containment closure")));
}

#[test]
fn findings_are_deterministic_and_sorted_across_runs() {
    // Three findings, on lines 8, 12 and 18 of one file.
    let first = lint("privacy_flow");
    assert!(first.len() > 1, "the regression needs a fixture with findings on several lines");
    assert_eq!(first, lint("privacy_flow"), "two runs must agree");
    let keys: Vec<(String, usize, Rule)> =
        first.iter().map(|f| (f.file.display().to_string(), f.line, f.rule)).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "findings must be sorted by (file, line, rule)");
}

#[test]
fn l11_flags_raw_column_egress_through_flows_not_names() {
    let findings = lint("l11_egress");
    assert!(findings.iter().all(|f| f.rule == Rule::RawEgress), "{findings:?}");
    // leak_direct, leak_rebound (let-rebinding), leak_field (field
    // projection), leak_via_return (interprocedural summary),
    // leak_through_encode_call (wire-encode sink), and
    // commented_debug_dump, whose `gtv-lint: allow` comment is only a
    // comment; the sanctioned-encoder paths stay quiet.
    assert_eq!(lines_for(&findings, Rule::RawEgress), vec![5, 11, 17, 26, 31, 48], "{findings:?}");
}

#[test]
fn clean_tree_produces_no_findings() {
    let findings = lint("clean");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
#[expect(clippy::disallowed_methods, reason = "the pre-commit budget is wall time")]
fn real_workspace_is_lint_clean_within_budget() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("xtask lives two levels below the workspace root")
        .to_path_buf();
    let start = std::time::Instant::now();
    let findings = run_lint(&root).expect("workspace should be readable");
    let elapsed = start.elapsed();
    assert!(
        findings.is_empty(),
        "workspace has lint findings:\n{}",
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
    assert!(
        elapsed.as_secs_f64() < 5.0,
        "lint must stay inside the pre-commit budget: {elapsed:?}"
    );
}

#[test]
fn nonexistent_root_is_an_error_not_a_clean_pass() {
    let err = run_lint(Path::new("/nonexistent/gtv-xtask-root")).unwrap_err();
    assert!(err.to_string().contains("not a directory"), "{err}");
}
