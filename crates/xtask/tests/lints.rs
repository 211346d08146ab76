//! End-to-end lint tests: each rule must fire on its known-bad fixture
//! tree, stay quiet on clean code, and honor the escape hatch. (The rules
//! that moved to clippy are checked by `tools/ci.sh` against the
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
fn l2_flags_lane_code_and_kernel_allocation_outside_their_homes() {
    let findings = lint("l2_determinism");
    assert!(findings.iter().all(|f| f.rule == Rule::Determinism), "{findings:?}");
    let lines_in = |file: &str| -> Vec<usize> {
        findings.iter().filter(|f| f.file == Path::new(file)).map(|f| f.line).collect()
    };
    // Raw allocator calls in the tensor kernel hot path: Vec::with_capacity
    // and vec![0.0; n]. The escape-hatched cold-path alloc and the
    // #[cfg(test)] scratch buffer stay quiet, as does the string literal
    // mentioning both tokens.
    assert_eq!(lines_in("crates/tensor/src/kernels.rs"), vec![4, 12], "{findings:?}");
    assert!(
        findings
            .iter()
            .filter(|f| f.file == Path::new("crates/tensor/src/kernels.rs"))
            .all(|f| f.message.contains("pool_mem::take")),
        "{findings:?}"
    );
    // Hand-rolled lane code (`[f32; 8]` on line 4, `chunks_exact(8)` on
    // line 5) outside crates/tensor/src/simd.rs; the escape-hatched
    // scratch table, the #[cfg(test)] lanes, the string literal and the
    // identical tokens inside the sanctioned simd module stay quiet.
    assert_eq!(lines_in("crates/ml/src/hand_simd.rs"), vec![4, 5], "{findings:?}");
    // The f64 lanes of the encoder fit are held to the same home: `[f64; 4]`
    // (line 3, once — a line with the token twice is one finding per token)
    // and `[f64; 8]` (line 8) outside simd.rs; the 16-wide stack buffer and
    // the #[cfg(test)] lanes stay quiet.
    assert_eq!(lines_in("crates/encoders/src/hand_lanes.rs"), vec![3, 8], "{findings:?}");
    assert!(
        findings
            .iter()
            .filter(|f| f.file != Path::new("crates/tensor/src/kernels.rs"))
            .all(|f| f.message.contains("gtv_tensor::simd")),
        "{findings:?}"
    );
    assert_eq!(findings.len(), 6, "{findings:?}");
}

#[test]
fn malformed_escape_hatch_does_not_suppress_and_is_reported() {
    let findings = lint("malformed_allow");
    // The justification-free allow is reported AND the unwrap it failed
    // to cover still stands.
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings
        .iter()
        .any(|f| f.line == 5 && f.message.contains("without `-- <justification>`")));
    assert!(findings.iter().any(|f| f.line == 6 && f.message.contains("`[f32; 8]`")));
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
fn l7_flags_literal_and_unnamed_seeds_but_not_bench_or_tests() {
    let findings = lint("rng_provenance");
    assert!(findings.iter().all(|f| f.rule == Rule::RngProvenance), "{findings:?}");
    assert!(
        findings.iter().all(|f| f.file == Path::new("crates/nn/src/init.rs")),
        "crates/bench and #[cfg(test)] must be exempt: {findings:?}"
    );
    // seed_from_u64(42), seed_from_u64(x ^ 17), from_seed([0u8; 32]) and
    // seed_from_u64(block as u64); the pool-style per-block derivation
    // `base_seed ^ block as u64` carries seed provenance and stays quiet.
    assert_eq!(lines_for(&findings, Rule::RngProvenance), vec![4, 9, 14, 24], "{findings:?}");
}

#[test]
fn findings_are_deterministic_and_sorted_across_runs() {
    // Six findings over three files, two lines in each.
    let first = lint("l2_determinism");
    assert!(first.len() > 1, "the regression needs a fixture with findings on several lines");
    assert_eq!(first, lint("l2_determinism"), "two runs must agree");
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
    // leak_through_encode_call (wire-encode sink); the sanctioned-encoder
    // paths and the justified allow stay quiet.
    assert_eq!(lines_for(&findings, Rule::RawEgress), vec![5, 11, 17, 26, 31], "{findings:?}");
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
