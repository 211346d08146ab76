//! End-to-end lint tests: each rule must fire on its known-bad fixture
//! tree, stay quiet on clean code, and honor the escape hatch.

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
fn l1_flags_every_panic_token_and_honors_the_escape_hatch() {
    let findings = lint("l1_panic");
    assert!(findings.iter().all(|f| f.rule == Rule::Panic), "{findings:?}");
    // unwrap, expect, panic!, unreachable!, todo! — one finding each; the
    // suppressed unwrap (line 25) and the #[cfg(test)] unwrap are exempt.
    assert_eq!(lines_for(&findings, Rule::Panic), vec![4, 8, 12, 16, 20], "{findings:?}");
}

#[test]
fn l2_flags_ambient_randomness_and_clocks_but_not_bench_or_tests() {
    let findings = lint("l2_determinism");
    assert!(findings.iter().all(|f| f.rule == Rule::Determinism), "{findings:?}");
    assert!(
        findings.iter().all(|f| {
            f.file == Path::new("crates/nn/src/layers.rs")
                || f.file == Path::new("crates/vfl/src/worker.rs")
                || f.file == Path::new("crates/tensor/src/kernels.rs")
                || f.file == Path::new("crates/ml/src/hand_simd.rs")
                || f.file == Path::new("crates/encoders/src/hand_lanes.rs")
        }),
        "crates/bench, the sanctioned pool and the sanctioned simd module must be exempt: {findings:?}"
    );
    // thread_rng, from_entropy, SystemTime::now, Instant::now.
    let layers: Vec<usize> = findings
        .iter()
        .filter(|f| f.file == Path::new("crates/nn/src/layers.rs"))
        .map(|f| f.line)
        .collect();
    assert_eq!(layers, vec![4, 9, 13, 17], "{findings:?}");
    // Ad-hoc thread::spawn, thread::Builder and a hand-rolled pipelined
    // fan-out outside the pool; the identical spawns in
    // crates/tensor/src/pool.rs stay quiet.
    let worker: Vec<usize> = findings
        .iter()
        .filter(|f| f.file == Path::new("crates/vfl/src/worker.rs"))
        .map(|f| f.line)
        .collect();
    assert_eq!(worker, vec![4, 9, 17], "{findings:?}");
    assert!(
        findings
            .iter()
            .filter(|f| f.file == Path::new("crates/vfl/src/worker.rs"))
            .all(|f| f.message.contains("deterministic worker pool")),
        "{findings:?}"
    );
    // Raw allocator calls in the tensor kernel hot path: Vec::with_capacity
    // and vec![0.0; n]. The escape-hatched cold-path alloc and the
    // #[cfg(test)] scratch buffer stay quiet, as does the string literal
    // mentioning both tokens.
    let kernels: Vec<usize> = findings
        .iter()
        .filter(|f| f.file == Path::new("crates/tensor/src/kernels.rs"))
        .map(|f| f.line)
        .collect();
    assert_eq!(kernels, vec![4, 12], "{findings:?}");
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
    let lanes: Vec<usize> = findings
        .iter()
        .filter(|f| f.file == Path::new("crates/ml/src/hand_simd.rs"))
        .map(|f| f.line)
        .collect();
    assert_eq!(lanes, vec![4, 5], "{findings:?}");
    // The f64 lanes of the encoder fit are held to the same home: `[f64; 4]`
    // (line 3, once — a line with the token twice is one finding per token)
    // and `[f64; 8]` (line 8) outside simd.rs; the 16-wide stack buffer, the
    // #[cfg(test)] lanes and the same arrays inside the sanctioned module
    // stay quiet.
    let f64_lanes: Vec<usize> = findings
        .iter()
        .filter(|f| f.file == Path::new("crates/encoders/src/hand_lanes.rs"))
        .map(|f| f.line)
        .collect();
    assert_eq!(f64_lanes, vec![3, 8], "{findings:?}");
    assert!(
        findings
            .iter()
            .filter(|f| {
                f.file == Path::new("crates/ml/src/hand_simd.rs")
                    || f.file == Path::new("crates/encoders/src/hand_lanes.rs")
            })
            .all(|f| f.message.contains("gtv_tensor::simd")),
        "{findings:?}"
    );
}

#[test]
fn l3_flags_float_equality_only_in_metric_crates() {
    let findings = lint("l3_float_eq");
    assert!(findings.iter().all(|f| f.rule == Rule::FloatEq), "{findings:?}");
    assert!(
        findings.iter().all(|f| f.file == Path::new("crates/metrics/src/divergence.rs")),
        "crates/core must be out of L3 scope: {findings:?}"
    );
    // `v == 1.0`, `0.5 == v`, `v != 2.0f32`; int compare and the
    // suppressed sentinel compare are exempt.
    assert_eq!(lines_for(&findings, Rule::FloatEq), vec![4, 8, 12], "{findings:?}");
}

#[test]
fn l4_flags_message_variants_missing_encode_or_decode_arms() {
    let findings = lint("l4_wire");
    assert!(findings.iter().all(|f| f.rule == Rule::Wire), "{findings:?}");
    let mut missing: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    missing.sort_unstable();
    assert_eq!(
        missing,
        vec![
            "`Message::GenSlice` has no arm in `decode`",
            "`Message::Orphan` has no arm in `decode`",
            "`Message::Orphan` has no arm in `encode`",
        ],
        "{findings:?}"
    );
}

#[test]
fn l5_flags_bare_clippy_allows_but_not_justified_ones() {
    let findings = lint("l5_allow");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, Rule::AllowJustification);
    assert_eq!(findings[0].line, 3);
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
    assert!(findings.iter().any(|f| f.line == 6 && f.message.contains("`unwrap`")));
}

#[test]
fn l6_flags_server_reachability_carriers_and_sinks() {
    let findings = lint("privacy_flow");
    assert!(findings.iter().all(|f| f.rule == Rule::PrivacyFlow), "{findings:?}");
    let locations: Vec<(&str, usize)> =
        findings.iter().map(|f| (f.file.to_str().unwrap(), f.line)).collect();
    assert_eq!(
        locations,
        vec![
            // Client-side fn logging shuffle-seed material.
            ("crates/cond/src/leak.rs", 5),
            // Server fn reaching a secret root through the call graph.
            ("crates/core/src/server.rs", 8),
            // Server fn referencing a secret root directly.
            ("crates/core/src/server.rs", 12),
            // Server fn holding a type that contains a SharedShuffler.
            ("crates/core/src/server.rs", 18),
        ],
        "{findings:?}"
    );
    assert!(findings.iter().any(|f| f.message.contains("`println!` inside `announce_seed`")));
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
fn l8_flags_unguarded_narrowing_casts_and_honors_the_escape_hatch() {
    let findings = lint("cast_safety");
    assert!(findings.iter().all(|f| f.rule == Rule::CastSafety), "{findings:?}");
    // payload.len() as u32 and kind as u8; the justified party_byte cast
    // is suppressed by its escape hatch.
    assert_eq!(lines_for(&findings, Rule::CastSafety), vec![4, 9], "{findings:?}");
    assert!(findings.iter().any(|f| f.message.contains("`as u32` of `payload`")));
    assert!(findings.iter().any(|f| f.message.contains("`as u8` of `kind`")));
}

#[test]
fn l9_flags_upward_references_in_imports_and_paths() {
    let findings = lint("layering");
    assert!(findings.iter().all(|f| f.rule == Rule::Layering), "{findings:?}");
    // use gtv_nn::Dense (import) and gtv_vfl::transport (qualified path);
    // the #[cfg(test)] import of gtv_cli is dev-dependency territory.
    assert_eq!(lines_for(&findings, Rule::Layering), vec![3, 6], "{findings:?}");
    assert!(findings.iter().all(|f| f.message.contains("not below `gtv_tensor`")));
}

#[test]
fn l10_flags_out_of_order_direction_and_machine_drift() {
    let findings = lint("protocol_order");
    assert!(findings.iter().all(|f| f.rule == Rule::ProtocolOrder), "{findings:?}");
    let locations: Vec<(&str, usize)> =
        findings.iter().map(|f| (f.file.to_str().unwrap(), f.line)).collect();
    assert_eq!(
        locations,
        vec![
            // RoundStart sent after the GenSlice fan-out.
            ("crates/core/src/trainer.rs", 15),
            // The server sending the client-only condition upload.
            ("crates/core/src/trainer.rs", 21),
            // Gathering SynthLogits straight after RoundStart (recv side).
            ("crates/core/src/trainer.rs", 29),
            // MaskedUpload has wire arms but no edge in the machine.
            ("crates/vfl/src/wire.rs", 16),
        ],
        "{findings:?}"
    );
    assert!(findings.iter().any(|f| f.message.contains("`RoundStart` cannot follow `GenSlice`")));
    assert!(findings
        .iter()
        .any(|f| f.message.contains("`server` must not send `Message::CondUpload`")));
    assert!(findings
        .iter()
        .any(|f| f.message.contains("`SynthLogits` cannot follow `RoundStart`")));
    assert!(findings.iter().any(|f| f
        .message
        .contains("`Message::MaskedUpload` has no edge in the protocol machine")));
}

#[test]
fn serve_sources_are_covered_by_panic_determinism_cast_and_protocol_rules() {
    let findings = lint("serve_rules");
    let locations: Vec<(&str, usize, Rule)> =
        findings.iter().map(|f| (f.file.to_str().unwrap(), f.line, f.rule)).collect();
    assert_eq!(
        locations,
        vec![
            // The engine is an L1 protocol path and must stay tick-driven.
            ("crates/serve/src/engine.rs", 5, Rule::Panic),
            ("crates/serve/src/engine.rs", 9, Rule::Determinism),
            // Every serve source is in L8 scope, not just `wire.rs`.
            ("crates/serve/src/registry.rs", 5, Rule::CastSafety),
            // A reply before the handshake completes breaks the session NFA.
            ("crates/serve/src/server.rs", 9, Rule::ProtocolOrder),
            // A frame variant with no edge in the serving machine.
            ("crates/serve/src/wire.rs", 11, Rule::ProtocolOrder),
        ],
        "{findings:?}"
    );
    assert!(findings.iter().any(|f| f.message.contains("`SynthRows` cannot follow `SynthHello`")));
    assert!(findings.iter().any(|f| f
        .message
        .contains("`ServeFrame::SynthCancel` has no edge in the serving machine")));
}

#[test]
fn json_output_is_deterministic_and_sorted_across_runs() {
    let render = |findings: &[Finding]| -> String {
        findings.iter().map(Finding::to_json).collect::<Vec<_>>().join("\n")
    };
    let first = lint("protocol_order");
    let second = lint("protocol_order");
    assert!(!first.is_empty(), "the regression needs a fixture with findings");
    assert_eq!(render(&first), render(&second), "two runs must be byte-identical");
    let keys: Vec<(String, usize, &'static str)> =
        first.iter().map(|f| (f.file.display().to_string(), f.line, f.rule.id())).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "findings must be sorted by (file, line, rule)");
}

#[test]
fn lint_reports_per_pass_timings_within_budget() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("xtask lives two levels below the workspace root")
        .to_path_buf();
    let (_, timings) = gtv_xtask::run_lint_timed(&root).expect("workspace should be readable");
    let labels: Vec<&str> = timings.iter().map(|t| t.label).collect();
    assert_eq!(
        labels,
        vec![
            "parse",
            "dataflow",
            "L1/panic",
            "L2/determinism",
            "L3/float-eq",
            "L4/wire",
            "L5/allow-justification",
            "L6/privacy-flow",
            "L7/rng-provenance",
            "L8/cast-safety",
            "L9/layering",
            "L10/protocol-order",
            "L11/raw-egress",
            "L12/nondet-flow",
        ]
    );
    let total: f64 = timings.iter().map(|t| t.millis).sum();
    assert!(total < 5000.0, "lint must stay inside the pre-commit budget: {total:.1} ms");
    for t in &timings {
        assert!(t.millis < 4000.0, "pass {} blew its per-pass budget: {:.1} ms", t.label, t.millis);
    }
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
fn l12_flags_nondeterminism_reaching_seeds_kernels_and_wire() {
    let findings = lint("l12_nondet");
    assert!(findings.iter().all(|f| f.rule == Rule::NondetFlow), "{findings:?}");
    // env-derived seed, thread-id into a kernel, HashMap-iteration order
    // into a wire payload; the sorted payload and the justified allow stay
    // quiet.
    assert_eq!(lines_for(&findings, Rule::NondetFlow), vec![7, 13, 25], "{findings:?}");
}

#[test]
fn sarif_output_is_byte_stable_across_runs() {
    let sarif = gtv_xtask::report::to_sarif(&lint("l11_egress"));
    assert_eq!(sarif, gtv_xtask::report::to_sarif(&lint("l11_egress")));
    assert!(sarif.contains("\"ruleId\":\"raw-egress\""), "{sarif}");
    assert!(sarif.contains("\"name\":\"L12/nondet-flow\""), "{sarif}");
}

#[test]
fn baseline_round_trip_suppresses_known_findings_byte_stably() {
    let findings = lint("l12_nondet");
    let text = gtv_xtask::report::render_baseline(&findings);
    assert_eq!(text, gtv_xtask::report::render_baseline(&lint("l12_nondet")));
    let outcome = gtv_xtask::report::apply_baseline(&findings, &text);
    assert!(outcome.fresh.is_empty(), "{:?}", outcome.fresh);
    assert_eq!(outcome.matched, findings.len());
    assert_eq!(outcome.stale, 0);
}

#[test]
fn clean_tree_produces_no_findings() {
    let findings = lint("clean");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn real_workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("xtask lives two levels below the workspace root")
        .to_path_buf();
    let findings = run_lint(&root).expect("workspace should be readable");
    assert!(
        findings.is_empty(),
        "workspace has lint findings:\n{}",
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn nonexistent_root_is_an_error_not_a_clean_pass() {
    let err = run_lint(Path::new("/nonexistent/gtv-xtask-root")).unwrap_err();
    assert!(err.to_string().contains("not a directory"), "{err}");
}
