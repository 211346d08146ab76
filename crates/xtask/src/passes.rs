//! Semantic passes L6 and L7, built on the item-level engine.
//!
//! These passes consume parsed items and the workspace graphs rather than
//! raw lines, so they can reason about *where data flows*: which functions
//! can reach shuffle-seed material, and where RNG seeds come from.

use crate::dataflow::{Sink, Taint, TaintEngine};
use crate::model::secret_carriers;
use crate::parse::FnItem;
use crate::{suppressed, FileUnit, Finding, Rule};

// ---------------------------------------------------------------------------
// Registries
// ---------------------------------------------------------------------------

/// Secret-root *functions*: calling or naming these touches shuffle-seed
/// material (paper §3.1.5 — the server must never learn the shuffle seed).
pub const SECRET_ROOT_FNS: &[&str] = &["negotiate_seed", "round_seed"];

/// Secret-root *types*: values of these types hold the negotiated seed.
pub const SECRET_ROOT_TYPES: &[&str] = &["SharedShuffler"];

/// Secret-root *variants*: constructing or matching these exposes seed
/// shares (`Message::ShuffleSeedShare.share`) or a partition seed
/// (`PartitionPlan::RandomEven.seed`).
pub const SECRET_ROOT_VARIANTS: &[&str] = &["ShuffleSeedShare", "RandomEven"];

/// Files forming the sanctioned client↔client shuffle path: the wire codec
/// and the peer-to-peer negotiation itself. Secret roots may appear here
/// freely; everywhere else they are constrained by L6.
pub const SANCTIONED_SINK_FILES: &[&str] = &["crates/vfl/src/shuffle.rs", "crates/vfl/src/wire.rs"];

/// Logging/IO macros treated as L6 sinks: seed material reaching one of
/// these would leave the protocol's trust boundary.
pub(crate) const SINK_MACROS: &[&str] = &[
    "println", "print", "eprintln", "eprint", "write", "writeln", "dbg", "info", "warn", "error",
    "debug", "trace",
];

// ---------------------------------------------------------------------------
// Scope helpers
// ---------------------------------------------------------------------------

fn in_l6_scope(unit: &FileUnit) -> bool {
    // Protocol-party code only: crate sources, minus the bench/report
    // driver. `examples/` and the umbrella are demo drivers that print
    // run configuration by design.
    unit.rel_str.starts_with("crates/") && !unit.rel_str.starts_with("crates/bench/")
}

fn sanctioned(unit: &FileUnit) -> bool {
    SANCTIONED_SINK_FILES.contains(&unit.rel_str.as_str())
}

pub(crate) fn file_stem(unit: &FileUnit) -> &str {
    unit.rel_str.rsplit('/').next().unwrap_or("").trim_end_matches(".rs")
}

/// Whether a function is server-side: a `server_*` fn, a method of a
/// `Server*` type, or anything inside a `server` module/file.
fn is_server_item(unit: &FileUnit, f: &FnItem) -> bool {
    f.name.starts_with("server_")
        || f.self_type.as_deref().is_some_and(|t| t.starts_with("Server"))
        || f.module.iter().any(|m| m == "server" || m.starts_with("server_"))
        || file_stem(unit) == "server"
        || file_stem(unit).starts_with("server_")
}

fn all_secret_roots() -> impl Iterator<Item = &'static str> {
    SECRET_ROOT_FNS.iter().chain(SECRET_ROOT_TYPES).chain(SECRET_ROOT_VARIANTS).copied()
}

/// The first secret root referenced by `f`'s body, with its line.
fn direct_secret_ref(f: &FnItem) -> Option<(&'static str, usize)> {
    all_secret_roots().find_map(|root| f.reference_line(root).map(|line| (root, line)))
}

// ---------------------------------------------------------------------------
// L6 privacy-flow
// ---------------------------------------------------------------------------

/// Registry-drift check: the secret-root registry must keep naming real
/// items. If the wire enum loses or renames `ShuffleSeedShare.share`, or
/// the partition plan loses `RandomEven.seed`, L6 would silently stop
/// guarding them — that rot is itself a finding.
fn lint_registry_drift(units: &[FileUnit], findings: &mut Vec<Finding>) {
    for unit in units {
        for ty in &unit.ast.types {
            if !ty.is_enum {
                continue;
            }
            let expected: Option<(&str, &str)> = match ty.name.as_str() {
                "Message" if unit.rel_str == "crates/vfl/src/wire.rs" => {
                    Some(("ShuffleSeedShare", "share"))
                }
                "PartitionPlan" if unit.crate_ident == "gtv_vfl" => Some(("RandomEven", "seed")),
                _ => None,
            };
            let Some((variant, field)) = expected else { continue };
            if !ty.variants.iter().any(|v| v == variant) {
                findings.push(Finding {
                    file: unit.rel.clone(),
                    line: ty.line,
                    rule: Rule::PrivacyFlow,
                    message: format!(
                        "`enum {}` has no `{variant}` variant; the L6 secret-root registry is stale — update SECRET_ROOT_VARIANTS in gtv-xtask",
                        ty.name
                    ),
                });
                continue;
            }
            let variant_fields: Vec<_> =
                ty.fields.iter().filter(|f| f.variant.as_deref() == Some(variant)).collect();
            if !variant_fields.iter().any(|f| f.name == field) {
                let line = variant_fields.first().map(|f| f.line).unwrap_or(ty.line);
                findings.push(Finding {
                    file: unit.rel.clone(),
                    line,
                    rule: Rule::PrivacyFlow,
                    message: format!(
                        "`{}::{variant}` has no `{field}` field; the L6 secret-root registry tracks `{variant}.{field}` — update SECRET_ROOT_VARIANTS in gtv-xtask",
                        ty.name
                    ),
                });
            }
        }
    }
}

/// L6: shuffle-seed material must stay on the client↔client path — no
/// server-side function may reach a secret root (directly or through the
/// call graph), and no function outside the sanctioned path may route seed
/// material into a logging/IO sink.
///
/// The server-reachability and type-containment halves are name-registry
/// checks (kept as drift guards); the sink half runs on the taint engine:
/// a logging macro fires only when SECRET-tainted data actually flows into
/// it (including through `{ident}` format-string interpolation), not
/// merely when a secret root is named somewhere in the same function.
pub fn lint_privacy_flow(units: &[FileUnit], engine: &TaintEngine, findings: &mut Vec<Finding>) {
    lint_registry_drift(units, findings);
    let graph = &engine.graph;
    let carriers = secret_carriers(units, SECRET_ROOT_TYPES);

    for (idx, (unit, f)) in graph.fns.iter().enumerate() {
        if !in_l6_scope(unit) || f.in_test {
            continue;
        }
        if is_server_item(unit, f) {
            // Reachability: server code must not touch secret roots,
            // directly or through any resolvable call chain.
            for reached in graph.reachable(idx, 256) {
                let (_, rf) = graph.fns[reached];
                let Some((root, _)) = direct_secret_ref(rf) else {
                    continue;
                };
                if !suppressed(&unit.lines, f.line - 1, Rule::PrivacyFlow, &unit.rel, findings) {
                    let message = if reached == idx {
                        format!(
                            "server-side `{}` references secret root `{root}`; the server must never observe shuffle-seed material (§3.1.5)",
                            f.name
                        )
                    } else {
                        format!(
                            "server-side `{}` reaches `{}`, which references secret root `{root}`; the server must never observe shuffle-seed material (§3.1.5)",
                            f.name, rf.name
                        )
                    };
                    findings.push(Finding {
                        file: unit.rel.clone(),
                        line: f.line,
                        rule: Rule::PrivacyFlow,
                        message,
                    });
                }
                break;
            }
            // Type containment: holding a type that contains a
            // SharedShuffler is as bad as holding the shuffler.
            if let Some(carrier) = carriers.iter().find(|c| f.references(c)).cloned() {
                let line = f.reference_line(&carrier).unwrap_or(f.line);
                if !suppressed(&unit.lines, line - 1, Rule::PrivacyFlow, &unit.rel, findings) {
                    findings.push(Finding {
                        file: unit.rel.clone(),
                        line,
                        rule: Rule::PrivacyFlow,
                        message: format!(
                            "server-side `{}` references `{carrier}`, which contains secret shuffle state (type-containment closure of `SharedShuffler`)",
                            f.name
                        ),
                    });
                }
            }
        }
        // Sink check, on taint flows: a logging macro is a finding only
        // when SECRET-tainted data actually reaches it.
        if sanctioned(unit) {
            continue;
        }
        let analysis = &engine.analyses[idx];
        for hit in &analysis.hits {
            if hit.kind != Sink::Log || !hit.taint.contains(Taint::SECRET) {
                continue;
            }
            if suppressed(&unit.lines, hit.line - 1, Rule::PrivacyFlow, &unit.rel, findings) {
                continue;
            }
            let root = analysis.note(Taint::SECRET).unwrap_or("shuffle-seed material");
            findings.push(Finding {
                file: unit.rel.clone(),
                line: hit.line,
                rule: Rule::PrivacyFlow,
                message: format!(
                    "`{}!` inside `{}`, which handles shuffle-seed material (`{root}`); seed material must never reach logging/IO",
                    hit.detail, f.name
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// L7 rng-provenance
// ---------------------------------------------------------------------------

/// L7: every RNG seeding call outside tests/bench must derive its seed
/// from a seed/round value. Provenance is taint-based: the SEED bit roots
/// at any name containing `seed`/`round` and propagates through lets,
/// assignments and function returns, so `let s = cfg.seed; seed_from_u64(s)`
/// passes where the old name-at-the-call-site rule could not see the flow.
/// Strictly more precise than the registry check: every previously
/// accepted call still passes (a seed-named arg roots SEED directly).
pub fn lint_rng_provenance(engine: &TaintEngine, findings: &mut Vec<Finding>) {
    for (idx, (unit, f)) in engine.graph.fns.iter().enumerate() {
        if unit.rel_str.starts_with("crates/bench/") || f.in_test {
            continue;
        }
        let analysis = &engine.analyses[idx];
        for hit in &analysis.hits {
            // `via` hits are a callee's ctor reported at our call site; the
            // callee judges its own call under its own parameters.
            if hit.kind != Sink::Seed || hit.via.is_some() {
                continue;
            }
            if hit.taint.contains(Taint::SEED) {
                continue;
            }
            if suppressed(&unit.lines, hit.line - 1, Rule::RngProvenance, &unit.rel, findings) {
                continue;
            }
            findings.push(Finding {
                file: unit.rel.clone(),
                line: hit.line,
                rule: Rule::RngProvenance,
                message: format!(
                    "`{}` does not derive from a seed/round value; thread a config `seed` or round counter through (or `// gtv-lint: allow(rng-provenance) -- why`)",
                    hit.detail
                ),
            });
        }
    }
}
