//! `gtv-xtask` — workspace maintenance tasks.
//!
//! ```text
//! cargo run -p gtv-xtask -- lint [--root <path>] [--json | --sarif]
//!     [--baseline <file>] [--update-baseline]
//!     [--max-ms <n>] [--max-pass-ms <n>]
//! ```
//!
//! `lint` runs the GTV static-analysis passes (rules L1–L12, see the crate
//! docs) over the workspace and exits non-zero on any finding. `--json`
//! emits one JSON object per finding on stdout, `--sarif` a SARIF 2.1.0
//! log; findings are sorted by (file, line, rule) and no wall-clock value
//! reaches stdout, so two runs over the same tree are byte-identical — CI
//! diffs consecutive outputs as a determinism check. The per-pass timings
//! record goes to stderr. `--baseline <file>` fails only on findings not
//! in the checked-in baseline; `--update-baseline` regenerates it.
//! `--max-ms` caps total analysis wall-time and `--max-pass-ms` caps each
//! pass, keeping the (now dataflow-carrying) linter fast enough for
//! pre-commit use.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE_EXIT: u8 = 2;

fn usage() -> ExitCode {
    eprintln!(
        "usage: gtv-xtask lint [--root <path>] [--json | --sarif] [--baseline <file>]\n\
         \x20                     [--update-baseline] [--max-ms <n>] [--max-pass-ms <n>]\n\n\
         Runs the GTV protocol-invariant lints:\n  \
         L1 panic         no unwrap/expect/panic!/unreachable!/todo! in protocol paths\n  \
         L2 determinism   no thread_rng/from_entropy/SystemTime::now/Instant::now outside crates/bench;\n  \
         \x20                 lane-level SIMD ([f32; 8], [f64; 4], [f64; 8], chunks_exact(8)) only in crates/tensor/src/simd.rs\n  \
         L3 float-eq      no ==/!= against float literals in crates/metrics, crates/ml\n  \
         L4 wire          every Message variant has encode and decode arms\n  \
         L5 allow-justification  every #[allow(clippy::...)] carries a trailing // justification\n  \
         L6 privacy-flow  shuffle-seed secrets unreachable from server code and logging sinks\n  \
         L7 rng-provenance  seed_from_u64/from_seed args derive from a seed/round value\n  \
         L8 cast-safety   narrowing casts on wire/transport paths carry a bounds guard\n  \
         L9 layering      crate imports respect the dependency DAG\n  \
         L10 protocol-order  trainer/transport and serve-session send-recv order follows the declared machines\n  \
         L11 raw-egress   raw partition columns never reach Message/wire encode unencoded\n  \
         L12 nondet-flow  env/time/thread-id/unordered-iteration values never reach kernels, seeds, wire\n\n\
         --json             one JSON object per finding on stdout (timings go to stderr)\n  \
         --sarif            SARIF 2.1.0 log on stdout (byte-stable across runs)\n  \
         --baseline <file>  fail only on findings not recorded in <file>\n  \
         --update-baseline  rewrite <file> from this run's findings and exit clean\n  \
         --max-ms <n>       fail if total lint wall-time exceeds <n> milliseconds\n  \
         --max-pass-ms <n>  fail if any single pass exceeds <n> milliseconds\n\n\
         Suppress a finding with: // gtv-lint: allow(<rule>) -- <justification>"
    );
    ExitCode::from(USAGE_EXIT)
}

/// Locates the workspace root: `--root` if given, else the directory
/// holding this crate's grandparent `Cargo.toml` (cargo runs xtask from the
/// workspace), else the current directory.
fn workspace_root(explicit: Option<PathBuf>) -> PathBuf {
    if let Some(root) = explicit {
        return root;
    }
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(std::path::Path::parent)
        .map_or_else(|| PathBuf::from("."), PathBuf::from)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else { return usage() };
    if command != "lint" {
        eprintln!("unknown command `{command}`");
        return usage();
    }
    let mut root = None;
    let mut json = false;
    let mut sarif = false;
    let mut baseline: Option<PathBuf> = None;
    let mut update_baseline = false;
    let mut max_ms: Option<f64> = None;
    let mut max_pass_ms: Option<f64> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--json" => json = true,
            "--sarif" => sarif = true,
            "--baseline" => match args.next() {
                Some(p) => baseline = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--update-baseline" => update_baseline = true,
            "--max-ms" => match args.next().and_then(|n| n.parse::<f64>().ok()) {
                Some(n) => max_ms = Some(n),
                None => return usage(),
            },
            "--max-pass-ms" => match args.next().and_then(|n| n.parse::<f64>().ok()) {
                Some(n) => max_pass_ms = Some(n),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    if json && sarif {
        eprintln!("--json and --sarif are mutually exclusive");
        return usage();
    }
    if update_baseline && baseline.is_none() {
        eprintln!("--update-baseline requires --baseline <file>");
        return usage();
    }
    let root = workspace_root(root);
    let (findings, timings) = match gtv_xtask::run_lint_timed(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(USAGE_EXIT);
        }
    };
    let total_ms: f64 = timings.iter().map(|t| t.millis).sum();
    for t in &timings {
        eprintln!("  {:<24} {:>8.2} ms", t.label, t.millis);
    }
    eprintln!("  {:<24} {:>8.2} ms", "total", total_ms);
    if json {
        // The per-pass timings record stays on stderr: stdout carries only
        // the sorted findings, so two runs are byte-identical.
        let passes: Vec<String> = timings
            .iter()
            .map(|t| format!("{{\"pass\":\"{}\",\"millis\":{:.2}}}", t.label, t.millis))
            .collect();
        eprintln!("{{\"timings\":[{}],\"total_ms\":{total_ms:.2}}}", passes.join(","));
    }

    // Baseline handling: --update-baseline records the current findings as
    // accepted; --baseline alone fails only on findings beyond the file.
    let mut effective: &[gtv_xtask::Finding] = &findings;
    let fresh;
    if let Some(path) = &baseline {
        if update_baseline {
            let rendered = gtv_xtask::report::render_baseline(&findings);
            if let Err(e) = std::fs::write(path, rendered) {
                eprintln!("cannot write baseline {}: {e}", path.display());
                return ExitCode::from(USAGE_EXIT);
            }
            eprintln!(
                "gtv-xtask lint: baseline {} updated ({} finding(s) recorded)",
                path.display(),
                findings.len()
            );
            effective = &[];
        } else {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read baseline {}: {e}", path.display());
                    return ExitCode::from(USAGE_EXIT);
                }
            };
            let outcome = gtv_xtask::report::apply_baseline(&findings, &text);
            if outcome.matched > 0 || outcome.stale > 0 {
                eprintln!(
                    "gtv-xtask lint: baseline matched {} finding(s), {} stale entr(y/ies)",
                    outcome.matched, outcome.stale
                );
            }
            fresh = outcome.fresh;
            effective = &fresh;
        }
    }

    if sarif {
        print!("{}", gtv_xtask::report::to_sarif(effective));
    } else if json {
        for finding in effective {
            println!("{}", finding.to_json());
        }
    } else {
        for finding in effective {
            println!("{finding}");
        }
    }
    let mut over_budget = max_ms.map(|cap| total_ms > cap).unwrap_or(false);
    if over_budget {
        eprintln!(
            "gtv-xtask lint: wall-time {total_ms:.2} ms exceeds --max-ms {:.0}",
            max_ms.unwrap_or(0.0)
        );
    }
    if let Some(cap) = max_pass_ms {
        for t in timings.iter().filter(|t| t.millis > cap) {
            eprintln!(
                "gtv-xtask lint: pass {} took {:.2} ms, exceeding --max-pass-ms {cap:.0}",
                t.label, t.millis
            );
            over_budget = true;
        }
    }
    if effective.is_empty() && !over_budget {
        if !json && !sarif {
            println!("gtv-xtask lint: clean ({} ok)", root.display());
        }
        ExitCode::SUCCESS
    } else {
        if !effective.is_empty() {
            eprintln!("gtv-xtask lint: {} finding(s)", effective.len());
        }
        ExitCode::FAILURE
    }
}
