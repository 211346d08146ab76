//! `gtv-xtask` — workspace maintenance tasks.
//!
//! ```text
//! cargo run -p gtv-xtask -- lint [--root <path>]
//! ```
//!
//! `lint` runs the GTV static-analysis passes (the rules the compiler cannot
//! hold, see the crate docs) over the workspace and exits non-zero on any
//! finding, printing one line per finding sorted by (file, line, rule).

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE_EXIT: u8 = 2;

fn usage() -> ExitCode {
    eprintln!(
        "usage: gtv-xtask lint [--root <path>]\n\n\
         Runs the GTV protocol-invariant lints that the compiler cannot hold:\n  \
         L2 determinism   lane-level SIMD ([f32; 8], [f64; 4], [f64; 8], chunks_exact(8)) only in\n  \
         \x20                 crates/tensor/src/simd.rs; no raw allocation in crates/tensor/src/kernels.rs\n  \
         L6 privacy-flow  shuffle-seed secrets unreachable from server code\n  \
         L7 rng-provenance  seed_from_u64/from_seed args derive from a seed/round value\n  \
         L11 raw-egress   raw partition columns never reach Message/wire encode unencoded\n\n\
         Panics in protocol files, clock, environment and thread-id reads, thread spawns,\n\
         hash-order iteration, float == in the metric crates, reason-less #[allow]s and\n\
         narrowing casts on the wire are clippy's, the seed types cannot be printed, wire\n\
         exhaustiveness is a wildcard-free match, layering is the Cargo manifests, and\n\
         message order and direction are gtv-vfl's round machine (Message::edge):\n\
         see clippy.toml and DESIGN.md §7.\n\n\
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
    while let Some(arg) = args.next() {
        match (arg.as_str(), args.next()) {
            ("--root", Some(p)) if root.is_none() => root = Some(PathBuf::from(p)),
            _ => return usage(),
        }
    }
    let root = workspace_root(root);
    let findings = match gtv_xtask::run_lint(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(USAGE_EXIT);
        }
    };
    for finding in &findings {
        println!("{finding}");
    }
    if findings.is_empty() {
        println!("gtv-xtask lint: clean ({} ok)", root.display());
        ExitCode::SUCCESS
    } else {
        eprintln!("gtv-xtask lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
