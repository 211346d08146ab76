//! Source-level static analysis enforcing the GTV protocol invariants that
//! the compiler cannot express.
//!
//! The GTV protocol's privacy argument (training-with-shuffling, §3.1.5 of
//! the paper) holds only if every shuffle and sample draw is seeded and
//! reproducible, and the VFL runtime only scales if protocol paths never
//! panic mid-round. The name bans behind those two properties are compiler
//! checks, resolved by type (DESIGN.md §7): the root `clippy.toml` disallows
//! clock reads, thread spawns, environment, process-id and thread-id reads,
//! RNG seeding without an `#[expect]` that names the seed's source, and
//! hash-order iteration (`iter_over_hash_type` covers `for` loops), the
//! protocol files carry `#![deny(clippy::unwrap_used, clippy::expect_used,
//! clippy::panic, clippy::unreachable)]`, the metric crates `#![deny(clippy::float_cmp)]`,
//! and every `#[allow]` needs a `reason` (`allow_attributes_without_reason`).
//! The wire files and `gtv-serve` deny clippy's cast lints, the wire tests
//! match every `Message` variant with no wildcard, and the Cargo manifests
//! are the crate layering. This crate is a dependency-free analyzer over the
//! workspace sources for the rest:
//!
//! * **L6 `privacy-flow`** — shuffle-seed material (the secret roots in
//!   [`passes`]) is never reachable from server-side code, nor held there
//!   in a type that contains it (that it never reaches a log is a type
//!   fact: `gtv-vfl`'s seed types cannot be printed);
//! * **L11 `raw-egress`** — raw feature-column data (partition table
//!   column accessors) must never reach `Message` construction or a wire
//!   `encode` sink except through the sanctioned
//!   `TableTransformer::encode` → activation path (paper §3.1.4).
//!
//! Both run on the item-level engine: the [`parse`] module's
//! recursive-descent parser extracts items (structs and enums with field
//! types, fns with bodies) from comment- and string-stripped source, so
//! tokens inside string literals or comments never count; [`model`] builds
//! the type-containment and approximate call/reference graphs, and
//! [`dataflow`] layers flow-sensitive per-function taint tracking with
//! memoized interprocedural summaries on top (L11 is taint-driven; L6's
//! name registries remain as drift guards). The rule numbers of the retired
//! L1–L5, L7–L10 and L12 stay unused: the compiler, clippy, `gtv-vfl`'s
//! round machine and the `tools/kernel_allocs` allocation test hold those
//! properties (DESIGN.md §7). A finding cannot be waved away by a comment:
//! there is no inline escape hatch.

use std::fmt;
use std::path::{Path, PathBuf};

pub(crate) mod dataflow;
pub(crate) mod model;
pub(crate) mod parse;
pub(crate) mod passes;

/// The lint rules the compiler cannot hold (the others moved to rustc,
/// clippy, `gtv-vfl`'s round machine and an allocation test).
///
/// `Ord` follows declaration order and is part of the finding sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// L6: shuffle-seed material stays off server-side paths.
    PrivacyFlow,
    /// L11: raw feature columns never reach a wire sink unencoded.
    RawEgress,
}

impl Rule {
    /// The L-number label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Rule::PrivacyFlow => "L6/privacy-flow",
            Rule::RawEgress => "L11/raw-egress",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative file path.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file.display(), self.line, self.rule, self.message)
    }
}

/// Error reading the workspace sources.
#[derive(Debug)]
pub struct LintError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint error: {}", self.message)
    }
}

impl std::error::Error for LintError {}

/// One source line after lexing: executable text and test flag.
#[derive(Debug, Default, Clone)]
pub(crate) struct LexedLine {
    /// The line with comments and string/char literal *contents* blanked.
    pub(crate) code: String,
    /// Whether the line sits inside a `#[cfg(test)]` item.
    pub(crate) in_test: bool,
}

/// One scanned source file: the parsed item structure the passes consume.
pub(crate) struct FileUnit {
    /// Workspace-relative path.
    pub(crate) rel: PathBuf,
    /// `rel` rendered with forward slashes.
    pub(crate) rel_str: String,
    /// Crate identifier the file compiles into ([`model::crate_ident`]).
    pub(crate) crate_ident: String,
    /// Parsed items (types, fns).
    pub(crate) ast: parse::FileAst,
}

/// Strips comments and literal contents, tracks `#[cfg(test)]` regions.
///
/// This is a line-oriented lexer, not a parser: it understands `//` and
/// nested `/* */` comments, plain/raw string literals, char literals vs.
/// lifetimes, and brace depth — enough to make token scans reliable.
pub(crate) fn lex(source: &str) -> Vec<LexedLine> {
    #[derive(PartialEq)]
    enum Mode {
        Code,
        Block(usize),
        Str,
        RawStr(usize),
    }
    let mut out = Vec::new();
    let mut mode = Mode::Code;
    // Brace depth, and the depth at which a #[cfg(test)] item opened.
    let mut depth: i64 = 0;
    let mut pending_test_attr = false;
    let mut test_depth: Option<i64> = None;

    for raw in source.lines() {
        let bytes: Vec<char> = raw.chars().collect();
        let mut code = String::with_capacity(raw.len());
        let mut i = 0;
        let in_test_at_start = test_depth.is_some();
        // Pre-scan so `#[cfg(test)] mod t {` on one line still registers
        // before its own `{` is processed.
        if mode == Mode::Code && raw.contains("#[cfg(test)]") {
            pending_test_attr = true;
        }
        while i < bytes.len() {
            match mode {
                Mode::Block(ref mut n) => {
                    if bytes[i] == '*' && bytes.get(i + 1) == Some(&'/') {
                        *n -= 1;
                        if *n == 0 {
                            mode = Mode::Code;
                        }
                        i += 2;
                    } else if bytes[i] == '/' && bytes.get(i + 1) == Some(&'*') {
                        *n += 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                    continue;
                }
                Mode::Str => {
                    if bytes[i] == '\\' {
                        i += 2;
                    } else {
                        if bytes[i] == '"' {
                            mode = Mode::Code;
                            code.push('"');
                        }
                        i += 1;
                    }
                    continue;
                }
                Mode::RawStr(hashes) => {
                    if bytes[i] == '"'
                        && bytes[i + 1..].iter().take(hashes).filter(|&&c| c == '#').count()
                            == hashes
                    {
                        mode = Mode::Code;
                        code.push('"');
                        i += 1 + hashes;
                    } else {
                        i += 1;
                    }
                    continue;
                }
                Mode::Code => {}
            }
            let c = bytes[i];
            match c {
                '/' if bytes.get(i + 1) == Some(&'/') => break,
                '/' if bytes.get(i + 1) == Some(&'*') => {
                    mode = Mode::Block(1);
                    i += 2;
                }
                '"' => {
                    code.push('"');
                    mode = Mode::Str;
                    i += 1;
                }
                'r' if bytes.get(i + 1) == Some(&'"')
                    || (bytes.get(i + 1) == Some(&'#')
                        && bytes[i + 1..].iter().find(|&&x| x != '#') == Some(&'"')) =>
                {
                    let hashes = bytes[i + 1..].iter().take_while(|&&x| x == '#').count();
                    code.push('"');
                    mode = Mode::RawStr(hashes);
                    i += 2 + hashes;
                }
                '\'' => {
                    // Char literal ('x', '\n', '\u{..}') vs. lifetime ('a).
                    let rest = &bytes[i + 1..];
                    let close = if rest.first() == Some(&'\\') {
                        rest.iter().skip(1).position(|&x| x == '\'').map(|p| p + 1)
                    } else if rest.len() >= 2 && rest[1] == '\'' {
                        Some(1)
                    } else {
                        None
                    };
                    if let Some(p) = close {
                        code.push('\'');
                        code.push('\'');
                        i += p + 2;
                    } else {
                        code.push('\'');
                        i += 1;
                    }
                }
                '{' => {
                    depth += 1;
                    if pending_test_attr {
                        test_depth = Some(depth);
                        pending_test_attr = false;
                    }
                    code.push(c);
                    i += 1;
                }
                '}' => {
                    if test_depth == Some(depth) {
                        test_depth = None;
                    }
                    depth -= 1;
                    code.push(c);
                    i += 1;
                }
                _ => {
                    code.push(c);
                    i += 1;
                }
            }
        }
        out.push(LexedLine {
            code,
            in_test: in_test_at_start || test_depth.is_some() || pending_test_attr,
        });
    }
    out
}

/// Recursively collects `.rs` files under `dir` (sorted for determinism).
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(path);
        }
    }
}

/// The workspace-relative source files the analyzer scans: every crate's
/// `src/`, the umbrella `src/`, and `examples/` (integration tests and
/// benches are exempt test/bench code).
fn scan_set(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    rust_files(&root.join("examples"), &mut files);
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        let mut crates: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        crates.sort();
        for krate in crates {
            rust_files(&krate.join("src"), &mut files);
        }
    }
    files
}

/// Lexes and item-parses every file in the scan set rooted at `root`.
pub(crate) fn load_units(root: &Path) -> Result<Vec<FileUnit>, LintError> {
    let mut units = Vec::new();
    for path in scan_set(root) {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        let source = std::fs::read_to_string(&path)
            .map_err(|e| LintError { message: format!("cannot read {}: {e}", path.display()) })?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let ast = parse::parse_file(&lex(&source));
        units.push(FileUnit {
            rel,
            rel_str: rel_str.clone(),
            crate_ident: model::crate_ident(&rel_str),
            ast,
        });
    }
    Ok(units)
}

/// Runs every lint over the workspace at `root`; findings sorted by
/// (file, line, rule, message).
pub fn run_lint(root: &Path) -> Result<Vec<Finding>, LintError> {
    if !root.is_dir() {
        // A typo'd --root must not read as "clean" in CI.
        return Err(LintError { message: format!("root {} is not a directory", root.display()) });
    }
    let units = load_units(root)?;
    // The taint engine (def-use chains + memoized interprocedural
    // summaries) is built once and shared by both passes (L6's call graph,
    // L11's flows).
    let engine = dataflow::TaintEngine::build(&units);
    let mut findings = Vec::new();
    passes::lint_privacy_flow(&units, &engine, &mut findings);
    dataflow::lint_raw_egress(&engine, &mut findings);
    findings.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(&b.rule))
            .then(a.message.cmp(&b.message))
    });
    findings.dedup();
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexer_strips_strings_and_comments() {
        let lines = lex("let x = \"panic!\"; // panic! in comment\nlet y = 1;");
        assert_eq!(lines[0].code, "let x = \"\"; ");
        assert_eq!(lines[1].code, "let y = 1;");
    }

    #[test]
    fn lexer_tracks_cfg_test_blocks() {
        let src = "fn a() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn b() { y.unwrap(); }\n}\nfn c() {}\n";
        let lines = lex(src);
        assert!(!lines[0].in_test);
        assert!(lines[1].in_test && lines[2].in_test && lines[3].in_test && lines[4].in_test);
        assert!(!lines[5].in_test);
    }

    #[test]
    fn lexer_handles_block_comments_and_lifetimes() {
        let lines = lex("/* panic! spans\n lines */ let a: &'static str = \"x\";\nlet c = 'y';");
        assert!(!lines.iter().any(|l| l.code.contains("panic!")));
        assert!(lines[1].code.contains("'static"));
        assert!(!lines[2].code.contains('y'));
    }
}
