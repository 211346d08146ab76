//! Source-level static analysis enforcing the GTV protocol invariants that
//! the compiler cannot express.
//!
//! The GTV protocol's privacy argument (training-with-shuffling, §3.1.5 of
//! the paper) holds only if every shuffle and sample draw is seeded and
//! reproducible, and the VFL runtime only scales if protocol paths never
//! panic mid-round. The name bans behind those two properties are compiler
//! checks, resolved by type (DESIGN.md §7): the root `clippy.toml` disallows
//! clock reads and thread spawns, the protocol files carry
//! `#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic,
//! clippy::unreachable)]`, the metric crates `#![deny(clippy::float_cmp)]`,
//! and every `#[allow]` needs a `reason` (`allow_attributes_without_reason`).
//! The wire files and `gtv-serve` deny clippy's cast lints, the wire tests
//! match every `Message` variant with no wildcard, and the Cargo manifests
//! are the crate layering. This crate is a dependency-free analyzer over the
//! workspace sources for the rest:
//!
//! * **L2 `determinism`** — lane-level SIMD (`[f32; 8]`, `[f64; 4]`,
//!   `[f64; 8]`, `chunks_exact(8)`) only in `crates/tensor/src/simd.rs`,
//!   and no raw allocation (`Vec::with_capacity`, `vec![0.0`) in the
//!   kernel hot path `crates/tensor/src/kernels.rs`;
//! * **L6 `privacy-flow`** — shuffle-seed material (the secret roots in
//!   [`passes`]) is never reachable from server-side code and never routed
//!   into a logging/IO sink outside the sanctioned client↔client path;
//! * **L7 `rng-provenance`** — every `seed_from_u64` / `from_seed` call
//!   outside tests and `crates/bench` derives its argument from a value
//!   named `seed`/`round`, never a literal or ambient source;
//! * **L11 `raw-egress`** — raw feature-column data (partition table
//!   column accessors) must never reach `Message` construction or a wire
//!   `encode` sink except through the sanctioned
//!   `TableTransformer::encode` → activation path (paper §3.1.4);
//! * **L12 `nondet-flow`** — values from `std::env` (except `GTV_THREADS`
//!   via the sanctioned thread resolution), wall clocks, thread ids and
//!   unordered `HashMap`/`HashSet` iteration must never flow into tensor
//!   kernels, RNG seeds, or wire payloads.
//!
//! L2 is a line-lexer rule. L6, L7, L11 and L12 run on the item-level engine: the
//! [`parse`] module's recursive-descent parser extracts items (structs and
//! enums with field types, fns with bodies), [`model`] builds the
//! type-containment and approximate call/reference graphs, and
//! [`dataflow`] layers flow-sensitive per-function taint tracking with
//! memoized interprocedural summaries on top (L6's sink half, L7, L11 and
//! L12 are taint-driven; the name-registry halves of L6 remain as drift
//! guards). The rule numbers of the retired L1, L3, L4, L5, L8, L9 and L10
//! stay unused: the compiler and `gtv-vfl`'s round machine hold those
//! properties (DESIGN.md §7).
//!
//! A finding on line *N* is suppressed by an inline escape hatch on line
//! *N* or *N−1*:
//!
//! ```text
//! // gtv-lint: allow(<rule>) -- <justification>
//! ```
//!
//! The justification after `--` is mandatory; a justification-free
//! `gtv-lint: allow` is itself reported. (Clippy rules are exempted with
//! `#[expect(<lint>, reason = "…")]` instead.) Analysis is line-based on
//! comment- and string-stripped source, so tokens inside string literals
//! or comments never fire.

use std::fmt;
use std::path::{Path, PathBuf};

pub(crate) mod dataflow;
pub(crate) mod model;
pub(crate) mod parse;
pub(crate) mod passes;

/// The lint rules the compiler cannot hold (L1, L3, L4, L5, L8 and L9 moved
/// to rustc and clippy, L10 to `gtv-vfl`'s round machine).
///
/// `Ord` follows declaration order and is part of the finding sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// L2: lane-level SIMD and kernel buffers stay in their sanctioned homes.
    Determinism,
    /// L6: shuffle-seed material stays off server-side and logging paths.
    PrivacyFlow,
    /// L7: RNG seeds derive from named seed/round values.
    RngProvenance,
    /// L11: raw feature columns never reach a wire sink unencoded.
    RawEgress,
    /// L12: nondeterministic values never reach kernels, seeds, or wire.
    NondetFlow,
}

impl Rule {
    /// The identifier used in `gtv-lint: allow(<id>)`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::PrivacyFlow => "privacy-flow",
            Rule::RngProvenance => "rng-provenance",
            Rule::RawEgress => "raw-egress",
            Rule::NondetFlow => "nondet-flow",
        }
    }

    /// The L-number label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Rule::Determinism => "L2/determinism",
            Rule::PrivacyFlow => "L6/privacy-flow",
            Rule::RngProvenance => "L7/rng-provenance",
            Rule::RawEgress => "L11/raw-egress",
            Rule::NondetFlow => "L12/nondet-flow",
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

/// One source line after lexing: executable text, trailing comment, test flag.
#[derive(Debug, Default, Clone)]
pub(crate) struct LexedLine {
    /// The line with comments and string/char literal *contents* blanked.
    pub(crate) code: String,
    /// Text of any `//` comment on the line (block comments excluded).
    pub(crate) comment: String,
    /// Whether the line sits inside a `#[cfg(test)]` item.
    pub(crate) in_test: bool,
    /// Contents of string literals that open *and* close on this line, in
    /// order of appearance. Kept out of `code` so structural scans never see
    /// literal text; L12 reads them to recognise the sanctioned
    /// `env::var("GTV_THREADS")`. Multi-line literals are not captured.
    pub(crate) strings: Vec<String>,
}

/// One scanned source file: lexed lines plus the parsed item structure the
/// semantic passes consume.
pub(crate) struct FileUnit {
    /// Workspace-relative path.
    pub(crate) rel: PathBuf,
    /// `rel` rendered with forward slashes.
    pub(crate) rel_str: String,
    /// Crate identifier the file compiles into ([`model::crate_ident`]).
    pub(crate) crate_ident: String,
    /// Lexed source lines.
    pub(crate) lines: Vec<LexedLine>,
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
    // Accumulates the current string literal; captured per line only when
    // the literal opened on the same line it closes.
    let mut str_buf = String::new();
    let mut str_opened_this_line = false;

    for raw in source.lines() {
        let bytes: Vec<char> = raw.chars().collect();
        let mut code = String::with_capacity(raw.len());
        let mut comment = String::new();
        let mut strings = Vec::new();
        let mut i = 0;
        let in_test_at_start = test_depth.is_some();
        if matches!(mode, Mode::Str | Mode::RawStr(_)) {
            // The open literal spans lines; spanning literals aren't captured.
            str_opened_this_line = false;
        }
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
                        str_buf.push(bytes[i]);
                        if let Some(&next) = bytes.get(i + 1) {
                            str_buf.push(next);
                        }
                        i += 2;
                    } else if bytes[i] == '"' {
                        mode = Mode::Code;
                        code.push('"');
                        if str_opened_this_line {
                            strings.push(std::mem::take(&mut str_buf));
                        }
                        i += 1;
                    } else {
                        str_buf.push(bytes[i]);
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
                        if str_opened_this_line {
                            strings.push(std::mem::take(&mut str_buf));
                        }
                        i += 1 + hashes;
                    } else {
                        str_buf.push(bytes[i]);
                        i += 1;
                    }
                    continue;
                }
                Mode::Code => {}
            }
            let c = bytes[i];
            match c {
                '/' if bytes.get(i + 1) == Some(&'/') => {
                    comment = raw[raw.char_indices().nth(i).map_or(0, |(b, _)| b)..].to_string();
                    break;
                }
                '/' if bytes.get(i + 1) == Some(&'*') => {
                    mode = Mode::Block(1);
                    i += 2;
                }
                '"' => {
                    code.push('"');
                    mode = Mode::Str;
                    str_buf.clear();
                    str_opened_this_line = true;
                    i += 1;
                }
                'r' if bytes.get(i + 1) == Some(&'"')
                    || (bytes.get(i + 1) == Some(&'#')
                        && bytes[i + 1..].iter().find(|&&x| x != '#') == Some(&'"')) =>
                {
                    let hashes = bytes[i + 1..].iter().take_while(|&&x| x == '#').count();
                    code.push('"');
                    mode = Mode::RawStr(hashes);
                    str_buf.clear();
                    str_opened_this_line = true;
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
            comment,
            in_test: in_test_at_start || test_depth.is_some() || pending_test_attr,
            strings,
        });
    }
    out
}

/// Whether the escape hatch `gtv-lint: allow(<rule>) -- <why>` covers
/// `rule` in this comment. Returns `Some(true)` if covered with a
/// justification, `Some(false)` if the allow matches but lacks one,
/// `None` if no allow for this rule is present.
fn allow_covers(comment: &str, rule: Rule) -> Option<bool> {
    let marker = format!("gtv-lint: allow({})", rule.id());
    let pos = comment.find(&marker)?;
    let rest = &comment[pos + marker.len()..];
    let justified = rest.find("--").map(|p| !rest[p + 2..].trim().is_empty()).unwrap_or(false);
    Some(justified)
}

/// Applies the escape hatch for (file, line) and records malformed allows.
///
/// Only an ordinary `//` comment binds: doc comments (`///`, `//!`) are
/// documentation *text*, not directives, so an allow spelled inside one —
/// e.g. a doc example quoting the escape hatch — suppresses nothing.
/// String literals never reach here at all (the lexer routes them into
/// `code`, with contents blanked, never into `comment`).
pub(crate) fn suppressed(
    lines: &[LexedLine],
    idx: usize,
    rule: Rule,
    file: &Path,
    extra: &mut Vec<Finding>,
) -> bool {
    for look in [idx, idx.saturating_sub(1)] {
        let comment = lines[look].comment.trim_start();
        if comment.starts_with("///") || comment.starts_with("//!") {
            if look == 0 {
                break;
            }
            continue;
        }
        if let Some(cov) = allow_covers(comment, rule) {
            if cov {
                return true;
            }
            extra.push(Finding {
                file: file.to_path_buf(),
                line: look + 1,
                rule,
                message: format!(
                    "gtv-lint: allow({}) without `-- <justification>`; findings stay in force",
                    rule.id()
                ),
            });
            return false;
        }
        if look == 0 {
            break;
        }
    }
    false
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
        let lines = lex(&source);
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let ast = parse::parse_file(&lines);
        units.push(FileUnit {
            rel,
            rel_str: rel_str.clone(),
            crate_ident: model::crate_ident(&rel_str),
            lines,
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
    // summaries) is built once and shared by the flow-sensitive passes
    // (L6 sink half, L7, L11, L12).
    let engine = dataflow::TaintEngine::build(&units);
    let mut findings = Vec::new();
    for u in &units {
        lint_determinism(&u.rel, &u.rel_str, &u.lines, &mut findings);
    }
    passes::lint_privacy_flow(&units, &engine, &mut findings);
    passes::lint_rng_provenance(&engine, &mut findings);
    dataflow::lint_raw_egress(&engine, &mut findings);
    dataflow::lint_nondet_flow(&engine, &mut findings);
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

/// Spellings of a lane array or a lane-group walk: the `f32` kernels are
/// eight wide, the `f64` ones four (exp) and eight (moment accumulators).
const LANE_TOKENS: [&str; 7] =
    ["[f32; 8]", "[f32;8]", "[f64; 4]", "[f64;4]", "[f64; 8]", "[f64;8]", "chunks_exact(8)"];

/// L2: deny hand-rolled lane code (f32 or f64) outside the sanctioned SIMD
/// module and raw allocation in the kernel hot path. (Clock reads and
/// thread spawns are `disallowed-methods` in the root `clippy.toml`.)
fn lint_determinism(rel: &Path, rel_str: &str, lines: &[LexedLine], findings: &mut Vec<Finding>) {
    // The tensor kernels are the training hot loop: every buffer must come
    // from the recycling pool (pool_mem), not the allocator, so the
    // step-scoped memory accounting of DESIGN.md §9 stays exact.
    let is_kernels = rel_str == "crates/tensor/src/kernels.rs";
    // Lane-level SIMD lives in exactly one module: its fixed lane-combine
    // order and scalar-equals-lane-0 contract (DESIGN.md §8) are what keep
    // vectorized results bit-identical to the scalar forms. Hand-rolled
    // 8-wide `f32` or 4-/8-wide `f64` code anywhere else would fork that
    // contract silently.
    let is_simd = rel_str == "crates/tensor/src/simd.rs";
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        if !is_simd {
            for token in LANE_TOKENS {
                if line.code.contains(token)
                    && !suppressed(lines, idx, Rule::Determinism, rel, findings)
                {
                    findings.push(Finding {
                        file: rel.to_path_buf(),
                        line: idx + 1,
                        rule: Rule::Determinism,
                        message: format!(
                            "`{token}` looks like hand-rolled lane code; lane-level SIMD is sanctioned only in `gtv_tensor::simd` (crates/tensor/src/simd.rs) (or `// gtv-lint: allow(determinism) -- why`)"
                        ),
                    });
                }
            }
        }
        if is_kernels {
            for token in ["Vec::with_capacity", "vec![0.0"] {
                if line.code.contains(token)
                    && !suppressed(lines, idx, Rule::Determinism, rel, findings)
                {
                    findings.push(Finding {
                        file: rel.to_path_buf(),
                        line: idx + 1,
                        rule: Rule::Determinism,
                        message: format!(
                            "`{token}` allocates in the kernel hot path; take the buffer from `pool_mem::take`/`take_zeroed` (or `// gtv-lint: allow(determinism) -- why`)"
                        ),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexer_strips_strings_and_comments() {
        let lines = lex("let x = \"panic!\"; // panic! in comment\nlet y = 1;");
        assert!(!lines[0].code.contains("panic!"));
        assert!(lines[0].comment.contains("panic!"));
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

    #[test]
    fn doc_comment_allow_does_not_suppress() {
        // An allow quoted in a doc comment is documentation, not a directive.
        let lines = lex(
            "/// gtv-lint: allow(determinism) -- doc text, not a directive\nlet t: [f32; 8] = x;\n",
        );
        let mut extra = Vec::new();
        assert!(!suppressed(&lines, 1, Rule::Determinism, Path::new("x.rs"), &mut extra));
        assert!(extra.is_empty(), "doc-comment allows are ignored, not reported as malformed");
        let lines = lex("//! gtv-lint: allow(determinism) -- inner doc\nlet t: [f64; 4] = x;\n");
        assert!(!suppressed(&lines, 1, Rule::Determinism, Path::new("x.rs"), &mut extra));
    }

    #[test]
    fn string_literal_allow_does_not_suppress() {
        // The lexer blanks string contents into `code`; they never become a
        // comment, so an allow inside a string binds nothing.
        let lines =
            lex("let s = \"gtv-lint: allow(determinism) -- nope\";\nlet t: [f32; 8] = x;\n");
        let mut extra = Vec::new();
        assert!(!suppressed(&lines, 1, Rule::Determinism, Path::new("x.rs"), &mut extra));
    }

    #[test]
    fn allow_binds_only_to_annotated_line_and_line_below() {
        let src = "// gtv-lint: allow(determinism) -- two lines up\n\nlet t: [f32; 8] = x;\n";
        let lines = lex(src);
        let mut extra = Vec::new();
        assert!(
            !suppressed(&lines, 2, Rule::Determinism, Path::new("x.rs"), &mut extra),
            "an allow two lines above must not suppress"
        );
        assert!(suppressed(&lines, 1, Rule::Determinism, Path::new("x.rs"), &mut extra));
        assert!(suppressed(&lines, 0, Rule::Determinism, Path::new("x.rs"), &mut extra));
    }

    #[test]
    fn allow_requires_justification() {
        let rule = Rule::RawEgress;
        assert_eq!(
            allow_covers("// gtv-lint: allow(raw-egress) -- encoded upstream", rule),
            Some(true)
        );
        assert_eq!(allow_covers("// gtv-lint: allow(raw-egress)", rule), Some(false));
        assert_eq!(allow_covers("// gtv-lint: allow(raw-egress) --   ", rule), Some(false));
        assert_eq!(allow_covers("// unrelated", rule), None);
        assert_eq!(allow_covers("// gtv-lint: allow(nondet-flow) -- x", rule), None);
    }
}
