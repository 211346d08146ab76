//! Source-level static analysis enforcing GTV's protocol invariants.
//!
//! The GTV protocol's privacy argument (training-with-shuffling, §3.1.5 of
//! the paper) holds only if every shuffle and sample draw is seeded and
//! reproducible, and the VFL runtime only scales if protocol paths never
//! panic mid-round. This crate is a dependency-free analyzer over the
//! workspace sources that enforces those invariants as lint rules:
//!
//! * **L1 `panic`** — no `unwrap()` / `expect(` / `panic!` /
//!   `unreachable!` / `todo!` in protocol/runtime paths
//!   (`crates/vfl/src/{transport,socket,wire,shuffle,psi}.rs`,
//!   `crates/core/src/{trainer,synth}.rs`, and the serving stack
//!   `crates/serve/src/{engine,registry,server,wire}.rs`), outside
//!   `#[cfg(test)]` code;
//! * **L2 `determinism`** — no `thread_rng`, `from_entropy`,
//!   `SystemTime::now`, `Instant::now` outside `crates/bench` and
//!   `#[cfg(test)]` code, anywhere in the workspace; and no ad-hoc
//!   `thread::spawn` / `thread::Builder` outside the deterministic worker
//!   pool (`crates/tensor/src/pool.rs`), whose fixed problem-size-only
//!   partitioning is the sanctioned source of parallelism;
//! * **L3 `float-eq`** — no `==` / `!=` against float literals in
//!   `crates/metrics` and `crates/ml` (literal-adjacent heuristic; exact
//!   float equality breaks metric stability across backends);
//! * **L4 `wire`** — every variant of `enum Message` in
//!   `crates/vfl/src/wire.rs` has both an encode and a decode arm;
//! * **L5 `allow-justification`** — every `#[allow(clippy::...)]` carries a
//!   trailing `//` justification comment;
//! * **L6 `privacy-flow`** — shuffle-seed material (the secret roots in
//!   [`passes`]) is never reachable from server-side code and never routed
//!   into a logging/IO sink outside the sanctioned client↔client path;
//! * **L7 `rng-provenance`** — every `seed_from_u64` / `from_seed` call
//!   outside tests and `crates/bench` derives its argument from a value
//!   named `seed`/`round`, never a literal or ambient source;
//! * **L8 `cast-safety`** — narrowing `as` casts on wire/transport paths
//!   (including every `crates/serve/src/` source) carry an adjacent bounds
//!   guard or a justified allow;
//! * **L9 `layering`** — the crate dependency DAG is enforced at the
//!   `use`-statement (and qualified-path) level;
//! * **L10 `protocol-order`** — every send/recv sequence extracted from
//!   `crates/core/src/trainer.rs` and `crates/vfl/src/{transport,socket}.rs`
//!   is a path through the declared round machine in [`protocol`], every
//!   `ServeFrame` sequence in `crates/serve/src/{server,engine}.rs` is a
//!   path through the serving-session machine, both wire enums stay in
//!   bijection with their machines (drift checks), and no party sends a
//!   variant the machine reserves for the other direction;
//! * **L11 `raw-egress`** — raw feature-column data (partition table
//!   column accessors) must never reach `Message` construction or a wire
//!   `encode` sink except through the sanctioned
//!   `TableTransformer::encode` → activation path (paper §3.1.4);
//! * **L12 `nondet-flow`** — values from `std::env` (except `GTV_THREADS`
//!   via the sanctioned thread resolution), wall clocks, thread ids and
//!   unordered `HashMap`/`HashSet` iteration must never flow into tensor
//!   kernels, RNG seeds, or wire payloads.
//!
//! L1–L5 are line-lexer rules. L6–L12 run on the item-level engine: the
//! [`parse`] module's recursive-descent parser extracts items (structs and
//! enums with field types, fns with bodies, imports), [`model`] builds
//! the type-containment and approximate call/reference graphs, and
//! [`dataflow`] layers flow-sensitive per-function taint tracking with
//! memoized interprocedural summaries on top (L6's sink half, L7, L11 and
//! L12 are taint-driven; the name-registry halves of L6 remain as drift
//! guards).
//!
//! Operationally, [`report`] renders findings as SARIF 2.1.0
//! (`lint --sarif`) and implements the checked-in baseline file
//! (`lint --baseline <path>` fails only on findings not in the baseline;
//! `--update-baseline` regenerates it deterministically).
//!
//! A finding on line *N* is suppressed by an inline escape hatch on line
//! *N* or *N−1*:
//!
//! ```text
//! // gtv-lint: allow(<rule>) -- <justification>
//! ```
//!
//! The justification after `--` is mandatory; a justification-free
//! `gtv-lint: allow` is itself reported. Analysis is line-based on
//! comment- and string-stripped source, so tokens inside string literals
//! or comments never fire.

use std::fmt;
use std::path::{Path, PathBuf};

pub(crate) mod dataflow;
pub(crate) mod model;
pub(crate) mod parse;
pub(crate) mod passes;
pub mod protocol;
pub mod report;

/// The lint rules, L1–L12.
///
/// `Ord` follows declaration order (L1 first) and is part of the stable
/// finding sort, so JSON output is byte-identical across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// L1: panic-freedom of protocol/runtime paths.
    Panic,
    /// L2: all randomness and time must be seeded/deterministic.
    Determinism,
    /// L3: no float equality in metric code.
    FloatEq,
    /// L4: wire-format exhaustiveness.
    Wire,
    /// L5: clippy `allow`s must be justified.
    AllowJustification,
    /// L6: shuffle-seed material stays off server-side and logging paths.
    PrivacyFlow,
    /// L7: RNG seeds derive from named seed/round values.
    RngProvenance,
    /// L8: narrowing casts on wire paths carry bounds guards.
    CastSafety,
    /// L9: the crate dependency DAG admits no upward references.
    Layering,
    /// L10: trainer/transport send/recv order follows the protocol machine.
    ProtocolOrder,
    /// L11: raw feature columns never reach a wire sink unencoded.
    RawEgress,
    /// L12: nondeterministic values never reach kernels, seeds, or wire.
    NondetFlow,
}

impl Rule {
    /// The identifier used in `gtv-lint: allow(<id>)`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::Panic => "panic",
            Rule::Determinism => "determinism",
            Rule::FloatEq => "float-eq",
            Rule::Wire => "wire",
            Rule::AllowJustification => "allow-justification",
            Rule::PrivacyFlow => "privacy-flow",
            Rule::RngProvenance => "rng-provenance",
            Rule::CastSafety => "cast-safety",
            Rule::Layering => "layering",
            Rule::ProtocolOrder => "protocol-order",
            Rule::RawEgress => "raw-egress",
            Rule::NondetFlow => "nondet-flow",
        }
    }

    /// The L-number label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Rule::Panic => "L1/panic",
            Rule::Determinism => "L2/determinism",
            Rule::FloatEq => "L3/float-eq",
            Rule::Wire => "L4/wire",
            Rule::AllowJustification => "L5/allow-justification",
            Rule::PrivacyFlow => "L6/privacy-flow",
            Rule::RngProvenance => "L7/rng-provenance",
            Rule::CastSafety => "L8/cast-safety",
            Rule::Layering => "L9/layering",
            Rule::ProtocolOrder => "L10/protocol-order",
            Rule::RawEgress => "L11/raw-egress",
            Rule::NondetFlow => "L12/nondet-flow",
        }
    }

    /// Every rule, in L-number order (drives SARIF rule metadata and the
    /// usage text; `Ord` matches this order).
    pub const ALL: [Rule; 12] = [
        Rule::Panic,
        Rule::Determinism,
        Rule::FloatEq,
        Rule::Wire,
        Rule::AllowJustification,
        Rule::PrivacyFlow,
        Rule::RngProvenance,
        Rule::CastSafety,
        Rule::Layering,
        Rule::ProtocolOrder,
        Rule::RawEgress,
        Rule::NondetFlow,
    ];

    /// One-line rule description (SARIF `shortDescription`).
    pub fn description(self) -> &'static str {
        match self {
            Rule::Panic => "no unwrap/expect/panic! in protocol paths",
            Rule::Determinism => "all randomness, time and threads seeded/deterministic",
            Rule::FloatEq => "no float-literal equality in metric code",
            Rule::Wire => "every Message variant has encode and decode arms",
            Rule::AllowJustification => "every clippy allow carries a justification",
            Rule::PrivacyFlow => "shuffle-seed material stays off server and logging paths",
            Rule::RngProvenance => "RNG seeds derive from a seed/round value",
            Rule::CastSafety => "narrowing casts on wire paths carry bounds guards",
            Rule::Layering => "crate imports respect the dependency DAG",
            Rule::ProtocolOrder => "send/recv order follows the protocol machine",
            Rule::RawEgress => {
                "raw feature columns reach the wire only as sanctioned encoder activations"
            }
            Rule::NondetFlow => {
                "env/time/thread-id/unordered-iteration values never reach kernels, seeds or wire"
            }
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

impl Finding {
    /// The finding as one line of JSON (for `lint --json` / CI annotations).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rule\":\"{}\",\"label\":\"{}\",\"path\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            self.rule.id(),
            self.rule.label(),
            json_escape(&self.file.display().to_string().replace('\\', "/")),
            self.line,
            json_escape(&self.message),
        )
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file.display(), self.line, self.rule, self.message)
    }
}

/// Wall-time of one analysis pass (for the `lint` timing report).
#[derive(Debug, Clone)]
pub struct PassTiming {
    /// Pass label (`L1/panic`, …, or `parse` for load+lex+parse).
    pub label: &'static str,
    /// Elapsed milliseconds.
    pub millis: f64,
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

/// Files subject to the L1 panic-freedom rule (protocol/runtime paths).
const L1_FILES: &[&str] = &[
    "crates/vfl/src/transport.rs",
    "crates/vfl/src/socket.rs",
    "crates/vfl/src/wire.rs",
    "crates/vfl/src/shuffle.rs",
    "crates/vfl/src/psi.rs",
    "crates/core/src/trainer.rs",
    "crates/core/src/synth.rs",
    "crates/serve/src/engine.rs",
    "crates/serve/src/registry.rs",
    "crates/serve/src/server.rs",
    "crates/serve/src/wire.rs",
];

/// Tokens denied by L1 (matched on identifier boundaries).
const L1_TOKENS: &[&str] =
    &["unwrap", "expect", "panic!", "unreachable!", "todo!", "unimplemented!"];

/// Tokens denied by L2.
const L2_TOKENS: &[&str] = &["thread_rng", "from_entropy", "SystemTime::now", "Instant::now"];

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
    /// literal text; L10 reads them to resolve expected-kind arguments like
    /// `gather(.., "SynthLogits")`. Multi-line literals are not captured.
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
    /// Parsed items (imports, types, fns).
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

/// Whether `code` contains `token` on identifier boundaries.
fn has_token(code: &str, token: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut start = 0;
    while let Some(pos) = code[start..].find(token) {
        let at = start + pos;
        let before_ok = at == 0 || !ident(code[..at].chars().next_back().unwrap_or(' '));
        let after = code[at + token.len()..].chars().next();
        // `!`-terminated tokens are complete; identifiers must not continue.
        let after_ok = token.ends_with('!') || !after.map(ident).unwrap_or(false);
        if before_ok && after_ok {
            return true;
        }
        start = at + token.len();
    }
    false
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

/// Whether the token ending at `code[..end]` looks like a float literal.
fn float_on_left(code: &str, end: usize) -> bool {
    let tok: String = code[..end]
        .trim_end()
        .chars()
        .rev()
        .take_while(|&c| c.is_ascii_alphanumeric() || c == '.' || c == '_')
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    looks_like_float(tok.trim_matches('_'))
}

/// Whether the token starting at `code[start..]` looks like a float literal.
fn float_on_right(code: &str, start: usize) -> bool {
    let rest = code[start..].trim_start();
    let rest = rest.strip_prefix('-').unwrap_or(rest);
    let tok: String =
        rest.chars().take_while(|&c| c.is_ascii_alphanumeric() || c == '.' || c == '_').collect();
    looks_like_float(&tok)
}

/// A numeric token with a decimal point, exponent, or f32/f64 suffix.
fn looks_like_float(tok: &str) -> bool {
    if tok.is_empty() || !tok.starts_with(|c: char| c.is_ascii_digit()) {
        return false;
    }
    tok.contains('.')
        || tok.ends_with("f32")
        || tok.ends_with("f64")
        || (tok.contains('e') && !tok.contains('x'))
}

/// Positions of `==` / `!=` comparison operators in `code`.
fn eq_operator_positions(code: &str) -> Vec<usize> {
    let b = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < b.len() {
        let two = &b[i..i + 2];
        if two == b"==" {
            let prev = i.checked_sub(1).map(|p| b[p]);
            let next = b.get(i + 2);
            // Exclude <=, >=, !='s tail, ==='s tail, => and pattern guards.
            if !matches!(
                prev,
                Some(b'<')
                    | Some(b'>')
                    | Some(b'!')
                    | Some(b'=')
                    | Some(b'+')
                    | Some(b'-')
                    | Some(b'*')
                    | Some(b'/')
            ) && next != Some(&b'=')
            {
                out.push(i);
            }
            i += 2;
        } else if two == b"!=" && b.get(i + 2) != Some(&b'=') {
            out.push(i);
            i += 2;
        } else {
            i += 1;
        }
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

/// Runs every lint over the workspace at `root`; findings sorted by file
/// then line.
pub fn run_lint(root: &Path) -> Result<Vec<Finding>, LintError> {
    run_lint_timed(root).map(|(findings, _)| findings)
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

/// Runs one pass, recording its wall-time.
fn timed(
    label: &'static str,
    timings: &mut Vec<PassTiming>,
    findings: &mut Vec<Finding>,
    pass: impl FnOnce(&mut Vec<Finding>),
) {
    // gtv-lint: allow(determinism) -- self-timing of the analyzer, reporting only
    let start = std::time::Instant::now();
    pass(findings);
    timings.push(PassTiming { label, millis: start.elapsed().as_secs_f64() * 1000.0 });
}

/// Runs every lint over the workspace at `root`, returning findings (sorted
/// by file then line) together with per-pass wall-times.
pub fn run_lint_timed(root: &Path) -> Result<(Vec<Finding>, Vec<PassTiming>), LintError> {
    if !root.is_dir() {
        // A typo'd --root must not read as "clean" in CI.
        return Err(LintError { message: format!("root {} is not a directory", root.display()) });
    }
    let mut timings = Vec::new();
    let mut findings = Vec::new();

    // gtv-lint: allow(determinism) -- self-timing of the analyzer, reporting only
    let load_start = std::time::Instant::now();
    let units = load_units(root)?;
    timings
        .push(PassTiming { label: "parse", millis: load_start.elapsed().as_secs_f64() * 1000.0 });

    // The taint engine (def-use chains + memoized interprocedural
    // summaries) is built once, in its own timed slot, and shared by the
    // flow-sensitive passes (L6 sink half, L7, L11, L12).
    let mut engine_slot: Option<dataflow::TaintEngine> = None;
    timed("dataflow", &mut timings, &mut findings, |_| {
        engine_slot = Some(dataflow::TaintEngine::build(&units));
    });
    let engine = engine_slot.expect("dataflow pass always builds the engine");

    timed("L1/panic", &mut timings, &mut findings, |f| {
        for u in &units {
            lint_panic(&u.rel, &u.rel_str, &u.lines, f);
        }
    });
    timed("L2/determinism", &mut timings, &mut findings, |f| {
        for u in &units {
            lint_determinism(&u.rel, &u.rel_str, &u.lines, f);
        }
    });
    timed("L3/float-eq", &mut timings, &mut findings, |f| {
        for u in &units {
            lint_float_eq(&u.rel, &u.rel_str, &u.lines, f);
        }
    });
    timed("L4/wire", &mut timings, &mut findings, |f| {
        for u in &units {
            if u.rel_str == "crates/vfl/src/wire.rs" {
                lint_wire(&u.rel, &u.lines, f);
            }
        }
    });
    timed("L5/allow-justification", &mut timings, &mut findings, |f| {
        for u in &units {
            lint_allow_justification(&u.rel, &u.lines, f);
        }
    });
    timed("L6/privacy-flow", &mut timings, &mut findings, |f| {
        passes::lint_privacy_flow(&units, &engine, f);
    });
    timed("L7/rng-provenance", &mut timings, &mut findings, |f| {
        passes::lint_rng_provenance(&engine, f);
    });
    timed("L8/cast-safety", &mut timings, &mut findings, |f| {
        passes::lint_cast_safety(&units, f);
    });
    timed("L9/layering", &mut timings, &mut findings, |f| {
        passes::lint_layering(&units, f);
    });
    timed("L10/protocol-order", &mut timings, &mut findings, |f| {
        protocol::lint_protocol_order(&units, f);
    });
    timed("L11/raw-egress", &mut timings, &mut findings, |f| {
        dataflow::lint_raw_egress(&engine, f);
    });
    timed("L12/nondet-flow", &mut timings, &mut findings, |f| {
        dataflow::lint_nondet_flow(&engine, f);
    });

    // Deterministic emission order: (file, line, rule, message). Two runs
    // over the same tree must produce byte-identical `--json` output.
    findings.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(&b.rule))
            .then(a.message.cmp(&b.message))
    });
    findings.dedup();
    Ok((findings, timings))
}

/// The variants of `enum Message` in `crates/vfl/src/wire.rs` under `root`,
/// in declaration order. Public so the protocol-machine drift test can tie
/// [`protocol::PROTOCOL_EDGES`] to the real wire format.
pub fn message_variants(root: &Path) -> Result<Vec<String>, LintError> {
    let path = root.join("crates/vfl/src/wire.rs");
    let source = std::fs::read_to_string(&path)
        .map_err(|e| LintError { message: format!("cannot read {}: {e}", path.display()) })?;
    let ast = parse::parse_file(&lex(&source));
    Ok(ast
        .types
        .iter()
        .find(|t| t.is_enum && t.name == "Message")
        .map(|t| t.variants.clone())
        .unwrap_or_default())
}

/// The variants of `enum ServeFrame` in `crates/serve/src/wire.rs` under
/// `root`, in declaration order. Public so the protocol-machine drift test
/// can tie [`protocol::SERVE_EDGES`] to the real serving wire format.
pub fn serve_frame_variants(root: &Path) -> Result<Vec<String>, LintError> {
    let path = root.join("crates/serve/src/wire.rs");
    let source = std::fs::read_to_string(&path)
        .map_err(|e| LintError { message: format!("cannot read {}: {e}", path.display()) })?;
    let ast = parse::parse_file(&lex(&source));
    Ok(ast
        .types
        .iter()
        .find(|t| t.is_enum && t.name == "ServeFrame")
        .map(|t| t.variants.clone())
        .unwrap_or_default())
}

/// L1: deny panicking macros/methods in protocol paths.
fn lint_panic(rel: &Path, rel_str: &str, lines: &[LexedLine], findings: &mut Vec<Finding>) {
    if !L1_FILES.contains(&rel_str) {
        return;
    }
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for token in L1_TOKENS {
            let method_like = !token.ends_with('!');
            let present = if method_like {
                // Methods fire only as calls: `.unwrap()` / `.expect(`.
                line.code.contains(&format!(".{token}("))
            } else {
                has_token(&line.code, token)
            };
            if present && !suppressed(lines, idx, Rule::Panic, rel, findings) {
                findings.push(Finding {
                    file: rel.to_path_buf(),
                    line: idx + 1,
                    rule: Rule::Panic,
                    message: format!(
                        "`{token}` in protocol path; return a Result (or `// gtv-lint: allow(panic) -- why`)"
                    ),
                });
            }
        }
    }
}

/// Spellings of a lane array or a lane-group walk: the `f32` kernels are
/// eight wide, the `f64` ones four (exp) and eight (moment accumulators).
const LANE_TOKENS: [&str; 7] =
    ["[f32; 8]", "[f32;8]", "[f64; 4]", "[f64;4]", "[f64; 8]", "[f64;8]", "chunks_exact(8)"];

/// L2: deny ambient randomness and wall-clock reads outside `crates/bench`,
/// ad-hoc thread spawns outside the sanctioned worker pool, and hand-rolled
/// lane code (f32 or f64) outside the sanctioned SIMD module.
fn lint_determinism(rel: &Path, rel_str: &str, lines: &[LexedLine], findings: &mut Vec<Finding>) {
    if rel_str.starts_with("crates/bench/") {
        return;
    }
    // The pool owns the workspace's data parallelism: its fixed, problem-
    // size-only partitioning is what keeps results thread-count-invariant.
    let is_pool = rel_str == "crates/tensor/src/pool.rs";
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
        for token in L2_TOKENS {
            if has_token(&line.code, token)
                && !suppressed(lines, idx, Rule::Determinism, rel, findings)
            {
                findings.push(Finding {
                    file: rel.to_path_buf(),
                    line: idx + 1,
                    rule: Rule::Determinism,
                    message: format!(
                        "`{token}` breaks seeded reproducibility; derive from a seeded StdRng or move to crates/bench"
                    ),
                });
            }
        }
        if is_pool {
            continue;
        }
        for token in ["thread::spawn", "thread::Builder"] {
            if has_token(&line.code, token)
                && !suppressed(lines, idx, Rule::Determinism, rel, findings)
            {
                findings.push(Finding {
                    file: rel.to_path_buf(),
                    line: idx + 1,
                    rule: Rule::Determinism,
                    message: format!(
                        "ad-hoc `{token}` sidesteps the deterministic worker pool; route parallelism through `gtv_tensor::pool` (crates/tensor/src/pool.rs)"
                    ),
                });
            }
        }
    }
}

/// L3: deny float-literal equality comparisons in metric crates.
fn lint_float_eq(rel: &Path, rel_str: &str, lines: &[LexedLine], findings: &mut Vec<Finding>) {
    if !rel_str.starts_with("crates/metrics/") && !rel_str.starts_with("crates/ml/") {
        return;
    }
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for pos in eq_operator_positions(&line.code) {
            if (float_on_left(&line.code, pos) || float_on_right(&line.code, pos + 2))
                && !suppressed(lines, idx, Rule::FloatEq, rel, findings)
            {
                findings.push(Finding {
                    file: rel.to_path_buf(),
                    line: idx + 1,
                    rule: Rule::FloatEq,
                    message: "exact float comparison; use a tolerance (or `// gtv-lint: allow(float-eq) -- why`)"
                        .to_string(),
                });
            }
        }
    }
}

/// L5: every clippy `allow` must carry a trailing justification comment.
fn lint_allow_justification(rel: &Path, lines: &[LexedLine], findings: &mut Vec<Finding>) {
    for (idx, line) in lines.iter().enumerate() {
        let is_allow =
            line.code.contains("#[allow(clippy::") || line.code.contains("#![allow(clippy::");
        if is_allow && line.comment.trim_start_matches('/').trim().is_empty() {
            findings.push(Finding {
                file: rel.to_path_buf(),
                line: idx + 1,
                rule: Rule::AllowJustification,
                message: "clippy allow without trailing `// <justification>`".to_string(),
            });
        }
    }
}

/// L4: every `Message` variant must appear in both `encode` and `decode`.
fn lint_wire(rel: &Path, lines: &[LexedLine], findings: &mut Vec<Finding>) {
    // Collect variant names from the `enum Message { .. }` body.
    let mut variants: Vec<(String, usize)> = Vec::new();
    let mut i = 0;
    let mut in_enum = false;
    let mut enum_depth = 0i64;
    let mut depth = 0i64;
    while i < lines.len() {
        let code = &lines[i].code;
        if !in_enum && code.contains("enum Message") {
            in_enum = true;
            enum_depth = depth + 1;
        }
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    if in_enum && depth == enum_depth {
                        in_enum = false;
                    }
                    depth -= 1;
                }
                _ => {}
            }
        }
        if in_enum && depth == enum_depth {
            let trimmed = code.trim_start();
            let name: String =
                trimmed.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
            if !name.is_empty()
                && name.chars().next().map(|c| c.is_ascii_uppercase()).unwrap_or(false)
                && trimmed[name.len()..].trim_start().starts_with(['(', '{', ','])
            {
                variants.push((name, i));
            }
        }
        i += 1;
    }
    if variants.is_empty() {
        return;
    }
    // Extract the bodies of `fn encode` and `fn decode` by brace matching.
    let body_of = |needle: &str| -> String {
        let mut out = String::new();
        let mut d = 0i64;
        let mut active = false;
        let mut started = false;
        for line in lines {
            if !active && !started && line.code.contains(needle) {
                active = true;
            }
            if active {
                out.push_str(&line.code);
                out.push('\n');
                for c in line.code.chars() {
                    match c {
                        '{' => {
                            d += 1;
                            started = true;
                        }
                        '}' => d -= 1,
                        _ => {}
                    }
                }
                if started && d == 0 {
                    break;
                }
            }
        }
        out
    };
    // Wire format v2 splits encoding into a `encode` convenience wrapper
    // delegating to a codec-parameterized `encode_with`; the variant match
    // may live in either, so exhaustiveness checks their union.
    let encode_body = format!("{}\n{}", body_of("fn encode("), body_of("fn encode_with("));
    let decode_body = body_of("fn decode(");
    for (variant, idx) in &variants {
        let qualified = format!("Message::{variant}");
        for (body, fn_name) in [(&encode_body, "encode"), (&decode_body, "decode")] {
            if !body.contains(&qualified) && !suppressed(lines, *idx, Rule::Wire, rel, findings) {
                findings.push(Finding {
                    file: rel.to_path_buf(),
                    line: idx + 1,
                    rule: Rule::Wire,
                    message: format!("`Message::{variant}` has no arm in `{fn_name}`"),
                });
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
    fn token_matching_respects_boundaries() {
        assert!(has_token("thread_rng()", "thread_rng"));
        assert!(!has_token("my_thread_rng()", "thread_rng"));
        assert!(!has_token("thread_rng_pool", "thread_rng"));
        assert!(has_token("panic!(\"x\")", "panic!"));
        assert!(!has_token("dont_panic!(", "panic!"));
    }

    #[test]
    fn float_detection_is_literal_adjacent() {
        let pos = eq_operator_positions("if v == 1.0 {");
        assert_eq!(pos.len(), 1);
        assert!(float_on_right("if v == 1.0 {", pos[0] + 2));
        assert!(float_on_left("if 2.5 == v {", eq_operator_positions("if 2.5 == v {")[0]));
        assert!(!float_on_right("if v == 1 {", 8));
        assert!(eq_operator_positions("a <= b, c >= d, e => f").is_empty());
        assert!(eq_operator_positions("x != 0.5").len() == 1);
    }

    #[test]
    fn doc_comment_allow_does_not_suppress() {
        // An allow quoted in a doc comment is documentation, not a directive.
        let lines = lex(
            "/// gtv-lint: allow(determinism) -- doc text, not a directive\nlet t = thread_rng();\n",
        );
        let mut extra = Vec::new();
        assert!(!suppressed(&lines, 1, Rule::Determinism, Path::new("x.rs"), &mut extra));
        assert!(extra.is_empty(), "doc-comment allows are ignored, not reported as malformed");
        let lines = lex("//! gtv-lint: allow(panic) -- inner doc\nx.unwrap();\n");
        assert!(!suppressed(&lines, 1, Rule::Panic, Path::new("x.rs"), &mut extra));
    }

    #[test]
    fn string_literal_allow_does_not_suppress() {
        // The lexer blanks string contents into `code`; they never become a
        // comment, so an allow inside a string binds nothing.
        let lines =
            lex("let s = \"gtv-lint: allow(determinism) -- nope\";\nlet t = thread_rng();\n");
        let mut extra = Vec::new();
        assert!(!suppressed(&lines, 1, Rule::Determinism, Path::new("x.rs"), &mut extra));
    }

    #[test]
    fn allow_binds_only_to_annotated_line_and_line_below() {
        let src = "// gtv-lint: allow(determinism) -- two lines up\n\nlet t = thread_rng();\n";
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
    fn finding_renders_as_json() {
        let f = Finding {
            file: PathBuf::from("crates/vfl/src/wire.rs"),
            line: 7,
            rule: Rule::CastSafety,
            message: "a \"quoted\" message\\with escapes".to_string(),
        };
        assert_eq!(
            f.to_json(),
            "{\"rule\":\"cast-safety\",\"label\":\"L8/cast-safety\",\"path\":\"crates/vfl/src/wire.rs\",\"line\":7,\"message\":\"a \\\"quoted\\\" message\\\\with escapes\"}"
        );
    }

    #[test]
    fn allow_requires_justification() {
        assert_eq!(
            allow_covers("// gtv-lint: allow(panic) -- negotiated at startup", Rule::Panic),
            Some(true)
        );
        assert_eq!(allow_covers("// gtv-lint: allow(panic)", Rule::Panic), Some(false));
        assert_eq!(allow_covers("// gtv-lint: allow(panic) --   ", Rule::Panic), Some(false));
        assert_eq!(allow_covers("// unrelated", Rule::Panic), None);
        assert_eq!(allow_covers("// gtv-lint: allow(float-eq) -- x", Rule::Panic), None);
    }
}
